//! Per-leaf inverted index (Definition 14).
//!
//! Every leaf of DITS-L stores a mapping from cell ID to the list of dataset
//! IDs (within that leaf) containing the cell.  The inverted index serves two
//! purposes:
//!
//! 1. the overlap bounds of Lemmas 2–3 are read off its key set and
//!    posting lists, and
//! 2. the exact verification step of OverlapSearch walks the key blocks a
//!    candidate leaf shares with the query once, obtaining exact
//!    intersection counts for *all* datasets in the leaf simultaneously.
//!
//! The index is four columns, not a map:
//!
//! * `keys`, the distinct cells as packed 64-cell blocks `(cell >> 6, word)`
//!   ([`PackedCells`]).  It *is* the Lemma 2 bound set, so the bound is one
//!   word-parallel intersection with the query's packed form.
//! * `ranks`, one `u32` per block: the number of keys in the blocks before
//!   it (Jacobson's rank directory).  Key `c` sits at position
//!   `ranks[b] + popcount(word_b & ((1 << (c & 63)) - 1))` in key order.
//! * `ids`, the leaf's dataset ids, ascending.
//! * `members`, `ids.len().div_ceil(8)` bytes per key in key order: bit `j`
//!   of a key's row is set when the dataset `ids[j]` holds that key.  One
//!   layout serves every leaf capacity.
//!
//! A leaf holds at most `f` datasets, so the columns come from one k-way
//! merge of the datasets' already-sorted cell sets and are never patched in
//! place: every mutation rebuilds them.  Nothing is built lazily, so
//! [`InvertedIndex::memory_bytes`] is the same before and after any query.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use serde::{Deserialize, Serialize};
use spatial::{CellId, CellSet, DatasetId, PackedCells};

/// An inverted index from cell ID to the dataset IDs containing the cell
/// (columnar; see the module docs).  Two indexes are equal when they index
/// the same cells of the same datasets: every column is canonical.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InvertedIndex {
    keys: PackedCells,
    ranks: Vec<u32>,
    ids: Vec<DatasetId>,
    members: Vec<u8>,
}

/// Whether bit `slot` of a membership row is set.
fn holds(row: &[u8], slot: usize) -> bool {
    row.get(slot / 8)
        .is_some_and(|byte| byte >> (slot % 8) & 1 == 1)
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index of a collection of `(dataset id, cell set)` pairs by
    /// a k-way merge of the cell sets' packed blocks: the smallest key any
    /// set holds next, its words `OR`ed into the key block, then one
    /// membership row per bit of that block.  An id given more than once
    /// indexes the union of its cell sets.
    pub fn build<'a, I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (DatasetId, &'a CellSet)>,
    {
        let mut cursors: Vec<(DatasetId, &[(u64, u64)])> = entries
            .into_iter()
            .map(|(id, cells)| (id, cells.packed().blocks()))
            .filter(|(_, blocks)| !blocks.is_empty())
            .collect();
        cursors.sort_by_key(|&(id, _)| id);
        let mut ids: Vec<DatasetId> = cursors.iter().map(|&(id, _)| id).collect();
        ids.dedup();
        ids.shrink_to_fit();
        // A repeated id sits in adjacent cursors and shares one slot.
        let slots: Vec<usize> = cursors
            .iter()
            .map(|(id, _)| ids.partition_point(|d| d < id))
            .collect();
        let stride = ids.len().div_ceil(8);

        let mut members: Vec<u8> = Vec::new();
        // The block being emitted: its key, the bits still to emit, and the
        // word each set holding the key brings, by slot.
        let (mut key, mut rest) = (0, 0u64);
        let mut words: Vec<(usize, u64)> = Vec::new();
        let keys = PackedCells::from_sorted(std::iter::from_fn(|| {
            if rest == 0 {
                key = (cursors.iter())
                    .filter_map(|(_, blocks)| blocks.first())
                    .map(|&(key, _)| key)
                    .min()?;
                words.clear();
                for ((_, blocks), &slot) in cursors.iter_mut().zip(&slots) {
                    if let Some((&(at, word), tail)) = blocks.split_first() {
                        if at == key {
                            words.push((slot, word));
                            rest |= word;
                            *blocks = tail;
                        }
                    }
                }
            }
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            let row = members.len();
            members.resize(row + stride, 0);
            for &(slot, word) in &words {
                if word >> bit & 1 == 1 {
                    if let Some(byte) = members.get_mut(row + slot / 8) {
                        *byte |= 1 << (slot % 8);
                    }
                }
            }
            Some(key << 6 | u64::from(bit))
        }));
        members.shrink_to_fit();
        let mut ranks: Vec<u32> = Vec::with_capacity(keys.blocks().len());
        let mut before = 0usize;
        for &(_, word) in keys.blocks() {
            #[expect(
                clippy::expect_used,
                reason = "a leaf holds at most `f` datasets, so 2^32 keys would need tens of gigabytes of cell sets in one leaf; wrapping a rank instead would silently misplace every key after it"
            )]
            ranks.push(u32::try_from(before).expect("under 2^32 keys per leaf"));
            before += word.count_ones() as usize;
        }
        Self {
            keys,
            ranks,
            ids,
            members,
        }
    }

    /// Bytes of membership bits per key.
    fn stride(&self) -> usize {
        self.ids.len().div_ceil(8)
    }

    /// Number of distinct cells indexed.
    pub fn key_count(&self) -> usize {
        self.members.len().checked_div(self.stride()).unwrap_or(0)
    }

    /// Returns `true` when no cell is indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.blocks().is_empty()
    }

    /// Number of distinct datasets indexed.
    pub fn dataset_count(&self) -> usize {
        self.ids.len()
    }

    /// The indexed dataset ids, ascending: `ids()[0]` is the leaf's
    /// smallest id.
    pub fn ids(&self) -> &[DatasetId] {
        &self.ids
    }

    /// The key blocks: every cell that appears in at least one indexed
    /// dataset, packed.  It is the Lemma 2 bound set.
    pub fn keys(&self) -> &PackedCells {
        &self.keys
    }

    /// The position in key order of the cell at bit `bit` of block `block`,
    /// if that cell is a key: the block's rank plus the keys below the bit.
    fn position(&self, block: usize, bit: u64) -> Option<usize> {
        let &(_, word) = self.keys.blocks().get(block)?;
        let rank = *self.ranks.get(block)? as usize;
        (word >> bit & 1 == 1).then(|| rank + (word & ((1 << bit) - 1)).count_ones() as usize)
    }

    /// The membership row of the key at `position`.
    fn row(&self, position: usize) -> &[u8] {
        let stride = self.stride();
        self.members
            .get(position * stride..(position + 1) * stride)
            .unwrap_or_default()
    }

    /// The posting list of a cell (ascending dataset ids), if the cell is
    /// indexed.
    pub fn posting_list(&self, cell: CellId) -> Option<Vec<DatasetId>> {
        let block = (self.keys.blocks())
            .binary_search_by_key(&(cell >> 6), |&(key, _)| key)
            .ok()?;
        let row = self.row(self.position(block, cell & 63)?);
        Some(
            (self.ids.iter().enumerate())
                .filter(|&(slot, _)| holds(row, slot))
                .map(|(_, &id)| id)
                .collect(),
        )
    }

    /// Exact intersection counts between a query cell set and every dataset
    /// indexed here: the query's packed blocks are `AND`ed with the key
    /// blocks, every shared cell is turned into its key position through
    /// the rank directory, and that key's membership bits are added to one
    /// counter per dataset.
    ///
    /// Returns `(dataset id, |S_Q ∩ S_D|)` pairs for datasets with a
    /// non-zero intersection, ascending by id.
    pub fn intersection_counts(&self, query: &CellSet) -> Vec<(DatasetId, usize)> {
        let mut counts = vec![0usize; self.ids.len()];
        query
            .packed()
            .for_each_shared(&self.keys, |block, mut shared| {
                while shared != 0 {
                    let bit = u64::from(shared.trailing_zeros());
                    shared &= shared - 1;
                    let Some(position) = self.position(block, bit) else {
                        continue;
                    };
                    for (byte_at, &byte) in self.row(position).iter().enumerate() {
                        let mut byte = byte;
                        while byte != 0 {
                            let slot = byte_at * 8 + byte.trailing_zeros() as usize;
                            byte &= byte - 1;
                            if let Some(n) = counts.get_mut(slot) {
                                *n += 1;
                            }
                        }
                    }
                }
            });
        (self.ids.iter().zip(counts))
            .filter(|&(_, n)| n > 0)
            .map(|(&id, n)| (id, n))
            .collect()
    }

    /// Heap memory of the index in bytes (Fig. 8 right): capacity × element
    /// size of each of the four columns.  Nothing is cached beside them.
    pub fn memory_bytes(&self) -> usize {
        self.keys.memory_bytes()
            + self.ranks.capacity() * std::mem::size_of::<u32>()
            + self.ids.capacity() * std::mem::size_of::<DatasetId>()
            + self.members.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{leaf_overlap_lower_bound, leaf_overlap_upper_bound};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn cs(ids: &[u64]) -> CellSet {
        CellSet::from_cells(ids.iter().copied())
    }

    /// The hash-map form the columns replaced, kept as the oracle.
    #[derive(Default)]
    struct HashOracle {
        postings: HashMap<CellId, Vec<DatasetId>>,
    }

    impl HashOracle {
        fn add(&mut self, id: DatasetId, cells: &CellSet) {
            for cell in cells.iter() {
                let list = self.postings.entry(cell).or_default();
                if !list.contains(&id) {
                    list.push(id);
                }
            }
        }

        fn remove(&mut self, id: DatasetId, cells: &CellSet) {
            for cell in cells.iter() {
                if let Some(list) = self.postings.get_mut(&cell) {
                    list.retain(|d| *d != id);
                    if list.is_empty() {
                        self.postings.remove(&cell);
                    }
                }
            }
        }

        fn posting_list(&self, cell: CellId) -> Option<Vec<DatasetId>> {
            let mut list = self.postings.get(&cell)?.clone();
            list.sort_unstable();
            Some(list)
        }

        fn dataset_count(&self) -> usize {
            let mut ids: Vec<DatasetId> = self.postings.values().flatten().copied().collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        }

        fn intersection_counts(&self, query: &CellSet) -> Vec<(DatasetId, usize)> {
            let mut counts: HashMap<DatasetId, usize> = HashMap::new();
            for cell in query.iter() {
                for &id in self.postings.get(&cell).into_iter().flatten() {
                    *counts.entry(id).or_insert(0) += 1;
                }
            }
            let mut counts: Vec<(DatasetId, usize)> = counts.into_iter().collect();
            counts.sort_unstable();
            counts
        }
    }

    /// Every read of the columnar index agrees with the oracle, over the
    /// cells of `universe` (which covers every cell either side may hold).
    fn assert_matches_oracle(
        idx: &InvertedIndex,
        oracle: &HashOracle,
        universe: std::ops::Range<u64>,
        query: &CellSet,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(idx.key_count(), oracle.postings.len());
        prop_assert_eq!(idx.is_empty(), oracle.postings.is_empty());
        prop_assert_eq!(idx.dataset_count(), oracle.dataset_count());
        for cell in universe {
            prop_assert_eq!(idx.posting_list(cell), oracle.posting_list(cell));
        }
        // The key blocks hold exactly the oracle's cells.
        let mut cells: Vec<CellId> = oracle.postings.keys().copied().collect();
        cells.sort_unstable();
        prop_assert_eq!(idx.keys(), &PackedCells::from_sorted(cells));
        prop_assert_eq!(
            idx.intersection_counts(query),
            oracle.intersection_counts(query)
        );
        let n = idx.dataset_count();
        let ub = leaf_overlap_upper_bound(idx, query);
        let lb = leaf_overlap_lower_bound(idx, query);
        let shared = |cell: &u64| oracle.postings.get(cell).is_some_and(|l| l.len() == n);
        prop_assert_eq!(
            ub,
            query
                .iter()
                .filter(|c| oracle.postings.contains_key(c))
                .count()
        );
        prop_assert_eq!(lb, query.iter().filter(shared).count());
        Ok(())
    }

    #[test]
    fn build_and_query_postings() {
        let d9 = cs(&[22, 23]);
        let d10 = cs(&[20, 22]);
        let idx = InvertedIndex::build([(9u32, &d9), (10u32, &d10)]);
        // Fig. 4(c): posting lists 20 -> {D10}, 22 -> {D9, D10}, 23 -> {D9}.
        assert_eq!(idx.posting_list(20), Some(vec![10]));
        assert_eq!(idx.posting_list(22), Some(vec![9, 10]));
        assert_eq!(idx.posting_list(23), Some(vec![9]));
        assert_eq!(idx.posting_list(99), None);
        assert_eq!(idx.posting_list(21), None);
        assert_eq!(idx.key_count(), 3);
        // One block holds all three keys; one byte per key holds both ids.
        assert_eq!(idx.keys().blocks(), &[(0, 1 << 20 | 1 << 22 | 1 << 23)]);
        assert_eq!(idx.ranks, [0]);
        assert_eq!(idx.ids(), [9, 10]);
        assert_eq!(idx.members, [0b10, 0b11, 0b01]);
    }

    #[test]
    fn posting_lists_ascend_whatever_the_build_order() {
        let a = cs(&[1, 2]);
        let b = cs(&[2, 3]);
        let idx = InvertedIndex::build([(7u32, &a), (3u32, &b)]);
        assert_eq!(idx.posting_list(2), Some(vec![3, 7]));
        assert_eq!(idx, InvertedIndex::build([(3u32, &b), (7u32, &a)]));
    }

    #[test]
    fn intersection_counts_are_exact() {
        let a = cs(&[1, 2, 3]);
        let b = cs(&[3, 4]);
        let c = cs(&[10, 11]);
        let idx = InvertedIndex::build([(1u32, &a), (2u32, &b), (3u32, &c)]);
        let query = cs(&[2, 3, 4, 5]);
        let counts = idx.intersection_counts(&query);
        assert_eq!(counts, vec![(1, 2), (2, 2)]);
        // Cross-check against CellSet's own intersection.
        assert_eq!(a.intersection_size(&query), 2);
        assert_eq!(b.intersection_size(&query), 2);
        assert_eq!(c.intersection_size(&query), 0);
    }

    #[test]
    fn add_is_idempotent_per_cell() {
        let a = cs(&[5]);
        let idx = InvertedIndex::build([(1u32, &a), (1u32, &a)]);
        assert_eq!(idx.posting_list(5), Some(vec![1]));
        assert_eq!(idx.dataset_count(), 1);
    }

    #[test]
    fn rebuilding_without_a_dataset_cleans_its_postings() {
        let a = cs(&[1, 2]);
        let b = cs(&[2, 3]);
        let idx = InvertedIndex::build([(1u32, &a), (2u32, &b)]);
        assert_eq!(idx.posting_list(2), Some(vec![1, 2]));
        let idx = InvertedIndex::build([(2u32, &b)]);
        assert_eq!(idx.posting_list(1), None);
        assert_eq!(idx.posting_list(2), Some(vec![2]));
        assert_eq!(idx.key_count(), 2);
        let idx = InvertedIndex::build([(2u32, &CellSet::default())]);
        assert!(idx.is_empty());
        assert_eq!(idx.memory_bytes(), 0);
    }

    #[test]
    fn memory_estimate_grows_with_content() {
        let a = cs(&(0..50u64).collect::<Vec<_>>());
        let idx = InvertedIndex::build([(1u32, &a)]);
        assert!(idx.memory_bytes() >= 50);
    }

    #[test]
    fn memory_bytes_is_the_sum_of_the_columns() {
        let a = cs(&(0..300u64).collect::<Vec<_>>());
        let b = cs(&(200..450u64).step_by(2).collect::<Vec<_>>());
        let idx = InvertedIndex::build([(1u32, &a), (2u32, &b)]);
        let columns = idx.keys.blocks().len() * 16
            + idx.ranks.capacity() * 4
            + idx.ids.capacity() * 4
            + idx.members.capacity();
        assert_eq!(idx.memory_bytes(), columns);
        // Nothing is over-allocated: 375 keys in the 8 blocks of cells
        // 0..=448, 8 ranks, 2 ids, and one membership byte per key.
        assert_eq!(idx.key_count(), 375);
        assert_eq!(columns, 8 * 16 + 8 * 4 + 2 * 4 + 375);
        // Nothing is built lazily: bounds and verification leave the
        // estimate where it was.
        let query = cs(&[250, 251, 448]);
        assert_eq!(leaf_overlap_upper_bound(&idx, &query), 3);
        assert_eq!(leaf_overlap_lower_bound(&idx, &query), 1);
        assert_eq!(idx.intersection_counts(&query), vec![(1, 2), (2, 2)]);
        assert_eq!(idx.memory_bytes(), columns);
    }

    #[test]
    fn ranks_place_keys_across_blocks_and_membership_rows_grow_by_the_byte() {
        // Nine datasets need two membership bytes per key; dataset 8's bit
        // is the first of the second byte.
        let sets: Vec<CellSet> = (0..9u64).map(|i| cs(&[i, 64 * i + 63, 1000])).collect();
        let idx = InvertedIndex::build(sets.iter().enumerate().map(|(i, s)| (i as u32, s)));
        assert_eq!(idx.members.len(), idx.key_count() * 2);
        assert_eq!(idx.posting_list(1000), Some((0..9).collect()));
        assert_eq!(idx.posting_list(8), Some(vec![8]));
        assert_eq!(idx.posting_list(575), Some(vec![8]));
        assert_eq!(idx.posting_list(63), Some(vec![0]));
        let query = cs(&[0, 8, 63, 575, 1000]);
        let counts = idx.intersection_counts(&query);
        assert_eq!(counts.len(), 9);
        assert_eq!(counts.first(), Some(&(0, 3)));
        assert_eq!(counts.last(), Some(&(8, 3)));
        // Every rank is the number of keys before its block.
        let mut before = 0;
        for (&(_, word), &rank) in idx.keys().blocks().iter().zip(&idx.ranks) {
            assert_eq!(rank, before);
            before += word.count_ones();
        }
        assert_eq!(before as usize, idx.key_count());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        // Random add / remove sequences over a small id and cell universe,
        // so duplicate adds, removals of absent ids, emptied indexes and
        // cells shared by all or by one dataset all occur.  The columns are
        // never patched: after every op they are built from the live sets,
        // as leaf maintenance does, and compared with the patched oracle.
        #[test]
        fn prop_columns_match_the_hash_map_oracle(
            ops in proptest::collection::vec(
                (0u8..5, 0u32..5, proptest::collection::vec(0u64..40, 0..12)), 1..40),
            query in proptest::collection::vec(0u64..48, 0..24),
        ) {
            let query = cs(&query);
            let mut oracle = HashOracle::default();
            // What `build` is handed: the live cell set of every id.
            let mut live: HashMap<DatasetId, CellSet> = HashMap::new();
            for (op, id, cells) in ops {
                let cells = cs(&cells);
                match op {
                    0 | 1 => {
                        oracle.add(id, &cells);
                        let merged = live.entry(id).or_default().union(&cells);
                        live.insert(id, merged);
                    }
                    2 => {
                        oracle.remove(id, &cells);
                        if let Some(set) = live.get_mut(&id) {
                            *set = CellSet::from_cells(set.iter().filter(|&c| !cells.contains(c)));
                        }
                    }
                    3 => {
                        // Remove a whole dataset, the way leaf maintenance does.
                        let set = live.remove(&id).unwrap_or_default();
                        oracle.remove(id, &set);
                    }
                    // Build again over an unchanged model.
                    _ => {}
                }
                let idx = InvertedIndex::build(live.iter().map(|(id, set)| (*id, set)));
                assert_matches_oracle(&idx, &oracle, 0..48, &query)?;
            }
        }

        // Leaves of 1–70 datasets, so a key's membership row takes 1–9
        // bytes, with one id given a second cell set: the index holds the
        // union of its two sets under one slot.
        #[test]
        fn prop_wide_leaves_and_a_repeated_id_match_the_hash_map_oracle(
            sets in proptest::collection::vec(
                proptest::collection::vec(0u64..300, 0..10), 1..71),
            again in 0usize..70,
            extra in proptest::collection::vec(0u64..300, 0..10),
            query in proptest::collection::vec(0u64..320, 0..60),
        ) {
            let sets: Vec<CellSet> = sets.iter().map(|s| cs(s)).collect();
            let extra = cs(&extra);
            let again = (again % sets.len()) as DatasetId;
            let mut oracle = HashOracle::default();
            for (i, set) in sets.iter().enumerate() {
                oracle.add(i as DatasetId, set);
            }
            oracle.add(again, &extra);
            let entries = sets.iter().enumerate().map(|(i, s)| (i as DatasetId, s));
            let idx = InvertedIndex::build(entries.chain([(again, &extra)]));
            assert_matches_oracle(&idx, &oracle, 0..320, &cs(&query))?;
            prop_assert_eq!(idx.members.len(), idx.key_count() * idx.dataset_count().div_ceil(8));
        }
    }
}
