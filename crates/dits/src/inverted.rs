//! Per-leaf inverted index (Definition 14).
//!
//! Every leaf of DITS-L stores a mapping from cell ID to the list of dataset
//! IDs (within that leaf) containing the cell.  The inverted index serves two
//! purposes:
//!
//! 1. the overlap bounds of Lemmas 2–3 are read off its key set and
//!    posting-list sizes, and
//! 2. the exact verification step of OverlapSearch scans the posting lists of
//!    a candidate leaf once to obtain exact intersection counts for *all*
//!    datasets in the leaf simultaneously.
//!
//! The index is three columns (CSR), not a map: `keys`, the sorted distinct
//! cells, held as a [`CellSet`] because it *is* the Lemma 2 bound set (the
//! packed-word cache of the bound kernel hangs off the key column itself);
//! `offsets`, `keys.len() + 1` positions delimiting key `i`'s list as
//! `postings[offsets[i]..offsets[i + 1]]`; and `postings`, every list back to
//! back, each ascending by dataset id.  A leaf holds at most `f` datasets,
//! so the columns come from one k-way merge of the datasets' already-sorted
//! cell sets and are never patched in place: every mutation rebuilds them.
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
use spatial::{CellId, CellSet, DatasetId};

/// An inverted index from cell ID to the dataset IDs containing the cell
/// (columnar; see the module docs).  Two indexes are equal when they hold the
/// same postings: lists are canonical, ascending by id.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InvertedIndex {
    keys: CellSet,
    offsets: Vec<u32>,
    postings: Vec<DatasetId>,
    /// Number of distinct dataset ids in `postings`.
    datasets: usize,
}

/// Index of the first element of the sorted `slice` that is `>= target`,
/// found by exponential probing from the front: a hop of `d` elements costs
/// `O(log d)`, so a merge that gallops is never worse than a linear one.
fn gallop(slice: &[CellId], target: CellId) -> usize {
    let mut hi = 1usize;
    while slice.get(hi - 1).is_some_and(|&c| c < target) {
        hi <<= 1;
    }
    let lo = hi >> 1;
    let window = slice.get(lo..hi.min(slice.len())).unwrap_or(&[]);
    lo + window.partition_point(|&c| c < target)
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index of a collection of `(dataset id, cell set)` pairs by
    /// a k-way merge of the sorted cell sets.  An id given more than once
    /// indexes the union of its cell sets.
    pub fn build<'a, I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (DatasetId, &'a CellSet)>,
    {
        // Cursors are visited in ascending id order, which is what makes
        // every posting list come out ascending.
        let mut cursors: Vec<(DatasetId, &[CellId])> = entries
            .into_iter()
            .map(|(id, cells)| (id, cells.cells()))
            .filter(|(_, cells)| !cells.is_empty())
            .collect();
        cursors.sort_by_key(|&(id, _)| id);
        let mut ids: Vec<DatasetId> = cursors.iter().map(|&(id, _)| id).collect();
        ids.dedup();
        let datasets = ids.len();

        let total: usize = cursors.iter().map(|(_, cells)| cells.len()).sum();
        let mut keys: Vec<CellId> = Vec::new();
        let mut offsets: Vec<u32> = vec![0];
        let mut postings: Vec<DatasetId> = Vec::with_capacity(total);
        while let Some(cell) = cursors.iter().filter_map(|(_, c)| c.first().copied()).min() {
            let start = postings.len();
            for (id, cells) in cursors.iter_mut() {
                if let Some((&head, rest)) = cells.split_first() {
                    if head == cell {
                        *cells = rest;
                        // A repeated id sits in adjacent cursors.
                        if postings.get(start..).and_then(<[_]>::last) != Some(&*id) {
                            postings.push(*id);
                        }
                    }
                }
            }
            keys.push(cell);
            #[expect(
                clippy::expect_used,
                reason = "a leaf holds at most `f` datasets, so 2^32 postings would need tens of gigabytes of cell sets in one leaf; wrapping an offset instead would silently corrupt every list after it"
            )]
            offsets.push(u32::try_from(postings.len()).expect("under 2^32 postings per leaf"));
        }
        if keys.is_empty() {
            return Self::default();
        }
        offsets.shrink_to_fit();
        postings.shrink_to_fit();
        Self {
            keys: CellSet::from_cells(keys),
            offsets,
            postings,
            datasets,
        }
    }

    /// Number of distinct cells indexed.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when no cell is indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of distinct datasets indexed.
    pub fn dataset_count(&self) -> usize {
        self.datasets
    }

    /// The posting list of the `i`-th key.
    fn list_at(&self, i: usize) -> Option<&[DatasetId]> {
        let start = *self.offsets.get(i)? as usize;
        let end = *self.offsets.get(i + 1)? as usize;
        self.postings.get(start..end)
    }

    /// The posting list of a cell (ascending dataset ids), if the cell is
    /// indexed.
    pub fn posting_list(&self, cell: CellId) -> Option<&[DatasetId]> {
        self.list_at(self.keys.cells().binary_search(&cell).ok()?)
    }

    /// The key column: every cell that appears in at least one indexed
    /// dataset.  It is the Lemma 2 bound set, and its packed block form is
    /// cached on first use.
    pub fn keys(&self) -> &CellSet {
        &self.keys
    }

    /// Exact intersection counts between a query cell set and every dataset
    /// indexed here: one forward merge of the sorted query against the key
    /// column, galloping over whichever side is behind, summing the posting
    /// lists of the cells both hold.
    ///
    /// Returns `(dataset id, |S_Q ∩ S_D|)` pairs for datasets with a
    /// non-zero intersection, ascending by id.
    pub fn intersection_counts(&self, query: &CellSet) -> Vec<(DatasetId, usize)> {
        let mut counts: Vec<(DatasetId, usize)> = Vec::with_capacity(self.datasets);
        let keys = self.keys.cells();
        let mut rest = query.cells();
        let mut k = 0usize;
        while let Some(&cell) = rest.first() {
            k += gallop(keys.get(k..).unwrap_or(&[]), cell);
            let Some(&key) = keys.get(k) else {
                break;
            };
            if key != cell {
                rest = rest.get(gallop(rest, key)..).unwrap_or(&[]);
                continue;
            }
            for &id in self.list_at(k).unwrap_or(&[]) {
                match counts.iter_mut().find(|(d, _)| *d == id) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((id, 1)),
                }
            }
            rest = rest.get(1..).unwrap_or(&[]);
            k += 1;
        }
        counts.sort_unstable_by_key(|&(id, _)| id);
        counts
    }

    /// Heap memory of the index in bytes (Fig. 8 right): capacity × element
    /// size of each column, plus the key column's packed cache once built.
    pub fn memory_bytes(&self) -> usize {
        self.keys.memory_bytes()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.postings.capacity() * std::mem::size_of::<DatasetId>()
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
            prop_assert_eq!(
                idx.posting_list(cell).map(<[_]>::to_vec),
                oracle.posting_list(cell)
            );
            prop_assert_eq!(
                idx.keys().contains(cell),
                oracle.postings.contains_key(&cell)
            );
        }
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
        assert_eq!(idx.posting_list(20), Some(&[10u32][..]));
        assert_eq!(idx.posting_list(22), Some(&[9u32, 10][..]));
        assert_eq!(idx.posting_list(23), Some(&[9u32][..]));
        assert_eq!(idx.posting_list(99), None);
        assert_eq!(idx.key_count(), 3);
        assert!(idx.keys().contains(22));
        assert!(!idx.keys().contains(21));
    }

    #[test]
    fn posting_lists_ascend_whatever_the_build_order() {
        let a = cs(&[1, 2]);
        let b = cs(&[2, 3]);
        let idx = InvertedIndex::build([(7u32, &a), (3u32, &b)]);
        assert_eq!(idx.posting_list(2), Some(&[3u32, 7][..]));
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
    fn gallop_finds_the_first_element_not_below_the_target() {
        let slice: Vec<u64> = (0..100).map(|i| i * 3).collect();
        for target in 0..310u64 {
            let expected = slice.partition_point(|&c| c < target);
            assert_eq!(gallop(&slice, target), expected, "target {target}");
        }
        assert_eq!(gallop(&[], 5), 0);
    }

    #[test]
    fn add_is_idempotent_per_cell() {
        let a = cs(&[5]);
        let idx = InvertedIndex::build([(1u32, &a), (1u32, &a)]);
        assert_eq!(idx.posting_list(5), Some(&[1u32][..]));
        assert_eq!(idx.dataset_count(), 1);
    }

    #[test]
    fn rebuilding_without_a_dataset_cleans_its_postings() {
        let a = cs(&[1, 2]);
        let b = cs(&[2, 3]);
        let idx = InvertedIndex::build([(1u32, &a), (2u32, &b)]);
        assert_eq!(idx.posting_list(2), Some(&[1u32, 2][..]));
        let idx = InvertedIndex::build([(2u32, &b)]);
        assert_eq!(idx.posting_list(1), None);
        assert_eq!(idx.posting_list(2), Some(&[2u32][..]));
        assert_eq!(idx.key_count(), 2);
        let idx = InvertedIndex::build([(2u32, &CellSet::default())]);
        assert!(idx.is_empty());
        assert_eq!(idx.memory_bytes(), 0);
    }

    #[test]
    fn memory_estimate_grows_with_content() {
        let a = cs(&(0..50u64).collect::<Vec<_>>());
        let idx = InvertedIndex::build([(1u32, &a)]);
        assert!(idx.memory_bytes() >= 50 * std::mem::size_of::<CellId>());
    }

    #[test]
    fn memory_bytes_is_the_sum_of_the_columns() {
        let a = cs(&(0..300u64).collect::<Vec<_>>());
        let b = cs(&(200..450u64).step_by(2).collect::<Vec<_>>());
        let idx = InvertedIndex::build([(1u32, &a), (2u32, &b)]);
        let columns =
            idx.keys.cells().len() * 8 + idx.offsets.capacity() * 4 + idx.postings.capacity() * 4;
        assert_eq!(idx.memory_bytes(), columns);
        // Nothing is over-allocated: 375 keys, 376 offsets, 425 postings.
        assert_eq!(columns, 375 * 8 + 376 * 4 + 425 * 4);
        // The bound kernel packs the key column on first use; the estimate
        // grows by exactly that cache.
        let query = cs(&[250, 251]);
        assert_eq!(leaf_overlap_upper_bound(&idx, &query), 2);
        assert_eq!(leaf_overlap_lower_bound(&idx, &query), 1);
        assert_eq!(
            idx.memory_bytes(),
            columns + (idx.keys.memory_bytes() - 375 * 8)
        );
        assert!(idx.memory_bytes() > columns);
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
    }
}
