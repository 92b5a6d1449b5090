//! Josie baseline \[73\]: exact top-k overlap set similarity search with a
//! sorted inverted index and prefix-filter early termination, applied to
//! cell-ID sets.
//!
//! Tokens (cell IDs) are globally ordered by increasing document frequency.
//! Each dataset's token list is stored in that order, and each posting-list
//! entry records the token's *position* inside the dataset so the remaining
//! potential overlap (`|S_D| − position`) is known when the candidate is
//! first met.  The query's tokens are processed rarest-first; once the number
//! of unread query tokens cannot lift any new candidate above the current
//! `k`-th best overlap, reading stops and only the accumulated candidates
//! are verified exactly.  This mirrors the prefix-filter behaviour whose
//! data-distribution sensitivity the paper discusses.

use crate::traits::OverlapIndex;
use dits::{DatasetNode, OverlapResult};
use spatial::{CellId, CellSet, DatasetId};
use std::collections::HashMap;

/// One posting entry: the dataset containing the token and the dataset's
/// size, so a candidate's maximum possible overlap is known the moment it is
/// first met.
#[derive(Debug, Clone, Copy)]
struct Posting {
    dataset: DatasetId,
    size: usize,
}

/// The Josie sorted inverted index.
#[derive(Debug, Clone, Default)]
pub struct JosieIndex {
    /// Posting lists per token.
    postings: HashMap<CellId, Vec<Posting>>,
    /// Raw cell sets, used for exact verification.
    datasets: HashMap<DatasetId, CellSet>,
    /// Global document frequency of each token.
    frequency: HashMap<CellId, usize>,
}

impl JosieIndex {
    /// Builds the index over a collection of dataset nodes.
    ///
    /// Building is quadratic-ish in the spirit of the original system (global
    /// frequency ordering followed by per-dataset sorting), which is why the
    /// paper reports Josie as the slowest index to construct.
    pub fn build(nodes: Vec<DatasetNode>) -> Self {
        let mut index = Self::default();
        for node in &nodes {
            for cell in node.cells.iter() {
                *index.frequency.entry(cell).or_insert(0) += 1;
            }
        }
        for node in nodes {
            index.add_dataset(node.id, node.cells);
        }
        index
    }

    /// Orders a dataset's tokens rarest-first (ties by token id).
    fn ordered_tokens(&self, cells: &CellSet) -> Vec<CellId> {
        let mut tokens: Vec<CellId> = cells.iter().collect();
        tokens.sort_unstable_by_key(|c| (self.frequency.get(c).copied().unwrap_or(0), *c));
        tokens
    }

    fn add_dataset(&mut self, id: DatasetId, cells: CellSet) {
        for cell in cells.iter() {
            self.frequency.entry(cell).or_insert(0);
        }
        let tokens = self.ordered_tokens(&cells);
        let size = tokens.len();
        for token in tokens {
            self.postings
                .entry(token)
                .or_default()
                .push(Posting { dataset: id, size });
        }
        self.datasets.insert(id, cells);
    }

    fn remove_dataset(&mut self, id: DatasetId) -> Option<CellSet> {
        let cells = self.datasets.remove(&id)?;
        for cell in cells.iter() {
            if let Some(list) = self.postings.get_mut(&cell) {
                list.retain(|p| p.dataset != id);
                if list.is_empty() {
                    self.postings.remove(&cell);
                }
            }
        }
        Some(cells)
    }
}

impl OverlapIndex for JosieIndex {
    fn name(&self) -> &'static str {
        "Josie"
    }

    fn dataset_count(&self) -> usize {
        self.datasets.len()
    }

    fn memory_bytes(&self) -> usize {
        let postings: usize = self
            .postings
            .values()
            .map(|v| {
                std::mem::size_of::<CellId>()
                    + std::mem::size_of::<Vec<Posting>>()
                    + v.capacity() * std::mem::size_of::<Posting>()
            })
            .sum();
        let freq =
            self.frequency.len() * (std::mem::size_of::<CellId>() + std::mem::size_of::<usize>());
        postings + freq
    }

    fn overlap_search(&self, query: &CellSet, k: usize) -> Vec<OverlapResult> {
        if k == 0 || query.is_empty() || self.datasets.is_empty() {
            return Vec::new();
        }
        // Query tokens rarest-first.
        let tokens = self.ordered_tokens(query);
        let total = tokens.len();

        // Partial overlap counts (and the dataset sizes recorded in the
        // postings) accumulated while reading posting lists.
        let mut partial: HashMap<DatasetId, (usize, usize)> = HashMap::new();
        // Exact overlaps of verified candidates, kept sorted descending.
        let mut exact: Vec<OverlapResult> = Vec::new();
        let mut verified: std::collections::HashSet<DatasetId> = std::collections::HashSet::new();

        let kth_best = |exact: &[OverlapResult]| -> usize {
            if exact.len() >= k {
                exact[k - 1].overlap
            } else {
                0
            }
        };

        // Reading phase: stop once no *unseen* dataset can beat the current
        // k-th best (an unseen dataset overlaps the query only in the unread
        // suffix, so its overlap is at most `remaining`).
        let mut remaining = total;
        for (read, token) in tokens.iter().enumerate() {
            if exact.len() >= k && remaining <= kth_best(&exact) {
                break;
            }
            if let Some(list) = self.postings.get(token) {
                for p in list {
                    let entry = partial.entry(p.dataset).or_insert((0, p.size));
                    entry.0 += 1;
                }
            }
            remaining = total - (read + 1);
            // Promote the most promising unverified candidate so the k-th
            // best rises and the termination test can fire early.
            if let Some((&dataset, _)) = partial
                .iter()
                .filter(|(d, _)| !verified.contains(*d))
                .max_by_key(|(_, &(c, _))| c)
            {
                verified.insert(dataset);
                let overlap = self.datasets[&dataset].intersection_size(query);
                if overlap > 0 {
                    exact.push(OverlapResult { dataset, overlap });
                    exact.sort_unstable_by(|a, b| {
                        b.overlap.cmp(&a.overlap).then(a.dataset.cmp(&b.dataset))
                    });
                }
            }
        }

        // Verification phase: any dataset that could still beat the k-th best
        // must already appear in `partial` (it shares at least one read
        // token), and its overlap is at most
        // `partial count + min(remaining, dataset size − partial count)`.
        let mut candidates: Vec<(DatasetId, usize)> = partial
            .iter()
            .filter(|(d, _)| !verified.contains(*d))
            .map(|(&d, &(count, size))| (d, count + remaining.min(size.saturating_sub(count))))
            .collect();
        candidates.sort_unstable_by_key(|&(_, upper_bound)| std::cmp::Reverse(upper_bound));
        for (dataset, upper_bound) in candidates {
            if exact.len() >= k && upper_bound <= kth_best(&exact) {
                // Candidates are sorted by decreasing upper bound, so all
                // later ones fail this test too.
                break;
            }
            let overlap = query.intersection_size(&self.datasets[&dataset]);
            if overlap > 0 {
                exact.push(OverlapResult { dataset, overlap });
                exact.sort_unstable_by(|a, b| {
                    b.overlap.cmp(&a.overlap).then(a.dataset.cmp(&b.dataset))
                });
            }
        }
        exact.truncate(k);
        exact
    }

    fn insert(&mut self, node: DatasetNode) -> bool {
        if self.datasets.contains_key(&node.id) {
            return false;
        }
        // Keep the global frequencies current, then re-derive the token
        // ordering for the new dataset (the sorting step that makes Josie's
        // maintenance comparatively expensive).
        for cell in node.cells.iter() {
            *self.frequency.entry(cell).or_insert(0) += 1;
        }
        self.add_dataset(node.id, node.cells);
        true
    }

    fn update(&mut self, node: DatasetNode) -> bool {
        if !self.datasets.contains_key(&node.id) {
            return false;
        }
        let old = self.remove_dataset(node.id).expect("checked above");
        for cell in old.iter() {
            if let Some(f) = self.frequency.get_mut(&cell) {
                *f = f.saturating_sub(1);
            }
        }
        for cell in node.cells.iter() {
            *self.frequency.entry(cell).or_insert(0) += 1;
        }
        self.add_dataset(node.id, node.cells);
        true
    }

    fn delete(&mut self, id: DatasetId) -> bool {
        match self.remove_dataset(id) {
            Some(old) => {
                for cell in old.iter() {
                    if let Some(f) = self.frequency.get_mut(&cell) {
                        *f = f.saturating_sub(1);
                    }
                }
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dits::overlap::overlap_search_bruteforce;
    use proptest::prelude::*;
    use spatial::zorder::cell_id;

    fn node(id: DatasetId, coords: &[(u32, u32)]) -> DatasetNode {
        DatasetNode::from_cell_set(
            id,
            CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y))),
        )
        .unwrap()
    }

    fn cs(coords: &[(u32, u32)]) -> CellSet {
        CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y)))
    }

    #[test]
    fn finds_exact_top_k() {
        let idx = JosieIndex::build(vec![
            node(0, &[(0, 0), (1, 0), (2, 0), (3, 0)]),
            node(1, &[(0, 0), (1, 0)]),
            node(2, &[(7, 7)]),
        ]);
        let results = idx.overlap_search(&cs(&[(0, 0), (1, 0), (2, 0)]), 2);
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0],
            OverlapResult {
                dataset: 0,
                overlap: 3
            }
        );
        assert_eq!(
            results[1],
            OverlapResult {
                dataset: 1,
                overlap: 2
            }
        );
    }

    #[test]
    fn maintenance_operations() {
        let mut idx = JosieIndex::build(vec![node(0, &[(0, 0)])]);
        assert!(idx.insert(node(1, &[(1, 1), (2, 2)])));
        assert!(!idx.insert(node(1, &[(3, 3)])));
        assert!(idx.update(node(1, &[(5, 5)])));
        assert!(!idx.update(node(7, &[(5, 5)])));
        assert_eq!(idx.dataset_count(), 2);
        let r = idx.overlap_search(&cs(&[(5, 5)]), 3);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].dataset, 1);
        assert!(idx.delete(0));
        assert!(!idx.delete(0));
        assert_eq!(idx.dataset_count(), 1);
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    fn empty_cases() {
        let idx = JosieIndex::default();
        assert!(idx.overlap_search(&cs(&[(0, 0)]), 3).is_empty());
        let idx = JosieIndex::build(vec![node(0, &[(0, 0)])]);
        assert!(idx.overlap_search(&CellSet::new(), 3).is_empty());
        assert!(idx.overlap_search(&cs(&[(0, 0)]), 0).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_bruteforce(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..40, 0u32..40), 1..10), 1..35),
            query in proptest::collection::vec((0u32..40, 0u32..40), 1..12),
            k in 1usize..8,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let idx = JosieIndex::build(nodes.clone());
            let q = cs(&query);
            let got = idx.overlap_search(&q, k);
            let expected = overlap_search_bruteforce(&nodes, &q, k);
            prop_assert_eq!(
                got.iter().map(|r| r.overlap).collect::<Vec<_>>(),
                expected.iter().map(|r| r.overlap).collect::<Vec<_>>(),
                "got {:?} expected {:?}", got, expected
            );
        }
    }
}
