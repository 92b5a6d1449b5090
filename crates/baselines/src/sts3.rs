//! STS3 baseline \[39\]: cells plus a single inverted index from cell ID to
//! the datasets containing that cell, over the whole data source.
//!
//! The DITS paper characterises searching with STS3 as "scanning all
//! datasets and estimating the number of set intersections, where pairwise
//! comparisons are time-consuming" and notes that its running time barely
//! changes with `k` because every touched dataset must be ranked.  The
//! search here follows that characterisation: every dataset of the source is
//! scanned and its exact cell intersection with the query is computed
//! pairwise, then all datasets are ranked.  The inverted index is what makes
//! STS3 cheap to *build*, small in memory and fast to *update* (Figs. 8,
//! 21–22), which is the trade-off the evaluation highlights.

use crate::traits::OverlapIndex;
use dits::{DatasetNode, OverlapResult};
use spatial::{CellId, CellSet, DatasetId};
use std::collections::HashMap;

/// The STS3 inverted index.
#[derive(Debug, Clone, Default)]
pub struct Sts3Index {
    postings: HashMap<CellId, Vec<DatasetId>>,
    datasets: HashMap<DatasetId, CellSet>,
}

impl Sts3Index {
    /// Builds the index over a collection of dataset nodes.
    pub fn build(nodes: Vec<DatasetNode>) -> Self {
        let mut index = Self::default();
        for node in nodes {
            index.insert(node);
        }
        index
    }

    /// Number of distinct cells indexed.
    pub fn key_count(&self) -> usize {
        self.postings.len()
    }

    fn add_postings(&mut self, id: DatasetId, cells: &CellSet) {
        for cell in cells.iter() {
            self.postings.entry(cell).or_default().push(id);
        }
    }

    fn remove_postings(&mut self, id: DatasetId, cells: &CellSet) {
        for cell in cells.iter() {
            if let Some(list) = self.postings.get_mut(&cell) {
                list.retain(|d| *d != id);
                if list.is_empty() {
                    self.postings.remove(&cell);
                }
            }
        }
    }
}

impl OverlapIndex for Sts3Index {
    fn name(&self) -> &'static str {
        "STS3"
    }

    fn dataset_count(&self) -> usize {
        self.datasets.len()
    }

    fn memory_bytes(&self) -> usize {
        let posting_bytes: usize = self
            .postings
            .values()
            .map(|v| {
                std::mem::size_of::<CellId>()
                    + std::mem::size_of::<Vec<DatasetId>>()
                    + v.capacity() * std::mem::size_of::<DatasetId>()
            })
            .sum();
        // Unlike the tree indexes, STS3 does not keep per-dataset geometry;
        // only the posting lists count towards its footprint (the raw cell
        // sets are the data itself, shared by every index in the comparison).
        posting_bytes
    }

    fn overlap_search(&self, query: &CellSet, k: usize) -> Vec<OverlapResult> {
        if k == 0 || query.is_empty() {
            return Vec::new();
        }
        // Scan every dataset and rank all of them (the behaviour the paper
        // attributes to STS3).
        let mut results: Vec<OverlapResult> = self
            .datasets
            .iter()
            .map(|(&dataset, cells)| OverlapResult {
                dataset,
                overlap: query.intersection_size(cells),
            })
            .filter(|r| r.overlap > 0)
            .collect();
        results.sort_unstable_by(|a, b| b.overlap.cmp(&a.overlap).then(a.dataset.cmp(&b.dataset)));
        results.truncate(k);
        results
    }

    fn insert(&mut self, node: DatasetNode) -> bool {
        if self.datasets.contains_key(&node.id) {
            return false;
        }
        self.add_postings(node.id, &node.cells);
        self.datasets.insert(node.id, node.cells);
        true
    }

    fn update(&mut self, node: DatasetNode) -> bool {
        let Some(old) = self.datasets.remove(&node.id) else {
            return false;
        };
        self.remove_postings(node.id, &old);
        self.add_postings(node.id, &node.cells);
        self.datasets.insert(node.id, node.cells);
        true
    }

    fn delete(&mut self, id: DatasetId) -> bool {
        let Some(old) = self.datasets.remove(&id) else {
            return false;
        };
        self.remove_postings(id, &old);
        true
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
    fn finds_top_k_by_overlap() {
        let idx = Sts3Index::build(vec![
            node(0, &[(0, 0), (1, 0), (2, 0)]),
            node(1, &[(1, 0)]),
            node(2, &[(9, 9)]),
        ]);
        let results = idx.overlap_search(&cs(&[(0, 0), (1, 0)]), 2);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].dataset, 0);
        assert_eq!(results[0].overlap, 2);
        assert_eq!(results[1].dataset, 1);
    }

    #[test]
    fn updates_are_reflected() {
        let mut idx = Sts3Index::build(vec![node(0, &[(0, 0)])]);
        assert!(!idx.insert(node(0, &[(1, 1)])));
        assert!(idx.insert(node(1, &[(1, 1)])));
        assert!(idx.update(node(1, &[(2, 2)])));
        assert!(!idx.update(node(9, &[(2, 2)])));
        let results = idx.overlap_search(&cs(&[(2, 2)]), 5);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].dataset, 1);
        assert!(idx.delete(1));
        assert!(!idx.delete(1));
        assert!(idx.overlap_search(&cs(&[(2, 2)]), 5).is_empty());
        assert_eq!(idx.dataset_count(), 1);
    }

    #[test]
    fn empty_cases() {
        let idx = Sts3Index::default();
        assert!(idx.overlap_search(&cs(&[(0, 0)]), 3).is_empty());
        assert_eq!(idx.memory_bytes(), 0);
        assert_eq!(idx.key_count(), 0);
        let idx = Sts3Index::build(vec![node(0, &[(0, 0)])]);
        assert!(idx.overlap_search(&CellSet::new(), 3).is_empty());
        assert!(idx.overlap_search(&cs(&[(0, 0)]), 0).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_bruteforce(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..48, 0u32..48), 1..10), 1..40),
            query in proptest::collection::vec((0u32..48, 0u32..48), 1..12),
            k in 1usize..10,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let idx = Sts3Index::build(nodes.clone());
            let q = cs(&query);
            let got = idx.overlap_search(&q, k);
            let expected = overlap_search_bruteforce(&nodes, &q, k);
            prop_assert_eq!(
                got.iter().map(|r| r.overlap).collect::<Vec<_>>(),
                expected.iter().map(|r| r.overlap).collect::<Vec<_>>()
            );
        }
    }
}
