//! Spatial connectivity (Definitions 7–9).
//!
//! * Two cell-based datasets are **directly connected** when their dataset
//!   distance is at most the threshold δ.
//! * They are **indirectly connected** when a chain of pairwise directly
//!   connected datasets links them.
//! * A collection satisfies **spatial connectivity** when every pair is
//!   directly or indirectly connected — i.e. the "directly connected" graph
//!   over the collection has a single connected component.
//!
//! CJSP (Definition 11) constrains the result set `S* ∪ {S_Q}` to satisfy
//! spatial connectivity.  The greedy loops keep it by construction (a
//! dataset is only ever picked from the connect set of what is already
//! chosen); this module provides the one-shot predicates that tests and the
//! SG baseline check their results with.

use crate::cellset::CellSet;
use crate::distance::dataset_distance_within;

/// Returns `true` when the two datasets are directly connected under
/// threshold `delta` (Definition 7).
pub fn is_directly_connected(a: &CellSet, b: &CellSet, delta: f64) -> bool {
    dataset_distance_within(a, b, delta).0
}

/// Checks whether a collection of cell sets satisfies spatial connectivity
/// (Definition 9): every pair is directly or indirectly connected.
///
/// Empty and singleton collections trivially satisfy the property.
pub fn satisfies_spatial_connectivity(sets: &[&CellSet], delta: f64) -> bool {
    let n = sets.len();
    if n <= 1 {
        return true;
    }
    let mut uf = UnionFind::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if uf.find(i) != uf.find(j) && is_directly_connected(sets[i], sets[j], delta) {
                uf.union(i, j);
            }
        }
    }
    uf.component_count() == 1
}

/// Private union-find used by the one-shot predicate.
struct UnionFind {
    parent: Vec<usize>,
    components: usize,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            components: n,
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
            self.components -= 1;
        }
    }

    fn component_count(&self) -> usize {
        self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zorder::cell_id;
    use proptest::prelude::*;

    fn set(coords: &[(u32, u32)]) -> CellSet {
        CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y)))
    }

    #[test]
    fn paper_example3_connectivity() {
        // δ = 1: D1 directly connected to D2 and D3, D2 indirectly connected
        // to D3, so {D1, D2, D3} satisfies spatial connectivity.
        let d1 = CellSet::from_cells([9u64, 11]);
        let d2 = CellSet::from_cells([1u64, 3]);
        let d3 = CellSet::from_cells([12u64, 13]);
        assert!(is_directly_connected(&d1, &d2, 1.0));
        assert!(is_directly_connected(&d1, &d3, 1.0));
        assert!(!is_directly_connected(&d2, &d3, 1.0));
        assert!(satisfies_spatial_connectivity(&[&d1, &d2, &d3], 1.0));
        // Without the intermediary D1, D2 and D3 are not connected at δ = 1.
        assert!(!satisfies_spatial_connectivity(&[&d2, &d3], 1.0));
        // But they are at δ = sqrt(2).
        assert!(satisfies_spatial_connectivity(&[&d2, &d3], 2f64.sqrt()));
    }

    #[test]
    fn trivial_collections_are_connected() {
        let d = set(&[(0, 0)]);
        assert!(satisfies_spatial_connectivity(&[], 0.0));
        assert!(satisfies_spatial_connectivity(&[&d], 0.0));
    }

    #[test]
    fn chain_connectivity_requires_every_link() {
        // Three sets along a line, consecutive ones 2 apart, ends 4 apart.
        let a = set(&[(0, 0)]);
        let b = set(&[(2, 0)]);
        let c = set(&[(4, 0)]);
        assert!(satisfies_spatial_connectivity(&[&a, &b, &c], 2.0));
        // Remove the middle link: ends are 4 apart > δ.
        assert!(!satisfies_spatial_connectivity(&[&a, &c], 2.0));
    }

    proptest! {
        #[test]
        fn prop_direct_connection_is_symmetric(
            a in proptest::collection::vec((0u32..32, 0u32..32), 1..20),
            b in proptest::collection::vec((0u32..32, 0u32..32), 1..20),
            delta in 0.0f64..20.0,
        ) {
            let sa = set(&a);
            let sb = set(&b);
            prop_assert_eq!(
                is_directly_connected(&sa, &sb, delta),
                is_directly_connected(&sb, &sa, delta)
            );
        }

        #[test]
        fn prop_connectivity_monotone_in_delta(
            sets in proptest::collection::vec(
                proptest::collection::vec((0u32..24, 0u32..24), 1..8), 2..6),
            delta in 0.0f64..10.0,
        ) {
            let owned: Vec<CellSet> = sets.iter().map(|s| set(s)).collect();
            let refs: Vec<&CellSet> = owned.iter().collect();
            if satisfies_spatial_connectivity(&refs, delta) {
                // A larger threshold can only keep the collection connected.
                prop_assert!(satisfies_spatial_connectivity(&refs, delta + 5.0));
            }
        }
    }
}
