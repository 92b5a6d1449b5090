//! Pruning bounds used by the two search algorithms.
//!
//! * Lemmas 2–3: per-leaf **overlap** upper and lower bounds computed from
//!   the leaf's inverted index.  The upper bound lets OverlapSearch prune an
//!   entire leaf without touching its individual datasets; the lower bound
//!   is stated for completeness and checked, not used.
//! * Lemma 4: **distance** lower and upper bounds between two nodes derived
//!   from the triangle inequality over their pivots and radii, allowing
//!   CoverageSearch to accept or reject whole subtrees when checking the
//!   connectivity constraint.
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

use crate::inverted::InvertedIndex;
use crate::node::NodeGeometry;
use spatial::CellSet;

/// Upper bound of Lemma 2: the number of query cells that appear in the
/// leaf's inverted index.  No dataset stored in the leaf can intersect the
/// query in more cells than this.  The leaf keeps its keys as packed
/// blocks, so the bound is one word-parallel AND+popcount against the
/// query's packed blocks.
pub fn leaf_overlap_upper_bound(inverted: &InvertedIndex, query: &CellSet) -> usize {
    query.packed().intersection_size(inverted.keys())
}

/// Lower bound of Lemma 3: the number of query cells whose posting list
/// contains *every* dataset of the leaf (`|c.pl| = |N_leaf.ch|`).  Every
/// dataset stored in the leaf intersects the query in at least this many
/// cells.
///
/// OverlapSearch does not evaluate it: leaves are verified in descending
/// upper-bound order against the exact k-th best overlap, which already
/// discards every leaf this bound could, so it is read off the posting lists
/// here, with no state kept for it, for the tests that check the paper's
/// statement.
pub fn leaf_overlap_lower_bound(inverted: &InvertedIndex, query: &CellSet) -> usize {
    let leaf_size = inverted.dataset_count();
    if leaf_size == 0 {
        return 0;
    }
    query
        .iter()
        .filter(|&c| {
            inverted
                .posting_list(c)
                .is_some_and(|pl| pl.len() == leaf_size)
        })
        .count()
}

/// Distance bounds of Lemma 4: the cell-based dataset distance between the
/// contents of two nodes is contained in
/// `[max(||o₁,o₂|| − r₁ − r₂, 0), ||o₁,o₂|| + r₁ + r₂]`.
pub fn node_distance_bounds(a: &NodeGeometry, b: &NodeGeometry) -> (f64, f64) {
    let center_dist = a.pivot.distance(&b.pivot);
    let lb = (center_dist - a.radius - b.radius).max(0.0);
    let ub = center_dist + a.radius + b.radius;
    (lb, ub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DatasetNode;
    use proptest::prelude::*;
    use spatial::distance::dataset_distance;
    use spatial::zorder::cell_id;
    use spatial::Mbr;
    use spatial::Point;

    fn cs(coords: &[(u32, u32)]) -> CellSet {
        CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y)))
    }

    #[test]
    fn paper_fig5_bounds() {
        // Fig. 5: leaf stores datasets covering cells {7, 9, 11, 12, 13};
        // query cells {3, 9}; both datasets in the leaf contain cell 9, so
        // UB = 1 and LB = 1.
        let d1 = CellSet::from_cells([7u64, 9, 11]);
        let d2 = CellSet::from_cells([9u64, 12, 13]);
        let inv = InvertedIndex::build([(1u32, &d1), (2u32, &d2)]);
        let query = CellSet::from_cells([3u64, 9]);
        assert_eq!(leaf_overlap_upper_bound(&inv, &query), 1);
        assert_eq!(leaf_overlap_lower_bound(&inv, &query), 1);
    }

    #[test]
    fn bounds_sandwich_exact_intersections() {
        let d1 = cs(&[(0, 0), (1, 0), (2, 0)]);
        let d2 = cs(&[(1, 0), (5, 5)]);
        let d3 = cs(&[(1, 0), (2, 0), (9, 9)]);
        let inv = InvertedIndex::build([(1u32, &d1), (2u32, &d2), (3u32, &d3)]);
        let query = cs(&[(0, 0), (1, 0), (2, 0), (7, 7)]);
        let ub = leaf_overlap_upper_bound(&inv, &query);
        let lb = leaf_overlap_lower_bound(&inv, &query);
        for d in [&d1, &d2, &d3] {
            let exact = d.intersection_size(&query);
            assert!(lb <= exact, "lb {lb} > exact {exact}");
            assert!(exact <= ub, "exact {exact} > ub {ub}");
        }
        // Only cell (1,0) is shared by all three datasets.
        assert_eq!(lb, 1);
        assert_eq!(ub, 3);
    }

    #[test]
    fn empty_leaf_has_zero_bounds() {
        let inv = InvertedIndex::new();
        let query = cs(&[(0, 0)]);
        assert_eq!(leaf_overlap_upper_bound(&inv, &query), 0);
        assert_eq!(leaf_overlap_lower_bound(&inv, &query), 0);
    }

    #[test]
    fn packed_bounds_match_scalar_after_mutation() {
        let d1 = cs(&[(0, 0), (1, 0), (2, 0)]);
        let d2 = cs(&[(1, 0), (5, 5)]);
        let inv = InvertedIndex::build([(1u32, &d1), (2u32, &d2)]);
        let query = cs(&[(0, 0), (1, 0), (5, 5)]);
        assert_eq!(leaf_overlap_lower_bound(&inv, &query), 1);
        assert_eq!(leaf_overlap_upper_bound(&inv, &query), 3);
        // Maintenance rebuilds the columns; the bounds must track the new
        // postings exactly.
        let inv = InvertedIndex::build([(1u32, &d1)]);
        assert_eq!(leaf_overlap_lower_bound(&inv, &query), 2);
        assert_eq!(leaf_overlap_upper_bound(&inv, &query), 2);
    }

    #[test]
    fn paper_example6_distance_bounds() {
        // Example 6: two nodes with pivots 5 apart and radii sqrt(2) each;
        // exact distance sqrt(5) ≈ 2.236, lower bound 5 − 2√2 ≈ 2.172,
        // upper bound 5 + 2√2 ≈ 7.828.
        let a = NodeGeometry {
            rect: Mbr::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0)),
            pivot: Point::new(1.0, 1.0),
            radius: 2f64.sqrt(),
        };
        let b = NodeGeometry {
            rect: Mbr::new(Point::new(5.0, 0.0), Point::new(7.0, 2.0)),
            pivot: Point::new(6.0, 1.0),
            radius: 2f64.sqrt(),
        };
        let (lb, ub) = node_distance_bounds(&a, &b);
        assert!((lb - (a.pivot.distance(&b.pivot) - 2.0 * 2f64.sqrt())).abs() < 1e-12);
        assert!((ub - (a.pivot.distance(&b.pivot) + 2.0 * 2f64.sqrt())).abs() < 1e-12);
        assert!(lb <= 2.236 && 2.236 <= ub);
    }

    #[test]
    fn distance_lower_bound_clamped_at_zero() {
        let a = NodeGeometry::from_mbr(Mbr::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)));
        let b = NodeGeometry::from_mbr(Mbr::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0)));
        let (lb, ub) = node_distance_bounds(&a, &b);
        assert_eq!(lb, 0.0);
        assert!(ub > 0.0);
    }

    proptest! {
        #[test]
        fn prop_overlap_bounds_sandwich(
            sets in proptest::collection::vec(
                proptest::collection::vec((0u32..48, 0u32..48), 1..15), 1..8),
            query in proptest::collection::vec((0u32..48, 0u32..48), 1..25),
        ) {
            let cell_sets: Vec<CellSet> = sets.iter().map(|s| cs(s)).collect();
            let inv = InvertedIndex::build(
                cell_sets.iter().enumerate().map(|(i, s)| (i as u32, s)));
            let q = cs(&query);
            let ub = leaf_overlap_upper_bound(&inv, &q);
            let lb = leaf_overlap_lower_bound(&inv, &q);
            // The packed bound is the scalar definition of Lemma 2.
            prop_assert_eq!(ub, q.iter().filter(|&c| inv.posting_list(c).is_some()).count());
            for s in &cell_sets {
                let exact = s.intersection_size(&q);
                prop_assert!(lb <= exact && exact <= ub);
            }
        }

        #[test]
        fn prop_distance_bounds_sandwich(
            a in proptest::collection::vec((0u32..64, 0u32..64), 1..15),
            b in proptest::collection::vec((0u32..64, 0u32..64), 1..15),
        ) {
            let na = DatasetNode::from_cell_set(0, cs(&a)).unwrap();
            let nb = DatasetNode::from_cell_set(1, cs(&b)).unwrap();
            let exact = dataset_distance(&na.cells, &nb.cells);
            let (lb, ub) = node_distance_bounds(&na.geometry, &nb.geometry);
            prop_assert!(lb <= exact + 1e-9, "lb {lb} > exact {exact}");
            prop_assert!(exact <= ub + 1e-9, "exact {exact} > ub {ub}");
        }
    }
}
