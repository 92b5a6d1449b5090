//! Cell-based dataset distance (Definition 6).
//!
//! `dist(S_D, S_D') = min_{c_i ∈ S_D, c_j ∈ S_D'} ||c_i, c_j||₂` — the
//! Euclidean distance between the two closest cells of the two sets, with
//! cell IDs decomposed back into grid coordinates.  The naive computation is
//! quadratic; [`dataset_distance`] runs one two-level kernel over each
//! set's boundary cells instead, and [`dataset_distance_within`] terminates
//! as soon as a pair within a threshold is found (all the connectivity
//! checks only need `dist ≤ δ`).
//!
//! The kernel leans on two pieces of cached per-set verify state, both paid
//! for once per set and replaced with it:
//!
//! * overlapping sets are detected in word-parallel time (an early-exiting
//!   `AND` over the packed blocks) and are at distance 0 with no cell scan;
//! * disjoint sets walk only their cached **boundary** decompositions —
//!   exact, because the closest pair of two disjoint sets always joins two
//!   boundary cells — grouped into coarse blocks whose bounding-box gaps
//!   prune whole block pairs in exact integer arithmetic before any cell
//!   pair is touched (see `block_distance`).  Together these turn the
//!   quadratic area × area scan into a handful of block-bound checks plus a
//!   few perimeter-cell scans, regardless of how far apart the sets are.
//!
//! [`dataset_distance_bounded`] additionally threads a caller-supplied
//! cutoff into the block pruning so far-away candidates abandon after the
//! bound checks instead of scanning cells to completion.
//!
//! Block ranges, the seed block pair and the probe's x-window are all read
//! with checked access (`get`), so nothing here can index out of bounds.
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

use crate::cellset::{BoundaryBlock, BoundaryIndex, CellSet};
use crate::zorder::cell_coords;

/// Exact cell-based dataset distance between two non-empty cell sets.
///
/// Returns `f64::INFINITY` when either set is empty (no pair exists).
pub fn dataset_distance(a: &CellSet, b: &CellSet) -> f64 {
    // A good-enough threshold of 0 only allows early exit once a distance of
    // exactly zero is found, which cannot be improved upon.
    best_distance_bounded(a, b, 0.0, f64::INFINITY)
}

/// Dataset distance with a caller-supplied `cutoff`: the result is **exact**
/// whenever the true distance is `≤ cutoff`; when it exceeds the cutoff an
/// arbitrary value `> cutoff` (possibly `f64::INFINITY`) is returned.
///
/// Candidates at exactly the cutoff are still computed exactly, so a kNN
/// caller passing its current k-th best distance keeps tie-breaking
/// behaviour identical to the unbounded computation.
pub fn dataset_distance_bounded(a: &CellSet, b: &CellSet, cutoff: f64) -> f64 {
    best_distance_bounded(a, b, 0.0, cutoff)
}

/// Returns `true` when `dist(a, b) ≤ delta`, terminating as early as
/// possible.  This is the predicate behind the *directly connected* relation
/// (Definition 7).
pub fn dataset_distance_within(a: &CellSet, b: &CellSet, delta: f64) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    // Block pairs whose bounding boxes are more than δ apart can never
    // qualify, so the kernel discards them unscanned — this keeps the
    // predicate cheap even for far-apart datasets, which dominate the
    // connectivity checks.
    best_distance_bounded(a, b, delta, delta) <= delta
}

/// The kernel behind all three entry points: finds the minimum pairwise cell
/// distance, abandoning the search as soon as a pair at distance ≤
/// `good_enough` is found, and skipping whatever lies beyond `cutoff` (sound
/// when the caller only needs distances ≤ cutoff).
///
/// Two structural fast paths settle most calls, both exact:
///
/// * **Word-parallel overlap check** — sets sharing any cell are at distance
///   0, settled by an early-exiting `AND` over the cached packed words.
///   This is the common case for the candidates a kNN verifier actually
///   reaches, and it never touches a coordinate.
/// * **Two-level boundary walk** — for disjoint sets the minimising pair
///   always joins two boundary cells (see [`CellSet::boundary_coords`]), and
///   the cached boundary decomposition groups those cells into coarse blocks
///   with exact bounding boxes.  [`block_distance`] prunes whole block pairs
///   by their bbox gap before any cell pair is touched, which stays cheap
///   however far apart the two sets are.  Cell coordinates are integers, so
///   squared distances (and the bbox-gap lower bounds) compute exactly and
///   the result is bit-identical to the full quadratic minimum.
fn best_distance_bounded(a: &CellSet, b: &CellSet, good_enough: f64, cutoff: f64) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    if a.intersects(b) {
        return 0.0;
    }
    block_distance(a.boundary_index(), b.boundary_index(), good_enough, cutoff)
}

/// Separation of two closed intervals along one axis (0 when they overlap).
fn axis_gap(lo1: f64, hi1: f64, lo2: f64, hi2: f64) -> f64 {
    if lo2 > hi1 {
        lo2 - hi1
    } else if lo1 > hi2 {
        lo1 - hi2
    } else {
        0.0
    }
}

/// Exact squared lower bound on the distance between any cell of block `a`
/// and any cell of block `b`: the squared gap between their bounding boxes.
/// All inputs are integer-valued, so the bound computes exactly in `f64`.
fn block_gap_sq(a: &BoundaryBlock, b: &BoundaryBlock) -> f64 {
    let dx = axis_gap(a.min_x, a.max_x, b.min_x, b.max_x);
    let dy = axis_gap(a.min_y, a.max_y, b.min_y, b.max_y);
    dx * dx + dy * dy
}

/// The two-level minimum-distance core over two boundary decompositions.
///
/// Pass 1 finds the block pair with the smallest bbox-gap lower bound and
/// scans it cell by cell to seed `best`.  Pass 2 revisits every block pair,
/// skipping any whose lower bound already rules it out — `lb_sq ≥ best_sq`
/// (exact integer compare) or `√lb_sq > cutoff` (monotone correctly-rounded
/// `sqrt`, so every computed cell distance in the block would also exceed
/// the cutoff) — and scans the survivors.  With a tight seed almost every
/// pair is pruned, so the cost is one cheap bound per block pair plus a few
/// cell scans, independent of how far apart the sets are.
fn block_distance(a: &BoundaryIndex, b: &BoundaryIndex, good_enough: f64, cutoff: f64) -> f64 {
    let mut seed = (0usize, 0usize);
    let mut seed_lb = f64::INFINITY;
    'seed: for (i, ba) in a.blocks.iter().enumerate() {
        for (j, bb) in b.blocks.iter().enumerate() {
            let lb = block_gap_sq(ba, bb);
            if lb < seed_lb {
                seed_lb = lb;
                seed = (i, j);
                if lb == 0.0 {
                    break 'seed;
                }
            }
        }
    }
    let mut best = f64::INFINITY;
    let mut best_sq = f64::INFINITY;
    let scan = |ba: &BoundaryBlock, bb: &BoundaryBlock, best: &mut f64, best_sq: &mut f64| {
        let b_cells = block_cells(b, bb);
        for &(ax, ay) in block_cells(a, ba) {
            for &(bx, by) in b_cells {
                let dx = bx - ax;
                let dy = by - ay;
                // Compare in the squared domain; the square root is only
                // taken when the best pair improves, never per pair.  `sqrt`
                // is monotone, so the result is identical to comparing
                // linearly.
                let d_sq = dx * dx + dy * dy;
                if d_sq < *best_sq {
                    *best_sq = d_sq;
                    *best = d_sq.sqrt();
                    if *best <= good_enough {
                        return true;
                    }
                }
            }
        }
        false
    };
    if let (Some(ba), Some(bb)) = (a.blocks.get(seed.0), b.blocks.get(seed.1)) {
        if scan(ba, bb, &mut best, &mut best_sq) {
            return best;
        }
    }
    for (i, ba) in a.blocks.iter().enumerate() {
        for (j, bb) in b.blocks.iter().enumerate() {
            if (i, j) == seed {
                continue;
            }
            let lb = block_gap_sq(ba, bb);
            if lb >= best_sq || lb.sqrt() > cutoff {
                continue;
            }
            if scan(ba, bb, &mut best, &mut best_sq) {
                return best;
            }
        }
    }
    best
}

/// The boundary cells of one block of `index`, in the order the block
/// range lists them.
fn block_cells<'a>(index: &'a BoundaryIndex, block: &BoundaryBlock) -> &'a [(f64, f64)] {
    index
        .coords
        .get(block.start as usize..block.end as usize)
        .unwrap_or_default()
}

/// A reusable "is anything within δ of this set?" probe.
///
/// The greedy coverage algorithms test hundreds of candidate datasets against
/// the *same* (and steadily growing) result set every iteration; re-sorting
/// that set for each candidate would dominate the run time.  A
/// [`NeighborProbe`] decomposes and sorts the probe side once and then
/// answers `within(candidate, δ)` by binary-searching the candidate's cells
/// into the sorted x-order, with early acceptance on the first close pair.
#[derive(Debug, Clone)]
pub struct NeighborProbe {
    /// Cell coordinates sorted by x.
    xs: Vec<(f64, f64)>,
}

impl NeighborProbe {
    /// Builds a probe over a cell set.  The probe owns its coordinates and
    /// leaves the set's caches as it found them.
    pub fn new(cells: &CellSet) -> Self {
        Self {
            xs: cells.decompose_sorted(),
        }
    }

    /// Returns `true` when the probe set is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Returns `true` when `dist(probe, other) ≤ delta`.
    pub fn within(&self, other: &CellSet, delta: f64) -> bool {
        if self.xs.is_empty() || other.is_empty() {
            return false;
        }
        for cell in other.iter() {
            let (cx, cy) = cell_coords(cell);
            let (cx, cy) = (cx as f64, cy as f64);
            // All probe cells with x in [cx - delta, cx + delta] are the only
            // ones that can be within delta of this cell.
            let start = self.xs.partition_point(|&(x, _)| x < cx - delta);
            for &(x, y) in self.xs.get(start..).unwrap_or_default() {
                if x > cx + delta {
                    break;
                }
                let dx = x - cx;
                let dy = y - cy;
                if dx * dx + dy * dy <= delta * delta {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zorder::cell_id;
    use proptest::prelude::*;

    fn set_from_coords(coords: &[(u32, u32)]) -> CellSet {
        CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y)))
    }

    /// Brute-force O(|a|·|b|) distance: the oracle of the kernel.
    fn dataset_distance_bruteforce(a: &CellSet, b: &CellSet) -> f64 {
        let mut best = f64::INFINITY;
        for ca in a.iter() {
            let (ax, ay) = cell_coords(ca);
            for cb in b.iter() {
                let (bx, by) = cell_coords(cb);
                let dx = ax as f64 - bx as f64;
                let dy = ay as f64 - by as f64;
                best = best.min((dx * dx + dy * dy).sqrt());
            }
        }
        best
    }

    #[test]
    fn paper_example3_distances() {
        // Example 2/3: S_D1 = {9, 11}, S_D2 = {1, 3}, S_D3 = {12, 13} on the
        // 4x4 grid of Fig. 2; dist(D1,D2) = 1, dist(D1,D3) = 1,
        // dist(D2,D3) = sqrt(2).
        let d1 = CellSet::from_cells([9u64, 11]);
        let d2 = CellSet::from_cells([1u64, 3]);
        let d3 = CellSet::from_cells([12u64, 13]);
        assert_eq!(dataset_distance(&d1, &d2), 1.0);
        assert_eq!(dataset_distance(&d1, &d3), 1.0);
        assert!((dataset_distance(&d2, &d3) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn overlapping_sets_have_zero_distance() {
        let a = set_from_coords(&[(1, 1), (2, 2)]);
        let b = set_from_coords(&[(2, 2), (5, 5)]);
        assert_eq!(dataset_distance(&a, &b), 0.0);
        assert!(dataset_distance_within(&a, &b, 0.0));
    }

    #[test]
    fn nested_sets_are_at_distance_zero() {
        // b sits strictly inside a's interior: their *boundaries* are 4
        // cells apart, so this only answers 0 because the word-parallel
        // overlap check runs before the boundary walk.
        let a = set_from_coords(
            &(0..9)
                .flat_map(|x| (0..9).map(move |y| (x, y)))
                .collect::<Vec<_>>(),
        );
        let b = set_from_coords(&[(4, 4)]);
        assert_eq!(dataset_distance(&a, &b), 0.0);
        assert_eq!(dataset_distance_bounded(&a, &b, 0.5), 0.0);
        assert!(dataset_distance_within(&a, &b, 0.0));
    }

    #[test]
    fn empty_sets_are_infinitely_far() {
        let a = CellSet::new();
        let b = set_from_coords(&[(1, 1)]);
        assert_eq!(dataset_distance(&a, &b), f64::INFINITY);
        assert!(!dataset_distance_within(&a, &b, 100.0));
    }

    #[test]
    fn within_threshold_matches_exact() {
        let a = set_from_coords(&[(0, 0), (10, 0)]);
        let b = set_from_coords(&[(0, 5), (20, 20)]);
        assert_eq!(dataset_distance(&a, &b), 5.0);
        assert!(dataset_distance_within(&a, &b, 5.0));
        assert!(!dataset_distance_within(&a, &b, 4.999));
    }

    #[test]
    fn neighbor_probe_matches_within_check() {
        let a = set_from_coords(&[(0, 0), (10, 0), (20, 5)]);
        let b = set_from_coords(&[(0, 4), (30, 30)]);
        let cold = a.memory_bytes();
        let probe = NeighborProbe::new(&a);
        assert_eq!(
            a.memory_bytes(),
            cold,
            "a probe must not fill the set's caches"
        );
        assert!(probe.within(&b, 4.0));
        assert!(!probe.within(&b, 3.9));
        assert!(!NeighborProbe::new(&CellSet::new()).within(&b, 100.0));
        assert!(!probe.within(&CellSet::new(), 100.0));
        assert!(NeighborProbe::new(&CellSet::new()).is_empty());
    }

    #[test]
    fn bounded_is_exact_up_to_and_including_the_cutoff() {
        let a = set_from_coords(&[(0, 0), (10, 0)]);
        let b = set_from_coords(&[(0, 5), (20, 20)]);
        // True distance is 5.0: exact at cutoff 5.0 (the tie case) and above.
        assert_eq!(dataset_distance_bounded(&a, &b, 5.0), 5.0);
        assert_eq!(dataset_distance_bounded(&a, &b, 100.0), 5.0);
        // Below the cutoff only the "> cutoff" contract holds.
        assert!(dataset_distance_bounded(&a, &b, 4.0) > 4.0);
        assert_eq!(
            dataset_distance_bounded(&CellSet::new(), &b, 10.0),
            f64::INFINITY
        );
    }

    #[test]
    fn cached_sweep_survives_mutation() {
        let mut a = set_from_coords(&[(0, 0)]);
        let b = set_from_coords(&[(5, 0)]);
        assert_eq!(dataset_distance(&a, &b), 5.0);
        // Growing `a` must not leave its cached verify state behind.
        a.union_in_place(&set_from_coords(&[(4, 0)]));
        assert_eq!(dataset_distance(&a, &b), 1.0);
        assert_eq!(dataset_distance_bruteforce(&a, &b), 1.0);
    }

    proptest! {
        #[test]
        fn prop_bounded_is_exact_within_cutoff(
            a in proptest::collection::vec((0u32..64, 0u32..64), 1..40),
            b in proptest::collection::vec((0u32..64, 0u32..64), 1..40),
            cutoff in 0.0f64..100.0,
        ) {
            let sa = set_from_coords(&a);
            let sb = set_from_coords(&b);
            let exact = dataset_distance(&sa, &sb);
            let bounded = dataset_distance_bounded(&sa, &sb, cutoff);
            if exact <= cutoff {
                prop_assert_eq!(bounded, exact);
            } else {
                prop_assert!(bounded > cutoff);
            }
            // Ties at exactly the cutoff are exact.
            if exact.is_finite() {
                prop_assert_eq!(dataset_distance_bounded(&sa, &sb, exact), exact);
            }
        }

        #[test]
        fn prop_probe_agrees_with_distance_within(
            a in proptest::collection::vec((0u32..40, 0u32..40), 1..25),
            b in proptest::collection::vec((0u32..40, 0u32..40), 1..25),
            delta in 0.0f64..30.0,
        ) {
            let sa = set_from_coords(&a);
            let sb = set_from_coords(&b);
            let probe = NeighborProbe::new(&sa);
            prop_assert_eq!(probe.within(&sb, delta), dataset_distance_within(&sa, &sb, delta));
        }

        #[test]
        fn prop_sweep_matches_bruteforce(
            a in proptest::collection::vec((0u32..64, 0u32..64), 1..40),
            b in proptest::collection::vec((0u32..64, 0u32..64), 1..40),
        ) {
            let sa = set_from_coords(&a);
            let sb = set_from_coords(&b);
            // Squared cell distances are integers and `sqrt` is monotone, so
            // the kernel equals the quadratic minimum exactly — on the cold
            // call that fills the caches and on the warm one that reads them.
            let brute = dataset_distance_bruteforce(&sa, &sb);
            prop_assert_eq!(dataset_distance(&sa, &sb), brute);
            prop_assert_eq!(dataset_distance(&sa, &sb), brute);
        }

        #[test]
        fn prop_distance_is_symmetric(
            a in proptest::collection::vec((0u32..64, 0u32..64), 1..30),
            b in proptest::collection::vec((0u32..64, 0u32..64), 1..30),
        ) {
            let sa = set_from_coords(&a);
            let sb = set_from_coords(&b);
            prop_assert_eq!(dataset_distance(&sa, &sb), dataset_distance(&sb, &sa));
        }

        #[test]
        fn prop_within_agrees_with_exact(
            a in proptest::collection::vec((0u32..32, 0u32..32), 1..25),
            b in proptest::collection::vec((0u32..32, 0u32..32), 1..25),
            delta in 0.0f64..50.0,
        ) {
            let sa = set_from_coords(&a);
            let sb = set_from_coords(&b);
            let exact = dataset_distance(&sa, &sb);
            prop_assert_eq!(dataset_distance_within(&sa, &sb, delta), exact <= delta);
        }
    }
}
