//! Cell-based dataset distance (Definition 6).
//!
//! `dist(S_D, S_D') = min_{c_i ∈ S_D, c_j ∈ S_D'} ||c_i, c_j||₂` — the
//! Euclidean distance between the two closest cells of the two sets, with
//! cell IDs decomposed back into grid coordinates.  The naive computation is
//! quadratic; [`dataset_distance`] runs one two-level kernel over each
//! set's boundary cells instead, and [`dataset_distance_within`] terminates
//! as soon as a pair within a threshold is found.  It is the one
//! `dist ≤ δ` predicate (Definition 7) of the workspace: spatial
//! connectivity, DITS-L's `FindConnectSet` walk, the data center's greedy,
//! the SG baseline and the `pricing` searches all call it, so a distance
//! that lands exactly on δ gets the same answer everywhere.
//!
//! The kernel leans on two pieces of per-set verify state: the packed
//! blocks a set is stored as, and boundary tiles cached beside them, paid
//! for once per set and replaced with it:
//!
//! * overlapping sets are detected in word-parallel time (an early-exiting
//!   `AND` over the packed blocks) and are at distance 0 with no cell scan;
//! * disjoint sets walk only their cached **boundary tiles** — exact,
//!   because the closest pair of two disjoint sets always joins two
//!   boundary cells.  Beside each packed 8×8-cell block sits one `u64`
//!   boundary mask and the exact box of its boundary cells, and each 64×64
//!   super-block (a contiguous run of blocks in z-order) has a box too; no
//!   state is kept per cell.  The walk prunes super-block pairs, then tiles
//!   against super-blocks, then tile pairs by their box gaps in exact
//!   integer arithmetic, and scans only the surviving tile pairs bit by bit
//!   (see `Walk::block_distance`).  On the kNN workload of `bench-runner`
//!   that is about 260 bound tests per exact distance, where one flat pass
//!   over every pair of boundary blocks took about 15 700.
//!
//! [`dataset_distance_bounded`] additionally threads a caller-supplied
//! cutoff into the pruning so far-away candidates abandon after the bound
//! checks instead of scanning cells to completion; it and
//! [`dataset_distance_within`] report how many bound tests they ran.
//!
//! Super-blocks, tile ranges and the bit table are all read with checked
//! access (`get`), so nothing here can index out of bounds.
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

use crate::cellset::{set_bits, BoundaryTiles, CellSet, SuperBlock, Tile, TILE_XY};

/// Exact cell-based dataset distance between two non-empty cell sets.
///
/// Returns `f64::INFINITY` when either set is empty (no pair exists).
pub fn dataset_distance(a: &CellSet, b: &CellSet) -> f64 {
    // A good-enough threshold of 0 only allows early exit once a distance of
    // exactly zero is found, which cannot be improved upon.
    best_distance_bounded(a, b, 0.0, f64::INFINITY).0
}

/// Dataset distance with a caller-supplied `cutoff`: the result is **exact**
/// whenever the true distance is `≤ cutoff`; when it exceeds the cutoff an
/// arbitrary value `> cutoff` (possibly `f64::INFINITY`) is returned.
/// Beside it comes the number of bound tests the kernel ran: box-gap tests
/// between super-blocks, tiles and super-blocks, and tiles.
///
/// Candidates at exactly the cutoff are still computed exactly, so a kNN
/// caller passing its current k-th best distance keeps tie-breaking
/// behaviour identical to the unbounded computation.
pub fn dataset_distance_bounded(a: &CellSet, b: &CellSet, cutoff: f64) -> (f64, usize) {
    best_distance_bounded(a, b, 0.0, cutoff)
}

/// Returns `true` when `dist(a, b) ≤ delta`, terminating as early as
/// possible, and beside it the number of bound tests the kernel ran.  This
/// is the predicate behind the *directly connected* relation (Definition 7).
pub fn dataset_distance_within(a: &CellSet, b: &CellSet, delta: f64) -> (bool, usize) {
    if a.is_empty() || b.is_empty() {
        return (false, 0);
    }
    // Boxes more than δ apart can never qualify, so the kernel discards them
    // unscanned — this keeps the predicate cheap even for far-apart
    // datasets, which dominate the connectivity checks.
    let (distance, bound_tests) = best_distance_bounded(a, b, delta, delta);
    (distance <= delta, bound_tests)
}

/// The kernel behind all three entry points: finds the minimum pairwise cell
/// distance, abandoning the search as soon as a pair at distance ≤
/// `good_enough` is found, and skipping whatever lies beyond `cutoff` (sound
/// when the caller only needs distances ≤ cutoff).  Returns it with the
/// number of bound tests run.
///
/// Two structural fast paths settle most calls, both exact:
///
/// * **Word-parallel overlap check** — sets sharing any cell are at distance
///   0, settled by an early-exiting `AND` over the packed words.
///   This is the common case for the candidates a kNN verifier actually
///   reaches, and it never touches a coordinate.
/// * **Two-level boundary walk** — for disjoint sets the minimising pair
///   always joins two boundary cells (see `CellSet::boundary_tiles`), and
///   the cached boundary tiles group those cells into 8×8 tiles and 64×64
///   super-blocks with exact bounding boxes.  [`Walk::block_distance`] prunes
///   whole super-blocks and tiles by their box gaps before any cell pair is
///   touched, which stays cheap however far apart the two sets are.  Cell
///   coordinates are integers, so squared distances (and the box-gap lower
///   bounds) compute exactly and the result is bit-identical to the full
///   quadratic minimum.
fn best_distance_bounded(a: &CellSet, b: &CellSet, good_enough: f64, cutoff: f64) -> (f64, usize) {
    if a.is_empty() || b.is_empty() {
        return (f64::INFINITY, 0);
    }
    if a.intersects(b) {
        return (0.0, 0);
    }
    let mut walk = Walk {
        best: f64::INFINITY,
        best_sq: f64::INFINITY,
        good_enough,
        cutoff,
        bound_tests: 0,
    };
    walk.block_distance(a.boundary_tiles(), b.boundary_tiles());
    (walk.best, walk.bound_tests)
}

/// Exact squared lower bound on the distance between any cell of box `a`
/// and any cell of box `b` (`[x0, y0, x1, y1]`, corners included): the
/// per-axis gaps in integers, squared and summed in `f64` the way a cell
/// pair's distance is, so it never exceeds the computed distance of any pair
/// of their cells.  The one box gap of the crate: `CellSet::clip_near_blocks`
/// tests its boxes with it too.
pub(crate) fn gap_sq([ax0, ay0, ax1, ay1]: [u32; 4], [bx0, by0, bx1, by1]: [u32; 4]) -> f64 {
    let dx = bx0.saturating_sub(ax1).max(ax0.saturating_sub(bx1)) as f64;
    let dy = by0.saturating_sub(ay1).max(ay0.saturating_sub(by1)) as f64;
    dx * dx + dy * dy
}

/// The running state of one two-level walk.
struct Walk {
    best: f64,
    best_sq: f64,
    good_enough: f64,
    cutoff: f64,
    bound_tests: usize,
}

impl Walk {
    /// Runs one bound test: `true` when boxes `gap_sq` apart may still hold
    /// a pair that improves on the best, within the cutoff.  The cutoff is
    /// tested in the √ domain — `sqrt` is monotone and correctly rounded, so
    /// every computed cell distance between the boxes also exceeds it —
    /// never as `gap_sq > cutoff²`, whose rounding can drop a pair tied at
    /// the cutoff.
    fn admits(&mut self, gap_sq: f64) -> bool {
        self.bound_tests += 1;
        gap_sq < self.best_sq && gap_sq.sqrt() <= self.cutoff
    }

    /// The two-level minimum-distance core (branch-and-bound closest pair
    /// over two hierarchies; Hjaltason & Samet, SIGMOD 1998; Corral et al.,
    /// SIGMOD 2000).
    ///
    /// It seeds the best distance from the closest super-block pair, scanned
    /// in full.  Then, per super-block of `a`, it keeps the super-blocks of
    /// `b` its box admits; per tile of that super-block, it visits those in
    /// ascending gap from the tile and stops at the first gap ≥ best; in a
    /// visited super-block it scans only the tile pairs whose gap is still
    /// admitted, bit by bit.  Returns early once the best is within
    /// `good_enough`.
    fn block_distance(&mut self, a: &BoundaryTiles, b: &BoundaryTiles) {
        let mut seed = None;
        let mut seed_gap = f64::INFINITY;
        'seed: for (i, sa) in a.supers.iter().enumerate() {
            for (j, sb) in b.supers.iter().enumerate() {
                self.bound_tests += 1;
                let gap = gap_sq(sa.bbox, sb.bbox);
                if gap < seed_gap {
                    (seed_gap, seed) = (gap, Some((i, j)));
                    if gap == 0.0 {
                        break 'seed;
                    }
                }
            }
        }
        let Some((si, sj)) = seed else { return };
        if let (Some(sa), Some(sb)) = (a.supers.get(si), b.supers.get(sj)) {
            let origin = sa.origin();
            for tile in a.tiles_of(sa).iter().filter(|t| t.mask != 0) {
                if self.tile_to_block(tile, origin, b, sb) {
                    return;
                }
            }
        }
        let mut near: Vec<&SuperBlock> = Vec::new();
        let mut order: Vec<(f64, &SuperBlock)> = Vec::new();
        for (i, sa) in a.supers.iter().enumerate() {
            near.clear();
            for (j, sb) in b.supers.iter().enumerate() {
                if (i, j) != (si, sj) && self.admits(gap_sq(sa.bbox, sb.bbox)) {
                    near.push(sb);
                }
            }
            if near.is_empty() {
                continue;
            }
            let origin = sa.origin();
            for tile in a.tiles_of(sa).iter().filter(|t| t.mask != 0) {
                let bbox = tile.bbox(origin);
                order.clear();
                for &sb in &near {
                    let gap = gap_sq(bbox, sb.bbox);
                    if self.admits(gap) {
                        order.push((gap, sb));
                    }
                }
                order.sort_unstable_by(|l, r| l.0.total_cmp(&r.0));
                for &(gap, sb) in &order {
                    if gap >= self.best_sq {
                        break;
                    }
                    if self.tile_to_block(tile, origin, b, sb) {
                        return;
                    }
                }
            }
        }
    }

    /// Scans tile `ta` of `a` (whose super-block's corner is `origin`)
    /// against every tile of super-block `sb` of `b` its gap admits; `true`
    /// once the best is within `good_enough`.
    fn tile_to_block(
        &mut self,
        ta: &Tile,
        origin: (u32, u32),
        b: &BoundaryTiles,
        sb: &SuperBlock,
    ) -> bool {
        let bbox = ta.bbox(origin);
        let (ax, ay) = ta.origin(origin);
        let b_origin = sb.origin();
        for tb in b.tiles_of(sb).iter().filter(|t| t.mask != 0) {
            if !self.admits(gap_sq(bbox, tb.bbox(b_origin))) {
                continue;
            }
            let (bx, by) = tb.origin(b_origin);
            for i in set_bits(ta.mask) {
                let (dx, dy) = TILE_XY.get(i as usize).copied().unwrap_or_default();
                let (cx, cy) = ((ax + dx) as f64, (ay + dy) as f64);
                for j in set_bits(tb.mask) {
                    let (dx, dy) = TILE_XY.get(j as usize).copied().unwrap_or_default();
                    let dx = (bx + dx) as f64 - cx;
                    let dy = (by + dy) as f64 - cy;
                    // Compare in the squared domain; the square root is
                    // only taken when the best pair improves, never per
                    // pair.  `sqrt` is monotone, so the result is identical
                    // to comparing linearly.
                    let d_sq = dx * dx + dy * dy;
                    if d_sq < self.best_sq {
                        self.best_sq = d_sq;
                        self.best = d_sq.sqrt();
                        if self.best <= self.good_enough {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zorder::{cell_coords, cell_id};
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
        assert!(dataset_distance_within(&a, &b, 0.0).0);
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
        assert_eq!(dataset_distance_bounded(&a, &b, 0.5).0, 0.0);
        assert!(dataset_distance_within(&a, &b, 0.0).0);
    }

    #[test]
    fn empty_sets_are_infinitely_far() {
        let a = CellSet::new();
        let b = set_from_coords(&[(1, 1)]);
        assert_eq!(dataset_distance(&a, &b), f64::INFINITY);
        assert!(!dataset_distance_within(&a, &b, 100.0).0);
    }

    #[test]
    fn within_threshold_matches_exact() {
        let a = set_from_coords(&[(0, 0), (10, 0)]);
        let b = set_from_coords(&[(0, 5), (20, 20)]);
        assert_eq!(dataset_distance(&a, &b), 5.0);
        assert!(dataset_distance_within(&a, &b, 5.0).0);
        assert!(!dataset_distance_within(&a, &b, 4.999).0);
    }

    #[test]
    fn bounded_is_exact_up_to_and_including_the_cutoff() {
        let a = set_from_coords(&[(0, 0), (10, 0)]);
        let b = set_from_coords(&[(0, 5), (20, 20)]);
        // True distance is 5.0: exact at cutoff 5.0 (the tie case) and above.
        assert_eq!(dataset_distance_bounded(&a, &b, 5.0).0, 5.0);
        assert_eq!(dataset_distance_bounded(&a, &b, 100.0).0, 5.0);
        // Below the cutoff only the "> cutoff" contract holds.
        assert!(dataset_distance_bounded(&a, &b, 4.0).0 > 4.0);
        assert_eq!(
            dataset_distance_bounded(&CellSet::new(), &b, 10.0),
            (f64::INFINITY, 0)
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

    #[test]
    fn the_kernel_counts_its_bound_tests() {
        let a = set_from_coords(&[(0, 0), (100, 0), (300, 300)]);
        let b = set_from_coords(&[(0, 5), (200, 200)]);
        let (distance, tests) = dataset_distance_bounded(&a, &b, f64::INFINITY);
        assert_eq!(distance, 5.0);
        // Three super-blocks against two: six pairs to find the seed, its
        // one tile pair, then the five other pairs, none admitted.
        assert_eq!(tests, 6 + 1 + 5);
        // Overlapping or empty sets settle without a bound test.
        assert_eq!(dataset_distance_bounded(&a, &a, f64::INFINITY), (0.0, 0));
        assert_eq!(
            dataset_distance_bounded(&a, &CellSet::new(), 1.0),
            (f64::INFINITY, 0)
        );
    }

    /// The cells of a run of `len` cells from `(x, y)` along a row, a
    /// column or one of the two diagonals: a long thin set across many
    /// super-blocks.
    fn segment((x, y, len, direction): (u32, u32, u32, u32)) -> Vec<(u32, u32)> {
        (0..len)
            .map(|i| match direction % 4 {
                0 => (x + i, y),
                1 => (x, y + i),
                2 => (x + i, y + i),
                _ => (x + i, y + len - i),
            })
            .collect()
    }

    /// Filled rectangles `(x, y, w, h)`.
    fn blobs(rects: &[(u32, u32, u32, u32)]) -> CellSet {
        CellSet::from_cells(rects.iter().flat_map(|&(x, y, w, h)| {
            (x..x + w).flat_map(move |cx| (y..y + h).map(move |cy| cell_id(cx, cy)))
        }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_long_thin_sets_match_the_quadratic_oracle(
            a in proptest::collection::vec((0u32..1500, 0u32..1500, 64u32..400, 0u32..4), 1..3),
            b in proptest::collection::vec((0u32..1500, 0u32..1500, 64u32..400, 0u32..4), 1..3),
            cutoff in 0.0f64..1500.0,
        ) {
            let sa = set_from_coords(&a.iter().copied().flat_map(segment).collect::<Vec<_>>());
            let sb = set_from_coords(&b.iter().copied().flat_map(segment).collect::<Vec<_>>());
            let brute = dataset_distance_bruteforce(&sa, &sb);
            prop_assert_eq!(dataset_distance(&sa, &sb), brute);
            prop_assert_eq!(dataset_distance(&sb, &sa), brute);
            let bounded = dataset_distance_bounded(&sa, &sb, cutoff).0;
            if brute <= cutoff {
                prop_assert_eq!(bounded, brute);
            } else {
                prop_assert!(bounded > cutoff);
            }
            prop_assert_eq!(dataset_distance_within(&sa, &sb, cutoff).0, brute <= cutoff);
        }

        #[test]
        fn prop_bounded_at_the_true_distance_is_the_true_distance(
            a in proptest::collection::vec((0u32..700, 0u32..700, 1u32..40, 1u32..40), 1..4),
            b in proptest::collection::vec((0u32..700, 0u32..700, 1u32..40, 1u32..40), 1..4),
        ) {
            // Blobs with interiors, over a dozen super-blocks: at the cutoff
            // d = dist(a, b) the pair tied at the cutoff must survive the
            // √-domain test.
            let (sa, sb) = (blobs(&a), blobs(&b));
            let d = dataset_distance(&sa, &sb);
            prop_assert_eq!(dataset_distance_bounded(&sa, &sb, d).0, d);
            prop_assert!(dataset_distance_within(&sa, &sb, d).0);
        }

        #[test]
        fn prop_bounded_is_exact_within_cutoff(
            a in proptest::collection::vec((0u32..64, 0u32..64), 1..40),
            b in proptest::collection::vec((0u32..64, 0u32..64), 1..40),
            cutoff in 0.0f64..100.0,
        ) {
            let sa = set_from_coords(&a);
            let sb = set_from_coords(&b);
            let exact = dataset_distance(&sa, &sb);
            let bounded = dataset_distance_bounded(&sa, &sb, cutoff).0;
            if exact <= cutoff {
                prop_assert_eq!(bounded, exact);
            } else {
                prop_assert!(bounded > cutoff);
            }
            // Ties at exactly the cutoff are exact.
            if exact.is_finite() {
                prop_assert_eq!(dataset_distance_bounded(&sa, &sb, exact).0, exact);
            }
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
            prop_assert_eq!(dataset_distance_within(&sa, &sb, delta).0, exact <= delta);
        }
    }
}
