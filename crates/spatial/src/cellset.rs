//! Cell-based datasets (Definition 5).
//!
//! A [`CellSet`] is the grid representation of a spatial dataset: the sorted,
//! deduplicated set of z-order cell IDs that contain at least one of the
//! dataset's points.  Both joinable-search problems are defined purely on
//! cell sets — OJSP maximises `|S_Q ∩ S_D|` and CJSP maximises
//! `|S_Q ∪ (∪ S_Di)|` — so the intersection-size and union-size primitives
//! here are the hot path of every search algorithm in the repository.
//!
//! # Performance
//!
//! [`intersection_size`](CellSet::intersection_size) (and everything built on
//! it: `union_size`, `marginal_gain`) picks between two kernels by size
//! alone:
//!
//! 1. **Galloping** when the sizes are skewed (`|small| · 16 < |large|`): for
//!    each cell of the small set, exponentially probe forward in the large
//!    set's remaining tail — `O(m·log(n/m))`, ideal for a handful of query
//!    cells against a big indexed dataset.
//! 2. **Linear merge** otherwise, over the two sorted lists.
//!
//! Beside them sits a **word-parallel popcount** over a bit-packed block
//! form — 64-bit words keyed by `cell >> 6`, one `AND` + `count_ones` per
//! matching block, up to 64 cells per instruction.  The dispatch never
//! takes it; its readers are OverlapSearch's Lemma 2 leaf bound, through
//! [`intersection_size_packed`](CellSet::intersection_size_packed), and
//! [`intersects`](CellSet::intersects).  The packed form is built at most
//! once per set (cached in a `OnceLock` alongside the sorted vec, which no
//! `&mut` reaches), so a set bounded against many leaves pays the packing
//! cost once.
//!
//! Under the kernels sit two joins over sorted slices, written once:
//! `merge_join` (the linear kernel, the packed block merge and
//! [`intersects`](CellSet::intersects)) and `gallop_join` (the galloping
//! kernel, over cells or over block keys).  Both walk the slices with slice
//! patterns and checked access, so no kernel can index out of bounds.
//!
//! Which kernel the serving path reached, in a one-off count taken in
//! October 2026 with process-wide counters since deleted, over the
//! federation benchmark's in-process twin (seed 1, Tenth-scale corpus):
//! OJSP never dispatched — OverlapSearch's Lemma 2 leaf bounds made 56 630
//! packed calls over 2 000 queries; CJSP's `marginal_gain` dispatched 97.4 %
//! linear, 1.6 % to a density-chosen packed arm and 1.0 % galloping
//! (30 600 / 490 / 322 over 64 queries); kNN intersected nothing (its kernel
//! is `distance`).  That packed arm was then dropped: the merge gives the
//! same counts, and its CJSP timings moved within the run-to-run spread.
//! `bench-runner`'s `kernel/intersection/dense-grid` delta times the packed
//! kernel against this dispatch on two dense sets of comparable size — a
//! pair the serving path almost never sees; run `cargo run --release -p
//! bench --bin bench-runner` to measure it on this machine, and see
//! `BENCH_*.json` at the repository root for the committed trajectory.
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

use std::convert::identity;
use std::ops::ControlFlow;

use crate::grid::Grid;
use crate::mbr::Mbr;
use crate::point::Point;
use crate::zorder::{cell_coords, cell_id, CellId};
use serde::{Deserialize, Serialize};

/// Size skew ratio above which the galloping kernel is used.
const GALLOP_SKEW: usize = 16;

/// Calls `on_match` on the elements of `a` and `b` that share a key, in
/// ascending key order, until it breaks.  Both slices are strictly
/// increasing by `key`.
///
/// Two comparisons, not one `cmp`: on x86-64, `Ord::cmp` on integers
/// compiles to a three-way value that is then branched on again, which made
/// this loop about 1.5× slower on dense pairs.
fn merge_join<T: Copy>(
    mut a: &[T],
    mut b: &[T],
    key: impl Fn(T) -> u64,
    mut on_match: impl FnMut(T, T) -> ControlFlow<()>,
) -> ControlFlow<()> {
    while let ([x, a_rest @ ..], [y, b_rest @ ..]) = (a, b) {
        let (kx, ky) = (key(*x), key(*y));
        if kx < ky {
            a = a_rest;
        } else if kx > ky {
            b = b_rest;
        } else {
            on_match(*x, *y)?;
            (a, b) = (a_rest, b_rest);
        }
    }
    ControlFlow::Continue(())
}

/// Galloping join (Bentley & Yao, 1976): for each element of `small`,
/// probe the unread tail of `large` at exponentially growing offsets until
/// one reaches its key, binary-search the last window, and call `on_match`
/// on a hit.  `O(m·log(n/m))` overall, and it never rescans what it has
/// passed, which is what makes it profitable even when the skew is
/// moderate.  Both slices are strictly increasing by `key`.
fn gallop_join<T: Copy>(
    small: &[T],
    large: &[T],
    key: impl Fn(T) -> u64,
    mut on_match: impl FnMut(T, T),
) {
    let mut tail = large;
    for &x in small {
        if tail.is_empty() {
            break;
        }
        let k = key(x);
        let mut step = 1;
        while tail.get(step).is_some_and(|&y| key(y) < k) {
            step <<= 1;
        }
        // Everything before `step / 2` is below `k`; `tail[step]`, if any,
        // is not.
        let lo = step / 2;
        let window = tail.get(lo..tail.len().min(step + 1)).unwrap_or_default();
        tail = tail
            .get(lo + window.partition_point(|&y| key(y) < k)..)
            .unwrap_or_default();
        if let Some((&y, rest)) = tail.split_first() {
            if key(y) == k {
                on_match(x, y);
                tail = rest;
            }
        }
    }
}

/// One occupied 64-cell block: its key `cell >> 6` and a word with bit
/// `cell & 63` set for every member cell in it.
type Block = (u64, u64);

fn block_key((key, _): Block) -> u64 {
    key
}

/// Popcount of the `AND` of two matched blocks' words.
fn shared_cells((_, a): Block, (_, b): Block) -> usize {
    (a & b).count_ones() as usize
}

/// Bit-packed block representation of a sorted cell list.  Keys are
/// strictly increasing, words are never zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PackedCells {
    blocks: Vec<Block>,
}

impl PackedCells {
    /// Packs a sorted, deduplicated cell list into blocks.
    fn build(cells: &[CellId]) -> Self {
        let mut blocks: Vec<Block> = Vec::new();
        for &cell in cells {
            let key = cell >> 6;
            let bit = 1u64 << (cell & 63);
            match blocks.last_mut() {
                Some((last, word)) if *last == key => *word |= bit,
                _ => blocks.push((key, bit)),
            }
        }
        Self { blocks }
    }

    /// Word-parallel intersection size: merge the two block lists and
    /// popcount the `AND` of matching words.  Galloping over the larger
    /// block list when the block counts themselves are skewed.
    fn intersection_size(&self, other: &PackedCells) -> usize {
        let (small, large) = if self.blocks.len() <= other.blocks.len() {
            (&self.blocks, &other.blocks)
        } else {
            (&other.blocks, &self.blocks)
        };
        let mut count = 0;
        if small.len() * GALLOP_SKEW < large.len() {
            gallop_join(small, large, block_key, |a, b| count += shared_cells(a, b));
        } else {
            let _ = merge_join(small, large, block_key, |a, b| {
                count += shared_cells(a, b);
                ControlFlow::Continue(())
            });
        }
        count
    }

    /// Returns `true` as soon as any block `AND` is non-zero — the
    /// word-parallel "do these sets share a cell?" predicate.
    fn intersects(&self, other: &PackedCells) -> bool {
        merge_join(&self.blocks, &other.blocks, block_key, |(_, a), (_, b)| {
            if a & b == 0 {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        })
        .is_break()
    }

    /// Heap bytes used by the packed form.
    fn memory_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<Block>()
    }
}

/// One coarse block of a boundary decomposition: the exact bounding box (in
/// cell coordinates) of the boundary cells it groups, and the range of
/// [`BoundaryIndex::coords`] holding them.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BoundaryBlock {
    pub(crate) min_x: f64,
    pub(crate) min_y: f64,
    pub(crate) max_x: f64,
    pub(crate) max_y: f64,
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// A set's boundary cells grouped into coarse
/// [`BOUNDARY_BLOCK_SIZE`]×[`BOUNDARY_BLOCK_SIZE`]-cell blocks — the verify
/// state the two-level distance kernel walks: block-pair bounding-box gaps
/// prune in exact integer arithmetic, and only the surviving block pairs are
/// scanned cell by cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct BoundaryIndex {
    pub(crate) coords: Vec<(f64, f64)>,
    pub(crate) blocks: Vec<BoundaryBlock>,
}

/// Side length (in cells) of one boundary block.
const BOUNDARY_BLOCK_SIZE: u32 = 8;

impl BoundaryIndex {
    /// Groups the boundary cells of `sorted` (a set's cells) into blocks.
    fn build(sorted: &[CellId]) -> Self {
        let contains = |x: Option<u32>, y: Option<u32>| {
            x.zip(y)
                .is_some_and(|(x, y)| sorted.binary_search(&cell_id(x, y)).is_ok())
        };
        let mut cells: Vec<(u32, u32)> = (sorted.iter().map(|&c| cell_coords(c)))
            .filter(|&(x, y)| {
                !(contains(x.checked_sub(1), Some(y))
                    && contains(x.checked_add(1), Some(y))
                    && contains(Some(x), y.checked_sub(1))
                    && contains(Some(x), y.checked_add(1)))
            })
            .collect();
        let key = |&(x, y): &(u32, u32)| {
            (((x / BOUNDARY_BLOCK_SIZE) as u64) << 32) | (y / BOUNDARY_BLOCK_SIZE) as u64
        };
        cells.sort_unstable_by_key(key);
        let coords: Vec<(f64, f64)> = cells.iter().map(|&(x, y)| (x as f64, y as f64)).collect();
        let mut blocks: Vec<BoundaryBlock> = Vec::new();
        let mut start = 0u32;
        for run in cells.chunk_by(|a, b| key(a) == key(b)) {
            // The bounding box in integer cell coordinates, exact in `f64`.
            let (min_x, min_y, max_x, max_y) = run.iter().fold(
                (u32::MAX, u32::MAX, 0, 0),
                |(min_x, min_y, max_x, max_y), &(x, y)| {
                    (min_x.min(x), min_y.min(y), max_x.max(x), max_y.max(y))
                },
            );
            let end = start + run.len() as u32;
            blocks.push(BoundaryBlock {
                min_x: min_x as f64,
                min_y: min_y as f64,
                max_x: max_x as f64,
                max_y: max_y as f64,
                start,
                end,
            });
            start = end;
        }
        Self { coords, blocks }
    }

    fn memory_bytes(&self) -> usize {
        self.coords.capacity() * std::mem::size_of::<(f64, f64)>()
            + self.blocks.capacity() * std::mem::size_of::<BoundaryBlock>()
    }
}

/// A sorted, deduplicated set of grid cell IDs representing a spatial
/// dataset on a fixed grid.
///
/// Alongside the sorted vec the set lazily caches two derived forms, each
/// with a production reader: the bit-packed blocks the word-parallel
/// intersection kernel reads (see the module docs) and the boundary
/// decomposition the distance kernel walks.  Equality, ordering of iteration
/// and the serialized shape are defined by the sorted cells alone.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellSet {
    cells: frozen::Cells,
}

/// The cells of a [`CellSet`] with the two forms cached from them, behind
/// fields no code outside this module can reach: the cells are read through
/// `Deref<Target = [CellId]>` and never through a `&mut`, so a set changes
/// only by being replaced whole, caches and all, and a cache is never older
/// than the cells it was built from.
mod frozen {
    use std::ops::Deref;
    use std::sync::OnceLock;

    use super::{BoundaryIndex, CellId, PackedCells};

    #[derive(Debug, Clone, Default)]
    pub(super) struct Cells {
        sorted: Vec<CellId>,
        packed: OnceLock<PackedCells>,
        boundary: OnceLock<BoundaryIndex>,
    }

    impl Cells {
        /// Wraps an already sorted, deduplicated cell vector.
        pub(super) fn new(sorted: Vec<CellId>) -> Self {
            debug_assert!(sorted.windows(2).all(|w| matches!(w, [a, b] if a < b)));
            Self {
                sorted,
                packed: OnceLock::new(),
                boundary: OnceLock::new(),
            }
        }

        /// The bit-packed form, built on first use.
        pub(super) fn packed(&self) -> &PackedCells {
            self.packed.get_or_init(|| PackedCells::build(&self.sorted))
        }

        /// The boundary decomposition, built on first use.
        pub(super) fn boundary(&self) -> &BoundaryIndex {
            self.boundary
                .get_or_init(|| BoundaryIndex::build(&self.sorted))
        }

        /// Heap bytes of the cells and of whichever caches have been built.
        pub(super) fn memory_bytes(&self) -> usize {
            self.sorted.capacity() * std::mem::size_of::<CellId>()
                + self.packed.get().map_or(0, PackedCells::memory_bytes)
                + self.boundary.get().map_or(0, BoundaryIndex::memory_bytes)
        }
    }

    impl Deref for Cells {
        type Target = [CellId];

        fn deref(&self) -> &[CellId] {
            &self.sorted
        }
    }

    impl PartialEq for Cells {
        fn eq(&self, other: &Self) -> bool {
            self.sorted == other.sorted
        }
    }

    impl Eq for Cells {}
}

impl CellSet {
    /// Creates an empty cell set.
    pub fn new() -> Self {
        Self::from_sorted(Vec::new())
    }

    /// Wraps an already sorted, deduplicated cell vector.
    fn from_sorted(cells: Vec<CellId>) -> Self {
        Self {
            cells: frozen::Cells::new(cells),
        }
    }

    /// Shared construction tail: sorts, deduplicates and wraps a candidate
    /// cell vector (callers pre-reserve capacity for their own source shape),
    /// releasing the slots the duplicates held — a gridded dataset keeps one
    /// slot per cell, not one per point.
    fn from_unsorted(mut cells: Vec<CellId>) -> Self {
        cells.sort_unstable();
        cells.dedup();
        cells.shrink_to_fit();
        Self::from_sorted(cells)
    }

    /// Builds a cell set from an arbitrary iterator of cell IDs (sorting and
    /// deduplicating).
    pub fn from_cells<I: IntoIterator<Item = CellId>>(cells: I) -> Self {
        let iter = cells.into_iter();
        let mut v: Vec<CellId> = Vec::with_capacity(iter.size_hint().0);
        v.extend(iter);
        Self::from_unsorted(v)
    }

    /// Wraps a cell vector that is already strictly increasing — the shape a
    /// delta decoder produces — without the sort and dedup of
    /// [`Self::from_cells`].  Returns `None` when it is not.
    pub fn from_sorted_cells(cells: Vec<CellId>) -> Option<Self> {
        cells
            .windows(2)
            .all(|w| matches!(w, [a, b] if a < b))
            .then(|| Self::from_sorted(cells))
    }

    /// Builds the cell-based representation `S_{D,Cθ}` of a point dataset on
    /// a grid, skipping points that fall outside the grid's bounded space
    /// (real portals contain a handful of out-of-range records; the paper
    /// simply grids what falls inside the declared space).
    pub fn from_points(grid: &Grid, points: &[Point]) -> Self {
        let mut v: Vec<CellId> = Vec::with_capacity(points.len());
        v.extend(points.iter().filter_map(|p| grid.cell_of(p).ok()));
        Self::from_unsorted(v)
    }

    /// Number of cells in the set — the *spatial coverage* of the dataset.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` when the set contains no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The sorted cell IDs.
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Returns `true` when the set contains `cell`.
    pub fn contains(&self, cell: CellId) -> bool {
        self.cells.binary_search(&cell).is_ok()
    }

    /// Iterates over the cell IDs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells.iter().copied()
    }

    /// The cells decomposed to grid coordinates and sorted by x: what a
    /// [`NeighborProbe`](crate::distance::NeighborProbe) binary-searches.  Not
    /// cached — the probe owns its copy, and the sets probed with (a query, a
    /// dataset just selected from the index) are mostly probed once.
    pub(crate) fn decompose_sorted(&self) -> Vec<(f64, f64)> {
        let mut v: Vec<(f64, f64)> = self
            .cells
            .iter()
            .map(|&c| {
                let (x, y) = cell_coords(c);
                (x as f64, y as f64)
            })
            .collect();
        v.sort_unstable_by(|l, r| l.0.total_cmp(&r.0));
        v
    }

    /// The coordinates of the set's *boundary* cells — cells with at least
    /// one 4-neighbour absent from the set — grouped by coarse block (see
    /// `boundary_index`); not globally sorted.
    ///
    /// For two **disjoint** sets the closest cell pair always joins two
    /// boundary cells: from an interior cell, stepping one cell toward the
    /// other set stays inside the set and strictly shrinks the (integer)
    /// squared distance, so an interior cell can never be part of a
    /// minimising pair.  The distance kernel therefore only has to walk each
    /// side's boundary, which for dense blob-like datasets is the perimeter
    /// of the blob rather than its area.  Cached like the packed blocks
    /// (built at most once per set).
    pub fn boundary_coords(&self) -> &[(f64, f64)] {
        &self.boundary_index().coords
    }

    /// The cached boundary decomposition, grouped into coarse blocks with
    /// exact bounding boxes — the verify state of the two-level distance
    /// kernel.  Block-pair bbox gaps give exact integer lower bounds that
    /// prune almost every block pair before any cell pair is touched.
    pub(crate) fn boundary_index(&self) -> &BoundaryIndex {
        self.cells.boundary()
    }

    /// Returns `true` when the sets share at least one cell, answered by an
    /// early-exiting `AND` over the cached word-parallel packed blocks.
    pub fn intersects(&self, other: &CellSet) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        self.cells.packed().intersects(other.cells.packed())
    }

    /// Size of the intersection `|self ∩ other|`: the galloping kernel when
    /// one set is over 16 times the other's size, the linear merge
    /// otherwise (see the module-level "Performance" section).
    pub fn intersection_size(&self, other: &CellSet) -> usize {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        if small.len() * GALLOP_SKEW < large.len() {
            small.intersection_size_galloping(large)
        } else {
            small.intersection_size_linear(large)
        }
    }

    /// Word-parallel intersection size over the bit-packed block forms,
    /// building and caching them on first use: the count OverlapSearch's
    /// Lemma 2 leaf bound takes against a leaf's cell keys.
    pub fn intersection_size_packed(&self, other: &CellSet) -> usize {
        if self.is_empty() || other.is_empty() {
            return 0;
        }
        self.cells.packed().intersection_size(other.cells.packed())
    }

    /// Linear merge of the two sorted lists.
    fn intersection_size_linear(&self, other: &CellSet) -> usize {
        let mut count = 0;
        let _ = merge_join(&self.cells, &other.cells, identity, |_, _| {
            count += 1;
            ControlFlow::Continue(())
        });
        count
    }

    /// Galloping intersection of `self` (the smaller set) into `other`.
    fn intersection_size_galloping(&self, other: &CellSet) -> usize {
        let mut count = 0;
        gallop_join(&self.cells, &other.cells, identity, |_, _| count += 1);
        count
    }

    /// Size of the union `|self ∪ other|` by inclusion–exclusion.
    ///
    /// Allocation-free: no per-call buffer is built — the only allocation
    /// that can ever happen underneath is the one-time packed-block cache
    /// fill, shared with every other intersection against the same set.
    pub fn union_size(&self, other: &CellSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// The union of two cell sets as a new set.
    pub fn union(&self, other: &CellSet) -> CellSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (self.cells(), other.cells());
        while let ([x, a_rest @ ..], [y, b_rest @ ..]) = (a, b) {
            let (cell, next) = if x < y {
                (x, (a_rest, b))
            } else if x > y {
                (y, (a, b_rest))
            } else {
                (x, (a_rest, b_rest))
            };
            out.push(*cell);
            (a, b) = next;
        }
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        CellSet::from_sorted(out)
    }

    /// In-place union (used by CoverageSearch's merge strategy).
    pub fn union_in_place(&mut self, other: &CellSet) {
        *self = self.union(other);
    }

    /// Marginal gain `g(S_D, R) = |S_D ∪ R| − |R|` of adding this set to an
    /// accumulated union `R` (Equation 3): the number of cells of `self` not
    /// already covered by `accumulated`.
    pub fn marginal_gain(&self, accumulated: &CellSet) -> usize {
        self.len() - self.intersection_size(accumulated)
    }

    /// The MBR of the set in *cell coordinate* space, or `None` for an empty
    /// set.  Index nodes over cell-based datasets operate in this space.
    pub fn mbr_cell_space(&self) -> Option<Mbr> {
        Mbr::from_points(self.cells.iter().map(|&c| {
            let (x, y) = cell_coords(c);
            Point::new(x as f64, y as f64)
        }))
    }

    /// Restricts the set to the cells whose coordinates fall inside `window`
    /// (a rectangle in cell-coordinate space).  The multi-source framework
    /// uses this to transmit only the part of a query that can intersect a
    /// candidate source (the paper's second query-distribution strategy).
    pub fn clip_to_window(&self, window: &Mbr) -> CellSet {
        CellSet::from_sorted(
            self.cells
                .iter()
                .copied()
                .filter(|&c| {
                    let (x, y) = cell_coords(c);
                    window.contains_point(&Point::new(x as f64, y as f64))
                })
                .collect(),
        )
    }

    /// The aligned blocks of `2^bits` consecutive z-order ids the set
    /// touches, as the set of their ids `cell >> bits` (ascending, like the
    /// cells they come from).  For an even `bits` a block is a square of
    /// `2^(bits/2)` cells a side: the cell of the grid `bits / 2` levels
    /// coarser.
    pub fn blocks(&self, bits: u32) -> CellSet {
        let mut blocks: Vec<CellId> = self.cells.iter().map(|&c| block_of(c, bits)).collect();
        blocks.dedup();
        CellSet::from_sorted(blocks)
    }

    /// Restricts the set to the cells within `reach` of some cell of one of
    /// `blocks` (ids as [`Self::blocks`] numbers them, for the same `bits`).
    /// Two cells are as far apart as their coordinates, computed as the
    /// distance kernel computes it (Definition 6), so a cell within `reach`
    /// of a cell in an occupied block is always kept.  The multi-source
    /// framework uses this to keep a query cell from travelling to a source
    /// that holds nothing near it: nothing in its block (OJSP, `reach` 0), or
    /// nothing within the k-th distance of the first kNN reply.
    ///
    /// Two cells are 0 or at least 1 apart, so below a reach of 1 a cell is
    /// kept when its own block is occupied: one forward merge of the two
    /// sorted sequences, galloping over the blocks between one cell's block
    /// and the next.  From 1 on, the cells of one block are tested together,
    /// against the occupied blocks within `reach` of their block only
    /// (`occupied_near`).
    pub fn clip_near_blocks(&self, blocks: &CellSet, bits: u32, reach: f64) -> CellSet {
        let mut kept = Vec::new();
        if reach.is_nan() || reach < 1.0 {
            let mut ahead = blocks.cells();
            for &cell in self.cells() {
                let block = block_of(cell, bits);
                if ahead.first().is_some_and(|&b| b < block) {
                    let behind = ahead.partition_point(|&b| b < block);
                    ahead = ahead.get(behind..).unwrap_or_default();
                }
                if ahead.first() == Some(&block) {
                    kept.push(cell);
                }
            }
            return CellSet::from_sorted(kept);
        }
        let sides = block_sides(bits);
        let mut near = Vec::new();
        for run in self
            .cells
            .chunk_by(|&a, &b| block_of(a, bits) == block_of(b, bits))
        {
            let Some(&first) = run.first() else { continue };
            let around = CellRect::of_block(block_of(first, bits), bits, sides);
            near.clear();
            occupied_near(&blocks.cells, bits, sides, around, reach, &mut near);
            kept.extend(run.iter().copied().filter(|&cell| {
                let cell = CellRect::of_cell(cell);
                near.iter().any(|block| block.gap(&cell) <= reach)
            }));
        }
        CellSet::from_sorted(kept)
    }

    /// An estimate of the heap memory used by this set, in bytes, including
    /// the packed-block and boundary caches when they have been built.
    pub fn memory_bytes(&self) -> usize {
        self.cells.memory_bytes()
    }
}

/// The id of the aligned block of `2^bits` consecutive z-order ids that holds
/// `cell`; every cell is in block 0 once a block is the whole id space.
fn block_of(cell: CellId, bits: u32) -> CellId {
    cell.checked_shr(bits).unwrap_or(0)
}

/// The width and height, in cells, of an aligned block of `2^bits` z-order
/// ids: one more than the coordinates of block 0's last cell (the whole
/// coordinate space once a block is all of it).
fn block_sides(bits: u32) -> (u64, u64) {
    let last = 1u64.checked_shl(bits).map_or(CellId::MAX, |ids| ids - 1);
    let (x, y) = cell_coords(last);
    (u64::from(x) + 1, u64::from(y) + 1)
}

/// A rectangle of cells, corners included, in cell coordinates.
#[derive(Debug, Clone, Copy)]
struct CellRect {
    x0: u64,
    y0: u64,
    x1: u64,
    y1: u64,
}

impl CellRect {
    fn of_cell(cell: CellId) -> Self {
        let (x, y) = cell_coords(cell);
        let (x, y) = (u64::from(x), u64::from(y));
        Self {
            x0: x,
            y0: y,
            x1: x,
            y1: y,
        }
    }

    /// The cells of `block`, whose first cell is its id shifted back up.
    fn of_block(block: CellId, bits: u32, (width, height): (u64, u64)) -> Self {
        let (x, y) = cell_coords(block.checked_shl(bits).unwrap_or(0));
        let (x, y) = (u64::from(x), u64::from(y));
        Self {
            x0: x,
            y0: y,
            x1: x + width - 1,
            y1: y + height - 1,
        }
    }

    /// The distance between the closest cells of the two rectangles, computed
    /// the way the distance kernel computes the distance of a cell pair —
    /// exact per-axis gaps, squared, summed and rooted in `f64` — so that it
    /// never exceeds the computed distance of any pair of their cells.
    fn gap(&self, other: &CellRect) -> f64 {
        let axis = |lo: u64, hi: u64, other_lo: u64, other_hi: u64| {
            other_lo.saturating_sub(hi).max(lo.saturating_sub(other_hi)) as f64
        };
        let dx = axis(self.x0, self.x1, other.x0, other.x1);
        let dy = axis(self.y0, self.y1, other.y0, other.y1);
        (dx * dx + dy * dy).sqrt()
    }
}

/// Pushes onto `near` every block of `blocks` (sorted block ids) whose cells
/// come within `reach` of `around`.  Such a block lies in the window
/// `around` spans grown by `reach`, and the window is searched the cheaper
/// of two ways: looking each of its blocks up, or scanning the run of
/// `blocks` between the ids of its two corners (z-order is monotone in
/// either coordinate, so every block of the window is in that run).
fn occupied_near(
    blocks: &[CellId],
    bits: u32,
    sides: (u64, u64),
    around: CellRect,
    reach: f64,
    near: &mut Vec<CellRect>,
) {
    let (width, height) = sides;
    let last = u64::from(u32::MAX);
    // Coordinates are integers, so `reach` reaches as far as its floor.
    let grow = (reach as u64).min(last);
    let (wx0, wy0) = (
        around.x0.saturating_sub(grow),
        around.y0.saturating_sub(grow),
    );
    let (wx1, wy1) = ((around.x1 + grow).min(last), (around.y1 + grow).min(last));
    let coord = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
    let block_at = |x: u64, y: u64| block_of(cell_id(coord(x), coord(y)), bits);
    let from = blocks.partition_point(|&b| b < block_at(wx0, wy0));
    let to = blocks.partition_point(|&b| b <= block_at(wx1, wy1));
    let run = blocks.get(from..to).unwrap_or_default();
    let (bx0, bx1, by0, by1) = (wx0 / width, wx1 / width, wy0 / height, wy1 / height);
    let window_blocks = (bx1 - bx0 + 1).saturating_mul(by1 - by0 + 1);
    let mut keep = |rect: CellRect| {
        if rect.gap(&around) <= reach {
            near.push(rect);
        }
    };
    if window_blocks <= run.len() as u64 {
        for by in by0..=by1 {
            for bx in bx0..=bx1 {
                let block = block_at(bx * width, by * height);
                if run.binary_search(&block).is_ok() {
                    keep(CellRect::of_block(block, bits, sides));
                }
            }
        }
    } else {
        for &block in run {
            keep(CellRect::of_block(block, bits, sides));
        }
    }
}

impl FromIterator<CellId> for CellSet {
    fn from_iter<I: IntoIterator<Item = CellId>>(iter: I) -> Self {
        CellSet::from_cells(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridConfig;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn set(ids: &[CellId]) -> CellSet {
        CellSet::from_cells(ids.iter().copied())
    }

    /// `|a ∩ b|` counted through a `BTreeSet`: an oracle that shares no code
    /// with the joins the kernels run on.
    fn oracle_intersection_size(a: &CellSet, b: &CellSet) -> usize {
        let b: BTreeSet<CellId> = b.iter().collect();
        a.iter().filter(|cell| b.contains(cell)).count()
    }

    #[test]
    fn from_cells_sorts_and_dedups() {
        let s = set(&[9, 3, 3, 11, 9]);
        assert_eq!(s.cells(), &[3, 9, 11]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn from_sorted_cells_accepts_only_strictly_increasing_input() {
        assert_eq!(
            CellSet::from_sorted_cells(vec![3, 9, 11]),
            Some(set(&[3, 9, 11]))
        );
        assert_eq!(CellSet::from_sorted_cells(vec![]), Some(CellSet::new()));
        assert_eq!(CellSet::from_sorted_cells(vec![3, 3, 11]), None);
        assert_eq!(CellSet::from_sorted_cells(vec![9, 3]), None);
    }

    #[test]
    fn paper_example2_cell_sets() {
        // Example 2: S_D1 = {9, 11}, S_D2 = {1, 3}, S_D3 = {12, 13}.
        let d1 = set(&[9, 11]);
        let d2 = set(&[1, 3]);
        let d3 = set(&[12, 13]);
        assert_eq!(d1.intersection_size(&d2), 0);
        assert_eq!(d1.union_size(&d2), 4);
        assert_eq!(d1.union(&d3).cells(), &[9, 11, 12, 13]);
    }

    #[test]
    fn intersection_and_union_sizes() {
        let a = set(&[1, 2, 3, 4, 5]);
        let b = set(&[4, 5, 6, 7]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(b.intersection_size(&a), 2);
        assert_eq!(a.union_size(&b), 7);
    }

    #[test]
    fn galloping_path_matches_merge_path() {
        let small = set(&[10, 500, 999]);
        let large: CellSet = (0..1000u64).collect();
        assert_eq!(small.intersection_size(&large), 3);
        assert_eq!(large.intersection_size(&small), 3);
        assert_eq!(small.intersection_size_galloping(&large), 3);
        assert_eq!(small.intersection_size_linear(&large), 3);
        assert_eq!(small.intersection_size_packed(&large), 3);
    }

    #[test]
    fn empty_set_edge_cases() {
        let empty = CellSet::new();
        let other = set(&[1, 2, 3]);
        assert_eq!(empty.intersection_size(&empty), 0);
        assert_eq!(empty.intersection_size(&other), 0);
        assert_eq!(other.intersection_size(&empty), 0);
        assert_eq!(empty.intersection_size_linear(&other), 0);
        assert_eq!(empty.intersection_size_galloping(&other), 0);
        assert_eq!(empty.intersection_size_packed(&other), 0);
        assert_eq!(other.intersection_size_packed(&empty), 0);
        assert_eq!(empty.union_size(&empty), 0);
        assert_eq!(empty.union(&other).cells(), other.cells());
    }

    #[test]
    fn disjoint_range_edge_cases() {
        // Fully disjoint, interleaved at the boundary, and far apart.
        let low = set(&[0, 1, 2, 3]);
        let high = set(&[100, 200, 300]);
        assert_eq!(low.intersection_size(&high), 0);
        assert_eq!(low.intersection_size_galloping(&high), 0);
        assert_eq!(high.intersection_size_galloping(&low), 0);
        assert_eq!(low.intersection_size_packed(&high), 0);
        assert_eq!(low.union_size(&high), 7);
        // Adjacent but not overlapping.
        let a = set(&[1, 3, 5]);
        let b = set(&[0, 2, 4, 6]);
        assert_eq!(a.intersection_size(&b), 0);
        assert_eq!(a.intersection_size_linear(&b), 0);
        assert_eq!(a.intersection_size_galloping(&b), 0);
        assert_eq!(a.intersection_size_packed(&b), 0);
    }

    #[test]
    fn one_element_edge_cases() {
        let single = set(&[42]);
        let hit: CellSet = (0..100u64).collect();
        let miss = set(&[41, 43]);
        assert_eq!(single.intersection_size(&single), 1);
        assert_eq!(single.intersection_size(&hit), 1);
        assert_eq!(single.intersection_size(&miss), 0);
        assert_eq!(single.intersection_size_galloping(&hit), 1);
        assert_eq!(single.intersection_size_packed(&hit), 1);
        assert_eq!(hit.intersection_size(&single), 1);
        // Last and first element hits exercise the gallop-to-the-end path.
        assert_eq!(set(&[99]).intersection_size_galloping(&hit), 1);
        assert_eq!(set(&[0]).intersection_size_galloping(&hit), 1);
        assert_eq!(set(&[100]).intersection_size_galloping(&hit), 0);
    }

    #[test]
    fn marginal_gain_matches_definition() {
        let r = set(&[1, 2, 3]);
        let d = set(&[3, 4, 5]);
        // |D ∪ R| - |R| = 5 - 3 = 2
        assert_eq!(d.marginal_gain(&r), 2);
        assert_eq!(d.marginal_gain(&CellSet::new()), 3);
        assert_eq!(CellSet::new().marginal_gain(&r), 0);
    }

    #[test]
    fn mutation_invalidates_the_packed_cache() {
        let mut s: CellSet = (0..256u64).collect();
        let probe: CellSet = (0..512u64).collect();
        assert_eq!(s.intersection_size_packed(&probe), 256);
        s.union_in_place(&set(&[1000]));
        assert_eq!(s.intersection_size_packed(&probe), 256);
        assert_eq!(s.intersection_size_packed(&set(&[1000])), 1);
        s.union_in_place(&(256..300u64).collect());
        assert_eq!(s.intersection_size_packed(&probe), 300);
        assert_eq!(s.intersection_size_linear(&probe), 300);
    }

    #[test]
    fn equality_and_clone_ignore_the_cache() {
        let a: CellSet = (0..300u64).collect();
        let b: CellSet = (0..300u64).collect();
        // Build `a`'s packed cache but not `b`'s: still equal both ways.
        assert_eq!(a.intersection_size_packed(&a), 300);
        assert_eq!(a, b);
        assert_eq!(b, a);
        let c = a.clone();
        assert_eq!(c, a);
        assert_eq!(c.intersection_size_packed(&b), 300);
    }

    #[test]
    fn intersection_size_at_the_gallop_threshold_matches_the_oracle() {
        // At `|small| · 16 == |large|` the merge runs; one cell more and the
        // gallop does.  Either way, and in either argument order, the count
        // is the oracle's.
        let small = set(&[3, 40, 41, 90]);
        for large_len in [64u64, 65] {
            let large: CellSet = (0..large_len * 2).step_by(2).collect();
            assert_eq!(large.len() as u64, large_len);
            let truth = oracle_intersection_size(&small, &large);
            assert_eq!(truth, 2);
            assert_eq!(small.intersection_size(&large), truth);
            assert_eq!(large.intersection_size(&small), truth);
        }
    }

    #[test]
    fn from_points_grids_a_dataset() {
        let grid = Grid::new(GridConfig {
            origin: Point::new(0.0, 0.0),
            width: 1.0,
            height: 1.0,
            resolution: 2,
        })
        .unwrap();
        let pts = vec![
            Point::new(0.05, 0.05), // cell 0
            Point::new(0.06, 0.07), // cell 0 again
            Point::new(0.30, 0.30), // cell 3
            Point::new(2.0, 2.0),   // out of bounds -> skipped
        ];
        let s = CellSet::from_points(&grid, &pts);
        assert_eq!(s.cells(), &[0, 3]);
    }

    /// A gridded set keeps one slot per cell: the slots reserved for the
    /// points that landed in an occupied cell are released.
    #[test]
    fn from_points_keeps_no_slot_per_duplicate_point() {
        let grid = Grid::new(GridConfig {
            origin: Point::new(0.0, 0.0),
            width: 1.0,
            height: 1.0,
            resolution: 2,
        })
        .unwrap();
        let pts = vec![Point::new(0.05, 0.05); 1_000];
        let s = CellSet::from_points(&grid, &pts);
        assert_eq!(s.cells(), &[0]);
        assert_eq!(s.memory_bytes(), std::mem::size_of::<CellId>());
    }

    #[test]
    fn clip_to_window_keeps_only_cells_inside() {
        // 4x4 grid, keep only cells with coordinates in [0,1]x[0,1].
        let s = set(&[0, 1, 3, 12, 15]);
        let window = Mbr::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let clipped = s.clip_to_window(&window);
        assert_eq!(clipped.cells(), &[0, 1, 3]);
    }

    #[test]
    fn blocks_are_the_coarser_cells_and_clip_near_blocks_keeps_what_lies_near_them() {
        // An 8×8 block is the cell three levels up: both coordinates >> 3.
        let s = CellSet::from_cells([
            cell_id(0, 0),
            cell_id(7, 7),
            cell_id(8, 0),
            cell_id(9, 1),
            cell_id(100, 200),
        ]);
        let blocks = s.blocks(6);
        assert_eq!(
            blocks.cells(),
            &[cell_id(0, 0), cell_id(1, 0), cell_id(100 >> 3, 200 >> 3)]
        );
        for reach in [0.0, 0.5, 1.0, 40.0] {
            assert_eq!(s.clip_near_blocks(&blocks, 6, reach), s);
            assert_eq!(
                s.clip_near_blocks(&CellSet::new(), 6, reach),
                CellSet::new()
            );
            assert_eq!(
                CellSet::new().clip_near_blocks(&blocks, 6, reach),
                CellSet::new()
            );
        }
        // Only the block of (8, 0) and (9, 1) is occupied: within reach 0 its
        // own cells, within 1 also (7, 7), which touches it; (100, 200) is
        // out of any small reach.
        let middle = CellSet::from_cells([cell_id(1, 0)]);
        assert_eq!(
            s.clip_near_blocks(&middle, 6, 0.0).cells(),
            &[cell_id(8, 0), cell_id(9, 1)]
        );
        assert_eq!(
            s.clip_near_blocks(&middle, 6, 1.0).cells(),
            &[cell_id(7, 7), cell_id(8, 0), cell_id(9, 1)]
        );
        // (0, 0) is 8 cells west of the block.
        assert_eq!(s.clip_near_blocks(&middle, 6, 7.9).len(), 3);
        assert_eq!(s.clip_near_blocks(&middle, 6, 8.0).len(), 4);
        // A reach that is not a number reaches no further than the block.
        assert_eq!(
            s.clip_near_blocks(&middle, 6, f64::NAN),
            s.clip_near_blocks(&middle, 6, 0.0)
        );
        // Zero bits: a block is a cell; 64 or more: one block holds them all.
        assert_eq!(s.blocks(0), s);
        assert_eq!(s.blocks(64).cells(), &[0]);
        assert_eq!(s.clip_near_blocks(&set(&[0]), 80, 0.0), s);
        assert_eq!(s.clip_near_blocks(&set(&[0]), 80, 3.0), s);
    }

    /// The oracle of [`CellSet::clip_near_blocks`]: a cell is kept when some
    /// cell of an occupied block lies within `reach` of it, by the integer
    /// squared distance of their coordinates — every cell of every block
    /// tried.
    fn oracle_near_blocks(cells: &CellSet, blocks: &CellSet, bits: u32, reach: f64) -> CellSet {
        cells
            .iter()
            .filter(|&cell| {
                let (x, y) = cell_coords(cell);
                blocks.iter().any(|block| {
                    (0..1u64 << bits).any(|offset| {
                        let (bx, by) = cell_coords((block << bits) | offset);
                        let dx = u64::from(x.abs_diff(bx));
                        let dy = u64::from(y.abs_diff(by));
                        ((dx * dx + dy * dy) as f64).sqrt() <= reach
                    })
                })
            })
            .collect()
    }

    /// Below a reach of 1 the clip is the block merge: a cell is kept when
    /// its own block is occupied.
    fn own_blocks(cells: &CellSet, blocks: &CellSet, bits: u32) -> CellSet {
        let blocks: BTreeSet<CellId> = blocks.iter().collect();
        cells
            .iter()
            .filter(|&cell| blocks.contains(&block_of(cell, bits)))
            .collect()
    }

    #[test]
    fn a_grid_of_one_block_keeps_every_cell_or_none() {
        // θ = 2: 4×4 cells, all in the one 8×8 block.
        let all: CellSet = (0..16u64).collect();
        for reach in [0.0, 1.0, 2.5, 100.0] {
            assert_eq!(all.clip_near_blocks(&set(&[0]), 6, reach), all);
            assert!(all.clip_near_blocks(&CellSet::new(), 6, reach).is_empty());
        }
    }

    proptest! {
        #[test]
        fn prop_clip_near_blocks_matches_the_oracle(
            cells in proptest::collection::vec((0u32..64, 0u32..64), 0..60),
            occupied in proptest::collection::vec((0u32..64, 0u32..64), 0..12),
            bits in 0u32..7,
            squared in 0u64..200,
            slack in 0.0f64..1e-6,
        ) {
            let cells = coord_set(&cells);
            let blocks = coord_set(&occupied).blocks(bits);
            // The reaches kNN clips by: square roots of integers, a hair
            // over.
            let reach = (squared as f64).sqrt() + slack;
            prop_assert_eq!(
                cells.clip_near_blocks(&blocks, bits, reach),
                oracle_near_blocks(&cells, &blocks, bits, reach)
            );
            let below_one = reach.min(0.999);
            prop_assert_eq!(
                cells.clip_near_blocks(&blocks, bits, below_one),
                own_blocks(&cells, &blocks, bits)
            );
        }
    }

    #[test]
    fn mbr_cell_space_bounds_all_cells() {
        let s = set(&[0, 3, 12]); // coords (0,0), (1,1), (2,2)
        let m = s.mbr_cell_space().unwrap();
        assert_eq!(m.min, Point::new(0.0, 0.0));
        assert_eq!(m.max, Point::new(2.0, 2.0));
        assert!(CellSet::new().mbr_cell_space().is_none());
    }

    #[test]
    fn memory_estimate_scales_with_len() {
        let s: CellSet = (0..100u64).collect();
        let bare = s.memory_bytes();
        assert!(bare >= 100 * 8);
        // Building the packed cache is reflected in the estimate.
        s.intersection_size_packed(&s);
        assert!(s.memory_bytes() > bare);
        // ... and so is the boundary cache.
        let packed_only = s.memory_bytes();
        assert!(!s.boundary_coords().is_empty());
        assert!(s.memory_bytes() > packed_only);
    }

    fn coord_set(coords: &[(u32, u32)]) -> CellSet {
        CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y)))
    }

    #[test]
    fn boundary_keeps_the_perimeter_and_drops_the_interior() {
        // A solid 4x4 block: only the centre 2x2 cells have all four
        // neighbours present.
        let block = coord_set(
            &(0..4)
                .flat_map(|x| (0..4).map(move |y| (x, y)))
                .collect::<Vec<_>>(),
        );
        let boundary = block.boundary_coords();
        assert_eq!(boundary.len(), 12);
        assert!(!boundary.contains(&(1.0, 1.0)));
        assert!(!boundary.contains(&(2.0, 2.0)));
        assert!(boundary.contains(&(0.0, 0.0)));
        assert!(boundary.contains(&(3.0, 2.0)));
        // A thin route is all boundary.
        let route = coord_set(&[(10, 0), (11, 0), (12, 0)]);
        assert_eq!(route.boundary_coords().len(), 3);
        // The origin cell is boundary even though its left/down neighbours
        // would underflow the coordinate space.
        let origin = coord_set(&[(0, 0)]);
        assert_eq!(origin.boundary_coords(), &[(0.0, 0.0)]);
    }

    #[test]
    fn boundary_cache_is_invalidated_by_mutation() {
        let mut s = coord_set(&[(1, 1), (1, 0), (1, 2), (0, 1)]);
        assert_eq!(s.boundary_coords().len(), 4); // (1,1) misses (2,1)
        s.union_in_place(&coord_set(&[(2, 1)]));
        // (1,1) is now interior.
        assert_eq!(s.boundary_coords().len(), 4);
        assert!(!s.boundary_coords().contains(&(1.0, 1.0)));
    }

    #[test]
    fn intersects_matches_intersection_size() {
        let a = set(&[1, 2, 3, 200]);
        let b = set(&[3, 400]);
        let c = set(&[4, 5]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!a.intersects(&CellSet::new()));
        assert!(!CellSet::new().intersects(&a));
    }

    proptest! {
        #[test]
        fn prop_set_semantics_match_btreeset(
            a in proptest::collection::vec(0u64..2000, 0..300),
            b in proptest::collection::vec(0u64..2000, 0..300),
        ) {
            let sa: BTreeSet<u64> = a.iter().copied().collect();
            let sb: BTreeSet<u64> = b.iter().copied().collect();
            let ca = CellSet::from_cells(a.clone());
            let cb = CellSet::from_cells(b.clone());
            prop_assert_eq!(ca.intersection_size(&cb), sa.intersection(&sb).count());
            prop_assert_eq!(ca.union_size(&cb), sa.union(&sb).count());
            let u: Vec<u64> = sa.union(&sb).copied().collect();
            prop_assert_eq!(ca.union(&cb).cells().to_vec(), u);
            prop_assert_eq!(ca.intersects(&cb), sa.intersection(&sb).next().is_some());
        }

        #[test]
        fn prop_intersects_agrees_with_intersection_size(
            a in proptest::collection::vec(0u64..5000, 0..400),
            b in proptest::collection::vec(0u64..5000, 0..400),
        ) {
            let ca = CellSet::from_cells(a);
            let cb = CellSet::from_cells(b);
            prop_assert_eq!(ca.intersects(&cb), ca.intersection_size(&cb) > 0);
        }

        #[test]
        fn prop_boundary_is_a_subset_containing_all_extremes(
            coords in proptest::collection::vec((0u32..48, 0u32..48), 1..120),
        ) {
            let s = coord_set(&coords);
            let full: std::collections::BTreeSet<(u64, u64)> = s
                .iter()
                .map(|c| {
                    let (x, y) = cell_coords(c);
                    (x as u64, y as u64)
                })
                .collect();
            let boundary: std::collections::BTreeSet<(u64, u64)> = s
                .boundary_coords()
                .iter()
                .map(|&(x, y)| (x as u64, y as u64))
                .collect();
            prop_assert!(boundary.is_subset(&full));
            // A cell is dropped only when all four neighbours are present.
            for &(x, y) in &full {
                let interior = x > 0
                    && full.contains(&(x - 1, y))
                    && full.contains(&(x + 1, y))
                    && y > 0
                    && full.contains(&(x, y - 1))
                    && full.contains(&(x, y + 1));
                prop_assert_eq!(boundary.contains(&(x, y)), !interior);
            }
        }

        #[test]
        fn prop_inclusion_exclusion(
            a in proptest::collection::vec(0u64..500, 0..200),
            b in proptest::collection::vec(0u64..500, 0..200),
        ) {
            let ca = CellSet::from_cells(a);
            let cb = CellSet::from_cells(b);
            prop_assert_eq!(
                ca.union_size(&cb) + ca.intersection_size(&cb),
                ca.len() + cb.len()
            );
        }

        #[test]
        fn prop_galloping_agrees_with_linear(
            a in proptest::collection::vec(0u64..5000, 0..400),
            b in proptest::collection::vec(0u64..5000, 0..400),
        ) {
            let ca = CellSet::from_cells(a);
            let cb = CellSet::from_cells(b);
            let truth = oracle_intersection_size(&ca, &cb);
            prop_assert_eq!(ca.intersection_size_linear(&cb), truth);
            prop_assert_eq!(ca.intersection_size_galloping(&cb), truth);
            prop_assert_eq!(cb.intersection_size_galloping(&ca), truth);
            prop_assert_eq!(ca.intersection_size(&cb), truth);
        }

        #[test]
        fn prop_packed_agrees_with_linear(
            a in proptest::collection::vec(0u64..5000, 0..400),
            b in proptest::collection::vec(0u64..5000, 0..400),
        ) {
            let ca = CellSet::from_cells(a);
            let cb = CellSet::from_cells(b);
            let truth = oracle_intersection_size(&ca, &cb);
            prop_assert_eq!(ca.intersection_size_linear(&cb), truth);
            prop_assert_eq!(ca.intersection_size_packed(&cb), truth);
            prop_assert_eq!(cb.intersection_size_packed(&ca), truth);
        }

        #[test]
        fn prop_packed_agrees_on_dense_runs(
            start_a in 0u64..10_000,
            len_a in 1usize..4000,
            start_b in 0u64..10_000,
            len_b in 1usize..4000,
        ) {
            // Dense runs: the distribution the word-parallel kernel targets.
            let ca: CellSet = (start_a..start_a + len_a as u64).collect();
            let cb: CellSet = (start_b..start_b + len_b as u64).collect();
            let truth = oracle_intersection_size(&ca, &cb);
            prop_assert_eq!(ca.intersection_size_linear(&cb), truth);
            prop_assert_eq!(ca.intersection_size_packed(&cb), truth);
            prop_assert_eq!(ca.intersection_size(&cb), truth);
            prop_assert_eq!(ca.union_size(&cb), ca.len() + cb.len() - truth);
        }

        #[test]
        fn prop_packed_agrees_on_single_cell_sets(
            cell in 0u64..u64::MAX,
            others in proptest::collection::vec(0u64..u64::MAX, 0..50),
        ) {
            // Single-cell sets: one word on one side, arbitrary blocks on the
            // other — exercises the packed gallop path and the word masks.
            let single = CellSet::from_cells([cell]);
            let rest = CellSet::from_cells(others);
            let truth = oracle_intersection_size(&single, &rest);
            prop_assert_eq!(single.intersection_size_linear(&rest), truth);
            prop_assert_eq!(single.intersection_size_packed(&rest), truth);
            prop_assert_eq!(rest.intersection_size_packed(&single), truth);
            prop_assert_eq!(single.intersection_size(&rest), truth);
        }

        #[test]
        fn prop_packed_agrees_on_disjoint_high_bit_blocks(
            blocks_a in proptest::collection::vec(0u64..1 << 40, 1..40),
            blocks_b in proptest::collection::vec(0u64..1 << 40, 1..40),
            lows in proptest::collection::vec(0u64..64, 1..8),
        ) {
            // Sets whose members differ only in high bits: every block holds
            // a handful of cells and most block keys miss — adversarial for
            // the packed merge, which must not over- or under-count.
            let ca = CellSet::from_cells(
                blocks_a.iter().flat_map(|&hi| lows.iter().map(move |&lo| (hi << 6) | lo)));
            let cb = CellSet::from_cells(
                blocks_b.iter().flat_map(|&hi| lows.iter().map(move |&lo| (hi << 6) | lo)));
            let truth = oracle_intersection_size(&ca, &cb);
            prop_assert_eq!(ca.intersection_size_linear(&cb), truth);
            prop_assert_eq!(ca.intersection_size_packed(&cb), truth);
            prop_assert_eq!(cb.intersection_size_packed(&ca), truth);
            prop_assert_eq!(ca.intersection_size(&cb), truth);
        }

        #[test]
        fn prop_skewed_galloping_agrees_with_linear(
            small in proptest::collection::vec(0u64..100_000, 0..20),
            dense_start in 0u64..50_000,
            dense_len in 1usize..3000,
        ) {
            // A tiny probe set against a long dense run: the shape that takes
            // the galloping path inside `intersection_size`.
            let ca = CellSet::from_cells(small);
            let cb: CellSet = (dense_start..dense_start + dense_len as u64).collect();
            let truth = oracle_intersection_size(&ca, &cb);
            prop_assert_eq!(ca.intersection_size_linear(&cb), truth);
            prop_assert_eq!(ca.intersection_size(&cb), truth);
            prop_assert_eq!(ca.intersection_size_galloping(&cb), truth);
            prop_assert_eq!(ca.intersection_size_packed(&cb), truth);
        }

        #[test]
        fn prop_marginal_gain_bounded_by_len(
            a in proptest::collection::vec(0u64..500, 0..200),
            b in proptest::collection::vec(0u64..500, 0..200),
        ) {
            let ca = CellSet::from_cells(a);
            let cb = CellSet::from_cells(b);
            prop_assert!(ca.marginal_gain(&cb) <= ca.len());
            prop_assert_eq!(ca.marginal_gain(&cb), ca.union_size(&cb) - cb.len());
        }
    }
}
