//! Cell-based datasets (Definition 5).
//!
//! A [`CellSet`] is the grid representation of a spatial dataset: the set of
//! z-order cell IDs that contain at least one of the dataset's points.  Both
//! joinable-search problems are defined purely on cell sets — OJSP maximises
//! `|S_Q ∩ S_D|` and CJSP maximises `|S_Q ∪ (∪ S_Di)|` — so the
//! intersection-size and union-size primitives here are the hot path of
//! every search algorithm in the repository.
//!
//! # Layout
//!
//! A set is stored once, as its bit-packed blocks ([`PackedCells`]): one
//! `(cell >> 6, word)` pair per occupied 64-cell block — an 8×8-cell tile
//! of the grid — with bit `cell & 63` of the word set for every member
//! cell, keys ascending, no word zero.  This is a block-keyed bitmap in the
//! style of Roaring bitmaps (Chambi, Lemire et al., *Softw. Pract. Exper.*
//! 2016) with one container kind.  The cell count is stored beside the
//! blocks.  A cell costs 16 B divided by how many cells share its block
//! (3.3 on the federation benchmark's corpus: 1 099 671 cells in 330 455
//! blocks, 4.8 B a cell), where a sorted `u64` list costs 8.
//!
//! Every operation reads the blocks:
//!
//! * [`iter`](CellSet::iter) walks each word by trailing zeros, so cells
//!   come out ascending; [`contains`](CellSet::contains) is a key binary
//!   search and a bit test;
//! * [`intersection_size`](CellSet::intersection_size) (and everything built
//!   on it: `union_size`, `marginal_gain`) is one `AND` + `count_ones` per
//!   block both sides hold.  The two block lists are merged, or the smaller
//!   one galloped into the larger when one is over 16 times longer
//!   ([`PackedCells::for_each_shared`]);
//! * [`union`](CellSet::union) merges the blocks, `OR`ing the words of a
//!   shared key; a block's key is its 8×8-cell block id, so a set's block
//!   ids (a source's sketch) are its keys alone;
//!   [`clip_to_window`](CellSet::clip_to_window) keeps or drops a whole tile
//!   whose box lies inside or outside the window and tests only the cells of
//!   a tile across its edge;
//! * [`clip_near_blocks`](CellSet::clip_near_blocks) walks the packed words
//!   of a set of block ids, each a 64×64-cell super-block, and drops, keeps
//!   whole or tests cell by cell each tile by the distance kernel's box gap.
//!
//! A DITS-L leaf keeps its key column in the same form, and a query is held
//! against it with [`PackedCells::intersection_size`] (OverlapSearch's
//! Lemma 2 leaf bound) and [`PackedCells::for_each_shared`] (leaf
//! verification).
//!
//! Beside the blocks a set caches, on first use and once, the distance
//! kernel's verify state (`BoundaryTiles`): per block one `u64` mask of its
//! *boundary* cells (a 4-neighbour outside the set) and their exact box,
//! and per 64×64-cell super-block — the blocks sharing `key >> 6`, one
//! contiguous run ([`super_block_runs`]) — the box of its boundary cells.
//! It is found from the packed words alone, with row-major shifts inside a
//! block and the edge rows of its four neighbours, and keeps nothing per
//! cell: at most 16 B a block and 24 B a super-block.
//!
//! Under the kernels sit two joins over sorted slices, written once:
//! `merge_join` (the block merge and [`intersects`](CellSet::intersects))
//! and `gallop_join` (the skewed block merge).  Both walk the slices with
//! slice patterns and checked access, so no kernel can index out of bounds.
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

use std::ops::{ControlFlow, Range};

use crate::distance::gap_sq;
use crate::grid::Grid;
use crate::mbr::Mbr;
use crate::point::Point;
use crate::zorder::{cell_coords, cell_id, CellId};
use serde::{Deserialize, Serialize};

/// Block-count skew ratio above which two block lists are galloped, not
/// merged.
const GALLOP_SKEW: usize = 16;

/// Calls `on_match` on the elements of `a` and `b` that share a key, each
/// with its position in its slice, in ascending key order, until it breaks.
/// Both slices are strictly increasing by `key`.
///
/// Two comparisons, not one `cmp`: on x86-64, `Ord::cmp` on integers
/// compiles to a three-way value that is then branched on again, which made
/// this loop about 1.5× slower on dense pairs.
fn merge_join<T: Copy>(
    a: &[T],
    b: &[T],
    key: impl Fn(T) -> u64,
    mut on_match: impl FnMut((usize, T), (usize, T)) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let (mut rest_a, mut rest_b) = (a, b);
    while let ([x, a_rest @ ..], [y, b_rest @ ..]) = (rest_a, rest_b) {
        let (kx, ky) = (key(*x), key(*y));
        if kx < ky {
            rest_a = a_rest;
        } else if kx > ky {
            rest_b = b_rest;
        } else {
            on_match((a.len() - rest_a.len(), *x), (b.len() - rest_b.len(), *y))?;
            (rest_a, rest_b) = (a_rest, b_rest);
        }
    }
    ControlFlow::Continue(())
}

/// Galloping join (Bentley & Yao, 1976): for each element of `small`,
/// probe the unread tail of `large` at exponentially growing offsets until
/// one reaches its key, binary-search the last window, and call `on_match`
/// on a hit, each element with its position in its slice.  `O(m·log(n/m))`
/// overall, and it never rescans what it has passed, which is what makes it
/// profitable even when the skew is moderate.  Both slices are strictly
/// increasing by `key`.
fn gallop_join<T: Copy>(
    small: &[T],
    large: &[T],
    key: impl Fn(T) -> u64,
    mut on_match: impl FnMut((usize, T), (usize, T)),
) {
    let mut tail = large;
    for (i, &x) in small.iter().enumerate() {
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
                on_match((i, x), (large.len() - tail.len(), y));
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

/// The cells of one block, ascending.
fn block_cells((key, word): Block) -> impl Iterator<Item = CellId> {
    set_bits(word).map(move |bit| key << 6 | CellId::from(bit))
}

/// The bit-packed block form of a set of cells: one `(cell >> 6, word)`
/// pair per occupied 64-cell block, with bit `cell & 63` of the word set for
/// every member cell.  Keys are strictly increasing, words are never zero.
///
/// It is what a [`CellSet`] stores ([`CellSet::packed`]); a DITS-L leaf
/// keeps its key column in this form too.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedCells {
    blocks: Vec<Block>,
}

impl PackedCells {
    /// Packs strictly increasing cells into blocks.
    pub fn from_sorted(cells: impl IntoIterator<Item = CellId>) -> Self {
        let mut blocks: Vec<Block> = Vec::new();
        for cell in cells {
            let key = cell >> 6;
            let bit = 1u64 << (cell & 63);
            match blocks.last_mut() {
                Some((last, word)) if *last == key => {
                    debug_assert!(*word < bit, "cells must be strictly increasing");
                    *word |= bit;
                }
                _ => {
                    debug_assert!(blocks.last().is_none_or(|&(last, _)| last < key));
                    blocks.push((key, bit));
                }
            }
        }
        Self::from_blocks(blocks)
    }

    /// Wraps blocks that are already ascending by key with no zero word,
    /// releasing the slots they do not fill.
    fn from_blocks(mut blocks: Vec<Block>) -> Self {
        debug_assert!(blocks.windows(2).all(|w| matches!(w, [a, b] if a.0 < b.0)));
        debug_assert!(blocks.iter().all(|&(_, word)| word != 0));
        blocks.shrink_to_fit();
        Self { blocks }
    }

    /// The blocks, ascending by key.
    pub fn blocks(&self) -> &[(u64, u64)] {
        &self.blocks
    }

    /// Whether `cell` is set: a key binary search, then a bit test.
    fn contains(&self, cell: CellId) -> bool {
        self.blocks
            .binary_search_by_key(&(cell >> 6), |&(key, _)| key)
            .ok()
            .and_then(|at| self.blocks.get(at))
            .is_some_and(|&(_, word)| word >> (cell & 63) & 1 == 1)
    }

    /// Calls `on_shared(j, word)` for every block whose words overlap in
    /// both forms, in ascending key order: `j` is the block's position in
    /// `other.blocks()` and `word` the `AND` of the two words.  The block
    /// lists are merged, or the smaller galloped into the larger when their
    /// lengths are skewed.
    pub fn for_each_shared(&self, other: &PackedCells, mut on_shared: impl FnMut(usize, u64)) {
        let (a, b) = (self.blocks.as_slice(), other.blocks.as_slice());
        let mut on_match = |(_, (_, x)): (usize, Block), (j, (_, y)): (usize, Block)| {
            if x & y != 0 {
                on_shared(j, x & y);
            }
        };
        if a.len() * GALLOP_SKEW < b.len() {
            gallop_join(a, b, block_key, on_match);
        } else if b.len() * GALLOP_SKEW < a.len() {
            gallop_join(b, a, block_key, |y, x| on_match(x, y));
        } else {
            let _ = merge_join(a, b, block_key, |x, y| {
                on_match(x, y);
                ControlFlow::Continue(())
            });
        }
    }

    /// Word-parallel intersection size: one `AND` + `count_ones` per block
    /// both forms hold.
    pub fn intersection_size(&self, other: &PackedCells) -> usize {
        let mut count = 0;
        self.for_each_shared(other, |_, word| count += word.count_ones() as usize);
        count
    }

    /// Returns `true` as soon as any block `AND` is non-zero — the
    /// word-parallel "do these sets share a cell?" predicate.
    fn intersects(&self, other: &PackedCells) -> bool {
        merge_join(
            &self.blocks,
            &other.blocks,
            block_key,
            |(_, (_, a)), (_, (_, b))| {
                if a & b == 0 {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            },
        )
        .is_break()
    }

    /// Heap bytes used by the packed form.
    pub fn memory_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<Block>()
    }
}

/// Bits of a block key that number a block inside its super-block: a
/// super-block is the 64 consecutive blocks `key >> SUPER_BLOCK_BITS`
/// names, 64×64 cells in z-order, so in any ascending list of block keys its
/// blocks form one contiguous run.
const SUPER_BLOCK_BITS: u32 = 6;

/// The runs of `sorted` (ascending by `key`, a 64-cell block key) that fall
/// in one super-block, as position ranges in ascending order.  The one
/// grouping of blocks into super-blocks: the distance kernel's boundary
/// tiles are built on it, and any other ascending list of block keys (a
/// sketch's blocks) groups the same way.
pub fn super_block_runs<'a, T: Copy + 'a>(
    sorted: &'a [T],
    key: impl Fn(T) -> u64 + 'a,
) -> impl Iterator<Item = Range<usize>> + 'a {
    let mut start = 0;
    sorted
        .chunk_by(move |&a, &b| key(a) >> SUPER_BLOCK_BITS == key(b) >> SUPER_BLOCK_BITS)
        .map(move |run| {
            let range = start..start + run.len();
            start = range.end;
            range
        })
}

/// Bit `i` of a block word is the cell `(x, y)` at entry `i` of this table,
/// in cells from the block's corner: the z-order of the low six bits.
#[expect(
    clippy::indexing_slicing,
    reason = "a const loop bounded by the table's own length; `get_mut` is not const"
)]
pub(crate) const TILE_XY: [(u32, u32); 64] = {
    let mut table = [(0, 0); 64];
    let mut i = 0;
    while i < 64 {
        table[i] = cell_coords(i as CellId);
        i += 1;
    }
    table
};

/// One occupied 8×8-cell tile of a set, at the same position as its block
/// in the set's [`PackedCells`]: which of its cells are boundary cells, and
/// where they lie.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Tile {
    /// Bit `cell & 63` set for every boundary cell of the tile; 0 when all
    /// its cells are interior.
    pub(crate) mask: u64,
    /// The exact bounding box `[x0, y0, x1, y1]` of the tile's boundary
    /// cells, corners included, in cells from its super-block's corner.
    pub(crate) bbox: [u8; 4],
}

/// One 64×64-cell super-block holding boundary cells: their exact bounding
/// box and the range of tiles it groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SuperBlock {
    /// `[x0, y0, x1, y1]` in cell coordinates, corners included.
    pub(crate) bbox: [u32; 4],
    /// The super-block's tiles are `tiles[start..end]`.
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl SuperBlock {
    /// The cell coordinates of the super-block's corner: the box lies inside
    /// the aligned 64×64 square, so its low corner rounds down to it.
    pub(crate) fn origin(&self) -> (u32, u32) {
        let [x0, y0, ..] = self.bbox;
        (x0 & !63, y0 & !63)
    }
}

impl Tile {
    /// The tile's corner, given its super-block's: the box lies inside the
    /// aligned 8×8 tile.
    pub(crate) fn origin(&self, (ox, oy): (u32, u32)) -> (u32, u32) {
        let [x0, y0, ..] = self.bbox;
        (ox + u32::from(x0 & !7), oy + u32::from(y0 & !7))
    }

    /// The boundary cells' box in cell coordinates, given the super-block's
    /// corner.
    pub(crate) fn bbox(&self, (ox, oy): (u32, u32)) -> [u32; 4] {
        let [x0, y0, x1, y1] = self.bbox.map(u32::from);
        [ox + x0, oy + y0, ox + x1, oy + y1]
    }
}

/// The verify state of the distance kernel, laid out beside a set's packed
/// blocks: per occupied tile one boundary mask and box (`tiles`, parallel to
/// [`PackedCells::blocks`]), and per super-block with boundary cells its box
/// and tile range (`supers`).  A cell is a *boundary* cell when one of its
/// 4-neighbours is outside the set, a neighbour off the coordinate space
/// included.  Nothing is stored per cell: 16 bytes per tile and 24 per
/// super-block.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct BoundaryTiles {
    pub(crate) tiles: Vec<Tile>,
    pub(crate) supers: Vec<SuperBlock>,
}

/// The row-major form of a block word: bit `8·y + x` for the cell at `(x,
/// y)` from the tile's corner.
fn row_major(word: u64) -> u64 {
    set_bits(word).fold(0, |rows, bit| {
        let (x, y) = cell_coords(CellId::from(bit));
        rows | 1 << (8 * y + x)
    })
}

/// The set bits of `word`, ascending.
pub(crate) fn set_bits(mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            bit
        })
    })
}

impl BoundaryTiles {
    /// Builds the tiles from the set's packed blocks.  A tile's boundary is
    /// found on its row-major form with shifts: a cell is interior when its
    /// row-major neighbours are set, those across a tile edge read from the
    /// edge row or column of the neighbouring tile (four key lookups per
    /// tile; a tile off the coordinate space is empty).
    fn build(packed: &PackedCells) -> Self {
        const COL0: u64 = 0x0101_0101_0101_0101;
        const COL7: u64 = COL0 << 7;
        let blocks = packed.blocks();
        let rows: Vec<u64> = blocks.iter().map(|&(_, word)| row_major(word)).collect();
        let rows_at = |tx: Option<u32>, ty: Option<u32>| {
            let key = tx.zip(ty).map(|(x, y)| cell_id(x, y));
            key.and_then(|key| blocks.binary_search_by_key(&key, |&(k, _)| k).ok())
                .and_then(|at| rows.get(at).copied())
                .unwrap_or(0)
        };
        let mut tiles = Vec::with_capacity(blocks.len());
        for (&(key, _), &rm) in blocks.iter().zip(&rows) {
            let (tx, ty) = cell_coords(key);
            let west = (rm << 1 & !COL0) | (rows_at(tx.checked_sub(1), Some(ty)) >> 7 & COL0);
            let east = (rm >> 1 & !COL7) | (rows_at(tx.checked_add(1), Some(ty)) << 7 & COL7);
            let south = (rm << 8) | (rows_at(Some(tx), ty.checked_sub(1)) >> 56);
            let north = (rm >> 8) | (rows_at(Some(tx), ty.checked_add(1)) << 56);
            let boundary = rm & !(west & east & south & north);
            let mask =
                set_bits(boundary).fold(0, |mask, bit| mask | 1 << cell_id(bit & 7, bit >> 3));
            // The box in cells from the super-block's corner: rows from the
            // lowest and highest set bits, columns from the rows OR-ed.
            let columns = (0..8).fold(0u8, |cols, row| cols | (boundary >> (8 * row)) as u8);
            let (sx, sy) = ((tx & 7) as u8 * 8, (ty & 7) as u8 * 8);
            let bbox = if boundary == 0 {
                [sx, sy, sx, sy]
            } else {
                [
                    sx + columns.trailing_zeros() as u8,
                    sy + (boundary.trailing_zeros() / 8) as u8,
                    sx + 7 - columns.leading_zeros() as u8,
                    sy + (63 - boundary.leading_zeros()) as u8 / 8,
                ]
            };
            tiles.push(Tile { mask, bbox });
        }
        let mut supers = Vec::new();
        for run in super_block_runs(blocks, block_key) {
            let Some(&(first, _)) = blocks.get(run.start) else {
                continue;
            };
            let (x, y) = cell_coords(first << 6);
            let origin = (x & !63, y & !63);
            let boxes = tiles.get(run.clone()).unwrap_or_default();
            let bbox = (boxes.iter().filter(|t| t.mask != 0))
                .map(|tile| tile.bbox(origin))
                .reduce(union_box);
            if let Some(bbox) = bbox {
                supers.push(SuperBlock {
                    bbox,
                    start: run.start as u32,
                    end: run.end as u32,
                });
            }
        }
        supers.shrink_to_fit();
        Self { tiles, supers }
    }

    /// The tiles of `block`.
    pub(crate) fn tiles_of(&self, block: &SuperBlock) -> &[Tile] {
        self.tiles
            .get(block.start as usize..block.end as usize)
            .unwrap_or_default()
    }

    fn memory_bytes(&self) -> usize {
        self.tiles.capacity() * std::mem::size_of::<Tile>()
            + self.supers.capacity() * std::mem::size_of::<SuperBlock>()
    }
}

/// A set of grid cell IDs representing a spatial dataset on a fixed grid,
/// stored as its packed blocks (see the module docs).
///
/// Beside the blocks the set lazily caches the boundary tiles the distance
/// kernel walks.  Equality, the ascending order of iteration and the
/// serialized shape are defined by the cells alone.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellSet {
    cells: frozen::Cells,
}

/// The packed blocks of a [`CellSet`], its cell count and the boundary tiles
/// cached from them, behind fields no code outside this module can reach:
/// nothing hands out a `&mut` to the blocks, so a set changes only by being
/// replaced whole, cache and all, and the cache is never older than the
/// blocks it was built from.
mod frozen {
    use std::sync::OnceLock;

    use super::{BoundaryTiles, PackedCells};

    #[derive(Debug, Clone, Default)]
    pub(super) struct Cells {
        packed: PackedCells,
        len: usize,
        boundary: OnceLock<BoundaryTiles>,
    }

    impl Cells {
        /// Wraps packed blocks, counting their cells once.
        pub(super) fn new(packed: PackedCells) -> Self {
            let len = (packed.blocks().iter())
                .map(|&(_, word)| word.count_ones() as usize)
                .sum();
            Self {
                packed,
                len,
                boundary: OnceLock::new(),
            }
        }

        pub(super) fn packed(&self) -> &PackedCells {
            &self.packed
        }

        pub(super) fn len(&self) -> usize {
            self.len
        }

        /// The boundary tiles, built on first use from the packed form.
        pub(super) fn boundary(&self) -> &BoundaryTiles {
            self.boundary
                .get_or_init(|| BoundaryTiles::build(&self.packed))
        }

        /// Heap bytes of the blocks and, once built, of the boundary tiles.
        pub(super) fn memory_bytes(&self) -> usize {
            self.packed.memory_bytes() + self.boundary.get().map_or(0, BoundaryTiles::memory_bytes)
        }
    }

    impl PartialEq for Cells {
        fn eq(&self, other: &Self) -> bool {
            self.packed == other.packed
        }
    }

    impl Eq for Cells {}
}

impl CellSet {
    /// Creates an empty cell set.
    pub fn new() -> Self {
        Self::from_packed(PackedCells::default())
    }

    fn from_packed(packed: PackedCells) -> Self {
        Self {
            cells: frozen::Cells::new(packed),
        }
    }

    /// Shared construction tail: sorts and deduplicates a candidate cell
    /// vector, then packs it.  The vector is dropped, so a gridded dataset
    /// keeps nothing per point.
    fn from_unsorted(mut cells: Vec<CellId>) -> Self {
        cells.sort_unstable();
        cells.dedup();
        Self::from_packed(PackedCells::from_sorted(cells))
    }

    /// Builds a cell set from an arbitrary iterator of cell IDs (sorting and
    /// deduplicating).
    pub fn from_cells<I: IntoIterator<Item = CellId>>(cells: I) -> Self {
        let iter = cells.into_iter();
        let mut v: Vec<CellId> = Vec::with_capacity(iter.size_hint().0);
        v.extend(iter);
        Self::from_unsorted(v)
    }

    /// Packs cells that arrive strictly increasing — the order a delta
    /// decoder produces them in — as they arrive, with no sort, no dedup and
    /// no cell list in between.  Returns `None` when they are not strictly
    /// increasing, having read up to the first cell that is not.
    pub fn from_sorted_cells(cells: impl IntoIterator<Item = CellId>) -> Option<Self> {
        let mut previous = None;
        let mut increasing = true;
        let packed = PackedCells::from_sorted(cells.into_iter().take_while(|&cell| {
            increasing = previous.is_none_or(|p| p < cell);
            previous = Some(cell);
            increasing
        }));
        increasing.then(|| Self::from_packed(packed))
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
        self.len() == 0
    }

    /// Returns `true` when the set contains `cell`.
    pub fn contains(&self, cell: CellId) -> bool {
        self.packed().contains(cell)
    }

    /// Iterates over the cell IDs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = CellId> + '_ {
        self.packed().blocks().iter().copied().flat_map(block_cells)
    }

    /// The smallest cell, or `None` for an empty set.
    pub fn first(&self) -> Option<CellId> {
        let &(key, word) = self.packed().blocks().first()?;
        Some(key << 6 | CellId::from(word.trailing_zeros()))
    }

    /// The largest cell, or `None` for an empty set.
    pub fn last(&self) -> Option<CellId> {
        let &(key, word) = self.packed().blocks().last()?;
        Some(key << 6 | CellId::from(63 - word.leading_zeros()))
    }

    /// The set's *boundary* cells — cells with at least one 4-neighbour
    /// absent from the set — as boundary masks per tile, grouped by
    /// super-block with exact bounding boxes: the verify state of the
    /// two-level distance kernel, built at most once per set.
    ///
    /// For two **disjoint** sets the closest cell pair always joins two
    /// boundary cells: from an interior cell, stepping one cell toward the
    /// other set stays inside the set and strictly shrinks the (integer)
    /// squared distance, so an interior cell can never be part of a
    /// minimising pair.  The distance kernel therefore only has to walk each
    /// side's boundary, which for dense blob-like datasets is the perimeter
    /// of the blob rather than its area.
    pub(crate) fn boundary_tiles(&self) -> &BoundaryTiles {
        self.cells.boundary()
    }

    /// Builds the set's boundary tiles where they are not built yet, and
    /// returns the heap bytes of the distance kernel's verify state: the
    /// packed blocks and the boundary tiles beside them.
    pub fn verify_state_bytes(&self) -> usize {
        self.boundary_tiles().memory_bytes() + self.packed().memory_bytes()
    }

    /// Returns `true` when the sets share at least one cell, answered by an
    /// early-exiting `AND` over the packed blocks.
    pub fn intersects(&self, other: &CellSet) -> bool {
        self.packed().intersects(other.packed())
    }

    /// Size of the intersection `|self ∩ other|`: one `AND` + `count_ones`
    /// per block both sets hold, the block lists merged or, when one is over
    /// 16 times longer, galloped ([`PackedCells::intersection_size`]).
    pub fn intersection_size(&self, other: &CellSet) -> usize {
        self.packed().intersection_size(other.packed())
    }

    /// The set's bit-packed blocks — the set itself: what OverlapSearch's
    /// Lemma 2 leaf bound and leaf verification hold a query against a
    /// leaf's key blocks with.
    pub fn packed(&self) -> &PackedCells {
        self.cells.packed()
    }

    /// Size of the union `|self ∪ other|` by inclusion–exclusion, with no
    /// allocation.
    pub fn union_size(&self, other: &CellSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// The union of two cell sets as a new set: the block lists merged, the
    /// words of a key both hold `OR`ed.
    pub fn union(&self, other: &CellSet) -> CellSet {
        let (mut a, mut b) = (self.packed().blocks(), other.packed().blocks());
        let mut out = Vec::with_capacity(a.len() + b.len());
        while let ([x, a_rest @ ..], [y, b_rest @ ..]) = (a, b) {
            let (block, next) = if x.0 < y.0 {
                (*x, (a_rest, b))
            } else if x.0 > y.0 {
                (*y, (a, b_rest))
            } else {
                ((x.0, x.1 | y.1), (a_rest, b_rest))
            };
            out.push(block);
            (a, b) = next;
        }
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        CellSet::from_packed(PackedCells::from_blocks(out))
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
    /// Found a block at a time, from the box of its cells (`tile_box`).
    pub fn mbr_cell_space(&self) -> Option<Mbr> {
        let tiles = self.packed().blocks().iter().copied().map(tile_box);
        let [x0, y0, x1, y1] = tiles.reduce(union_box)?;
        Some(Mbr::new(
            Point::new(x0 as f64, y0 as f64),
            Point::new(x1 as f64, y1 as f64),
        ))
    }

    /// Restricts the set to the cells whose coordinates fall inside `window`
    /// (a rectangle in cell-coordinate space).  The multi-source framework
    /// uses this to transmit only the part of a query that can intersect a
    /// candidate source (the paper's second query-distribution strategy).
    ///
    /// A block is an 8×8-cell tile: it is kept whole when both corners of
    /// its box are inside the window, dropped when its box lies wholly to one
    /// side of it, and tested cell by cell only when it straddles an edge.
    /// The tests are the per-cell test's own `f64` comparisons, so a window
    /// with a `NaN` coordinate keeps nothing, as it would cell by cell.
    pub fn clip_to_window(&self, window: &Mbr) -> CellSet {
        let inside = |x: u32, y: u32| window.contains_point(&Point::new(x as f64, y as f64));
        let kept = (self.packed().blocks().iter()).filter_map(|&(key, word)| {
            let (x0, y0) = cell_coords(key << 6);
            let (x1, y1) = (x0 + 7, y0 + 7);
            let word = if inside(x0, y0) && inside(x1, y1) {
                word
            } else if (x1 as f64) < window.min.x
                || (x0 as f64) > window.max.x
                || (y1 as f64) < window.min.y
                || (y0 as f64) > window.max.y
            {
                0
            } else {
                set_bits(word)
                    .filter(|&bit| {
                        let (dx, dy) = TILE_XY.get(bit as usize).copied().unwrap_or_default();
                        inside(x0 + dx, y0 + dy)
                    })
                    .fold(0, |kept, bit| kept | 1 << bit)
            };
            (word != 0).then_some((key, word))
        });
        CellSet::from_packed(PackedCells::from_blocks(kept.collect()))
    }

    /// Restricts the set to the cells within `reach` of some cell of an
    /// occupied block of `blocks`: a set of 8×8-cell block ids (`cell >> 6`,
    /// the keys of a set's packed blocks), as a source's sketch holds them.
    /// Two cells are as far apart as their coordinates, computed as the
    /// distance kernel computes it (Definition 6), so a cell within `reach` of
    /// a cell in an occupied block is always kept.  The multi-source framework
    /// uses this to keep a query cell from travelling to a source that holds
    /// nothing near it: nothing in its block (OJSP, `reach` 0), or nothing
    /// within the k-th distance of the first kNN reply.
    ///
    /// Two cells are 0 or at least 1 apart, so below a reach of 1 a tile is
    /// kept whole when its own block is occupied: one lookup per packed block.
    /// From 1 on, one walk over the packed words of `blocks`, each a
    /// 64×64-cell super-block of blocks, narrows three times by box gaps,
    /// compared in the √ domain as the distance kernel compares them: to the
    /// words within reach of the set's box, then of each 64×64-cell
    /// super-block of the set, then of each of its 8×8 tiles.  A tile is
    /// dropped when no block is within reach of its box, kept whole when some
    /// block's *farthest* gap from that box is (MINMAXDIST; Roussopoulos,
    /// Kelley & Vincent, SIGMOD 1995), and tested cell by cell against the
    /// blocks within reach of its box only when it straddles the reach.
    pub fn clip_near_blocks(&self, blocks: &CellSet, reach: f64) -> CellSet {
        let own = self.packed().blocks();
        if reach.is_nan() || reach < 1.0 {
            let kept = own.iter().filter(|&&(key, _)| blocks.contains(key));
            return CellSet::from_packed(PackedCells::from_blocks(kept.copied().collect()));
        }
        let within = |a: [u32; 4], b: [u32; 4]| gap_sq(a, b).sqrt() <= reach;
        let Some(query) = own.iter().copied().map(tile_box).reduce(union_box) else {
            return CellSet::new();
        };
        // Z-order grows with either coordinate, so the words within reach of
        // the set's box lie between the keys (a super-block's cells' ids
        // `>> 12`) of the corners of that box grown by the reach's floor, as
        // far as a whole cell reaches.
        let ([x0, y0, x1, y1], grow) = (query, reach as u32);
        let lo = cell_id(x0.saturating_sub(grow), y0.saturating_sub(grow)) >> 12;
        let hi = cell_id(x1.saturating_add(grow), y1.saturating_add(grow)) >> 12;
        let words = blocks.packed().blocks();
        let from = words.partition_point(|&(key, _)| key < lo);
        let to = words.partition_point(|&(key, _)| key <= hi);
        let sketch: Vec<(Block, [u32; 4])> = (words.get(from..to).unwrap_or_default().iter())
            .map(|&word| (word, blocks_box(tile_box(word))))
            .filter(|&(_, bbox)| within(query, bbox))
            .collect();
        let mut near: Vec<&(Block, [u32; 4])> = Vec::new();
        let mut straddled: Vec<[u32; 4]> = Vec::new();
        let mut kept = Vec::new();
        for run in super_block_runs(own, block_key) {
            let tiles = own.get(run).unwrap_or_default();
            let Some(&(first, _)) = tiles.first() else {
                continue;
            };
            let (x, y) = cell_coords(first << 6);
            let square = [x & !63, y & !63, x | 63, y | 63];
            near.clear();
            near.extend(sketch.iter().filter(|&&(_, bbox)| within(square, bbox)));
            for &(key, word) in tiles {
                let tile = tile_box((key, word));
                // The box turned inside out: its gap to a box is the gap of
                // its cell farthest from that box, which only shrinks as the
                // box grows, so a super-block too far for it holds no block
                // near enough.
                let [x0, y0, x1, y1] = tile;
                let farthest = [x1, y1, x0, y0];
                let whole = near.iter().any(|&&(super_block, bbox)| {
                    within(farthest, bbox)
                        && block_boxes(super_block).any(|block| within(farthest, block))
                });
                let word = if whole {
                    word
                } else {
                    straddled.clear();
                    straddled.extend(
                        (near.iter())
                            .filter(|&&&(_, bbox)| within(tile, bbox))
                            .flat_map(|&&(super_block, _)| block_boxes(super_block))
                            .filter(|&block| within(tile, block)),
                    );
                    (cell_boxes((key, word)))
                        .filter(|&(_, cell)| straddled.iter().any(|&block| within(cell, block)))
                        .fold(0, |kept, (bit, _)| kept | 1 << bit)
                };
                if word != 0 {
                    kept.push((key, word));
                }
            }
        }
        CellSet::from_packed(PackedCells::from_blocks(kept))
    }

    /// An estimate of the heap memory used by this set, in bytes: its packed
    /// blocks, and the boundary tiles once they have been built.
    pub fn memory_bytes(&self) -> usize {
        self.cells.memory_bytes()
    }
}

/// The columns of an 8×8 tile (bit `x` for column `x`) that the cells of a
/// block word occupy.  A bit's position interleaves its cell's coordinates,
/// x in bits 0, 2, 4 and y in bits 1, 3, 5: the y bits are folded away one
/// at a time, then the eight survivors (positions 0, 1, 4, 5, 16, 17, 20,
/// 21) packed together.
fn tile_columns(word: u64) -> u8 {
    let word = (word | word >> 2) & 0x3333_3333_3333_3333;
    let word = (word | word >> 8) & 0x0033_0033_0033_0033;
    let word = (word | word >> 32) & 0x0033_0033;
    let word = (word | word >> 2) & 0x000F_000F;
    ((word | word >> 12) & 0xFF) as u8
}

/// A block word mirrored across its tile's diagonal, the cell `(x, y)` moved
/// to `(y, x)`: bits 0 and 1 of every position swapped, then 2 and 3, then 4
/// and 5, each by one masked exchange of the bits at `p` and `p + d`.
fn mirror(mut word: u64) -> u64 {
    for (d, low) in [
        (1, 0x2222_2222_2222_2222u64),
        (4, 0x00F0_00F0_00F0_00F0),
        (16, 0x0000_0000_FFFF_0000),
    ] {
        let differ = (word >> d ^ word) & low;
        word ^= differ ^ differ << d;
    }
    word
}

/// The exact box `[x0, y0, x1, y1]` of the cells of one packed block,
/// corners included: its tile's corner plus the first and last of the
/// columns and rows its word occupies.  Over a set of block ids it is the
/// box, in block coordinates, of one super-block's occupied blocks.
fn tile_box((key, word): Block) -> [u32; 4] {
    let (x, y) = cell_coords(key << 6);
    let (columns, rows) = (tile_columns(word), tile_columns(mirror(word)));
    [
        x + columns.trailing_zeros(),
        y + rows.trailing_zeros(),
        x + 7 - columns.leading_zeros(),
        y + 7 - rows.leading_zeros(),
    ]
}

/// The box, in cells, of the 8×8-cell blocks spanning the box `[x0, y0, x1,
/// y1]` in block coordinates.
fn blocks_box([x0, y0, x1, y1]: [u32; 4]) -> [u32; 4] {
    [x0 << 3, y0 << 3, x1 << 3 | 7, y1 << 3 | 7]
}

/// The smallest box holding both boxes.
fn union_box([a0, b0, a1, b1]: [u32; 4], [x0, y0, x1, y1]: [u32; 4]) -> [u32; 4] {
    [a0.min(x0), b0.min(y0), a1.max(x1), b1.max(y1)]
}

/// Each cell of one packed block as its bit and its one-cell box, ascending.
fn cell_boxes((key, word): Block) -> impl Iterator<Item = (u32, [u32; 4])> {
    let (x, y) = cell_coords(key << 6);
    set_bits(word).map(move |bit| {
        let (dx, dy) = TILE_XY.get(bit as usize).copied().unwrap_or_default();
        (bit, [x + dx, y + dy, x + dx, y + dy])
    })
}

/// The boxes, in cells, of the 8×8-cell blocks one packed word of block ids
/// holds.
fn block_boxes(super_block: Block) -> impl Iterator<Item = [u32; 4]> {
    cell_boxes(super_block).map(|(_, block)| blocks_box(block))
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
    use std::convert::identity;

    fn set(ids: &[CellId]) -> CellSet {
        CellSet::from_cells(ids.iter().copied())
    }

    /// `|a ∩ b|` by the word-parallel kernel over the packed forms, which
    /// picks its arm by block counts.
    fn packed_size(a: &CellSet, b: &CellSet) -> usize {
        a.packed().intersection_size(b.packed())
    }

    /// `|a ∩ b|` by the block merge, whatever the sizes.
    fn merged(a: &CellSet, b: &CellSet) -> usize {
        let mut count = 0;
        let _ = merge_join(
            a.packed().blocks(),
            b.packed().blocks(),
            block_key,
            |x, y| {
                count += (x.1 .1 & y.1 .1).count_ones() as usize;
                ControlFlow::Continue(())
            },
        );
        count
    }

    /// `|small ∩ large|` by galloping `small`'s blocks into `large`'s,
    /// whatever the sizes.
    fn galloped(small: &CellSet, large: &CellSet) -> usize {
        let mut count = 0;
        let (a, b) = (small.packed().blocks(), large.packed().blocks());
        gallop_join(a, b, block_key, |x, y| {
            count += (x.1 .1 & y.1 .1).count_ones() as usize;
        });
        count
    }

    /// The cells of `s`, ascending.
    fn cells(s: &CellSet) -> Vec<CellId> {
        s.iter().collect()
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
        assert_eq!(cells(&s), &[3, 9, 11]);
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
        assert_eq!(cells(&d1.union(&d3)), &[9, 11, 12, 13]);
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
        assert_eq!(galloped(&small, &large), 3);
        assert_eq!(merged(&small, &large), 3);
        assert_eq!(packed_size(&small, &large), 3);
    }

    #[test]
    fn empty_set_edge_cases() {
        let empty = CellSet::new();
        let other = set(&[1, 2, 3]);
        assert_eq!(empty.intersection_size(&empty), 0);
        assert_eq!(empty.intersection_size(&other), 0);
        assert_eq!(other.intersection_size(&empty), 0);
        assert_eq!(merged(&empty, &other), 0);
        assert_eq!(galloped(&empty, &other), 0);
        assert_eq!(packed_size(&empty, &other), 0);
        assert_eq!(packed_size(&other, &empty), 0);
        assert_eq!(empty.union_size(&empty), 0);
        assert_eq!(cells(&empty.union(&other)), cells(&other));
    }

    #[test]
    fn disjoint_range_edge_cases() {
        // Fully disjoint, interleaved at the boundary, and far apart.
        let low = set(&[0, 1, 2, 3]);
        let high = set(&[100, 200, 300]);
        assert_eq!(low.intersection_size(&high), 0);
        assert_eq!(galloped(&low, &high), 0);
        assert_eq!(galloped(&high, &low), 0);
        assert_eq!(packed_size(&low, &high), 0);
        assert_eq!(low.union_size(&high), 7);
        // Adjacent but not overlapping.
        let a = set(&[1, 3, 5]);
        let b = set(&[0, 2, 4, 6]);
        assert_eq!(a.intersection_size(&b), 0);
        assert_eq!(merged(&a, &b), 0);
        assert_eq!(galloped(&a, &b), 0);
        assert_eq!(packed_size(&a, &b), 0);
    }

    #[test]
    fn one_element_edge_cases() {
        let single = set(&[42]);
        let hit: CellSet = (0..100u64).collect();
        let miss = set(&[41, 43]);
        assert_eq!(single.intersection_size(&single), 1);
        assert_eq!(single.intersection_size(&hit), 1);
        assert_eq!(single.intersection_size(&miss), 0);
        assert_eq!(galloped(&single, &hit), 1);
        assert_eq!(packed_size(&single, &hit), 1);
        assert_eq!(hit.intersection_size(&single), 1);
        // Last and first element hits exercise the gallop-to-the-end path.
        assert_eq!(galloped(&set(&[99]), &hit), 1);
        assert_eq!(galloped(&set(&[0]), &hit), 1);
        assert_eq!(galloped(&set(&[100]), &hit), 0);
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
        assert_eq!(packed_size(&s, &probe), 256);
        s.union_in_place(&set(&[1000]));
        assert_eq!(packed_size(&s, &probe), 256);
        assert_eq!(packed_size(&s, &set(&[1000])), 1);
        s.union_in_place(&(256..300u64).collect());
        assert_eq!(packed_size(&s, &probe), 300);
        assert_eq!(merged(&s, &probe), 300);
    }

    #[test]
    fn equality_and_clone_ignore_the_cache() {
        let a: CellSet = (0..300u64).collect();
        let b: CellSet = (0..300u64).collect();
        // Build `a`'s boundary cache but not `b`'s: still equal both ways.
        assert_ne!(boundary_cells(&a).count(), 0);
        assert_eq!(a, b);
        assert_eq!(b, a);
        let c = a.clone();
        assert_eq!(c, a);
        assert_eq!(packed_size(&c, &b), 300);
    }

    #[test]
    fn intersection_size_at_the_gallop_threshold_matches_the_oracle() {
        // Four blocks against 64 of one cell each: at `4 · 16 == 64` the
        // merge runs; one block more and the gallop does.  Either way, and in
        // either argument order, the count is the oracle's.
        let small = set(&[3, 40 << 6, 41 << 6 | 7, 90 << 6]);
        assert_eq!(small.packed().blocks().len(), 4);
        for large_len in [64u64, 65] {
            let large: CellSet = (0..large_len).map(|i| (2 * i) << 6).collect();
            assert_eq!(large.packed().blocks().len() as u64, large_len);
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
        assert_eq!(cells(&s), &[0, 3]);
    }

    /// A gridded set keeps one 16-byte block per occupied 8×8 tile and
    /// nothing per point: the slots reserved for the points are released.
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
        assert_eq!(cells(&s), &[0]);
        assert_eq!(s.memory_bytes(), 16);
    }

    #[test]
    fn clip_to_window_keeps_only_cells_inside() {
        // 4x4 grid, keep only cells with coordinates in [0,1]x[0,1].
        let s = set(&[0, 1, 3, 12, 15]);
        let window = Mbr::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let clipped = s.clip_to_window(&window);
        assert_eq!(cells(&clipped), &[0, 1, 3]);
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
        let blocks = block_ids(&s);
        assert_eq!(
            cells(&blocks),
            &[cell_id(0, 0), cell_id(1, 0), cell_id(100 >> 3, 200 >> 3)]
        );
        for reach in [0.0, 0.5, 1.0, 40.0] {
            assert_eq!(s.clip_near_blocks(&blocks, reach), s);
            assert_eq!(s.clip_near_blocks(&CellSet::new(), reach), CellSet::new());
            assert_eq!(
                CellSet::new().clip_near_blocks(&blocks, reach),
                CellSet::new()
            );
        }
        // Only the block of (8, 0) and (9, 1) is occupied: within reach 0 its
        // own cells, within 1 also (7, 7), which touches it; (100, 200) is
        // out of any small reach.
        let middle = CellSet::from_cells([cell_id(1, 0)]);
        assert_eq!(
            cells(&s.clip_near_blocks(&middle, 0.0)),
            &[cell_id(8, 0), cell_id(9, 1)]
        );
        assert_eq!(
            cells(&s.clip_near_blocks(&middle, 1.0)),
            &[cell_id(7, 7), cell_id(8, 0), cell_id(9, 1)]
        );
        // (0, 0) is 8 cells west of the block.
        assert_eq!(s.clip_near_blocks(&middle, 7.9).len(), 3);
        assert_eq!(s.clip_near_blocks(&middle, 8.0).len(), 4);
        // A block in the super-block west of the set's, whose key is lower:
        // (100, 0) is 37 cells east of the block (56..=63, 0..=7).
        let east = CellSet::from_cells([cell_id(100, 0)]);
        let west = CellSet::from_cells([cell_id(60, 0) >> 6]);
        assert_eq!(east.clip_near_blocks(&west, 37.0), east);
        assert!(east.clip_near_blocks(&west, 36.9).is_empty());
        // A reach that is not a number reaches no further than the block.
        assert_eq!(
            s.clip_near_blocks(&middle, f64::NAN),
            s.clip_near_blocks(&middle, 0.0)
        );
    }

    /// A set's 8×8-cell block ids: its packed keys.
    fn block_ids(s: &CellSet) -> CellSet {
        s.packed().blocks().iter().map(|&(key, _)| key).collect()
    }

    /// The oracle of [`CellSet::clip_near_blocks`]: a cell is kept when some
    /// cell of an occupied block lies within `reach` of it, by the integer
    /// squared distance of their coordinates (in `u128`, so no corner of the
    /// coordinate space overflows it) — every cell of every block tried.
    fn oracle_near_blocks(cells: &CellSet, blocks: &CellSet, reach: f64) -> CellSet {
        cells
            .iter()
            .filter(|&cell| {
                let (x, y) = cell_coords(cell);
                blocks.iter().any(|block| {
                    (0..64).any(|offset| {
                        let (bx, by) = cell_coords(block << 6 | offset);
                        let dx = u128::from(x.abs_diff(bx));
                        let dy = u128::from(y.abs_diff(by));
                        ((dx * dx + dy * dy) as f64).sqrt() <= reach
                    })
                })
            })
            .collect()
    }

    /// Below a reach of 1 the clip is the block merge: a cell is kept when
    /// its own block is occupied.
    fn own_blocks(cells: &CellSet, blocks: &CellSet) -> CellSet {
        cells
            .iter()
            .filter(|&cell| blocks.contains(cell >> 6))
            .collect()
    }

    #[test]
    fn a_grid_of_one_block_keeps_every_cell_or_none() {
        // θ = 2: 4×4 cells, all in the one 8×8 block.
        let all: CellSet = (0..16u64).collect();
        for reach in [0.0, 1.0, 2.5, 100.0] {
            assert_eq!(all.clip_near_blocks(&set(&[0]), reach), all);
            assert!(all.clip_near_blocks(&CellSet::new(), reach).is_empty());
        }
    }

    proptest! {
        #[test]
        fn prop_clip_near_blocks_matches_the_oracle(
            cells in proptest::collection::vec((0u32..64, 0u32..64), 0..60),
            occupied in proptest::collection::vec((0u32..64, 0u32..64), 0..12),
            squared in 0u64..200,
            slack in 0.0f64..1e-6,
        ) {
            let cells = coord_set(&cells);
            let blocks = block_ids(&coord_set(&occupied));
            // The reaches kNN clips by: square roots of integers, a hair
            // over.
            let reach = (squared as f64).sqrt() + slack;
            prop_assert_eq!(
                cells.clip_near_blocks(&blocks, reach),
                oracle_near_blocks(&cells, &blocks, reach)
            );
            let below_one = reach.min(0.999);
            prop_assert_eq!(
                cells.clip_near_blocks(&blocks, below_one),
                own_blocks(&cells, &blocks)
            );
        }
    }

    /// Both are unions over a word's bits (`OR`s, shifts and masks, or a
    /// permutation of bits), so placing every single bit right places every
    /// word right.
    #[test]
    fn tile_columns_and_mirror_place_every_bit() {
        for bit in 0..64u64 {
            let (x, y) = cell_coords(bit);
            assert_eq!(tile_columns(1 << bit), 1 << x, "bit {bit}");
            assert_eq!(mirror(1 << bit), 1 << cell_id(y, x), "bit {bit}");
        }
        assert_eq!(tile_columns(u64::MAX), 0xFF);
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
        // 100 cells fill two 64-cell blocks: 16 B each, nothing per cell.
        let s: CellSet = (0..100u64).collect();
        let bare = s.memory_bytes();
        assert_eq!(bare, 2 * 16);
        assert_eq!(bare, s.packed().memory_bytes());
        let wide: CellSet = (0..100u64).map(|i| i << 6).collect();
        assert_eq!(wide.memory_bytes(), 100 * 16);
        // Building the boundary cache is reflected in the estimate, and the
        // verify state is the blocks and the tiles.
        assert_ne!(boundary_cells(&s).count(), 0);
        assert!(s.memory_bytes() > bare);
        assert_eq!(s.memory_bytes(), s.verify_state_bytes());
    }

    /// The boundary cells' coordinates, read off the tiles' masks.
    fn boundary_cells(s: &CellSet) -> impl Iterator<Item = (u32, u32)> + '_ {
        let state = s.boundary_tiles();
        state.supers.iter().flat_map(move |block| {
            let origin = block.origin();
            state.tiles_of(block).iter().flat_map(move |tile| {
                let (x, y) = tile.origin(origin);
                set_bits(tile.mask).map(move |bit| {
                    let (dx, dy) = TILE_XY[bit as usize];
                    (x + dx, y + dy)
                })
            })
        })
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
        let boundary: Vec<(u32, u32)> = boundary_cells(&block).collect();
        assert_eq!(boundary.len(), 12);
        assert!(!boundary.contains(&(1, 1)));
        assert!(!boundary.contains(&(2, 2)));
        assert!(boundary.contains(&(0, 0)));
        assert!(boundary.contains(&(3, 2)));
        // A thin route is all boundary.
        let route = coord_set(&[(10, 0), (11, 0), (12, 0)]);
        assert_eq!(boundary_cells(&route).count(), 3);
        // The origin cell is boundary even though its left/down neighbours
        // would underflow the coordinate space.
        let origin = coord_set(&[(0, 0)]);
        assert_eq!(boundary_cells(&origin).collect::<Vec<_>>(), [(0, 0)]);
    }

    /// The boundary by its definition: the cells with a 4-neighbour outside
    /// the set, a neighbour off the coordinate space included.
    fn oracle_boundary(s: &CellSet) -> BTreeSet<(u32, u32)> {
        let full: BTreeSet<(u32, u32)> = s.iter().map(cell_coords).collect();
        let present =
            |x: Option<u32>, y: Option<u32>| x.zip(y).is_some_and(|cell| full.contains(&cell));
        full.iter()
            .copied()
            .filter(|&(x, y)| {
                !(present(x.checked_sub(1), Some(y))
                    && present(x.checked_add(1), Some(y))
                    && present(Some(x), y.checked_sub(1))
                    && present(Some(x), y.checked_add(1)))
            })
            .collect()
    }

    /// The masks hold exactly the oracle's cells, once each, and every box
    /// of a tile or a super-block is the exact box of its boundary cells.
    fn assert_boundary_state_is_exact(s: &CellSet) {
        let truth = oracle_boundary(s);
        let cells: Vec<(u32, u32)> = boundary_cells(s).collect();
        assert_eq!(cells.iter().copied().collect::<BTreeSet<_>>(), truth);
        assert_eq!(cells.len(), truth.len(), "a boundary cell listed twice");
        let state = s.boundary_tiles();
        assert_eq!(state.tiles.len(), s.packed().blocks().len());
        let bbox = |cells: &mut dyn Iterator<Item = (u32, u32)>| {
            cells.fold(None, |acc: Option<[u32; 4]>, (x, y)| {
                Some(acc.map_or([x, y, x, y], |[x0, y0, x1, y1]| {
                    [x0.min(x), y0.min(y), x1.max(x), y1.max(y)]
                }))
            })
        };
        for block in &state.supers {
            let (ox, oy) = block.origin();
            let inside = |&(x, y): &(u32, u32)| x & !63 == ox && y & !63 == oy;
            assert_eq!(
                Some(block.bbox),
                bbox(&mut truth.iter().copied().filter(inside))
            );
            for tile in state.tiles_of(block).iter().filter(|t| t.mask != 0) {
                let (tx, ty) = tile.origin((ox, oy));
                let in_tile = |&(x, y): &(u32, u32)| x & !7 == tx && y & !7 == ty;
                assert_eq!(
                    Some(tile.bbox((ox, oy))),
                    bbox(&mut truth.iter().copied().filter(in_tile))
                );
            }
        }
    }

    #[test]
    fn boundary_at_the_far_corner_of_the_coordinate_space() {
        // A 3×3 square in the last cells of the space: the neighbours past
        // `u32::MAX` are off the space, so only the centre is interior.
        let m = u32::MAX;
        let square: Vec<(u32, u32)> = (m - 2..=m)
            .flat_map(|x| (m - 2..=m).map(move |y| (x, y)))
            .collect();
        let s = coord_set(&square);
        assert_eq!(boundary_cells(&s).count(), 8);
        assert!(!boundary_cells(&s).any(|cell| cell == (m - 1, m - 1)));
        assert_boundary_state_is_exact(&s);
    }

    proptest! {
        #[test]
        fn prop_boundary_masks_match_the_four_neighbour_definition(
            theta in 3u32..13,
            rects in proptest::collection::vec((0u32..4096, 0u32..4096, 1u32..20, 1u32..20), 1..5),
            holes in proptest::collection::vec((0u32..20, 0u32..20), 0..12),
        ) {
            // Filled rectangles on a 2^θ grid, each anchored at x = 0, at
            // the grid's last column (x = 2^θ − 1, clamped), or a few cells
            // before a tile edge; the same for y.  Holes punched into the
            // first make interior cells next to missing ones.
            let side = 1u32 << theta;
            let anchor = |v: u32, len: u32| match v % 4 {
                0 => 0,
                1 => side.saturating_sub(len / 2),
                _ => ((v % side) & !7).saturating_sub(v % 5),
            };
            let mut cells = BTreeSet::new();
            let mut first = None;
            for &(x, y, w, h) in &rects {
                let (x0, y0) = (anchor(x, w), anchor(y, h));
                first.get_or_insert((x0, y0));
                for dx in 0..w {
                    for dy in 0..h {
                        cells.insert(((x0 + dx).min(side - 1), (y0 + dy).min(side - 1)));
                    }
                }
            }
            if let Some((x0, y0)) = first {
                for &(dx, dy) in &holes {
                    cells.remove(&((x0 + dx).min(side - 1), (y0 + dy).min(side - 1)));
                }
            }
            let s = coord_set(&cells.into_iter().collect::<Vec<_>>());
            assert_boundary_state_is_exact(&s);
        }
    }

    #[test]
    fn super_block_runs_group_64_consecutive_block_keys() {
        let keys = [0u64, 5, 63, 64, 200, 4096, 4097];
        let runs: Vec<Range<usize>> = super_block_runs(&keys, identity).collect();
        assert_eq!(runs, [0..3, 3..4, 4..5, 5..7]);
        assert_eq!(super_block_runs(&[] as &[u64], identity).count(), 0);
    }

    #[test]
    fn boundary_cache_is_invalidated_by_mutation() {
        let mut s = coord_set(&[(1, 1), (1, 0), (1, 2), (0, 1)]);
        assert_eq!(boundary_cells(&s).count(), 4); // (1,1) misses (2,1)
        s.union_in_place(&coord_set(&[(2, 1)]));
        // (1,1) is now interior.
        assert_eq!(boundary_cells(&s).count(), 4);
        assert!(!boundary_cells(&s).any(|cell| cell == (1, 1)));
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
            prop_assert_eq!(cells(&ca.union(&cb)).to_vec(), u);
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
            let boundary: std::collections::BTreeSet<(u64, u64)> = boundary_cells(&s)
                .map(|(x, y)| (x as u64, y as u64))
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
            prop_assert_eq!(merged(&ca, &cb), truth);
            prop_assert_eq!(galloped(&ca, &cb), truth);
            prop_assert_eq!(galloped(&cb, &ca), truth);
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
            prop_assert_eq!(merged(&ca, &cb), truth);
            prop_assert_eq!(packed_size(&ca, &cb), truth);
            prop_assert_eq!(packed_size(&cb, &ca), truth);
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
            prop_assert_eq!(merged(&ca, &cb), truth);
            prop_assert_eq!(packed_size(&ca, &cb), truth);
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
            prop_assert_eq!(merged(&single, &rest), truth);
            prop_assert_eq!(packed_size(&single, &rest), truth);
            prop_assert_eq!(packed_size(&rest, &single), truth);
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
            prop_assert_eq!(merged(&ca, &cb), truth);
            prop_assert_eq!(packed_size(&ca, &cb), truth);
            prop_assert_eq!(packed_size(&cb, &ca), truth);
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
            prop_assert_eq!(merged(&ca, &cb), truth);
            prop_assert_eq!(ca.intersection_size(&cb), truth);
            prop_assert_eq!(galloped(&ca, &cb), truth);
            prop_assert_eq!(packed_size(&ca, &cb), truth);
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

    /// A cell where the packed layout has an edge, chosen by `(kind, n)`:
    /// the first or last bit of a block, the first or last block of a
    /// 64×64 super-block, a few cells from `cell_id(u32::MAX, u32::MAX)`, or
    /// anywhere in a 24×24 square across tile edges, so blocks hold several
    /// cells.
    fn edge_cell((kind, n): (u8, u64)) -> CellId {
        let end = |bit: u64| if bit & 1 == 0 { 0 } else { 63 };
        match kind {
            0 => ((n >> 1) % 128) << 6 | end(n),
            1 => ((n >> 8) % 16) << 12 | end(n) << 6 | ((n >> 1) % 64),
            2 => cell_id(u32::MAX - (n % 10) as u32, u32::MAX - (n >> 8) as u32 % 10),
            _ => cell_id((n % 24) as u32, (n >> 8) as u32 % 24),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_every_operation_matches_a_btreeset(
            a in proptest::collection::vec((0u8..4, any::<u64>()), 0..90),
            b in proptest::collection::vec((0u8..4, any::<u64>()), 0..90),
            corners in (0usize..90, 0usize..90, 0u8..3),
            reach_pick in (0usize..7, 0.0f64..1e-6),
        ) {
            let (oa, ob): (BTreeSet<CellId>, BTreeSet<CellId>) = (
                a.iter().map(|&p| edge_cell(p)).collect(),
                b.iter().map(|&p| edge_cell(p)).collect(),
            );
            let (sa, sb) = (
                CellSet::from_cells(oa.iter().rev().copied()),
                CellSet::from_cells(ob.iter().copied()),
            );
            // Iteration order, length, membership, the ends.
            prop_assert_eq!(cells(&sa), oa.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(sa.len(), oa.len());
            prop_assert_eq!(sa.is_empty(), oa.is_empty());
            prop_assert_eq!(sa.first(), oa.first().copied());
            prop_assert_eq!(sa.last(), oa.last().copied());
            for probe in ob.iter().flat_map(|&c| [c.wrapping_sub(1), c, c.wrapping_add(1)]) {
                prop_assert_eq!(sa.contains(probe), oa.contains(&probe));
            }
            prop_assert_eq!(CellSet::from_sorted_cells(oa.iter().copied()), Some(sa.clone()));
            // Both intersection arms, whichever the sizes pick, and what is
            // built on them.
            let shared = oa.intersection(&ob).count();
            prop_assert_eq!(sa.intersection_size(&sb), shared);
            prop_assert_eq!(merged(&sa, &sb), shared);
            prop_assert_eq!(galloped(&sa, &sb), shared);
            prop_assert_eq!(galloped(&sb, &sa), shared);
            prop_assert_eq!(sa.intersects(&sb), shared > 0);
            let union = sa.union(&sb);
            prop_assert_eq!(cells(&union), oa.union(&ob).copied().collect::<Vec<_>>());
            prop_assert_eq!(union.len(), oa.union(&ob).count());
            prop_assert_eq!(sa.marginal_gain(&sb), oa.difference(&ob).count());
            // The box.
            let coords: Vec<(u32, u32)> = oa.iter().map(|&c| cell_coords(c)).collect();
            let mbr = sa.mbr_cell_space();
            prop_assert_eq!(mbr.is_none(), coords.is_empty());
            if let Some(m) = mbr {
                let (xs, ys) = (coords.iter().map(|c| c.0), coords.iter().map(|c| c.1));
                let corners = (xs.clone().min(), ys.clone().min(), xs.max(), ys.max());
                let as_coord = |v: f64| Some(v as u32);
                prop_assert_eq!(
                    corners,
                    (as_coord(m.min.x), as_coord(m.min.y), as_coord(m.max.x), as_coord(m.max.y))
                );
            }
            // A window between two of the cells, on cell centres, half a
            // cell off them, or with a `NaN` corner.
            let (i, j, offset) = corners;
            if let (Some(&(x0, y0)), Some(&(x1, y1))) = (
                coords.get(i % coords.len().max(1)),
                coords.get(j % coords.len().max(1)),
            ) {
                let shift = [0.0, 0.5, f64::NAN][usize::from(offset)];
                let window = Mbr::new(
                    Point::new(f64::from(x0.min(x1)) + shift, f64::from(y0.min(y1)) - shift),
                    Point::new(f64::from(x0.max(x1)) + shift, f64::from(y0.max(y1))),
                );
                let inside: Vec<CellId> = oa.iter().copied().filter(|&c| {
                    let (x, y) = cell_coords(c);
                    window.contains_point(&Point::new(x as f64, y as f64))
                }).collect();
                prop_assert_eq!(cells(&sa.clip_to_window(&window)), inside);
            }
            // Near-block clipping below 1, at block multiples and near 300,
            // against the brute force.
            let (pick, slack) = reach_pick;
            let reach = [0.0, 0.999, 1.0, 8.0, 16.0 + slack, 64.0, (90_000f64).sqrt() + slack][pick];
            let occupied = block_ids(&sb);
            prop_assert_eq!(
                sa.clip_near_blocks(&occupied, reach),
                oracle_near_blocks(&sa, &occupied, reach)
            );
        }
    }
}
