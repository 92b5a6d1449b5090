//! The block sketch: which 8×8-cell blocks of its grid a source holds data
//! in — the second thing, beside the root rectangle, a source tells the data
//! center about itself.
//!
//! A root rectangle says where a source's data *ends*; on portals whose
//! datasets wander across a continent it says little about where the data
//! *is*.  The sketch does: a block is the grid cell three levels up (z-order
//! cell id `>> 6`; the one block there is when θ < 3), and a query cell in a
//! block no dataset of the source touches can share nothing with the source,
//! so it need not travel there — the semijoin reduction of distributed joins
//! applied to the paper's second query-distribution strategy.
//!
//! A block is a packed 64-cell block of [`PackedCells`], so a set's block
//! ids are its packed keys, and [`blocks_of`] reads nothing else.  A source
//! keeps no sketch: its sketch is [`blocks_of`] the key columns of its
//! DITS-L leaves, computed when it is asked for
//! ([`DitsLocal::sketch`](crate::DitsLocal::sketch)): a leaf's keys are its
//! datasets' distinct cells as packed blocks, so each block shared by a
//! leaf's datasets is read once, not once a dataset.
//! What the data center holds of a source is a set of block ids
//! that *contains* that sketch — a superset, grown by the blocks of every
//! dataset the center sends the source — which is all a filter with no false
//! negatives needs.
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

use spatial::{CellSet, PackedCells};

/// A block is `2^BLOCK_BITS` consecutive z-order cell ids: an 8×8 square of
/// cells.  One level finer (4×4) halves what a query sends once more but
/// doubles the sketch a source uploads; one level coarser does the reverse
/// (measured on the benchmark corpus; the table is in CHANGES.md, PR 24).
pub const BLOCK_BITS: u32 = 6;

/// How many blocks the grid of resolution θ has — `4^(θ−3)`, and 1 below
/// θ = 3: every block id of such a grid is smaller.  `None` when that number
/// does not fit 64 bits, where every id is possible.
pub fn block_id_bound(resolution: u32) -> Option<u64> {
    1u64.checked_shl(resolution.saturating_sub(BLOCK_BITS / 2).saturating_mul(2))
}

/// The blocks that any of these packed cell sets touch, as one set of block
/// ids, read off their keys alone: a packed block holds the 64 cells
/// `key << 6 ..`, which is exactly block `key`.  Over the key columns of a
/// DITS-L's leaves it is the blocks of the leaves' datasets, since a leaf's
/// keys are the union of its datasets' cells.
pub fn blocks_of<'a>(packed: impl IntoIterator<Item = &'a PackedCells>) -> CellSet {
    const _: () = assert!(BLOCK_BITS == 6, "a packed key is a block id at 6 bits only");
    CellSet::from_cells(
        packed
            .into_iter()
            .flat_map(|cells| cells.blocks().iter().map(|&(key, _)| key)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial::zorder::cell_id;

    fn cells(coords: &[(u32, u32)]) -> CellSet {
        coords.iter().map(|&(x, y)| cell_id(x, y)).collect()
    }

    #[test]
    fn a_block_is_an_eight_by_eight_square_and_coarse_grids_have_one() {
        assert_eq!(block_id_bound(0), Some(1));
        assert_eq!(block_id_bound(2), Some(1));
        assert_eq!(block_id_bound(3), Some(1));
        assert_eq!(block_id_bound(4), Some(4));
        assert_eq!(block_id_bound(12), Some(1 << 18));
        assert_eq!(block_id_bound(34), Some(1 << 62));
        assert_eq!(block_id_bound(35), None);
        assert_eq!(block_id_bound(u32::MAX), None);
        // Every cell of a θ = 2 grid (ids 0..16) is in block 0.
        let coarse: CellSet = (0..16u64).collect();
        assert_eq!(blocks_of([coarse.packed()]), cells(&[(0, 0)]));
        // Two datasets sharing block (1,0): each block once.
        let a = cells(&[(0, 0), (7, 7), (8, 7)]);
        let b = cells(&[(9, 0), (16, 0)]);
        assert_eq!(
            blocks_of([a.packed(), b.packed()]),
            cells(&[(0, 0), (1, 0), (2, 0)])
        );
        assert_eq!(blocks_of([]), CellSet::new());
    }
}
