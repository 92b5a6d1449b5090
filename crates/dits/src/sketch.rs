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
//! [`BlockSketch`] is the source's side: a count of datasets per block,
//! moved by the maintenance path of [`DitsLocal`](crate::DitsLocal) for every
//! dataset that enters or leaves the index, never recomputed.  What the
//! center holds is the set of occupied block ids, a [`CellSet`]; a
//! [`SketchDelta`] carries that set, or a change to it, between the two.

use std::collections::BTreeMap;

use spatial::{CellId, CellSet};

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

/// What a source reports of its block sketch: a change to the set of
/// occupied blocks, and how many blocks the set holds once it is applied.
/// Answering a summary poll the change is against the empty set — `added`
/// is the whole sketch and `removed` is empty; answering a maintenance
/// batch it is what the batch changed.
///
/// Like the root rectangle it travels with, the sketch describes the source
/// at the time of the reply and nothing ties it to a state: a source
/// restarted at its initial state makes both stale until replies carry an
/// epoch (ROADMAP item 5 (b)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SketchDelta {
    /// Blocks that became occupied.
    pub added: CellSet,
    /// Blocks no dataset touches any more.
    pub removed: CellSet,
    /// Occupied blocks after the change.
    pub blocks: u64,
}

impl SketchDelta {
    /// The sketch `held` with this change applied — `None` when the change
    /// cannot have been made against `held`: it adds a block `held` has,
    /// removes one it has not, or leaves a different number of blocks than
    /// the source counts.  One merge of the three sorted sequences.
    pub fn apply_to(&self, held: &CellSet) -> Option<CellSet> {
        let mut next = Vec::with_capacity(held.len() + self.added.len());
        let mut added = self.added.iter().peekable();
        let mut removed = self.removed.iter().peekable();
        for block in held.iter() {
            while let Some(entering) = added.next_if(|&a| a < block) {
                next.push(entering);
            }
            if added.peek() == Some(&block) {
                return None;
            }
            if removed.next_if_eq(&block).is_none() {
                next.push(block);
            }
        }
        next.extend(added);
        // A removed block `held` lacks is never reached, and neither is any
        // behind it.
        let fits = removed.next().is_none() && next.len() as u64 == self.blocks;
        fits.then(|| CellSet::from_sorted_cells(next)).flatten()
    }

    /// The whole sketch, when this is the answer to a summary poll: a change
    /// against the empty set.
    pub fn into_whole(self) -> Option<CellSet> {
        (self.removed.is_empty() && self.added.len() as u64 == self.blocks).then_some(self.added)
    }
}

/// A source's block sketch: for every block, how many of the indexed
/// datasets touch it.  A block is *occupied* while that count is positive.
///
/// The sketch also remembers which blocks changed occupancy since the
/// changes were last taken ([`Self::take_changes`]), so that a maintenance
/// batch can be acknowledged with its delta instead of the whole set.  Two
/// sketches are equal when their counts are, whatever changes either has on
/// record.
#[derive(Debug, Clone, Default)]
pub struct BlockSketch {
    counts: BTreeMap<CellId, u32>,
    /// Blocks whose occupancy differs from what it was when the changes
    /// were last taken; `true` for one that became occupied.
    changed: BTreeMap<CellId, bool>,
}

impl PartialEq for BlockSketch {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts
    }
}

impl Eq for BlockSketch {}

impl BlockSketch {
    /// The sketch of a collection of datasets, with no change on record.
    pub fn of<'a>(datasets: impl IntoIterator<Item = &'a CellSet>) -> Self {
        // One entry per (dataset, block), sorted into runs of equal blocks:
        // a map collected from its entries in order is built in one pass,
        // in a third of the time of counting into it and with full nodes —
        // half the memory.
        let mut blocks: Vec<CellId> = Vec::new();
        for cells in datasets {
            blocks.extend(Self::blocks_of(cells).iter());
        }
        blocks.sort_unstable();
        let counts = blocks
            .chunk_by(|a, b| a == b)
            .filter_map(|run| Some((*run.first()?, run.len() as u32)))
            .collect();
        Self {
            counts,
            changed: BTreeMap::new(),
        }
    }

    /// The blocks a dataset of these cells touches, ascending.
    pub fn blocks_of(cells: &CellSet) -> CellSet {
        cells.blocks(BLOCK_BITS)
    }

    /// Counts a dataset that entered the index.
    pub(crate) fn add(&mut self, cells: &CellSet) {
        self.count_in(Self::blocks_of(cells).iter());
    }

    /// Discounts a dataset that left the index.
    pub(crate) fn remove(&mut self, cells: &CellSet) {
        self.count_out(Self::blocks_of(cells).iter());
    }

    /// A dataset changed in place, from touching the blocks `old` to touching
    /// the blocks `new` ([`Self::blocks_of`] each): the counts move for the
    /// blocks it entered or left only — of a dataset that was appended to or
    /// nudged, a few.
    pub(crate) fn replace(&mut self, old: &CellSet, new: &CellSet) {
        self.count_in(new.iter().filter(|&block| !old.contains(block)));
        self.count_out(old.iter().filter(|&block| !new.contains(block)));
    }

    fn count_in(&mut self, blocks: impl Iterator<Item = CellId>) {
        for block in blocks {
            let count = self.counts.entry(block).or_insert(0);
            *count += 1;
            if *count == 1 {
                self.flip(block, true);
            }
        }
    }

    fn count_out(&mut self, blocks: impl Iterator<Item = CellId>) {
        for block in blocks {
            let Some(count) = self.counts.get_mut(&block) else {
                debug_assert!(
                    false,
                    "block {block} of a removed dataset was never counted"
                );
                continue;
            };
            *count -= 1;
            if *count == 0 {
                self.counts.remove(&block);
                self.flip(block, false);
            }
        }
    }

    /// Records that `block` became occupied (or vacant): a second flip since
    /// the changes were last taken undoes the first.
    fn flip(&mut self, block: CellId, occupied: bool) {
        if self.changed.remove(&block).is_none() {
            self.changed.insert(block, occupied);
        }
    }

    /// Number of occupied blocks.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no block is occupied: the index holds no dataset.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The occupied blocks, ascending.
    pub fn blocks(&self) -> CellSet {
        self.counts.keys().copied().collect()
    }

    /// The whole sketch as the change against the empty set — what answers
    /// a summary poll.
    pub fn whole(&self) -> SketchDelta {
        SketchDelta {
            added: self.blocks(),
            removed: CellSet::new(),
            blocks: self.len() as u64,
        }
    }

    /// The net change of occupancy since this was last called (or since the
    /// sketch was made), which it forgets — what acknowledges a maintenance
    /// batch.
    pub fn take_changes(&mut self) -> SketchDelta {
        let changed = std::mem::take(&mut self.changed);
        let side = |occupied: bool| -> CellSet {
            changed
                .iter()
                .filter(|&(_, &became)| became == occupied)
                .map(|(&block, _)| block)
                .collect()
        };
        SketchDelta {
            added: side(true),
            removed: side(false),
            blocks: self.len() as u64,
        }
    }

    /// Heap bytes held by the sketch, estimated as its entries.
    pub fn memory_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<(CellId, u32)>()
            + self.changed.len() * std::mem::size_of::<(CellId, bool)>()
    }
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
        assert_eq!(coarse.blocks(BLOCK_BITS).cells(), &[0]);
        let sketch = BlockSketch::of([&cells(&[(0, 0), (7, 7), (8, 7), (16, 0)])]);
        assert_eq!(
            sketch.blocks().cells(),
            &[cell_id(0, 0), cell_id(1, 0), cell_id(2, 0)]
        );
    }

    #[test]
    fn counts_follow_datasets_and_changes_are_net() {
        let a = cells(&[(0, 0), (9, 0)]); // blocks (0,0), (1,0)
        let b = cells(&[(10, 1), (40, 40)]); // blocks (1,0), (5,5)
        let mut sketch = BlockSketch::of([&a]);
        assert_eq!(
            sketch.take_changes(),
            SketchDelta {
                added: CellSet::new(),
                removed: CellSet::new(),
                blocks: 2,
            }
        );
        sketch.add(&b);
        sketch.remove(&a);
        assert_eq!(sketch, BlockSketch::of([&b]));
        let delta = sketch.take_changes();
        // Block (1,0) was shared: its count moved, its occupancy did not.
        assert_eq!(delta.added.cells(), &[cell_id(5, 5)]);
        assert_eq!(delta.removed.cells(), &[cell_id(0, 0)]);
        assert_eq!(delta.blocks, 2);
        // Replaced in place by a dataset that left (5,5) for (6,5).
        let c = cells(&[(10, 1), (48, 40)]);
        sketch.replace(&BlockSketch::blocks_of(&b), &BlockSketch::blocks_of(&c));
        assert_eq!(sketch, BlockSketch::of([&c]));
        let delta = sketch.take_changes();
        assert_eq!(delta.added.cells(), &[cell_id(6, 5)]);
        assert_eq!(delta.removed.cells(), &[cell_id(5, 5)]);
        sketch.replace(&BlockSketch::blocks_of(&c), &BlockSketch::blocks_of(&b));
        sketch.take_changes();
        // Added and removed again within one batch: nothing to report.
        sketch.add(&a);
        sketch.remove(&a);
        assert_eq!(
            sketch.take_changes(),
            SketchDelta {
                blocks: 2,
                ..SketchDelta::default()
            }
        );
        sketch.remove(&b);
        assert!(sketch.is_empty());
        assert_eq!(sketch.whole(), SketchDelta::default());
    }

    #[test]
    fn a_delta_applies_only_to_the_sketch_it_was_made_against() {
        let held: CellSet = [3u64, 5, 9].into_iter().collect();
        let delta = SketchDelta {
            added: [4u64, 11].into_iter().collect(),
            removed: [5u64].into_iter().collect(),
            blocks: 4,
        };
        let next = delta.apply_to(&held).expect("made against `held`");
        assert_eq!(next.cells(), &[3, 4, 9, 11]);
        // Replayed: its added blocks are held by now, its removed one is not.
        assert_eq!(delta.apply_to(&next), None);
        // Against a sketch that missed a batch: the sizes disagree.
        let behind: CellSet = [3u64, 5].into_iter().collect();
        assert_eq!(delta.apply_to(&behind), None);
        assert_eq!(delta.clone().into_whole(), None);
        let whole = SketchDelta {
            added: held.clone(),
            removed: CellSet::new(),
            blocks: 3,
        };
        assert_eq!(whole.apply_to(&CellSet::new()), Some(held.clone()));
        assert_eq!(whole.into_whole(), Some(held));
    }
}
