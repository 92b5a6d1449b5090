//! Index maintenance for DITS-L (Appendix IX-C): dataset inserts, updates
//! and deletes without rebuilding the whole index.
//!
//! * **Insert**: walk down from the root, at every internal node following
//!   the child whose pivot is closest to the new dataset node's pivot; add
//!   the dataset to the reached leaf (splitting it with Algorithm 1 when the
//!   capacity `f` is exceeded) and refresh the geometry of every ancestor.
//! * **Update**: locate the dataset by id.  When the new pivot still falls
//!   inside the leaf's MBR the dataset is replaced in place (refreshing the
//!   leaf's inverted index and the ancestors' geometry); when it escapes the
//!   leaf, the entry is deleted and re-inserted along the normal descent so
//!   pivot-guided lookups and pruning bounds stay tight.
//! * **Delete**: remove the dataset from its leaf and refresh upwards.  A
//!   leaf emptied by the removal is *collapsed into its sibling* (leaf
//!   underflow): keeping it around would leave a fabricated degenerate MBR
//!   that every ancestor unions into its own geometry, silently corrupting
//!   kNN and coverage pruning bounds.  [`DitsLocal::check_invariants`]
//!   rejects such leaves, so a regression fails loudly.
//!
//! No operation touches the [block sketch](crate::sketch): the index keeps
//! none, and the data center grows its copy from the datasets it sends.
//!
//! Every mutation has a `_with_stats` variant that records what structural
//! work was done into a [`MaintenanceStats`] block; the multi-source
//! maintenance pipeline (`MultiSourceFramework::apply_updates` in the
//! `multisource` crate) aggregates those blocks per wire batch and folds
//! the resulting root summary into DITS-G, so global routing never goes
//! stale.  The collapse machinery leaves the orphaned arena slots in place
//! (the arena never shrinks, like the split path never reuses slots):
//! orphans are unreachable from the root and cost two empty slots per
//! collapse for as long as the index lives; only a build from scratch (a
//! source restarted from its data file) starts without them.

use crate::inverted::InvertedIndex;
use crate::local::{geometry_of, inverted_of, split_at_median, DitsLocal, NodeIdx, NodeKind};
use crate::node::DatasetNode;
use crate::stats::MaintenanceStats;
use spatial::DatasetId;

impl DitsLocal {
    /// Inserts a new dataset node into the index.
    ///
    /// Returns `false` (and leaves the index untouched) when a dataset with
    /// the same id is already present.
    pub fn insert(&mut self, dataset: DatasetNode) -> bool {
        self.insert_with_stats(dataset, &mut MaintenanceStats::new())
    }

    /// [`insert`](Self::insert), recording structural work into `stats`.
    pub fn insert_with_stats(
        &mut self,
        dataset: DatasetNode,
        stats: &mut MaintenanceStats,
    ) -> bool {
        if self.find_dataset(dataset.id).is_some() {
            return false;
        }
        self.insert_unchecked(dataset, stats);
        stats.inserts += 1;
        true
    }

    /// Inserts a dataset known to be absent: descend, append, split on
    /// overflow, refresh ancestors.
    fn insert_unchecked(&mut self, dataset: DatasetNode, stats: &mut MaintenanceStats) {
        let leaf = self.descend_to_closest_leaf(dataset.pivot());
        let capacity = self.config().leaf_capacity;
        let needs_split;
        {
            let node = self.node_mut(leaf);
            if let NodeKind::Leaf { entries, inverted } = &mut node.kind {
                entries.push(dataset);
                node.geometry = geometry_of(entries);
                needs_split = entries.len() > capacity;
                // An over-full leaf is about to be split into fresh leaves.
                if !needs_split {
                    *inverted = inverted_of(entries);
                }
            } else {
                unreachable!("descend_to_closest_leaf returned a non-leaf");
            }
        }
        if needs_split {
            self.split_leaf(leaf);
            stats.leaf_splits += 1;
        }
        self.refresh_ancestors(leaf);
        self.set_dataset_count(self.dataset_count() + 1);
    }

    /// Replaces the dataset with id `dataset.id` by the new content.
    ///
    /// When the new pivot stays inside the holding leaf's MBR the entry is
    /// replaced in place; otherwise the stale placement would loosen every
    /// descend-based lookup, so the entry is deleted and re-inserted along
    /// the normal closest-pivot descent.
    ///
    /// Returns `false` when no dataset with that id exists.
    pub fn update(&mut self, dataset: DatasetNode) -> bool {
        self.update_with_stats(dataset, &mut MaintenanceStats::new())
    }

    /// [`update`](Self::update), recording structural work into `stats`.
    pub fn update_with_stats(
        &mut self,
        dataset: DatasetNode,
        stats: &mut MaintenanceStats,
    ) -> bool {
        let Some((leaf, _)) = self.find_dataset(dataset.id) else {
            return false;
        };
        let pivot = dataset.pivot();
        if self.node(leaf).geometry.rect.contains_point(&pivot) {
            // In-place replacement: the relocated dataset still belongs to
            // this leaf's region.
            {
                let node = self.node_mut(leaf);
                if let NodeKind::Leaf { entries, inverted } = &mut node.kind {
                    if let Some(slot) = entries.iter_mut().find(|e| e.id == dataset.id) {
                        *slot = dataset;
                        *inverted = inverted_of(entries);
                        node.geometry = geometry_of(entries);
                    }
                }
            }
            self.refresh_ancestors(leaf);
        } else {
            // The dataset moved out of the leaf's region: delete + reinsert
            // so the tree's geometry stays tight around actual placements.
            let removed = self.remove_entry(dataset.id, stats);
            debug_assert!(removed, "find_dataset found the id an instant ago");
            self.insert_unchecked(dataset, stats);
            stats.reinserts += 1;
        }
        stats.updates += 1;
        true
    }

    /// Removes the dataset with the given id.
    ///
    /// Returns `false` when no dataset with that id exists.
    pub fn delete(&mut self, id: DatasetId) -> bool {
        self.delete_with_stats(id, &mut MaintenanceStats::new())
    }

    /// [`delete`](Self::delete), recording structural work into `stats`.
    pub fn delete_with_stats(&mut self, id: DatasetId, stats: &mut MaintenanceStats) -> bool {
        if self.remove_entry(id, stats) {
            stats.deletes += 1;
            true
        } else {
            false
        }
    }

    /// Removes one dataset from its leaf, collapsing the leaf into its
    /// sibling when the removal empties it, and refreshes ancestor geometry.
    /// Decrements the dataset count.  Returns `false` when the id is absent.
    fn remove_entry(&mut self, id: DatasetId, stats: &mut MaintenanceStats) -> bool {
        let Some((leaf, _)) = self.find_dataset(id) else {
            return false;
        };
        let now_empty;
        {
            let node = self.node_mut(leaf);
            if let NodeKind::Leaf { entries, inverted } = &mut node.kind {
                let pos = entries
                    .iter()
                    .position(|e| e.id == id)
                    .expect("find_dataset located this leaf");
                entries.remove(pos);
                *inverted = inverted_of(entries);
                node.geometry = geometry_of(entries);
                now_empty = entries.is_empty();
            } else {
                unreachable!("find_dataset returned a non-leaf");
            }
        }
        let refresh_from = if now_empty && self.node(leaf).parent.is_some() {
            let parent = self.collapse_empty_leaf(leaf);
            stats.leaf_collapses += 1;
            parent
        } else {
            // Either the leaf still holds entries, or it is the root: an
            // empty root leaf is the canonical empty index.
            leaf
        };
        self.refresh_ancestors(refresh_from);
        self.set_dataset_count(self.dataset_count() - 1);
        true
    }

    /// Collapses an emptied leaf by replacing its parent with the sibling
    /// subtree (the parent's arena slot is reused so grandparent child
    /// pointers stay valid; the two vacated slots become unreachable
    /// orphans).  Returns the parent's arena index, where the sibling's
    /// content now lives.
    fn collapse_empty_leaf(&mut self, leaf: NodeIdx) -> NodeIdx {
        let parent = self.node(leaf).parent.expect("collapse needs a parent");
        let sibling = match self.node(parent).kind {
            NodeKind::Internal { left, right } => {
                if left == leaf {
                    right
                } else {
                    left
                }
            }
            NodeKind::Leaf { .. } => unreachable!("a leaf's parent is internal"),
        };
        // Hoist the sibling's content into the parent slot, leaving an empty
        // orphan leaf behind in the sibling slot.
        let sibling_geometry = self.node(sibling).geometry;
        let sibling_kind = std::mem::replace(
            &mut self.node_mut(sibling).kind,
            NodeKind::Leaf {
                entries: Vec::new(),
                inverted: InvertedIndex::new(),
            },
        );
        if let NodeKind::Internal { left, right } = sibling_kind {
            self.node_mut(left).parent = Some(parent);
            self.node_mut(right).parent = Some(parent);
        }
        let node = self.node_mut(parent);
        node.geometry = sibling_geometry;
        node.kind = sibling_kind;
        parent
    }

    /// Walks from the root to the leaf whose pivot is closest to `pivot`
    /// (the insertion strategy of Appendix IX-C).
    fn descend_to_closest_leaf(&self, pivot: spatial::Point) -> NodeIdx {
        let mut idx = self.root();
        loop {
            match &self.node(idx).kind {
                NodeKind::Leaf { .. } => return idx,
                NodeKind::Internal { left, right } => {
                    let dl = self.node(*left).geometry.pivot.distance(&pivot);
                    let dr = self.node(*right).geometry.pivot.distance(&pivot);
                    idx = if dl <= dr { *left } else { *right };
                }
            }
        }
    }

    /// Splits an over-full leaf into a small subtree built with Algorithm 1,
    /// replacing the leaf in place so the parent pointers stay valid.
    fn split_leaf(&mut self, leaf: NodeIdx) {
        let entries = {
            let node = self.node_mut(leaf);
            match &mut node.kind {
                NodeKind::Leaf { entries, inverted } => {
                    *inverted = InvertedIndex::new();
                    std::mem::take(entries)
                }
                NodeKind::Internal { .. } => return,
            }
        };
        // Rebuild the subtree for these entries; its root replaces the leaf.
        let geometry = geometry_of(&entries);
        let (left_entries, right_entries) = split_at_median(entries, &geometry.rect);
        let left = self.build_subtree(left_entries, Some(leaf));
        let right = self.build_subtree(right_entries, Some(leaf));
        let node = self.node_mut(leaf);
        node.geometry = geometry;
        node.kind = NodeKind::Internal { left, right };
    }

    /// Recomputes the geometry of every ancestor of `idx` from its children,
    /// walking the parent pointers upwards.
    fn refresh_ancestors(&mut self, idx: NodeIdx) {
        let mut current = self.node(idx).parent;
        while let Some(parent) = current {
            let geometry = match &self.node(parent).kind {
                NodeKind::Internal { left, right } => {
                    self.node(*left).geometry.union(&self.node(*right).geometry)
                }
                NodeKind::Leaf { .. } => self.node(parent).geometry,
            };
            self.node_mut(parent).geometry = geometry;
            current = self.node(parent).parent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::{coverage_search, CoverageConfig};
    use crate::knn::nearest_datasets;
    use crate::local::DitsLocalConfig;
    use crate::overlap::{overlap_search, overlap_search_bruteforce};
    use crate::sketch::blocks_of;
    use crate::ReplayOnPanic;
    use proptest::prelude::*;
    use spatial::zorder::cell_id;
    use spatial::CellSet;

    fn node(id: DatasetId, coords: &[(u32, u32)]) -> DatasetNode {
        DatasetNode::from_cell_set(
            id,
            CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y))),
        )
        .unwrap()
    }

    fn block(id: u32) -> DatasetNode {
        let x = (id * 3) % 90;
        let y = (id * 7) % 90;
        node(id, &[(x, y), (x + 1, y), (x, y + 1)])
    }

    #[test]
    fn insert_into_empty_index() {
        let mut idx = DitsLocal::build(Vec::new(), DitsLocalConfig { leaf_capacity: 2 });
        assert!(idx.insert(block(0)));
        assert!(idx.insert(block(1)));
        assert!(idx.insert(block(2))); // forces a split
        assert_eq!(idx.dataset_count(), 3);
        assert!(idx.check_invariants().is_ok());
        assert!(idx.find_dataset(2).is_some());
    }

    /// One insert into a full single-leaf index splits it into the tree
    /// Algorithm 1 builds over the same entries in the same order: both run
    /// the one median split.
    #[test]
    fn splitting_a_full_leaf_builds_the_scratch_tree() {
        // Pivots ranked differently along x and y, spread wider along x at
        // some capacities and along y at others: a split on another axis or
        // at another rank builds another tree.
        let scattered = |id: u32| {
            let (x, y) = ((id * 37) % 90, (id * 53) % 90);
            node(id, &[(x, y), (x + 1, y), (x, y + 1)])
        };
        for capacity in [1, 2, 3, 5, 10] {
            let config = DitsLocalConfig {
                leaf_capacity: capacity,
            };
            let entries: Vec<DatasetNode> = (0..=capacity as u32).map(scattered).collect();
            let mut idx = DitsLocal::build(entries[..capacity].to_vec(), config);
            assert!(matches!(idx.node(idx.root()).kind, NodeKind::Leaf { .. }));
            assert!(idx.insert(entries[capacity].clone()));
            assert!(matches!(
                idx.node(idx.root()).kind,
                NodeKind::Internal { .. }
            ));
            assert_eq!(
                idx,
                DitsLocal::build(entries, config),
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut idx = DitsLocal::build(vec![block(5)], DitsLocalConfig::default());
        assert!(!idx.insert(block(5)));
        assert_eq!(idx.dataset_count(), 1);
    }

    #[test]
    fn inserted_datasets_are_searchable() {
        let mut idx = DitsLocal::build(
            (0..20).map(block).collect(),
            DitsLocalConfig { leaf_capacity: 4 },
        );
        let new = node(100, &[(40, 40), (41, 40), (42, 40)]);
        assert!(idx.insert(new.clone()));
        let query = CellSet::from_cells([cell_id(40, 40), cell_id(41, 40), cell_id(42, 40)]);
        let (results, _) = overlap_search(&idx, &query, 1);
        assert_eq!(results[0].dataset, 100);
        assert_eq!(results[0].overlap, 3);
        assert!(idx.check_invariants().is_ok());
    }

    #[test]
    fn update_changes_search_results() {
        let mut idx = DitsLocal::build(
            (0..10).map(block).collect(),
            DitsLocalConfig { leaf_capacity: 3 },
        );
        // Move dataset 4 to a far-away location.
        let moved = node(4, &[(200, 200), (201, 200)]);
        assert!(idx.update(moved));
        assert!(idx.check_invariants().is_ok());
        let query = CellSet::from_cells([cell_id(200, 200)]);
        let (results, _) = overlap_search(&idx, &query, 1);
        assert_eq!(results[0].dataset, 4);
        // Updating an unknown id fails.
        assert!(!idx.update(node(999, &[(1, 1)])));
    }

    #[test]
    fn delete_removes_from_results() {
        let mut idx = DitsLocal::build(
            (0..10).map(block).collect(),
            DitsLocalConfig { leaf_capacity: 3 },
        );
        assert!(idx.delete(3));
        assert!(!idx.delete(3));
        assert_eq!(idx.dataset_count(), 9);
        assert!(idx.check_invariants().is_ok());
        assert!(idx.find_dataset(3).is_none());
        let d3 = block(3);
        let (results, _) = overlap_search(&idx, &d3.cells, 10);
        assert!(results.iter().all(|r| r.dataset != 3));
    }

    #[test]
    fn batch_inserts_keep_search_exact() {
        let mut idx = DitsLocal::build(
            (0..30).map(block).collect(),
            DitsLocalConfig { leaf_capacity: 5 },
        );
        for i in 30..130u32 {
            assert!(idx.insert(block(i)));
        }
        assert_eq!(idx.dataset_count(), 130);
        assert!(idx.check_invariants().is_ok());
        let all: Vec<DatasetNode> = (0..130).map(block).collect();
        let query = CellSet::from_cells([cell_id(30, 70), cell_id(31, 70), cell_id(30, 71)]);
        let (fast, _) = overlap_search(&idx, &query, 10);
        let brute = overlap_search_bruteforce(&all, &query, 10);
        assert_eq!(
            fast.iter().map(|r| r.overlap).collect::<Vec<_>>(),
            brute.iter().map(|r| r.overlap).collect::<Vec<_>>()
        );
    }

    /// One maintenance history fully determined by `case_seed`: a scratch
    /// build, a burst of same-spot inserts (at least one split), random
    /// inserts, updates and deletes, then one leaf deleted empty (a collapse,
    /// orphaning arena slots).  The maintained tree must answer like the
    /// scratch build over its survivors.
    fn run_maintained_case(case_seed: u64) {
        let _replay = ReplayOnPanic("run_maintained_case", case_seed);
        let mut rng = TestRng::from_name(&format!("maintained-{case_seed}"));
        let shape = || proptest::collection::vec((0u32..48, 0u32..48), 1..8);
        let config = DitsLocalConfig {
            leaf_capacity: (1usize..6).generate(&mut rng),
        };
        // At most 11 deletes against at least 22 datasets: never a single leaf.
        let initial = proptest::collection::vec(shape(), 20..40).generate(&mut rng);
        let ops =
            proptest::collection::vec((0u8..3, any::<u16>(), shape()), 0..12).generate(&mut rng);
        let queries = proptest::collection::vec(shape(), 6..7).generate(&mut rng);

        let mut next_id = initial.len() as DatasetId;
        let mut maintained = DitsLocal::build(
            initial
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect(),
            config,
        );
        let mut stats = MaintenanceStats::new();
        for _ in 0..=config.leaf_capacity {
            assert!(maintained.insert_with_stats(node(next_id, &[(20, 20), (21, 20)]), &mut stats));
            next_id += 1;
        }
        for (kind, pick, coords) in ops {
            let live: Vec<DatasetId> = maintained.dataset_nodes().iter().map(|d| d.id).collect();
            let target = live[usize::from(pick) % live.len()];
            match kind {
                0 => {
                    assert!(maintained.insert_with_stats(node(next_id, &coords), &mut stats));
                    next_id += 1;
                }
                1 => assert!(maintained.update_with_stats(node(target, &coords), &mut stats)),
                _ => assert!(maintained.delete_with_stats(target, &mut stats)),
            }
        }
        let live: Vec<DatasetId> = maintained.dataset_nodes().iter().map(|d| d.id).collect();
        let leaf_of = |id: DatasetId| maintained.find_dataset(id).map(|(leaf, _)| leaf);
        let doomed: Vec<DatasetId> = live
            .iter()
            .copied()
            .filter(|&id| leaf_of(id) == leaf_of(live[0]))
            .collect();
        for id in doomed {
            assert!(maintained.delete_with_stats(id, &mut stats));
        }
        assert!(
            stats.leaf_splits > 0 && stats.leaf_collapses > 0,
            "{stats:?}"
        );
        assert!(maintained.traversal_layout().len() < maintained.node_count());
        assert_eq!(maintained.check_invariants(), Ok(()));

        let mut survivors: Vec<DatasetNode> =
            maintained.dataset_nodes().into_iter().cloned().collect();
        survivors.sort_unstable_by_key(|d| d.id);
        let scratch = DitsLocal::build(survivors, config);
        // No orphan in a scratch build.
        assert_eq!(scratch.traversal_layout().len(), scratch.node_count());
        // The sketch read off the reachable leaves' keys is the blocks of every
        // live dataset's cells, after a bulk build and after splits and
        // collapses.
        for index in [&maintained, &scratch] {
            let cells = blocks_of(index.dataset_nodes().into_iter().map(|n| n.cells.packed()));
            assert_eq!(index.sketch(), cells);
        }

        let everything = maintained.dataset_count();
        for q in queries
            .iter()
            .map(|c| CellSet::from_cells(c.iter().map(|&(x, y)| cell_id(x, y))))
        {
            // OJSP breaks a tie at the k-th overlap by leaf order, so ids are
            // compared where nothing is cut and overlaps where something is.
            assert_eq!(
                overlap_search(&maintained, &q, everything).0,
                overlap_search(&scratch, &q, everything).0
            );
            let overlaps = |index: &DitsLocal| -> Vec<usize> {
                let (top, _) = overlap_search(index, &q, 3);
                top.iter().map(|r| r.overlap).collect()
            };
            assert_eq!(overlaps(&maintained), overlaps(&scratch));
            let cover = CoverageConfig::new(4, 6.0);
            assert_eq!(
                coverage_search(&maintained, &q, cover).0,
                coverage_search(&scratch, &q, cover).0
            );
            assert_eq!(
                nearest_datasets(&maintained, &q, 5).0,
                nearest_datasets(&scratch, &q, 5).0
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_maintained_tree_answers_like_the_scratch_build_of_its_survivors(
            case_seed in any::<u64>(),
        ) {
            run_maintained_case(case_seed);
        }

        #[test]
        fn prop_mixed_updates_preserve_invariants(
            initial in 0usize..30,
            ops in proptest::collection::vec((0u8..3, 0u32..60), 1..60),
            capacity in 1usize..6,
        ) {
            let mut idx = DitsLocal::build(
                (0..initial as u32).map(block).collect(),
                DitsLocalConfig { leaf_capacity: capacity },
            );
            let mut live: std::collections::HashSet<u32> =
                (0..initial as u32).collect();
            for (op, id) in ops {
                match op {
                    0 => {
                        let inserted = idx.insert(block(id));
                        prop_assert_eq!(inserted, !live.contains(&id));
                        live.insert(id);
                    }
                    1 => {
                        let updated = idx.update(block(id));
                        prop_assert_eq!(updated, live.contains(&id));
                    }
                    _ => {
                        let deleted = idx.delete(id);
                        prop_assert_eq!(deleted, live.contains(&id));
                        live.remove(&id);
                    }
                }
            }
            prop_assert_eq!(idx.dataset_count(), live.len());
            prop_assert!(idx.check_invariants().is_ok(), "{:?}", idx.check_invariants());
        }
    }
}
