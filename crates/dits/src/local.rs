//! DITS-L: the per-data-source local index (Section V-A, Algorithm 1).
//!
//! The local index is a binary ball-tree-like structure over *dataset nodes*
//! built top-down: the widest dimension of the current node's MBR is chosen
//! as the split dimension, dataset nodes are partitioned by the median of
//! their pivots on that dimension, and the recursion stops when a node holds
//! at most `f` (the leaf capacity) dataset nodes, at which point an inverted
//! index over the contained datasets' cells is materialised: three columns
//! (sorted distinct cells, offsets, dataset ids) merged from the entries'
//! sorted cell sets and rebuilt, never patched, when the entries change —
//! see [`crate::inverted`].
//!
//! The tree is stored as an arena of [`TreeNode`]s with parent indices, the
//! "bidirectional pointer structure" the paper relies on for efficient
//! updates (Appendix IX-C, implemented in [`crate::update`]).

use crate::inverted::InvertedIndex;
use crate::node::{DatasetNode, NodeGeometry};
use crate::sketch::blocks_of;
use serde::{Deserialize, Serialize};
use spatial::{CellSet, DatasetId, Mbr};
use std::sync::OnceLock;

/// Index of a node inside the arena.
pub type NodeIdx = usize;

/// Configuration of a local index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DitsLocalConfig {
    /// Leaf-node capacity `f` (Definition 14). Paper default: 10.
    pub leaf_capacity: usize,
}

impl Default for DitsLocalConfig {
    fn default() -> Self {
        Self { leaf_capacity: 10 }
    }
}

/// Content of a tree node: either an internal node with two children or a
/// leaf holding dataset nodes plus their inverted index.
// The Leaf variant is large (the inverted index's key column is an inline
// `CellSet` with its two cache slots), but boxing it would put a pointer
// chase on the verification hot path, and internal nodes' hot traversal
// fields already live in the separate SoA `TraversalLayout` — the arena
// slack is idle memory, not touched per query.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Internal node (Definition 13).
    Internal {
        /// Left child index.
        left: NodeIdx,
        /// Right child index.
        right: NodeIdx,
    },
    /// Leaf node (Definition 14).
    Leaf {
        /// The dataset nodes stored in this leaf (`ch`).
        entries: Vec<DatasetNode>,
        /// Inverted index over the entries' cells (`inv`).
        inverted: InvertedIndex,
    },
}

/// One node of the local index arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeNode {
    /// Geometry (MBR, pivot, radius) of everything below this node.
    pub geometry: NodeGeometry,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeIdx>,
    /// Node content.
    pub kind: NodeKind,
}

/// The DITS-L local index of one data source.
///
/// The structure-of-arrays [`TraversalLayout`] of the reachable tree is
/// cached lazily (same `OnceLock` pattern as the packed cells of `CellSet`)
/// and dropped by every arena mutation, so queries between maintenance
/// operations share one layout build.
///
/// Two indexes are equal when they are the same *tree* — arena, root,
/// configuration and dataset count, slots orphaned by maintenance included —
/// not merely indexes over the same datasets: a maintained index and the
/// scratch build over its survivors usually differ.  Tests use this as their
/// structural identity oracle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DitsLocal {
    nodes: Vec<TreeNode>,
    root: NodeIdx,
    config: DitsLocalConfig,
    dataset_count: usize,
    layout: OnceLock<TraversalLayout>,
}

/// Ignores the `layout` cache, as `CellSet` equality ignores its caches.
impl PartialEq for DitsLocal {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.root == other.root
            && self.config == other.config
            && self.dataset_count == other.dataset_count
    }
}

impl DitsLocal {
    /// Builds the local index over a list of dataset nodes (Algorithm 1).
    ///
    /// An empty input produces a valid index with an empty root leaf.
    pub fn build(dataset_nodes: Vec<DatasetNode>, config: DitsLocalConfig) -> Self {
        let capacity = config.leaf_capacity.max(1);
        let config = DitsLocalConfig {
            leaf_capacity: capacity,
        };
        let dataset_count = dataset_nodes.len();
        let mut index = Self {
            nodes: Vec::new(),
            root: 0,
            config,
            dataset_count,
            layout: OnceLock::new(),
        };
        index.root = index.build_subtree(dataset_nodes, None);
        index
    }

    /// Recursively builds the subtree for `entries` and returns its arena
    /// index. `parent` is patched into the created node.
    pub(crate) fn build_subtree(
        &mut self,
        entries: Vec<DatasetNode>,
        parent: Option<NodeIdx>,
    ) -> NodeIdx {
        let geometry = geometry_of(&entries);
        if entries.len() <= self.config.leaf_capacity {
            let inverted = inverted_of(&entries);
            return self.push_node(TreeNode {
                geometry,
                parent,
                kind: NodeKind::Leaf { entries, inverted },
            });
        }

        let (left_entries, right_entries) = split_at_median(entries, &geometry.rect);
        let idx = self.push_node(TreeNode {
            geometry,
            parent,
            kind: NodeKind::Internal { left: 0, right: 0 },
        });
        let left = self.build_subtree(left_entries, Some(idx));
        let right = self.build_subtree(right_entries, Some(idx));
        if let NodeKind::Internal { left: l, right: r } = &mut self.nodes[idx].kind {
            *l = left;
            *r = right;
        }
        idx
    }

    pub(crate) fn push_node(&mut self, node: TreeNode) -> NodeIdx {
        self.layout.take();
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// The root node's arena index.
    pub fn root(&self) -> NodeIdx {
        self.root
    }

    /// Access a node by arena index.
    pub fn node(&self, idx: NodeIdx) -> &TreeNode {
        &self.nodes[idx]
    }

    pub(crate) fn node_mut(&mut self, idx: NodeIdx) -> &mut TreeNode {
        // Every maintenance path (insert/update/delete, splits, collapses)
        // funnels its arena writes through here, so dropping the cached
        // layout at this chokepoint keeps it from ever going stale.
        self.layout.take();
        &mut self.nodes[idx]
    }

    /// Number of nodes in the arena (including nodes orphaned by updates).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of datasets currently indexed.
    pub fn dataset_count(&self) -> usize {
        self.dataset_count
    }

    pub(crate) fn set_dataset_count(&mut self, count: usize) {
        self.dataset_count = count;
    }

    /// The configuration used to build the index.
    pub fn config(&self) -> DitsLocalConfig {
        self.config
    }

    /// Geometry of the root node (sent to the data center to build DITS-G).
    pub fn root_geometry(&self) -> NodeGeometry {
        self.nodes[self.root].geometry
    }

    /// The [block sketch](crate::sketch) of the indexed datasets — the
    /// 8×8-cell blocks they touch, sent to the data center beside the root
    /// geometry — computed from the datasets on every call.
    pub fn sketch(&self) -> CellSet {
        blocks_of(self.dataset_nodes().into_iter().map(|n| &n.cells))
    }

    /// Iterates over all leaf arena indices reachable from the root.
    pub fn leaves(&self) -> Vec<NodeIdx> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            match &self.nodes[idx].kind {
                NodeKind::Leaf { .. } => out.push(idx),
                NodeKind::Internal { left, right } => {
                    stack.push(*left);
                    stack.push(*right);
                }
            }
        }
        out
    }

    /// Iterates over every dataset node reachable from the root.
    pub fn dataset_nodes(&self) -> Vec<&DatasetNode> {
        let mut out = Vec::new();
        for leaf in self.leaves() {
            if let NodeKind::Leaf { entries, .. } = &self.nodes[leaf].kind {
                out.extend(entries.iter());
            }
        }
        out
    }

    /// Finds the dataset node with the given id, returning the leaf holding
    /// it plus a reference.
    pub fn find_dataset(&self, id: DatasetId) -> Option<(NodeIdx, &DatasetNode)> {
        for leaf in self.leaves() {
            if let NodeKind::Leaf { entries, .. } = &self.nodes[leaf].kind {
                if let Some(node) = entries.iter().find(|n| n.id == id) {
                    return Some((leaf, node));
                }
            }
        }
        None
    }

    /// Height of the tree (a single leaf has height 1).
    pub fn height(&self) -> usize {
        fn depth(nodes: &[TreeNode], idx: NodeIdx) -> usize {
            match &nodes[idx].kind {
                NodeKind::Leaf { .. } => 1,
                NodeKind::Internal { left, right } => {
                    1 + depth(nodes, *left).max(depth(nodes, *right))
                }
            }
        }
        depth(&self.nodes, self.root)
    }

    /// Estimated memory footprint of the index in bytes: tree nodes, dataset
    /// nodes (cell sets) and leaf inverted indexes.  Used for the Fig. 8
    /// memory comparison.
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.nodes.capacity() * std::mem::size_of::<TreeNode>();
        for node in &self.nodes {
            if let NodeKind::Leaf { entries, inverted } = &node.kind {
                bytes += entries.iter().map(|e| e.memory_bytes()).sum::<usize>();
                bytes += inverted.memory_bytes();
            }
        }
        bytes + self.layout.get().map_or(0, TraversalLayout::memory_bytes)
    }

    /// Checks the structural invariants of the tree; used by tests and by the
    /// update module after mutations.  Returns a description of the first
    /// violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen: Vec<DatasetId> = Vec::new();
        self.check_node(self.root, None, &mut seen)?;
        if seen.len() != self.dataset_count {
            return Err(format!(
                "dataset_count {} does not match reachable datasets {}",
                self.dataset_count,
                seen.len()
            ));
        }
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != self.dataset_count {
            return Err("duplicate dataset ids in the tree".to_string());
        }
        Ok(())
    }

    fn check_node(
        &self,
        idx: NodeIdx,
        parent: Option<NodeIdx>,
        seen: &mut Vec<DatasetId>,
    ) -> Result<(), String> {
        let node = self
            .nodes
            .get(idx)
            .ok_or_else(|| format!("node index {idx} is outside the arena"))?;
        if node.parent != parent {
            return Err(format!("node {idx} has wrong parent pointer"));
        }
        match &node.kind {
            NodeKind::Leaf { entries, inverted } => {
                // An emptied leaf must be collapsed into its sibling by the
                // delete path; if one survives anywhere below the root, its
                // fabricated degenerate MBR would be unioned into every
                // ancestor and corrupt the pruning bounds.
                if entries.is_empty() && parent.is_some() {
                    return Err(format!(
                        "leaf {idx} is empty but not the root (degenerate geometry leak)"
                    ));
                }
                // The whole geometry, not the MBR alone: Lemma 4 prunes on
                // pivot and radius.
                if node.geometry != geometry_of(entries) {
                    return Err(format!("leaf {idx} geometry is stale or loose"));
                }
                for e in entries {
                    if !node.geometry.rect.contains(e.rect()) {
                        return Err(format!("leaf {idx} MBR does not contain dataset {}", e.id));
                    }
                    seen.push(e.id);
                    for cell in e.cells.iter() {
                        match inverted.posting_list(cell) {
                            Some(list) if list.contains(&e.id) => {}
                            _ => {
                                return Err(format!(
                                    "leaf {idx} inverted index misses cell {cell} of dataset {}",
                                    e.id
                                ))
                            }
                        }
                    }
                }
                Ok(())
            }
            NodeKind::Internal { left, right } => {
                let child_geometry = |child: NodeIdx| {
                    self.nodes.get(child).map(|n| n.geometry).ok_or_else(|| {
                        format!("internal {idx} has child {child} outside the arena")
                    })
                };
                let union = child_geometry(*left)?.union(&child_geometry(*right)?);
                if node.geometry != union {
                    return Err(format!(
                        "internal {idx} geometry is not the exact union of its children"
                    ));
                }
                for child in [*left, *right] {
                    self.check_node(child, Some(idx), seen)?;
                }
                Ok(())
            }
        }
    }
}

/// Cache-conscious structure-of-arrays arena of the reachable tree, used by
/// every traversal (per-query and batch): node geometries (MBR, pivot,
/// radius), child pairs and leaf entry ranges live in parallel contiguous
/// arrays, and the leaf entries' geometries and ids are flattened into two
/// more, so descent and per-entry bound checks stride over tightly packed
/// cache lines instead of full [`TreeNode`]s (whose leaf payloads — cell
/// sets and inverted indexes — are dead weight until verification).
///
/// Nodes are renumbered in DFS preorder (left subtree first), so an internal
/// node's left child is always the next array slot — the descent direction
/// taken first is the prefetch-friendly one — and arena slots orphaned by
/// leaf collapses are excluded entirely.  [`Self::arena_index`] maps a
/// layout index back to the arena slot holding the node's payload.
///
/// The layout is cached inside [`DitsLocal`] and invalidated by every
/// maintenance mutation; obtain it with [`DitsLocal::traversal_layout`].
#[derive(Debug, Clone, Default)]
pub struct TraversalLayout {
    arena: Vec<NodeIdx>,
    geometries: Vec<NodeGeometry>,
    children: Vec<[NodeIdx; 2]>,
    entry_ranges: Vec<(u32, u32)>,
    entry_geometries: Vec<NodeGeometry>,
    entry_ids: Vec<DatasetId>,
}

/// Sentinel child index marking a leaf in [`TraversalLayout`].
const NO_CHILD: NodeIdx = NodeIdx::MAX;

impl TraversalLayout {
    /// Layout index of the tree root (the DFS starts there).
    pub fn root(&self) -> NodeIdx {
        0
    }

    /// Geometry of layout node `idx`.
    pub fn geometry(&self, idx: NodeIdx) -> &NodeGeometry {
        &self.geometries[idx]
    }

    /// MBR of layout node `idx`.
    pub fn rect(&self, idx: NodeIdx) -> &Mbr {
        &self.geometries[idx].rect
    }

    /// Children of layout node `idx` (layout indices), or `None` for a leaf.
    pub fn children(&self, idx: NodeIdx) -> Option<(NodeIdx, NodeIdx)> {
        let [left, right] = self.children[idx];
        (left != NO_CHILD).then_some((left, right))
    }

    /// Arena slot holding the payload of layout node `idx`.
    pub fn arena_index(&self, idx: NodeIdx) -> NodeIdx {
        self.arena[idx]
    }

    /// Range of layout node `idx`'s leaf entries in the flat entry arrays
    /// (empty for internal nodes).
    pub fn entry_range(&self, idx: NodeIdx) -> std::ops::Range<usize> {
        let (start, end) = self.entry_ranges[idx];
        start as usize..end as usize
    }

    /// Geometry of flat entry `i` (index into an [`Self::entry_range`]).
    pub fn entry_geometry(&self, i: usize) -> &NodeGeometry {
        &self.entry_geometries[i]
    }

    /// Dataset id of flat entry `i` (index into an [`Self::entry_range`]).
    pub fn entry_id(&self, i: usize) -> DatasetId {
        self.entry_ids[i]
    }

    /// Number of reachable nodes covered by the layout.
    pub fn len(&self) -> usize {
        self.geometries.len()
    }

    /// Whether the layout covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.geometries.is_empty()
    }

    /// Heap bytes held by the layout arrays (counted by
    /// [`DitsLocal::memory_bytes`] once the cache is built).
    pub fn memory_bytes(&self) -> usize {
        self.arena.capacity() * std::mem::size_of::<NodeIdx>()
            + self.geometries.capacity() * std::mem::size_of::<NodeGeometry>()
            + self.children.capacity() * std::mem::size_of::<[NodeIdx; 2]>()
            + self.entry_ranges.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.entry_geometries.capacity() * std::mem::size_of::<NodeGeometry>()
            + self.entry_ids.capacity() * std::mem::size_of::<DatasetId>()
    }
}

impl DitsLocal {
    /// The cached structure-of-arrays [`TraversalLayout`] of the reachable
    /// tree, building it on first use after a mutation.
    pub fn traversal_layout(&self) -> &TraversalLayout {
        self.layout.get_or_init(|| {
            let mut layout = TraversalLayout::default();
            self.layout_subtree(self.root, &mut layout);
            layout
        })
    }

    /// DFS-preorder (left first) flattening of the subtree at arena index
    /// `arena_idx`; returns the layout index assigned to it.
    fn layout_subtree(&self, arena_idx: NodeIdx, out: &mut TraversalLayout) -> NodeIdx {
        let node = &self.nodes[arena_idx];
        let idx = out.arena.len();
        out.arena.push(arena_idx);
        out.geometries.push(node.geometry);
        out.children.push([NO_CHILD; 2]);
        out.entry_ranges.push((0, 0));
        match &node.kind {
            NodeKind::Leaf { entries, .. } => {
                let start = out.entry_ids.len() as u32;
                for e in entries {
                    out.entry_ids.push(e.id);
                    out.entry_geometries.push(e.geometry);
                }
                out.entry_ranges[idx] = (start, out.entry_ids.len() as u32);
            }
            NodeKind::Internal { left, right } => {
                let l = self.layout_subtree(*left, out);
                let r = self.layout_subtree(*right, out);
                out.children[idx] = [l, r];
            }
        }
        idx
    }
}

/// The inverted index of a leaf's entries: the one constructor behind every
/// leaf (construction and maintenance).
pub(crate) fn inverted_of(entries: &[DatasetNode]) -> InvertedIndex {
    InvertedIndex::build(entries.iter().map(|e| (e.id, &e.cells)))
}

/// Geometry of a set of dataset nodes (an empty set gets a degenerate MBR at
/// the origin).
pub(crate) fn geometry_of(entries: &[DatasetNode]) -> NodeGeometry {
    let mut rect: Option<Mbr> = None;
    for e in entries {
        rect = Some(match rect {
            Some(r) => r.union(e.rect()),
            None => *e.rect(),
        });
    }
    NodeGeometry::from_mbr(
        rect.unwrap_or_else(|| {
            Mbr::new(spatial::Point::new(0.0, 0.0), spatial::Point::new(0.0, 0.0))
        }),
    )
}

/// Algorithm 1's split of an over-full node's `entries`, whose MBR is
/// `rect`: on the axis of `rect`'s wider side, the entries are partitioned
/// at the median pivot into a left and a right half.  The median
/// (`select_nth_unstable`) rather than the node pivot guarantees both halves
/// are non-empty, so construction is O(n log n) and always terminates even
/// for heavily skewed data.
pub(crate) fn split_at_median(
    mut entries: Vec<DatasetNode>,
    rect: &Mbr,
) -> (Vec<DatasetNode>, Vec<DatasetNode>) {
    let coord: fn(&DatasetNode) -> f64 = if rect.width() >= rect.height() {
        |node| node.pivot().x
    } else {
        |node| node.pivot().y
    };
    let mid = entries.len() / 2;
    entries.select_nth_unstable_by(mid, |a, b| coord(a).total_cmp(&coord(b)));
    let right = entries.split_off(mid);
    (entries, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spatial::zorder::cell_id;
    use spatial::CellSet;

    pub(crate) fn make_node(id: DatasetId, coords: &[(u32, u32)]) -> DatasetNode {
        DatasetNode::from_cell_set(
            id,
            CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y))),
        )
        .unwrap()
    }

    fn grid_nodes(n: u32) -> Vec<DatasetNode> {
        // n datasets, dataset i occupies a 2x2 block around (4i mod 64, 4i/64).
        (0..n)
            .map(|i| {
                let bx = (i * 4) % 64;
                let by = ((i * 4) / 64) * 4;
                make_node(i, &[(bx, by), (bx + 1, by), (bx, by + 1), (bx + 1, by + 1)])
            })
            .collect()
    }

    #[test]
    fn empty_index_is_valid() {
        let idx = DitsLocal::build(Vec::new(), DitsLocalConfig::default());
        assert_eq!(idx.dataset_count(), 0);
        assert_eq!(idx.leaves().len(), 1);
        assert!(matches!(idx.node(idx.root()).kind, NodeKind::Leaf { .. }));
        assert!(idx.check_invariants().is_ok());
    }

    #[test]
    fn small_input_becomes_single_leaf() {
        let nodes = grid_nodes(5);
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 10 });
        assert_eq!(idx.leaves().len(), 1);
        assert_eq!(idx.height(), 1);
        assert_eq!(idx.dataset_count(), 5);
        assert!(idx.check_invariants().is_ok());
    }

    #[test]
    fn large_input_splits_until_capacity() {
        let nodes = grid_nodes(100);
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 8 });
        assert_eq!(idx.dataset_count(), 100);
        assert!(idx.check_invariants().is_ok());
        for leaf in idx.leaves() {
            if let NodeKind::Leaf { entries, .. } = &idx.node(leaf).kind {
                assert!(entries.len() <= 8);
                assert!(!entries.is_empty());
            }
        }
        // Balanced median splits: height is O(log n).
        assert!(idx.height() <= 6, "height {} too large", idx.height());
    }

    #[test]
    fn all_datasets_reachable() {
        let nodes = grid_nodes(37);
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 4 });
        let mut ids: Vec<DatasetId> = idx.dataset_nodes().iter().map(|n| n.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn find_dataset_locates_leaf() {
        let nodes = grid_nodes(30);
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 4 });
        let (leaf, node) = idx.find_dataset(17).unwrap();
        assert_eq!(node.id, 17);
        assert!(matches!(idx.node(leaf).kind, NodeKind::Leaf { .. }));
        assert!(idx.find_dataset(1000).is_none());
    }

    #[test]
    fn identical_pivots_still_terminate() {
        // All datasets identical: median split cannot separate by value but
        // select_nth still produces two non-empty halves.
        let nodes: Vec<DatasetNode> = (0..20).map(|i| make_node(i, &[(5, 5), (6, 6)])).collect();
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 3 });
        assert_eq!(idx.dataset_count(), 20);
        assert!(idx.check_invariants().is_ok());
    }

    #[test]
    fn root_geometry_covers_everything() {
        let nodes = grid_nodes(64);
        let idx = DitsLocal::build(nodes.clone(), DitsLocalConfig::default());
        let root = idx.root_geometry();
        for n in &nodes {
            assert!(root.rect.contains(n.rect()));
        }
    }

    #[test]
    fn memory_estimate_is_positive_and_grows() {
        let small = DitsLocal::build(grid_nodes(10), DitsLocalConfig::default());
        let large = DitsLocal::build(grid_nodes(200), DitsLocalConfig::default());
        assert!(small.memory_bytes() > 0);
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn traversal_layout_mirrors_the_arena() {
        let idx = DitsLocal::build(grid_nodes(50), DitsLocalConfig { leaf_capacity: 4 });
        let layout = idx.traversal_layout();
        // A freshly built tree has no orphans: every arena slot is reachable.
        assert_eq!(layout.len(), idx.node_count());
        assert!(!layout.is_empty());
        assert_eq!(layout.arena_index(layout.root()), idx.root());
        let mut seen_entries = 0usize;
        for i in 0..layout.len() {
            let node = idx.node(layout.arena_index(i));
            assert_eq!(layout.rect(i), &node.geometry.rect);
            assert_eq!(layout.geometry(i).pivot, node.geometry.pivot);
            match &node.kind {
                NodeKind::Internal { left, right } => {
                    let (l, r) = layout.children(i).expect("internal node has children");
                    // DFS preorder: the left child is the next slot.
                    assert_eq!(l, i + 1);
                    assert_eq!(layout.arena_index(l), *left);
                    assert_eq!(layout.arena_index(r), *right);
                    assert!(layout.entry_range(i).is_empty());
                }
                NodeKind::Leaf { entries, .. } => {
                    assert_eq!(layout.children(i), None);
                    let range = layout.entry_range(i);
                    assert_eq!(range.len(), entries.len());
                    for (j, e) in range.zip(entries.iter()) {
                        assert_eq!(layout.entry_id(j), e.id);
                        assert_eq!(layout.entry_geometry(j).rect, e.geometry.rect);
                        seen_entries += 1;
                    }
                }
            }
        }
        assert_eq!(seen_entries, idx.dataset_count());
    }

    #[test]
    fn traversal_layout_cache_invalidated_by_maintenance() {
        let mut idx = DitsLocal::build(grid_nodes(20), DitsLocalConfig { leaf_capacity: 4 });
        let before = idx.traversal_layout().len();
        assert!(idx.insert(make_node(100, &[(60, 60), (61, 61)])));
        let layout = idx.traversal_layout();
        // The rebuilt layout sees the new dataset.
        let flat_ids: Vec<DatasetId> = (0..layout.len())
            .flat_map(|i| layout.entry_range(i))
            .map(|j| layout.entry_id(j))
            .collect();
        assert!(flat_ids.contains(&100));
        assert_eq!(flat_ids.len(), idx.dataset_count());
        assert!(layout.len() >= before);
        // Deletions that collapse leaves leave orphaned arena slots behind;
        // the layout excludes them.
        assert!(idx.delete(100));
        assert!(idx.delete(0));
        let layout = idx.traversal_layout();
        assert!(layout.len() <= idx.node_count());
        assert!(idx.check_invariants().is_ok());
    }

    #[test]
    fn equality_is_tree_identity_not_dataset_identity() {
        let config = DitsLocalConfig { leaf_capacity: 4 };
        let scratch = DitsLocal::build(grid_nodes(40), config);
        // The same datasets, the last eight of them arriving by maintenance
        // (splitting leaves on the way).
        let mut maintained = DitsLocal::build(grid_nodes(32), config);
        for node in grid_nodes(40).split_off(32) {
            assert!(maintained.insert(node));
        }
        let datasets = |index: &DitsLocal| {
            let mut nodes: Vec<DatasetNode> = index.dataset_nodes().into_iter().cloned().collect();
            nodes.sort_unstable_by_key(|n| n.id);
            nodes
        };
        assert_eq!(datasets(&maintained), datasets(&scratch));
        assert_ne!(maintained, scratch);
        // Building again is what makes them equal; a warm layout cache on
        // one side is not a difference.
        let rebuilt = DitsLocal::build(datasets(&maintained), config);
        rebuilt.traversal_layout();
        assert_eq!(rebuilt, scratch);
        assert_eq!(maintained, maintained.clone());
    }

    #[test]
    fn layout_cache_counts_in_memory_estimate() {
        let idx = DitsLocal::build(grid_nodes(50), DitsLocalConfig { leaf_capacity: 4 });
        let cold = idx.memory_bytes();
        let layout_bytes = idx.traversal_layout().memory_bytes();
        assert!(layout_bytes > 0);
        assert_eq!(idx.memory_bytes(), cold + layout_bytes);
    }

    proptest! {
        #[test]
        fn prop_construction_invariants_hold(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..256, 0u32..256), 1..12), 1..80),
            capacity in 1usize..12,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, coords)| make_node(i as DatasetId, coords))
                .collect();
            let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: capacity });
            prop_assert!(idx.check_invariants().is_ok());
            for leaf in idx.leaves() {
                if let NodeKind::Leaf { entries, .. } = &idx.node(leaf).kind {
                    prop_assert!(entries.len() <= capacity.max(1));
                }
            }
        }
    }
}
