//! QuadTree baseline \[26\]: a region quadtree built over the *cells* of all
//! datasets (not over datasets), as described in Section VII-B.
//!
//! Every occupied cell of every dataset becomes a point `(cell, dataset id)`
//! in the quadtree; a quadrant splits into four children once it holds more
//! than the leaf capacity (4, the classic quadtree setting the paper uses).
//! OJSP finds all leaves intersecting the query MBR to collect candidate
//! datasets, then scores each against its cell set
//! ([`CellSet::intersection_size`]) — behaviour that is close to an inverted
//! index and explains why the paper measures QuadTree as the most
//! memory-hungry index (its node count scales with the number of cells `N`,
//! not the number of datasets `n`).

use crate::traits::OverlapIndex;
use dits::{DatasetNode, OverlapResult};
use spatial::zorder::cell_coords;
use spatial::{CellId, CellSet, DatasetId, Mbr, Point};
use std::collections::{HashMap, HashSet};

const QUAD_LEAF_CAPACITY: usize = 4;
const MAX_DEPTH: u32 = 24;

/// One point stored in the quadtree: an occupied cell of one dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellPoint {
    cell: CellId,
    x: u32,
    y: u32,
    dataset: DatasetId,
}

#[derive(Debug, Clone)]
enum QuadNode {
    Leaf {
        points: Vec<CellPoint>,
    },
    Internal {
        /// Children in the order SW, SE, NW, NE.
        children: [usize; 4],
    },
}

/// The QuadTree baseline index.
#[derive(Debug, Clone)]
pub struct QuadTreeIndex {
    nodes: Vec<QuadNode>,
    /// Bounds of each node in cell-coordinate space, parallel to `nodes`.
    bounds: Vec<Mbr>,
    root: usize,
    datasets: HashMap<DatasetId, CellSet>,
}

impl Default for QuadTreeIndex {
    fn default() -> Self {
        Self::with_extent(Mbr::new(Point::new(0.0, 0.0), Point::new(4096.0, 4096.0)))
    }
}

impl QuadTreeIndex {
    /// Creates an empty quadtree covering the given extent (cell space).
    pub fn with_extent(extent: Mbr) -> Self {
        Self {
            nodes: vec![QuadNode::Leaf { points: Vec::new() }],
            bounds: vec![extent],
            root: 0,
            datasets: HashMap::new(),
        }
    }

    /// Builds the quadtree over a collection of dataset nodes.
    pub fn build(nodes: Vec<DatasetNode>) -> Self {
        // Size the root quadrant to cover every occupied cell.
        let mut extent: Option<Mbr> = None;
        for n in &nodes {
            let r = *n.rect();
            extent = Some(match extent {
                Some(e) => e.union(&r),
                None => r,
            });
        }
        let extent = extent
            .map(|e| Mbr::new(e.min, Point::new(e.max.x + 1.0, e.max.y + 1.0)))
            .unwrap_or_else(|| Mbr::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        let mut tree = Self::with_extent(extent);
        for node in nodes {
            tree.insert(node);
        }
        tree
    }

    /// Number of quadtree nodes (the quantity that drives its memory use).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn insert_point(&mut self, point: CellPoint, mut node: usize, mut depth: u32) {
        // Walk down to the leaf quadrant for the point, loosening the bounds
        // of every node on the path so later inserts outside the original
        // extent (e.g. after a dataset update moves far away) remain visible
        // to the MBR pruning of `candidate_datasets`.
        loop {
            self.bounds[node].expand_point(&Point::new(point.x as f64, point.y as f64));
            match &self.nodes[node] {
                QuadNode::Internal { children } => {
                    let q = self.quadrant_of(node, point.x as f64, point.y as f64);
                    node = children[q];
                    depth += 1;
                }
                QuadNode::Leaf { .. } => break,
            }
        }
        let bound = self.bounds[node];
        // A quadrant at cell granularity (or at the depth cap) never splits,
        // so identical points cannot trigger unbounded subdivision.
        let splittable = bound.width() > 1.0 || bound.height() > 1.0;
        let len = match &mut self.nodes[node] {
            QuadNode::Leaf { points } => {
                points.push(point);
                points.len()
            }
            QuadNode::Internal { .. } => unreachable!("loop above stops at a leaf"),
        };
        if len > QUAD_LEAF_CAPACITY && depth < MAX_DEPTH && splittable {
            self.split(node, depth);
        }
    }

    fn quadrant_of(&self, node: usize, x: f64, y: f64) -> usize {
        let b = self.bounds[node];
        let cx = (b.min.x + b.max.x) / 2.0;
        let cy = (b.min.y + b.max.y) / 2.0;
        match (x >= cx, y >= cy) {
            (false, false) => 0,
            (true, false) => 1,
            (false, true) => 2,
            (true, true) => 3,
        }
    }

    fn split(&mut self, node: usize, depth: u32) {
        let b = self.bounds[node];
        let cx = (b.min.x + b.max.x) / 2.0;
        let cy = (b.min.y + b.max.y) / 2.0;
        let quadrants = [
            Mbr::new(b.min, Point::new(cx, cy)),
            Mbr::new(Point::new(cx, b.min.y), Point::new(b.max.x, cy)),
            Mbr::new(Point::new(b.min.x, cy), Point::new(cx, b.max.y)),
            Mbr::new(Point::new(cx, cy), b.max),
        ];
        let mut children = [0usize; 4];
        for (i, q) in quadrants.iter().enumerate() {
            self.nodes.push(QuadNode::Leaf { points: Vec::new() });
            self.bounds.push(*q);
            children[i] = self.nodes.len() - 1;
        }
        let points = match std::mem::replace(&mut self.nodes[node], QuadNode::Internal { children })
        {
            QuadNode::Leaf { points } => points,
            QuadNode::Internal { .. } => unreachable!("split called on internal node"),
        };
        for p in points {
            let child = children[self.quadrant_of(node, p.x as f64, p.y as f64)];
            self.insert_point(p, child, depth + 1);
        }
    }

    fn remove_dataset_points(&mut self, id: DatasetId) {
        for node in &mut self.nodes {
            if let QuadNode::Leaf { points } = node {
                points.retain(|p| p.dataset != id);
            }
        }
    }

    /// Collects the ids of datasets owning at least one point in a quadrant
    /// intersecting the query MBR.  Every dataset cell inside the query lies
    /// inside the query's MBR, so its quadrant is visited and the owning
    /// dataset is discovered; exact overlaps are then computed in one
    /// batched intersection pass over the candidates' cell sets.
    fn candidate_datasets(&self, query_rect: &Mbr) -> Vec<DatasetId> {
        let mut seen = HashSet::new();
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            if !self.bounds[idx].intersects(query_rect) {
                continue;
            }
            match &self.nodes[idx] {
                QuadNode::Leaf { points } => seen.extend(points.iter().map(|p| p.dataset)),
                QuadNode::Internal { children } => stack.extend_from_slice(children),
            }
        }
        let mut candidates: Vec<DatasetId> = seen.into_iter().collect();
        candidates.sort_unstable();
        candidates
    }
}

impl OverlapIndex for QuadTreeIndex {
    fn name(&self) -> &'static str {
        "QuadTree"
    }

    fn dataset_count(&self) -> usize {
        self.datasets.len()
    }

    fn memory_bytes(&self) -> usize {
        let node_bytes = self.nodes.capacity() * std::mem::size_of::<QuadNode>()
            + self.bounds.capacity() * std::mem::size_of::<Mbr>();
        let point_bytes: usize = self
            .nodes
            .iter()
            .map(|n| match n {
                QuadNode::Leaf { points } => points.capacity() * std::mem::size_of::<CellPoint>(),
                QuadNode::Internal { .. } => 0,
            })
            .sum();
        node_bytes + point_bytes
    }

    fn overlap_search(&self, query: &CellSet, k: usize) -> Vec<OverlapResult> {
        if k == 0 || query.is_empty() {
            return Vec::new();
        }
        let Some(query_rect) = query.mbr_cell_space() else {
            return Vec::new();
        };
        let mut results: Vec<OverlapResult> = self
            .candidate_datasets(&query_rect)
            .into_iter()
            .map(|dataset| OverlapResult {
                dataset,
                overlap: query.intersection_size(&self.datasets[&dataset]),
            })
            .filter(|r| r.overlap > 0)
            .collect();
        results.sort_unstable_by(|a, b| b.overlap.cmp(&a.overlap).then(a.dataset.cmp(&b.dataset)));
        results.truncate(k);
        results
    }

    fn insert(&mut self, node: DatasetNode) -> bool {
        if self.datasets.contains_key(&node.id) {
            return false;
        }
        for cell in node.cells.iter() {
            let (x, y) = cell_coords(cell);
            // Points outside the root extent are clamped into it; the cell id
            // itself stays exact so overlap counting is unaffected.
            let point = CellPoint {
                cell,
                x,
                y,
                dataset: node.id,
            };
            self.insert_point(point, self.root, 0);
        }
        self.datasets.insert(node.id, node.cells);
        true
    }

    fn update(&mut self, node: DatasetNode) -> bool {
        if !self.datasets.contains_key(&node.id) {
            return false;
        }
        // A dataset update re-locates every affected cell: remove all old
        // points, then insert the new ones.
        self.remove_dataset_points(node.id);
        self.datasets.remove(&node.id);
        self.insert(node)
    }

    fn delete(&mut self, id: DatasetId) -> bool {
        if self.datasets.remove(&id).is_none() {
            return false;
        }
        self.remove_dataset_points(id);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dits::overlap::overlap_search_bruteforce;
    use proptest::prelude::*;
    use spatial::zorder::cell_id;

    fn node(id: DatasetId, coords: &[(u32, u32)]) -> DatasetNode {
        DatasetNode::from_cell_set(
            id,
            CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y))),
        )
        .unwrap()
    }

    fn cs(coords: &[(u32, u32)]) -> CellSet {
        CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y)))
    }

    #[test]
    fn splits_when_capacity_exceeded() {
        let nodes: Vec<DatasetNode> = (0..10)
            .map(|i| node(i, &[(i * 3 % 30, i * 5 % 30)]))
            .collect();
        let tree = QuadTreeIndex::build(nodes);
        assert!(tree.node_count() > 1, "tree should have split");
        assert_eq!(tree.dataset_count(), 10);
        assert!(tree.memory_bytes() > 0);
    }

    #[test]
    fn overlap_search_counts_cells() {
        let tree = QuadTreeIndex::build(vec![
            node(0, &[(0, 0), (1, 0), (2, 0)]),
            node(1, &[(1, 0)]),
            node(2, &[(20, 20)]),
        ]);
        let results = tree.overlap_search(&cs(&[(0, 0), (1, 0), (5, 5)]), 3);
        assert_eq!(
            results[0],
            OverlapResult {
                dataset: 0,
                overlap: 2
            }
        );
        assert_eq!(
            results[1],
            OverlapResult {
                dataset: 1,
                overlap: 1
            }
        );
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn identical_cells_do_not_split_forever() {
        // 20 datasets all on the same single cell: the quadrant is
        // degenerate, so it must not split indefinitely.
        let nodes: Vec<DatasetNode> = (0..20).map(|i| node(i, &[(5, 5)])).collect();
        let tree = QuadTreeIndex::build(nodes);
        assert_eq!(tree.dataset_count(), 20);
        let results = tree.overlap_search(&cs(&[(5, 5)]), 25);
        assert_eq!(results.len(), 20);
    }

    #[test]
    fn maintenance_operations() {
        let mut tree = QuadTreeIndex::build(vec![node(0, &[(0, 0)])]);
        assert!(tree.insert(node(1, &[(3, 3), (4, 4)])));
        assert!(!tree.insert(node(1, &[(9, 9)])));
        assert!(tree.update(node(1, &[(9, 9)])));
        assert!(!tree.update(node(5, &[(9, 9)])));
        let r = tree.overlap_search(&cs(&[(9, 9)]), 5);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].dataset, 1);
        assert!(tree.overlap_search(&cs(&[(3, 3)]), 5).is_empty());
        assert!(tree.delete(0));
        assert!(!tree.delete(0));
        assert_eq!(tree.dataset_count(), 1);
    }

    #[test]
    fn empty_cases() {
        let tree = QuadTreeIndex::default();
        assert!(tree.overlap_search(&cs(&[(0, 0)]), 3).is_empty());
        let tree = QuadTreeIndex::build(vec![node(0, &[(0, 0)])]);
        assert!(tree.overlap_search(&CellSet::new(), 3).is_empty());
        assert!(tree.overlap_search(&cs(&[(0, 0)]), 0).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_bruteforce(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..48, 0u32..48), 1..10), 1..35),
            query in proptest::collection::vec((0u32..48, 0u32..48), 1..12),
            k in 1usize..10,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let tree = QuadTreeIndex::build(nodes.clone());
            let q = cs(&query);
            let got = tree.overlap_search(&q, k);
            let expected = overlap_search_bruteforce(&nodes, &q, k);
            prop_assert_eq!(
                got.iter().map(|r| r.overlap).collect::<Vec<_>>(),
                expected.iter().map(|r| r.overlap).collect::<Vec<_>>()
            );
        }
    }
}
