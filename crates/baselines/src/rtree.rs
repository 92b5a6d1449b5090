//! R-tree baseline \[27\]: a Guttman R-tree over dataset MBRs.
//!
//! Construction bulk-loads the datasets with the Sort-Tile-Recursive (STR)
//! packing, the standard way to build a balanced R-tree over a static
//! collection; maintenance uses ChooseLeaf by minimum enlargement and the
//! quadratic split.  OJSP with the R-tree finds every dataset whose MBR
//! intersects the query MBR and computes its exact cell intersection — the
//! paper's second-best strategy, since the MBR filter is coarser than the
//! leaf inverted-index bounds DITS-L adds on top of its tree.

use crate::traits::OverlapIndex;
use dits::{DatasetNode, OverlapResult};
use spatial::{CellSet, DatasetId, Mbr, Point};

/// Maximum number of entries per node before it splits.
const MAX_ENTRIES: usize = 16;

#[derive(Debug, Clone)]
enum RNode {
    Leaf { mbr: Mbr, entries: Vec<DatasetNode> },
    Internal { mbr: Mbr, children: Vec<usize> },
}

impl RNode {
    fn mbr(&self) -> Mbr {
        match self {
            RNode::Leaf { mbr, .. } | RNode::Internal { mbr, .. } => *mbr,
        }
    }
}

/// The R-tree baseline index.
#[derive(Debug, Clone)]
pub struct RTreeIndex {
    nodes: Vec<RNode>,
    root: usize,
    dataset_count: usize,
}

impl Default for RTreeIndex {
    fn default() -> Self {
        Self {
            nodes: vec![RNode::Leaf {
                mbr: empty_mbr(),
                entries: Vec::new(),
            }],
            root: 0,
            dataset_count: 0,
        }
    }
}

fn empty_mbr() -> Mbr {
    Mbr::new(Point::new(0.0, 0.0), Point::new(0.0, 0.0))
}

fn mbr_of_entries(entries: &[DatasetNode]) -> Mbr {
    entries
        .iter()
        .map(|e| *e.rect())
        .reduce(|a, b| a.union(&b))
        .unwrap_or_else(empty_mbr)
}

impl RTreeIndex {
    /// Bulk-loads the R-tree with Sort-Tile-Recursive packing.
    pub fn build(mut datasets: Vec<DatasetNode>) -> Self {
        if datasets.is_empty() {
            return Self::default();
        }
        let dataset_count = datasets.len();
        let mut tree = Self {
            nodes: Vec::new(),
            root: 0,
            dataset_count,
        };

        // STR: sort by x, slice into vertical strips of ~sqrt(n/M) strips,
        // sort each strip by y and pack runs of MAX_ENTRIES into leaves.
        let n = datasets.len();
        let leaf_count = n.div_ceil(MAX_ENTRIES);
        let strip_count = (leaf_count as f64).sqrt().ceil() as usize;
        let per_strip = n.div_ceil(strip_count.max(1));
        datasets.sort_unstable_by(|a, b| a.pivot().x.total_cmp(&b.pivot().x));
        let mut leaves: Vec<usize> = Vec::new();
        for strip in datasets.chunks(per_strip.max(1)) {
            let mut strip: Vec<DatasetNode> = strip.to_vec();
            strip.sort_unstable_by(|a, b| a.pivot().y.total_cmp(&b.pivot().y));
            for chunk in strip.chunks(MAX_ENTRIES) {
                let entries = chunk.to_vec();
                let mbr = mbr_of_entries(&entries);
                tree.nodes.push(RNode::Leaf { mbr, entries });
                leaves.push(tree.nodes.len() - 1);
            }
        }
        // Pack upper levels until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next = Vec::new();
            for chunk in level.chunks(MAX_ENTRIES) {
                let children = chunk.to_vec();
                let mbr = children
                    .iter()
                    .map(|&c| tree.nodes[c].mbr())
                    .reduce(|a, b| a.union(&b))
                    .unwrap_or_else(empty_mbr);
                tree.nodes.push(RNode::Internal { mbr, children });
                next.push(tree.nodes.len() - 1);
            }
            level = next;
        }
        tree.root = level[0];
        tree
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn refresh_mbr(&mut self, idx: usize) -> Mbr {
        let mbr = match &self.nodes[idx] {
            RNode::Leaf { entries, .. } => mbr_of_entries(entries),
            RNode::Internal { children, .. } => children
                .iter()
                .map(|&c| self.nodes[c].mbr())
                .reduce(|a, b| a.union(&b))
                .unwrap_or_else(empty_mbr),
        };
        match &mut self.nodes[idx] {
            RNode::Leaf { mbr: m, .. } | RNode::Internal { mbr: m, .. } => *m = mbr,
        }
        mbr
    }

    /// ChooseLeaf: descend picking the child needing the least enlargement.
    fn choose_leaf(&self, rect: &Mbr) -> Vec<usize> {
        let mut path = vec![self.root];
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                RNode::Leaf { .. } => return path,
                RNode::Internal { children, .. } => {
                    let best = children
                        .iter()
                        .copied()
                        .min_by(|&a, &b| {
                            let ea = self.nodes[a].mbr().enlargement(rect);
                            let eb = self.nodes[b].mbr().enlargement(rect);
                            ea.total_cmp(&eb).then_with(|| {
                                self.nodes[a]
                                    .mbr()
                                    .area()
                                    .total_cmp(&self.nodes[b].mbr().area())
                            })
                        })
                        .expect("internal node has children");
                    path.push(best);
                    idx = best;
                }
            }
        }
    }

    /// Quadratic split of an over-full leaf; returns the new sibling index.
    fn split_leaf(&mut self, idx: usize) -> usize {
        let mut entries = match &mut self.nodes[idx] {
            RNode::Leaf { entries, .. } => std::mem::take(entries),
            RNode::Internal { .. } => unreachable!("split_leaf on internal node"),
        };
        // Pick the pair of seeds wasting the most area together.
        let (mut seed_a, mut seed_b, mut worst) = (0usize, 1usize, f64::MIN);
        for i in 0..entries.len() {
            for j in (i + 1)..entries.len() {
                let waste = entries[i].rect().union(entries[j].rect()).area()
                    - entries[i].rect().area()
                    - entries[j].rect().area();
                if waste > worst {
                    worst = waste;
                    seed_a = i;
                    seed_b = j;
                }
            }
        }
        let b = entries.remove(seed_b.max(seed_a));
        let a = entries.remove(seed_b.min(seed_a));
        let mut group_a = vec![a];
        let mut group_b = vec![b];
        for entry in entries {
            let mbr_a = mbr_of_entries(&group_a);
            let mbr_b = mbr_of_entries(&group_b);
            let grow_a = mbr_a.enlargement(entry.rect());
            let grow_b = mbr_b.enlargement(entry.rect());
            if grow_a < grow_b || (grow_a == grow_b && group_a.len() <= group_b.len()) {
                group_a.push(entry);
            } else {
                group_b.push(entry);
            }
        }
        let mbr_a = mbr_of_entries(&group_a);
        let mbr_b = mbr_of_entries(&group_b);
        self.nodes[idx] = RNode::Leaf {
            mbr: mbr_a,
            entries: group_a,
        };
        self.nodes.push(RNode::Leaf {
            mbr: mbr_b,
            entries: group_b,
        });
        self.nodes.len() - 1
    }

    fn find_leaf_of(&self, id: DatasetId) -> Option<usize> {
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            match &self.nodes[idx] {
                RNode::Leaf { entries, .. } => {
                    if entries.iter().any(|e| e.id == id) {
                        return Some(idx);
                    }
                }
                RNode::Internal { children, .. } => stack.extend_from_slice(children),
            }
        }
        None
    }

    fn refresh_all_mbrs(&mut self) {
        self.refresh_mbrs_from(self.root);
    }

    fn refresh_mbrs_from(&mut self, idx: usize) -> Mbr {
        let mbr = match self.nodes[idx].clone() {
            RNode::Leaf { entries, .. } => mbr_of_entries(&entries),
            RNode::Internal { children, .. } => children
                .iter()
                .map(|&c| self.refresh_mbrs_from(c))
                .reduce(|a, b| a.union(&b))
                .unwrap_or_else(empty_mbr),
        };
        match &mut self.nodes[idx] {
            RNode::Leaf { mbr: m, .. } | RNode::Internal { mbr: m, .. } => *m = mbr,
        }
        mbr
    }

    /// Every dataset node whose MBR intersects the query rectangle.
    fn intersecting_datasets(&self, rect: &Mbr) -> Vec<&DatasetNode> {
        let mut out = Vec::new();
        if self.dataset_count == 0 {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            match &self.nodes[idx] {
                RNode::Leaf { mbr, entries } => {
                    if mbr.intersects(rect) {
                        out.extend(entries.iter().filter(|e| e.rect().intersects(rect)));
                    }
                }
                RNode::Internal { mbr, children } => {
                    if mbr.intersects(rect) {
                        stack.extend_from_slice(children);
                    }
                }
            }
        }
        out
    }
}

impl OverlapIndex for RTreeIndex {
    fn name(&self) -> &'static str {
        "Rtree"
    }

    fn dataset_count(&self) -> usize {
        self.dataset_count
    }

    fn memory_bytes(&self) -> usize {
        let node_bytes = self.nodes.capacity() * std::mem::size_of::<RNode>();
        let content: usize = self
            .nodes
            .iter()
            .map(|n| match n {
                RNode::Leaf { entries, .. } => {
                    entries.iter().map(|e| e.memory_bytes()).sum::<usize>()
                }
                RNode::Internal { children, .. } => {
                    children.capacity() * std::mem::size_of::<usize>()
                }
            })
            .sum();
        node_bytes + content
    }

    fn overlap_search(&self, query: &CellSet, k: usize) -> Vec<OverlapResult> {
        if k == 0 || query.is_empty() {
            return Vec::new();
        }
        let Some(query_rect) = query.mbr_cell_space() else {
            return Vec::new();
        };
        // MBR filtering finds the candidates; each is scored exactly.
        let mut results: Vec<OverlapResult> = self
            .intersecting_datasets(&query_rect)
            .into_iter()
            .map(|d| OverlapResult {
                dataset: d.id,
                overlap: query.intersection_size(&d.cells),
            })
            .filter(|r| r.overlap > 0)
            .collect();
        results.sort_unstable_by(|a, b| b.overlap.cmp(&a.overlap).then(a.dataset.cmp(&b.dataset)));
        results.truncate(k);
        results
    }

    fn insert(&mut self, node: DatasetNode) -> bool {
        if self.find_leaf_of(node.id).is_some() {
            return false;
        }
        let rect = *node.rect();
        let path = self.choose_leaf(&rect);
        let leaf = *path.last().expect("choose_leaf returns a non-empty path");
        let needs_split = {
            let n = &mut self.nodes[leaf];
            if let RNode::Leaf { entries, mbr } = n {
                entries.push(node);
                *mbr = mbr_of_entries(entries);
                entries.len() > MAX_ENTRIES
            } else {
                unreachable!("choose_leaf returned an internal node")
            }
        };
        if needs_split {
            let sibling = self.split_leaf(leaf);
            // Attach the sibling to the parent (or grow a new root).
            if path.len() >= 2 {
                let parent = path[path.len() - 2];
                if let RNode::Internal { children, .. } = &mut self.nodes[parent] {
                    children.push(sibling);
                }
            } else {
                let old_root = self.root;
                let mbr = self.nodes[old_root].mbr().union(&self.nodes[sibling].mbr());
                self.nodes.push(RNode::Internal {
                    mbr,
                    children: vec![old_root, sibling],
                });
                self.root = self.nodes.len() - 1;
            }
        }
        // Refresh ancestor MBRs along the insertion path (simple and safe:
        // recompute bottom-up over the whole path).
        for &idx in path.iter().rev() {
            self.refresh_mbr(idx);
        }
        self.refresh_mbr(self.root);
        self.dataset_count += 1;
        true
    }

    fn update(&mut self, node: DatasetNode) -> bool {
        let Some(leaf) = self.find_leaf_of(node.id) else {
            return false;
        };
        if let RNode::Leaf { entries, mbr } = &mut self.nodes[leaf] {
            if let Some(pos) = entries.iter().position(|e| e.id == node.id) {
                entries[pos] = node;
                *mbr = mbr_of_entries(entries);
            }
        }
        self.refresh_all_mbrs();
        true
    }

    fn delete(&mut self, id: DatasetId) -> bool {
        let Some(leaf) = self.find_leaf_of(id) else {
            return false;
        };
        if let RNode::Leaf { entries, mbr } = &mut self.nodes[leaf] {
            entries.retain(|e| e.id != id);
            *mbr = mbr_of_entries(entries);
        }
        self.refresh_all_mbrs();
        self.dataset_count -= 1;
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

    fn scattered(n: u32) -> Vec<DatasetNode> {
        (0..n)
            .map(|i| {
                let x = (i * 7) % 120;
                let y = (i * 13) % 120;
                node(i, &[(x, y), (x + 1, y), (x, y + 1)])
            })
            .collect()
    }

    #[test]
    fn str_bulk_load_builds_multilevel_tree() {
        let tree = RTreeIndex::build(scattered(300));
        assert_eq!(tree.dataset_count(), 300);
        assert!(tree.node_count() > 300 / MAX_ENTRIES);
        assert!(tree.memory_bytes() > 0);
    }

    #[test]
    fn overlap_search_is_exact() {
        let nodes = scattered(200);
        let tree = RTreeIndex::build(nodes.clone());
        let query = cs(&[(14, 26), (15, 26), (14, 27), (70, 70)]);
        for k in [1usize, 5, 50] {
            let got = tree.overlap_search(&query, k);
            let expected = overlap_search_bruteforce(&nodes, &query, k);
            assert_eq!(
                got.iter().map(|r| r.overlap).collect::<Vec<_>>(),
                expected.iter().map(|r| r.overlap).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn insert_grows_and_splits() {
        let mut tree = RTreeIndex::default();
        for n in scattered(100) {
            assert!(tree.insert(n));
        }
        assert_eq!(tree.dataset_count(), 100);
        assert!(!tree.insert(node(5, &[(0, 0)])));
        let query = cs(&[(35, 65), (36, 65)]);
        let got = tree.overlap_search(&query, 10);
        let expected = overlap_search_bruteforce(&scattered(100), &query, 10);
        assert_eq!(
            got.iter().map(|r| r.overlap).collect::<Vec<_>>(),
            expected.iter().map(|r| r.overlap).collect::<Vec<_>>()
        );
    }

    #[test]
    fn update_and_delete() {
        let mut tree = RTreeIndex::build(scattered(50));
        assert!(tree.update(node(3, &[(200, 200), (201, 200)])));
        assert!(!tree.update(node(999, &[(1, 1)])));
        let got = tree.overlap_search(&cs(&[(200, 200)]), 3);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].dataset, 3);
        assert!(tree.delete(3));
        assert!(!tree.delete(3));
        assert_eq!(tree.dataset_count(), 49);
        assert!(tree.overlap_search(&cs(&[(200, 200)]), 3).is_empty());
    }

    #[test]
    fn empty_cases() {
        let tree = RTreeIndex::default();
        assert_eq!(tree.dataset_count(), 0);
        assert!(tree.overlap_search(&cs(&[(0, 0)]), 3).is_empty());
        let tree = RTreeIndex::build(vec![node(0, &[(0, 0)])]);
        assert!(tree.overlap_search(&CellSet::new(), 3).is_empty());
        assert!(tree.overlap_search(&cs(&[(0, 0)]), 0).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_bruteforce_after_mixed_construction(
            bulk in proptest::collection::vec(
                proptest::collection::vec((0u32..48, 0u32..48), 1..8), 0..30),
            inserted in proptest::collection::vec(
                proptest::collection::vec((0u32..48, 0u32..48), 1..8), 0..15),
            query in proptest::collection::vec((0u32..48, 0u32..48), 1..10),
            k in 1usize..8,
        ) {
            let bulk_nodes: Vec<DatasetNode> = bulk
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let insert_nodes: Vec<DatasetNode> = inserted
                .iter()
                .enumerate()
                .map(|(i, c)| node((1000 + i) as DatasetId, c))
                .collect();
            let mut tree = RTreeIndex::build(bulk_nodes.clone());
            for n in insert_nodes.clone() {
                tree.insert(n);
            }
            let mut all = bulk_nodes;
            all.extend(insert_nodes);
            let q = cs(&query);
            let got = tree.overlap_search(&q, k);
            let expected = overlap_search_bruteforce(&all, &q, k);
            prop_assert_eq!(
                got.iter().map(|r| r.overlap).collect::<Vec<_>>(),
                expected.iter().map(|r| r.overlap).collect::<Vec<_>>()
            );
        }
    }
}
