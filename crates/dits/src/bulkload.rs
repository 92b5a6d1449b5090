//! Bottom-up (agglomerative) construction of DITS-L.
//!
//! Section V-A motivates the top-down median split by contrasting it with the
//! classic bottom-up ball-tree construction, which "repeatedly finds the two
//! balls that make the parent node's MBR volume smallest" and costs up to
//! O(n³).  This module implements that alternative so the design choice can
//! be ablated (DESIGN.md ablation 4): same tree node types, same leaf
//! inverted indexes, same search algorithms — only the build strategy
//! differs.
//!
//! The implementation follows the textbook greedy agglomeration:
//!
//! 1. start with one cluster per dataset node,
//! 2. repeatedly merge the pair of clusters whose union MBR has the smallest
//!    area (ties: smallest diagonal, then smallest indices),
//! 3. stop a cluster from merging further once it reaches the leaf capacity,
//!    and pack each final cluster into a leaf,
//! 4. build the internal levels over the leaves with the same greedy pairing.
//!
//! The pairing scan is O(n²) per merge, O(n³) in total — exactly the cost the
//! paper argues against — so the constructor is intended for ablation studies
//! and modest corpus sizes, not production loads.  A guard rejects inputs
//! that would take unreasonably long.

use crate::inverted::InvertedIndex;
use crate::local::{inverted_of, DitsLocal, DitsLocalConfig, NodeKind, TreeNode};
use crate::node::{DatasetNode, NodeGeometry};
use spatial::Mbr;

/// Maximum number of dataset nodes accepted by the bottom-up builder.
pub const BOTTOM_UP_MAX_DATASETS: usize = 4_096;

/// Builds a DITS-L index bottom-up (agglomeratively).
///
/// The resulting index satisfies exactly the same invariants as
/// [`DitsLocal::build`] and answers searches identically; only the tree shape
/// (and therefore pruning efficiency) differs.
///
/// # Panics
///
/// Panics when more than [`BOTTOM_UP_MAX_DATASETS`] dataset nodes are
/// supplied — the cubic pairing cost makes larger inputs impractical and the
/// top-down builder should be used instead.
pub fn build_bottom_up(dataset_nodes: Vec<DatasetNode>, config: DitsLocalConfig) -> DitsLocal {
    assert!(
        dataset_nodes.len() <= BOTTOM_UP_MAX_DATASETS,
        "bottom-up construction supports at most {BOTTOM_UP_MAX_DATASETS} datasets; use DitsLocal::build"
    );
    let capacity = config.leaf_capacity.max(1);
    let config = DitsLocalConfig {
        leaf_capacity: capacity,
    };
    let dataset_count = dataset_nodes.len();

    // Phase 1: agglomerate dataset nodes into clusters of at most `capacity`.
    let clusters = agglomerate(dataset_nodes, capacity);

    // Phase 2: materialise one leaf per cluster, then pair leaves greedily
    // into internal nodes until a single root remains.
    let mut index = DitsLocal::from_parts(Vec::new(), 0, config, dataset_count);
    let mut level: Vec<usize> = clusters
        .into_iter()
        .map(|entries| {
            let geometry = geometry_of_entries(&entries);
            let inverted = inverted_of(&entries);
            index.push_node(TreeNode {
                geometry,
                parent: None,
                kind: NodeKind::Leaf { entries, inverted },
            })
        })
        .collect();

    if level.is_empty() {
        // Same convention as the top-down builder: an empty input produces a
        // single empty leaf root.
        let root = index.push_node(TreeNode {
            geometry: NodeGeometry::from_mbr(Mbr::new(
                spatial::Point::new(0.0, 0.0),
                spatial::Point::new(0.0, 0.0),
            )),
            parent: None,
            kind: NodeKind::Leaf {
                entries: Vec::new(),
                inverted: InvertedIndex::new(),
            },
        });
        return finish(index, root, dataset_count, config);
    }

    while level.len() > 1 {
        // Find the pair of current-level nodes with the smallest union area.
        let (best_i, best_j) = best_pair(&index, &level);
        let (i, j) = (level[best_i], level[best_j]);
        let geometry = index.node(i).geometry.union(&index.node(j).geometry);
        let parent = index.push_node(TreeNode {
            geometry,
            parent: None,
            kind: NodeKind::Internal { left: i, right: j },
        });
        index.node_mut_for_bulkload(i).parent = Some(parent);
        index.node_mut_for_bulkload(j).parent = Some(parent);
        // Remove the higher index first so the lower one stays valid.
        let (hi, lo) = if best_i > best_j {
            (best_i, best_j)
        } else {
            (best_j, best_i)
        };
        level.swap_remove(hi);
        level.swap_remove(lo);
        level.push(parent);
    }
    let root = level[0];
    finish(index, root, dataset_count, config)
}

fn finish(
    index: DitsLocal,
    root: usize,
    dataset_count: usize,
    config: DitsLocalConfig,
) -> DitsLocal {
    let (nodes, _, _, _) = index.parts();
    DitsLocal::from_parts(nodes.to_vec(), root, config, dataset_count)
}

/// Greedy agglomeration of dataset nodes into clusters of at most `capacity`.
fn agglomerate(nodes: Vec<DatasetNode>, capacity: usize) -> Vec<Vec<DatasetNode>> {
    let mut clusters: Vec<Option<(Mbr, Vec<DatasetNode>)>> = nodes
        .into_iter()
        .map(|n| Some((*n.rect(), vec![n])))
        .collect();
    loop {
        // Find the mergeable pair (combined size ≤ capacity) with the
        // smallest union area.
        let mut best: Option<(f64, f64, usize, usize)> = None;
        for i in 0..clusters.len() {
            let Some((rect_i, members_i)) = &clusters[i] else {
                continue;
            };
            for j in (i + 1)..clusters.len() {
                let Some((rect_j, members_j)) = &clusters[j] else {
                    continue;
                };
                if members_i.len() + members_j.len() > capacity {
                    continue;
                }
                let union = rect_i.union(rect_j);
                let key = (union.area(), union.radius());
                let better = match best {
                    None => true,
                    Some((area, radius, _, _)) => key.0 < area || (key.0 == area && key.1 < radius),
                };
                if better {
                    best = Some((key.0, key.1, i, j));
                }
            }
        }
        let Some((_, _, i, j)) = best else { break };
        let (rect_j, mut members_j) = clusters[j].take().unwrap();
        let (rect_i, members_i) = clusters[i].as_mut().unwrap();
        members_i.append(&mut members_j);
        *rect_i = rect_i.union(&rect_j);
    }
    clusters
        .into_iter()
        .flatten()
        .map(|(_, members)| members)
        .collect()
}

/// The pair of tree nodes (by position in `level`) whose union MBR has the
/// smallest area.
fn best_pair(index: &DitsLocal, level: &[usize]) -> (usize, usize) {
    let mut best = (f64::INFINITY, f64::INFINITY, 0usize, 1usize);
    for a in 0..level.len() {
        for b in (a + 1)..level.len() {
            let union = index
                .node(level[a])
                .geometry
                .rect
                .union(&index.node(level[b]).geometry.rect);
            let key = (union.area(), union.radius());
            if key.0 < best.0 || (key.0 == best.0 && key.1 < best.1) {
                best = (key.0, key.1, a, b);
            }
        }
    }
    (best.2, best.3)
}

fn geometry_of_entries(entries: &[DatasetNode]) -> NodeGeometry {
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

impl DitsLocal {
    /// Mutable node access restricted to the bulk loader (kept out of the
    /// public API so external code cannot invalidate the tree invariants).
    pub(crate) fn node_mut_for_bulkload(&mut self, idx: usize) -> &mut TreeNode {
        self.node_mut(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlap::{overlap_search, overlap_search_bruteforce};
    use proptest::prelude::*;
    use spatial::zorder::cell_id;
    use spatial::{CellSet, DatasetId};

    fn node(id: DatasetId, coords: &[(u32, u32)]) -> DatasetNode {
        DatasetNode::from_cell_set(
            id,
            CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y))),
        )
        .unwrap()
    }

    fn clustered_nodes(n: u32) -> Vec<DatasetNode> {
        (0..n)
            .map(|i| {
                let bx = (i * 5) % 80;
                let by = ((i * 5) / 80) * 5;
                node(i, &[(bx, by), (bx + 1, by), (bx, by + 1)])
            })
            .collect()
    }

    #[test]
    fn bottom_up_tree_satisfies_invariants() {
        let nodes = clustered_nodes(60);
        let idx = build_bottom_up(nodes, DitsLocalConfig { leaf_capacity: 5 });
        assert_eq!(idx.dataset_count(), 60);
        assert!(idx.check_invariants().is_ok());
        for leaf in idx.leaves() {
            if let NodeKind::Leaf { entries, .. } = &idx.node(leaf).kind {
                assert!(entries.len() <= 5);
            }
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let idx = build_bottom_up(Vec::new(), DitsLocalConfig::default());
        assert_eq!(idx.dataset_count(), 0);
        assert!(idx.check_invariants().is_ok());
        let idx = build_bottom_up(vec![node(0, &[(1, 1)])], DitsLocalConfig::default());
        assert_eq!(idx.dataset_count(), 1);
        assert!(idx.check_invariants().is_ok());
    }

    #[test]
    fn bottom_up_and_top_down_answer_searches_identically() {
        let nodes = clustered_nodes(80);
        let config = DitsLocalConfig { leaf_capacity: 6 };
        let bottom_up = build_bottom_up(nodes.clone(), config);
        let top_down = DitsLocal::build(nodes.clone(), config);
        let query = CellSet::from_cells([cell_id(5, 0), cell_id(6, 0), cell_id(10, 5)]);
        for k in [1usize, 5, 20] {
            let (a, _) = overlap_search(&bottom_up, &query, k);
            let (b, _) = overlap_search(&top_down, &query, k);
            let brute = overlap_search_bruteforce(&nodes, &query, k);
            assert_eq!(a, brute, "bottom-up deviates from brute force at k={k}");
            assert_eq!(b, brute, "top-down deviates from brute force at k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "bottom-up construction supports at most")]
    fn oversized_input_is_rejected() {
        let nodes: Vec<DatasetNode> = (0..(BOTTOM_UP_MAX_DATASETS as u32 + 1))
            .map(|i| node(i, &[(i % 100, i / 100)]))
            .collect();
        let _ = build_bottom_up(nodes, DitsLocalConfig::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_bottom_up_invariants_and_search_equivalence(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..64, 0u32..64), 1..8), 1..40),
            capacity in 1usize..8,
            query in proptest::collection::vec((0u32..64, 0u32..64), 1..10),
            k in 1usize..8,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let idx = build_bottom_up(nodes.clone(), DitsLocalConfig { leaf_capacity: capacity });
            prop_assert!(idx.check_invariants().is_ok());
            let q = CellSet::from_cells(query.iter().map(|&(x, y)| cell_id(x, y)));
            let (fast, _) = overlap_search(&idx, &q, k);
            let brute = overlap_search_bruteforce(&nodes, &q, k);
            prop_assert_eq!(
                fast.iter().map(|r| r.overlap).collect::<Vec<_>>(),
                brute.iter().map(|r| r.overlap).collect::<Vec<_>>()
            );
        }
    }
}
