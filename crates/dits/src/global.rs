//! DITS-G: the global index maintained by the data center (Section V-B).
//!
//! After each data source builds its DITS-L, it uploads a summary of it: its
//! *root node* — an MBR, pivot and radius, converted back into
//! longitude/latitude so sources indexed at different resolutions are
//! comparable — which this index is made of, and beside it the source's
//! [block sketch](crate::sketch), which the data center keeps next to this
//! index and clips OJSP queries by.  The data center
//! organises the root summaries in a small binary tree built with the same
//! top-down procedure as the local index (but leaves carry no inverted
//! index), and uses it to route a query to the *candidate sources*: those
//! whose region lies within the connectivity threshold of the query MBR
//! (intersects it, when the threshold is zero).  Pruning a source at the
//! global level removes one whole round of communication (the paper's first
//! query-distribution strategy).
//!
//! The tree is built, never patched: [`DitsGlobal::build`] is its only
//! producer.  Appendix IX-C maintains DITS-L in place and asks of the center
//! only that its copy of a source's root follows the source, so the two
//! mutators ([`DitsGlobal::put_source`], [`DitsGlobal::remove_source`]) edit
//! the summary list and build again — a federation has a handful of sources
//! and a summary changes once per maintenance batch.  A maintained index is
//! therefore the one `build` makes from the surviving summaries: no drifted,
//! empty or duplicated leaf exists to account for.  Nothing is stored on
//! disk either: a center recovers the way it bootstraps, by polling its
//! sources for their summaries, which cannot be stale.
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

use crate::node::NodeGeometry;
use serde::{Deserialize, Serialize};
use spatial::{Grid, Mbr, Point, SourceId};

/// What DITS-G holds of a data source: its identifier and the geometry of
/// its local index root, expressed in longitude/latitude.  (The source's
/// block sketch travels with it and is kept by the data center, not here.)
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SourceSummary {
    /// The data source's identifier.
    pub source: SourceId,
    /// Root geometry in longitude/latitude space.
    pub geometry: NodeGeometry,
    /// Resolution θ the source used for its local grid (informational; the
    /// data center does not require sources to share a resolution).
    pub resolution: u32,
}

impl SourceSummary {
    /// Builds a summary from a local root geometry expressed in cell
    /// coordinates of `grid`, converting the MBR corners back to
    /// longitude/latitude.
    pub fn from_local_root(source: SourceId, grid: &Grid, root: NodeGeometry) -> Self {
        let min = cell_coord_to_lonlat(grid, root.rect.min);
        let max = cell_coord_to_lonlat(grid, root.rect.max);
        Self {
            source,
            geometry: NodeGeometry::from_mbr(Mbr::new(min, max)),
            resolution: grid.resolution(),
        }
    }

    /// The summary's root MBR converted back into *cell coordinate* space of
    /// `grid` — the exact inverse of [`Self::from_local_root`] when `grid`
    /// has the summary's resolution (the lonlat corners are cell centres, so
    /// `Grid::locate` recovers the original integer cell coordinates).
    ///
    /// This is what lets a data center plan query clipping and kNN distance
    /// bounds for a *remote* source from its uploaded summary alone, without
    /// ever touching the source's local index.
    pub fn cell_space_rect(&self, grid: &Grid) -> Mbr {
        grid.mbr_to_cell_space(&self.geometry.rect)
    }
}

/// Converts a point in cell-coordinate space back to longitude/latitude by
/// taking the centre of the corresponding cell.
fn cell_coord_to_lonlat(grid: &Grid, p: Point) -> Point {
    let origin = grid.config().origin;
    Point::new(
        origin.x + (p.x + 0.5) * grid.cell_width(),
        origin.y + (p.y + 0.5) * grid.cell_height(),
    )
}

/// One node of the global index tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum GlobalNode {
    Internal {
        geometry: NodeGeometry,
        left: usize,
        right: usize,
    },
    Leaf {
        geometry: NodeGeometry,
        sources: Vec<SourceSummary>,
    },
}

impl GlobalNode {
    fn geometry(&self) -> &NodeGeometry {
        match self {
            GlobalNode::Internal { geometry, .. } => geometry,
            GlobalNode::Leaf { geometry, .. } => geometry,
        }
    }
}

/// The data center's global index over data-source summaries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DitsGlobal {
    nodes: Vec<GlobalNode>,
    root: usize,
    leaf_capacity: usize,
    source_count: usize,
}

impl DitsGlobal {
    /// Builds the global index from the uploaded source summaries.
    pub fn build(summaries: Vec<SourceSummary>, leaf_capacity: usize) -> Self {
        let leaf_capacity = leaf_capacity.max(1);
        let source_count = summaries.len();
        let mut index = Self {
            nodes: Vec::new(),
            root: 0,
            leaf_capacity,
            source_count,
        };
        index.root = index.build_subtree(summaries);
        index
    }

    fn build_subtree(&mut self, mut summaries: Vec<SourceSummary>) -> usize {
        let geometry = geometry_of(&summaries);
        if summaries.len() <= self.leaf_capacity {
            self.nodes.push(GlobalNode::Leaf {
                geometry,
                sources: summaries,
            });
            return self.nodes.len() - 1;
        }
        let dsplit = if geometry.rect.width() >= geometry.rect.height() {
            0
        } else {
            1
        };
        let mid = summaries.len() / 2;
        summaries.select_nth_unstable_by(mid, |a, b| coord(a, dsplit).total_cmp(&coord(b, dsplit)));
        let right = summaries.split_off(mid);
        let left = summaries;
        let left_idx = self.build_subtree(left);
        let right_idx = self.build_subtree(right);
        self.nodes.push(GlobalNode::Internal {
            geometry,
            left: left_idx,
            right: right_idx,
        });
        self.nodes.len() - 1
    }

    /// Number of registered sources.
    pub fn source_count(&self) -> usize {
        self.source_count
    }

    /// Leaf capacity the tree was built with.
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// Registers a source's summary, replacing the one registered under the
    /// same id if there is one, and builds the tree over the result.
    ///
    /// Returns `true` when a summary was replaced, `false` when the source
    /// is new to the index.
    pub fn put_source(&mut self, summary: SourceSummary) -> bool {
        let mut summaries = self.summaries();
        let replaced = match summaries.binary_search_by_key(&summary.source, |s| s.source) {
            Ok(pos) => {
                if let Some(slot) = summaries.get_mut(pos) {
                    *slot = summary;
                }
                true
            }
            Err(pos) => {
                summaries.insert(pos, summary);
                false
            }
        };
        *self = Self::build(summaries, self.leaf_capacity);
        replaced
    }

    /// Unregisters a source and builds the tree over the remaining
    /// summaries.
    ///
    /// Returns `false` (and leaves the index untouched) when the source is
    /// not registered.
    pub fn remove_source(&mut self, source: SourceId) -> bool {
        let mut summaries = self.summaries();
        let Ok(pos) = summaries.binary_search_by_key(&source, |s| s.source) else {
            return false;
        };
        summaries.remove(pos);
        *self = Self::build(summaries, self.leaf_capacity);
        true
    }

    /// All registered summaries, sorted by source id: the input the two
    /// mutators hand back to [`Self::build`].
    pub fn summaries(&self) -> Vec<SourceSummary> {
        let mut out: Vec<SourceSummary> = Vec::with_capacity(self.source_count);
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            match self.nodes.get(idx) {
                Some(GlobalNode::Leaf { sources, .. }) => out.extend(sources.iter().copied()),
                Some(GlobalNode::Internal { left, right, .. }) => {
                    stack.push(*left);
                    stack.push(*right);
                }
                None => {}
            }
        }
        out.sort_by_key(|s| s.source);
        out
    }

    /// Checks the structural invariants of the tree: the bookkeeping count
    /// matches the reachable summaries, source ids are unique, and every
    /// node's MBR contains everything below it (the property
    /// [`Self::candidate_sources`] pruning relies on).  Returns a
    /// description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let summaries = self.summaries();
        if summaries.len() != self.source_count {
            return Err(format!(
                "source_count {} does not match reachable summaries {}",
                self.source_count,
                summaries.len()
            ));
        }
        if summaries
            .windows(2)
            .any(|w| matches!(w, [a, b] if a.source == b.source))
        {
            return Err("duplicate source ids in the tree".to_string());
        }
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            match self.nodes.get(idx) {
                None => return Err(format!("node {idx} is out of range")),
                Some(GlobalNode::Leaf { geometry, sources }) => {
                    for s in sources {
                        if !geometry.rect.contains(&s.geometry.rect) {
                            return Err(format!(
                                "leaf {idx} MBR does not contain source {}",
                                s.source
                            ));
                        }
                    }
                }
                Some(GlobalNode::Internal {
                    geometry,
                    left,
                    right,
                }) => {
                    for child in [*left, *right] {
                        // A dangling child is reported when it is popped.
                        let outside = self
                            .nodes
                            .get(child)
                            .is_some_and(|node| !geometry.rect.contains(&node.geometry().rect));
                        if outside {
                            return Err(format!(
                                "internal {idx} MBR does not contain child {child}"
                            ));
                        }
                        stack.push(child);
                    }
                }
            }
        }
        Ok(())
    }

    /// Finds the candidate data sources for a query with MBR `query_rect`
    /// (in longitude/latitude) under a connectivity slack of `delta_lonlat`
    /// degrees: the sources whose region lies within the slack of the query
    /// MBR, rectangle to rectangle.
    ///
    /// With `delta_lonlat = 0` only MBR-intersecting sources are returned.
    /// (The data center passes δ converted to degrees — 0 for OJSP — plus
    /// half a cell diagonal, because summaries are rectangles of cell
    /// centres and the query MBR is not.)
    /// One predicate prunes a subtree and admits a summary, and a rectangle
    /// is never farther from the query than one it contains, so the routed
    /// set is a function of the summaries alone — exactly those a linear
    /// scan would keep, whatever shape the tree has.
    pub fn candidate_sources(&self, query_rect: &Mbr, delta_lonlat: f64) -> Vec<SourceSummary> {
        let within = |g: &NodeGeometry| g.rect.min_distance(query_rect) <= delta_lonlat;
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            let Some(node) = self.nodes.get(idx).filter(|n| within(n.geometry())) else {
                continue;
            };
            match node {
                GlobalNode::Leaf { sources, .. } => {
                    out.extend(sources.iter().filter(|s| within(&s.geometry)).copied());
                }
                GlobalNode::Internal { left, right, .. } => {
                    stack.push(*left);
                    stack.push(*right);
                }
            }
        }
        out.sort_by_key(|s| s.source);
        out
    }

    /// Estimated memory footprint of the global index in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<GlobalNode>()
            + self
                .nodes
                .iter()
                .map(|n| match n {
                    GlobalNode::Leaf { sources, .. } => {
                        sources.capacity() * std::mem::size_of::<SourceSummary>()
                    }
                    GlobalNode::Internal { .. } => 0,
                })
                .sum::<usize>()
    }
}

fn geometry_of(summaries: &[SourceSummary]) -> NodeGeometry {
    let mut rect: Option<Mbr> = None;
    for s in summaries {
        rect = Some(match rect {
            Some(r) => r.union(&s.geometry.rect),
            None => s.geometry.rect,
        });
    }
    rect.map(NodeGeometry::from_mbr)
        .unwrap_or_else(empty_geometry)
}

/// Placeholder geometry for the root leaf of an index with no sources.
fn empty_geometry() -> NodeGeometry {
    NodeGeometry::from_mbr(Mbr::new(Point::new(0.0, 0.0), Point::new(0.0, 0.0)))
}

fn coord(s: &SourceSummary, d: usize) -> f64 {
    match d {
        0 => s.geometry.pivot.x,
        _ => s.geometry.pivot.y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplayOnPanic;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn summary(source: SourceId, x0: f64, y0: f64, x1: f64, y1: f64) -> SourceSummary {
        SourceSummary {
            source,
            geometry: NodeGeometry::from_mbr(Mbr::new(Point::new(x0, y0), Point::new(x1, y1))),
            resolution: 12,
        }
    }

    #[test]
    fn routes_query_to_intersecting_sources_only() {
        let g = DitsGlobal::build(
            vec![
                summary(0, -77.5, 38.0, -76.5, 39.5), // Washington D.C. area
                summary(1, -77.2, 38.5, -75.0, 39.8), // Maryland
                summary(2, 115.0, 39.0, 117.5, 41.0), // Beijing
            ],
            2,
        );
        assert_eq!(g.source_count(), 3);
        let query = Mbr::new(Point::new(-77.1, 38.8), Point::new(-76.9, 39.0));
        let candidates = g.candidate_sources(&query, 0.0);
        let ids: Vec<SourceId> = candidates.iter().map(|s| s.source).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn delta_slack_reaches_nearby_sources() {
        let g = DitsGlobal::build(
            vec![
                summary(0, 0.0, 0.0, 1.0, 1.0),
                summary(1, 5.0, 0.0, 6.0, 1.0),
            ],
            2,
        );
        let query = Mbr::new(Point::new(0.2, 0.2), Point::new(0.8, 0.8));
        assert_eq!(g.candidate_sources(&query, 0.0).len(), 1);
        // A slack of 5 degrees reaches the second source.
        assert_eq!(g.candidate_sources(&query, 5.0).len(), 2);
    }

    #[test]
    fn empty_global_index_returns_no_candidates() {
        let g = DitsGlobal::build(Vec::new(), 4);
        let query = Mbr::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        assert!(g.candidate_sources(&query, 10.0).is_empty());
        assert_eq!(g.source_count(), 0);
    }

    #[test]
    fn many_sources_split_into_tree() {
        let summaries: Vec<SourceSummary> = (0..20)
            .map(|i| {
                summary(
                    i as SourceId,
                    i as f64 * 10.0,
                    0.0,
                    i as f64 * 10.0 + 5.0,
                    5.0,
                )
            })
            .collect();
        let g = DitsGlobal::build(summaries, 3);
        assert_eq!(g.source_count(), 20);
        assert!(g.memory_bytes() > 0);
        // Query hits exactly source 4's region.
        let query = Mbr::new(Point::new(41.0, 1.0), Point::new(44.0, 2.0));
        let candidates = g.candidate_sources(&query, 0.0);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].source, 4);
    }

    #[test]
    fn put_source_registers_a_new_source() {
        let mut g = DitsGlobal::build(
            (0..8)
                .map(|i| {
                    summary(
                        i as SourceId,
                        i as f64 * 10.0,
                        0.0,
                        i as f64 * 10.0 + 5.0,
                        5.0,
                    )
                })
                .collect(),
            2,
        );
        assert!(!g.put_source(summary(99, 200.0, 0.0, 205.0, 5.0)));
        assert_eq!(g.source_count(), 9);
        assert!(g.check_invariants().is_ok());
        let query = Mbr::new(Point::new(201.0, 1.0), Point::new(202.0, 2.0));
        let candidates = g.candidate_sources(&query, 0.0);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].source, 99);
    }

    #[test]
    fn insert_into_empty_index() {
        let mut g = DitsGlobal::build(Vec::new(), 2);
        assert!(!g.put_source(summary(1, 0.0, 0.0, 1.0, 1.0)));
        let query = Mbr::new(Point::new(0.1, 0.1), Point::new(0.2, 0.2));
        assert_eq!(g.candidate_sources(&query, 0.0).len(), 1);
    }

    #[test]
    fn put_source_moves_the_routing_target_of_a_known_source() {
        let mut g = DitsGlobal::build(
            vec![
                summary(0, 0.0, 0.0, 5.0, 5.0),
                summary(1, 50.0, 0.0, 55.0, 5.0),
                summary(2, 100.0, 0.0, 105.0, 5.0),
            ],
            2,
        );
        // Source 1's region moves far away; a query at its old spot must no
        // longer see it, a query at the new spot must.
        assert!(g.put_source(summary(1, -60.0, 20.0, -55.0, 25.0)));
        assert_eq!(g.source_count(), 3);
        assert!(g.check_invariants().is_ok());
        let old_spot = Mbr::new(Point::new(51.0, 1.0), Point::new(52.0, 2.0));
        assert!(g.candidate_sources(&old_spot, 0.0).is_empty());
        let new_spot = Mbr::new(Point::new(-59.0, 21.0), Point::new(-58.0, 22.0));
        let ids: Vec<SourceId> = g
            .candidate_sources(&new_spot, 0.0)
            .iter()
            .map(|s| s.source)
            .collect();
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn remove_source_prunes_it_from_candidates() {
        let mut g = DitsGlobal::build(
            (0..6)
                .map(|i| {
                    summary(
                        i as SourceId,
                        i as f64 * 10.0,
                        0.0,
                        i as f64 * 10.0 + 5.0,
                        5.0,
                    )
                })
                .collect(),
            2,
        );
        assert!(g.remove_source(3));
        assert!(!g.remove_source(3));
        assert_eq!(g.source_count(), 5);
        assert!(g.check_invariants().is_ok());
        let query = Mbr::new(Point::new(31.0, 1.0), Point::new(34.0, 2.0));
        assert!(g.candidate_sources(&query, 0.0).is_empty());
        // The remaining sources are all still reachable.
        let ids: Vec<SourceId> = g.summaries().iter().map(|s| s.source).collect();
        assert_eq!(ids, vec![0, 1, 2, 4, 5]);
    }

    #[test]
    fn emptied_leaves_do_not_leak_degenerate_geometry() {
        // Two far-apart leaves; removing both sources of one leaf must leave
        // no empty leaf whose origin placeholder widens an ancestor's MBR.
        let mut g = DitsGlobal::build(
            vec![
                summary(0, 100.0, 40.0, 105.0, 45.0),
                summary(1, 106.0, 40.0, 111.0, 45.0),
                summary(2, -100.0, -40.0, -95.0, -35.0),
                summary(3, -94.0, -40.0, -89.0, -35.0),
            ],
            2,
        );
        assert!(g.remove_source(2));
        assert!(g.remove_source(3));
        assert!(g.check_invariants().is_ok());
        // A probe with generous slack around the origin placeholder finds
        // nothing: the tree is built over the two survivors alone.
        let near_origin = Mbr::new(Point::new(-1.0, -1.0), Point::new(1.0, 1.0));
        assert!(g.candidate_sources(&near_origin, 5.0).is_empty());
        let east = Mbr::new(Point::new(101.0, 41.0), Point::new(102.0, 42.0));
        assert_eq!(g.candidate_sources(&east, 0.0).len(), 1);
    }

    #[test]
    fn source_summary_converts_cell_space_to_lonlat() {
        let grid = Grid::global(10).unwrap();
        // A root covering cells (0,0)..(1023,1023) maps back to roughly the
        // whole globe.
        let root =
            NodeGeometry::from_mbr(Mbr::new(Point::new(0.0, 0.0), Point::new(1023.0, 1023.0)));
        let s = SourceSummary::from_local_root(3, &grid, root);
        assert_eq!(s.source, 3);
        assert_eq!(s.resolution, 10);
        assert!(s.geometry.rect.min.x < -179.0);
        assert!(s.geometry.rect.max.x > 179.0);
        assert!(s.geometry.rect.min.y < -89.0);
        assert!(s.geometry.rect.max.y > 89.0);
    }

    /// One put / replace / remove sequence over eight ids and a coarse
    /// rectangle lattice (so regions touch, nest and coincide), fully
    /// determined by `case_seed`.  After every op the index must be the one
    /// `build` makes from the surviving summaries.
    fn run_mutator_case(case_seed: u64) {
        let _replay = ReplayOnPanic("run_mutator_case", case_seed);
        let mut rng = TestRng::from_name(&format!("global-{case_seed}"));
        let rect = (-6i32..6, -6i32..6, 0i32..4, 0i32..4);
        let capacity = (1usize..4).generate(&mut rng);
        let ops =
            proptest::collection::vec((0u8..3, 0u16..8, rect.clone()), 1..40).generate(&mut rng);
        let probes = proptest::collection::vec((rect, 0.0f64..25.0), 8..9).generate(&mut rng);
        let lattice = |(x, y, w, h): (i32, i32, i32, i32)| {
            Mbr::new(
                Point::new(f64::from(x) * 10.0, f64::from(y) * 10.0),
                Point::new(f64::from(x + w) * 10.0, f64::from(y + h) * 10.0),
            )
        };

        let mut index = DitsGlobal::build(Vec::new(), capacity);
        let mut survivors: BTreeMap<SourceId, SourceSummary> = BTreeMap::new();
        for (kind, id, r) in ops {
            if kind == 2 {
                assert_eq!(index.remove_source(id), survivors.remove(&id).is_some());
            } else {
                let s = SourceSummary {
                    source: id,
                    geometry: NodeGeometry::from_mbr(lattice(r)),
                    resolution: 12,
                };
                assert_eq!(index.put_source(s), survivors.insert(id, s).is_some());
            }
            let built = DitsGlobal::build(survivors.values().copied().collect(), capacity);
            assert_eq!(index.leaf_capacity(), built.leaf_capacity());
            assert_eq!(index.summaries(), built.summaries());
            assert_eq!(index.check_invariants(), Ok(()));
            for &(r, slack) in &probes {
                let probe = lattice(r);
                let routed = index.candidate_sources(&probe, slack);
                assert_eq!(routed, built.candidate_sources(&probe, slack));
                // And a function of the summaries alone: exactly the sources
                // whose region lies within the slack of the probe, at any
                // tree shape.
                let scanned: Vec<SourceSummary> = survivors
                    .values()
                    .filter(|s| s.geometry.rect.min_distance(&probe) <= slack)
                    .copied()
                    .collect();
                assert_eq!(routed, scanned);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_mutators_leave_the_index_build_makes(case_seed in any::<u64>()) {
            run_mutator_case(case_seed);
        }
    }
}
