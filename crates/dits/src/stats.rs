//! Search statistics: counters reported by the search algorithms so the
//! benchmark harness can explain *why* a strategy is faster, not only that it
//! is.

use serde::{Deserialize, Serialize};

/// Counters accumulated during one search invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Tree nodes visited (internal + leaf).
    pub nodes_visited: usize,
    /// Subtrees pruned by MBR disjointness or distance bounds.
    pub nodes_pruned: usize,
    /// Leaves whose datasets were all skipped thanks to the overlap bounds.
    pub leaves_pruned_by_bounds: usize,
    /// Leaves whose posting lists were scanned for exact verification.
    pub leaves_verified: usize,
    /// Individual datasets for which an exact intersection / gain / distance
    /// was computed.
    pub exact_computations: usize,
    /// Candidate datasets that survived filtering.
    pub candidates: usize,
    /// Bound tests the distance kernel ran for the exact distances and
    /// δ-tests counted in `exact_computations`: box-gap tests between
    /// super-blocks, tiles and super-blocks, and tiles (kNN and CJSP).
    pub bound_tests: usize,
}

impl SearchStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges counters from another statistics block (used when aggregating
    /// per-source statistics at the data center).
    pub fn merge(&mut self, other: &SearchStats) {
        self.nodes_visited += other.nodes_visited;
        self.nodes_pruned += other.nodes_pruned;
        self.leaves_pruned_by_bounds += other.leaves_pruned_by_bounds;
        self.leaves_verified += other.leaves_verified;
        self.exact_computations += other.exact_computations;
        self.candidates += other.candidates;
        self.bound_tests += other.bound_tests;
    }
}

impl SearchStats {
    /// The counters as a fixed-order array, the form the multi-source frame
    /// codec puts on the wire.  Field order is part of the wire contract:
    /// append new counters at the end, never reorder.
    pub fn to_array(&self) -> [u64; 7] {
        [
            self.nodes_visited as u64,
            self.nodes_pruned as u64,
            self.leaves_pruned_by_bounds as u64,
            self.leaves_verified as u64,
            self.exact_computations as u64,
            self.candidates as u64,
            self.bound_tests as u64,
        ]
    }

    /// Rebuilds a statistics block from its wire array (see
    /// [`Self::to_array`]).
    pub fn from_array(a: [u64; 7]) -> Self {
        Self {
            nodes_visited: a[0] as usize,
            nodes_pruned: a[1] as usize,
            leaves_pruned_by_bounds: a[2] as usize,
            leaves_verified: a[3] as usize,
            exact_computations: a[4] as usize,
            candidates: a[5] as usize,
            bound_tests: a[6] as usize,
        }
    }
}

impl std::iter::Sum for SearchStats {
    fn sum<I: Iterator<Item = SearchStats>>(iter: I) -> Self {
        let mut total = SearchStats::new();
        for block in iter {
            total.merge(&block);
        }
        total
    }
}

impl<'a> std::iter::Sum<&'a SearchStats> for SearchStats {
    fn sum<I: Iterator<Item = &'a SearchStats>>(iter: I) -> Self {
        let mut total = SearchStats::new();
        for block in iter {
            total.merge(block);
        }
        total
    }
}

/// Counters accumulated while applying maintenance operations (Appendix
/// IX-C) to the local and global indexes.  The multi-source maintenance
/// pipeline threads one block per `ApplyUpdates` batch so the harness (and
/// operators) can see *how* the indexes absorbed a batch — how many updates
/// relocated a dataset across leaves, how often an emptied leaf was
/// collapsed into its sibling, and how often the data center built DITS-G
/// anew.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintenanceStats {
    /// Datasets inserted into a local index.
    pub inserts: usize,
    /// Datasets updated in place or via relocation.
    pub updates: usize,
    /// Datasets deleted from a local index.
    pub deletes: usize,
    /// Operations rejected because the target id was missing (update /
    /// delete) or already present (insert).
    pub rejected: usize,
    /// Updates whose new pivot left the old leaf's MBR, forcing a
    /// delete-and-reinsert instead of an in-place replacement.
    pub reinserts: usize,
    /// Leaves split because an insert pushed them over the capacity `f`.
    pub leaf_splits: usize,
    /// Emptied leaves collapsed into their sibling after a delete.
    pub leaf_collapses: usize,
    /// Source summaries put into DITS-G (replaced or newly registered).
    pub summary_refreshes: usize,
    /// DITS-G builds: one per change to its summaries, removals included.
    pub global_rebuilds: usize,
}

impl MaintenanceStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges counters from another statistics block.
    pub fn merge(&mut self, other: &MaintenanceStats) {
        self.inserts += other.inserts;
        self.updates += other.updates;
        self.deletes += other.deletes;
        self.rejected += other.rejected;
        self.reinserts += other.reinserts;
        self.leaf_splits += other.leaf_splits;
        self.leaf_collapses += other.leaf_collapses;
        self.summary_refreshes += other.summary_refreshes;
        self.global_rebuilds += other.global_rebuilds;
    }

    /// Operations that actually mutated an index.
    pub fn applied(&self) -> usize {
        self.inserts + self.updates + self.deletes
    }
}

impl MaintenanceStats {
    /// The counters as a fixed-order array for the multi-source frame codec.
    /// Field order is part of the wire contract: append, never reorder.
    pub fn to_array(&self) -> [u64; 9] {
        [
            self.inserts as u64,
            self.updates as u64,
            self.deletes as u64,
            self.rejected as u64,
            self.reinserts as u64,
            self.leaf_splits as u64,
            self.leaf_collapses as u64,
            self.summary_refreshes as u64,
            self.global_rebuilds as u64,
        ]
    }

    /// Rebuilds a statistics block from its wire array (see
    /// [`Self::to_array`]).
    pub fn from_array(a: [u64; 9]) -> Self {
        Self {
            inserts: a[0] as usize,
            updates: a[1] as usize,
            deletes: a[2] as usize,
            rejected: a[3] as usize,
            reinserts: a[4] as usize,
            leaf_splits: a[5] as usize,
            leaf_collapses: a[6] as usize,
            summary_refreshes: a[7] as usize,
            global_rebuilds: a[8] as usize,
        }
    }
}

impl std::iter::Sum for MaintenanceStats {
    fn sum<I: Iterator<Item = MaintenanceStats>>(iter: I) -> Self {
        let mut total = MaintenanceStats::new();
        for block in iter {
            total.merge(&block);
        }
        total
    }
}

impl<'a> std::iter::Sum<&'a MaintenanceStats> for MaintenanceStats {
    fn sum<I: Iterator<Item = &'a MaintenanceStats>>(iter: I) -> Self {
        let mut total = MaintenanceStats::new();
        for block in iter {
            total.merge(block);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintenance_stats_merge_and_sum() {
        let a = MaintenanceStats {
            inserts: 1,
            updates: 2,
            deletes: 3,
            rejected: 1,
            reinserts: 1,
            leaf_splits: 2,
            leaf_collapses: 1,
            summary_refreshes: 4,
            global_rebuilds: 1,
        };
        let total: MaintenanceStats = [a, a].iter().sum();
        assert_eq!(total.inserts, 2);
        assert_eq!(total.deletes, 6);
        assert_eq!(total.global_rebuilds, 2);
        assert_eq!(a.applied(), 6);
        assert_eq!(MaintenanceStats::new(), MaintenanceStats::default());
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = SearchStats {
            nodes_visited: 1,
            nodes_pruned: 2,
            leaves_pruned_by_bounds: 3,
            leaves_verified: 4,
            exact_computations: 5,
            candidates: 6,
            bound_tests: 7,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.nodes_visited, 2);
        assert_eq!(a.nodes_pruned, 4);
        assert_eq!(a.leaves_pruned_by_bounds, 6);
        assert_eq!(a.leaves_verified, 8);
        assert_eq!(a.exact_computations, 10);
        assert_eq!(a.candidates, 12);
        assert_eq!(a.bound_tests, 14);
        assert_eq!(SearchStats::from_array(a.to_array()), a);
    }

    #[test]
    fn default_is_zeroed() {
        assert_eq!(SearchStats::new(), SearchStats::default());
        assert_eq!(SearchStats::new().nodes_visited, 0);
    }

    #[test]
    fn sum_matches_repeated_merge() {
        let blocks: Vec<SearchStats> = (0..5)
            .map(|i| SearchStats {
                nodes_visited: i,
                candidates: 2 * i,
                ..SearchStats::new()
            })
            .collect();
        let by_sum: SearchStats = blocks.iter().sum();
        let mut by_merge = SearchStats::new();
        for b in &blocks {
            by_merge.merge(b);
        }
        assert_eq!(by_sum, by_merge);
        assert_eq!(by_sum.nodes_visited, 10);
        assert_eq!(by_sum.candidates, 20);
        let owned: SearchStats = blocks.into_iter().sum();
        assert_eq!(owned, by_merge);
    }
}
