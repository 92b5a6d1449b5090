//! Cross-layer maintenance integration tests: random interleaved
//! insert/update/delete batches flow through
//! `MultiSourceFramework::apply_updates` (wire messages → DITS-L mutation →
//! DITS-G summary refresh), and the mutated deployment must answer every
//! query *identically* to a framework rebuilt from scratch on the mutated
//! raw data — OJSP and CJSP answers, per-source kNN, and the
//! `candidate_sources` routing decisions alike.  A divergence in any of
//! them means a maintenance path corrupted an index or let DITS-G go stale.

use datagen::{generate_source, paper_sources, GeneratorConfig, SourceScale};
use dits::{
    decode_global, decode_local, encode_global, encode_local, nearest_datasets,
    nearest_datasets_unbounded, overlap_search,
};
use multisource::{
    DistributionStrategy, FrameworkConfig, MultiSourceFramework, SearchRequest, UpdateOp,
};
use proptest::prelude::*;
use spatial::{Point, SourceId, SpatialDataset};

fn build_data(seed: u64) -> Vec<(String, Vec<SpatialDataset>)> {
    let config = GeneratorConfig {
        scale: SourceScale::Custom(500),
        seed,
        max_points_per_dataset: Some(60),
    };
    paper_sources()
        .iter()
        .map(|p| (p.name.to_string(), generate_source(p, &config)))
        .collect()
}

fn framework(data: &[(String, Vec<SpatialDataset>)]) -> MultiSourceFramework {
    MultiSourceFramework::build(
        data,
        FrameworkConfig {
            resolution: 11,
            strategy: DistributionStrategy::PrunedClipped,
            ..FrameworkConfig::default()
        },
    )
}

/// A small synthetic dataset whose placement is a deterministic function of
/// `salt`, scattered across the North-Atlantic quadrant the generated
/// sources also live in.
fn synth_dataset(id: u32, salt: u32) -> SpatialDataset {
    let base_lon = -90.0 + f64::from(salt % 40) * 0.7;
    let base_lat = 30.0 + f64::from(salt % 17) * 0.5;
    let points = (0..3 + salt % 5)
        .map(|j| {
            Point::new(
                base_lon + f64::from(j) * 0.01,
                base_lat + f64::from(j % 3) * 0.01,
            )
        })
        .collect();
    SpatialDataset::new(id, points)
}

/// Picks a mostly-live target id: a miss every fifth draw (and whenever the
/// source is empty) so update/delete rejection stays exercised.
fn pick_id(datasets: &[SpatialDataset], x: u8, seq: u32) -> u32 {
    if datasets.is_empty() || x.is_multiple_of(5) {
        200_000 + seq
    } else {
        datasets[usize::from(x) % datasets.len()].id
    }
}

/// Queries probing the mutated deployment: one surviving dataset per source
/// plus a fixed synthetic box, so empty and non-empty regions are covered.
fn probe_queries(data: &[(String, Vec<SpatialDataset>)]) -> Vec<SpatialDataset> {
    let mut queries: Vec<SpatialDataset> = data
        .iter()
        .filter_map(|(_, d)| d.first().cloned())
        .collect();
    queries.push(synth_dataset(999_999, 13));
    queries
}

/// Asserts that the incrementally maintained framework and the
/// scratch-rebuilt one are structurally sound and route identically.
fn assert_parity(
    maintained: &MultiSourceFramework,
    scratch: &MultiSourceFramework,
    queries: &[SpatialDataset],
) {
    // Structural invariants on every layer.
    maintained.center().global().check_invariants().unwrap();
    for s in maintained.sources() {
        s.index().check_invariants().unwrap();
    }

    // DITS-G holds byte-identical summaries…
    assert_eq!(
        maintained.center().global().summaries(),
        scratch.center().global().summaries()
    );

    // …and routes every probe identically (the pruning-decision parity the
    // maintenance protocol exists to preserve).
    for q in queries {
        if let Some(rect) = q.mbr() {
            for delta in [0.0, 2.5] {
                assert_eq!(
                    maintained.center().global().candidate_sources(&rect, delta),
                    scratch.center().global().candidate_sources(&rect, delta),
                );
            }
        }
    }
}

/// Full query-answer parity over a set of probe queries.
fn assert_answer_parity(
    maintained: &MultiSourceFramework,
    scratch: &MultiSourceFramework,
    queries: &[SpatialDataset],
) {
    let a = maintained.engine().run_ojsp(queries, 5).unwrap();
    let b = scratch.engine().run_ojsp(queries, 5).unwrap();
    assert_eq!(a.answers, b.answers, "OJSP answers diverged");

    let a = maintained.engine().run_cjsp(queries, 3).unwrap();
    let b = scratch.engine().run_cjsp(queries, 3).unwrap();
    assert_eq!(a.answers, b.answers, "CJSP answers diverged");

    // Multi-source kNN parity through the unified request API.
    let a = maintained
        .search(&SearchRequest::knn_batch(queries.to_vec()).k(4))
        .unwrap();
    let b = scratch
        .search(&SearchRequest::knn_batch(queries.to_vec()).k(4))
        .unwrap();
    assert_eq!(a.results, b.results, "multi-source kNN diverged");

    // Per-source kNN parity: the maintained local trees must rank datasets
    // exactly like trees built from scratch on the same content.
    for (ms, ss) in maintained.sources().iter().zip(scratch.sources()) {
        assert_eq!(ms.id, ss.id);
        for q in queries {
            let cells = ms.grid_query(q);
            if cells.is_empty() {
                continue;
            }
            let (mine, _) = nearest_datasets(ms.index(), &cells, 4);
            let (theirs, _) = nearest_datasets(ss.index(), &cells, 4);
            assert_eq!(mine, theirs, "kNN diverged on source {}", ms.id);
        }
    }
}

/// Verification-kernel parity on the *maintained* trees: the lazily-cached
/// verify state (per-node sorted coordinate decompositions) and the bounded
/// kNN sweep cutoff must be invisible after arbitrary interleaved
/// maintenance.  Every dataset distance computed through the cached sweep
/// must equal the fresh decompose-and-sort oracle, and bounded kNN must be
/// byte-identical (answers *and* stats) to the unbounded oracle.
fn assert_verify_state_parity(maintained: &MultiSourceFramework, queries: &[SpatialDataset]) {
    for s in maintained.sources() {
        for q in queries {
            let cells = s.grid_query(q);
            if cells.is_empty() {
                continue;
            }
            for d in s.index().dataset_nodes() {
                let cached = spatial::distance::dataset_distance(&cells, &d.cells);
                let fresh = spatial::distance::dataset_distance_uncached(&cells, &d.cells);
                assert_eq!(
                    cached, fresh,
                    "cached sweep diverged from fresh oracle on source {} dataset {}",
                    s.id, d.id
                );
            }
            let (fast, fast_stats) = nearest_datasets(s.index(), &cells, 4);
            let (oracle, oracle_stats) = nearest_datasets_unbounded(s.index(), &cells, 4);
            assert_eq!(fast, oracle, "bounded kNN diverged on source {}", s.id);
            assert_eq!(
                fast_stats, oracle_stats,
                "kNN stats diverged on source {}",
                s.id
            );
        }
    }
}

/// Leaf-column parity on the *maintained* trees: decoding a tree's image
/// rebuilds every leaf's inverted index from its entries on the same tree
/// shape, so OverlapSearch over the maintained tree must return the same
/// answers **and** the same `SearchStats` as over that from-scratch rebuild —
/// the maintenance paths left no stale posting, bound set or count behind.
fn assert_leaf_column_parity(maintained: &MultiSourceFramework, queries: &[SpatialDataset]) {
    for s in maintained.sources() {
        let rebuilt = decode_local(&encode_local(s.index())).unwrap();
        rebuilt.check_invariants().unwrap();
        for q in queries {
            let cells = s.grid_query(q);
            assert_eq!(
                overlap_search(s.index(), &cells, 5),
                overlap_search(&rebuilt, &cells, 5),
                "OJSP answers or stats diverged from rebuilt columns on source {}",
                s.id
            );
        }
    }
}

/// Prints how to replay a failing case: the vendored proptest neither
/// shrinks nor reports its inputs, and every input here derives from one
/// seed.
struct ReplayOnPanic(u64);

impl Drop for ReplayOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "maintenance case failed; replay it with `run_case({})` from a #[test]",
                self.0
            );
        }
    }
}

/// One interleaved-maintenance case, fully determined by `case_seed`: the
/// generator seed and the op sequence are both drawn from it.
fn run_case(case_seed: u64) {
    let _replay = ReplayOnPanic(case_seed);
    let mut rng = TestRng::from_name(&case_seed.to_string());
    let seed = (0u64..4).generate(&mut rng);
    let ops = proptest::collection::vec((0u8..5, 0u8..3, any::<u8>()), 1..25).generate(&mut rng);

    let mut data = build_data(seed);
    let mut fw = framework(&data);
    let mut seq = 0u32;
    let mut expected_applied = 0usize;
    let mut expected_rejected = 0usize;
    let mut total = dits::MaintenanceStats::new();

    for (src_sel, kind, x) in ops {
        let src = usize::from(src_sel);
        let source_id = src as SourceId;
        let datasets = &mut data[src].1;
        seq += 1;
        let op = match kind {
            0 => {
                // Mostly fresh inserts; every fourth draw reuses a live
                // id so duplicate rejection is exercised.
                let id = if x.is_multiple_of(4) && !datasets.is_empty() {
                    datasets[usize::from(x) % datasets.len()].id
                } else {
                    100_000 + seq
                };
                UpdateOp::Insert(synth_dataset(id, seq))
            }
            1 => UpdateOp::Update(synth_dataset(
                pick_id(datasets, x, seq),
                seq.wrapping_mul(7) % 600,
            )),
            _ => UpdateOp::Delete(pick_id(datasets, x, seq)),
        };

        // Mirror the op on the shadow model with the documented
        // semantics: structural errors are impossible here (synthetic
        // datasets are never empty), individual misses are skipped.
        match &op {
            UpdateOp::Insert(d) => {
                if datasets.iter().any(|e| e.id == d.id) {
                    expected_rejected += 1;
                } else {
                    datasets.push(d.clone());
                    expected_applied += 1;
                }
            }
            UpdateOp::Update(d) => {
                if let Some(e) = datasets.iter_mut().find(|e| e.id == d.id) {
                    *e = d.clone();
                    expected_applied += 1;
                } else {
                    expected_rejected += 1;
                }
            }
            UpdateOp::Delete(id) => {
                let before = datasets.len();
                datasets.retain(|e| e.id != *id);
                if datasets.len() < before {
                    expected_applied += 1;
                } else {
                    expected_rejected += 1;
                }
            }
        }

        let outcome = fw
            .apply_updates(source_id, std::slice::from_ref(&op))
            .unwrap();
        total.merge(&outcome.stats);
    }

    assert_eq!(total.applied(), expected_applied);
    assert_eq!(total.rejected, expected_rejected);

    let scratch = framework(&data);
    let queries = probe_queries(&data);
    assert_parity(&fw, &scratch, &queries);
    assert_answer_parity(&fw, &scratch, &queries);
    assert_verify_state_parity(&fw, &queries);
    assert_leaf_column_parity(&fw, &queries);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn prop_maintenance_matches_scratch_rebuild(case_seed in any::<u64>()) {
        run_case(case_seed);
    }
}

#[test]
fn sustained_churn_triggers_global_rebuild_without_losing_parity() {
    let mut data = build_data(7);
    let mut fw = framework(&data);
    let mut rebuilds = 0usize;
    // Every batch refreshes one summary in place; with five sources the
    // degradation heuristic must fire well within twenty batches.
    for i in 0..20u32 {
        let src = (i % 5) as usize;
        let d = synth_dataset(300_000 + i, i * 3 + 1);
        data[src].1.push(d.clone());
        let outcome = fw
            .apply_updates(src as SourceId, &[UpdateOp::Insert(d)])
            .unwrap();
        rebuilds += outcome.stats.global_rebuilds;
    }
    assert!(rebuilds >= 1, "churn heuristic never triggered a rebuild");
    let scratch = framework(&data);
    let queries = probe_queries(&data);
    assert_parity(&fw, &scratch, &queries);
    assert_answer_parity(&fw, &scratch, &queries);
    assert_verify_state_parity(&fw, &queries);
}

#[test]
fn draining_a_source_drops_it_from_global_routing_until_data_returns() {
    let mut data = build_data(5);
    let mut fw = framework(&data);
    let drained: SourceId = 2;

    // Delete every dataset of one source through the pipeline.
    let ids: Vec<u32> = data[usize::from(drained)].1.iter().map(|d| d.id).collect();
    let ops: Vec<UpdateOp> = ids.iter().map(|id| UpdateOp::Delete(*id)).collect();
    let outcome = fw.apply_updates(drained, &ops).unwrap();
    assert_eq!(outcome.stats.deletes, ids.len());
    data[usize::from(drained)].1.clear();

    // The emptied source leaves DITS-G entirely: no degenerate placeholder
    // summary survives to attract origin-adjacent queries, and routing
    // matches a framework built from scratch on the drained data.
    assert_eq!(fw.center().global().source_count(), 4);
    assert!(fw
        .center()
        .global()
        .summaries()
        .iter()
        .all(|s| s.source != drained));
    let scratch = framework(&data);
    let queries = probe_queries(&data);
    assert_parity(&fw, &scratch, &queries);
    assert_answer_parity(&fw, &scratch, &queries);

    // Give the source data again: it is readmitted and routable.
    let refill = synth_dataset(700_001, 9);
    fw.apply_updates(drained, &[UpdateOp::Insert(refill.clone())])
        .unwrap();
    data[usize::from(drained)].1.push(refill.clone());
    assert_eq!(fw.center().global().source_count(), 5);
    let response = fw
        .search(&SearchRequest::ojsp(refill.clone()).k(1))
        .unwrap();
    let answer = &response.overlap().unwrap()[0];
    assert_eq!(answer.results[0].0, drained);
    assert_eq!(answer.results[0].1.dataset, 700_001);
    let scratch = framework(&data);
    let queries = probe_queries(&data);
    assert_parity(&fw, &scratch, &queries);
}

#[test]
fn maintained_indexes_survive_a_persistence_round_trip() {
    let mut data = build_data(3);
    let mut fw = framework(&data);
    // A mixed batch per source: grow, move, shrink.
    for src in 0..5u16 {
        let fresh = synth_dataset(400_000 + u32::from(src), u32::from(src) * 11 + 2);
        let victim = data[usize::from(src)].1[0].id;
        let moved_target = data[usize::from(src)].1[1].id;
        let moved = synth_dataset(moved_target, u32::from(src) * 17 + 5);
        let ops = vec![
            UpdateOp::Insert(fresh.clone()),
            UpdateOp::Update(moved.clone()),
            UpdateOp::Delete(victim),
        ];
        let outcome = fw.apply_updates(src, &ops).unwrap();
        assert_eq!(outcome.stats.applied(), 3);
        let shadow = &mut data[usize::from(src)].1;
        shadow.retain(|e| e.id != victim);
        if let Some(e) = shadow.iter_mut().find(|e| e.id == moved_target) {
            *e = moved;
        }
        shadow.push(fresh);
    }

    // Every mutated local index round-trips losslessly and keeps answering
    // identically.
    let queries = probe_queries(&data);
    for s in fw.sources() {
        let decoded = decode_local(&encode_local(s.index())).unwrap();
        assert_eq!(decoded.dataset_count(), s.dataset_count());
        for q in &queries {
            let cells = s.grid_query(q);
            assert_eq!(
                overlap_search(&decoded, &cells, 5).0,
                overlap_search(s.index(), &cells, 5).0,
            );
        }
    }

    // The center's mutated DITS-G round-trips through the new global image:
    // a restarted center recovers every refreshed summary (and the churn
    // state) without re-polling the sources.
    let global = fw.center().global();
    let decoded = decode_global(&encode_global(global)).unwrap();
    assert_eq!(decoded.summaries(), global.summaries());
    assert_eq!(decoded.churn(), global.churn());
    for q in &queries {
        if let Some(rect) = q.mbr() {
            assert_eq!(
                decoded.candidate_sources(&rect, 1.0),
                global.candidate_sources(&rect, 1.0)
            );
        }
    }
}
