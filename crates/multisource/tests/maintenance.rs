//! Cross-layer maintenance integration tests: random interleaved
//! insert/update/delete batches flow through
//! `MultiSourceFramework::apply_updates` (wire messages → DITS-L mutation →
//! DITS-G summary refresh), and the mutated deployment must answer every
//! query *identically* to a framework rebuilt from scratch on the mutated
//! raw data — OJSP and CJSP answers, per-source kNN, and the
//! `candidate_sources` routing decisions alike.  A divergence in any of
//! them means a maintenance path corrupted an index or let DITS-G go stale.
//!
//! A second seeded suite holds the two ways into a source to one result: the
//! same op stream sent center → wire → source as gridded cells, and applied
//! to a twin source as raw ops (`DataSource::apply_updates`), must leave
//! identical trees (`DitsLocal` equality: arena, root, config and count)
//! behind.

use dits::knn::nearest_datasets_bruteforce;
use dits::local::NodeKind;
use dits::{nearest_datasets, overlap_search, DatasetNode, InvertedIndex};
use multisource::transport::{CallOptions, TransportReply};
use multisource::{
    DataCenter, DataSource, EngineConfig, Message, MultiSourceFramework, QueryEngine, SearchError,
    SearchRequest, SourceTransport, TransportError, UpdateOp,
};
use proptest::prelude::*;
use spatial::{CellSet, Grid, Point, SourceId, SpatialDataset, SpatialError};

mod common;
use common::{build_data, every_kind, framework};

/// All five generated sources, small.
const DATA: (u32, usize, usize) = (500, 60, 5);

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
fn survivor_queries(data: &[(String, Vec<SpatialDataset>)]) -> Vec<SpatialDataset> {
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
    for request in every_kind(queries) {
        let a = maintained.search(&request).unwrap();
        let b = scratch.search(&request).unwrap();
        assert_eq!(
            a.results,
            b.results,
            "{:?} answers diverged",
            request.kind()
        );
    }

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
/// verify state (per-dataset packed blocks and boundary decompositions) and
/// the bounded kNN cutoff must be invisible after arbitrary interleaved
/// maintenance.  Every index-resident dataset is copied cache-free; the
/// distance to the resident set must equal the distance to its copy (a stale
/// cache would answer for the cells the set used to hold), and bounded kNN
/// must equal the brute force over the copies, ids included.
fn assert_verify_state_parity(maintained: &MultiSourceFramework, queries: &[SpatialDataset]) {
    for s in maintained.sources() {
        let resident = s.index().dataset_nodes();
        let fresh: Vec<DatasetNode> = resident
            .iter()
            .filter_map(|d| DatasetNode::from_cell_set(d.id, CellSet::from_cells(d.cells.iter())))
            .collect();
        assert_eq!(fresh.len(), resident.len());
        for q in queries {
            let cells = s.grid_query(q);
            if cells.is_empty() {
                continue;
            }
            for (d, copy) in resident.iter().zip(&fresh) {
                assert_eq!(
                    spatial::distance::dataset_distance(&cells, &d.cells),
                    spatial::distance::dataset_distance(&cells, &copy.cells),
                    "cached verify state diverged from a fresh copy on source {} dataset {}",
                    s.id,
                    d.id
                );
            }
            assert_eq!(
                nearest_datasets(s.index(), &cells, 4).0,
                nearest_datasets_bruteforce(&fresh, &cells, 4),
                "bounded kNN diverged on source {}",
                s.id
            );
        }
    }
}

/// Leaf-column parity on the *maintained* trees: every leaf's inverted index
/// must be, column for column, the one built from scratch over the leaf's
/// entries — the maintenance paths left no stale posting, key or count
/// behind — so OverlapSearch over the maintained tree does the work, and
/// reports the `SearchStats`, of a tree of the same shape whose leaves were
/// never patched.
fn assert_leaf_column_parity(maintained: &MultiSourceFramework) {
    for s in maintained.sources() {
        let index = s.index();
        for leaf in index.leaves() {
            let NodeKind::Leaf { entries, inverted } = &index.node(leaf).kind else {
                panic!("leaves() returned internal node {leaf} on source {}", s.id);
            };
            assert_eq!(
                *inverted,
                InvertedIndex::build(entries.iter().map(|e| (e.id, &e.cells))),
                "leaf {leaf} columns diverged from a rebuild on source {}",
                s.id
            );
        }
    }
}

/// One interleaved-maintenance case, fully determined by `case_seed`: the
/// generator seed and the op sequence are both drawn from it.
fn run_case(case_seed: u64) {
    let _replay = dits::ReplayOnPanic("run_case", case_seed);
    let mut rng = TestRng::from_name(&case_seed.to_string());
    let seed = (0u64..4).generate(&mut rng);
    let ops = proptest::collection::vec((0u8..5, 0u8..3, any::<u8>()), 1..25).generate(&mut rng);

    let mut data = build_data(DATA, seed);
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
    let queries = survivor_queries(&data);
    assert_parity(&fw, &scratch, &queries);
    assert_answer_parity(&fw, &scratch, &queries);
    assert_verify_state_parity(&fw, &queries);
    assert_leaf_column_parity(&fw);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn prop_maintenance_matches_scratch_rebuild(case_seed in any::<u64>()) {
        run_case(case_seed);
    }
}

/// An in-process transport that really goes through the codec: the request
/// is encoded and decoded before the source serves it, and so is the reply —
/// what a socket does to them, with the sources left where the test can
/// read their indexes.  Keeps the last reply as the source sent it.
#[derive(Debug)]
struct WireTransport {
    sources: std::sync::Mutex<Vec<DataSource>>,
    last_reply: std::sync::Mutex<Option<TransportReply>>,
}

impl SourceTransport for WireTransport {
    fn source_ids(&self) -> Vec<SourceId> {
        self.sources.lock().unwrap().iter().map(|s| s.id).collect()
    }

    fn call_with(
        &self,
        source: SourceId,
        request: &Message,
        opts: CallOptions,
    ) -> Result<TransportReply, TransportError> {
        let request_bytes = request.encode();
        let decoded = Message::decode(request_bytes.clone())?;
        let mut sources = self.sources.lock().unwrap();
        let src = sources
            .iter_mut()
            .find(|s| s.id == source)
            .ok_or(TransportError::UnknownSource(source))?;
        let served = src.serve(&decoded);
        let reply_bytes = served.message.encode();
        let reply = TransportReply {
            message: Message::decode(reply_bytes.clone())?,
            request_bytes: request_bytes.len(),
            reply_bytes: reply_bytes.len(),
            search: served.search.filter(|_| opts.want_stats),
            maintenance: served.maintenance.filter(|_| opts.want_stats),
            service: None,
            trace: None,
        };
        *self.last_reply.lock().unwrap() = Some(reply.clone());
        Ok(reply)
    }
}

/// A dataset for the wire-parity stream.  `shape` picks what its points do
/// to a grid: lie inside cells, sit exactly on cell borders (of θ = 10, hence
/// of θ = 12 too), straddle the edge of the space (`from_points` skips what
/// falls outside), or grid to nothing at all.
fn shaped_dataset(id: u32, salt: u32, shape: u8) -> SpatialDataset {
    let outside = [Point::new(200.0, 95.0), Point::new(-181.0, 0.0)];
    match shape % 6 {
        0..=2 => synth_dataset(id, salt),
        3 => {
            let (lon_step, lat_step) = (360.0 / 1024.0, 180.0 / 1024.0);
            let points = (0..2 + salt % 4)
                .map(|j| {
                    Point::new(
                        -180.0 + f64::from(300 + salt % 90 + j) * lon_step,
                        -90.0 + f64::from(650 + salt % 40 + j % 2) * lat_step,
                    )
                })
                .collect();
            SpatialDataset::new(id, points)
        }
        4 => {
            let mut d = synth_dataset(id, salt);
            d.points.extend(outside);
            d.points.push(Point::new(180.0, 90.0)); // the space's own corner
            d
        }
        _ if salt.is_multiple_of(2) => SpatialDataset::new(id, Vec::new()),
        _ => SpatialDataset::new(id, outside.to_vec()),
    }
}

/// One wire-parity case, fully determined by `case_seed`: a coarse source
/// (θ = 10, seeded with data) and a fine one (θ = 12, empty at first, so the
/// center has to poll it for its resolution) each receive the same batches
/// twice — as cells through [`WireTransport`], as raw ops on a twin.
fn run_wire_case(case_seed: u64) {
    let _replay = dits::ReplayOnPanic("run_wire_case", case_seed);
    let mut rng = TestRng::from_name(&format!("wire-{case_seed}"));
    let batches = proptest::collection::vec(
        (
            0u8..2,
            proptest::collection::vec((0u8..3, any::<u8>(), any::<u8>()), 1..5),
        ),
        4..16,
    )
    .generate(&mut rng);

    let seeded: Vec<SpatialDataset> = (0..12).map(|i| synth_dataset(i, i * 5 + 1)).collect();
    let mut twins = vec![
        DataSource::build(
            0,
            "coarse",
            Grid::global(10).unwrap(),
            &seeded,
            Default::default(),
        ),
        DataSource::build(
            1,
            "fine",
            Grid::global(12).unwrap(),
            &[],
            Default::default(),
        ),
    ];
    let wire = WireTransport {
        sources: std::sync::Mutex::new(twins.clone()),
        last_reply: std::sync::Mutex::new(None),
    };
    let mut center = DataCenter::from_transport(&wire, 10).unwrap();
    assert_eq!(center.global().source_count(), 1);

    let mut seq = 0u32;
    for (src_sel, raw_ops) in batches {
        let source = SourceId::from(src_sel);
        let twin = &mut twins[usize::from(src_sel)];
        let live: Vec<u32> = twin.dataset_nodes().iter().map(|n| n.id).collect();
        let target = |x: u8, seq: u32| {
            if live.is_empty() || x.is_multiple_of(5) {
                200_000 + seq
            } else {
                live[usize::from(x) % live.len()]
            }
        };
        let ops: Vec<UpdateOp> = raw_ops
            .into_iter()
            .map(|(kind, x, shape)| {
                seq += 1;
                match kind {
                    0 if x.is_multiple_of(4) => {
                        UpdateOp::Insert(shaped_dataset(target(x, seq), seq, shape))
                    }
                    0 => UpdateOp::Insert(shaped_dataset(100_000 + seq, seq, shape)),
                    1 => UpdateOp::Update(shaped_dataset(target(x, seq), seq * 7, shape)),
                    _ => UpdateOp::Delete(target(x, seq)),
                }
            })
            .collect();

        let registered = center
            .global()
            .summaries()
            .iter()
            .any(|s| s.source == source);
        let index_before = twin.index().clone();
        let over_wire = center.apply_updates(&wire, source, &ops);
        match twin.apply_updates(&ops) {
            Ok((summary, stats)) => {
                let outcome = over_wire.unwrap();
                assert_eq!(outcome.summary, summary);
                // The source's own reply and statistics, as they crossed —
                // with no block: the center grew its sketch before sending.
                let reply = wire.last_reply.lock().unwrap().take().unwrap();
                assert_eq!(
                    reply.message,
                    Message::SummaryRefresh {
                        summary,
                        dataset_count: twin.dataset_count() as u64,
                        applied: stats.applied() as u64,
                        rejected: stats.rejected as u64,
                        blocks: CellSet::new(),
                    }
                );
                // Which holds every block the source holds data in.
                let after = twin.index().sketch();
                let held = center.sketch(source);
                assert_eq!(held.is_some(), twin.dataset_count() > 0);
                if let Some(held) = held {
                    assert_eq!(held.intersection_size(&after), after.len());
                }
                assert_eq!(reply.maintenance, Some(stats));
                // One source contacted; a source DITS-G held no summary of
                // cost one poll more, and the poll's bytes are counted.
                let exchanges = if registered { 1 } else { 2 };
                assert_eq!(outcome.comm.sources_contacted, 1);
                assert_eq!(outcome.comm.requests, exchanges);
                assert_eq!(outcome.comm.replies, exchanges);
                let poll = Message::summary_poll().wire_size();
                assert_eq!(
                    outcome.comm.bytes_to_sources,
                    reply.request_bytes + (exchanges - 1) * poll
                );
            }
            Err(e) => {
                // A dataset gridding to nothing: the center refuses the
                // batch in the raw path's own words, and neither side moved.
                assert_eq!(e, SpatialError::EmptyDataset);
                assert_eq!(
                    over_wire.unwrap_err(),
                    SearchError::Rejected {
                        detail: e.to_string()
                    }
                );
                assert_eq!(*twin.index(), index_before);
            }
        }
    }

    // Identical trees on both sides of the wire.
    let sources = wire.sources.lock().unwrap().clone();
    for (over_wire, twin) in sources.iter().zip(&twins) {
        assert_eq!(over_wire.grid().resolution(), twin.grid().resolution());
        assert!(
            over_wire.index() == twin.index(),
            "source {} diverged from its raw-op twin",
            twin.id
        );
    }

    // And identical OJSP answers: per source with its statistics, and
    // through the engine against a center built from the twins.
    let queries: Vec<SpatialDataset> = (0..6)
        .map(|i| shaped_dataset(900_000 + i, i * 13, 0))
        .chain((0..3).map(|i| shaped_dataset(900_010 + i, i * 29, 3)))
        .collect();
    for (over_wire, twin) in sources.iter().zip(&twins) {
        for q in &queries {
            let cells = twin.grid_query(q);
            assert_eq!(
                overlap_search(over_wire.index(), &cells, 5),
                overlap_search(twin.index(), &cells, 5)
            );
        }
    }
    let twin_center = DataCenter::build(&twins, 10);
    assert_eq!(
        center.global().summaries(),
        twin_center.global().summaries()
    );
    let request = SearchRequest::ojsp_batch(queries).k(5);
    let config = EngineConfig::default();
    let answered = QueryEngine::new(&center, &wire, config)
        .run(&request)
        .unwrap();
    let expected = QueryEngine::in_process(&twin_center, &twins, config)
        .run(&request)
        .unwrap();
    assert_eq!(answered.results, expected.results);
    // The same routing; the maintained center may still hold blocks a
    // deleted dataset vacated, and send cells there that the twins' center
    // leaves out.
    assert_eq!(
        answered.comm.sources_contacted,
        expected.comm.sources_contacted
    );
    assert!(answered.comm.requests >= expected.comm.requests);
    assert!(answered.comm.bytes_to_sources >= expected.comm.bytes_to_sources);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_cells_over_the_wire_match_raw_ops_on_a_twin(case_seed in any::<u64>()) {
        run_wire_case(case_seed);
    }
}

#[test]
fn sustained_churn_leaves_the_center_a_scratch_build_makes() {
    let mut data = build_data(DATA, 7);
    let mut fw = framework(&data);
    let mut rebuilds = 0usize;
    // Every batch changes one summary, and every change is one build.
    for i in 0..20u32 {
        let src = (i % 5) as usize;
        let d = synth_dataset(300_000 + i, i * 3 + 1);
        data[src].1.push(d.clone());
        let outcome = fw
            .apply_updates(src as SourceId, &[UpdateOp::Insert(d)])
            .unwrap();
        rebuilds += outcome.stats.global_rebuilds;
    }
    assert_eq!(rebuilds, 20);
    let scratch = framework(&data);
    let queries = survivor_queries(&data);
    assert_parity(&fw, &scratch, &queries);
    assert_answer_parity(&fw, &scratch, &queries);
    assert_verify_state_parity(&fw, &queries);
    // Not sampled parity but identity: the maintained DITS-G is the one the
    // scratch framework built — `build` over the same capacity and summaries.
    let (maintained, built) = (fw.center().global(), scratch.center().global());
    assert_eq!(maintained.leaf_capacity(), built.leaf_capacity());
    assert_eq!(maintained.summaries(), built.summaries());
}

#[test]
fn draining_a_source_drops_it_from_global_routing_until_data_returns() {
    let mut data = build_data(DATA, 5);
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
    let queries = survivor_queries(&data);
    assert_parity(&fw, &scratch, &queries);
    assert_answer_parity(&fw, &scratch, &queries);

    // Give the source data again: it is readmitted and routable.
    // DITS-G holds no summary to read the source's resolution from any
    // more, so this batch polls first: one source, two exchanges.
    let refill = synth_dataset(700_001, 9);
    let outcome = fw
        .apply_updates(drained, &[UpdateOp::Insert(refill.clone())])
        .unwrap();
    assert_eq!(outcome.comm.sources_contacted, 1);
    assert_eq!(outcome.comm.requests, 2);
    assert_eq!(outcome.comm.replies, 2);
    assert_eq!(outcome.stats.summary_refreshes, 1);
    data[usize::from(drained)].1.push(refill.clone());
    assert_eq!(fw.center().global().source_count(), 5);
    let response = fw
        .search(&SearchRequest::ojsp(refill.clone()).k(1))
        .unwrap();
    let answer = &response.overlap().unwrap()[0];
    assert_eq!(answer.results[0].0, drained);
    assert_eq!(answer.results[0].1.dataset, 700_001);
    let scratch = framework(&data);
    let queries = survivor_queries(&data);
    assert_parity(&fw, &scratch, &queries);
}

#[test]
fn a_center_recovers_maintained_summaries_by_polling() {
    let mut data = build_data(DATA, 3);
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

    let queries = survivor_queries(&data);
    // The center recovers the way it bootstraps, by polling the sources,
    // and so cannot come back with a summary from before the batches.
    let global = fw.center().global();
    let polled = multisource::transport::InProcessTransport::new(fw.sources());
    let recovered = DataCenter::from_transport(&polled, global.leaf_capacity()).unwrap();
    assert_eq!(recovered.global().summaries(), global.summaries());
    for q in &queries {
        if let Some(rect) = q.mbr() {
            assert_eq!(
                recovered.global().candidate_sources(&rect, 1.0),
                global.candidate_sources(&rect, 1.0)
            );
        }
    }
}
