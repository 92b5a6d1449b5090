//! Federated CJSP with cells on demand is exact: whatever the federation
//! looks like, the engine's answer — replies that carry cells only for the
//! picks the query itself connects, stubs for the rest, fetches while a stub
//! could still beat a pick — is the answer of the protocol it replaced, in
//! which every pick of every source travelled with its cells and the center
//! aggregated them all.  That protocol lives on here as a transport
//! ([`every_pick_inline`]) under the same engine, full `AggregatedCoverage`
//! equality, and bounds what the new one may put on the wire.

use std::sync::atomic::{AtomicUsize, Ordering};

use dits::{Neighbor, ReplayOnPanic};
use multisource::{
    AggregatedCoverage, CandidateCells, CoverageCandidate, DataCenter, DataSource, EngineConfig,
    InProcessTransport, Message, QueryEngine, SearchError, SearchRequest, SearchResponse,
    SourceTransport, TransportError,
};
use proptest::prelude::*;
use spatial::{Point, SourceId, SpatialDataset};

mod common;
use common::{dataset, polled_center, source, with_dead_source, Intercepted, STRATEGIES};

/// The protocol before cells travelled on demand, as a transport over
/// in-process sources: every candidate of a `CoverageReply` comes back with
/// its cells, so the engine above it never sees a stub, never fetches, and
/// reduces by aggregating every pick of every source — the oracle.  With
/// `without_stubs_of`, that source's stubs are left out instead: what a
/// degraded run aggregates once the source has failed a fetch.  `stubs`
/// counts the stubs turned into cells or left out.
fn every_pick_inline<'a>(
    sources: &'a [DataSource],
    without_stubs_of: Option<SourceId>,
    stubs: &'a AtomicUsize,
) -> Intercepted<'a> {
    Intercepted::rewriting(sources, move |source, message| {
        let Message::CoverageReply { candidates, .. } = message else {
            return;
        };
        let is_stub = |c: &CoverageCandidate| matches!(c.cells, CandidateCells::Stub(_));
        stubs.fetch_add(
            candidates.iter().filter(|c| is_stub(c)).count(),
            Ordering::Relaxed,
        );
        if without_stubs_of == Some(source) {
            candidates.retain(|c| !is_stub(c));
        }
        let owner = sources
            .iter()
            .find(|s| s.id == source)
            .expect("the call reached this source");
        for candidate in candidates.iter_mut().filter(|c| is_stub(c)) {
            let (_, node) = owner
                .index()
                .find_dataset(candidate.dataset)
                .expect("a source names its own datasets");
            candidate.cells = CandidateCells::Inline(node.cells.clone());
        }
    })
}

const FETCH_REFUSED: &str = "connection refused (injected)";

/// In-process sources of which `dead` answers every query and no fetch.
fn dead_for_fetches(sources: &[DataSource], dead: SourceId) -> Intercepted<'_> {
    with_dead_source(
        sources,
        dead,
        true,
        TransportError::Io(FETCH_REFUSED.to_string()),
    )
}

fn run(
    center: &DataCenter,
    transport: &dyn SourceTransport,
    request: &SearchRequest,
) -> SearchResponse {
    QueryEngine::new(center, transport, EngineConfig::default())
        .run(request)
        .expect("in-process CJSP")
}

fn answers(response: &SearchResponse) -> &[AggregatedCoverage] {
    response.coverage().expect("a CJSP response")
}

/// The most a stub can add to the bytes of the protocol that sent the cells
/// straight away: the empty cell block and the size where it is named, the
/// dataset id again where its cells are fetched.
const STUB_OVERHEAD: usize = 1 + 10 + 5;
/// The most one fetch adds besides the cells it brings: the reply's tag,
/// source and candidate count.
const FETCH_OVERHEAD: usize = 1 + 2 + 10;

/// Runs the request on demand and through the oracle, holds the answers
/// equal and the traffic within the stub and fetch headers of the oracle's,
/// and returns both responses, on-demand first.
fn assert_exact(
    sources: &[DataSource],
    center: &DataCenter,
    request: &SearchRequest,
) -> (SearchResponse, SearchResponse) {
    let on_demand = run(center, &InProcessTransport::new(sources), request);
    let stubs = AtomicUsize::new(0);
    let oracle = run(center, &every_pick_inline(sources, None, &stubs), request);
    assert_eq!(
        answers(&on_demand),
        answers(&oracle),
        "cells on demand lost or invented a pick"
    );
    let stubs = stubs.into_inner();
    let fetches = on_demand.comm.requests - oracle.comm.requests;
    assert!(
        on_demand.comm.bytes_to_center
            <= oracle.comm.bytes_to_center + STUB_OVERHEAD * stubs + FETCH_OVERHEAD * fetches,
        "{} B to the center against {} B all inline, {stubs} stubs, {fetches} fetches",
        on_demand.comm.bytes_to_center,
        oracle.comm.bytes_to_center
    );
    // A fetch is a request and a reply, never a new contact, and only a
    // stub can cause one.
    assert_eq!(
        on_demand.comm.sources_contacted,
        oracle.comm.sources_contacted
    );
    assert_eq!(on_demand.comm.replies, on_demand.comm.requests);
    assert!(fetches <= stubs);
    if stubs == 0 {
        assert_eq!(on_demand.comm, oracle.comm);
    }
    (on_demand, oracle)
}

/// A random federation and query batch, fully determined by `rng`: 2–7
/// sources of one resolution whose regions overlap as often as not, small
/// datasets (so gains tie and the tie-break decides) strung close enough
/// that picks chain away from the query, and 1–6 queries in and around
/// them.
fn random_federation(rng: &mut TestRng) -> (Vec<DataSource>, Vec<SpatialDataset>) {
    let blob = |rng: &mut TestRng, cx: f64, cy: f64, id: u32| {
        let points = (0..(1usize..9).generate(rng))
            .map(|_| {
                Point::new(
                    cx + (-0.4f64..0.4).generate(rng),
                    cy + (-0.2f64..0.2).generate(rng),
                )
            })
            .collect();
        SpatialDataset::new(id, points)
    };
    let sources = (0..(2u16..8).generate(rng))
        .map(|id| {
            let (cx, cy) = ((10.0f64..14.0).generate(rng), (50.0f64..52.0).generate(rng));
            let datasets: Vec<SpatialDataset> = (0..(1u32..14).generate(rng))
                .map(|d| {
                    let (dx, dy) = ((-2.0f64..2.0).generate(rng), (-1.0f64..1.0).generate(rng));
                    blob(rng, cx + dx, cy + dy, d)
                })
                .collect();
            source(id, &datasets)
        })
        .collect();
    let queries = (0..(1u32..7).generate(rng))
        .map(|q| {
            let (cx, cy) = ((8.0f64..16.0).generate(rng), (49.0f64..53.0).generate(rng));
            blob(rng, cx, cy, 900 + q)
        })
        .collect();
    (sources, queries)
}

/// One random case, fully determined by `case_seed`.
fn run_on_demand_case(case_seed: u64) {
    let _replay = ReplayOnPanic("run_on_demand_case", case_seed);
    let mut rng = TestRng::from_name(&case_seed.to_string());
    let (sources, queries) = random_federation(&mut rng);
    let k = (0usize..12).generate(&mut rng);
    let delta = (0.0f64..12.0).generate(&mut rng);
    let center = polled_center(&sources, 4);
    let request = SearchRequest::cjsp_batch(queries).k(k).delta_cells(delta);
    for strategy in STRATEGIES {
        assert_exact(&sources, &center, &request.clone().strategy(strategy));
    }

    // One source stops answering fetches: a run that skips it leaves out
    // the candidates it only named and is exact over everything else.
    let dead = (0..sources.len() as SourceId).generate(&mut rng);
    let faulty = dead_for_fetches(&sources, dead);
    let degraded = run(&center, &faulty, &request.clone().skip_failed_sources(true));
    let stubs = AtomicUsize::new(0);
    let survivors = every_pick_inline(&sources, Some(dead), &stubs);
    assert_eq!(
        answers(&degraded),
        answers(&run(&center, &survivors, &request))
    );
    assert!(degraded.failures.iter().all(|f| f.source == dead));
    assert!(degraded.failures.len() <= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn prop_cells_on_demand_match_every_pick_inline(case_seed in any::<u64>()) {
        run_on_demand_case(case_seed);
    }
}

// ---------------------------------------------------------------------------
// Named cases, laid out in the cell space of one θ = 11 grid: a query cell at
// (1000, 1000) and rows of cells along y = 1000 on either side of it.
// ---------------------------------------------------------------------------

/// The cells `(x, 1000)` for `x` in `xs`.
fn row(id: u32, xs: std::ops::RangeInclusive<u32>) -> SpatialDataset {
    dataset(id, &xs.map(|x| (x, 1000)).collect::<Vec<_>>())
}

fn query(id: u32) -> SpatialDataset {
    dataset(id, &[(1000, 1000)])
}

const NEAR: u32 = 1; // x 1001..=1004, one cell from the query: 4 new cells
const FAR: u32 = 2; // x 1006..=1008, two cells beyond NEAR: 3 new cells
const LEFT: u32 = 3; // x 997..=999, one cell from the query: 3 new cells

/// Two sources either side of the query.  `chain` holds NEAR and, beyond δ = 2
/// of the query but within it of NEAR, FAR — which its own greedy reaches
/// through NEAR and so names by size; `other` holds LEFT, whose gain ties
/// FAR's size.
fn chain_and_other(chain: SourceId, other: SourceId) -> Vec<DataSource> {
    let mut sources = vec![
        source(chain, &[row(NEAR, 1001..=1004), row(FAR, 1006..=1008)]),
        source(other, &[row(LEFT, 997..=999)]),
    ];
    sources.sort_by_key(|s| s.id);
    sources
}

fn cjsp(k: usize, delta: f64) -> SearchRequest {
    SearchRequest::cjsp(query(900))
        .k(k)
        .delta_cells(delta)
        .with_trace(true)
}

fn replans(response: &SearchResponse) -> usize {
    let trace = response.trace.as_ref().expect("trace was requested");
    trace.spans_named("replan").count()
}

fn selected(response: &SearchResponse) -> Vec<(SourceId, u32)> {
    answers(response)[0].selected.clone()
}

/// A stub whose size ties a pick's gain is fetched exactly when its key is
/// the smaller one — the loop's own tie-break would then have picked it.
#[test]
fn a_stub_tying_a_pick_is_fetched_only_with_the_smaller_key() {
    // FAR is (1, FAR) against LEFT's (0, LEFT): pick 2 stands unfetched.
    let sources = chain_and_other(1, 0);
    let center = polled_center(&sources, 4);
    let (on_demand, _) = assert_exact(&sources, &center, &cjsp(2, 2.0));
    assert_eq!(selected(&on_demand), [(1, NEAR), (0, LEFT)]);
    assert_eq!(on_demand.comm.requests, 2);
    assert_eq!(replans(&on_demand), 0);

    // FAR is (0, FAR) against LEFT's (1, LEFT): it is fetched, and wins.
    let sources = chain_and_other(0, 1);
    let center = polled_center(&sources, 4);
    let (on_demand, _) = assert_exact(&sources, &center, &cjsp(2, 2.0));
    assert_eq!(selected(&on_demand), [(0, NEAR), (0, FAR)]);
    assert_eq!(on_demand.comm.requests, 3);
    assert_eq!(replans(&on_demand), 1);
    assert_eq!(answers(&on_demand)[0].coverage, 1 + 4 + 3);
}

/// A run that ends short of `k` with a member selected cannot stand while a
/// stub is left: the stub may be connected to a member and add cells.
#[test]
fn a_run_short_of_k_fetches_the_stubs_left() {
    let sources = chain_and_other(1, 0);
    let center = polled_center(&sources, 4);
    for k in [3, 10] {
        let (on_demand, oracle) = assert_exact(&sources, &center, &cjsp(k, 2.0));
        assert_eq!(selected(&on_demand), [(1, NEAR), (0, LEFT), (1, FAR)]);
        assert_eq!(on_demand.comm.requests, 3, "k={k}");
        assert_eq!(replans(&on_demand), 1, "k={k}");
        // Every cell set travelled once, after all.
        assert!(on_demand.comm.bytes_to_center > oracle.comm.bytes_to_center);
    }
}

/// Where no pick lies beyond δ of the query nothing is named by size alone:
/// one wave, and the very bytes of the protocol that always sent cells.
#[test]
fn query_connected_picks_travel_inline_in_one_wave() {
    let sources = chain_and_other(1, 0);
    let center = polled_center(&sources, 4);
    // δ = 6 reaches FAR from the query; with k = 1 no source picks twice.
    for (k, delta) in [(3, 6.0), (1, 2.0)] {
        let (on_demand, oracle) = assert_exact(&sources, &center, &cjsp(k, delta));
        assert_eq!(on_demand.comm, oracle.comm, "k={k} δ={delta}");
        assert_eq!(on_demand.comm.requests, 2);
        assert_eq!(replans(&on_demand), 0);
    }
    let (on_demand, _) = assert_exact(&sources, &center, &cjsp(1, 2.0));
    assert_eq!(selected(&on_demand), [(1, NEAR)]);
}

/// A query no source is routed: no exchange, no pick, no follow-up.
#[test]
fn an_unrouted_query_sends_nothing() {
    let sources = chain_and_other(1, 0);
    let center = polled_center(&sources, 4);
    let far_away = SearchRequest::cjsp(dataset(900, &[(100, 100)]))
        .k(3)
        .delta_cells(2.0)
        .with_trace(true);
    let (on_demand, _) = assert_exact(&sources, &center, &far_away);
    assert!(selected(&on_demand).is_empty());
    assert_eq!(on_demand.comm.requests, 0);
    assert_eq!(replans(&on_demand), 0);
}

/// What one fetch brings need not settle the run: with one pick left to
/// make, a stall fetches one stub, the largest — here a dataset no member
/// connects — and the run stalls again on the next one.
#[test]
fn a_second_stall_is_a_second_wave() {
    const MID: u32 = 4; // x 1006..=1010, within δ of NEAR: 5 new cells
    const UP: u32 = 5; // y 1001..=1002 above the query: 2 new cells
    const ALOFT: u32 = 6; // y 1004..=1009, within δ of UP only: 6 new cells
    let column = |id, ys: std::ops::RangeInclusive<u32>| {
        dataset(id, &ys.map(|y| (1000, y)).collect::<Vec<_>>())
    };
    let sources = vec![
        source(0, &[row(NEAR, 1001..=1004), row(MID, 1006..=1010)]),
        source(1, &[row(LEFT, 997..=999)]),
        source(2, &[column(UP, 1001..=1002), column(ALOFT, 1004..=1009)]),
    ];
    let center = polled_center(&sources, 4);
    let (on_demand, oracle) = assert_exact(&sources, &center, &cjsp(2, 2.0));
    assert_eq!(selected(&on_demand), [(0, NEAR), (0, MID)]);
    // ALOFT (6) then MID (5): two fetches, one after the other.
    assert_eq!(replans(&on_demand), 2);
    assert_eq!(on_demand.comm.requests, oracle.comm.requests + 2);
}

/// Per-query follow-ups share waves: eight queries that each stall once are
/// one follow-up wave of eight fetches, and each answer is the one the query
/// gets on its own.
#[test]
fn a_batch_fetches_in_shared_waves() {
    let sources = chain_and_other(0, 1);
    let center = polled_center(&sources, 4);
    let batch: Vec<SpatialDataset> = (0..8).map(|i| query(900 + i)).collect();
    for size in [1, 8] {
        let request = SearchRequest::cjsp_batch(batch[..size].to_vec())
            .k(2)
            .delta_cells(2.0)
            .with_trace(true);
        let (on_demand, _) = assert_exact(&sources, &center, &request);
        assert_eq!(replans(&on_demand), 1, "batch of {size}");
        assert_eq!(on_demand.comm.requests, 3 * size);
        assert_eq!(on_demand.comm.sources_contacted, 2 * size);
        for answer in answers(&on_demand) {
            assert_eq!(answer.selected, [(0, NEAR), (0, FAR)]);
        }
        // The fetches are summed into the per-source timings with the
        // queries they follow.
        let requests_to = |source: SourceId| {
            let timing = on_demand.per_source.iter().find(|t| t.source == source);
            timing.expect("both sources answered").requests
        };
        assert_eq!((requests_to(0), requests_to(1)), (2 * size, size));
    }
}

/// kNN's held-back sources and CJSP's missing cells are two answers to the
/// one question the engine asks after a wave: both kinds, one engine, one
/// loop.
#[test]
fn knn_and_cjsp_follow_up_through_the_same_loop() {
    let sources = chain_and_other(0, 1);
    let center = polled_center(&sources, 4);
    let engine = QueryEngine::in_process(&center, &sources, EngineConfig::default());
    // The query overlaps the rectangle of source 1 (LEFT), which answers
    // first, and lies one cell from NEAR's: the k-th distance (1) ties
    // source 0's lower bound, and the smaller id keeps source 0 in play.
    let both_sides = dataset(900, &[(998, 1001), (1000, 1000)]);
    let knn = engine
        .run(&SearchRequest::knn(both_sides).k(1).with_trace(true))
        .expect("in-process kNN");
    assert_eq!(replans(&knn), 1);
    assert_eq!(knn.comm.requests, 2);
    assert_eq!(knn.comm.sources_contacted, 2);
    let nearest = Neighbor {
        dataset: NEAR,
        distance: 1.0,
    };
    assert_eq!(knn.knn().expect("kNN")[0].neighbors, [(0, nearest)]);
    let cjsp = engine.run(&cjsp(2, 2.0)).expect("in-process CJSP");
    assert_eq!(replans(&cjsp), 1);
    assert_eq!(cjsp.comm.requests, 3);
    assert_eq!(cjsp.comm.sources_contacted, 2);
}

/// A source that answers the query and is dead for the fetch: fail-fast
/// returns the fetch's error; a run that skips failed sources reports the
/// source once, leaves out what it only named and is exact over the rest.
#[test]
fn a_source_dead_for_the_fetch_degrades_to_what_was_received() {
    let sources = chain_and_other(1, 0);
    let center = polled_center(&sources, 4);
    let faulty = dead_for_fetches(&sources, 1);
    let engine = QueryEngine::new(&center, &faulty, EngineConfig::default());
    let request = cjsp(3, 2.0);
    assert_eq!(
        engine.run(&request).unwrap_err(),
        SearchError::Transport(TransportError::Io(FETCH_REFUSED.to_string()))
    );

    let degraded = engine
        .run(&request.clone().skip_failed_sources(true))
        .expect("degraded run");
    assert_eq!(degraded.failures.len(), 1);
    assert_eq!(degraded.failures[0].source, 1);
    // NEAR arrived with the first reply and stays; FAR was only named.
    assert_eq!(selected(&degraded), [(1, NEAR), (0, LEFT)]);
    let stubs = AtomicUsize::new(0);
    let survivors = every_pick_inline(&sources, Some(1), &stubs);
    assert_eq!(
        answers(&degraded),
        answers(&run(&center, &survivors, &request))
    );
    // The failed fetch moved no counted byte and is asked once, not again.
    assert_eq!(degraded.comm.requests, 2);
    assert_eq!(replans(&degraded), 1);
}
