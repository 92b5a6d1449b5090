//! An OJSP request carries only the query cells a source can share — and the
//! answer does not notice.  Under `PrunedClipped` the center filters every
//! clipped query by the block sketch it holds of the target source; whatever
//! the federation looks like and however maintenance has moved it, the
//! answer is the very answer `Broadcast` and `Pruned` give, ties included,
//! and rank by rank it carries the overlaps of the merge of one brute-force
//! overlap search per source.
//!
//! The sketch is held to its one invariant: after every maintenance batch —
//! applied, lost or answered with the reply to another — the center's copy
//! contains every block the source holds data in, recounted from its
//! datasets.  The same scenario gives the same answers and the same
//! `CommStats` whether the sources are borrowed in process, served behind a
//! mutex, or `source-server` processes behind the pooled transport.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use dits::{DitsGlobal, MaintenanceStats, OverlapResult, ReplayOnPanic, SourceSummary};
use multisource::{
    CommStats, DataCenter, DataSource, DistributionStrategy, EngineConfig, ExclusiveTransport,
    Message, QueryEngine, SearchError, SearchRequest, SearchResponse, SourceTransport,
    TransportError, TransportReply, UpdateOp,
};
use proptest::prelude::*;
use spatial::zorder::{cell_coords, cell_id};
use spatial::{Point, SourceId, SpatialDataset};

mod common;
use common::{
    build_sources, dataset, merged_knn_bruteforce, merged_ojsp_bruteforce, polled_center, source,
    spawn_fleet, STRATEGIES,
};

type Answer = Vec<(SourceId, OverlapResult)>;

/// Holds `answer` to the oracle.  OverlapSearch skips a leaf whose Lemma 2
/// bound only *equals* the k-th best overlap so far, so which of several
/// datasets tied at the k-th overlap a source reports depends on its tree;
/// everything else is pinned: the overlaps, rank by rank, are the brute
/// force's, the order is the center's merge order, and every entry is a
/// different dataset of its source with exactly that overlap.
fn assert_is_the_top_k(answer: &Answer, sources: &[DataSource], query: &SpatialDataset, k: usize) {
    let overlaps = |a: &Answer| a.iter().map(|(_, r)| r.overlap).collect::<Vec<_>>();
    assert_eq!(
        overlaps(answer),
        overlaps(&merged_ojsp_bruteforce(sources, query, k))
    );
    let key = |(source, r): &(SourceId, OverlapResult)| {
        (std::cmp::Reverse(r.overlap), *source, r.dataset)
    };
    assert!(
        answer.windows(2).all(|w| key(&w[0]) < key(&w[1])),
        "out of order, or one dataset twice: {answer:?}"
    );
    for (id, result) in answer {
        let source = sources.iter().find(|s| s.id == *id).expect("a source");
        let (_, node) = source
            .index()
            .find_dataset(result.dataset)
            .expect("a dataset the source holds");
        let shared = node.cells.intersection_size(&source.grid_query(query));
        assert_eq!(result.overlap, shared, "source {id}, {result:?}");
    }
}

fn answers(response: &SearchResponse) -> Vec<Answer> {
    response
        .overlap()
        .expect("an OJSP response")
        .iter()
        .map(|a| a.results.clone())
        .collect()
}

// ---------------------------------------------------------------------------
// Scenarios: a federation, and maintenance batches interleaved with queries.
// ---------------------------------------------------------------------------

/// One step of a scenario.
#[derive(Debug, Clone)]
enum Step {
    Batch(SourceId, Vec<UpdateOp>),
    Queries(Vec<SpatialDataset>, usize),
}

/// A federation — each source's resolution and initial datasets, ids
/// ascending — and what happens to it.
#[derive(Debug, Clone)]
struct Scenario {
    sources: Vec<(u32, Vec<SpatialDataset>)>,
    steps: Vec<Step>,
}

fn blob(
    rng: &mut TestRng,
    id: u32,
    cx: f64,
    cy: f64,
    spread: f64,
    max_points: usize,
) -> SpatialDataset {
    let points = (0..(1..max_points).generate(rng))
        .map(|_| {
            Point::new(
                cx + (-spread..spread).generate(rng),
                cy + (-spread..spread).generate(rng),
            )
        })
        .collect();
    SpatialDataset::new(id, points)
}

/// A random scenario, fully determined by `rng`: 2–7 sources whose regions
/// overlap as often as not — at one shared resolution or at one each, a
/// θ = 2 source (one block for the whole grid) and a thin strip (every
/// dataset in one row of cells) among them now and then — and 4–9 rounds of
/// a maintenance batch, which may empty a source before the next gives it
/// data again, then an OJSP batch in and around the sources.
fn random_scenario(rng: &mut TestRng) -> Scenario {
    let mixed = (0u8..2).generate(rng) == 1;
    let source_count = (2usize..8).generate(rng);
    let coarse = (0usize..source_count * 2).generate(rng);
    let strip = (0usize..source_count * 2).generate(rng);
    let mut centres = Vec::new();
    let sources: Vec<(u32, Vec<SpatialDataset>)> = (0..source_count)
        .map(|id| {
            let resolution = match (id == coarse, mixed) {
                (true, _) => 2,
                (_, true) => (9u32..14).generate(rng),
                (_, false) => 11,
            };
            let (cx, cy) = ((10.0f64..16.0).generate(rng), (50.0f64..56.0).generate(rng));
            centres.push((cx, cy));
            let datasets = (0..(1u32..10).generate(rng))
                .map(|d| {
                    let dx = (-2.5f64..2.5).generate(rng);
                    if id == strip {
                        // One latitude: one row of cells, a root rectangle of
                        // no height.
                        let points = (0..(1usize..6).generate(rng))
                            .map(|_| Point::new(cx + dx + (-0.4f64..0.4).generate(rng), cy))
                            .collect();
                        SpatialDataset::new(d, points)
                    } else {
                        let dy = (-2.5f64..2.5).generate(rng);
                        blob(rng, d, cx + dx, cy + dy, 0.3, 12)
                    }
                })
                .collect();
            (resolution, datasets)
        })
        .collect();

    // The generator's model of which ids each source holds.
    let mut live: Vec<Vec<u32>> = sources
        .iter()
        .map(|(_, datasets)| datasets.iter().map(|d| d.id).collect())
        .collect();
    let mut next_id = 100u32;
    let mut refill: Option<SourceId> = None;
    let mut steps = Vec::new();
    for _ in 0..(4usize..10).generate(rng) {
        let source = refill
            .take()
            .unwrap_or_else(|| (0..source_count as SourceId).generate(rng));
        let held = &mut live[usize::from(source)];
        let (cx, cy) = centres[usize::from(source)];
        let ops: Vec<UpdateOp> = if !held.is_empty() && (0u8..6).generate(rng) == 0 {
            refill = Some(source);
            held.drain(..).map(UpdateOp::Delete).collect()
        } else {
            (0..(1usize..7).generate(rng))
                .map(|_| {
                    let (dx, dy) = ((-3.0f64..3.0).generate(rng), (-3.0f64..3.0).generate(rng));
                    let pick = (0usize..held.len().max(1)).generate(rng);
                    match ((0u8..4).generate(rng), held.get(pick).copied()) {
                        (0, Some(id)) => {
                            held.swap_remove(pick);
                            UpdateOp::Delete(id)
                        }
                        (1, Some(id)) => UpdateOp::Update(blob(rng, id, cx + dx, cy + dy, 0.3, 12)),
                        // Individually rejected now and then: unknown ids.
                        (2, _) if dx > 2.0 => UpdateOp::Delete(9_000 + next_id),
                        _ => {
                            next_id += 1;
                            held.push(next_id);
                            UpdateOp::Insert(blob(rng, next_id, cx + dx, cy + dy, 0.3, 12))
                        }
                    }
                })
                .collect()
        };
        steps.push(Step::Batch(source, ops));
        let mut queries: Vec<SpatialDataset> = (0..(1u32..5).generate(rng))
            .map(|q| {
                let (cx, cy) = ((7.0f64..19.0).generate(rng), (47.0f64..59.0).generate(rng));
                // Wide blobs: most of such a query lies in blocks a source
                // holds nothing in.
                blob(rng, 900 + q, cx, cy, 2.5, 40)
            })
            .collect();
        queries.extend(initial_dataset_as_query(rng, &sources));
        steps.push(Step::Queries(queries, (0usize..7).generate(rng)));
    }
    Scenario { sources, steps }
}

/// One of the federation's initial datasets, with a few points far away: a
/// query that overlaps something for certain (until maintenance moves it).
fn initial_dataset_as_query(
    rng: &mut TestRng,
    sources: &[(u32, Vec<SpatialDataset>)],
) -> Option<SpatialDataset> {
    let (_, datasets) = &sources[(0..sources.len()).generate(rng)];
    let dataset = datasets.get((0..datasets.len().max(1)).generate(rng))?;
    let mut points = dataset.points.clone();
    points.push(Point::new((0.0f64..30.0).generate(rng), 40.0));
    points.push(Point::new(13.0, (45.0f64..60.0).generate(rng)));
    Some(SpatialDataset::new(990, points))
}

/// A query of one point inside the outer half of a cell on the east border
/// of `source`'s data: the source shares that cell with it, and neither the
/// root rectangle — corners at cell centres — nor the query's MBR says so.
fn border_cell_query(source: &DataSource) -> Option<SpatialDataset> {
    let east = source
        .dataset_nodes()
        .iter()
        .flat_map(|n| n.cells.iter())
        .max_by_key(|&cell| cell_coords(cell).0)?;
    let grid = source.grid();
    let centre = grid.cell_center(east);
    let point = Point::new(centre.x + 0.45 * grid.cell_width(), centre.y);
    Some(SpatialDataset::new(991, vec![point]))
}

// ---------------------------------------------------------------------------
// Running a scenario.
// ---------------------------------------------------------------------------

/// What a deployment said at one step: a batch's outcome, or the answers and
/// traffic of a query batch under each strategy.
#[derive(Debug, PartialEq)]
enum Said {
    Batch(SourceSummary, MaintenanceStats, CommStats),
    Answers(Vec<(Vec<Answer>, CommStats)>),
}

fn ojsp(queries: &[SpatialDataset], k: usize, strategy: DistributionStrategy) -> SearchRequest {
    SearchRequest::ojsp_batch(queries.to_vec())
        .k(k)
        .strategy(strategy)
}

/// Runs `scenario`, holding every answer to the brute force, the traffic to
/// `Broadcast ≥ Pruned ≥ PrunedClipped`, and every sketch the center holds
/// to a recount.  With no `transport`, over in-process sources — queries
/// through the borrowed slice, batches through an [`ExclusiveTransport`], the
/// way `MultiSourceFramework` does.  Over a `transport`, everything — the
/// bootstrap poll, the batches, the queries — goes through it, its sources
/// starting as the scenario's; the sources the answers and sketches are held
/// to are then a mirror, a copy the batches are applied to as raw operations.
fn run_scenario(transport: Option<&dyn SourceTransport>, scenario: &Scenario) -> Vec<Said> {
    let mut sources = build_sources(&scenario.sources);
    let mut center = match transport {
        Some(transport) => DataCenter::from_transport(transport, 4).expect("summary polls"),
        None => polled_center(&sources, 4),
    };
    assert_sketches_follow(&center, &sources);
    let mut said = Vec::new();
    for step in &scenario.steps {
        match step {
            Step::Batch(source, ops) => {
                let outcome = match transport {
                    Some(transport) => {
                        let outcome = center.apply_updates(transport, *source, ops);
                        let mirror = &mut sources[usize::from(*source)];
                        mirror.apply_updates(ops).expect("a valid batch");
                        outcome
                    }
                    None => {
                        center.apply_updates(&ExclusiveTransport::new(&mut sources), *source, ops)
                    }
                }
                .expect("a valid batch");
                assert_sketches_follow(&center, &sources);
                // A center that followed every batch never had to poll.
                assert!(outcome.comm.requests <= 2, "{:?}", outcome.comm);
                said.push(Said::Batch(outcome.summary, outcome.stats, outcome.comm));
            }
            Step::Queries(queries, k) => {
                let mut queries = queries.clone();
                queries.extend(sources.iter().filter_map(border_cell_query));
                let engine = match transport {
                    Some(transport) => {
                        QueryEngine::new(&center, transport, EngineConfig::default())
                    }
                    None => QueryEngine::in_process(&center, &sources, EngineConfig::default()),
                };
                let responses = STRATEGIES
                    .map(|strategy| engine.run(&ojsp(&queries, *k, strategy)).expect("OJSP"));
                for (query, answer) in queries.iter().zip(answers(&responses[0])) {
                    assert_is_the_top_k(&answer, &sources, query, *k);
                }
                for pair in responses.windows(2) {
                    // What a strategy leaves out changes no reply: the same
                    // answer, ties included.
                    assert_eq!(answers(&pair[1]), answers(&pair[0]));
                    assert!(pair[1].comm.requests <= pair[0].comm.requests);
                    assert!(pair[1].comm.bytes_to_sources <= pair[0].comm.bytes_to_sources);
                    assert!(pair[1].comm.sources_contacted <= pair[0].comm.sources_contacted);
                }
                // Fewer query cells never make a source work more.
                let [_, pruned, clipped] = &responses;
                let (pruned, clipped) = (pruned.search(), clipped.search());
                assert!(clipped.nodes_visited <= pruned.nodes_visited);
                assert!(clipped.leaves_verified <= pruned.leaves_verified);
                assert!(clipped.exact_computations <= pruned.exact_computations);
                assert!(clipped.candidates <= pruned.candidates);
                // kNN's second wave filters by the same grow-only sketch.
                let knn_k = (*k).max(1);
                let knn = engine
                    .run(&SearchRequest::knn(queries[0].clone()).k(knn_k))
                    .expect("kNN");
                assert_eq!(
                    knn.knn().expect("a kNN response")[0].neighbors,
                    merged_knn_bruteforce(&sources, &queries[0], knn_k)
                );
                said.push(Said::Answers(
                    responses.iter().map(|r| (answers(r), r.comm)).collect(),
                ));
            }
        }
    }
    said
}

/// The center holds a sketch of every source it routes to, and that sketch
/// contains every block the source's datasets touch.
fn assert_sketches_follow(center: &DataCenter, sources: &[DataSource]) {
    for source in sources {
        assert_eq!(source.index().check_invariants(), Ok(()));
        let held = center.sketch(source.id);
        assert_eq!(
            held.is_some(),
            source.dataset_count() > 0,
            "source {}",
            source.id
        );
        if let Some(held) = held {
            let recount = source.index().sketch();
            let kept = held.intersection_size(&recount);
            assert_eq!(kept, recount.len(), "source {}", source.id);
        }
    }
}

/// One random case, fully determined by `case_seed`.
fn run_sketch_case(case_seed: u64) {
    let _replay = ReplayOnPanic("run_sketch_case", case_seed);
    let mut rng = TestRng::from_name(&case_seed.to_string());
    run_scenario(None, &random_scenario(&mut rng));
}

/// The generator keeps reaching what the proptest is about: over a few
/// seeded scenarios the sketch takes whole shards and bytes off what the
/// rectangle clip sends, sources are emptied and refilled, and a θ = 2
/// source and a thin strip take part.
#[test]
fn the_random_scenarios_exercise_the_filter() {
    let (mut shards, mut bytes, mut drains, mut coarse, mut strips) = (0, 0, 0, 0, 0);
    for seed in 0..24u64 {
        let scenario = random_scenario(&mut TestRng::from_name(&format!("exercise {seed}")));
        coarse += scenario
            .sources
            .iter()
            .filter(|(theta, _)| *theta == 2)
            .count();
        strips += scenario
            .sources
            .iter()
            .filter(|(_, d)| {
                d.len() > 1
                    && d.iter()
                        .all(|d| d.points.iter().all(|p| p.y == d.points[0].y))
            })
            .count();
        drains += scenario
            .steps
            .iter()
            .filter(|step| {
                matches!(step, Step::Batch(_, ops) if ops.len() > 1
                && ops.iter().all(|op| matches!(op, UpdateOp::Delete(id) if *id < 9_000)))
            })
            .count();
        for said in run_scenario(None, &scenario) {
            if let Said::Answers(by_strategy) = said {
                let (pruned, clipped) = (by_strategy[1].1, by_strategy[2].1);
                shards += pruned.requests - clipped.requests;
                bytes += pruned.bytes_to_sources - clipped.bytes_to_sources;
            }
        }
    }
    assert!(
        shards > 200 && bytes > 5_000,
        "{shards} shards, {bytes} bytes saved"
    );
    assert!(
        drains > 0 && coarse > 0 && strips > 0,
        "{drains} / {coarse} / {strips}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn prop_sketch_filtered_ojsp_matches_merged_bruteforce_under_maintenance(
        case_seed in any::<u64>(),
    ) {
        run_sketch_case(case_seed);
    }
}

// ---------------------------------------------------------------------------
// The same scenario on three transports.
// ---------------------------------------------------------------------------

/// The federation parity test CI runs by name: three scenarios, each run
/// over borrowed in-process sources, over sources behind the exclusive
/// transport's mutex, and over spawned `source-server` processes behind the
/// pooled transport — every batch outcome, every answer and every
/// `CommStats` identical.
#[test]
fn the_same_scenario_says_the_same_on_three_transports() {
    for name in [
        "three transports a",
        "three transports b",
        "three transports c",
    ] {
        let scenario = random_scenario(&mut TestRng::from_name(name));
        let in_process = run_scenario(None, &scenario);

        let mut behind_mutex = build_sources(&scenario.sources);
        let exclusive = ExclusiveTransport::new(&mut behind_mutex);
        let exclusive = run_scenario(Some(&exclusive), &scenario);
        assert_eq!(exclusive, in_process, "{name}: exclusive transport");

        let fleet = spawn_fleet(
            scenario
                .sources
                .iter()
                .map(|(theta, d)| (*theta, d.as_slice())),
        );
        let federated = run_scenario(Some(&fleet.pooled), &scenario);
        assert_eq!(federated, in_process, "{name}: pooled transport");
    }
}

// ---------------------------------------------------------------------------
// Named cases, laid out in the cell space of one θ = 11 grid.
// ---------------------------------------------------------------------------

/// Two sources whose root rectangles both span (1000..1100)² while their
/// data sits in opposite corners of it: the rectangle clip keeps a query
/// whole for both, the sketch sends each only its own corner.
fn two_corners() -> Vec<DataSource> {
    vec![
        source(
            0,
            &[
                dataset(0, &[(1000, 1000), (1003, 1001), (1004, 1004)]),
                dataset(1, &[(1100, 1100)]),
            ],
        ),
        source(
            1,
            &[
                dataset(0, &[(1000, 1000)]),
                dataset(1, &[(1096, 1097), (1099, 1099), (1100, 1100)]),
            ],
        ),
    ]
}

fn run(center: &DataCenter, sources: &[DataSource], request: &SearchRequest) -> SearchResponse {
    QueryEngine::in_process(center, sources, EngineConfig::default())
        .run(request)
        .expect("in-process OJSP")
}

#[test]
fn a_cell_travels_only_to_a_source_with_data_in_its_block() {
    let sources = two_corners();
    let center = polled_center(&sources, 4);
    // Five cells in the south-west corner block, five in the middle of
    // nowhere, one in the north-east corner.
    let query = dataset(
        99,
        &[
            (1001, 1001),
            (1003, 1001),
            (1004, 1004),
            (1005, 1002),
            (1006, 1006),
            (1050, 1050),
            (1051, 1050),
            (1052, 1050),
            (1053, 1050),
            (1054, 1050),
            (1099, 1099),
        ],
    );
    let k = 3;
    let oracle = merged_ojsp_bruteforce(&sources, &query, k);
    assert_eq!(oracle.len(), 2, "one dataset of each source shares cells");
    let [_, pruned, clipped] =
        STRATEGIES.map(|s| run(&center, &sources, &ojsp(std::slice::from_ref(&query), k, s)));
    assert_eq!(answers(&pruned), std::slice::from_ref(&oracle));
    assert_eq!(answers(&clipped), std::slice::from_ref(&oracle));
    // Both sources hold data in both corner blocks, so each is sent the six
    // corner cells and not the five between: tag, k, count and six gaps.
    assert_eq!(clipped.comm.requests, 2);
    let sent = |cells: &[(u32, u32)]| {
        Message::OverlapQuery {
            query: cells.iter().map(|&(x, y)| cell_id(x, y)).collect(),
            k,
        }
        .wire_size()
    };
    let corners = [
        (1001, 1001),
        (1003, 1001),
        (1004, 1004),
        (1005, 1002),
        (1006, 1006),
        (1099, 1099),
    ];
    assert_eq!(clipped.comm.bytes_to_sources, 2 * sent(&corners));
    assert!(clipped.comm.bytes_to_sources < pruned.comm.bytes_to_sources);

    // A query wholly between the corners is routed to both sources by their
    // rectangles, counts as two contacts, and is sent to neither.
    let between = dataset(98, &[(1050, 1050), (1051, 1052)]);
    let response = run(
        &center,
        &sources,
        &ojsp(&[between], k, DistributionStrategy::PrunedClipped),
    );
    assert_eq!(answers(&response), [vec![]]);
    assert_eq!(response.comm.sources_contacted, 2);
    assert_eq!(
        (response.comm.requests, response.comm.total_bytes()),
        (0, 0)
    );
}

/// CJSP's coverage counts every query cell, so the sketch changes nothing
/// it sends; kNN's second wave leaves out the cells farther than the first
/// reply's k-th distance from every block, and answers the same.
#[test]
fn cjsp_keeps_the_rectangle_clip() {
    let sources = two_corners();
    let with_sketch = polled_center(&sources, 4);
    let without = DataCenter::from_global(with_sketch.global().clone());
    let query = dataset(99, &[(1001, 1001), (1050, 1050), (1099, 1099)]);
    let both = |request: SearchRequest| {
        let (a, b) = (
            run(&with_sketch, &sources, &request),
            run(&without, &sources, &request),
        );
        assert_eq!(a.results, b.results, "{:?}", request.kind());
        (a.comm, b.comm)
    };
    let (a, b) = both(SearchRequest::cjsp(query.clone()).k(3).delta_cells(4.0));
    assert_eq!(a, b, "a sketch changed what CJSP sends");
    // Source 0 answers first, at √2 from both corners; source 1 is asked
    // the two corner cells and not (1050, 1050).
    let (a, b) = both(SearchRequest::knn(query).k(2));
    assert_eq!((a.requests, b.requests), (2, 2));
    assert!(
        a.bytes_to_sources < b.bytes_to_sources,
        "{a:?} against {b:?}"
    );
}

#[test]
fn a_center_without_sketches_filters_nothing_until_it_polls() {
    let mut sources = two_corners();
    let built = polled_center(&sources, 4);
    let mut center = DataCenter::from_global(DitsGlobal::build(built.global().summaries(), 4));
    assert!(center.sketch(0).is_none() && center.sketch(1).is_none());
    let query = dataset(
        99,
        &[(1001, 1001), (1050, 1050), (1051, 1051), (1099, 1099)],
    );
    let request = ojsp(&[query], 3, DistributionStrategy::PrunedClipped);
    let by_rectangle = run(&center, &sources, &request);
    let by_sketch = run(&built, &sources, &request);
    assert_eq!(by_rectangle.results, by_sketch.results);
    assert!(by_sketch.comm.bytes_to_sources < by_rectangle.comm.bytes_to_sources);

    // The first batch finds no sketch to grow: the center polls for one
    // before sending it.
    let ops = [UpdateOp::Insert(dataset(7, &[(1002, 1002)]))];
    let outcome = center
        .apply_updates(&ExclusiveTransport::new(&mut sources), 0, &ops)
        .expect("a valid batch");
    assert_eq!((outcome.comm.requests, outcome.comm.replies), (2, 2));
    assert_eq!(center.sketch(0), Some(&sources[0].index().sketch()));
    assert!(center.sketch(1).is_none());
    // From here on it grows the sketch by what it sends, and asks nothing.
    let ops = [UpdateOp::Insert(dataset(8, &[(1050, 1050)]))];
    let outcome = center
        .apply_updates(&ExclusiveTransport::new(&mut sources), 0, &ops)
        .expect("a valid batch");
    assert_eq!(outcome.comm.requests, 1);
    assert_eq!(center.sketch(0), Some(&sources[0].index().sketch()));
}

/// Sources behind a mutex, with two faults to inject into the next
/// maintenance exchange: answer it with the reply of the batch before
/// (after applying it all the same), or apply it and lose the reply.
struct FaultyTransport {
    sources: Mutex<Vec<DataSource>>,
    last_batch_reply: Mutex<Option<TransportReply>>,
    replay_stale: AtomicBool,
    drop_reply: AtomicBool,
}

impl std::fmt::Debug for FaultyTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport").finish_non_exhaustive()
    }
}

impl FaultyTransport {
    fn new(sources: Vec<DataSource>) -> Self {
        Self {
            sources: Mutex::new(sources),
            last_batch_reply: Mutex::new(None),
            replay_stale: AtomicBool::new(false),
            drop_reply: AtomicBool::new(false),
        }
    }

    fn sources(&self) -> Vec<DataSource> {
        self.sources.lock().expect("sources").clone()
    }
}

impl SourceTransport for FaultyTransport {
    fn source_ids(&self) -> Vec<SourceId> {
        self.sources().iter().map(|s| s.id).collect()
    }

    fn call(
        &self,
        source: SourceId,
        request: &Message,
        want_stats: bool,
    ) -> Result<TransportReply, TransportError> {
        let mut sources = self.sources.lock().expect("sources");
        let reply = ExclusiveTransport::new(&mut sources).call(source, request, want_stats)?;
        if !request.mutates() {
            return Ok(reply);
        }
        if self.drop_reply.swap(false, Ordering::SeqCst) {
            return Err(TransportError::Timeout {
                source,
                waited: Duration::from_millis(1),
            });
        }
        let mut last = self.last_batch_reply.lock().expect("last reply");
        if self.replay_stale.swap(false, Ordering::SeqCst) {
            return Ok(last.clone().expect("a batch before the replayed one"));
        }
        *last = Some(reply.clone());
        Ok(reply)
    }
}

/// The OJSP answer `center` gives for `query` over `transport`, held to the
/// brute force over the transport's sources.
fn answer_over(center: &DataCenter, transport: &FaultyTransport, query: &SpatialDataset) -> Answer {
    let request = ojsp(
        std::slice::from_ref(query),
        5,
        DistributionStrategy::PrunedClipped,
    );
    let response = QueryEngine::new(center, transport, EngineConfig::default())
        .run(&request)
        .expect("OJSP");
    let answer = answers(&response).remove(0);
    assert_eq!(
        answer,
        merged_ojsp_bruteforce(&transport.sources(), query, 5)
    );
    answer
}

#[test]
fn a_reply_to_a_batch_of_another_size_is_not_trusted() {
    let transport = FaultyTransport::new(two_corners());
    let mut center = DataCenter::from_transport(&transport, 4).expect("summary polls");
    // Batch 1, one operation, occupies a new block of source 0; its reply is
    // what batch 2, two operations, is answered with.
    let first = [UpdateOp::Insert(dataset(7, &[(1050, 1050)]))];
    let outcome = center
        .apply_updates(&transport, 0, &first)
        .expect("batch 1");
    assert_eq!(outcome.comm.requests, 1);
    transport.replay_stale.store(true, Ordering::SeqCst);
    let second = [
        UpdateOp::Insert(dataset(8, &[(1020, 1080), (1100, 1130)])),
        UpdateOp::Delete(9_999),
    ];
    let outcome = center
        .apply_updates(&transport, 0, &second)
        .expect("batch 2");
    // The reply accounts for one operation of two: the center polls, and
    // ends up with the source's rectangle — not the one the replayed reply
    // described.
    assert_eq!((outcome.comm.requests, outcome.comm.replies), (2, 2));
    let sources = transport.sources();
    assert_eq!(outcome.summary, sources[0].summary());
    assert_eq!(center.global().summaries()[0], sources[0].summary());
    assert_sketches_follow(&center, &sources);
    let query = dataset(99, &[(1020, 1080), (1100, 1130), (1050, 1050)]);
    answer_over(&center, &transport, &query);

    // A replay of the same size passes for the answer (ROADMAP item 5 (b)),
    // and still cannot leave the sketch short of the batch it answered.
    transport.replay_stale.store(true, Ordering::SeqCst);
    let third = [UpdateOp::Insert(dataset(9, &[(1070, 1030), (1071, 1030)]))];
    let outcome = center
        .apply_updates(&transport, 0, &third)
        .expect("batch 3");
    assert_eq!(outcome.comm.requests, 1);
    let sources = transport.sources();
    assert_sketches_follow(&center, &sources);
    let query = dataset(98, &[(1070, 1030), (1071, 1030)]);
    assert_eq!(
        answer_over(&center, &transport, &query),
        [(
            0,
            OverlapResult {
                dataset: 9,
                overlap: 2
            }
        )]
    );
}

#[test]
fn a_lost_reply_leaves_a_sketch_that_covers_the_batch() {
    let transport = FaultyTransport::new(two_corners());
    let mut center = DataCenter::from_transport(&transport, 4).expect("summary polls");
    // The batch whose reply is lost puts data into a block that was empty,
    // inside the root rectangle (which therefore stays right).
    transport.drop_reply.store(true, Ordering::SeqCst);
    let lost = [UpdateOp::Insert(dataset(7, &[(1050, 1050), (1051, 1050)]))];
    let err = center
        .apply_updates(&transport, 0, &lost)
        .expect_err("no reply");
    assert!(
        matches!(err, SearchError::Transport(TransportError::Timeout { .. })),
        "{err:?}"
    );
    // The center added the batch's blocks before sending it: what it holds
    // covers what source 0 holds now, and a query into that block finds the
    // dataset.
    let sources = transport.sources();
    assert_eq!(sources[0].dataset_count(), 3, "the batch was applied");
    assert_sketches_follow(&center, &sources);
    let query = dataset(99, &[(1050, 1050), (1051, 1050), (1060, 1060)]);
    assert_eq!(
        answer_over(&center, &transport, &query),
        [(
            0,
            OverlapResult {
                dataset: 7,
                overlap: 2
            }
        )]
    );
    // The next exchange is the batch alone: nothing to poll for.  The block
    // of the dataset it deletes stays held — a few bytes, never an answer.
    let next = [UpdateOp::Delete(1)];
    let outcome = center.apply_updates(&transport, 0, &next).expect("batch 2");
    assert_eq!((outcome.comm.requests, outcome.comm.replies), (1, 1));
    let sources = transport.sources();
    assert_sketches_follow(&center, &sources);
    let vacated = cell_id(1100, 1100) >> dits::sketch::BLOCK_BITS;
    assert!(!sources[0].index().sketch().contains(vacated));
    assert!(center.sketch(0).is_some_and(|held| held.contains(vacated)));
    let query = dataset(98, &[(1050, 1050), (1100, 1100)]);
    answer_over(&center, &transport, &query);
    // A batch the center refuses to send changes nothing, the sketch
    // included.
    let held = center.sketch(0).cloned();
    let refused = [UpdateOp::Insert(SpatialDataset::new(50, Vec::new()))];
    assert!(matches!(
        center.apply_updates(&transport, 0, &refused),
        Err(SearchError::Rejected { .. })
    ));
    assert_eq!(center.sketch(0), held.as_ref());
}
