//! Federated kNN in two waves is exact: whatever the federation looks like,
//! the engine's answer is the merge of one brute-force search per source —
//! each at the source's own resolution, as the reducer merges reported
//! distances — under every distribution strategy, full
//! `(SourceId, Neighbor)` equality, distance bits included.  The strategies
//! differ only in what they send: `Broadcast` one whole query to everyone,
//! `Pruned` skips the sources the first wave's k-th key rules out — a lower
//! bound past its distance, or tied with it from a higher id —
//! `PrunedClipped` also sends the rest only the query cells within that
//! distance of their rectangle and of their sketch's blocks.  The same batch
//! says the same in process, behind a mutex and over spawned
//! `source-server` processes.

use dits::{Neighbor, ReplayOnPanic};
use multisource::{
    CommStats, DataCenter, DataSource, EngineConfig, ExclusiveTransport, Message, QueryEngine,
    SearchRequest, SearchResponse,
};
use proptest::prelude::*;
use spatial::zorder::cell_id;
use spatial::{Point, SourceId, SpatialDataset};

mod common;
use common::{
    build_sources, dataset, merged_knn_bruteforce, polled_center, source, spawn_fleet, STRATEGIES,
};

fn run(
    center: &DataCenter,
    sources: &[DataSource],
    request: &SearchRequest,
) -> (Vec<Vec<(SourceId, Neighbor)>>, SearchResponse) {
    let response = QueryEngine::in_process(center, sources, EngineConfig::default())
        .run(request)
        .expect("in-process kNN");
    (neighbours(&response), response)
}

/// The neighbours of each query of a kNN response.
fn neighbours(response: &SearchResponse) -> Vec<Vec<(SourceId, Neighbor)>> {
    let answers = response.knn().expect("a kNN response");
    answers.iter().map(|a| a.neighbors.clone()).collect()
}

/// Runs the batch under the three strategies, holds each answer to the
/// oracle and the traffic to `Broadcast ≥ Pruned ≥ PrunedClipped`, and
/// returns the three responses in that order.
fn assert_exact_under_every_strategy(
    sources: &[DataSource],
    queries: &[SpatialDataset],
    k: usize,
) -> [SearchResponse; 3] {
    let center = polled_center(sources, 4);
    let oracle: Vec<_> = queries
        .iter()
        .map(|q| merged_knn_bruteforce(sources, q, k))
        .collect();
    let responses = STRATEGIES.map(|strategy| {
        let request = SearchRequest::knn_batch(queries.to_vec())
            .k(k)
            .strategy(strategy);
        let (answers, response) = run(&center, sources, &request);
        assert_eq!(answers, oracle, "{strategy:?} lost or invented a neighbour");
        response
    });
    for pair in responses.windows(2) {
        assert!(pair[1].comm.requests <= pair[0].comm.requests);
        assert!(pair[1].comm.bytes_to_sources <= pair[0].comm.bytes_to_sources);
        assert!(pair[1].comm.sources_contacted <= pair[0].comm.sources_contacted);
    }
    responses
}

/// Each source of a federation as its resolution and datasets, ids
/// ascending from 0.
type Specs = Vec<(u32, Vec<SpatialDataset>)>;

/// A random federation and query batch, fully determined by `rng`: 2–7
/// sources whose regions overlap as often as not, at one shared resolution
/// or at one each, and 1–8 queries, narrow or wide, in and around them.  A
/// third of the cases are tie-heavy: every dataset is one point of a
/// lattice the sources share, or a copy of a dataset of the source before,
/// and the queries are lattice points too — so distances repeat within and
/// across sources, and the first reply's k-th distance is often 0.
fn random_specs(rng: &mut TestRng) -> (Specs, Vec<SpatialDataset>) {
    let blob = |rng: &mut TestRng, cx: f64, cy: f64, id: u32, spread: f64| {
        let points = (0..(1usize..7).generate(rng))
            .map(|_| {
                Point::new(
                    cx + (-spread..spread).generate(rng),
                    cy + (-spread..spread).generate(rng),
                )
            })
            .collect();
        SpatialDataset::new(id, points)
    };
    let lattice = |rng: &mut TestRng| {
        let (i, j) = ((0u32..4).generate(rng), (0u32..4).generate(rng));
        Point::new(12.0 + 0.1 * f64::from(i), 52.0 + 0.1 * f64::from(j))
    };
    let mixed = (0u8..2).generate(rng) == 1;
    let tie_heavy = (0u8..3).generate(rng) == 0;
    let mut specs: Specs = Vec::new();
    for _ in 0..(2u16..8).generate(rng) {
        let resolution = if mixed { (9u32..13).generate(rng) } else { 11 };
        let (cx, cy) = ((10.0f64..16.0).generate(rng), (50.0f64..56.0).generate(rng));
        let before = specs.last().map(|(_, datasets)| datasets.clone());
        let datasets: Vec<SpatialDataset> = (0..(1u32..10).generate(rng))
            .map(|d| match &before {
                Some(before) if tie_heavy && (0u8..3).generate(rng) == 0 => {
                    let copied = &before[(0..before.len()).generate(rng)];
                    SpatialDataset::new(d, copied.points.clone())
                }
                _ if tie_heavy => SpatialDataset::new(d, vec![lattice(rng)]),
                _ => {
                    let (dx, dy) = ((-2.5f64..2.5).generate(rng), (-2.5f64..2.5).generate(rng));
                    blob(rng, cx + dx, cy + dy, d, 0.3)
                }
            })
            .collect();
        specs.push((resolution, datasets));
    }
    let queries = (0..(1u32..9).generate(rng))
        .map(|q| {
            if tie_heavy {
                let points = (0..(2usize..10).generate(rng))
                    .map(|_| lattice(rng))
                    .collect();
                return SpatialDataset::new(900 + q, points);
            }
            let (cx, cy) = ((6.0f64..20.0).generate(rng), (46.0f64..60.0).generate(rng));
            // Some queries wide: cells inside a rectangle, far from its data.
            let spread = if (0u8..2).generate(rng) == 0 {
                0.3
            } else {
                2.0
            };
            blob(rng, cx, cy, 900 + q, spread)
        })
        .collect();
    (specs, queries)
}

fn random_federation(rng: &mut TestRng) -> (Vec<DataSource>, Vec<SpatialDataset>) {
    let (specs, queries) = random_specs(rng);
    (build_sources(&specs), queries)
}

/// One random case, fully determined by `case_seed`.
fn run_two_wave_case(case_seed: u64) {
    let _replay = ReplayOnPanic("run_two_wave_case", case_seed);
    let mut rng = TestRng::from_name(&case_seed.to_string());
    let (sources, queries) = random_federation(&mut rng);
    let k = (0usize..9).generate(&mut rng);
    assert_exact_under_every_strategy(&sources, &queries, k);
}

/// What one random case shows of the two rules of the second wave: the
/// sources left out by a tie at a first-reply k-th distance of 0 — each one
/// whose rectangle meets the query's, after the first, at whatever it holds
/// — and the query bytes the sketch takes off the rectangle clip.
fn rules_at_work(sources: &[DataSource], queries: &[SpatialDataset], k: usize) -> (usize, usize) {
    let [.., clipped] = assert_exact_under_every_strategy(sources, queries, k);
    let center = polled_center(sources, 4);
    let by_rectangle = DataCenter::from_global(center.global().clone());
    let request = SearchRequest::knn_batch(queries.to_vec()).k(k);
    let (answers, unsketched) = run(&by_rectangle, sources, &request);
    assert_eq!(answers, run(&center, sources, &request).0);
    let dropped = unsketched.comm.bytes_to_sources - clipped.comm.bytes_to_sources;

    let mut tie_skips = 0;
    for query in queries {
        // Lower bound 0 is a rectangle meeting the query's; the first source
        // is the lowest id among those, and its k-th distance is 0 when it
        // holds k datasets at distance 0.
        let meeting: Vec<&DataSource> = sources
            .iter()
            .filter(|source| {
                let cells = source.grid_query(query);
                let rect = source.summary().cell_space_rect(source.grid());
                cells
                    .mbr_cell_space()
                    .is_some_and(|q| q.min_distance(&rect) == 0.0)
            })
            .collect();
        let Some(first) = meeting.first() else {
            continue;
        };
        let zero_cutoff = k > 0
            && merged_knn_bruteforce(std::slice::from_ref(*first), query, k)
                .iter()
                .filter(|(_, n)| n.distance == 0.0)
                .count()
                == k;
        if zero_cutoff {
            tie_skips += meeting.len() - 1;
        }
    }
    (tie_skips, dropped)
}

/// The generator keeps reaching both rules: over 24 seeded cases some source
/// is left out by a tie at a zero k-th distance, the sketch drops query
/// cells farther than a positive one from every block, and some federation
/// mixes resolutions.
#[test]
fn the_random_federations_exercise_both_rules() {
    let (mut tie_skips, mut dropped, mut mixed) = (0, 0, 0);
    for seed in 0..24u64 {
        let mut rng = TestRng::from_name(&format!("exercise {seed}"));
        let (specs, queries) = random_specs(&mut rng);
        let k = (1usize..9).generate(&mut rng);
        let (skips, bytes) = rules_at_work(&build_sources(&specs), &queries, k);
        tie_skips += skips;
        dropped += bytes;
        mixed += usize::from(specs.iter().any(|(theta, _)| *theta != specs[0].0));
    }
    assert!(
        tie_skips > 0 && dropped > 0 && mixed > 0,
        "{tie_skips} tie skips, {dropped} bytes dropped by the sketch, {mixed} mixed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn prop_two_wave_knn_matches_merged_bruteforce(case_seed in any::<u64>()) {
        run_two_wave_case(case_seed);
    }
}

// ---------------------------------------------------------------------------
// Named cases, laid out in the cell space of one θ = 11 grid.
// ---------------------------------------------------------------------------

/// `count` single-cell datasets on a diagonal starting at `(x, y)`, `step`
/// cells apart.
fn diagonal(x: u32, y: u32, step: u32, count: u32) -> Vec<SpatialDataset> {
    (0..count)
        .map(|i| dataset(i, &[(x + i * step, y + i * step)]))
        .collect()
}

/// Three sources side by side along x: around 1000, 1100 and 1500.
fn three_apart() -> Vec<DataSource> {
    vec![
        source(0, &diagonal(1000, 1000, 2, 6)),
        source(1, &diagonal(1100, 1000, 2, 6)),
        source(2, &diagonal(1500, 1000, 2, 6)),
    ]
}

#[test]
fn k_at_least_every_dataset_returns_them_all() {
    let sources = three_apart();
    let query = dataset(99, &[(1005, 1005), (1006, 1005)]);
    let [broadcast, _, clipped] = assert_exact_under_every_strategy(&sources, &[query], 50);
    assert_eq!(clipped.knn().expect("kNN")[0].neighbors.len(), 18);
    // No source can hold k neighbours, so no reply gives a cutoff: everyone
    // is asked, with the whole query.
    assert_eq!(clipped.comm, broadcast.comm);
}

#[test]
fn a_first_wave_short_of_k_gives_no_cutoff() {
    // The nearest source holds two datasets; k = 3.
    let sources = vec![
        source(0, &diagonal(1000, 1000, 2, 2)),
        source(1, &diagonal(1100, 1000, 2, 6)),
        source(2, &diagonal(1500, 1000, 2, 6)),
    ];
    let query = dataset(99, &[(1001, 1001), (1003, 1000)]);
    let [broadcast, pruned, clipped] = assert_exact_under_every_strategy(&sources, &[query], 3);
    assert_eq!(pruned.comm, broadcast.comm);
    assert_eq!(clipped.comm, broadcast.comm);
    // With k = 2 the same first reply is a cutoff, and it rules both other
    // sources out.
    let query = dataset(99, &[(1001, 1001), (1003, 1000)]);
    let [_, pruned, clipped] = assert_exact_under_every_strategy(&sources, &[query], 2);
    assert_eq!((pruned.comm.requests, clipped.comm.requests), (1, 1));
}

#[test]
fn a_query_outside_every_source_asks_only_the_sources_within_the_cutoff() {
    let sources = three_apart();
    // 90 cells west of source 0, 190 west of source 1, 590 west of source 2.
    let query = dataset(99, &[(910, 1000), (911, 1002)]);
    let [broadcast, pruned, clipped] = assert_exact_under_every_strategy(&sources, &[query], 2);
    assert_eq!(broadcast.comm.sources_contacted, 3);
    assert_eq!(pruned.comm.sources_contacted, 1);
    assert_eq!(clipped.comm.sources_contacted, 1);
    // With k = 8 the cutoff (source 0 holds six) is infinite: all three.
    let query = dataset(99, &[(910, 1000), (911, 1002)]);
    let [_, _, clipped] = assert_exact_under_every_strategy(&sources, &[query], 8);
    assert_eq!(clipped.comm.sources_contacted, 3);
}

#[test]
fn a_query_inside_the_overlap_of_three_sources_reaches_all_three_clipped() {
    // Three rectangles sharing the square (1020..1030)²; each source's
    // datasets hug its own corner, a few reach into the shared square.
    let sources = vec![
        source(
            0,
            &[
                dataset(0, &[(1000, 1000), (1002, 1001)]),
                dataset(1, &[(1024, 1026), (1030, 1030)]),
                dataset(2, &[(1010, 1012)]),
            ],
        ),
        source(
            1,
            &[
                dataset(0, &[(1050, 1000), (1048, 1003)]),
                dataset(1, &[(1020, 1029), (1026, 1024)]),
                dataset(2, &[(1040, 1010)]),
            ],
        ),
        source(
            2,
            &[
                dataset(0, &[(1025, 1060), (1027, 1058)]),
                dataset(1, &[(1022, 1020), (1028, 1027)]),
                dataset(2, &[(1025, 1045)]),
            ],
        ),
    ];
    // The query spills far outside the shared square: those cells are what
    // clipping drops.
    let query = dataset(99, &[(1024, 1025), (1027, 1027), (900, 1025), (1025, 1200)]);
    let [_, pruned, clipped] = assert_exact_under_every_strategy(&sources, &[query], 3);
    assert_eq!(clipped.comm.sources_contacted, 3);
    assert_eq!(clipped.comm.requests, 3);
    assert!(clipped.comm.bytes_to_sources < pruned.comm.bytes_to_sources);
}

#[test]
fn a_tie_at_exactly_the_cutoff_is_decided_by_source_id() {
    // Source 1 answers first — its two datasets span a rectangle around the
    // query, lower bound 0 — and the nearer of them is 3 cells away: c = 3.
    // Source 0's only dataset is exactly 3 cells away on the other side: its
    // lower bound equals c, the query cell sits on the edge of its clip
    // window, and it wins the tie.
    let sources = vec![
        source(0, &[dataset(7, &[(997, 1000)])]),
        source(
            1,
            &[dataset(7, &[(1003, 1000)]), dataset(8, &[(997, 1004)])],
        ),
    ];
    let query = dataset(99, &[(1000, 1000)]);
    let center = polled_center(&sources, 4);
    for strategy in STRATEGIES {
        let request = SearchRequest::knn(query.clone()).k(1).strategy(strategy);
        let (answers, response) = run(&center, &sources, &request);
        let expected = Neighbor {
            dataset: 7,
            distance: 3.0,
        };
        assert_eq!(answers, [vec![(0, expected)]], "{strategy:?}");
        assert_eq!(response.comm.requests, 2, "{strategy:?}");
        assert!(response.shards.iter().any(|s| s.source == 0));
    }
    assert_exact_under_every_strategy(&sources, &[query], 1);
}

/// The same tie with the ids swapped: source 0 answers first at c = 3, and
/// source 1, whose lower bound is exactly 3, could only send keys after
/// `(3, 0)` — it is not asked, and the answer is the same.
#[test]
fn a_tie_at_a_positive_cutoff_is_asked_only_of_lower_ids() {
    let sources = vec![
        source(
            0,
            &[dataset(7, &[(1003, 1000)]), dataset(8, &[(997, 1004)])],
        ),
        source(1, &[dataset(7, &[(997, 1000)])]),
    ];
    let query = dataset(99, &[(1000, 1000)]);
    let [_, pruned, clipped] = assert_exact_under_every_strategy(&sources, &[query], 1);
    let expected = Neighbor {
        dataset: 7,
        distance: 3.0,
    };
    for response in [pruned, clipped] {
        assert_eq!(response.knn().expect("kNN")[0].neighbors, [(0, expected)]);
        assert_eq!(response.comm.requests, 1);
        assert_eq!(response.comm.sources_contacted, 1);
    }
}

/// At c = 0 the first source alone holds k datasets that overlap the query.
/// Every other source can only tie at distance 0, and every one whose
/// rectangle meets the query's has a larger id: a source with a smaller id
/// and lower bound 0 would have answered first.  So the overlapping dataset
/// of a higher-id source is never asked for, and a lower-id source whose
/// rectangle does not meet the query's (lower bound 1 or more) is not asked
/// either.
#[test]
fn a_zero_cutoff_leaves_every_higher_source_out() {
    let sources = vec![
        source(
            0,
            &[dataset(0, &[(1000, 1004)]), dataset(1, &[(1010, 1010)])],
        ),
        source(
            1,
            &[
                dataset(0, &[(1000, 1000)]),
                dataset(1, &[(1001, 1001), (1003, 1003)]),
            ],
        ),
        source(2, &[dataset(0, &[(1001, 1001)]), dataset(1, &[(990, 990)])]),
    ];
    let query = dataset(99, &[(1000, 1000), (1001, 1001), (1001, 1002)]);
    let [broadcast, pruned, clipped] = assert_exact_under_every_strategy(&sources, &[query], 2);
    let at_zero = |dataset| Neighbor {
        dataset,
        distance: 0.0,
    };
    for response in [&broadcast, &pruned, &clipped] {
        assert_eq!(
            response.knn().expect("kNN")[0].neighbors,
            [(1, at_zero(0)), (1, at_zero(1))]
        );
    }
    assert_eq!(broadcast.comm.requests, 3);
    for response in [pruned, clipped] {
        assert_eq!(response.comm.requests, 1);
        assert_eq!(response.comm.sources_contacted, 1);
    }
}

/// A held-back source is sent the query cells within c of its rectangle
/// *and* of the blocks its sketch shows occupied: pinned bytes.
#[test]
fn a_held_back_source_gets_only_the_cells_within_c_of_its_blocks() {
    // Source 0 answers first, 5 cells from the query: c = 5.  Source 1's
    // rectangle spans (1030..1100)², its data sits in the blocks of its two
    // corners: (1024..1031)² and (1096..1103)².
    let sources = vec![
        source(0, &[dataset(5, &[(1000, 1005)])]),
        source(
            1,
            &[dataset(0, &[(1030, 1030)]), dataset(1, &[(1100, 1100)])],
        ),
    ];
    let cells = [
        (1000, 1000),
        (1034, 1029),
        (1040, 1040),
        (1080, 1083),
        (1093, 1100),
    ];
    let query = dataset(99, &cells);
    let [_, pruned, clipped] = assert_exact_under_every_strategy(&sources, &[query], 1);
    let sent = |cells: &[(u32, u32)]| {
        Message::KnnQuery {
            query: cells.iter().map(|&(x, y)| cell_id(x, y)).collect(),
            k: 1,
        }
        .wire_size()
    };
    // (1000, 1000) lies outside the window the rectangle grown by 5 makes;
    // (1040, 1040) and (1080, 1083) inside it, but 12.7 and 20.6 cells from
    // the nearest block; (1034, 1029) and (1093, 1100) 3 cells from one.
    assert_eq!(
        clipped.comm.bytes_to_sources,
        sent(&cells) + sent(&[(1034, 1029), (1093, 1100)])
    );
    assert_eq!(pruned.comm.bytes_to_sources, 2 * sent(&cells));
    let (answers, by_rectangle) = run(
        &DataCenter::from_global(polled_center(&sources, 4).global().clone()),
        &sources,
        &SearchRequest::knn(dataset(99, &cells)).k(1),
    );
    assert_eq!(answers, [clipped.knn().expect("kNN")[0].neighbors.clone()]);
    assert_eq!(
        by_rectangle.comm.bytes_to_sources,
        sent(&cells) + sent(&cells[1..])
    );
}

#[test]
fn k_zero_asks_nobody() {
    let sources = three_apart();
    let query = dataset(99, &[(1005, 1005)]);
    for response in assert_exact_under_every_strategy(&sources, &[query], 0) {
        assert_eq!(response.comm, CommStats::new());
        assert!(response.knn().expect("kNN")[0].neighbors.is_empty());
    }
}

/// A batch of eight runs its waves on the worker pool, a batch of one on the
/// calling thread; both plan each query alone, so the batch is its queries'
/// single runs side by side — answers and counters.
#[test]
fn a_batch_of_eight_is_eight_batches_of_one() {
    let mut rng = TestRng::from_name("a batch of eight");
    let (sources, mut queries) = random_federation(&mut rng);
    while queries.len() < 8 {
        queries.extend(random_federation(&mut rng).1);
    }
    queries.truncate(8);
    let center = polled_center(&sources, 4);
    let k = 3;
    let (batched, batch) = run(
        &center,
        &sources,
        &SearchRequest::knn_batch(queries.clone()).k(k).workers(4),
    );
    let mut merged = CommStats::new();
    for (query, answer) in queries.iter().zip(&batched) {
        let (single, response) = run(&center, &sources, &SearchRequest::knn(query.clone()).k(k));
        assert_eq!(&single[0], answer);
        assert_eq!(answer, &merged_knn_bruteforce(&sources, query, k));
        merged.merge(&response.comm);
    }
    assert_eq!(merged, batch.comm);
}

// ---------------------------------------------------------------------------
// The same kNN batch on three transports.
// ---------------------------------------------------------------------------

/// Answers and `CommStats` of one kNN batch under each strategy.
type Said = Vec<(Vec<Vec<(SourceId, Neighbor)>>, CommStats)>;

fn say(engine: &QueryEngine, queries: &[SpatialDataset], k: usize) -> Said {
    STRATEGIES
        .iter()
        .map(|&strategy| {
            let request = SearchRequest::knn_batch(queries.to_vec())
                .k(k)
                .strategy(strategy);
            let response = engine.run(&request).expect("kNN");
            (neighbours(&response), response.comm)
        })
        .collect()
}

/// The kNN parity test CI runs by name: three random federations, each
/// asked the same batch over borrowed in-process sources and a center built
/// next to them, over sources behind the exclusive transport's mutex, and
/// over spawned `source-server` processes behind the pooled transport — the
/// last two with a center bootstrapped by summary polls, so the second wave
/// is clipped by the polled sketches.  Every answer and every `CommStats`
/// identical, and every answer the merged brute force.
#[test]
fn the_same_knn_batch_says_the_same_on_three_transports() {
    for name in [
        "three transports a",
        "three transports b",
        "three transports c",
    ] {
        let mut rng = TestRng::from_name(name);
        let (specs, queries) = random_specs(&mut rng);
        let k = (1usize..9).generate(&mut rng);
        let sources = build_sources(&specs);
        let center = polled_center(&sources, 4);
        let in_process = say(
            &QueryEngine::in_process(&center, &sources, EngineConfig::default()),
            &queries,
            k,
        );
        for (answers, _) in &in_process {
            let oracle: Vec<_> = queries
                .iter()
                .map(|q| merged_knn_bruteforce(&sources, q, k))
                .collect();
            assert_eq!(answers, &oracle, "{name}");
        }

        let mut behind_mutex = build_sources(&specs);
        let exclusive = ExclusiveTransport::new(&mut behind_mutex);
        let polled = DataCenter::from_transport(&exclusive, 4).expect("summary polls");
        let said = say(
            &QueryEngine::new(&polled, &exclusive, EngineConfig::default()),
            &queries,
            k,
        );
        assert_eq!(said, in_process, "{name}: exclusive transport");

        let fleet = spawn_fleet(specs.iter().map(|(theta, d)| (*theta, d.as_slice())));
        let polled = DataCenter::from_transport(&fleet.pooled, 4).expect("summary polls");
        let said = say(
            &QueryEngine::new(&polled, &fleet.pooled, EngineConfig::default()),
            &queries,
            k,
        );
        assert_eq!(said, in_process, "{name}: pooled transport");
    }
}
