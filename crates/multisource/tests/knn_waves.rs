//! Federated kNN in two waves is exact: whatever the federation looks like,
//! the engine's answer is the merge of one brute-force search per source —
//! each at the source's own resolution, as the reducer merges reported
//! distances — under every distribution strategy, full
//! `(SourceId, Neighbor)` equality, distance bits included.  The strategies
//! differ only in what they send: `Broadcast` one whole query to everyone,
//! `Pruned` skips the sources the first wave's k-th distance rules out,
//! `PrunedClipped` also clips what the rest receive.

use dits::knn::nearest_datasets_bruteforce;
use dits::{DatasetNode, DitsLocalConfig, Neighbor, ReplayOnPanic};
use multisource::{
    CommStats, DataCenter, DataSource, DistributionStrategy, EngineConfig, QueryEngine,
    SearchRequest, SearchResponse,
};
use proptest::prelude::*;
use spatial::zorder::cell_id;
use spatial::{Grid, Point, SourceId, SpatialDataset};

const STRATEGIES: [DistributionStrategy; 3] = [
    DistributionStrategy::Broadcast,
    DistributionStrategy::Pruned,
    DistributionStrategy::PrunedClipped,
];

/// The oracle: every source's brute-force kNN at its own resolution, merged
/// the way the center merges replies.
fn merged_bruteforce(
    sources: &[DataSource],
    query: &SpatialDataset,
    k: usize,
) -> Vec<(SourceId, Neighbor)> {
    let mut all: Vec<(SourceId, Neighbor)> = Vec::new();
    for source in sources {
        let nodes: Vec<DatasetNode> = source
            .index()
            .dataset_nodes()
            .into_iter()
            .cloned()
            .collect();
        let local = nearest_datasets_bruteforce(&nodes, &source.grid_query(query), k);
        all.extend(local.into_iter().map(|n| (source.id, n)));
    }
    all.sort_unstable_by(|a, b| {
        a.1.distance
            .total_cmp(&b.1.distance)
            .then(a.0.cmp(&b.0))
            .then(a.1.dataset.cmp(&b.1.dataset))
    });
    all.truncate(k);
    all
}

fn run(
    center: &DataCenter,
    sources: &[DataSource],
    request: &SearchRequest,
) -> (Vec<Vec<(SourceId, Neighbor)>>, SearchResponse) {
    let response = QueryEngine::in_process(center, sources, EngineConfig::default())
        .run(request)
        .expect("in-process kNN");
    let answers = response
        .knn()
        .expect("a kNN response")
        .iter()
        .map(|a| a.neighbors.clone())
        .collect();
    (answers, response)
}

/// Runs the batch under the three strategies, holds each answer to the
/// oracle and the traffic to `Broadcast ≥ Pruned ≥ PrunedClipped`, and
/// returns the three responses in that order.
fn assert_exact_under_every_strategy(
    sources: &[DataSource],
    queries: &[SpatialDataset],
    k: usize,
) -> [SearchResponse; 3] {
    let center = DataCenter::build(sources, 4);
    let oracle: Vec<_> = queries
        .iter()
        .map(|q| merged_bruteforce(sources, q, k))
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

/// A random federation and query batch, fully determined by `rng`: 2–7
/// sources whose regions overlap as often as not, at one shared resolution
/// or at one each, and 1–8 queries in and around them.
fn random_federation(rng: &mut TestRng) -> (Vec<DataSource>, Vec<SpatialDataset>) {
    let blob = |rng: &mut TestRng, cx: f64, cy: f64, id: u32| {
        let points = (0..(1usize..7).generate(rng))
            .map(|_| {
                Point::new(
                    cx + (-0.3f64..0.3).generate(rng),
                    cy + (-0.3f64..0.3).generate(rng),
                )
            })
            .collect();
        SpatialDataset::new(id, points)
    };
    let mixed = (0u8..2).generate(rng) == 1;
    let sources = (0..(2u16..8).generate(rng))
        .map(|id| {
            let resolution = if mixed { (9u32..13).generate(rng) } else { 11 };
            let (cx, cy) = ((10.0f64..16.0).generate(rng), (50.0f64..56.0).generate(rng));
            let datasets: Vec<SpatialDataset> = (0..(1u32..10).generate(rng))
                .map(|d| {
                    let (dx, dy) = ((-1.5f64..1.5).generate(rng), (-1.5f64..1.5).generate(rng));
                    blob(rng, cx + dx, cy + dy, d)
                })
                .collect();
            DataSource::build(
                id,
                format!("s{id}"),
                Grid::global(resolution).expect("a valid resolution"),
                &datasets,
                DitsLocalConfig::default(),
            )
        })
        .collect();
    let queries = (0..(1u32..9).generate(rng))
        .map(|q| {
            let (cx, cy) = ((6.0f64..20.0).generate(rng), (46.0f64..60.0).generate(rng));
            blob(rng, cx, cy, 900 + q)
        })
        .collect();
    (sources, queries)
}

/// One random case, fully determined by `case_seed`.
fn run_two_wave_case(case_seed: u64) {
    let _replay = ReplayOnPanic("run_two_wave_case", case_seed);
    let mut rng = TestRng::from_name(&case_seed.to_string());
    let (sources, queries) = random_federation(&mut rng);
    let k = (0usize..9).generate(&mut rng);
    assert_exact_under_every_strategy(&sources, &queries, k);
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

fn dataset(id: u32, cells: &[(u32, u32)]) -> SpatialDataset {
    let grid = Grid::global(11).expect("θ = 11");
    let points = cells
        .iter()
        .map(|&(x, y)| grid.cell_center(cell_id(x, y)))
        .collect();
    SpatialDataset::new(id, points)
}

fn source(id: SourceId, datasets: &[SpatialDataset]) -> DataSource {
    DataSource::build(
        id,
        format!("s{id}"),
        Grid::global(11).expect("θ = 11"),
        datasets,
        DitsLocalConfig::default(),
    )
}

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
    let center = DataCenter::build(&sources, 4);
    for strategy in STRATEGIES {
        let request = SearchRequest::knn(query.clone()).k(1).strategy(strategy);
        let (answers, response) = run(&center, &sources, &request);
        let expected = Neighbor {
            dataset: 7,
            distance: 3.0,
        };
        assert_eq!(answers, [vec![(0, expected)]], "{strategy:?}");
        assert_eq!(response.comm.requests, 2, "{strategy:?}");
        assert_eq!(response.per_source[0].source, 0);
    }
    assert_exact_under_every_strategy(&sources, &[query], 1);
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
    let center = DataCenter::build(&sources, 4);
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
        assert_eq!(answer, &merged_bruteforce(&sources, query, k));
        merged.merge(&response.comm);
    }
    assert_eq!(merged, batch.comm);
}
