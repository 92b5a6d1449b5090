//! The corpus and the seeded request sequences.
//!
//! The corpus is fixed: `datagen::paper_sources()` at one tenth of Table I
//! with the generator's own seed, the paper's defaults for everything else.
//! `--seed` drives the *requests*: every query is a corpus dataset moved by
//! a seeded offset of up to half a cell width, and so is every dataset a
//! maintenance batch inserts or updates.
//!
//! Which corpus datasets a run queries, and in which order, does not depend
//! on the seed.  Query cost varies by an order of magnitude with the source
//! and size of the query dataset (CJSP 170-310 ms by source, kNN 3-230 ms),
//! so a seeded *choice* of 60 queries moves a run's median by about a
//! tenth from seed to seed, which would drown the regressions the bounds
//! are there to catch.  Instead the base list is a systematic sample of the
//! corpus ordered by (source, size), visited in bit-reversal order so that
//! any window of consecutive requests covers all sources and sizes.
//! Within a run every request is distinct, so a result cache cannot turn the
//! run into hits.

use datagen::{generate_source, paper_sources, GeneratorConfig, SourceScale};
use multisource::{SearchRequest, UpdateOp};
use spatial::{DatasetId, Point, SourceId, SpatialDataset};

/// Table II defaults.
pub const THETA: u32 = 12;
pub const K: usize = 10;
pub const DELTA_CELLS: f64 = 10.0;
pub const LEAF_CAPACITY: usize = 10;

/// Largest query offset, in cell widths / heights at θ = 12.  Half a cell
/// regrids a dataset — points near a cell border change cells, so no two
/// requests carry the same cell set — without moving it off the datasets it
/// overlaps: at three cells the cost of one CJSP base query moved by a
/// fifth from seed to seed, and so did the run medians.
const MAX_SHIFT_CELLS: f64 = 0.5;
const CELL_WIDTH: f64 = 360.0 / (1u32 << THETA) as f64;
const CELL_HEIGHT: f64 = 180.0 / (1u32 << THETA) as f64;

/// Queries per kNN request: 8 queries x 5 sources = 40 shard tasks, enough
/// for the engine's scoped worker pool to engage.
pub const KNN_BATCH: usize = 8;
/// OJSP queries after each maintenance batch of `churn_fed`.
pub const CHURN_QUERIES_PER_ROUND: usize = 20;

/// `name, datasets` per source, the shape `MultiSourceFramework::build`
/// takes.
pub type Corpus = Vec<(String, Vec<SpatialDataset>)>;

/// Generates the five sources.  `quick` is the 1/50 corpus the tests use.
pub fn generate_corpus(quick: bool) -> Corpus {
    let config = GeneratorConfig {
        scale: if quick {
            SourceScale::Fiftieth
        } else {
            SourceScale::Tenth
        },
        max_points_per_dataset: Some(1_000),
        ..GeneratorConfig::default()
    };
    paper_sources()
        .iter()
        .map(|p| (p.name.to_string(), generate_source(p, &config)))
        .collect()
}

/// SplitMix64: small, seedable, and owned by the benchmark so the request
/// sequences do not move when the workspace's `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A generator for item `index` of stream `stream` under `seed`: sequences
/// are random-access, so "the first N requests" can be replayed at will.
fn rng_for(seed: u64, stream: u64, index: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
    let base = mix.next_u64();
    SplitMix64::new(base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A seeded draw deciding whether request `index` is compared with the
/// oracle.
pub fn sample_draw(seed: u64, index: usize) -> u64 {
    rng_for(seed, 3, index as u64).next_u64()
}

/// `points` moved by a seeded offset, kept inside the lon/lat domain (a
/// dataset gridded to nothing would be rejected as an update).
fn shifted(points: &[Point], rng: &mut SplitMix64) -> Vec<Point> {
    let dx = (rng.unit() * 2.0 - 1.0) * MAX_SHIFT_CELLS * CELL_WIDTH;
    let dy = (rng.unit() * 2.0 - 1.0) * MAX_SHIFT_CELLS * CELL_HEIGHT;
    points
        .iter()
        .map(|p| {
            Point::new(
                (p.x + dx).clamp(-180.0, 180.0),
                (p.y + dy).clamp(-90.0, 90.0),
            )
        })
        .collect()
}

/// `(source index, dataset index)` of every corpus dataset, ordered by
/// source, then size, then id.
fn ordered_pool(corpus: &Corpus) -> Vec<(usize, usize)> {
    let mut pool: Vec<(usize, usize)> = corpus
        .iter()
        .enumerate()
        .flat_map(|(s, (_, datasets))| (0..datasets.len()).map(move |d| (s, d)))
        .collect();
    pool.sort_by_key(|&(s, d)| (s, corpus[s].1[d].points.len(), corpus[s].1[d].id));
    pool
}

/// `len` entries of `pool` at even spacing (all of it when `len` covers it).
fn systematic_sample(pool: &[(usize, usize)], len: usize) -> Vec<(usize, usize)> {
    if len >= pool.len() {
        return pool.to_vec();
    }
    (0..len)
        .map(|i| pool[(2 * i + 1) * pool.len() / (2 * len)])
        .collect()
}

/// A visiting order of `0..len` by bit reversal (the van der Corput
/// sequence): any eight consecutive visits land in eight different eighths
/// of the range, any sixteen in sixteen sixteenths, and so on — exactly for
/// a power of two, nearly otherwise.
fn bit_reversal_order(len: usize) -> Vec<usize> {
    let bits = len.next_power_of_two().trailing_zeros();
    if bits == 0 {
        return (0..len).collect();
    }
    (0..1usize << bits)
        .map(|i| i.reverse_bits() >> (usize::BITS - bits))
        .filter(|&r| r < len)
        .collect()
}

/// Which search a query sequence issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    Ojsp,
    Cjsp,
    Knn,
}

/// A seeded, random-access sequence of search requests over a fixed base
/// list of corpus datasets.
#[derive(Debug, Clone)]
pub struct QuerySequence {
    kind: QueryKind,
    base: Vec<SpatialDataset>,
    seed: u64,
}

impl QuerySequence {
    /// `base_len` corpus datasets (systematic sample, bit-reversal order) queried
    /// as `kind`.
    pub fn new(corpus: &Corpus, kind: QueryKind, base_len: usize, seed: u64) -> Self {
        let sample = systematic_sample(&ordered_pool(corpus), base_len);
        let base = bit_reversal_order(sample.len())
            .into_iter()
            .map(|i| {
                let (s, d) = sample[i];
                corpus[s].1[d].clone()
            })
            .collect();
        Self { kind, base, seed }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `n`-th query: base dataset `n mod len`, moved by the `n`-th
    /// offset.  The id marks it as a query, not a corpus member.
    pub fn query(&self, n: usize) -> SpatialDataset {
        let base = &self.base[n % self.base.len()];
        let mut rng = rng_for(self.seed, 1, n as u64);
        SpatialDataset::new(
            u32::MAX - (n as u32 & 0xffff),
            shifted(&base.points, &mut rng),
        )
    }

    /// The `i`-th request with the paper's defaults.
    pub fn request(&self, i: usize) -> SearchRequest {
        match self.kind {
            QueryKind::Ojsp => SearchRequest::ojsp(self.query(i)).k(K),
            QueryKind::Cjsp => SearchRequest::cjsp(self.query(i))
                .k(K)
                .delta_cells(DELTA_CELLS),
            QueryKind::Knn => SearchRequest::knn_batch(
                (i * KNN_BATCH..(i + 1) * KNN_BATCH)
                    .map(|n| self.query(n))
                    .collect(),
            )
            .k(K),
        }
    }
}

/// Ids of datasets `churn_fed` inserts start here, clear of the corpus.
const CHURN_ID_BASE: DatasetId = 1_000_000;

/// The maintenance stream of `churn_fed`: batch `r` goes to source
/// `r mod 5` and mixes inserts of new datasets, updates of corpus datasets
/// (moved in place) and deletes of earlier inserts, 3:4:3, so the corpus
/// keeps its size and no operation is ever rejected.
///
/// As with the queries, the seed moves the data and nothing else: which
/// operation comes when, on which dataset, is the same for every seed (so
/// every seed ships batches of the same sizes), and the seed draws the
/// offset each inserted or updated dataset is moved by.
#[derive(Debug, Clone)]
pub struct ChurnSequence<'a> {
    corpus: &'a Corpus,
    seed: u64,
    ops_per_batch: usize,
    round: usize,
    next_id: DatasetId,
    inserted: Vec<Vec<DatasetId>>,
}

/// Seed of the seed-independent part of the maintenance stream.
const CHURN_SHAPE_SEED: u64 = 0x5eed_cafe;

impl<'a> ChurnSequence<'a> {
    pub fn new(corpus: &'a Corpus, ops_per_batch: usize, seed: u64) -> Self {
        Self {
            corpus,
            seed,
            ops_per_batch,
            round: 0,
            next_id: CHURN_ID_BASE,
            inserted: vec![Vec::new(); corpus.len()],
        }
    }

    /// Rounds generated so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Forgets the datasets inserted so far: the stream goes on, against a
    /// deployment that is back to the bare corpus.
    pub fn start_deployment(&mut self) {
        self.inserted.iter_mut().for_each(Vec::clear);
    }

    /// The next batch and the source it is for.
    pub fn next_batch(&mut self) -> (SourceId, Vec<UpdateOp>) {
        let source = self.round % self.corpus.len();
        let datasets = &self.corpus[source].1;
        let mut shape = rng_for(CHURN_SHAPE_SEED, 2, self.round as u64);
        let mut offsets = rng_for(self.seed, 2, self.round as u64);
        let mut updated: Vec<DatasetId> = Vec::new();
        let ops = (0..self.ops_per_batch)
            .map(|_| {
                let draw = shape.below(10);
                let template = &datasets[shape.below(datasets.len())];
                if draw >= 7 && !self.inserted[source].is_empty() {
                    let victim = shape.below(self.inserted[source].len());
                    UpdateOp::Delete(self.inserted[source].swap_remove(victim))
                } else if (3..7).contains(&draw) && !updated.contains(&template.id) {
                    updated.push(template.id);
                    UpdateOp::Update(SpatialDataset::new(
                        template.id,
                        shifted(&template.points, &mut offsets),
                    ))
                } else {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.inserted[source].push(id);
                    UpdateOp::Insert(SpatialDataset::new(
                        id,
                        shifted(&template.points, &mut offsets),
                    ))
                }
            })
            .collect();
        self.round += 1;
        (source as SourceId, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn corpus() -> Corpus {
        generate_corpus(true)
    }

    #[test]
    fn same_seed_gives_identical_requests_and_ops() {
        let corpus = corpus();
        for kind in [QueryKind::Ojsp, QueryKind::Cjsp, QueryKind::Knn] {
            let a = QuerySequence::new(&corpus, kind, 64, 11);
            let b = QuerySequence::new(&corpus, kind, 64, 11);
            let c = QuerySequence::new(&corpus, kind, 64, 12);
            for i in [0, 1, 63, 64, 500] {
                assert_eq!(a.request(i), b.request(i));
                assert_ne!(a.request(i), c.request(i), "another seed moves the queries");
            }
            // Random access: asking out of order changes nothing.
            assert_eq!(a.request(7), b.request(7));
        }
        let mut a = ChurnSequence::new(&corpus, 6, 11);
        let mut b = ChurnSequence::new(&corpus, 6, 11);
        let mut c = ChurnSequence::new(&corpus, 6, 12);
        let (mut same, mut differs) = (true, false);
        for _ in 0..12 {
            let (x, y, z) = (a.next_batch(), b.next_batch(), c.next_batch());
            same &= x == y;
            differs |= x != z;
        }
        assert!(same && differs);
    }

    #[test]
    fn requests_of_one_run_are_distinct() {
        let corpus = corpus();
        let seq = QuerySequence::new(&corpus, QueryKind::Ojsp, 16, 3);
        // Three passes over a 16-entry base list: same datasets, new offsets.
        let seen: BTreeSet<String> = (0..48)
            .map(|i| format!("{:?}", seq.request(i).queries()[0].points))
            .collect();
        assert_eq!(seen.len(), 48);
        let knn = QuerySequence::new(&corpus, QueryKind::Knn, 64, 3);
        assert_eq!(knn.request(0).queries().len(), KNN_BATCH);
        assert_eq!(knn.request(1).queries()[0], knn.query(KNN_BATCH));
    }

    #[test]
    fn base_list_is_seed_independent_and_spread_over_the_corpus() {
        let corpus = corpus();
        let pool = ordered_pool(&corpus);
        let total: usize = corpus.iter().map(|(_, d)| d.len()).sum();
        assert_eq!(pool.len(), total);
        let sample = systematic_sample(&pool, 40);
        assert_eq!(sample.len(), 40);
        let sources: BTreeSet<usize> = sample.iter().map(|&(s, _)| s).collect();
        assert_eq!(sources.len(), corpus.len(), "every source is sampled");
        assert_eq!(systematic_sample(&pool, total + 5).len(), total);

        for len in [1, 2, 3, 8, 64, 365, 1828] {
            let order = bit_reversal_order(len);
            let unique: BTreeSet<usize> = order.iter().copied().collect();
            assert_eq!(unique.len(), len, "a permutation of 0..{len}");
        }
        // Any window of eight consecutive visits of 64 touches every eighth.
        let order = bit_reversal_order(64);
        for window in order.windows(8) {
            let eighths: BTreeSet<usize> = window.iter().map(|i| i / 8).collect();
            assert_eq!(eighths.len(), 8, "{window:?}");
        }

        let a = QuerySequence::new(&corpus, QueryKind::Cjsp, 32, 1);
        let b = QuerySequence::new(&corpus, QueryKind::Cjsp, 32, 2);
        assert_eq!(a.base, b.base);
    }

    #[test]
    fn churn_targets_rotate_and_every_op_is_applicable() {
        let corpus = corpus();
        let mut seq = ChurnSequence::new(&corpus, 8, 5);
        let mut live: Vec<BTreeSet<DatasetId>> = corpus
            .iter()
            .map(|(_, d)| d.iter().map(|x| x.id).collect())
            .collect();
        let mut kinds = [0usize; 3];
        for round in 0..40 {
            let (source, ops) = seq.next_batch();
            assert_eq!(source as usize, round % corpus.len());
            assert_eq!(ops.len(), 8);
            let ids = &mut live[source as usize];
            for op in ops {
                match op {
                    UpdateOp::Insert(d) => {
                        assert!(!d.points.is_empty());
                        assert!(ids.insert(d.id), "insert of a fresh id");
                        kinds[0] += 1;
                    }
                    UpdateOp::Update(d) => {
                        assert!(ids.contains(&d.id), "update of a live id");
                        assert!(d.id < CHURN_ID_BASE, "updates move corpus datasets");
                        kinds[1] += 1;
                    }
                    UpdateOp::Delete(id) => {
                        assert!(ids.remove(&id), "delete of a live id");
                        assert!(id >= CHURN_ID_BASE, "the corpus itself is never deleted");
                        kinds[2] += 1;
                    }
                }
            }
        }
        assert!(kinds.iter().all(|&n| n > 40), "{kinds:?}");
        assert_eq!(seq.round(), 40);

        // Against a fresh deployment nothing inserted earlier is deleted.
        seq.start_deployment();
        let corpus_ids: Vec<BTreeSet<DatasetId>> = corpus
            .iter()
            .map(|(_, d)| d.iter().map(|x| x.id).collect())
            .collect();
        let mut live = corpus_ids.clone();
        for _ in 0..10 {
            let (source, ops) = seq.next_batch();
            for op in ops {
                match op {
                    UpdateOp::Insert(d) => assert!(live[source as usize].insert(d.id)),
                    UpdateOp::Update(d) => assert!(live[source as usize].contains(&d.id)),
                    UpdateOp::Delete(id) => assert!(live[source as usize].remove(&id)),
                }
            }
        }
        assert_eq!(seq.round(), 50);
    }

    #[test]
    fn shifted_points_stay_in_the_domain() {
        let mut rng = SplitMix64::new(9);
        let edge = [Point::new(179.99, 89.99), Point::new(-180.0, -90.0)];
        for _ in 0..100 {
            for p in shifted(&edge, &mut rng) {
                assert!((-180.0..=180.0).contains(&p.x) && (-90.0..=90.0).contains(&p.y));
            }
        }
    }
}
