//! Synthetic dataset generation.
//!
//! Each data source is generated as a mixture of:
//!
//! * **route datasets** — ordered point sequences produced by a random walk
//!   from a hotspot (modelling bus/metro/waterway lines, the dominant shape
//!   in the Transit portal and the motivating example of the paper), and
//! * **cluster datasets** — Gaussian point clouds around a hotspot
//!   (modelling census tracts, POI extracts, land-cover samples).
//!
//! Hotspot centres are themselves drawn inside the source's extent, giving
//! the multi-modal density visible in the Fig. 7 heatmaps.  Every value is
//! drawn from one seeded SplitMix64 stream per source, so a
//! `(profile, seed, scale)` triple always produces the same source.
//!
//! The stream is read in two passes.  The calling thread draws the hotspots
//! and each dataset's three header draws (hotspot, size, shape), which fix
//! how many draws the dataset's body takes; it notes where the body starts,
//! jumps over it in O(1), and allocates the dataset's name and point vector.
//! The bodies are then filled on one thread per CPU, each on a contiguous
//! run of datasets, from the states the first pass noted.  A body's draws
//! are the ones a single thread reading the stream end to end would make, so
//! the output is identical bit for bit whatever the CPU count, and the
//! workers allocate nothing.

use crate::sources::{SourceProfile, SourceScale};
use spatial::{Mbr, Point, SpatialDataset};

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Scale factor applied to the profile's dataset/point counts.
    pub scale: SourceScale,
    /// RNG seed; the same seed always regenerates the same source.
    pub seed: u64,
    /// Cap on the number of points per dataset (keeps the heaviest BTAA/UMN
    /// datasets tractable); `None` keeps the profile's natural sizes.
    pub max_points_per_dataset: Option<usize>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            scale: SourceScale::Tenth,
            seed: 0x5EED_CAFE,
            max_points_per_dataset: Some(2_000),
        }
    }
}

/// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), bit for bit the stream
/// the workspace's `rand` stand-in calls `StdRng`.  Owned here so the
/// corpus does not move if that stand-in is swapped for the real crate, and
/// because jumping ahead is a property of SplitMix: the state after `n`
/// draws is the seed plus `n` times the increment.
#[derive(Debug, Clone, PartialEq)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`), by the remainder.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Skips `draws` draws in O(1).
    fn advance(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(draws.wrapping_mul(Self::GAMMA));
    }
}

/// Below this many points a run of datasets is not worth a thread of its
/// own (as the framework build's chunks): the tests' small corpora stay on
/// the calling thread.
const MIN_RUN_POINTS: usize = 1 << 14;

/// Generates all datasets of one data source according to its profile.
///
/// The calling thread reads every dataset's header and allocates its name
/// and points; the bodies are then filled on one thread per available CPU,
/// the calling thread included, and the workers allocate nothing.  The
/// output is identical bit for bit for every CPU count.
pub fn generate_source(profile: &SourceProfile, config: &GeneratorConfig) -> Vec<SpatialDataset> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    generate_on(profile, config, threads, MIN_RUN_POINTS)
}

/// A dataset's body: where it lies, its shape, and the stream state its
/// draws start from.
struct Body {
    center: Point,
    spread: f64,
    size: usize,
    route: bool,
    rng: SplitMix64,
}

impl Body {
    /// The draws [`Body::fill`] takes: a route's start and heading, then
    /// four a point; a cluster's four a point.
    fn draws(&self) -> u64 {
        let per_point = 4 * self.size as u64;
        if self.route {
            5 + per_point
        } else {
            per_point
        }
    }

    /// Pushes the body's `size` points onto `points`.
    fn fill(&self, extent: &Mbr, points: &mut Vec<Point>) {
        let mut rng = self.rng.clone();
        let generate = if self.route {
            generate_route
        } else {
            generate_cluster
        };
        generate(self, extent, &mut rng, points);
        debug_assert_eq!(rng, {
            let mut end = self.rng.clone();
            end.advance(self.draws());
            end
        });
    }
}

/// [`generate_source`] on at most `threads` threads, none of them given a
/// run of fewer than `min_run_points` points.
fn generate_on(
    profile: &SourceProfile,
    config: &GeneratorConfig,
    threads: usize,
    min_run_points: usize,
) -> Vec<SpatialDataset> {
    let mut rng = SplitMix64::new(config.seed ^ hash_name(profile.name));
    let dataset_count = profile.scaled_dataset_count(config.scale);
    let mean_points = profile.mean_points_per_dataset();

    // Hotspot centres with individual spreads: a fraction of the extent.
    let hotspots: Vec<(Point, f64)> = (0..profile.hotspots.max(1))
        .map(|_| {
            let c = random_point_in(&profile.extent, &mut rng);
            // Keep hotspots tight relative to the extent: real portal
            // datasets (routes, tracts, POI extracts) are local, and the
            // clustered-not-uniform shape of Fig. 7 depends on it.
            let spread = 0.004 + 0.02 * rng.unit();
            let spread = spread
                * profile
                    .extent
                    .width()
                    .min(profile.extent.height())
                    .max(1e-6);
            (c, spread)
        })
        .collect();

    // Header pass: each dataset's three header draws, then a jump over its
    // body.  Every allocation is made here.
    let mut datasets = Vec::with_capacity(dataset_count);
    let mut bodies = Vec::with_capacity(dataset_count);
    for i in 0..dataset_count {
        let (center, spread) = hotspots[rng.below(hotspots.len())];
        // Log-normal-ish size distribution around the profile mean.
        let factor = (rng.unit() * 2.0).exp() / std::f64::consts::E;
        let mut size = ((mean_points as f64) * factor).round() as usize;
        size = size.clamp(2, config.max_points_per_dataset.unwrap_or(usize::MAX));
        let route = rng.unit() < profile.route_fraction;
        let body = Body {
            center,
            spread,
            size,
            route,
            rng: rng.clone(),
        };
        rng.advance(body.draws());
        datasets.push(SpatialDataset::named(
            i as u32,
            format!("{}-{i}", profile.name),
            Vec::with_capacity(size),
        ));
        bodies.push(body);
    }

    // Body pass: contiguous runs of about equal draw count, the first on
    // the calling thread.
    let points: usize = bodies.iter().map(|b| b.size).sum();
    let run_count = threads.min(points / min_run_points).max(1);
    let total: u64 = bodies.iter().map(Body::draws).sum();
    let mut run_lengths = vec![0usize; run_count];
    let mut start = 0u64;
    for body in &bodies {
        // The run this body starts in, by its first draw's place in the stream.
        let run = (u128::from(start) * run_count as u128 / u128::from(total)) as usize;
        run_lengths[run] += 1;
        start += body.draws();
    }
    std::thread::scope(|scope| {
        let (mut rest, mut rest_bodies) = (&mut datasets[..], &bodies[..]);
        let mut runs = run_lengths.into_iter().filter(|&len| len > 0).map(|len| {
            let (run, after) = std::mem::take(&mut rest).split_at_mut(len);
            let (run_bodies, after_bodies) = rest_bodies.split_at(len);
            (rest, rest_bodies) = (after, after_bodies);
            (run, run_bodies)
        });
        let own = runs.next();
        let workers: Vec<_> = runs
            .map(|(run, run_bodies)| {
                scope.spawn(move || fill_run(run, run_bodies, &profile.extent))
            })
            .collect();
        if let Some((run, run_bodies)) = own {
            fill_run(run, run_bodies, &profile.extent);
        }
        // Joined by hand: the scope alone can return before a worker's
        // thread has exited and handed its malloc arena back, and the next
        // thread to allocate would then open another.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    datasets
}

/// Fills each dataset of a run with its body's points.
fn fill_run(run: &mut [SpatialDataset], bodies: &[Body], extent: &Mbr) {
    for (dataset, body) in run.iter_mut().zip(bodies) {
        body.fill(extent, &mut dataset.points);
    }
}

/// A route-like dataset: a random walk starting near a hotspot, pushed onto
/// `points`.
fn generate_route(body: &Body, extent: &Mbr, rng: &mut SplitMix64, points: &mut Vec<Point>) {
    let (center, spread) = (body.center, body.spread);
    let mut x = center.x + gaussian(rng) * spread;
    let mut y = center.y + gaussian(rng) * spread;
    // Persistent heading with small perturbations makes line-shaped routes.
    let mut heading = rng.unit() * std::f64::consts::TAU;
    let step = (spread * 0.2).max(1e-4);
    for _ in 0..body.size {
        points.push(clamp_point(Point::new(x, y), extent));
        heading += gaussian(rng) * 0.3;
        x += heading.cos() * step * (0.5 + rng.unit());
        y += heading.sin() * step * (0.5 + rng.unit());
    }
}

/// A cluster dataset: a Gaussian cloud around the hotspot, pushed onto
/// `points`.
fn generate_cluster(body: &Body, extent: &Mbr, rng: &mut SplitMix64, points: &mut Vec<Point>) {
    let (center, spread) = (body.center, body.spread);
    points.extend((0..body.size).map(|_| {
        clamp_point(
            Point::new(
                center.x + gaussian(rng) * spread,
                center.y + gaussian(rng) * spread,
            ),
            extent,
        )
    }));
}

/// Samples a standard normal with the Box–Muller transform (avoids pulling in
/// `rand_distr` just for one distribution).
fn gaussian(rng: &mut SplitMix64) -> f64 {
    let u1 = rng.unit().max(f64::MIN_POSITIVE);
    let u2 = rng.unit();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn random_point_in(extent: &Mbr, rng: &mut SplitMix64) -> Point {
    Point::new(
        extent.min.x + rng.unit() * extent.width(),
        extent.min.y + rng.unit() * extent.height(),
    )
}

fn clamp_point(p: Point, extent: &Mbr) -> Point {
    Point::new(
        p.x.clamp(extent.min.x, extent.max.x),
        p.y.clamp(extent.min.y, extent.max.y),
    )
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, good enough to decorrelate the per-source RNG streams.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::paper_sources;
    use rand::prelude::*;
    use spatial::SourceStats;

    fn small_config() -> GeneratorConfig {
        GeneratorConfig {
            scale: SourceScale::Custom(100),
            seed: 7,
            max_points_per_dataset: Some(200),
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let profile = &paper_sources()[3];
        let a = generate_source(profile, &small_config());
        let b = generate_source(profile, &small_config());
        assert_eq!(a, b);
        let c = generate_source(
            profile,
            &GeneratorConfig {
                seed: 8,
                ..small_config()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn dataset_counts_follow_the_scaled_profile() {
        for profile in paper_sources() {
            let datasets = generate_source(&profile, &small_config());
            assert_eq!(
                datasets.len(),
                profile.scaled_dataset_count(SourceScale::Custom(100))
            );
            for d in &datasets {
                assert!(d.len() >= 2);
                assert!(d.len() <= 200);
            }
        }
    }

    #[test]
    fn points_stay_inside_the_extent() {
        for profile in paper_sources() {
            let datasets = generate_source(&profile, &small_config());
            for d in &datasets {
                for p in &d.points {
                    assert!(
                        profile.extent.contains_point(p),
                        "{} point {:?} outside {:?}",
                        profile.name,
                        p,
                        profile.extent
                    );
                }
            }
        }
    }

    #[test]
    fn sources_are_spatially_clustered_not_uniform() {
        // With hotspot-driven generation, the occupied area should be a small
        // fraction of the extent for region-wide portals such as BTAA.
        let profile = &paper_sources()[1];
        let datasets = generate_source(profile, &small_config());
        let stats = SourceStats::compute(profile.name, &datasets);
        let occupied = stats.extent.unwrap();
        // Dataset MBRs individually should be much smaller than the source
        // extent (routes and clusters are local).
        let mut small = 0usize;
        for d in &datasets {
            if let Some(m) = d.mbr() {
                if m.area() < 0.01 * occupied.area().max(1e-9) {
                    small += 1;
                }
            }
        }
        assert!(
            small * 2 > datasets.len(),
            "most datasets should be local: {small}/{}",
            datasets.len()
        );
    }

    #[test]
    fn route_datasets_look_like_lines() {
        // Generate the Transit source (85% routes) and check that dataset
        // MBRs are elongated or thin rather than square blobs on average.
        let profile = &paper_sources()[3];
        let datasets = generate_source(profile, &small_config());
        let mut elongated = 0usize;
        let mut measured = 0usize;
        for d in &datasets {
            if let Some(m) = d.mbr() {
                if m.width() > 0.0 && m.height() > 0.0 {
                    measured += 1;
                    let ratio = (m.width() / m.height()).max(m.height() / m.width());
                    if ratio > 1.5 {
                        elongated += 1;
                    }
                }
            }
        }
        assert!(measured > 0);
        assert!(
            elongated * 3 > measured,
            "expected a visible fraction of elongated routes: {elongated}/{measured}"
        );
    }

    #[test]
    fn splitmix_is_the_rand_stand_ins_stream_and_advance_skips_draws() {
        for seed in [0, 7, 0x5EED_CAFE, u64::MAX] {
            let (mut ours, mut theirs) = (SplitMix64::new(seed), StdRng::seed_from_u64(seed));
            for n in [1, 2, 3, 7, 1_000, usize::MAX] {
                assert_eq!(ours.next_u64(), theirs.next_u64());
                assert_eq!(ours.unit().to_bits(), theirs.random::<f64>().to_bits());
                assert_eq!(ours.below(n), theirs.random_range(0..n));
            }
            for n in [0, 1, 2, 5, 64, 1_000] {
                let mut jumped = ours.clone();
                jumped.advance(n);
                for _ in 0..n {
                    ours.next_u64();
                }
                assert_eq!(jumped, ours, "seed {seed}: advance({n})");
            }
        }
    }

    /// FNV-1a over every dataset's id, name and point bits, in order.
    fn digest(datasets: &[SpatialDataset]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for d in datasets {
            eat(&d.id.to_le_bytes());
            eat(d.name.as_bytes());
            for p in &d.points {
                eat(&p.x.to_bits().to_le_bytes());
                eat(&p.y.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// The five sources are the ones a single thread reading the stream end
    /// to end generated (digests taken before generation was split across
    /// CPUs), at the federation benchmark's config and at a small one, on
    /// this machine's CPUs and on eight threads.
    #[test]
    fn the_corpus_generated_across_cpus_is_the_serial_stream() {
        let benchmark = GeneratorConfig {
            max_points_per_dataset: Some(1_000),
            ..GeneratorConfig::default()
        };
        let pinned = [
            (
                benchmark,
                [
                    0xb587_a2e9_262f_a3e2,
                    0x3c9a_18d3_4052_4f0a,
                    0x5937_bc18_e69e_8757,
                    0xac92_38f2_fa26_fc87,
                    0xacdf_cef5_1391_986a,
                ],
            ),
            (
                small_config(),
                [
                    0xce24_c0da_4423_0442,
                    0x2346_85e9_b218_9188,
                    0xb4da_065e_6e2a_0474,
                    0x2d14_5f49_56ed_9c8f,
                    0x2f19_70bf_e4b0_f27c,
                ],
            ),
        ];
        for (config, digests) in pinned {
            for (profile, want) in paper_sources().iter().zip(digests) {
                let here = generate_source(profile, &config);
                assert_eq!(digest(&here), want, "{} at {config:?}", profile.name);
                let eight = generate_on(profile, &config, 8, MIN_RUN_POINTS);
                assert!(eight == here, "{} at {config:?} on 8 threads", profile.name);
            }
        }
    }

    /// One seeded (scale, seed, cap), every source generated on 2, 3 and 8
    /// threads with runs as short as one point, each equal to one thread.
    fn run_split_case(case_seed: u64) {
        let mut rng = SplitMix64::new(case_seed);
        let config = GeneratorConfig {
            scale: SourceScale::Custom(20 + rng.below(400) as u32),
            seed: rng.next_u64(),
            max_points_per_dataset: match rng.below(4) {
                0 => None,
                _ => Some(2 + rng.below(300)),
            },
        };
        for profile in paper_sources() {
            let serial = generate_on(&profile, &config, 1, 1);
            for threads in [2, 3, 8] {
                assert!(
                    generate_on(&profile, &config, threads, 1) == serial,
                    "{} at {config:?} on {threads} threads differs from one thread; \
                     replay it with `run_split_case({case_seed})`",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn prop_any_split_of_the_bodies_is_the_serial_stream() {
        for case_seed in 0..16 {
            run_split_case(case_seed);
        }
    }
}
