//! Order statistics, the segment noise reading and the answer digest.

/// The percentiles the benchmark reports, lowest first.
pub const PERCENTILES: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100); 0 for an
/// empty one.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile
/// of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The highest reported percentile that still has at least ten samples
/// beyond it, or `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Median of unordered values (mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Queries completed per second in each of `segments` equal slices of the
/// run.  `completions` are `(offset of completion in ns, queries completed)`
/// in time order; the run lasted `total_ns`.
pub fn segment_rates(completions: &[(u64, u64)], total_ns: u64, segments: usize) -> Vec<f64> {
    if segments == 0 || total_ns == 0 {
        return Vec::new();
    }
    let mut counts = vec![0u64; segments];
    for &(at, queries) in completions {
        let slot = (at as u128 * segments as u128 / total_ns as u128) as usize;
        counts[slot.min(segments - 1)] += queries;
    }
    let segment_s = total_ns as f64 / 1e9 / segments as f64;
    counts.iter().map(|&c| c as f64 / segment_s).collect()
}

/// Fewest latency samples a deployment's slice must hold for its own
/// percentiles to mean something (twenty beyond its p90).
const MIN_SLICE_SAMPLES: usize = 200;

/// What one deployment measured in its slice of the timed segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slice {
    pub latencies_ns: Vec<u64>,
    pub queries: u64,
    pub busy_ns: u64,
}

impl Slice {
    pub fn rate(&self) -> f64 {
        if self.busy_ns == 0 {
            0.0
        } else {
            self.queries as f64 / (self.busy_ns as f64 / 1e9)
        }
    }
}

/// The end-to-end timings of a run over its deployments' slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunTimings {
    /// Whether the figures are medians over deployments (`true`) or taken
    /// from the pooled samples.
    pub per_deployment: bool,
    pub rate: f64,
    pub p50_ns: u64,
    pub p90_ns: u64,
}

/// Reduces the slices of a run to its throughput, p50 and p90.
///
/// A run measures on several deployments, each set up from nothing, because
/// the speed of the 2-vCPU box the numbers were taken on drifts over seconds
/// to minutes (consecutive one-second windows of one OJSP deployment read a
/// p50 of 0.61-0.78 ms, and whole 15 s runs differ by as much), and no
/// statistic *within* one stretch (median, quartile or best of fifteen
/// windows) spread less than 15% of the median across ten runs.  When every
/// slice has enough samples for its own percentiles, each figure is the
/// median over deployments, which a minority of fast or slow slices does not
/// move; otherwise (CJSP and kNN complete a dozen requests per slice) the
/// samples are pooled.
pub fn run_timings(slices: &[Slice]) -> RunTimings {
    let sorted = |slice: &Slice| {
        let mut v = slice.latencies_ns.clone();
        v.sort_unstable();
        v
    };
    let per_deployment = slices.len() > 1
        && slices
            .iter()
            .all(|s| s.latencies_ns.len() >= MIN_SLICE_SAMPLES);
    if per_deployment {
        let over = |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<f64>>());
        RunTimings {
            per_deployment,
            rate: over(&Slice::rate),
            p50_ns: over(&|s| percentile(&sorted(s), 50.0) as f64) as u64,
            p90_ns: over(&|s| percentile(&sorted(s), 90.0) as f64) as u64,
        }
    } else {
        let pooled = Slice {
            latencies_ns: slices
                .iter()
                .flat_map(|s| s.latencies_ns.iter().copied())
                .collect(),
            queries: slices.iter().map(|s| s.queries).sum(),
            busy_ns: slices.iter().map(|s| s.busy_ns).sum(),
        };
        let all = sorted(&pooled);
        RunTimings {
            per_deployment,
            rate: pooled.rate(),
            p50_ns: percentile(&all, 50.0),
            p90_ns: percentile(&all, 90.0),
        }
    }
}

/// `(max - min) / median` of the segment rates: the run's own noise reading.
pub fn relative_spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.is_empty() || mid == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / mid
}

/// An order-independent digest of a set of answers: each answer is hashed
/// on its own (FNV-1a over its canonical words, then a finaliser) and the
/// hashes are added, so two runs that produced the same answers in any
/// order print the same value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    sum: u64,
    answers: u64,
}

impl Digest {
    /// Folds in one answer, given as the words that identify it.
    pub fn add(&mut self, words: &[u64]) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in words {
            for byte in w.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        // SplitMix64 finaliser: FNV alone leaves sums of similar answers
        // too correlated.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.sum = self.sum.wrapping_add(h ^ (h >> 31));
        self.answers += 1;
    }

    /// `answers:hex`, the form printed and compared.
    pub fn render(&self) -> String {
        format!("{}:{:016x}", self.answers, self.sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[1, 2, 3], 50.0), 2);
    }

    #[test]
    fn ten_samples_beyond_rule_picks_the_reportable_tail() {
        // 100 samples: p90 leaves exactly ten beyond, p95 only five.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn segment_rates_slice_the_timeline_evenly() {
        // Ten seconds, five segments; one query per second except a stall
        // in the fourth segment.
        let s = 1_000_000_000u64;
        let completions: Vec<(u64, u64)> = [1, 2, 3, 4, 5, 6, 9, 10]
            .iter()
            .map(|&t| (t * s - 1, 1))
            .collect();
        let rates = segment_rates(&completions, 10 * s, 5);
        assert_eq!(rates, vec![1.0, 1.0, 1.0, 0.0, 1.0]);
        assert_eq!(median(&rates), 1.0);
        assert_eq!(relative_spread(&rates), 1.0);
        // A completion stamped exactly at the end lands in the last segment.
        assert_eq!(segment_rates(&[(10 * s, 8)], 10 * s, 5)[4], 4.0);
        assert!(segment_rates(&[], 0, 5).is_empty());
    }

    #[test]
    fn run_timings_take_medians_over_deployments_or_pool() {
        let slice = |latency_ms: u64, n: usize| Slice {
            latencies_ns: vec![latency_ms * 1_000_000; n],
            queries: n as u64,
            busy_ns: latency_ms * 1_000_000 * n as u64,
        };
        // Five deployments with plenty of samples, one of them in a fast
        // state and one stalled: the medians are the ordinary deployment's.
        let slices = [
            slice(2, 300),
            slice(1, 600),
            slice(2, 300),
            slice(10, 200),
            slice(2, 300),
        ];
        let t = run_timings(&slices);
        assert!(t.per_deployment);
        assert_eq!((t.p50_ns, t.p90_ns), (2_000_000, 2_000_000));
        assert_eq!(t.rate, 500.0);

        // A dozen samples per deployment: pooled.
        let few = [slice(100, 12), slice(300, 12), slice(100, 12)];
        let t = run_timings(&few);
        assert!(!t.per_deployment);
        assert_eq!((t.p50_ns, t.p90_ns), (100_000_000, 300_000_000));
        assert_eq!(t.rate, 36.0 / 6.0);

        // One deployment (a traced run): its own figures.
        let t = run_timings(&[slice(2, 1000)]);
        assert_eq!(
            (t.per_deployment, t.p50_ns, t.rate),
            (false, 2_000_000, 500.0)
        );
        assert_eq!(run_timings(&[]).rate, 0.0);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let answers: Vec<Vec<u64>> = (0..50u64).map(|i| vec![i, i * i, 7]).collect();
        let mut forward = Digest::default();
        answers.iter().for_each(|a| forward.add(a));
        let mut backward = Digest::default();
        answers.iter().rev().for_each(|a| backward.add(a));
        assert_eq!(forward, backward);
        assert_eq!(forward.render(), backward.render());

        let mut changed = Digest::default();
        answers
            .iter()
            .enumerate()
            .for_each(|(i, a)| changed.add(if i == 3 { &[3, 9, 8] } else { a }));
        assert_ne!(forward, changed);

        // Moving a word between two answers changes the digest too.
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add(&[1, 2]);
        a.add(&[3]);
        b.add(&[1]);
        b.add(&[2, 3]);
        assert_ne!(a, b);
    }
}
