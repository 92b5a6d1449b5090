//! The metrics registry: named counters, gauges, and log₂ histograms.
//!
//! Handles returned by the registry are cheap clones of `Arc`ed atomics, so
//! recording is wait-free (`Ordering::Relaxed` — metrics tolerate torn
//! cross-metric views) and never touches the registry lock. Registration is
//! idempotent: asking for the same `(name, labels)` again returns a handle
//! to the same underlying metric, so call sites don't need to thread handles
//! around if they'd rather re-look them up.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets per histogram. Bucket `0` holds the value `0`,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`; values at or above
/// `2^62` clamp into the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a single `f64` that can move in both directions, stored as bits
/// in an atomic word.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed histogram of `u64` observations (typically nanoseconds).
///
/// The bucket layout trades ≤ 2× value resolution for a fixed 64-word
/// footprint and wait-free recording.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations so far.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

/// The log₂ bucket index for `value` (see [`HISTOGRAM_BUCKETS`]).
fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// A registry of named metrics.
///
/// The mutex guards only the registration table; recording through the
/// returned handles never takes it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], make: fn() -> Metric) -> Metric {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some(entry) = inner
            .iter()
            .find(|e| e.name == name && label_eq(&e.labels, labels))
        {
            let fresh = make();
            assert!(
                std::mem::discriminant(&entry.metric) == std::mem::discriminant(&fresh),
                "metric {name} already registered as a {}",
                entry.metric.kind()
            );
            return entry.metric.clone();
        }
        let metric = make();
        inner.push(Entry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metric: metric.clone(),
        });
        metric
    }

    /// Registers (or re-fetches) a counter.
    ///
    /// # Panics
    /// If `(name, labels)` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, labels, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or re-fetches) a gauge.
    ///
    /// # Panics
    /// If `(name, labels)` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, labels, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or re-fetches) a histogram.
    ///
    /// # Panics
    /// If `(name, labels)` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, labels, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// A point-in-time copy of every registered metric, sorted by
    /// `(name, labels)` so cross-process comparisons are deterministic
    /// regardless of registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut samples: Vec<MetricSample> = inner
            .iter()
            .map(|e| MetricSample {
                name: e.name.clone(),
                labels: e.labels.clone(),
                value: match &e.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let buckets =
                            h.0.buckets
                                .iter()
                                .enumerate()
                                .filter_map(|(i, b)| {
                                    let n = b.load(Ordering::Relaxed);
                                    (n > 0).then_some((i as u8, n))
                                })
                                .collect();
                        MetricValue::Histogram {
                            count: h.count(),
                            sum: h.sum(),
                            buckets,
                        }
                    }
                },
            })
            .collect();
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot { samples }
    }
}

fn label_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// A point-in-time copy of a registry — plain data, safe to serialise.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All samples, sorted by `(name, labels)`.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Looks up a sample by exact name and label set.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSample> {
        self.samples
            .iter()
            .find(|s| s.name == name && label_eq(&s.labels, labels))
    }
}

/// One metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name (Prometheus-style, e.g. `source_requests_total`).
    pub name: String,
    /// Label key/value pairs.
    pub labels: Vec<(String, String)>,
    /// The recorded value.
    pub value: MetricValue,
}

/// The value of one snapshotted metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone counter.
    Counter(u64),
    /// A free-moving gauge.
    Gauge(f64),
    /// A log₂ histogram: total count, total sum, and the non-zero
    /// `(bucket index, count)` pairs in ascending bucket order.
    Histogram {
        /// Total number of observations.
        count: u64,
        /// Sum of all observations.
        sum: u64,
        /// Non-zero buckets as `(index, count)`, ascending by index.
        buckets: Vec<(u8, u64)>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest value bucket `index` can hold (inclusive).
    fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    #[test]
    fn bucket_layout_is_log2_with_clamping() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Every value falls in a bucket whose bound covers it.
        for v in [0u64, 1, 2, 7, 100, 1 << 20, u64::MAX] {
            assert!(v <= bucket_upper_bound(bucket_index(v)));
        }
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total", &[("kind", "ojsp")]);
        let b = reg.counter("requests_total", &[("kind", "ojsp")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Different labels are a different metric.
        let c = reg.counter("requests_total", &[("kind", "cjsp")]);
        assert_eq!(c.get(), 0);
        assert_eq!(reg.snapshot().samples.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", &[]);
        let _ = reg.gauge("x", &[]);
    }

    #[test]
    fn snapshot_is_sorted_and_searchable() {
        let reg = MetricsRegistry::new();
        reg.gauge("zeta", &[]).set(1.5);
        reg.counter("alpha", &[("s", "1")]).add(7);
        let snap = reg.snapshot();
        assert_eq!(snap.samples[0].name, "alpha");
        assert_eq!(
            snap.find("alpha", &[("s", "1")]).map(|s| &s.value),
            Some(&MetricValue::Counter(7))
        );
        assert_eq!(
            snap.find("zeta", &[]).map(|s| &s.value),
            Some(&MetricValue::Gauge(1.5))
        );
        assert!(snap.find("alpha", &[]).is_none());
    }
}
