//! The sharded metrics registry.
//!
//! Hot-path updates touch a single per-thread shard (one relaxed atomic
//! RMW, no locks), so concurrent workers — A3C agents, parallel bench runs
//! — never contend on a shared cache line. Shards are merged only when a
//! [`Snapshot`] is taken.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::snapshot::{HistogramSnapshot, Snapshot};

/// Number of shards per metric. Power of two so the shard pick is a mask.
pub const SHARDS: usize = 16;

/// Index of this thread's shard. Threads are assigned round-robin on first
/// use, which spreads concurrent worker threads evenly across shards.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Relaxed) & (SHARDS - 1);
    }
    SHARD.with(|s| *s)
}

/// One cache line per shard so shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct Padded<T>(T);

/// A monotonically increasing sum, sharded across threads.
#[derive(Clone)]
pub struct Counter {
    shards: Arc<[Padded<AtomicU64>; SHARDS]>,
}

impl Counter {
    fn new() -> Self {
        Self {
            shards: Arc::new(std::array::from_fn(|_| Padded(AtomicU64::new(0)))),
        }
    }

    /// Adds `n`. No-op while telemetry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::disabled() {
            return;
        }
        self.shards[shard_index()].0.fetch_add(n, Relaxed);
    }

    /// Increments by one. No-op while telemetry is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Relaxed)).sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

/// A last-write-wins instantaneous value (no sharding: reads must see the
/// latest write, and gauges are not hot-path metrics).
#[derive(Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Self {
        Self {
            value: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Sets the gauge. No-op while telemetry is disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::disabled() {
            return;
        }
        self.value.store(v, Relaxed);
    }

    /// Adjusts the gauge by `delta`. No-op while telemetry is disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if crate::disabled() {
            return;
        }
        self.value.fetch_add(delta, Relaxed);
    }

    /// Sets the gauge to the rate `count / secs` in milliunits per second
    /// (rounded). No-op when `secs` is not positive.
    ///
    /// Integer gauges truncate: a slow producer at 0.7 events/sec stored
    /// via `set(rate as i64)` reports 0 forever. Rate-style gauges should
    /// store milli-rates through this helper instead, keeping three
    /// decimal digits of resolution in an integer metric.
    #[inline]
    pub fn set_rate_milli(&self, count: f64, secs: f64) {
        if secs > 0.0 {
            self.set((count * 1000.0 / secs).round() as i64);
        }
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

/// Lock-free f64 add via compare-exchange on the bit pattern.
fn f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Relaxed);
    loop {
        let new = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, new, Relaxed, Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

fn f64_update(cell: &AtomicU64, v: f64, better: impl Fn(f64, f64) -> bool) {
    let mut cur = cell.load(Relaxed);
    loop {
        if !better(v, f64::from_bits(cur)) {
            return;
        }
        match cell.compare_exchange_weak(cur, v.to_bits(), Relaxed, Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

struct HistogramShard {
    /// One count per bound plus the overflow bucket.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramShard {
    fn new(n_bounds: usize) -> Self {
        Self {
            buckets: (0..=n_bounds).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0f64.to_bits()),
            min: AtomicU64::new(f64::INFINITY.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

struct HistogramCore {
    /// Inclusive upper bounds, strictly increasing; the overflow bucket is
    /// implicit.
    bounds: Box<[f64]>,
    shards: [Padded<HistogramShard>; SHARDS],
}

/// A fixed-bucket distribution of f64 observations, sharded across threads.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            core: Arc::new(HistogramCore {
                bounds: bounds.into(),
                shards: std::array::from_fn(|_| Padded(HistogramShard::new(bounds.len()))),
            }),
        }
    }

    /// Records one observation. No-op while telemetry is disabled.
    #[inline]
    pub fn record(&self, v: f64) {
        if crate::disabled() {
            return;
        }
        let shard = &self.core.shards[shard_index()].0;
        // Bucket i covers (bounds[i-1], bounds[i]]; the last bucket is
        // everything above the final bound.
        let idx = self.core.bounds.partition_point(|&b| b < v);
        shard.buckets[idx].fetch_add(1, Relaxed);
        f64_add(&shard.sum, v);
        f64_update(&shard.min, v, |new, cur| new < cur);
        f64_update(&shard.max, v, |new, cur| new > cur);
    }

    /// Merges every shard into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let n = self.core.bounds.len() + 1;
        let mut bucket_counts = vec![0u64; n];
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for shard in &self.core.shards {
            for (acc, b) in bucket_counts.iter_mut().zip(shard.0.buckets.iter()) {
                *acc += b.load(Relaxed);
            }
            sum += f64::from_bits(shard.0.sum.load(Relaxed));
            min = min.min(f64::from_bits(shard.0.min.load(Relaxed)));
            max = max.max(f64::from_bits(shard.0.max.load(Relaxed)));
        }
        let count: u64 = bucket_counts.iter().sum();
        HistogramSnapshot {
            count,
            sum,
            min: if count == 0 { 0.0 } else { min },
            max: if count == 0 { 0.0 } else { max },
            bounds: self.core.bounds.to_vec(),
            bucket_counts,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .finish_non_exhaustive()
    }
}

/// Commonly used bucket boundary sets.
pub mod buckets {
    /// Wall-time buckets in seconds: 1 µs to 100 s, one decade apart.
    pub const SECONDS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

    /// Displacement buckets in dbu: sub-site moves to cross-die moves.
    pub const DISPLACEMENT_DBU: &[f64] = &[
        100.0, 200.0, 400.0, 800.0, 1_600.0, 3_200.0, 6_400.0, 12_800.0, 25_600.0, 51_200.0,
        102_400.0,
    ];

    /// Generic decimal magnitude buckets for counts per operation.
    pub const MAGNITUDE: &[f64] = &[
        1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 10_000.0, 100_000.0,
    ];
}

/// Named counters, gauges, and histograms with get-or-create registration.
///
/// Handles returned by the accessors are cheap `Arc` clones; call sites
/// that update a metric in a loop should hold the handle rather than
/// re-looking it up by name.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    /// Span wall-time histograms, kept apart so snapshots can prefix them.
    span_hists: RwLock<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_insert_with(Counter::new)
            .clone()
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .entry(name.to_string())
            .or_insert_with(Gauge::new)
            .clone()
    }

    /// The histogram registered under `name`, created with `bounds` on
    /// first use (later callers get the existing buckets regardless of the
    /// bounds they pass).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// The wall-time histogram backing spans named `name`.
    pub(crate) fn span_histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.span_hists.read().get(name) {
            return h.clone();
        }
        self.span_hists
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(buckets::SECONDS))
            .clone()
    }

    /// Merges every shard of every metric into a serializable snapshot.
    /// Span histograms appear under `span.<name>`.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect();
        let mut histograms: BTreeMap<String, HistogramSnapshot> = self
            .histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        for (k, v) in self.span_hists.read().iter() {
            histograms.insert(format!("span.{k}"), v.snapshot());
        }
        Snapshot {
            counters,
            gauges,
            histograms,
            dropped_events: 0,
        }
    }

    /// Drops every registered metric. Handles held by call sites keep
    /// working but are no longer visible to future snapshots; intended for
    /// test isolation, not production use.
    pub fn reset(&self) {
        self.counters.write().clear();
        self.gauges.write().clear();
        self.histograms.write().clear();
        self.span_hists.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        let r = f();
        crate::set_enabled(false);
        r
    }

    #[test]
    fn counter_sums_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.count");
        with_enabled(|| {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let c = c.clone();
                    s.spawn(move || {
                        for _ in 0..1_000 {
                            c.inc();
                        }
                    });
                }
            });
        });
        assert_eq!(c.value(), 4_000);
        assert_eq!(reg.snapshot().counters["t.count"], 4_000);
    }

    #[test]
    fn gauge_rate_milli_keeps_sub_unit_rates() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("t.rate");
        with_enabled(|| {
            // 0.7 events/sec would truncate to 0 as a plain integer rate.
            g.set_rate_milli(7.0, 10.0);
            assert_eq!(g.value(), 700);
            g.set_rate_milli(12_345.0, 1.0);
            assert_eq!(g.value(), 12_345_000);
            // Degenerate elapsed time leaves the last value in place.
            g.set_rate_milli(5.0, 0.0);
            assert_eq!(g.value(), 12_345_000);
        });
    }

    #[test]
    fn disabled_means_no_updates() {
        let _g = crate::test_lock();
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.off");
        let h = reg.histogram("t.off_h", buckets::MAGNITUDE);
        c.add(10);
        h.record(5.0);
        assert_eq!(c.value(), 0);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t.h", &[1.0, 10.0, 100.0]);
        with_enabled(|| {
            for v in [0.5, 1.0, 5.0, 10.0, 99.0, 1_000.0] {
                h.record(v);
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.bucket_counts, vec![2, 2, 1, 1]);
        assert!((s.sum - 1_115.5).abs() < 1e-9);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 1_000.0);
    }

    #[test]
    fn gauge_last_write_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("t.g");
        with_enabled(|| {
            g.set(5);
            g.add(-2);
        });
        assert_eq!(g.value(), 3);
    }

    #[test]
    fn same_name_same_metric() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("t.same");
        let b = reg.counter("t.same");
        with_enabled(|| a.add(2));
        assert_eq!(b.value(), 2);
    }
}
