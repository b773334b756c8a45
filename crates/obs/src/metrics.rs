//! The metrics registry: atomic counters, gauges and log-bucketed latency
//! histograms, addressable by `&'static str` name plus an optional static
//! label.
//!
//! Design constraints (see `docs/observability.md`):
//!
//! * **Zero heap allocation on the hot path.** Handles ([`Counter`],
//!   [`Gauge`], [`Histogram`]) are cheap `Arc` clones obtained once;
//!   recording through a handle is a handful of relaxed atomic operations.
//!   The registry allocates only on *first* registration of a name.
//! * **Thread-safe without contention.** All metric state is lock-free
//!   atomics; the registry's lock is touched only to look up or create
//!   handles, never to record.
//! * **Saturating arithmetic.** Counters and histogram sums saturate at
//!   `u64::MAX` instead of wrapping, so a months-long monitor can never
//!   report a small number after an overflow.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// Number of exact buckets for small values (`0..LINEAR_MAX`).
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per power of two above the linear region (relative error
/// of a bucket's midpoint is at most 1/8).
const SUBS: usize = 4;
/// Total bucket count: 16 exact + 4 per octave for octaves 4..=63.
pub(crate) const NBUCKETS: usize = LINEAR_MAX as usize + (64 - 4) * SUBS;

/// Bucket index of a value under the log-linear scheme.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let o = 63 - v.leading_zeros(); // floor(log2 v), >= 4
        let sub = ((v >> (o - 2)) & 3) as usize;
        LINEAR_MAX as usize + (o as usize - 4) * SUBS + sub
    }
}

/// Half-open value range `[lo, hi)` covered by a bucket.
pub(crate) fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < LINEAR_MAX as usize {
        (i as u64, i as u64 + 1)
    } else {
        let o = 4 + ((i - LINEAR_MAX as usize) / SUBS) as u32;
        let sub = ((i - LINEAR_MAX as usize) % SUBS) as u64;
        let step = 1u64 << (o - 2);
        let lo = (1u64 << o) + sub * step;
        (lo, lo.saturating_add(step))
    }
}

/// Representative value reported for a bucket (exact below [`LINEAR_MAX`],
/// midpoint above).
fn bucket_mid(i: usize) -> u64 {
    let (lo, hi) = bucket_bounds(i);
    lo + (hi - lo) / 2
}

fn saturating_fetch_add(cell: &AtomicU64, v: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(v);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Identity of a metric: a static name plus an optional static
/// `key="value"` label (e.g. `io.read_bytes{region="data"}`).
///
/// Both parts are `&'static str` so addressing a metric never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricId {
    /// Dotted metric name (`query.latency`, `disk.retries`, ...).
    pub name: &'static str,
    /// Optional `(key, value)` label pair.
    pub label: Option<(&'static str, &'static str)>,
}

impl MetricId {
    /// Renders the id as `name` or `name{key="value"}`.
    pub fn render(&self) -> String {
        match self.label {
            None => self.name.to_string(),
            Some((k, v)) => format!("{}{{{k}=\"{v}\"}}", self.name),
        }
    }
}

/// A monotonically increasing, saturating counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    fn new() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `v`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, v: u64) {
        saturating_fetch_add(&self.0, v);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    fn new() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistInner {
    buckets: Box<[AtomicU64; NBUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Exact minimum seen; `u64::MAX` when empty.
    min: AtomicU64,
    /// Exact maximum seen; 0 when empty.
    max: AtomicU64,
}

impl std::fmt::Debug for HistInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistInner")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A thread-safe log-bucketed histogram of `u64` samples (durations are
/// recorded in nanoseconds).
///
/// Values `0..16` are exact; above that, 4 sub-buckets per power of two
/// bound the relative quantile error by 1/8. Minimum and maximum are exact.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    fn new() -> Histogram {
        let buckets: Box<[AtomicU64; NBUCKETS]> = {
            let v: Vec<AtomicU64> = (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect();
            match v.into_boxed_slice().try_into() {
                Ok(b) => b,
                // Length is NBUCKETS by construction.
                Err(_) => unreachable!("bucket array length"),
            }
        };
        Histogram(Arc::new(HistInner {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.0;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&inner.sum, v);
        inner.min.fetch_min(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX` ns,
    /// ~584 years).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.0;
        let mut buckets = [0u64; NBUCKETS];
        for (dst, src) in buckets.iter_mut().zip(inner.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            // Recompute the count from the copied buckets so the snapshot is
            // self-consistent even if samples land mid-copy.
            count: buckets.iter().sum(),
            sum: inner.sum.load(Ordering::Relaxed),
            min: inner.min.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
            buckets: Box::new(buckets),
        }
    }

    /// Quantile estimate in `[0, 1]` (None when empty). Convenience over
    /// [`Histogram::snapshot`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }
}

/// A single-threaded histogram with the same bucketing as [`Histogram`],
/// for accounting structs that travel by value (e.g. per-batch timing).
///
/// This is the "one timing vocabulary" type: anything that used to carry an
/// ad-hoc `Vec<Duration>` can carry a `LocalHistogram` and report the same
/// p50/p90/p99 as the global registry.
#[derive(Clone)]
pub struct LocalHistogram {
    buckets: Box<[u64; NBUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: Box::new([0u64; NBUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl std::fmt::Debug for LocalHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &if self.count == 0 { 0 } else { self.min })
            .field("max", &self.max)
            .field("p50", &self.snapshot().quantile(0.5))
            .finish()
    }
}

impl LocalHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LocalHistogram {
        LocalHistogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LocalHistogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// A value copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self.buckets.clone(),
        }
    }
}

/// A point-in-time copy of a histogram: buckets plus exact min/max.
#[derive(Clone)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Exact minimum (`u64::MAX` when empty).
    pub min: u64,
    /// Exact maximum (0 when empty).
    pub max: u64,
    buckets: Box<[u64; NBUCKETS]>,
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish_non_exhaustive()
    }
}

impl HistogramSnapshot {
    /// Quantile estimate in `[0, 1]`; `None` when the histogram is empty.
    ///
    /// Exact for values below 16 and for the extremes (q=0 → min, q=1 →
    /// max); otherwise the bucket midpoint, clamped into `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample holding the quantile (1-based, ceil).
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are tracked exactly.
        if target == 1 {
            return Some(self.min);
        }
        if target == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Mean of the recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }

    /// The distribution of samples recorded *after* `earlier` was taken
    /// from the same histogram (per-bucket saturating difference).
    ///
    /// This is what turns cumulative histograms into windowed ones: the
    /// delta between two snapshots of `query.latency` taken 60 s apart is
    /// the latency distribution of the last 60 s. The exact min/max of the
    /// window are unrecoverable from cumulative state, so the delta's
    /// min/max are bucket bounds (lowest/highest non-empty delta bucket) —
    /// quantiles keep their usual ≤ 12.5 % relative error.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Box::new([0u64; NBUCKETS]);
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        let count = buckets.iter().sum();
        let mut min = u64::MAX;
        let mut max = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            if c > 0 {
                let (lo, hi) = bucket_bounds(i);
                min = min.min(lo);
                max = max.max(hi.saturating_sub(1));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            min,
            max,
            buckets,
        }
    }

    /// Merges another snapshot's samples into this one (bucket-wise sum,
    /// saturating). Min/max take the more extreme of the two.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst = dst.saturating_add(*src);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// An empty snapshot (identity element of [`HistogramSnapshot::merge`]).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Box::new([0u64; NBUCKETS]),
        }
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A metrics registry. Most code uses the process-wide [`registry`]; tests
/// can create private instances.
#[derive(Default)]
pub struct Registry {
    slots: RwLock<Vec<(MetricId, Slot)>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lookup<T, F: Fn(&Slot) -> Option<T>, N: FnOnce() -> Slot>(
        &self,
        id: MetricId,
        pick: F,
        make: N,
    ) -> T {
        if let Ok(slots) = self.slots.read() {
            if let Some((_, slot)) = slots.iter().find(|(k, _)| *k == id) {
                if let Some(h) = pick(slot) {
                    return h;
                }
                panic!("metric {} re-registered with a different kind", id.render());
            }
        }
        let mut slots = match self.slots.write() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        // Double-check: another thread may have registered meanwhile.
        if let Some((_, slot)) = slots.iter().find(|(k, _)| *k == id) {
            if let Some(h) = pick(slot) {
                return h;
            }
            panic!("metric {} re-registered with a different kind", id.render());
        }
        let slot = make();
        let h = match pick(&slot) {
            Some(h) => h,
            None => unreachable!("freshly made slot has the right kind"),
        };
        slots.push((id, slot));
        h
    }

    /// Returns (registering on first use) the counter `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_with(name, None)
    }

    /// Returns the counter `name{label}`.
    pub fn counter_with(
        &self,
        name: &'static str,
        label: Option<(&'static str, &'static str)>,
    ) -> Counter {
        self.lookup(
            MetricId { name, label },
            |s| match s {
                Slot::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || Slot::Counter(Counter::new()),
        )
    }

    /// Returns (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauge_with(name, None)
    }

    /// Returns the gauge `name{label}`.
    pub fn gauge_with(
        &self,
        name: &'static str,
        label: Option<(&'static str, &'static str)>,
    ) -> Gauge {
        self.lookup(
            MetricId { name, label },
            |s| match s {
                Slot::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || Slot::Gauge(Gauge::new()),
        )
    }

    /// Returns (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.histogram_with(name, None)
    }

    /// Returns the histogram `name{label}`.
    pub fn histogram_with(
        &self,
        name: &'static str,
        label: Option<(&'static str, &'static str)>,
    ) -> Histogram {
        self.lookup(
            MetricId { name, label },
            |s| match s {
                Slot::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || Slot::Histogram(Histogram::new()),
        )
    }

    /// A point-in-time snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let slots = match self.slots.read() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut snap = Snapshot::default();
        for (id, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => snap.counters.push((*id, c.get())),
                Slot::Gauge(g) => snap.gauges.push((*id, g.get())),
                Slot::Histogram(h) => snap.histograms.push((*id, h.snapshot())),
            }
        }
        let key = |id: &MetricId| (id.name, id.label);
        snap.counters.sort_by_key(|(id, _)| key(id));
        snap.gauges.sort_by_key(|(id, _)| key(id));
        snap.histograms.sort_by_key(|(id, _)| key(id));
        snap
    }
}

/// A point-in-time copy of a whole registry; [`Snapshot::to_json`] exports
/// it.
#[derive(Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauge values.
    pub gauges: Vec<(MetricId, f64)>,
    /// Histogram distributions.
    pub histograms: Vec<(MetricId, HistogramSnapshot)>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry all instrumentation records into.
pub fn registry() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_bounds_consistent() {
        let mut prev = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for probe in [v, v + (v >> 3), v.saturating_mul(2).saturating_sub(1)] {
                let i = bucket_index(probe);
                assert!(i >= prev || probe < LINEAR_MAX, "index not monotone");
                let (lo, hi) = bucket_bounds(i);
                assert!(lo <= probe && (probe < hi || hi == u64::MAX), "{probe}");
                prev = i;
            }
        }
        assert!(bucket_index(u64::MAX) < NBUCKETS);
    }

    #[test]
    fn counter_saturates() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_roundtrips_f64() {
        let g = Gauge::new();
        g.set(0.875);
        assert_eq!(g.get(), 0.875);
        g.set(-3.5);
        assert_eq!(g.get(), -3.5);
    }

    #[test]
    fn registry_reuses_handles() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.counter("x").get(), 2);
        let l = r.counter_with("x", Some(("k", "v")));
        l.inc();
        assert_eq!(r.counter("x").get(), 2, "labelled metric is distinct");
        assert_eq!(l.get(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("dual");
        let _ = r.histogram("dual");
    }
}
