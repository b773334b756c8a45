//! Windowed time-series over registry snapshots.
//!
//! The registry answers "how many since process start". [`MetricWindows`]
//! turns that into "what is happening right now": a caller periodically
//! feeds it full [`Snapshot`]s (a *tick*), and the ring keeps per-interval
//! deltas of every counter and histogram plus the latest gauge values.
//! Queries then derive per-window rates ("CRC failure rate over the
//! last 60 s") and rolling quantiles ("WAL fsync p99 over the last 5 min")
//! by summing / merging the frames inside a lookback horizon.
//!
//! Ticks come from a [`TimeSource`], the workspace's one clock trait
//! (`s3_obs::time`): `WallTime` in production, `ManualTime` in tests.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

use s3_obs::{registry, HistogramSnapshot, MetricId, Snapshot, TimeSource};

/// One completed interval: deltas between two consecutive ticks.
struct WindowFrame {
    /// Tick time opening the interval.
    start: Duration,
    /// Tick time closing the interval (`end >= start`).
    end: Duration,
    /// Counter increments during the interval (non-zero entries only). A
    /// counter whose cumulative value *decreased* (the registry restarted)
    /// holds its post-restart value, everything counted since the reset,
    /// instead of a clamped-to-zero delta.
    counters: Vec<(MetricId, u64)>,
    /// Gauge values observed at `end` (gauges are levels, not flows).
    gauges: Vec<(MetricId, f64)>,
    /// Histogram sample deltas during the interval (non-empty only).
    histograms: Vec<(MetricId, HistogramSnapshot)>,
}

struct Inner {
    frames: VecDeque<WindowFrame>,
    /// Snapshot + time of the most recent tick (the baseline the next
    /// frame's deltas are computed against).
    last: Option<(Duration, Snapshot)>,
}

/// Bounded ring of per-interval metric deltas (see module docs).
///
/// All methods take `&self`; the ring is internally synchronised and
/// shared via `Arc` between the ticking loop, the health engine and the
/// flight recorder.
pub struct MetricWindows {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for MetricWindows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricWindows")
            .field("capacity", &self.capacity)
            .field("frames", &self.frames())
            .finish()
    }
}

impl MetricWindows {
    /// A ring retaining at most `capacity` completed intervals.
    pub fn new(capacity: usize) -> MetricWindows {
        MetricWindows {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                frames: VecDeque::new(),
                last: None,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Records a tick: `snap` is the registry state at time `now`.
    ///
    /// The first tick only establishes the baseline; every later tick
    /// closes one frame holding the deltas since the previous tick. `now`
    /// is clamped monotonic against the previous tick, so a stalled or
    /// slightly-rewound time source yields an empty-duration frame rather
    /// than a panic or negative interval.
    pub fn tick_at(&self, now: Duration, snap: Snapshot) {
        let mut inner = self.lock();
        let prev = inner.last.take();
        if let Some((prev_t, prev_snap)) = prev {
            let start = prev_t;
            let end = now.max(prev_t);
            let frame = diff_frame(start, end, &prev_snap, &snap);
            if inner.frames.len() == self.capacity {
                inner.frames.pop_front();
            }
            inner.frames.push_back(frame);
            inner.last = Some((end, snap));
        } else {
            inner.last = Some((now, snap));
        }
    }

    /// Convenience: [`MetricWindows::tick_at`] with `ts.now()` and the
    /// global registry's snapshot.
    pub fn tick(&self, ts: &dyn TimeSource) {
        self.tick_at(ts.now(), registry().snapshot());
    }

    /// Number of completed frames currently retained.
    pub fn frames(&self) -> usize {
        self.lock().frames.len()
    }

    /// Span of time covered by the retained frames (zero when empty).
    pub fn covered(&self) -> Duration {
        let inner = self.lock();
        match (inner.frames.front(), inner.frames.back()) {
            (Some(first), Some(last)) => last.end.saturating_sub(first.start),
            _ => Duration::ZERO,
        }
    }

    /// Total increments of counter `name` (summed across labels) over the
    /// frames inside `lookback` from the newest tick. `None` only when no
    /// frame has completed yet; an absent or idle counter yields
    /// `Some(0)`, so rates decay to zero as activity stops.
    pub fn delta(&self, name: &str, lookback: Duration) -> Option<u64> {
        let inner = self.lock();
        let horizon = Self::horizon(&inner, lookback)?;
        let mut total = 0u64;
        for f in inner.frames.iter().filter(|f| f.end > horizon) {
            for (id, v) in &f.counters {
                if id.name == name {
                    total = total.saturating_add(*v);
                }
            }
        }
        Some(total)
    }

    /// Per-second rate of counter `name` over `lookback` (see
    /// [`MetricWindows::delta`]). `None` when no frame has completed or
    /// the included frames cover zero elapsed time.
    pub fn rate(&self, name: &str, lookback: Duration) -> Option<f64> {
        let delta = self.delta(name, lookback)?;
        let elapsed = Self::elapsed_within(&self.lock(), lookback)?;
        if elapsed <= 0.0 {
            return None;
        }
        Some(delta as f64 / elapsed)
    }

    /// Elapsed seconds actually covered by the frames inside `lookback`.
    fn elapsed_within(inner: &Inner, lookback: Duration) -> Option<f64> {
        let horizon = Self::horizon(inner, lookback)?;
        let newest_end = inner.frames.back()?.end;
        let oldest_start = inner
            .frames
            .iter()
            .find(|f| f.end > horizon)
            .map(|f| f.start)?;
        Some(newest_end.saturating_sub(oldest_start).as_secs_f64())
    }

    /// Cutoff time: frames ending at or before it are outside `lookback`.
    fn horizon(inner: &Inner, lookback: Duration) -> Option<Duration> {
        let newest_end = inner.frames.back()?.end;
        Some(newest_end.saturating_sub(lookback))
    }

    /// Latest observed value of gauge `name` (unlabelled entry preferred,
    /// otherwise the first labelled one). `None` when no frame has
    /// completed or the gauge never appeared.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let inner = self.lock();
        let frame = inner.frames.back()?;
        let mut labelled = None;
        for (id, v) in &frame.gauges {
            if id.name == name {
                if id.label.is_none() {
                    return Some(*v);
                }
                labelled.get_or_insert(*v);
            }
        }
        labelled
    }

    /// Merged sample distribution of histogram `name` (summed across
    /// labels) over `lookback`. `None` when no frame has completed; an
    /// idle histogram yields an empty snapshot (`count == 0`).
    pub fn window_histogram(&self, name: &str, lookback: Duration) -> Option<HistogramSnapshot> {
        let inner = self.lock();
        let horizon = Self::horizon(&inner, lookback)?;
        let mut merged = HistogramSnapshot::empty();
        for f in inner.frames.iter().filter(|f| f.end > horizon) {
            for (id, h) in &f.histograms {
                if id.name == name {
                    merged.merge(h);
                }
            }
        }
        Some(merged)
    }

    /// Rolling quantile of histogram `name` over `lookback` (`None` when
    /// no samples landed inside the window).
    pub fn quantile(&self, name: &str, q: f64, lookback: Duration) -> Option<u64> {
        self.window_histogram(name, lookback)?.quantile(q)
    }

    /// Per-second rate of every counter that moved over `lookback`, one
    /// row per full id (name and label), under the counter's own
    /// [`MetricId`]. Empty when no frame has completed or the included
    /// frames cover zero elapsed time.
    pub fn rates(&self, lookback: Duration) -> Vec<(MetricId, f64)> {
        let inner = self.lock();
        let (Some(horizon), Some(elapsed)) = (
            Self::horizon(&inner, lookback),
            Self::elapsed_within(&inner, lookback),
        ) else {
            return Vec::new();
        };
        if elapsed <= 0.0 {
            return Vec::new();
        }
        // Sum per full id (name + label) across included frames.
        let mut acc: Vec<(MetricId, u64)> = Vec::new();
        for f in inner.frames.iter().filter(|f| f.end > horizon) {
            for &(id, v) in &f.counters {
                match acc.iter_mut().find(|(a, _)| *a == id) {
                    Some((_, total)) => *total = total.saturating_add(v),
                    None => acc.push((id, v)),
                }
            }
        }
        acc.into_iter()
            .map(|(id, total)| (id, total as f64 / elapsed))
            .collect()
    }
}

/// Builds a frame holding `later - earlier` for counters/histograms and
/// `later`'s values for gauges.
fn diff_frame(start: Duration, end: Duration, earlier: &Snapshot, later: &Snapshot) -> WindowFrame {
    let mut counters = Vec::new();
    for &(id, v) in &later.counters {
        let before = earlier
            .counters
            .iter()
            .find(|(e, _)| *e == id)
            .map(|&(_, v)| v)
            .unwrap_or(0);
        // A counter that went backwards means the registry restarted
        // underneath us: the best estimate of activity this interval is
        // the post-restart cumulative value, not a clamped zero.
        let d = if v < before { v } else { v - before };
        if d > 0 {
            counters.push((id, d));
        }
    }
    let gauges = later.gauges.clone();
    let mut histograms = Vec::new();
    for (id, h) in &later.histograms {
        let delta = match earlier.histograms.iter().find(|(e, _)| e == id) {
            Some((_, before)) => h.delta_since(before),
            None => h.clone(),
        };
        if delta.count > 0 {
            histograms.push((*id, delta));
        }
    }
    WindowFrame {
        start,
        end,
        counters,
        gauges,
        histograms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_obs::{ManualTime, Registry};

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn first_tick_is_baseline_only() {
        let reg = Registry::new();
        let w = MetricWindows::new(8);
        reg.counter("a").add(5);
        w.tick_at(secs(1), reg.snapshot());
        assert_eq!(w.frames(), 0);
        assert_eq!(w.delta("a", secs(60)), None);
    }

    #[test]
    fn deltas_rates_and_rotation() {
        let reg = Registry::new();
        let w = MetricWindows::new(2);
        let c = reg.counter("a");
        w.tick_at(secs(0), reg.snapshot());
        c.add(10);
        w.tick_at(secs(10), reg.snapshot());
        assert_eq!(w.delta("a", secs(60)), Some(10));
        assert_eq!(w.rate("a", secs(60)), Some(1.0));
        c.add(30);
        w.tick_at(secs(20), reg.snapshot());
        assert_eq!(w.delta("a", secs(60)), Some(40));
        // Capacity 2: a third frame evicts the first.
        c.add(2);
        w.tick_at(secs(30), reg.snapshot());
        assert_eq!(w.frames(), 2);
        assert_eq!(w.delta("a", secs(60)), Some(32));
        // Narrow lookback excludes the older frame.
        assert_eq!(w.delta("a", secs(10)), Some(2));
        assert_eq!(w.rate("a", secs(10)), Some(0.2));
    }

    #[test]
    fn absent_counter_is_zero_not_none() {
        let reg = Registry::new();
        let w = MetricWindows::new(4);
        w.tick_at(secs(0), reg.snapshot());
        w.tick_at(secs(1), reg.snapshot());
        assert_eq!(w.delta("nope", secs(60)), Some(0));
        assert_eq!(w.rate("nope", secs(60)), Some(0.0));
    }

    #[test]
    fn gauge_latest_value_wins() {
        let reg = Registry::new();
        let w = MetricWindows::new(4);
        let g = reg.gauge("g");
        g.set(1.0);
        w.tick_at(secs(0), reg.snapshot());
        g.set(2.0);
        w.tick_at(secs(1), reg.snapshot());
        g.set(7.5);
        w.tick_at(secs(2), reg.snapshot());
        assert_eq!(w.gauge("g"), Some(7.5));
        assert_eq!(w.gauge("missing"), None);
    }

    #[test]
    fn windowed_histogram_quantiles() {
        let reg = Registry::new();
        let w = MetricWindows::new(8);
        let h = reg.histogram("lat");
        h.record(10);
        w.tick_at(secs(0), reg.snapshot());
        // Window 1: a thousand 100s.
        for _ in 0..1000 {
            h.record(100);
        }
        w.tick_at(secs(60), reg.snapshot());
        let win = w.window_histogram("lat", secs(60)).unwrap();
        assert_eq!(win.count, 1000);
        // The pre-baseline sample (10) must not appear in the window.
        let p50 = w.quantile("lat", 0.5, secs(60)).unwrap();
        assert!((90..=120).contains(&p50), "p50={p50}");
    }

    #[test]
    fn rates_keep_each_counters_own_id() {
        let reg = Registry::new();
        let w = MetricWindows::new(4);
        let hits = reg.counter_with("hits", Some(("kind", "x")));
        let misses = reg.counter("misses");
        reg.counter("idle");
        w.tick_at(secs(0), reg.snapshot());
        hits.add(30);
        misses.add(5);
        w.tick_at(secs(10), reg.snapshot());
        misses.add(15);
        w.tick_at(secs(20), reg.snapshot());
        // One row per counter that moved, under its own name and label.
        let rates = w.rates(secs(60));
        assert_eq!(rates.len(), 2, "{rates:?}");
        let hits_id = MetricId {
            name: "hits",
            label: Some(("kind", "x")),
        };
        let misses_id = MetricId {
            name: "misses",
            label: None,
        };
        assert_eq!(rates[0].0, hits_id);
        assert!((rates[0].1 - 1.5).abs() < 1e-9);
        assert_eq!(rates[1].0, misses_id);
        assert!((rates[1].1 - 1.0).abs() < 1e-9);
        // The same figure `rate` gives a counter on its own.
        assert_eq!(w.rate("misses", secs(60)), Some(1.0));
        // A narrow lookback keeps the newest frame only.
        assert_eq!(w.rates(secs(10)), vec![(misses_id, 1.5)]);
        assert!(MetricWindows::new(4).rates(secs(60)).is_empty());
    }

    #[test]
    fn non_monotonic_time_is_clamped() {
        let reg = Registry::new();
        let w = MetricWindows::new(4);
        let c = reg.counter("a");
        w.tick_at(secs(10), reg.snapshot());
        c.add(1);
        // Time appears to rewind: frame gets zero duration, not a panic.
        w.tick_at(secs(5), reg.snapshot());
        assert_eq!(w.frames(), 1);
        assert_eq!(w.delta("a", secs(60)), Some(1));
        assert_eq!(w.rate("a", secs(60)), None);
    }

    #[test]
    fn registry_reset_counts_post_restart_activity_not_zero_rate() {
        let t = ManualTime::new();
        let w = MetricWindows::new(8);
        // Warm process: counter at 100 when the baseline is taken.
        let reg = Registry::new();
        reg.counter("a").add(100);
        w.tick_at(t.now(), reg.snapshot());
        // Process restarts underneath the dashboard: a fresh registry
        // whose counter has only reached 5 by the next tick.
        let reg2 = Registry::new();
        reg2.counter("a").add(5);
        t.advance(secs(10));
        w.tick_at(t.now(), reg2.snapshot());
        // The first post-restart frame reports the post-restart activity
        // (5 events → 0.5/s), not a saturating-clamped zero.
        assert_eq!(w.delta("a", secs(60)), Some(5));
        assert_eq!(w.rate("a", secs(60)), Some(0.5));
        // A reset all the way to zero counts nothing (deltas stay
        // non-zero-only).
        let reg3 = Registry::new();
        reg3.counter("a").add(0);
        t.advance(secs(10));
        w.tick_at(t.now(), reg3.snapshot());
        assert_eq!(w.frames(), 2);
        assert_eq!(w.delta("a", secs(10)), Some(0));
        assert_eq!(w.delta("a", secs(60)), Some(5));
    }

    #[test]
    fn manual_time_advances() {
        let t = ManualTime::new();
        assert_eq!(t.now(), Duration::ZERO);
        t.advance(Duration::from_millis(1500));
        assert_eq!(t.now(), Duration::from_millis(1500));
    }
}
