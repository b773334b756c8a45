//! Property test: `MetricWindows` agrees with a naive reference under
//! arbitrary record/advance interleavings, window rotation and counter
//! saturation.
//!
//! The reference retains the *absolute* registry snapshot of every tick
//! and answers windowed queries directly from first principles
//! (cumulative differences between retained ticks, raw recorded samples
//! for histograms), exercising none of `MetricWindows`' incremental
//! delta/rotation bookkeeping.

use std::time::Duration;

use s3_obs::{LocalHistogram, Registry, Snapshot};
use s3_ops::MetricWindows;

/// Deterministic xorshift PRNG — no external crates.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const COUNTERS: &[(&str, Option<(&'static str, &'static str)>)] = &[
    ("win.hits", None),
    ("win.hits", Some(("kind", "labelled"))),
    ("win.misses", None),
    ("win.saturating", None),
];
const GAUGE: &str = "win.level";
const HIST: &str = "win.lat";

/// Naive reference: absolute snapshots of every tick, plus the raw
/// histogram samples tagged with the frame (tick index) they land in.
struct Reference {
    capacity: usize,
    /// `(clamped_time, snapshot)` per tick, oldest first.
    ticks: Vec<(Duration, Snapshot)>,
    /// `(frame_index, value)` per raw histogram sample; a sample recorded
    /// between tick `i-1` and tick `i` belongs to frame `i` (1-based
    /// alignment with `ticks`).
    samples: Vec<(usize, u64)>,
    gauge_value: Option<f64>,
}

impl Reference {
    fn new(capacity: usize) -> Reference {
        Reference {
            capacity,
            ticks: Vec::new(),
            samples: Vec::new(),
            gauge_value: None,
        }
    }

    fn tick(&mut self, now: Duration, snap: Snapshot) {
        let clamped = match self.ticks.last() {
            Some((prev, _)) => now.max(*prev),
            None => now,
        };
        self.ticks.push((clamped, snap));
    }

    /// Indices of frames (1-based into `ticks`) retained and inside the
    /// lookback horizon.
    fn included(&self, lookback: Duration) -> Option<Vec<usize>> {
        if self.ticks.len() < 2 {
            return None;
        }
        let newest_end = self.ticks[self.ticks.len() - 1].0;
        let horizon = newest_end.saturating_sub(lookback);
        let first_retained = (self.ticks.len() - 1).saturating_sub(self.capacity) + 1;
        Some(
            (first_retained..self.ticks.len())
                .filter(|&i| self.ticks[i].0 > horizon)
                .collect(),
        )
    }

    fn counter_at(snap: &Snapshot, name: &str) -> u64 {
        snap.counters
            .iter()
            .filter(|(id, _)| id.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    fn delta(&self, name: &str, lookback: Duration) -> Option<u64> {
        let frames = self.included(lookback)?;
        let mut total = 0u64;
        for &i in &frames {
            let later = Self::counter_at(&self.ticks[i].1, name);
            let earlier = Self::counter_at(&self.ticks[i - 1].1, name);
            total += later.saturating_sub(earlier);
        }
        Some(total)
    }

    fn rate(&self, name: &str, lookback: Duration) -> Option<f64> {
        let frames = self.included(lookback)?;
        let first = *frames.first()?;
        let elapsed = self.ticks[self.ticks.len() - 1]
            .0
            .saturating_sub(self.ticks[first - 1].0)
            .as_secs_f64();
        if elapsed <= 0.0 {
            return None;
        }
        Some(self.delta(name, lookback)? as f64 / elapsed)
    }

    fn window_hist(&self, lookback: Duration) -> Option<LocalHistogram> {
        let frames = self.included(lookback)?;
        let mut h = LocalHistogram::new();
        for &(frame, v) in &self.samples {
            if frames.contains(&frame) {
                h.record(v);
            }
        }
        Some(h)
    }
}

/// Windowed quantiles re-derive min/max from bucket bounds, so they can
/// differ from the exact-sample reference by up to one log-bucket width
/// (≤ 12.5 % relative) plus the sub-16 exact range.
fn quantiles_agree(a: u64, b: u64) -> bool {
    let hi = a.max(b);
    let lo = a.min(b);
    hi - lo <= hi / 4 + 16
}

#[test]
fn windows_match_naive_reference() {
    for seed in 1..=12u64 {
        let mut rng = Rng(0x9E37_79B9 ^ (seed << 32) ^ seed);
        let capacity = 1 + rng.below(6);
        let reg = Registry::new();
        let w = MetricWindows::new(capacity);
        let mut r = Reference::new(capacity);
        let mut now = Duration::ZERO;

        let n_ticks = 20 + rng.below(30);
        for _ in 0..n_ticks {
            // Random burst of records between ticks.
            for _ in 0..rng.below(12) {
                match rng.below(8) {
                    0..=3 => {
                        let (name, label) = COUNTERS[rng.below(3)];
                        reg.counter_with(name, label).add(rng.next() % 100);
                    }
                    4 => {
                        // Saturation: slam a counter near u64::MAX.
                        reg.counter("win.saturating").add(u64::MAX / 2);
                    }
                    5 => {
                        let v = (rng.next() % 1000) as f64 / 10.0;
                        reg.gauge(GAUGE).set(v);
                        r.gauge_value = Some(v);
                    }
                    _ => {
                        let v = rng.next() % 1_000_000;
                        reg.histogram(HIST).record(v);
                        // Frame index this sample will fall into: the
                        // *next* tick closes it.
                        r.samples.push((r.ticks.len(), v));
                    }
                }
            }
            // Advance by 0..3 s (0 exercises the zero-duration clamp).
            now += Duration::from_millis((rng.below(4) as u64) * 997);
            let snap = reg.snapshot();
            let snap_ref = reg.snapshot();
            w.tick_at(now, snap);
            r.tick(now, snap_ref);

            // Cross-check every query shape at several lookbacks.
            for lookback_ms in [1, 900, 2000, 10_000, 3_600_000u64] {
                let lb = Duration::from_millis(lookback_ms);
                for (name, _) in COUNTERS.iter().take(3) {
                    assert_eq!(
                        w.delta(name, lb),
                        r.delta(name, lb),
                        "delta({name}) seed={seed} lb={lb:?}"
                    );
                    let (got, want) = (w.rate(name, lb), r.rate(name, lb));
                    match (got, want) {
                        (Some(g), Some(e)) => {
                            assert!((g - e).abs() <= e.abs() * 1e-9 + 1e-9, "rate {name}")
                        }
                        (g, e) => assert_eq!(g, e, "rate({name}) seed={seed} lb={lb:?}"),
                    }
                }
                // Saturating counter: both sides must agree even at the rail.
                assert_eq!(
                    w.delta("win.saturating", lb),
                    r.delta("win.saturating", lb),
                    "saturating delta seed={seed}"
                );
                let wh = w.window_histogram(HIST, lb);
                let rh = r.window_hist(lb);
                match (&wh, &rh) {
                    (Some(wh), Some(rh)) => {
                        assert_eq!(wh.count, rh.count(), "hist count seed={seed} lb={lb:?}");
                        let rs = rh.snapshot();
                        assert_eq!(wh.sum, rs.sum, "hist sum seed={seed}");
                        for q in [0.5, 0.99] {
                            match (wh.quantile(q), rs.quantile(q)) {
                                (Some(a), Some(b)) => {
                                    assert!(quantiles_agree(a, b), "q{q} {a} vs {b} seed={seed}")
                                }
                                (a, b) => assert_eq!(a, b, "q{q} presence seed={seed}"),
                            }
                        }
                    }
                    (None, None) => {}
                    _ => panic!("hist presence mismatch seed={seed} lb={lb:?}"),
                }
            }
            // Gauge: latest value as of the newest frame.
            if r.ticks.len() >= 2 {
                let expect = r.ticks[r.ticks.len() - 1]
                    .1
                    .gauges
                    .iter()
                    .find(|(id, _)| id.name == GAUGE)
                    .map(|&(_, v)| v);
                assert_eq!(w.gauge(GAUGE), expect, "gauge seed={seed}");
            }
        }
        // Rotation actually happened in most runs.
        assert!(w.frames() <= capacity);
    }
}
