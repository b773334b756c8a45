//! Health-engine hysteresis: a signal oscillating right at a rule's
//! threshold must not flap the verdict, escalation is immediate, and
//! clearing requires a sustained streak clearly inside bounds.
//!
//! The harness drives 1000 accesses per one-second window, so its
//! miss-rate ceiling of 500/s is a hit-ratio floor of 0.5 (critical below
//! 0.2), and `tick_ratio` speaks in hit ratios.

use std::time::Duration;

use s3_obs::Registry;
use s3_ops::{Bounds, HealthEngine, HealthRule, MetricWindows, Signal, Verdict};

const LOOKBACK: Duration = Duration::from_secs(1);

struct Harness {
    reg: Registry,
    windows: MetricWindows,
    engine: HealthEngine,
    t: u64,
}

impl Harness {
    fn new(clear_after: u32) -> Harness {
        let reg = Registry::new();
        let engine = HealthEngine::with_registry(
            vec![HealthRule::new(
                "hit-floor",
                Signal::Rate("h.misses"),
                LOOKBACK,
                Bounds::at_most(500.0),
            )
            .critical(Bounds::at_most(800.0))
            .clear_after(clear_after)
            .margin(0.1)],
            &reg,
        );
        let windows = MetricWindows::new(8);
        let mut h = Harness {
            reg,
            windows,
            engine,
            t: 0,
        };
        // Baseline tick so the next one closes a frame.
        h.tick_ratio(1.0);
        h
    }

    /// Records one window's worth of traffic at the given hit ratio
    /// (out of 1000 accesses), ticks, and evaluates.
    fn tick_ratio(&mut self, ratio: f64) -> Verdict {
        let hits = (ratio * 1000.0).round() as u64;
        self.reg.counter("h.misses").add(1000 - hits);
        self.t += 1;
        self.windows
            .tick_at(Duration::from_secs(self.t), self.reg.snapshot());
        self.engine.evaluate(&self.windows).verdict
    }
}

#[test]
fn no_flapping_at_the_threshold() {
    let mut h = Harness::new(3);
    assert_eq!(h.tick_ratio(0.9), Verdict::Healthy);
    // Trip it once, then oscillate tightly around the 0.5 floor. The
    // raw target alternates Healthy/Degraded, but with a 10 % margin the
    // clear bar is 0.55, so the rule must hold Degraded throughout.
    assert_eq!(h.tick_ratio(0.3), Verdict::Degraded);
    for i in 0..20 {
        let ratio = if i % 2 == 0 { 0.51 } else { 0.49 };
        assert_eq!(
            h.tick_ratio(ratio),
            Verdict::Degraded,
            "flapped at step {i}"
        );
    }
    // Even sustained 0.52 (inside raw bounds, inside the margin band)
    // holds the level rather than clearing.
    for i in 0..10 {
        assert_eq!(
            h.tick_ratio(0.52),
            Verdict::Degraded,
            "cleared too eagerly at {i}"
        );
    }
    // Clearly good traffic: clears after exactly clear_after = 3 evals.
    assert_eq!(h.tick_ratio(0.9), Verdict::Degraded);
    assert_eq!(h.tick_ratio(0.9), Verdict::Degraded);
    assert_eq!(h.tick_ratio(0.9), Verdict::Healthy);
    // And stays clear.
    for _ in 0..5 {
        assert_eq!(h.tick_ratio(0.9), Verdict::Healthy);
    }
}

#[test]
fn escalation_is_immediate_even_mid_streak() {
    let mut h = Harness::new(3);
    assert_eq!(h.tick_ratio(0.3), Verdict::Degraded);
    // Two good evals (streak building)...
    assert_eq!(h.tick_ratio(0.9), Verdict::Degraded);
    assert_eq!(h.tick_ratio(0.9), Verdict::Degraded);
    // ...then a collapse below the critical floor: instant Critical.
    assert_eq!(h.tick_ratio(0.1), Verdict::Critical);
    // Recovery needs a fresh full streak.
    assert_eq!(h.tick_ratio(0.9), Verdict::Critical);
    assert_eq!(h.tick_ratio(0.9), Verdict::Critical);
    assert_eq!(h.tick_ratio(0.9), Verdict::Healthy);
}

#[test]
fn idle_windows_report_healthy_without_clearing_elevated_rules() {
    let mut h = Harness::new(2);
    assert_eq!(h.tick_ratio(0.3), Verdict::Degraded);
    // No traffic at all: the miss rate is zero, well inside bounds, so
    // each quiet window counts toward the clear streak — but the rule
    // clears only after clear_after consecutive quiets.
    h.t += 1;
    h.windows
        .tick_at(Duration::from_secs(h.t), h.reg.snapshot());
    assert_eq!(h.engine.evaluate(&h.windows).verdict, Verdict::Degraded);
    h.t += 1;
    h.windows
        .tick_at(Duration::from_secs(h.t), h.reg.snapshot());
    assert_eq!(h.engine.evaluate(&h.windows).verdict, Verdict::Healthy);
}

#[test]
fn transitions_counter_counts_verdict_changes_only() {
    let reg = Registry::new();
    let engine = HealthEngine::with_registry(
        vec![HealthRule::new(
            "gauge-ceiling",
            Signal::GaugeValue("g.level"),
            LOOKBACK,
            Bounds::at_most(10.0),
        )
        .clear_after(1)],
        &reg,
    );
    let windows = MetricWindows::new(4);
    let g = reg.gauge("g.level");
    let mut t = 0u64;
    let tick = |v: f64, t: &mut u64| {
        g.set(v);
        *t += 1;
        windows.tick_at(Duration::from_secs(*t), reg.snapshot());
        engine.evaluate(&windows).verdict
    };
    assert_eq!(tick(1.0, &mut t), Verdict::Healthy);
    assert_eq!(tick(2.0, &mut t), Verdict::Healthy);
    assert_eq!(tick(50.0, &mut t), Verdict::Degraded);
    assert_eq!(tick(60.0, &mut t), Verdict::Degraded);
    assert_eq!(tick(1.0, &mut t), Verdict::Healthy);
    let snap = reg.snapshot();
    let transitions = snap
        .counters
        .iter()
        .find(|(id, _)| id.name == "health.transitions")
        .map(|&(_, v)| v);
    assert_eq!(transitions, Some(2));
    let health = snap
        .gauges
        .iter()
        .find(|(id, _)| id.name == "health")
        .map(|&(_, v)| v);
    assert_eq!(health, Some(0.0));
}
