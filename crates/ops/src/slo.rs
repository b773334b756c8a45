//! SLO objectives evaluated as multi-window burn rates.
//!
//! An [`SloSpec`] states an objective as a target success fraction
//! (e.g. 99.5 % of queries non-degraded) over an error budget. Each
//! evaluation computes the **burn rate** — observed error rate divided
//! by the budgeted error rate — over a *fast* and a *slow* window; the
//! published burn is the **minimum** of the two, so an alert fires only
//! when the error rate is both currently high (fast window) *and* has
//! been sustained (slow window), the standard multi-window burn-rate
//! construction. Burn 1.0 means "exactly consuming budget"; the default
//! thresholds (2× degraded, 14.4× critical) correspond to exhausting a
//! 30-day budget in 15 days and 2 days respectively.
//!
//! Each spec also exposes a [`HealthRule`] reading its burn gauge, so
//! SLOs plug into the existing [`crate::HealthEngine`] — dashboards,
//! hysteresis and incident plumbing come for free. Independently of the
//! windowed burn, the engine tracks **cumulative** budget consumption
//! over the process lifetime and reports budget exhaustion exactly once
//! (callers typically answer with
//! [`crate::FlightRecorder::dump_incident`]).
//!
//! A wrinkle worth knowing: the burn gauges are set *after* a tick, and
//! [`crate::MetricWindows::gauge`] reads the latest completed frame, so
//! a gauge-reading health rule sees each burn value one tick late.

use std::sync::Mutex;
use std::time::Duration;

use s3_obs::{event, registry, Counter, Gauge, Registry};

use crate::health::{Bounds, HealthRule, Signal};
use crate::window::{MetricWindows, WindowFrame};

/// How an objective's error rate is measured from metric windows.
#[derive(Debug, Clone, Copy)]
pub enum SloSignal {
    /// `sum(bad counter) / count(total histogram)` — e.g. degraded
    /// queries over all queries.
    CounterOverHistogram {
        /// Counter of bad events (summed across labels).
        bad: &'static str,
        /// Histogram whose windowed sample count is the event total.
        total_hist: &'static str,
    },
    /// Fraction of histogram samples strictly above a threshold — e.g.
    /// queries slower than the latency target.
    FractionAbove {
        /// Histogram name.
        histogram: &'static str,
        /// Threshold in the histogram's unit (ns for latency).
        threshold: u64,
    },
}

/// One SLO objective (see module docs).
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Short objective name (`availability`, `latency`, …).
    pub name: &'static str,
    /// Health-rule name derived from this spec (`slo-availability`, …).
    pub rule: &'static str,
    /// Error-rate measurement.
    pub signal: SloSignal,
    /// Target success fraction in `(0, 1)` — budget is `1 - target`.
    pub target: f64,
    /// Fast burn window (default 5 min).
    pub fast: Duration,
    /// Slow burn window (default 1 h).
    pub slow: Duration,
    /// Gauge publishing the effective burn rate (must be unique and
    /// unlabelled: health rules read it via [`Signal::GaugeValue`]).
    pub burn_gauge: &'static str,
    /// Gauge publishing remaining cumulative budget fraction.
    pub budget_gauge: &'static str,
    /// Burn rate above which the health rule goes degraded.
    pub degraded_burn: f64,
    /// Burn rate above which the health rule goes critical.
    pub critical_burn: f64,
    /// Events required in the fast window before burn is trusted; below
    /// it the burn gauge reports 0 (healthy-for-lack-of-evidence).
    pub min_count: u64,
}

impl SloSpec {
    /// A spec with the conventional windows and thresholds; gauges are
    /// named `slo.burn.<name>` / `slo.budget.<name>` interned statics
    /// must be supplied by the caller.
    pub fn new(
        name: &'static str,
        rule: &'static str,
        signal: SloSignal,
        target: f64,
        burn_gauge: &'static str,
        budget_gauge: &'static str,
    ) -> SloSpec {
        SloSpec {
            name,
            rule,
            signal,
            target: target.clamp(0.0, 1.0 - 1e-9),
            fast: Duration::from_secs(300),
            slow: Duration::from_secs(3600),
            burn_gauge,
            budget_gauge,
            degraded_burn: 2.0,
            critical_burn: 14.4,
            min_count: 8,
        }
    }

    /// Error budget rate (`1 - target`, floored away from zero).
    pub fn budget(&self) -> f64 {
        (1.0 - self.target).max(1e-9)
    }

    /// The [`HealthRule`] wiring this objective into a health engine.
    ///
    /// The rule reads the burn gauge the engine publishes, so the same
    /// [`MetricWindows`] must be ticked between [`SloEngine::evaluate`]
    /// and the health evaluation for the value to land in a frame.
    pub fn health_rule(&self) -> HealthRule {
        HealthRule::new(
            self.rule,
            Signal::GaugeValue(self.burn_gauge),
            self.fast,
            Bounds::at_most(self.degraded_burn),
        )
        .critical(Bounds::at_most(self.critical_burn))
    }

    /// `(error_rate, event_count)` over `lookback`, `None` without traffic.
    fn error_rate(&self, w: &MetricWindows, lookback: Duration) -> (Option<f64>, u64) {
        match self.signal {
            SloSignal::CounterOverHistogram { bad, total_hist } => {
                let Some(h) = w.window_histogram(total_hist, lookback) else {
                    return (None, 0);
                };
                if h.count == 0 {
                    return (None, 0);
                }
                let bad = w.delta(bad, lookback).unwrap_or(0);
                (Some((bad as f64 / h.count as f64).min(1.0)), h.count)
            }
            SloSignal::FractionAbove {
                histogram,
                threshold,
            } => {
                let Some(h) = w.window_histogram(histogram, lookback) else {
                    return (None, 0);
                };
                (h.fraction_above(threshold), h.count)
            }
        }
    }

    /// Contribution of one completed frame to cumulative accounting:
    /// `(bad_events, total_events)`.
    fn frame_events(&self, frame: &WindowFrame) -> (f64, u64) {
        match self.signal {
            SloSignal::CounterOverHistogram { bad, total_hist } => {
                let mut b = 0u64;
                for (id, v) in &frame.counters {
                    if id.name == bad {
                        b = b.saturating_add(*v);
                    }
                }
                let mut total = 0u64;
                for (id, h) in &frame.histograms {
                    if id.name == total_hist {
                        total = total.saturating_add(h.count);
                    }
                }
                (b as f64, total)
            }
            SloSignal::FractionAbove {
                histogram,
                threshold,
            } => {
                let mut bad = 0.0f64;
                let mut total = 0u64;
                for (id, h) in &frame.histograms {
                    if id.name == histogram {
                        total = total.saturating_add(h.count);
                        if let Some(f) = h.fraction_above(threshold) {
                            bad += f * h.count as f64;
                        }
                    }
                }
                (bad, total)
            }
        }
    }
}

/// One objective's state after an [`SloEngine::evaluate`] call.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The spec's name.
    pub name: &'static str,
    /// Burn over the fast window (`None` without traffic).
    pub fast_burn: Option<f64>,
    /// Burn over the slow window.
    pub slow_burn: Option<f64>,
    /// Effective (published) burn: `min(fast, slow)`, 0 when untrusted.
    pub burn: f64,
    /// Cumulative bad events since the engine started.
    pub consumed_bad: f64,
    /// Cumulative total events since the engine started.
    pub total_events: u64,
    /// Remaining budget fraction (1 = untouched, ≤ 0 = exhausted).
    pub budget_remaining: f64,
    /// Whether the cumulative budget is exhausted.
    pub exhausted: bool,
    /// True exactly once, on the evaluation that exhausted the budget.
    pub newly_exhausted: bool,
}

struct ObjState {
    /// Frames ending at or before this are already accumulated.
    processed_until: Duration,
    consumed_bad: f64,
    total_events: u64,
    exhausted: bool,
}

/// Evaluates a fixed set of [`SloSpec`]s against a [`MetricWindows`]
/// ring, publishing burn/budget gauges and counting budget exhaustions.
pub struct SloEngine {
    specs: Vec<SloSpec>,
    burn_gauges: Vec<Gauge>,
    budget_gauges: Vec<Gauge>,
    exhausted_counter: Counter,
    state: Mutex<Vec<ObjState>>,
}

impl std::fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloEngine")
            .field("specs", &self.specs.len())
            .finish()
    }
}

impl SloEngine {
    /// An engine registering its gauges on the global registry.
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        SloEngine::with_registry(specs, registry())
    }

    /// An engine registering its gauges on `reg` (tests).
    pub fn with_registry(specs: Vec<SloSpec>, reg: &Registry) -> SloEngine {
        let burn_gauges = specs.iter().map(|s| reg.gauge(s.burn_gauge)).collect();
        let budget_gauges = specs
            .iter()
            .map(|s| {
                let g = reg.gauge(s.budget_gauge);
                g.set(1.0);
                g
            })
            .collect();
        let state = specs
            .iter()
            .map(|_| ObjState {
                processed_until: Duration::ZERO,
                consumed_bad: 0.0,
                total_events: 0,
                exhausted: false,
            })
            .collect();
        SloEngine {
            specs,
            burn_gauges,
            budget_gauges,
            exhausted_counter: reg.counter("slo.exhausted"),
            state: Mutex::new(state),
        }
    }

    /// The configured specs.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Health rules for every spec, ready to append to an engine's set.
    pub fn health_rules(&self) -> Vec<HealthRule> {
        self.specs.iter().map(|s| s.health_rule()).collect()
    }

    /// Evaluates every objective: computes fast/slow burns, publishes
    /// the gauges, and advances cumulative budget accounting over the
    /// frames completed since the last call.
    pub fn evaluate(&self, windows: &MetricWindows) -> Vec<SloStatus> {
        let frames = windows.frames_snapshot();
        let mut state = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut out = Vec::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            let st = &mut state[i];
            for f in frames.iter().filter(|f| f.end > st.processed_until) {
                let (bad, total) = spec.frame_events(f);
                st.consumed_bad += bad;
                st.total_events = st.total_events.saturating_add(total);
            }
            if let Some(last) = frames.last() {
                st.processed_until = st.processed_until.max(last.end);
            }
            let (fast, fast_count) = spec.error_rate(windows, spec.fast);
            let (slow, _) = spec.error_rate(windows, spec.slow);
            let budget = spec.budget();
            let fast_burn = fast.map(|e| e / budget);
            let slow_burn = slow.map(|e| e / budget);
            let burn = if fast_count < spec.min_count {
                0.0
            } else {
                match (fast_burn, slow_burn) {
                    (Some(f), Some(s)) => f.min(s),
                    (Some(f), None) => f,
                    (None, Some(s)) => s,
                    (None, None) => 0.0,
                }
            };
            self.burn_gauges[i].set(burn);
            let allowance = budget * st.total_events as f64;
            let budget_remaining = if allowance > 0.0 {
                (1.0 - st.consumed_bad / allowance).max(-1.0)
            } else {
                1.0
            };
            self.budget_gauges[i].set(budget_remaining);
            let exhausted = st.total_events >= spec.min_count && budget_remaining <= 0.0;
            let newly_exhausted = exhausted && !st.exhausted;
            if newly_exhausted {
                st.exhausted = true;
                self.exhausted_counter.inc();
                event::warn(
                    "slo",
                    &format!(
                        "objective {} exhausted its error budget ({:.1} bad / {} events, target {})",
                        spec.name, st.consumed_bad, st.total_events, spec.target
                    ),
                );
            }
            out.push(SloStatus {
                name: spec.name,
                fast_burn,
                slow_burn,
                burn,
                consumed_bad: st.consumed_bad,
                total_events: st.total_events,
                budget_remaining,
                exhausted: st.exhausted,
                newly_exhausted,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HealthEngine, Verdict};
    use s3_obs::{ManualTime, TimeSource};

    fn avail_spec() -> SloSpec {
        SloSpec {
            min_count: 4,
            ..SloSpec::new(
                "availability",
                "slo-availability",
                SloSignal::CounterOverHistogram {
                    bad: "q.degraded",
                    total_hist: "q.latency",
                },
                0.9,
                "slo.burn.avail",
                "slo.budget.avail",
            )
        }
    }

    #[test]
    fn burn_is_error_rate_over_budget() {
        let reg = Registry::new();
        let t = ManualTime::new();
        let w = MetricWindows::new(64);
        let engine = SloEngine::with_registry(vec![avail_spec()], &reg);
        let bad = reg.counter("q.degraded");
        let lat = reg.histogram("q.latency");
        w.tick_at(t.now(), reg.snapshot());
        // 20 queries, 4 degraded: error rate 0.2 over budget 0.1 = 2x.
        for i in 0..20 {
            lat.record(1000);
            if i % 5 == 0 {
                bad.inc();
            }
        }
        t.advance(Duration::from_secs(10));
        w.tick_at(t.now(), reg.snapshot());
        let st = &engine.evaluate(&w)[0];
        assert!((st.burn - 2.0).abs() < 1e-9, "burn={}", st.burn);
        assert_eq!(st.total_events, 20);
        assert!((st.consumed_bad - 4.0).abs() < 1e-9);
        // 4 bad vs allowance 2.0 -> budget gone (clamped at -1).
        assert!(st.exhausted);
        assert!(st.newly_exhausted);
        // Exhaustion reports once.
        t.advance(Duration::from_secs(1));
        w.tick_at(t.now(), reg.snapshot());
        let st = &engine.evaluate(&w)[0];
        assert!(st.exhausted);
        assert!(!st.newly_exhausted);
        assert_eq!(
            reg.snapshot()
                .counters
                .iter()
                .find(|(id, _)| id.name == "slo.exhausted")
                .map(|&(_, v)| v),
            Some(1)
        );
    }

    #[test]
    fn min_count_gates_burn() {
        let reg = Registry::new();
        let t = ManualTime::new();
        let w = MetricWindows::new(64);
        let engine = SloEngine::with_registry(vec![avail_spec()], &reg);
        let bad = reg.counter("q.degraded");
        let lat = reg.histogram("q.latency");
        w.tick_at(t.now(), reg.snapshot());
        // Two queries, both degraded: far too few events to trust.
        lat.record(10);
        lat.record(10);
        bad.add(2);
        t.advance(Duration::from_secs(1));
        w.tick_at(t.now(), reg.snapshot());
        let st = &engine.evaluate(&w)[0];
        assert_eq!(st.burn, 0.0);
        assert!(!st.exhausted);
    }

    #[test]
    fn latency_objective_uses_fraction_above() {
        let reg = Registry::new();
        let t = ManualTime::new();
        let w = MetricWindows::new(64);
        let spec = SloSpec {
            min_count: 4,
            ..SloSpec::new(
                "latency",
                "slo-latency",
                SloSignal::FractionAbove {
                    histogram: "q.latency",
                    threshold: 1_000_000,
                },
                0.5,
                "slo.burn.lat",
                "slo.budget.lat",
            )
        };
        let engine = SloEngine::with_registry(vec![spec], &reg);
        let lat = reg.histogram("q.latency");
        w.tick_at(t.now(), reg.snapshot());
        // 40 of 100 queries blow a 1 ms target: error rate 0.4 over
        // budget 0.5 -> burn 0.8, 20% of cumulative budget left.
        for _ in 0..60 {
            lat.record(100);
        }
        for _ in 0..40 {
            lat.record(200_000_000);
        }
        t.advance(Duration::from_secs(10));
        w.tick_at(t.now(), reg.snapshot());
        let st = &engine.evaluate(&w)[0];
        assert!((st.burn - 0.8).abs() < 0.05, "burn={}", st.burn);
        assert!((st.budget_remaining - 0.2).abs() < 0.05);
        assert!(!st.exhausted);
    }

    #[test]
    fn health_rule_transitions_on_sustained_burn() {
        let reg = Registry::new();
        let t = ManualTime::new();
        let w = MetricWindows::new(64);
        let slo = SloEngine::with_registry(vec![avail_spec()], &reg);
        let health = HealthEngine::with_registry(slo.health_rules(), &reg);
        let bad = reg.counter("q.degraded");
        let lat = reg.histogram("q.latency");
        w.tick_at(t.now(), reg.snapshot());
        let mut worst = Verdict::Healthy;
        for _ in 0..4 {
            // Everything degraded: error rate 1.0, burn 10x > critical? no:
            // budget 0.1 -> burn 10.0, above degraded (2) below critical (14.4).
            for _ in 0..10 {
                lat.record(1000);
                bad.inc();
            }
            t.advance(Duration::from_secs(5));
            w.tick_at(t.now(), reg.snapshot());
            slo.evaluate(&w);
            // Gauges land in the *next* frame; tick again so the health
            // rule sees them (the documented one-tick lag).
            t.advance(Duration::from_millis(10));
            w.tick_at(t.now(), reg.snapshot());
            let report = health.evaluate(&w);
            worst = worst.max(report.verdict);
        }
        assert_eq!(worst, Verdict::Degraded);
    }
}
