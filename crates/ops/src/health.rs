//! Declarative health rules over metric windows.
//!
//! A [`HealthRule`] names a [`Signal`] derived from a [`MetricWindows`]
//! ring (a windowed rate, a ratio of counters, a gauge level, or a rolling
//! quantile), the [`Bounds`] the signal must stay inside to be considered
//! healthy, and optional tighter bounds whose violation is *critical*.
//! The [`HealthEngine`] evaluates every rule on each tick and folds the
//! per-rule levels into an overall [`Verdict`].
//!
//! Verdicts are sticky on the way down: escalation is instant, but a rule
//! only clears after `clear_after` consecutive evaluations in which its
//! signal sits inside bounds *tightened by a margin* (hysteresis). A
//! signal oscillating right at a threshold therefore cannot flap the
//! verdict — it either stays clearly inside the tightened bounds or the
//! rule stays elevated.
//!
//! The engine exports its own state as metrics: a `health` gauge
//! (0 = healthy, 1 = degraded, 2 = critical), per-rule
//! `health.rule{rule="..."}` gauges, and a `health.transitions` counter,
//! and emits an event on every overall-verdict change.

use std::sync::Mutex;
use std::time::Duration;

use s3_obs::{event, registry, Counter, Gauge, Registry};

use crate::window::MetricWindows;

/// Overall or per-rule health level, ordered by severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Every rule inside bounds (or lacking data to say otherwise).
    Healthy,
    /// At least one rule outside its degraded bounds.
    Degraded,
    /// At least one rule outside its critical bounds.
    Critical,
}

impl Verdict {
    /// Numeric encoding used by the `health` gauges.
    pub fn as_f64(self) -> f64 {
        match self {
            Verdict::Healthy => 0.0,
            Verdict::Degraded => 1.0,
            Verdict::Critical => 2.0,
        }
    }

    /// Lower-case stable name (`healthy` / `degraded` / `critical`).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Healthy => "healthy",
            Verdict::Degraded => "degraded",
            Verdict::Critical => "critical",
        }
    }
}

/// What a rule measures, resolved against a [`MetricWindows`] ring.
#[derive(Clone, Copy, Debug)]
pub enum Signal {
    /// Per-second rate of a counter over the rule's lookback.
    Rate(&'static str),
    /// `num / (sum of den)` counter deltas over the lookback — e.g. a
    /// failure *ratio* is `failures / (failures + successes)`. Undefined
    /// (no opinion) while the denominator is zero.
    Ratio {
        /// Numerator counter name.
        num: &'static str,
        /// Denominator counter names, summed.
        den: &'static [&'static str],
    },
    /// Latest value of a gauge.
    GaugeValue(&'static str),
    /// Rolling quantile (in nanoseconds) of a histogram over the lookback.
    QuantileNs {
        /// Histogram name.
        histogram: &'static str,
        /// Quantile in `[0, 1]`.
        q: f64,
    },
}

impl Signal {
    /// Evaluates to `(value, sample_count)`. `value` is `None` when the
    /// windows hold no frames or the signal is undefined (zero-traffic
    /// ratio, empty histogram); `sample_count` feeds the rule's
    /// `min_count` floor (gauges always count as "enough").
    fn eval(&self, w: &MetricWindows, lookback: Duration) -> (Option<f64>, u64) {
        match *self {
            Signal::Rate(name) => {
                let count = w.delta(name, lookback).unwrap_or(0);
                (w.rate(name, lookback), count)
            }
            Signal::Ratio { num, den } => {
                let n = match w.delta(num, lookback) {
                    Some(n) => n,
                    None => return (None, 0),
                };
                let mut total = 0u64;
                for d in den {
                    total = total.saturating_add(w.delta(d, lookback).unwrap_or(0));
                }
                if total == 0 {
                    (None, 0)
                } else {
                    (Some(n as f64 / total as f64), total)
                }
            }
            Signal::GaugeValue(name) => (w.gauge(name), u64::MAX),
            Signal::QuantileNs { histogram, q } => match w.window_histogram(histogram, lookback) {
                Some(h) => {
                    let count = h.count;
                    (h.quantile(q).map(|v| v as f64), count)
                }
                None => (None, 0),
            },
        }
    }

    /// Short human-readable description for rule details.
    fn describe(&self) -> String {
        match *self {
            Signal::Rate(name) => format!("rate({name})/s"),
            Signal::Ratio { num, den } => format!("ratio({num}/{})", den.join("+")),
            Signal::GaugeValue(name) => format!("gauge({name})"),
            Signal::QuantileNs { histogram, q } => format!("p{:02}({histogram})ns", (q * 100.0)),
        }
    }
}

/// Acceptable closed interval for a signal; `None` sides are unbounded.
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    min: Option<f64>,
    max: Option<f64>,
}

impl Bounds {
    /// Healthy when `value >= floor`.
    pub fn at_least(floor: f64) -> Bounds {
        Bounds {
            min: Some(floor),
            max: None,
        }
    }

    /// Healthy when `value <= ceiling`.
    pub fn at_most(ceiling: f64) -> Bounds {
        Bounds {
            min: None,
            max: Some(ceiling),
        }
    }

    /// Healthy when `lo <= value <= hi`.
    pub fn within(lo: f64, hi: f64) -> Bounds {
        Bounds {
            min: Some(lo),
            max: Some(hi),
        }
    }

    /// Whether `v` lies inside the bounds.
    pub fn contains(&self, v: f64) -> bool {
        self.min.is_none_or(|m| v >= m) && self.max.is_none_or(|m| v <= m)
    }

    /// The bounds with the acceptable region shrunk by `margin`
    /// (relative to each bound's magnitude, absolute near zero) — the
    /// stricter region a signal must re-enter before a rule may clear.
    /// `margin = 0` is the identity.
    pub fn tightened(&self, margin: f64) -> Bounds {
        let adj = |b: f64| {
            if b.abs() < 1e-12 {
                margin
            } else {
                b.abs() * margin
            }
        };
        match (self.min, self.max) {
            (Some(lo), Some(hi)) => {
                // Cap each side at half the width so tightening a narrow
                // band can never invert it.
                let half = ((hi - lo) / 2.0).max(0.0);
                Bounds {
                    min: Some(lo + adj(lo).min(half)),
                    max: Some(hi - adj(hi).min(half)),
                }
            }
            (Some(lo), None) => Bounds {
                min: Some(lo + adj(lo)),
                max: None,
            },
            (None, Some(hi)) => Bounds {
                min: None,
                max: Some(hi - adj(hi)),
            },
            (None, None) => Bounds {
                min: None,
                max: None,
            },
        }
    }

    fn render(&self) -> String {
        match (self.min, self.max) {
            (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
            (Some(lo), None) => format!(">= {lo}"),
            (None, Some(hi)) => format!("<= {hi}"),
            (None, None) => "unbounded".to_owned(),
        }
    }
}

/// One declarative health rule (see module docs). Build with
/// [`HealthRule::new`] and the chainable setters.
#[derive(Clone, Debug)]
pub struct HealthRule {
    /// Stable identifier, used as the `health.rule` gauge label and in
    /// incident reports.
    pub name: &'static str,
    /// What to measure.
    pub signal: Signal,
    /// Window horizon the signal is computed over.
    pub lookback: Duration,
    /// Bounds whose violation makes the rule (at least) degraded.
    pub degraded: Bounds,
    /// Optional tighter bounds whose violation makes the rule critical.
    pub critical: Option<Bounds>,
    /// Minimum sample count before the signal is trusted; below it the
    /// rule reports healthy-for-lack-of-evidence.
    pub min_count: u64,
    /// Consecutive in-bounds evaluations required before clearing.
    pub clear_after: u32,
    /// Hysteresis margin applied when clearing (see [`Bounds::tightened`]).
    pub margin: f64,
}

impl HealthRule {
    /// A rule with defaults: no critical bounds, `min_count = 0`,
    /// `clear_after = 3`, `margin = 0.1`.
    pub fn new(
        name: &'static str,
        signal: Signal,
        lookback: Duration,
        degraded: Bounds,
    ) -> HealthRule {
        HealthRule {
            name,
            signal,
            lookback,
            degraded,
            critical: None,
            min_count: 0,
            clear_after: 3,
            margin: 0.1,
        }
    }

    /// Sets the critical bounds.
    pub fn critical(mut self, bounds: Bounds) -> HealthRule {
        self.critical = Some(bounds);
        self
    }

    /// Sets the sample-count floor.
    pub fn min_count(mut self, n: u64) -> HealthRule {
        self.min_count = n;
        self
    }

    /// Sets the clear streak length (clamped to at least 1).
    pub fn clear_after(mut self, n: u32) -> HealthRule {
        self.clear_after = n.max(1);
        self
    }

    /// Sets the hysteresis margin.
    pub fn margin(mut self, m: f64) -> HealthRule {
        self.margin = m.max(0.0);
        self
    }

    /// The raw level the signal's current value maps to. With
    /// `tighten = true` the bounds are shrunk by the rule's margin
    /// (used for the clear decision).
    fn target(&self, value: Option<f64>, count: u64, tighten: bool) -> Verdict {
        let v = match value {
            Some(v) if count >= self.min_count => v,
            _ => return Verdict::Healthy,
        };
        let m = if tighten { self.margin } else { 0.0 };
        if let Some(c) = &self.critical {
            if !c.tightened(m).contains(v) {
                return Verdict::Critical;
            }
        }
        if !self.degraded.tightened(m).contains(v) {
            return Verdict::Degraded;
        }
        Verdict::Healthy
    }
}

/// A rule's state after one evaluation.
#[derive(Clone, Debug)]
pub struct RuleOutcome {
    /// The rule's name.
    pub name: &'static str,
    /// The signal value this evaluation (None = no data).
    pub value: Option<f64>,
    /// The rule's current (hysteresis-adjusted) level.
    pub level: Verdict,
    /// Human-readable explanation of the level.
    pub detail: String,
}

/// The engine's conclusion for one evaluation.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Worst per-rule level.
    pub verdict: Verdict,
    /// Overall verdict of the previous evaluation.
    pub previous: Verdict,
    /// Whether `verdict != previous`.
    pub transitioned: bool,
    /// Per-rule outcomes, in rule order.
    pub rules: Vec<RuleOutcome>,
}

struct RuleState {
    level: Verdict,
    ok_streak: u32,
}

struct EngineState {
    prev: Verdict,
    rules: Vec<RuleState>,
}

/// Evaluates a fixed rule set against a [`MetricWindows`] ring with
/// hysteresis (see module docs).
pub struct HealthEngine {
    rules: Vec<HealthRule>,
    state: Mutex<EngineState>,
    health_gauge: Gauge,
    transitions: Counter,
    rule_gauges: Vec<Gauge>,
}

impl std::fmt::Debug for HealthEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthEngine")
            .field("rules", &self.rules.len())
            .finish()
    }
}

impl HealthEngine {
    /// An engine registering its gauges on the global registry.
    pub fn new(rules: Vec<HealthRule>) -> HealthEngine {
        HealthEngine::with_registry(rules, registry())
    }

    /// An engine registering its gauges on `reg` (tests).
    pub fn with_registry(rules: Vec<HealthRule>, reg: &Registry) -> HealthEngine {
        let rule_gauges = rules
            .iter()
            .map(|r| reg.gauge_with("health.rule", Some(("rule", r.name))))
            .collect();
        let state = EngineState {
            prev: Verdict::Healthy,
            rules: rules
                .iter()
                .map(|_| RuleState {
                    level: Verdict::Healthy,
                    ok_streak: 0,
                })
                .collect(),
        };
        HealthEngine {
            rules,
            state: Mutex::new(state),
            health_gauge: reg.gauge("health"),
            transitions: reg.counter("health.transitions"),
            rule_gauges,
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[HealthRule] {
        &self.rules
    }

    /// Evaluates every rule against `windows`, updates hysteresis state
    /// and the `health*` metrics, and emits an event when the overall
    /// verdict changes.
    pub fn evaluate(&self, windows: &MetricWindows) -> HealthReport {
        let mut state = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut outcomes = Vec::with_capacity(self.rules.len());
        for (i, rule) in self.rules.iter().enumerate() {
            let (value, count) = rule.signal.eval(windows, rule.lookback);
            let target = rule.target(value, count, false);
            let target_hyst = rule.target(value, count, true);
            let st = &mut state.rules[i];
            if target >= st.level {
                // Escalation (or holding at the same raw level) is
                // immediate and resets any clear progress.
                st.level = target;
                st.ok_streak = 0;
            } else if target_hyst >= st.level {
                // Inside the raw bounds but not the tightened ones: the
                // signal is hovering at the threshold. Hold the level.
                st.ok_streak = 0;
            } else {
                st.ok_streak += 1;
                if st.ok_streak >= rule.clear_after {
                    st.level = target_hyst;
                    st.ok_streak = 0;
                }
            }
            self.rule_gauges[i].set(st.level.as_f64());
            let detail = match value {
                Some(v) if count >= rule.min_count => format!(
                    "{} = {v:.4} (degraded outside {}{})",
                    rule.signal.describe(),
                    rule.degraded.render(),
                    match &rule.critical {
                        Some(c) => format!(", critical outside {}", c.render()),
                        None => String::new(),
                    }
                ),
                Some(_) => format!("insufficient samples ({count} < {})", rule.min_count),
                None => "no data".to_owned(),
            };
            outcomes.push(RuleOutcome {
                name: rule.name,
                value,
                level: st.level,
                detail,
            });
        }
        let verdict = outcomes
            .iter()
            .map(|o| o.level)
            .max()
            .unwrap_or(Verdict::Healthy);
        let previous = state.prev;
        state.prev = verdict;
        drop(state);
        let transitioned = verdict != previous;
        self.health_gauge.set(verdict.as_f64());
        if transitioned {
            self.transitions.inc();
            let offenders: Vec<&str> = outcomes
                .iter()
                .filter(|o| o.level == verdict && verdict != Verdict::Healthy)
                .map(|o| o.name)
                .collect();
            let msg = if offenders.is_empty() {
                format!("verdict {} -> {}", previous.as_str(), verdict.as_str())
            } else {
                format!(
                    "verdict {} -> {} ({})",
                    previous.as_str(),
                    verdict.as_str(),
                    offenders.join(", ")
                )
            };
            match verdict {
                Verdict::Healthy => event::info("health", &msg),
                Verdict::Degraded => event::warn("health", &msg),
                Verdict::Critical => event::error("health", &msg),
            }
        }
        HealthReport {
            verdict,
            previous,
            transitioned,
            rules: outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_ordering_and_encoding() {
        assert!(Verdict::Critical > Verdict::Degraded);
        assert!(Verdict::Degraded > Verdict::Healthy);
        assert_eq!(Verdict::Degraded.as_f64(), 1.0);
        assert_eq!(Verdict::Critical.as_str(), "critical");
    }

    #[test]
    fn bounds_tightening() {
        let b = Bounds::at_least(0.5);
        assert!(b.contains(0.5));
        let t = b.tightened(0.1);
        assert!(!t.contains(0.52));
        assert!(t.contains(0.56));
        let c = Bounds::at_most(100.0).tightened(0.1);
        assert!(c.contains(89.0));
        assert!(!c.contains(91.0));
        // Zero bound falls back to an absolute margin.
        let z = Bounds::at_most(0.0).tightened(0.1);
        assert!(!z.contains(-0.05));
        assert!(z.contains(-0.2));
        // Narrow band never inverts.
        let n = Bounds::within(99.0, 101.0).tightened(0.5);
        assert!(n.contains(100.0));
    }

    #[test]
    fn engine_escalates_immediately_and_clears_with_streak() {
        use s3_obs::Registry;

        let reg = Registry::new();
        let w = MetricWindows::new(16);
        let engine = HealthEngine::with_registry(
            vec![HealthRule::new(
                "hit-floor",
                Signal::Ratio {
                    num: "hits",
                    den: &["hits", "misses"],
                },
                Duration::from_secs(10),
                Bounds::at_least(0.5),
            )
            .clear_after(2)],
            &reg,
        );
        let hits = reg.counter("hits");
        let misses = reg.counter("misses");
        let mut t = 0u64;
        let mut tick = |reg: &Registry, w: &MetricWindows| {
            w.tick_at(Duration::from_secs(t), reg.snapshot());
            t += 1;
        };
        tick(&reg, &w);
        // All misses -> degraded instantly.
        misses.add(100);
        tick(&reg, &w);
        let r = engine.evaluate(&w);
        assert_eq!(r.verdict, Verdict::Degraded);
        assert!(r.transitioned);
        // Recovery: all hits. Lookback 10 s still includes the bad frame
        // at first; keep ticking until the window is clean, then the rule
        // needs clear_after = 2 consecutive good evals.
        let mut healthy_at = None;
        for i in 0..20 {
            hits.add(1000);
            tick(&reg, &w);
            let r = engine.evaluate(&w);
            if r.verdict == Verdict::Healthy {
                healthy_at = Some(i);
                break;
            }
        }
        assert!(healthy_at.is_some(), "never recovered");
        // And it stays healthy.
        for _ in 0..5 {
            hits.add(1000);
            tick(&reg, &w);
            assert_eq!(engine.evaluate(&w).verdict, Verdict::Healthy);
        }
    }
}
