//! The stock health rules and SLOs over the metrics `s3-core` registers
//! ([`s3_core::CoreMetrics`]): what counts as healthy, decided here and
//! nowhere else.

use std::time::Duration;

use crate::health::{Bounds, HealthRule, Signal};
use crate::slo::{SloSignal, SloSpec};

/// The stock health-rule set covering the metrics `s3-core` records.
///
/// Tuned for the continuous-monitoring deployment: a rule only trips on
/// sustained windowed evidence (`min_count` floors filter out idle or
/// barely-started systems), and every ceiling has headroom over the
/// values a healthy run produces. Callers can extend or replace the set
/// before handing it to [`crate::HealthEngine`].
pub fn default_health_rules() -> Vec<HealthRule> {
    vec![
        // Un-checkpointed WAL is crash-recovery debt: replay time grows
        // linearly with it.
        HealthRule::new(
            "wal-checkpoint-lag",
            Signal::GaugeValue("wal.checkpoint_lag_bytes"),
            Duration::from_secs(60),
            Bounds::at_most(16.0 * 1024.0 * 1024.0),
        )
        .critical(Bounds::at_most(64.0 * 1024.0 * 1024.0)),
        // Storage faults (CRC mismatches) should be rare events, not a
        // steady stream.
        HealthRule::new(
            "storage-fault-rate",
            Signal::Rate("storage.crc_failures"),
            Duration::from_secs(60),
            Bounds::at_most(0.5),
        )
        .critical(Bounds::at_most(5.0))
        .min_count(2),
        // Deadlines expiring continuously: queries cannot finish in
        // their budget.
        HealthRule::new(
            "deadline-rate",
            Signal::Rate("resilience.deadline_exceeded"),
            Duration::from_secs(60),
            Bounds::at_most(0.5),
        )
        .min_count(2),
        // Calibration drift (predicted − observed selectivity, basis
        // points): the distortion model drifting far from reality breaks
        // the paper's α capture guarantee in either direction.
        HealthRule::new(
            "calibration-drift",
            Signal::GaugeValue("calibration.drift"),
            Duration::from_secs(300),
            Bounds::within(-2500.0, 2500.0),
        )
        .critical(Bounds::within(-6000.0, 6000.0)),
    ]
}

/// The stock SLO objectives for a query-serving deployment, in terms of
/// the metrics [`s3_core::CoreMetrics`] registers:
///
/// * **availability** — ≥ 99.5 % of queries answered non-degraded
///   (`query.degraded` over `query.latency` sample counts);
/// * **latency** — ≥ 99 % of queries inside `latency_target`
///   (fraction of `query.latency` above the target, via
///   [`s3_obs::HistogramSnapshot::fraction_above`]);
/// * **correctness** — ≥ 99.5 % of queries honouring the paper's α
///   capture invariant (`calibration.alpha_violations`).
///
/// Each spec exposes a burn-rate [`HealthRule`] (`slo-availability`,
/// `slo-latency`, `slo-correctness`) reading the `slo.burn.*` gauges an
/// [`crate::SloEngine`] publishes.
pub fn default_slos(latency_target: Duration) -> Vec<SloSpec> {
    let threshold_ns = latency_target.as_nanos().min(u64::MAX as u128) as u64;
    vec![
        SloSpec::new(
            "availability",
            "slo-availability",
            SloSignal::CounterOverHistogram {
                bad: "query.degraded",
                total_hist: "query.latency",
            },
            0.995,
            "slo.burn.availability",
            "slo.budget.availability",
        ),
        SloSpec {
            min_count: 16,
            ..SloSpec::new(
                "latency",
                "slo-latency",
                SloSignal::FractionAbove {
                    histogram: "query.latency",
                    threshold: threshold_ns.max(1),
                },
                0.99,
                "slo.burn.latency",
                "slo.budget.latency",
            )
        },
        SloSpec {
            min_count: 16,
            ..SloSpec::new(
                "correctness",
                "slo-correctness",
                SloSignal::CounterOverHistogram {
                    bad: "calibration.alpha_violations",
                    total_hist: "query.latency",
                },
                0.995,
                "slo.burn.correctness",
                "slo.budget.correctness",
            )
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_core::CoreMetrics;
    use s3_obs::registry;

    #[test]
    fn default_slos_reference_registered_metrics() {
        let _ = CoreMetrics::get();
        let snap = registry().snapshot();
        let counters: Vec<&str> = snap.counters.iter().map(|(id, _)| id.name).collect();
        let hists: Vec<&str> = snap.histograms.iter().map(|(id, _)| id.name).collect();
        let slos = default_slos(Duration::from_millis(500));
        assert_eq!(slos.len(), 3);
        for spec in &slos {
            match spec.signal {
                SloSignal::CounterOverHistogram { bad, total_hist } => {
                    assert!(counters.contains(&bad), "{}: unregistered {bad}", spec.name);
                    assert!(
                        hists.contains(&total_hist),
                        "{}: unregistered {total_hist}",
                        spec.name
                    );
                }
                SloSignal::FractionAbove { histogram, .. } => {
                    assert!(
                        hists.contains(&histogram),
                        "{}: unregistered {histogram}",
                        spec.name
                    );
                }
            }
            assert!(spec.target > 0.9 && spec.target < 1.0);
        }
    }

    #[test]
    fn default_rules_cover_registered_metrics() {
        let rules = default_health_rules();
        let names: Vec<&str> = rules.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "wal-checkpoint-lag",
                "storage-fault-rate",
                "deadline-rate",
                "calibration-drift"
            ]
        );
        // Every rule references a metric name CoreMetrics registers.
        let _ = CoreMetrics::get();
        let snap = registry().snapshot();
        let known: Vec<&str> = snap
            .counters
            .iter()
            .map(|(id, _)| id.name)
            .chain(snap.gauges.iter().map(|(id, _)| id.name))
            .collect();
        for rule in &rules {
            let names: Vec<&str> = match rule.signal {
                Signal::Rate(n) | Signal::GaugeValue(n) => vec![n],
                Signal::Ratio { num, den } => {
                    let mut v = vec![num];
                    v.extend_from_slice(den);
                    v
                }
                Signal::QuantileNs { histogram, .. } => vec![histogram],
            };
            for n in names {
                assert!(
                    known.contains(&n),
                    "rule {} references unregistered {n}",
                    rule.name
                );
            }
        }
    }
}
