//! The stock health rules over the metrics `s3-core` registers
//! ([`s3_core::CoreMetrics`]): what counts as healthy, decided here and
//! nowhere else.

use std::time::Duration;

use crate::health::{Bounds, HealthRule, Signal};

/// The stock health-rule set covering the metrics `s3-core` records.
///
/// Tuned for the continuous-monitoring deployment: a rule only trips on
/// sustained windowed evidence (`min_count` floors filter out idle or
/// barely-started systems), and every ceiling has headroom over the
/// values a healthy run produces. Callers can extend or replace the set
/// before handing it to [`crate::HealthEngine`].
pub fn default_health_rules() -> Vec<HealthRule> {
    vec![
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
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_core::CoreMetrics;
    use s3_obs::registry;

    #[test]
    fn default_rules_cover_registered_metrics() {
        let rules = default_health_rules();
        let names: Vec<&str> = rules.iter().map(|r| r.name).collect();
        assert_eq!(names, ["storage-fault-rate", "deadline-rate"]);
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
            let (Signal::Rate(n) | Signal::GaugeValue(n)) = rule.signal;
            assert!(
                known.contains(&n),
                "rule {} references unregistered {n}",
                rule.name
            );
        }
    }
}
