//! Pre-registered observability handles of the detection system — the
//! monitoring counterpart of [`s3_core::CoreMetrics`].
//!
//! The full catalog is documented in `docs/observability.md`.

use std::sync::OnceLock;

use s3_obs::{registry, Counter};

use crate::monitor::HealthReport;

/// Handles to every metric the cbcd crate records.
pub struct CbcdMetrics {
    /// `monitor.accepted` — fingerprints accepted into the search stage.
    pub accepted: Counter,
}

static CBCD: OnceLock<CbcdMetrics> = OnceLock::new();

impl CbcdMetrics {
    /// The process-wide handles (registered on first call).
    pub fn get() -> &'static CbcdMetrics {
        CBCD.get_or_init(|| CbcdMetrics {
            accepted: registry().counter("monitor.accepted"),
        })
    }

    /// Folds the fingerprints accepted between two health reports into the
    /// registry — called by the monitor after each chunk so long-running
    /// loops stream their intake instead of reporting it once at the end.
    pub fn record_health_delta(&self, before: &HealthReport, after: &HealthReport) {
        self.accepted.add((after.accepted - before.accepted) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_delta_adds_differences() {
        let m = CbcdMetrics::get();
        let before_counter = m.accepted.get();
        let a = HealthReport {
            accepted: 10,
            out_of_order_skipped: 1,
            ..HealthReport::default()
        };
        let b = HealthReport {
            accepted: 25,
            out_of_order_skipped: 3,
            ..HealthReport::default()
        };
        m.record_health_delta(&a, &b);
        assert_eq!(m.accepted.get(), before_counter + 15);
    }
}
