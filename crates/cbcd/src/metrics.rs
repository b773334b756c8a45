//! Pre-registered observability handles of the detection system — the
//! monitoring counterpart of [`s3_core::CoreMetrics`].
//!
//! The full catalog is documented in `docs/observability.md`.

use std::sync::OnceLock;

use s3_obs::{registry, Counter};

/// Handles to every metric the cbcd crate records.
pub struct CbcdMetrics {
    /// `monitor.accepted` — fingerprints accepted into the search stage,
    /// added by the monitor after each chunk so long-running loops stream
    /// their intake instead of reporting it once at the end.
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
}
