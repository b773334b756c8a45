//! The workspace's clocks.
//!
//! [`TimeSource`] is a monotonic duration since an arbitrary epoch, with
//! [`WallTime`] for production and [`ManualTime`] for deterministic tests.
//! `s3_core::resilience::Clock` is `TimeSource` plus `sleep`, implemented
//! for the same two types (which core re-exports as `SystemClock` and
//! `MockClock`); the ops plane's metric windows tick on them too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source: duration since an arbitrary fixed epoch.
pub trait TimeSource: Send + Sync {
    /// Time elapsed since the source's epoch.
    fn now(&self) -> Duration;
}

/// Wall-clock [`TimeSource`] anchored at its creation instant.
#[derive(Debug)]
pub struct WallTime {
    epoch: Instant,
}

impl WallTime {
    /// A source whose epoch is "now".
    pub fn new() -> WallTime {
        WallTime {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallTime {
    fn default() -> Self {
        WallTime::new()
    }
}

impl TimeSource for WallTime {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// Deterministic [`TimeSource`] advanced explicitly by tests.
#[derive(Debug, Default)]
pub struct ManualTime {
    nanos: AtomicU64,
}

impl ManualTime {
    /// A source starting at t = 0.
    pub fn new() -> ManualTime {
        ManualTime::default()
    }

    /// Moves time forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::SeqCst);
    }
}

impl TimeSource for ManualTime {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}
