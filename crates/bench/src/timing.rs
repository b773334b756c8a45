//! Lightweight wall-clock measurement for the experiment binaries.
//!
//! The paper-figure experiments report simple "average seconds per query"
//! numbers like the paper's tables, which this module provides (warm-up plus
//! mean of a measured run). Performance comparisons between commits belong
//! to the frozen benchmark under `benchmark/`, not here.

use std::time::{Duration, Instant};

/// Measures the mean duration of `f` over `runs` invocations after `warmup`
/// discarded invocations.
pub fn mean_time<F: FnMut()>(warmup: usize, runs: usize, mut f: F) -> Duration {
    assert!(runs > 0);
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..runs {
        f();
    }
    start.elapsed() / runs as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_time_counts_only_measured_runs() {
        let mut calls = 0;
        let d = mean_time(2, 3, || calls += 1);
        assert_eq!(calls, 5);
        assert!(d >= Duration::ZERO);
    }
}
