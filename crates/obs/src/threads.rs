//! The workspace's one core count.
//!
//! Every default worker count — the pseudo-disk batch, the CLI's
//! `--threads`, the extractor's render-ahead — comes from
//! [`default_threads`], so no crate asks the standard library a second time.

use std::sync::OnceLock;

/// Every available core. Resolved once per process, because the standard
/// library reads cgroup files to answer (≈ 16 µs a call in a Linux
/// container).
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}
