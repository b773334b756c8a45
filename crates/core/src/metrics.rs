//! Pre-registered observability handles of the core crate.
//!
//! All hot-path instrumentation goes through [`CoreMetrics::get`]: the
//! registry lookup happens once per process, after which every record is a
//! few relaxed atomic operations — no locks, no allocation. Eager
//! registration also guarantees the failure counters (`disk.retries`,
//! `storage.crc_failures`, ...) appear in every snapshot, zero-valued, so
//! dashboards can alert on them before the first incident.
//!
//! The full catalog is documented in `docs/observability.md`.

use std::sync::OnceLock;
use std::time::Duration;

use s3_obs::{registry, Counter, Gauge, Histogram};

use crate::filter::missed_target;
use crate::index::QueryStats;

/// Handles to every metric the core crate records. Each one has a reader —
/// a health rule or SLO of `s3-ops`, the `watch` dashboard, printed CLI
/// output, the frozen benchmark or a test that asserts its value; a metric
/// nothing reads is not recorded (`docs/observability.md`, "Metric
/// catalog").
pub struct CoreMetrics {
    /// `query.latency` — wall time per query, ns (batched queries record the
    /// amortised per-query total `T_tot` of eq. 5).
    pub query_latency: Histogram,
    /// `query.blocks_selected` — p-blocks kept by the filter.
    pub blocks_selected: Counter,
    /// `query.nodes_expanded` — partition-tree nodes expanded.
    pub nodes_expanded: Counter,
    /// `query.entries_scanned` — records visited by refinement.
    pub entries_scanned: Counter,
    /// `query.degraded` — queries answered from surviving sections only.
    pub degraded: Counter,
    /// `filter.mass` — probability mass captured by the last filter.
    pub mass: Gauge,
    /// `filter.nodes_expanded` — partition-tree nodes expanded by every
    /// filter call, the depth learner's included.
    pub filter_nodes_expanded: Counter,
    /// `disk.retries` — section-load retries.
    pub retries: Counter,
    /// `disk.sections_loaded` — sections streamed from storage.
    pub sections_loaded: Counter,
    /// `io.read_bytes` — record bytes read from storage.
    pub read_bytes: Counter,
    /// `storage.crc_failures` — checksum mismatches detected.
    pub crc_failures: Counter,
    /// `filter.mass_cache.hits` — per-axis component masses served from the
    /// memo table instead of re-integrating `component_mass`.
    pub mass_cache_hits: Counter,
    /// `filter.mass_cache.misses` — component masses actually integrated
    /// (table fills).
    pub mass_cache_misses: Counter,
    /// `resilience.deadline_exceeded` — batch deadlines that expired
    /// (counted once per deadline, at the expiry transition).
    pub deadline_exceeded: Counter,
    /// `calibration.drift` — last predicted−observed gap, basis points
    /// (large positive drift ⇒ the distortion model over-estimates how much
    /// data the blocks hold; negative ⇒ the blocks are denser than modeled).
    pub calibration_drift: Gauge,
    /// `calibration.alpha_violations` — queries whose *achieved* predicted
    /// mass fell below the α their filter could reach (the paper's capture
    /// invariant, violated by truncation or degradation — never by a query
    /// sitting near the boundary of the byte cube).
    pub calibration_alpha_violations: Counter,
    /// `bufferpool.hits` — page requests served from a resident frame.
    pub bufferpool_hits: Counter,
    /// `bufferpool.misses` — page requests that had to load from storage.
    pub bufferpool_misses: Counter,
    /// `bufferpool.evictions` — frames evicted to make room.
    pub bufferpool_evictions: Counter,
    /// `wal.appends` — records appended to the write-ahead log.
    pub wal_appends: Counter,
    /// `wal.fsyncs` — WAL fsync barriers issued.
    pub wal_fsyncs: Counter,
    /// `wal.checkpoint_lag_bytes` — bytes of WAL accumulated since the
    /// last checkpoint (the redo work a crash would replay).
    pub wal_lag_bytes: Gauge,
    /// `dynamic.merge.ok` — overlay merges that completed normally.
    pub merge_ok: Counter,
    /// `sketch.probes` — Bloom cell probes issued by section consults (a
    /// batch consults only a sketch its caller attached).
    pub sketch_probes: Counter,
}

static CORE: OnceLock<CoreMetrics> = OnceLock::new();

impl CoreMetrics {
    /// The process-wide handles (registered on first call).
    pub fn get() -> &'static CoreMetrics {
        CORE.get_or_init(|| {
            let r = registry();
            CoreMetrics {
                query_latency: r.histogram("query.latency"),
                blocks_selected: r.counter("query.blocks_selected"),
                nodes_expanded: r.counter("query.nodes_expanded"),
                entries_scanned: r.counter("query.entries_scanned"),
                degraded: r.counter("query.degraded"),
                mass: r.gauge("filter.mass"),
                filter_nodes_expanded: r.counter("filter.nodes_expanded"),
                retries: r.counter("disk.retries"),
                sections_loaded: r.counter("disk.sections_loaded"),
                read_bytes: r.counter("io.read_bytes"),
                crc_failures: r.counter("storage.crc_failures"),
                mass_cache_hits: r.counter("filter.mass_cache.hits"),
                mass_cache_misses: r.counter("filter.mass_cache.misses"),
                deadline_exceeded: r.counter("resilience.deadline_exceeded"),
                calibration_drift: r.gauge("calibration.drift"),
                calibration_alpha_violations: r.counter("calibration.alpha_violations"),
                bufferpool_hits: r.counter("bufferpool.hits"),
                bufferpool_misses: r.counter("bufferpool.misses"),
                bufferpool_evictions: r.counter("bufferpool.evictions"),
                wal_appends: r.counter("wal.appends"),
                wal_fsyncs: r.counter("wal.fsyncs"),
                wal_lag_bytes: r.gauge("wal.checkpoint_lag_bytes"),
                merge_ok: r.counter("dynamic.merge.ok"),
                sketch_probes: r.counter("sketch.probes"),
            }
        })
    }

    /// Records one query's selectivity calibration: the filter's achieved
    /// predicted mass vs. the fraction of the database refinement actually
    /// scanned, as a gap in basis points. `target` is the mass the filter
    /// aimed at ([`QueryStats::target`]); capturing less counts a
    /// `calibration.alpha_violations`.
    pub fn record_calibration(
        &self,
        predicted_mass: f64,
        target: f64,
        entries_scanned: usize,
        db_records: usize,
    ) {
        if !predicted_mass.is_finite() || db_records == 0 {
            return; // geometric filters and empty databases don't calibrate
        }
        let pred_bp = (predicted_mass.clamp(0.0, 1.0) * 10_000.0).round();
        let observed = entries_scanned as f64 / db_records as f64;
        let obs_bp = (observed.clamp(0.0, 1.0) * 10_000.0).round();
        self.calibration_drift.set(pred_bp - obs_bp);
        if missed_target(predicted_mass, target) {
            self.calibration_alpha_violations.inc();
        }
    }

    /// Folds one query's work counters (and its latency) into the registry.
    pub fn record_query(&self, stats: &QueryStats, latency: Duration) {
        self.query_latency.record_duration(latency);
        self.blocks_selected.add(stats.blocks_selected as u64);
        self.nodes_expanded.add(stats.nodes_expanded as u64);
        self.entries_scanned.add(stats.entries_scanned as u64);
        if stats.degraded {
            self.degraded.inc();
        }
        if stats.mass.is_finite() {
            self.mass.set(stats.mass);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_query_updates_counters() {
        let m = CoreMetrics::get();
        let before = m.blocks_selected.get();
        let stats = QueryStats {
            blocks_selected: 7,
            entries_scanned: 100,
            mass: 0.9,
            ..QueryStats::default()
        };
        m.record_query(&stats, Duration::from_micros(5));
        assert_eq!(m.blocks_selected.get(), before + 7);
        assert!(m.query_latency.count() >= 1);
        assert_eq!(m.mass.get(), 0.9);
    }
}
