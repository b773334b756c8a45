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

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

use s3_obs::{registry, Counter, Gauge, Histogram};

use crate::filter::missed_target;
use crate::index::QueryStats;

/// Handles to every metric the core crate records.
pub struct CoreMetrics {
    /// `query.latency` — wall time per query, ns (batched queries record the
    /// amortised per-query total `T_tot` of eq. 5).
    pub query_latency: Histogram,
    /// `query.filter` — filtering stage per query, ns. Shares its name with
    /// the `query.filter` span, so RAII spans and this handle feed one
    /// histogram.
    pub filter_latency: Histogram,
    /// `query.blocks_selected` — p-blocks kept by the filter.
    pub blocks_selected: Counter,
    /// `query.nodes_expanded` — partition-tree nodes expanded.
    pub nodes_expanded: Counter,
    /// `query.ranges_scanned` — merged key ranges scanned.
    pub ranges_scanned: Counter,
    /// `query.entries_scanned` — records visited by refinement.
    pub entries_scanned: Counter,
    /// `query.truncated` — queries cut short by the block budget.
    pub truncated: Counter,
    /// `query.sections_skipped` — per-query count of unreadable sections.
    pub query_sections_skipped: Counter,
    /// `query.degraded` — queries answered from surviving sections only.
    pub degraded: Counter,
    /// `filter.mass` — probability mass captured by the last filter.
    pub mass: Gauge,
    /// `filter.tmax` — density threshold of the last threshold filter.
    pub tmax: Gauge,
    /// `disk.retries` — section-load retries.
    pub retries: Counter,
    /// `disk.sections_loaded` — sections streamed from storage.
    pub sections_loaded: Counter,
    /// `disk.sections_skipped` — sections abandoned after retries.
    pub sections_skipped: Counter,
    /// `io.read_bytes` — record bytes read from storage.
    pub read_bytes: Counter,
    /// `io.section_load` — per-section load time, ns (includes retries).
    pub section_load: Histogram,
    /// `storage.crc_failures` — checksum mismatches detected.
    pub crc_failures: Counter,
    /// `storage.v1_fallback` — legacy unchecksummed files opened.
    pub v1_fallback: Counter,
    /// `filter.mass_cache.hits` — per-axis component masses served from the
    /// memo table instead of re-integrating `component_mass`.
    pub mass_cache_hits: Counter,
    /// `filter.mass_cache.misses` — component masses actually integrated
    /// (table fills).
    pub mass_cache_misses: Counter,
    /// `scheduler.tasks_per_worker` — items claimed by each work-stealing
    /// worker over its lifetime (one sample per worker per batch).
    pub tasks_per_worker: Histogram,
    /// `scheduler.workers` — worker threads spawned by the work-stealing
    /// scheduler (after clamping to the task count).
    pub workers_spawned: Counter,
    /// `resilience.deadline_exceeded` — batch deadlines that expired
    /// (counted once per deadline, at the expiry transition).
    pub deadline_exceeded: Counter,
    /// `resilience.shed{policy=reject}` — batches refused at admission.
    pub shed_reject: Counter,
    /// `resilience.shed{policy=degrade_alpha}` — batches admitted over
    /// capacity at a reduced α.
    pub shed_degrade: Counter,
    /// `resilience.shed{policy=oldest}` — in-flight batches evicted to make
    /// room for newer arrivals.
    pub shed_oldest: Counter,
    /// `resilience.inflight` — batches currently holding an admission permit.
    pub inflight: Gauge,
    /// `resilience.breaker_open` — circuit-breaker trip events.
    pub breaker_open: Counter,
    /// `resilience.breaker_skips` — section loads short-circuited by an
    /// open breaker.
    pub breaker_skips: Counter,
    /// `resilience.query_cancelled` — queries stopped by a fired token
    /// before completing.
    pub query_cancelled: Counter,
    /// `resilience.cancel_latency` — token fire → batch return, ns.
    pub cancel_latency: Histogram,
    /// `calibration.predicted_mass` — per-query probability mass the filter
    /// predicted its block set captures, in basis points (α·10⁴).
    pub calibration_predicted: Histogram,
    /// `calibration.observed_selectivity` — per-query fraction of the
    /// database actually scanned by refinement, in basis points.
    pub calibration_observed: Histogram,
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
    /// `bufferpool.pinned` — frames currently pinned (gauge).
    pub bufferpool_pinned: Gauge,
    /// `wal.appends` — records appended to the write-ahead log.
    pub wal_appends: Counter,
    /// `wal.fsyncs` — WAL fsync barriers issued.
    pub wal_fsyncs: Counter,
    /// `wal.replayed` — records recovered from the WAL at open.
    pub wal_replayed: Counter,
    /// `wal.checkpoints` — WAL truncations after a durable checkpoint.
    pub wal_checkpoints: Counter,
    /// `wal.checkpoint_lag_bytes` — bytes of WAL accumulated since the
    /// last checkpoint (the redo work a crash would replay).
    pub wal_lag_bytes: Gauge,
    /// `pager.file_bytes` — size of the paged storage file.
    pub pager_file_bytes: Gauge,
    /// `dynamic.merge.ok` — overlay merges that completed normally.
    pub merge_ok: Counter,
    /// `dynamic.merge.rolled_back` — interrupted merges discarded at
    /// recovery (the WAL held no commit record).
    pub merge_rolled_back: Counter,
    /// `dynamic.merge.replayed` — committed merges re-applied from WAL page
    /// images at recovery.
    pub merge_replayed: Counter,
    /// `sketch.built` — section sketches constructed (index writes, sidecar
    /// loads and durable-merge rebuilds all count).
    pub sketch_built: Counter,
    /// `sketch.bytes` — serialized size of the most recently built or
    /// attached sketch.
    pub sketch_bytes: Gauge,
    /// `sketch.probes` — Bloom cell probes issued by section consults.
    pub sketch_probes: Counter,
    /// `sketch.section_skips` — section loads avoided because the sketch
    /// proved the section holds no candidate (always a true negative).
    pub sketch_section_skips: Counter,
    /// `sketch.sections_loaded` — sections the sketch was consulted for and
    /// could not rule out (loaded as usual; the skip-rate denominator is
    /// `section_skips + sections_loaded`).
    pub sketch_sections_loaded: Counter,
    /// `shard.queries` — shard dispatches by the scatter-gather router
    /// (one per shard whose key span a batch actually touched).
    pub shard_queries: Counter,
    /// `shard.skips` — dispatches that lost every replica (the shard's key
    /// range went unanswered and affected queries degraded).
    pub shard_skips: Counter,
    /// `shard.hedges` — backup replica requests launched because the
    /// primary exceeded the shard's hedge threshold.
    pub shard_hedges: Counter,
    /// `shard.hedge_wins` — hedged requests whose backup answered first.
    pub shard_hedge_wins: Counter,
    /// `shard.failovers` — replica attempts spawned because an earlier
    /// replica failed.
    pub shard_failovers: Counter,
    /// `shard.breaker_open` — dispatches rejected outright by an open
    /// per-shard circuit breaker.
    pub shard_breaker_open: Counter,
}

static CORE: OnceLock<CoreMetrics> = OnceLock::new();

impl CoreMetrics {
    /// The process-wide handles (registered on first call).
    pub fn get() -> &'static CoreMetrics {
        CORE.get_or_init(|| {
            let r = registry();
            CoreMetrics {
                query_latency: r.histogram("query.latency"),
                filter_latency: r.histogram("query.filter"),
                blocks_selected: r.counter("query.blocks_selected"),
                nodes_expanded: r.counter("query.nodes_expanded"),
                ranges_scanned: r.counter("query.ranges_scanned"),
                entries_scanned: r.counter("query.entries_scanned"),
                truncated: r.counter("query.truncated"),
                query_sections_skipped: r.counter("query.sections_skipped"),
                degraded: r.counter("query.degraded"),
                mass: r.gauge("filter.mass"),
                tmax: r.gauge("filter.tmax"),
                retries: r.counter("disk.retries"),
                sections_loaded: r.counter("disk.sections_loaded"),
                sections_skipped: r.counter("disk.sections_skipped"),
                read_bytes: r.counter("io.read_bytes"),
                section_load: r.histogram("io.section_load"),
                crc_failures: r.counter("storage.crc_failures"),
                v1_fallback: r.counter("storage.v1_fallback"),
                mass_cache_hits: r.counter("filter.mass_cache.hits"),
                mass_cache_misses: r.counter("filter.mass_cache.misses"),
                tasks_per_worker: r.histogram("scheduler.tasks_per_worker"),
                workers_spawned: r.counter("scheduler.workers"),
                deadline_exceeded: r.counter("resilience.deadline_exceeded"),
                shed_reject: r.counter_with("resilience.shed", Some(("policy", "reject"))),
                shed_degrade: r.counter_with("resilience.shed", Some(("policy", "degrade_alpha"))),
                shed_oldest: r.counter_with("resilience.shed", Some(("policy", "oldest"))),
                inflight: r.gauge("resilience.inflight"),
                breaker_open: r.counter("resilience.breaker_open"),
                breaker_skips: r.counter("resilience.breaker_skips"),
                query_cancelled: r.counter("resilience.query_cancelled"),
                cancel_latency: r.histogram("resilience.cancel_latency"),
                calibration_predicted: r.histogram("calibration.predicted_mass"),
                calibration_observed: r.histogram("calibration.observed_selectivity"),
                calibration_drift: r.gauge("calibration.drift"),
                calibration_alpha_violations: r.counter("calibration.alpha_violations"),
                bufferpool_hits: r.counter("bufferpool.hits"),
                bufferpool_misses: r.counter("bufferpool.misses"),
                bufferpool_evictions: r.counter("bufferpool.evictions"),
                bufferpool_pinned: r.gauge("bufferpool.pinned"),
                wal_appends: r.counter("wal.appends"),
                wal_fsyncs: r.counter("wal.fsyncs"),
                wal_replayed: r.counter("wal.replayed"),
                wal_checkpoints: r.counter("wal.checkpoints"),
                wal_lag_bytes: r.gauge("wal.checkpoint_lag_bytes"),
                pager_file_bytes: r.gauge("pager.file_bytes"),
                merge_ok: r.counter("dynamic.merge.ok"),
                merge_rolled_back: r.counter("dynamic.merge.rolled_back"),
                merge_replayed: r.counter("dynamic.merge.replayed"),
                sketch_built: r.counter("sketch.built"),
                sketch_bytes: r.gauge("sketch.bytes"),
                sketch_probes: r.counter("sketch.probes"),
                sketch_section_skips: r.counter("sketch.section_skips"),
                sketch_sections_loaded: r.counter("sketch.sections_loaded"),
                shard_queries: r.counter("shard.queries"),
                shard_skips: r.counter("shard.skips"),
                shard_hedges: r.counter("shard.hedges"),
                shard_hedge_wins: r.counter("shard.hedge_wins"),
                shard_failovers: r.counter("shard.failovers"),
                shard_breaker_open: r.counter("shard.breaker_open"),
            }
        })
    }

    /// Records one query's selectivity calibration: the filter's achieved
    /// predicted mass vs. the fraction of the database refinement actually
    /// scanned, both in basis points (the registry's histograms are u64).
    /// `target` is the mass the filter aimed at
    /// ([`QueryStats::target`]); capturing less counts a
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
        let pred_bp = (predicted_mass.clamp(0.0, 1.0) * 10_000.0).round() as u64;
        let observed = entries_scanned as f64 / db_records as f64;
        let obs_bp = (observed.clamp(0.0, 1.0) * 10_000.0).round() as u64;
        self.calibration_predicted.record(pred_bp);
        self.calibration_observed.record(obs_bp);
        self.calibration_drift.set(pred_bp as f64 - obs_bp as f64);
        if missed_target(predicted_mass, target) {
            self.calibration_alpha_violations.inc();
        }
    }

    /// Folds one query's work counters (and its latency) into the registry.
    pub fn record_query(&self, stats: &QueryStats, latency: Duration) {
        self.query_latency.record_duration(latency);
        self.blocks_selected.add(stats.blocks_selected as u64);
        self.nodes_expanded.add(stats.nodes_expanded as u64);
        self.ranges_scanned.add(stats.ranges_scanned as u64);
        self.entries_scanned.add(stats.entries_scanned as u64);
        if stats.truncated {
            self.truncated.inc();
        }
        if stats.sections_skipped > 0 {
            self.query_sections_skipped
                .add(stats.sections_skipped as u64);
        }
        if stats.cancelled {
            self.query_cancelled.inc();
        }
        if stats.degraded {
            self.degraded.inc();
        }
        if stats.mass.is_finite() {
            self.mass.set(stats.mass);
        }
        if let Some(t) = stats.tmax {
            self.tmax.set(t);
        }
    }
}

/// The stock health-rule set covering the metrics this crate records.
///
/// Tuned for the continuous-monitoring deployment: a rule only trips on
/// sustained windowed evidence (`min_count` floors filter out idle or
/// barely-started systems), and every ceiling has headroom over the
/// values a healthy run produces. Callers can extend or replace the set
/// before handing it to [`s3_obs::HealthEngine`].
pub fn default_health_rules() -> Vec<s3_obs::HealthRule> {
    use s3_obs::{Bounds, HealthRule, Signal};
    vec![
        // The pool thrashing (hit rate below 50 %) degrades every read
        // path; below 20 % the working set clearly does not fit.
        HealthRule::new(
            "bufferpool-hit-rate",
            Signal::Ratio {
                num: "bufferpool.hits",
                den: &["bufferpool.hits", "bufferpool.misses"],
            },
            Duration::from_secs(60),
            Bounds::at_least(0.5),
        )
        .critical(Bounds::at_least(0.2))
        .min_count(64),
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
        // Breakers opening mean whole sections are being skipped.
        HealthRule::new(
            "breaker-open-rate",
            Signal::Rate("resilience.breaker_open"),
            Duration::from_secs(60),
            Bounds::at_most(0.2),
        )
        .min_count(2),
        // Load shedding at a sustained clip means admission capacity is
        // undersized for the offered load.
        HealthRule::new(
            "shed-rate",
            Signal::Rate("resilience.shed"),
            Duration::from_secs(60),
            Bounds::at_most(1.0),
        )
        .min_count(4),
        // Deadlines expiring continuously: queries cannot finish in
        // their budget.
        HealthRule::new(
            "deadline-rate",
            Signal::Rate("resilience.deadline_exceeded"),
            Duration::from_secs(60),
            Bounds::at_most(0.5),
        )
        .min_count(2),
        // A sketch that stops ruling sections out is dead weight: either
        // the sidecar failed to load (fail-open) or the workload touches
        // every occupied cell — both worth surfacing once enough sections
        // have been consulted. Skips are always true negatives, so a *high*
        // rate is never a correctness concern.
        HealthRule::new(
            "sketch-skip-rate",
            Signal::Ratio {
                num: "sketch.section_skips",
                den: &["sketch.section_skips", "sketch.sections_loaded"],
            },
            Duration::from_secs(60),
            Bounds::at_least(0.02),
        )
        .min_count(64),
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
        // Shards dropping out of scatter-gather answers: every skip means a
        // whole key range went unanswered for a batch, degrading each
        // affected query. Failover and hedging should absorb single-replica
        // faults; a sustained skip rate means whole replica sets are down.
        HealthRule::new(
            "shard-availability",
            Signal::Ratio {
                num: "shard.skips",
                den: &["shard.queries"],
            },
            Duration::from_secs(60),
            Bounds::at_most(0.01),
        )
        .critical(Bounds::at_most(0.25))
        .min_count(8),
    ]
}

/// The stock SLO objectives for a query-serving deployment, in terms of
/// the metrics [`CoreMetrics`] registers:
///
/// * **availability** — ≥ 99.5 % of queries answered non-degraded
///   (`query.degraded` over `query.latency` sample counts);
/// * **latency** — ≥ 99 % of queries inside `latency_target`
///   (fraction of `query.latency` above the target, via
///   [`s3_obs::HistogramSnapshot::fraction_above`]);
/// * **correctness** — ≥ 99.5 % of queries honouring the paper's α
///   capture invariant (`calibration.alpha_violations`).
///
/// Each spec exposes a burn-rate [`s3_obs::HealthRule`]
/// (`slo-availability`, `slo-latency`, `slo-correctness`) reading the
/// `slo.burn.*` gauges an [`s3_obs::SloEngine`] publishes.
pub fn default_slos(latency_target: Duration) -> Vec<s3_obs::SloSpec> {
    use s3_obs::{SloSignal, SloSpec};
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

/// Conventional telemetry directory for an index file: a sibling
/// `<index>.telemetry/` directory holding the tsdb and slowlog
/// segments. `DurableIndex`/`DiskIndex` address storage through handles
/// rather than paths, so the CLI derives this from the path it opened.
pub fn telemetry_dir(index_path: &Path) -> PathBuf {
    let mut name = index_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "index".to_owned());
    name.push_str(".telemetry");
    index_path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

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
                s3_obs::SloSignal::CounterOverHistogram { bad, total_hist } => {
                    assert!(counters.contains(&bad), "{}: unregistered {bad}", spec.name);
                    assert!(
                        hists.contains(&total_hist),
                        "{}: unregistered {total_hist}",
                        spec.name
                    );
                }
                s3_obs::SloSignal::FractionAbove { histogram, .. } => {
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
    fn telemetry_dir_is_index_sibling() {
        let d = telemetry_dir(Path::new("/data/idx.s3"));
        assert_eq!(d, Path::new("/data/idx.s3.telemetry"));
    }

    #[test]
    fn default_rules_cover_registered_metrics() {
        let rules = default_health_rules();
        assert!(rules.len() >= 6);
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
                s3_obs::Signal::Rate(n) | s3_obs::Signal::GaugeValue(n) => vec![n],
                s3_obs::Signal::Ratio { num, den } => {
                    let mut v = vec![num];
                    v.extend_from_slice(den);
                    v
                }
                s3_obs::Signal::QuantileNs { histogram, .. } => vec![histogram],
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
