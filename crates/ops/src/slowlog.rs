//! Always-on slow-query log with full EXPLAIN capture.
//!
//! [`SlowLog`] watches every explained query and captures the ones worth
//! a post-mortem: anything that finished **degraded** (fault fallbacks,
//! deadline overruns, shard loss — any [`ExplainReport`]
//! annotation) or whose latency exceeded a caller-maintained threshold
//! (typically the rolling p99 from [`crate::MetricWindows`]). Captured
//! entries keep the *complete* `ExplainReport` JSON — plan, per-block
//! reconciliation, shard rows, phase timings, annotations — so "why was
//! that query slow last Tuesday" stays answerable long after the process
//! exits.
//!
//! Entries live in a bounded in-memory ring (dashboard access) and are
//! simultaneously spilled to a CRC-framed [`SegmentStore`] (prefix
//! `slowlog`) sharing the telemetry directory with [`crate::tsdb`]. The
//! capture path never fails a query: spill errors are downgraded to
//! warnings and counted.

use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use s3_obs::{event, registry, Counter, ExplainReport, JsonValue, JsonWriter};

use crate::segment::{read_records, SegmentConfig, SegmentStore};
use crate::tsdb::unix_ms_now;

/// Record kind for captured slow-query entries.
const KIND_ENTRY: u8 = 1;

/// Configuration for [`SlowLog`].
#[derive(Debug, Clone)]
pub struct SlowLogConfig {
    /// In-memory ring capacity (oldest evicted, counted as dropped).
    pub ring: usize,
    /// Initial latency threshold in ns (`u64::MAX` = degraded-only until
    /// the caller feeds a quantile via [`SlowLog::set_threshold_ns`]).
    pub threshold_ns: u64,
    /// Segment rotation/retention policy for the spill files.
    pub segment: SegmentConfig,
}

impl Default for SlowLogConfig {
    fn default() -> Self {
        SlowLogConfig {
            ring: 128,
            threshold_ns: u64::MAX,
            segment: SegmentConfig {
                segment_bytes: 1 << 20,
                max_total_bytes: 16 << 20,
                ..SegmentConfig::default()
            },
        }
    }
}

/// Ring-buffered summary of one captured query (the full EXPLAIN lives
/// on disk; the ring keeps what a dashboard row needs).
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Capture time, ms since Unix epoch.
    pub unix_ms: u64,
    /// Query id from the EXPLAIN report.
    pub query_id: u64,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: u64,
    /// Whether the query ended degraded.
    pub degraded: bool,
    /// First annotation, when any (`shard 3 lost`, `deadline`, …).
    pub first_annotation: Option<String>,
}

/// One entry read back from disk, EXPLAIN included.
#[derive(Debug, Clone)]
pub struct SlowRead {
    /// Capture time, ms since Unix epoch.
    pub unix_ms: u64,
    /// Query id from the EXPLAIN report.
    pub query_id: u64,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: u64,
    /// Whether the query ended degraded.
    pub degraded: bool,
    /// All annotations carried by the report.
    pub annotations: Vec<String>,
    /// The captured `ExplainReport` as parsed JSON.
    pub explain: JsonValue,
}

struct LogMetrics {
    captured: Counter,
    dropped: Counter,
    spilled: Counter,
}

/// Always-on slow-query log (see module docs). All methods take `&self`
/// so one instance can be shared across query threads.
pub struct SlowLog {
    store: Mutex<SegmentStore>,
    ring: Mutex<VecDeque<SlowEntry>>,
    ring_cap: usize,
    threshold_ns: AtomicU64,
    metrics: LogMetrics,
}

impl std::fmt::Debug for SlowLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowLog")
            .field("threshold_ns", &self.threshold_ns.load(Ordering::Relaxed))
            .finish()
    }
}

impl SlowLog {
    /// Opens (or initialises) the log's spill store under `dir`.
    pub fn open(dir: &Path, config: SlowLogConfig) -> io::Result<SlowLog> {
        let store = SegmentStore::open(dir, "slowlog", config.segment.clone())?;
        Ok(SlowLog {
            store: Mutex::new(store),
            ring: Mutex::new(VecDeque::new()),
            ring_cap: config.ring.max(1),
            threshold_ns: AtomicU64::new(config.threshold_ns),
            metrics: LogMetrics {
                captured: registry().counter("slowlog.captured"),
                dropped: registry().counter("slowlog.dropped"),
                spilled: registry().counter("slowlog.spilled"),
            },
        })
    }

    /// Updates the latency capture threshold (callers feed the rolling
    /// p99 so "slow" tracks the workload, not a fixed constant).
    pub fn set_threshold_ns(&self, ns: u64) {
        self.threshold_ns.store(ns.max(1), Ordering::Relaxed);
    }

    /// Current latency capture threshold in ns.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Considers one finished query for capture; returns whether it was
    /// captured. Its latency is the sum of the report's phases.
    pub fn observe(&self, report: &ExplainReport) -> bool {
        let query_id = report.query_id;
        let latency_ns: u64 = report.phases.iter().map(|p| p.ns).sum();
        let degraded = report.degraded();
        let annotations = &report.annotations;
        let slow = latency_ns >= self.threshold_ns.load(Ordering::Relaxed);
        if !degraded && !slow {
            return false;
        }
        self.metrics.captured.inc();
        let unix_ms = unix_ms_now();
        let entry = SlowEntry {
            unix_ms,
            query_id,
            latency_ns,
            degraded,
            first_annotation: annotations.first().cloned(),
        };
        {
            let mut ring = lock(&self.ring);
            if ring.len() == self.ring_cap {
                ring.pop_front();
                self.metrics.dropped.inc();
            }
            ring.push_back(entry);
        }
        let mut w = JsonWriter::line();
        w.obj()
            .field("schema", "s3.slowlog.v1")
            .field("unix_ms", unix_ms)
            .field("query_id", query_id)
            .field("latency_ns", latency_ns)
            .field("degraded", degraded);
        w.key("annotations").arr().vals(annotations).end();
        w.key("explain").raw(&report.to_json());
        let payload = w.finish();
        match lock(&self.store).append(KIND_ENTRY, payload.as_bytes()) {
            Ok(()) => self.metrics.spilled.inc(),
            Err(e) => event::warn("obs.slowlog", &format!("spill failed: {e}")),
        }
        true
    }

    /// Ring contents, oldest first.
    pub fn recent(&self) -> Vec<SlowEntry> {
        lock(&self.ring).iter().cloned().collect()
    }

    /// Durably flushes the spill store.
    pub fn sync(&self) -> io::Result<()> {
        lock(&self.store).sync()
    }

    /// Reads every spilled entry under `dir`, oldest first.
    pub fn read(dir: &Path) -> io::Result<Vec<SlowRead>> {
        let mut out = Vec::new();
        for (kind, payload) in read_records(dir, "slowlog")? {
            if kind != KIND_ENTRY {
                continue;
            }
            let Ok(text) = std::str::from_utf8(&payload) else {
                continue;
            };
            let Ok(v) = JsonValue::parse(text) else {
                continue;
            };
            if v.get("schema").and_then(|s| s.as_str()) != Some("s3.slowlog.v1") {
                continue;
            }
            let num = |k: &str| v.get(k).and_then(|n| n.as_f64()).unwrap_or(0.0) as u64;
            let annotations = v
                .get("annotations")
                .and_then(|a| a.as_array())
                .map(|a| {
                    a.iter()
                        .filter_map(|x| x.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default();
            out.push(SlowRead {
                unix_ms: num("unix_ms"),
                query_id: num("query_id"),
                latency_ns: num("latency_ns"),
                degraded: v.get("degraded").and_then(|b| b.as_bool()).unwrap_or(false),
                annotations,
                explain: v.get("explain").cloned().unwrap_or(JsonValue::Null),
            });
        }
        Ok(out)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::TempDir;

    /// A report with one phase of `latency_ns`, degraded iff annotated.
    fn report(query_id: u64, latency_ns: u64, annotations: &[&str]) -> ExplainReport {
        ExplainReport {
            query_id,
            algo: "x",
            phases: vec![s3_obs::ExplainPhase {
                name: "refine",
                ns: latency_ns,
            }],
            annotations: annotations.iter().map(|a| a.to_string()).collect(),
            ..ExplainReport::default()
        }
    }

    #[test]
    fn captures_degraded_and_slow_spills_and_reads_back() {
        let dir = TempDir::new("slow-cap");
        let log = SlowLog::open(&dir, SlowLogConfig::default()).unwrap();
        // Fast + clean: not captured.
        assert!(!log.observe(&report(1, 10, &[])));
        // Degraded: captured regardless of latency.
        assert!(log.observe(&report(2, 10, &["shard 2 lost"])));
        // Slow: captured once the threshold is armed.
        log.set_threshold_ns(1_000);
        assert!(log.observe(&report(3, 5_000, &[])));
        log.sync().unwrap();
        let entries = SlowLog::read(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].query_id, 2);
        assert!(entries[0].degraded);
        assert_eq!(entries[0].annotations, vec!["shard 2 lost".to_string()]);
        assert_eq!(
            entries[0].explain.get("algo").and_then(|a| a.as_str()),
            Some("x")
        );
        assert_eq!(entries[1].query_id, 3);
        assert_eq!(entries[1].latency_ns, 5_000);
        assert_eq!(log.recent().len(), 2);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let dir = TempDir::new("slow-ring");
        let cfg = SlowLogConfig {
            ring: 2,
            ..SlowLogConfig::default()
        };
        let log = SlowLog::open(&dir, cfg).unwrap();
        for i in 0..5u64 {
            log.observe(&report(i, 1, &["lost"]));
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].query_id, 3);
        assert_eq!(recent[1].query_id, 4);
        // All five still reached disk.
        assert_eq!(SlowLog::read(&dir).unwrap().len(), 5);
    }

    fn fixture() -> ExplainReport {
        let mut r = report(42, 2_000_000, &["deadline hit", "section 3 \"lost\""]);
        r.tmax = f64::NAN;
        r
    }

    /// What the parent commit (PR 22) rendered for `fixture()`.
    const PARENT: &str = r#"{"schema":"s3.slowlog.v1","unix_ms":1791035322350,"query_id":42,"latency_ns":2000000,"degraded":true,"annotations":["deadline hit","section 3 \"lost\""],"explain":{"query_id":42,"algo":"x","alpha":0,"depth":0,"tmax":null,"iterations":0,"predicted_mass":0,"target":0,"observed_selectivity":0,"entries_scanned":0,"matches":0,"sketch_skipped":0,"reconciles":true,"degraded":true,"blocks":[],"shards":[],"phases":{"refine":2000000},"annotations":["deadline hit","section 3 \"lost\""]}}"#;

    #[test]
    fn spilled_payload_parses_to_the_parent_tree() {
        let dir = TempDir::new("slow-golden");
        let log = SlowLog::open(&dir, SlowLogConfig::default()).unwrap();
        assert!(log.observe(&fixture()));
        log.sync().unwrap();
        let (_, payload) = read_records(&dir, "slowlog").unwrap().pop().unwrap();
        let text = String::from_utf8(payload).unwrap();
        // The capture time is the one leaf that differs run to run.
        let without_time = |doc: &str| {
            let JsonValue::Obj(mut m) = JsonValue::parse(doc).unwrap() else {
                panic!("payload is an object: {doc}");
            };
            assert!(m.remove("unix_ms").is_some());
            m
        };
        assert_eq!(without_time(&text), without_time(PARENT));
    }
}
