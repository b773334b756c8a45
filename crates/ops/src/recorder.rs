//! The flight recorder: a bounded, pre-allocated black box.
//!
//! A [`FlightRecorder`] continuously captures the most recent spans (via
//! a [`RingCollector`]), events (via a tee [`EventSink`]), metric-window
//! state and caller-reported component state (e.g. the storage engine's
//! pager generation / checkpoint LSN / WAL tail), all in fixed-size
//! rings. It costs nothing on the query hot path: spans are only
//! captured when the caller opts in with [`FlightRecorder::attach_spans`]
//! (the span fast path stays allocation-free otherwise), events are rare
//! by construction, and state observations happen on the ticking loop.
//!
//! When something goes wrong — the health engine trips, the process
//! panics (see [`install_panic_hook`]), or an operator asks — the
//! recorder freezes everything it holds into an [`IncidentReport`] and
//! writes it to disk as a self-describing JSON document
//! (`schema = "s3.incident.v1"`) for post-mortem analysis with the CLI
//! `incident` subcommand.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use s3_core::storage::write_atomic;
use s3_obs::{
    registry, set_event_sink, set_span_sink, Counter, EventSink, JsonScalar, JsonWriter, Level,
    MetricId, RingCollector, SpanRecord,
};

use crate::health::HealthReport;
use crate::tsdb::unix_ms_now;
use crate::window::MetricWindows;

/// Capacities of the recorder's rings.
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Spans retained when [`FlightRecorder::attach_spans`] is used.
    pub span_capacity: usize,
    /// Events retained from the tee sink.
    pub event_capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            span_capacity: 512,
            event_capacity: 256,
        }
    }
}

/// An event as retained by the recorder.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Severity name (`info` / `warn` / `error`).
    pub level: &'static str,
    /// Emitting subsystem.
    pub target: &'static str,
    /// Message text.
    pub message: String,
}

/// What caused an incident dump.
#[derive(Clone, Debug)]
pub struct IncidentTrigger {
    /// Trigger class: `health`, `panic` or `manual`.
    pub kind: &'static str,
    /// The health rule that tripped, when `kind == "health"`.
    pub rule: Option<String>,
    /// Free-form explanation.
    pub detail: String,
}

/// A summarised cumulative histogram for the incident dump.
#[derive(Clone, Debug)]
pub struct HistogramSummary {
    /// Metric id.
    pub id: MetricId,
    /// Total samples.
    pub count: u64,
    /// p50 estimate (None when empty).
    pub p50: Option<u64>,
    /// p99 estimate (None when empty).
    pub p99: Option<u64>,
    /// Exact maximum (None when empty).
    pub max: Option<u64>,
}

/// Everything the recorder knew at the moment of an incident.
#[derive(Clone, Debug)]
pub struct IncidentReport {
    /// Milliseconds since the Unix epoch at dump time.
    pub unix_ms: u64,
    /// Per-recorder incident sequence number (1-based).
    pub seq: u64,
    /// What caused the dump.
    pub trigger: IncidentTrigger,
    /// The most recent health evaluation, if the recorder saw one.
    pub health: Option<HealthReport>,
    /// Time span covered by the metric windows at dump time.
    pub window_covered: Duration,
    /// Lookback used for the windowed rates below.
    pub window_lookback: Duration,
    /// Windowed per-second counter rates (`<counter>_rate` ids).
    pub rates: Vec<(MetricId, f64)>,
    /// Recent spans, oldest first (empty unless spans were attached).
    pub spans: Vec<SpanRecord>,
    /// Recent events, oldest first.
    pub events: Vec<EventRecord>,
    /// Latest reported state per component, e.g. the storage engine.
    pub state: Vec<(String, Vec<(String, String)>)>,
    /// Cumulative counters at dump time.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauges at dump time.
    pub gauges: Vec<(MetricId, f64)>,
    /// Cumulative histogram summaries at dump time.
    pub histograms: Vec<HistogramSummary>,
}

struct RecorderInner {
    events: VecDeque<EventRecord>,
    state: Vec<(String, Vec<(String, String)>)>,
    windows: Option<Arc<MetricWindows>>,
    last_health: Option<HealthReport>,
}

/// The black box itself (see module docs). Cheap to share via `Arc`.
pub struct FlightRecorder {
    config: RecorderConfig,
    spans: Arc<RingCollector>,
    inner: Mutex<RecorderInner>,
    seq: AtomicU64,
    incidents: Counter,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("config", &self.config)
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(RecorderConfig::default())
    }
}

impl FlightRecorder {
    /// A recorder with the given ring capacities.
    pub fn new(config: RecorderConfig) -> FlightRecorder {
        FlightRecorder {
            config,
            spans: RingCollector::new(config.span_capacity),
            inner: Mutex::new(RecorderInner {
                events: VecDeque::with_capacity(config.event_capacity),
                state: Vec::new(),
                windows: None,
                last_health: None,
            }),
            seq: AtomicU64::new(0),
            incidents: registry().counter("recorder.incidents"),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The recorder's span ring (install it elsewhere, or inspect it).
    pub fn spans(&self) -> &Arc<RingCollector> {
        &self.spans
    }

    /// Installs the recorder's span ring as the process-wide span sink.
    /// This turns on span-field allocation; leave it off for zero-cost
    /// arming (events/state/windows are still captured).
    pub fn attach_spans(&self) {
        set_span_sink(Box::new(Arc::clone(&self.spans)));
    }

    /// Points the recorder at the window ring to snapshot on incidents.
    pub fn set_windows(&self, windows: Arc<MetricWindows>) {
        self.lock().windows = Some(windows);
    }

    /// Stores the latest health evaluation for inclusion in dumps.
    pub fn observe_health(&self, report: &HealthReport) {
        self.lock().last_health = Some(report.clone());
    }

    /// Records (replacing any previous value) a component's current
    /// state as key/value pairs — e.g. `storage_engine` with pager
    /// generation, checkpoint LSN, WAL tail and recovery outcome.
    pub fn observe_state(&self, component: &str, fields: Vec<(String, String)>) {
        let mut inner = self.lock();
        match inner.state.iter_mut().find(|(c, _)| c == component) {
            Some((_, f)) => *f = fields,
            None => inner.state.push((component.to_owned(), fields)),
        }
    }

    /// Appends an event to the bounded event ring. Usually called via
    /// the tee sink installed by [`install_event_tee`].
    pub fn record_event(&self, level: Level, target: &'static str, message: &str) {
        let mut inner = self.lock();
        if inner.events.len() == self.config.event_capacity {
            inner.events.pop_front();
        }
        let level = match level {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        };
        inner.events.push_back(EventRecord {
            level,
            target,
            message: message.to_owned(),
        });
    }

    /// Incidents dumped so far by this recorder.
    pub fn incident_count(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Freezes the recorder's current contents into an [`IncidentReport`].
    pub fn incident(&self, trigger: IncidentTrigger) -> IncidentReport {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.incidents.inc();
        let inner = self.lock();
        let (covered, lookback, rates) = match &inner.windows {
            Some(w) => {
                let covered = w.covered();
                // Prefer the last minute; shrink to what the ring
                // actually covers when it is younger than that.
                let lookback = if covered > Duration::ZERO {
                    covered.min(Duration::from_secs(60))
                } else {
                    Duration::from_secs(60)
                };
                (covered, lookback, w.rate_gauges(lookback, "rate"))
            }
            None => (Duration::ZERO, Duration::ZERO, Vec::new()),
        };
        let health = inner.last_health.clone();
        let events = inner.events.iter().cloned().collect();
        let state = inner.state.clone();
        drop(inner);
        let snap = registry().snapshot();
        let histograms = snap
            .histograms
            .iter()
            .map(|(id, h)| HistogramSummary {
                id: *id,
                count: h.count,
                p50: h.quantile(0.5),
                p99: h.quantile(0.99),
                max: if h.count > 0 { Some(h.max) } else { None },
            })
            .collect();
        IncidentReport {
            unix_ms: unix_ms_now(),
            seq,
            trigger,
            health,
            window_covered: covered,
            window_lookback: lookback,
            rates,
            spans: self.spans.peek(),
            events,
            state,
            counters: snap.counters,
            gauges: snap.gauges,
            histograms,
        }
    }

    /// [`FlightRecorder::incident`] + [`IncidentReport::write_to_dir`].
    pub fn dump_incident(&self, trigger: IncidentTrigger, dir: &Path) -> io::Result<PathBuf> {
        self.incident(trigger).write_to_dir(dir)
    }
}

/// `"name"` and, when the metric is labelled, `"label": {k: v}`.
fn metric_id(w: &mut JsonWriter, id: &MetricId) {
    w.field("name", id.name);
    if let Some((k, v)) = id.label {
        w.key("label").obj().field(k, v).end();
    }
}

/// `key: [{"name", "label"?, value_key: value}, …]`.
fn metric_rows<V: JsonScalar>(
    w: &mut JsonWriter,
    key: &str,
    value_key: &str,
    rows: &[(MetricId, V)],
) {
    w.key(key).arr();
    for (id, v) in rows {
        w.obj();
        metric_id(w, id);
        w.field(value_key, v).end();
    }
    w.end();
}

impl IncidentReport {
    /// Renders the report as a self-describing JSON document
    /// (`"schema": "s3.incident.v1"`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::indented();
        w.obj()
            .field("schema", "s3.incident.v1")
            .field("unix_ms", self.unix_ms)
            .field("seq", self.seq);
        w.key("trigger")
            .obj()
            .field("kind", self.trigger.kind)
            .field("rule", self.trigger.rule.as_deref())
            .field("detail", &self.trigger.detail)
            .end();
        w.key("health");
        if let Some(h) = &self.health {
            w.obj()
                .field("verdict", h.verdict.as_str())
                .field("previous", h.previous.as_str());
            w.key("rules").arr();
            for r in &h.rules {
                w.obj()
                    .field("name", r.name)
                    .field("level", r.level.as_str())
                    .field("value", r.value)
                    .field("detail", &r.detail)
                    .end();
            }
            w.end().end();
        } else {
            w.val(None::<u64>);
        }
        w.key("windows")
            .obj()
            .field("covered_s", self.window_covered.as_secs_f64())
            .field("lookback_s", self.window_lookback.as_secs_f64());
        metric_rows(&mut w, "rates", "per_s", &self.rates);
        w.end();
        w.key("spans").arr();
        for s in &self.spans {
            w.obj()
                .field("name", s.name)
                .field("start_ns", s.start_ns)
                .field("dur_ns", s.dur_ns)
                .field("query_id", s.query_id)
                .field("tid", s.tid);
            w.key("fields").obj().fields(&s.fields).end().end();
        }
        w.end();
        w.key("events").arr();
        for e in &self.events {
            w.obj()
                .field("level", e.level)
                .field("target", e.target)
                .field("message", &e.message)
                .end();
        }
        w.end();
        w.key("state").obj();
        for (component, fields) in &self.state {
            w.key(component).obj().fields(fields).end();
        }
        w.end();
        // Cumulative metrics.
        w.key("metrics").obj();
        metric_rows(&mut w, "counters", "value", &self.counters);
        metric_rows(&mut w, "gauges", "value", &self.gauges);
        w.key("histograms").arr();
        for h in &self.histograms {
            w.obj();
            metric_id(&mut w, &h.id);
            w.field("count", h.count)
                .field("p50", h.p50)
                .field("p99", h.p99)
                .field("max", h.max)
                .end();
        }
        w.finish()
    }

    /// Writes the report to `dir` as `incident-<kind>-<seq>.json`,
    /// creating the directory if needed, atomically ([`write_atomic`]): a
    /// crash mid-dump leaves no torn document. Returns the file path.
    pub fn write_to_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "incident-{}-{:04}.json",
            self.trigger.kind, self.seq
        ));
        write_atomic(&path, self.to_json().as_bytes())?;
        Ok(path)
    }
}

struct TeeEventSink {
    rec: Arc<FlightRecorder>,
    forward: Option<Box<dyn EventSink>>,
}

impl EventSink for TeeEventSink {
    fn on_event(&self, level: Level, target: &'static str, message: &str) {
        self.rec.record_event(level, target, message);
        if let Some(f) = &self.forward {
            f.on_event(level, target, message);
        }
    }
}

/// Installs the process-wide event sink as a tee: every event is
/// retained in `rec`'s ring and (optionally) forwarded to `forward`
/// (e.g. the default stderr sink to keep operator-visible warnings).
pub fn install_event_tee(rec: &Arc<FlightRecorder>, forward: Option<Box<dyn EventSink>>) {
    set_event_sink(Box::new(TeeEventSink {
        rec: Arc::clone(rec),
        forward,
    }));
}

/// Chains a panic hook that dumps a `kind = "panic"` incident from `rec`
/// into `dir` before delegating to the previous hook. Install once,
/// late in startup.
pub fn install_panic_hook(rec: Arc<FlightRecorder>, dir: PathBuf) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let detail = match info.location() {
            Some(loc) => format!("panic at {}:{}: {}", loc.file(), loc.line(), payload(info)),
            None => format!("panic: {}", payload(info)),
        };
        let _ = rec.dump_incident(
            IncidentTrigger {
                kind: "panic",
                rule: None,
                detail,
            },
            &dir,
        );
        prev(info);
    }));
}

fn payload(info: &std::panic::PanicHookInfo<'_>) -> String {
    if let Some(s) = info.payload().downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = info.payload().downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_obs::JsonValue;

    #[test]
    fn event_ring_is_bounded() {
        let rec = FlightRecorder::new(RecorderConfig {
            span_capacity: 4,
            event_capacity: 3,
        });
        for i in 0..10 {
            rec.record_event(Level::Warn, "t", &format!("e{i}"));
        }
        let report = rec.incident(IncidentTrigger {
            kind: "manual",
            rule: None,
            detail: "test".into(),
        });
        assert_eq!(report.events.len(), 3);
        assert_eq!(report.events[0].message, "e7");
        assert_eq!(report.seq, 1);
    }

    #[test]
    fn incident_json_parses_and_has_schema() {
        let rec = FlightRecorder::default();
        rec.observe_state(
            "storage_engine",
            vec![
                ("generation".into(), "3".into()),
                ("note".into(), "a\"b".into()),
            ],
        );
        rec.record_event(Level::Error, "storage", "torn read");
        let report = rec.incident(IncidentTrigger {
            kind: "manual",
            rule: Some("r1".into()),
            detail: "detail \"quoted\"".into(),
        });
        let doc = JsonValue::parse(&report.to_json()).expect("valid json");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("s3.incident.v1")
        );
        assert_eq!(
            doc.get("trigger")
                .and_then(|t| t.get("rule"))
                .and_then(|r| r.as_str()),
            Some("r1")
        );
        let state = doc.get("state").and_then(|s| s.get("storage_engine"));
        assert_eq!(
            state.and_then(|s| s.get("note")).and_then(|n| n.as_str()),
            Some("a\"b")
        );
        assert!(doc.get("metrics").and_then(|m| m.get("counters")).is_some());
    }

    #[test]
    fn write_to_dir_names_by_kind_and_seq() {
        let rec = FlightRecorder::default();
        let dir = crate::support::TempDir::new("recorder");
        let r1 = rec.incident(IncidentTrigger {
            kind: "manual",
            rule: None,
            detail: "x".into(),
        });
        let p = r1.write_to_dir(&dir).expect("write");
        assert!(p
            .file_name()
            .and_then(|f| f.to_str())
            .map(|f| f == "incident-manual-0001.json")
            .unwrap_or(false));
        let text = std::fs::read_to_string(&p).expect("read back");
        assert!(JsonValue::parse(&text).is_ok());
        let names: Vec<_> = std::fs::read_dir(&*dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, ["incident-manual-0001.json"], "no temp file left");
    }

    /// One of everything: a labelled and an unlabelled metric, a rule with
    /// and without a value, hostile strings, non-finite leaves, empty
    /// histogram quantiles.
    fn fixture() -> IncidentReport {
        let labelled = MetricId {
            name: "io.reads",
            label: Some(("kind", "se\"q")),
        };
        let plain = MetricId {
            name: "queries",
            label: None,
        };
        IncidentReport {
            unix_ms: 1_700_000_000_123,
            seq: 4,
            trigger: IncidentTrigger {
                kind: "health",
                rule: Some("crc-failures".into()),
                detail: "3 torn reads\n\"quoted\" \\ tab\t".into(),
            },
            health: Some(HealthReport {
                verdict: crate::health::Verdict::Critical,
                previous: crate::health::Verdict::Healthy,
                transitioned: true,
                rules: vec![
                    crate::health::RuleOutcome {
                        name: "crc-failures",
                        value: Some(3.0),
                        level: crate::health::Verdict::Critical,
                        detail: "3 > 0".into(),
                    },
                    crate::health::RuleOutcome {
                        name: "hit-floor",
                        value: None,
                        level: crate::health::Verdict::Healthy,
                        detail: "no data".into(),
                    },
                    crate::health::RuleOutcome {
                        name: "ratio",
                        value: Some(f64::NAN),
                        level: crate::health::Verdict::Degraded,
                        detail: String::new(),
                    },
                ],
            }),
            window_covered: Duration::from_millis(12_500),
            window_lookback: Duration::from_secs(60),
            rates: vec![(labelled, 2.5), (plain, 40.0), (plain, 1e-7)],
            spans: vec![
                SpanRecord {
                    name: "query.filter",
                    dur_ns: 1_500,
                    start_ns: 99,
                    query_id: 7,
                    tid: 2,
                    fields: vec![("blocks", 3.0), ("mass", 0.8125), ("bad", f64::INFINITY)],
                },
                SpanRecord {
                    name: "query.refine",
                    dur_ns: u64::MAX,
                    start_ns: 1_700,
                    query_id: 0,
                    tid: 1,
                    fields: vec![],
                },
            ],
            events: vec![EventRecord {
                level: "warn",
                target: "storage",
                message: "torn read at \u{1}".into(),
            }],
            state: vec![
                (
                    "buffer_pool".into(),
                    vec![
                        ("pages".into(), "64".into()),
                        ("note".into(), "a\"b".into()),
                    ],
                ),
                ("empty".into(), vec![]),
            ],
            counters: vec![(labelled, 12), (plain, u64::MAX)],
            gauges: vec![(plain, 0.5), (labelled, f64::NEG_INFINITY), (plain, 1e21)],
            histograms: vec![
                HistogramSummary {
                    id: labelled,
                    count: 4,
                    p50: Some(2),
                    p99: Some(1000),
                    max: Some(1024),
                },
                HistogramSummary {
                    id: plain,
                    count: 0,
                    p50: None,
                    p99: None,
                    max: None,
                },
            ],
        }
    }

    /// What the parent commit (PR 22) rendered for `fixture()`.
    const PARENT: &str = r#"{
  "schema": "s3.incident.v1",
  "unix_ms": 1700000000123,
  "seq": 4,
  "trigger": {"kind": "health", "rule": "crc-failures", "detail": "3 torn reads\n\"quoted\" \\ tab\t"},
  "health": {"verdict": "critical", "previous": "healthy", "rules": [{"name": "crc-failures", "level": "critical", "value": 3.0, "detail": "3 > 0"}, {"name": "hit-floor", "level": "healthy", "value": null, "detail": "no data"}, {"name": "ratio", "level": "degraded", "value": null, "detail": ""}]},
  "windows": {"covered_s": 12.5, "lookback_s": 60, "rates": [{"name": "io.reads", "label": {"kind": "se\"q"}, "per_s": 2.5}, {"name": "queries", "per_s": 40.0}, {"name": "queries", "per_s": 0.0000001}]},
  "spans": [{"name": "query.filter", "start_ns": 99, "dur_ns": 1500, "query_id": 7, "tid": 2, "fields": {"blocks": 3.0, "mass": 0.8125, "bad": null}}, {"name": "query.refine", "start_ns": 1700, "dur_ns": 18446744073709551615, "query_id": 0, "tid": 1, "fields": {}}],
  "events": [{"level": "warn", "target": "storage", "message": "torn read at \u0001"}],
  "state": {"buffer_pool": {"pages": "64", "note": "a\"b"}, "empty": {}},
  "metrics": {"counters": [{"name": "io.reads", "label": {"kind": "se\"q"}, "value": 12}, {"name": "queries", "value": 18446744073709551615}], "gauges": [{"name": "queries", "value": 0.5}, {"name": "io.reads", "label": {"kind": "se\"q"}, "value": null}, {"name": "queries", "value": 1000000000000000000000}], "histograms": [{"name": "io.reads", "label": {"kind": "se\"q"}, "count": 4, "p50": 2, "p99": 1000, "max": 1024}, {"name": "queries", "count": 0, "p50": null, "p99": null, "max": null}]}
}"#;

    #[test]
    fn incident_json_parses_to_the_parent_tree() {
        assert_eq!(
            JsonValue::parse(&fixture().to_json()),
            JsonValue::parse(PARENT)
        );
    }
}
