//! `monitor --dashboard` — the ops plane watching the paper's broadcast
//! monitor (§V-D) — and `incident`, a pretty-printer for flight-recorder
//! dumps.
//!
//! Armed, the [`Dashboard`] ticks a [`MetricWindows`] ring after every
//! batch the monitor is pushed, evaluates the stock health rules over it
//! and prints one plain-text frame to stderr: the real-time factor and the detections per
//! stream hour so far, then windowed rates, rolling search latency and the
//! rule verdicts. The flight recorder captures spans,
//! events and the monitor's state for the whole run; when the verdict
//! leaves `Healthy` it dumps an `s3.incident.v1` report into the incident
//! directory, and `incident <file>` renders that dump for humans. The
//! dashboard only observes: the monitor's stdout and exit status are the
//! same with or without it.

use crate::args::Args;
use crate::CmdStatus;
use s3_cbcd::{Monitor, MonitorStats, ReferenceDb, FRAME_RATE};
use s3_obs::{JsonValue, StderrSink, WallTime};
use s3_ops::{
    default_health_rules, install_event_tee, install_panic_hook, FlightRecorder, HealthEngine,
    HealthReport, IncidentTrigger, MetricWindows, RecorderConfig, Verdict,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Lookback of the dashboard's rate and latency rows.
const LOOKBACK: Duration = Duration::from_secs(10);

/// Counters whose windowed per-second rates the dashboard shows: the
/// monitor's intake, and the searches that came back degraded or below
/// the α their filter could reach.
const RATES: &[&str] = &[
    "monitor.accepted",
    "query.degraded",
    "calibration.alpha_violations",
];

/// The ops plane armed over one monitoring run.
pub struct Dashboard {
    incident_dir: PathBuf,
    windows: Arc<MetricWindows>,
    engine: HealthEngine,
    recorder: Arc<FlightRecorder>,
    wall: WallTime,
    /// Videos and fingerprints in the archive, for the recorded state.
    archive: (usize, usize),
    ticks: u64,
    last: Verdict,
    incidents: Vec<PathBuf>,
}

impl Dashboard {
    /// Arms the windows (with a baseline tick), the stock health rules
    /// and the flight recorder: span capture, an event tee that still
    /// forwards to stderr, and a panic hook dumping into `incident_dir`.
    pub fn arm(incident_dir: PathBuf, archive: &ReferenceDb) -> Dashboard {
        let windows = Arc::new(MetricWindows::new(512));
        let recorder = Arc::new(FlightRecorder::new(RecorderConfig::default()));
        recorder.attach_spans();
        recorder.set_windows(Arc::clone(&windows));
        install_event_tee(&recorder, Some(Box::new(StderrSink)));
        install_panic_hook(Arc::clone(&recorder), incident_dir.clone());
        let wall = WallTime::new();
        windows.tick(&wall);
        Dashboard {
            incident_dir,
            windows,
            engine: HealthEngine::new(default_health_rules()),
            recorder,
            wall,
            archive: (archive.video_count(), archive.fingerprint_count()),
            ticks: 0,
            last: Verdict::Healthy,
            incidents: Vec::new(),
        }
    }

    /// One tick, after a batch was pushed: close a window frame, record the
    /// monitor's state, evaluate the rules, dump an incident if the verdict
    /// just left `Healthy`, and print the frame.
    pub fn tick(&mut self, monitor: &Monitor<'_>) -> Result<(), String> {
        self.windows.tick(&self.wall);
        self.ticks += 1;
        let stats = monitor.stats();
        let events = monitor.events().len();
        self.recorder.observe_state(
            "monitor",
            vec![
                ("archive_videos".to_owned(), self.archive.0.to_string()),
                (
                    "archive_fingerprints".to_owned(),
                    self.archive.1.to_string(),
                ),
                ("fingerprints".to_owned(), stats.fingerprints.to_string()),
                (
                    "degraded_queries".to_owned(),
                    stats.health.degraded_queries.to_string(),
                ),
                ("windows".to_owned(), stats.windows.to_string()),
                ("events".to_owned(), events.to_string()),
            ],
        );
        let report = self.engine.evaluate(&self.windows);
        self.recorder.observe_health(&report);
        if report.transitioned && report.verdict != Verdict::Healthy {
            let (rule, detail) = report
                .rules
                .iter()
                .find(|r| r.level == report.verdict)
                .map_or(("unknown", String::new()), |r| (r.name, r.detail.clone()));
            let path = self
                .recorder
                .dump_incident(
                    IncidentTrigger {
                        kind: "health",
                        rule: Some(rule.to_owned()),
                        detail,
                    },
                    &self.incident_dir,
                )
                .map_err(|e| format!("writing incident report: {e}"))?;
            eprintln!(
                "health {}: incident dumped to {}",
                report.verdict.as_str(),
                path.display()
            );
            self.incidents.push(path);
        }
        eprint!("{}", self.frame(&report, &stats, events));
        self.last = report.verdict;
        Ok(())
    }

    /// The closing line: ticks, final verdict and the incidents dumped.
    pub fn finish(&self) {
        eprintln!(
            "dashboard: {} ticks, final verdict {}, {} incident(s)",
            self.ticks,
            self.last.as_str(),
            self.incidents.len()
        );
        for p in &self.incidents {
            eprintln!("  incident: {}", p.display());
        }
    }

    /// One frame: headline rows, windowed rates and latency, rule verdicts.
    fn frame(&self, report: &HealthReport, stats: &MonitorStats, events: usize) -> String {
        let mut o = String::with_capacity(1024);
        let stream_s = stats.frames_covered / FRAME_RATE;
        o.push_str(&format!(
            "monitor dashboard — tick {} — verdict {} — {stream_s:.1} s of stream\n",
            self.ticks,
            report.verdict.as_str(),
        ));
        let rtf = stats.real_time_factor();
        let per_hour = events as f64 / (stream_s / 3600.0);
        o.push_str(&format!("  real-time factor      {}\n", shown(rtf, "x")));
        o.push_str(&format!(
            "  detections / hour     {}\n",
            shown(per_hour, "")
        ));
        o.push_str(&format!("rates (per s, {}s window)\n", LOOKBACK.as_secs()));
        for name in RATES {
            let rate = self.windows.rate(name, LOOKBACK).unwrap_or(0.0);
            o.push_str(&format!("  {name:<32} {rate:>10.2}\n"));
        }
        let quantile_us = |q: f64| {
            self.windows
                .quantile("query.latency", q, LOOKBACK)
                .map_or("-".to_owned(), |ns| (ns / 1_000).to_string())
        };
        o.push_str(&format!(
            "  query.latency p50/p99 (us)       {:>8} / {:>8}\n",
            quantile_us(0.50),
            quantile_us(0.99),
        ));
        o.push_str("health rules\n");
        for r in &report.rules {
            let value = r.value.map_or("-".to_owned(), |v| format!("{v:.3}"));
            o.push_str(&format!(
                "  [{:<8}] {:<24} {:>12}\n",
                r.level.as_str(),
                r.name,
                value
            ));
        }
        o
    }
}

/// A headline value with its unit, or `-` while it is undefined (no
/// stream covered, or no time spent yet).
fn shown(v: f64, unit: &str) -> String {
    if v.is_finite() {
        format!("{v:.1}{unit}")
    } else {
        "-".to_owned()
    }
}

pub fn cmd_incident(rest: Vec<String>) -> Result<CmdStatus, String> {
    let a = Args::parse(rest, &[])?;
    let path = a.positional(0).ok_or("incident needs a report file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(|s| s.as_str()) != Some("s3.incident.v1") {
        return Err(format!("{path}: not an s3.incident.v1 report"));
    }
    print!("{}", render_incident(&doc));
    Ok(CmdStatus::Clean)
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(|s| s.as_str()).unwrap_or("?")
}

fn get_num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(|n| n.as_f64()).unwrap_or(f64::NAN)
}

/// Renders a parsed incident document as a sectioned plain-text report.
fn render_incident(doc: &JsonValue) -> String {
    let mut o = String::with_capacity(4096);
    o.push_str(&format!(
        "incident #{} — {} (unix_ms {})\n",
        get_num(doc, "seq"),
        get_str(doc.get("trigger").unwrap_or(&JsonValue::Null), "kind"),
        get_num(doc, "unix_ms"),
    ));
    if let Some(t) = doc.get("trigger") {
        if let Some(rule) = t.get("rule").and_then(|r| r.as_str()) {
            o.push_str(&format!("trigger rule : {rule}\n"));
        }
        let detail = get_str(t, "detail");
        if !detail.is_empty() {
            o.push_str(&format!("detail       : {detail}\n"));
        }
    }
    if let Some(h) = doc.get("health").filter(|h| h.as_object().is_some()) {
        o.push_str(&format!(
            "\nhealth: {} (was {})\n",
            get_str(h, "verdict"),
            get_str(h, "previous")
        ));
        for r in h.get("rules").and_then(|r| r.as_array()).unwrap_or(&[]) {
            let value = r
                .get("value")
                .and_then(|v| v.as_f64())
                .map_or("-".to_owned(), |v| format!("{v:.3}"));
            o.push_str(&format!(
                "  [{:<8}] {:<24} {:>12}  {}\n",
                get_str(r, "level"),
                get_str(r, "name"),
                value,
                get_str(r, "detail"),
            ));
        }
    }
    if let Some(w) = doc.get("windows") {
        o.push_str(&format!(
            "\nwindows: {:.1}s covered, {:.1}s lookback — top rates:\n",
            get_num(w, "covered_s"),
            get_num(w, "lookback_s")
        ));
        let mut rates: Vec<(&str, f64)> = w
            .get("rates")
            .and_then(|r| r.as_array())
            .unwrap_or(&[])
            .iter()
            .map(|r| (get_str(r, "name"), get_num(r, "per_s")))
            .collect();
        rates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (name, per_s) in rates.into_iter().take(12) {
            o.push_str(&format!("  {name:<32} {per_s:>12.2}/s\n"));
        }
    }
    if let Some(spans) = doc.get("spans").and_then(|s| s.as_array()) {
        o.push_str(&format!("\nspans: {} captured, slowest:\n", spans.len()));
        let mut by_dur: Vec<&JsonValue> = spans.iter().collect();
        by_dur.sort_by(|a, b| {
            get_num(b, "dur_ns")
                .partial_cmp(&get_num(a, "dur_ns"))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for s in by_dur.into_iter().take(10) {
            o.push_str(&format!(
                "  {:<28} {:>10.0} us (query {})\n",
                get_str(s, "name"),
                get_num(s, "dur_ns") / 1_000.0,
                get_num(s, "query_id"),
            ));
        }
    }
    if let Some(events) = doc.get("events").and_then(|e| e.as_array()) {
        o.push_str(&format!("\nevents: {} captured, latest:\n", events.len()));
        for e in events.iter().rev().take(10) {
            o.push_str(&format!(
                "  [{:<5}] {}: {}\n",
                get_str(e, "level"),
                get_str(e, "target"),
                get_str(e, "message"),
            ));
        }
    }
    if let Some(state) = doc.get("state").and_then(|s| s.as_object()) {
        for (component, fields) in state {
            o.push_str(&format!("\nstate: {component}\n"));
            if let Some(map) = fields.as_object() {
                for (k, v) in map {
                    o.push_str(&format!("  {k:<28} {}\n", v.as_str().unwrap_or("?")));
                }
            }
        }
    }
    o
}
