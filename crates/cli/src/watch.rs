//! `watch` — a live ops dashboard over the windowed health engine — and
//! `incident` — a pretty-printer for flight-recorder dumps.
//!
//! `watch` runs a self-contained query workload (optionally with injected
//! storage faults) through the full observability stack: a
//! [`MetricWindows`] ring ticked every interval, the stock health rules,
//! and an armed [`FlightRecorder`]. Each tick redraws windowed rates,
//! rolling latency quantiles and per-rule verdicts. When the overall
//! verdict leaves `Healthy`, the recorder dumps an `IncidentReport` JSON
//! into `--incident-dir`; `incident <file>` renders such a dump for humans.

use crate::args::Args;
use crate::faults;
use crate::metrics;
use crate::CmdStatus;
use s3_core::pseudo_disk::{DiskIndex, WriteOpts};
use s3_core::{
    autotune, system_clock, FaultyStorage, IsotropicNormal, MemStorage, QueryCtx, RecordBatch,
    S3Index, StatQueryOpts, Storage,
};
use s3_hilbert::HilbertCurve;
use s3_obs::{JsonValue, WallTime};
use s3_ops::{
    default_health_rules, default_slos, install_event_tee, install_panic_hook, FlightRecorder,
    HealthEngine, HealthReport, IncidentTrigger, MetricWindows, RecorderConfig, SloEngine,
    SloStatus, SlowLog, SlowLogConfig, Tsdb, TsdbConfig, Verdict,
};
use s3_video::{extract_fingerprints, ExtractorParams, ProceduralVideo};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Display lookback for the dashboard's rate/quantile columns.
const DASH_LOOKBACK: Duration = Duration::from_secs(10);

/// Counters whose windowed per-second rates the dashboard tracks.
const DASH_RATES: &[&str] = &[
    "query.filter",
    "disk.sections_loaded",
    "io.read_bytes",
    "storage.crc_failures",
    "disk.retries",
    "resilience.deadline_exceeded",
];

/// How many persisted samples the dashboard's sparkline columns span.
const SPARK_WIDTH: usize = 32;

/// The durable-telemetry stack armed by `--telemetry-dir`: the embedded
/// time-series store (windowed rates, crash-durable), the slow-query
/// log (EXPLAIN captures) and the SLO burn-rate engine.
struct Telemetry {
    tsdb: Tsdb,
    slowlog: SlowLog,
    slo: SloEngine,
}

pub fn cmd_watch(rest: Vec<String>) -> Result<CmdStatus, String> {
    let a = Args::parse_with_switches(
        rest,
        &[
            "ticks",
            "interval-ms",
            "queries",
            "videos",
            "frames",
            "seed",
            "fault",
            "fault-seed",
            "incident-dir",
            "deadline-ms",
            "mem-kb",
            "metrics-json",
            "metrics-every",
            "telemetry-dir",
            "latency-slo-ms",
        ],
        &["plain"],
    )?;
    let ticks: u32 = a.get_parsed("ticks", 20)?;
    let interval = Duration::from_millis(a.get_parsed("interval-ms", 150)?);
    let n_queries: usize = a.get_parsed("queries", 16)?;
    let n_videos: usize = a.get_parsed("videos", 2)?;
    let frames: usize = a.get_parsed("frames", 48)?;
    let seed: u64 = a.get_parsed("seed", 0xD1CE)?;
    let plan = faults::from_args(&a, seed)?;
    let incident_dir = PathBuf::from(a.get("incident-dir").unwrap_or("incidents"));
    let deadline_ms: u64 = a.get_parsed("deadline-ms", 0)?;
    // Small enough that the index streams in several sections per batch —
    // that keeps reads (and thus injected faults) flowing at steady state.
    let mem_budget: u64 = a.get_parsed::<u64>("mem-kb", 64)? << 10;
    let plain = a.has("plain");
    let telemetry_dir = a.get("telemetry-dir").map(PathBuf::from);
    let latency_slo = Duration::from_millis(a.get_parsed("latency-slo-ms", 500)?);
    let (metrics_json, _ticker) = metrics::shared_flags(&a)?;

    // Self-contained corpus: synthetic videos → fingerprints → index bytes.
    let params = ExtractorParams::default();
    let mut batch = RecordBatch::new(20);
    let mut probes: Vec<Vec<u8>> = Vec::new();
    for i in 0..n_videos {
        let v = ProceduralVideo::new(96, 72, frames, seed ^ ((i as u64) << 20));
        for f in extract_fingerprints(&v, &params) {
            if probes.len() < n_queries {
                probes.push(f.fingerprint.to_vec());
            }
            batch.push(&f.fingerprint, i as u32, f.tc);
        }
    }
    if probes.is_empty() {
        return Err("workload produced no fingerprints to probe with".into());
    }
    let index = S3Index::build(HilbertCurve::paper(), batch);
    let bytes =
        DiskIndex::encode_to_vec(&index, WriteOpts::default()).map_err(|e| e.to_string())?;

    // Storage: the bytes in memory, behind seeded fault injection when
    // `--fault` is set. Every read reaches the faults, and a steady fault
    // stream is what the health rules are rated for.
    let storage: Box<dyn Storage> = match plan {
        None => Box::new(MemStorage::new(bytes)),
        Some(plan) => Box::new(FaultyStorage::new(MemStorage::new(bytes), plan)),
    };
    let disk = DiskIndex::open_storage(storage).map_err(|e| e.to_string())?;

    // The observability stack under test: windows + rules + recorder.
    // Calibration drift is excluded: the tiny synthetic corpus gives the
    // distortion model nothing statistically meaningful to calibrate
    // against, so that gauge reads a large constant unrelated to health.
    let windows = Arc::new(MetricWindows::new(512));
    // --telemetry-dir arms the durable stack: tsdb + slow-query log +
    // SLO burn rates. Its stores live beside each other in one directory
    // so `history`/`slowlog` (and a post-crash restart) find everything.
    let mut telemetry = match &telemetry_dir {
        None => None,
        Some(dir) => {
            let err = |e: std::io::Error| format!("telemetry dir {}: {e}", dir.display());
            let tsdb = Tsdb::open(dir, TsdbConfig::default()).map_err(err)?;
            let slowlog = SlowLog::open(dir, SlowLogConfig::default()).map_err(err)?;
            let slo = SloEngine::new(default_slos(latency_slo));
            Some(Telemetry { tsdb, slowlog, slo })
        }
    };
    let mut rules: Vec<_> = default_health_rules()
        .into_iter()
        .filter(|r| r.name != "calibration-drift")
        .collect();
    if let Some(tel) = &telemetry {
        rules.extend(tel.slo.health_rules());
    }
    let engine = HealthEngine::new(rules);
    let recorder = Arc::new(FlightRecorder::new(RecorderConfig::default()));
    recorder.attach_spans();
    recorder.set_windows(Arc::clone(&windows));
    install_event_tee(&recorder, None);
    install_panic_hook(Arc::clone(&recorder), incident_dir.clone());

    let model = IsotropicNormal::new(20, 15.0);
    let qrefs: Vec<&[u8]> = probes.iter().map(|q| q.as_slice()).collect();
    // Start of retrieval: learn p_min on the probes every tick will send.
    let mut opts = StatQueryOpts::new(0.8, 0);
    opts.depth = autotune::learn_depth_on(&index, &model, &opts, &qrefs).best_depth;

    let wall = WallTime::new();
    windows.tick(&wall); // baseline frame
    let mut incidents: Vec<PathBuf> = Vec::new();
    let mut last: Option<HealthReport> = None;
    let mut slo_status: Vec<SloStatus> = Vec::new();
    let mut samples_appended = 0usize;
    for t in 1..=ticks {
        let mut ctx = if deadline_ms > 0 {
            QueryCtx::with_deadline(system_clock(), Duration::from_millis(deadline_ms))
        } else {
            QueryCtx::unbounded()
        };
        // With telemetry armed, the batch is asked for EXPLAIN so the
        // slow-query log can capture full reports; the answers and the
        // metrics the dashboard shows are identical either way.
        if telemetry.is_some() {
            ctx = ctx.explain();
        }
        let reports = disk
            .stat_query_batch_ctx(&qrefs, &model, &opts, mem_budget, &ctx)
            .map_err(|e| e.to_string())?
            .reports;
        std::thread::sleep(interval);
        windows.tick(&wall);
        if let Some(tel) = telemetry.as_mut() {
            // "Slow" tracks the workload: the rolling p99 is the capture
            // threshold, so the log keeps the tail, not a fixed constant.
            if let Some(p99) = windows.quantile("query.latency", 0.99, DASH_LOOKBACK) {
                tel.slowlog.set_threshold_ns(p99);
            }
            for rep in &reports {
                tel.slowlog.observe(rep);
            }
            samples_appended += tel
                .tsdb
                .append_latest(&windows)
                .map_err(|e| format!("appending telemetry: {e}"))?;
            // SLO burn gauges land in the next frame (documented one-tick
            // lag), where the health rules added above pick them up.
            slo_status = tel.slo.evaluate(&windows);
            for st in &slo_status {
                if !st.newly_exhausted {
                    continue;
                }
                record_index_state(&recorder, &disk);
                let path = recorder
                    .dump_incident(
                        IncidentTrigger {
                            kind: "slo",
                            rule: Some(st.name.to_owned()),
                            detail: format!(
                                "error budget exhausted: burn {:.1}x, {:.1} bad of {} events",
                                st.burn, st.consumed_bad, st.total_events
                            ),
                        },
                        &incident_dir,
                    )
                    .map_err(|e| format!("writing incident report: {e}"))?;
                eprintln!(
                    "slo {}: error budget exhausted — incident dumped to {}",
                    st.name,
                    path.display()
                );
                incidents.push(path);
            }
        }
        let report = engine.evaluate(&windows);
        recorder.observe_health(&report);
        if report.transitioned && report.verdict != Verdict::Healthy {
            record_index_state(&recorder, &disk);
            let offender = report
                .rules
                .iter()
                .filter(|r| r.level == report.verdict)
                .map(|r| (r.name, r.detail.clone()))
                .next()
                .unwrap_or(("unknown", String::new()));
            let path = recorder
                .dump_incident(
                    IncidentTrigger {
                        kind: "health",
                        rule: Some(offender.0.to_owned()),
                        detail: offender.1,
                    },
                    &incident_dir,
                )
                .map_err(|e| format!("writing incident report: {e}"))?;
            eprintln!(
                "health {}: incident dumped to {}",
                report.verdict.as_str(),
                path.display()
            );
            incidents.push(path);
        }
        print!(
            "{}",
            render_dashboard(
                t,
                ticks,
                &report,
                &windows,
                plain,
                telemetry.as_ref(),
                &slo_status
            )
        );
        last = Some(report);
    }

    if let Some(path) = metrics_json {
        metrics::dump_json(&path)?;
    }
    if let Some(tel) = telemetry.as_mut() {
        let err = |e: std::io::Error| format!("flushing telemetry: {e}");
        tel.tsdb.flush_aggregates().map_err(err)?;
        tel.tsdb.sync().map_err(err)?;
        tel.slowlog.sync().map_err(err)?;
        if let Some(dir) = &telemetry_dir {
            println!(
                "telemetry: {samples_appended} sample(s), {} slow-quer(ies) captured under {}",
                tel.slowlog.recent().len(),
                dir.display()
            );
        }
    }
    let final_verdict = last.map_or(Verdict::Healthy, |r| r.verdict);
    println!(
        "watch done: {ticks} ticks, final verdict {}, {} incident(s)",
        final_verdict.as_str(),
        incidents.len()
    );
    for p in &incidents {
        println!("  incident: {}", p.display());
    }
    if final_verdict != Verdict::Healthy || !incidents.is_empty() {
        Ok(CmdStatus::Degraded)
    } else {
        Ok(CmdStatus::Clean)
    }
}

/// Stamps the recorder's component-state section with basic index facts,
/// so incident dumps carry the storage-side context alongside metrics and
/// spans.
fn record_index_state(rec: &FlightRecorder, disk: &DiskIndex) {
    rec.observe_state(
        "index",
        vec![
            ("records".to_owned(), disk.len().to_string()),
            ("data_bytes".to_owned(), disk.data_bytes().to_string()),
        ],
    );
}

/// One frame of the dashboard. With `--plain` the ANSI clear is skipped so
/// output appends (pipe/CI friendly); the content is identical. With
/// telemetry armed, each rate row carries a sparkline of its persisted
/// history (read back from the tsdb, so it spans restarts), and SLO
/// burn/budget rows plus a slow-query-log row join the frame.
fn render_dashboard(
    tick: u32,
    ticks: u32,
    report: &HealthReport,
    windows: &MetricWindows,
    plain: bool,
    telemetry: Option<&Telemetry>,
    slo: &[SloStatus],
) -> String {
    let mut o = String::with_capacity(2048);
    if !plain {
        o.push_str("\x1b[2J\x1b[H");
    }
    o.push_str(&format!(
        "s3cbcd watch — tick {tick}/{ticks} — verdict {} (window {:.1}s)\n",
        report.verdict.as_str(),
        windows
            .covered()
            .as_secs_f64()
            .min(DASH_LOOKBACK.as_secs_f64()),
    ));
    o.push_str("\nrates (per s, 10s window)\n");
    for name in DASH_RATES {
        let rate = windows.rate(name, DASH_LOOKBACK).unwrap_or(0.0);
        match telemetry {
            Some(tel) => {
                let hist: Vec<f64> = tel
                    .tsdb
                    .recent()
                    .map(|s| s.rate(name).unwrap_or(0.0))
                    .collect();
                let tail = &hist[hist.len().saturating_sub(SPARK_WIDTH)..];
                o.push_str(&format!(
                    "  {name:<32} {rate:>12.2}  {}\n",
                    crate::telemetry::sparkline(tail)
                ));
            }
            None => o.push_str(&format!("  {name:<32} {rate:>12.2}\n")),
        }
    }
    let p50 = windows.quantile("query.latency", 0.50, DASH_LOOKBACK);
    let p99 = windows.quantile("query.latency", 0.99, DASH_LOOKBACK);
    o.push_str(&format!(
        "  query.latency p50/p99 (us)       {:>8} / {:>8}\n",
        p50.map_or("-".to_owned(), |ns| (ns / 1_000).to_string()),
        p99.map_or("-".to_owned(), |ns| (ns / 1_000).to_string()),
    ));
    o.push_str("\nhealth rules\n");
    for r in &report.rules {
        let value = r.value.map_or("-".to_owned(), |v| format!("{v:.3}"));
        o.push_str(&format!(
            "  [{:<8}] {:<24} {:>12}\n",
            r.level.as_str(),
            r.name,
            value
        ));
    }
    if let Some(tel) = telemetry {
        if !slo.is_empty() {
            o.push_str("\nSLOs (burn = error rate / budget)\n");
            for st in slo {
                o.push_str(&format!(
                    "  {:<24} burn {:>8.2}x  budget {:>6.1}%{}\n",
                    st.name,
                    st.burn,
                    st.budget_remaining * 100.0,
                    if st.exhausted { "  EXHAUSTED" } else { "" }
                ));
            }
        }
        let threshold = tel.slowlog.threshold_ns();
        o.push_str(&format!(
            "\nslow-query log — {} in ring, threshold {}\n",
            tel.slowlog.recent().len(),
            if threshold == u64::MAX {
                "- (degraded only)".to_owned()
            } else {
                format!("{} us", threshold / 1_000)
            }
        ));
    }
    o
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
