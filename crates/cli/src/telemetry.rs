//! `history` — render time-series samples persisted by the embedded
//! tsdb — and `slowlog` — list and pretty-print captured slow-query
//! EXPLAIN reports. Both read the telemetry directory that `watch` and
//! `query` write when given `--telemetry-dir`, so a crashed or finished
//! process leaves an inspectable record behind.

use crate::args::Args;
use crate::CmdStatus;
use s3_obs::{key_matches, JsonValue, JsonWriter, SlowLog, SlowRead, Tier, Tsdb, TsdbSample};
use std::path::Path;

/// Sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a fixed-palette sparkline, scaled to their max.
/// All-zero (or empty) input renders as a flat baseline.
pub fn sparkline(values: &[f64]) -> String {
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || !v.is_finite() || v <= 0.0 {
                SPARKS[0]
            } else {
                let idx = (v / max * (SPARKS.len() - 1) as f64).round() as usize;
                SPARKS[idx.min(SPARKS.len() - 1)]
            }
        })
        .collect()
}

/// First gauge value in `s` whose key matches `name` (label-insensitive).
fn gauge_value(s: &TsdbSample, name: &str) -> Option<f64> {
    s.gauges
        .iter()
        .find(|(k, _)| key_matches(k, name))
        .map(|&(_, v)| v)
}

/// The `history --json` document: the samples as the store persisted them.
fn history_json(tier: Tier, samples: &[TsdbSample]) -> String {
    let mut w = JsonWriter::line();
    w.obj()
        .field("schema", "s3.history.v1")
        .field("tier", tier.as_str());
    w.key("samples").arr();
    for s in samples {
        w.raw(&s.to_json());
    }
    w.finish()
}

/// The `slowlog --json` document: one summary row per captured query.
fn slowlog_json(entries: &[SlowRead]) -> String {
    let mut w = JsonWriter::line();
    w.obj().field("schema", "s3.slowlog.v1");
    w.key("entries").arr();
    for e in entries {
        w.obj()
            .field("unix_ms", e.unix_ms)
            .field("query_id", e.query_id)
            .field("latency_ns", e.latency_ns)
            .field("degraded", e.degraded)
            .end();
    }
    w.finish()
}

pub fn cmd_history(rest: Vec<String>) -> Result<CmdStatus, String> {
    let a = Args::parse_with_switches(rest, &["series", "tier", "last"], &["json"])?;
    let dir = a
        .positional(0)
        .ok_or("history needs a telemetry directory")?;
    let tier_raw = a.get("tier").unwrap_or("raw");
    let tier = Tier::parse(tier_raw)
        .ok_or_else(|| format!("unknown tier '{tier_raw}' (expected raw | 1m | 1h)"))?;
    let last: usize = a.get_parsed("last", 32)?;

    let all = Tsdb::read(Path::new(dir)).map_err(|e| format!("reading {dir}: {e}"))?;
    let mut samples: Vec<TsdbSample> = all.into_iter().filter(|s| s.tier == tier).collect();
    if samples.len() > last {
        samples.drain(..samples.len() - last);
    }

    if a.has("json") {
        println!("{}", history_json(tier, &samples));
        return Ok(CmdStatus::Clean);
    }

    if samples.is_empty() {
        println!("no {} samples under {dir}", tier.as_str());
        return Ok(CmdStatus::Clean);
    }
    let t0 = samples[0].start_ms;
    let span_s = (samples.last().map_or(t0, |s| s.end_ms) - t0) as f64 / 1_000.0;
    println!(
        "{} {} sample(s) over {span_s:.1}s from {dir}",
        samples.len(),
        tier.as_str()
    );
    match a.get("series") {
        Some(name) => render_series(&samples, name, t0),
        None => render_overview(&samples),
    }
    Ok(CmdStatus::Clean)
}

/// Per-sample table of one named series: counters get delta + rate,
/// gauges their value, histograms count and tail quantiles. The series
/// kind is decided by scanning every sample first — an idle counter
/// stores no entry at all, so per-sample presence cannot tell "no
/// activity this interval" from "not a counter".
fn render_series(samples: &[TsdbSample], name: &str, t0: u64) {
    let is_hist = samples
        .iter()
        .any(|s| s.hists.iter().any(|(k, _)| key_matches(k, name)));
    let is_gauge = !is_hist
        && samples
            .iter()
            .any(|s| s.gauges.iter().any(|(k, _)| key_matches(k, name)));
    let is_counter = !is_hist
        && !is_gauge
        && samples
            .iter()
            .any(|s| s.counters.iter().any(|(k, _)| key_matches(k, name)));
    if !(is_hist || is_gauge || is_counter) {
        println!("series: {name}");
        println!("  (series not present in any sample)");
        return;
    }
    println!("series: {name}");
    println!(
        "  {:>8}  {:>8}  {:>12}  {:>24}",
        "t(s)", "dur(s)", "delta/value", "detail"
    );
    for s in samples {
        let t = (s.start_ms.saturating_sub(t0)) as f64 / 1_000.0;
        if is_hist {
            let Some((_, h)) = s.hists.iter().find(|(k, _)| key_matches(k, name)) else {
                continue;
            };
            println!(
                "  {t:>8.1}  {:>8.1}  {:>12}  p50 {} / p99 {} ns",
                s.dur_s(),
                h.count,
                h.p50,
                h.p99
            );
        } else if is_gauge {
            let Some(v) = gauge_value(s, name) else {
                continue;
            };
            println!("  {t:>8.1}  {:>8.1}  {v:>12.3}  {:>24}", s.dur_s(), "gauge");
        } else {
            println!(
                "  {t:>8.1}  {:>8.1}  {:>12}  {:>18.2} per s",
                s.dur_s(),
                s.counter_total(name),
                s.rate(name).unwrap_or(0.0)
            );
        }
    }
}

/// One row per series seen anywhere in the samples, with a sparkline of
/// its per-sample rate (counters), value (gauges) or p99 (histograms).
fn render_overview(samples: &[TsdbSample]) {
    let mut names: Vec<(&str, u8)> = Vec::new();
    for s in samples {
        for (k, _) in &s.counters {
            push_series(&mut names, k, b'c');
        }
        for (k, _) in &s.gauges {
            push_series(&mut names, k, b'g');
        }
        for (k, _) in &s.hists {
            push_series(&mut names, k, b'h');
        }
    }
    names.sort_unstable();
    println!(
        "  {:<40} {:>4}  history (oldest → newest)",
        "series", "kind"
    );
    for (name, kind) in names {
        let values: Vec<f64> = samples
            .iter()
            .map(|s| match kind {
                b'c' => s.rate(name).unwrap_or(0.0),
                b'g' => gauge_value(s, name).unwrap_or(0.0),
                _ => s
                    .hists
                    .iter()
                    .find(|(k, _)| key_matches(k, name))
                    .map_or(0.0, |(_, h)| h.p99 as f64),
            })
            .collect();
        let kind_s = match kind {
            b'c' => "ctr",
            b'g' => "gau",
            _ => "his",
        };
        println!("  {name:<40} {kind_s:>4}  {}", sparkline(&values));
    }
}

/// Records the base metric name (labels stripped) once per kind.
fn push_series<'a>(names: &mut Vec<(&'a str, u8)>, key: &'a str, kind: u8) {
    let base = key.split('{').next().unwrap_or(key);
    if !names.iter().any(|&(n, k)| n == base && k == kind) {
        names.push((base, kind));
    }
}

pub fn cmd_slowlog(rest: Vec<String>) -> Result<CmdStatus, String> {
    let a = Args::parse_with_switches(rest, &["show", "last"], &["json"])?;
    let dir = a
        .positional(0)
        .ok_or("slowlog needs a telemetry directory")?;
    let entries = SlowLog::read(Path::new(dir)).map_err(|e| format!("reading {dir}: {e}"))?;

    if let Some(raw) = a.get("show") {
        let idx: usize = raw
            .parse()
            .map_err(|_| format!("invalid value for --show: {raw:?}"))?;
        let entry = entries
            .get(idx)
            .ok_or_else(|| format!("--show {idx}: only {} entries captured", entries.len()))?;
        print!("{}", render_slow_entry(idx, entry));
        return Ok(CmdStatus::Clean);
    }

    if a.has("json") {
        println!("{}", slowlog_json(&entries));
        return Ok(CmdStatus::Clean);
    }

    let last: usize = a.get_parsed("last", 64)?;
    println!("{} slow-query entr(ies) under {dir}", entries.len());
    println!(
        "  {:>4}  {:>14}  {:>10}  {:>12}  {:>8}  annotation",
        "idx", "unix_ms", "query", "latency(us)", "degraded"
    );
    let start = entries.len().saturating_sub(last);
    for (i, e) in entries.iter().enumerate().skip(start) {
        println!(
            "  {i:>4}  {:>14}  {:>10}  {:>12}  {:>8}  {}",
            e.unix_ms,
            e.query_id,
            e.latency_ns / 1_000,
            if e.degraded { "yes" } else { "no" },
            e.annotations.first().map_or("", String::as_str)
        );
    }
    if !entries.is_empty() {
        println!("  (use `slowlog <dir> --show IDX` for the full EXPLAIN capture)");
    }
    Ok(CmdStatus::Clean)
}

fn get_num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(|n| n.as_f64()).unwrap_or(f64::NAN)
}

/// Renders one spilled entry: capture metadata, then the embedded
/// EXPLAIN report (plan vs. actual work, per-phase timings,
/// annotations) re-rendered from its stored JSON.
fn render_slow_entry(idx: usize, e: &SlowRead) -> String {
    let mut o = String::with_capacity(2048);
    o.push_str(&format!(
        "slowlog entry #{idx} — query {} (unix_ms {})\n",
        e.query_id, e.unix_ms
    ));
    o.push_str(&format!(
        "latency      : {:.3} ms{}\n",
        e.latency_ns as f64 / 1e6,
        if e.degraded { " — DEGRADED" } else { "" }
    ));
    for a in &e.annotations {
        o.push_str(&format!("annotation   : {a}\n"));
    }
    let ex = &e.explain;
    o.push_str(&format!(
        "\nEXPLAIN query {} — algo {}, alpha {}, depth {}\n",
        get_num(ex, "query_id"),
        ex.get("algo").and_then(|s| s.as_str()).unwrap_or("?"),
        get_num(ex, "alpha"),
        get_num(ex, "depth"),
    ));
    o.push_str(&format!(
        "plan         : predicted mass {:.4}, tmax {:.4}, {} iteration(s)\n",
        get_num(ex, "predicted_mass"),
        get_num(ex, "tmax"),
        get_num(ex, "iterations"),
    ));
    o.push_str(&format!(
        "actual       : {} scanned, {} matched, selectivity {:.6}, {} sketch skip(s)\n",
        get_num(ex, "entries_scanned"),
        get_num(ex, "matches"),
        get_num(ex, "observed_selectivity"),
        get_num(ex, "sketch_skipped"),
    ));
    if let Some(blocks) = ex.get("blocks").and_then(|b| b.as_array()) {
        o.push_str(&format!("blocks       : {} selected\n", blocks.len()));
        for b in blocks.iter().take(8) {
            o.push_str(&format!(
                "  depth {:>3}  mass {:.5}  scanned {:>8}  matched {:>6}\n",
                get_num(b, "depth"),
                get_num(b, "predicted_mass"),
                get_num(b, "scanned"),
                get_num(b, "matched"),
            ));
        }
        if blocks.len() > 8 {
            o.push_str(&format!("  ... {} more block(s)\n", blocks.len() - 8));
        }
    }
    if let Some(phases) = ex.get("phases").and_then(|p| p.as_object()) {
        o.push_str("phases       :");
        for (name, ns) in phases {
            o.push_str(&format!(
                " {name} {:.0}us",
                ns.as_f64().unwrap_or(0.0) / 1e3
            ));
        }
        o.push('\n');
    }
    if let Some(anns) = ex.get("annotations").and_then(|a| a.as_array()) {
        for a in anns {
            if let Some(s) = a.as_str() {
                o.push_str(&format!("note         : {s}\n"));
            }
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[1.0, 4.0, 8.0]);
        assert_eq!(s.chars().count(), 3);
        assert_eq!(s.chars().last(), Some('█'));
        assert_eq!(s.chars().next(), Some('▂'));
    }

    #[test]
    fn series_names_dedup_by_base_name() {
        let mut names = Vec::new();
        push_series(&mut names, "tsdb.appends{store=\"tsdb\"}", b'c');
        push_series(&mut names, "tsdb.appends{store=\"slowlog\"}", b'c');
        push_series(&mut names, "tsdb.appends", b'g');
        assert_eq!(names.len(), 2);
    }

    fn samples() -> Vec<TsdbSample> {
        vec![
            TsdbSample {
                tier: Tier::Min1,
                start_ms: 1_700_000_000_000,
                end_ms: 1_700_000_060_000,
                counters: vec![("io.reads{kind=\"seq\"}".into(), 12), ("queries".into(), 7)],
                gauges: vec![("pool.hit_ratio".into(), 0.375), ("segments".into(), 2.0)],
                hists: vec![(
                    "query.latency".into(),
                    s3_obs::HistSummary {
                        count: 7,
                        sum: 7_000,
                        min: 10,
                        max: 4_000,
                        p50: 900,
                        p99: 3_900,
                    },
                )],
                resets: vec!["queries".into()],
            },
            TsdbSample {
                tier: Tier::Min1,
                start_ms: 1_700_000_060_000,
                end_ms: 1_700_000_120_000,
                counters: vec![],
                gauges: vec![],
                hists: vec![],
                resets: vec![],
            },
        ]
    }

    fn entries() -> Vec<SlowRead> {
        vec![
            SlowRead {
                unix_ms: 1_700_000_000_123,
                query_id: 42,
                latency_ns: 2_000_000,
                degraded: true,
                annotations: vec!["deadline hit".into()],
                explain: JsonValue::Null,
            },
            SlowRead {
                unix_ms: 1_700_000_000_456,
                query_id: u64::MAX,
                latency_ns: 0,
                degraded: false,
                annotations: vec![],
                explain: JsonValue::Null,
            },
        ]
    }

    /// What the parent commit (PR 22) printed for `samples()` / `entries()`.
    const PARENT_HISTORY: &str = r#"{"schema":"s3.history.v1","tier":"1m","samples":[{"schema":"s3.tsdb.v1","tier":"1m","t0":1700000000000,"t1":1700000060000,"counters":{"io.reads{kind=\"seq\"}":12,"queries":7},"gauges":{"pool.hit_ratio":0.375,"segments":2},"hists":{"query.latency":{"count":7,"sum":7000,"min":10,"max":4000,"p50":900,"p99":3900}},"resets":["queries"]},{"schema":"s3.tsdb.v1","tier":"1m","t0":1700000060000,"t1":1700000120000,"counters":{},"gauges":{},"hists":{},"resets":[]}]}"#;
    const PARENT_SLOWLOG: &str = r#"{"schema":"s3.slowlog.v1","entries":[{"unix_ms":1700000000123,"query_id":42,"latency_ns":2000000,"degraded":true},{"unix_ms":1700000000456,"query_id":18446744073709551615,"latency_ns":0,"degraded":false}]}"#;

    #[test]
    fn history_json_parses_to_the_parent_tree() {
        assert_eq!(
            JsonValue::parse(&history_json(Tier::Min1, &samples())),
            JsonValue::parse(PARENT_HISTORY)
        );
    }

    #[test]
    fn slowlog_json_parses_to_the_parent_tree() {
        assert_eq!(
            JsonValue::parse(&slowlog_json(&entries())),
            JsonValue::parse(PARENT_SLOWLOG)
        );
    }
}
