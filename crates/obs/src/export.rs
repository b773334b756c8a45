//! Exporters over a registry [`Snapshot`]: human-readable table, JSON, and
//! Prometheus text-format exposition.

use std::fmt::Write as _;

use crate::json::JsonWriter;
use crate::metrics::{MetricId, Snapshot};

/// A gauge for the table and Prometheus renderers, whose grammars spell
/// non-finite values `NaN` / `+Inf` / `-Inf` (JSON goes through
/// [`JsonWriter`]).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Column width of the table's metric-id column for one section.
fn id_width<T>(rows: &[(MetricId, T)]) -> usize {
    let widths = rows.iter().map(|(id, _)| id.render().len());
    widths.max().unwrap_or(0)
}

/// `query.latency` → `query_latency` (Prometheus metric-name charset:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — a leading digit gets an underscore prefix).
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Label *names* share the metric-name charset minus `:`.
fn prom_label_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Label-value escaping per the exposition format: backslash, double
/// quote, and line feed must be escaped inside `label="..."`.
fn prom_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// HELP-text escaping: backslash and line feed (quotes are legal there).
fn prom_help_text(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn prom_label(k: &str, v: &str) -> String {
    format!("{}=\"{}\"", prom_label_name(k), prom_label_value(v))
}

fn prom_id(id: &MetricId, extra: Option<(&str, String)>) -> String {
    let mut labels: Vec<String> = Vec::new();
    if let Some((k, v)) = id.label {
        labels.push(prom_label(k, v));
    }
    if let Some((k, v)) = extra {
        labels.push(prom_label(k, &v));
    }
    if labels.is_empty() {
        prom_name(id.name)
    } else {
        format!("{}{{{}}}", prom_name(id.name), labels.join(","))
    }
}

impl Snapshot {
    /// Renders a human-readable table, one metric per line.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = id_width(&self.counters);
            for (id, v) in &self.counters {
                let _ = writeln!(out, "  {:width$}  {v}", id.render());
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let width = id_width(&self.gauges);
            for (id, v) in &self.gauges {
                let _ = writeln!(out, "  {:width$}  {}", id.render(), fmt_f64(*v));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (ns unless noted):\n");
            let width = id_width(&self.histograms);
            for (id, h) in &self.histograms {
                if h.count == 0 {
                    let _ = writeln!(out, "  {:width$}  count=0", id.render());
                } else {
                    let _ = writeln!(
                        out,
                        "  {:width$}  count={} min={} p50={} p90={} p99={} max={} mean={:.0}",
                        id.render(),
                        h.count,
                        h.min,
                        h.p50().unwrap_or(0),
                        h.p90().unwrap_or(0),
                        h.p99().unwrap_or(0),
                        h.max,
                        h.mean().unwrap_or(0.0),
                    );
                }
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics registered)\n");
        }
        out
    }

    /// Renders a JSON object with `counters`, `gauges` and `histograms`
    /// sections; each histogram includes count/sum/min/max and
    /// p50/p90/p99. A non-finite gauge is `null`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::indented();
        w.obj().key("counters").obj();
        for (id, v) in &self.counters {
            w.field(&id.render(), *v);
        }
        w.end();
        w.key("gauges").obj();
        for (id, v) in &self.gauges {
            w.field(&id.render(), *v);
        }
        w.end();
        w.key("histograms").obj();
        for (id, h) in &self.histograms {
            let seen = h.count > 0;
            w.key(&id.render())
                .obj()
                .field("count", h.count)
                .field("sum", h.sum)
                .field("min", seen.then_some(h.min))
                .field("max", seen.then_some(h.max))
                .field("mean", h.mean())
                .field("p50", h.p50())
                .field("p90", h.p90())
                .field("p99", h.p99())
                .end();
        }
        w.finish()
    }

    /// Renders Prometheus text-format exposition: counters as `counter`,
    /// gauges as `gauge`, histograms as cumulative `_bucket{le=...}`
    /// series plus `_sum` and `_count`. Each metric name gets one
    /// `# HELP`/`# TYPE` pair (HELP carries the original dotted name)
    /// before its first sample; label values are escaped per the
    /// exposition grammar.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        let mut type_line = |out: &mut String, name: &'static str, kind: &str| {
            if !seen.contains(&name) {
                seen.push(name);
                let _ = writeln!(out, "# HELP {} {}", prom_name(name), prom_help_text(name));
                let _ = writeln!(out, "# TYPE {} {kind}", prom_name(name));
            }
        };
        for (id, v) in &self.counters {
            type_line(&mut out, id.name, "counter");
            let _ = writeln!(out, "{} {v}", prom_id(id, None));
        }
        for (id, v) in &self.gauges {
            type_line(&mut out, id.name, "gauge");
            let _ = writeln!(out, "{} {}", prom_id(id, None), fmt_f64(*v));
        }
        for (id, h) in &self.histograms {
            type_line(&mut out, id.name, "histogram");
            let base = prom_name(id.name);
            let mut cum = 0u64;
            for (_, hi, c) in h.nonzero_buckets() {
                cum += c;
                let _ = writeln!(
                    out,
                    "{base}_bucket{} {cum}",
                    prom_suffix(id, hi.to_string())
                );
            }
            let _ = writeln!(
                out,
                "{base}_bucket{} {}",
                prom_suffix(id, "+Inf".into()),
                h.count
            );
            let _ = writeln!(out, "{base}_sum{} {}", prom_plain_labels(id), h.sum);
            let _ = writeln!(out, "{base}_count{} {}", prom_plain_labels(id), h.count);
        }
        out
    }
}

fn prom_suffix(id: &MetricId, le: String) -> String {
    let mut labels: Vec<String> = Vec::new();
    if let Some((k, v)) = id.label {
        labels.push(prom_label(k, v));
    }
    labels.push(format!("le=\"{le}\""));
    format!("{{{}}}", labels.join(","))
}

fn prom_plain_labels(id: &MetricId) -> String {
    match id.label {
        None => String::new(),
        Some((k, v)) => format!("{{{}}}", prom_label(k, v)),
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::Registry;

    #[test]
    fn table_and_json_render() {
        let r = Registry::new();
        r.counter("a.count").add(3);
        r.gauge("a.gauge").set(1.5);
        let h = r.histogram("a.hist");
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        let snap = r.snapshot();
        let table = snap.to_table();
        assert!(table.contains("a.count"), "{table}");
        assert!(table.contains("p99="), "{table}");
        let json = snap.to_json();
        assert!(json.contains("\"a.count\": 3"), "{json}");
        assert!(json.contains("\"p50\""), "{json}");
        assert!(json.contains("\"p99\""), "{json}");
    }

    #[test]
    fn prometheus_format_shape() {
        let r = Registry::new();
        r.counter_with("c", Some(("kind", "x"))).add(2);
        let h = r.histogram("lat");
        h.record(5);
        h.record(700);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# HELP c c"), "{text}");
        assert!(text.contains("# TYPE c counter"), "{text}");
        assert!(text.contains("c{kind=\"x\"} 2"), "{text}");
        assert!(text.contains("# TYPE lat histogram"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("lat_sum 705"), "{text}");
        assert!(text.contains("lat_count 2"), "{text}");
        // Buckets are cumulative: the last finite bucket holds both samples.
        let finite: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("lat_bucket") && !l.contains("+Inf"))
            .collect();
        assert!(finite.last().is_some_and(|l| l.ends_with(" 2")), "{text}");
    }

    #[test]
    fn prometheus_escapes_labels_and_names() {
        let r = Registry::new();
        r.counter_with("9weird.name", Some(("kind", "a\"b\\c\nd")))
            .inc();
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("_9weird_name"), "{text}");
        assert!(
            text.contains("kind=\"a\\\"b\\\\c\\nd\""),
            "label value escaped: {text}"
        );
        // No raw newline survives inside a label value: every line is a
        // complete comment or sample.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.contains(' '),
                "torn line: {line:?}"
            );
        }
    }

    fn fixture() -> crate::metrics::Snapshot {
        let r = Registry::new();
        r.counter("a.count").add(3);
        r.counter_with("io.reads", Some(("kind", "se\"q")))
            .add(u64::MAX);
        r.gauge("a.gauge").set(1.5);
        r.gauge("whole").set(3.0);
        r.gauge("huge").set(1e21);
        let h = r.histogram("a.hist");
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        r.histogram("empty.hist");
        r.snapshot()
    }

    /// What the parent commit (PR 22) rendered for `fixture()`.
    const PARENT: &str = r#"{
  "counters": {
    "a.count": 3,
    "io.reads{kind=\"se\"q\"}": 18446744073709551615
  },
  "gauges": {
    "a.gauge": 1.5,
    "huge": 1000000000000000000000,
    "whole": 3.0
  },
  "histograms": {
    "a.hist": {"count": 4, "sum": 1006, "min": 1, "max": 1000, "mean": 251.5, "p50": 2, "p90": 1000, "p99": 1000},
    "empty.hist": {"count": 0, "sum": 0, "min": null, "max": null, "mean": null, "p50": null, "p90": null, "p99": null}
  }
}"#;

    #[test]
    fn metrics_json_parses_to_the_parent_tree_and_non_finite_gauges_are_null() {
        use crate::JsonValue;
        assert_eq!(
            JsonValue::parse(&fixture().to_json()),
            JsonValue::parse(PARENT)
        );
        // The parent wrote the quoted strings "NaN" / "+Inf" here.
        let r = Registry::new();
        r.gauge("nan").set(f64::NAN);
        r.gauge("inf").set(f64::INFINITY);
        let doc = JsonValue::parse(&r.snapshot().to_json()).unwrap();
        let gauges = doc.get("gauges").unwrap();
        assert_eq!(gauges.get("nan"), Some(&JsonValue::Null));
        assert_eq!(gauges.get("inf"), Some(&JsonValue::Null));
        let table = r.snapshot().to_table();
        assert!(table.contains("NaN") && table.contains("+Inf"), "{table}");
    }
}
