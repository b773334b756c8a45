//! Chrome trace-event exporter: turns a drained slice of [`SpanRecord`]s
//! (e.g. from a [`crate::RingCollector`]) into the JSON Trace Event Format
//! understood by `chrome://tracing` and Perfetto.
//!
//! Each span becomes one complete ("X") event. The *process* id is the
//! span's query id, so every query renders as its own named track group;
//! the *thread* id is the worker the span finished on, which makes the
//! work-stealing fan-out directly visible. Timestamps share the process
//! span epoch, so events nest correctly across threads.

use std::fmt::Write as _;

use crate::json;
use crate::span::SpanRecord;

fn fmt_us(ns: u64) -> String {
    // µs with fixed 3-decimal ns precision; stable and locale-free.
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders `spans` as a Chrome trace-event JSON document.
///
/// The output is a single object with a `traceEvents` array: per-query
/// process-name metadata ("M" events) followed by one complete ("X")
/// event per span, ordered by start time. Span fields are carried in
/// `args`, alongside the query id.
pub fn to_chrome_trace(spans: &[SpanRecord]) -> String {
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|r| (r.start_ns, r.tid));

    let mut pids: Vec<u64> = ordered.iter().map(|r| r.query_id).collect();
    pids.sort_unstable();
    pids.dedup();

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, event: String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&event);
    };

    for pid in &pids {
        let name = if *pid == 0 {
            "unscoped".to_string()
        } else {
            format!("query {pid}")
        };
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json::escape(&name)
            ),
        );
    }

    for r in &ordered {
        let mut args = format!("\"query_id\":{}", r.query_id);
        for (k, v) in &r.fields {
            let _ = write!(args, ",\"{}\":{}", json::escape(k), json_num(*v));
        }
        push(
            &mut out,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"s3\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                json::escape(r.name),
                fmt_us(r.start_ns),
                fmt_us(r.dur_ns),
                r.query_id,
                r.tid,
            ),
        );
    }
    out.push_str("\n]}\n");
    out
}

/// JSON has no NaN/Infinity literals; map them to null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, dur_ns: u64, query_id: u64, tid: u64) -> SpanRecord {
        SpanRecord {
            name,
            dur_ns,
            start_ns,
            query_id,
            tid,
            fields: vec![("blocks", 3.0)],
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let spans = vec![
            rec("query.refine", 2_500, 1_000, 7, 2),
            rec("query.filter", 1_000, 500, 7, 1),
        ];
        let json = to_chrome_trace(&spans);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"M\""), "process metadata: {json}");
        assert!(json.contains("\"name\":\"query 7\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":1.000"), "µs timestamps: {json}");
        assert!(json.contains("\"dur\":0.500"), "{json}");
        assert!(json.contains("\"blocks\":3"), "fields in args: {json}");
        // Sorted by start time: filter precedes refine in the output.
        let fi = json.find("query.filter").unwrap();
        let ri = json.find("query.refine").unwrap();
        assert!(fi < ri, "{json}");
    }

    #[test]
    fn chrome_trace_empty_and_unscoped() {
        assert!(to_chrome_trace(&[]).contains("\"traceEvents\":["));
        let json = to_chrome_trace(&[rec("a", 0, 1, 0, 1)]);
        assert!(json.contains("\"name\":\"unscoped\""), "{json}");
    }
}
