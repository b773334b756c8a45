//! Chrome trace-event exporter: turns a drained slice of [`SpanRecord`]s
//! (e.g. from a [`crate::RingCollector`]) into the JSON Trace Event Format
//! understood by `chrome://tracing` and Perfetto.
//!
//! Each span becomes one complete ("X") event. The *process* id is the
//! span's query id, so every query renders as its own named track group;
//! the *thread* id is the worker the span finished on, which makes the
//! work-stealing fan-out directly visible. Timestamps share the process
//! span epoch, so events nest correctly across threads.

use crate::json::JsonWriter;
use crate::span::SpanRecord;

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

    let mut w = JsonWriter::line();
    w.obj().key("traceEvents").arr();
    for pid in pids {
        let name = if pid == 0 {
            "unscoped".to_string()
        } else {
            format!("query {pid}")
        };
        w.obj()
            .field("name", "process_name")
            .field("ph", "M")
            .field("pid", pid)
            .field("tid", 0u64);
        w.key("args").obj().field("name", name).end().end();
    }
    for r in ordered {
        w.obj()
            .field("name", r.name)
            .field("cat", "s3")
            .field("ph", "X")
            // Trace-event timestamps are µs; spans carry ns.
            .field("ts", r.start_ns as f64 / 1e3)
            .field("dur", r.dur_ns as f64 / 1e3)
            .field("pid", r.query_id)
            .field("tid", r.tid);
        w.key("args").obj().field("query_id", r.query_id);
        w.fields(&r.fields).end().end();
    }
    w.finish()
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
        assert!(json.contains("\"ts\":1,"), "µs timestamps: {json}");
        assert!(json.contains("\"dur\":0.5,"), "{json}");
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

    fn fixture() -> Vec<SpanRecord> {
        vec![
            rec("query.refine", 2_500, 1_000, 7, 2),
            rec("query.filter", 1_001, 500, 7, 1),
            SpanRecord {
                name: "video \"extract\"",
                dur_ns: 123_456_789_012_345,
                start_ns: 3,
                query_id: 0,
                tid: 9,
                fields: vec![("ratio", 0.125), ("nan", f64::NAN), ("big", 1e21)],
            },
            rec("shard.query", 9_007_199_254_740_991, 1, 12, 3),
        ]
    }

    /// What the parent commit (PR 22) rendered for `fixture()`.
    const PARENT: &str = r#"{"traceEvents":[
  {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"unscoped"}},
  {"name":"process_name","ph":"M","pid":7,"tid":0,"args":{"name":"query 7"}},
  {"name":"process_name","ph":"M","pid":12,"tid":0,"args":{"name":"query 12"}},
  {"name":"video \"extract\"","cat":"s3","ph":"X","ts":0.003,"dur":123456789012.345,"pid":0,"tid":9,"args":{"query_id":0,"ratio":0.125,"nan":null,"big":1000000000000000000000}},
  {"name":"query.filter","cat":"s3","ph":"X","ts":1.001,"dur":0.500,"pid":7,"tid":1,"args":{"query_id":7,"blocks":3}},
  {"name":"query.refine","cat":"s3","ph":"X","ts":2.500,"dur":1.000,"pid":7,"tid":2,"args":{"query_id":7,"blocks":3}},
  {"name":"shard.query","cat":"s3","ph":"X","ts":9007199254740.991,"dur":0.001,"pid":12,"tid":3,"args":{"query_id":12,"blocks":3}}
]}"#;

    #[test]
    fn chrome_trace_parses_to_the_parent_tree() {
        assert_eq!(
            crate::JsonValue::parse(&to_chrome_trace(&fixture())),
            crate::JsonValue::parse(PARENT)
        );
    }
}
