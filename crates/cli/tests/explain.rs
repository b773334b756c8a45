//! End-to-end contract of the EXPLAIN, tracing and metrics surface:
//! `--explain` prints per-query plan reports (with degradation annotations
//! on degraded runs, which still exit 2), the `explain` subcommand is a
//! shorthand for it, `--trace-out` writes a Chrome trace-event JSON file
//! and `--metrics-json` a JSON snapshot of the run's registry.

mod common;

use common::{build_index, code, s3cbcd};
use s3_obs::JsonValue;
use s3_testkit::TempDir;

/// The synthetic library every test here queries.
const BUILD: &[&str] = &["--videos", "2", "--frames", "30", "--seed", "1"];

#[test]
fn clean_explain_reports_plan_and_exits_zero() {
    let (_dir, idx) = build_index(BUILD);
    let out = s3cbcd(&[
        "query",
        idx.to_str().expect("utf-8 path"),
        "--queries",
        "4",
        "--threads",
        "2",
        "--explain",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        code(&out),
        0,
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("EXPLAIN query"), "{stdout}");
    assert!(stdout.contains("predicted mass"), "{stdout}");
    assert!(stdout.contains("degradation: none"), "{stdout}");
    assert!(stdout.contains("reconciles: true"), "{stdout}");
}

#[test]
fn explain_subcommand_matches_query_explain() {
    let (_dir, idx) = build_index(BUILD);
    let out = s3cbcd(&[
        "explain",
        idx.to_str().expect("utf-8 path"),
        "--queries",
        "2",
        "--threads",
        "1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        code(&out),
        0,
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("EXPLAIN query"), "{stdout}");
}

#[test]
fn degraded_explain_annotates_deadline_and_exits_two() {
    let (_dir, idx) = build_index(BUILD);
    // An already-expired deadline: partial results, exit 2, and the explain
    // output must say *why* each query degraded.
    let out = s3cbcd(&[
        "query",
        idx.to_str().expect("utf-8 path"),
        "--queries",
        "4",
        "--threads",
        "2",
        "--deadline-ms",
        "0",
        "--explain",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        code(&out),
        2,
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("EXPLAIN query"), "{stdout}");
    assert!(stdout.contains("degradation:"), "{stdout}");
    assert!(
        stdout.contains("deadline exceeded") || stdout.contains("cancelled"),
        "expected a deadline/cancellation annotation, got: {stdout}"
    );
}

#[test]
fn trace_out_writes_chrome_trace_json() {
    let (dir, idx) = build_index(BUILD);
    let trace = dir.join("trace.json");
    let out = s3cbcd(&[
        "query",
        idx.to_str().expect("utf-8 path"),
        "--queries",
        "4",
        "--threads",
        "2",
        "--trace-out",
        trace.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(
        code(&out),
        0,
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "complete events: {json}");
    assert!(
        json.contains("query.filter"),
        "filter spans present: {json}"
    );
    assert!(json.contains("\"pid\":"), "{json}");
    // Every span of the batch should carry a real (non-zero) query id.
    assert!(json.contains("\"name\":\"query "), "{json}");
}

#[test]
fn metrics_json_snapshots_the_detect_run() {
    let dir = TempDir::new("cli-metrics-json");
    let path = dir.join("m.json");
    let out = s3cbcd(&[
        "detect",
        "--videos",
        "2",
        "--frames",
        "40",
        "--seed",
        "3",
        "--threads",
        "2",
        "--metrics-json",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(
        code(&out),
        0,
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("metrics snapshot written");
    let doc = JsonValue::parse(&json).expect("the snapshot parses as JSON");
    let counters = doc.get("counters").and_then(JsonValue::as_object);
    assert!(counters.is_some_and(|c| !c.is_empty()), "{json}");
    assert!(doc.get("gauges").and_then(JsonValue::as_object).is_some());
    let count = |name: &str| {
        doc.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(JsonValue::as_f64)
    };
    assert!(count("video.render").is_some_and(|n| n > 0.0), "{json}");
    for name in [
        "video.keyframes",
        "video.harris",
        "video.describe",
        "query.latency",
    ] {
        assert!(count(name).is_some(), "histogram {name} missing: {json}");
    }
}
