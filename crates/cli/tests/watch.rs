//! End-to-end contract of `s3cbcd watch` and `s3cbcd incident`: a clean
//! run stays healthy and exits 0, a seeded fault run trips the health
//! engine, dumps a schema-valid incident report and exits 2, and the
//! `incident` subcommand renders that dump.

use std::path::PathBuf;
use std::process::{Command, Output};

fn s3cbcd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_s3cbcd"))
        .args(args)
        .output()
        .expect("failed to spawn s3cbcd")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("killed by signal")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

#[test]
fn clean_watch_stays_healthy_and_exits_zero() {
    let dir = tmpdir("watch-clean");
    let out = s3cbcd(&[
        "watch",
        "--ticks",
        "5",
        "--interval-ms",
        "40",
        "--plain",
        "--incident-dir",
        dir.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        code(&out),
        0,
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("verdict healthy"), "{stdout}");
    assert!(stdout.contains("health rules"), "{stdout}");
    // No incident was dumped.
    assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 0);
}

#[test]
fn faulty_watch_dumps_incident_and_exits_degraded() {
    let dir = tmpdir("watch-torn");
    let out = s3cbcd(&[
        "watch",
        "--ticks",
        "8",
        "--interval-ms",
        "40",
        "--fault",
        "torn",
        "--seed",
        "7",
        "--plain",
        "--incident-dir",
        dir.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        code(&out),
        2,
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dump = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("an incident JSON was dumped");
    let text = std::fs::read_to_string(&dump).expect("read dump");
    let doc = s3_obs::JsonValue::parse(&text).expect("incident JSON parses");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("s3.incident.v1")
    );
    assert!(
        doc.get("trigger")
            .and_then(|t| t.get("rule"))
            .and_then(|r| r.as_str())
            .is_some(),
        "trigger names the rule"
    );
    assert!(
        !doc.get("spans")
            .and_then(|s| s.as_array())
            .expect("spans array")
            .is_empty(),
        "incident carries recent spans"
    );
    assert!(
        doc.get("state").and_then(|s| s.get("index")).is_some(),
        "incident carries index state"
    );

    // The pretty-printer renders the same dump.
    let shown = s3cbcd(&["incident", dump.to_str().expect("utf-8 path")]);
    let text = String::from_utf8_lossy(&shown.stdout);
    assert_eq!(code(&shown), 0, "{text}");
    assert!(text.contains("trigger rule"), "{text}");
    assert!(text.contains("health:"), "{text}");
    assert!(text.contains("state: index"), "{text}");
}

#[test]
fn incident_rejects_non_incident_files() {
    let dir = tmpdir("watch-badfile");
    let path = dir.join("not-an-incident.json");
    std::fs::write(&path, "{\"schema\": \"something.else\"}").expect("write");
    let out = s3cbcd(&["incident", path.to_str().expect("utf-8 path")]);
    assert_eq!(code(&out), 1);
    assert!(String::from_utf8_lossy(&out.stderr).contains("s3.incident.v1"));
}

#[test]
fn watch_rejects_unknown_fault_scenario() {
    let out = s3cbcd(&["watch", "--fault", "gremlins", "--ticks", "1"]);
    assert_eq!(code(&out), 1);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown fault scenario"));
}
