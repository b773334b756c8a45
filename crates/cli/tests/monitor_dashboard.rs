//! End-to-end contract of `s3cbcd monitor` and `s3cbcd incident`: the
//! archive `build` writes, loaded with `--index`, monitors as the archive
//! the monitor fingerprints itself; the dashboard only observes (a clean
//! run stays healthy, dumps nothing and prints the same stdout as a run
//! without it), a run whose every search misses its deadline trips the
//! `deadline-rate` rule and dumps a schema-valid incident, and `incident`
//! renders that dump.

mod common;

use common::{build_index, code, s3cbcd};
use s3_testkit::TempDir;

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Stdout without the one line that carries wall-clock timing (elapsed
/// and real-time factor).
fn untimed(stdout: &[u8]) -> Vec<String> {
    text(stdout)
        .lines()
        .filter(|l| !l.contains("real-time factor"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn monitor_from_the_archive_matches_the_in_memory_monitor() {
    let (_dir, archive) = build_index(&["--videos", "6", "--frames", "100", "--seed", "11"]);
    let archive = archive.to_str().expect("utf-8 path");
    let loaded = s3cbcd(&["monitor", "--index", archive, "--seed", "11"]);
    let fresh = s3cbcd(&["monitor", "--seed", "11"]);
    assert_eq!(code(&loaded), 0, "{}", text(&loaded.stderr));
    assert_eq!(untimed(&loaded.stdout), untimed(&fresh.stdout));
    assert!(text(&loaded.stdout).contains("event: video-3 (id 3)"));
}

#[test]
fn dashboard_run_stays_healthy_and_leaves_stdout_unchanged() {
    let dir = TempDir::new("dashboard-clean");
    let incidents = dir.join("incidents");
    let plain = s3cbcd(&["monitor", "--seed", "11"]);
    let watched = s3cbcd(&[
        "monitor",
        "--seed",
        "11",
        "--dashboard",
        incidents.to_str().expect("utf-8 path"),
    ]);
    let stderr = text(&watched.stderr);
    assert_eq!(code(&plain), 0, "{}", text(&plain.stderr));
    assert_eq!(code(&watched), 0, "{stderr}");
    assert_eq!(untimed(&watched.stdout), untimed(&plain.stdout));
    assert!(text(&plain.stdout).contains("OK: embedded rerun detected"));
    // One frame per tick on stderr, headline rows first.
    assert!(stderr.contains("verdict healthy"), "{stderr}");
    assert!(stderr.contains("real-time factor"), "{stderr}");
    assert!(stderr.contains("detections / hour"), "{stderr}");
    assert!(stderr.contains("monitor.accepted"), "{stderr}");
    assert!(stderr.contains("health rules"), "{stderr}");
    assert!(
        stderr.contains("final verdict healthy, 0 incident(s)"),
        "{stderr}"
    );
    assert!(!incidents.exists(), "a healthy run dumps no incident");
    // Without the flag, nothing of the ops plane prints.
    assert!(!text(&plain.stderr).contains("dashboard"));
}

#[test]
fn zero_deadline_monitor_dumps_a_deadline_incident() {
    let dir = TempDir::new("dashboard-deadline");
    let out = s3cbcd(&[
        "monitor",
        "--seed",
        "7",
        "--deadline-ms",
        "0",
        "--dashboard",
        dir.to_str().expect("utf-8 path"),
    ]);
    let stderr = text(&out.stderr);
    // Every search is cut short, so the rerun goes undetected.
    assert_eq!(code(&out), 1, "{stderr}");
    assert!(stderr.contains("embedded rerun missed"), "{stderr}");
    let dump = std::fs::read_dir(&dir)
        .expect("incident dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("an incident JSON was dumped");
    let doc = s3_obs::JsonValue::parse(&std::fs::read_to_string(&dump).expect("read dump"))
        .expect("incident JSON parses");
    let get = |key: &str| doc.get(key).unwrap_or_else(|| panic!("no {key}"));
    assert_eq!(get("schema").as_str(), Some("s3.incident.v1"));
    assert_eq!(
        get("trigger").get("rule").and_then(|r| r.as_str()),
        Some("deadline-rate")
    );
    let non_empty =
        |v: Option<&s3_obs::JsonValue>| v.and_then(|a| a.as_array()).is_some_and(|a| !a.is_empty());
    assert!(non_empty(doc.get("spans")), "incident carries recent spans");
    assert!(
        non_empty(get("windows").get("rates")),
        "incident carries windowed rates"
    );
    assert!(
        non_empty(get("metrics").get("counters")),
        "incident carries the metrics snapshot"
    );
    let monitor = get("state")
        .get("monitor")
        .expect("incident carries the monitor state");
    for field in [
        "archive_videos",
        "archive_fingerprints",
        "fingerprints",
        "events",
    ] {
        assert!(monitor.get(field).is_some(), "monitor state lacks {field}");
    }

    // The pretty-printer renders the same dump.
    let shown = s3cbcd(&["incident", dump.to_str().expect("utf-8 path")]);
    let rendered = text(&shown.stdout);
    assert_eq!(code(&shown), 0, "{rendered}");
    assert!(
        rendered.contains("trigger rule : deadline-rate"),
        "{rendered}"
    );
    assert!(rendered.contains("health:"), "{rendered}");
    assert!(rendered.contains("state: monitor"), "{rendered}");
}

#[test]
fn incident_rejects_non_incident_files() {
    let dir = TempDir::new("incident-badfile");
    let path = dir.join("not-an-incident.json");
    std::fs::write(&path, "{\"schema\": \"something.else\"}").expect("write");
    let out = s3cbcd(&["incident", path.to_str().expect("utf-8 path")]);
    assert_eq!(code(&out), 1);
    assert!(text(&out.stderr).contains("s3.incident.v1"));
}

#[test]
fn retired_ops_commands_and_flags_are_unknown() {
    for cmd in ["watch", "history", "slowlog", "metrics"] {
        let out = s3cbcd(&[cmd]);
        assert_eq!(code(&out), 1, "{cmd}");
        assert!(text(&out.stderr).contains("unknown command"), "{cmd}");
    }
    let out = s3cbcd(&["query", "x.s3i", "--telemetry-dir", "tel"]);
    assert_eq!(code(&out), 1);
    assert!(text(&out.stderr).contains("unknown flag --telemetry-dir"));
    // The monitor's input is the CLI's own in-order stream: nothing for a
    // strict mode to reject.
    let out = s3cbcd(&["monitor", "--strict"]);
    assert_eq!(code(&out), 1);
    assert!(text(&out.stderr).contains("unknown flag --strict"));
    for cmd in ["query", "detect", "monitor"] {
        let out = s3cbcd(&[cmd, "--metrics-every", "1"]);
        assert_eq!(code(&out), 1, "{cmd}");
        assert!(
            text(&out.stderr).contains("unknown flag --metrics-every"),
            "{cmd}: {}",
            text(&out.stderr)
        );
    }
}
