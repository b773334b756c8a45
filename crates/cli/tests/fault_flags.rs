//! `--fault` / `--fault-seed` on `query`: a seeded fault scenario
//! reproduces a degraded run from the command line alone. The contract under test is
//! determinism of the degraded path — same flags, same seed, same exit code
//! and same result counts — plus the exit-code taxonomy (2 = partial
//! results, 1 = strict-mode hard error) applying to injected faults.

mod common;

use common::{build_index, code, s3cbcd};
use std::process::Output;

/// The synthetic library every test here queries.
const BUILD: &[&str] = &["--videos", "3", "--frames", "40", "--seed", "1"];

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The result lines that must be reproducible run to run. Timing lines
/// jitter by nature, so the comparison keys on the counted facts only.
fn result_lines(out: &Output) -> Vec<String> {
    stdout(out)
        .lines()
        .filter(|l| l.starts_with("queries") || l.starts_with("matches") || l.starts_with("health"))
        .map(str::to_owned)
        .collect()
}

/// A seed known to degrade the single-node torn-read run (checked and then
/// asserted below, so a behaviour change shows up as a test failure, not a
/// silently-clean scenario).
const TORN_SEED: &str = "1";

#[test]
fn query_fault_is_deterministic_and_degrades() {
    let (_dir, idx) = build_index(BUILD);
    let run = || {
        s3cbcd(&[
            "query",
            idx.to_str().expect("utf-8 path"),
            "--queries",
            "24",
            "--threads",
            "1",
            "--fault",
            "torn",
            "--fault-seed",
            TORN_SEED,
        ])
    };
    let a = run();
    let b = run();
    assert_eq!(
        code(&a),
        2,
        "torn faults must degrade, not error\nstdout: {}\nstderr: {}",
        stdout(&a),
        String::from_utf8_lossy(&a.stderr)
    );
    assert_eq!(code(&a), code(&b), "same seed, same exit code");
    assert_eq!(
        result_lines(&a),
        result_lines(&b),
        "same seed must reproduce the same degraded results"
    );
}

#[test]
fn query_fault_strict_exits_one() {
    let (_dir, idx) = build_index(BUILD);
    let out = s3cbcd(&[
        "query",
        idx.to_str().expect("utf-8 path"),
        "--queries",
        "24",
        "--threads",
        "1",
        "--fault",
        "torn",
        "--fault-seed",
        TORN_SEED,
        "--strict",
    ]);
    assert_eq!(
        code(&out),
        1,
        "strict mode turns injected faults into hard errors\nstdout: {}",
        stdout(&out)
    );
}

#[test]
fn query_unknown_fault_rejected() {
    let (_dir, idx) = build_index(BUILD);
    let out = s3cbcd(&[
        "query",
        idx.to_str().expect("utf-8 path"),
        "--fault",
        "gremlins",
    ]);
    assert_eq!(code(&out), 1);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown fault scenario"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
