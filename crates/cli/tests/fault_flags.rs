//! `--fault` / `--fault-seed` on `query`: a seeded fault scenario
//! reproduces a degraded run from the command line alone. The contract under test is
//! determinism of the degraded path — same flags, same seed, same exit code
//! and same result counts — plus the exit-code taxonomy (2 = partial
//! results, 1 = strict-mode hard error) applying to injected faults.

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

fn build_index(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let path = dir.join(name);
    let out = s3cbcd(&[
        "build",
        path.to_str().expect("utf-8 path"),
        "--videos",
        "3",
        "--frames",
        "40",
        "--seed",
        "1",
    ]);
    assert_eq!(
        code(&out),
        0,
        "build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

/// A seed known to degrade the single-node torn-read run (checked and then
/// asserted below, so a behaviour change shows up as a test failure, not a
/// silently-clean scenario).
const TORN_SEED: &str = "1";

#[test]
fn query_fault_is_deterministic_and_degrades() {
    let idx = build_index("fault_det.s3i");
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
    let idx = build_index("fault_strict.s3i");
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
    let idx = build_index("fault_bad.s3i");
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
