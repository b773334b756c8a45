//! End-to-end exit-code contract of the `s3cbcd` binary: 0 = complete
//! results, 1 = hard error, 2 = results produced but partial (degraded).
//! Scripts dispatch on these without parsing output, so they are part of
//! the CLI's public interface.

mod common;

use common::{build_index, code, s3cbcd};

/// The synthetic library every test here queries.
const BUILD: &[&str] = &["--videos", "2", "--frames", "30", "--seed", "1"];

#[test]
fn clean_query_exits_zero() {
    let (_dir, idx) = build_index(BUILD);
    let out = s3cbcd(&[
        "query",
        idx.to_str().expect("utf-8 path"),
        "--queries",
        "8",
        "--threads",
        "2",
    ]);
    assert_eq!(
        code(&out),
        0,
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn expired_deadline_exits_two_with_degraded_note() {
    let (_dir, idx) = build_index(BUILD);
    // A zero budget is already expired when the batch starts: every query
    // comes back cancelled/degraded, but the command still succeeds in the
    // "partial results" sense — exit 2, not 1.
    let out = s3cbcd(&[
        "query",
        idx.to_str().expect("utf-8 path"),
        "--queries",
        "8",
        "--threads",
        "2",
        "--deadline-ms",
        "0",
    ]);
    assert_eq!(
        code(&out),
        2,
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("DEGRADED"),
        "expected degraded health note, got: {stdout}"
    );
}

#[test]
fn missing_index_exits_one() {
    let out = s3cbcd(&["query", "/nonexistent/path/to/index.s3i"]);
    assert_eq!(code(&out), 1);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error:"),
        "hard errors report on stderr"
    );
}

/// The index is one file, queried by one engine: the sketch-sidecar and
/// shard-router flags are unknown, and the index is written alone.
#[test]
fn sidecar_and_shard_flags_are_unknown() {
    let (_dir, idx) = build_index(BUILD);
    let mut sidecar = idx.file_name().expect("file name").to_os_string();
    sidecar.push(".skch");
    assert!(!idx.with_file_name(sidecar).exists(), "no sidecar written");
    let path = idx.to_str().expect("utf-8 path");
    let cases: [&[&str]; 7] = [
        &["build", path, "--sketch-bits", "8"],
        &["query", path, "--no-sketch"],
        &["query", path, "--shards", "2"],
        &["query", path, "--replicas", "2"],
        &["query", path, "--no-hedge"],
        &["detect", "--shards", "2"],
        &["detect", "--fault", "torn"],
    ];
    for args in cases {
        let out = s3cbcd(args);
        assert_eq!(code(&out), 1, "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown flag"),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
