//! What the `s3cbcd` end-to-end tests share: running the binary, and an
//! archive file freshly built to run it on.

use s3_testkit::TempDir;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `s3cbcd` with `args`.
pub fn s3cbcd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_s3cbcd"))
        .args(args)
        .output()
        .expect("failed to spawn s3cbcd")
}

/// The exit code of a run that no signal killed.
pub fn code(out: &Output) -> i32 {
    out.status.code().expect("killed by signal")
}

/// Runs `s3cbcd build <scratch>/index.s3i <args>`, asserting it succeeds,
/// and returns the scratch directory (removed on drop) and the file.
pub fn build_index(args: &[&str]) -> (TempDir, PathBuf) {
    let dir = TempDir::new("cli-build");
    let path = dir.join("index.s3i");
    let out = s3cbcd(&[&["build", path.to_str().expect("utf-8 path")], args].concat());
    assert_eq!(
        code(&out),
        0,
        "build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, path)
}
