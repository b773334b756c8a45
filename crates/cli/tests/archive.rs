//! `detect --index` reads the archive file `build` writes from `.y4m`
//! references, and detects as `detect` over the same files does. (The
//! monitor's counterpart is in `monitor_dashboard.rs`.)

mod common;

use common::{build_index, code, s3cbcd};
use s3_testkit::TempDir;
use s3_video::{
    ProceduralVideo, Transform, TransformChain, TransformedVideo, VideoSource, Y4mVideo,
};

/// Stdout of a successful run.
fn stdout(args: &[&str]) -> String {
    let out = s3cbcd(args);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Captures `video` to `<dir>/<name>` and returns the path.
fn y4m(dir: &TempDir, name: &str, video: &impl VideoSource) -> String {
    let path = dir.join(name);
    Y4mVideo::capture(video, (25, 1)).save(&path).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn detect_from_the_archive_of_y4m_files_matches_detect_from_the_files() {
    let dir = TempDir::new("cli-archive-y4m");
    let clip = |i: u64| ProceduralVideo::new(96, 72, 60, 0xCAFE + (i << 8));
    let refs: Vec<String> = (0..3)
        .map(|i| y4m(&dir, &format!("r{i}.y4m"), &clip(i)))
        .collect();
    let gamma = TransformChain::new(vec![Transform::Gamma { wgamma: 1.3 }]);
    let candidate = y4m(&dir, "c.y4m", &TransformedVideo::new(&clip(1), gamma, 7));
    let refs: Vec<&str> = refs.iter().map(String::as_str).collect();
    let (_archive_dir, archive) = build_index(&refs);
    let archive = archive.to_str().unwrap();

    let loaded = stdout(&["detect", "--index", archive, "--candidate", &candidate]);
    let fresh = stdout(&[&["detect"], &refs[..], &["--candidate", &candidate]].concat());
    assert_eq!(loaded, fresh);
    let named = format!("detected {} (id 1)", refs[1]);
    assert!(loaded.contains(&named), "{loaded}");

    // The archive replaces the references, and needs a candidate.
    let both = [refs[0], "--index", archive, "--candidate", &candidate];
    assert_eq!(code(&s3cbcd(&[&["detect"], &both[..]].concat())), 1);
    assert_eq!(code(&s3cbcd(&["detect", "--index", archive])), 1);
}
