//! Integration test of the Y4M round-trip through real files plus the
//! end-to-end detection path a CLI user follows: capture synthetic material
//! to .y4m, re-open it, register, attack, detect — then save the archive,
//! load it back and detect again.

use s3::cbcd::{DbBuilder, Detector, DetectorConfig, ReferenceDb};
use s3::video::{
    extract_fingerprints, ExtractorParams, ProceduralVideo, Transform, TransformChain,
    TransformedVideo, VideoSource, Y4mVideo,
};

#[test]
fn y4m_files_flow_through_the_full_pipeline() {
    let dir = s3_testkit::TempDir::new("cli_y4m");

    // Produce three reference files and one attacked candidate file.
    let mut params = ExtractorParams::default();
    params.harris.max_points = 8;
    let mut paths = Vec::new();
    for i in 0..3u64 {
        let v = ProceduralVideo::new(96, 72, 60, 0xCAFE + (i << 8));
        let y = Y4mVideo::capture(&v, (25, 1));
        let p = dir.join(format!("ref{i}.y4m"));
        y.save(&p).unwrap();
        paths.push(p);
    }
    let original = ProceduralVideo::new(96, 72, 60, 0xCAFE + (1 << 8));
    let attacked = TransformedVideo::new(
        &original,
        TransformChain::new(vec![Transform::Gamma { wgamma: 1.3 }]),
        7,
    );
    let cand_path = dir.join("candidate.y4m");
    Y4mVideo::capture(&attacked, (25, 1))
        .save(&cand_path)
        .unwrap();

    // Re-open everything from disk and run detection.
    let mut builder = DbBuilder::new(params);
    for p in &paths {
        let v = Y4mVideo::open(p).unwrap();
        assert_eq!((v.width(), v.height()), (96, 72));
        builder.add_video(p.to_str().unwrap(), &v);
    }
    let db = builder.build();
    let mut config = DetectorConfig::default();
    config.vote.min_votes = 12;
    let detector = Detector::new(&db, config.clone());
    let cand = Y4mVideo::open(&cand_path).unwrap();
    let fps = extract_fingerprints(&cand, db.extractor_params());
    let detections = detector.detect_fingerprints(&fps);
    assert!(
        detections
            .iter()
            .any(|d| d.id == 1 && d.offset.abs() <= 2.0),
        "y4m-roundtripped attacked copy must be detected: {detections:?}"
    );

    // The archive file: saved, loaded, it detects identically and names
    // each reference by its file path.
    let archive = dir.join("refs.s3i");
    db.save(&archive).unwrap();
    let loaded = ReferenceDb::load(&archive).unwrap();
    for (id, p) in paths.iter().enumerate() {
        assert_eq!(loaded.name(id as u32), p.to_str());
    }
    let fps = extract_fingerprints(&cand, loaded.extractor_params());
    assert_eq!(
        Detector::new(&loaded, config).detect_fingerprints(&fps),
        detections
    );
}
