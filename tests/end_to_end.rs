//! Cross-crate integration tests: the full CBCD pipeline assembled from the
//! public APIs of every workspace crate, exercised the way a downstream user
//! would.

use s3::cbcd::{DbBuilder, Detector, DetectorConfig};
use s3::core::{IsotropicNormal, RecordBatch, S3Index, StatQueryOpts};
use s3::hilbert::HilbertCurve;
use s3::video::{
    extract_fingerprints, ExtractorParams, ProceduralVideo, Transform, TransformChain,
    TransformedVideo,
};

fn fast_params() -> ExtractorParams {
    let mut p = ExtractorParams::default();
    p.harris.max_points = 8;
    p
}

fn config() -> DetectorConfig {
    let mut c = DetectorConfig::default();
    c.vote.min_votes = 12;
    c
}

/// Register → attack → detect, across several attacks, one assertion per
/// transform family.
#[test]
fn detects_each_attack_family() {
    let mut b = DbBuilder::new(fast_params());
    for i in 0..4u64 {
        let v = ProceduralVideo::new(96, 72, 80, 0x7A57 + (i << 12));
        b.add_video(&format!("ref-{i}"), &v);
    }
    let db = b.build();
    let det = Detector::new(&db, config());

    let attacks: Vec<(&str, Transform)> = vec![
        ("shift", Transform::Shift { wshift: 10.0 }),
        ("gamma", Transform::Gamma { wgamma: 1.5 }),
        ("contrast", Transform::Contrast { wcontrast: 1.5 }),
        ("noise", Transform::Noise { wnoise: 8.0 }),
        ("resize", Transform::Resize { wscale: 0.95 }),
        // The "inserting" operations the paper's intro motivates local
        // fingerprints with: a logo covering 15 % of the frame, and
        // letterboxing. Fingerprints away from the insertion must carry
        // the detection.
        ("insert", Transform::Insert { winsert: 15.0 }),
        ("letterbox", Transform::Letterbox { wletterbox: 20.0 }),
    ];
    for (label, t) in attacks {
        let original = ProceduralVideo::new(96, 72, 80, 0x7A57 + (2 << 12));
        let candidate = TransformedVideo::new(&original, TransformChain::new(vec![t]), 5);
        let found = det.detect_video(&candidate);
        assert!(
            found.iter().any(|d| d.id == 2 && d.offset.abs() <= 2.0),
            "attack '{label}' broke detection: {found:?}"
        );
    }
}

/// The search stage seen through the index API must agree with the search
/// stage the detector performs internally.
#[test]
fn detector_and_index_agree_on_matches() {
    let mut b = DbBuilder::new(fast_params());
    let v = ProceduralVideo::new(96, 72, 60, 777);
    b.add_video("only", &v);
    let db = b.build();
    let det = Detector::new(&db, config());

    let fps = extract_fingerprints(&v, db.extractor_params());
    let buffer = det.query_buffer(&fps);
    assert_eq!(buffer.len(), fps.len());
    // Each candidate fingerprint of the reference itself must at least
    // retrieve its own stored copy.
    let self_hits = buffer
        .iter()
        .zip(&fps)
        .filter(|(cv, f)| cv.refs.iter().any(|&(id, tc)| id == 0 && tc == f.tc))
        .count();
    assert!(
        self_hits * 10 >= fps.len() * 9,
        "self-retrieval too low: {self_hits}/{}",
        fps.len()
    );
}

/// A partial copy (sub-clip) is still detected with the correct temporal
/// offset — the point of the tc' = tc + b model.
#[test]
fn subclip_detected_with_inner_offset() {
    let mut b = DbBuilder::new(fast_params());
    let long = ProceduralVideo::new(96, 72, 200, 0x5AB);
    b.add_video("long", &long);
    let db = b.build();
    let det = Detector::new(&db, config());

    // Candidate = frames 100..180 of the reference, re-timed from zero.
    struct SubClip<'a> {
        inner: &'a ProceduralVideo,
        start: usize,
        len: usize,
    }
    impl s3::video::VideoSource for SubClip<'_> {
        fn width(&self) -> usize {
            self.inner.width()
        }
        fn height(&self) -> usize {
            self.inner.height()
        }
        fn len(&self) -> usize {
            self.len
        }
        fn frame(&self, t: usize) -> s3::video::Frame {
            self.inner.frame(self.start + t)
        }
    }
    let sub = SubClip {
        inner: &long,
        start: 100,
        len: 80,
    };
    let found = det.detect_video(&sub);
    assert!(!found.is_empty(), "sub-clip must be detected");
    // tc'_candidate = tc_reference - 100, so b = -100.
    assert!(
        (found[0].offset + 100.0).abs() <= 2.0,
        "wrong offset: {}",
        found[0].offset
    );
}

/// Fingerprints extracted by the video crate survive an index round-trip
/// through the disk format with identical query results.
#[test]
fn extracted_fingerprints_roundtrip_through_disk_index() {
    let v = ProceduralVideo::new(96, 72, 60, 0xD15C);
    let fps = extract_fingerprints(&v, &fast_params());
    assert!(fps.len() > 20);
    let mut batch = RecordBatch::new(20);
    for f in &fps {
        batch.push(&f.fingerprint, 1, f.tc);
    }
    let index = S3Index::build(HilbertCurve::paper(), batch);
    let dir = s3_testkit::TempDir::new("e2e");
    let path = dir.join("db.s3idx");
    s3::core::pseudo_disk::DiskIndex::write(&index, &path).unwrap();
    let disk = s3::core::pseudo_disk::DiskIndex::open(&path).unwrap();

    let model = IsotropicNormal::new(20, 15.0);
    let opts = StatQueryOpts::learned(0.85, &index, &model);
    let queries: Vec<&[u8]> = fps
        .iter()
        .take(10)
        .map(|f| f.fingerprint.as_slice())
        .collect();
    let batch_res = disk
        .stat_query_batch(&queries, &model, &opts, u64::MAX)
        .unwrap();
    for (qi, q) in queries.iter().enumerate() {
        let mem = index.stat_query(q, &model, &opts);
        let mut a: Vec<u32> = mem.matches.iter().map(|m| m.tc).collect();
        let mut b: Vec<u32> = batch_res.matches[qi].iter().map(|m| m.tc).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "disk/memory mismatch on query {qi}");
    }
}

/// The umbrella crate re-exports compose: a user can go from pixels to a
/// detection using only `s3::` paths.
#[test]
fn umbrella_crate_paths_compose() {
    use s3::video::VideoSource;
    let video = ProceduralVideo::new(96, 72, 60, 0xBEEF);
    let kf = s3::video::detect_keyframes(&video, &s3::video::KeyframeParams::default());
    assert!(!kf.is_empty());
    let frame = video.frame(kf[0]);
    let pts = s3::video::detect_interest_points(&frame, &s3::video::HarrisParams::default());
    assert!(!pts.is_empty());
    let law = s3::stats::NormDistribution::new(20, 20.0);
    assert!(law.quantile(0.8) > 0.0);
    let key = s3::hilbert::HilbertCurve::paper().encode_bytes(&[7u8; 20]);
    assert!(!key.is_zero() || key.is_zero()); // compiles and runs
}
