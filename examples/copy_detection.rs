//! End-to-end content-based copy detection: register synthetic reference
//! videos, attack one of them with the paper's transformations (Fig. 4) and
//! detect the copy through the full pipeline (key-frames → Harris →
//! fingerprints → statistical search → robust voting).
//!
//! ```sh
//! cargo run --release --example copy_detection
//! ```

use s3::cbcd::{calibrate_threshold, DbBuilder, Detector, DetectorConfig};
use s3::video::{
    extract_fingerprints, ExtractorParams, ProceduralVideo, Transform, TransformChain,
    TransformedVideo,
};

fn main() {
    let params = ExtractorParams::default();

    // 1. Register a small archive of reference videos.
    println!("registering reference videos ...");
    let mut builder = DbBuilder::new(params);
    let names = ["news", "sport", "film", "advert", "archive-bw"];
    for (i, name) in names.iter().enumerate() {
        let video = ProceduralVideo::new(128, 96, 120, 0xC0DE + i as u64);
        let id = builder.add_video(name, &video);
        println!("  id {id}: {name}");
    }
    let db = builder.build();
    println!(
        "database: {} videos, {} fingerprints",
        db.video_count(),
        db.fingerprint_count()
    );

    // 1b. Calibrate the decision threshold on non-referenced material, the
    //     paper's procedure (§V-C: "less than 1 false alarm per hour").
    //     Two minutes of negatives admit no alarm at all, so the threshold
    //     is the largest spurious score + 1: it needs enough clips to have
    //     seen a large one (four clips gave 54, and a stranger scored above).
    let negatives: Vec<_> = (0..24u64)
        .map(|i| {
            let v = ProceduralVideo::new(128, 96, 120, 0x0FF_0000 + i);
            extract_fingerprints(&v, db.extractor_params())
        })
        .collect();
    let probe = Detector::new(&db, DetectorConfig::default());
    let cal = calibrate_threshold(&probe, &negatives);
    println!(
        "calibrated n_sim threshold: {} ({} spurious scores observed over {:.4} h)",
        cal.min_votes,
        cal.spurious_scores.len(),
        cal.hours_scanned
    );

    // 2. Attack the "film" video with a combined transformation.
    let original = ProceduralVideo::new(128, 96, 120, 0xC0DE + 2);
    let chain = TransformChain::new(vec![
        Transform::Resize { wscale: 0.9 },
        Transform::Gamma { wgamma: 1.4 },
        Transform::Noise { wnoise: 8.0 },
    ]);
    println!("candidate: film attacked with [{}]", chain.label());
    let candidate = TransformedVideo::new(&original, chain, 99);

    // 3. Detect, at the calibrated threshold.
    let mut config = DetectorConfig::default();
    config.vote.min_votes = cal.min_votes;
    let detector = Detector::new(&db, config);
    let detections = detector.detect_video(&candidate);
    if detections.is_empty() {
        println!("no copy detected");
    }
    for d in &detections {
        println!(
            "detected copy of '{}' (id {}), offset {:+.1} frames, {} / {} votes",
            db.name(d.id).unwrap_or("?"),
            d.id,
            d.offset,
            d.nsim,
            d.ncand,
        );
    }
    assert!(
        detections.iter().any(|d| d.id == 2),
        "the attacked film must be identified"
    );

    // 4. Sanity: an unrelated video must stay silent.
    let stranger = ProceduralVideo::new(128, 96, 120, 0xDEAD_BEEF);
    let false_alarms = detector.detect_video(&stranger);
    println!("unrelated video raised {} detections", false_alarms.len());
    assert!(false_alarms.is_empty(), "false alarm on unrelated video");
}
