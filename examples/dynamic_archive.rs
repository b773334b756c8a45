//! Operating a growing archive: the paper's index is static, so a deployment
//! ingesting new material needs the [`s3::core::DynamicIndex`] overlay (LSM-style
//! inserts + merges) and database persistence across restarts.
//!
//! ```sh
//! cargo run --release --example dynamic_archive
//! ```

use s3::cbcd::{DbBuilder, Detector, DetectorConfig, ReferenceDb};
use s3::core::{DynamicIndex, IsotropicNormal, StatQueryOpts};
use s3::video::{extract_fingerprints, ExtractorParams, ProceduralVideo};

fn main() {
    let params = ExtractorParams::default();
    let tmp = std::env::temp_dir().join(format!("s3_archive_{}.s3i", std::process::id()));

    // ---- Day 1: fingerprint the initial archive and persist it. ----
    println!("day 1: registering the initial archive ...");
    let mut builder = DbBuilder::new(params);
    for i in 0..4u64 {
        let v = ProceduralVideo::new(96, 72, 80, 0xDA7 + (i << 8));
        builder.add_video(&format!("day1-clip-{i}"), &v);
    }
    let db = builder.build();
    db.save(&tmp).expect("persist the reference database");
    println!(
        "  saved {} fingerprints / {} videos to {}",
        db.fingerprint_count(),
        db.video_count(),
        tmp.display()
    );
    drop(db);

    // ---- Day 2: restart, reload, and detect against the stored archive. ----
    println!("day 2: reloading ...");
    let db = ReferenceDb::load(&tmp).expect("reload");
    let detector = Detector::new(&db, DetectorConfig::default());
    let rerun = ProceduralVideo::new(96, 72, 80, 0xDA7 + (2 << 8));
    let detections = detector.detect_video(&rerun);
    println!(
        "  rerun of day1-clip-2 detected as: {:?}",
        detections.first().map(|d| (db.name(d.id), d.nsim))
    );
    assert!(detections.iter().any(|d| d.id == 2));

    // ---- Day 2, continued: new material arrives — index it dynamically. ----
    println!("day 2: ingesting new material into a dynamic overlay ...");
    let mut dynamic = DynamicIndex::new(db.index().clone(), 0.10);
    let new_video = ProceduralVideo::new(96, 72, 80, 0xFEED);
    let new_id = 1000u32;
    let fps = extract_fingerprints(&new_video, db.extractor_params());
    for f in &fps {
        dynamic.insert(&f.fingerprint, new_id, f.tc);
    }
    println!(
        "  {} records total ({} in overlay, {} merges so far)",
        dynamic.len(),
        dynamic.overlay_len(),
        dynamic.merges()
    );

    // Query the combined index: the new material is immediately findable.
    let model = IsotropicNormal::new(20, 15.0);
    // Depth learned from the main index: the overlay is scanned against
    // the same key ranges, whatever their depth.
    let opts = StatQueryOpts::learned(0.9, dynamic.main(), &model);
    let probe = &fps[fps.len() / 2];
    let res = dynamic.stat_query(&probe.fingerprint, &model, &opts);
    let found = res
        .matches
        .iter()
        .any(|m| m.id == new_id && m.tc == probe.tc);
    println!("  new material retrievable before any merge: {found}");
    assert!(found);

    // Force the merge (e.g. a nightly compaction) and re-check.
    dynamic.merge();
    println!(
        "  after compaction: {} records, overlay {}, merges {}",
        dynamic.len(),
        dynamic.overlay_len(),
        dynamic.merges()
    );
    let res = dynamic.stat_query(&probe.fingerprint, &model, &opts);
    assert!(res
        .matches
        .iter()
        .any(|m| m.id == new_id && m.tc == probe.tc));
    println!("  new material still retrievable after compaction: true");

    std::fs::remove_file(&tmp).ok();
    println!("done");
}
