//! Continuous TV monitoring (§V-D): a synthetic broadcast stream with two
//! embedded (and attacked) copies of archived material is monitored against
//! a reference database; the monitor reports merged detection events and the
//! real-time factor.
//!
//! ```sh
//! cargo run --release --example tv_monitoring
//! ```

use s3::cbcd::{DbBuilder, Detector, DetectorConfig, Monitor, FRAME_RATE};
use s3::video::{
    extract_fingerprints, render_ahead, ExtractorParams, ProceduralVideo, StreamingExtractor,
    Transform, TransformChain, TransformedVideo, VideoSource,
};
use std::convert::Infallible;

fn main() {
    let params = ExtractorParams::default();
    let (w, h) = (96, 72);

    // 1. The archive.
    println!("building the reference archive ...");
    let mut builder = DbBuilder::new(params);
    for i in 0..8u64 {
        let video = ProceduralVideo::new(w, h, 100, 0xA2C41 + (i << 8));
        builder.add_video(&format!("archive-{i}"), &video);
    }
    let db = builder.build();
    println!(
        "archive: {} videos, {} fingerprints",
        db.video_count(),
        db.fingerprint_count()
    );

    // 2. A broadcast: live content, then archive-3 re-broadcast with a gamma
    //    shift, live again, then archive-5 resized, then live.
    println!("assembling the broadcast stream ...");
    let live1 = ProceduralVideo::new(w, h, 120, 0x11111);
    let live2 = ProceduralVideo::new(w, h, 100, 0x22222);
    let live3 = ProceduralVideo::new(w, h, 120, 0x33333);
    let rerun_a_src = ProceduralVideo::new(w, h, 100, 0xA2C41 + (3 << 8));
    let rerun_a = TransformedVideo::new(
        &rerun_a_src,
        TransformChain::new(vec![Transform::Gamma { wgamma: 1.3 }]),
        1,
    );
    let rerun_b_src = ProceduralVideo::new(w, h, 100, 0xA2C41 + (5 << 8));
    let rerun_b = TransformedVideo::new(
        &rerun_b_src,
        TransformChain::new(vec![Transform::Resize { wscale: 0.92 }]),
        2,
    );

    let segments: [(&dyn VideoSource, &str); 5] = [
        (&live1, "live"),
        (&rerun_a, "rerun archive-3 (gamma)"),
        (&live2, "live"),
        (&rerun_b, "rerun archive-5 (resize)"),
        (&live3, "live"),
    ];

    // 3. Monitor the stream as it arrives: frames go through one streaming
    //    extractor and its fingerprints are searched in batches as they come
    //    out. The decision threshold is calibrated on non-referenced material
    //    first (§V-C).
    // Negative material must be at least as long as the monitoring window,
    // or the spurious-score tail is under-sampled.
    let negatives: Vec<_> = (0..4u64)
        .map(|i| {
            let v = ProceduralVideo::new(w, h, 250, 0x0FF_1000 + i);
            extract_fingerprints(&v, db.extractor_params())
        })
        .collect();
    let probe = Detector::new(&db, DetectorConfig::default());
    let cal = s3::cbcd::calibrate_monitor_threshold(&probe, &negatives);
    println!("calibrated n_sim threshold: {}", cal.min_votes);
    let mut config = DetectorConfig::default();
    config.vote.min_votes = cal.min_votes;
    let detector = Detector::new(&db, config);
    let mut monitor = Monitor::new(&detector);
    let mut extractor = StreamingExtractor::new(*db.extractor_params());
    let mut pending = Vec::new();
    let mut base = 0;
    for (seg, label) in segments {
        println!("  [{base:>4} ..] {label}");
        // Frames are rendered ahead on every core and pushed in order.
        let Ok(()) = render_ahead(seg, |frame| {
            pending.extend(extractor.push(frame));
            if pending.len() >= 25 {
                monitor.push(&pending);
                pending.clear();
            }
            Ok::<_, Infallible>(())
        });
        base += seg.len();
    }
    pending.extend(extractor.finish());
    monitor.push(&pending);
    let (events, stats) = monitor.finish();

    println!("\nevents:");
    for e in &events {
        println!(
            "  {} (id {}) offset {:+.0}, strongest n_sim {}, windows tc {:.0}..{:.0}",
            detector.db().name(e.id).unwrap_or("?"),
            e.id,
            e.offset,
            e.nsim,
            e.first_tc,
            e.last_tc,
        );
    }
    println!(
        "\nprocessed {} fingerprints over {} voting windows in {:.2?}",
        stats.fingerprints, stats.windows, stats.elapsed
    );
    println!(
        "real-time factor at {FRAME_RATE} fps: {:.1}x",
        stats.real_time_factor()
    );

    assert!(
        events.iter().any(|e| e.id == 3),
        "rerun of archive-3 missed"
    );
    assert!(
        events.iter().any(|e| e.id == 5),
        "rerun of archive-5 missed"
    );
}
