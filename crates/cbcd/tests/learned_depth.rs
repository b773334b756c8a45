//! Where the partition depth comes from, checked on the process-wide filter
//! counters — which is why this binary holds a single test: nothing else may
//! run a filter beside it.

use s3_cbcd::{DbBuilder, Detector, DetectorConfig};
use s3_core::{autotune, IsotropicNormal, StatQueryOpts};
use s3_video::{
    extract_fingerprints, ExtractorParams, ProceduralVideo, Transform, TransformChain,
    TransformedVideo, FINGERPRINT_DIMS,
};

const CLIPS: usize = 4;
const RECORDS: usize = 1 << 15;

fn clip(i: usize) -> ProceduralVideo {
    ProceduralVideo::new(96, 72, 60, 0x1EA2 + ((i as u64) << 12))
}

#[test]
fn depth_is_learned_once_when_the_detector_starts() {
    let filter_nodes = s3_obs::registry().counter("filter.nodes_expanded");

    // Four clips, and an archive around them: their own fingerprints with
    // ±24 of per-component jitter, up to 2^15 records.
    let params = ExtractorParams::default();
    let mut builder = DbBuilder::new(params);
    let mut pool = Vec::new();
    for i in 0..CLIPS {
        let fps = extract_fingerprints(&clip(i), &params);
        pool.extend(fps.iter().map(|f| f.fingerprint));
        builder.add_fingerprints(&format!("clip-{i}"), &fps);
    }
    let mut s = 0x5EEDu64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let filler = RECORDS - pool.len();
    let mut raw = Vec::with_capacity(filler * FINGERPRINT_DIMS);
    for _ in 0..filler {
        let base = pool[(next() % pool.len() as u64) as usize];
        raw.extend(base.iter().map(|&c| {
            let jitter = (next() % 49) as i32 - 24;
            (i32::from(c) + jitter).clamp(0, 255) as u8
        }));
    }
    let tcs: Vec<u32> = (0..filler as u32).collect();
    builder.add_raw("archive", &raw, &tcs);

    // Building the registry learns nothing: no filter runs under it.
    let nodes0 = filter_nodes.get();
    let db = builder.build();
    assert_eq!(db.index().len(), RECORDS);
    assert_eq!(filter_nodes.get(), nodes0);

    // `depth: 0` is exactly the learner's answer, and the learner's whole
    // cost is what `Detector::new` adds to the filter counters.
    let config = DetectorConfig::default();
    assert_eq!(config.query.depth, 0);
    let model = IsotropicNormal::new(FINGERPRINT_DIMS, config.sigma);
    let tuned = autotune::learn_depth(db.index(), &model, &config.query);
    assert!(tuned.nodes_expanded <= 100_000, "{tuned:?}");
    let nodes1 = filter_nodes.get();
    assert_eq!(nodes1 - nodes0, tuned.nodes_expanded);
    let learned = Detector::new(&db, config.clone());
    assert_eq!(learned.config().query.depth, tuned.best_depth);
    assert_eq!(filter_nodes.get() - nodes1, tuned.nodes_expanded);

    // A depth the caller names is left alone, at no cost.
    let named = DetectorConfig {
        query: StatQueryOpts {
            depth: 18,
            ..config.query
        },
        ..config
    };
    let nodes2 = filter_nodes.get();
    let deep = Detector::new(&db, named);
    assert_eq!(deep.config().query.depth, 18);
    assert_eq!(filter_nodes.get(), nodes2);

    // Same verdict at the learned depth as at the depth the size heuristic
    // used to pick for 2^15 records.
    let chain = TransformChain::new(vec![
        Transform::Gamma { wgamma: 1.3 },
        Transform::Noise { wnoise: 6.0 },
    ]);
    let original = clip(2);
    let copy = TransformedVideo::new(&original, chain, 555);
    let fps = extract_fingerprints(&copy, &params);
    let (at_learned, at_18) = (
        learned.detect_fingerprints(&fps),
        deep.detect_fingerprints(&fps),
    );
    assert_eq!(at_learned[0].id, 2, "{at_learned:?}");
    assert_eq!(
        (at_learned[0].id, at_learned[0].offset),
        (at_18[0].id, at_18[0].offset)
    );
}
