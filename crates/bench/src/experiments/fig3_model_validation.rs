//! Fig. 3 — validation of the distortion model: retrieval rate `R` of the S³
//! technique against the query expectation α.
//!
//! The transformation is the paper's combination (resize + gamma + noise,
//! plus 1-pixel simulated detector imprecision); σ is estimated from the
//! matched distortion vectors; if the iid-normal model were exact, `R` would
//! equal α. The paper observes `|R − α| ≤ 7 %`.

use crate::report::{Experiment, Scale, Series};
use crate::workload::{experiment_extractor_params, FingerprintSampler};
use s3_core::{IsotropicNormal, RecordBatch, S3Index, StatQueryOpts};
use s3_hilbert::HilbertCurve;
use s3_video::{
    estimate_sigma, measure_distortion, MatchedPair, ProceduralVideo, Transform, TransformChain,
    FINGERPRINT_DIMS,
};

/// Collects matched pairs under the paper's combined transformation.
pub fn combined_transform_pairs(scale: Scale) -> Vec<MatchedPair> {
    let n_videos = scale.pick(4, 10);
    let frames = scale.pick(60, 120);
    let params = experiment_extractor_params();
    let chain = TransformChain::new(vec![
        Transform::Resize { wscale: 0.9 },
        Transform::Gamma { wgamma: 1.3 },
        Transform::Noise { wnoise: 6.0 },
    ]);
    let mut pairs = Vec::new();
    for i in 0..n_videos {
        let v = ProceduralVideo::new(96, 72, frames, 0xF13_3000 + i as u64);
        pairs.extend(measure_distortion(&v, &chain, &params, 1.0, 7 + i as u64));
    }
    pairs
}

/// Measures the retrieval rate of statistical queries over matched pairs:
/// the original of each pair is indexed (among `filler` background records);
/// the distorted version is the query; a query is retrieved when its original
/// record comes back.
pub fn retrieval_rate(
    pairs: &[MatchedPair],
    filler: usize,
    sigma: f64,
    alphas: &[f64],
) -> Vec<f64> {
    // Index: originals first (id = pair index), then background filler.
    let mut batch = RecordBatch::with_capacity(FINGERPRINT_DIMS, pairs.len() + filler);
    for (i, p) in pairs.iter().enumerate() {
        batch.push(&p.original, i as u32, 0);
    }
    if filler > 0 {
        let pool: Vec<_> = pairs.iter().map(|p| p.original).collect();
        let mut sampler = FingerprintSampler::new(pool, 25.0, 0xF1113);
        for _ in 0..filler {
            batch.push(&sampler.sample(), u32::MAX, 0);
        }
    }
    let index = S3Index::build(HilbertCurve::paper(), batch);
    let model = IsotropicNormal::new(FINGERPRINT_DIMS, sigma);

    alphas
        .iter()
        .map(|&alpha| {
            let opts = StatQueryOpts::learned(alpha, &index, &model);
            let hits = pairs
                .iter()
                .enumerate()
                .filter(|(i, p)| {
                    index
                        .stat_query(&p.distorted, &model, &opts)
                        .matches
                        .iter()
                        .any(|m| m.id == *i as u32)
                })
                .count();
            hits as f64 / pairs.len() as f64
        })
        .collect()
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Experiment {
    let pairs = combined_transform_pairs(scale);
    assert!(pairs.len() >= 50, "not enough pairs: {}", pairs.len());
    let sigma = estimate_sigma(&pairs);
    let alphas: Vec<f64> = vec![0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95];
    let filler = scale.pick(5_000, 50_000);
    let rates = retrieval_rate(&pairs, filler, sigma, &alphas);

    let mut e = Experiment::new(
        "fig3_model_validation",
        "Fig. 3: retrieval rate R vs statistical-query expectation alpha",
        "alpha",
        "rate",
    );
    e.note(format!(
        "{} pairs, sigma-hat = {sigma:.2}, {filler} background fingerprints",
        pairs.len()
    ));
    e.note("paper: |R - alpha| stays below ~7 % → the iid-normal model is adequate");
    let pct: Vec<f64> = alphas.iter().map(|a| a * 100.0).collect();
    e.push_series(Series::new("alpha", pct.clone(), pct.clone()));
    e.push_series(Series::new(
        "retrieval-rate",
        pct,
        rates.iter().map(|r| r * 100.0).collect(),
    ));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retrieval_tracks_alpha_within_model_error() {
        let e = run(Scale::Quick);
        let alpha = &e.series[0];
        let rate = &e.series[1];
        // The direction of the paper's guarantee: a statistical query of
        // expectation α must retrieve at least ~α of the relevant
        // fingerprints (within model error, reported as ≤7 % in the paper;
        // our synthetic distortion is heavier-tailed, so R sits *above* α
        // at low α — the conservative side — instead of tracking it tightly).
        for (&a, &r) in alpha.y.iter().zip(&rate.y) {
            assert!(r >= a - 12.0, "R={r} under-delivers at alpha={a}");
            assert!((0.0..=100.0).contains(&r));
        }
        // The high-alpha end must deliver high recall.
        let last = *rate.y.last().unwrap();
        assert!(last >= 85.0, "R at alpha=95% too low: {last}");
        // And R cannot systematically decrease with alpha.
        let first = *rate.y.first().unwrap();
        assert!(
            last >= first - 3.0,
            "rate degrades with alpha: {first} → {last}"
        );
    }
}
