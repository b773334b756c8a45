//! Ablation — the paper's single-σ isotropic model vs the per-component
//! σ_j diagonal model it names as future work ("investigations in the
//! statistical modeling of the distortion vector … should probably improve
//! the efficiency and the precision", §VI).
//!
//! Both are fitted on the same matched distortion vectors; at equal α the
//! diagonal model should reach at least the isotropic model's retrieval rate
//! while selecting mass where the distortion actually is.

use crate::experiments::fig3_model_validation::combined_transform_pairs;
use crate::report::{Experiment, Scale, Series};
use crate::workload::FingerprintSampler;
use s3_core::{
    DiagonalNormal, DistortionModel, IsotropicNormal, RecordBatch, S3Index, StatQueryOpts,
};
use s3_hilbert::HilbertCurve;
use s3_video::{MatchedPair, FINGERPRINT_DIMS};

fn rate_for(
    index: &S3Index,
    pairs: &[MatchedPair],
    model: &dyn DistortionModel,
    alpha: f64,
) -> (f64, f64) {
    let opts = StatQueryOpts::learned(alpha, index, model);
    let mut hits = 0usize;
    let mut scanned = 0usize;
    for (i, p) in pairs.iter().enumerate() {
        let res = index.stat_query(&p.distorted, model, &opts);
        scanned += res.stats.entries_scanned;
        if res.matches.iter().any(|m| m.id == i as u32) {
            hits += 1;
        }
    }
    (
        hits as f64 / pairs.len() as f64,
        scanned as f64 / pairs.len() as f64,
    )
}

/// Runs the comparison.
pub fn run(scale: Scale) -> Experiment {
    let pairs = combined_transform_pairs(scale);
    let distortions: Vec<Vec<f64>> = pairs
        .iter()
        .map(|p| p.distortion().iter().map(|&d| f64::from(d)).collect())
        .collect();
    let iso = IsotropicNormal::fit(FINGERPRINT_DIMS, distortions.clone());
    let diag = DiagonalNormal::fit(FINGERPRINT_DIMS, distortions, 1.0);

    // Shared index: originals + filler.
    let filler = scale.pick(5_000, 50_000);
    let mut batch = RecordBatch::with_capacity(FINGERPRINT_DIMS, pairs.len() + filler);
    for (i, p) in pairs.iter().enumerate() {
        batch.push(&p.original, i as u32, 0);
    }
    let pool: Vec<_> = pairs.iter().map(|p| p.original).collect();
    let mut sampler = FingerprintSampler::new(pool, 25.0, 0xAB3);
    for _ in 0..filler {
        batch.push(&sampler.sample(), u32::MAX, 0);
    }
    let index = S3Index::build(HilbertCurve::paper(), batch);

    let alphas = [0.5, 0.7, 0.8, 0.9];
    let mut iso_rate = Vec::new();
    let mut diag_rate = Vec::new();
    let mut iso_scan = Vec::new();
    let mut diag_scan = Vec::new();
    for &alpha in &alphas {
        let (r, s) = rate_for(&index, &pairs, &iso, alpha);
        iso_rate.push(r * 100.0);
        iso_scan.push(s);
        let (r, s) = rate_for(&index, &pairs, &diag, alpha);
        diag_rate.push(r * 100.0);
        diag_scan.push(s);
    }

    let pct: Vec<f64> = alphas.iter().map(|a| a * 100.0).collect();
    let mut e = Experiment::new(
        "ablation_model",
        "Ablation: isotropic (paper) vs per-component diagonal distortion model",
        "alpha-%",
        "value",
    );
    e.note(format!(
        "{} pairs; iso sigma = {:.2}; diag severity = {:.2}",
        pairs.len(),
        iso.severity(),
        diag.severity()
    ));
    e.push_series(Series::new("iso-rate-%", pct.clone(), iso_rate));
    e.push_series(Series::new("diag-rate-%", pct.clone(), diag_rate));
    e.push_series(Series::new("iso-scanned", pct.clone(), iso_scan));
    e.push_series(Series::new("diag-scanned", pct, diag_scan));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "minutes-scale; run via the ablation_model binary"]
    fn diagonal_at_least_comparable() {
        let e = run(Scale::Quick);
        let iso = &e.series[0].y;
        let diag = &e.series[1].y;
        for (i, d) in iso.iter().zip(diag) {
            assert!(d >= &(i - 15.0), "diag {d} far below iso {i}");
        }
    }
}
