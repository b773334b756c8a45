//! Ablation — temporal-only voting (the paper's §III) vs the spatio-temporal
//! extension it names as future work (§VI: "extend the estimation step to the
//! spatial positions of the interest points in order to improve the
//! discriminance").
//!
//! Two quantities matter:
//!
//! * the **spurious score ceiling** on non-referenced material (lower ⇒ the
//!   decision threshold can sit lower ⇒ shorter/weaker copies detectable);
//! * the **true-copy score** (must not collapse under the extra constraint).

use crate::report::{Experiment, Scale, Series};
use crate::workload::experiment_extractor_params;
use s3_cbcd::{vote, DbBuilder, Detector, DetectorConfig, VoteParams};
use s3_video::{
    extract_fingerprints, ProceduralVideo, Transform, TransformChain, TransformedVideo,
};

/// Runs the comparison.
pub fn run(scale: Scale) -> Experiment {
    let n_refs = scale.pick(6, 16);
    let n_negatives = scale.pick(6, 20);
    let frames = scale.pick(80, 120);
    let params = experiment_extractor_params();
    let seed = 0xAB5_0000u64;

    let mut builder = DbBuilder::new(params);
    for i in 0..n_refs {
        let v = ProceduralVideo::new(96, 72, frames, seed ^ ((i as u64) << 16));
        builder.add_video(&format!("ref-{i}"), &v);
    }
    let db = builder.build();
    let detector = Detector::new(&db, DetectorConfig::default());

    let vote_params = VoteParams { min_votes: 1 }; // collect full score distributions

    // Spurious scores on non-referenced clips.
    let mut spurious_t: Vec<f64> = Vec::new();
    let mut spurious_st: Vec<f64> = Vec::new();
    for i in 0..n_negatives {
        let v = ProceduralVideo::new(96, 72, frames, 0xFFFF_0000 + i as u64);
        let fps = extract_fingerprints(&v, &params);
        let buffer = detector.query_buffer(&fps);
        for d in vote(&buffer, &vote_params) {
            spurious_t.push(d.nsim as f64);
        }
        for d in detector.detect_fingerprints_spatial(&fps, &vote_params) {
            spurious_st.push(d.nsim as f64);
            spurious_t.push(d.nsim_temporal as f64);
        }
    }
    let max_t = spurious_t.iter().cloned().fold(0.0, f64::max);
    let max_st = spurious_st.iter().cloned().fold(0.0, f64::max);

    // True-copy scores under a mild and a geometric attack.
    let mut true_t = Vec::new();
    let mut true_st = Vec::new();
    let attacks = [
        TransformChain::new(vec![Transform::Gamma { wgamma: 1.3 }]),
        TransformChain::new(vec![Transform::Shift { wshift: 10.0 }]),
    ];
    for (ai, chain) in attacks.iter().enumerate() {
        let original = ProceduralVideo::new(96, 72, frames, seed ^ ((1u64) << 16));
        let cand = TransformedVideo::new(&original, chain.clone(), 70 + ai as u64);
        let fps = extract_fingerprints(&cand, &params);
        let buffer = detector.query_buffer(&fps);
        let t_best = vote(&buffer, &vote_params)
            .iter()
            .find(|d| d.id == 1)
            .map_or(0.0, |d| d.nsim as f64);
        let st_best = detector
            .detect_fingerprints_spatial(&fps, &vote_params)
            .iter()
            .find(|d| d.id == 1)
            .map_or(0.0, |d| d.nsim as f64);
        true_t.push(t_best);
        true_st.push(st_best);
    }

    let mut e = Experiment::new(
        "ablation_spatial",
        "Ablation: temporal-only vs spatio-temporal voting (§VI extension)",
        "quantity",
        "score",
    );
    e.note(format!(
        "{n_refs} references, {n_negatives} negative clips of {frames} frames"
    ));
    e.note(format!(
        "spurious ceiling: temporal {max_t} vs spatio-temporal {max_st}"
    ));
    e.note("true-copy rows: [gamma 1.3, shift 10%]");
    e.push_series(Series::new(
        "spurious-max",
        vec![0.0, 1.0],
        vec![max_t, max_st],
    ));
    e.push_series(Series::new(
        "true-gamma",
        vec![0.0, 1.0],
        vec![true_t[0], true_st[0]],
    ));
    e.push_series(Series::new(
        "true-shift",
        vec![0.0, 1.0],
        vec![true_t[1], true_st[1]],
    ));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_lowers_spurious_ceiling_keeps_true_scores() {
        let e = run(Scale::Quick);
        let spurious = &e.series[0].y;
        assert!(
            spurious[1] <= spurious[0],
            "spatio-temporal spurious ceiling must not exceed temporal: {spurious:?}"
        );
        for s in &e.series[1..] {
            let (t, st) = (s.y[0], s.y[1]);
            assert!(t > 0.0, "true copy must be scored at all ({})", s.name);
            assert!(
                st >= 0.5 * t,
                "spatial stage must keep most true votes ({}): {st} vs {t}",
                s.name
            );
        }
    }
}
