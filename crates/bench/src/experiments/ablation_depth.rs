//! Ablation — the `T(p) = T_f(p) + T_r(p)` partition-depth trade-off
//! (§IV-A): filter work grows with `p`, refinement work shrinks, and the
//! total has a single practical minimum `p_min` that the system learns at
//! retrieval start.

use crate::report::{Experiment, Scale, Series};
use crate::timing::mean_time;
use crate::workload::{distorted_queries, extracted_pool, FingerprintSampler};
use s3_core::autotune::{learn_depth_on, tune_depth};
use s3_core::{IsotropicNormal, S3Index, StatQueryOpts};
use s3_hilbert::HilbertCurve;
use s3_video::FINGERPRINT_DIMS;

/// Runs the depth sweep: per depth, the measured query time (this is a
/// paper-figure bin, so it keeps a stopwatch) beside the learner's counted
/// work and the cost it predicts from it — the fit of the cost model.
pub fn run(scale: Scale) -> Experiment {
    let db_size = scale.pick(50_000, 400_000);
    let n_queries = scale.pick(12, 40);
    let depths: Vec<u32> = (2..=20).step_by(2).collect();

    let pool = extracted_pool(scale.pick(3, 6), 60, 0xAB1);
    let mut sampler = FingerprintSampler::new(pool, 20.0, 0xAB1_0001);
    let batch = sampler.batch(db_size);
    let queries = distorted_queries(&batch, n_queries, 15.0, 0xAB1_0002);
    let index = S3Index::build(HilbertCurve::paper(), batch);
    let model = IsotropicNormal::new(FINGERPRINT_DIMS, 15.0);

    let qvecs: Vec<Vec<u8>> = queries.iter().map(|dq| dq.query.to_vec()).collect();
    let sample: Vec<&[u8]> = qvecs.iter().map(|q| q.as_slice()).collect();
    let opts = StatQueryOpts::new(0.8, 0);
    let swept = tune_depth(&index, &model, &opts, &sample, &depths);
    let learned = learn_depth_on(&index, &model, &opts, &sample);
    let time_ms: Vec<f64> = depths
        .iter()
        .map(|&depth| {
            let opts = StatQueryOpts { depth, ..opts };
            let per_pass = mean_time(1, 3, || {
                for q in &sample {
                    std::hint::black_box(index.stat_query(q, &model, &opts));
                }
            });
            per_pass.as_secs_f64() * 1e3 / sample.len() as f64
        })
        .collect();

    let mut e = Experiment::new(
        "ablation_depth",
        "Ablation: T(p) trade-off — filter vs refinement work vs depth p",
        "depth-p",
        "value",
    );
    e.note(format!(
        "DB={db_size}, alpha=0.8, sigma=15; learned p_min = {} (ascent over 1..={}, {} nodes expanded); cheapest swept depth = {}",
        learned.best_depth,
        learned.profiles.len(),
        learned.nodes_expanded,
        swept.best_depth
    ));
    e.note("predicted-cost-records = the learner's score, DepthProfile::cost (node cost x filter-nodes + scanned-entries)");
    let xs: Vec<f64> = depths.iter().map(|&d| f64::from(d)).collect();
    e.push_series(Series::new("time-ms", xs.clone(), time_ms));
    e.push_series(Series::new(
        "filter-nodes",
        xs.clone(),
        swept.profiles.iter().map(|p| p.avg_nodes).collect(),
    ));
    e.push_series(Series::new(
        "scanned-entries",
        xs.clone(),
        swept.profiles.iter().map(|p| p.avg_entries).collect(),
    ));
    e.push_series(Series::new(
        "predicted-cost-records",
        xs,
        swept.profiles.iter().map(|p| p.cost()).collect(),
    ));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "minutes-scale; run via the ablation_depth binary"]
    fn tradeoff_shape() {
        let e = run(Scale::Quick);
        let nodes = &e.series[1].y;
        let entries = &e.series[2].y;
        assert!(nodes.last().unwrap() > nodes.first().unwrap());
        assert!(entries.last().unwrap() < entries.first().unwrap());
    }
}
