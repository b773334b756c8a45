//! Ablation — best-first block selection vs the paper's `t_max` threshold
//! bisection (§IV-A, eq. 3–4).
//!
//! Both compute (near-)identical block sets; the threshold method pays one
//! pruned tree traversal per bisection step, so the best-first variant should
//! dominate on filter work at equal coverage.

use crate::report::{Experiment, Scale, Series};
use crate::timing::mean_time;
use crate::workload::{distorted_queries, extracted_pool, FingerprintSampler};
use s3_core::{FilterAlgo, IsotropicNormal, S3Index, StatQueryOpts};
use s3_hilbert::HilbertCurve;
use s3_video::FINGERPRINT_DIMS;

/// Runs the comparison across α.
pub fn run(scale: Scale) -> Experiment {
    let db_size = scale.pick(50_000, 200_000);
    let n_queries = scale.pick(10, 30);
    let alphas = [0.5, 0.7, 0.8, 0.9];

    let pool = extracted_pool(scale.pick(3, 6), 60, 0xAB2);
    let mut sampler = FingerprintSampler::new(pool, 20.0, 0xAB2_0001);
    let batch = sampler.batch(db_size);
    let queries = distorted_queries(&batch, n_queries, 15.0, 0xAB2_0002);
    let index = S3Index::build(HilbertCurve::paper(), batch);
    let model = IsotropicNormal::new(FINGERPRINT_DIMS, 15.0);
    let depth = StatQueryOpts::learned(0.8, &index, &model).depth;

    let mut bf_ms = Vec::new();
    let mut th_ms = Vec::new();
    let mut bf_nodes = Vec::new();
    let mut th_nodes = Vec::new();

    for &alpha in &alphas {
        let mut bf = StatQueryOpts::new(alpha, depth);
        bf.algo = FilterAlgo::BestFirst;
        let mut th = bf;
        th.algo = FilterAlgo::Threshold { iterations: 25 };

        let mut nodes = 0usize;
        let mut it = queries.iter().cycle();
        let d_bf = mean_time(1, n_queries, || {
            let dq = it.next().unwrap();
            nodes += index
                .stat_query(&dq.query, &model, &bf)
                .stats
                .nodes_expanded;
        });
        bf_nodes.push(nodes as f64 / n_queries as f64);
        bf_ms.push(d_bf.as_secs_f64() * 1e3);

        let mut nodes = 0usize;
        let mut it = queries.iter().cycle();
        let d_th = mean_time(1, n_queries, || {
            let dq = it.next().unwrap();
            nodes += index
                .stat_query(&dq.query, &model, &th)
                .stats
                .nodes_expanded;
        });
        th_nodes.push(nodes as f64 / n_queries as f64);
        th_ms.push(d_th.as_secs_f64() * 1e3);
    }

    let pct: Vec<f64> = alphas.iter().map(|a| a * 100.0).collect();
    let mut e = Experiment::new(
        "ablation_filter",
        "Ablation: best-first vs t_max threshold filtering",
        "alpha-%",
        "value",
    );
    e.note(format!("DB={db_size}, depth p={depth}, 25 bisection steps"));
    e.push_series(Series::new("best-first-ms", pct.clone(), bf_ms));
    e.push_series(Series::new("threshold-ms", pct.clone(), th_ms));
    e.push_series(Series::new("best-first-nodes", pct.clone(), bf_nodes));
    e.push_series(Series::new("threshold-nodes", pct, th_nodes));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "minutes-scale; run via the ablation_filter binary"]
    fn best_first_dominates_on_nodes() {
        let e = run(Scale::Quick);
        let bf_nodes = &e.series[2].y;
        let th_nodes = &e.series[3].y;
        for (b, t) in bf_nodes.iter().zip(th_nodes) {
            assert!(b < t, "best-first {b} nodes vs threshold {t}");
        }
    }
}
