//! Fig. 5 & 6 — statistical query vs exact ε-range query at equal
//! expectation: retrieval rate (Fig. 5) and mean search time (Fig. 6) as
//! functions of α.
//!
//! Workload as in §V-A: queries are stored fingerprints plus iid `N(0, σ_Q)`
//! distortion, so the distortion law is *known exactly*; the ε of the range
//! query is the α-quantile of the distortion-norm law, making both searches
//! target the same expectation.
//!
//! Expected shape (paper): equal retrieval rates, but the statistical query
//! is one to two orders of magnitude faster — the sphere intersects far more
//! bounding regions than the mass-ranked block set.

use crate::report::{Experiment, Scale, Series};
use crate::timing::mean_time;
use crate::workload::{distorted_queries, extracted_pool, FingerprintSampler};
use s3_core::{IsotropicNormal, S3Index, StatQueryOpts};
use s3_hilbert::HilbertCurve;
use s3_stats::NormDistribution;
use s3_video::FINGERPRINT_DIMS;

/// Outcome of the sweep: one experiment per figure.
pub struct StatVsRange {
    /// Fig. 5 — retrieval rates.
    pub retrieval: Experiment,
    /// Fig. 6 — mean per-query times (ms).
    pub time: Experiment,
}

/// Runs the sweep.
pub fn run(scale: Scale) -> StatVsRange {
    let sigma_q = 18.0;
    let db_size = scale.pick(30_000, 300_000);
    let n_queries = scale.pick(100, 1000);
    let timed_queries = scale.pick(15, 60);
    let alphas = [0.30, 0.50, 0.70, 0.80, 0.90, 0.95];

    let pool = extracted_pool(scale.pick(3, 8), 60, 0xF15);
    let mut sampler = FingerprintSampler::new(pool, 20.0, 0xF15_0001);
    let batch = sampler.batch(db_size);
    let queries = distorted_queries(&batch, n_queries, sigma_q, 0xF15_0002);
    let index = S3Index::build(HilbertCurve::paper(), batch);

    let model = IsotropicNormal::new(FINGERPRINT_DIMS, sigma_q);
    let law = NormDistribution::new(FINGERPRINT_DIMS as u32, sigma_q);
    // p_min learned at retrieval start (§IV-A).
    let depth = StatQueryOpts::learned(0.8, &index, &model).depth;

    let mut stat_rate = Vec::new();
    let mut range_rate = Vec::new();
    let mut stat_ms = Vec::new();
    let mut range_ms = Vec::new();
    let mut bbox_ms = Vec::new();

    for &alpha in &alphas {
        let opts = StatQueryOpts::new(alpha, depth);
        let eps = law.quantile(alpha);

        // Retrieval rates: fraction of queries whose original record is in
        // the result set. The range query measures against the same target.
        let mut stat_hits = 0usize;
        let mut range_hits = 0usize;
        for dq in &queries {
            if index
                .stat_query(&dq.query, &model, &opts)
                .matches
                .iter()
                .any(|m| m.id == dq.id && m.tc == dq.tc)
            {
                stat_hits += 1;
            }
            if index
                .range_query(&dq.query, eps, depth)
                .matches
                .iter()
                .any(|m| m.id == dq.id && m.tc == dq.tc)
            {
                range_hits += 1;
            }
        }
        stat_rate.push(stat_hits as f64 * 100.0 / queries.len() as f64);
        range_rate.push(range_hits as f64 * 100.0 / queries.len() as f64);

        // Mean per-query times over a smaller timed subset.
        let subset = &queries[..timed_queries.min(queries.len())];
        let mut it = subset.iter().cycle();
        let d_stat = mean_time(2, subset.len(), || {
            let dq = it.next().unwrap();
            std::hint::black_box(index.stat_query(&dq.query, &model, &opts));
        });
        let mut it = subset.iter().cycle();
        let d_range = mean_time(2, subset.len(), || {
            let dq = it.next().unwrap();
            std::hint::black_box(index.range_query(&dq.query, eps, depth));
        });
        // Classical rectangle-filter baseline (fewer reps: it is the slow one).
        let bbox_reps = (subset.len() / 3).max(3);
        let mut it = subset.iter().cycle();
        let d_bbox = mean_time(0, bbox_reps, || {
            let dq = it.next().unwrap();
            std::hint::black_box(index.range_query_bbox(&dq.query, eps, depth));
        });
        stat_ms.push(d_stat.as_secs_f64() * 1e3);
        range_ms.push(d_range.as_secs_f64() * 1e3);
        bbox_ms.push(d_bbox.as_secs_f64() * 1e3);
    }

    let pct: Vec<f64> = alphas.iter().map(|a| a * 100.0).collect();

    let mut retrieval = Experiment::new(
        "fig5_retrieval_vs_alpha",
        "Fig. 5: retrieval rate vs alpha — statistical vs epsilon-range",
        "alpha-%",
        "rate-%",
    );
    retrieval.note(format!(
        "DB={db_size} fingerprints, {n_queries} queries, sigma_Q={sigma_q}, depth p={depth}"
    ));
    retrieval.note("paper: the two rates coincide (the sphere buys no recall)");
    retrieval.push_series(Series::new("statistical", pct.clone(), stat_rate));
    retrieval.push_series(Series::new("range", pct.clone(), range_rate));
    retrieval.push_series(Series::new("alpha", pct.clone(), pct.clone()));

    let mut time = Experiment::new(
        "fig6_time_vs_alpha",
        "Fig. 6: mean search time (ms) vs alpha — statistical vs epsilon-range",
        "alpha-%",
        "ms",
    );
    time.note(format!(
        "same workload; {timed_queries} timed queries per point"
    ));
    time.note("paper: statistical 17-132x faster depending on alpha");
    time.note("range-exact = modern ball-cover filter; range-bbox = classical rectangle filter (Lawder-style)");
    time.push_series(Series::new("statistical", pct.clone(), stat_ms));
    time.push_series(Series::new("range-exact", pct.clone(), range_ms));
    time.push_series(Series::new("range-bbox", pct, bbox_ms));

    StatVsRange { retrieval, time }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "several minutes; run explicitly or via the fig5 binary"]
    fn rates_comparable_and_stat_faster() {
        let out = run(Scale::Quick);
        let stat = &out.retrieval.series[0].y;
        let range = &out.retrieval.series[1].y;
        for (s, r) in stat.iter().zip(range) {
            assert!((s - r).abs() <= 15.0, "rates diverge: stat={s} range={r}");
        }
        // At high alpha the statistical query must win on time.
        let stat_ms = &out.time.series[0].y;
        let range_ms = &out.time.series[1].y;
        let last = stat_ms.len() - 1;
        assert!(
            stat_ms[last] < range_ms[last],
            "statistical must be faster: {} vs {} ms",
            stat_ms[last],
            range_ms[last]
        );
    }
}
