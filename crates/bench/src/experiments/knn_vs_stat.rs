//! Experiment — why k-NN is the wrong primitive for copy detection (§I–II).
//!
//! "In a large TV archives database, several video clips can be duplicated
//! 600 times, whereas other video clips are unique." A k-NN query returns a
//! fixed k, so when a fingerprint has many near-duplicates the surplus is
//! silently dropped; the statistical query returns however many fall in the
//! confidence region. This experiment plants duplicate groups of varying
//! size and measures how much of each group the two paradigms recover.

use crate::report::{Experiment, Scale, Series};
use crate::workload::{extracted_pool, FingerprintSampler};
use s3_core::knn::knn;
use s3_core::{IsotropicNormal, RecordBatch, S3Index, StatQueryOpts};
use s3_hilbert::HilbertCurve;
use s3_video::FINGERPRINT_DIMS;

/// Runs the duplicate-recovery comparison.
pub fn run(scale: Scale) -> Experiment {
    let group_sizes = [1usize, 5, 20, 60, 200];
    let k = 10usize;
    let background = scale.pick(20_000, 100_000);
    let jitter = 4.0; // duplicates are near-identical broadcasts

    let pool = extracted_pool(scale.pick(3, 6), 60, 0xD0D0);
    let mut sampler = FingerprintSampler::new(pool.clone(), 20.0, 0xD0D1);
    let mut batch = RecordBatch::with_capacity(FINGERPRINT_DIMS, background + 300);

    // Duplicate groups: group g replicates one fingerprint `group_sizes[g]`
    // times with tiny jitter; id encodes the group.
    let mut dup_sampler = FingerprintSampler::new(pool, 0.0, 0xD0D2);
    let mut probes = Vec::new();
    for (g, &size) in group_sizes.iter().enumerate() {
        let base = dup_sampler.sample();
        probes.push(base);
        let mut jit = FingerprintSampler::new(vec![base], jitter, g as u64);
        for r in 0..size {
            batch.push(&jit.sample(), g as u32, r as u32);
        }
    }
    // Background records with disjoint ids.
    let bg = sampler.batch(background);
    for i in 0..bg.len() {
        batch.push(bg.fingerprint(i), 1000 + bg.id(i), bg.tc(i));
    }

    let index = S3Index::build(HilbertCurve::paper(), batch);
    let model = IsotropicNormal::new(FINGERPRINT_DIMS, 8.0);
    let opts = StatQueryOpts::learned(0.9, &index, &model);
    let scan_depth = opts.depth;

    let mut stat_recall = Vec::new();
    let mut knn_recall = Vec::new();
    for (g, &size) in group_sizes.iter().enumerate() {
        let q = &probes[g];
        let stat = index.stat_query(q, &model, &opts);
        let found_stat = stat.matches.iter().filter(|m| m.id == g as u32).count();
        stat_recall.push(found_stat as f64 / size as f64);

        let res = knn(&index, q, k, scan_depth);
        let found_knn = res.neighbors.iter().filter(|m| m.id == g as u32).count();
        knn_recall.push(found_knn as f64 / size as f64);
    }

    let xs: Vec<f64> = group_sizes.iter().map(|&s| s as f64).collect();
    let mut e = Experiment::new(
        "knn_vs_stat",
        "k-NN vs statistical query: recall of duplicate groups (k=10, alpha=90%)",
        "group-size",
        "recall",
    );
    e.note(format!(
        "background {background} fingerprints, duplicate jitter sigma {jitter}"
    ));
    e.note("expected: k-NN recall collapses as the group outgrows k; statistical stays high");
    e.push_series(Series::new("statistical", xs.clone(), stat_recall));
    e.push_series(Series::new(format!("knn-k{k}"), xs, knn_recall));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_caps_at_k_statistical_does_not() {
        let e = run(Scale::Quick);
        let stat = &e.series[0].y;
        let knn = &e.series[1].y;
        // Large groups: k-NN bounded by k/size, statistical must beat it.
        let last = stat.len() - 1; // group of 200 with k = 10
        assert!(knn[last] <= 10.0 / 200.0 + 1e-9, "knn recall {}", knn[last]);
        assert!(
            stat[last] > 0.5,
            "statistical should recover most of the group: {}",
            stat[last]
        );
        // Small groups: both fine.
        assert!(stat[0] >= 0.99 && knn[0] >= 0.99);
    }
}
