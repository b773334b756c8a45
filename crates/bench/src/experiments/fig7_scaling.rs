//! Fig. 7 — mean search time against database size: the S³ statistical
//! search vs the sequential scan, over geometrically growing databases.
//!
//! Expected shape (paper): the sequential scan is linear; the S³ search is
//! strongly sub-linear while the database fits in memory, so the gap widens;
//! once the pseudo-disk strategy must stream sections, a linear loading term
//! appears and the two slopes become parallel (the gain tends to a constant
//! — 2,500× at the paper's largest DB).
//!
//! Both sides refine at the same ε — the S³ search keeps the records of its
//! blocks within ε of the query, the scan every record within ε — so the
//! ratio compares two ways of answering one question.

use crate::report::{Experiment, Scale, Series};
use crate::timing::mean_time;
use crate::workload::{distorted_queries, extracted_pool, FingerprintSampler};
use s3_core::pseudo_disk::{DiskIndex, WriteOpts};
use s3_core::{
    IsotropicNormal, MemStorage, Refine, S3Index, SketchParams, StatQueryOpts, DEFAULT_SKETCH_BITS,
};
use s3_hilbert::HilbertCurve;
use s3_stats::NormDistribution;
use s3_video::FINGERPRINT_DIMS;

/// Runs the scaling sweep.
pub fn run(scale: Scale) -> Experiment {
    let alpha = 0.80;
    let sigma = 20.0;
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![1 << 13, 1 << 15, 1 << 17, 1 << 19, 1 << 21],
        Scale::Full => vec![
            1 << 13,
            1 << 15,
            1 << 17,
            1 << 19,
            1 << 21,
            1 << 22,
            1 << 23,
        ],
    };
    let n_queries = scale.pick(10, 30);
    // Pseudo-disk memory budget: small enough that the largest DBs must
    // stream multiple sections (the linear regime of the figure).
    let mem_budget: u64 = scale.pick(4 << 20, 32 << 20);

    let pool = extracted_pool(scale.pick(3, 6), 60, 0xF17);
    let model = IsotropicNormal::new(FINGERPRINT_DIMS, sigma);
    let eps = NormDistribution::new(FINGERPRINT_DIMS as u32, sigma).quantile(alpha);

    let mut xs = Vec::new();
    let mut stat_ms = Vec::new();
    let mut scan_ms = Vec::new();
    let mut disk_ms = Vec::new();
    let mut depths_used: Vec<(usize, u32)> = Vec::new();

    for &n in &sizes {
        let mut sampler = FingerprintSampler::new(pool.clone(), 20.0, n as u64);
        let batch = sampler.batch(n);
        let queries = distorted_queries(&batch, n_queries, sigma, n as u64 + 1);
        let index = S3Index::build(HilbertCurve::paper(), batch);
        // p_min learned per database size, as in §IV-A; refined at ε like
        // the scan.
        let opts = StatQueryOpts {
            refine: Refine::Range(eps),
            ..StatQueryOpts::learned(alpha, &index, &model)
        };
        depths_used.push((n, opts.depth));

        let mut it = queries.iter().cycle();
        let d_stat = mean_time(1, n_queries, || {
            let dq = it.next().unwrap();
            std::hint::black_box(index.stat_query(&dq.query, &model, &opts));
        });

        // Sequential scan: far fewer repetitions (it is the slow baseline).
        let scan_reps = 3.min(n_queries);
        let mut it = queries.iter().cycle();
        let d_scan = mean_time(0, scan_reps, || {
            let dq = it.next().unwrap();
            std::hint::black_box(index.seq_scan(&dq.query, eps));
        });

        // Pseudo-disk batched search at a constrained memory budget, over
        // the bytes (and sketch) a written index file holds.
        let bytes = DiskIndex::encode_to_vec(&index, WriteOpts::default()).expect("encode");
        let mut disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes))).expect("open");
        let sketch = disk
            .build_sketch(SketchParams {
                bits_per_entry: DEFAULT_SKETCH_BITS,
                depth: 0,
            })
            .expect("sketch");
        disk.attach_sketch(sketch);
        let qrefs: Vec<&[u8]> = queries.iter().map(|dq| dq.query.as_slice()).collect();
        let batch_res = disk
            .stat_query_batch(&qrefs, &model, &opts, mem_budget)
            .expect("disk batch");
        let d_disk = batch_res.timing.per_query(qrefs.len());

        xs.push(n as f64);
        stat_ms.push(d_stat.as_secs_f64() * 1e3);
        scan_ms.push(d_scan.as_secs_f64() * 1e3);
        disk_ms.push(d_disk.as_secs_f64() * 1e3);
    }

    let mut e = Experiment::new(
        "fig7_scaling",
        "Fig. 7: mean search time (ms) vs database size",
        "db-size",
        "ms",
    );
    e.note(format!(
        "alpha={alpha}, sigma={sigma}, eps={eps:.1} (both sides refine at eps), {n_queries} queries, pseudo-disk budget {} MiB",
        mem_budget >> 20
    ));
    e.note("paper: scan linear; S3 sub-linear then parallel once loading dominates");
    e.note(format!("learned p_min per size: {depths_used:?}"));
    e.push_series(Series::new("sequential-scan", xs.clone(), scan_ms));
    e.push_series(Series::new("s3-statistical", xs.clone(), stat_ms));
    e.push_series(Series::new("s3-pseudo-disk", xs, disk_ms));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "several minutes; run explicitly or via the fig7 binary"]
    fn scan_linear_s3_sublinear() {
        let e = run(Scale::Quick);
        let scan = &e.series[0];
        let stat = &e.series[1];
        let n = scan.x.len();
        // Growth factor across the sweep (x grows 256x).
        let scan_growth = scan.y[n - 1] / scan.y[0].max(1e-6);
        let stat_growth = stat.y[n - 1] / stat.y[0].max(1e-6);
        assert!(
            scan_growth > 30.0,
            "scan must grow ~linearly: factor {scan_growth}"
        );
        assert!(
            stat_growth < scan_growth / 3.0,
            "S3 must be sub-linear: {stat_growth} vs scan {scan_growth}"
        );
        // At the largest DB the S3 search must be much faster than the scan.
        assert!(stat.y[n - 1] * 10.0 < scan.y[n - 1]);
    }
}
