//! Eq. 5 — pseudo-disk amortisation: `T_tot = T + T_load / N_sig`.
//!
//! With a memory budget below the database size, every batch must stream the
//! touched sections from disk; the per-query share of that loading cost
//! shrinks as the batch grows. The paper sets `N_sig` "automatically … to
//! obtain an average loading time that is sublinear with the database size";
//! this experiment sweeps `N_sig` on a fixed database and shows the hyperbola
//! of eq. 5 flattening onto the in-memory query cost.

use crate::report::{Experiment, Scale, Series};
use crate::workload::{distorted_queries, extracted_pool, FingerprintSampler};
use s3_core::pseudo_disk::DiskIndex;
use s3_core::{IsotropicNormal, S3Index, StatQueryOpts};
use s3_hilbert::HilbertCurve;
use s3_testkit::TempDir;
use s3_video::FINGERPRINT_DIMS;

/// Runs the batch-size sweep.
pub fn run(scale: Scale) -> Experiment {
    let db_size = scale.pick(300_000, 1_000_000);
    let sigma = 15.0;
    let alpha = 0.8;
    let batch_sizes: &[usize] = &[1, 4, 16, 64, 256];
    // Budget far below the DB so sections must stream: a sixteenth of the
    // DB at 60 B/record (the `S3IDX003` record; 36 B since `S3IDX004`), kept
    // in bytes so the budget is the same across the two formats.
    let mem_budget: u64 = (db_size as u64 * 60) / 16;

    let pool = extracted_pool(scale.pick(3, 5), 60, 0xE05);
    let mut sampler = FingerprintSampler::new(pool, 20.0, 0xE05_0001);
    let batch = sampler.batch(db_size);
    let queries = distorted_queries(&batch, *batch_sizes.last().unwrap(), sigma, 0xE05_0002);
    let index = S3Index::build(HilbertCurve::paper(), batch);
    let model = IsotropicNormal::new(FINGERPRINT_DIMS, sigma);
    let opts = StatQueryOpts::learned(alpha, &index, &model);

    let dir = TempDir::new("eq5");
    let path = dir.join("db.s3idx");
    DiskIndex::write(&index, &path).expect("write");
    let disk = DiskIndex::open(&path).expect("open");

    let mut xs = Vec::new();
    let mut total_ms = Vec::new();
    let mut load_ms = Vec::new();
    for &nsig in batch_sizes {
        let qrefs: Vec<&[u8]> = queries[..nsig]
            .iter()
            .map(|dq| dq.query.as_slice())
            .collect();
        let res = disk
            .stat_query_batch(&qrefs, &model, &opts, mem_budget)
            .expect("batch");
        xs.push(nsig as f64);
        total_ms.push(res.timing.per_query(nsig).as_secs_f64() * 1e3);
        load_ms.push(res.timing.load.as_secs_f64() * 1e3 / nsig as f64);
    }
    let mut e = Experiment::new(
        "eq5_nsig",
        "Eq. 5: per-query pseudo-disk cost vs batch size N_sig",
        "n_sig",
        "ms-per-query",
    );
    e.note(format!(
        "DB={db_size}, budget {} MiB, depth p={}; suggested N_sig at 1 ms budget / 500 MB/s: {}",
        mem_budget >> 20,
        opts.depth,
        disk.suggest_nsig(500e6, std::time::Duration::from_millis(1))
    ));
    e.note("expected: per-query load cost ~ T_load / N_sig (hyperbola), total flattens");
    e.push_series(Series::new("total", xs.clone(), total_ms));
    e.push_series(Series::new("load-share", xs, load_ms));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "minutes-scale; run via the eq5_nsig binary"]
    fn amortisation_hyperbola() {
        let e = run(Scale::Quick);
        let load = &e.series[1].y;
        // The per-query load share must drop steeply with batch size.
        assert!(load[0] > 4.0 * load[load.len() - 1]);
        let total = &e.series[0].y;
        assert!(total[0] > total[total.len() - 1]);
    }
}
