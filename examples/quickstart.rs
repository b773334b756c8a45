//! Quickstart: build an S³ index over fingerprints and run statistical,
//! ε-range and k-NN queries against it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3::core::{knn::knn, IsotropicNormal, RecordBatch, Refine, S3Index, StatQueryOpts};
use s3::hilbert::HilbertCurve;
use s3::stats::NormDistribution;

fn main() {
    let dims = 20;
    let n = 100_000;
    let sigma = 12.0;
    let mut rng = StdRng::seed_from_u64(42);

    // 1. A database of random fingerprints, plus one known reference we will
    //    look for (id 7777).
    println!("building a {n}-record database in [0,255]^{dims} ...");
    let mut batch = RecordBatch::with_capacity(dims, n + 1);
    let mut fp = vec![0u8; dims];
    for i in 0..n {
        rng.fill(fp.as_mut_slice());
        batch.push(&fp, i as u32 / 100, i as u32 % 100);
    }
    let reference: Vec<u8> = (0..dims).map(|j| 100 + (j as u8 % 60)).collect();
    batch.push(&reference, 7777, 0);
    let index = S3Index::build(HilbertCurve::paper(), batch);
    println!("indexed {} records", index.len());

    // 2. A distorted probe of the reference (what a video copy produces).
    let probe: Vec<u8> = reference
        .iter()
        .map(|&c| {
            let noise: f64 = rng.gen_range(-2.0 * sigma..2.0 * sigma);
            (f64::from(c) + noise).clamp(0.0, 255.0) as u8
        })
        .collect();

    // 3. Statistical query: search the region holding alpha = 90 % of the
    //    distortion mass under an isotropic normal model.
    let model = IsotropicNormal::new(dims, sigma);
    let opts = StatQueryOpts {
        refine: Refine::Range(200.0),
        ..StatQueryOpts::learned(0.9, &index, &model)
    };
    let res = index.stat_query(&probe, &model, &opts);
    println!(
        "statistical query: {} matches, {} blocks, {} records scanned, mass {:.3}",
        res.matches.len(),
        res.stats.blocks_selected,
        res.stats.entries_scanned,
        res.stats.mass,
    );
    let found = res.matches.iter().any(|m| m.id == 7777);
    println!("  reference retrieved: {found}");
    assert!(found, "the reference should fall inside the 90 % region");

    // 4. The classical ε-range query at the same expectation, for comparison.
    let eps = NormDistribution::new(dims as u32, sigma).quantile(0.9);
    let res_range = index.range_query(&probe, eps, opts.depth);
    println!(
        "epsilon-range query (eps = {eps:.1}): {} matches, {} blocks, {} records scanned",
        res_range.matches.len(),
        res_range.stats.blocks_selected,
        res_range.stats.entries_scanned,
    );

    // 5. k-NN on the same structure.
    let nn = knn(&index, &probe, 3, opts.depth);
    println!("3-NN distances:");
    for m in &nn.neighbors {
        println!("  id {:>5}  dist {:>8.2}", m.id, m.dist_sq.unwrap().sqrt());
    }
}
