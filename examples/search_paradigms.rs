//! The search paradigms side by side (§I–II of the paper): exact k-NN,
//! probabilistically-controlled approximate k-NN, exact ε-range, and the
//! paper's statistical query — on a database where one fingerprint is
//! duplicated many times (the situation that motivates the statistical
//! query: "several video clips can be duplicated 600 times, whereas other
//! video clips are unique").
//!
//! ```sh
//! cargo run --release --example search_paradigms
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3::core::knn::{knn, knn_approx};
use s3::core::{IsotropicNormal, RecordBatch, S3Index, StatQueryOpts};
use s3::hilbert::HilbertCurve;
use s3::stats::NormDistribution;

fn main() {
    let dims = 20;
    let sigma = 8.0;
    let mut rng = StdRng::seed_from_u64(7);

    // Database: 50k mid-concentrated background fingerprints plus one
    // fingerprint duplicated 150 times (a jingle rebroadcast daily).
    let mut batch = RecordBatch::new(dims);
    let mut fp = vec![0u8; dims];
    let normal = |rng: &mut StdRng| -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    for i in 0..50_000u32 {
        for c in fp.iter_mut() {
            *c = (128.0 + 35.0 * normal(&mut rng)).clamp(0.0, 255.0) as u8;
        }
        batch.push(&fp, 10_000 + i, 0);
    }
    let jingle: Vec<u8> = (0..dims).map(|j| 100 + (j as u8 * 3) % 60).collect();
    for rep in 0..150u32 {
        let copy: Vec<u8> = jingle
            .iter()
            .map(|&c| (f64::from(c) + 3.0 * normal(&mut rng)).clamp(0.0, 255.0) as u8)
            .collect();
        batch.push(&copy, 1, rep * 40);
    }
    let index = S3Index::build(HilbertCurve::paper(), batch);
    println!(
        "database: {} fingerprints, 150 of them copies of one jingle\n",
        index.len()
    );

    // Query: a distorted broadcast of the jingle.
    let probe: Vec<u8> = jingle
        .iter()
        .map(|&c| (f64::from(c) + sigma * normal(&mut rng)).clamp(0.0, 255.0) as u8)
        .collect();
    // One depth for all four paradigms: p_min learned for the statistical
    // query from the index, the model and α (§IV-A).
    let model = IsotropicNormal::new(dims, sigma);
    let opts = StatQueryOpts::learned(0.9, &index, &model);
    let depth = opts.depth;

    // 1. Exact k-NN, k = 10: correct but structurally capped.
    let res = knn(&index, &probe, 10, depth);
    let hits = res.neighbors.iter().filter(|m| m.id == 1).count();
    println!(
        "exact 10-NN        : {hits}/150 jingle copies (scanned {} records) — k caps recall",
        res.entries_scanned
    );

    // 2. Approximate k-NN at 90 % confidence: cheaper, same cap.
    let res = knn_approx(&index, &probe, 10, depth, sigma, 0.9);
    let hits = res.neighbors.iter().filter(|m| m.id == 1).count();
    println!(
        "approx 10-NN @90%  : {hits}/150 jingle copies (scanned {} records)",
        res.entries_scanned
    );

    // 3. Exact ε-range at the 90 % quantile radius.
    let eps = NormDistribution::new(dims as u32, sigma).quantile(0.9);
    let res = index.range_query(&probe, eps, depth);
    let hits = res.matches.iter().filter(|m| m.id == 1).count();
    println!(
        "ε-range (ε={eps:.0})   : {hits}/150 jingle copies (scanned {} records)",
        res.stats.entries_scanned
    );

    // 4. The statistical query at α = 90 %.
    let res = index.stat_query(&probe, &model, &opts);
    let hits = res.matches.iter().filter(|m| m.id == 1).count();
    println!(
        "statistical α=90%  : {hits}/150 jingle copies (scanned {} records, mass {:.2})",
        res.stats.entries_scanned, res.stats.mass
    );
    println!("\nthe voting stage downstream needs *all* coherent copies, which is why");
    println!("the paper rejects fixed-k queries for copy detection (§I-II).");
    assert!(hits > 100, "statistical query must recover most duplicates");
}
