//! Integration tests of the search layer's statistical guarantees, using the
//! workload generators end to end (index + model + queries across crates).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3::core::{DiagonalNormal, IsotropicNormal, RecordBatch, Refine, S3Index, StatQueryOpts};
use s3::hilbert::HilbertCurve;
use s3::stats::NormDistribution;

const DIMS: usize = 20;

/// Fingerprints concentrated around mid-range, like real normalized
/// descriptors (uniform random bytes put most of a σ≈15 model's mass outside
/// the byte cube, which makes α unreachable and the comparison degenerate).
fn random_batch(n: usize, seed: u64) -> RecordBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = RecordBatch::with_capacity(DIMS, n);
    let mut fp = [0u8; DIMS];
    for i in 0..n {
        for c in fp.iter_mut() {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let nrm = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            *c = (128.0 + 35.0 * nrm).clamp(0.0, 255.0) as u8;
        }
        batch.push(&fp, i as u32, 0);
    }
    batch
}

fn gaussian_probe(rng: &mut StdRng, base: &[u8], sigma: f64) -> Vec<u8> {
    base.iter()
        .map(|&c| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (f64::from(c) + sigma * n).clamp(0.0, 255.0) as u8
        })
        .collect()
}

/// The statistical query's defining guarantee: when the distortion really
/// follows the model, a query of expectation α retrieves the original at
/// rate ≥ α (up to sampling error). Checked at several α.
#[test]
fn empirical_retrieval_meets_alpha() {
    let index = S3Index::build(HilbertCurve::paper(), random_batch(20_000, 11));
    let sigma = 14.0;
    let model = IsotropicNormal::new(DIMS, sigma);
    let mut rng = StdRng::seed_from_u64(12);
    let n_queries = 150;

    for alpha in [0.5, 0.8, 0.95] {
        let opts = StatQueryOpts::learned(alpha, &index, &model);
        let mut hits = 0;
        for qi in 0..n_queries as usize {
            let target = (qi * 131) % index.len();
            let probe = gaussian_probe(&mut rng, index.records().fingerprint(target), sigma);
            let res = index.stat_query(&probe, &model, &opts);
            if res.matches.iter().any(|m| m.index == target) {
                hits += 1;
            }
        }
        let rate = f64::from(hits) / n_queries as f64;
        // Binomial noise at n=150 is about ±4 %; allow 8 %.
        assert!(
            rate >= alpha - 0.08,
            "alpha={alpha}: rate {rate} violates the expectation guarantee"
        );
    }
}

/// Statistical vs ε-range at matched expectation: comparable recall, fewer
/// scanned records for the statistical filter (the Fig. 5/6 claim, asserted
/// on work counters rather than wall clock for CI stability).
#[test]
fn statistical_scans_less_than_range_at_same_expectation() {
    let index = S3Index::build(HilbertCurve::paper(), random_batch(30_000, 21));
    let sigma = 14.0;
    let alpha = 0.9;
    let model = IsotropicNormal::new(DIMS, sigma);
    let eps = NormDistribution::new(DIMS as u32, sigma).quantile(alpha);
    let opts = StatQueryOpts::learned(alpha, &index, &model);
    let mut rng = StdRng::seed_from_u64(22);

    let mut stat_scanned = 0usize;
    let mut range_scanned = 0usize;
    let mut stat_hits = 0usize;
    let mut range_hits = 0usize;
    let n_queries = 40;
    for qi in 0..n_queries as usize {
        let target = (qi * 377) % index.len();
        let probe = gaussian_probe(&mut rng, index.records().fingerprint(target), sigma);
        let s = index.stat_query(&probe, &model, &opts);
        stat_scanned += s.stats.entries_scanned;
        stat_hits += usize::from(s.matches.iter().any(|m| m.index == target));
        let r = index.range_query(&probe, eps, opts.depth);
        range_scanned += r.stats.entries_scanned;
        range_hits += usize::from(r.matches.iter().any(|m| m.index == target));
    }
    assert!(
        stat_scanned < range_scanned,
        "statistical filter must be more selective: {stat_scanned} vs {range_scanned}"
    );
    let diff = (stat_hits as i64 - range_hits as i64).abs();
    assert!(diff <= 6, "recall comparable: {stat_hits} vs {range_hits}");
}

/// Refinement policies are nested: Range ⊆ All.
#[test]
fn refinement_policies_nest() {
    let index = S3Index::build(HilbertCurve::paper(), random_batch(10_000, 31));
    let sigma = 16.0;
    let model = IsotropicNormal::new(DIMS, sigma);
    let probe = index.records().fingerprint(1234).to_vec();

    let base = StatQueryOpts::learned(0.9, &index, &model);
    let all = index.stat_query(
        &probe,
        &model,
        &StatQueryOpts {
            refine: Refine::All,
            ..base
        },
    );
    let eps = NormDistribution::new(DIMS as u32, sigma).quantile(0.99);
    let range = index.stat_query(
        &probe,
        &model,
        &StatQueryOpts {
            refine: Refine::Range(eps),
            ..base
        },
    );
    let all_set: std::collections::HashSet<usize> = all.matches.iter().map(|m| m.index).collect();
    let range_set: std::collections::HashSet<usize> =
        range.matches.iter().map(|m| m.index).collect();
    assert!(range_set.is_subset(&all_set));
}

/// The diagonal model degenerates to the isotropic one when all σ_j match.
#[test]
fn diagonal_model_with_equal_sigmas_matches_isotropic() {
    let index = S3Index::build(HilbertCurve::paper(), random_batch(5_000, 41));
    let iso = IsotropicNormal::new(DIMS, 15.0);
    let diag = DiagonalNormal::new(&[15.0; DIMS]);
    let opts = StatQueryOpts::learned(0.85, &index, &iso);
    let probe = index.records().fingerprint(777).to_vec();
    let a = index.stat_query(&probe, &iso, &opts);
    let b = index.stat_query(&probe, &diag, &opts);
    let ai: Vec<usize> = a.matches.iter().map(|m| m.index).collect();
    let bi: Vec<usize> = b.matches.iter().map(|m| m.index).collect();
    assert_eq!(ai, bi);
    assert!((a.stats.mass - b.stats.mass).abs() < 1e-9);
}

/// Query workload counters are internally consistent.
#[test]
fn query_stats_are_consistent() {
    let index = S3Index::build(HilbertCurve::paper(), random_batch(8_000, 51));
    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::learned(0.8, &index, &model);
    let mut rng = StdRng::seed_from_u64(52);
    for _ in 0..20 {
        let target = rng.gen_range(0..index.len());
        let probe = gaussian_probe(&mut rng, index.records().fingerprint(target), 12.0);
        let res = index.stat_query(&probe, &model, &opts);
        assert!(res.stats.ranges_scanned <= res.stats.blocks_selected);
        assert!(res.matches.len() <= res.stats.entries_scanned);
        assert!(res.stats.mass <= 1.0 + 1e-9);
        assert!(!res.stats.truncated, "budget must suffice at this scale");
    }
}
