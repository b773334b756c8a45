//! Workload generation for the experiments.
//!
//! Two regimes are needed:
//!
//! * **Video-backed** — the CBCD robustness experiments (Fig. 3, Table I,
//!   Fig. 8/9) run the real extraction pipeline on procedural videos.
//! * **Archive-model** — the search-scaling experiments (Fig. 5/6/7) need
//!   databases of 10^5–10^7 fingerprints, too many to extract from rendered
//!   video in reasonable time. [`FingerprintSampler`] samples from a pool of
//!   genuinely extracted fingerprints with per-component jitter and a
//!   duplication skew, reproducing the two properties the paper highlights:
//!   fingerprints cluster (backgrounds recur), and some material is
//!   duplicated hundreds of times while other clips are unique.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_core::RecordBatch;
use s3_video::{
    extract_fingerprints, ExtractorParams, Fingerprint, ProceduralVideo, FINGERPRINT_DIMS,
};

/// Extraction parameters used throughout the experiments: the defaults with a
/// bounded point count per key-frame (the paper reports ~50,000 fingerprints
/// per hour, i.e. a few tens per key-frame).
pub fn experiment_extractor_params() -> ExtractorParams {
    let mut p = ExtractorParams::default();
    p.harris.max_points = 12;
    p
}

/// Builds a pool of real extracted fingerprints from procedural videos.
pub fn extracted_pool(n_videos: usize, frames: usize, seed: u64) -> Vec<Fingerprint> {
    let params = experiment_extractor_params();
    let mut pool = Vec::new();
    for i in 0..n_videos {
        let v = ProceduralVideo::new(96, 72, frames, seed ^ ((i as u64) << 24));
        for f in extract_fingerprints(&v, &params) {
            pool.push(f.fingerprint);
        }
    }
    pool
}

/// Samples archive-scale fingerprint databases from an extracted pool.
pub struct FingerprintSampler {
    pool: Vec<Fingerprint>,
    jitter_sigma: f64,
    rng: StdRng,
}

impl FingerprintSampler {
    /// Creates a sampler over `pool` with Gaussian per-component `jitter`.
    ///
    /// # Panics
    /// If the pool is empty or jitter is negative.
    pub fn new(pool: Vec<Fingerprint>, jitter_sigma: f64, seed: u64) -> Self {
        assert!(!pool.is_empty(), "empty fingerprint pool");
        assert!(jitter_sigma >= 0.0);
        FingerprintSampler {
            pool,
            jitter_sigma,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws one fingerprint: a random pool element plus clamped jitter.
    pub fn sample(&mut self) -> Fingerprint {
        let base = self.pool[self.rng.gen_range(0..self.pool.len())];
        let mut out = base;
        if self.jitter_sigma > 0.0 {
            for c in out.iter_mut() {
                let n = self.normal() * self.jitter_sigma;
                *c = (f64::from(*c) + n).clamp(0.0, 255.0) as u8;
            }
        }
        out
    }

    /// Builds a record batch of `n` sampled fingerprints. Ids follow the
    /// paper's skew: video ids of geometric popularity (some ids recur
    /// hundreds of times, most are rare); time-codes are sequential per id.
    pub fn batch(&mut self, n: usize) -> RecordBatch {
        let mut batch = RecordBatch::with_capacity(FINGERPRINT_DIMS, n);
        let mut tc_per_id: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for _ in 0..n {
            let fp = self.sample();
            // Geometric id distribution: id 0 most common.
            let mut id = 0u32;
            while self.rng.gen_bool(0.75) && id < 10_000 {
                id += 1;
            }
            let tc = tc_per_id.entry(id).or_insert(0);
            batch.push(&fp, id, *tc);
            *tc += 4; // key-frames every ~4 frames
        }
        batch
    }

    /// Box-Muller standard normal.
    fn normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// One Fig. 5/6 query: a distorted copy of a stored record, identified by the
/// record's `(id, tc)` pair (stable across the index's sort, unlike batch
/// positions).
#[derive(Clone, Copy, Debug)]
pub struct DistortedQuery {
    /// The query fingerprint `Q = S + ΔS`.
    pub query: Fingerprint,
    /// Id of the original record.
    pub id: u32,
    /// Time-code of the original record.
    pub tc: u32,
}

/// Builds the Fig. 5/6 query workload: pick `n` stored fingerprints `S` and
/// distort them with iid `N(0, σ_Q)` per component (the paper's construction
/// `Q = S + ΔS`).
pub fn distorted_queries(
    batch: &RecordBatch,
    n: usize,
    sigma_q: f64,
    seed: u64,
) -> Vec<DistortedQuery> {
    assert!(!batch.is_empty());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let i = rng.gen_range(0..batch.len());
        let mut q = [0u8; FINGERPRINT_DIMS];
        for (j, c) in q.iter_mut().enumerate() {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let nrm = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            *c = (f64::from(batch.fingerprint(i)[j]) + sigma_q * nrm).clamp(0.0, 255.0) as u8;
        }
        out.push(DistortedQuery {
            query: q,
            id: batch.id(i),
            tc: batch.tc(i),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pool() -> Vec<Fingerprint> {
        vec![[100u8; 20], [50u8; 20], [200u8; 20]]
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let mut a = FingerprintSampler::new(tiny_pool(), 5.0, 9);
        let mut b = FingerprintSampler::new(tiny_pool(), 5.0, 9);
        for _ in 0..10 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn sampler_jitter_stays_near_pool() {
        let mut s = FingerprintSampler::new(vec![[128u8; 20]], 4.0, 1);
        for _ in 0..100 {
            let fp = s.sample();
            for &c in fp.iter() {
                assert!((100..=156).contains(&c), "jitter too large: {c}");
            }
        }
    }

    #[test]
    fn zero_jitter_returns_pool_elements() {
        let pool = tiny_pool();
        let mut s = FingerprintSampler::new(pool.clone(), 0.0, 2);
        for _ in 0..20 {
            assert!(pool.contains(&s.sample()));
        }
    }

    #[test]
    fn batch_has_skewed_ids_and_sequential_tcs() {
        let mut s = FingerprintSampler::new(tiny_pool(), 2.0, 3);
        let b = s.batch(4000);
        assert_eq!(b.len(), 4000);
        let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for i in 0..b.len() {
            *counts.entry(b.id(i)).or_insert(0) += 1;
        }
        // Id 0 must dominate (geometric skew), and many ids must exist.
        let c0 = counts[&0];
        assert!(c0 > 500, "id 0 count {c0}");
        assert!(counts.len() > 10, "id variety {}", counts.len());
    }

    #[test]
    fn distorted_queries_reference_valid_records() {
        let mut s = FingerprintSampler::new(tiny_pool(), 2.0, 4);
        let b = s.batch(500);
        let qs = distorted_queries(&b, 50, 10.0, 5);
        assert_eq!(qs.len(), 50);
        for dq in &qs {
            // The (id, tc) pair must exist in the batch and the query must be
            // near that original.
            let i = (0..b.len())
                .find(|&i| b.id(i) == dq.id && b.tc(i) == dq.tc)
                .expect("original record exists");
            let d = s3_core::dist(&dq.query, b.fingerprint(i));
            assert!(d < 10.0 * 20.0, "distance {d} too large");
        }
    }

    #[test]
    fn extracted_pool_yields_fingerprints() {
        let pool = extracted_pool(2, 40, 7);
        assert!(pool.len() > 20, "got {}", pool.len());
    }
}
