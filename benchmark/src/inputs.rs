//! The benchmark's own, frozen input model.
//!
//! A copy of the archive model the experiments use (`FingerprintSampler`,
//! `distorted_queries`, the filler grouping of `fig8_fig9_robustness::build_db`)
//! so that a change to `s3-bench` cannot silently change what is measured.
//!
//! The *content* — the procedural videos fingerprints are extracted from — is
//! frozen by [`CONTENT_SEED`]; `--seed` draws the archive sample, the record
//! ids, the queries and the candidate noise from it. Runs with different
//! seeds therefore measure different inputs of one distribution, which is
//! what keeps the spread across seeds inside the regression bounds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_core::crc::Crc32;
use s3_core::RecordBatch;
use s3_video::{
    extract_fingerprints, ExtractorParams, Fingerprint, LocalFingerprint, ProceduralVideo,
    FINGERPRINT_DIMS,
};

/// Seed of the procedural videos (the repo's Fig. 7 pool uses the same one).
pub const CONTENT_SEED: u64 = 0xF17;
/// Model of the archive and of the queries: `Q = S + N(0, SIGMA²)`.
pub const SIGMA: f64 = 20.0;
/// Expectation of every statistical query.
pub const ALPHA: f64 = 0.8;
/// Per-component jitter of the archive sampler.
pub const JITTER: f64 = 20.0;

/// The defaults with a bounded point count per key-frame, as in the
/// experiments (a few tens of fingerprints per key-frame, paper §V).
pub fn extractor_params() -> ExtractorParams {
    let mut p = ExtractorParams::default();
    p.harris.max_points = 12;
    p
}

/// The `i`-th frozen procedural video of `frames` frames.
pub fn content_video(i: usize, frames: usize) -> ProceduralVideo {
    ProceduralVideo::new(96, 72, frames, CONTENT_SEED ^ ((i as u64) << 24))
}

/// Fingerprints extracted from `n_videos` frozen 60-frame videos.
pub fn extracted_pool(n_videos: usize) -> Vec<Fingerprint> {
    let params = extractor_params();
    (0..n_videos)
        .flat_map(|i| extract_fingerprints(&content_video(i, 60), &params))
        .map(|f| f.fingerprint)
        .collect()
}

/// Box-Muller standard normal.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn jittered(base: &[u8], sigma: f64, rng: &mut StdRng) -> Fingerprint {
    let mut out = [0u8; FINGERPRINT_DIMS];
    for (c, &b) in out.iter_mut().zip(base) {
        *c = (f64::from(b) + sigma * normal(rng)).clamp(0.0, 255.0) as u8;
    }
    out
}

/// Samples archive-scale fingerprint databases from an extracted pool.
pub struct FingerprintSampler {
    pool: Vec<Fingerprint>,
    rng: StdRng,
}

impl FingerprintSampler {
    pub fn new(pool: Vec<Fingerprint>, seed: u64) -> Self {
        assert!(!pool.is_empty(), "empty fingerprint pool");
        FingerprintSampler {
            pool,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// `n` records: a random pool element plus [`JITTER`] per component.
    /// Ids are geometrically popular (some recur hundreds of times, most
    /// are rare); time-codes are sequential per id.
    pub fn batch(&mut self, n: usize) -> RecordBatch {
        let mut batch = RecordBatch::with_capacity(FINGERPRINT_DIMS, n);
        let mut tc_per_id = std::collections::HashMap::<u32, u32>::new();
        for _ in 0..n {
            let base = self.pool[self.rng.gen_range(0..self.pool.len())];
            let fp = jittered(&base, JITTER, &mut self.rng);
            let mut id = 0u32;
            while self.rng.gen_bool(0.75) && id < 10_000 {
                id += 1;
            }
            let tc = tc_per_id.entry(id).or_insert(0);
            batch.push(&fp, id, *tc);
            *tc += 4;
        }
        batch
    }
}

/// A distorted copy of a stored record, identified by the record's
/// `(id, tc)` pair (stable across the index's sort).
#[derive(Clone, Copy, Debug)]
pub struct DistortedQuery {
    pub query: Fingerprint,
    pub id: u32,
    pub tc: u32,
}

/// `n` queries `Q = S + N(0, SIGMA²)` over records `S` drawn from `batch`.
pub fn distorted_queries(batch: &RecordBatch, n: usize, seed: u64) -> Vec<DistortedQuery> {
    assert!(!batch.is_empty());
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let i = rng.gen_range(0..batch.len());
            DistortedQuery {
                query: jittered(batch.fingerprint(i), SIGMA, &mut rng),
                id: batch.id(i),
                tc: batch.tc(i),
            }
        })
        .collect()
}

/// Borrowed query slices, the shape every batch entry point takes.
pub fn query_refs(queries: &[DistortedQuery]) -> Vec<&[u8]> {
    queries.iter().map(|q| q.query.as_slice()).collect()
}

/// Archive filler grouped into pseudo-videos of 500 fingerprints, so ids
/// and time-codes look like real archive content: `(name, fingerprints, tcs)`.
pub fn filler_videos(
    pool: Vec<Fingerprint>,
    n: usize,
    seed: u64,
) -> Vec<(String, Vec<u8>, Vec<u32>)> {
    let filler = FingerprintSampler::new(pool, seed).batch(n);
    (0..filler.len())
        .step_by(500)
        .enumerate()
        .map(|(chunk, start)| {
            let end = (start + 500).min(filler.len());
            let fps = filler.fingerprint_bytes()[start * FINGERPRINT_DIMS..end * FINGERPRINT_DIMS]
                .to_vec();
            let tcs = (0..(end - start) as u32).map(|k| k * 4).collect();
            (format!("archive-{chunk}"), fps, tcs)
        })
        .collect()
}

/// Running digest of a workload's inputs: records, queries and the frozen
/// parameters. Two runs that print the same digest measured the same inputs.
pub struct Digest(Crc32);

impl Digest {
    pub fn new() -> Self {
        Digest(Crc32::new())
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.0.update(b);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn records(&mut self, batch: &RecordBatch) -> &mut Self {
        self.bytes(batch.fingerprint_bytes());
        for (&id, &tc) in batch.ids().iter().zip(batch.tcs()) {
            self.bytes(&id.to_le_bytes()).bytes(&tc.to_le_bytes());
        }
        self
    }

    pub fn queries(&mut self, queries: &[DistortedQuery]) -> &mut Self {
        for q in queries {
            self.bytes(&q.query);
        }
        self
    }

    pub fn local(&mut self, fps: &[LocalFingerprint]) -> &mut Self {
        for f in fps {
            self.bytes(&f.fingerprint).bytes(&f.tc.to_le_bytes());
        }
        self
    }

    pub fn finish(&self) -> u32 {
        self.0.finalize()
    }
}
