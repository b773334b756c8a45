//! Property-based tests of the S³ core invariants.

use proptest::prelude::*;
use s3_core::filter::{select_blocks_best_first, select_blocks_range};
use s3_core::kernels::{
    dist_sq, dist_sq_scalar, dist_sq_within, dist_sq_within_scalar, scan_within,
};
use s3_core::{IsotropicNormal, RecordBatch, S3Index, StatQueryOpts};
use s3_hilbert::HilbertCurve;

const DIMS: usize = 6; // small enough for fast exhaustive-ish checks

fn curve() -> HilbertCurve {
    HilbertCurve::new(DIMS, 8).unwrap()
}

prop_compose! {
    fn fingerprint()(v in proptest::collection::vec(0u8..=255, DIMS)) -> Vec<u8> {
        v
    }
}

prop_compose! {
    fn small_batch()(fps in proptest::collection::vec(fingerprint(), 1..200)) -> RecordBatch {
        let mut b = RecordBatch::new(DIMS);
        for (i, fp) in fps.iter().enumerate() {
            b.push(fp, i as u32, (i * 3) as u32);
        }
        b
    }
}

/// The per-record loop the run kernel must match: `(k, d²)` of every record
/// `k` of `run` with `d² ≤ bound`.
fn per_record_hits(q: &[u8], run: &[u8], bound: u64) -> Vec<(usize, u64)> {
    run.chunks_exact(q.len())
        .enumerate()
        .filter_map(|(k, fp)| dist_sq_within(q, fp, bound).map(|d2| (k, d2)))
        .collect()
}

fn run_kernel_hits(q: &[u8], run: &[u8], bound: u64) -> Vec<(usize, u64)> {
    let mut hits = Vec::new();
    scan_within(q, run, bound, |k, d2| hits.push((k, d2)));
    hits
}

/// A query and `n` records of `dims` bytes starting `off` bytes into the
/// returned buffer; every other record is a near-duplicate of the query
/// (each component within `jitter`), so prefixes under the bound and the
/// confirm path both occur.
fn run_fixture(dims: usize, n: usize, off: usize, jitter: u8, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 32) as u8
    };
    let q: Vec<u8> = (0..dims).map(|_| next()).collect();
    let mut buf: Vec<u8> = (0..off).map(|_| next()).collect();
    for k in 0..n {
        for &c in &q {
            let b = if k % 2 == 0 {
                let j = i16::from(next() % (jitter + 1)) * if next() % 2 == 0 { 1 } else { -1 };
                (i16::from(c) + j).clamp(0, 255) as u8
            } else {
                next()
            };
            buf.push(b);
        }
    }
    (q, buf)
}

/// Bounds around the edges of the run kernel: zero, the `i32` clamp, the
/// largest, and the exact distances of the records themselves (the `≤`
/// edge of the confirm path).
fn edge_bounds(q: &[u8], run: &[u8]) -> Vec<u64> {
    let mut bounds = vec![0, 1, 10_014, (1 << 31) - 1, 1 << 31, u64::MAX];
    for fp in run.chunks_exact(q.len()).take(6) {
        let d2 = dist_sq(q, fp);
        bounds.extend([d2.saturating_sub(1), d2, d2 + 1]);
    }
    bounds
}

/// Every dimensionality up to twice the 16-byte prefix, every run length
/// from 0 to 9 plus longer ones, misaligned starts, and the edge bounds.
#[test]
fn run_kernel_matches_per_record_loop_exhaustively() {
    for dims in 1..=40 {
        for n in (0..=9).chain([13, 32, 67]) {
            for off in [0, 1, 7] {
                let (q, buf) = run_fixture(dims, n, off, 6, (dims * 131 + n * 7 + off) as u64);
                let run = &buf[off..];
                for bound in edge_bounds(&q, run) {
                    assert_eq!(
                        run_kernel_hits(&q, run, bound),
                        per_record_hits(&q, run, bound),
                        "dims {dims} n {n} off {off} bound {bound}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The best-first filter always reaches the (boundary-clamped) target
    /// mass, never double-selects a block, and its blocks are disjoint curve
    /// intervals.
    #[test]
    fn filter_reaches_clamped_alpha_with_disjoint_blocks(
        q in fingerprint(),
        sigma in 4.0f64..40.0,
        alpha in 0.1f64..0.99,
        depth in 4u32..20,
    ) {
        let curve = curve();
        let model = IsotropicNormal::new(DIMS, sigma);
        let out = select_blocks_best_first(&curve, &model, &q, depth, alpha, 1 << 14);
        if !out.truncated {
            // Achieved mass reaches min(alpha, in-grid mass) - epsilon.
            prop_assert!(out.mass > 0.0);
        }
        // Blocks are disjoint: sorted key ranges must not overlap.
        let mut ranges: Vec<_> = out
            .blocks
            .iter()
            .map(|sb| sb.key_range(&curve))
            .collect();
        ranges.sort_by_key(|a| a.lo);
        for w in ranges.windows(2) {
            match w[0].hi {
                s3_hilbert::KeyBound::Excl(hi) => prop_assert!(hi <= w[1].lo),
                s3_hilbert::KeyBound::End => prop_assert!(false, "End before another range"),
            }
        }
        // Masses are positive and at most 1.
        for sb in &out.blocks {
            prop_assert!(sb.score > 0.0 && sb.score <= 1.0 + 1e-12);
        }
    }

    /// Monotonicity in α: a larger expectation never selects fewer blocks.
    #[test]
    fn filter_monotone_in_alpha(
        q in fingerprint(),
        sigma in 6.0f64..30.0,
        depth in 4u32..16,
    ) {
        let curve = curve();
        let model = IsotropicNormal::new(DIMS, sigma);
        let lo = select_blocks_best_first(&curve, &model, &q, depth, 0.4, 1 << 14);
        let hi = select_blocks_best_first(&curve, &model, &q, depth, 0.9, 1 << 14);
        prop_assert!(hi.blocks.len() >= lo.blocks.len());
        prop_assert!(hi.mass >= lo.mass - 1e-12);
    }

    /// Range query through the index returns exactly the brute-force answer
    /// for arbitrary batches, queries, radii and depths.
    #[test]
    fn range_query_equals_brute_force(
        batch in small_batch(),
        q in fingerprint(),
        eps in 1.0f64..500.0,
        depth in 2u32..16,
    ) {
        let index = S3Index::build(curve(), batch);
        let res = index.range_query(&q, eps, depth);
        let mut got: Vec<usize> = res.matches.iter().map(|m| m.index).collect();
        got.sort_unstable();
        let expect: Vec<usize> = (0..index.len())
            .filter(|&i| s3_core::dist(&q, index.records().fingerprint(i)) <= eps)
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// A statistical query at very high α with an exact-duplicate record in
    /// the database always retrieves that record.
    #[test]
    fn duplicate_always_retrieved_at_high_alpha(
        mut batch in small_batch(),
        q in fingerprint(),
        sigma in 5.0f64..25.0,
    ) {
        batch.push(&q, 999_999, 0);
        let index = S3Index::build(curve(), batch);
        let model = IsotropicNormal::new(DIMS, sigma);
        let opts = StatQueryOpts::learned(0.99, &index, &model);
        let res = index.stat_query(&q, &model, &opts);
        prop_assert!(
            res.matches.iter().any(|m| m.id == 999_999),
            "exact duplicate missed (mass {})",
            res.stats.mass
        );
    }

    /// The geometric filter is complete at any depth: every in-range record
    /// is found regardless of the partition granularity.
    #[test]
    fn range_filter_complete_at_any_depth(
        batch in small_batch(),
        q in fingerprint(),
        depth_a in 2u32..16,
        depth_b in 2u32..16,
    ) {
        let index = S3Index::build(curve(), batch);
        let eps = 120.0;
        let a = index.range_query(&q, eps, depth_a);
        let b = index.range_query(&q, eps, depth_b);
        let mut ai: Vec<usize> = a.matches.iter().map(|m| m.index).collect();
        let mut bi: Vec<usize> = b.matches.iter().map(|m| m.index).collect();
        ai.sort_unstable();
        bi.sort_unstable();
        prop_assert_eq!(ai, bi, "recall must not depend on depth");
    }

    /// Block scores of the geometric filter never exceed ε².
    #[test]
    fn range_filter_scores_bounded(
        q in fingerprint(),
        eps in 5.0f64..300.0,
        depth in 2u32..14,
    ) {
        let out = select_blocks_range(&curve(), &q, depth, eps, 1 << 14);
        for sb in &out.blocks {
            prop_assert!(sb.score <= eps * eps + 1e-9);
        }
    }

    /// The compiled-in kernel computes bit-identical distances to the scalar
    /// reference on arbitrary lengths and (mis)alignments, and the early-exit
    /// variant returns exactly `(d² ≤ bound).then_some(d²)`.
    #[test]
    fn kernel_matches_scalar(
        a in proptest::collection::vec(0u8..=255, 0..600),
        b in proptest::collection::vec(0u8..=255, 0..600),
        off_a in 0usize..8,
        off_b in 0usize..8,
        bound in 0u64..1_000_000,
    ) {
        // Equal lengths, as every caller passes (and `dist_sq` debug-asserts).
        let a = &a[off_a.min(a.len())..];
        let b = &b[off_b.min(b.len())..];
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let want = dist_sq_scalar(a, b);
        prop_assert_eq!(dist_sq(a, b), want);
        prop_assert_eq!(
            dist_sq_within(a, b, bound),
            (want <= bound).then_some(want),
            "within bound {}",
            bound
        );
    }

    /// Same at the paper's exact dimensionality D = 20 (one SSE2 vector plus
    /// a 4-byte tail), with the bound swept through the realistic range
    /// around the actual distance.
    #[test]
    fn kernel_matches_scalar_at_paper_dims(
        a in proptest::collection::vec(0u8..=255, 20),
        b in proptest::collection::vec(0u8..=255, 20),
        slack in -200i64..200,
    ) {
        let want = dist_sq_scalar(&a, &b);
        let bound = want.saturating_add_signed(slack);
        prop_assert_eq!(dist_sq(&a, &b), want);
        prop_assert_eq!(dist_sq_within(&a, &b, bound), (want <= bound).then_some(want));
        prop_assert_eq!(
            dist_sq_within_scalar(&a, &b, bound),
            (want <= bound).then_some(want)
        );
    }
    /// The run kernel fires exactly where the per-record
    /// `dist_sq_within` loop keeps a record, with the same `d²`: any
    /// dimensionality (the paper's 20 and the 16-byte prefix edges
    /// weighted), any run length, misaligned starts, near-duplicates, and
    /// bounds from 0 through the realistic range to `u64::MAX`.
    #[test]
    fn run_kernel_matches_per_record_loop(
        dims_pick in 0usize..46,
        short in 0usize..10,
        long in 10usize..80,
        off in 0usize..16,
        jitter in 0u8..40,
        seed in any::<u64>(),
        bound_pick in 0usize..6,
        realistic in 0u64..40_000,
        raw in any::<u64>(),
    ) {
        let dims = match dims_pick {
            0..=39 => dims_pick + 1,
            _ => [15, 16, 17, 20, 20, 32][dims_pick - 40],
        };
        let n = if seed % 2 == 0 { short } else { long };
        let bound = [0, realistic, (1 << 31) - 1, 1 << 31, u64::MAX, raw][bound_pick];
        let (q, buf) = run_fixture(dims, n, off, jitter, seed);
        let run = &buf[off..];
        prop_assert_eq!(run_kernel_hits(&q, run, bound), per_record_hits(&q, run, bound));
    }
}
