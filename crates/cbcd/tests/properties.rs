//! Property-based tests of the voting stage invariants.

use proptest::prelude::*;
use s3_cbcd::{vote, vote_spatial, CandidateVotes, SpatialCandidateVotes, VoteParams};

fn params(min_votes: usize) -> VoteParams {
    VoteParams { min_votes }
}

/// A buffer with one perfectly coherent id at a given offset plus uniform
/// junk over other ids.
fn coherent_buffer(n: usize, offset: f64, junk_per_cand: usize, seed: u64) -> Vec<CandidateVotes> {
    let mut s = seed | 1;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..n)
        .map(|j| {
            let tc = offset.max(0.0) + 20.0 + j as f64 * 5.0;
            let mut refs = vec![(1u32, (tc - offset) as u32)];
            for _ in 0..junk_per_cand {
                refs.push((2 + (rnd() % 40) as u32, (rnd() % 4000) as u32));
            }
            CandidateVotes { tc, refs }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A fully coherent id always reaches nsim = N and its offset is
    /// recovered, for any offset and buffer size above the threshold.
    #[test]
    fn coherent_id_recovered(
        n in 6usize..40,
        offset in 0.0f64..2000.0,
        junk in 0usize..4,
        seed in any::<u64>(),
    ) {
        let buffer = coherent_buffer(n, offset.round(), junk, seed);
        let det = vote(&buffer, &params(5));
        let top = det.iter().find(|d| d.id == 1);
        prop_assert!(top.is_some(), "coherent id lost");
        let top = top.unwrap();
        prop_assert_eq!(top.nsim, n);
        prop_assert!((top.offset - offset.round()).abs() <= 1.0);
        prop_assert_eq!(top.ncand, n);
    }

    /// nsim never exceeds ncand, offsets are finite, and the list is sorted
    /// by strength.
    #[test]
    fn structural_invariants(
        n in 1usize..30,
        offset in 0.0f64..500.0,
        junk in 0usize..6,
        seed in any::<u64>(),
        min_votes in 1usize..8,
    ) {
        let buffer = coherent_buffer(n, offset.round(), junk, seed);
        let det = vote(&buffer, &params(min_votes));
        for d in &det {
            prop_assert!(d.nsim <= d.ncand);
            prop_assert!(d.nsim >= min_votes);
            prop_assert!(d.offset.is_finite());
        }
        for w in det.windows(2) {
            prop_assert!(w[0].nsim >= w[1].nsim);
        }
    }

    /// Raising the threshold can only shrink the detection list.
    #[test]
    fn threshold_monotone(
        n in 8usize..30,
        junk in 0usize..6,
        seed in any::<u64>(),
    ) {
        let buffer = coherent_buffer(n, 100.0, junk, seed);
        let lo = vote(&buffer, &params(2));
        let hi = vote(&buffer, &params(6));
        prop_assert!(hi.len() <= lo.len());
        for d in &hi {
            prop_assert!(lo.iter().any(|e| e.id == d.id), "id vanished from the permissive run");
        }
    }

    /// The estimate is invariant to a global time shift of the candidate
    /// stream (only the offset moves, votes stay).
    #[test]
    fn time_shift_equivariance(
        n in 6usize..25,
        shift in 0.0f64..3000.0,
        seed in any::<u64>(),
    ) {
        let base = coherent_buffer(n, 50.0, 2, seed);
        let shifted: Vec<CandidateVotes> = base
            .iter()
            .map(|cv| CandidateVotes {
                tc: cv.tc + shift.round(),
                refs: cv.refs.clone(),
            })
            .collect();
        let a = vote(&base, &params(5));
        let b = vote(&shifted, &params(5));
        let da = a.iter().find(|d| d.id == 1).unwrap();
        let db = b.iter().find(|d| d.id == 1).unwrap();
        prop_assert_eq!(da.nsim, db.nsim);
        prop_assert!((db.offset - da.offset - shift.round()).abs() <= 1.0);
    }

    /// Spatio-temporal voting recovers a planted 2-D translation and never
    /// scores above the temporal count.
    #[test]
    fn spatial_translation_recovered(
        n in 8usize..25,
        dx in -20.0f64..20.0,
        dy in -20.0f64..20.0,
        seed in any::<u64>(),
    ) {
        let (dx, dy) = (dx.round(), dy.round());
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 33) as f64 / (1u64 << 31) as f64
        };
        let buffer: Vec<SpatialCandidateVotes> = (0..n)
            .map(|j| {
                let tc = 100.0 + j as f64 * 4.0;
                let x = 30.0 + (rnd() * 40.0).round();
                let y = 25.0 + (rnd() * 30.0).round();
                SpatialCandidateVotes {
                    tc,
                    x,
                    y,
                    refs: vec![(3, (tc - 60.0) as u32, (x - dx) as u16, (y - dy) as u16)],
                }
            })
            .collect();
        let det = vote_spatial(&buffer, &params(5));
        prop_assert!(!det.is_empty());
        let d = &det[0];
        prop_assert!((d.dx - dx).abs() <= 1.0, "dx {} vs {dx}", d.dx);
        prop_assert!((d.dy - dy).abs() <= 1.0, "dy {} vs {dy}", d.dy);
        prop_assert!(d.nsim <= d.nsim_temporal);
        prop_assert_eq!(d.nsim, n);
    }
}
