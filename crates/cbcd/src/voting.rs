//! The voting strategy of §III: robust temporal alignment plus vote counting.
//!
//! After the similarity search, each candidate fingerprint `j` (taken at
//! candidate time-code `tc'_j`) holds a set of retrieved references
//! `{(Id_jk, tc_jk)}`. For every id represented in the results, the temporal
//! model `tc' = tc + b` is fitted by minimising (eq. 2)
//!
//! ```text
//! b(id) = argmin_b Σ_j min_{k: Id_jk = id} ρ(|tc'_j − (tc_jk + b)|)
//! ```
//!
//! with ρ Tukey's biweight, which caps the influence of the false matches
//! that an approximate search necessarily returns. The similarity `n_sim` is
//! then the number of candidate fingerprints with a residual inside a small
//! tolerance; thresholding `n_sim` makes the final decision.
//!
//! The minimisation is solved as the paper's M-estimation: a coarse
//! mode-seeking initialisation over all observed offsets `tc'_j − tc_jk`
//! (the global optimum basin), followed by IRLS refinement alternating the
//! inner `min_k` assignment and a Tukey location step.

use std::collections::HashMap;

/// Parameters of the voting stage.
#[derive(Clone, Copy, Debug)]
pub struct VoteParams {
    /// Tukey biweight tuning constant, in time-code units (frames).
    pub tukey_c: f64,
    /// Residual tolerance for counting a vote (frames).
    pub tolerance: f64,
    /// Decision threshold on `n_sim`.
    pub min_votes: usize,
    /// IRLS refinement rounds (assignment + location step).
    pub refine_rounds: usize,
}

impl Default for VoteParams {
    fn default() -> Self {
        VoteParams {
            tukey_c: 6.0,
            tolerance: 2.0,
            min_votes: 10,
            refine_rounds: 5,
        }
    }
}

/// The retrieved references of one candidate fingerprint.
#[derive(Clone, Debug, Default)]
pub struct CandidateVotes {
    /// Candidate time-code `tc'`.
    pub tc: f64,
    /// Retrieved `(id, tc)` pairs for this candidate fingerprint.
    pub refs: Vec<(u32, u32)>,
}

/// One detected copy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detection {
    /// Identifier of the referenced video.
    pub id: u32,
    /// Estimated offset `b` of the temporal model `tc' = tc + b`.
    pub offset: f64,
    /// Number of candidate fingerprints voting for this solution.
    pub nsim: usize,
    /// Number of candidate fingerprints in the buffer (`N_cand`).
    pub ncand: usize,
}

/// Per-id view of the buffer: for each candidate fingerprint, the time-codes
/// retrieved under that id.
fn group_by_id(buffer: &[CandidateVotes]) -> HashMap<u32, Vec<(f64, Vec<f64>)>> {
    let mut by_id: HashMap<u32, Vec<(f64, Vec<f64>)>> = HashMap::new();
    for cand in buffer {
        let mut local: HashMap<u32, Vec<f64>> = HashMap::new();
        for &(id, tc) in &cand.refs {
            local.entry(id).or_default().push(f64::from(tc));
        }
        for (id, tcs) in local {
            by_id.entry(id).or_default().push((cand.tc, tcs));
        }
    }
    by_id
}

/// Fits `b` for one id and counts votes. `entries` holds, per candidate
/// fingerprint that retrieved this id, its `tc'` and the retrieved `tc`s.
fn fit_offset(entries: &[(f64, Vec<f64>)], params: &VoteParams) -> (f64, usize) {
    // 1. Mode-seeking initialisation: histogram vote over all offsets at
    //    tolerance granularity. Each candidate fingerprint votes once per
    //    offset bin (not once per pair) so heavily duplicated references do
    //    not dominate.
    let bin = params.tolerance.max(0.5);
    let mut hist: HashMap<i64, u32> = HashMap::new();
    for (tc_cand, tcs) in entries {
        let mut seen: Vec<i64> = Vec::with_capacity(tcs.len());
        for &tc_ref in tcs {
            let b = tc_cand - tc_ref;
            let k = (b / bin).round() as i64;
            if !seen.contains(&k) {
                seen.push(k);
                *hist.entry(k).or_insert(0) += 1;
            }
        }
    }
    let Some((&best_bin, _)) = hist
        .iter()
        .max_by_key(|&(k, v)| (*v, std::cmp::Reverse(*k)))
    else {
        return (0.0, 0);
    };
    let mut b = best_bin as f64 * bin;

    // 2. IRLS refinement with re-assignment of the inner minimum.
    for _ in 0..params.refine_rounds {
        let samples: Vec<f64> = entries
            .iter()
            .map(|(tc_cand, tcs)| {
                // Best-matching reference under the current b.
                let best = tcs.iter().copied().min_by(|x, y| {
                    let rx = (tc_cand - x - b).abs();
                    let ry = (tc_cand - y - b).abs();
                    // Time-codes are finite u32-derived values: no NaN residuals.
                    rx.total_cmp(&ry)
                });
                let Some(tc_best) = best else {
                    unreachable!("non-empty tcs")
                };
                tc_cand - tc_best
            })
            .collect();
        let est = s3_stats::tukey_location(&samples, params.tukey_c, b, 1e-6, 50);
        if est.weight_sum == 0.0 {
            break; // nothing within the biweight support; keep current b
        }
        if (est.location - b).abs() < 1e-9 {
            b = est.location;
            break;
        }
        b = est.location;
    }

    // 3. Count votes within tolerance.
    let nsim = entries
        .iter()
        .filter(|(tc_cand, tcs)| {
            tcs.iter()
                .any(|&tc_ref| (tc_cand - tc_ref - b).abs() <= params.tolerance)
        })
        .count();
    (b, nsim)
}

/// Runs the voting strategy over a buffer of candidate results and returns
/// every id whose `n_sim` reaches the decision threshold, strongest first.
pub fn vote(buffer: &[CandidateVotes], params: &VoteParams) -> Vec<Detection> {
    let mut sp = s3_obs::span!("vote", "candidates" => buffer.len() as f64);
    let ncand = buffer.len();
    let mut detections: Vec<Detection> = group_by_id(buffer)
        .into_iter()
        .filter_map(|(id, entries)| {
            // An id retrieved by fewer candidates than the threshold cannot
            // reach it; skip the fit.
            if entries.len() < params.min_votes {
                return None;
            }
            let (offset, nsim) = fit_offset(&entries, params);
            (nsim >= params.min_votes).then_some(Detection {
                id,
                offset,
                nsim,
                ncand,
            })
        })
        .collect();
    detections.sort_by(|a, b| b.nsim.cmp(&a.nsim).then(a.id.cmp(&b.id)));
    sp.record("detections", detections.len() as f64);
    detections
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit mutation reads clearer in tests
mod tests {
    use super::*;

    /// Builds a buffer simulating a true copy of id 7 with offset 100, plus
    /// uniform junk matches on other ids.
    fn synthetic_buffer(
        n_cand: usize,
        true_id: u32,
        offset: f64,
        junk_per_cand: usize,
        seed: u64,
    ) -> Vec<CandidateVotes> {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n_cand)
            .map(|j| {
                // Keep tc_cand > offset so the reference tc stays positive
                // (u32 time-codes).
                let tc_cand = offset.max(0.0) + 10.0 + j as f64 * 7.0;
                let mut refs = vec![(true_id, (tc_cand - offset) as u32)];
                for _ in 0..junk_per_cand {
                    let id = 1000 + (rnd() * 50.0) as u32;
                    let tc = (rnd() * 5000.0) as u32;
                    refs.push((id, tc));
                }
                CandidateVotes { tc: tc_cand, refs }
            })
            .collect()
    }

    #[test]
    fn detects_true_copy_with_correct_offset() {
        let buffer = synthetic_buffer(20, 7, 100.0, 3, 42);
        let det = vote(&buffer, &VoteParams::default());
        assert!(!det.is_empty(), "copy must be detected");
        let top = &det[0];
        assert_eq!(top.id, 7);
        assert!((top.offset - 100.0).abs() <= 1.0, "offset {}", top.offset);
        assert_eq!(top.nsim, 20, "all candidates vote");
        assert_eq!(top.ncand, 20);
    }

    #[test]
    fn junk_ids_do_not_reach_threshold() {
        let buffer = synthetic_buffer(20, 7, 100.0, 5, 43);
        let det = vote(&buffer, &VoteParams::default());
        // Junk ids have scattered time-codes: no temporal coherence.
        for d in &det {
            assert_eq!(d.id, 7, "only the true id may pass: {d:?}");
        }
    }

    #[test]
    fn empty_buffer_no_detection() {
        assert!(vote(&[], &VoteParams::default()).is_empty());
    }

    #[test]
    fn too_few_votes_below_threshold() {
        let buffer = synthetic_buffer(3, 7, 50.0, 0, 44);
        let mut params = VoteParams::default();
        params.min_votes = 5;
        assert!(vote(&buffer, &params).is_empty());
    }

    #[test]
    fn offset_estimation_robust_to_outlier_majority_per_candidate() {
        // Each candidate has ONE good match among several junk matches of the
        // same id: the inner min_k + biweight must still lock on.
        let mut buffer = synthetic_buffer(15, 7, 100.0, 0, 45);
        let mut s = 123u64;
        for cand in &mut buffer {
            for _ in 0..4 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let junk_tc = (s >> 40) as u32 % 5000;
                cand.refs.push((7, junk_tc)); // junk with the TRUE id
            }
        }
        let det = vote(&buffer, &VoteParams::default());
        assert!(!det.is_empty());
        assert!(
            (det[0].offset - 100.0).abs() <= 1.0,
            "offset {}",
            det[0].offset
        );
        assert!(det[0].nsim >= 14);
    }

    #[test]
    fn two_simultaneous_copies_both_detected() {
        let mut buffer = synthetic_buffer(12, 7, 100.0, 0, 46);
        // Superimpose a second coherent id with a different offset.
        for cand in &mut buffer {
            cand.refs.push((9, (cand.tc + 40.0) as u32)); // b = -40
        }
        let det = vote(&buffer, &VoteParams::default());
        let ids: Vec<u32> = det.iter().map(|d| d.id).collect();
        assert!(ids.contains(&7), "{ids:?}");
        assert!(ids.contains(&9), "{ids:?}");
        let d9 = det.iter().find(|d| d.id == 9).unwrap();
        assert!((d9.offset + 40.0).abs() <= 1.0);
    }

    #[test]
    fn jittered_timecodes_still_vote_within_tolerance() {
        // ±1 frame jitter (key-frame tolerance of the paper's evaluation).
        let mut buffer = synthetic_buffer(16, 7, 100.0, 0, 47);
        for (i, cand) in buffer.iter_mut().enumerate() {
            let jitter = [0i64, 1, -1, 1][i % 4];
            let (id, tc) = cand.refs[0];
            cand.refs[0] = (id, (i64::from(tc) + jitter).max(0) as u32);
        }
        let det = vote(&buffer, &VoteParams::default());
        assert!(!det.is_empty());
        assert!(
            det[0].nsim >= 15,
            "jitter within tolerance: {}",
            det[0].nsim
        );
    }

    #[test]
    fn detections_sorted_by_strength() {
        let mut buffer = synthetic_buffer(20, 7, 100.0, 0, 48);
        // Second id coherent on only half the candidates.
        for cand in buffer.iter_mut().take(10) {
            cand.refs.push((3, (cand.tc - 20.0) as u32));
        }
        let det = vote(&buffer, &VoteParams::default());
        assert_eq!(det[0].id, 7);
        assert!(det[0].nsim >= det.last().unwrap().nsim);
    }

    #[test]
    fn negative_offset_supported() {
        // Copy starts *before* the reference time axis: b < 0.
        let buffer: Vec<CandidateVotes> = (0..10)
            .map(|j| {
                let tc_cand = j as f64 * 5.0;
                CandidateVotes {
                    tc: tc_cand,
                    refs: vec![(4, (tc_cand + 500.0) as u32)],
                }
            })
            .collect();
        let det = vote(&buffer, &VoteParams::default());
        assert!(!det.is_empty());
        assert!((det[0].offset + 500.0).abs() <= 1.0, "{}", det[0].offset);
    }
}
