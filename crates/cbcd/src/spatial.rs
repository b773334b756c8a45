//! Spatio-temporal voting — the paper's stated future work (§VI): "we would
//! like to extend the estimation step to the spatial positions of the
//! interest points in order to improve the discriminance of the
//! fingerprints."
//!
//! The temporal voting of [`crate::voting`] only checks that matches agree on
//! one time offset `b`. A true copy is additionally *spatially* coherent:
//! interest points map through one geometric transform — for the paper's
//! attack family, a translation (shift) plus the mild displacement of a
//! resize. Junk matches that accidentally align in time almost never align
//! in space as well, so requiring both drops the spurious `n_sim` ceiling.
//!
//! The spatial model fitted here is a robust 2-D translation
//! `(x', y') = (x + dx, y + dy)` estimated per id with Tukey-biweight
//! location steps per axis, after the temporal fit has selected each
//! candidate's best reference.

use crate::voting::{fit_offset, group_by_id, Entry, VoteParams, TOLERANCE};
use s3_stats::{median, tukey_location};

/// Tukey constant of the spatial location fit (pixels).
const SPATIAL_TUKEY_C: f64 = 12.0;
/// Spatial residual tolerance for counting a vote (pixels).
const SPATIAL_TOLERANCE: f64 = 6.0;

/// The retrieved references of one candidate fingerprint, with positions.
#[derive(Clone, Debug, Default)]
pub struct SpatialCandidateVotes {
    /// Candidate time-code `tc'`.
    pub tc: f64,
    /// Candidate interest-point position.
    pub x: f64,
    /// Candidate interest-point position.
    pub y: f64,
    /// Retrieved `(id, tc, x, y)` tuples.
    pub refs: Vec<(u32, u32, u16, u16)>,
}

/// One spatio-temporally coherent detection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpatialDetection {
    /// Identifier of the referenced video.
    pub id: u32,
    /// Temporal offset `b`.
    pub offset: f64,
    /// Fitted spatial translation.
    pub dx: f64,
    /// Fitted spatial translation.
    pub dy: f64,
    /// Candidates coherent in time only (the classical `n_sim`).
    pub nsim_temporal: usize,
    /// Candidates coherent in both time and space.
    pub nsim: usize,
    /// Buffer size.
    pub ncand: usize,
}

/// The spatial stage over the temporal offset `b` that
/// [`crate::voting`] fitted for one id: a robust translation over each
/// temporal inlier's best reference, then the votes coherent in both time
/// and space. Returns `(dx, dy, n_sim)`.
fn fit_translation(
    buffer: &[SpatialCandidateVotes],
    entries: &[Entry<(f64, f64)>],
    b: f64,
) -> (f64, f64, usize) {
    let inliers: Vec<_> = entries
        .iter()
        .filter(|e| e.votes_for(b))
        .map(|e| (&buffer[e.cand], e))
        .collect();
    let (dxs, dys): (Vec<f64>, Vec<f64>) = inliers
        .iter()
        .map(|(c, e)| {
            let &(_, (x, y)) = e.best_ref(b);
            (c.x - x, c.y - y)
        })
        .unzip();
    let dx0 = median(&dxs).unwrap_or(0.0);
    let dy0 = median(&dys).unwrap_or(0.0);
    let dx = tukey_location(&dxs, SPATIAL_TUKEY_C, dx0, 1e-6, 50).location;
    let dy = tukey_location(&dys, SPATIAL_TUKEY_C, dy0, 1e-6, 50).location;
    let nsim = inliers
        .iter()
        .filter(|(c, e)| {
            e.refs.iter().any(|&(tc, (x, y))| {
                (e.tc - tc - b).abs() <= TOLERANCE
                    && (c.x - x - dx).abs() <= SPATIAL_TOLERANCE
                    && (c.y - y - dy).abs() <= SPATIAL_TOLERANCE
            })
        })
        .count();
    (dx, dy, nsim)
}

/// Runs the spatio-temporal voting strategy: the temporal fit of
/// [`crate::voting::vote`], then a spatial translation fit over its
/// inliers. Detections require `min_votes` candidates coherent in *both*
/// time and space, strongest first.
pub fn vote_spatial(
    buffer: &[SpatialCandidateVotes],
    params: &VoteParams,
) -> Vec<SpatialDetection> {
    let ncand = buffer.len();
    let by_id = group_by_id(buffer.iter().map(|cand| {
        let refs = cand
            .refs
            .iter()
            .map(|&(id, tc, x, y)| (id, (f64::from(tc), (f64::from(x), f64::from(y)))));
        (cand.tc, refs)
    }));
    let mut detections: Vec<SpatialDetection> = by_id
        .into_iter()
        .filter_map(|(id, entries)| {
            if entries.len() < params.min_votes {
                return None;
            }
            let (offset, nsim_temporal) = fit_offset(&entries);
            if nsim_temporal < params.min_votes {
                return None;
            }
            let (dx, dy, nsim) = fit_translation(buffer, &entries, offset);
            (nsim >= params.min_votes).then_some(SpatialDetection {
                id,
                offset,
                dx,
                dy,
                nsim_temporal,
                nsim,
                ncand,
            })
        })
        .collect();
    detections.sort_by(|a, b| b.nsim.cmp(&a.nsim).then(a.id.cmp(&b.id)));
    detections
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voting::{vote, CandidateVotes};

    /// A coherent copy: offset 50 in time, translation (+7, -3) in space,
    /// plus per-candidate junk with the SAME id but incoherent geometry.
    fn coherent_buffer(n: usize, junk: usize, seed: u64) -> Vec<SpatialCandidateVotes> {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n)
            .map(|j| {
                let tc = 60.0 + j as f64 * 6.0;
                let x = 20.0 + (j % 7) as f64 * 9.0;
                let y = 15.0 + (j % 5) as f64 * 11.0;
                let mut refs = vec![(4u32, (tc - 50.0) as u32, (x - 7.0) as u16, (y + 3.0) as u16)];
                for _ in 0..junk {
                    refs.push((
                        4,
                        (rnd() * 3000.0) as u32,
                        (rnd() * 96.0) as u16,
                        (rnd() * 72.0) as u16,
                    ));
                }
                SpatialCandidateVotes { tc, x, y, refs }
            })
            .collect()
    }

    fn params() -> VoteParams {
        VoteParams { min_votes: 5 }
    }

    #[test]
    fn recovers_temporal_and_spatial_offsets() {
        let buffer = coherent_buffer(20, 2, 3);
        let det = vote_spatial(&buffer, &params());
        assert!(!det.is_empty());
        let d = &det[0];
        assert_eq!(d.id, 4);
        assert!((d.offset - 50.0).abs() <= 1.0, "offset {}", d.offset);
        assert!((d.dx - 7.0).abs() <= 1.0, "dx {}", d.dx);
        assert!((d.dy + 3.0).abs() <= 1.0, "dy {}", d.dy);
        assert_eq!(d.nsim, 20);
    }

    #[test]
    fn spatial_check_kills_temporally_coherent_junk() {
        // Junk that aligns in TIME but not in SPACE: same id, correct tc,
        // random positions — classical voting cannot reject it, the spatial
        // stage must.
        let mut buffer = coherent_buffer(0, 0, 5);
        let mut s = 17u64;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 33) as f64 / (1u64 << 31) as f64
        };
        for j in 0..20 {
            let tc = 60.0 + j as f64 * 6.0;
            buffer.push(SpatialCandidateVotes {
                tc,
                x: rnd() * 96.0,
                y: rnd() * 72.0,
                refs: vec![(
                    9,
                    (tc - 80.0) as u32,
                    (rnd() * 96.0) as u16,
                    (rnd() * 72.0) as u16,
                )],
            });
        }
        let det = vote_spatial(&buffer, &params());
        // The time-coherent junk (id 9) must score far below its temporal
        // coherence count.
        for d in &det {
            if d.id == 9 {
                assert!(d.nsim_temporal >= 15, "junk IS temporally coherent");
                assert!(
                    d.nsim < 5,
                    "spatial stage must reject spatially-random junk: {d:?}"
                );
            }
        }
        assert!(
            !det.iter().any(|d| d.id == 9),
            "junk must not survive the combined threshold: {det:?}"
        );
    }

    #[test]
    fn junk_among_true_matches_does_not_bias_fit() {
        let buffer = coherent_buffer(20, 6, 7);
        let det = vote_spatial(&buffer, &params());
        assert!(!det.is_empty());
        assert!((det[0].dx - 7.0).abs() <= 1.5, "dx {}", det[0].dx);
        assert!((det[0].dy + 3.0).abs() <= 1.5, "dy {}", det[0].dy);
    }

    #[test]
    fn empty_buffer() {
        assert!(vote_spatial(&[], &params()).is_empty());
    }

    #[test]
    fn temporal_stage_is_the_vote() {
        // The spatial vote runs the one temporal fit: with positions
        // stripped, `vote` finds the same offset and counts `nsim_temporal`.
        for seed in [3, 7, 11] {
            let mut buffer = coherent_buffer(24, 5, seed);
            // A second id, coherent in time on half the candidates.
            for cand in buffer.iter_mut().step_by(2) {
                cand.refs.push((8, (cand.tc - 30.0) as u32, 40, 40));
            }
            let temporal: Vec<CandidateVotes> = buffer
                .iter()
                .map(|c| CandidateVotes {
                    tc: c.tc,
                    refs: c.refs.iter().map(|&(id, tc, _, _)| (id, tc)).collect(),
                })
                .collect();
            let params = VoteParams { min_votes: 1 };
            let plain = vote(&temporal, &params);
            let spatial = vote_spatial(&buffer, &params);
            assert!(spatial.iter().any(|d| d.id == 4), "{spatial:?}");
            for d in &spatial {
                let t = plain.iter().find(|t| t.id == d.id).expect("voted");
                assert_eq!((d.offset, d.nsim_temporal), (t.offset, t.nsim));
            }
        }
    }

    #[test]
    fn nsim_never_exceeds_temporal_nsim() {
        let buffer = coherent_buffer(15, 4, 9);
        for d in vote_spatial(&buffer, &params()) {
            assert!(d.nsim <= d.nsim_temporal);
            assert!(d.nsim_temporal <= d.ncand);
        }
    }
}
