//! Decision-threshold calibration against a false-alarm budget.
//!
//! The paper sets the threshold on `n_sim` "so that in average less than 1
//! false alarm occurs per hour when the system is continuously monitoring a
//! TV channel" (§V-C). This module reproduces that procedure: run the
//! detector over non-referenced material, collect the spurious `n_sim`
//! scores, and pick the smallest threshold whose false-alarm rate fits the
//! budget.

use crate::detector::Detector;
use crate::monitor::KeyframeWindow;
use crate::voting::{vote, CandidateVotes, VoteParams};
use crate::FRAME_RATE;
use s3_video::LocalFingerprint;

/// The false-alarm budget: "in average less than 1 false alarm ... per
/// hour" (§V-C).
const FALSE_ALARMS_PER_HOUR: f64 = 1.0;

/// Result of a calibration run.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Smallest `min_votes` meeting the false-alarm budget.
    pub min_votes: usize,
    /// False alarms observed at that threshold during calibration.
    pub false_alarms: usize,
    /// Hours of negative material scanned.
    pub hours_scanned: f64,
    /// All spurious `n_sim` scores observed (for reporting the margin).
    pub spurious_scores: Vec<usize>,
}

impl Calibration {
    /// Observed false alarms per hour at the chosen threshold.
    pub fn rate_per_hour(&self) -> f64 {
        if self.hours_scanned == 0.0 {
            return 0.0;
        }
        self.false_alarms as f64 / self.hours_scanned
    }
}

/// Calibrates `min_votes` on negative (non-referenced) fingerprint streams:
/// candidate streams extracted from material that is *not* in the database,
/// so every detection on them is a false alarm. Time-codes count frames at
/// [`FRAME_RATE`]; the budget is one false alarm an hour.
///
/// The detector's configured threshold is ignored: voting runs with
/// `min_votes = 1` to collect the full spurious-score distribution, then the
/// threshold is chosen as one more than the largest score whose cumulative
/// rate exceeds the budget.
pub fn calibrate_threshold(
    detector: &Detector<'_>,
    negatives: &[Vec<LocalFingerprint>],
) -> Calibration {
    // One vote over each stream's whole buffer.
    spurious_scores(detector, negatives, |buffer| vec![buffer])
}

/// Calibrates `min_votes` for *monitoring*: negative streams are cut into
/// the very windows the monitor votes, because spurious `n_sim` scores grow
/// with the number of candidate fingerprints in a buffer — a threshold
/// calibrated on whole-clip buffers under-estimates what a larger
/// monitoring window can produce by chance.
pub fn calibrate_monitor_threshold(
    detector: &Detector<'_>,
    negatives: &[Vec<LocalFingerprint>],
) -> Calibration {
    spurious_scores(detector, negatives, |buffer| {
        let mut window = KeyframeWindow::default();
        let mut windows: Vec<_> = buffer
            .into_iter()
            .filter_map(|cv| window.push(cv))
            .collect();
        windows.extend(window.finish());
        windows
    })
}

/// Walks the negative streams: searches each, cuts its vote buffer into
/// vote windows with `cut`, votes permissively (`min_votes = 1`) on every
/// window, and picks the threshold from every spurious `n_sim` and the
/// hours walked.
fn spurious_scores(
    detector: &Detector<'_>,
    negatives: &[Vec<LocalFingerprint>],
    cut: impl Fn(Vec<CandidateVotes>) -> Vec<Vec<CandidateVotes>>,
) -> Calibration {
    let mut spurious: Vec<usize> = Vec::new();
    let mut frames_total = 0.0f64;
    let permissive = VoteParams { min_votes: 1 };
    for stream in negatives {
        let (Some(head), Some(tail)) = (stream.first(), stream.last()) else {
            continue; // an empty stream
        };
        frames_total += (f64::from(tail.tc) - f64::from(head.tc)).max(1.0);
        for window in cut(detector.query_buffer(stream)) {
            spurious.extend(vote(&window, &permissive).iter().map(|det| det.nsim));
        }
    }
    choose_threshold(spurious, frames_total / FRAME_RATE / 3600.0)
}

/// The smallest threshold whose false alarms — spurious scores at or above
/// it — fit the budget over `hours` of negatives.
fn choose_threshold(mut spurious: Vec<usize>, hours: f64) -> Calibration {
    let budget = (FALSE_ALARMS_PER_HOUR * hours).max(0.0);
    let mut threshold = 1usize;
    loop {
        let alarms = spurious.iter().filter(|&&s| s >= threshold).count();
        if (alarms as f64) <= budget {
            spurious.sort_unstable();
            return Calibration {
                min_votes: threshold,
                false_alarms: alarms,
                hours_scanned: hours,
                spurious_scores: spurious,
            };
        }
        threshold += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorConfig;
    use crate::registry::DbBuilder;
    use s3_video::{extract_fingerprints, ExtractorParams, ProceduralVideo};

    fn fast_params() -> ExtractorParams {
        let mut p = ExtractorParams::default();
        p.harris.max_points = 6;
        p
    }

    #[test]
    fn calibration_finds_separating_threshold() {
        let mut b = DbBuilder::new(fast_params());
        for i in 0..3 {
            let v = ProceduralVideo::new(96, 72, 60, 3000 + i);
            b.add_video(&format!("ref-{i}"), &v);
        }
        let db = b.build();
        let det = Detector::new(&db, DetectorConfig::default());
        // Negative streams: unrelated seeds.
        let negatives: Vec<_> = (0..3)
            .map(|i| {
                extract_fingerprints(
                    &ProceduralVideo::new(96, 72, 60, 90_000 + i),
                    &fast_params(),
                )
            })
            .collect();
        let cal = calibrate_threshold(&det, &negatives);
        assert!(cal.min_votes >= 1);
        assert!(cal.hours_scanned > 0.0);
        // With the chosen threshold, a true copy must still be detectable.
        let mut cfg = DetectorConfig::default();
        cfg.vote.min_votes = cal.min_votes.max(3);
        let det2 = Detector::new(&db, cfg);
        let copy = ProceduralVideo::new(96, 72, 60, 3001);
        let found = det2.detect_video(&copy);
        assert!(
            found.iter().any(|d| d.id == 1),
            "copy lost at calibrated threshold {}: {found:?}",
            cal.min_votes
        );
    }

    #[test]
    fn monitor_calibration_not_below_clip_calibration() {
        let mut b = DbBuilder::new(fast_params());
        for i in 0..3 {
            let v = ProceduralVideo::new(96, 72, 60, 3100 + i);
            b.add_video(&format!("ref-{i}"), &v);
        }
        let db = b.build();
        let det = Detector::new(&db, DetectorConfig::default());
        let negatives: Vec<_> = (0..3)
            .map(|i| {
                extract_fingerprints(
                    &ProceduralVideo::new(96, 72, 120, 91_000 + i),
                    &fast_params(),
                )
            })
            .collect();
        let per_clip = calibrate_threshold(&det, &negatives);
        let windowed = calibrate_monitor_threshold(&det, &negatives);
        // A window no larger than the clip cannot create more spurious mass,
        // but sub-windows can isolate coincidences; both must be sane.
        assert!(windowed.min_votes >= 1);
        assert!(per_clip.min_votes >= 1);
        assert!(windowed.hours_scanned > 0.0);
    }

    #[test]
    fn empty_negatives_accept_threshold_one() {
        let mut b = DbBuilder::new(fast_params());
        b.add_video("only", &ProceduralVideo::new(96, 72, 40, 1));
        let db = b.build();
        let det = Detector::new(&db, DetectorConfig::default());
        let cal = calibrate_threshold(&det, &[]);
        assert_eq!(cal.min_votes, 1);
        assert_eq!(cal.false_alarms, 0);
        assert_eq!(cal.rate_per_hour(), 0.0);
    }
}
