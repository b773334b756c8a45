//! Continuous stream monitoring (§V-D).
//!
//! The paper's deployment watches a TV channel around the clock against
//! 20,000+ hours of archives at twice real time. This module reproduces the
//! loop: candidate fingerprints arrive as a stream; results are buffered over
//! a sliding window of 30 key-frames, consecutive windows sharing 10; the
//! voting stage runs on a window once the key-frame after it arrives (or at
//! the end of the stream); consecutive detections of the same id whose
//! offsets differ by at most 4 frames are merged into one event.
//!
//! A 24/7 monitor also has to survive a flaky capture chain: fingerprints
//! whose time-codes jump backwards (a dropped/re-synced segment) are
//! *skipped and counted* in a [`HealthReport`] instead of panicking
//! mid-broadcast.

use crate::detector::Detector;
use crate::metrics::CbcdMetrics;
use crate::voting::{vote, CandidateVotes, Detection};
use crate::FRAME_RATE;
use s3_obs::span;
use s3_video::LocalFingerprint;
use std::time::{Duration, Instant};

/// Key-frames per vote window (the paper's "fixed number of key frames"
/// buffer).
const WINDOW: usize = 30;
/// Key-frames two consecutive windows share.
const OVERLAP: usize = 10;
/// Two detections of the same id merge into one event when their offsets
/// differ by at most this many frames.
const MERGE_OFFSET_TOLERANCE: f64 = 4.0;

/// The monitor's vote window over a stream of candidate votes in time-code
/// order: [`WINDOW`] whole key-frames (the candidates sharing one
/// time-code), consecutive windows sharing [`OVERLAP`]. The monitor and
/// the monitoring calibration ([`crate::calibrate`]) both cut their
/// windows here.
#[derive(Default)]
pub(crate) struct KeyframeWindow {
    /// The buffered candidates, in stream order.
    buffer: Vec<CandidateVotes>,
    /// The time-code of each buffered key-frame.
    keyframes: Vec<f64>,
}

impl KeyframeWindow {
    /// Adds one candidate. When it opens the key-frame after a full window,
    /// returns that window, and the window slides.
    pub(crate) fn push(&mut self, cv: CandidateVotes) -> Option<Vec<CandidateVotes>> {
        let mut full = None;
        if self.keyframes.last() != Some(&cv.tc) {
            if self.keyframes.len() == WINDOW {
                let cut_tc = self.keyframes[WINDOW - OVERLAP];
                self.keyframes.drain(..WINDOW - OVERLAP);
                let window = std::mem::take(&mut self.buffer);
                self.buffer = window.iter().filter(|v| v.tc >= cut_tc).cloned().collect();
                full = Some(window);
            }
            self.keyframes.push(cv.tc);
        }
        self.buffer.push(cv);
        full
    }

    /// Ends the stream: the last window, unless nothing was pushed.
    pub(crate) fn finish(self) -> Option<Vec<CandidateVotes>> {
        (!self.buffer.is_empty()).then_some(self.buffer)
    }
}

/// Health accounting of a monitoring run: what the input stream looked like
/// and what had to be discarded or partially answered to keep going.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Fingerprints accepted into the search stage.
    pub accepted: usize,
    /// Fingerprints skipped for stepping backwards in time.
    pub out_of_order_skipped: usize,
    /// Searches a deadline stopped before they finished (partial answers).
    pub degraded_queries: usize,
}

impl HealthReport {
    /// True when nothing was discarded and no search was degraded.
    pub fn healthy(&self) -> bool {
        self.out_of_order_skipped == 0 && self.degraded_queries == 0
    }
}

/// One merged monitoring event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonitorEvent {
    /// Detected reference id.
    pub id: u32,
    /// Estimated temporal offset.
    pub offset: f64,
    /// Strongest `n_sim` observed across merged windows.
    pub nsim: usize,
    /// Stream time-code of the first window that fired.
    pub first_tc: f64,
    /// Stream time-code of the last window that fired.
    pub last_tc: f64,
}

/// Throughput report of a monitoring run.
#[derive(Clone, Copy, Debug)]
pub struct MonitorStats {
    /// Candidate fingerprints processed.
    pub fingerprints: usize,
    /// Voting windows evaluated.
    pub windows: usize,
    /// Wall-clock time spent in search + voting.
    pub elapsed: Duration,
    /// Stream frames covered (from first to last candidate time-code).
    pub frames_covered: f64,
    /// What the input stream looked like and what was discarded.
    pub health: HealthReport,
}

impl MonitorStats {
    /// Real-time factor of the stream at [`FRAME_RATE`]: values above 1
    /// mean the monitor runs faster than real time (the paper reports 2×).
    pub fn real_time_factor(&self) -> f64 {
        if self.elapsed.is_zero() {
            return f64::INFINITY;
        }
        (self.frames_covered / FRAME_RATE) / self.elapsed.as_secs_f64()
    }
}

/// Sliding-window monitor over a candidate fingerprint stream.
pub struct Monitor<'a> {
    detector: &'a Detector<'a>,
    window: KeyframeWindow,
    events: Vec<MonitorEvent>,
    stats_fingerprints: usize,
    stats_windows: usize,
    busy: Duration,
    first_tc: Option<f64>,
    last_tc: f64,
    health: HealthReport,
    /// Last accepted input time-code (monotonicity check).
    last_input_tc: Option<u32>,
}

impl<'a> Monitor<'a> {
    /// Creates a monitor over a detector.
    pub fn new(detector: &'a Detector<'a>) -> Self {
        Monitor {
            detector,
            window: KeyframeWindow::default(),
            events: Vec::new(),
            stats_fingerprints: 0,
            stats_windows: 0,
            busy: Duration::ZERO,
            first_tc: None,
            last_tc: 0.0,
            health: HealthReport::default(),
            last_input_tc: None,
        }
    }

    /// Feeds a chunk of candidate fingerprints (ascending time-codes).
    /// Searches run immediately; a window is voted once the key-frame
    /// after it arrives.
    ///
    /// Time-codes stepping backwards (dropped or re-synced capture) are
    /// skipped and counted in the [`HealthReport`], as are searches a
    /// deadline stopped: a hit deadline is a policy outcome, flagged in the
    /// report, never an error.
    pub fn push(&mut self, fps: &[LocalFingerprint]) {
        let mut accepted: Vec<LocalFingerprint> = Vec::with_capacity(fps.len());
        for f in fps {
            if self.last_input_tc.is_some_and(|last| f.tc < last) {
                self.health.out_of_order_skipped += 1;
                continue;
            }
            self.last_input_tc = Some(f.tc);
            accepted.push(*f);
        }
        self.health.accepted += accepted.len();
        CbcdMetrics::get().accepted.add(accepted.len() as u64);
        if accepted.is_empty() {
            return;
        }
        let fps = accepted.as_slice();
        let t0 = Instant::now();
        let search = self.detector.search(fps, false);
        self.health.degraded_queries += search.health.degraded_queries;
        for cv in search.votes(fps) {
            self.stats_fingerprints += 1;
            self.first_tc.get_or_insert(cv.tc);
            self.last_tc = self.last_tc.max(cv.tc);
            if let Some(window) = self.window.push(cv) {
                self.vote_window(&window);
            }
        }
        self.busy += t0.elapsed();
    }

    /// Health of the run so far.
    pub fn health(&self) -> HealthReport {
        self.health
    }

    /// Votes the last window and returns all merged events.
    pub fn finish(mut self) -> (Vec<MonitorEvent>, MonitorStats) {
        if let Some(window) = std::mem::take(&mut self.window).finish() {
            let t0 = Instant::now();
            self.vote_window(&window);
            self.busy += t0.elapsed();
        }
        let stats = self.stats();
        (self.events, stats)
    }

    /// Throughput of the run so far: what [`Monitor::finish`] reports,
    /// before it votes the last window.
    pub fn stats(&self) -> MonitorStats {
        MonitorStats {
            fingerprints: self.stats_fingerprints,
            windows: self.stats_windows,
            elapsed: self.busy,
            frames_covered: self.first_tc.map_or(0.0, |f| self.last_tc - f),
            health: self.health,
        }
    }

    /// Events emitted so far.
    pub fn events(&self) -> &[MonitorEvent] {
        &self.events
    }

    /// Votes one window and merges its detections into the events.
    fn vote_window(&mut self, window: &[CandidateVotes]) {
        self.stats_windows += 1;
        let mut sp = span!("monitor.window");
        sp.record("buffered", window.len() as f64);
        let window_tc = window.first().map_or(0.0, |cv| cv.tc);
        for det in vote(window, &self.detector.config().vote) {
            self.merge_event(det, window_tc);
        }
    }

    fn merge_event(&mut self, det: Detection, window_tc: f64) {
        if let Some(e) = self
            .events
            .iter_mut()
            .rev()
            .find(|e| e.id == det.id && (e.offset - det.offset).abs() <= MERGE_OFFSET_TOLERANCE)
        {
            e.nsim = e.nsim.max(det.nsim);
            e.last_tc = e.last_tc.max(window_tc);
            return;
        }
        self.events.push(MonitorEvent {
            id: det.id,
            offset: det.offset,
            nsim: det.nsim,
            first_tc: window_tc,
            last_tc: window_tc,
        });
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit mutation reads clearer in tests
mod tests {
    use super::*;
    use crate::detector::DetectorConfig;
    use crate::registry::DbBuilder;
    use s3_video::{extract_fingerprints, ExtractorParams, ProceduralVideo};

    fn fast_params() -> ExtractorParams {
        let mut p = ExtractorParams::default();
        p.harris.max_points = 8;
        p
    }

    fn setup() -> (crate::registry::ReferenceDb, Vec<LocalFingerprint>) {
        setup_with(60)
    }

    /// The reference database, and a stream of `noise` frames of unrelated
    /// content, a copy of ref-1 (80 frames), then `noise` frames more.
    fn setup_with(noise: u32) -> (crate::registry::ReferenceDb, Vec<LocalFingerprint>) {
        let mut b = DbBuilder::new(fast_params());
        for i in 0..4 {
            let v = ProceduralVideo::new(96, 72, 80, 2000 + i);
            b.add_video(&format!("ref-{i}"), &v);
        }
        let db = b.build();
        // Candidate stream: unrelated content, then a copy of ref-1, then
        // unrelated again. Time-codes are re-based to be monotone.
        let noise1 = ProceduralVideo::new(96, 72, noise as usize, 555);
        let copy = ProceduralVideo::new(96, 72, 80, 2001);
        let noise2 = ProceduralVideo::new(96, 72, noise as usize, 777);
        let mut stream = Vec::new();
        let mut base = 0u32;
        for (v, len) in [(&noise1, noise), (&copy, 80), (&noise2, noise)] {
            let mut fps = extract_fingerprints(v, &fast_params());
            for f in &mut fps {
                f.tc += base;
            }
            stream.extend(fps);
            base += len;
        }
        (db, stream)
    }

    fn config() -> DetectorConfig {
        let mut c = DetectorConfig::default();
        c.vote.min_votes = 12;
        c
    }

    #[test]
    fn stream_monitoring_detects_embedded_copy() {
        let (db, stream) = setup();
        let cfg = config();
        let det = Detector::new(&db, cfg);
        let mut mon = Monitor::new(&det);
        // Feed in small chunks like a live stream.
        for chunk in stream.chunks(16) {
            mon.push(chunk);
        }
        let (events, stats) = mon.finish();
        assert!(
            events.iter().any(|e| e.id == 1),
            "embedded copy must raise an event: {events:?}"
        );
        assert!(stats.health.healthy(), "clean stream: {:?}", stats.health);
        // The copy was embedded at stream offset 60 ⇒ temporal offset ~60.
        let e = events.iter().find(|e| e.id == 1).unwrap();
        assert!((e.offset - 60.0).abs() <= 2.0, "offset {}", e.offset);
        assert!(stats.fingerprints > 0);
        assert!(stats.windows >= 1);
        assert!(stats.frames_covered > 100.0);
    }

    #[test]
    fn repeated_windows_merge_into_one_event() {
        // A stream over two windows long, the copy in its middle: every
        // window that sees the copy votes it, and the votes merge into one
        // event spanning them.
        let (db, stream) = setup_with(140);
        let mut keyframes: Vec<u32> = stream.iter().map(|f| f.tc).collect();
        keyframes.dedup();
        assert!(
            keyframes.len() >= 2 * WINDOW,
            "{} key-frames",
            keyframes.len()
        );
        let det = Detector::new(&db, config());
        let mut mon = Monitor::new(&det);
        for chunk in stream.chunks(8) {
            mon.push(chunk);
        }
        let (events, stats) = mon.finish();
        assert!(stats.windows >= 3, "{} windows", stats.windows);
        let copies: Vec<_> = events.iter().filter(|e| e.id == 1).collect();
        assert_eq!(copies.len(), 1, "one merged event expected: {events:?}");
        assert!(copies[0].last_tc > copies[0].first_tc, "{:?}", copies[0]);
    }

    #[test]
    fn accepted_fingerprints_reach_the_counter() {
        let (db, mut stream) = setup();
        let n = stream.len();
        for f in &mut stream[n / 2..n / 2 + 4] {
            f.tc = 0;
        }
        let det = Detector::new(&db, config());
        let accepted = &CbcdMetrics::get().accepted;
        let before = accepted.get();
        let mut mon = Monitor::new(&det);
        for chunk in stream.chunks(16) {
            mon.push(chunk);
        }
        let health = mon.health();
        assert_eq!((health.accepted, health.out_of_order_skipped), (n - 4, 4));
        // Other tests in this binary may push beside this one: at least ours.
        assert!(accepted.get() - before >= health.accepted as u64);
    }

    #[test]
    fn real_time_factor_math() {
        let s = MonitorStats {
            fingerprints: 0,
            windows: 0,
            elapsed: Duration::from_secs(10),
            frames_covered: 500.0,
            health: HealthReport::default(),
        };
        // 500 frames at 25 fps = 20 s of stream in 10 s of work → 2×.
        assert!((s.real_time_factor() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_stream_is_skipped_and_counted() {
        let (db, mut stream) = setup();
        // Corrupt the stream: drag a mid-stream block's time-codes backwards,
        // as a re-synced capture would.
        let n = stream.len();
        for f in &mut stream[n / 2..n / 2 + 8] {
            f.tc = 0;
        }
        let det = Detector::new(&db, config());
        let mut mon = Monitor::new(&det);
        for chunk in stream.chunks(16) {
            mon.push(chunk);
        }
        let (events, stats) = mon.finish();
        assert_eq!(stats.health.out_of_order_skipped, 8);
        assert!(!stats.health.healthy());
        // The monitor keeps answering: the embedded copy is still found.
        assert!(
            events.iter().any(|e| e.id == 1),
            "copy must survive a glitched stream: {events:?}"
        );
    }
}
