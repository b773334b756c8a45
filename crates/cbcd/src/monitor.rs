//! Continuous stream monitoring (§V-D).
//!
//! The paper's deployment watches a TV channel around the clock against
//! 20,000+ hours of archives at twice real time. This module reproduces the
//! loop: candidate fingerprints arrive as a stream; results are buffered over
//! a sliding window of key-frames; the voting stage runs whenever the window
//! fills; consecutive detections of the same id with a consistent offset are
//! merged into one event.
//!
//! A 24/7 monitor also has to survive a flaky capture chain: fingerprints
//! with the wrong dimension (a corrupt extractor frame) or time-codes that
//! jump backwards (a dropped/re-synced segment) are *skipped and counted*
//! in a [`HealthReport`] instead of panicking mid-broadcast. Setting
//! [`MonitorParams::strict`] turns such degradation into a hard
//! [`MonitorError`] — the mode for offline runs where silent data loss
//! would invalidate the result.

use crate::detector::Detector;
use crate::metrics::CbcdMetrics;
use crate::voting::{vote, CandidateVotes, Detection};
use s3_obs::span;
use s3_video::LocalFingerprint;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Hard failures of a [`Monitor`] running in strict mode.
#[derive(Debug)]
pub enum MonitorError {
    /// A candidate time-code stepped backwards in the stream (a dropped or
    /// re-synced capture segment).
    OutOfOrder {
        /// The last accepted time-code.
        last_tc: u32,
        /// The offending time-code.
        got: u32,
    },
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::OutOfOrder { last_tc, got } => write!(
                f,
                "candidate time-code stepped backwards: {got} after {last_tc}"
            ),
        }
    }
}

impl Error for MonitorError {}

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

/// Parameters of the monitoring loop.
#[derive(Clone, Copy, Debug)]
pub struct MonitorParams {
    /// Number of candidate key-frames per voting window (the paper's "fixed
    /// number of key frames" buffer).
    pub window: usize,
    /// Overlap between consecutive windows, in key-frames.
    pub overlap: usize,
    /// Two detections of the same id merge when their offsets differ by at
    /// most this many frames.
    pub merge_offset_tolerance: f64,
    /// When true, corrupt or out-of-order fingerprints abort the run with a
    /// [`MonitorError`] instead of being skipped and counted.
    pub strict: bool,
}

impl Default for MonitorParams {
    fn default() -> Self {
        MonitorParams {
            window: 30,
            overlap: 10,
            merge_offset_tolerance: 4.0,
            strict: false,
        }
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
    /// Real-time factor assuming the given stream frame rate: values above 1
    /// mean the monitor runs faster than real time (the paper reports 2×).
    pub fn real_time_factor(&self, fps: f64) -> f64 {
        if self.elapsed.is_zero() {
            return f64::INFINITY;
        }
        (self.frames_covered / fps) / self.elapsed.as_secs_f64()
    }
}

/// Sliding-window monitor over a candidate fingerprint stream.
pub struct Monitor<'a> {
    detector: &'a Detector<'a>,
    params: MonitorParams,
    /// Grouped by key-frame: all fingerprints sharing one tc.
    buffer: Vec<CandidateVotes>,
    keyframe_tcs: Vec<f64>,
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
    pub fn new(detector: &'a Detector<'a>, params: MonitorParams) -> Self {
        assert!(params.window > params.overlap, "window must exceed overlap");
        Monitor {
            detector,
            params,
            buffer: Vec::new(),
            keyframe_tcs: Vec::new(),
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
    /// Searches run immediately; voting runs whenever the window fills.
    ///
    /// Time-codes stepping backwards (dropped or re-synced capture) are
    /// skipped and counted in the [`HealthReport`] — unless
    /// [`MonitorParams::strict`] is set, in which case they abort with a
    /// [`MonitorError`] before any of the chunk is consumed. Searches a
    /// deadline stopped are counted either way: a hit deadline is a policy
    /// outcome, flagged in the report, never an error.
    pub fn push(&mut self, fps: &[LocalFingerprint]) -> Result<(), MonitorError> {
        let health_before = self.health;
        let mut accepted: Vec<LocalFingerprint> = Vec::with_capacity(fps.len());
        let mut last_tc = self.last_input_tc;
        for f in fps {
            if let Some(last) = last_tc {
                if f.tc < last {
                    if self.params.strict {
                        return Err(MonitorError::OutOfOrder {
                            last_tc: last,
                            got: f.tc,
                        });
                    }
                    self.health.out_of_order_skipped += 1;
                    continue;
                }
            }
            last_tc = Some(f.tc);
            accepted.push(*f);
        }
        self.last_input_tc = last_tc;
        self.health.accepted += accepted.len();
        if accepted.is_empty() {
            CbcdMetrics::get().record_health_delta(&health_before, &self.health);
            return Ok(());
        }
        let fps = accepted.as_slice();
        let t0 = Instant::now();
        let search = self.detector.search(fps, false);
        self.health.degraded_queries += search.health.degraded_queries;
        for cv in search.votes(fps) {
            self.stats_fingerprints += 1;
            self.first_tc.get_or_insert(cv.tc);
            self.last_tc = self.last_tc.max(cv.tc);
            if self.keyframe_tcs.last() != Some(&cv.tc) {
                self.keyframe_tcs.push(cv.tc);
            }
            self.buffer.push(cv);
            if self.keyframe_tcs.len() >= self.params.window {
                self.run_window();
            }
        }
        self.busy += t0.elapsed();
        CbcdMetrics::get().record_health_delta(&health_before, &self.health);
        Ok(())
    }

    /// Health of the run so far.
    pub fn health(&self) -> HealthReport {
        self.health
    }

    /// Flushes any residual partial window and returns all merged events.
    pub fn finish(mut self) -> (Vec<MonitorEvent>, MonitorStats) {
        if !self.buffer.is_empty() {
            let t0 = Instant::now();
            self.vote_current();
            self.busy += t0.elapsed();
        }
        let stats = self.stats();
        (self.events, stats)
    }

    /// Throughput of the run so far: what [`Monitor::finish`] reports,
    /// before it votes the residual partial window.
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

    fn run_window(&mut self) {
        self.vote_current();
        // Slide: retain the overlap's key-frames.
        let keep_from = self.keyframe_tcs.len() - self.params.overlap;
        let cut_tc = self.keyframe_tcs[keep_from];
        self.keyframe_tcs.drain(..keep_from);
        self.buffer.retain(|cv| cv.tc >= cut_tc);
    }

    fn vote_current(&mut self) {
        self.stats_windows += 1;
        let mut sp = span!("monitor.window");
        sp.record("buffered", self.buffer.len() as f64);
        let window_tc = self.buffer.first().map_or(0.0, |cv| cv.tc);
        for det in vote(&self.buffer, &self.detector.config().vote) {
            self.merge_event(det, window_tc);
        }
    }

    fn merge_event(&mut self, det: Detection, window_tc: f64) {
        if let Some(e) = self.events.iter_mut().rev().find(|e| {
            e.id == det.id && (e.offset - det.offset).abs() <= self.params.merge_offset_tolerance
        }) {
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
        let mut b = DbBuilder::new(fast_params());
        for i in 0..4 {
            let v = ProceduralVideo::new(96, 72, 80, 2000 + i);
            b.add_video(&format!("ref-{i}"), &v);
        }
        let db = b.build();
        // Candidate stream: unrelated content, then a copy of ref-1, then
        // unrelated again. Time-codes are re-based to be monotone.
        let noise1 = ProceduralVideo::new(96, 72, 60, 555);
        let copy = ProceduralVideo::new(96, 72, 80, 2001);
        let noise2 = ProceduralVideo::new(96, 72, 60, 777);
        let mut stream = Vec::new();
        let mut base = 0u32;
        for (v, len) in [(&noise1, 60u32), (&copy, 80), (&noise2, 60)] {
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
        let mut mon = Monitor::new(&det, MonitorParams::default());
        // Feed in small chunks like a live stream.
        for chunk in stream.chunks(16) {
            mon.push(chunk).unwrap();
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
        let (db, stream) = setup();
        let det = Detector::new(&db, config());
        let mut params = MonitorParams::default();
        params.window = 10;
        params.overlap = 5;
        let mut mon = Monitor::new(&det, params);
        for chunk in stream.chunks(8) {
            mon.push(chunk).unwrap();
        }
        let (events, _) = mon.finish();
        let copies: Vec<_> = events.iter().filter(|e| e.id == 1).collect();
        assert_eq!(copies.len(), 1, "one merged event expected: {events:?}");
        assert!(copies[0].last_tc >= copies[0].first_tc);
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
        assert!((s.real_time_factor(25.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "window must exceed overlap")]
    fn bad_window_params() {
        let (db, _) = setup();
        let det = Detector::new(&db, config());
        let params = MonitorParams {
            window: 5,
            overlap: 5,
            merge_offset_tolerance: 1.0,
            strict: false,
        };
        let _ = Monitor::new(&det, params);
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
        let mut mon = Monitor::new(&det, MonitorParams::default());
        for chunk in stream.chunks(16) {
            mon.push(chunk).unwrap();
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

    #[test]
    fn strict_mode_rejects_out_of_order_stream() {
        let (db, mut stream) = setup();
        let n = stream.len();
        stream[n / 2].tc = 0;
        let det = Detector::new(&db, config());
        let params = MonitorParams {
            strict: true,
            ..MonitorParams::default()
        };
        let mut mon = Monitor::new(&det, params);
        let mut err = None;
        for chunk in stream.chunks(16) {
            if let Err(e) = mon.push(chunk) {
                err = Some(e);
                break;
            }
        }
        match err {
            Some(MonitorError::OutOfOrder { got: 0, .. }) => {}
            other => panic!("expected OutOfOrder, got {other:?}"),
        }
    }
}
