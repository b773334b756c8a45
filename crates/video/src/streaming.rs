//! Streaming fingerprint extraction — the only extraction loop.
//!
//! A live monitor (§V-D) receives frames one at a time: frames are pushed
//! into a [`StreamingExtractor`] as they arrive, and fingerprints come out
//! with a bounded delay. A clip that is available up front goes through the
//! same loop: [`crate::pipeline::extract_fingerprints`] pushes each of its
//! frames once and finishes.
//!
//! The delay is inherent to the method: a key-frame is an extremum of the
//! *Gaussian-smoothed* intensity-of-motion signal, so deciding whether frame
//! `t` is a key-frame needs the motion signal up to `t + 3σ` (the kernel
//! support), and describing it needs the frame at `t + temporal_offset`. The
//! extractor keeps exactly that many frames buffered and emits as soon as the
//! decision is safe. At the edges of a stream the smoothing kernel and the
//! temporal offsets clamp to the first and last frame.

use crate::features::{fingerprint_at, Fingerprint, FingerprintParams};
use crate::filtering::Kernel;
use crate::frame::Frame;
use crate::harris::{HarrisDetector, InterestPoint};
use crate::pipeline::{ExtractorParams, LocalFingerprint};
use std::collections::VecDeque;
use std::fmt;

/// A frame the extractor refuses to consume.
///
/// Live capture hardware occasionally delivers garbage — a resolution
/// glitch mid-stream, or frames after the driver reported end-of-stream.
/// [`StreamingExtractor::try_push`] reports these instead of panicking so a
/// monitor can skip-and-count (see `s3-cbcd`'s `HealthReport`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The extractor was already finished; no more frames are accepted.
    Finished,
    /// The frame's dimensions differ from the stream's established ones.
    FrameDims {
        /// Dimensions fixed by the first frame, `(width, height)`.
        expected: (usize, usize),
        /// Dimensions of the rejected frame.
        got: (usize, usize),
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Finished => write!(f, "extractor already finished"),
            StreamError::FrameDims { expected, got } => write!(
                f,
                "frame dimensions {}x{} do not match stream {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// A key-frame's interest point with its fingerprint: a [`LocalFingerprint`]
/// that still has its sub-pixel position.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Described {
    pub point: InterestPoint,
    pub local: LocalFingerprint,
}

/// The describe step of §III: Harris points on a key-frame, then the
/// differential descriptor at each of them. Owns the description kernels and
/// the Harris detector so neither is rebuilt per key-frame.
pub(crate) struct Describer {
    params: FingerprintParams,
    g: Kernel,
    d1: Kernel,
    d2: Kernel,
    harris: HarrisDetector,
}

impl Describer {
    fn new(params: &ExtractorParams) -> Self {
        let sigma = params.fingerprint.sigma;
        Describer {
            params: params.fingerprint,
            g: Kernel::gaussian(sigma),
            d1: Kernel::gaussian_d1(sigma),
            d2: Kernel::gaussian_d2(sigma),
            harris: HarrisDetector::new(params.harris),
        }
    }

    /// Turns key-frame `t` into fingerprints, appended to `out` strongest
    /// point first. `frame_at(u)` is frame `u` of the stream, clamped to the
    /// frames that exist. Every extraction path describes through here.
    pub(crate) fn describe<'f>(
        &mut self,
        t: usize,
        frame_at: impl Fn(isize) -> &'f Frame,
        out: &mut Vec<Described>,
    ) {
        let mut sp = s3_obs::span!("video.harris", "tc" => t as f64);
        let points = self.harris.detect(frame_at(t as isize));
        sp.record("points", points.len() as f64);
        drop(sp);
        let obs = s3_obs::registry();
        obs.histogram("video.points_per_frame")
            .record(points.len() as u64);
        if points.is_empty() {
            return;
        }
        let _sp = s3_obs::span!("video.describe", "tc" => t as f64, "fingerprints" => points.len() as f64);
        obs.counter("video.fingerprints").add(points.len() as u64);
        let offsets = self.params.offsets();
        let frames = offsets.map(|(_, _, dt)| frame_at(t as isize + dt));
        // Describe at the sub-pixel refined position: cuts the detector
        // imprecision the paper models as δ_pix.
        out.extend(points.into_iter().map(|point| Described {
            point,
            local: LocalFingerprint {
                fingerprint: self.fingerprint_at(frames, point.sx, point.sy),
                tc: t as u32,
                x: point.x,
                y: point.y,
            },
        }));
    }

    /// The descriptor at an arbitrary position of four description frames.
    pub(crate) fn fingerprint_at(&self, frames: [&Frame; 4], x: f32, y: f32) -> Fingerprint {
        fingerprint_at(frames, x, y, &self.params, &self.g, &self.d1, &self.d2)
    }
}

/// Incremental fingerprint extractor over a pushed frame stream.
pub struct StreamingExtractor {
    params: ExtractorParams,
    pub(crate) describer: Describer,
    smooth: Kernel,
    /// Raw motion samples `m[t] = meanAbsDiff(f[t], f[t+1])`.
    motion: Vec<f64>,
    /// Recent frames, `frames[0]` is frame `frames_base`; never empty once a
    /// frame was pushed (the newest is the next motion sample's left side).
    frames: VecDeque<Frame>,
    frames_base: usize,
    /// Next stream index to assign (= frames pushed so far).
    next_t: usize,
    /// Last emitted key-frame (enforces `min_gap`).
    last_keyframe: Option<usize>,
    /// Key-frames decided so far, with or without interest points on them.
    pub(crate) keyframes: usize,
    /// Next smoothed-motion index to examine for an extremum.
    next_probe: usize,
    /// Dimensions fixed by the first accepted frame.
    dims: Option<(usize, usize)>,
    finished: bool,
}

impl StreamingExtractor {
    /// Creates an extractor.
    pub fn new(params: ExtractorParams) -> Self {
        StreamingExtractor {
            params,
            describer: Describer::new(&params),
            smooth: Kernel::gaussian(params.keyframes.smooth_sigma),
            motion: Vec::new(),
            frames: VecDeque::new(),
            frames_base: 0,
            next_t: 0,
            last_keyframe: None,
            keyframes: 0,
            next_probe: 1,
            dims: None,
            finished: false,
        }
    }

    /// Pushes the next frame; returns any fingerprints that became decidable.
    ///
    /// # Panics
    /// If called after [`StreamingExtractor::finish`] or with a frame whose
    /// dimensions differ from the stream's. Use
    /// [`StreamingExtractor::try_push`] to recover from either instead.
    pub fn push(&mut self, frame: Frame) -> Vec<LocalFingerprint> {
        match self.try_push(frame) {
            Ok(fps) => fps,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`StreamingExtractor::push`].
    ///
    /// Rejects the frame — leaving the extractor state untouched, so the
    /// caller can simply drop it and continue — if the stream is finished or
    /// the frame's dimensions do not match the first accepted frame's.
    pub fn try_push(&mut self, frame: Frame) -> Result<Vec<LocalFingerprint>, StreamError> {
        let described = self.feed(Some(frame))?;
        Ok(described.iter().map(|d| d.local).collect())
    }

    /// Signals end-of-stream and returns the remaining fingerprints.
    pub fn finish(&mut self) -> Vec<LocalFingerprint> {
        // Only a frame can be rejected.
        let described = self.feed(None).unwrap_or_default();
        described.iter().map(|d| d.local).collect()
    }

    /// Takes the next frame (`None`: end of stream), decides every key-frame
    /// that became decidable and describes it from the buffered frames,
    /// sub-pixel positions kept. `try_push` and `finish` are this.
    pub(crate) fn feed(&mut self, frame: Option<Frame>) -> Result<Vec<Described>, StreamError> {
        if let Some(frame) = &frame {
            if self.finished {
                return Err(StreamError::Finished);
            }
            let got = (frame.width(), frame.height());
            match self.dims {
                Some(expected) if expected != got => {
                    return Err(StreamError::FrameDims { expected, got })
                }
                _ => self.dims = Some(got),
            }
        }
        let mut sp = s3_obs::span!("video.keyframes");
        self.finished = frame.is_none();
        if let Some(frame) = frame {
            if let Some(prev) = self.frames.back() {
                self.motion.push(f64::from(prev.mean_abs_diff(&frame)));
            }
            self.frames.push_back(frame);
            self.next_t += 1;
        }
        let dt = self.params.fingerprint.temporal_offset.unsigned_abs();
        let decided = self.decide(dt);
        self.keyframes += decided.len();
        sp.record("decided", decided.len() as f64);
        drop(sp);

        let mut out = Vec::new();
        let (lo, frames) = (self.frames_base as isize, &self.frames);
        for t in decided {
            let last = frames.len() as isize - 1;
            let frame_at = |u: isize| &frames[(u - lo).clamp(0, last) as usize];
            self.describer.describe(t, frame_at, &mut out);
        }
        // Frames below (next_probe - 1 - dt) can never be needed again.
        let keep_from = self.next_probe.saturating_sub(1 + dt);
        while self.frames_base < keep_from && self.frames.len() > 1 {
            self.frames.pop_front();
            self.frames_base += 1;
        }
        Ok(out)
    }

    /// Smoothed motion at index `i`, clamping the kernel at stream edges
    /// (identical to `Kernel::convolve_signal`'s clamp-to-edge semantics when
    /// the whole signal is available).
    fn smoothed(&self, i: usize) -> f64 {
        let n = self.motion.len() as isize;
        let r = self.smooth.radius() as isize;
        let mut acc = 0.0;
        for (k, &t) in self.smooth.taps().iter().enumerate() {
            let j = (i as isize + k as isize - r).clamp(0, n - 1) as usize;
            acc += f64::from(t) * self.motion[j];
        }
        acc
    }

    /// Probes the smoothed motion for extrema as far as the data allows and
    /// returns the key-frames decided: at most one per pushed frame in steady
    /// state, the last `radius + 2` probes at once when the stream finished.
    fn decide(&mut self, dt: usize) -> Vec<usize> {
        let r = self.smooth.radius();
        let min_gap = self.params.keyframes.min_gap.max(1);
        let mut decided = Vec::new();
        loop {
            let i = self.next_probe;
            // Deciding extremum at motion index i needs motion up to i+1
            // (neighbour) with the smoothing window fully inside known data,
            // and frames up to i + dt for the description.
            let need_motion = i + 1 + r;
            let need_frame = i + dt;
            if !self.finished && (self.motion.len() <= need_motion || self.next_t <= need_frame) {
                break;
            }
            if self.motion.len() < 3 || i + 1 >= self.motion.len() {
                break; // end of stream: no more extrema decidable
            }
            let (a, b, c) = (self.smoothed(i - 1), self.smoothed(i), self.smoothed(i + 1));
            let is_max = b > a && b >= c;
            let is_min = b < a && b <= c;
            if (is_max || is_min) && self.last_keyframe.is_none_or(|last| i >= last + min_gap) {
                self.last_keyframe = Some(i);
                decided.push(i);
            }
            self.next_probe = i + 1;
        }
        decided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::HELPERS;
    use crate::pipeline::{extract_fingerprints_on, oracle};
    use crate::synth::{ContentKind, ProceduralVideo, VideoSource};
    use crate::transform::{Transform, TransformChain, TransformedVideo};

    fn fast_params() -> ExtractorParams {
        let mut p = ExtractorParams::default();
        p.harris.max_points = 8;
        p
    }

    /// A clip held as frames, so a sweep over lengths renders it once.
    struct Frames<'a>(&'a [Frame]);

    impl VideoSource for Frames<'_> {
        fn width(&self) -> usize {
            self.0[0].width()
        }
        fn height(&self) -> usize {
            self.0[0].height()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn frame(&self, t: usize) -> Frame {
            self.0[t].clone()
        }
    }

    fn render(video: &impl VideoSource) -> Vec<Frame> {
        (0..video.len()).map(|t| video.frame(t)).collect()
    }

    /// `extract_fingerprints` must equal the batch loop it replaced on every
    /// clip, at every render-ahead helper count; the raw stream equals both
    /// wherever the clip has an extremum, and emits nothing where it has none
    /// (the degenerate rule is the batch driver's). Returns whether the clip
    /// had an extremum.
    fn assert_equals_oracle(frames: &[Frame], params: &ExtractorParams, what: &str) -> bool {
        let clip = Frames(frames);
        let n = frames.len();
        let expected = oracle::extract_fingerprints(&clip, params);
        for helpers in HELPERS {
            assert_eq!(
                extract_fingerprints_on(&clip, params, helpers),
                expected,
                "{what}, {n} frames: batch driver, {helpers} helpers"
            );
        }
        let mut ext = StreamingExtractor::new(*params);
        let mut streamed = Vec::new();
        for frame in frames {
            streamed.extend(ext.push(frame.clone()));
        }
        streamed.extend(ext.finish());
        if ext.keyframes > 0 {
            assert_eq!(streamed, expected, "{what}, {n} frames: raw stream");
        } else {
            assert!(streamed.is_empty(), "{what}, {n} frames: raw stream");
        }
        ext.keyframes > 0
    }

    #[test]
    fn batch_driver_and_raw_stream_equal_the_batch_oracle_at_every_length() {
        // Every prefix of a 130-frame clip, per content kind: one frame,
        // lengths below the temporal offset and below the smoothing support,
        // clips too short or too monotone to have an extremum.
        let mut wide = fast_params();
        wide.keyframes.min_gap = 1;
        wide.fingerprint.temporal_offset = 4;
        for kind in [ContentKind::Scene, ContentKind::Black, ContentKind::Noise] {
            let frames = render(&ProceduralVideo::with_kind(64, 48, 130, 0x57AE, kind));
            let mut with_extremum = 0;
            for n in 1..=frames.len() {
                let what = format!("{kind:?} 64x48");
                with_extremum +=
                    usize::from(assert_equals_oracle(&frames[..n], &fast_params(), &what));
                assert_equals_oracle(&frames[..n], &wide, &format!("{what}, min_gap 1 / dt 4"));
            }
            // Both sides of the degenerate rule are swept.
            assert!(
                (100..130).contains(&with_extremum),
                "{kind:?}: {with_extremum}"
            );
        }
    }

    #[test]
    fn batch_driver_and_raw_stream_equal_the_batch_oracle_on_attacked_copies() {
        let source = ProceduralVideo::new(96, 72, 120, 0x57AE);
        let chain = TransformChain::new(vec![
            Transform::Resize { wscale: 0.9 },
            Transform::Gamma { wgamma: 1.3 },
            Transform::Noise { wnoise: 6.0 },
        ]);
        let original = render(&source);
        let attacked = render(&TransformedVideo::new(&source, chain, 555));
        for n in [1, 2, 3, 4, 5, 9, 24, 40, 60, 97, 120] {
            assert_equals_oracle(&original[..n], &fast_params(), "96x72");
            assert_equals_oracle(&attacked[..n], &fast_params(), "96x72 attacked");
        }
    }

    #[test]
    fn emission_delay_is_bounded() {
        // A fingerprint for key-frame t must be emitted within the structural
        // lookahead: smoothing radius + 2 + temporal offset frames.
        let video = ProceduralVideo::new(96, 72, 100, 0xDE1A);
        let params = fast_params();
        let r = Kernel::gaussian(params.keyframes.smooth_sigma).radius();
        let dt = params.fingerprint.temporal_offset.unsigned_abs();
        let bound = r + dt + 3;
        let mut ext = StreamingExtractor::new(params);
        for t in 0..video.len() {
            for f in ext.push(video.frame(t)) {
                assert!(
                    t - (f.tc as usize) <= bound,
                    "key-frame {} emitted only at stream position {t}",
                    f.tc
                );
            }
        }
    }

    #[test]
    fn memory_stays_bounded() {
        // The module comment's "exactly that many frames": a probe trails the
        // newest frame by the smoothing support (or the temporal offset, if
        // larger) and its description reaches `temporal_offset` further back.
        let params = fast_params();
        let r = Kernel::gaussian(params.keyframes.smooth_sigma).radius();
        let dt = params.fingerprint.temporal_offset.unsigned_abs();
        let bound = (r + 2).max(dt) + dt + 1;
        let video = ProceduralVideo::new(96, 72, 200, 0x3E3);
        let mut ext = StreamingExtractor::new(params);
        for t in 0..video.len() {
            ext.push(video.frame(t));
            assert!(
                ext.frames.len() <= bound,
                "frame buffer grew to {} at t={t}, structure needs {bound}",
                ext.frames.len()
            );
        }
        assert_eq!(ext.frames.len(), bound, "steady state holds the bound");
    }

    #[test]
    fn short_and_empty_streams() {
        let mut ext = StreamingExtractor::new(fast_params());
        assert!(ext.finish().is_empty());

        let video = ProceduralVideo::new(96, 72, 3, 0x111);
        let mut ext = StreamingExtractor::new(fast_params());
        let mut all = Vec::new();
        for t in 0..3 {
            all.extend(ext.push(video.frame(t)));
        }
        all.extend(ext.finish());
        // Three frames rarely contain an extremum; just must not panic.
        assert!(all.len() <= 24);
    }

    #[test]
    fn try_push_rejects_bad_frames_without_losing_state() {
        let video = ProceduralVideo::new(96, 72, 60, 0x444);
        let mut ext = StreamingExtractor::new(fast_params());
        let mut clean = Vec::new();
        for t in 0..video.len() {
            if t == 20 {
                // A resolution glitch mid-stream: rejected, state untouched.
                let junk = Frame::from_data(8, 8, vec![0.0; 64]);
                assert_eq!(
                    ext.try_push(junk),
                    Err(StreamError::FrameDims {
                        expected: (96, 72),
                        got: (8, 8)
                    })
                );
            }
            clean.extend(ext.try_push(video.frame(t)).unwrap());
        }
        clean.extend(ext.finish());

        let mut ext2 = StreamingExtractor::new(fast_params());
        let mut reference = Vec::new();
        for t in 0..video.len() {
            reference.extend(ext2.push(video.frame(t)));
        }
        reference.extend(ext2.finish());
        assert_eq!(clean, reference, "a dropped frame must leave no trace");

        assert_eq!(
            ext.try_push(video.frame(0)),
            Err(StreamError::Finished),
            "finished extractor keeps rejecting"
        );
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn push_after_finish_panics() {
        let video = ProceduralVideo::new(96, 72, 2, 0x222);
        let mut ext = StreamingExtractor::new(fast_params());
        ext.push(video.frame(0));
        ext.finish();
        ext.push(video.frame(1));
    }
}
