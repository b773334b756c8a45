//! The whole-clip entry points of the extraction pipeline (§III) and the
//! matched-position distortion measurement (§IV-C).
//!
//! Extraction: key-frame detection → Harris interest points per key-frame →
//! 20-byte differential fingerprint per point, tagged with the key-frame's
//! time-code and the point position. The loop that does this is
//! [`StreamingExtractor`]; the functions here drive it over a
//! [`VideoSource`], rendering every frame exactly once, and add the one rule
//! only a whole clip can have: a clip whose motion signal has no extremum is
//! described at its middle frame ([`degenerate_keyframe`]).
//!
//! Rendering — the stand-in decoder — costs far more than extraction, so the
//! driver renders ahead on every core ([`render_ahead`]): the calling thread
//! and one helper per further core claim frame indices off one cursor, at
//! most a small window ahead of the extractor, and the extractor still
//! receives every frame once and in order. A frame is a pure function of its
//! index, so the fingerprints are the same bits at any core count.
//!
//! Distortion measurement: to estimate the model parameter σ without an
//! (imperfect) re-detection, the paper simulates a *perfect interest point
//! detector*: points detected in the original sequence are mapped through the
//! geometric transform, and the fingerprint is re-computed in the transformed
//! sequence at the mapped position (optionally shifted by δ_pix to simulate
//! detector imprecision). The per-component differences are the distortion
//! vectors `ΔS` that Fig. 1, Fig. 3 and Table I are built on.

use crate::features::{Fingerprint, FingerprintParams, FINGERPRINT_DIMS};
use crate::frame::Frame;
use crate::harris::HarrisParams;
use crate::keyframes::{degenerate_keyframe, KeyframeParams};
use crate::streaming::{Described, Describer, StreamingExtractor};
use crate::synth::VideoSource;
use crate::transform::{TransformChain, TransformedVideo};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// One extracted local fingerprint with its metadata.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalFingerprint {
    /// The 20-byte descriptor.
    pub fingerprint: Fingerprint,
    /// Time-code: frame index of the key-frame.
    pub tc: u32,
    /// Interest point column.
    pub x: u16,
    /// Interest point row.
    pub y: u16,
}

/// Parameters of the extraction pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExtractorParams {
    /// Key-frame detector parameters.
    pub keyframes: KeyframeParams,
    /// Harris detector parameters.
    pub harris: HarrisParams,
    /// Local description parameters.
    pub fingerprint: FingerprintParams,
}

/// Renders frame `u` of `video`, clamped to the clip, booked as `video.render`.
fn render<V: VideoSource + ?Sized>(video: &V, u: isize) -> Frame {
    let u = u.clamp(0, video.len() as isize - 1) as usize;
    let _sp = s3_obs::span!("video.render", "t" => u as f64);
    video.frame(u)
}

/// Renders every frame of `video` once and hands each to `each`, in order,
/// on the calling thread; stops at the first error `each` returns and
/// returns it.
///
/// Every core renders: the calling thread and one scoped helper per further
/// core ([`s3_obs::default_threads`]) claim frames off one cursor, never
/// more than two per thread past the next frame `each` takes. A caller whose
/// next frame is not ready renders the next unclaimed one itself; it waits
/// only for a frame a helper is already rendering. A single core spawns no
/// thread. Helpers re-enter the caller's [`s3_obs::QueryScope`], so their
/// `video.render` spans stay in the query's tree.
///
/// # Panics
/// If `video.frame` panics on any thread, with that thread's panic, once
/// every helper has stopped.
pub fn render_ahead<V, E>(video: &V, each: impl FnMut(Frame) -> Result<(), E>) -> Result<(), E>
where
    V: VideoSource + ?Sized,
{
    render_ahead_on(video, s3_obs::default_threads() - 1, each)
}

/// [`render_ahead`] with `helpers` helper threads (0: a plain loop).
pub(crate) fn render_ahead_on<V, E>(
    video: &V,
    helpers: usize,
    mut each: impl FnMut(Frame) -> Result<(), E>,
) -> Result<(), E>
where
    V: VideoSource + ?Sized,
{
    let len = video.len();
    let helpers = helpers.min(len.saturating_sub(1));
    if helpers == 0 {
        return (0..len).try_for_each(|t| each(render(video, t as isize)));
    }
    let ahead = Ahead::new(len, 2 * (helpers + 1));
    let qid = s3_obs::current_query();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers)
            .map(|_| {
                let ahead = &ahead;
                scope.spawn(move || {
                    let _scope = s3_obs::QueryScope::enter(qid);
                    ahead.help(video);
                })
            })
            .collect();
        let stop = Stop(&ahead);
        let mut result = Ok(());
        for t in 0..len {
            let Some(frame) = ahead.take(video, t) else {
                break; // a helper failed: its panic is resumed below
            };
            result = each(frame);
            if result.is_err() {
                break;
            }
        }
        drop(stop);
        for handle in handles {
            if let Err(panic) = handle.join() {
                resume_unwind(panic);
            }
        }
        result
    })
}

/// The frames a [`render_ahead`] has claimed and not yet handed on.
struct Ahead {
    state: Mutex<AheadState>,
    len: usize,
    window: usize,
    /// Signalled when a frame lands in its slot or the run stops.
    landed: Condvar,
    /// Signalled when the consumer takes a frame (the window moves) or the
    /// run stops.
    moved: Condvar,
}

struct AheadState {
    /// The first frame no thread has claimed.
    claimed: usize,
    /// The next frame the consumer takes; frames below `taken + window` may
    /// be claimed.
    taken: usize,
    /// Frame `t`, rendered and not yet taken, sits in slot `t % window`.
    slots: Vec<Option<Frame>>,
    /// The consumer is done (or unwinding), or a helper's render panicked.
    stopped: bool,
}

impl Ahead {
    fn new(len: usize, window: usize) -> Self {
        Ahead {
            state: Mutex::new(AheadState {
                claimed: 0,
                taken: 0,
                slots: vec![None; window],
                stopped: false,
            }),
            len,
            window,
            landed: Condvar::new(),
            moved: Condvar::new(),
        }
    }

    /// The state's guard. No code that can panic runs under the lock, and
    /// every update leaves the state whole, so a poisoned lock is still valid.
    fn lock(&self) -> MutexGuard<'_, AheadState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the first unclaimed frame if it lies inside the window.
    fn claim(&self, st: &mut AheadState) -> Option<usize> {
        let t = st.claimed;
        (t < self.len && t < st.taken + self.window).then(|| {
            st.claimed += 1;
            t
        })
    }

    /// A helper's loop: claim, render, land, until every frame is claimed
    /// or the run stops. A panicking render stops the run before it unwinds,
    /// so the consumer never waits for the frame that will not come.
    fn help<V: VideoSource + ?Sized>(&self, video: &V) {
        loop {
            let mut st = self.lock();
            let t = loop {
                if st.stopped || st.claimed >= self.len {
                    return;
                }
                match self.claim(&mut st) {
                    Some(t) => break t,
                    None => st = self.moved.wait(st).unwrap_or_else(PoisonError::into_inner),
                }
            };
            drop(st);
            match catch_unwind(AssertUnwindSafe(|| render(video, t as isize))) {
                Ok(frame) => self.land(t, frame),
                Err(panic) => {
                    self.stop();
                    resume_unwind(panic);
                }
            }
        }
    }

    fn land(&self, t: usize, frame: Frame) {
        self.lock().slots[t % self.window] = Some(frame);
        self.landed.notify_one();
    }

    /// Frame `t`, the consumer's next: taken from its slot if it landed,
    /// rendered here if nobody claimed it. Meanwhile the consumer renders
    /// whatever else the window lets it claim, and waits only while a helper
    /// renders `t` and the window is full. `None` once a helper failed.
    fn take<V: VideoSource + ?Sized>(&self, video: &V, t: usize) -> Option<Frame> {
        loop {
            let mut st = self.lock();
            let u = loop {
                if st.stopped {
                    return None;
                }
                if let Some(frame) = st.slots[t % self.window].take() {
                    st.taken = t + 1;
                    drop(st);
                    self.moved.notify_all();
                    return Some(frame);
                }
                match self.claim(&mut st) {
                    Some(u) => break u,
                    None => st = self.landed.wait(st).unwrap_or_else(PoisonError::into_inner),
                }
            };
            drop(st);
            let frame = render(video, u as isize);
            if u == t {
                self.lock().taken = t + 1;
                self.moved.notify_all();
                return Some(frame);
            }
            self.land(u, frame);
        }
    }

    /// Stops the run: helpers claim nothing more, a waiting consumer returns.
    fn stop(&self) {
        self.lock().stopped = true;
        self.moved.notify_all();
        self.landed.notify_all();
    }
}

/// Stops a [`render_ahead`] when dropped — also while the consumer unwinds,
/// so no helper is left waiting for the window to move.
struct Stop<'a>(&'a Ahead);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Pushes every frame of `video` through one [`StreamingExtractor`] — each
/// rendered once, ahead on `helpers` helper threads ([`render_ahead_on`]) —
/// handing the points of each decided key-frame to `sink` as they come out,
/// and returns the number of key-frames described.
///
/// A clip on which the extractor decides no key-frame (its smoothed motion
/// has no extremum, or fewer than three samples) is described at its
/// [`degenerate_keyframe`], re-rendering the three frames that takes. The
/// rule lives here, not in the extractor: it needs the length of the clip,
/// which a live stream does not have.
fn drive(
    video: &impl VideoSource,
    params: &ExtractorParams,
    helpers: usize,
    mut sink: impl FnMut(&Describer, &[Described]),
) -> usize {
    let mut ext = StreamingExtractor::new(*params);
    let fed = render_ahead_on(video, helpers, |frame| {
        let points = ext.feed(Some(frame))?;
        sink(&ext.describer, &points);
        Ok(())
    });
    match fed.and_then(|()| ext.feed(None)) {
        Ok(points) => sink(&ext.describer, &points),
        Err(e) => panic!("{e}"),
    }
    if ext.keyframes > 0 || video.is_empty() {
        return ext.keyframes;
    }
    let t = degenerate_keyframe(video.len() - 1) as isize;
    let dt = params.fingerprint.temporal_offset;
    let [key, before, after] = [0, -dt, dt].map(|o| render(video, t + o));
    let frame_at = |u: isize| match u - t {
        0 => &key,
        o if o == -dt => &before,
        _ => &after,
    };
    let mut points = Vec::new();
    ext.describer.describe(t as usize, frame_at, &mut points);
    sink(&ext.describer, &points);
    1
}

/// Extracts all local fingerprints of a video, rendering on every core
/// ([`render_ahead`]).
pub fn extract_fingerprints(
    video: &impl VideoSource,
    params: &ExtractorParams,
) -> Vec<LocalFingerprint> {
    extract_fingerprints_on(video, params, s3_obs::default_threads() - 1)
}

/// [`extract_fingerprints`] with `helpers` render-ahead helper threads.
pub(crate) fn extract_fingerprints_on(
    video: &impl VideoSource,
    params: &ExtractorParams,
    helpers: usize,
) -> Vec<LocalFingerprint> {
    let mut sp = s3_obs::span!("video.extract", "frames" => video.len() as f64);
    let mut out = Vec::new();
    let keyframes = drive(video, params, helpers, |_, points| {
        out.extend(points.iter().map(|p| p.local));
    });
    sp.record("keyframes", keyframes as f64);
    sp.record("fingerprints", out.len() as f64);
    out
}

/// A matched pair of fingerprints: original and its value in the transformed
/// sequence at the mapped position (the "perfect detector" of §IV-C).
#[derive(Clone, Copy, Debug)]
pub struct MatchedPair {
    /// Fingerprint in the original sequence.
    pub original: Fingerprint,
    /// Fingerprint at the mapped position of the transformed sequence.
    pub distorted: Fingerprint,
}

impl MatchedPair {
    /// The distortion vector `ΔS = S(m) − S(t(m))` as signed components.
    pub fn distortion(&self) -> [i32; FINGERPRINT_DIMS] {
        let mut d = [0i32; FINGERPRINT_DIMS];
        for (i, x) in d.iter_mut().enumerate() {
            *x = i32::from(self.original[i]) - i32::from(self.distorted[i]);
        }
        d
    }

    /// Euclidean norm of the distortion vector — the distance plotted in
    /// Fig. 1.
    pub fn distance(&self) -> f64 {
        let s: i64 = self
            .distortion()
            .iter()
            .map(|&d| i64::from(d) * i64::from(d))
            .sum();
        (s as f64).sqrt()
    }
}

/// Measures distortion vectors between a video and a transformed copy using
/// position-matched fingerprints.
///
/// `delta_pix` adds the paper's simulated detector imprecision: the mapped
/// position is shifted by `delta_pix` pixels (diagonally) before
/// re-description. Points whose mapped position falls outside the frame (or
/// too close to the border for the description window) are skipped, exactly
/// like a real detector would lose them.
pub fn measure_distortion(
    video: &impl VideoSource,
    chain: &TransformChain,
    params: &ExtractorParams,
    delta_pix: f32,
    noise_seed: u64,
) -> Vec<MatchedPair> {
    let helpers = s3_obs::default_threads() - 1;
    measure_distortion_on(video, chain, params, delta_pix, noise_seed, helpers)
}

/// [`measure_distortion`] with `helpers` render-ahead helper threads.
pub(crate) fn measure_distortion_on(
    video: &impl VideoSource,
    chain: &TransformChain,
    params: &ExtractorParams,
    delta_pix: f32,
    noise_seed: u64,
    helpers: usize,
) -> Vec<MatchedPair> {
    let transformed = TransformedVideo::new(video, chain.clone(), noise_seed);
    let (w, h) = (video.width(), video.height());
    let margin = params.fingerprint.spatial_offset + 3.0 * params.fingerprint.sigma + 1.0;
    let dt = params.fingerprint.temporal_offset;
    let mut out = Vec::new();
    drive(video, params, helpers, |describer, points| {
        for keyframe in points.chunk_by(|a, b| a.local.tc == b.local.tc) {
            // The transformed copy is rendered only where a key-frame with
            // points needs it: at `t ± temporal_offset`.
            let t = keyframe[0].local.tc as isize;
            let [before, after] = [-dt, dt].map(|o| render(&transformed, t + o));
            let offsets = params.fingerprint.offsets();
            let frames = offsets.map(|(_, _, o)| if o == -dt { &before } else { &after });
            for p in keyframe {
                let (mx, my) = chain.map_position(p.point.sx, p.point.sy, w, h);
                let (mx, my) = (mx + delta_pix, my + delta_pix);
                if mx < margin || my < margin || mx > w as f32 - margin || my > h as f32 - margin {
                    continue;
                }
                out.push(MatchedPair {
                    original: p.local.fingerprint,
                    distorted: describer.fingerprint_at(frames, mx, my),
                });
            }
        }
    });
    out
}

/// Estimates the paper's pooled σ̄ from matched pairs: the mean of the
/// per-component standard deviations of the distortion vectors (§IV-C).
pub fn estimate_sigma(pairs: &[MatchedPair]) -> f64 {
    assert!(pairs.len() >= 2, "need at least two pairs");
    let mut vm = s3_stats::VectorMoments::new(FINGERPRINT_DIMS);
    for p in pairs {
        let d = p.distortion();
        vm.add_i32(&d);
    }
    vm.mean_sigma()
}

/// The batch loops [`drive`] replaced, kept as oracles: key-frames from
/// [`detect_keyframes`] over the whole clip (one render per frame), then
/// each key-frame rendered again together with its description frames.
/// Extraction and distortion measurement must equal these on every input.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::features::fingerprint_at;
    use crate::filtering::Kernel;
    use crate::harris::detect_interest_points;
    use crate::keyframes::detect_keyframes;

    fn kernels(sigma: f32) -> [Kernel; 3] {
        [
            Kernel::gaussian(sigma),
            Kernel::gaussian_d1(sigma),
            Kernel::gaussian_d2(sigma),
        ]
    }

    /// Renders the four description frames around key-frame `t`, clamping
    /// temporal offsets at the video boundaries.
    fn description_frames(
        video: &impl VideoSource,
        t: usize,
        params: &FingerprintParams,
    ) -> [Frame; 4] {
        let clamp =
            |dt: isize| -> usize { (t as isize + dt).clamp(0, video.len() as isize - 1) as usize };
        let t_minus = clamp(-params.temporal_offset);
        let t_plus = clamp(params.temporal_offset);
        let f_minus = video.frame(t_minus);
        let f_plus = if t_plus == t_minus {
            f_minus.clone()
        } else {
            video.frame(t_plus)
        };
        params.offsets().map(|(_, _, dt)| {
            if clamp(dt) == t_minus {
                f_minus.clone()
            } else {
                f_plus.clone()
            }
        })
    }

    pub(crate) fn extract_fingerprints(
        video: &impl VideoSource,
        params: &ExtractorParams,
    ) -> Vec<LocalFingerprint> {
        let [g, d1, d2] = kernels(params.fingerprint.sigma);
        let mut out = Vec::new();
        for t in detect_keyframes(video, &params.keyframes) {
            let key = video.frame(t);
            let points = detect_interest_points(&key, &params.harris);
            if points.is_empty() {
                continue;
            }
            let frames = description_frames(video, t, &params.fingerprint);
            let frames = [&frames[0], &frames[1], &frames[2], &frames[3]];
            for p in points {
                out.push(LocalFingerprint {
                    fingerprint: fingerprint_at(
                        frames,
                        p.sx,
                        p.sy,
                        &params.fingerprint,
                        &g,
                        &d1,
                        &d2,
                    ),
                    tc: t as u32,
                    x: p.x,
                    y: p.y,
                });
            }
        }
        out
    }

    pub(crate) fn measure_distortion(
        video: &impl VideoSource,
        chain: &TransformChain,
        params: &ExtractorParams,
        delta_pix: f32,
        noise_seed: u64,
    ) -> Vec<MatchedPair> {
        let [g, d1, d2] = kernels(params.fingerprint.sigma);
        let transformed = TransformedVideo::new(video, chain.clone(), noise_seed);
        let (w, h) = (video.width(), video.height());
        let margin = params.fingerprint.spatial_offset + 3.0 * params.fingerprint.sigma + 1.0;
        let mut out = Vec::new();
        for t in detect_keyframes(video, &params.keyframes) {
            let key = video.frame(t);
            let points = detect_interest_points(&key, &params.harris);
            if points.is_empty() {
                continue;
            }
            let orig = description_frames(video, t, &params.fingerprint);
            let orig = [&orig[0], &orig[1], &orig[2], &orig[3]];
            let trans = description_frames(&transformed, t, &params.fingerprint);
            let trans = [&trans[0], &trans[1], &trans[2], &trans[3]];
            for p in points {
                let (mx, my) = chain.map_position(p.sx, p.sy, w, h);
                let (mx, my) = (mx + delta_pix, my + delta_pix);
                if mx < margin || my < margin || mx > w as f32 - margin || my > h as f32 - margin {
                    continue;
                }
                let fp =
                    |frames, x, y| fingerprint_at(frames, x, y, &params.fingerprint, &g, &d1, &d2);
                out.push(MatchedPair {
                    original: fp(orig, p.sx, p.sy),
                    distorted: fp(trans, mx, my),
                });
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::keyframes::detect_keyframes;
    use crate::synth::ProceduralVideo;
    use crate::transform::Transform;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The helper counts every driver test runs at: none (a plain loop),
    /// the benchmark host's one, and more helpers than that host has cores.
    pub(crate) const HELPERS: [usize; 3] = [0, 1, 3];

    /// Counts the frames rendered from the wrapped source, on any thread.
    struct Counting<V> {
        inner: V,
        renders: AtomicUsize,
    }

    impl<V: VideoSource> Counting<V> {
        fn new(inner: V) -> Self {
            Counting {
                inner,
                renders: AtomicUsize::new(0),
            }
        }

        /// Frames rendered so far; every renderer has been joined when a
        /// driver returns.
        fn renders(&self) -> usize {
            self.renders.load(Ordering::SeqCst)
        }
    }

    impl<V: VideoSource> VideoSource for Counting<V> {
        fn width(&self) -> usize {
            self.inner.width()
        }
        fn height(&self) -> usize {
            self.inner.height()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn frame(&self, t: usize) -> Frame {
            self.renders.fetch_add(1, Ordering::SeqCst);
            self.inner.frame(t)
        }
    }

    /// The `detect_default` benchmark's first candidate: 40 frames under
    /// resize 0.9 + gamma 1.3 + noise 6, `max_points` 12.
    fn benchmark_candidate(source: &ProceduralVideo) -> TransformedVideo<'_, ProceduralVideo> {
        let chain = TransformChain::new(vec![
            Transform::Resize { wscale: 0.9 },
            Transform::Gamma { wgamma: 1.3 },
            Transform::Noise { wnoise: 6.0 },
        ]);
        TransformedVideo::new(source, chain, 555)
    }

    #[test]
    fn extraction_renders_every_frame_exactly_once() {
        let mut params = ExtractorParams::default();
        params.harris.max_points = 12;
        // Content seed and index of `benchmark/src/inputs.rs`'s clip 100.
        let source = ProceduralVideo::new(96, 72, 40, 0xF17 ^ (100 << 24));
        // The loop this replaced rendered the clip once for the motion
        // signal and each key-frame up to three times more.
        let old = Counting::new(benchmark_candidate(&source));
        let expected = oracle::extract_fingerprints(&old, &params);
        assert_eq!(old.renders(), 67);
        assert!(!expected.is_empty());
        for helpers in HELPERS {
            let clip = Counting::new(benchmark_candidate(&source));
            let fps = extract_fingerprints_on(&clip, &params, helpers);
            assert_eq!(
                clip.renders(),
                40,
                "one render per frame, {helpers} helpers"
            );
            assert_eq!(fps, expected, "{helpers} helpers");
        }
    }

    #[test]
    fn render_ahead_spans_keep_the_callers_query() {
        const QUERY: u64 = 0x5EED_0047;
        let params = fast_params();
        let v = small_video(12);
        let spans = s3_obs::RingCollector::new(1 << 16);
        s3_obs::set_span_sink(Box::new(std::sync::Arc::clone(&spans)));
        let _scope = s3_obs::QueryScope::enter(QUERY);
        for helpers in HELPERS {
            extract_fingerprints_on(&v, &params, helpers);
            // Other tests of this binary render meanwhile, but never under
            // this id: a helper that lost the scope shows as a missing span.
            let mut rendered: Vec<usize> = spans
                .drain()
                .iter()
                .filter(|r| r.name == "video.render" && r.query_id == QUERY)
                .map(|r| r.fields[0].1 as usize)
                .collect();
            rendered.sort_unstable();
            assert_eq!(
                rendered,
                (0..v.len()).collect::<Vec<_>>(),
                "{helpers} helpers"
            );
        }
        s3_obs::clear_span_sink();
    }

    /// Frame 17 of the wrapped source panics.
    struct Broken(ProceduralVideo);

    impl VideoSource for Broken {
        fn width(&self) -> usize {
            self.0.width()
        }
        fn height(&self) -> usize {
            self.0.height()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn frame(&self, t: usize) -> Frame {
            assert_ne!(t, 17, "frame 17 is unreadable");
            self.0.frame(t)
        }
    }

    /// Every frame rendered off the calling thread panics, and the calling
    /// thread's renders wait until a helper has started one: with any
    /// helper, the failing render is a helper's.
    struct HelperFails {
        inner: ProceduralVideo,
        caller: std::thread::ThreadId,
        helper_started: (std::sync::Mutex<bool>, Condvar),
    }

    impl VideoSource for HelperFails {
        fn width(&self) -> usize {
            self.inner.width()
        }
        fn height(&self) -> usize {
            self.inner.height()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn frame(&self, t: usize) -> Frame {
            let (started, cv) = &self.helper_started;
            if std::thread::current().id() != self.caller {
                *started.lock().unwrap() = true;
                cv.notify_all();
                panic!("a helper's render failed");
            }
            drop(cv.wait_while(started.lock().unwrap(), |s| !*s).unwrap());
            self.inner.frame(t)
        }
    }

    /// Runs `extract` and returns the message it panicked with.
    fn panic_message(extract: impl FnOnce() -> Vec<LocalFingerprint>) -> String {
        let panic = std::panic::catch_unwind(AssertUnwindSafe(extract))
            .expect_err("a panicking frame must fail the extraction");
        match panic.downcast::<String>() {
            Ok(message) => *message,
            Err(panic) => panic.downcast_ref::<&str>().unwrap_or(&"").to_string(),
        }
    }

    #[test]
    fn a_failing_frame_fails_the_extraction_on_any_thread() {
        let v = Broken(small_video(13));
        for helpers in HELPERS {
            let message = panic_message(|| extract_fingerprints_on(&v, &fast_params(), helpers));
            assert!(
                message.contains("frame 17 is unreadable"),
                "{helpers} helpers: {message:?}"
            );
        }
        for helpers in [1, 3] {
            let v = HelperFails {
                inner: small_video(13),
                caller: std::thread::current().id(),
                helper_started: Default::default(),
            };
            let message = panic_message(|| extract_fingerprints_on(&v, &fast_params(), helpers));
            assert_eq!(message, "a helper's render failed", "{helpers} helpers");
        }
    }

    /// `len` copies of one frame: a motion signal without an extremum.
    struct Still(Frame, usize);

    impl VideoSource for Still {
        fn width(&self) -> usize {
            self.0.width()
        }
        fn height(&self) -> usize {
            self.0.height()
        }
        fn len(&self) -> usize {
            self.1
        }
        fn frame(&self, _: usize) -> Frame {
            self.0.clone()
        }
    }

    #[test]
    fn degenerate_clips_render_at_most_three_frames_more() {
        let params = fast_params();
        let textured = small_video(4).frame(7);
        // Static content has no motion extremum; clips under four frames
        // have too few samples for one.
        for len in [30, 9, 3, 2, 1] {
            let v = Still(textured.clone(), len);
            let clip = Counting::new(&v);
            let fps = extract_fingerprints(&clip, &params);
            let renders = clip.renders();
            assert!(
                renders > len && renders <= len + 3,
                "{len} frames, {renders} renders"
            );
            assert!(!fps.is_empty());
            assert!(fps
                .iter()
                .all(|f| f.tc as usize == degenerate_keyframe(len - 1)));
            assert_eq!(fps, oracle::extract_fingerprints(&v, &params));
        }
        assert!(extract_fingerprints(&Still(textured, 0), &params).is_empty());
    }

    #[test]
    fn distortion_measurement_renders_once_and_equals_the_batch_oracle() {
        let params = fast_params();
        let chains = [
            TransformChain::identity(),
            TransformChain::new(vec![
                Transform::Resize { wscale: 0.84 },
                Transform::Noise { wnoise: 8.0 },
            ]),
        ];
        for (i, chain) in chains.iter().enumerate() {
            let v = small_video(40 + i as u64);
            let keyframes = detect_keyframes(&v, &params.keyframes).len();
            let expected = oracle::measure_distortion(&v, chain, &params, 1.0, 9);
            assert!(!expected.is_empty());
            for helpers in HELPERS {
                let clip = Counting::new(&v);
                let pairs = measure_distortion_on(&clip, chain, &params, 1.0, 9, helpers);
                // The transformed view renders its source underneath: the
                // original once per frame, the view at most twice per
                // key-frame.
                let extra = clip.renders() - v.len();
                assert!(
                    extra > 0 && extra <= 2 * keyframes,
                    "{extra} renders for {keyframes} key-frames, {helpers} helpers"
                );
                assert_eq!(pairs.len(), expected.len());
                for (got, want) in pairs.iter().zip(&expected) {
                    assert_eq!(
                        (got.original, got.distorted),
                        (want.original, want.distorted),
                        "{helpers} helpers"
                    );
                }
            }
        }
    }

    fn small_video(seed: u64) -> ProceduralVideo {
        ProceduralVideo::new(96, 72, 60, seed)
    }

    fn fast_params() -> ExtractorParams {
        let mut p = ExtractorParams::default();
        p.harris.max_points = 8;
        p
    }

    #[test]
    fn extraction_produces_tagged_fingerprints() {
        let v = small_video(31);
        let fps = extract_fingerprints(&v, &fast_params());
        assert!(fps.len() >= 10, "got {}", fps.len());
        for f in &fps {
            assert!((f.tc as usize) < v.len());
            assert!((f.x as usize) < v.width());
            assert!((f.y as usize) < v.height());
        }
        // Time-codes are non-decreasing (key-frame order).
        for w in fps.windows(2) {
            assert!(w[0].tc <= w[1].tc);
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let v = small_video(8);
        let a = extract_fingerprints(&v, &fast_params());
        let b = extract_fingerprints(&v, &fast_params());
        assert_eq!(a, b);
    }

    #[test]
    fn identity_transform_gives_zero_distortion() {
        let v = small_video(5);
        let pairs = measure_distortion(&v, &TransformChain::identity(), &fast_params(), 0.0, 0);
        assert!(!pairs.is_empty());
        for p in &pairs {
            assert_eq!(p.distance(), 0.0, "identity must not distort");
        }
    }

    #[test]
    fn noise_transform_produces_bounded_distortion() {
        let v = small_video(6);
        let chain = TransformChain::new(vec![Transform::Noise { wnoise: 10.0 }]);
        let pairs = measure_distortion(&v, &chain, &fast_params(), 0.0, 1);
        assert!(pairs.len() >= 5);
        let mean_dist: f64 =
            pairs.iter().map(MatchedPair::distance).sum::<f64>() / pairs.len() as f64;
        assert!(mean_dist > 0.0, "noise must distort");
        assert!(
            mean_dist < 400.0,
            "distortion should stay moderate: {mean_dist}"
        );
    }

    #[test]
    fn severity_orders_with_transform_strength() {
        // Stronger gamma change ⇒ larger σ̄ (the paper's severity measure).
        let v = small_video(7);
        let params = fast_params();
        let mild = TransformChain::new(vec![Transform::Gamma { wgamma: 0.95 }]);
        let severe = TransformChain::new(vec![Transform::Gamma { wgamma: 2.2 }]);
        let mild_pairs = measure_distortion(&v, &mild, &params, 0.0, 2);
        let severe_pairs = measure_distortion(&v, &severe, &params, 0.0, 2);
        let s_mild = estimate_sigma(&mild_pairs);
        let s_severe = estimate_sigma(&severe_pairs);
        assert!(
            s_severe > s_mild,
            "severity must grow: mild {s_mild:.2} vs severe {s_severe:.2}"
        );
    }

    #[test]
    fn delta_pix_increases_distortion() {
        let v = small_video(9);
        let params = fast_params();
        let chain = TransformChain::identity();
        let exact = measure_distortion(&v, &chain, &params, 0.0, 0);
        let shifted = measure_distortion(&v, &chain, &params, 1.0, 0);
        let d_exact: f64 =
            exact.iter().map(MatchedPair::distance).sum::<f64>() / exact.len() as f64;
        let d_shift: f64 =
            shifted.iter().map(MatchedPair::distance).sum::<f64>() / shifted.len() as f64;
        assert!(d_shift > d_exact, "{d_shift} vs {d_exact}");
    }

    #[test]
    fn resize_skips_out_of_frame_points() {
        // Zooming out maps border points outside the margin: fewer pairs than
        // points, but still a useful number.
        let v = small_video(10);
        let chain = TransformChain::new(vec![Transform::Resize { wscale: 1.3 }]);
        let pairs = measure_distortion(&v, &chain, &fast_params(), 0.0, 0);
        // With wscale > 1, interior points spread outward; some are lost.
        let all = measure_distortion(&v, &TransformChain::identity(), &fast_params(), 0.0, 0);
        assert!(pairs.len() <= all.len());
        assert!(!pairs.is_empty());
    }

    #[test]
    fn distortion_vector_matches_components() {
        let p = MatchedPair {
            original: [10; 20],
            distorted: {
                let mut d = [10u8; 20];
                d[0] = 13;
                d[19] = 4;
                d
            },
        };
        let d = p.distortion();
        assert_eq!(d[0], -3);
        assert_eq!(d[19], 6);
        assert_eq!(d[5], 0);
        assert!((p.distance() - ((9.0f64 + 36.0).sqrt())).abs() < 1e-12);
    }
}
