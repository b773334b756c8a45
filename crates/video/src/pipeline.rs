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
fn render(video: &impl VideoSource, u: isize) -> Frame {
    let u = u.clamp(0, video.len() as isize - 1) as usize;
    let _sp = s3_obs::span!("video.render", "t" => u as f64);
    video.frame(u)
}

/// Pushes every frame of `video` through one [`StreamingExtractor`] — each
/// rendered once — handing the points of each decided key-frame to `sink`
/// as they come out, and returns the number of key-frames described.
///
/// A clip on which the extractor decides no key-frame (its smoothed motion
/// has no extremum, or fewer than three samples) is described at its
/// [`degenerate_keyframe`], re-rendering the three frames that takes. The
/// rule lives here, not in the extractor: it needs the length of the clip,
/// which a live stream does not have.
fn drive(
    video: &impl VideoSource,
    params: &ExtractorParams,
    mut sink: impl FnMut(&Describer, &[Described]),
) -> usize {
    let mut ext = StreamingExtractor::new(*params);
    let frames = (0..video.len()).map(|t| Some(render(video, t as isize)));
    for frame in frames.chain([None]) {
        match ext.feed(frame) {
            Ok(points) => sink(&ext.describer, &points),
            Err(e) => panic!("{e}"),
        }
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

/// Extracts all local fingerprints of a video.
pub fn extract_fingerprints(
    video: &impl VideoSource,
    params: &ExtractorParams,
) -> Vec<LocalFingerprint> {
    let mut sp = s3_obs::span!("video.extract", "frames" => video.len() as f64);
    let mut out = Vec::new();
    let keyframes = drive(video, params, |_, points| {
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
    let transformed = TransformedVideo::new(video, chain.clone(), noise_seed);
    let (w, h) = (video.width(), video.height());
    let margin = params.fingerprint.spatial_offset + 3.0 * params.fingerprint.sigma + 1.0;
    let dt = params.fingerprint.temporal_offset;
    let mut out = Vec::new();
    drive(video, params, |describer, points| {
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
mod tests {
    use super::*;
    use crate::keyframes::detect_keyframes;
    use crate::synth::ProceduralVideo;
    use crate::transform::Transform;
    use std::cell::Cell;

    /// Counts the frames rendered from the wrapped source.
    struct Counting<V> {
        inner: V,
        renders: Cell<usize>,
    }

    impl<V: VideoSource> Counting<V> {
        fn new(inner: V) -> Self {
            Counting {
                inner,
                renders: Cell::new(0),
            }
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
            self.renders.set(self.renders.get() + 1);
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
        let clip = Counting::new(benchmark_candidate(&source));
        let fps = extract_fingerprints(&clip, &params);
        assert!(!fps.is_empty());
        assert_eq!(clip.renders.get(), 40, "one render per frame");
        // The loop this replaced rendered the clip once for the motion
        // signal and each key-frame up to three times more.
        let old = Counting::new(benchmark_candidate(&source));
        assert_eq!(oracle::extract_fingerprints(&old, &params), fps);
        assert_eq!(old.renders.get(), 67);
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
            let renders = clip.renders.get();
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
            let clip = Counting::new(&v);
            let pairs = measure_distortion(&clip, chain, &params, 1.0, 9);
            // The transformed view renders its source underneath: the
            // original once per frame, the view at most twice per key-frame.
            let keyframes = detect_keyframes(&v, &params.keyframes).len();
            let extra = clip.renders.get() - v.len();
            assert!(
                extra > 0 && extra <= 2 * keyframes,
                "{extra} renders for {keyframes} key-frames"
            );
            let expected = oracle::measure_distortion(&v, chain, &params, 1.0, 9);
            assert!(!pairs.is_empty());
            assert_eq!(pairs.len(), expected.len());
            for (got, want) in pairs.iter().zip(&expected) {
                assert_eq!(
                    (got.original, got.distorted),
                    (want.original, want.distorted)
                );
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
