//! The full fingerprint extraction pipeline (§III) and the matched-position
//! distortion measurement (§IV-C).
//!
//! Extraction: key-frame detection → Harris interest points per key-frame →
//! 20-byte differential fingerprint per point, tagged with the key-frame's
//! time-code and the point position.
//!
//! Distortion measurement: to estimate the model parameter σ without an
//! (imperfect) re-detection, the paper simulates a *perfect interest point
//! detector*: points detected in the original sequence are mapped through the
//! geometric transform, and the fingerprint is re-computed in the transformed
//! sequence at the mapped position (optionally shifted by δ_pix to simulate
//! detector imprecision). The per-component differences are the distortion
//! vectors `ΔS` that Fig. 1, Fig. 3 and Table I are built on.

use crate::features::{fingerprint_at, Fingerprint, FingerprintParams, FINGERPRINT_DIMS};
use crate::filtering::Kernel;
use crate::frame::Frame;
use crate::harris::{detect_interest_points, HarrisParams};
use crate::keyframes::{detect_keyframes, KeyframeParams};
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

/// Pre-built kernels shared across the pipeline.
struct Kernels {
    g: Kernel,
    d1: Kernel,
    d2: Kernel,
}

impl Kernels {
    fn new(sigma: f32) -> Self {
        Kernels {
            g: Kernel::gaussian(sigma),
            d1: Kernel::gaussian_d1(sigma),
            d2: Kernel::gaussian_d2(sigma),
        }
    }
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
    let offs = params.offsets();
    // Offsets use only ±temporal_offset; render each distinct frame once.
    let t_minus = clamp(-params.temporal_offset);
    let t_plus = clamp(params.temporal_offset);
    let f_minus = video.frame(t_minus);
    let f_plus = if t_plus == t_minus {
        f_minus.clone()
    } else {
        video.frame(t_plus)
    };
    let pick = |dt: isize| -> Frame {
        if clamp(dt) == t_minus {
            f_minus.clone()
        } else {
            f_plus.clone()
        }
    };
    [
        pick(offs[0].2),
        pick(offs[1].2),
        pick(offs[2].2),
        pick(offs[3].2),
    ]
}

/// Extracts all local fingerprints of a video.
pub fn extract_fingerprints(
    video: &impl VideoSource,
    params: &ExtractorParams,
) -> Vec<LocalFingerprint> {
    let mut sp = s3_obs::span!("video.extract", "frames" => video.len() as f64);
    let obs = s3_obs::registry();
    let points_per_frame = obs.histogram("video.points_per_frame");
    let kernels = Kernels::new(params.fingerprint.sigma);
    let keyframes = detect_keyframes(video, &params.keyframes);
    obs.counter("video.keyframes").add(keyframes.len() as u64);
    sp.record("keyframes", keyframes.len() as f64);
    let mut out = Vec::new();
    for &t in &keyframes {
        let key = video.frame(t);
        let points = detect_interest_points(&key, &params.harris);
        points_per_frame.record(points.len() as u64);
        if points.is_empty() {
            continue;
        }
        let frames = description_frames(video, t, &params.fingerprint);
        let frame_refs = [&frames[0], &frames[1], &frames[2], &frames[3]];
        for p in points {
            // Describe at the sub-pixel refined position: cuts the detector
            // imprecision the paper models as δ_pix.
            let fp = fingerprint_at(
                frame_refs,
                p.sx,
                p.sy,
                &params.fingerprint,
                &kernels.g,
                &kernels.d1,
                &kernels.d2,
            );
            out.push(LocalFingerprint {
                fingerprint: fp,
                tc: t as u32,
                x: p.x,
                y: p.y,
            });
        }
    }
    obs.counter("video.fingerprints").add(out.len() as u64);
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
    let kernels = Kernels::new(params.fingerprint.sigma);
    let transformed = TransformedVideo::new(video, chain.clone(), noise_seed);
    let keyframes = detect_keyframes(video, &params.keyframes);
    let (w, h) = (video.width(), video.height());
    let margin = params.fingerprint.spatial_offset + 3.0 * params.fingerprint.sigma + 1.0;
    let mut out = Vec::new();
    for &t in &keyframes {
        let key = video.frame(t);
        let points = detect_interest_points(&key, &params.harris);
        if points.is_empty() {
            continue;
        }
        let orig_frames = description_frames(video, t, &params.fingerprint);
        let orig_refs = [
            &orig_frames[0],
            &orig_frames[1],
            &orig_frames[2],
            &orig_frames[3],
        ];
        let trans_frames = description_frames(&transformed, t, &params.fingerprint);
        let trans_refs = [
            &trans_frames[0],
            &trans_frames[1],
            &trans_frames[2],
            &trans_frames[3],
        ];
        for p in points {
            let (mx, my) = chain.map_position(p.sx, p.sy, w, h);
            let (mx, my) = (mx + delta_pix, my + delta_pix);
            if mx < margin || my < margin || mx > w as f32 - margin || my > h as f32 - margin {
                continue;
            }
            let original = fingerprint_at(
                orig_refs,
                p.sx,
                p.sy,
                &params.fingerprint,
                &kernels.g,
                &kernels.d1,
                &kernels.d2,
            );
            let distorted = fingerprint_at(
                trans_refs,
                mx,
                my,
                &params.fingerprint,
                &kernels.g,
                &kernels.d1,
                &kernels.d2,
            );
            out.push(MatchedPair {
                original,
                distorted,
            });
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::ProceduralVideo;
    use crate::transform::Transform;

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
