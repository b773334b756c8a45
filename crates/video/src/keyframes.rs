//! Key-frame detection from the intensity of motion (§III).
//!
//! The paper selects key-frames at the extrema of the Gaussian-smoothed
//! *intensity of motion* — the mean absolute difference between consecutive
//! frames. Extrema are where the content is most stable (minima) or where
//! activity peaks (maxima), giving a sampling that is robust to the temporal
//! shifts a copy undergoes.

use crate::filtering::Kernel;
use crate::synth::VideoSource;

/// Parameters of the key-frame detector.
#[derive(Clone, Copy, Debug)]
pub struct KeyframeParams {
    /// Standard deviation (in frames) of the Gaussian applied to the motion
    /// signal.
    pub smooth_sigma: f32,
    /// Minimum spacing between selected key-frames, in frames.
    pub min_gap: usize,
}

impl Default for KeyframeParams {
    fn default() -> Self {
        KeyframeParams {
            smooth_sigma: 2.0,
            min_gap: 3,
        }
    }
}

/// Computes the raw intensity-of-motion signal: `m[t] = meanAbsDiff(f[t],
/// f[t+1])` for `t in 0..len-1`. Empty for videos of fewer than 2 frames.
pub fn intensity_of_motion(video: &impl VideoSource) -> Vec<f64> {
    let n = video.len();
    if n < 2 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(n - 1);
    let mut prev = video.frame(0);
    for t in 1..n {
        let cur = video.frame(t);
        out.push(f64::from(prev.mean_abs_diff(&cur)));
        prev = cur;
    }
    out
}

/// The key-frame of a clip whose smoothed motion signal of `samples` values
/// has no extremum: the middle one, or the first below three samples (too
/// few for an extremum to exist). A one-frame clip (no sample) keeps its
/// only frame.
///
/// This is a whole-clip rule: it needs the clip's length, so a live stream —
/// which cannot go back to its middle frame — never applies it.
pub fn degenerate_keyframe(samples: usize) -> usize {
    if samples < 3 {
        0
    } else {
        samples / 2
    }
}

/// Finds the local extrema (minima and maxima) of a signal, with a minimum
/// index gap between reported extrema. Plateaus report their first index.
/// A non-empty signal without any (monotone, constant or shorter than three)
/// reports its [`degenerate_keyframe`].
pub fn extrema(signal: &[f64], min_gap: usize) -> Vec<usize> {
    let n = signal.len();
    let mut out: Vec<usize> = Vec::new();
    let push = |i: usize, out: &mut Vec<usize>| {
        if out.last().is_none_or(|&last| i >= last + min_gap.max(1)) {
            out.push(i);
        }
    };
    for i in 1..n.saturating_sub(1) {
        let (a, b, c) = (signal[i - 1], signal[i], signal[i + 1]);
        let is_max = b > a && b >= c;
        let is_min = b < a && b <= c;
        if is_max || is_min {
            push(i, &mut out);
        }
    }
    if out.is_empty() && n > 0 {
        out.push(degenerate_keyframe(n));
    }
    out
}

/// Detects key-frame indices of a video: extrema of the smoothed intensity of
/// motion. The returned indices are frame numbers (time-codes).
pub fn detect_keyframes(video: &impl VideoSource, params: &KeyframeParams) -> Vec<usize> {
    let motion = intensity_of_motion(video);
    if motion.is_empty() {
        return if video.len() == 1 {
            vec![0]
        } else {
            Vec::new()
        };
    }
    let smoothed = Kernel::gaussian(params.smooth_sigma).convolve_signal(&motion);
    // motion[t] sits between frames t and t+1; report the earlier frame.
    extrema(&smoothed, params.min_gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::synth::ProceduralVideo;

    /// A video with scripted per-frame global motion amplitude.
    struct ScriptedVideo {
        levels: Vec<f32>,
    }

    impl VideoSource for ScriptedVideo {
        fn width(&self) -> usize {
            16
        }
        fn height(&self) -> usize {
            16
        }
        fn len(&self) -> usize {
            self.levels.len()
        }
        fn frame(&self, t: usize) -> Frame {
            // Constant frame of value cumulative-sum(levels[..t]): the mean
            // abs diff between frames t and t+1 is |levels[t+1]|… close
            // enough: use value = sum of levels to t.
            let v: f32 = self.levels[..=t].iter().sum();
            Frame::from_data(16, 16, vec![v; 256])
        }
    }

    #[test]
    fn intensity_of_motion_matches_frame_diffs() {
        let v = ScriptedVideo {
            levels: vec![0.0, 1.0, 3.0, 0.0, 0.5],
        };
        let m = intensity_of_motion(&v);
        assert_eq!(m.len(), 4);
        assert!((m[0] - 1.0).abs() < 1e-5);
        assert!((m[1] - 3.0).abs() < 1e-5);
        assert!((m[2] - 0.0).abs() < 1e-5);
        assert!((m[3] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn extrema_finds_peaks_and_valleys() {
        let sig = [0.0, 1.0, 4.0, 1.0, 0.2, 1.5, 3.0, 0.5];
        let e = extrema(&sig, 1);
        assert!(e.contains(&2), "peak at 2: {e:?}");
        assert!(e.contains(&4), "valley at 4: {e:?}");
        assert!(e.contains(&6), "peak at 6: {e:?}");
    }

    #[test]
    fn extrema_respects_min_gap() {
        let sig = [0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0];
        let tight = extrema(&sig, 1);
        let spaced = extrema(&sig, 3);
        assert!(tight.len() > spaced.len());
        for w in spaced.windows(2) {
            assert!(w[1] - w[0] >= 3);
        }
    }

    #[test]
    fn extrema_constant_signal_gives_middle() {
        let sig = [1.0; 9];
        assert_eq!(extrema(&sig, 1), vec![4]);
    }

    #[test]
    fn extrema_short_signals() {
        assert!(extrema(&[], 1).is_empty());
        assert_eq!(extrema(&[5.0], 1), vec![0]);
        assert_eq!(extrema(&[5.0, 6.0], 1), vec![0]);
    }

    #[test]
    fn detect_on_procedural_video_yields_spread_keyframes() {
        let v = ProceduralVideo::new(48, 32, 200, 9);
        let kf = detect_keyframes(&v, &KeyframeParams::default());
        assert!(kf.len() >= 5, "expect several key-frames, got {}", kf.len());
        assert!(kf.len() < 120, "not almost every frame");
        for w in kf.windows(2) {
            assert!(w[1] > w[0], "sorted");
            assert!(w[1] - w[0] >= 3, "min gap respected");
        }
        assert!(*kf.last().unwrap() < 200);
    }

    #[test]
    fn detect_keyframes_is_deterministic() {
        let v = ProceduralVideo::new(48, 32, 100, 3);
        let a = detect_keyframes(&v, &KeyframeParams::default());
        let b = detect_keyframes(&v, &KeyframeParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn single_frame_video() {
        let v = ScriptedVideo { levels: vec![1.0] };
        assert_eq!(detect_keyframes(&v, &KeyframeParams::default()), vec![0]);
    }

    #[test]
    fn keyframes_stable_under_photometric_transform() {
        // The motion signal scales under contrast change but its extrema
        // positions barely move: key-frame detection is the anchor of the
        // CBCD temporal alignment.
        use crate::transform::{Transform, TransformChain, TransformedVideo};
        let v = ProceduralVideo::new(48, 32, 150, 21);
        let kf_orig = detect_keyframes(&v, &KeyframeParams::default());
        let chain = TransformChain::new(vec![Transform::Contrast { wcontrast: 1.5 }]);
        let tv = TransformedVideo::new(&v, chain, 0);
        let kf_t = detect_keyframes(&tv, &KeyframeParams::default());
        // Most original key-frames have a transformed key-frame within ±2.
        let close = kf_orig
            .iter()
            .filter(|&&k| kf_t.iter().any(|&j| k.abs_diff(j) <= 2))
            .count();
        assert!(
            close * 10 >= kf_orig.len() * 7,
            "only {close}/{} stable",
            kf_orig.len()
        );
    }
}
