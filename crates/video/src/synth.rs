//! Procedural grayscale video synthesis.
//!
//! Substitute for the paper's SNC archive (75,000 h of real TV): the index
//! only ever sees fingerprints, so what matters is that the *extraction code
//! paths* run on realistic pixel data — textured backgrounds that give the
//! Harris detector stable interest points, object and camera motion that
//! drives the key-frame detector, scene cuts, and a small fraction of
//! degenerate content (black / noise segments, which the paper reports as
//! ~2 % of its archive and blames for part of its misses).
//!
//! Every video is a pure function of `(seed, t)`: frames can be generated in
//! any order, which lets geometric transforms and position-matched distortion
//! measurements (§IV-C) re-render the same content.
//!
//! Rendering computes each value once per the thing it depends on — the pan
//! drifts and blob centres once per frame, the value-noise texture once per
//! scene — and keeps every expression and addition order of the per-pixel
//! sum, so the frames are bit-identical to evaluating it all per pixel
//! (`tests/render_pin.rs` pins them).

use crate::frame::Frame;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// A source of frames.
///
/// `frame(t)` is a pure function of `t`, and a source is shared by the
/// threads that render a clip ahead of its extractor (hence `Sync`).
pub trait VideoSource: Sync {
    /// Frame width in pixels.
    fn width(&self) -> usize;
    /// Frame height in pixels.
    fn height(&self) -> usize;
    /// Number of frames.
    fn len(&self) -> usize;
    /// True if the video has no frames.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Renders frame `t` (must be `< len()`).
    fn frame(&self, t: usize) -> Frame;
}

impl<V: VideoSource + ?Sized> VideoSource for &V {
    fn width(&self) -> usize {
        (**self).width()
    }
    fn height(&self) -> usize {
        (**self).height()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn frame(&self, t: usize) -> Frame {
        (**self).frame(t)
    }
}

/// Content class of a synthetic video.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentKind {
    /// Textured scenes with moving objects and cuts (normal TV material).
    Scene,
    /// Near-black segment (the paper's "black sequences").
    Black,
    /// Heavy-noise segment (the paper's "noisy sequences", test cards).
    Noise,
}

/// One sinusoidal texture component.
#[derive(Clone, Copy, Debug)]
struct Wave {
    amp: f32,
    fx: f32,
    fy: f32,
    phase: f32,
    /// Temporal drift of the phase (camera pan).
    vt: f32,
    /// Amplitude of the oscillatory pan component (camera sway) — makes the
    /// intensity-of-motion signal alternate, giving the key-frame detector
    /// extrema at a realistic density.
    sway: f32,
    /// Angular frequency of the sway (radians per frame).
    sway_freq: f32,
}

/// One moving bright/dark blob (an "object").
#[derive(Clone, Copy, Debug)]
struct Blob {
    x0: f32,
    y0: f32,
    vx: f32,
    vy: f32,
    radius: f32,
    amp: f32,
}

/// Parameters of one scene (between two cuts).
#[derive(Clone, Debug)]
struct Scene {
    start: usize,
    base: f32,
    waves: Vec<Wave>,
    blobs: Vec<Blob>,
    /// Seed of the scene's value-noise texture octave.
    texture_seed: u64,
    /// Lattice cell size of the value noise (pixels).
    texture_cell: f32,
    /// Amplitude of the value noise.
    texture_amp: f32,
    /// `texture_amp · value_noise(..)` at every pixel, row-major: it depends
    /// on the scene alone, so the scene's first render fills it. Empty when
    /// `texture_amp` is 0.
    texture: OnceLock<Vec<f32>>,
}

impl Scene {
    /// A flat scene (no waves, blobs or texture) at luminance `base`.
    fn flat(base: f32) -> Self {
        Scene {
            start: 0,
            base,
            waves: Vec::new(),
            blobs: Vec::new(),
            texture_seed: 0,
            texture_cell: 8.0,
            texture_amp: 0.0,
            texture: OnceLock::new(),
        }
    }

    /// The scene's texture plane at `width`×`height`, computed on first use.
    fn texture(&self, width: usize, height: usize) -> &[f32] {
        self.texture.get_or_init(|| {
            if self.texture_amp <= 0.0 {
                return Vec::new();
            }
            (0..height)
                .flat_map(|y| (0..width).map(move |x| (x as f32, y as f32)))
                .map(|(xf, yf)| {
                    self.texture_amp * value_noise(self.texture_seed, self.texture_cell, xf, yf)
                })
                .collect()
        })
    }
}

/// Smooth value noise: bilinear interpolation of hashed lattice values in
/// `[-1, 1]`. Gives every image location locally *unique* structure (unlike
/// global plane waves, which make all interest points of a frame look alike)
/// while staying stable under 1-pixel displacements — the property real
/// video texture has and pure sinusoids lack.
fn value_noise(seed: u64, cell: f32, x: f32, y: f32) -> f32 {
    let gx = x / cell;
    let gy = y / cell;
    let x0f = gx.floor();
    let y0f = gy.floor();
    let fx = gx - x0f;
    let fy = gy - y0f;
    // Smoothstep for C1 continuity (stable derivatives).
    let sx = fx * fx * (3.0 - 2.0 * fx);
    let sy = fy * fy * (3.0 - 2.0 * fy);
    let corner = |ix: i64, iy: i64| -> f32 {
        let mut h = seed
            ^ (ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (iy as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 29;
        (h >> 40) as f32 / ((1u64 << 24) as f32) * 2.0 - 1.0
    };
    let (x0, y0) = (x0f as i64, y0f as i64);
    let a = corner(x0, y0);
    let b = corner(x0 + 1, y0);
    let c = corner(x0, y0 + 1);
    let d = corner(x0 + 1, y0 + 1);
    a * (1.0 - sx) * (1.0 - sy) + b * sx * (1.0 - sy) + c * (1.0 - sx) * sy + d * sx * sy
}

/// A deterministic procedural video.
#[derive(Clone, Debug)]
pub struct ProceduralVideo {
    width: usize,
    height: usize,
    len: usize,
    kind: ContentKind,
    scenes: Vec<Scene>,
    noise_seed: u64,
    noise_amp: f32,
}

impl ProceduralVideo {
    /// Creates a `Scene` video: textured, moving, with cuts roughly every
    /// 40–120 frames.
    pub fn new(width: usize, height: usize, len: usize, seed: u64) -> Self {
        Self::with_kind(width, height, len, seed, ContentKind::Scene)
    }

    /// Creates a video of the given content class.
    pub fn with_kind(
        width: usize,
        height: usize,
        len: usize,
        seed: u64,
        kind: ContentKind,
    ) -> Self {
        assert!(width >= 16 && height >= 16, "frame too small");
        assert!(len > 0, "empty video");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
        let mut scenes = Vec::new();
        let mut start = 0usize;
        while start < len {
            let n_waves = rng.gen_range(4..9);
            let waves = (0..n_waves)
                .map(|_| Wave {
                    amp: rng.gen_range(10.0..40.0),
                    fx: rng.gen_range(0.015..0.22),
                    fy: rng.gen_range(0.015..0.22),
                    phase: rng.gen_range(0.0..std::f32::consts::TAU),
                    vt: rng.gen_range(-0.12..0.12),
                    sway: rng.gen_range(0.0..1.2),
                    sway_freq: rng.gen_range(0.25..0.8),
                })
                .collect();
            let n_blobs = rng.gen_range(1..5);
            let blobs = (0..n_blobs)
                .map(|_| Blob {
                    x0: rng.gen_range(0.0..width as f32),
                    y0: rng.gen_range(0.0..height as f32),
                    vx: rng.gen_range(-1.5..1.5),
                    vy: rng.gen_range(-1.5..1.5),
                    radius: rng.gen_range(3.0..(width as f32 / 5.0).max(3.5)),
                    amp: rng.gen_range(-70.0..70.0),
                })
                .collect();
            scenes.push(Scene {
                start,
                base: rng.gen_range(70.0..180.0),
                waves,
                blobs,
                texture_seed: rng.gen(),
                texture_cell: rng.gen_range(7.0..13.0),
                texture_amp: rng.gen_range(18.0..30.0),
                texture: OnceLock::new(),
            });
            start += rng.gen_range(40..120);
        }
        let (noise_amp, scenes) = match kind {
            ContentKind::Scene => (1.5, scenes),
            // Flatten to near black: keep a single dim scene.
            ContentKind::Black => (1.0, vec![Scene::flat(4.0)]),
            ContentKind::Noise => (60.0, vec![Scene::flat(128.0)]),
        };
        ProceduralVideo {
            width,
            height,
            len,
            kind,
            scenes,
            noise_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            noise_amp,
        }
    }

    /// The content class of this video.
    pub fn kind(&self) -> ContentKind {
        self.kind
    }

    fn scene_at(&self, t: usize) -> &Scene {
        // Scenes are sorted by start; take the last with start <= t.
        match self.scenes.binary_search_by(|s| s.start.cmp(&t)) {
            Ok(i) => &self.scenes[i],
            Err(0) => &self.scenes[0],
            Err(i) => &self.scenes[i - 1],
        }
    }

    /// Cheap deterministic per-pixel noise in `[-1, 1]`.
    #[inline]
    fn noise(&self, x: usize, y: usize, t: usize) -> f32 {
        let mut h = self.noise_seed
            ^ (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (y as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ (t as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (h >> 40) as f32 / ((1u64 << 24) as f32) * 2.0 - 1.0
    }
}

impl VideoSource for ProceduralVideo {
    fn width(&self) -> usize {
        self.width
    }

    fn height(&self) -> usize {
        self.height
    }

    fn len(&self) -> usize {
        self.len
    }

    fn frame(&self, t: usize) -> Frame {
        assert!(t < self.len, "frame index {t} out of range");
        let scene = self.scene_at(t);
        let tl = (t - scene.start) as f32;
        // Once per frame: each wave's pan drift, each blob's centre and 2r².
        let drifts: Vec<f32> = scene
            .waves
            .iter()
            .map(|w| w.vt * tl + w.sway * (w.sway_freq * tl).sin())
            .collect();
        let blobs: Vec<[f32; 4]> = scene
            .blobs
            .iter()
            .map(|b| {
                let (bx, by) = (b.x0 + b.vx * tl, b.y0 + b.vy * tl);
                [bx, by, 2.0 * b.radius * b.radius, b.amp]
            })
            .collect();
        let texture = scene.texture(self.width, self.height);
        let mut f = Frame::new(self.width, self.height);
        for (y, row) in f.data_mut().chunks_exact_mut(self.width).enumerate() {
            let yf = y as f32;
            for (x, px) in row.iter_mut().enumerate() {
                let xf = x as f32;
                let mut v = scene.base;
                for (w, drift) in scene.waves.iter().zip(&drifts) {
                    v += w.amp * (w.fx * xf + w.fy * yf + w.phase + drift).sin();
                }
                if let Some(tex) = texture.get(y * self.width + x) {
                    v += tex;
                }
                for &[bx, by, two_r2, amp] in &blobs {
                    let d2 = (xf - bx).powi(2) + (yf - by).powi(2);
                    v += amp * (-d2 / two_r2).exp();
                }
                v += self.noise_amp * self.noise(x, y, t);
                *px = v.clamp(0.0, 255.0);
            }
        }
        f
    }
}

/// A library of synthetic reference videos mimicking a TV archive: mostly
/// scenes, with the paper's ~2 % of degenerate (black or noise) content.
pub struct VideoLibrary {
    videos: Vec<ProceduralVideo>,
}

impl VideoLibrary {
    /// Generates `n` videos of `frames` frames each at `width`×`height`.
    pub fn generate(n: usize, width: usize, height: usize, frames: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let videos = (0..n)
            .map(|i| {
                let kind = match rng.gen_range(0..100) {
                    0 => ContentKind::Black,
                    1 => ContentKind::Noise,
                    _ => ContentKind::Scene,
                };
                ProceduralVideo::with_kind(width, height, frames, seed ^ (i as u64) << 20, kind)
            })
            .collect();
        VideoLibrary { videos }
    }

    /// Number of videos.
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// True if the library holds no videos.
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }

    /// The `i`-th video.
    pub fn video(&self, i: usize) -> &ProceduralVideo {
        &self.videos[i]
    }

    /// Iterates over all videos.
    pub fn iter(&self) -> impl Iterator<Item = &ProceduralVideo> {
        self.videos.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_deterministic() {
        let v = ProceduralVideo::new(32, 24, 50, 1234);
        let a = v.frame(17);
        let b = v.frame(17);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ProceduralVideo::new(32, 24, 10, 1).frame(0);
        let b = ProceduralVideo::new(32, 24, 10, 2).frame(0);
        assert_ne!(a, b);
    }

    #[test]
    fn values_in_range() {
        let v = ProceduralVideo::new(48, 32, 20, 99);
        for t in [0usize, 5, 19] {
            let f = v.frame(t);
            for &p in f.data() {
                assert!((0.0..=255.0).contains(&p));
            }
        }
    }

    #[test]
    fn scene_content_has_texture_and_motion() {
        let v = ProceduralVideo::new(64, 48, 30, 42);
        let f0 = v.frame(0);
        let f1 = v.frame(1);
        // Texture: non-trivial spatial variance.
        let mean = f0.mean();
        let var: f32 =
            f0.data().iter().map(|&p| (p - mean).powi(2)).sum::<f32>() / f0.data().len() as f32;
        assert!(var > 50.0, "variance {var} too flat for Harris");
        // Motion: consecutive frames differ.
        assert!(f0.mean_abs_diff(&f1) > 0.05);
    }

    #[test]
    fn black_content_is_dark_and_static() {
        let v = ProceduralVideo::with_kind(32, 32, 10, 7, ContentKind::Black);
        let f = v.frame(3);
        assert!(f.mean() < 10.0);
    }

    #[test]
    fn noise_content_is_incoherent() {
        let v = ProceduralVideo::with_kind(32, 32, 10, 7, ContentKind::Noise);
        let f0 = v.frame(0);
        let f1 = v.frame(1);
        // Noise changes everywhere between frames.
        assert!(f0.mean_abs_diff(&f1) > 20.0);
    }

    #[test]
    fn scene_cuts_produce_large_frame_jumps() {
        let v = ProceduralVideo::new(48, 32, 400, 5);
        // Find the largest inter-frame difference; it should exceed typical
        // intra-scene motion by a clear margin (a cut).
        let mut diffs = Vec::new();
        let mut prev = v.frame(0);
        for t in 1..400 {
            let cur = v.frame(t);
            diffs.push(prev.mean_abs_diff(&cur));
            prev = cur;
        }
        let max = diffs.iter().cloned().fold(0.0f32, f32::max);
        let median = {
            let mut d = diffs.clone();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            d[d.len() / 2]
        };
        assert!(
            max > 4.0 * median,
            "no visible cut: max={max} median={median}"
        );
    }

    #[test]
    fn library_mixes_content_kinds() {
        let lib = VideoLibrary::generate(300, 16, 16, 2, 11);
        assert_eq!(lib.len(), 300);
        let degenerate = lib
            .iter()
            .filter(|v| v.kind() != ContentKind::Scene)
            .count();
        // Expect ~2 %, allow wide slack.
        assert!((1..=20).contains(&degenerate), "{degenerate}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn frame_out_of_range_panics() {
        ProceduralVideo::new(32, 32, 5, 0).frame(5);
    }
}
