//! The rendered frames are pinned: a CRC-32 of the `f32` bit patterns of
//! procedural and transformed frames, written down once and compared
//! exactly. Any numeric change to the renderer or to the `detect_default`
//! transform chain — a reordered addition, a fused multiply, a table in
//! place of `sin` — changes a checksum here. Such a change moves every
//! fingerprint and every pinned `n_sim`, and the benchmark's
//! `inputs_digest`, so it must be made on purpose and the constants
//! re-pinned with it.
//!
//! The second half checks that the renderer's per-scene texture cache is
//! invisible: frames rendered out of order, from a clone, or from two
//! threads at once equal a fresh in-order render.
//!
//! Run under both profiles (`cargo test -p s3-video --test render_pin` and
//! with `--release`): the test profile is opt-level 2 and release 3, and
//! neither may change a pixel.

use rand::rngs::StdRng;
use rand::SeedableRng;
use s3_obs::crc::Crc32;
use s3_video::{
    ContentKind, Frame, ProceduralVideo, Transform, TransformChain, TransformedVideo, VideoSource,
};
use std::sync::Barrier;

/// CRC-32 over the little-endian `f32` bit patterns of `frames`, in order.
fn crc_frames(frames: impl IntoIterator<Item = Frame>) -> u32 {
    let mut crc = Crc32::new();
    for f in frames {
        let bytes: Vec<u8> = f
            .data()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        crc.update(&bytes);
    }
    crc.finalize()
}

fn crc_of<V: VideoSource>(video: &V, ts: impl IntoIterator<Item = usize>) -> u32 {
    crc_frames(ts.into_iter().map(|t| video.frame(t)))
}

/// `detect_default`'s candidate chain: resize 0.9, gamma 1.3, noise 6.
fn detect_default_chain() -> TransformChain {
    TransformChain::new(vec![
        Transform::Resize { wscale: 0.9 },
        Transform::Gamma { wgamma: 1.3 },
        Transform::Noise { wnoise: 6.0 },
    ])
}

/// Compares every `(case, computed, pinned)` and reports all mismatches at
/// once, with the computed value to re-pin from.
fn check(cases: &[(String, u32, u32)]) {
    let bad: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: computed {got:#010x}, pinned {want:#010x}"))
        .collect();
    assert!(
        bad.is_empty(),
        "rendered frames changed:\n{}",
        bad.join("\n")
    );
}

/// A `Scene` video's first cut falls in frames 40..120 (scene lengths are
/// drawn from 40..120), so 130 frames render both sides of at least one cut.
const SCENE_FRAMES: usize = 130;

#[test]
fn scene_frames_at_96x72_are_pinned() {
    const PINS: [(u64, u32); 3] = [(1, 0x6574_a4a5), (7, 0x89d8_60a8), (42, 0x8e13_e82a)];
    let cases: Vec<_> = PINS
        .iter()
        .map(|&(seed, pin)| {
            let v = ProceduralVideo::new(96, 72, SCENE_FRAMES, seed);
            let frames: Vec<Frame> = (0..SCENE_FRAMES).map(|t| v.frame(t)).collect();
            // The cut is really in the pinned range: one frame-to-frame jump
            // towers over the scene's own motion.
            let mut diffs: Vec<f32> = frames
                .windows(2)
                .map(|p| p[0].mean_abs_diff(&p[1]))
                .collect();
            let max = diffs.iter().cloned().fold(0.0f32, f32::max);
            diffs.sort_by(f32::total_cmp);
            let median = diffs[diffs.len() / 2];
            assert!(
                max > 4.0 * median,
                "seed {seed}: no cut in {SCENE_FRAMES} frames"
            );
            (format!("scene 96x72 seed {seed}"), crc_frames(frames), pin)
        })
        .collect();
    check(&cases);
}

#[test]
fn scene_frames_at_352x288_are_pinned() {
    const PINS: [(u64, u32); 2] = [(3, 0xe0f3_2e70), (11, 0x650b_79ff)];
    let cases: Vec<_> = PINS
        .iter()
        .map(|&(seed, pin)| {
            let v = ProceduralVideo::new(352, 288, 100, seed);
            let got = crc_of(&v, [0, 1, 57, 99]);
            (format!("scene 352x288 seed {seed}"), got, pin)
        })
        .collect();
    check(&cases);
}

#[test]
fn black_and_noise_frames_are_pinned() {
    const PINS: [(ContentKind, usize, usize, u64, u32); 6] = [
        (ContentKind::Black, 96, 72, 5, 0xeb65_ce2a),
        (ContentKind::Black, 352, 288, 9, 0x619d_8e93),
        (ContentKind::Noise, 96, 72, 5, 0xa407_1143),
        (ContentKind::Noise, 96, 72, 13, 0x3710_3d66),
        (ContentKind::Noise, 352, 288, 9, 0x18a3_2d3e),
        (ContentKind::Black, 96, 72, 13, 0x8612_0109),
    ];
    let cases: Vec<_> = PINS
        .iter()
        .map(|&(kind, w, h, seed, pin)| {
            let v = ProceduralVideo::with_kind(w, h, 10, seed, kind);
            let got = crc_of(&v, [0, 1, 4, 9]);
            (format!("{kind:?} {w}x{h} seed {seed}"), got, pin)
        })
        .collect();
    check(&cases);
}

#[test]
fn transformed_frames_are_pinned() {
    let small = ProceduralVideo::new(96, 72, 40, 100);
    let large = ProceduralVideo::new(352, 288, 10, 101);
    let chain = detect_default_chain();
    let mut cases = vec![
        (
            "detect_default chain 96x72".to_string(),
            crc_of(&TransformedVideo::new(&small, chain.clone(), 555), 0..40),
            0x1ab0_e4e9,
        ),
        (
            "detect_default chain 352x288".to_string(),
            crc_of(&TransformedVideo::new(&large, chain, 556), [0, 9]),
            0x841b_4346,
        ),
    ];
    // Resize alone, shrinking (black border) and zooming (source clipped).
    let frame = small.frame(17);
    for (wscale, pin) in [(0.5f32, 0x0ca1_da1a), (1.25, 0x7793_ce49)] {
        let out = Transform::Resize { wscale }.apply(&frame, &mut StdRng::seed_from_u64(0));
        cases.push((format!("resize {wscale} 96x72"), crc_frames([out]), pin));
    }
    check(&cases);
}

/// Every frame, in order, of a fresh `ProceduralVideo::new(w, h, len, seed)`.
fn fresh(w: usize, h: usize, len: usize, seed: u64) -> Vec<Frame> {
    let v = ProceduralVideo::new(w, h, len, seed);
    (0..len).map(|t| v.frame(t)).collect()
}

#[test]
fn out_of_order_rendering_equals_in_order() {
    let (w, h, len, seed) = (64, 48, SCENE_FRAMES, 21);
    let want = fresh(w, h, len, seed);
    let v = ProceduralVideo::new(w, h, len, seed);
    for t in (0..len).rev() {
        assert_eq!(v.frame(t), want[t], "descending, frame {t}");
    }
    let v = ProceduralVideo::new(w, h, len, seed);
    // Scattered: a stride coprime with `len` visits every frame once,
    // jumping across scenes.
    for k in 0..len {
        let t = (k * 47 + 3) % len;
        assert_eq!(v.frame(t), want[t], "scattered, frame {t}");
    }
}

#[test]
fn clone_after_render_equals_fresh() {
    let (w, h, len, seed) = (64, 48, SCENE_FRAMES, 22);
    let want = fresh(w, h, len, seed);
    let v = ProceduralVideo::new(w, h, len, seed);
    let before = v.clone();
    for t in 0..len {
        v.frame(t);
    }
    let after = v.clone();
    for t in (0..len).rev() {
        assert_eq!(after.frame(t), want[t], "clone after render, frame {t}");
        assert_eq!(before.frame(t), want[t], "clone before render, frame {t}");
    }
}

#[test]
fn concurrent_rendering_equals_fresh() {
    let (w, h, len, seed) = (64, 48, SCENE_FRAMES, 23);
    let want = fresh(w, h, len, seed);
    let v = ProceduralVideo::new(w, h, len, seed);
    // Both threads start together and render in the same order, so they
    // reach each scene's first frame, the one that fills its texture plane,
    // at about the same time.
    let start = Barrier::new(2);
    let render = || {
        start.wait();
        (0..len).map(|t| v.frame(t)).collect::<Vec<_>>()
    };
    std::thread::scope(|s| {
        let a = s.spawn(render);
        let b = s.spawn(render);
        assert!(a.join().unwrap() == want, "first thread's frames differ");
        assert!(b.join().unwrap() == want, "second thread's frames differ");
    });
}
