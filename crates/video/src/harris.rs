//! Harris interest point detection (§III, "an improved version of the Harris
//! detector" after Schmid & Mohr).
//!
//! The improved-precision variant computes image gradients with Gaussian
//! derivatives (instead of finite differences), smooths the structure tensor
//! at an integration scale, scores `R = det(M) - k·trace(M)²`, applies
//! non-maximum suppression and returns the strongest points away from the
//! borders (where the local description window would fall outside the frame).

use crate::filtering::{convolve_col, convolve_row, Kernel};
use crate::frame::Frame;

/// Parameters of the Harris detector.
#[derive(Clone, Copy, Debug)]
pub struct HarrisParams {
    /// Differentiation scale (Gaussian-derivative σ).
    pub derivation_sigma: f32,
    /// Integration scale (structure-tensor smoothing σ).
    pub integration_sigma: f32,
    /// Harris trace weight `k` (typically 0.04–0.06).
    pub k: f32,
    /// Maximum number of points to return (strongest first).
    pub max_points: usize,
    /// Border margin in pixels: no point closer than this to any edge.
    pub border: usize,
    /// Minimum response relative to the strongest point (rejects flat areas).
    pub relative_threshold: f32,
}

impl Default for HarrisParams {
    fn default() -> Self {
        HarrisParams {
            derivation_sigma: 1.0,
            integration_sigma: 2.0,
            k: 0.05,
            max_points: 20,
            border: 8,
            // The Harris response scales like gradient^4: a single artificial
            // high-contrast corner (an inserted logo) can exceed natural
            // texture corners by three orders of magnitude, so the floor must
            // sit well below it or insertions hijack the detector.
            relative_threshold: 1e-4,
        }
    }
}

/// A detected interest point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterestPoint {
    /// Column coordinate (integer grid).
    pub x: u16,
    /// Row coordinate (integer grid).
    pub y: u16,
    /// Sub-pixel refined column (parabolic fit of the response peak).
    pub sx: f32,
    /// Sub-pixel refined row.
    pub sy: f32,
    /// Harris response at the point.
    pub response: f32,
}

/// One-dimensional parabolic peak refinement: given the response at
/// `(left, centre, right)` with the centre a local maximum, returns the
/// sub-sample offset of the true peak in `[-0.5, 0.5]`.
fn parabolic_offset(left: f32, centre: f32, right: f32) -> f32 {
    let denom = left - 2.0 * centre + right;
    if denom >= -1e-12 {
        return 0.0; // flat or degenerate: keep the grid position
    }
    (0.5 * (left - right) / denom).clamp(-0.5, 0.5)
}

/// A Harris detector that owns what every key-frame needs again: the three
/// kernels (differentiation `G`, `G'` and the integration Gaussian) and the
/// planes the response is computed into. Nothing is allocated per frame once
/// the first frame has sized the planes.
///
/// The arithmetic is the textbook sequence — `Ix = G'⊗G`, `Iy = G⊗G'`, the
/// structure tensor `(Ix², Iy², Ix·Iy)` smoothed at the integration scale,
/// `R = det − k·trace²` — with every convolution accumulated in tap order
/// (see [`convolve_row`]), so a response plane does not depend on how the
/// passes are fused.
pub(crate) struct HarrisDetector {
    params: HarrisParams,
    g: Kernel,
    d1: Kernel,
    gi: Kernel,
    /// `(width, height)` the planes are sized for.
    dims: (usize, usize),
    /// Six `w·h` planes: the row-pass outputs `a`, `b`, `c` (`G'` and `G`
    /// along x, then the three tensor planes), the gradients `ix`, `iy`, and
    /// the response.
    planes: [Vec<f32>; 6],
    /// Three single rows: the gradient products on their way into the
    /// integration's row pass, then the smoothed tensor on its way into `R`.
    rows: [Vec<f32>; 3],
}

impl HarrisDetector {
    /// Builds the kernels; planes are sized by the first frame.
    pub(crate) fn new(params: HarrisParams) -> Self {
        HarrisDetector {
            params,
            g: Kernel::gaussian(params.derivation_sigma),
            d1: Kernel::gaussian_d1(params.derivation_sigma),
            gi: Kernel::gaussian(params.integration_sigma),
            dims: (0, 0),
            planes: Default::default(),
            rows: Default::default(),
        }
    }

    /// Computes the response map of `frame` into the detector's own plane.
    pub(crate) fn response(&mut self, frame: &Frame) -> &[f32] {
        let (w, h) = (frame.width(), frame.height());
        if self.dims != (w, h) {
            self.dims = (w, h);
            self.planes.iter_mut().for_each(|p| p.resize(w * h, 0.0));
            self.rows.iter_mut().for_each(|r| r.resize(w, 0.0));
        }
        let HarrisDetector {
            params,
            g,
            d1,
            gi,
            planes: [a, b, c, ix, iy, response],
            rows: [r0, r1, r2],
            ..
        } = self;

        // Differentiation scale: rows, then columns.
        for (y, src) in frame.data().chunks_exact(w).enumerate() {
            convolve_row(src, d1, &mut a[y * w..(y + 1) * w]);
            convolve_row(src, g, &mut b[y * w..(y + 1) * w]);
        }
        for y in 0..h {
            convolve_col(a, w, y, g, &mut ix[y * w..(y + 1) * w]);
            convolve_col(b, w, y, d1, &mut iy[y * w..(y + 1) * w]);
        }
        // Integration scale, rows: the gradient products exist one row at a
        // time, on their way into the pass.
        for y in 0..h {
            let row = y * w..(y + 1) * w;
            for (x, (&gx, &gy)) in ix[row.clone()].iter().zip(&iy[row.clone()]).enumerate() {
                r0[x] = gx * gx;
                r1[x] = gy * gy;
                r2[x] = gx * gy;
            }
            convolve_row(r0, gi, &mut a[row.clone()]);
            convolve_row(r1, gi, &mut b[row.clone()]);
            convolve_row(r2, gi, &mut c[row]);
        }
        // Integration scale, columns, and the score of each finished row.
        for (y, out) in response.chunks_exact_mut(w).enumerate() {
            convolve_col(a, w, y, gi, r0);
            convolve_col(b, w, y, gi, r1);
            convolve_col(c, w, y, gi, r2);
            for (x, o) in out.iter_mut().enumerate() {
                let (sxx, syy, sxy) = (r0[x], r1[x], r2[x]);
                let det = sxx * syy - sxy * sxy;
                let tr = sxx + syy;
                *o = det - params.k * tr * tr;
            }
        }
        response
    }

    /// Detects interest points: local maxima of the Harris response,
    /// strongest first, limited to `max_points`, away from the borders.
    pub(crate) fn detect(&mut self, frame: &Frame) -> Vec<InterestPoint> {
        let params = self.params;
        let r = self.response(frame);
        let (w, h) = (frame.width(), frame.height());
        // A border of at least one keeps the 3×3 neighbourhood in bounds.
        let border = params.border.max(1);
        if w <= 2 * border || h <= 2 * border {
            return Vec::new();
        }
        let mut candidates: Vec<InterestPoint> = Vec::new();
        let mut max_response = 0.0f32;
        for y in border..h - border {
            for x in border..w - border {
                let i = y * w + x;
                let v = r[i];
                if v <= 0.0 {
                    continue;
                }
                // 3×3 non-maximum suppression.
                let (up, down) = (i - w, i + w);
                let neighbours = [
                    r[up - 1],
                    r[up],
                    r[up + 1],
                    r[i - 1],
                    r[i + 1],
                    r[down - 1],
                    r[down],
                    r[down + 1],
                ];
                if neighbours.iter().any(|&n| n > v) {
                    continue;
                }
                max_response = max_response.max(v);
                let dx = parabolic_offset(r[i - 1], v, r[i + 1]);
                let dy = parabolic_offset(r[up], v, r[down]);
                candidates.push(InterestPoint {
                    x: x as u16,
                    y: y as u16,
                    sx: x as f32 + dx,
                    sy: y as f32 + dy,
                    response: v,
                });
            }
        }
        let floor = max_response * params.relative_threshold;
        candidates.retain(|p| p.response >= floor);
        // Responses are finite (sums/products of finite pixel values), so the
        // NaN arm of total_cmp is never taken.
        candidates.sort_by(|a, b| b.response.total_cmp(&a.response));
        candidates.truncate(params.max_points);
        candidates
    }
}

/// Computes the Harris response map of a frame.
pub fn harris_response(frame: &Frame, params: &HarrisParams) -> Frame {
    let response = HarrisDetector::new(*params).response(frame).to_vec();
    Frame::from_data(frame.width(), frame.height(), response)
}

/// Detects interest points: local maxima of the Harris response, strongest
/// first, limited to `max_points`, away from the borders.
pub fn detect_interest_points(frame: &Frame, params: &HarrisParams) -> Vec<InterestPoint> {
    HarrisDetector::new(*params).detect(frame)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit mutation reads clearer in tests
mod tests {
    use super::*;
    use crate::filtering::convolve_separable_oracle;
    use crate::synth::{ProceduralVideo, VideoSource};
    use crate::transform::{Transform, TransformChain, TransformedVideo};

    /// The response as it was computed before the detector owned its planes:
    /// kernels rebuilt per call, five whole-frame convolutions, three product
    /// planes. The oracle [`HarrisDetector::response`] must equal bit for bit.
    fn response_oracle(frame: &Frame, params: &HarrisParams) -> Frame {
        let g = Kernel::gaussian(params.derivation_sigma);
        let d1 = Kernel::gaussian_d1(params.derivation_sigma);
        let ix = convolve_separable_oracle(frame, &d1, &g);
        let iy = convolve_separable_oracle(frame, &g, &d1);

        let (w, h) = (frame.width(), frame.height());
        let mut ixx = Frame::new(w, h);
        let mut iyy = Frame::new(w, h);
        let mut ixy = Frame::new(w, h);
        for i in 0..w * h {
            let gx = ix.data()[i];
            let gy = iy.data()[i];
            ixx.data_mut()[i] = gx * gx;
            iyy.data_mut()[i] = gy * gy;
            ixy.data_mut()[i] = gx * gy;
        }
        let gi = Kernel::gaussian(params.integration_sigma);
        let sxx = convolve_separable_oracle(&ixx, &gi, &gi);
        let syy = convolve_separable_oracle(&iyy, &gi, &gi);
        let sxy = convolve_separable_oracle(&ixy, &gi, &gi);

        let mut r = Frame::new(w, h);
        for i in 0..w * h {
            let a = sxx.data()[i];
            let b = sxy.data()[i];
            let c = syy.data()[i];
            let det = a * c - b * b;
            let tr = a + c;
            r.data_mut()[i] = det - params.k * tr * tr;
        }
        r
    }

    #[test]
    fn response_planes_equal_the_per_pixel_oracle_bit_for_bit() {
        let video = ProceduralVideo::new(96, 72, 12, 0x4A2);
        let chain = TransformChain::new(vec![
            Transform::Resize { wscale: 0.9 },
            Transform::Gamma { wgamma: 1.3 },
            Transform::Noise { wnoise: 6.0 },
        ]);
        let attacked = TransformedVideo::new(&video, chain, 555);
        let mut frames: Vec<Frame> = (0..video.len())
            .step_by(3)
            .flat_map(|t| [video.frame(t), attacked.frame(t)])
            .collect();
        frames.push(Frame::from_data(64, 64, vec![100.0; 64 * 64]));
        // Narrower or lower than a kernel (integration radius 6, so
        // `w <= 2·radius` is 12): no column sees the whole kernel.
        for (w, h) in [(12, 40), (40, 12), (7, 9), (3, 3), (1, 5), (1, 1)] {
            let data = (0..w * h).map(|i| ((i * 37) % 251) as f32).collect();
            frames.push(Frame::from_data(w, h, data));
        }
        frames.push(video.frame(1)); // back to a size the planes had before

        let params = HarrisParams::default();
        let mut detector = HarrisDetector::new(params);
        for frame in &frames {
            let expected = response_oracle(frame, &params);
            let got = detector.response(frame);
            let same = got
                .iter()
                .zip(expected.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                got.len() == expected.data().len() && same,
                "{}x{} response differs from the oracle",
                frame.width(),
                frame.height()
            );
            assert_eq!(harris_response(frame, &params), expected);
        }
    }

    #[test]
    fn parabolic_offset_recovers_peak() {
        // Samples of f(u) = 1 - (u - 0.3)^2 at u = -1, 0, 1: peak at +0.3.
        let f = |u: f32| 1.0 - (u - 0.3) * (u - 0.3);
        let off = parabolic_offset(f(-1.0), f(0.0), f(1.0));
        assert!((off - 0.3).abs() < 1e-5, "{off}");
        // Symmetric peak: no offset.
        assert_eq!(parabolic_offset(0.5, 1.0, 0.5), 0.0);
        // Flat: no offset.
        assert_eq!(parabolic_offset(1.0, 1.0, 1.0), 0.0);
    }

    #[test]
    fn subpixel_positions_stay_within_half_pixel() {
        let pts = detect_interest_points(&square_frame(), &HarrisParams::default());
        assert!(!pts.is_empty());
        for p in &pts {
            assert!((p.sx - f32::from(p.x)).abs() <= 0.5, "{p:?}");
            assert!((p.sy - f32::from(p.y)).abs() <= 0.5, "{p:?}");
        }
    }

    /// A white square on black background: corners are ideal Harris points.
    fn square_frame() -> Frame {
        let mut f = Frame::new(64, 64);
        for y in 20..44 {
            for x in 20..44 {
                f.set(x, y, 200.0);
            }
        }
        f
    }

    #[test]
    fn detects_square_corners() {
        let pts = detect_interest_points(&square_frame(), &HarrisParams::default());
        assert!(pts.len() >= 4, "found {} points", pts.len());
        // Each geometric corner should have a detection within 3 px.
        for corner in [(20u16, 20u16), (43, 20), (20, 43), (43, 43)] {
            let hit = pts.iter().any(|p| {
                (i32::from(p.x) - i32::from(corner.0)).abs() <= 3
                    && (i32::from(p.y) - i32::from(corner.1)).abs() <= 3
            });
            assert!(hit, "corner {corner:?} missed: {pts:?}");
        }
    }

    #[test]
    fn flat_frame_has_no_points() {
        let f = Frame::from_data(64, 64, vec![100.0; 64 * 64]);
        let pts = detect_interest_points(&f, &HarrisParams::default());
        assert!(pts.is_empty(), "{pts:?}");
    }

    #[test]
    fn edge_without_corner_rejected() {
        // A pure vertical edge has rank-1 structure tensor: det ≈ 0, so the
        // Harris score is negative and nothing should fire along the edge
        // interior.
        let mut f = Frame::new(64, 64);
        for y in 0..64 {
            for x in 32..64 {
                f.set(x, y, 200.0);
            }
        }
        let pts = detect_interest_points(&f, &HarrisParams::default());
        for p in &pts {
            assert!(
                !(28..=36).contains(&p.x) || p.y <= 12 || p.y >= 52,
                "edge interior fired: {p:?}"
            );
        }
    }

    #[test]
    fn points_respect_border_margin() {
        let pts = detect_interest_points(&square_frame(), &HarrisParams::default());
        for p in &pts {
            assert!(p.x >= 8 && p.y >= 8 && p.x < 56 && p.y < 56);
        }
    }

    #[test]
    fn max_points_limit_and_ordering() {
        let mut params = HarrisParams::default();
        params.max_points = 2;
        let pts = detect_interest_points(&square_frame(), &params);
        assert!(pts.len() <= 2);
        if pts.len() == 2 {
            assert!(pts[0].response >= pts[1].response);
        }
    }

    #[test]
    fn detector_is_repeatable_under_small_noise() {
        // The paper relies on detector repeatability; with light noise most
        // points must stay within 2 px.
        use crate::transform::Transform;
        use rand::{rngs::StdRng, SeedableRng};
        let f = square_frame();
        let noisy = Transform::Noise { wnoise: 4.0 }.apply(&f, &mut StdRng::seed_from_u64(3));
        let a = detect_interest_points(&f, &HarrisParams::default());
        let b = detect_interest_points(&noisy, &HarrisParams::default());
        let stable = a
            .iter()
            .filter(|p| {
                b.iter().any(|q| {
                    (i32::from(p.x) - i32::from(q.x)).abs() <= 2
                        && (i32::from(p.y) - i32::from(q.y)).abs() <= 2
                })
            })
            .count();
        assert!(
            stable * 10 >= a.len() * 7,
            "only {stable}/{} repeatable",
            a.len()
        );
    }

    #[test]
    fn tiny_frame_returns_empty() {
        let f = Frame::new(16, 16);
        let pts = detect_interest_points(&f, &HarrisParams::default());
        assert!(pts.is_empty());
    }
}
