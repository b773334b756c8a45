//! Separable Gaussian filtering and Gaussian-derivative kernels.
//!
//! The local characterisation of §III is a differential decomposition of the
//! graylevel signal up to second order; following Schmid & Mohr (the paper's
//! ref. \[21\]) the derivatives are computed by convolution with derivatives of
//! a Gaussian, which makes them well-posed on noisy video. Kernels are
//! truncated at 3σ; image borders use clamp-to-edge.

use crate::frame::Frame;

/// A sampled 1-D kernel with its centre index.
#[derive(Clone, Debug)]
pub struct Kernel {
    taps: Vec<f32>,
    radius: usize,
}

impl Kernel {
    /// Gaussian kernel `G_σ`, truncated at `3σ`, normalised to unit sum.
    pub fn gaussian(sigma: f32) -> Kernel {
        assert!(sigma > 0.0, "sigma must be positive");
        let radius = (3.0 * sigma).ceil().max(1.0) as usize;
        let mut taps: Vec<f32> = (-(radius as isize)..=radius as isize)
            .map(|i| (-0.5 * (i as f32 / sigma).powi(2)).exp())
            .collect();
        let sum: f32 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        Kernel { taps, radius }
    }

    /// First derivative of a Gaussian, `G'_σ(x) = -x/σ² G_σ(x)`, normalised so
    /// that the response to a unit ramp is 1.
    pub fn gaussian_d1(sigma: f32) -> Kernel {
        assert!(sigma > 0.0, "sigma must be positive");
        let radius = (3.0 * sigma).ceil().max(1.0) as usize;
        let mut taps: Vec<f32> = (-(radius as isize)..=radius as isize)
            .map(|i| {
                let x = i as f32;
                -x / (sigma * sigma) * (-0.5 * (x / sigma).powi(2)).exp()
            })
            .collect();
        // Normalise so the implemented correlation Σ taps[k]·f(x + k - r)
        // responds with exactly the slope on f(x) = x.
        let resp: f32 = taps
            .iter()
            .enumerate()
            .map(|(k, &t)| t * ((k as isize - radius as isize) as f32))
            .sum();
        for t in &mut taps {
            *t /= resp;
        }
        Kernel { taps, radius }
    }

    /// Second derivative of a Gaussian, `G''_σ(x) = (x²/σ⁴ - 1/σ²) G_σ(x)`,
    /// zero-mean corrected and normalised to unit response on `x²/2`.
    pub fn gaussian_d2(sigma: f32) -> Kernel {
        assert!(sigma > 0.0, "sigma must be positive");
        let radius = (3.0 * sigma).ceil().max(1.0) as usize;
        let mut taps: Vec<f32> = (-(radius as isize)..=radius as isize)
            .map(|i| {
                let x = i as f32;
                let s2 = sigma * sigma;
                (x * x / (s2 * s2) - 1.0 / s2) * (-0.5 * (x / sigma).powi(2)).exp()
            })
            .collect();
        // Enforce zero response to constants.
        let mean: f32 = taps.iter().sum::<f32>() / taps.len() as f32;
        for t in &mut taps {
            *t -= mean;
        }
        // Unit response to x²/2.
        let resp: f32 = taps
            .iter()
            .enumerate()
            .map(|(k, &t)| {
                let x = (k as isize - radius as isize) as f32;
                t * x * x * 0.5
            })
            .sum();
        for t in &mut taps {
            *t /= resp;
        }
        Kernel { taps, radius }
    }

    /// Kernel radius (taps span `[-radius, radius]`).
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Raw taps.
    pub fn taps(&self) -> &[f32] {
        &self.taps
    }

    /// Convolves a 1-D signal, clamp-to-edge, same length output.
    pub fn convolve_signal(&self, signal: &[f64]) -> Vec<f64> {
        let n = signal.len();
        let mut out = vec![0.0f64; n];
        if n == 0 {
            return out;
        }
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for (k, &t) in self.taps.iter().enumerate() {
                let j = i as isize + (k as isize - self.radius as isize);
                let j = j.clamp(0, n as isize - 1) as usize;
                acc += f64::from(t) * signal[j];
            }
            *o = acc;
        }
        out
    }
}

/// One row of a row pass: `out[x] = Σ_k taps[k]·src[clamp(x + k − radius)]`.
///
/// Every element is `((0 + t₀·v₀) + t₁·v₁) + …` in tap order, so the result
/// does not depend on how the loops are nested: taps run outermost over plain
/// slices (no clamp, vectorisable across `x`) and only the `radius` columns
/// at each end clamp their index.
pub(crate) fn convolve_row(src: &[f32], k: &Kernel, out: &mut [f32]) {
    let (w, r) = (src.len(), k.radius);
    // Columns `lo..hi` see the whole kernel; empty when `w <= 2 * r`.
    let lo = r.min(w);
    let hi = w.saturating_sub(r).max(lo);
    out.fill(0.0);
    for (j, &t) in k.taps.iter().enumerate() {
        for x in (0..lo).chain(hi..w) {
            out[x] += t * src[(x + j).saturating_sub(r).min(w - 1)];
        }
        if lo < hi {
            // Here `lo == r`, so column `x` reads `src[x + j - r]`.
            for (o, &v) in out[lo..hi].iter_mut().zip(&src[j..]) {
                *o += t * v;
            }
        }
    }
}

/// Row `y` of a column pass over a row-major plane `w` wide:
/// `out[x] = Σ_k taps[k]·src[clamp(y + k − radius)][x]`, accumulated like
/// [`convolve_row`] (tap order per element, whole rows at a time).
pub(crate) fn convolve_col(src: &[f32], w: usize, y: usize, k: &Kernel, out: &mut [f32]) {
    let h = src.len() / w;
    out.fill(0.0);
    for (j, &t) in k.taps.iter().enumerate() {
        let yy = (y + j).saturating_sub(k.radius).min(h - 1);
        for (o, &v) in out.iter_mut().zip(&src[yy * w..(yy + 1) * w]) {
            *o += t * v;
        }
    }
}

/// Applies `kx` along rows and `ky` along columns (separable convolution).
pub fn convolve_separable(frame: &Frame, kx: &Kernel, ky: &Kernel) -> Frame {
    let (w, h) = (frame.width(), frame.height());
    let mut tmp = vec![0.0f32; w * h];
    for (src, out) in frame.data().chunks_exact(w).zip(tmp.chunks_exact_mut(w)) {
        convolve_row(src, kx, out);
    }
    let mut out = Frame::new(w, h);
    for (y, row) in out.data_mut().chunks_exact_mut(w).enumerate() {
        convolve_col(&tmp, w, y, ky, row);
    }
    out
}

/// Gaussian blur with standard deviation `sigma`.
pub fn gaussian_blur(frame: &Frame, sigma: f32) -> Frame {
    let g = Kernel::gaussian(sigma);
    convolve_separable(frame, &g, &g)
}

/// The five Gaussian-derivative responses of §III at every pixel:
/// `(Ix, Iy, Ixy, Ixx, Iyy)` at scale `sigma`.
pub struct Derivatives {
    /// ∂I/∂x
    pub ix: Frame,
    /// ∂I/∂y
    pub iy: Frame,
    /// ∂²I/∂x∂y
    pub ixy: Frame,
    /// ∂²I/∂x²
    pub ixx: Frame,
    /// ∂²I/∂y²
    pub iyy: Frame,
}

/// Computes all five derivative maps at scale `sigma`.
pub fn derivatives(frame: &Frame, sigma: f32) -> Derivatives {
    let g = Kernel::gaussian(sigma);
    let d1 = Kernel::gaussian_d1(sigma);
    let d2 = Kernel::gaussian_d2(sigma);
    Derivatives {
        ix: convolve_separable(frame, &d1, &g),
        iy: convolve_separable(frame, &g, &d1),
        ixy: convolve_separable(frame, &d1, &d1),
        ixx: convolve_separable(frame, &d2, &g),
        iyy: convolve_separable(frame, &g, &d2),
    }
}

/// The per-pixel, clamp-every-tap convolution [`convolve_separable`]
/// replaced, kept as the oracle the row and column passes must equal bit for
/// bit.
#[cfg(test)]
pub(crate) fn convolve_separable_oracle(frame: &Frame, kx: &Kernel, ky: &Kernel) -> Frame {
    let (w, h) = (frame.width(), frame.height());
    let mut tmp = Frame::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0f32;
            for (k, &t) in kx.taps.iter().enumerate() {
                let xi = x as isize + (k as isize - kx.radius as isize);
                acc += t * frame.get_clamped(xi, y as isize);
            }
            tmp.set(x, y, acc);
        }
    }
    let mut out = Frame::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0f32;
            for (k, &t) in ky.taps.iter().enumerate() {
                let yi = y as isize + (k as isize - ky.radius as isize);
                acc += t * tmp.get_clamped(x as isize, yi);
            }
            out.set(x, y, acc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_x(w: usize, h: usize, slope: f32) -> Frame {
        let mut f = Frame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                f.set(x, y, slope * x as f32);
            }
        }
        f
    }

    #[test]
    fn gaussian_kernel_normalised_and_symmetric() {
        for sigma in [0.7f32, 1.0, 2.5] {
            let k = Kernel::gaussian(sigma);
            let sum: f32 = k.taps().iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "sigma={sigma}");
            let n = k.taps().len();
            for i in 0..n / 2 {
                assert!((k.taps()[i] - k.taps()[n - 1 - i]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn row_and_column_passes_equal_the_per_pixel_oracle_bit_for_bit() {
        let kernels = [
            Kernel::gaussian(2.0),
            Kernel::gaussian_d1(1.0),
            Kernel::gaussian_d2(1.5),
        ];
        // Sizes around `2·radius + 1` (7, 11, 13 taps) and well past it.
        for (w, h) in [(1, 1), (2, 9), (6, 6), (7, 3), (12, 13), (13, 12), (40, 31)] {
            let data = (0..w * h).map(|i| ((i * 53) % 241) as f32 - 17.5).collect();
            let f = Frame::from_data(w, h, data);
            for kx in &kernels {
                for ky in &kernels {
                    let got = convolve_separable(&f, kx, ky);
                    let expected = convolve_separable_oracle(&f, kx, ky);
                    let same = got
                        .data()
                        .iter()
                        .zip(expected.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "{w}x{h}, radii {} / {}", kx.radius, ky.radius);
                }
            }
        }
    }

    #[test]
    fn blur_preserves_constant() {
        let f = Frame::from_data(8, 8, vec![77.0; 64]);
        let b = gaussian_blur(&f, 1.5);
        for &v in b.data() {
            assert!((v - 77.0).abs() < 1e-3);
        }
    }

    #[test]
    fn blur_smooths_impulse() {
        let mut f = Frame::new(9, 9);
        f.set(4, 4, 100.0);
        let b = gaussian_blur(&f, 1.0);
        assert!(b.get(4, 4) < 100.0);
        assert!(b.get(3, 4) > 0.0);
        // Total mass preserved (away from borders the kernel sums to 1).
        let total: f32 = b.data().iter().sum();
        assert!((total - 100.0).abs() < 0.5);
    }

    #[test]
    fn d1_recovers_ramp_slope() {
        let f = ramp_x(20, 10, 3.0);
        let d = derivatives(&f, 1.2);
        // Interior pixels: Ix = 3, Iy = 0.
        for y in 4..6 {
            for x in 8..12 {
                assert!((d.ix.get(x, y) - 3.0).abs() < 1e-2, "{}", d.ix.get(x, y));
                assert!(d.iy.get(x, y).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn d2_recovers_parabola_curvature() {
        let mut f = Frame::new(31, 9);
        for y in 0..9 {
            for x in 0..31 {
                let u = x as f32 - 15.0;
                f.set(x, y, 0.5 * u * u);
            }
        }
        let d = derivatives(&f, 1.5);
        // Interior: Ixx = 1, Iyy = 0, Ixy = 0.
        assert!(
            (d.ixx.get(15, 4) - 1.0).abs() < 5e-2,
            "{}",
            d.ixx.get(15, 4)
        );
        assert!(d.iyy.get(15, 4).abs() < 1e-2);
        assert!(d.ixy.get(15, 4).abs() < 1e-2);
    }

    #[test]
    fn ixy_on_saddle() {
        // f = xy has Ixy = 1 everywhere.
        let mut f = Frame::new(25, 25);
        for y in 0..25 {
            for x in 0..25 {
                f.set(x, y, (x as f32 - 12.0) * (y as f32 - 12.0) * 0.5);
            }
        }
        let d = derivatives(&f, 1.5);
        assert!((d.ixy.get(12, 12) - 0.5).abs() < 5e-2);
    }

    #[test]
    fn signal_convolution_smooths_extrema() {
        let k = Kernel::gaussian(2.0);
        let mut sig = vec![0.0f64; 41];
        sig[20] = 1.0;
        let out = k.convolve_signal(&sig);
        assert!(out[20] < 1.0 && out[20] > 0.0);
        assert!(out[18] > 0.0);
        let total: f64 = out.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_signal_ok() {
        let k = Kernel::gaussian(1.0);
        assert!(k.convolve_signal(&[]).is_empty());
    }
}
