//! Distance kernels over `u8` fingerprints.
//!
//! Squared Euclidean distance between byte fingerprints is the innermost
//! loop of every refinement scan, k-NN candidate evaluation and sequential
//! baseline. There are two implementations, chosen at compile time: SSE2
//! on `x86_64` (where it is part of the baseline instruction set, so no
//! detection is needed) and a portable scalar loop everywhere else. Three
//! entry points share them:
//!
//! * [`dist_sq`], the full distance of one pair;
//! * [`dist_sq_within`], the early-exit per-record distance under a bound
//!   (k-NN's shrinking-bound loop, and the reference of the next one);
//! * [`scan_within`], the **run kernel** under every ε-refinement: it walks
//!   a contiguous run of records four at a time and rejects all four with
//!   one compare on their 16-byte prefix sums, confirming only the
//!   survivors with [`dist_sq_within`].
//!
//! All are **bit-identical** to the scalar reference: the arithmetic is
//! pure integer (absolute byte difference, widen to 16 bits,
//! multiply-accumulate into 32-bit lanes, horizontal sum into `u64`), so
//! [`dist_sq`] returns exactly what [`dist_sq_scalar`] does for the same
//! inputs and [`scan_within`] fires exactly where the per-record
//! [`dist_sq_within`] loop keeps a record — property-tested in
//! `tests/properties.rs`.
//!
//! The SIMD path flushes its 32-bit lane accumulators to the `u64` total
//! every `FLUSH_CHUNKS` vectors; a single 16-byte chunk contributes at
//! most `2 · 255² · 2 = 260 100` per lane, so 4096 chunks stay well below
//! `i32::MAX`.

/// Squared Euclidean distance between two byte fingerprints. Extra trailing
/// components of the longer slice are ignored (callers always pass equal
/// lengths; `debug_assert`ed).
#[inline]
pub fn dist_sq(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len(), "fingerprint length mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86_64 baseline, so the target feature the
    // callee enables is always present — its only requirement: it bounds
    // its own reads by the shorter slice.
    unsafe {
        x86::dist_sq_sse2(a, b)
    }
    #[cfg(not(target_arch = "x86_64"))]
    dist_sq_scalar(a, b)
}

/// Bounded squared distance: `Some(d²)` iff `d² ≤ bound`, `None` otherwise.
///
/// The squared distance is a monotone non-negative sum, so the kernels bail
/// out as soon as a partial sum exceeds `bound` — the win behind ε-range
/// refinement and k-NN candidate pruning. When the result is `Some`, the
/// value is exactly [`dist_sq`] of the same inputs.
#[inline]
pub fn dist_sq_within(a: &[u8], b: &[u8], bound: u64) -> Option<u64> {
    debug_assert_eq!(a.len(), b.len(), "fingerprint length mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as in `dist_sq`.
    unsafe {
        x86::dist_sq_within_sse2(a, b, bound)
    }
    #[cfg(not(target_arch = "x86_64"))]
    dist_sq_within_scalar(a, b, bound)
}

/// The run kernel: calls `hit(k, d²)` for every record `k` of `run` (a
/// contiguous array of `q.len()`-byte records) whose squared distance to
/// `q` is `d² ≤ bound`, in ascending `k` — exactly where a per-record
/// [`dist_sq_within`] loop keeps a record, with the same exact `d²`.
///
/// On `x86_64`, for `q.len() ≥ 16`, four records share one step: their
/// 16-byte prefix sums are transposed into one register and compared with
/// the bound together, so a group whose four prefixes already exceed it
/// costs one branch. A prefix sum is a lower bound of `d²`, and at most
/// `16 · 255² = 1 040 400`, so an `i32` compare against the bound clamped
/// at `i32::MAX` is exact. Survivors, shorter fingerprints, the last
/// `len mod 4` records and other targets take the per-record loop. A
/// trailing partial record is ignored; an empty `q` walks nothing.
#[inline]
pub fn scan_within(q: &[u8], run: &[u8], bound: u64, mut hit: impl FnMut(usize, u64)) {
    let dims = q.len();
    if dims == 0 {
        return;
    }
    debug_assert_eq!(run.len() % dims, 0, "run is not a whole number of records");
    let n = run.len() / dims;
    #[cfg(target_arch = "x86_64")]
    let done = if dims >= 16 {
        // SAFETY: SSE2 is part of the x86_64 baseline; `dims >= 16` and
        // `n * dims <= run.len()` are the callee's documented requirements.
        unsafe { x86::scan_within_sse2(q, run, n, bound, &mut hit) }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for (k, fp) in run[done * dims..n * dims].chunks_exact(dims).enumerate() {
        if let Some(d2) = dist_sq_within(q, fp, bound) {
            hit(done + k, d2);
        }
    }
}

/// Converts the floating refinement predicate `d² as f64 ≤ eps_sq` into an
/// equivalent integer bound for [`dist_sq_within`]: for integer `d²`,
/// `d² ≤ eps_sq ⇔ d² ≤ ⌊eps_sq⌋`. Returns `None` when no distance can
/// qualify (negative or NaN `eps_sq`).
#[inline]
pub fn bound_from_eps_sq(eps_sq: f64) -> Option<u64> {
    if eps_sq.is_nan() || eps_sq < 0.0 {
        return None;
    }
    if eps_sq >= u64::MAX as f64 {
        Some(u64::MAX)
    } else {
        Some(eps_sq as u64) // truncation == floor for non-negative values
    }
}

/// Portable scalar squared distance — the reference the SIMD kernel must
/// bit-match.
#[inline]
pub fn dist_sq_scalar(a: &[u8], b: &[u8]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = i64::from(x) - i64::from(y);
            (d * d) as u64
        })
        .sum()
}

/// Scalar [`dist_sq_within`]: checks the bound every 16 components.
#[inline]
pub fn dist_sq_within_scalar(a: &[u8], b: &[u8], bound: u64) -> Option<u64> {
    let n = a.len().min(b.len());
    let mut acc = 0u64;
    let mut i = 0usize;
    while i < n {
        let end = (i + 16).min(n);
        while i < end {
            let d = i64::from(a[i]) - i64::from(b[i]);
            acc += (d * d) as u64;
            i += 1;
        }
        if acc > bound {
            return None;
        }
    }
    Some(acc)
}

/// SIMD chunks processed between accumulator flushes; see the module docs
/// for the overflow headroom.
#[cfg(target_arch = "x86_64")]
const FLUSH_CHUNKS: usize = 4096;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::FLUSH_CHUNKS;
    use std::arch::x86_64::*;

    /// Scalar tail over `a[i..n]` (fewer components than one vector).
    #[inline]
    fn tail(a: &[u8], b: &[u8], i: usize, n: usize) -> u64 {
        super::dist_sq_scalar(&a[i..n], &b[i..n])
    }

    /// Sums the four non-negative i32 lanes into a u64.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn hsum_epi32_sse2(v: __m128i) -> u64 {
        let mut lanes = [0i32; 4];
        _mm_storeu_si128(lanes.as_mut_ptr().cast(), v);
        lanes.iter().map(|&x| x as u64).sum()
    }

    /// Adds the squared differences of one 16-byte chunk at `i` into `acc`
    /// (i32 lanes): |a−b| via unsigned max−min, widen to u16, `madd` the
    /// squares into i32 pairs.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn step_sse2(a: &[u8], b: &[u8], i: usize, acc: __m128i) -> __m128i {
        let zero = _mm_setzero_si128();
        let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
        let vb = _mm_loadu_si128(b.as_ptr().add(i).cast());
        let d = _mm_sub_epi8(_mm_max_epu8(va, vb), _mm_min_epu8(va, vb));
        let lo = _mm_unpacklo_epi8(d, zero);
        let hi = _mm_unpackhi_epi8(d, zero);
        let acc = _mm_add_epi32(acc, _mm_madd_epi16(lo, lo));
        _mm_add_epi32(acc, _mm_madd_epi16(hi, hi))
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn dist_sq_sse2(a: &[u8], b: &[u8]) -> u64 {
        let n = a.len().min(b.len());
        let mut total = 0u64;
        let mut acc = _mm_setzero_si128();
        let mut chunks = 0usize;
        let mut i = 0usize;
        while i + 16 <= n {
            acc = step_sse2(a, b, i, acc);
            i += 16;
            chunks += 1;
            if chunks == FLUSH_CHUNKS {
                total += hsum_epi32_sse2(acc);
                acc = _mm_setzero_si128();
                chunks = 0;
            }
        }
        total + hsum_epi32_sse2(acc) + tail(a, b, i, n)
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn dist_sq_within_sse2(a: &[u8], b: &[u8], bound: u64) -> Option<u64> {
        let n = a.len().min(b.len());
        let vec_end = n - n % 16;
        let mut total = 0u64;
        let mut i = 0usize;
        // Accumulate in 256-byte super-chunks, comparing after each; the
        // partial sum is monotone so exceeding `bound` early is conclusive.
        while i < vec_end {
            let stop = (i + 256).min(vec_end);
            let mut acc = _mm_setzero_si128();
            while i < stop {
                acc = step_sse2(a, b, i, acc);
                i += 16;
            }
            total += hsum_epi32_sse2(acc);
            if total > bound {
                return None;
            }
        }
        total += tail(a, b, i, n);
        (total <= bound).then_some(total)
    }

    /// The squared differences of the 16 bytes at `p` against `vq`, summed
    /// into four i32 lanes of four components each.
    ///
    /// # Safety
    ///
    /// `p` must be valid for a 16-byte read.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn prefix_sse2(p: *const u8, vq: __m128i) -> __m128i {
        let zero = _mm_setzero_si128();
        let v = _mm_loadu_si128(p.cast());
        let d = _mm_sub_epi8(_mm_max_epu8(v, vq), _mm_min_epu8(v, vq));
        let lo = _mm_unpacklo_epi8(d, zero);
        let hi = _mm_unpackhi_epi8(d, zero);
        _mm_add_epi32(_mm_madd_epi16(lo, lo), _mm_madd_epi16(hi, hi))
    }

    /// The four-record body of [`super::scan_within`] over records
    /// `0..n - n % 4`; returns how many records it walked.
    ///
    /// # Safety
    ///
    /// Requires `q.len() >= 16` and `n * q.len() <= run.len()`: every
    /// 16-byte load then starts at a record offset `k · dims` with
    /// `k < n` and ends inside that record.
    #[target_feature(enable = "sse2")]
    pub unsafe fn scan_within_sse2(
        q: &[u8],
        run: &[u8],
        n: usize,
        bound: u64,
        hit: &mut impl FnMut(usize, u64),
    ) -> usize {
        let dims = q.len();
        debug_assert!(dims >= 16 && n * dims <= run.len());
        let vq = _mm_loadu_si128(q.as_ptr().cast());
        let vbound = _mm_set1_epi32(bound.min(i32::MAX as u64) as i32);
        let prefix = |p: *const u8| prefix_sse2(p, vq);
        let quads = n - n % 4;
        let mut k = 0usize;
        while k < quads {
            let p = run.as_ptr().add(k * dims);
            let s0 = prefix(p);
            let s1 = prefix(p.add(dims));
            let s2 = prefix(p.add(2 * dims));
            let s3 = prefix(p.add(3 * dims));
            // 4×4 transpose-and-add: lane j of `sums` is record j's prefix.
            let a01 = _mm_add_epi32(_mm_unpacklo_epi32(s0, s1), _mm_unpackhi_epi32(s0, s1));
            let a23 = _mm_add_epi32(_mm_unpacklo_epi32(s2, s3), _mm_unpackhi_epi32(s2, s3));
            let sums = _mm_add_epi32(_mm_unpacklo_epi64(a01, a23), _mm_unpackhi_epi64(a01, a23));
            let over = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(sums, vbound)));
            if over != 0b1111 {
                for j in 0..4 {
                    if over & (1 << j) == 0 {
                        let fp = &run[(k + j) * dims..(k + j + 1) * dims];
                        if let Some(d2) = dist_sq_within_sse2(q, fp, bound) {
                            hit(k + j, d2);
                        }
                    }
                }
            }
            k += 4;
        }
        quads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift_vec(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    type Within = fn(&[u8], &[u8], u64) -> Option<u64>;

    /// The compiled-in kernel and the scalar reference, by name.
    const WITHIN: [(&str, Within); 2] = [
        ("compiled-in", dist_sq_within),
        ("scalar", dist_sq_within_scalar),
    ];

    #[test]
    fn kernel_matches_scalar_across_lengths() {
        // Includes the paper's D=20, widths around the 16-byte vector
        // boundary, and long buffers exercising the tail path.
        for len in [0, 1, 2, 15, 16, 17, 20, 31, 32, 33, 63, 64, 100, 1000] {
            let a = xorshift_vec(len, 0xA11CE + len as u64);
            let b = xorshift_vec(len, 0xB0B + len as u64);
            assert_eq!(dist_sq(&a, &b), dist_sq_scalar(&a, &b), "len {len}");
        }
    }

    #[test]
    fn unaligned_slices_match() {
        let a = xorshift_vec(256, 1);
        let b = xorshift_vec(256, 2);
        for off in 0..4usize {
            let (sa, sb) = (&a[off..], &b[off..]);
            assert_eq!(dist_sq(sa, sb), dist_sq_scalar(sa, sb), "off {off}");
        }
    }

    #[test]
    fn within_agrees_with_full_distance() {
        let a = xorshift_vec(300, 7);
        let b = xorshift_vec(300, 8);
        let full = dist_sq_scalar(&a, &b);
        for (name, within) in WITHIN {
            for bound in [0, full - 1, full, full + 1, u64::MAX] {
                let want = (full <= bound).then_some(full);
                assert_eq!(within(&a, &b, bound), want, "{name} bound {bound}");
            }
        }
    }

    #[test]
    fn within_empty_input_is_zero() {
        for (name, within) in WITHIN {
            assert_eq!(within(&[], &[], 0), Some(0), "{name}");
        }
    }

    #[test]
    fn extreme_values_do_not_overflow_lanes() {
        // 4 KiB of maximal differences: 4096 · 255² exercises several
        // full vectors at the top of the per-lane range.
        let a = vec![255u8; 4096];
        let b = vec![0u8; 4096];
        let want = 4096u64 * 255 * 255;
        assert_eq!(dist_sq(&a, &b), want);
        for (name, within) in WITHIN {
            assert_eq!(within(&a, &b, want), Some(want), "{name}");
            assert_eq!(within(&a, &b, want - 1), None, "{name}");
        }
    }

    #[test]
    fn bound_conversion_is_floor() {
        assert_eq!(bound_from_eps_sq(0.0), Some(0));
        assert_eq!(bound_from_eps_sq(2.9), Some(2));
        assert_eq!(bound_from_eps_sq(3.0), Some(3));
        assert_eq!(bound_from_eps_sq(-1.0), None);
        assert_eq!(bound_from_eps_sq(f64::NAN), None);
        assert_eq!(bound_from_eps_sq(f64::INFINITY), Some(u64::MAX));
    }
}
