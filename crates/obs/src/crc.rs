//! CRC-32 (IEEE 802.3, the polynomial used by zip/gzip/png) for every
//! checksummed on-disk format of the workspace — re-exported as
//! `s3_core::crc` — the index, sketch, WAL, durable root slots and
//! reference-database files.
//!
//! Dependency-free and table-driven: slice-by-16 (Kounavis & Berry, ISCC
//! 2005) consumes 16 bytes per step through 16 tables derived at compile
//! time, and the bytewise loop finishes the tail. Every pseudo-disk section
//! read, root slot and WAL frame is verified here, so its speed is most of
//! the load term of a batch: on an AMD EPYC core the bytewise loop alone
//! runs at 0.55 GB/s and slice-by-16 at 3.0–3.2 GB/s
//! (`docs/performance.md`, "Checksum kernel"). Same polynomial, same bits:
//! no checksum on disk changes.

/// Lookup table for the reflected polynomial 0xEDB88320.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// `SLICES[k][b]`: the CRC contribution of byte `b` followed by `k` zero
/// bytes. `SLICES[0]` is [`TABLE`].
const SLICES: [[u32; 256]; 16] = {
    let mut slices = [[0u32; 256]; 16];
    slices[0] = TABLE;
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
};

/// Advances a CRC state over `bytes` one byte at a time.
fn update_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Streaming CRC-32 hasher.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            // The state folds into the first four bytes; byte j of the block
            // is then followed by 15 − j bytes, hence `SLICES[15 - j]`.
            let w = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            let t = &SLICES;
            c = t[15][(w & 0xFF) as usize]
                ^ t[14][((w >> 8) & 0xFF) as usize]
                ^ t[13][((w >> 16) & 0xFF) as usize]
                ^ t[12][(w >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        self.state = update_bytewise(c, blocks.remainder());
    }

    /// Returns the checksum of everything fed so far.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise loop alone: the oracle the sliced kernel must equal.
    fn oracle(bytes: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// A deterministic byte pattern with no period shorter than the buffer.
    fn pattern(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        let buf = pattern(64 + 16);
        for start in 0..16 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), oracle(bytes), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn one_mebibyte_pattern_is_pinned() {
        let data = pattern(1 << 20);
        assert_eq!(crc32(&data), oracle(&data));
        // Python's `zlib.crc32` over the same pattern gives the same value.
        assert_eq!(crc32(&data), 0xF229_EB8F);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(&data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let data = vec![0x5Au8; 4096];
        let base = crc32(&data);
        for byte in [0usize, 1, 100, 4095] {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any buffer, fed in three pieces split anywhere, gives the
        /// bytewise checksum of the whole.
        #[test]
        fn split_updates_equal_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            a in 0.0f64..=1.0,
            b in 0.0f64..=1.0,
        ) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let i = (lo * data.len() as f64) as usize;
            let j = (hi * data.len() as f64) as usize;
            let mut h = Crc32::new();
            h.update(&data[..i]);
            h.update(&data[i..j]);
            h.update(&data[j..]);
            prop_assert_eq!(h.finalize(), oracle(&data));
        }
    }
}
