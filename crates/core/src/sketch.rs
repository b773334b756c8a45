//! Exact-safe section sketch prefilter (sidecar format `S3SKCH01`).
//!
//! The statistical filter computes selectivity, but since the paged engine
//! every surviving section still costs a real read: a section is loaded as
//! soon as *any* query's key range overlaps its slot span, even when the
//! selected blocks there are empty cells of fingerprint space. This module
//! turns that computed selectivity into *I/O* selectivity: at index build
//! time a Bloom filter is populated with the quantized coordinates of every
//! stored fingerprint — the depth-`d` prefix of its Hilbert key, which is
//! exactly the cell of the `2^d`-way partition the record occupies. Before
//! a section is loaded, the engine probes the sketch for every candidate
//! cell the batch's ranges cover inside that section; if **all** probes
//! miss, the section provably holds no candidate and the load is skipped.
//!
//! ## Why skips are exact
//!
//! A Bloom filter has no false negatives: a probe misses only if the cell
//! was never inserted, i.e. no stored record's key has that depth-`d`
//! prefix. Every record a refinement scan could visit for a range lies in
//! `range ∩ section`, and its cell is inside both the range's and the
//! section's slot span — so it is among the probed cells. All probes
//! missing therefore implies the scan would have visited zero records:
//! skipping changes no matches, no `entries_scanned`, and never sets a
//! degradation flag. False *positives* merely load a section that turns
//! out empty — the pre-sketch behaviour.
//!
//! Two more guards keep the "only true negatives" claim honest end to end:
//!
//! * the sidecar stores the CRC-32 of the index's header + table
//!   ([`Sketch::index_crc`]); a sketch is only attached to the index whose
//!   meta CRC matches, so a stale sidecar from an older generation can
//!   never skip a section of a newer one;
//! * the sidecar is CRC-framed, and every load path **fails open**: a
//!   torn, bit-flipped or truncated sidecar means "no sketch" (sections
//!   load as before), never a wrong skip.
//!
//! ## Sidecar layout (little-endian)
//!
//! ```text
//! magic "S3SKCH01"
//! depth u32 | k u32 | key_bits u32 | bits_per_entry u32
//! n_bits u64 | entries u64 | seed u64
//! index_crc u32 | reserved u32
//! words : n_bits/64 × u64        Bloom bit array
//! CRC   : u32                    CRC-32 of everything preceding
//! ```
//!
//! The sidecar is read through the [`Storage`] trait, so it can come from
//! a plain file, a fault-injecting wrapper, or a [`PooledStorage`] over
//! the buffer pool (pager-resident sketch pages).
//!
//! [`PooledStorage`]: crate::bufferpool::PooledStorage

use crate::crc::crc32;
use crate::error::IndexError;
use crate::metrics::CoreMetrics;
use crate::storage::{le_u32, le_u64, write_atomic, Storage};
use s3_hilbert::Key256;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"S3SKCH01";
const HEADER_LEN: usize = 8 + 4 * 4 + 8 * 3 + 4 + 4;

/// Default Bloom bits per distinct occupied cell (≈ 2 % false positives
/// with the matching `k`).
pub const DEFAULT_SKETCH_BITS: u32 = 8;
/// Deterministic hash seed of every sketch this crate builds.
const SEED: u64 = 0x5345_4353_4B43_4831; // "SECSKCH1"
/// Ceiling of the stored cell depth: slots must fit `u64` section math
/// comfortably, and deeper prefixes stop paying off well before this.
pub const MAX_SKETCH_DEPTH: u32 = 32;

/// Build-time knobs of a [`Sketch`].
#[derive(Clone, Copy, Debug)]
pub struct SketchParams {
    /// Bloom bits per distinct occupied cell. `0` disables sketch
    /// construction entirely.
    pub bits_per_entry: u32,
    /// Cell depth `d` (Hilbert-key prefix bits). `0` = choose
    /// automatically from the index's table depth.
    pub depth: u32,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams {
            bits_per_entry: DEFAULT_SKETCH_BITS,
            depth: 0,
        }
    }
}

impl SketchParams {
    /// Resolves the cell depth for an index with the given table depth and
    /// key width: the requested depth when given, otherwise four levels
    /// below the table (16× finer cells), clamped to
    /// `[table_depth, min(key_bits, 32)]`.
    pub fn resolve_depth(&self, table_depth: u32, key_bits: u32) -> u32 {
        let want = if self.depth == 0 {
            table_depth + 4
        } else {
            self.depth
        };
        want.clamp(table_depth, key_bits.min(MAX_SKETCH_DEPTH))
    }
}

/// A Bloom filter over the depth-`d` Hilbert-key prefixes (partition
/// cells) of a stored index — the module-level docs explain how consulting
/// it before a section load can only ever skip true negatives.
#[derive(Clone, Debug)]
pub struct Sketch {
    depth: u32,
    key_bits: u32,
    k: u32,
    bits_per_entry: u32,
    seed: u64,
    entries: u64,
    index_crc: u32,
    n_bits: u64,
    words: Vec<u64>,
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Sketch {
    /// Builds a sketch over `keys` (sorted Hilbert keys of `key_bits`
    /// width, as stored in the index): one Bloom insertion per *distinct*
    /// depth-`depth` prefix. `index_crc` is the meta CRC of the index the
    /// sketch belongs to — attachment is refused when it does not match.
    pub fn build(
        keys: &[Key256],
        key_bits: u32,
        depth: u32,
        bits_per_entry: u32,
        index_crc: u32,
    ) -> Sketch {
        assert!(
            depth >= 1 && depth <= key_bits.min(MAX_SKETCH_DEPTH),
            "sketch depth {depth} out of range for {key_bits}-bit keys"
        );
        assert!(bits_per_entry >= 1, "bits_per_entry must be positive");
        let shift = key_bits - depth;

        // Sorted keys ⇒ distinct cells are exactly the non-repeating
        // consecutive prefixes; count first so the array is sized for the
        // real occupancy, not the record count.
        let mut distinct = 0u64;
        let mut prev: Option<u64> = None;
        for key in keys {
            let slot = key.shr(shift).low_u128() as u64;
            if prev != Some(slot) {
                distinct += 1;
                prev = Some(slot);
            }
        }

        let n_bits = (distinct.saturating_mul(u64::from(bits_per_entry)))
            .next_multiple_of(64)
            .max(64);
        // Optimal k = ln2 · bits/entry, clamped to something sane.
        let k = ((f64::from(bits_per_entry) * std::f64::consts::LN_2).round() as u32).clamp(1, 16);

        let mut sketch = Sketch {
            depth,
            key_bits,
            k,
            bits_per_entry,
            seed: SEED,
            entries: distinct,
            index_crc,
            n_bits,
            words: vec![0u64; (n_bits / 64) as usize],
        };
        let mut prev: Option<u64> = None;
        for key in keys {
            let slot = key.shr(shift).low_u128() as u64;
            if prev != Some(slot) {
                sketch.insert_slot(slot);
                prev = Some(slot);
            }
        }
        let m = CoreMetrics::get();
        m.sketch_built.inc();
        m.sketch_bytes.set(sketch.byte_size() as f64);
        sketch
    }

    fn insert_slot(&mut self, slot: u64) {
        let h1 = splitmix64(slot ^ self.seed);
        let h2 = splitmix64(h1) | 1;
        for i in 0..u64::from(self.k) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.n_bits;
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// True if the cell may hold a record (Bloom semantics: `false` is
    /// definite absence, `true` may be a false positive).
    pub fn contains_slot(&self, slot: u64) -> bool {
        let h1 = splitmix64(slot ^ self.seed);
        let h2 = splitmix64(h1) | 1;
        for i in 0..u64::from(self.k) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.n_bits;
            if self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Cell depth `d` (Hilbert-key prefix bits per cell).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Key width the sketch was built against.
    pub fn key_bits(&self) -> u32 {
        self.key_bits
    }

    /// Distinct occupied cells inserted at build time.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Bloom hash count.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Bloom bits per entry the sketch was sized with.
    pub fn bits_per_entry(&self) -> u32 {
        self.bits_per_entry
    }

    /// Size of the bit array in bits.
    pub fn n_bits(&self) -> u64 {
        self.n_bits
    }

    /// Meta CRC of the index generation this sketch describes.
    pub fn index_crc(&self) -> u32 {
        self.index_crc
    }

    /// Serialized sidecar size in bytes.
    pub fn byte_size(&self) -> usize {
        HEADER_LEN + self.words.len() * 8 + 4
    }

    /// Serialises the sketch into the CRC-framed `S3SKCH01` sidecar bytes.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.depth.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.key_bits.to_le_bytes());
        out.extend_from_slice(&self.bits_per_entry.to_le_bytes());
        out.extend_from_slice(&self.n_bits.to_le_bytes());
        out.extend_from_slice(&self.entries.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.index_crc.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&crc32(&out).to_le_bytes());
        out
    }

    /// Decodes sidecar bytes, verifying the magic, the frame CRC and the
    /// internal consistency of every header field.
    pub fn decode(bytes: &[u8]) -> Result<Sketch, IndexError> {
        let bad = |detail: &str| IndexError::Format {
            detail: format!("bad sketch sidecar: {detail}"),
        };
        if bytes.len() < HEADER_LEN + 4 {
            return Err(bad("truncated header"));
        }
        if &bytes[0..8] != MAGIC {
            return Err(bad("wrong magic"));
        }
        let body = &bytes[..bytes.len() - 4];
        if crc32(body) != le_u32(&bytes[bytes.len() - 4..]) {
            CoreMetrics::get().crc_failures.inc();
            return Err(IndexError::Checksum {
                region: "sketch",
                offset: 0,
            });
        }
        let depth = le_u32(&bytes[8..]);
        let k = le_u32(&bytes[12..]);
        let key_bits = le_u32(&bytes[16..]);
        let bits_per_entry = le_u32(&bytes[20..]);
        let n_bits = le_u64(&bytes[24..]);
        let entries = le_u64(&bytes[32..]);
        let seed = le_u64(&bytes[40..]);
        let index_crc = le_u32(&bytes[48..]);
        if depth == 0 || depth > key_bits.min(MAX_SKETCH_DEPTH) {
            return Err(bad("cell depth out of range"));
        }
        if k == 0 || k > 64 {
            return Err(bad("hash count out of range"));
        }
        if n_bits == 0 || !n_bits.is_multiple_of(64) {
            return Err(bad("bit count not a positive multiple of 64"));
        }
        let expected = HEADER_LEN + (n_bits / 64) as usize * 8 + 4;
        if bytes.len() != expected {
            return Err(bad("size inconsistent with the header"));
        }
        let words = bytes[HEADER_LEN..bytes.len() - 4]
            .chunks_exact(8)
            .map(le_u64)
            .collect();
        Ok(Sketch {
            depth,
            key_bits,
            k,
            bits_per_entry,
            seed,
            entries,
            index_crc,
            n_bits,
            words,
        })
    }

    /// Reads and decodes a sidecar through any [`Storage`] — files,
    /// fault-injecting wrappers, or pooled page storage all work.
    pub fn read_storage(storage: &dyn Storage) -> Result<Sketch, IndexError> {
        let len = storage.len()?;
        let len = usize::try_from(len).map_err(|_| IndexError::Format {
            detail: "bad sketch sidecar: absurd size".into(),
        })?;
        if len > (1usize << 31) {
            return Err(IndexError::Format {
                detail: "bad sketch sidecar: absurd size".into(),
            });
        }
        let mut bytes = vec![0u8; len];
        storage.read_at(0, &mut bytes)?;
        Self::decode(&bytes)
    }

    /// The sidecar path convention: `<index file name>.skch` next to the
    /// index file.
    pub fn sidecar_path(index_path: &Path) -> PathBuf {
        let mut name = index_path.file_name().unwrap_or_default().to_os_string();
        name.push(".skch");
        index_path.with_file_name(name)
    }

    /// Writes the sidecar atomically (temp file + fsync + rename + dir
    /// sync), the same protocol as the index file itself.
    pub fn write_sidecar(&self, index_path: &Path) -> io::Result<()> {
        write_atomic(&Self::sidecar_path(index_path), &self.encode_to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn keys(n: u64, key_bits: u32, seed: u64) -> Vec<Key256> {
        // Pseudo-random keys in the low `key_bits` bits, sorted.
        let mut s = seed;
        let mut out: Vec<Key256> = (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let mut k = Key256::ZERO;
                for b in 0..key_bits.min(64) {
                    k.set_bit(b, s.rotate_left(b) & 1 == 1);
                }
                k
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn no_false_negatives_across_seeds() {
        for seed in [1u64, 7, 99, 12345] {
            let ks = keys(500, 32, seed);
            let sk = Sketch::build(&ks, 32, 20, 8, 0xABCD);
            for key in &ks {
                let slot = key.shr(12).low_u128() as u64;
                assert!(
                    sk.contains_slot(slot),
                    "inserted cell {slot} missing (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ks = keys(300, 32, 42);
        let sk = Sketch::build(&ks, 32, 18, 8, 77);
        let bytes = sk.encode_to_vec();
        let back = Sketch::decode(&bytes).unwrap();
        assert_eq!(back.depth(), sk.depth());
        assert_eq!(back.k(), sk.k());
        assert_eq!(back.key_bits(), 32);
        assert_eq!(back.entries(), sk.entries());
        assert_eq!(back.n_bits(), sk.n_bits());
        assert_eq!(back.index_crc(), 77);
        assert_eq!(back.words, sk.words);

        let storage = MemStorage::new(bytes);
        let via_storage = Sketch::read_storage(&storage).unwrap();
        assert_eq!(via_storage.words, sk.words);
    }

    #[test]
    fn every_corruption_is_detected() {
        let ks = keys(200, 32, 9);
        let sk = Sketch::build(&ks, 32, 16, 8, 3);
        let good = sk.encode_to_vec();
        // Flip one bit at every byte position: decode must reject each.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            assert!(
                Sketch::decode(&bad).is_err(),
                "flipped byte {i} went undetected"
            );
        }
        // Truncations too.
        for cut in [0, 7, HEADER_LEN, good.len() - 1] {
            assert!(Sketch::decode(&good[..cut]).is_err());
        }
    }

    #[test]
    fn sizing_follows_occupancy_not_record_count() {
        // 10k records all in one cell: the array stays at the 64-bit floor.
        let ks = vec![Key256::ZERO; 10_000];
        let sk = Sketch::build(&ks, 32, 20, 8, 0);
        assert_eq!(sk.entries(), 1);
        assert_eq!(sk.n_bits(), 64);
        // k = round(8 ln 2) = 6.
        assert_eq!(sk.k(), 6);
    }

    #[test]
    fn empty_index_builds_an_empty_sketch() {
        let sk = Sketch::build(&[], 32, 20, 8, 0);
        assert_eq!(sk.entries(), 0);
        assert!(!sk.contains_slot(0));
        let back = Sketch::decode(&sk.encode_to_vec()).unwrap();
        assert_eq!(back.entries(), 0);
    }

    #[test]
    fn depth_resolution_clamps() {
        let p = SketchParams::default();
        assert_eq!(p.resolve_depth(16, 160), 20);
        assert_eq!(p.resolve_depth(16, 18), 18);
        assert_eq!(p.resolve_depth(8, 160), 12);
        let explicit = SketchParams {
            bits_per_entry: 8,
            depth: 24,
        };
        assert_eq!(explicit.resolve_depth(16, 160), 24);
        assert_eq!(explicit.resolve_depth(16, 20), 20);
        // Never below the table depth, never past the u64-slot ceiling.
        assert_eq!(explicit.resolve_depth(16, 200).max(16), 24);
        let deep = SketchParams {
            bits_per_entry: 8,
            depth: 60,
        };
        assert_eq!(deep.resolve_depth(16, 200), MAX_SKETCH_DEPTH);
    }
}
