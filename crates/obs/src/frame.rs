//! The one append-only log frame — `len u32 LE | body | crc32(body) u32 LE`,
//! where `len` counts the body and the checksum — of the core write-ahead
//! log.
//!
//! What a body means stays with the log (`scan` takes its decoder).
//! Torn-tail truncation is decided here and nowhere else: a frame that is
//! short, fails its checksum or does not decode ends the valid prefix, and
//! everything before it is intact by construction.

use crate::crc::crc32;

/// What [`scan`] found in a log's bytes.
#[derive(Debug, PartialEq, Eq)]
pub struct Scan<T> {
    /// The decoded records of the valid prefix, in order.
    pub records: Vec<T>,
    /// Length of the valid prefix: where the next append belongs.
    pub valid_len: usize,
    /// Whether bytes follow the valid prefix (a torn or corrupt tail).
    pub torn: bool,
}

/// One frame whose body is `parts` concatenated — a single buffer, so the
/// caller can hand it to one write.
pub fn encode(parts: &[&[u8]]) -> Vec<u8> {
    let body_len: usize = parts.iter().map(|p| p.len()).sum();
    assert!(body_len < u32::MAX as usize - 8, "frame body too long");
    let len = (body_len + 4) as u32;
    let mut frame = Vec::with_capacity(4 + body_len + 4);
    frame.extend_from_slice(&len.to_le_bytes());
    for part in parts {
        frame.extend_from_slice(part);
    }
    let crc = crc32(&frame[4..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// The frame starting at `off`, if it is all there and its checksum holds:
/// its body and the offset just past it.
fn frame_at(bytes: &[u8], off: usize) -> Option<(&[u8], usize)> {
    let le_u32 = |at: usize| -> Option<u32> {
        let raw = bytes.get(at..at.checked_add(4)?)?;
        Some(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
    };
    let body_len = (le_u32(off)? as usize).checked_sub(4)?;
    let body_end = (off + 4).checked_add(body_len)?;
    let body = bytes.get(off + 4..body_end)?;
    (crc32(body) == le_u32(body_end)?).then_some((body, body_end + 4))
}

/// Walks the frames of `bytes` from the start, decoding each intact body
/// with `decode`, and stops at the first frame that is incomplete, fails
/// its checksum or is refused by `decode`.
pub fn scan<T>(bytes: &[u8], mut decode: impl FnMut(&[u8]) -> Option<T>) -> Scan<T> {
    let mut records = Vec::new();
    let mut off = 0usize;
    while let Some((body, end)) = frame_at(bytes, off) {
        let Some(record) = decode(body) else { break };
        records.push(record);
        off = end;
    }
    Scan {
        records,
        valid_len: off,
        torn: off < bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The body as the record, refusing an empty one (as the WAL does: a
    /// record has at least a kind byte).
    fn decode(body: &[u8]) -> Option<Vec<u8>> {
        (!body.is_empty()).then(|| body.to_vec())
    }

    fn bodies() -> Vec<Vec<u8>> {
        vec![vec![1, 2, 3, 4], vec![9], vec![0xAA; 100], b"tail".to_vec()]
    }

    /// Round trip, every truncation point and every single-bit flip.
    #[test]
    fn round_trip_and_cut_at_the_damaged_frame() {
        let mut log = Vec::new();
        let mut ends = vec![0usize];
        for body in bodies() {
            // Two parts: a frame is the concatenation, however split.
            log.extend(encode(&[&body[..1], &body[1..]]));
            ends.push(log.len());
        }
        assert_eq!(ends[1], 4 + 4 + 4, "len | body | crc");
        let len_field = u32::from_le_bytes(log[..4].try_into().unwrap());
        assert_eq!(len_field, 4 + 4, "len counts the body and the crc");

        let clean = scan(&log, decode);
        assert_eq!(clean.records, bodies());
        assert_eq!((clean.valid_len, clean.torn), (log.len(), false));
        assert_eq!(scan(&[], decode).valid_len, 0);

        // Frames before the damage survive; the cut is on their boundary.
        let intact_before = |at: usize| ends.iter().rposition(|&e| e <= at).unwrap();
        for cut in 0..log.len() {
            let found = scan(&log[..cut], decode);
            let kept = intact_before(cut);
            assert_eq!(found.records, bodies()[..kept], "cut at {cut}");
            assert_eq!(found.valid_len, ends[kept], "cut at {cut}");
            assert_eq!(found.torn, cut != ends[kept], "cut at {cut}");
        }
        for bit in 0..log.len() * 8 {
            let mut bad = log.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let found = scan(&bad, decode);
            let kept = intact_before(bit / 8);
            assert_eq!(found.records, bodies()[..kept], "bit {bit}");
            assert_eq!(
                (found.valid_len, found.torn),
                (ends[kept], true),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn a_body_the_log_refuses_ends_the_prefix() {
        let mut log = encode(&[b"ok"]);
        let first = log.len();
        log.extend(encode(&[]));
        log.extend(encode(&[b"never reached"]));
        let found = scan(&log, decode);
        assert_eq!(found.records, vec![b"ok".to_vec()]);
        assert_eq!((found.valid_len, found.torn), (first, true));
        // A length that would run past `usize` is just another torn frame.
        let found = scan(&[0xFF; 12], decode);
        assert_eq!(
            (found.records.len(), found.valid_len, found.torn),
            (0, 0, true)
        );
        let found = scan(&[2, 0, 0, 0, 0, 0, 0, 0], decode);
        assert_eq!(
            (found.valid_len, found.torn),
            (0, true),
            "len below the crc it counts"
        );
    }
}
