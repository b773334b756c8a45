//! Disk manager: a single index file of fixed-size self-identifying pages.
//!
//! The pseudo-disk engine of PR 1 reads a flat byte stream; this module
//! gives that stream a real on-disk life. The file is an array of
//! `page_size` slots. Every page carries a 24-byte header — page id, LSN,
//! payload length, CRC-32 over all of it — so a page read from the wrong
//! offset, torn by a crash, or bit-flipped by the device is *detected* at
//! the page layer, before any index bytes are interpreted. Page 0 is the
//! meta page (magic `S3PGMETA`): page size, logical data length, page
//! count, generation, and the LSN of the last checkpoint, which anchors
//! WAL recovery (see `docs/durability.md`).
//!
//! Pages 1..=n hold consecutive chunks of the serialized `S3IDX004` byte
//! stream, so the existing [`crate::pseudo_disk::DiskIndex`] reader works
//! unchanged on top — it reads the stream through [`DataPages`], a
//! [`Storage`] that verifies every page it touches, instead of a flat file.
//!
//! ```text
//! page p at offset p × page_size:
//!   page_id     u64   must equal p (self-identifying)
//!   lsn         u64   LSN of the write that produced this version
//!   payload_len u32   ≤ page_size − 24
//!   crc         u32   CRC-32 of id | lsn | payload_len | payload
//!   payload     payload_len bytes
//! ```

use std::io;
use std::sync::{Arc, Mutex};

use crate::crc::Crc32;
use crate::error::IndexError;
use crate::metrics::CoreMetrics;
use crate::storage::{Storage, WritableStorage};

/// Bytes of the per-page header (`page_id | lsn | payload_len | crc`).
pub const PAGE_HEADER_LEN: usize = 8 + 8 + 4 + 4;
/// Magic of the meta page payload.
pub const META_MAGIC: &[u8; 8] = b"S3PGMETA";
/// Default page size.
pub const DEFAULT_PAGE_SIZE: u32 = 4096;
/// Smallest accepted page size (must hold the header, the meta payload,
/// and at least one data byte).
pub const MIN_PAGE_SIZE: u32 = 128;

const META_PAYLOAD_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

/// Contents of the meta page (page 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageMeta {
    /// Page size of the file, bytes.
    pub page_size: u32,
    /// Logical length of the paged byte stream (the serialized index).
    pub data_len: u64,
    /// Number of data pages holding that stream (pages 1..=n_pages).
    pub n_pages: u64,
    /// Generation of the stored index; each completed merge increments it.
    pub generation: u64,
    /// Highest LSN known durably applied — the WAL replays only past it.
    pub checkpoint_lsn: u64,
}

/// One page decoded from storage.
#[derive(Clone, Debug)]
pub struct Page {
    /// Self-identifying page number.
    pub id: u64,
    /// LSN of the write that produced this version of the page.
    pub lsn: u64,
    /// Page payload.
    pub payload: Vec<u8>,
}

/// Encodes a page image (header + payload) ready for a single write.
pub fn encode_page(id: u64, lsn: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PAGE_HEADER_LEN + payload.len());
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&lsn.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&buf[..20]);
    crc.update(payload);
    buf.extend_from_slice(&crc.finalize().to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Decodes and verifies a page image previously produced by
/// [`encode_page`]. `offset` only labels the checksum error.
pub fn decode_page(buf: &[u8], offset: u64) -> Result<Page, IndexError> {
    if buf.len() < PAGE_HEADER_LEN {
        return Err(IndexError::Format {
            detail: format!("page truncated: {} bytes", buf.len()),
        });
    }
    let id = u64::from_le_bytes([
        buf[0], buf[1], buf[2], buf[3], buf[4], buf[5], buf[6], buf[7],
    ]);
    let lsn = u64::from_le_bytes([
        buf[8], buf[9], buf[10], buf[11], buf[12], buf[13], buf[14], buf[15],
    ]);
    let payload_len = u32::from_le_bytes([buf[16], buf[17], buf[18], buf[19]]) as usize;
    let stored_crc = u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]);
    if payload_len > buf.len() - PAGE_HEADER_LEN {
        return Err(IndexError::Format {
            detail: format!(
                "page payload length {payload_len} exceeds page bytes {}",
                buf.len() - PAGE_HEADER_LEN
            ),
        });
    }
    let payload = &buf[PAGE_HEADER_LEN..PAGE_HEADER_LEN + payload_len];
    let mut crc = Crc32::new();
    crc.update(&buf[..20]);
    crc.update(payload);
    if crc.finalize() != stored_crc {
        CoreMetrics::get().crc_failures.inc();
        return Err(IndexError::Checksum {
            region: "page",
            offset,
        });
    }
    Ok(Page {
        id,
        lsn,
        payload: payload.to_vec(),
    })
}

/// Disk manager over one paged file.
///
/// All methods take `&self` (the meta cache sits behind a mutex): a single
/// logical writer is assumed — [`crate::durable::DurableIndex`] serializes
/// mutation through `&mut self` — while readers ([`DataPages`]) may pull
/// pages concurrently.
#[derive(Debug)]
pub struct PageStore<S> {
    storage: S,
    page_size: u32,
    meta: Mutex<PageMeta>,
}

impl<S: WritableStorage> PageStore<S> {
    /// Formats `storage` as an empty paged file: writes and syncs the meta
    /// page. Existing contents are discarded.
    pub fn create(storage: S, page_size: u32) -> io::Result<PageStore<S>> {
        if page_size < MIN_PAGE_SIZE {
            return Err(io::Error::other(format!(
                "page size {page_size} below minimum {MIN_PAGE_SIZE}"
            )));
        }
        let meta = PageMeta {
            page_size,
            data_len: 0,
            n_pages: 0,
            generation: 0,
            checkpoint_lsn: 0,
        };
        storage.truncate(0)?;
        let store = PageStore {
            storage,
            page_size,
            meta: Mutex::new(meta),
        };
        store.set_meta(meta)?;
        store.sync()?;
        Ok(store)
    }

    /// Opens an existing paged file: reads and verifies the meta page.
    pub fn open(storage: S) -> Result<PageStore<S>, IndexError> {
        // Bootstrap: the header is at a fixed offset and states the payload
        // length, so the meta page can be read before page_size is known.
        let mut header = [0u8; PAGE_HEADER_LEN];
        storage.read_at(0, &mut header)?;
        let payload_len = u32::from_le_bytes([header[16], header[17], header[18], header[19]]);
        if payload_len as usize != META_PAYLOAD_LEN {
            return Err(IndexError::Format {
                detail: format!("meta page payload length {payload_len}"),
            });
        }
        let mut buf = vec![0u8; PAGE_HEADER_LEN + META_PAYLOAD_LEN];
        storage.read_at(0, &mut buf)?;
        let page = decode_page(&buf, 0)?;
        if page.id != 0 {
            return Err(IndexError::Format {
                detail: format!("meta page claims id {}", page.id),
            });
        }
        let meta = decode_meta(&page.payload)?;
        Ok(PageStore {
            storage,
            page_size: meta.page_size,
            meta: Mutex::new(meta),
        })
    }

    /// Opens an existing paged file, tolerating a torn meta page.
    ///
    /// The meta page is rewritten in place on every merge apply, so a
    /// crash can tear it. That is recoverable: the meta page is only ever
    /// rewritten *after* the merge's commit record is durable in the WAL,
    /// so the WAL still holds everything needed to rebuild it. When the
    /// meta page fails validation, this re-initializes it (zeroed fields,
    /// `fallback_page_size`) and returns `reinitialized = true`; the
    /// caller must then run WAL recovery, which redoes the committed merge
    /// and restores the real meta. `fallback_page_size` must match the
    /// page size the file was created with.
    pub fn open_or_reinit(
        storage: S,
        fallback_page_size: u32,
    ) -> Result<(PageStore<S>, bool), IndexError> {
        let mut header = [0u8; PAGE_HEADER_LEN];
        storage.read_at(0, &mut header)?;
        let payload_len = u32::from_le_bytes([header[16], header[17], header[18], header[19]]);
        let decoded = if payload_len as usize == META_PAYLOAD_LEN {
            let mut buf = vec![0u8; PAGE_HEADER_LEN + META_PAYLOAD_LEN];
            storage.read_at(0, &mut buf)?;
            decode_page(&buf, 0).and_then(|page| {
                if page.id != 0 {
                    return Err(IndexError::Format {
                        detail: format!("meta page claims id {}", page.id),
                    });
                }
                decode_meta(&page.payload)
            })
        } else {
            Err(IndexError::Format {
                detail: format!("meta page payload length {payload_len}"),
            })
        };
        match decoded {
            Ok(meta) => Ok((
                PageStore {
                    storage,
                    page_size: meta.page_size,
                    meta: Mutex::new(meta),
                },
                false,
            )),
            Err(IndexError::Io(e)) => Err(IndexError::Io(e)),
            Err(_) => {
                if fallback_page_size < MIN_PAGE_SIZE {
                    return Err(IndexError::Format {
                        detail: format!("fallback page size {fallback_page_size} below minimum"),
                    });
                }
                let meta = PageMeta {
                    page_size: fallback_page_size,
                    data_len: 0,
                    n_pages: 0,
                    generation: 0,
                    checkpoint_lsn: 0,
                };
                let store = PageStore {
                    storage,
                    page_size: fallback_page_size,
                    meta: Mutex::new(meta),
                };
                store.set_meta(meta)?;
                store.sync()?;
                Ok((store, true))
            }
        }
    }

    /// Page size of the file.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Payload bytes a full page carries.
    pub fn payload_capacity(&self) -> usize {
        self.page_size as usize - PAGE_HEADER_LEN
    }

    /// The cached meta page contents.
    pub fn meta(&self) -> PageMeta {
        *self.lock_meta()
    }

    /// Writes (but does not sync) a new meta page and updates the cache.
    pub fn set_meta(&self, meta: PageMeta) -> io::Result<()> {
        let mut payload = Vec::with_capacity(META_PAYLOAD_LEN);
        payload.extend_from_slice(META_MAGIC);
        payload.extend_from_slice(&meta.page_size.to_le_bytes());
        payload.extend_from_slice(&meta.data_len.to_le_bytes());
        payload.extend_from_slice(&meta.n_pages.to_le_bytes());
        payload.extend_from_slice(&meta.generation.to_le_bytes());
        payload.extend_from_slice(&meta.checkpoint_lsn.to_le_bytes());
        let image = encode_page(0, meta.checkpoint_lsn, &payload);
        self.storage.write_at(0, &image)?;
        *self.lock_meta() = meta;
        Ok(())
    }

    /// Reads and verifies page `page_no`: the stored id must match, the
    /// CRC must hold.
    pub fn read_page(&self, page_no: u64) -> Result<Page, IndexError> {
        let off = page_no * u64::from(self.page_size);
        let mut header = [0u8; PAGE_HEADER_LEN];
        self.storage.read_at(off, &mut header)?;
        let payload_len = u32::from_le_bytes([header[16], header[17], header[18], header[19]]);
        if payload_len as usize > self.payload_capacity() {
            return Err(IndexError::Format {
                detail: format!("page {page_no}: payload length {payload_len} exceeds page size"),
            });
        }
        let mut buf = vec![0u8; PAGE_HEADER_LEN + payload_len as usize];
        self.storage.read_at(off, &mut buf)?;
        let page = decode_page(&buf, off)?;
        if page.id != page_no {
            CoreMetrics::get().crc_failures.inc();
            return Err(IndexError::Checksum {
                region: "page id",
                offset: off,
            });
        }
        Ok(page)
    }

    /// Writes page `page_no` as one `write_at` call (header + payload).
    ///
    /// LSNs must be monotone per page: rewriting a page with a smaller LSN
    /// than the resident version is refused — it would reorder history.
    pub fn write_page(&self, page_no: u64, lsn: u64, payload: &[u8]) -> io::Result<()> {
        if payload.len() > self.payload_capacity() {
            return Err(io::Error::other(format!(
                "payload of {} bytes exceeds page capacity {}",
                payload.len(),
                self.payload_capacity()
            )));
        }
        if let Ok(existing) = self.read_page(page_no) {
            if lsn < existing.lsn {
                return Err(io::Error::other(format!(
                    "LSN regression on page {page_no}: {lsn} < resident {}",
                    existing.lsn
                )));
            }
        }
        let image = encode_page(page_no, lsn, payload);
        self.storage
            .write_at(page_no * u64::from(self.page_size), &image)
    }

    /// Forces all page writes to durable media.
    pub fn sync(&self) -> io::Result<()> {
        self.storage.sync()
    }

    fn lock_meta(&self) -> std::sync::MutexGuard<'_, PageMeta> {
        match self.meta.lock() {
            Ok(m) => m,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

fn decode_meta(payload: &[u8]) -> Result<PageMeta, IndexError> {
    if payload.len() != META_PAYLOAD_LEN || &payload[..8] != META_MAGIC {
        return Err(IndexError::Format {
            detail: "bad meta page magic".into(),
        });
    }
    let u32_at =
        |o: usize| u32::from_le_bytes([payload[o], payload[o + 1], payload[o + 2], payload[o + 3]]);
    let u64_at = |o: usize| {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&payload[o..o + 8]);
        u64::from_le_bytes(raw)
    };
    let page_size = u32_at(8);
    if page_size < MIN_PAGE_SIZE {
        return Err(IndexError::Format {
            detail: format!("meta page states page size {page_size}"),
        });
    }
    Ok(PageMeta {
        page_size,
        data_len: u64_at(12),
        n_pages: u64_at(20),
        generation: u64_at(28),
        checkpoint_lsn: u64_at(36),
    })
}

/// [`Storage`] view of a store's data pages (pages 1..=n_pages): the
/// serialized index byte stream, read straight through the pager. Every
/// page a read touches is verified (id, CRC, and a payload length that
/// matches the dense chunking the meta implies). Meta is consulted live,
/// so a completed merge (new `data_len` / `n_pages`) is visible to the
/// next read without rebuilding the view.
#[derive(Debug)]
pub struct DataPages<S> {
    store: Arc<PageStore<S>>,
}

impl<S> DataPages<S> {
    /// Wraps a shared store.
    pub fn new(store: Arc<PageStore<S>>) -> DataPages<S> {
        DataPages { store }
    }
}

impl<S: WritableStorage> DataPages<S> {
    /// The verified payload of data page `page_no` (0-based).
    fn payload(&self, page_no: u64, meta: &PageMeta) -> Result<Vec<u8>, IndexError> {
        if page_no >= meta.n_pages {
            return Err(IndexError::Format {
                detail: format!("data page {page_no} beyond n_pages {}", meta.n_pages),
            });
        }
        let page = self.store.read_page(page_no + 1)?;
        // The stream is chunked densely: every page is full except the last.
        let cap = self.store.payload_capacity() as u64;
        let expected = if page_no + 1 == meta.n_pages {
            (meta.data_len - page_no * cap) as usize
        } else {
            cap as usize
        };
        if page.payload.len() != expected {
            return Err(IndexError::Format {
                detail: format!(
                    "data page {page_no}: {} payload bytes, expected {expected}",
                    page.payload.len()
                ),
            });
        }
        Ok(page.payload)
    }
}

impl<S: WritableStorage> Storage for DataPages<S> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let meta = self.store.meta();
        let end = offset
            .checked_add(buf.len() as u64)
            .filter(|&e| e <= meta.data_len)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "read past end of paged stream",
                )
            })?;
        let cap = self.store.payload_capacity() as u64;
        let mut pos = offset;
        let mut filled = 0usize;
        while pos < end {
            let payload = self.payload(pos / cap, &meta).map_err(|e| match e {
                IndexError::Io(io) => io,
                other => io::Error::other(other),
            })?;
            let in_page = (pos % cap) as usize;
            let take = (payload.len() - in_page).min(buf.len() - filled);
            buf[filled..filled + take].copy_from_slice(&payload[in_page..in_page + take]);
            filled += take;
            pos += take as u64;
        }
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.store.meta().data_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::RecordBatch;
    use crate::index::S3Index;
    use crate::pseudo_disk::{DiskIndex, WriteOpts};
    use crate::storage::SharedMemStorage;
    use s3_hilbert::HilbertCurve;

    #[test]
    fn create_then_open_round_trips_meta() {
        let mem = SharedMemStorage::new();
        let store = PageStore::create(mem.clone(), 256).unwrap();
        let meta = PageMeta {
            page_size: 256,
            data_len: 1000,
            n_pages: 5,
            generation: 3,
            checkpoint_lsn: 17,
        };
        store.set_meta(meta).unwrap();
        store.sync().unwrap();
        drop(store);
        let reopened = PageStore::open(mem).unwrap();
        assert_eq!(reopened.meta(), meta);
        assert_eq!(reopened.page_size(), 256);
    }

    #[test]
    fn page_round_trip_and_self_identification() {
        let store = PageStore::create(SharedMemStorage::new(), 256).unwrap();
        let payload: Vec<u8> = (0..100u8).collect();
        store.write_page(3, 9, &payload).unwrap();
        let page = store.read_page(3).unwrap();
        assert_eq!(page.id, 3);
        assert_eq!(page.lsn, 9);
        assert_eq!(page.payload, payload);
        // Reading the same bytes as a different page number fails: the
        // header identifies the page.
        store.write_page(4, 10, &payload).unwrap();
        let raw = store.read_page(4).unwrap();
        assert_eq!(raw.id, 4);
    }

    #[test]
    fn corrupt_page_is_rejected() {
        let mem = SharedMemStorage::new();
        let store = PageStore::create(mem.clone(), 256).unwrap();
        store.write_page(1, 1, &[7u8; 64]).unwrap();
        // Flip one payload bit behind the store's back.
        let mut bytes = mem.snapshot();
        let off = 256 + PAGE_HEADER_LEN + 10;
        bytes[off] ^= 1;
        mem.truncate(0).unwrap();
        mem.write_at(0, &bytes).unwrap();
        let err = store.read_page(1).unwrap_err();
        assert!(
            matches!(err, IndexError::Checksum { region: "page", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn lsn_regression_is_refused() {
        let store = PageStore::create(SharedMemStorage::new(), 256).unwrap();
        store.write_page(1, 5, b"v5").unwrap();
        store.write_page(1, 5, b"v5-again").unwrap(); // idempotent redo: same LSN ok
        store.write_page(1, 8, b"v8").unwrap();
        let err = store.write_page(1, 7, b"v7").unwrap_err();
        assert!(err.to_string().contains("LSN regression"), "{err}");
        assert_eq!(store.read_page(1).unwrap().payload, b"v8");
    }

    #[test]
    fn oversized_payload_is_refused() {
        let store = PageStore::create(SharedMemStorage::new(), MIN_PAGE_SIZE).unwrap();
        let too_big = vec![0u8; store.payload_capacity() + 1];
        assert!(store.write_page(1, 1, &too_big).is_err());
    }

    #[test]
    fn data_pages_read_the_stream_through_verified_pages() {
        let mut records = RecordBatch::new(4);
        for i in 0..300u32 {
            records.push(&i.wrapping_mul(0x9E37_79B9).to_le_bytes(), i % 5, i);
        }
        let index = S3Index::build(HilbertCurve::new(4, 8).unwrap(), records);
        let opts = WriteOpts {
            table_depth: 8,
            block_size: 256,
        };
        let stream = DiskIndex::encode_to_vec(&index, opts).unwrap();
        let store = Arc::new(PageStore::create(SharedMemStorage::new(), 256).unwrap());
        let cap = store.payload_capacity();
        for (i, chunk) in stream.chunks(cap).enumerate() {
            store.write_page(i as u64 + 1, 1, chunk).unwrap();
        }
        store
            .set_meta(PageMeta {
                page_size: 256,
                data_len: stream.len() as u64,
                n_pages: stream.len().div_ceil(cap) as u64,
                generation: 1,
                checkpoint_lsn: 1,
            })
            .unwrap();
        let pages = DataPages::new(Arc::clone(&store));
        let len = stream.len() as u64;
        assert_eq!(pages.len().unwrap(), len);
        assert!(stream.len() > 8 * cap, "the stream must span many pages");

        // Inside one page, across one boundary, across several, up to the
        // last byte, and the whole stream.
        let c = cap as u64;
        for (off, n) in [
            (0, 10),
            (c - 3, 7),
            (c / 2, 5 * cap + 11),
            (len - 9, 9),
            (0, stream.len()),
        ] {
            let mut buf = vec![0u8; n];
            pages.read_at(off, &mut buf).unwrap();
            assert_eq!(buf, stream[off as usize..off as usize + n], "{off}+{n}");
        }

        let err = pages.read_at(len - 2, &mut [0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // A page whose id and CRC hold, but whose payload is a byte short of
        // what the meta's dense chunking says it carries.
        store.write_page(2, 2, &stream[cap..2 * cap - 1]).unwrap();
        let err = pages.read_at(c + 4, &mut [0u8; 8]).unwrap_err();
        let cause = err.get_ref().and_then(|e| e.downcast_ref::<IndexError>());
        assert!(matches!(cause, Some(IndexError::Format { .. })), "{err:?}");
    }
}
