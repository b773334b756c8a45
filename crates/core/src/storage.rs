//! Positioned-read storage abstraction for the pseudo-disk engine.
//!
//! [`crate::pseudo_disk::DiskIndex`] performs all record access through the
//! [`Storage`] trait — positioned reads of byte ranges — instead of touching
//! `File` directly. Production uses [`FileStorage`]; tests substitute
//! [`FaultyStorage`], which wraps any storage and injects short reads,
//! transient I/O errors, and bit flips on a deterministic seeded schedule,
//! so the retry, checksum and degradation paths can be exercised
//! reproducibly without root privileges or kernel fault-injection machinery.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::resilience::{system_clock, Clock};

/// Random-access byte storage.
///
/// Implementations take `&self`: the pseudo-disk engine issues reads from
/// shared references (batched queries never mutate the index), so stateful
/// backends use interior mutability.
pub trait Storage: fmt::Debug + Send + Sync {
    /// Reads exactly `buf.len()` bytes starting at `offset`.
    ///
    /// Fails with `UnexpectedEof` if the storage ends inside the range.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Total size in bytes.
    fn len(&self) -> io::Result<u64>;

    /// True if the storage holds no bytes.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

// Lets a test hand `Arc<FaultyStorage<_>>` to the index while keeping a
// clone for reading `FaultStats` afterwards. `?Sized` admits trait objects
// (`Arc<dyn WritableStorage>`), which the durable engine uses to mix
// backends.
impl<S: Storage + ?Sized> Storage for Arc<S> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        (**self).read_at(offset, buf)
    }

    fn len(&self) -> io::Result<u64> {
        (**self).len()
    }
}

impl<S: Storage + ?Sized> Storage for Box<S> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        (**self).read_at(offset, buf)
    }

    fn len(&self) -> io::Result<u64> {
        (**self).len()
    }
}

/// The little-endian `u32` at the start of `bytes` (the header fields of
/// the index and sketch formats).
pub(crate) fn le_u32(bytes: &[u8]) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(raw)
}

/// The little-endian `u64` at the start of `bytes`.
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(raw)
}

/// Replaces the file at `path` with `bytes`, atomically: the bytes land in
/// a sibling `<name>.tmp` file which is fsynced and then renamed over
/// `path`, and the parent directory is synced to persist the rename — a
/// crash at any point leaves either the previous file or the new one,
/// never a mix. The one write protocol of every whole-file format (index,
/// reference database, incident dump, telemetry segment header).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        path.with_file_name(name)
    };
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    // Directory fsync is not supported everywhere; best effort.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Random-access byte storage that can also be mutated and made durable —
/// the contract the paged storage engine ([`crate::pager::PageStore`]) and
/// the write-ahead log ([`crate::wal::Wal`]) write through.
///
/// Like [`Storage`], methods take `&self`: writers are serialized above
/// this layer (the pager and WAL each own their storage), so backends only
/// need interior mutability, not `&mut`.
pub trait WritableStorage: Storage {
    /// Writes `buf` at `offset`, extending the storage if the range ends
    /// past the current length. A short write is an error: either every
    /// byte lands or the call fails.
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()>;

    /// Forces all previous writes to durable media (fsync).
    fn sync(&self) -> io::Result<()>;

    /// Truncates (or extends with zeros) the storage to `len` bytes.
    fn truncate(&self, len: u64) -> io::Result<()>;
}

impl<S: WritableStorage + ?Sized> WritableStorage for Arc<S> {
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        (**self).write_at(offset, buf)
    }

    fn sync(&self) -> io::Result<()> {
        (**self).sync()
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        (**self).truncate(len)
    }
}

impl<S: WritableStorage + ?Sized> WritableStorage for Box<S> {
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        (**self).write_at(offset, buf)
    }

    fn sync(&self) -> io::Result<()> {
        (**self).sync()
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        (**self).truncate(len)
    }
}

/// Production read-write storage: a file opened (and created if absent)
/// for positioned reads and writes. The durable counterpart of
/// [`FileStorage`], used by the pager and the WAL.
pub struct FileRwStorage {
    file: Mutex<File>,
    path: PathBuf,
}

impl fmt::Debug for FileRwStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileRwStorage")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl FileRwStorage {
    /// Opens (creating if absent) a file for positioned reads and writes.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileRwStorage> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        Ok(FileRwStorage {
            file: Mutex::new(file),
            path,
        })
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, File> {
        match self.file.lock() {
            Ok(f) => f,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl Storage for FileRwStorage {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let mut file = self.lock();
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.lock().metadata()?.len())
    }
}

impl WritableStorage for FileRwStorage {
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let mut file = self.lock();
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(buf)
    }

    fn sync(&self) -> io::Result<()> {
        self.lock().sync_all()
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.lock().set_len(len)
    }
}

/// In-memory writable storage backed by a shared buffer.
///
/// Clones share the same bytes, which is exactly what crash tests need: the
/// harness keeps one clone, lets a [`FaultyStorage`] wrapper "crash" the
/// writer mid-operation, drops the crashed engine, and reopens a fresh
/// engine over the surviving bytes — the moral equivalent of rebooting the
/// machine and reading back the disk.
#[derive(Clone, Debug, Default)]
pub struct SharedMemStorage {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedMemStorage {
    /// Creates empty shared storage.
    pub fn new() -> SharedMemStorage {
        SharedMemStorage::default()
    }

    /// Wraps an existing byte buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> SharedMemStorage {
        SharedMemStorage {
            bytes: Arc::new(Mutex::new(bytes)),
        }
    }

    /// A snapshot of the current contents.
    pub fn snapshot(&self) -> Vec<u8> {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        match self.bytes.lock() {
            Ok(b) => b,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl Storage for SharedMemStorage {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let bytes = self.lock();
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "offset beyond storage"))?;
        let end = start.checked_add(buf.len()).filter(|&e| e <= bytes.len());
        match end {
            Some(end) => {
                buf.copy_from_slice(&bytes[start..end]);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of storage",
            )),
        }
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.lock().len() as u64)
    }
}

impl WritableStorage for SharedMemStorage {
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let mut bytes = self.lock();
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::other("offset beyond addressable memory"))?;
        let end = start
            .checked_add(buf.len())
            .ok_or_else(|| io::Error::other("write range overflows"))?;
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[start..end].copy_from_slice(buf);
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len).map_err(|_| io::Error::other("length beyond memory"))?;
        let mut bytes = self.lock();
        if len <= bytes.len() {
            bytes.truncate(len);
        } else {
            bytes.resize(len, 0);
        }
        Ok(())
    }
}

/// Production storage: a file, read with seek + `read_exact`.
///
/// The handle is behind a mutex so reads can be issued from `&self`; the
/// pseudo-disk engine reads whole sections at a time, so lock traffic is a
/// few acquisitions per section, not per record.
pub struct FileStorage {
    file: Mutex<File>,
    path: PathBuf,
}

impl fmt::Debug for FileStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileStorage")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl FileStorage {
    /// Opens a file for positioned reads.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileStorage> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        Ok(FileStorage {
            file: Mutex::new(file),
            path,
        })
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Storage for FileStorage {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let mut file = match self.file.lock() {
            Ok(f) => f,
            Err(poisoned) => poisoned.into_inner(),
        };
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }

    fn len(&self) -> io::Result<u64> {
        let file = match self.file.lock() {
            Ok(f) => f,
            Err(poisoned) => poisoned.into_inner(),
        };
        Ok(file.metadata()?.len())
    }
}

/// In-memory storage — unit tests and format fuzzing.
#[derive(Debug, Clone)]
pub struct MemStorage {
    bytes: Vec<u8>,
}

impl MemStorage {
    /// Wraps a byte buffer.
    pub fn new(bytes: Vec<u8>) -> MemStorage {
        MemStorage { bytes }
    }
}

impl Storage for MemStorage {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "offset beyond storage"))?;
        let end = start
            .checked_add(buf.len())
            .filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                buf.copy_from_slice(&self.bytes[start..end]);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of storage",
            )),
        }
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.bytes.len() as u64)
    }
}

/// Deterministic fault schedule of a [`FaultyStorage`].
///
/// Rates are per-read probabilities drawn from a seeded generator, so a
/// given `(plan, sequence of reads)` always injects the same faults — test
/// failures reproduce from the seed alone.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Probability that a read fails with a transient error
    /// (`Interrupted` / `TimedOut`, alternating).
    pub transient_error: f64,
    /// Probability that a read is cut short: a prefix is filled, then
    /// `UnexpectedEof` is returned.
    pub short_read: f64,
    /// Probability that a read succeeds but one pseudorandom bit of the
    /// returned buffer is flipped.
    pub bit_flip: f64,
    /// The first `skip_reads` reads pass through untouched. Lets a test
    /// open an index cleanly (header, table and CRC-table reads) and
    /// confine faults to the query path.
    pub skip_reads: u64,
    /// Stop injecting after this many faults (`None` = unlimited). Lets a
    /// test inject exactly N transient failures and then heal.
    pub max_faults: Option<u64>,
    /// File-offset range where every read fails permanently, regardless of
    /// `max_faults` — models an unreadable disk region.
    pub dead_range: Option<Range<u64>>,
    /// Every `stall_every_n`-th read (1 = every read; 0 = never) sleeps
    /// `stall_ms` on the storage's clock before proceeding — models a
    /// degraded device or remote backend. Against a
    /// [`crate::resilience::MockClock`] the stall costs zero wall time
    /// while still exceeding mock deadlines, so deadline and cancellation
    /// paths are testable without wall-clock flakiness. Stalls are
    /// unconditional: they ignore `skip_reads` counting for fault budget
    /// purposes but respect `skip_reads` passthrough, and do not consume
    /// `max_faults`.
    pub stall_every_n: u64,
    /// Stall duration, milliseconds.
    pub stall_ms: u64,
    /// Probability that a read *succeeds* but only a pseudorandom prefix of
    /// the buffer holds real data — the tail is filled with garbage, as a
    /// torn page from an interrupted write would read. Unlike `short_read`
    /// (which errors), a torn read looks healthy to the I/O layer; only the
    /// CRC layer above can detect it.
    pub torn_read: f64,
    /// Probability that a write is torn: a pseudorandom *prefix* of the
    /// buffer reaches the inner storage, then the call fails — a partial
    /// write followed by a simulated crash of that operation. The bytes
    /// that landed stay landed, exactly as after a power cut mid-write.
    pub torn_write: f64,
    /// Deterministic process-death switch, shared across every storage the
    /// simulated process writes (index file + WAL): once the cumulative
    /// write budget is spent, the crossing write lands only its prefix and
    /// every subsequent operation on every wrapped storage fails. `None`
    /// disables crash injection entirely.
    pub crash: Option<CrashSwitch>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            transient_error: 0.0,
            short_read: 0.0,
            bit_flip: 0.0,
            skip_reads: 0,
            max_faults: None,
            dead_range: None,
            stall_every_n: 0,
            stall_ms: 0,
            torn_read: 0.0,
            torn_write: 0.0,
            crash: None,
        }
    }
}

/// Deterministic "the process died here" switch for crash testing.
///
/// The switch carries a byte budget. Each write admitted through a
/// [`FaultyStorage`] holding a clone of the switch consumes budget equal to
/// its length; the write that crosses zero lands only the prefix that fits,
/// the switch trips, and from then on *every* operation on *every* storage
/// sharing the switch fails — process-death semantics, not a single flaky
/// device. Because clones share state, one switch can span the index file
/// and the WAL in global write order, which is what a real kill does.
///
/// Crash points are expressed in cumulative written bytes, so a harness
/// that records the write boundaries of a clean run can replay a kill at
/// every record boundary (budget = cumulative total after each write) and
/// mid-write (any budget strictly inside a write's range).
#[derive(Clone, Debug)]
pub struct CrashSwitch {
    state: Arc<Mutex<CrashSwitchState>>,
}

#[derive(Debug)]
struct CrashSwitchState {
    remaining: u64,
    tripped: bool,
}

enum CrashVerdict {
    /// The whole write lands; budget remains.
    Pass,
    /// Only the first `n` bytes land, then the switch trips.
    Cut(u64),
    /// The switch already tripped: nothing lands, the op fails.
    Dead,
}

impl CrashSwitch {
    /// A switch that trips once `budget` cumulative bytes have been
    /// written through storages sharing it. A budget of 0 kills the very
    /// first write before any byte lands.
    pub fn after_bytes(budget: u64) -> CrashSwitch {
        CrashSwitch {
            state: Arc::new(Mutex::new(CrashSwitchState {
                remaining: budget,
                tripped: false,
            })),
        }
    }

    /// True once the budget has been spent and the simulated process is
    /// dead.
    pub fn tripped(&self) -> bool {
        self.lock().tripped
    }

    fn admit(&self, len: u64) -> CrashVerdict {
        let mut s = self.lock();
        if s.tripped {
            return CrashVerdict::Dead;
        }
        if len < s.remaining {
            s.remaining -= len;
            CrashVerdict::Pass
        } else if len == s.remaining && len > 0 {
            // The write exactly exhausting the budget lands in full; the
            // *next* operation finds the switch tripped. So "budget =
            // cumulative bytes after write k" means "crash at the boundary
            // after write k" — the contract the crash matrix relies on.
            s.remaining = 0;
            s.tripped = true;
            CrashVerdict::Pass
        } else {
            let cut = s.remaining;
            s.remaining = 0;
            s.tripped = true;
            CrashVerdict::Cut(cut)
        }
    }

    fn dead_err() -> io::Error {
        io::Error::other("injected crash: process is dead")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CrashSwitchState> {
        match self.state.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Counters of what a [`FaultyStorage`] actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total `read_at` calls.
    pub reads: u64,
    /// Transient errors injected.
    pub transient_errors: u64,
    /// Short reads injected.
    pub short_reads: u64,
    /// Bit flips injected.
    pub bit_flips: u64,
    /// Reads refused inside the dead range.
    pub dead_reads: u64,
    /// Latency stalls injected (not counted as faults: the read succeeds).
    pub stalls: u64,
    /// Torn reads injected (Ok-returning partial data).
    pub torn_reads: u64,
    /// Total `write_at` calls.
    pub writes: u64,
    /// Torn writes injected (partial write landed, then the call failed).
    pub torn_writes: u64,
    /// Operations refused because the [`CrashSwitch`] had tripped —
    /// includes the tripping write itself.
    pub crashed_ops: u64,
}

impl FaultStats {
    /// Total injected probabilistic/range faults (stalls excluded — a
    /// stalled read still returns correct data; `crashed_ops` excluded —
    /// the crash switch is a deterministic process death, not a device
    /// fault, and must not consume the `max_faults` budget).
    pub fn total(&self) -> u64 {
        self.transient_errors
            + self.short_reads
            + self.bit_flips
            + self.dead_reads
            + self.torn_reads
            + self.torn_writes
    }
}

struct FaultState {
    rng: u64,
    stats: FaultStats,
}

/// Test-only storage wrapper injecting faults per a [`FaultPlan`].
pub struct FaultyStorage<S> {
    inner: S,
    plan: FaultPlan,
    clock: Arc<dyn Clock>,
    state: Mutex<FaultState>,
}

impl<S: fmt::Debug> fmt::Debug for FaultyStorage<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyStorage")
            .field("inner", &self.inner)
            .field("plan", &self.plan)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<S> FaultyStorage<S> {
    /// Wraps `inner` with the given fault plan (stalls, if any, sleep on
    /// the system clock).
    pub fn new(inner: S, plan: FaultPlan) -> FaultyStorage<S> {
        FaultyStorage::with_clock(inner, plan, system_clock())
    }

    /// Wraps `inner` with the given fault plan, stalling against `clock` —
    /// pass a [`crate::resilience::MockClock`] for zero-wall-time stalls.
    pub fn with_clock(inner: S, plan: FaultPlan, clock: Arc<dyn Clock>) -> FaultyStorage<S> {
        // xorshift64* must not start at 0.
        let rng = plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        FaultyStorage {
            inner,
            plan,
            clock,
            state: Mutex::new(FaultState {
                rng,
                stats: FaultStats::default(),
            }),
        }
    }

    /// What has been injected so far.
    pub fn stats(&self) -> FaultStats {
        match self.state.lock() {
            Ok(s) => s.stats,
            Err(poisoned) => poisoned.into_inner().stats,
        }
    }

    /// The wrapped storage.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    s.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn unit(s: &mut u64) -> f64 {
    (xorshift(s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let mut state = match self.state.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.stats.reads += 1;
        // A dead process reads nothing. Checked before skip_reads: process
        // death outranks every other schedule rule.
        if let Some(crash) = &self.plan.crash {
            if crash.tripped() {
                state.stats.crashed_ops += 1;
                return Err(CrashSwitch::dead_err());
            }
        }
        if state.stats.reads <= self.plan.skip_reads {
            return self.inner.read_at(offset, buf);
        }

        if self.plan.stall_every_n > 0 && state.stats.reads % self.plan.stall_every_n == 0 {
            state.stats.stalls += 1;
            // Slept with the state lock held: concurrent readers queue
            // behind the stall, as they would behind a single busy device.
            self.clock.sleep(Duration::from_millis(self.plan.stall_ms));
        }

        if let Some(dead) = &self.plan.dead_range {
            let end = offset + buf.len() as u64;
            if offset < dead.end && end > dead.start {
                state.stats.dead_reads += 1;
                return Err(io::Error::other(format!(
                    "injected permanent fault: read [{offset}, {end}) hits dead range \
                     [{}, {})",
                    dead.start, dead.end
                )));
            }
        }

        let budget_left = self
            .plan
            .max_faults
            .is_none_or(|max| state.stats.total() < max);
        if budget_left {
            if unit(&mut state.rng) < self.plan.transient_error {
                state.stats.transient_errors += 1;
                let kind = if state.stats.transient_errors % 2 == 1 {
                    io::ErrorKind::Interrupted
                } else {
                    io::ErrorKind::TimedOut
                };
                return Err(io::Error::new(kind, "injected transient fault"));
            }
            if !buf.is_empty() && unit(&mut state.rng) < self.plan.short_read {
                state.stats.short_reads += 1;
                let cut = (xorshift(&mut state.rng) as usize) % buf.len();
                // Deliver a prefix, as a failing device would, then report EOF.
                let _ = self.inner.read_at(offset, &mut buf[..cut]);
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "injected short read",
                ));
            }
            if !buf.is_empty() && unit(&mut state.rng) < self.plan.bit_flip {
                self.inner.read_at(offset, buf)?;
                state.stats.bit_flips += 1;
                let byte = (xorshift(&mut state.rng) as usize) % buf.len();
                let bit = (xorshift(&mut state.rng) % 8) as u8;
                buf[byte] ^= 1 << bit;
                return Ok(());
            }
            // Gated on the rate so a zero-rate plan consumes no generator
            // draws here and legacy fault schedules stay bit-identical.
            if self.plan.torn_read > 0.0
                && !buf.is_empty()
                && unit(&mut state.rng) < self.plan.torn_read
            {
                self.inner.read_at(offset, buf)?;
                state.stats.torn_reads += 1;
                // Torn page: a pseudorandom prefix is real, the tail is
                // garbage, and the read *succeeds* — only the CRC layer
                // above can tell.
                let cut = (xorshift(&mut state.rng) as usize) % buf.len();
                for b in &mut buf[cut..] {
                    // Xor with an odd byte so every tail byte really changes.
                    *b ^= ((xorshift(&mut state.rng) >> 56) as u8) | 1;
                }
                return Ok(());
            }
        }
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> io::Result<u64> {
        if let Some(crash) = &self.plan.crash {
            if crash.tripped() {
                return Err(CrashSwitch::dead_err());
            }
        }
        self.inner.len()
    }
}

impl<S: WritableStorage> WritableStorage for FaultyStorage<S> {
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let mut state = match self.state.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.stats.writes += 1;

        // Deterministic process death first: the write crossing the byte
        // budget lands only the prefix that fits, then the process is gone.
        if let Some(crash) = &self.plan.crash {
            match crash.admit(buf.len() as u64) {
                CrashVerdict::Pass => {}
                CrashVerdict::Cut(n) => {
                    state.stats.crashed_ops += 1;
                    let n = n as usize;
                    if n > 0 {
                        self.inner.write_at(offset, &buf[..n])?;
                    }
                    return Err(CrashSwitch::dead_err());
                }
                CrashVerdict::Dead => {
                    state.stats.crashed_ops += 1;
                    return Err(CrashSwitch::dead_err());
                }
            }
        }

        // Gated on the rate so zero-rate plans consume no generator draws
        // and read-fault schedules stay bit-identical when writes happen.
        let budget_left = self
            .plan
            .max_faults
            .is_none_or(|max| state.stats.total() < max);
        if budget_left
            && self.plan.torn_write > 0.0
            && !buf.is_empty()
            && unit(&mut state.rng) < self.plan.torn_write
        {
            state.stats.torn_writes += 1;
            // Torn write: a pseudorandom prefix reaches the device, then
            // the operation "crashes". The landed prefix is permanent.
            let cut = (xorshift(&mut state.rng) as usize) % buf.len();
            if cut > 0 {
                self.inner.write_at(offset, &buf[..cut])?;
            }
            return Err(io::Error::other("injected torn write"));
        }
        self.inner.write_at(offset, buf)
    }

    fn sync(&self) -> io::Result<()> {
        if let Some(crash) = &self.plan.crash {
            if crash.tripped() {
                let mut state = match self.state.lock() {
                    Ok(s) => s,
                    Err(poisoned) => poisoned.into_inner(),
                };
                state.stats.crashed_ops += 1;
                return Err(CrashSwitch::dead_err());
            }
        }
        self.inner.sync()
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        if let Some(crash) = &self.plan.crash {
            if crash.tripped() {
                let mut state = match self.state.lock() {
                    Ok(s) => s,
                    Err(poisoned) => poisoned.into_inner(),
                };
                state.stats.crashed_ops += 1;
                return Err(CrashSwitch::dead_err());
            }
        }
        self.inner.truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::TimeSource;

    fn mem(n: usize) -> MemStorage {
        MemStorage::new((0..n).map(|i| (i % 251) as u8).collect())
    }

    #[test]
    fn file_storage_reads_ranges() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("s3_storage_test_{}", std::process::id()));
        std::fs::write(&path, (0u8..=255).collect::<Vec<_>>()).unwrap();
        let s = FileStorage::open(&path).unwrap();
        assert_eq!(s.len().unwrap(), 256);
        let mut buf = [0u8; 4];
        s.read_at(10, &mut buf).unwrap();
        assert_eq!(buf, [10, 11, 12, 13]);
        let mut beyond = [0u8; 8];
        let err = s.read_at(252, &mut beyond).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mem_storage_bounds() {
        let s = mem(100);
        let mut buf = [0u8; 10];
        s.read_at(90, &mut buf).unwrap();
        assert!(s.read_at(91, &mut buf).is_err());
        assert!(s.read_at(u64::MAX, &mut buf).is_err());
    }

    #[test]
    fn faulty_schedule_is_deterministic() {
        let plan = FaultPlan {
            seed: 42,
            transient_error: 0.3,
            bit_flip: 0.2,
            ..FaultPlan::default()
        };
        let run = || {
            let s = FaultyStorage::new(mem(4096), plan.clone());
            let mut outcomes = Vec::new();
            for i in 0..50u64 {
                let mut buf = [0u8; 32];
                outcomes.push((s.read_at(i * 64, &mut buf).is_ok(), buf));
            }
            (outcomes, s.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.transient_errors > 0, "schedule never fired: {sa:?}");
        assert!(sa.bit_flips > 0, "schedule never flipped: {sa:?}");
    }

    #[test]
    fn max_faults_heals_the_storage() {
        let plan = FaultPlan {
            seed: 7,
            transient_error: 1.0,
            max_faults: Some(3),
            ..FaultPlan::default()
        };
        let s = FaultyStorage::new(mem(256), plan);
        let mut buf = [0u8; 8];
        let failures = (0..10).filter(|_| s.read_at(0, &mut buf).is_err()).count();
        assert_eq!(failures, 3);
        assert_eq!(s.stats().transient_errors, 3);
    }

    #[test]
    fn dead_range_always_fails() {
        let plan = FaultPlan {
            dead_range: Some(100..200),
            ..FaultPlan::default()
        };
        let s = FaultyStorage::new(mem(4096), plan);
        let mut buf = [0u8; 16];
        s.read_at(0, &mut buf).unwrap();
        s.read_at(200, &mut buf).unwrap();
        for _ in 0..5 {
            assert!(s.read_at(150, &mut buf).is_err());
            assert!(s.read_at(96, &mut buf).is_err(), "overlap from below");
        }
        assert_eq!(s.stats().dead_reads, 10);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let plan = FaultPlan {
            seed: 3,
            bit_flip: 1.0,
            max_faults: Some(1),
            ..FaultPlan::default()
        };
        let s = FaultyStorage::new(mem(1024), plan);
        let mut corrupt = [0u8; 64];
        s.read_at(0, &mut corrupt).unwrap();
        let mut clean = [0u8; 64];
        s.read_at(0, &mut clean).unwrap(); // budget exhausted: clean read
        let diff_bits: u32 = corrupt
            .iter()
            .zip(&clean)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1);
    }

    #[test]
    fn stalls_advance_the_mock_clock_only() {
        use crate::resilience::MockClock;
        let clock = Arc::new(MockClock::new());
        let plan = FaultPlan {
            stall_every_n: 2,
            stall_ms: 10,
            skip_reads: 1,
            ..FaultPlan::default()
        };
        let s = FaultyStorage::with_clock(mem(256), plan, clock.clone());
        let mut buf = [0u8; 8];
        let wall = std::time::Instant::now();
        for i in 0..6 {
            s.read_at(i * 8, &mut buf).unwrap();
        }
        // Reads 2, 4, 6 stall (read 1 is skipped-through but still counted).
        assert_eq!(s.stats().stalls, 3);
        assert_eq!(clock.now(), Duration::from_millis(30));
        assert!(
            wall.elapsed() < Duration::from_millis(10),
            "mock stalls must not burn wall time"
        );
        assert_eq!(s.stats().total(), 0, "stalled reads still succeed");
    }

    #[test]
    fn torn_read_succeeds_with_corrupt_tail() {
        let plan = FaultPlan {
            seed: 11,
            torn_read: 1.0,
            max_faults: Some(1),
            ..FaultPlan::default()
        };
        let s = FaultyStorage::new(mem(1024), plan);
        let mut torn = [0u8; 64];
        s.read_at(0, &mut torn).unwrap(); // Ok despite corruption
        let mut clean = [0u8; 64];
        s.read_at(0, &mut clean).unwrap(); // budget exhausted: clean read
        assert_eq!(s.stats().torn_reads, 1);
        assert_ne!(torn[..], clean[..], "tail must be corrupted");
        // The corruption is a contiguous tail: find the cut and check the
        // prefix survived.
        let cut = torn
            .iter()
            .zip(&clean)
            .position(|(a, b)| a != b)
            .unwrap_or(torn.len());
        assert_eq!(torn[..cut], clean[..cut]);
        assert_ne!(torn[torn.len() - 1], clean[clean.len() - 1]);
    }

    #[test]
    fn torn_schedule_is_deterministic() {
        let plan = FaultPlan {
            seed: 9,
            torn_read: 0.5,
            stall_every_n: 3,
            stall_ms: 1,
            ..FaultPlan::default()
        };
        let run = || {
            use crate::resilience::MockClock;
            let s = FaultyStorage::with_clock(mem(4096), plan.clone(), Arc::new(MockClock::new()));
            let mut out = Vec::new();
            for i in 0..40u64 {
                let mut buf = [0u8; 32];
                out.push((s.read_at(i * 64, &mut buf).is_ok(), buf));
            }
            (out, s.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.torn_reads > 0, "schedule never tore: {sa:?}");
    }

    #[test]
    fn shared_mem_round_trips_and_extends() {
        let s = SharedMemStorage::new();
        s.write_at(4, &[1, 2, 3]).unwrap();
        assert_eq!(s.len().unwrap(), 7);
        assert_eq!(s.snapshot(), vec![0, 0, 0, 0, 1, 2, 3]);
        let clone = s.clone();
        clone.write_at(0, &[9]).unwrap();
        assert_eq!(s.snapshot()[0], 9, "clones share bytes");
        s.truncate(2).unwrap();
        assert_eq!(s.snapshot(), vec![9, 0]);
    }

    #[test]
    fn torn_write_lands_prefix_then_fails() {
        let inner = SharedMemStorage::from_bytes(vec![0u8; 64]);
        let plan = FaultPlan {
            seed: 13,
            torn_write: 1.0,
            max_faults: Some(1),
            ..FaultPlan::default()
        };
        let s = FaultyStorage::new(inner.clone(), plan);
        let payload = [0xABu8; 32];
        let err = s.write_at(0, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(s.stats().torn_writes, 1);
        let bytes = inner.snapshot();
        // A strict prefix landed; the rest of the range stayed untouched.
        let landed = bytes.iter().take(32).filter(|&&b| b == 0xAB).count();
        assert!(landed < 32, "torn write must not complete");
        assert!(bytes[..landed].iter().all(|&b| b == 0xAB));
        assert!(bytes[landed..32].iter().all(|&b| b == 0));
        // Budget exhausted: the retry goes through whole.
        s.write_at(0, &payload).unwrap();
        assert_eq!(inner.snapshot()[..32], payload[..]);
    }

    #[test]
    fn crash_switch_spans_storages_in_write_order() {
        let data = SharedMemStorage::new();
        let wal = SharedMemStorage::new();
        // Budget: 8 (write 1, data) + 4 (write 2, wal) = 12 → crash at the
        // boundary after the second write.
        let crash = CrashSwitch::after_bytes(12);
        let plan = FaultPlan {
            crash: Some(crash.clone()),
            ..FaultPlan::default()
        };
        let fd = FaultyStorage::new(data.clone(), plan.clone());
        let fw = FaultyStorage::new(wal.clone(), plan);
        fd.write_at(0, &[1u8; 8]).unwrap();
        fw.write_at(0, &[2u8; 4]).unwrap();
        assert!(crash.tripped(), "budget spent exactly at a boundary");
        // Everything after the kill fails, on both storages, reads included.
        assert!(fd.write_at(8, &[3u8; 4]).is_err());
        assert!(fw.write_at(4, &[4u8; 4]).is_err());
        assert!(fd.sync().is_err());
        assert!(fw.truncate(0).is_err());
        let mut buf = [0u8; 1];
        assert!(fd.read_at(0, &mut buf).is_err());
        // The surviving bytes are exactly the pre-kill writes.
        assert_eq!(data.snapshot(), vec![1u8; 8]);
        assert_eq!(wal.snapshot(), vec![2u8; 4]);
        assert!(fd.stats().crashed_ops >= 2);
    }

    #[test]
    fn crash_switch_cuts_mid_write() {
        let data = SharedMemStorage::new();
        let crash = CrashSwitch::after_bytes(5);
        let plan = FaultPlan {
            crash: Some(crash.clone()),
            ..FaultPlan::default()
        };
        let s = FaultyStorage::new(data.clone(), plan);
        let err = s.write_at(0, &[7u8; 16]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(crash.tripped());
        assert_eq!(data.snapshot(), vec![7u8; 5], "only the prefix landed");
        assert_eq!(s.stats().crashed_ops, 1);
    }

    #[test]
    fn crash_budget_zero_kills_first_write() {
        let data = SharedMemStorage::new();
        let crash = CrashSwitch::after_bytes(0);
        let plan = FaultPlan {
            crash: Some(crash.clone()),
            ..FaultPlan::default()
        };
        let s = FaultyStorage::new(data.clone(), plan);
        assert!(s.write_at(0, &[1u8; 4]).is_err());
        assert!(data.snapshot().is_empty(), "no byte may land");
        assert!(crash.tripped());
    }

    #[test]
    fn write_faults_do_not_perturb_read_schedules() {
        // A legacy read-fault plan must inject the same read schedule
        // whether or not interleaved writes happen — write-path draws are
        // gated on torn_write > 0.
        let plan = FaultPlan {
            seed: 42,
            transient_error: 0.3,
            bit_flip: 0.2,
            ..FaultPlan::default()
        };
        let run = |with_writes: bool| {
            let s = FaultyStorage::new(SharedMemStorage::from_bytes(vec![5u8; 4096]), plan.clone());
            let mut outcomes = Vec::new();
            for i in 0..50u64 {
                if with_writes {
                    s.write_at(i, &[9]).unwrap();
                }
                let mut buf = [0u8; 16];
                outcomes.push(s.read_at(i * 64, &mut buf).is_ok());
            }
            outcomes
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn short_read_reports_eof() {
        let plan = FaultPlan {
            seed: 5,
            short_read: 1.0,
            max_faults: Some(1),
            ..FaultPlan::default()
        };
        let s = FaultyStorage::new(mem(1024), plan);
        let mut buf = [0u8; 64];
        let err = s.read_at(0, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(s.stats().short_reads, 1);
        s.read_at(0, &mut buf).unwrap();
    }
}
