//! Bench-side tracing: a span recorder and a counting storage wrapper.
//!
//! Both live outside the crates they observe. Spans are recorded around the
//! benchmark's own calls into a layer's public functions; the storage
//! wrapper sits between an engine and the bytes it reads or writes. Neither
//! is installed in an untraced run, which is where every end-to-end number
//! comes from.

use s3_core::{Storage, WritableStorage};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// At most this many spans are written to the trace file (all are kept in
/// memory and aggregated; an ingest round alone records one per insert).
const MAX_WRITTEN_SPANS: usize = 100_000;

/// One recorded interval. `parent` is the span that was open when this one
/// started; spans of one operation share `op_id`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u32,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

/// In-memory span recorder. Disabled, every call is a branch and nothing
/// else — no clock read, no allocation.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next operation: spans entered from here share its id.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Runs `f` inside a span. For leaf calls; nested spans use
    /// [`Tracer::enter`] / [`Tracer::exit`].
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Duration of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Total time of the spans called `name`, per operation id.
    pub fn per_op_ns(&self, name: &str) -> BTreeMap<u32, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op_id).or_insert(0.0) += (s.end_ns - s.start_ns) as f64;
        }
        out
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its direct children cover.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns).saturating_sub(c) as f64;
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans (the first [`MAX_WRITTEN_SPANS`]) and the self-time
    /// table as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut out = String::with_capacity(64 * self.spans.len().min(MAX_WRITTEN_SPANS) + 256);
        let _ = write!(
            out,
            "{{\"schema\":\"s3.bench.trace.v1\",\"workload\":\"{workload}\",\"spans_recorded\":{},\"self_time_ns\":{{",
            self.spans.len()
        );
        for (i, (name, ns)) in self.self_times_ns().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{ns}");
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// What a [`CountingStorage`] has seen. Shared through an `Arc` so the
/// benchmark keeps a handle after the storage is boxed into an engine.
#[derive(Debug, Default)]
pub struct IoCounters {
    pub reads: AtomicU64,
    pub read_bytes: AtomicU64,
    pub read_ns: AtomicU64,
    pub writes: AtomicU64,
    pub write_bytes: AtomicU64,
    pub write_ns: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
    pub truncates: AtomicU64,
}

/// A plain copy of [`IoCounters`] at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoSnapshot {
    pub reads: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub writes: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
    pub syncs: u64,
    pub sync_ns: u64,
    pub truncates: u64,
}

impl IoCounters {
    pub fn snapshot(&self) -> IoSnapshot {
        // Relaxed: statistics only, nothing is published through them.
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        IoSnapshot {
            reads: get(&self.reads),
            read_bytes: get(&self.read_bytes),
            read_ns: get(&self.read_ns),
            writes: get(&self.writes),
            write_bytes: get(&self.write_bytes),
            write_ns: get(&self.write_ns),
            syncs: get(&self.syncs),
            sync_ns: get(&self.sync_ns),
            truncates: get(&self.truncates),
        }
    }
}

impl IoSnapshot {
    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            read_ns: self.read_ns - earlier.read_ns,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            write_ns: self.write_ns - earlier.write_ns,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
            truncates: self.truncates - earlier.truncates,
        }
    }
}

/// Counts and times every call that crosses the storage boundary.
#[derive(Debug)]
pub struct CountingStorage<S> {
    inner: S,
    counters: Arc<IoCounters>,
}

impl<S> CountingStorage<S> {
    pub fn new(inner: S, counters: Arc<IoCounters>) -> Self {
        CountingStorage { inner, counters }
    }
}

fn timed<T>(count: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    count.fetch_add(1, Ordering::Relaxed);
    out
}

impl<S: Storage> Storage for CountingStorage<S> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let c = &self.counters;
        c.read_bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        timed(&c.reads, &c.read_ns, || self.inner.read_at(offset, buf))
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl<S: WritableStorage> WritableStorage for CountingStorage<S> {
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let c = &self.counters;
        c.write_bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        timed(&c.writes, &c.write_ns, || self.inner.write_at(offset, buf))
    }

    fn sync(&self) -> io::Result<()> {
        let c = &self.counters;
        timed(&c.syncs, &c.sync_ns, || self.inner.sync())
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.counters.truncates.fetch_add(1, Ordering::Relaxed);
        self.inner.truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_core::SharedMemStorage;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.next_op();
        let outer = tr.enter("outer");
        let inner = tr.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit(inner);
        tr.exit(outer);
        let selfs = tr.self_times_ns();
        let outer_total = tr.durations_ns("outer")[0];
        let inner_total = tr.durations_ns("inner")[0];
        assert!(inner_total >= 2e6);
        assert_eq!(selfs["inner"], inner_total);
        assert_eq!(selfs["outer"], outer_total - inner_total);
        assert_eq!(tr.per_op_ns("inner")[&1], inner_total);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.time("x", || 7);
        assert_eq!(v, 7);
        assert_eq!(tr.span_count(), 0);
    }

    #[test]
    fn counting_storage_counts_each_call() {
        let counters = Arc::new(IoCounters::default());
        let s = CountingStorage::new(SharedMemStorage::new(), Arc::clone(&counters));
        s.write_at(0, &[1, 2, 3, 4]).unwrap();
        s.sync().unwrap();
        let mut buf = [0u8; 2];
        s.read_at(1, &mut buf).unwrap();
        s.truncate(2).unwrap();
        assert_eq!(buf, [2, 3]);
        let snap = counters.snapshot();
        assert_eq!((snap.writes, snap.write_bytes), (1, 4));
        assert_eq!((snap.reads, snap.read_bytes), (1, 2));
        assert_eq!((snap.syncs, snap.truncates), (1, 1));
        assert_eq!(s.len().unwrap(), 2);
    }
}
