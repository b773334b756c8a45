//! What the four workloads share: run configuration, the pass loop, storage
//! backing, the archive inputs and the report a run produces.

use crate::inputs::{
    distorted_queries, extracted_pool, Digest, DistortedQuery, FingerprintSampler, ALPHA, SIGMA,
};
use crate::stats::{median, percentile, sorted};
use crate::trace::{CountingStorage, IoCounters, Tracer};
use s3_core::{
    FileRwStorage, FileStorage, IsotropicNormal, MemStorage, RecordBatch, Refine, SharedMemStorage,
    StatQueryOpts, Storage, WritableStorage,
};
use s3_stats::NormDistribution;
use s3_video::FINGERPRINT_DIMS;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Partition depth of the tuned workloads, frozen: what
/// `autotune::tune_depth` picks at 2^18–2^20 records today. Never
/// re-learned by wall clock inside a run, so two runs do the same work.
pub const FROZEN_DEPTH: u32 = 12;

/// How often the engine under test is set up in one run; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 5;

/// Bytes of user data in one record: fingerprint, id, time-code.
pub const USER_BYTES_PER_RECORD: u64 = FINGERPRINT_DIMS as u64 + 8;

/// One run's configuration.
pub struct Config {
    pub seed: u64,
    /// Minimum measured time; the loop ends at the first pass boundary
    /// after it.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes and a single pass: checks the plumbing, measures nothing.
    pub smoke: bool,
    pub backing: Backing,
}

/// What one run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` of every metric the workload measured in this mode.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample count behind each family of timings (`op`, `alt`, `setup`).
    pub samples: BTreeMap<&'static str, usize>,
    /// `(gate, passed)` of every correctness gate.
    pub gates: Vec<(&'static str, bool)>,
    pub inputs_digest: u32,
    pub passes: usize,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a gate over `checked` items of which `bad` failed.
    pub fn gate(&mut self, name: &'static str, checked: usize, bad: usize) {
        self.attempted += checked as u64;
        self.failed += bad as u64;
        self.gates.push((name, bad == 0));
    }

    fn sample_counts(&mut self, t: &Timings) {
        self.samples.insert("setup", t.setup_s.len());
        self.samples.insert("op", t.op_ms.len());
        self.samples.insert("alt", t.alt_ms.len());
    }

    /// The six end-to-end metrics of an untraced run. `work` is how many of
    /// the workload's units of work the timed `op`s completed.
    pub fn end_to_end(&mut self, t: &Timings, work: usize) {
        self.sample_counts(t);
        self.set("setup_s", median(&t.setup_s));
        self.set("peak_rss_mb", peak_rss_mb());
        self.set("op_ms_p50", median(&t.op_ms));
        self.set("op_ms_p99", percentile(&sorted(&t.op_ms), 99.0));
        self.set(
            "work_per_s",
            work as f64 / (t.op_ms.iter().sum::<f64>() / 1e3),
        );
        self.set("alt_ms_p50", median(&t.alt_ms));
    }

    /// Ends a traced run: the traced `op` median (against the untraced
    /// one it gives the tracing overhead), the span count, and the spans
    /// themselves in `out/trace-<workload>.json`.
    pub fn end_trace(&mut self, t: &Timings, tr: &Tracer, workload: &str) {
        self.sample_counts(t);
        self.set("trace.op_ms_p50", median(&t.op_ms));
        self.set("trace.spans", tr.span_count() as f64);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.json"));
        if let Err(e) = tr.write_json(&path, workload) {
            eprintln!("warning: trace not written to {}: {e}", path.display());
        }
    }
}

/// The timings every workload takes, whatever its operation is.
#[derive(Default)]
pub struct Timings {
    /// Duration of each set-up of the engine under test, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each `op`, milliseconds.
    pub op_ms: Vec<f64>,
    /// Latency of each `alt`, milliseconds.
    pub alt_ms: Vec<f64>,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs whole passes until `seconds` have elapsed (exactly one when
/// smoking). Every input of the pass list therefore runs equally often,
/// and a faster build just completes more passes.
pub fn run_passes(cfg: &Config, mut pass: impl FnMut(usize)) -> usize {
    let t0 = Instant::now();
    let mut n = 0;
    loop {
        pass(n);
        n += 1;
        if cfg.smoke || t0.elapsed().as_secs_f64() >= cfg.seconds {
            return n;
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the bytes of the disk-shaped workloads live. By default in
/// process memory, behind the same `Storage` traits the engines use on
/// files: the device is counted, not priced, and nothing outside the
/// checkout is touched. `S3_BENCH_DIR=<dir>` puts real files there instead
/// (a tmpfs keeps fsync cheap; a disk prices it).
pub enum Backing {
    Mem,
    Dir(PathBuf),
}

impl Backing {
    pub fn from_env() -> Backing {
        match std::env::var_os("S3_BENCH_DIR") {
            Some(dir) if !dir.is_empty() => {
                Backing::Dir(PathBuf::from(dir).join(format!("s3-bench-{}", std::process::id())))
            }
            _ => Backing::Mem,
        }
    }

    pub fn describe(&self) -> String {
        match self {
            Backing::Mem => "mem".into(),
            Backing::Dir(d) => d.display().to_string(),
        }
    }

    /// Read-only storage holding `bytes`.
    pub fn read_only(&self, name: &str, bytes: &[u8]) -> io::Result<Box<dyn Storage>> {
        Ok(match self {
            Backing::Mem => Box::new(MemStorage::new(bytes.to_vec())),
            Backing::Dir(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(name);
                std::fs::write(&path, bytes)?;
                Box::new(FileStorage::open(path)?)
            }
        })
    }

    /// A fresh, empty writable storage. The returned [`RwHandle`] reopens
    /// the same bytes later, as a restarted process would.
    pub fn writable(&self, name: &str) -> io::Result<RwHandle> {
        Ok(match self {
            Backing::Mem => RwHandle::Mem(SharedMemStorage::new()),
            Backing::Dir(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(name);
                if path.exists() {
                    std::fs::remove_file(&path)?;
                }
                RwHandle::File(path)
            }
        })
    }

    /// Removes the run's directory, if it made one.
    pub fn cleanup(&self) {
        if let Backing::Dir(dir) = self {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Names one writable storage so that it can be opened more than once.
pub enum RwHandle {
    Mem(SharedMemStorage),
    File(PathBuf),
}

impl RwHandle {
    /// Opens the storage, counting its traffic when `counters` is given.
    pub fn open(&self, counters: Option<&Arc<IoCounters>>) -> io::Result<Box<dyn WritableStorage>> {
        fn wrap<S: WritableStorage + 'static>(
            s: S,
            counters: Option<&Arc<IoCounters>>,
        ) -> Box<dyn WritableStorage> {
            match counters {
                Some(c) => Box::new(CountingStorage::new(s, Arc::clone(c))),
                None => Box::new(s),
            }
        }
        Ok(match self {
            RwHandle::Mem(shared) => wrap(shared.clone(), counters),
            RwHandle::File(path) => wrap(FileRwStorage::open(path)?, counters),
        })
    }

    pub fn len(&self) -> io::Result<u64> {
        self.open(None)?.len()
    }
}

/// The archive model shared by three workloads: a database sampled from the
/// frozen pool and queries that are distorted copies of stored records.
pub struct Archive {
    pub batch: RecordBatch,
    pub queries: Vec<DistortedQuery>,
    pub model: IsotropicNormal,
    /// Range-refinement radius: the α-quantile of ‖ΔS‖ under the model.
    pub eps: f64,
}

impl Archive {
    pub fn new(n_records: usize, n_queries: usize, seed: u64) -> Archive {
        let batch = FingerprintSampler::new(extracted_pool(6), seed).batch(n_records);
        let queries = distorted_queries(&batch, n_queries, seed.wrapping_add(1));
        Archive {
            batch,
            queries,
            model: IsotropicNormal::new(FINGERPRINT_DIMS, SIGMA),
            eps: NormDistribution::new(FINGERPRINT_DIMS as u32, SIGMA).quantile(ALPHA),
        }
    }

    /// The tuned query: frozen depth, range refinement at `eps`.
    pub fn opts(&self) -> StatQueryOpts {
        StatQueryOpts {
            refine: Refine::Range(self.eps),
            ..StatQueryOpts::new(ALPHA, FROZEN_DEPTH)
        }
    }

    /// Digest of records, queries and the frozen depth.
    pub fn digest(&self) -> u32 {
        Digest::new()
            .records(&self.batch)
            .queries(&self.queries)
            .u64(u64::from(FROZEN_DEPTH))
            .finish()
    }
}
