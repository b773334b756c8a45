//! `disk_batch` — the §IV-B pseudo-disk path: batches of `N_sig` = 256
//! queries streamed over an index 16 times larger than the memory budget.
//!
//! * op   — one flat `DiskIndex::stat_query_batch`, per query (eq. 5's
//!   `T_tot = T + T_load / N_sig`);
//! * alt  — the same batch through the pooled engine (`BlockSource` 4 KiB +
//!   `BufferPool` of a quarter of the file, as `--buffer-pool-pages` wires
//!   it), per query;
//! * work — queries answered per second by the flat engine.
//!
//! The traced run adds the sharded engine (2 shards × 2 replicas, default
//! options incl. hedging) and interleaves all three. This is the only
//! workload where storage, pseudo-disk, buffer pool, sketch and shards do
//! work (load ≈ 20 % of a flat batch, ≈ 50 % of a pooled one), and a
//! larger-than-cache case by construction.

use super::{FilterReplay, PoolCounts, RefineCounts};
use crate::harness::{ms, run_passes, Archive, Config, Report, Timings, SETUP_REPEATS};
use crate::inputs::query_refs;
use crate::stats::median;
use crate::trace::{CountingStorage, IoCounters, Tracer};
use s3_core::pseudo_disk::{BatchResult, DiskIndex, WriteOpts};
use s3_core::{
    BlockSource, BufferPool, CoreMetrics, PooledStorage, S3Index, ShardedBatchResult, ShardedIndex,
    ShardedOptions, SketchParams, Storage,
};
use s3_hilbert::HilbertCurve;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const POOL_PAGE: usize = 4096;
/// Batches the sharded engine runs before timing starts: its hedge delay
/// stays at a 2 ms floor until the latency window holds 8 samples, and
/// until then a clean batch hedges every dispatch.
const HEDGE_PRIMING_BATCHES: usize = 8;

/// The engines of one set-up.
struct Engines {
    index: S3Index,
    flat: DiskIndex,
    pooled: DiskIndex,
    /// Built for the traced run only.
    sharded: Option<ShardedIndex>,
    /// Memory budget of a batch: file / 16.
    budget: u64,
}

fn set_up(cfg: &Config, arch: &Archive, io: Option<&Arc<IoCounters>>) -> Engines {
    let index = S3Index::build(HilbertCurve::paper(), arch.batch.clone());
    let bytes = DiskIndex::encode_to_vec(&index, WriteOpts::default()).expect("encode index");
    let budget = bytes.len() as u64 / 16;
    let base = |name: &str| cfg.backing.read_only(name, &bytes).expect("index storage");
    let flat_storage: Box<dyn Storage> = match io {
        Some(io) => Box::new(CountingStorage::new(base("flat.s3idx"), Arc::clone(io))),
        None => base("flat.s3idx"),
    };
    let mut flat = DiskIndex::open_storage(flat_storage).expect("open flat");
    // The sketch `DiskIndex::write` would have put in the sidecar.
    let sketch = flat
        .build_sketch(SketchParams::default())
        .expect("build sketch");
    assert!(
        flat.attach_sketch(sketch.clone()),
        "sketch matches its index"
    );

    let source = BlockSource::new(base("pooled.s3idx"), POOL_PAGE).expect("block source");
    let pool = Arc::new(BufferPool::new(source, bytes.len() / 4 / POOL_PAGE));
    let mut pooled =
        DiskIndex::open_storage(Box::new(PooledStorage::new(pool))).expect("open pooled");
    assert!(pooled.attach_sketch(sketch), "sketch matches its index");

    let sharded = cfg.trace.then(|| {
        let opts = ShardedOptions {
            mem_budget: budget,
            ..ShardedOptions::default()
        };
        ShardedIndex::build_mem(&index, 2, 2, WriteOpts::default(), opts).expect("build shards")
    });
    Engines {
        index,
        flat,
        pooled,
        sharded,
        budget,
    }
}

/// Per-layer accounting of the traced run, one `record_*` per engine call.
#[derive(Default)]
struct Layers {
    batches: u64,
    filter_ms: Vec<f64>,
    load_ms: Vec<f64>,
    refine_ms: Vec<f64>,
    residual_pct: Vec<f64>,
    sections: u64,
    bytes_loaded: u64,
    sketch_skips: u64,
    eq5_ratio: Vec<f64>,
    pool_load_ms: Vec<f64>,
    shard_us: Vec<f64>,
    dispatch_ms: Vec<f64>,
    router_ms: Vec<f64>,
    hedges: u64,
    failovers: u64,
}

impl Layers {
    fn record_flat(&mut self, f: &BatchResult, wall_ms: f64) {
        let t = &f.timing;
        self.batches += 1;
        self.filter_ms.push(ms(t.filter));
        self.load_ms.push(ms(t.load));
        self.refine_ms.push(ms(t.refine));
        self.residual_pct
            .push((wall_ms - ms(t.filter + t.load + t.refine)) / wall_ms * 100.0);
        self.sections += t.sections_loaded as u64;
        self.bytes_loaded += t.bytes_loaded;
        self.sketch_skips += t.sketch_skips as u64;
    }

    fn record_sharded(&mut self, s: &ShardedBatchResult, wall_ms: f64, n_sig: usize) {
        self.shard_us.push(wall_ms * 1e3 / n_sig as f64);
        let slowest = s.shards.iter().map(|r| r.elapsed_ns).max().unwrap_or(0);
        self.dispatch_ms
            .extend(s.shards.iter().map(|r| r.elapsed_ns as f64 / 1e6));
        self.router_ms.push(wall_ms - slowest as f64 / 1e6);
        self.hedges += s.hedges as u64;
        self.failovers += s.failovers as u64;
    }
}

pub fn run(cfg: &Config) -> Report {
    let (n_records, n_sig, n_batches) = if cfg.smoke {
        (1 << 13, 32, 2)
    } else {
        (1 << 18, 256, 4)
    };
    let arch = Archive::new(n_records, n_sig * n_batches, cfg.seed);
    let opts = arch.opts();
    let qrefs = query_refs(&arch.queries);
    let batches: Vec<&[&[u8]]> = qrefs.chunks(n_sig).collect();
    let mut rep = Report {
        inputs_digest: arch.digest(),
        ..Report::default()
    };
    let mut tr = Tracer::new(cfg.trace);
    let io = cfg.trace.then(|| Arc::new(IoCounters::default()));

    let mut t = Timings::default();
    let mut engines = None;
    for _ in 0..SETUP_REPEATS {
        drop(engines.take());
        let t0 = Instant::now();
        engines = Some(set_up(cfg, &arch, io.as_ref()));
        t.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Engines {
        index,
        flat,
        pooled,
        sharded,
        budget,
    } = engines.expect("SETUP_REPEATS > 0");
    let run_flat = |qs: &[&[u8]]| {
        flat.stat_query_batch(qs, &arch.model, &opts, budget)
            .expect("flat batch")
    };
    let run_pooled = |qs: &[&[u8]]| {
        pooled
            .stat_query_batch(qs, &arch.model, &opts, budget)
            .expect("pooled batch")
    };
    let run_sharded = |sharded: &ShardedIndex, qs: &[&[u8]]| {
        sharded
            .stat_query_batch(qs, &arch.model, &opts)
            .expect("sharded batch")
    };

    // Warm-up, untimed.
    black_box(run_flat(batches[0]));
    black_box(run_pooled(batches[0]));
    if let Some(sharded) = &sharded {
        for i in 0..HEDGE_PRIMING_BATCHES {
            black_box(run_sharded(sharded, batches[i % batches.len()]));
        }
    }

    let m = CoreMetrics::get();
    let mut degraded = 0usize;
    let mut layers = Layers::default();
    let mut refine = RefineCounts::default();
    let mut replay = FilterReplay::default();
    let mut replay_checked = 0usize;
    let mut replay_mismatch = 0usize;
    let mut pool = PoolCounts::default();
    let mut probes = 0u64;
    let (mut reads, mut read_bytes, mut read_ns) = (0u64, 0u64, 0u64);
    rep.passes = run_passes(cfg, |_| {
        for qs in &batches {
            tr.next_op();
            let io0 = io.as_ref().map(|c| c.snapshot());
            let probes0 = m.sketch_probes.get();
            let t0 = Instant::now();
            let f = tr.time("disk.flat_batch", || run_flat(qs));
            let flat_ms = ms(t0.elapsed());
            t.op_ms.push(flat_ms / n_sig as f64);
            degraded += usize::from(f.timing.degraded);
            probes += m.sketch_probes.get() - probes0;
            if let (Some(io), Some(io0)) = (&io, io0) {
                let d = io.snapshot().since(&io0);
                reads += d.reads;
                read_bytes += d.read_bytes;
                read_ns += d.read_ns;
            }

            let pool0 = PoolCounts::now();
            let t0 = Instant::now();
            let p = tr.time("disk.pooled_batch", || run_pooled(qs));
            t.alt_ms.push(ms(t0.elapsed()) / n_sig as f64);
            degraded += usize::from(p.timing.degraded);

            let Some(sharded) = &sharded else { continue };
            pool.add_since(pool0);
            layers.record_flat(&f, flat_ms);
            layers.pool_load_ms.push(ms(p.timing.load));
            for (st, matches) in f.stats.iter().zip(&f.matches) {
                refine.add(st.entries_scanned, matches.len());
            }

            let t0 = Instant::now();
            let s = tr.time("disk.sharded_batch", || run_sharded(sharded, qs));
            layers.record_sharded(&s, ms(t0.elapsed()), n_sig);
            degraded += usize::from(s.batch.timing.degraded);

            // eq. 5: the load is paid once per batch, so a batch a quarter
            // the size pays four times the load per query.
            let quarter = run_flat(&qs[..n_sig / 4]);
            layers.eq5_ratio.push(
                (ms(quarter.timing.load) / (n_sig / 4) as f64) / (ms(f.timing.load) / n_sig as f64),
            );

            for (q, st) in qs.iter().zip(&f.stats) {
                let (nodes, blocks) = replay.replay(&mut tr, flat.curve(), &arch.model, q, &opts);
                replay_checked += 1;
                replay_mismatch +=
                    usize::from(nodes != st.nodes_expanded || blocks != st.blocks_selected);
            }
        }
    });

    // Gates, outside the timed region: every engine answers the first
    // batch bit-identically to the in-memory index over the same records.
    let reference: Vec<_> = batches[0]
        .iter()
        .map(|q| index.stat_query(q, &arch.model, &opts).matches)
        .collect();
    let mut answers = vec![run_flat(batches[0]).matches, run_pooled(batches[0]).matches];
    if let Some(sharded) = &sharded {
        answers.push(run_sharded(sharded, batches[0]).batch.matches);
    }
    let differing = answers.iter().filter(|a| **a != reference).count();
    rep.gate("engines_bit_identical_to_s3index", answers.len(), differing);
    rep.gate(
        "no_degraded_batch",
        t.op_ms.len() + t.alt_ms.len() + layers.shard_us.len(),
        degraded,
    );
    if !cfg.trace {
        // `op` is a batch's time per query, so the queries per second of
        // flat-engine time are the batches over their summed per-query times.
        rep.end_to_end(&t, t.op_ms.len());
        return rep;
    }

    let per_batch = |v: u64| v as f64 / layers.batches.max(1) as f64;
    rep.gate(
        "replayed_filter_equals_engine",
        replay_checked,
        replay_mismatch,
    );
    replay.emit(&tr, &mut rep);
    refine.emit(n_records, &mut rep);
    rep.set("pseudo_disk.filter_ms", median(&layers.filter_ms));
    rep.set("pseudo_disk.load_ms", median(&layers.load_ms));
    rep.set("pseudo_disk.refine_ms", median(&layers.refine_ms));
    rep.set("pseudo_disk.residual_pct", median(&layers.residual_pct));
    rep.set("pseudo_disk.sections_loaded", per_batch(layers.sections));
    rep.set("pseudo_disk.bytes_loaded", per_batch(layers.bytes_loaded));
    rep.set("pseudo_disk.eq5_load_ratio", median(&layers.eq5_ratio));
    rep.set("storage.reads_per_batch", per_batch(reads));
    rep.set(
        "storage.read_mb_per_s",
        read_bytes as f64 / 1e6 / (read_ns.max(1) as f64 / 1e9),
    );
    rep.set("storage.read_ms_per_batch", per_batch(read_ns) / 1e6);
    rep.set(
        "sketch.skip_ratio",
        layers.sketch_skips as f64 / (layers.sketch_skips + layers.sections).max(1) as f64,
    );
    rep.set("sketch.probes_per_batch", per_batch(probes));
    pool.emit(&mut rep);
    rep.set("bufferpool.load_ms", median(&layers.pool_load_ms));
    rep.set("shard.query_us", median(&layers.shard_us));
    rep.set("shard.dispatch_ms_p50", median(&layers.dispatch_ms));
    rep.set("shard.router_ms", median(&layers.router_ms));
    rep.set("shard.hedges_per_batch", per_batch(layers.hedges));
    rep.set("shard.failovers_per_batch", per_batch(layers.failovers));
    rep.end_trace(&t, &tr, "disk_batch");
    rep
}
