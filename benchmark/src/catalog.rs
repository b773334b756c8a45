//! The frozen catalog: workloads and metrics, by name.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! checks the two against each other and against what a run emits, in both
//! directions, so neither can drift alone.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalog. `bound` is the share of the parent's median
/// by which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "mem_tuned",
        "in-memory S3Index, 2^20 records, tuned depth 12: the paper's Fig. 7 regime, refinement does ~80 % of the work, storage none",
    ),
    (
        "detect_default",
        "full CBCD path with default config (auto depth 18, 2^15 fingerprints): what CLI users run, the filter does ~85 % of the work",
    ),
    (
        "disk_batch",
        "pseudo-disk batches of 256 on a larger-than-cache index: the only reads through storage, sketch, buffer pool and shards",
    ),
    (
        "durable_ingest",
        "WAL-acked inserts with auto-merges, reads beside writes, then recovery: the write side of the storage layers",
    ),
];

/// What a user of the system sees. Every workload reports every one; the
/// workload table in README.md says what `op`, `alt` and `work` are in each.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("op_ms_p50", "ms", Better::Lower, 0.25),
    e2e("op_ms_p99", "ms", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("alt_ms_p50", "ms", Better::Lower, 0.25),
];

/// Single layers, from the traced run. A workload that does not exercise a
/// layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    lo("hilbert.encode_ns_per_key", "ns"),
    lo("index.build_ms", "ms"),
    lo("index.sort_ms", "ms"),
    lo("autotune.tune_ms", "ms"),
    lo("autotune.best_depth", "count"),
    lo("registry.build_ms", "ms"),
    lo("filter.select_us", "us"),
    lo("filter.nodes_per_query", "count"),
    lo("filter.blocks_per_query", "count"),
    lo("filter.truncated_ratio", "ratio"),
    hi("filter.mass_cache_hit_ratio", "ratio"),
    lo("filter.merge_us", "us"),
    lo("filter.ranges_per_query", "count"),
    lo("index.refine_us", "us"),
    lo("index.refine_negative_ratio", "ratio"),
    lo("index.entries_per_query", "count"),
    hi("index.matches_per_query", "count"),
    lo("index.selectivity", "ratio"),
    hi("index.useful_ratio", "ratio"),
    hi("index.recall", "ratio"),
    hi("index.scan_ratio", "ratio"),
    lo("index.seq_scan_ns_per_record", "ns"),
    lo("kernels.dist_ns_per_record", "ns"),
    lo("video.extract_ms_per_clip", "ms"),
    hi("video.fingerprints_per_clip", "count"),
    lo("detector.depth", "count"),
    lo("detector.search_ms_per_clip", "ms"),
    lo("detector.search_ms_per_fp", "ms"),
    lo("voting.vote_ms_per_clip", "ms"),
    lo("voting.refs_per_clip", "count"),
    lo("pseudo_disk.filter_ms", "ms"),
    lo("pseudo_disk.load_ms", "ms"),
    lo("pseudo_disk.refine_ms", "ms"),
    lo("pseudo_disk.residual_pct", "%"),
    lo("pseudo_disk.sections_loaded", "count"),
    lo("pseudo_disk.bytes_loaded", "bytes"),
    hi("pseudo_disk.eq5_load_ratio", "ratio"),
    lo("storage.reads_per_batch", "count"),
    hi("storage.read_mb_per_s", "MB/s"),
    lo("storage.read_ms_per_batch", "ms"),
    hi("sketch.skip_ratio", "ratio"),
    lo("sketch.probes_per_batch", "count"),
    hi("bufferpool.hit_ratio", "ratio"),
    lo("bufferpool.misses_per_batch", "count"),
    lo("bufferpool.evictions_per_batch", "count"),
    lo("bufferpool.load_ms", "ms"),
    lo("shard.query_us", "us"),
    lo("shard.dispatch_ms_p50", "ms"),
    lo("shard.router_ms", "ms"),
    lo("shard.hedges_per_batch", "count"),
    lo("shard.failovers_per_batch", "count"),
    lo("wal.appends", "count"),
    lo("wal.fsyncs", "count"),
    lo("wal.bytes_per_user_byte", "ratio"),
    lo("pager.bytes_written_per_user_byte", "ratio"),
    lo("pager.file_bytes_per_user_byte", "ratio"),
    lo("device.writes", "count"),
    lo("device.syncs", "count"),
    lo("durable.merges", "count"),
    lo("durable.merge_ms_total", "ms"),
    lo("durable.merge_ms_max", "ms"),
    lo("dynamic.overlay_insert_us_p50", "us"),
    lo("durable.replayed_inserts", "count"),
    lo("durable.recovery_ms", "ms"),
    lo("trace.op_ms_p50", "ms"),
    lo("trace.spans", "count"),
];

/// The catalog of one run mode: per-layer when traced, end-to-end otherwise.
pub fn metrics_for(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}
