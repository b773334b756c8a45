//! The four workloads, and the per-layer accounting they share.

pub mod detect_default;
pub mod disk_batch;
pub mod durable_ingest;
pub mod mem_tuned;

use crate::harness::{Config, Report};
use crate::stats::median;
use crate::trace::Tracer;
use s3_core::filter::{merge_block_ranges, select_blocks_best_first};
use s3_core::{CoreMetrics, DistortionModel, StatQueryOpts};
use s3_hilbert::HilbertCurve;

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run(name: &str, cfg: &Config) -> Option<Report> {
    Some(match name {
        "mem_tuned" => mem_tuned::run(cfg),
        "detect_default" => detect_default::run(cfg),
        "disk_batch" => disk_batch::run(cfg),
        "durable_ingest" => durable_ingest::run(cfg),
        _ => return None,
    })
}

/// Median of the durations of the spans called `name`, in `unit_ns`
/// nanoseconds (1e3 for µs, 1e6 for ms).
pub fn span_median(tr: &Tracer, name: &str, unit_ns: f64) -> f64 {
    median(&tr.durations_ns(name)) / unit_ns
}

/// The statistical filter, replayed from outside: the same
/// `select_blocks_best_first` + `merge_block_ranges` calls an engine makes
/// for a query, with the engine's own options, inside spans of their own.
/// The node and block counts must equal what the engine reported.
#[derive(Default)]
pub struct FilterReplay {
    queries: u64,
    nodes: u64,
    blocks: u64,
    ranges: u64,
    truncated: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl FilterReplay {
    /// Replays one query's filter; returns `(nodes expanded, blocks selected)`.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        curve: &HilbertCurve,
        model: &dyn DistortionModel,
        q: &[u8],
        opts: &StatQueryOpts,
    ) -> (usize, usize) {
        let m = CoreMetrics::get();
        let (h0, m0) = (m.mass_cache_hits.get(), m.mass_cache_misses.get());
        let outcome = tr.time("filter.select", || {
            select_blocks_best_first(curve, model, q, opts.depth, opts.alpha, opts.max_blocks)
        });
        self.cache_hits += m.mass_cache_hits.get() - h0;
        self.cache_misses += m.mass_cache_misses.get() - m0;
        let ranges = tr.time("filter.merge", || merge_block_ranges(curve, &outcome));
        self.queries += 1;
        self.nodes += outcome.nodes_expanded as u64;
        self.blocks += outcome.blocks.len() as u64;
        self.ranges += ranges.len() as u64;
        self.truncated += u64::from(outcome.truncated);
        (outcome.nodes_expanded, outcome.blocks.len())
    }

    /// Emits the `filter.*` metrics.
    pub fn emit(&self, tr: &Tracer, rep: &mut Report) {
        let per_query = |v: u64| v as f64 / self.queries.max(1) as f64;
        rep.set("filter.select_us", span_median(tr, "filter.select", 1e3));
        rep.set("filter.merge_us", span_median(tr, "filter.merge", 1e3));
        rep.set("filter.nodes_per_query", per_query(self.nodes));
        rep.set("filter.blocks_per_query", per_query(self.blocks));
        rep.set("filter.ranges_per_query", per_query(self.ranges));
        rep.set("filter.truncated_ratio", per_query(self.truncated));
        rep.set(
            "filter.mass_cache_hit_ratio",
            self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64,
        );
    }
}

/// Refinement work, summed over queries.
#[derive(Default)]
pub struct RefineCounts {
    pub queries: u64,
    pub entries: u64,
    pub matches: u64,
}

impl RefineCounts {
    pub fn add(&mut self, entries: usize, matches: usize) {
        self.queries += 1;
        self.entries += entries as u64;
        self.matches += matches as u64;
    }

    /// Emits entries/matches per query, selectivity and the useful ratio
    /// for a database of `n_records`.
    pub fn emit(&self, n_records: usize, rep: &mut Report) {
        let q = self.queries.max(1) as f64;
        rep.set("index.entries_per_query", self.entries as f64 / q);
        rep.set("index.matches_per_query", self.matches as f64 / q);
        rep.set(
            "index.selectivity",
            self.entries as f64 / q / n_records.max(1) as f64,
        );
        rep.set(
            "index.useful_ratio",
            self.matches as f64 / self.entries.max(1) as f64,
        );
    }
}

/// Buffer-pool traffic, from `CoreMetrics` deltas around pooled batches.
#[derive(Default)]
pub struct PoolCounts {
    batches: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PoolCounts {
    /// The process-wide `(hits, misses, evictions)` counters now.
    pub fn now() -> (u64, u64, u64) {
        let m = CoreMetrics::get();
        (
            m.bufferpool_hits.get(),
            m.bufferpool_misses.get(),
            m.bufferpool_evictions.get(),
        )
    }

    /// Adds one batch's traffic: what the counters gained since `before`.
    pub fn add_since(&mut self, before: (u64, u64, u64)) {
        let now = Self::now();
        self.batches += 1;
        self.hits += now.0 - before.0;
        self.misses += now.1 - before.1;
        self.evictions += now.2 - before.2;
    }

    /// Emits hit ratio, misses and evictions per batch.
    pub fn emit(&self, rep: &mut Report) {
        let per_batch = |v: u64| v as f64 / self.batches.max(1) as f64;
        rep.set(
            "bufferpool.hit_ratio",
            self.hits as f64 / (self.hits + self.misses).max(1) as f64,
        );
        rep.set("bufferpool.misses_per_batch", per_batch(self.misses));
        rep.set("bufferpool.evictions_per_batch", per_batch(self.evictions));
    }
}
