//! Sharded scatter-gather query engine with replica failover and hedged
//! reads.
//!
//! The Hilbert curve is split into contiguous key ranges ([`ShardPlan`]),
//! each served by one or more replicas — complete [`DiskIndex`]es over that
//! range's slice of the globally-sorted records, behind any [`Storage`]
//! backend (local pages, memory, seeded [`crate::storage::FaultyStorage`]).
//! [`ShardedIndex::stat_query_batch`] fans a batch out per shard and merges
//! deterministically: because the statistical filter is database-independent,
//! the router runs it **once** and hands every replica the same merged key
//! ranges, so each shard's scan is exactly the single-node scan restricted to
//! its records, and the concatenated answers are bit-identical to a
//! single-node [`DiskIndex`] on clean runs (property-tested).
//!
//! Robustness is the point of the fan-out:
//!
//! * **replica failover** — replicas run with a *strict* retry policy, so a
//!   section that stays unreadable surfaces as an error and the router
//!   immediately tries the next replica instead of silently degrading;
//! * **hedged reads** — when a primary exceeds the shard's windowed-p99
//!   latency threshold, a backup replica is launched; first response wins,
//!   the loser is cancelled via its [`CancelToken`] and its work is never
//!   merged (so retries/hedges never double-count);
//! * **deadline budgeting** — each shard attempt gets a child deadline
//!   carved from the remaining parent [`QueryCtx`] budget.
//!
//! When a shard loses every replica the batch degrades honestly: affected
//! queries get `shard_skips > 0` and `degraded`, the batch reports the loss,
//! and strict mode turns it into [`IndexError::ShardLost`].
//!
//! No product path routes through this engine: in one process the router
//! costs more than it spreads (`docs/performance.md`). It stays for the
//! frozen benchmark's `disk_batch` comparator and the chaos harness, and
//! reports its work in [`ShardedBatchResult`] only — it records no metrics.

use crate::distortion::DistortionModel;
use crate::error::IndexError;
use crate::fingerprint::RecordBatch;
use crate::index::{prefix_bits, S3Index, StatQueryOpts};
use crate::parallel::default_threads;
use crate::plan::{query_scope, Plan, Scan, Scatter};
use crate::pseudo_disk::{BatchResult, DiskIndex, RetryPolicy, WriteOpts};
use crate::resilience::{system_clock, CancelToken, Clock, QueryCtx};
use crate::storage::{MemStorage, Storage};
use s3_hilbert::{HilbertCurve, Key256, KeyBound, KeyRange};
use s3_obs::{event, span, ShardReport};
use std::collections::VecDeque;
use std::io;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the curve's key space is cut into shards: contiguous spans of
/// depth-`plan_depth` key-prefix slots, aligned so every record of a slot
/// lands in exactly one shard.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Prefix depth the cut points are expressed in (bits of the key).
    plan_depth: u32,
    /// `slot_bounds[s]..slot_bounds[s+1]` = the slot span of shard `s`
    /// (length `shards + 1`, first 0, last `2^plan_depth`).
    slot_bounds: Vec<u64>,
    /// `record_bounds[s]..record_bounds[s+1]` = the global record index
    /// span of shard `s` under the plan's source index.
    record_bounds: Vec<u64>,
}

impl ShardPlan {
    /// Cuts `index` into `shards` contiguous key ranges with balanced
    /// record counts: a greedy walk over depth-`plan_depth` slot occupancy,
    /// cutting as close to each `k·n/shards` target as slot alignment
    /// allows. Shards can come out empty when the data is concentrated in
    /// fewer slots than `shards` — they are simply never dispatched.
    ///
    /// # Panics
    /// If `shards == 0`.
    pub fn balanced(index: &S3Index, shards: usize) -> ShardPlan {
        assert!(shards > 0, "at least one shard");
        let key_bits = index.curve().key_bits();
        let plan_depth = key_bits.min(16);
        // A slot's bits lie within the stored prefix.
        let shift = prefix_bits(index.curve()) - plan_depth;
        let slots = 1u64 << plan_depth;
        let n = index.len() as u64;

        let mut slot_bounds = Vec::with_capacity(shards + 1);
        let mut record_bounds = Vec::with_capacity(shards + 1);
        slot_bounds.push(0);
        record_bounds.push(0);
        let prefixes = index.prefixes();
        for s in 1..shards as u64 {
            // Records strictly before the cut: the first index whose key
            // slot crosses the target count's slot boundary.
            let target = s * n / shards as u64;
            let cut_rec = target as usize;
            if cut_rec >= prefixes.len() {
                break;
            }
            // Align up to the next slot boundary ≥ the target record's
            // slot + 1 so every record of a slot stays on one side.
            let slot = prefixes[cut_rec] >> shift;
            let cut_slot = (slot + 1).min(slots);
            if cut_slot <= *slot_bounds.last().unwrap_or(&0) {
                continue; // a dense slot swallowed this cut
            }
            // First record whose slot ≥ cut_slot.
            let rec = prefixes.partition_point(|&p| p >> shift < cut_slot) as u64;
            slot_bounds.push(cut_slot);
            record_bounds.push(rec);
        }
        while slot_bounds.len() < shards {
            // Fewer natural cuts than shards: pad with empty shards at the
            // top of the key space.
            let last = *slot_bounds.last().unwrap_or(&0);
            slot_bounds.push(last.max(slots.saturating_sub(1)));
            record_bounds.push(n);
        }
        slot_bounds.push(slots);
        record_bounds.push(n);
        ShardPlan {
            plan_depth,
            slot_bounds,
            record_bounds,
        }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.slot_bounds.len() - 1
    }

    /// Global record index span `[a, b)` of shard `s`.
    pub fn record_span(&self, s: usize) -> (u64, u64) {
        (self.record_bounds[s], self.record_bounds[s + 1])
    }

    /// Inclusive key-space lower bound of shard `s`.
    pub fn key_lo(&self, s: usize, key_bits: u32) -> Key256 {
        Self::slot_key(self.slot_bounds[s], self.plan_depth, key_bits)
    }

    /// Exclusive key-space upper bound of shard `s` (`None` = end of key
    /// space).
    pub fn key_hi(&self, s: usize, key_bits: u32) -> Option<Key256> {
        let hi = self.slot_bounds[s + 1];
        if hi == 1u64 << self.plan_depth {
            None
        } else {
            Some(Self::slot_key(hi, self.plan_depth, key_bits))
        }
    }

    /// The smallest key whose depth-`plan_depth` prefix slot is `slot`.
    fn slot_key(slot: u64, plan_depth: u32, key_bits: u32) -> Key256 {
        let mut k = Key256::ZERO;
        k.push_digit(slot, plan_depth);
        k.shl(key_bits - plan_depth)
    }

    /// True if `range` overlaps shard `s`'s key span.
    fn intersects(&self, s: usize, key_bits: u32, range: &KeyRange) -> bool {
        if let Some(hi) = self.key_hi(s, key_bits) {
            if range.lo >= hi {
                return false;
            }
        }
        let lo = self.key_lo(s, key_bits);
        match &range.hi {
            KeyBound::End => true,
            KeyBound::Excl(h) => *h > lo,
        }
    }

    /// Serializes shard `s` of `index` into the on-disk [`DiskIndex`]
    /// format: the records are sliced (not re-sorted) so a replica's answer
    /// order is bit-identical to the parent index's slice even among tied
    /// keys.
    pub fn shard_bytes(&self, index: &S3Index, s: usize, opts: WriteOpts) -> io::Result<Vec<u8>> {
        let (a, b) = self.record_span(s);
        let (a, b) = (a as usize, b as usize);
        let prefixes = index.prefixes()[a..b].to_vec();
        let parent = index.records();
        let mut records = RecordBatch::with_capacity(parent.dims(), b - a);
        for i in a..b {
            records.push(parent.fingerprint(i), parent.id(i), parent.tc(i));
        }
        let sub = S3Index::from_sorted_parts(index.curve().clone(), prefixes, records);
        DiskIndex::encode_to_vec(&sub, opts)
    }
}

/// When and how aggressively the router hedges a slow shard request.
#[derive(Clone, Debug)]
pub struct HedgeConfig {
    /// Master switch; disabled hedging never launches backups.
    pub enabled: bool,
    /// Floor on the hedge delay — also the delay used before the shard's
    /// latency window holds enough samples for a p99.
    pub min_delay: Duration,
    /// Hedge when the primary exceeds `p99 × p99_factor` of the shard's
    /// recent latency window.
    pub p99_factor: f64,
    /// Samples kept per shard for the windowed p99.
    pub window: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: true,
            min_delay: Duration::from_millis(2),
            p99_factor: 3.0,
            window: 64,
        }
    }
}

/// Options of a [`ShardedIndex`].
#[derive(Clone, Debug)]
pub struct ShardedOptions {
    /// Per-replica section memory budget (same meaning as the single-node
    /// `mem_budget` — one section resident at a time, per replica).
    pub mem_budget: u64,
    /// Per-replica section retry policy. `strict` is forced on internally:
    /// replica-level failures must surface so the router can fail over
    /// instead of letting a replica silently degrade.
    pub retry: RetryPolicy,
    /// Batch-level strictness: when true, a shard losing every replica
    /// aborts the batch with [`IndexError::ShardLost`] instead of
    /// degrading.
    pub strict: bool,
    /// Hedged-read policy.
    pub hedge: HedgeConfig,
    /// Clock used for hedge-delay measurement and child deadlines
    /// ([`crate::resilience::MockClock`] makes both deterministic in
    /// tests).
    pub clock: Arc<dyn Clock>,
    /// Fraction of the remaining parent deadline granted to each shard
    /// attempt (slightly under 1 so the router keeps time to merge).
    pub shard_budget_factor: f64,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            mem_budget: 8 << 20,
            retry: RetryPolicy::default(),
            strict: false,
            hedge: HedgeConfig::default(),
            clock: system_clock(),
            shard_budget_factor: 0.9,
        }
    }
}

/// Sliding window of recent shard latencies (ns) with an on-demand p99.
///
/// Holds per-ATTEMPT service times (spawn of the winning attempt to its
/// response), not dispatch-to-response wall time. A hedged win's wall time
/// includes the hedge delay itself; feeding that back into the p99 that
/// sizes the next hedge delay compounds — every win raises the threshold,
/// which raises the next observation, until hedging has priced itself out.
/// Attempt-relative times measure only what a healthy replica costs, so
/// the threshold tracks replica service latency and stays put.
#[derive(Debug, Default)]
struct LatencyWindow {
    samples: Mutex<VecDeque<u64>>,
}

impl LatencyWindow {
    fn observe(&self, ns: u64, cap: usize) {
        let mut s = match self.samples.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if s.len() >= cap.max(1) {
            s.pop_front();
        }
        s.push_back(ns);
    }

    /// p99 over the window once it holds at least 8 samples.
    fn p99(&self) -> Option<u64> {
        let s = match self.samples.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if s.len() < 8 {
            return None;
        }
        let mut v: Vec<u64> = s.iter().copied().collect();
        v.sort_unstable();
        let rank = ((v.len() as f64) * 0.99).ceil() as usize;
        Some(v[rank.clamp(1, v.len()) - 1])
    }
}

/// Result of a scatter-gather batch: the merged single-node-equivalent
/// [`BatchResult`] plus per-shard accounting.
#[derive(Debug)]
pub struct ShardedBatchResult {
    /// Merged matches/stats/timing, shaped exactly like a single-node
    /// batch result (match `index` fields are global record indexes).
    pub batch: BatchResult,
    /// One row per dispatched shard, in shard order.
    pub shards: Vec<ShardReport>,
    /// Shards that lost every replica this batch.
    pub shard_skips: usize,
    /// Hedged backup requests launched this batch.
    pub hedges: usize,
    /// Hedged requests whose backup answered first.
    pub hedge_wins: usize,
    /// Replica failover attempts spawned this batch.
    pub failovers: usize,
}

/// What one shard coordinator hands back to the merger.
struct ShardOutcome {
    /// The shard's row of the batch result, scan totals still zero.
    row: ShardReport,
    /// The winning replica's scan, or the last replica's failure if the
    /// shard went unanswered.
    scan: Result<Scan, IndexError>,
    /// Replica attempts spawned for the shard.
    replicas_tried: usize,
}

/// A shard router over replica [`DiskIndex`]es: scatter-gather batched
/// queries with failover, hedging and deterministic merge. See the
/// [module docs](crate::shard).
#[derive(Debug)]
pub struct ShardedIndex {
    plan: ShardPlan,
    /// `replicas[s][r]` = replica `r` of shard `s`.
    replicas: Vec<Vec<DiskIndex>>,
    curve: HilbertCurve,
    /// Global record count (sum of shard record counts).
    n: u64,
    latency: Vec<LatencyWindow>,
    opts: ShardedOptions,
}

impl ShardedIndex {
    /// Opens a sharded index: `storages[s]` holds the replica storages of
    /// shard `s`, each a serialized shard produced by
    /// [`ShardPlan::shard_bytes`] (byte-identical replicas are the normal
    /// case; what matters is record-identical). Every replica is forced to
    /// a strict per-section retry policy so its failures surface to the
    /// router, and runs its refinement single-threaded — parallelism comes
    /// from the shard fan-out.
    ///
    /// Fails if any shard has no replica, or a replica's record count
    /// disagrees with the plan.
    pub fn open(
        plan: ShardPlan,
        storages: Vec<Vec<Box<dyn Storage>>>,
        opts: ShardedOptions,
    ) -> Result<ShardedIndex, IndexError> {
        if storages.len() != plan.shards() {
            return Err(IndexError::Format {
                detail: format!(
                    "plan has {} shards but {} replica sets were given",
                    plan.shards(),
                    storages.len()
                ),
            });
        }
        let mut retry = opts.retry;
        retry.strict = true;
        let mut replicas: Vec<Vec<DiskIndex>> = Vec::with_capacity(storages.len());
        let mut curve: Option<HilbertCurve> = None;
        for (s, shard_storages) in storages.into_iter().enumerate() {
            if shard_storages.is_empty() {
                return Err(IndexError::Format {
                    detail: format!("shard {s} has no replicas"),
                });
            }
            let (a, b) = plan.record_span(s);
            let mut set = Vec::with_capacity(shard_storages.len());
            for (r, st) in shard_storages.into_iter().enumerate() {
                let disk = DiskIndex::open_storage(st)?
                    .with_retry_policy(retry)
                    .with_threads(1);
                if disk.len() != b - a {
                    return Err(IndexError::Format {
                        detail: format!(
                            "shard {s} replica {r} holds {} records, plan says {}",
                            disk.len(),
                            b - a
                        ),
                    });
                }
                if curve.is_none() {
                    curve = Some(disk.curve().clone());
                }
                set.push(disk);
            }
            replicas.push(set);
        }
        let Some(curve) = curve else {
            return Err(IndexError::Format {
                detail: "empty shard plan".into(),
            });
        };
        let n = plan.record_bounds[plan.shards()];
        let latency = (0..plan.shards())
            .map(|_| LatencyWindow::default())
            .collect();
        Ok(ShardedIndex {
            plan,
            replicas,
            curve,
            n,
            latency,
            opts,
        })
    }

    /// Builds a fully in-memory sharded deployment of `index`: a balanced
    /// plan with `shards` shards, each with `replicas` byte-identical
    /// [`MemStorage`] replicas. The convenience constructor for tests and
    /// benchmarks; production deployments open heterogeneous storages via
    /// [`ShardedIndex::open`].
    pub fn build_mem(
        index: &S3Index,
        shards: usize,
        replicas: usize,
        write_opts: WriteOpts,
        opts: ShardedOptions,
    ) -> Result<ShardedIndex, IndexError> {
        assert!(replicas > 0, "at least one replica");
        let plan = ShardPlan::balanced(index, shards);
        let mut storages: Vec<Vec<Box<dyn Storage>>> = Vec::with_capacity(plan.shards());
        for s in 0..plan.shards() {
            let bytes = plan.shard_bytes(index, s, write_opts)?;
            let set: Vec<Box<dyn Storage>> = (0..replicas)
                .map(|_| Box::new(MemStorage::new(bytes.clone())) as Box<dyn Storage>)
                .collect();
            storages.push(set);
        }
        ShardedIndex::open(plan, storages, opts)
    }

    /// The shard plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Global record count.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True if the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The Hilbert curve shared by every replica.
    pub fn curve(&self) -> &HilbertCurve {
        &self.curve
    }

    /// Replica counts per shard.
    pub fn replica_counts(&self) -> Vec<usize> {
        self.replicas.iter().map(Vec::len).collect()
    }

    /// Mutable access to one replica, for tests and operational tooling
    /// (attaching sketches, swapping policies).
    pub fn replica_mut(&mut self, shard: usize, replica: usize) -> &mut DiskIndex {
        &mut self.replicas[shard][replica]
    }

    /// Shared access to one replica.
    pub fn replica(&self, shard: usize, replica: usize) -> &DiskIndex {
        &self.replicas[shard][replica]
    }

    /// Runs a batch of statistical queries across every shard.
    pub fn stat_query_batch(
        &self,
        queries: &[&[u8]],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
    ) -> Result<ShardedBatchResult, IndexError> {
        self.stat_query_batch_in(queries, model, opts, None)
    }

    /// As [`ShardedIndex::stat_query_batch`] under a [`QueryCtx`], which
    /// says how the batch runs: the parent deadline/token is polled by the
    /// router and propagated to per-shard child contexts (each attempt gets
    /// its own token so a hedge loser can be cancelled without touching the
    /// winner). If the ctx asks for EXPLAIN ([`QueryCtx::explain`]), the
    /// merged batch carries one report per query, in which per-shard rows
    /// replace per-block accounting: each row's scanned/matched counts are
    /// that query's work on that shard, and their sums reconcile with the
    /// query totals on clean runs.
    pub fn stat_query_batch_ctx(
        &self,
        queries: &[&[u8]],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
        ctx: &QueryCtx,
    ) -> Result<ShardedBatchResult, IndexError> {
        self.stat_query_batch_in(queries, model, opts, Some(ctx))
    }

    fn stat_query_batch_in(
        &self,
        queries: &[&[u8]],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
        ctx: Option<&QueryCtx>,
    ) -> Result<ShardedBatchResult, IndexError> {
        let clock = &self.opts.clock;
        let key_bits = self.curve.key_bits();
        let _scope = query_scope(ctx);
        let should_stop = || ctx.is_some_and(|c| c.should_stop());

        // Stage 1 — run the database-independent filter ONCE per query, the
        // queries spread over every core. Every replica scans this exact
        // plan, which is what makes the per-shard scans bit-identical to the
        // single-node scan.
        let plan = Plan::stat(&self.curve, queries, model, opts, default_threads(), ctx)?;
        let plan = &plan;
        let touches = |s: usize, qi: usize| {
            let ranges = &plan.per_query[qi].ranges;
            ranges.iter().any(|r| self.plan.intersects(s, key_bits, r))
        };

        // Which shards does this batch touch at all? Dispatch only those.
        let dispatch: Vec<usize> = (0..self.plan.shards())
            .filter(|&s| {
                let (a, b) = self.plan.record_span(s);
                a != b && (0..queries.len()).any(|qi| touches(s, qi))
            })
            .collect();

        // Stage 2 — scatter. One coordinator thread per dispatched shard;
        // each coordinator races replica attempts (primary, failovers,
        // hedges) and reports a single winner or a loss.
        let t_scatter = Instant::now();
        let mem_budget = self.opts.mem_budget;
        let hedge_cfg = &self.opts.hedge;
        let budget_factor = self.opts.shard_budget_factor;
        let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(dispatch.len());
            for &s in &dispatch {
                let replicas = &self.replicas[s];
                let latency = &self.latency[s];
                let handle = scope.spawn(move || {
                    let mut sp = span!("shard.dispatch", "shard" => s as f64);
                    let t_start = clock.now();
                    let (tx, rx) = mpsc::channel::<(usize, usize, Result<Scan, IndexError>)>();
                    // (cancel token, spawn instant) per attempt. Spawn times
                    // let the win path observe the winner's own service
                    // latency rather than dispatch wall time — see
                    // [`LatencyWindow`] for why that distinction matters.
                    let mut child_tokens: Vec<(CancelToken, Duration)> = Vec::new();
                    let spawn_attempt =
                        |replica_idx: usize, tokens: &mut Vec<(CancelToken, Duration)>| {
                            let token = CancelToken::new();
                            let child = match ctx.and_then(|c| c.deadline()) {
                                Some(d) => QueryCtx::with_token(token.clone()).and_deadline(
                                    clock.clone(),
                                    d.remaining().mul_f64(budget_factor.clamp(0.05, 1.0)),
                                ),
                                None => QueryCtx::with_token(token.clone()),
                            };
                            tokens.push((token, clock.now()));
                            let attempt_idx = tokens.len() - 1;
                            let tx = tx.clone();
                            let replica = &replicas[replica_idx];
                            scope.spawn(move || {
                                let _scope = query_scope(Some(&child));
                                // The child ctx never asks for EXPLAIN: a
                                // replica sees ranges, the router its blocks.
                                let res = replica.scan(plan, mem_budget, Some(&child));
                                // The coordinator may have already returned with
                                // a winner; a dead receiver just means we lost.
                                let _ = tx.send((attempt_idx, replica_idx, res));
                            });
                        };
                    spawn_attempt(0, &mut child_tokens);
                    let mut inflight = 1usize;
                    let mut next_replica = 1usize;
                    let mut failovers = 0u32;
                    let mut hedged = false;
                    let mut hedge_attempt = usize::MAX;
                    let hedge_delay = match latency.p99() {
                        Some(p99_ns) => {
                            let scaled = (p99_ns as f64 * hedge_cfg.p99_factor) as u64;
                            Duration::from_nanos(scaled).max(hedge_cfg.min_delay)
                        }
                        None => hedge_cfg.min_delay,
                    };
                    loop {
                        match rx.recv_timeout(Duration::from_millis(1)) {
                            Ok((ai, ri, Ok(scan))) => {
                                // First success wins: cancel every other
                                // attempt; their results are never merged,
                                // so hedges/retries never double-count.
                                for (ti, (tok, _)) in child_tokens.iter().enumerate() {
                                    if ti != ai {
                                        tok.cancel();
                                    }
                                }
                                let now = clock.now();
                                let elapsed_ns = now.saturating_sub(t_start).as_nanos() as u64;
                                // Feed the window the winning ATTEMPT's
                                // latency, not the dispatch wall time: a
                                // hedged win's wall time includes the hedge
                                // delay and would inflate the very p99 that
                                // sizes the next delay.
                                let attempt_ns =
                                    now.saturating_sub(child_tokens[ai].1).as_nanos() as u64;
                                latency.observe(attempt_ns, hedge_cfg.window);
                                let hedge_won = hedged && ai == hedge_attempt;
                                sp.record("replica", ri as f64);
                                sp.record("failovers", f64::from(failovers));
                                return ShardOutcome {
                                    row: ShardReport {
                                        shard: s,
                                        served_by: Some(ri),
                                        failovers,
                                        hedged,
                                        hedge_won,
                                        elapsed_ns,
                                        ..ShardReport::default()
                                    },
                                    scan: Ok(scan),
                                    replicas_tried: child_tokens.len(),
                                };
                            }
                            Ok((_, ri, Err(e))) => {
                                inflight -= 1;
                                event::warn(
                                    "shard",
                                    &format!("shard {s} replica {ri} failed: {e}"),
                                );
                                if next_replica < replicas.len() {
                                    // Failover: immediately try the next
                                    // replica in order.
                                    failovers += 1;
                                    spawn_attempt(next_replica, &mut child_tokens);
                                    next_replica += 1;
                                    inflight += 1;
                                } else if inflight == 0 {
                                    // Every replica failed: the last
                                    // failure is the shard's.
                                    return ShardOutcome {
                                        row: ShardReport {
                                            shard: s,
                                            skipped: true,
                                            failovers,
                                            hedged,
                                            ..ShardReport::default()
                                        },
                                        scan: Err(e),
                                        replicas_tried: child_tokens.len(),
                                    };
                                }
                            }
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                // Parent stop propagates to the children so
                                // they return promptly with partial,
                                // cancelled-flagged results (still merged).
                                if should_stop() {
                                    for (tok, _) in &child_tokens {
                                        tok.cancel();
                                    }
                                }
                                // Hedge: primary is past the threshold and a
                                // spare replica exists — race a backup.
                                if hedge_cfg.enabled
                                    && !hedged
                                    && next_replica < replicas.len()
                                    && clock.now().saturating_sub(t_start) >= hedge_delay
                                {
                                    hedged = true;
                                    hedge_attempt = child_tokens.len();
                                    spawn_attempt(next_replica, &mut child_tokens);
                                    next_replica += 1;
                                    inflight += 1;
                                }
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                unreachable!("the coordinator holds a sender")
                            }
                        }
                    }
                });
                handles.push(handle);
            }
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(p) => std::panic::resume_unwind(p),
                })
                .collect()
        });
        let scatter_time = t_scatter.elapsed();

        // Stage 3 — deterministic merge: every served shard's scan of the
        // plan is absorbed at the shard's record offset, in shard order.
        let explain = ctx.is_some_and(|c| c.explains());
        let mut merged = Scan::empty(queries.len());
        let mut rows: Vec<Vec<ShardReport>> = vec![Vec::new(); queries.len()];
        let mut shards: Vec<ShardReport> = Vec::with_capacity(outcomes.len());
        let mut shard_skips = 0usize;
        let mut strict_loss = None;
        for outcome in outcomes {
            let ShardOutcome {
                mut row,
                scan,
                replicas_tried,
            } = outcome;
            let s = row.shard;
            match scan {
                Ok(scan) => {
                    for (qi, q) in scan.per_query.iter().enumerate() {
                        let scanned = q.stats.entries_scanned as u64;
                        let matched = q.matches.len() as u64;
                        if explain {
                            rows[qi].push(ShardReport {
                                entries_scanned: scanned,
                                matches: matched,
                                ..row.clone()
                            });
                        }
                        row.entries_scanned += scanned;
                        row.matches += matched;
                    }
                    // Local record index + shard offset = global index;
                    // shards are visited in key order, so each query's
                    // matches stay in ascending global (curve) order —
                    // exactly the single-node order.
                    merged.absorb(scan, self.plan.record_span(s).0 as usize);
                }
                Err(error) => {
                    shard_skips += 1;
                    event::warn(
                        "shard",
                        &format!(
                            "shard {s} lost after {replicas_tried} replica(s), degrading batch"
                        ),
                    );
                    // Account the loss against every query whose plan
                    // touches the shard's key span.
                    for qi in (0..queries.len()).filter(|&qi| touches(s, qi)) {
                        merged.per_query[qi].stats.shard_skips += 1;
                        if explain {
                            rows[qi].push(row.clone());
                        }
                    }
                    if self.opts.strict && strict_loss.is_none() {
                        strict_loss = Some((s, replicas_tried, error));
                    }
                }
            }
            shards.push(row);
        }
        if let Some((shard, replicas_tried, error)) = strict_loss {
            return Err(IndexError::ShardLost {
                shard,
                replicas_tried,
                source: Box::new(error),
            });
        }
        // Safety net for the deterministic-merge contract: shard-ordered
        // concatenation already yields ascending global indexes, and a
        // stable sort of an already-sorted list is the identity.
        for q in &mut merged.per_query {
            q.matches.sort_by_key(|m| m.index);
        }

        // The epilogue folds the merged per-query stats into the registry
        // exactly once, with the GLOBAL record count as the calibration
        // denominator.
        let scatter = Scatter {
            time: scatter_time,
            rows,
        };
        Ok(ShardedBatchResult {
            hedges: shards.iter().filter(|r| r.hedged).count(),
            hedge_wins: shards.iter().filter(|r| r.hedge_won).count(),
            failovers: shards.iter().map(|r| r.failovers as usize).sum(),
            batch: plan.finish(merged, self.n, ctx, Some(scatter)),
            shards,
            shard_skips,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distortion::IsotropicNormal;
    use crate::resilience::{Deadline, MockClock};
    use crate::storage::{FaultPlan, FaultyStorage};

    const DIMS: usize = 6;
    const MEM: u64 = 8 << 10;

    fn synthetic(n: usize, seed: u64) -> S3Index {
        let mut batch = RecordBatch::new(DIMS);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for i in 0..n {
            let mut fp = [0u8; DIMS];
            for b in fp.iter_mut() {
                *b = (next() >> 32) as u8;
            }
            batch.push(&fp, (i / 10) as u32, (i % 10 * 40) as u32);
        }
        S3Index::build(HilbertCurve::new(DIMS, 8).unwrap(), batch)
    }

    fn probes(index: &S3Index, k: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        (0..k)
            .map(|_| {
                let i = (next() as usize) % index.len();
                let mut fp = index.records().fingerprint(i).to_vec();
                for b in fp.iter_mut() {
                    *b = b.saturating_add(((next() >> 32) % 7) as u8);
                }
                fp
            })
            .collect()
    }

    fn single_node(index: &S3Index) -> DiskIndex {
        let bytes = DiskIndex::encode_to_vec(index, WriteOpts::default()).unwrap();
        DiskIndex::open_storage(Box::new(MemStorage::new(bytes))).unwrap()
    }

    fn assert_identical(a: &BatchResult, b: &BatchResult) {
        assert_eq!(a.matches, b.matches, "matches must be bit-identical");
        for (sa, sb) in a.stats.iter().zip(&b.stats) {
            assert_eq!(sa.entries_scanned, sb.entries_scanned);
        }
    }

    #[test]
    fn plan_covers_all_records_contiguously() {
        let index = synthetic(1200, 7);
        for shards in [1, 2, 3, 5, 8] {
            let plan = ShardPlan::balanced(&index, shards);
            assert_eq!(plan.shards(), shards);
            assert_eq!(plan.record_bounds[0], 0);
            assert_eq!(*plan.record_bounds.last().unwrap(), index.len() as u64);
            for w in plan.record_bounds.windows(2) {
                assert!(w[0] <= w[1]);
            }
            for w in plan.slot_bounds.windows(2) {
                assert!(w[0] <= w[1]);
            }
            // Slot alignment: the first key of each shard must not share a
            // plan slot with the last key of the previous shard.
            let shift = index.curve().key_bits() - plan.plan_depth;
            for s in 1..shards {
                let cut = plan.record_bounds[s] as usize;
                if cut == 0 || cut >= index.len() {
                    continue;
                }
                let before = index.key(cut - 1).digit(shift, plan.plan_depth);
                let after = index.key(cut).digit(shift, plan.plan_depth);
                assert!(before < after, "cut splits a slot");
            }
        }
    }

    #[test]
    fn equivalence_any_layout_property() {
        // The headline property: for arbitrary shard counts and replica
        // layouts, a clean sharded run is bit-identical to single-node.
        let model = IsotropicNormal::new(DIMS, 12.0);
        let opts = StatQueryOpts::new(0.9, 12);
        for seed in 0..4u64 {
            let index = synthetic(900 + 137 * seed as usize, seed);
            let q = probes(&index, 12, 0xABC0 + seed);
            let queries: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
            let disk = single_node(&index);
            let base = disk.stat_query_batch(&queries, &model, &opts, MEM).unwrap();
            for (shards, replicas) in [(1, 1), (2, 2), (3, 1), (5, 3), (9, 2)] {
                let sharded = ShardedIndex::build_mem(
                    &index,
                    shards,
                    replicas,
                    WriteOpts::default(),
                    ShardedOptions::default(),
                )
                .unwrap();
                let got = sharded.stat_query_batch(&queries, &model, &opts).unwrap();
                assert_eq!(got.shard_skips, 0);
                assert_identical(&got.batch, &base);
                assert!(!got.batch.timing.degraded);
            }
        }
    }

    #[test]
    fn failover_recovers_from_dead_primary() {
        let index = synthetic(1000, 3);
        let model = IsotropicNormal::new(DIMS, 12.0);
        let opts = StatQueryOpts::new(0.9, 12);
        let q = probes(&index, 8, 0x51AB);
        let queries: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
        let base = single_node(&index)
            .stat_query_batch(&queries, &model, &opts, MEM)
            .unwrap();

        let plan = ShardPlan::balanced(&index, 3);
        let mut storages: Vec<Vec<Box<dyn Storage>>> = Vec::new();
        for s in 0..plan.shards() {
            let bytes = plan.shard_bytes(&index, s, WriteOpts::default()).unwrap();
            let mut set: Vec<Box<dyn Storage>> = Vec::new();
            if s == 1 {
                // Shard 1's primary is completely dead; replica 1 is clean.
                set.push(Box::new(FaultyStorage::new(
                    MemStorage::new(bytes.clone()),
                    FaultPlan {
                        seed: 9,
                        dead_range: Some(0..u64::MAX),
                        skip_reads: 8, // let open()'s header/TOC reads through
                        ..FaultPlan::default()
                    },
                )));
            } else {
                set.push(Box::new(MemStorage::new(bytes.clone())));
            }
            set.push(Box::new(MemStorage::new(bytes)));
            storages.push(set);
        }
        let sharded = ShardedIndex::open(
            plan,
            storages,
            ShardedOptions {
                retry: RetryPolicy {
                    max_retries: 0,
                    backoff: Duration::ZERO,
                    strict: false, // forced strict internally anyway
                },
                // Ordered failover is what this test accounts for: with
                // hedging on, a loaded runner fires the hedge (2 ms) before
                // the dead primary errors and no failover is ever counted.
                hedge: HedgeConfig {
                    enabled: false,
                    ..HedgeConfig::default()
                },
                ..ShardedOptions::default()
            },
        )
        .unwrap();
        let got = sharded.stat_query_batch(&queries, &model, &opts).unwrap();
        assert!(got.failovers >= 1, "dead primary must fail over");
        assert_eq!(got.shard_skips, 0);
        assert_identical(&got.batch, &base);
        let r1 = got.shards.iter().find(|r| r.shard == 1).unwrap();
        assert_eq!(r1.served_by, Some(1));
        assert!(r1.failovers >= 1);
    }

    #[test]
    fn total_loss_degrades_and_strict_errors() {
        let index = synthetic(1000, 5);
        let model = IsotropicNormal::new(DIMS, 12.0);
        let opts = StatQueryOpts::new(0.9, 12);
        let q = probes(&index, 10, 0xBEEF);
        let queries: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();

        let build = |strict: bool| {
            let plan = ShardPlan::balanced(&index, 2);
            let mut storages: Vec<Vec<Box<dyn Storage>>> = Vec::new();
            for s in 0..plan.shards() {
                let bytes = plan.shard_bytes(&index, s, WriteOpts::default()).unwrap();
                let mk = |bytes: Vec<u8>| -> Box<dyn Storage> {
                    if s == 0 {
                        Box::new(FaultyStorage::new(
                            MemStorage::new(bytes),
                            FaultPlan {
                                seed: 1,
                                dead_range: Some(0..u64::MAX),
                                skip_reads: 8,
                                ..FaultPlan::default()
                            },
                        ))
                    } else {
                        Box::new(MemStorage::new(bytes))
                    }
                };
                storages.push(vec![mk(bytes.clone()), mk(bytes)]);
            }
            ShardedIndex::open(
                plan,
                storages,
                ShardedOptions {
                    strict,
                    retry: RetryPolicy {
                        max_retries: 0,
                        backoff: Duration::ZERO,
                        strict: false,
                    },
                    ..ShardedOptions::default()
                },
            )
            .unwrap()
        };

        let got = build(false)
            .stat_query_batch(&queries, &model, &opts)
            .unwrap();
        assert_eq!(got.shard_skips, 1);
        assert!(got.batch.timing.degraded);
        let affected = got.batch.stats.iter().filter(|s| s.shard_skips > 0).count();
        assert!(affected > 0, "some query must be accounted degraded");
        for st in &got.batch.stats {
            if st.shard_skips > 0 {
                assert!(st.degraded);
            }
        }

        let err = build(true)
            .stat_query_batch(&queries, &model, &opts)
            .unwrap_err();
        match err {
            IndexError::ShardLost {
                shard,
                replicas_tried,
                source,
            } => {
                assert_eq!(shard, 0);
                // Primary and failover both ran, and the error is the
                // last replica's own strict section loss.
                assert_eq!(replicas_tried, 2);
                assert!(
                    matches!(*source, IndexError::SectionLost { .. }),
                    "{source}"
                );
            }
            other => panic!("expected ShardLost, got {other}"),
        }
    }

    #[test]
    fn hedged_read_wins_over_stalled_primary() {
        let index = synthetic(1400, 11);
        let model = IsotropicNormal::new(DIMS, 12.0);
        let opts = StatQueryOpts::new(0.9, 12);
        let q = probes(&index, 10, 0x7E06);
        let queries: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
        let base = single_node(&index)
            .stat_query_batch(&queries, &model, &opts, MEM)
            .unwrap();

        let plan = ShardPlan::balanced(&index, 2);
        let mut storages: Vec<Vec<Box<dyn Storage>>> = Vec::new();
        for s in 0..plan.shards() {
            let bytes = plan.shard_bytes(&index, s, WriteOpts::default()).unwrap();
            // Primary stalls hard on every read; backup is clean. The stall
            // is a real (system-clock) sleep so the router's elapsed-time
            // hedge check fires while the primary is still inside it.
            let stalled: Box<dyn Storage> = Box::new(FaultyStorage::new(
                MemStorage::new(bytes.clone()),
                FaultPlan {
                    seed: 3,
                    stall_every_n: 1,
                    stall_ms: 60,
                    ..FaultPlan::default()
                },
            ));
            storages.push(vec![stalled, Box::new(MemStorage::new(bytes))]);
        }
        let sharded = ShardedIndex::open(
            plan,
            storages,
            ShardedOptions {
                hedge: HedgeConfig {
                    enabled: true,
                    min_delay: Duration::from_millis(2),
                    ..HedgeConfig::default()
                },
                ..ShardedOptions::default()
            },
        )
        .unwrap();
        let got = sharded.stat_query_batch(&queries, &model, &opts).unwrap();
        assert!(got.hedges >= 1, "stalled primary must trigger a hedge");
        assert!(got.hedge_wins >= 1, "clean backup must win the race");
        assert_eq!(got.shard_skips, 0);
        assert_identical(&got.batch, &base);
        // Satellite: the winner's stats must not carry the loser's retries.
        for st in &got.batch.stats {
            assert_eq!(st.retries, 0, "hedge loser work leaked into stats");
        }
    }

    #[test]
    fn hedging_disabled_never_hedges() {
        // Stalled primaries (on a mock clock: no wall time) and no hedging:
        // the stall is waited out, no shard is lost, answers are exact.
        let index = synthetic(600, 2);
        let model = IsotropicNormal::new(DIMS, 12.0);
        let opts = StatQueryOpts::new(0.9, 12);
        let q = probes(&index, 6, 0x11);
        let queries: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
        let base = single_node(&index)
            .stat_query_batch(&queries, &model, &opts, MEM)
            .unwrap();
        let plan = ShardPlan::balanced(&index, 2);
        let mut storages: Vec<Vec<Box<dyn Storage>>> = Vec::new();
        for s in 0..plan.shards() {
            let bytes = plan.shard_bytes(&index, s, WriteOpts::default()).unwrap();
            let stalled: Box<dyn Storage> = Box::new(FaultyStorage::with_clock(
                MemStorage::new(bytes.clone()),
                FaultPlan {
                    seed: 5,
                    stall_every_n: 1,
                    stall_ms: 60,
                    ..FaultPlan::default()
                },
                Arc::new(MockClock::new()),
            ));
            storages.push(vec![stalled, Box::new(MemStorage::new(bytes))]);
        }
        let sharded = ShardedIndex::open(
            plan,
            storages,
            ShardedOptions {
                hedge: HedgeConfig {
                    enabled: false,
                    ..HedgeConfig::default()
                },
                ..ShardedOptions::default()
            },
        )
        .unwrap();
        let got = sharded.stat_query_batch(&queries, &model, &opts).unwrap();
        assert_eq!(got.hedges, 0);
        assert_eq!(got.hedge_wins, 0);
        assert_eq!(got.shard_skips, 0, "a stall must never lose a shard");
        assert_identical(&got.batch, &base);
    }

    #[test]
    fn deadline_budget_propagates_to_shards() {
        let index = synthetic(1500, 17);
        let model = IsotropicNormal::new(DIMS, 12.0);
        let opts = StatQueryOpts::new(0.9, 12);
        let q = probes(&index, 8, 0xF00);
        let queries: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
        let sharded = ShardedIndex::build_mem(
            &index,
            3,
            1,
            WriteOpts::default(),
            ShardedOptions::default(),
        )
        .unwrap();
        // An already-expired deadline: every query must come back cancelled
        // and degraded, with no panic and no hang.
        let ctx = QueryCtx::with_deadline(system_clock(), Duration::ZERO);
        let got = sharded
            .stat_query_batch_ctx(&queries, &model, &opts, &ctx)
            .unwrap();
        assert!(got.batch.timing.degraded);
        for st in &got.batch.stats {
            assert!(st.cancelled);
        }
    }

    #[test]
    fn explain_reports_reconcile_per_shard() {
        let index = synthetic(1100, 23);
        let model = IsotropicNormal::new(DIMS, 12.0);
        let opts = StatQueryOpts::new(0.9, 12);
        let q = probes(&index, 6, 0xE0);
        let queries: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
        let sharded = ShardedIndex::build_mem(
            &index,
            4,
            2,
            WriteOpts::default(),
            ShardedOptions::default(),
        )
        .unwrap();
        let got = sharded
            .stat_query_batch_ctx(&queries, &model, &opts, &QueryCtx::unbounded().explain())
            .unwrap();
        assert_eq!(got.batch.reports.len(), queries.len());
        for (qi, rep) in got.batch.reports.iter().enumerate() {
            assert!(!rep.shards.is_empty(), "sharded explain must carry rows");
            assert!(rep.reconciles(), "query {qi} does not reconcile");
            assert_eq!(rep.matches, got.batch.matches[qi].len() as u64);
        }
    }

    #[test]
    fn deadline_type_is_exported() {
        // Compile-time check that the child-deadline plumbing stays public.
        fn _takes(_: &Deadline) {}
    }
}
