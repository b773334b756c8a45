//! Hot-path benchmark (PR3): SIMD distance kernels, filter mass caching and
//! the work-stealing batch scheduler, each measured against the code path it
//! replaced. Writes `results/BENCH_PR3.json`.
//!
//! Run with `cargo run --release -p s3-bench --bin bench_kernels -- --scale quick`.
//! Every comparison first asserts the optimised path is output-identical to
//! its baseline, then times both, so a speedup can never hide a wrong answer.

use std::time::Duration;

use s3_bench::timing::{fmt_duration, mean_time};
use s3_bench::workload::{distorted_queries, extracted_pool, FingerprintSampler};
use s3_bench::{results_dir, Experiment, Scale, Series};
use s3_core::filter::{select_blocks_best_first, select_blocks_best_first_uncached, FilterOutcome};
use s3_core::kernels::{
    self, available_tiers, dist_sq_with_tier, dist_sq_within_with_tier, KernelTier,
};
use s3_core::parallel::{stat_query_batch_with, Schedule};
use s3_core::{IsotropicNormal, Refine, S3Index, StatQueryOpts};
use s3_hilbert::HilbertCurve;
use s3_stats::NormDistribution;

const DIMS: usize = 20;
const SIGMA: f64 = 18.0;

/// Deterministic xorshift64* byte stream — the kernel benches need nothing
/// fancier, and a fixed seed keeps BENCH_PR3.json reproducible run to run.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn fill(&mut self, buf: &mut [u8]) {
        for b in buf.iter_mut() {
            *b = (self.next() >> 32) as u8;
        }
    }
}

fn ns_per_call(total: Duration, calls: usize) -> f64 {
    total.as_secs_f64() * 1e9 / calls as f64
}

/// Section 1+2: per-tier `dist_sq` and early-exit `dist_sq_within` across
/// vector lengths (the paper's D = 20 plus longer buffers where the wide
/// lanes dominate).
fn bench_kernel_tiers(exp: &mut Experiment, scale: Scale) {
    let lengths = [20usize, 64, 256, 4096];
    let pairs = scale.pick(256, 1024);
    let runs = scale.pick(200, 1000);
    let tiers = available_tiers();

    let mut per_tier: Vec<(KernelTier, Vec<f64>)> =
        tiers.iter().map(|&t| (t, Vec::new())).collect();
    let mut within_ns = Vec::new();

    for &len in &lengths {
        let mut rng = XorShift(0x5EED_0000 + len as u64);
        let mut a = vec![0u8; len * pairs];
        let mut b = vec![0u8; len * pairs];
        rng.fill(&mut a);
        rng.fill(&mut b);
        fn row(buf: &[u8], i: usize, len: usize) -> &[u8] {
            &buf[i * len..(i + 1) * len]
        }

        // Correctness first: every tier must agree with scalar on this data.
        for i in 0..pairs {
            let want = dist_sq_with_tier(KernelTier::Scalar, row(&a, i, len), row(&b, i, len));
            for &t in &tiers {
                assert_eq!(
                    dist_sq_with_tier(t, row(&a, i, len), row(&b, i, len)),
                    want,
                    "{t:?}"
                );
            }
        }

        let scalar_ns = {
            let d = mean_time(2, runs, || {
                let mut acc = 0u64;
                for i in 0..pairs {
                    acc = acc.wrapping_add(dist_sq_with_tier(
                        KernelTier::Scalar,
                        row(&a, i, len),
                        row(&b, i, len),
                    ));
                }
                std::hint::black_box(acc);
            });
            ns_per_call(d, pairs)
        };

        for (t, ys) in per_tier.iter_mut() {
            let tier = *t;
            let d = mean_time(2, runs, || {
                let mut acc = 0u64;
                for i in 0..pairs {
                    acc =
                        acc.wrapping_add(dist_sq_with_tier(tier, row(&a, i, len), row(&b, i, len)));
                }
                std::hint::black_box(acc);
            });
            let ns = if tier == KernelTier::Scalar {
                scalar_ns
            } else {
                ns_per_call(d, pairs)
            };
            ys.push(ns);
            println!(
                "dist_sq  len={len:4}  {:6}  {ns:8.1} ns/call  ({:.2}x vs scalar)",
                tier.name(),
                scalar_ns / ns
            );
        }

        // Early exit: random u8 vectors sit near their expected distance, so a
        // bound at a quarter of it abandons almost every pair after one chunk.
        let mean_d2: u64 = (0..pairs)
            .map(|i| dist_sq_with_tier(KernelTier::Scalar, row(&a, i, len), row(&b, i, len)))
            .sum::<u64>()
            / pairs as u64;
        let bound = mean_d2 / 4;
        let best = *tiers.last().unwrap_or(&KernelTier::Scalar);
        let d = mean_time(2, runs, || {
            let mut hits = 0usize;
            for i in 0..pairs {
                if dist_sq_within_with_tier(best, row(&a, i, len), row(&b, i, len), bound).is_some()
                {
                    hits += 1;
                }
            }
            std::hint::black_box(hits);
        });
        within_ns.push(ns_per_call(d, pairs));
    }

    let xs: Vec<f64> = lengths.iter().map(|&l| l as f64).collect();
    let scalar_ys = per_tier
        .iter()
        .find(|(t, _)| *t == KernelTier::Scalar)
        .map(|(_, ys)| ys.clone())
        .unwrap_or_default();
    for (t, ys) in &per_tier {
        exp.push_series(Series::new(
            format!("dist_sq_{}_ns", t.name()),
            xs.clone(),
            ys.clone(),
        ));
        if *t != KernelTier::Scalar {
            let speedup: Vec<f64> = scalar_ys.iter().zip(ys).map(|(s, t)| s / t).collect();
            let peak = speedup.iter().cloned().fold(0.0f64, f64::max);
            exp.note(format!(
                "{}: peak dist_sq speedup {peak:.2}x vs scalar (lengths {lengths:?})",
                t.name()
            ));
            exp.push_series(Series::new(
                format!("dist_sq_{}_speedup", t.name()),
                xs.clone(),
                speedup,
            ));
        }
    }
    exp.push_series(Series::new("dist_sq_within_tight_bound_ns", xs, within_ns));
}

fn assert_outcomes_identical(a: &FilterOutcome, b: &FilterOutcome, ctx: &str) {
    assert_eq!(a.blocks.len(), b.blocks.len(), "{ctx}: block count");
    for (x, y) in a.blocks.iter().zip(&b.blocks) {
        assert_eq!(x.curve_rank(), y.curve_rank(), "{ctx}: block rank");
        assert_eq!(x.depth(), y.depth(), "{ctx}: block depth");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{ctx}: score bits");
    }
    assert_eq!(a.mass.to_bits(), b.mass.to_bits(), "{ctx}: mass bits");
    assert_eq!(a.nodes_expanded, b.nodes_expanded, "{ctx}: nodes");
    assert_eq!(a.truncated, b.truncated, "{ctx}: truncated");
}

/// Section 3: the best-first filter with and without the per-axis mass cache,
/// across partition depths (deeper partitions revisit more (axis, level, k)
/// cells, so the memo pays off more).
fn bench_filter_cache(exp: &mut Experiment, scale: Scale, queries: &[Vec<u8>]) {
    let curve = HilbertCurve::paper();
    let model = IsotropicNormal::new(DIMS, SIGMA);
    let depths = [10u32, 14, 18];
    let (alpha, max_blocks) = (0.9, 4096);
    let n = scale.pick(8, 32).min(queries.len());
    let runs = scale.pick(3, 10);

    let mut cached_us = Vec::new();
    let mut uncached_us = Vec::new();
    for &depth in &depths {
        for q in &queries[..n] {
            let a = select_blocks_best_first(&curve, &model, q, depth, alpha, max_blocks);
            let b = select_blocks_best_first_uncached(&curve, &model, q, depth, alpha, max_blocks);
            assert_outcomes_identical(&a, &b, &format!("depth {depth}"));
        }
        let dc = mean_time(1, runs, || {
            for q in &queries[..n] {
                std::hint::black_box(select_blocks_best_first(
                    &curve, &model, q, depth, alpha, max_blocks,
                ));
            }
        });
        let du = mean_time(1, runs, || {
            for q in &queries[..n] {
                std::hint::black_box(select_blocks_best_first_uncached(
                    &curve, &model, q, depth, alpha, max_blocks,
                ));
            }
        });
        let (c, u) = (
            dc.as_secs_f64() * 1e6 / n as f64,
            du.as_secs_f64() * 1e6 / n as f64,
        );
        println!(
            "filter   depth={depth:2}  cached {c:9.1} µs/q  uncached {u:9.1} µs/q  ({:.2}x)",
            u / c
        );
        cached_us.push(c);
        uncached_us.push(u);
    }
    let xs: Vec<f64> = depths.iter().map(|&d| f64::from(d)).collect();
    let peak = uncached_us
        .iter()
        .zip(&cached_us)
        .map(|(u, c)| u / c)
        .fold(0.0f64, f64::max);
    exp.note(format!(
        "mass cache: outputs bit-identical at depths {depths:?}; peak filter speedup {peak:.2}x"
    ));
    exp.push_series(Series::new(
        "filter_cached_us_per_query",
        xs.clone(),
        cached_us,
    ));
    exp.push_series(Series::new("filter_uncached_us_per_query", xs, uncached_us));
}

/// Sections 4+5 share one archive-scale index.
struct BatchSetup {
    index: S3Index,
    model: IsotropicNormal,
    queries: Vec<Vec<u8>>,
    opts: StatQueryOpts,
}

/// A deliberately skewed batch: distorted copies of stored records (dense
/// neighbourhoods, heavy refinement) first, then uniform-random queries far
/// from the data (nearly free). Static chunking hands whole expensive runs to
/// single workers; work-stealing spreads them.
fn batch_setup(scale: Scale) -> BatchSetup {
    let pool = extracted_pool(3, 60, 0xBE7C);
    let mut sampler = FingerprintSampler::new(pool, 20.0, 1);
    let batch = sampler.batch(scale.pick(20_000, 100_000));
    let n_hot = scale.pick(24, 64);
    let hot = distorted_queries(&batch, n_hot, SIGMA, 2);
    let mut queries: Vec<Vec<u8>> = hot.iter().map(|dq| dq.query.to_vec()).collect();
    let mut rng = XorShift(0xC01D);
    for _ in 0..n_hot {
        let mut q = vec![0u8; DIMS];
        rng.fill(&mut q);
        queries.push(q);
    }
    let index = S3Index::build(HilbertCurve::paper(), batch);
    let model = IsotropicNormal::new(DIMS, SIGMA);
    let eps = NormDistribution::new(DIMS as u32, SIGMA).quantile(0.9);
    let mut opts = StatQueryOpts::new(0.85, 12);
    opts.refine = Refine::Range(eps);
    BatchSetup {
        index,
        model,
        queries,
        opts,
    }
}

/// Section 4: static vs work-stealing scheduling of the skewed batch.
fn bench_scheduler(exp: &mut Experiment, scale: Scale, s: &BatchSetup) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let threads: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t == 1 || t <= cores)
        .collect();
    let refs: Vec<&[u8]> = s.queries.iter().map(Vec::as_slice).collect();
    let runs = scale.pick(3, 10);

    let baseline = stat_query_batch_with(&s.index, &refs, &s.model, &s.opts, 1, Schedule::Static);
    let mut static_ms = Vec::new();
    let mut steal_ms = Vec::new();
    for &t in &threads {
        for sched in [Schedule::Static, Schedule::WorkStealing] {
            let got = stat_query_batch_with(&s.index, &refs, &s.model, &s.opts, t, sched);
            assert_eq!(got.len(), baseline.len());
            for (g, w) in got.iter().zip(&baseline) {
                assert_eq!(g.matches.len(), w.matches.len(), "t={t} {sched:?}");
            }
            let d = mean_time(1, runs, || {
                std::hint::black_box(stat_query_batch_with(
                    &s.index, &refs, &s.model, &s.opts, t, sched,
                ));
            });
            let ms = d.as_secs_f64() * 1e3;
            println!("batch    threads={t}  {sched:>12?}  {}", fmt_duration(d));
            match sched {
                Schedule::Static => static_ms.push(ms),
                Schedule::WorkStealing => steal_ms.push(ms),
            }
        }
    }
    let xs: Vec<f64> = threads.iter().map(|&t| t as f64).collect();
    let peak = static_ms
        .iter()
        .zip(&steal_ms)
        .map(|(a, b)| a / b)
        .fold(0.0f64, f64::max);
    exp.note(format!(
        "scheduler: skewed {}-query batch on {cores}-core host, \
         work-stealing up to {peak:.2}x over static chunks",
        s.queries.len()
    ));
    exp.push_series(Series::new("batch_static_ms", xs.clone(), static_ms));
    exp.push_series(Series::new("batch_worksteal_ms", xs, steal_ms));
}

/// Section 5: the whole PR at once — scalar kernel + uncached filter + static
/// chunks (the pre-PR configuration) against auto-dispatched kernels + mass
/// cache + work-stealing.
fn bench_end_to_end(exp: &mut Experiment, scale: Scale, s: &BatchSetup) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = cores.min(4);
    let refs: Vec<&[u8]> = s.queries.iter().map(Vec::as_slice).collect();
    let runs = scale.pick(3, 10);

    let mut base_opts = s.opts;
    base_opts.mass_cache = false;

    kernels::force_tier(Some(KernelTier::Scalar));
    let want = stat_query_batch_with(
        &s.index,
        &refs,
        &s.model,
        &base_opts,
        threads,
        Schedule::Static,
    );
    let d_base = mean_time(1, runs, || {
        std::hint::black_box(stat_query_batch_with(
            &s.index,
            &refs,
            &s.model,
            &base_opts,
            threads,
            Schedule::Static,
        ));
    });
    kernels::force_tier(None);

    let got = stat_query_batch_with(
        &s.index,
        &refs,
        &s.model,
        &s.opts,
        threads,
        Schedule::WorkStealing,
    );
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g.matches.len(),
            w.matches.len(),
            "end-to-end outputs differ"
        );
    }
    let d_opt = mean_time(1, runs, || {
        std::hint::black_box(stat_query_batch_with(
            &s.index,
            &refs,
            &s.model,
            &s.opts,
            threads,
            Schedule::WorkStealing,
        ));
    });

    let (b, o) = (d_base.as_secs_f64() * 1e3, d_opt.as_secs_f64() * 1e3);
    println!(
        "end-to-end  baseline {}  optimized {}  ({:.2}x)",
        fmt_duration(d_base),
        fmt_duration(d_opt),
        b / o
    );
    exp.note(format!(
        "end-to-end ({} queries, {threads} threads, Refine::Range): \
         baseline {b:.2} ms -> optimized {o:.2} ms ({:.2}x)",
        s.queries.len(),
        b / o
    ));
    exp.push_series(Series::new(
        "end_to_end_baseline_ms",
        vec![threads as f64],
        vec![b],
    ));
    exp.push_series(Series::new(
        "end_to_end_optimized_ms",
        vec![threads as f64],
        vec![o],
    ));
}

fn main() {
    let scale = Scale::from_args();
    let tiers: Vec<&str> = available_tiers().iter().map(|t| t.name()).collect();
    println!(
        "bench_kernels: scale {scale:?}, tiers {tiers:?}, active {}",
        kernels::active_tier().name()
    );

    let mut exp = Experiment::new(
        "BENCH_PR3",
        "Hot-path overhaul: SIMD kernels, filter mass cache, work-stealing scheduler",
        "vector length / partition depth / threads (per series)",
        "ns per call / µs per query / batch ms (per series)",
    );
    exp.note(format!("available kernel tiers: {tiers:?}"));

    bench_kernel_tiers(&mut exp, scale);

    // Filter queries: genuine extracted fingerprints, jittered.
    let pool = extracted_pool(2, 40, 0xF117);
    let mut sampler = FingerprintSampler::new(pool, 6.0, 3);
    let filter_queries: Vec<Vec<u8>> = (0..32).map(|_| sampler.sample().to_vec()).collect();
    bench_filter_cache(&mut exp, scale, &filter_queries);

    let s = batch_setup(scale);
    bench_scheduler(&mut exp, scale, &s);
    bench_end_to_end(&mut exp, scale, &s);

    exp.print();
    let dir = results_dir();
    exp.save_json(&dir).expect("write results json");
    println!("wrote {}", dir.join("BENCH_PR3.json").display());
}
