//! `s3cbcd` — command-line front end of the S³ copy-detection system.
//!
//! Operates on the pseudo-disk index format and the synthetic video library:
//!
//! ```text
//! s3cbcd build <index-file> [--videos N] [--frames N] [--seed S]
//! s3cbcd info <index-file>
//! s3cbcd query <index-file> [--alpha A] [--sigma S] [--depth P] [--queries N] [--mem MB]
//! s3cbcd detect <index-file-dir-seed> ... (see `detect --help`)
//! s3cbcd monitor [--archive N] [--stream-frames N] [--seed S]
//! s3cbcd metrics [--format table|json|prom] [--queries N]
//! ```
//!
//! `build`/`info`/`query` exercise the index layer against a disk file;
//! `detect` and `monitor` run the full in-memory CBCD pipeline on synthetic
//! material (the substitute for real broadcast capture, see DESIGN.md).
//! Every pipeline command accepts `--metrics-json <path>` (write a snapshot
//! of all counters/histograms on exit) and `--metrics-every <secs>`
//! (periodic metrics table on stderr); `metrics` runs a small self-contained
//! workload and prints the populated registry in the chosen format.

mod args;
mod faults;
mod metrics;
mod telemetry;
mod watch;

use args::Args;
use s3_cbcd::{
    calibrate_monitor_threshold, DbBuilder, Detector, DetectorConfig, Monitor, MonitorParams,
};
use s3_core::autotune::{self, RecordCounts};
use s3_core::parallel::default_threads;
use s3_core::pseudo_disk::{DiskIndex, RetryPolicy};
use s3_core::{
    system_clock, FaultyStorage, FileStorage, IndexError, IsotropicNormal, QueryCtx, RecordBatch,
    S3Index, StatQueryOpts, Storage,
};
use s3_hilbert::HilbertCurve;
use s3_video::{
    extract_fingerprints, ExtractorParams, ProceduralVideo, StreamingExtractor, Transform,
    TransformChain, TransformedVideo, VideoSource, Y4mVideo,
};
use std::process::ExitCode;
use std::time::Duration;

/// How a command finished. Degradation gets its own exit code (2) so
/// scripts can tell "complete answer" (0) from "partial answer" (2) from
/// "hard failure" (1) without parsing output.
enum CmdStatus {
    /// Complete results.
    Clean,
    /// The command produced results, but they are partial: sections were
    /// skipped or a deadline was hit.
    Degraded,
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest: Vec<String> = argv.collect();
    let result = match cmd.as_str() {
        "build" => cmd_build(rest),
        "info" => cmd_info(rest),
        "query" => cmd_query(rest, false),
        "explain" => cmd_query(rest, true),
        "detect" => cmd_detect(rest),
        "monitor" => cmd_monitor(rest),
        "metrics" => cmd_metrics(rest),
        "watch" => watch::cmd_watch(rest),
        "incident" => watch::cmd_incident(rest),
        "history" => telemetry::cmd_history(rest),
        "slowlog" => telemetry::cmd_slowlog(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(CmdStatus::Clean)
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(CmdStatus::Clean) => ExitCode::SUCCESS,
        Ok(CmdStatus::Degraded) => ExitCode::from(2),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "s3cbcd — Statistical Similarity Search video copy detection

USAGE:
  s3cbcd build <index-file> [video.y4m ...] [--videos N] [--frames N] [--seed S]
      Fingerprint videos (given .y4m files, or a synthetic library) and
      write a pseudo-disk index: one file, nothing beside it.
  s3cbcd info <index-file>
      Print header information of an index file.
  s3cbcd query <index-file> [--alpha A] [--sigma S] [--queries N] [--mem MB]
                [--depth P] [--strict] [--explain] [--telemetry-dir DIR]
      Run distorted self-queries through the pseudo-disk engine and report
      retrieval rate and timing. Without --depth the partition depth is
      learned on the batch's own first queries, from filter and record
      counts (printed as `depth p : P (learned)`). By default unreadable
      index sections are retried then skipped (degraded results); --strict
      makes that a hard error instead.
      --telemetry-dir DIR persists one windowed-rate frame covering the
      batch into the embedded time-series store under DIR and captures
      every degraded query's EXPLAIN into the slow-query log there;
      results are unaffected. Read back with `history` / `slowlog`.
  s3cbcd explain <index-file> [query flags]
      Shorthand for `query --explain`: per query, print the plan the
      statistical filter chose (selected p-blocks with predicted mass),
      what refinement actually scanned and matched per block, per-phase
      timings, and every degradation annotation.
  s3cbcd detect [ref.y4m ...] [--candidate FILE] [--videos N] [--frames N]
                [--seed S] [--attack NAME]
      Build an in-memory reference DB (from .y4m files or a synthetic
      library), then detect a candidate: either --candidate FILE, or an
      attacked copy of one reference.
      Attacks: resize | shift | gamma | contrast | noise | combo
  s3cbcd monitor [--archive N] [--stream-frames N] [--seed S] [--strict]
      Monitor a synthetic broadcast with embedded copies; report events,
      the real-time factor and a stream-health summary. --strict turns
      out-of-order input into a hard error.
  s3cbcd metrics [--format table|json|prom] [--queries N]
      Run a small self-contained extract+index+query workload and print
      the populated metrics registry in the chosen exporter format.
  s3cbcd watch [--ticks N] [--interval-ms MS] [--fault none|torn|stall|mixed]
               [--queries N] [--videos N] [--frames N] [--seed S]
               [--incident-dir DIR] [--deadline-ms MS] [--telemetry-dir DIR]
               [--latency-slo-ms MS] [--plain]
      Live ops dashboard: run a self-contained query workload (optionally
      with injected storage faults) and redraw windowed rates, rolling
      latency quantiles and per-rule health verdicts every tick. When
      health leaves Healthy, the flight recorder dumps an incident
      report JSON into --incident-dir and the command exits 2. --plain
      appends frames instead of clearing the screen (pipe/CI friendly).
      --telemetry-dir DIR arms durable
      telemetry: every tick's windowed rates are appended to an embedded
      time-series store under DIR (rendered back as per-rate sparklines,
      surviving crashes — see `history`), degraded or slow queries get
      their EXPLAIN captured into the slow-query log (see `slowlog`),
      and SLO burn rates (availability, latency against
      --latency-slo-ms, default 500, correctness) join the health rules;
      an exhausted error budget dumps an `slo`-kind incident.
  s3cbcd incident <report.json>
      Pretty-print a flight-recorder incident dump (s3.incident.v1):
      trigger, health rules, windowed rates, slowest spans, recent events
      and component state.
  s3cbcd history <telemetry-dir> [--series NAME] [--tier raw|1m|1h]
                 [--last N] [--json]
      Render time-series samples persisted by `watch`/`query
      --telemetry-dir`: a per-series sparkline overview, one series in
      detail (--series), or the raw samples as s3.history.v1 JSON
      (--json). --tier selects the downsampling tier (default raw).
  s3cbcd slowlog <telemetry-dir> [--show IDX] [--last N] [--json]
      List the slow-query log captured alongside the time series (one
      row per degraded or over-threshold query), or pretty-print one
      entry's full EXPLAIN capture with --show.

  query/detect/monitor also accept:
      --threads N             worker threads for the search stage
                              (default: all available cores)
      --deadline-ms N         latency budget per search batch; past it the
                              remaining work is skipped and results come
                              back partial, flagged degraded
      --metrics-json <path>   write a JSON metrics snapshot on exit
      --metrics-every <secs>  print a metrics table to stderr periodically

  query/detect also accept:
      --explain               print per-query EXPLAIN reports (plan vs.
                              actual work, with degradation annotations)
      --trace-out <path>      capture all spans of the run and write them
                              as Chrome trace-event JSON (load the file in
                              Perfetto or chrome://tracing)

  query also accepts:
      --fault <scenario>      inject seeded storage faults into the index
                              file, as in `watch`: none | torn | stall |
                              mixed
      --fault-seed <S>        fault schedule seed (default: --seed), so a
                              degraded run reproduces exactly

EXIT CODES:
  0  complete results
  1  hard error (bad arguments, I/O failure, strict-mode fault)
  2  results produced but partial: sections skipped or deadline hit";

/// Builds the query context: a system-clock deadline when `--deadline-ms`
/// is given, unbounded otherwise; asking for EXPLAIN when `explain` is set.
fn query_ctx(a: &Args, explain: bool) -> Result<QueryCtx, String> {
    let ctx = match a.get("deadline-ms") {
        Some(raw) => {
            let ms: u64 = raw
                .parse()
                .map_err(|_| format!("invalid value for --deadline-ms: {raw:?}"))?;
            QueryCtx::with_deadline(system_clock(), Duration::from_millis(ms))
        }
        None => QueryCtx::unbounded(),
    };
    Ok(if explain { ctx.explain() } else { ctx })
}

/// Applies `--trace-out FILE`: installs a ring collector as the global span
/// sink so every span of the run is captured. Returns the output path and
/// the collector to drain after the workload; [`trace_write`] finishes the
/// job. `None` when the flag is absent (spans then stay allocation-free).
fn trace_setup(a: &Args) -> Option<(String, std::sync::Arc<s3_obs::RingCollector>)> {
    let path = a.get("trace-out")?.to_string();
    let collector = s3_obs::RingCollector::new(1 << 16);
    s3_obs::set_span_sink(Box::new(std::sync::Arc::clone(&collector)));
    Some((path, collector))
}

/// Drains the collector installed by [`trace_setup`] and writes the spans
/// as a Chrome trace-event JSON file (loadable in Perfetto or
/// `chrome://tracing`).
fn trace_write(tr: Option<(String, std::sync::Arc<s3_obs::RingCollector>)>) -> Result<(), String> {
    let Some((path, collector)) = tr else {
        return Ok(());
    };
    let spans = collector.drain();
    let json = s3_obs::to_chrome_trace(&spans);
    std::fs::write(&path, json).map_err(|e| format!("writing trace to {path}: {e}"))?;
    eprintln!(
        "chrome trace written to {path} ({} spans, {} dropped)",
        spans.len(),
        collector.dropped()
    );
    Ok(())
}

/// Prints explain reports (bounded — a big batch would swamp the terminal).
fn print_explains<'a>(reports: impl ExactSizeIterator<Item = &'a s3_obs::ExplainReport>) {
    const SHOW: usize = 16;
    let omitted = reports.len().saturating_sub(SHOW);
    for r in reports.take(SHOW) {
        println!("{}", r.to_text());
    }
    if omitted > 0 {
        println!("... {omitted} more explain reports omitted");
    }
}

fn cmd_build(rest: Vec<String>) -> Result<CmdStatus, String> {
    let a = Args::parse(rest, &["videos", "frames", "seed"])?;
    let path = a.positional(0).ok_or("build needs an output path")?;
    let n_videos: usize = a.get_parsed("videos", 8)?;
    let frames: usize = a.get_parsed("frames", 100)?;
    let seed: u64 = a.get_parsed("seed", 1)?;

    let params = ExtractorParams::default();
    let mut batch = RecordBatch::new(20);
    if a.positional_len() > 1 {
        // Real material: each positional after the index path is a .y4m file.
        for i in 1..a.positional_len() {
            let file = a.positional(i).expect("checked");
            let video = Y4mVideo::open(file).map_err(|e| e.to_string())?;
            eprintln!(
                "fingerprinting {file} ({} frames @ {}x{}) ...",
                video.len(),
                video.width(),
                video.height()
            );
            for f in extract_fingerprints(&video, &params) {
                batch.push(&f.fingerprint, (i - 1) as u32, f.tc);
            }
        }
    } else {
        eprintln!("fingerprinting {n_videos} synthetic videos of {frames} frames ...");
        for i in 0..n_videos {
            let v = ProceduralVideo::new(96, 72, frames, seed ^ ((i as u64) << 20));
            for f in extract_fingerprints(&v, &params) {
                batch.push(&f.fingerprint, i as u32, f.tc);
            }
        }
    }
    eprintln!("indexing {} fingerprints ...", batch.len());
    let index = S3Index::build(HilbertCurve::paper(), batch);
    DiskIndex::write(&index, path).map_err(|e| e.to_string())?;
    let disk = DiskIndex::open(path).map_err(|e| e.to_string())?;
    println!(
        "wrote {path}: {} records, {} data bytes",
        index.len(),
        disk.data_bytes()
    );
    Ok(CmdStatus::Clean)
}

fn cmd_info(rest: Vec<String>) -> Result<CmdStatus, String> {
    let a = Args::parse(rest, &[])?;
    let path = a.positional(0).ok_or("info needs an index path")?;
    let disk = DiskIndex::open(path).map_err(|e| e.to_string())?;
    println!("index file : {path}");
    println!("records    : {}", disk.len());
    println!(
        "space      : [0,255]^{} (order {})",
        disk.curve().dims(),
        disk.curve().order()
    );
    println!("key bits   : {}", disk.curve().key_bits());
    // The components in the order the curve halves them.
    let order: Vec<String> = disk
        .curve()
        .split_order()
        .iter()
        .map(ToString::to_string)
        .collect();
    let kind = if disk.curve().is_identity() {
        "identity"
    } else {
        "ranked"
    };
    println!("axis order : {} ({kind})", order.join(" "));
    println!("data bytes : {}", disk.data_bytes());
    Ok(CmdStatus::Clean)
}

fn cmd_query(rest: Vec<String>, force_explain: bool) -> Result<CmdStatus, String> {
    let a = Args::parse_with_switches(
        rest,
        &[
            "alpha",
            "sigma",
            "depth",
            "queries",
            "mem",
            "seed",
            "threads",
            "deadline-ms",
            "metrics-json",
            "metrics-every",
            "trace-out",
            "fault",
            "fault-seed",
            "telemetry-dir",
        ],
        &["strict", "explain"],
    )?;
    let explain = force_explain || a.has("explain");
    let trace = trace_setup(&a);
    let (metrics_json, _ticker) = metrics::shared_flags(&a)?;
    let path = a.positional(0).ok_or("query needs an index path")?;
    let alpha: f64 = a.get_parsed("alpha", 0.8)?;
    let sigma: f64 = a.get_parsed("sigma", 15.0)?;
    let n_queries: usize = a.get_parsed("queries", 100)?;
    let mem_mb: u64 = a.get_parsed("mem", 256)?;
    let seed: u64 = a.get_parsed("seed", 7)?;

    let threads: usize = a.get_parsed("threads", default_threads())?;
    // --telemetry-dir needs the explain reports for slow-query capture,
    // even when they are not printed; the answers are the same either way.
    let telemetry = telemetry_setup(&a);
    let ctx = query_ctx(&a, explain || telemetry.is_some())?;
    // `--fault` wraps the file in the same seeded fault-injecting storage
    // the `watch` dashboard uses, so a degraded run reproduces from its
    // command line alone.
    let file = FileStorage::open(path).map_err(|e| IndexError::from(e).to_string())?;
    let storage: Box<dyn Storage> = match faults::from_args(&a, seed)? {
        Some(p) => Box::new(FaultyStorage::new(file, p)),
        None => Box::new(file),
    };
    let disk = DiskIndex::open_storage(storage)
        .map_err(|e| e.to_string())?
        .with_retry_policy(RetryPolicy {
            strict: a.has("strict"),
            ..RetryPolicy::default()
        })
        .with_threads(threads);
    let dims = disk.curve().dims();

    let queries = synth_queries(n_queries, dims, sigma, seed);
    let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();

    let model = IsotropicNormal::new(dims, sigma);
    let (opts, learned) = batch_opts(&a, &disk, &model, alpha, &qrefs)?;
    let batch = disk
        .stat_query_batch_ctx(&qrefs, &model, &opts, mem_mb << 20, &ctx)
        .map_err(|e| e.to_string())?;
    persist_telemetry(telemetry, &batch.reports)?;

    let total_matches: usize = batch.matches.iter().map(Vec::len).sum();
    let total_scanned: usize = batch.stats.iter().map(|st| st.entries_scanned).sum();
    let total_blocks: usize = batch.stats.iter().map(|st| st.blocks_selected).sum();
    println!("queries            : {}", queries.len());
    println!("depth p            : {}{learned}", opts.depth);
    println!("matches            : {total_matches}");
    println!(
        "blocks / scanned   : {} / {} per query (avg)",
        total_blocks / queries.len().max(1),
        total_scanned / queries.len().max(1)
    );
    println!(
        "sections           : {} ({} loaded, {} bytes)",
        batch.sections, batch.timing.sections_loaded, batch.timing.bytes_loaded
    );
    println!(
        "filter/load/refine : {:?} / {:?} / {:?}",
        batch.timing.filter, batch.timing.load, batch.timing.refine
    );
    println!(
        "per query          : {:?}",
        batch.timing.per_query(queries.len())
    );
    if batch.timing.retries > 0 || batch.timing.degraded {
        println!(
            "health             : {} retries, {} sections skipped{}{}",
            batch.timing.retries,
            batch.timing.sections_skipped,
            if batch.timing.deadline_hit {
                " — deadline exceeded"
            } else {
                ""
            },
            if batch.timing.degraded {
                " — DEGRADED results"
            } else {
                ""
            }
        );
    }
    if explain {
        print_explains(batch.reports.iter());
    }
    trace_write(trace)?;
    if let Some(path) = metrics_json {
        metrics::dump_json(&path)?;
    }
    if batch.timing.degraded {
        Ok(CmdStatus::Degraded)
    } else {
        Ok(CmdStatus::Clean)
    }
}

/// The options of a `query`/`explain` batch, and what to print after its
/// depth: `--depth P` as given, else `p_min` learned on the batch's own
/// first queries against `counts` — the paper's start of retrieval.
fn batch_opts(
    a: &Args,
    counts: &dyn RecordCounts,
    model: &IsotropicNormal,
    alpha: f64,
    queries: &[&[u8]],
) -> Result<(StatQueryOpts, &'static str), String> {
    let mut opts = StatQueryOpts::new(alpha, 0);
    let learned = a.get("depth").is_none();
    opts.depth = if learned {
        autotune::learn_depth_on(counts, model, &opts, queries).best_depth
    } else {
        a.get_parsed("depth", 0)?
    };
    let key_bits = counts.curve().key_bits();
    if !(1..=key_bits).contains(&opts.depth) {
        return Err(format!("--depth must be in 1..={key_bits}"));
    }
    Ok((opts, if learned { " (learned)" } else { "" }))
}

/// Synthetic mid-range probes (the distribution real descriptors live in).
fn synth_queries(n: usize, dims: usize, sigma: f64, seed: u64) -> Vec<Vec<u8>> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..n)
        .map(|_| {
            (0..dims)
                .map(|_| {
                    let mut acc = 0.0f64;
                    for _ in 0..4 {
                        acc += (next() >> 40) as f64 / (1u64 << 24) as f64 - 0.5;
                    }
                    (128.0 + acc * sigma * 3.0).clamp(0.0, 255.0) as u8
                })
                .collect()
        })
        .collect()
}

/// What `--telemetry-dir` arms: the directory, and the windows and clock
/// that frame the batch.
type Telemetry = (std::path::PathBuf, s3_ops::MetricWindows, s3_obs::WallTime);

/// Applies `--telemetry-dir DIR`: ticks a baseline frame so the windowed
/// rates persisted afterwards cover exactly the batch. Returns `None`
/// when the flag is absent (telemetry then costs nothing).
fn telemetry_setup(a: &Args) -> Option<Telemetry> {
    let dir = std::path::PathBuf::from(a.get("telemetry-dir")?);
    let wall = s3_obs::WallTime::new();
    let windows = s3_ops::MetricWindows::new(16);
    windows.tick(&wall);
    Some((dir, windows, wall))
}

/// Persists the batch's telemetry under the `--telemetry-dir` directory:
/// one windowed frame appended to the embedded time-series store, plus a
/// slow-query log capture of every degraded query's EXPLAIN. Read back
/// with `history` / `slowlog`. No-op when telemetry is unarmed.
fn persist_telemetry(
    telemetry: Option<Telemetry>,
    reports: &[s3_obs::ExplainReport],
) -> Result<(), String> {
    let Some((dir, windows, wall)) = telemetry else {
        return Ok(());
    };
    windows.tick(&wall);
    let err = |e: std::io::Error| format!("telemetry dir {}: {e}", dir.display());
    let mut tsdb = s3_ops::Tsdb::open(&dir, s3_ops::TsdbConfig::default()).map_err(err)?;
    tsdb.append_latest(&windows).map_err(err)?;
    tsdb.sync().map_err(err)?;
    let slowlog = s3_ops::SlowLog::open(&dir, s3_ops::SlowLogConfig::default()).map_err(err)?;
    for rep in reports {
        slowlog.observe(rep);
    }
    slowlog.sync().map_err(err)?;
    Ok(())
}

fn cmd_detect(rest: Vec<String>) -> Result<CmdStatus, String> {
    let a = Args::parse_with_switches(
        rest,
        &[
            "videos",
            "frames",
            "seed",
            "attack",
            "candidate",
            "threads",
            "deadline-ms",
            "metrics-json",
            "metrics-every",
            "trace-out",
        ],
        &["explain"],
    )?;
    let trace = trace_setup(&a);
    let (metrics_json, _ticker) = metrics::shared_flags(&a)?;
    let n_videos: usize = a.get_parsed("videos", 6)?;
    let frames: usize = a.get_parsed("frames", 100)?;
    let seed: u64 = a.get_parsed("seed", 3)?;
    let attack = a.get("attack").unwrap_or("combo");

    let chain = match attack {
        "resize" => TransformChain::new(vec![Transform::Resize { wscale: 0.9 }]),
        "shift" => TransformChain::new(vec![Transform::Shift { wshift: 10.0 }]),
        "gamma" => TransformChain::new(vec![Transform::Gamma { wgamma: 1.6 }]),
        "contrast" => TransformChain::new(vec![Transform::Contrast { wcontrast: 1.6 }]),
        "noise" => TransformChain::new(vec![Transform::Noise { wnoise: 10.0 }]),
        "combo" => TransformChain::new(vec![
            Transform::Resize { wscale: 0.93 },
            Transform::Gamma { wgamma: 1.3 },
            Transform::Noise { wnoise: 6.0 },
        ]),
        other => return Err(format!("unknown attack '{other}'")),
    };

    let mut builder = DbBuilder::new(ExtractorParams::default());
    let use_files = a.positional_len() > 0;
    if use_files {
        for i in 0..a.positional_len() {
            let file = a.positional(i).expect("checked");
            let video = Y4mVideo::open(file).map_err(|e| e.to_string())?;
            eprintln!("registering {file} ...");
            builder.add_video(file, &video);
        }
    } else {
        eprintln!("registering {n_videos} synthetic reference videos ...");
        for i in 0..n_videos {
            let v = ProceduralVideo::new(96, 72, frames, seed ^ ((i as u64) << 20));
            builder.add_video(&format!("video-{i}"), &v);
        }
    }
    let db = builder.build();
    eprintln!(
        "database: {} fingerprints from {} videos",
        db.fingerprint_count(),
        db.video_count()
    );

    // Candidate: an explicit .y4m, or an attacked copy of one reference.
    let (candidate_fps, target): (Vec<s3_video::LocalFingerprint>, Option<u32>) =
        if let Some(file) = a.get("candidate") {
            let video = Y4mVideo::open(file).map_err(|e| e.to_string())?;
            println!("candidate: {file}");
            (extract_fingerprints(&video, db.extractor_params()), None)
        } else if use_files {
            return Err("with .y4m references, pass --candidate FILE".into());
        } else {
            let t = n_videos / 2;
            let original = ProceduralVideo::new(96, 72, frames, seed ^ ((t as u64) << 20));
            let candidate = TransformedVideo::new(&original, chain.clone(), 99);
            println!("attacking video-{t} with [{}]", chain.label());
            (
                extract_fingerprints(&candidate, db.extractor_params()),
                Some(t as u32),
            )
        };

    // Calibrate the decision threshold on non-referenced clips (§V-C).
    let negatives: Vec<_> = (0..2u64)
        .map(|i| {
            let v = ProceduralVideo::new(96, 72, frames, seed ^ 0x0F0F_0000 ^ (i << 4));
            extract_fingerprints(&v, db.extractor_params())
        })
        .collect();
    let probe = Detector::new(&db, DetectorConfig::default());
    let cal = s3_cbcd::calibrate_threshold(&probe, &negatives, 25.0, 1.0);
    eprintln!("calibrated n_sim threshold: {}", cal.min_votes);

    let mut config = DetectorConfig::default();
    config.vote.min_votes = cal.min_votes;
    config.threads = a.get_parsed("threads", default_threads())?;
    if let Some(raw) = a.get("deadline-ms") {
        let ms: u64 = raw
            .parse()
            .map_err(|_| format!("invalid value for --deadline-ms: {raw:?}"))?;
        config.deadline = Some(Duration::from_millis(ms));
    }
    let detector = Detector::new(&db, config);
    let search = detector.search(&candidate_fps, a.has("explain"));
    let detections = s3_cbcd::vote(&search.votes(&candidate_fps), &detector.config().vote);
    let health = search.health;
    if detections.is_empty() {
        println!("no detection");
    }
    if health.degraded_queries > 0 {
        println!(
            "health: {} degraded queries ({} deadline-cancelled)",
            health.degraded_queries, health.cancelled_queries
        );
    }
    for d in &detections {
        println!(
            "detected {} (id {}) offset {:+.1}, votes {}/{}",
            db.name(d.id).unwrap_or("?"),
            d.id,
            d.offset,
            d.nsim,
            d.ncand
        );
    }
    if a.has("explain") {
        let reports: Vec<_> = search
            .results
            .iter()
            .filter_map(|r| r.explain.as_ref())
            .collect();
        print_explains(reports.into_iter());
    }
    trace_write(trace)?;
    if let Some(path) = metrics_json {
        metrics::dump_json(&path)?;
    }
    let status = if health.degraded_queries > 0 {
        CmdStatus::Degraded
    } else {
        CmdStatus::Clean
    };
    match target {
        Some(t) if detections.iter().any(|d| d.id == t) => {
            println!("OK: correct video identified");
            Ok(status)
        }
        Some(_) => Err("the attacked video was not identified".into()),
        None => Ok(status),
    }
}

fn cmd_monitor(rest: Vec<String>) -> Result<CmdStatus, String> {
    let a = Args::parse_with_switches(
        rest,
        &[
            "archive",
            "stream-frames",
            "seed",
            "threads",
            "deadline-ms",
            "metrics-json",
            "metrics-every",
        ],
        &["strict"],
    )?;
    let (metrics_json, _ticker) = metrics::shared_flags(&a)?;
    let n_archive: usize = a.get_parsed("archive", 6)?;
    let stream_frames: usize = a.get_parsed("stream-frames", 400)?;
    let seed: u64 = a.get_parsed("seed", 11)?;

    eprintln!("building archive of {n_archive} videos ...");
    let mut builder = DbBuilder::new(ExtractorParams::default());
    for i in 0..n_archive {
        let v = ProceduralVideo::new(96, 72, 100, seed ^ ((i as u64) << 20));
        builder.add_video(&format!("archive-{i}"), &v);
    }
    let db = builder.build();

    // Stream: live content with one embedded rerun in the middle.
    let rerun_id = n_archive / 2;
    let live_a = ProceduralVideo::new(96, 72, stream_frames / 2, seed ^ 0xAAAA);
    let rerun_src = ProceduralVideo::new(96, 72, 100, seed ^ ((rerun_id as u64) << 20));
    let rerun = TransformedVideo::new(
        &rerun_src,
        TransformChain::new(vec![Transform::Gamma { wgamma: 1.25 }]),
        5,
    );
    let live_b = ProceduralVideo::new(96, 72, stream_frames / 2, seed ^ 0xBBBB);

    let segs: [(&dyn VideoSource, &str); 3] =
        [(&live_a, "live"), (&rerun, "rerun"), (&live_b, "live")];

    // Calibrate, then monitor.
    let negatives: Vec<_> = (0..3u64)
        .map(|i| {
            let v = ProceduralVideo::new(96, 72, 250, seed ^ 0xCC00 ^ i);
            extract_fingerprints(&v, db.extractor_params())
        })
        .collect();
    let probe = Detector::new(&db, DetectorConfig::default());
    let params = MonitorParams {
        strict: a.has("strict"),
        ..MonitorParams::default()
    };
    let cal = calibrate_monitor_threshold(&probe, &negatives, &params, 25.0, 1.0);
    eprintln!("calibrated n_sim threshold: {}", cal.min_votes);

    let mut config = DetectorConfig::default();
    config.vote.min_votes = cal.min_votes;
    config.threads = a.get_parsed("threads", default_threads())?;
    if let Some(raw) = a.get("deadline-ms") {
        let ms: u64 = raw
            .parse()
            .map_err(|_| format!("invalid value for --deadline-ms: {raw:?}"))?;
        config.deadline = Some(Duration::from_millis(ms));
    }
    let detector = Detector::new(&db, config);
    let mut monitor = Monitor::new(&detector, params);
    // The broadcast arrives frame by frame: one extractor over the whole
    // stream, fingerprints searched in batches as they come out.
    let mut extractor = StreamingExtractor::new(*db.extractor_params());
    let mut pending = Vec::new();
    let mut base = 0usize;
    for (seg, label) in segs {
        eprintln!("  [{base:>5}..] {label}");
        for t in 0..seg.len() {
            pending.extend(extractor.push(seg.frame(t)));
            if pending.len() >= 32 {
                monitor.push(&pending).map_err(|e| e.to_string())?;
                pending.clear();
            }
        }
        base += seg.len();
    }
    pending.extend(extractor.finish());
    monitor.push(&pending).map_err(|e| e.to_string())?;
    let (events, stats) = monitor.finish();
    for e in &events {
        println!(
            "event: {} (id {}) offset {:+.0}, n_sim {}, tc {:.0}..{:.0}",
            detector.db().name(e.id).unwrap_or("?"),
            e.id,
            e.offset,
            e.nsim,
            e.first_tc,
            e.last_tc
        );
    }
    println!(
        "{} fingerprints, {} windows, {:.2?}, real-time factor {:.1}x @25fps",
        stats.fingerprints,
        stats.windows,
        stats.elapsed,
        stats.real_time_factor(25.0)
    );
    if !stats.health.healthy() {
        println!(
            "health: {} out-of-order fingerprints skipped, {} degraded queries",
            stats.health.out_of_order_skipped, stats.health.degraded_queries
        );
    }
    if let Some(path) = metrics_json {
        metrics::dump_json(&path)?;
    }
    if events.iter().any(|e| e.id == rerun_id as u32) {
        println!("OK: embedded rerun detected");
        if !stats.health.healthy() {
            Ok(CmdStatus::Degraded)
        } else {
            Ok(CmdStatus::Clean)
        }
    } else {
        Err("embedded rerun missed".into())
    }
}

fn cmd_metrics(rest: Vec<String>) -> Result<CmdStatus, String> {
    let a = Args::parse(rest, &["format", "queries"])?;
    let format = a.get("format").unwrap_or("table");
    let n_queries: usize = a.get_parsed("queries", 32)?;

    // A small end-to-end workload (extract → index → query) so every stage's
    // instrumentation has data to show; ~a second of work.
    let video = ProceduralVideo::new(96, 72, 60, 0xD1CE);
    let params = ExtractorParams::default();
    let fps = extract_fingerprints(&video, &params);
    let mut batch = RecordBatch::new(20);
    for f in &fps {
        batch.push(&f.fingerprint, 0, f.tc);
    }
    let index = S3Index::build(HilbertCurve::paper(), batch);
    let model = IsotropicNormal::new(20, 15.0);
    let opts = StatQueryOpts::learned(0.8, &index, &model);
    for f in fps.iter().take(n_queries) {
        let _ = index.stat_query(&f.fingerprint, &model, &opts);
    }

    print!("{}", metrics::render(format)?);
    Ok(CmdStatus::Clean)
}
