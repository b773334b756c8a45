//! `s3cbcd` — command-line front end of the S³ copy-detection system.
//!
//! Operates on one archive file (the pseudo-disk index format) and the
//! synthetic video library:
//!
//! ```text
//! s3cbcd build <index-file> [video.y4m ...] [--videos N] [--frames N] [--seed S]
//! s3cbcd info <index-file>
//! s3cbcd query <index-file> [--alpha A] [--sigma S] [--depth P] [--queries N] [--mem MB]
//! s3cbcd detect [ref.y4m ... | --index F] [--candidate FILE] ... (see `help`)
//! s3cbcd monitor [--index F | --archive N] [--stream-frames N] [--seed S] [--dashboard DIR]
//! ```
//!
//! `build` fingerprints a library and saves it as one archive file
//! (`ReferenceDb::save`); `info`/`query` exercise the index layer against
//! that file. `detect` and `monitor` run the full CBCD pipeline against an
//! archive loaded into memory: the file `--index` names, or a library they
//! fingerprint themselves (synthetic material is the substitute for real
//! broadcast capture, see DESIGN.md).
//! `query`, `detect` and `monitor` accept `--metrics-json <path>`: a JSON
//! snapshot of every counter, gauge and histogram of the run, written on
//! exit. That and `monitor --dashboard` (frames on stderr, `s3.incident.v1`
//! dumps) are the ways a run's metrics leave the process.

mod args;
mod dashboard;
mod faults;

use args::Args;
use s3_cbcd::{
    calibrate_monitor_threshold, DbBuilder, Detector, DetectorConfig, Monitor, ReferenceDb,
    FRAME_RATE,
};
use s3_core::autotune::{self, RecordCounts};
use s3_core::parallel::default_threads;
use s3_core::pseudo_disk::{DiskIndex, RetryPolicy};
use s3_core::{
    system_clock, FaultyStorage, FileStorage, IndexError, IsotropicNormal, QueryCtx, StatQueryOpts,
    Storage,
};
use s3_video::{
    extract_fingerprints, render_ahead, ExtractorParams, ProceduralVideo, StreamingExtractor,
    Transform, TransformChain, TransformedVideo, VideoSource, Y4mVideo,
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
        "incident" => dashboard::cmd_incident(rest),
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
      save them as one archive file, nothing beside it: the pseudo-disk
      index plus the video names, extraction parameters and positions.
  s3cbcd info <index-file>
      Print header information of an index file.
  s3cbcd query <index-file> [--alpha A] [--sigma S] [--queries N] [--mem MB]
                [--depth P] [--strict] [--explain]
      Run N synthetic mid-range probes (drawn from --seed, independent of
      the archive's contents) through the pseudo-disk engine and report
      matches, filter/refine work, sections read and timing. Without
      --depth the partition depth is learned on the batch's own first
      queries, from filter and record counts (printed as
      `depth p : P (learned)`). By default unreadable index sections are
      retried then skipped (degraded results); --strict makes that a hard
      error instead.
  s3cbcd explain <index-file> [query flags]
      Shorthand for `query --explain`: per query, print the plan the
      statistical filter chose (selected p-blocks with predicted mass),
      what refinement actually scanned and matched per block, per-phase
      timings, and every degradation annotation.
  s3cbcd detect [ref.y4m ... | --index F] [--candidate FILE] [--videos N]
                [--frames N] [--seed S] [--attack NAME]
      Load the archive file F built by `build`, or fingerprint a reference
      library (.y4m files or a synthetic one), then detect a candidate:
      either --candidate FILE (required with .y4m references or --index),
      or an attacked copy of one synthetic reference.
      Attacks: resize | shift | gamma | contrast | noise | combo
  s3cbcd monitor [--index F | --archive N] [--stream-frames N] [--seed S]
                 [--dashboard DIR]
      Monitor a synthetic broadcast with an embedded rerun against the
      archive file F (as `build --frames 100 --seed S` writes it) or a
      synthetic archive of N videos: vote windows of 30 key-frames (10
      shared), calibrated to one false alarm an hour at 25 fps; report
      events, the real-time factor and a stream-health summary.
      --dashboard DIR arms the ops plane over the stream: after every
      searched batch, one plain-text frame on stderr (real-time factor and
      detections per stream hour so far, windowed rates, search latency
      p50/p99, health-rule verdicts). When health leaves Healthy, the
      flight recorder dumps an s3.incident.v1 report into DIR. Stdout and
      the exit status are the same with or without it.
  s3cbcd incident <report.json>
      Pretty-print a flight-recorder incident dump (s3.incident.v1):
      trigger, health rules, windowed rates, slowest spans, recent events
      and component state.

  query/detect/monitor also accept:
      --threads N             worker threads for the search stage only
                              (default: all available cores); frame
                              rendering for extraction always uses every
                              core
      --deadline-ms N         latency budget per search batch; past it the
                              remaining work is skipped and results come
                              back partial, flagged degraded
      --metrics-json <path>   write a JSON metrics snapshot on exit

  query/detect also accept:
      --explain               print per-query EXPLAIN reports (plan vs.
                              actual work, with degradation annotations)
      --trace-out <path>      capture all spans of the run and write them
                              as Chrome trace-event JSON (load the file in
                              Perfetto or chrome://tracing)

  query also accepts:
      --fault <scenario>      inject seeded storage faults into the index
                              file: none | torn | stall | mixed
      --fault-seed <S>        fault schedule seed (default: --seed), so a
                              degraded run reproduces exactly

EXIT CODES:
  0  complete results
  1  hard error (bad arguments, I/O failure, a --strict query's fault)
  2  results produced but partial: sections skipped or deadline hit";

/// Builds the query context: a system-clock deadline when `--deadline-ms`
/// is given, unbounded otherwise; asking for EXPLAIN when `explain` is set.
fn query_ctx(a: &Args, explain: bool) -> Result<QueryCtx, String> {
    let ctx = match deadline(a)? {
        Some(budget) => QueryCtx::with_deadline(system_clock(), budget),
        None => QueryCtx::unbounded(),
    };
    Ok(if explain { ctx.explain() } else { ctx })
}

/// `--deadline-ms N`, if given.
fn deadline(a: &Args) -> Result<Option<Duration>, String> {
    let ms = a.get("deadline-ms").map(|_| a.get_parsed("deadline-ms", 0));
    Ok(ms.transpose()?.map(Duration::from_millis))
}

/// The detector of `detect` and `monitor`: the calibrated vote threshold,
/// `--threads` and `--deadline-ms`.
fn detector_config(a: &Args, min_votes: usize) -> Result<DetectorConfig, String> {
    let mut config = DetectorConfig::default();
    config.vote.min_votes = min_votes;
    config.threads = a.get_parsed("threads", default_threads())?;
    config.deadline = deadline(a)?;
    Ok(config)
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

/// Applies `--metrics-json FILE`: writes a JSON snapshot of the global
/// registry, every counter, gauge and histogram the run recorded.
fn metrics_write(a: &Args) -> Result<(), String> {
    let Some(path) = a.get("metrics-json") else {
        return Ok(());
    };
    let json = s3_obs::registry().snapshot().to_json();
    std::fs::write(path, json).map_err(|e| format!("writing metrics to {path}: {e}"))?;
    eprintln!("metrics snapshot written to {path}");
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

/// Procedural video `i` of the synthetic library seeded by `seed`.
fn synthetic_video(i: usize, frames: usize, seed: u64) -> ProceduralVideo {
    ProceduralVideo::new(96, 72, frames, seed ^ ((i as u64) << 20))
}

/// Fingerprints a reference library into a database: the `.y4m` `files`,
/// each named by its path, or when there are none `n` synthetic videos of
/// `frames` frames named `video-<i>`.
fn register(files: &[String], n: usize, frames: usize, seed: u64) -> Result<ReferenceDb, String> {
    let mut builder = DbBuilder::new(ExtractorParams::default());
    for file in files {
        let video = Y4mVideo::open(file).map_err(|e| e.to_string())?;
        eprintln!("fingerprinting {file} ({} frames) ...", video.len());
        builder.add_video(file, &video);
    }
    if files.is_empty() {
        eprintln!("fingerprinting {n} synthetic videos of {frames} frames ...");
        for i in 0..n {
            builder.add_video(&format!("video-{i}"), &synthetic_video(i, frames, seed));
        }
    }
    eprintln!("indexing {} fingerprints ...", builder.fingerprint_count());
    Ok(builder.build())
}

fn cmd_build(rest: Vec<String>) -> Result<CmdStatus, String> {
    let a = Args::parse(rest, &["videos", "frames", "seed"])?;
    let path = a.positional(0).ok_or("build needs an output path")?;
    let n_videos: usize = a.get_parsed("videos", 8)?;
    let frames: usize = a.get_parsed("frames", 100)?;
    let seed: u64 = a.get_parsed("seed", 1)?;

    let db = register(a.positionals_from(1), n_videos, frames, seed)?;
    db.save(path).map_err(|e| e.to_string())?;
    let disk = DiskIndex::open(path).map_err(|e| e.to_string())?;
    println!(
        "wrote {path}: {} records, {} data bytes",
        db.fingerprint_count(),
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
            "trace-out",
            "fault",
            "fault-seed",
        ],
        &["strict", "explain"],
    )?;
    let explain = force_explain || a.has("explain");
    let trace = trace_setup(&a);
    let path = a.positional(0).ok_or("query needs an index path")?;
    let alpha: f64 = a.get_parsed("alpha", 0.8)?;
    let sigma: f64 = a.get_parsed("sigma", 15.0)?;
    let n_queries: usize = a.get_parsed("queries", 100)?;
    let mem_mb: u64 = a.get_parsed("mem", 256)?;
    let seed: u64 = a.get_parsed("seed", 7)?;

    let threads: usize = a.get_parsed("threads", default_threads())?;
    let ctx = query_ctx(&a, explain)?;
    // `--fault` wraps the file in seeded fault-injecting storage, so a
    // degraded run reproduces from its command line alone.
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
    metrics_write(&a)?;
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

fn cmd_detect(rest: Vec<String>) -> Result<CmdStatus, String> {
    let a = Args::parse_with_switches(
        rest,
        &[
            "videos",
            "frames",
            "seed",
            "attack",
            "candidate",
            "index",
            "threads",
            "deadline-ms",
            "metrics-json",
            "trace-out",
        ],
        &["explain"],
    )?;
    let trace = trace_setup(&a);
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

    let files = a.positionals_from(0);
    let index = a.get("index");
    if index.is_some() && !files.is_empty() {
        return Err("pass either .y4m references or --index, not both".into());
    }
    // Only a synthetic library knows which of its videos to attack.
    if a.get("candidate").is_none() && (index.is_some() || !files.is_empty()) {
        return Err("with .y4m references or --index, pass --candidate FILE".into());
    }
    let db = match index {
        Some(path) => ReferenceDb::load(path).map_err(|e| e.to_string())?,
        None => register(files, n_videos, frames, seed)?,
    };
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
        } else {
            let t = n_videos / 2;
            let original = synthetic_video(t, frames, seed);
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
    let cal = s3_cbcd::calibrate_threshold(&probe, &negatives);
    eprintln!("calibrated n_sim threshold: {}", cal.min_votes);

    let detector = Detector::new(&db, detector_config(&a, cal.min_votes)?);
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
    metrics_write(&a)?;
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
    let a = Args::parse(
        rest,
        &[
            "archive",
            "index",
            "stream-frames",
            "seed",
            "threads",
            "deadline-ms",
            "metrics-json",
            "dashboard",
        ],
    )?;
    let stream_frames: usize = a.get_parsed("stream-frames", 400)?;
    let seed: u64 = a.get_parsed("seed", 11)?;
    let db = match a.get("index") {
        Some(_) if a.get("archive").is_some() => {
            return Err("pass either --index or --archive, not both".into())
        }
        Some(path) => ReferenceDb::load(path).map_err(|e| e.to_string())?,
        None => register(&[], a.get_parsed("archive", 6)?, 100, seed)?,
    };

    // Stream: live content with one embedded rerun of archive video
    // `rerun_id` (100 frames, as the synthetic library makes them) in the
    // middle.
    let rerun_id = db.video_count() / 2;
    let live_a = ProceduralVideo::new(96, 72, stream_frames / 2, seed ^ 0xAAAA);
    let rerun_src = synthetic_video(rerun_id, 100, seed);
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
    let cal = calibrate_monitor_threshold(&probe, &negatives);
    eprintln!("calibrated n_sim threshold: {}", cal.min_votes);

    let detector = Detector::new(&db, detector_config(&a, cal.min_votes)?);
    let mut monitor = Monitor::new(&detector);
    // No ops object is built unless the dashboard is asked for.
    let mut dashboard = a
        .get("dashboard")
        .map(|dir| dashboard::Dashboard::arm(dir.into(), &db));
    // The broadcast arrives frame by frame: one extractor over the whole
    // stream, fingerprints searched in batches as they come out.
    let mut extractor = StreamingExtractor::new(*db.extractor_params());
    let mut pending = Vec::new();
    let mut base = 0usize;
    for (seg, label) in segs {
        eprintln!("  [{base:>5}..] {label}");
        render_ahead(seg, |frame| {
            pending.extend(extractor.push(frame));
            if pending.len() >= 32 {
                monitor.push(&pending);
                pending.clear();
                if let Some(d) = dashboard.as_mut() {
                    d.tick(&monitor)?;
                }
            }
            Ok::<_, String>(())
        })?;
        base += seg.len();
    }
    pending.extend(extractor.finish());
    monitor.push(&pending);
    if let Some(d) = dashboard.as_mut() {
        d.tick(&monitor)?;
        d.finish();
    }
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
        "{} fingerprints, {} windows, {:.2?}, real-time factor {:.1}x @{FRAME_RATE}fps",
        stats.fingerprints,
        stats.windows,
        stats.elapsed,
        stats.real_time_factor()
    );
    if !stats.health.healthy() {
        println!(
            "health: {} out-of-order fingerprints skipped, {} degraded queries",
            stats.health.out_of_order_skipped, stats.health.degraded_queries
        );
    }
    metrics_write(&a)?;
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
