//! `s3-benchmark` — the frozen end-to-end + per-layer benchmark of the S³
//! CBCD system. See `README.md` beside this package for what is measured
//! and why; `BENCHMARK.json` at the repository root is the catalog.
//!
//! ```text
//! s3-benchmark --workload NAME|all --seed N [--seconds S] [--trace 0|1] [--smoke]
//! s3-benchmark suite [--repeats R] [--seed N] [--seconds S] [--label L] [--out FILE]
//! s3-benchmark compare A B        (suite documents, or directories of them)
//! ```
//!
//! One process runs one workload in one mode, so `peak_rss_mb` is per
//! workload; `all` and `suite` re-execute this binary per run. The last
//! line of a run's standard output is its result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`,
//! the end-to-end metrics untraced (`--trace 0`) and the per-layer metrics
//! traced (`--trace 1`). The line before it (`schema: s3.bench.v1`) says
//! what was run: inputs digest, sample counts, gates, storage, threads.

mod catalog;
mod compare;
mod harness;
mod inputs;
mod stats;
mod trace;
mod workloads;

use harness::{Backing, Config, Report};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Default measured time of a run, seconds (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

/// Command-line options of a run or a suite.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub repeats: usize,
    pub label: String,
    pub out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: "all".into(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeats: 3,
        label: "run".into(),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" | "--duration-s" => {
                out.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeats" => {
                out.repeats = value.parse().map_err(|_| bad("a whole number"))?;
                if out.repeats == 0 {
                    return Err(bad("at least 1"));
                }
            }
            "--label" => out.label = value.clone(),
            "--out" => out.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(out)
}

/// A finite number as JSON, with all its digits.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

/// Lines a run prints: what was run, then the result.
fn render(workload: &str, args: &Args, cfg: &Config, rep: &Report) -> Result<String, String> {
    let catalog = catalog::metrics_for(cfg.trace);
    if let Some((name, _)) = rep
        .metrics
        .iter()
        .find(|(name, _)| !catalog.iter().any(|m| m.name == *name))
    {
        return Err(format!(
            "{workload} emitted {name}, which the catalog does not list"
        ));
    }
    let mut detail = String::new();
    let _ = write!(
        detail,
        "{{\"schema\":\"s3.bench.v1\",\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"storage\":\"{}\",\"threads\":{},\"passes\":{},\"inputs_digest\":{},\"samples\":{{",
        args.seed,
        json_num(args.seconds),
        u8::from(cfg.trace),
        cfg.smoke,
        cfg.backing.describe().replace(['"', '\\'], "_"),
        std::thread::available_parallelism().map_or(1, usize::from),
        rep.passes,
        rep.inputs_digest,
    );
    for (i, (name, n)) in rep.samples.iter().enumerate() {
        let _ = write!(detail, "{}\"{name}\":{n}", if i == 0 { "" } else { "," });
    }
    // Whether `op_ms_p99` has the ten samples beyond it that make it a
    // percentile and not just the slowest operation.
    let _ = write!(
        detail,
        "}},\"op_p99_supported\":{},\"gates\":{{",
        stats::tail_supported(rep.samples.get("op").copied().unwrap_or(0), 99.0)
    );
    for (i, (name, ok)) in rep.gates.iter().enumerate() {
        let _ = write!(detail, "{}\"{name}\":{ok}", if i == 0 { "" } else { "," });
    }
    detail.push_str("}}");

    let mut result = String::new();
    let _ = write!(
        result,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        rep.failed == 0,
        rep.attempted.max(1),
        rep.failed
    );
    for (i, def) in catalog.iter().enumerate() {
        // Per-layer: a layer the workload does not exercise reads 0.
        // End-to-end: every workload measures every metric.
        let value = match rep.metrics.iter().find(|(name, _)| *name == def.name) {
            Some((_, v)) => *v,
            None if cfg.trace => 0.0,
            None => return Err(format!("{workload} did not measure {}", def.name)),
        };
        let _ = write!(
            result,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            def.name,
            json_num(value),
            def.unit
        );
    }
    result.push_str("}}");
    Ok(format!("{detail}\n{result}"))
}

/// Runs one workload in this process and prints its two lines.
fn run_one(args: &Args) -> ExitCode {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        backing: Backing::from_env(),
    };
    let rep = workloads::run(&args.workload, &cfg);
    cfg.backing.cleanup();
    let Some(rep) = rep else {
        eprintln!(
            "unknown workload {:?}; known: {}",
            args.workload,
            workload_names()
        );
        return ExitCode::from(1);
    };
    for (gate, ok) in &rep.gates {
        if !ok {
            eprintln!("{}: gate failed: {gate}", args.workload);
        }
    }
    match render(&args.workload, args, &cfg, &rep) {
        Ok(lines) => {
            println!("{lines}");
            if rep.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn workload_names() -> String {
    let names: Vec<_> = catalog::WORKLOADS.iter().map(|(n, _)| *n).collect();
    names.join(", ")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("compare") => {
            return match (argv.get(1), argv.get(2), argv.len()) {
                (Some(a), Some(b), 3) => compare::compare(a.as_ref(), b.as_ref()),
                _ => {
                    eprintln!("usage: s3-benchmark compare A.json B.json");
                    ExitCode::from(1)
                }
            }
        }
        Some("suite") => ("suite", &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if command == "suite" || args.workload == "all" {
        let repeats = if command == "suite" { args.repeats } else { 1 };
        return compare::suite(&args, repeats);
    }
    run_one(&args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_obs::JsonValue;
    use std::collections::BTreeSet;

    fn smoke(workload: &str, trace: bool) -> (Config, Report) {
        let cfg = Config {
            seed: 7,
            seconds: 0.0,
            trace,
            smoke: true,
            backing: Backing::Mem,
        };
        let rep = workloads::run(workload, &cfg).expect("known workload");
        (cfg, rep)
    }

    fn names(list: &JsonValue) -> Vec<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json`, the catalog and what a run emits list the same
    /// workloads and metrics — checked in both directions.
    #[test]
    fn catalog_benchmark_json_and_smoke_runs_agree() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("valid JSON");

        let listed = names(doc.get("workloads").expect("workloads"));
        let known: Vec<_> = catalog::WORKLOADS
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(listed, known);
        for (key, defs) in [
            ("end_to_end", catalog::END_TO_END),
            ("per_layer", catalog::PER_LAYER),
        ] {
            let list = doc.get(key).expect(key);
            let known: Vec<_> = defs.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(names(list), known, "{key} names");
            for (entry, def) in list.as_array().expect("a list").iter().zip(defs) {
                let field = |k: &str| entry.get(k).and_then(JsonValue::as_str).map(str::to_string);
                assert_eq!(field("unit").as_deref(), Some(def.unit), "{}", def.name);
                assert_eq!(
                    field("better").as_deref(),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(JsonValue::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }

        let args = parse_args(&[]).expect("defaults");
        let mut layer_names_seen = BTreeSet::new();
        for (workload, _) in catalog::WORKLOADS {
            for trace in [false, true] {
                let (cfg, rep) = smoke(workload, trace);
                assert_eq!(
                    rep.failed, 0,
                    "{workload} trace={trace}: gates {:?}",
                    rep.gates
                );
                let lines = render(workload, &args, &cfg, &rep).expect("renders");
                let result = JsonValue::parse(lines.lines().last().expect("a line")).expect("JSON");
                let emitted: Vec<_> = result
                    .get("metrics")
                    .and_then(JsonValue::as_object)
                    .expect("metrics")
                    .keys()
                    .cloned()
                    .collect();
                let mut expected: Vec<_> = catalog::metrics_for(trace)
                    .iter()
                    .map(|m| m.name.to_string())
                    .collect();
                expected.sort();
                assert_eq!(emitted, expected, "{workload} trace={trace}");
                if trace {
                    layer_names_seen.extend(rep.metrics.iter().map(|(n, _)| *n));
                } else {
                    for (name, v) in &rep.metrics {
                        assert!(*v > 0.0, "{workload}: {name} = {v} must never be 0");
                    }
                }
            }
        }
        // Every per-layer metric is measured by at least one workload.
        let known: BTreeSet<_> = catalog::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(layer_names_seen, known);
    }

    #[test]
    fn digest_is_stable_for_a_seed_and_differs_across_seeds() {
        let a = harness::Archive::new(2_000, 16, 3).digest();
        let b = harness::Archive::new(2_000, 16, 3).digest();
        let c = harness::Archive::new(2_000, 16, 4).digest();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = parse(&[
            "--workload",
            "mem_tuned",
            "--seed",
            "9",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mem_tuned", 9, 2.0, true)
        );
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate", "1"]).is_err());
    }
}
