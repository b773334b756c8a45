//! `suite` — runs every workload, untraced and traced, `R` times
//! interleaved and writes one `s3.bench.v1` document with each metric's
//! median and quartiles; `compare` — judges two such documents against the
//! catalog's directions and bounds, one row per workload and metric.

use crate::catalog::{self, Better, MetricDef};
use crate::stats::{median, quartiles, spread};
use crate::Args;
use s3_obs::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

/// Derived by the suite, not by a run: how much slower the traced run's
/// median operation is than the untraced one's.
const TRACE_OVERHEAD: MetricDef = MetricDef {
    name: "trace_overhead_pct",
    unit: "%",
    better: Better::Lower,
    bound: None,
};

/// What the runs of one workload add up to.
#[derive(Default)]
struct WorkloadRuns {
    values: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    digests: Vec<u64>,
}

/// Runs one workload in one mode in a child process; returns its two
/// parsed output lines `(detail, result)`.
fn run_child(
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<(JsonValue, JsonValue), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child and collects what it printed.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| {
        line.and_then(|l| JsonValue::parse(l).ok()).ok_or_else(|| {
            format!(
                "{workload} (trace {}) printed no result; exit {}",
                u8::from(trace),
                out.status
            )
        })
    };
    let result = parse(lines.next())?;
    let detail = parse(lines.next())?;
    Ok((detail, result))
}

fn fold(runs: &mut WorkloadRuns, detail: &JsonValue, result: &JsonValue) {
    let num = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    runs.attempted += num(result, "attempted") as u64;
    runs.failed += num(result, "failed") as u64;
    runs.digests.push(num(detail, "inputs_digest") as u64);
    if let Some(metrics) = result.get("metrics").and_then(JsonValue::as_object) {
        for (name, m) in metrics {
            runs.values
                .entry(name.clone())
                .or_default()
                .push(num(m, "value"));
        }
    }
}

/// Runs the whole matrix and prints (and optionally writes) the document.
pub fn suite(args: &Args, repeats: usize) -> ExitCode {
    let mut all: BTreeMap<&str, WorkloadRuns> = BTreeMap::new();
    for r in 0..repeats {
        for (workload, _) in catalog::WORKLOADS {
            for trace in [false, true] {
                let seed = args.seed + r as u64;
                eprintln!(
                    "[{}/{repeats}] {workload} seed {seed} trace {}",
                    r + 1,
                    u8::from(trace)
                );
                match run_child(args, workload, seed, trace) {
                    Ok((detail, result)) => {
                        fold(all.entry(workload).or_default(), &detail, &result)
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
        }
    }

    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"schema\":\"s3.bench.v1\",\"label\":\"{}\",\"seed\":{},\"seconds\":{},\"repeats\":{repeats},\"smoke\":{},\"workloads\":{{",
        args.label.replace(['"', '\\'], "_"),
        args.seed,
        args.seconds,
        args.smoke
    );
    let mut failed = 0;
    for (wi, (workload, _)) in catalog::WORKLOADS.iter().enumerate() {
        let runs = &mut all.get_mut(workload).expect("every workload ran");
        failed += runs.failed;
        if let (Some(traced), Some(plain)) = (
            runs.values.get("trace.op_ms_p50"),
            runs.values.get("op_ms_p50"),
        ) {
            let overhead = (median(traced) / median(plain) - 1.0) * 100.0;
            runs.values
                .insert(TRACE_OVERHEAD.name.into(), vec![overhead]);
        }
        let _ = write!(
            doc,
            "{}\n\"{workload}\":{{\"attempted\":{},\"failed\":{},\"inputs_digests\":{:?},\"metrics\":{{",
            if wi == 0 { "" } else { "," },
            runs.attempted,
            runs.failed,
            // One digest per seed: the untraced and the traced run of a
            // seed must have measured the same inputs.
            runs.digests
        );
        let defs = catalog::END_TO_END
            .iter()
            .chain(catalog::PER_LAYER)
            .chain([&TRACE_OVERHEAD]);
        for (mi, def) in defs
            .filter(|d| runs.values.contains_key(d.name))
            .enumerate()
        {
            let values = &runs.values[def.name];
            let (q1, q3) = quartiles(values);
            let bound = def.bound.map_or("null".into(), |b| b.to_string());
            let _ = write!(
                doc,
                "{}\n  \"{}\":{{\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{bound},\"median\":{},\"q1\":{q1},\"q3\":{q3},\"values\":{values:?}}}",
                if mi == 0 { "" } else { "," },
                def.name,
                def.unit,
                def.better.as_str(),
                median(values),
            );
        }
        doc.push_str("}}");
    }
    doc.push_str("}}\n");
    print!("{doc}");
    if let Some(path) = &args.out {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, &doc));
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("wrote {}", path.display());
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// How one metric of one workload moved from A to B.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of A's median by which B's median is worse (negative: better).
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

/// Pairs below which no gain is claimed.
const MIN_PAIRS_FOR_A_GAIN: usize = 10;

/// Judges a bounded metric: unresolved when either side's own spread
/// (interquartile range over median) exceeds the bound; worse beyond the
/// bound. Better takes all of: at least ten pairs (run `i` of A against run
/// `i` of B), B winning nine tenths of them, and a gain larger than A's own
/// spread.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let w = worsening(a, b, better);
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
        .count();
    if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Worse
    } else if pairs >= MIN_PAIRS_FOR_A_GAIN && wins * 10 >= pairs * 9 && -w > spread(a) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Reads one suite document, or every `*.json` document of a directory
/// pooled into one side (the ten alternating runs of an A/B comparison).
fn load(path: &Path) -> Result<BTreeMap<String, WorkloadRuns>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        files.extend(
            entries
                .filter_map(|e| Some(e.ok()?.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json")),
        );
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut side: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = JsonValue::parse(&text).map_err(|e| format!("{}: {e:?}", file.display()))?;
        if doc.get("schema").and_then(JsonValue::as_str) != Some("s3.bench.v1") {
            return Err(format!(
                "{}: not an s3.bench.v1 suite document",
                file.display()
            ));
        }
        let workloads = doc.get("workloads").and_then(JsonValue::as_object);
        for (name, w) in workloads.into_iter().flatten() {
            let runs = side.entry(name.clone()).or_default();
            let num = |k: &str| w.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            let list = |v: Option<&JsonValue>| -> Vec<f64> {
                v.and_then(JsonValue::as_array).map_or(Vec::new(), |l| {
                    l.iter().filter_map(JsonValue::as_f64).collect()
                })
            };
            runs.attempted += num("attempted") as u64;
            runs.failed += num("failed") as u64;
            runs.digests
                .extend(list(w.get("inputs_digests")).iter().map(|d| *d as u64));
            for (metric, m) in w
                .get("metrics")
                .and_then(JsonValue::as_object)
                .into_iter()
                .flatten()
            {
                runs.values
                    .entry(metric.clone())
                    .or_default()
                    .extend(list(m.get("values")));
            }
        }
    }
    if side.is_empty() {
        return Err(format!(
            "{}: no suite document with workloads",
            path.display()
        ));
    }
    Ok(side)
}

/// Compares side B against side A (each a suite document or a directory
/// of them). Exits non-zero on any `worse` row or a higher failure rate.
pub fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let mut regressed = false;
    println!(
        "{:<15} {:<34} {:>13} {:>13} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for (workload, _) in catalog::WORKLOADS {
        let (Some(wa), Some(wb)) = (a.get(*workload), b.get(*workload)) else {
            println!("{workload:<15} missing on one side");
            regressed = true;
            continue;
        };
        let fail_rate = |w: &WorkloadRuns| w.failed as f64 / w.attempted.max(1) as f64;
        if fail_rate(wb) > fail_rate(wa) {
            println!(
                "{workload:<15} fail_rate {} -> {}: worse",
                fail_rate(wa),
                fail_rate(wb)
            );
            regressed = true;
        }
        if wa.digests != wb.digests {
            println!("{workload:<15} different inputs (digests differ): timings do not compare");
        }
        for def in catalog::END_TO_END.iter().chain(catalog::PER_LAYER) {
            let (Some(va), Some(vb)) = (wa.values.get(def.name), wb.values.get(def.name)) else {
                continue;
            };
            // A layer this workload does not exercise reads 0 on both sides.
            if def.bound.is_none() && median(va) == 0.0 && median(vb) == 0.0 {
                continue;
            }
            let change = worsening(va, vb, def.better);
            let (verdict, bound) = match def.bound {
                Some(bound) => (
                    judge(va, vb, def.better, bound).as_str(),
                    format!("{:.0}%", bound * 100.0),
                ),
                // Per-layer: reported, not judged.
                None => ("", "-".into()),
            };
            regressed |= verdict == Verdict::Worse.as_str();
            println!(
                "{workload:<15} {:<34} {:>13.4} {:>13.4} {:>+8.1}% {bound:>7}  {verdict}",
                def.name,
                median(va),
                median(vb),
                // Shown in the metric's own direction: + is an increase.
                match def.better {
                    Better::Lower => change * 100.0,
                    Better::Higher => -change * 100.0,
                },
            );
        }
    }
    if regressed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Ten pairs, A steady around 100.
        let a: Vec<f64> = (0..10).map(|i| 99.0 + f64::from(i % 3)).collect();
        let shifted = |by: f64| a.iter().map(|v| v + by).collect::<Vec<_>>();
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(&a, &shifted(20.0), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &shifted(5.0), Better::Lower, 0.1),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&a, &shifted(-20.0), Better::Lower, 0.1),
            Verdict::Better
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            judge(&a, &shifted(-20.0), Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &shifted(20.0), Better::Higher, 0.1),
            Verdict::Better
        );
        // Fewer than ten pairs claim no gain, however large.
        assert_eq!(
            judge(&a[..9], &shifted(-20.0)[..9], Better::Lower, 0.1),
            Verdict::WithinBound
        );
        // Neither does a gain B wins in fewer than nine pairs of ten ...
        let mut mixed = shifted(-5.0);
        mixed[0] = a[0] + 1.0;
        mixed[1] = a[1] + 1.0;
        assert_eq!(judge(&a, &mixed, Better::Lower, 0.1), Verdict::WithinBound);
        // ... or one inside A's own spread.
        assert_eq!(
            judge(&a, &shifted(-0.5), Better::Lower, 0.1),
            Verdict::WithinBound
        );
        // A side noisier than the bound resolves nothing.
        let noisy: Vec<f64> = (0..10).map(|i| 80.0 + 8.0 * f64::from(i)).collect();
        assert_eq!(
            judge(&noisy, &shifted(100.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
