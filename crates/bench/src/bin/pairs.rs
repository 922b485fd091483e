//! Alternating parent/change pairs of the repository benchmark.
//!
//! Runs two built perfbench binaries — the parent commit's and the
//! change's — on one workload, `--pairs` times each, alternating which
//! side runs first (odd pairs run the parent first), and prints one
//! `BENCH_trajectory.json`-shaped entry: per end-to-end metric, each
//! side's median and quartiles, how many pairs the change won, and the
//! median of the per-pair change/parent ratio; plus whether every run
//! printed `"correct": true` and each side's failed operations.
//!
//! ```text
//! cargo run --release -p sd-bench --bin pairs -- \
//!     --parent <parent perfbench> --change <change perfbench> \
//!     --workload budget --pairs 10 \
//!     [--parent-rev <rev>] [--change-rev <rev>] \
//!     -- --seconds 30 --trace 0 --seed 1 > entry.json
//! ```
//!
//! Arguments after `--` go to both perfbench binaries unchanged. The
//! metric names, units and directions come from `BENCHMARK.json` in the
//! working directory. Progress goes to standard error. Exits 1 when a run
//! reports `"correct": false`, after printing the entry.

use serde_json::{json, Value};
use std::process::{Command, ExitCode};

/// Command-line options.
struct Opts {
    parent: String,
    change: String,
    workload: String,
    pairs: usize,
    parent_rev: String,
    change_rev: String,
    perfbench_args: Vec<String>,
}

const USAGE: &str = "usage: pairs --parent <bin> --change <bin> --workload <name> --pairs <n> \
                     [--parent-rev <rev>] [--change-rev <rev>] [-- <perfbench args>]";

/// The benchmark declaration the metric list is read from.
const BENCHMARK: &str = "BENCHMARK.json";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let split = args.iter().position(|a| a == "--").unwrap_or(args.len());
    let (own, rest) = args.split_at(split);
    let mut opts = Opts {
        parent: String::new(),
        change: String::new(),
        workload: String::new(),
        pairs: 0,
        parent_rev: "unknown".into(),
        change_rev: "unknown".into(),
        perfbench_args: rest.iter().skip(1).cloned().collect(),
    };
    let mut it = own.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--parent" => opts.parent = value,
            "--change" => opts.change = value,
            "--workload" => opts.workload = value,
            "--pairs" => opts.pairs = value.parse().map_err(|e| format!("--pairs {value}: {e}"))?,
            "--parent-rev" => opts.parent_rev = value,
            "--change-rev" => opts.change_rev = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.parent.is_empty() || opts.change.is_empty() || opts.workload.is_empty() {
        return Err("--parent, --change and --workload are required".into());
    }
    if opts.pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }
    Ok(opts)
}

/// One perfbench run's result line and manifest line.
struct Run {
    result: Value,
    manifest: Value,
}

impl Run {
    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Value::as_bool) == Some(true)
    }

    fn failed(&self) -> f64 {
        self.result
            .get("failed")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

/// Runs one perfbench binary and parses its JSON lines.
fn run(bin: &str, opts: &Opts) -> Result<Run, String> {
    let output = Command::new(bin)
        .args(["--workload", &opts.workload])
        .args(&opts.perfbench_args)
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = |prefix: &str| -> Result<Value, String> {
        let text = stdout
            .lines()
            .rev()
            .find(|l| l.starts_with(prefix))
            .ok_or_else(|| {
                format!(
                    "{bin} printed no {prefix}… line (exit {:?}): {}",
                    output.status.code(),
                    String::from_utf8_lossy(&output.stderr).trim()
                )
            })?;
        serde_json::from_str(text).map_err(|e| format!("{bin}: {e}"))
    };
    let result = line("{\"correct\"")?;
    // A run that aborts prints a result line but no manifest.
    let manifest = line("{\"manifest\"")
        .ok()
        .and_then(|m| m.get("manifest").cloned())
        .unwrap_or(Value::Null);
    Ok(Run { result, manifest })
}

/// Type-7 quartiles and median.
fn spread(values: &[f64]) -> Value {
    let q = |p: f64| sd_stats::quantile(values, p);
    json!({ "q1": q(0.25), "median": q(0.5), "q3": q(0.75) })
}

/// The entry's per-metric block, for every end-to-end metric of the
/// benchmark both sides reported in every pair.
fn metrics(benchmark: &Value, parent: &[Run], change: &[Run]) -> Value {
    let mut out = std::collections::BTreeMap::new();
    let declared = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .map_or(&[][..], Vec::as_slice);
    for metric in declared {
        let (Some(name), Some(unit), Some(better)) = (
            metric.get("name").and_then(Value::as_str),
            metric.get("unit").and_then(Value::as_str),
            metric.get("better").and_then(Value::as_str),
        ) else {
            continue;
        };
        let pairs: Option<Vec<(f64, f64)>> = parent
            .iter()
            .zip(change)
            .map(|(p, c)| Some((p.metric(name)?, c.metric(name)?)))
            .collect();
        let Some(pairs) = pairs else {
            continue;
        };
        let (p, c): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
        let wins = pairs
            .iter()
            .filter(|(p, c)| if better == "lower" { c < p } else { c > p })
            .count();
        let ratios: Vec<f64> = pairs.iter().map(|(p, c)| c / p).collect();
        out.insert(
            name.to_string(),
            json!({
                "unit": unit,
                "better": better,
                "parent": spread(&p),
                "change": spread(&c),
                "change_wins": wins,
                "pair_ratio_median": sd_stats::median(&ratios),
            }),
        );
    }
    Value::Object(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("pairs: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let benchmark = match std::fs::read_to_string(BENCHMARK)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
    {
        Ok(benchmark) => benchmark,
        Err(e) => {
            eprintln!("pairs: {BENCHMARK}: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    for pair in 0..opts.pairs {
        let parent_first = pair % 2 == 0;
        let order: [(&str, bool); 2] = if parent_first {
            [(&opts.parent, true), (&opts.change, false)]
        } else {
            [(&opts.change, false), (&opts.parent, true)]
        };
        for (bin, is_parent) in order {
            match run(bin, &opts) {
                Ok(r) if is_parent => parent.push(r),
                Ok(r) => change.push(r),
                Err(e) => {
                    eprintln!("pairs: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        eprintln!("pairs: {}/{} done", pair + 1, opts.pairs);
    }
    let all_correct = parent.iter().chain(&change).all(Run::correct);
    let host = |key: &str| {
        change
            .iter()
            .find_map(|r| r.manifest.get(key).cloned())
            .unwrap_or(Value::Null)
    };
    let entry = json!({
        "workload": opts.workload,
        "parent_rev": opts.parent_rev,
        "change_rev": opts.change_rev,
        "command": format!(
            "perfbench --workload {} {}",
            opts.workload,
            opts.perfbench_args.join(" ")
        ),
        "host": json!({ "nproc": host("nproc"), "rustc": host("rustc") }),
        "pairs": opts.pairs,
        "order": "alternating: odd pairs run the parent first",
        "all_correct": all_correct,
        "failed_operations": json!({
            "parent": parent.iter().map(Run::failed).sum::<f64>(),
            "change": change.iter().map(Run::failed).sum::<f64>(),
        }),
        "metrics": metrics(&benchmark, &parent, &change),
    });
    let text = match serde_json::to_string_pretty(&entry) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("pairs: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{text}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("pairs: a run reported \"correct\": false");
        ExitCode::FAILURE
    }
}
