//! The repository benchmark: three workloads run through the library's
//! public entry points with their shipped defaults, each checked for
//! correct output, reported as end-to-end metrics (`--trace 0`) or, in a
//! separate traced run, as per-layer metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload replicate --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! The line before it is a manifest (host, toolchain, inputs, rationale).
//! See `perfbench/README.md` for what each metric measures.

mod budget;
mod replay;
mod replicate;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Every end-to-end metric, with its unit: every workload reports each.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("max_rows_per_s", "rows/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, with its unit. A workload reports 0 for a layer
/// it never runs.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("cleaning.model_fit_s", "s"),
    ("cleaning.model_fit_calls", "count"),
    ("cleaning.clean_patch_s", "s"),
    ("cleaning.cells_changed", "count"),
    ("cleaning.context_s", "s"),
    ("glitch.fit_s", "s"),
    ("glitch.detect_s", "s"),
    ("glitch.redetect_s", "s"),
    ("glitch.redetect_series", "count"),
    ("sampling.sample_pair_s", "s"),
    ("emd.signature_cache_s", "s"),
    ("emd.patched_cloud_s", "s"),
    ("core.kernel.prepare_s", "s"),
    ("core.kernel.score_patch_s", "s"),
    ("core.kernel.score_patch_calls", "count"),
    ("core.kernel.score_edits_s", "s"),
    ("core.kernel.score_edits_calls", "count"),
    ("core.optimize.candidates_s", "s"),
    ("core.optimize.candidates", "count"),
    ("core.optimize.purchases", "count"),
    ("core.optimize.plan_self_s", "s"),
    ("core.optimize.frontier_s", "s"),
    ("core.optimize.scores_per_purchase", "ratio"),
    ("core.engine.busy_share", "ratio"),
    ("core.engine.unit_p50_ms", "ms"),
    ("core.engine.unit_max_ms", "ms"),
    ("core.windowed.calibrate_ms_p50", "ms"),
    ("core.windowed.evaluate_ms_p50", "ms"),
    ("serve.ingest_us_p50", "us"),
    ("serve.ingest_us_p99", "us"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.window_p95_ms", "ms"),
    ("serve.finish_s", "s"),
    ("serve.rows", "count"),
    ("serve.windows", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed (units, rows, windows).
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check that failed, described.
    pub mismatches: Vec<String>,
    /// Input sizes, for the manifest.
    pub inputs: String,
}

impl Report {
    /// Records a correctness failure.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.mismatches.push(what.into());
    }
}

/// How many times a workload sets the program up; `setup_s` is the median.
const SETUP_REPEATS: usize = 21;

/// Runs the program's set-up [`SETUP_REPEATS`] times, handing each result
/// to `after` outside the clock, and returns the median set-up time in
/// seconds.
pub fn measure_setup<T, E: std::fmt::Display>(
    mut setup: impl FnMut() -> Result<T, E>,
    mut after: impl FnMut(T) -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let out = setup().map_err(|e| format!("set-up failed: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        after(out)?;
    }
    let median = stats::median(&times);
    note(format!("set-up: median of {} = {median:.6} s", times.len()));
    Ok(median)
}

/// Whether a measured loop should start another complete result: always
/// for the first, then only while that result would still end within
/// `seconds` of `clock`, judged by the slowest result so far.
pub fn keep_measuring(walls: &[f64], clock: Instant, seconds: f64) -> bool {
    let slowest = walls.iter().copied().fold(0.0, f64::max);
    walls.is_empty() || clock.elapsed().as_secs_f64() + slowest <= seconds
}

/// The common length of every series of `data` (the generators emit
/// uniform series, which the row counts rely on).
pub fn series_len(data: &sd_data::Dataset) -> Result<usize, String> {
    let len = data.series().first().map_or(0, |s| s.len());
    if len == 0 || data.series().iter().any(|s| s.len() != len) {
        return Err("the generated series are not of one common, positive length".into());
    }
    Ok(len)
}

/// Ends a run that cannot finish cleanly (a stuck service thread): prints
/// a failed result and exits, which also stops every thread it started.
pub fn abandon(why: &str) -> ! {
    println!("# MISMATCH: {why}");
    println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
    std::process::exit(1);
}

/// One line of human-readable detail, on standard output.
pub fn note(line: impl AsRef<str>) {
    println!("# {}", line.as_ref());
}

/// A workload: its name, why it exists, and how to run it.
struct Workload {
    name: &'static str,
    why: &'static str,
    run: fn(&Opts) -> Result<Report, String>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "replicate",
        why: replicate::WHY,
        run: replicate::run,
    },
    Workload {
        name: "budget",
        why: budget::WHY,
        run: budget::run,
    },
    Workload {
        name: "stream",
        why: stream::WHY,
        run: stream::run,
    },
];

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <replicate|budget|stream> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == opts.workload) else {
        eprintln!("perfbench: unknown workload {:?}", opts.workload);
        return ExitCode::from(2);
    };

    let started = Instant::now();
    let mut report = match (workload.run)(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name);
            return ExitCode::from(1);
        }
    };
    let expected: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() || (!opts.trace && value <= 0.0) {
            report.mismatch(format!("{name} = {value} is not a usable measurement"));
        }
        metrics.push((name, value, unit));
    }
    let undeclared: Vec<&str> = report
        .metrics
        .keys()
        .copied()
        .filter(|name| !expected.iter().any(|(n, _)| n == name))
        .collect();
    for name in undeclared {
        report.mismatch(format!("{name} is not a declared metric of this mode"));
    }

    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    for m in &report.mismatches {
        println!("# MISMATCH: {m}");
    }
    let correct = report.mismatches.is_empty();
    println!(
        "{}",
        manifest(&opts, workload, &report, started.elapsed().as_secs_f64())
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The run's manifest line: host, toolchain, revision, inputs, rationale.
fn manifest(opts: &Opts, workload: &Workload, report: &Report, wall_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    format!(
        "{{\"manifest\": {{\"workload\": {}, \"why\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"inputs\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"git_rev\": {}, \
         \"failed_share\": {}, \"run_wall_s\": {}}}}}",
        json_str(workload.name),
        json_str(workload.why),
        opts.seed,
        json_num(opts.seconds),
        opts.trace,
        json_str(&report.inputs),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&git_rev()),
        json_num(failed_share),
        json_num(wall_s),
    )
}

/// The first line a short command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// there (never from a parent directory), or `unknown`.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let rev = read(".git/HEAD").and_then(|head| {
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        read(&format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?.lines().find_map(|l| {
                    l.strip_suffix(reference)?
                        .strip_suffix(' ')
                        .map(str::to_string)
                })
            })
    });
    rev.unwrap_or_else(|| "unknown".to_string())
}

/// Records the process's peak resident set size so far, in MiB (`VmHWM`).
/// Workloads call it after their first complete result, so the figure
/// does not grow with the number of results a run happens to fit in.
pub fn record_peak_rss(report: &mut Report) {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    match kib {
        Some(kib) => {
            report.metrics.insert("peak_rss_mb", kib / 1024.0);
        }
        None => report.mismatch("cannot read the peak resident set size"),
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse_args(&args("--workload stream --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("stream", 7, 10.0, true)
        );
        assert!(parse_args(&args("--seed 7")).is_err());
        assert!(parse_args(&args("--workload x --trace 2")).is_err());
        assert!(parse_args(&args("--workload x --seconds 0")).is_err());
        assert!(parse_args(&args("--workload x --seed")).is_err());
    }

    #[test]
    fn benchmark_json_records_each_workload_and_metric() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for w in &WORKLOADS {
            assert!(text.contains(&json_str(w.name)), "{} is listed", w.name);
            assert!(
                text.contains(&json_str(w.why)),
                "{}'s rationale matches",
                w.name
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": {}, \"unit\": {}", json_str(name), json_str(unit));
            assert!(text.contains(&entry), "{name} is declared with unit {unit}");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(0.125), "0.125");
    }
}
