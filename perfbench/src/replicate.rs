//! `replicate`: the paper's §4 / Figure 6 protocol — every paper strategy
//! on R = 50 replications of B = 500 series, EMD distortion — through
//! `Experiment::prepare` and `PreparedExperiment::run_with` on the default
//! thread pool.

use crate::replay::{self, Shared};
use crate::stats::median;
use crate::trace::{Spans, TimingExecutor};
use crate::{keep_measuring, measure_setup, note, record_peak_rss, series_len, Opts, Report};
use sd_cleaning::{paper_strategy, CompositeStrategy};
use sd_core::{
    Experiment, ExperimentConfig, ExperimentResult, PreparedExperiment, ThreadPoolExecutor,
};
use sd_netsim::{generate, NetsimConfig};
use std::time::Instant;

pub const WHY: &str =
    "the paper's headline job (Figure 6): 5 strategies x 50 replications at B = 500; \
                       sampling, glitch detection, cleaning and EMD scoring share the unit time";

const SAMPLE_SIZE: usize = 500;

pub fn run(opts: &Opts) -> Result<Report, String> {
    let data = generate(&NetsimConfig::harness_scale(opts.seed)).dataset;
    let experiment = Experiment::new(ExperimentConfig::paper_default(SAMPLE_SIZE, opts.seed));
    let strategies: Vec<CompositeStrategy> = (1..=5).map(paper_strategy).collect();
    let mut prepared = None;
    let setup_s = measure_setup(
        || experiment.prepare(&data),
        |p| {
            prepared = Some(p);
            Ok(())
        },
    )?;
    let prepared = prepared.ok_or("no set-up ran")?;
    let replications = prepared.config().replications;
    let steps = series_len(&data)?;
    let mut report = Report {
        inputs: format!(
            "netsim harness_scale: {} series x {steps} steps; R = {replications}, B = {SAMPLE_SIZE}, \
             {} strategies, metric EMD",
            data.num_series(),
            strategies.len()
        ),
        ..Report::default()
    };
    if opts.trace {
        traced(&prepared, &strategies, &mut report)?;
    } else {
        report.metrics.insert("setup_s", setup_s);
        untraced(opts, &prepared, &strategies, steps, &mut report);
    }
    Ok(report)
}

/// End-to-end: complete results back to back for `--seconds`, then a
/// replay of a few replications against the first result.
fn untraced(
    opts: &Opts,
    prepared: &PreparedExperiment,
    strategies: &[CompositeStrategy],
    steps: usize,
    report: &mut Report,
) {
    let config = prepared.config();
    let units = config.replications * strategies.len();
    let rows = (config.replications * config.sample_size * steps) as f64;
    let executor = ThreadPoolExecutor::new(config.threads);
    let mut walls = Vec::new();
    let mut first: Option<ExperimentResult> = None;
    let clock = Instant::now();
    while keep_measuring(&walls, clock, opts.seconds) {
        let start = Instant::now();
        let result = prepared.run_with(strategies, &executor);
        let wall = start.elapsed().as_secs_f64();
        report.attempted += units as u64;
        match result {
            Ok(result) => {
                walls.push(wall);
                if walls.len() == 1 {
                    record_peak_rss(report);
                }
                match &first {
                    None => first = Some(result),
                    Some(first) => same_results(first, &result, "repeated run", report),
                }
            }
            Err(e) => {
                report.failed += units as u64;
                report.mismatch(format!("run_with failed: {e}"));
                return;
            }
        }
    }
    note(format!("complete results (s): {walls:.3?}"));
    report.metrics.insert(
        "units_per_s",
        median(&walls.iter().map(|w| units as f64 / w).collect::<Vec<_>>()),
    );
    report.metrics.insert(
        "max_rows_per_s",
        median(&walls.iter().map(|w| rows / w).collect::<Vec<_>>()),
    );
    report
        .metrics
        .insert("latency_p50_ms", median(&walls) * 1e3);

    let Some(first) = first else { return };
    if first.outcomes().len() != units {
        report.mismatch(format!(
            "{} outcomes, expected {units}",
            first.outcomes().len()
        ));
        return;
    }
    // The first, middle and last replication: enough to catch a wrong
    // unit without doubling the run.
    let last = config.replications - 1;
    let mut spans = Spans::default();
    for r in [0, last / 2, last] {
        replay_replication(prepared, strategies, r, &first, &mut spans, report);
    }
}

/// Per-layer: the engine on the default executor and on a timing wrapper
/// of it (the difference is the tracing overhead), then a traced serial
/// replay of every unit.
fn traced(
    prepared: &PreparedExperiment,
    strategies: &[CompositeStrategy],
    report: &mut Report,
) -> Result<(), String> {
    let config = prepared.config();
    let units = (config.replications * strategies.len()) as u64;

    let start = Instant::now();
    let plain = prepared
        .run_with(strategies, &ThreadPoolExecutor::new(config.threads))
        .map_err(|e| format!("run_with failed: {e}"))?;
    let plain_wall = start.elapsed().as_secs_f64();
    let timing = TimingExecutor::new(config.threads);
    let start = Instant::now();
    let engine = prepared
        .run_with(strategies, &timing)
        .map_err(|e| format!("run_with failed: {e}"))?;
    let timed_wall = start.elapsed().as_secs_f64();
    timing.report(report);
    same_results(&plain, &engine, "timed run", report);
    report.attempted += 2 * units;
    report
        .metrics
        .insert("trace.overhead", timed_wall / plain_wall - 1.0);

    let mut spans = Spans::default();
    let start = Instant::now();
    for r in 0..config.replications {
        replay_replication(prepared, strategies, r, &engine, &mut spans, report);
    }
    let replay_wall = start.elapsed().as_secs_f64();
    spans.export(&mut report.metrics);
    report
        .metrics
        .insert("trace.coverage", spans.total_seconds() / replay_wall);
    note(format!(
        "engine {plain_wall:.3} s, timed {timed_wall:.3} s; serial replay {replay_wall:.3} s, \
         spans cover {:.3} s",
        spans.total_seconds()
    ));
    Ok(())
}

/// Replays replication `r` unit by unit and checks every unit against
/// `result` bit for bit. The comparison runs outside every span.
fn replay_replication(
    prepared: &PreparedExperiment,
    strategies: &[CompositeStrategy],
    r: usize,
    result: &ExperimentResult,
    spans: &mut Spans,
    report: &mut Report,
) {
    let config = prepared.config();
    let transforms = prepared.transforms();
    let artifacts = replay::build_replication(prepared, r, spans);
    let mut shared = Shared::new(artifacts, transforms, &config.metrics, spans);
    let mut scores = Vec::with_capacity(strategies.len());
    for (s, strategy) in strategies.iter().enumerate() {
        scores.push(replay::evaluate_unit(
            &mut shared,
            transforms,
            config.weights,
            config.seed,
            r,
            s,
            strategy,
            spans,
        ));
    }
    report.attempted += scores.len() as u64;
    for (s, score) in scores.into_iter().enumerate() {
        let Some(o) = result.outcomes().get(r * strategies.len() + s) else {
            report.mismatch(format!(
                "no engine outcome for replication {r}, strategy {s}"
            ));
            continue;
        };
        match score {
            Ok(score)
                if o.replication == r
                    && o.strategy_index == s
                    && score.matches(
                        o.improvement,
                        &o.distortions,
                        &o.cleaning,
                        &o.dirty_report,
                        &o.treated_report,
                    ) => {}
            Ok(_) => report.mismatch(format!(
                "replay of replication {r}, strategy {s} differs from the engine"
            )),
            Err(e) => {
                report.failed += 1;
                report.mismatch(format!(
                    "replay of replication {r}, strategy {s} failed: {e}"
                ));
            }
        }
    }
}

/// Checks two results of the same experiment for bit-identical outcomes.
fn same_results(a: &ExperimentResult, b: &ExperimentResult, what: &str, report: &mut Report) {
    let same = a.outcomes().len() == b.outcomes().len()
        && a.outcomes().iter().zip(b.outcomes()).all(|(x, y)| {
            x.replication == y.replication
                && x.strategy_index == y.strategy_index
                && x.improvement.to_bits() == y.improvement.to_bits()
                && replay::same_scores(&x.distortions, &y.distortions)
                && x.cleaning == y.cleaning
                && x.treated_report == y.treated_report
        });
    if !same {
        report.mismatch(format!("{what} differs from the first result"));
    }
}
