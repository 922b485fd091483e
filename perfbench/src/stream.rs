//! `stream`: the §3.3 pipeline served online by `StreamingService` with
//! its shipped defaults. 100 nodes (`Topology::new(2, 10, 5)`) stream
//! 2 200 time steps in time-major order; windows of 30 steps slide by 10
//! (218 full windows) under the default own-history screen; strategies 1
//! and 5.
//!
//! Phase A is a closed loop: one producer ingests every row back to back,
//! so backpressure holds the load at the service's capacity. Phase B is an
//! open loop: one generator thread sends row `k` when it is due, at
//! `k / RATE` seconds, and one drain thread takes each window from
//! `next_window`. A window's latency runs from when its last row was due,
//! so a stall also counts against the windows queued behind it.

use crate::replay::{self, Shared};
use crate::stats::{median, percentile, qualified, tail};
use crate::trace::{Spans, TimingExecutor};
use crate::{keep_measuring, measure_setup, note, record_peak_rss, series_len, Opts, Report};
use sd_cleaning::{paper_strategy, CompositeStrategy};
use sd_core::{
    calibrate_window, evaluate_window_artifacts, resolve_neighbor_views, window_bounds,
    ReplicationArtifacts, ThreadPoolExecutor, WindowOutcome, WindowedConfig, WindowedExperiment,
    WindowedResult,
};
use sd_data::{ArrivalRow, Dataset, NodeId, NodeState, Topology};
use sd_netsim::{generate, stream_rows, NetsimConfig};
use sd_serve::{ServeConfig, StreamReport, StreamingService};
use std::thread;
use std::time::{Duration, Instant};

pub const WHY: &str =
    "section 3.3 served online: 100 nodes, 218 sliding windows, closed-loop capacity and \
                       open-loop window latency; the only workload through serve and core.windowed";

const HORIZON: usize = 2200;
const WINDOW: usize = 30;
const STRIDE: usize = 10;
/// The open-loop send rate, in rows per second (about half of capacity).
const RATE: f64 = 50_000.0;
/// How long past its schedule phase B may run before the run is abandoned.
const WATCHDOG: Duration = Duration::from_secs(60);

/// The generated stream and everything derived from it outside the clock.
struct Stream {
    data: Dataset,
    rows: Vec<ArrivalRow>,
    nodes: Vec<NodeId>,
    serve: ServeConfig,
    strategies: Vec<CompositeStrategy>,
    num_windows: usize,
}

impl Stream {
    fn launch(&self) -> Result<StreamingService, String> {
        StreamingService::launch(
            self.serve.clone(),
            self.nodes.clone(),
            self.strategies.clone(),
        )
        .map_err(|e| format!("launch failed: {e}"))
    }

    /// Seconds between the due times of two consecutive windows' last rows.
    fn window_interval(&self) -> f64 {
        (STRIDE * self.nodes.len()) as f64 / RATE
    }

    /// When, after the open loop starts, window `w`'s last row is due.
    fn last_row_due(&self, w: usize) -> Duration {
        let end = w * STRIDE + WINDOW;
        Duration::from_secs_f64((end * self.nodes.len() - 1) as f64 / RATE)
    }
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let topology = Topology::new(2, 10, 5);
    let data = generate(&NetsimConfig::for_topology(topology, HORIZON, opts.seed)).dataset;
    let windowed = WindowedConfig::paper_default(WINDOW, STRIDE, opts.seed);
    let attributes = data.attributes().iter().map(|a| a.name.clone()).collect();
    let experiment = WindowedExperiment::new(windowed.clone());
    let stream = Stream {
        rows: stream_rows(&data),
        nodes: data.series().iter().map(|s| s.node()).collect(),
        serve: ServeConfig::new(windowed, attributes),
        strategies: vec![paper_strategy(1), paper_strategy(5)],
        num_windows: experiment.num_windows(&data),
        data,
    };
    if series_len(&stream.data)? != HORIZON || stream.rows.len() != HORIZON * stream.nodes.len() {
        return Err("the generated stream does not have the expected shape".into());
    }
    let mut report = Report {
        inputs: format!(
            "netsim Topology::new(2, 10, 5): {} nodes x {HORIZON} steps = {} rows, time-major; \
             window {WINDOW} / stride {STRIDE} = {} windows; strategies 1 and 5; \
             phase B at {RATE} rows/s",
            stream.nodes.len(),
            stream.rows.len(),
            stream.num_windows
        ),
        ..Report::default()
    };

    let setup_s = measure_setup(
        || stream.launch(),
        |service| {
            service
                .finish()
                .map(drop)
                .map_err(|e| format!("finishing an empty stream failed: {e}"))
        },
    )?;

    if opts.trace {
        traced(&stream, &experiment, &mut report)?;
        return Ok(report);
    }

    let reference = experiment
        .run(&stream.data, &stream.strategies)
        .map_err(|e| format!("WindowedExperiment::run failed: {e}"))?;
    let mut rounds = Vec::new();
    let mut rows_per_s = Vec::new();
    let mut units_per_s = Vec::new();
    let mut latencies = Vec::new();
    let mut late = Vec::new();
    let clock = Instant::now();
    while keep_measuring(&rounds, clock, opts.seconds) {
        let round = Instant::now();
        let a = closed_loop(&stream, false, &reference, &mut report)?;
        rows_per_s.push(stream.rows.len() as f64 / a.wall);
        units_per_s.push(a.outcomes as f64 / a.wall);
        let b = open_loop(&stream, &reference, &mut report)?;
        latencies.extend(b.latencies.iter().map(|(_, s)| s * 1e3));
        late.extend(b.late);
        if rounds.is_empty() {
            record_peak_rss(&mut report);
        }
        rounds.push(round.elapsed().as_secs_f64());
    }
    check_schedule(&stream, &late, &mut report);
    let p50 = qualified(&latencies, 50.0, "window latency")?;
    note(format!("closed-loop passes: n = {}", rows_per_s.len()));
    note(format!("window latency (ms) {p50}"));
    if let Some(t) = tail(&latencies) {
        note(format!("window latency (ms) tail {t}"));
    }
    report.metrics.insert("setup_s", setup_s);
    report.metrics.insert("max_rows_per_s", median(&rows_per_s));
    report.metrics.insert("units_per_s", median(&units_per_s));
    report.metrics.insert("latency_p50_ms", p50.value);
    Ok(report)
}

/// Marks the run invalid when the generator ran later than one window
/// interval at p99: then the offered load was not the intended one.
fn check_schedule(stream: &Stream, late_s: &[f64], report: &mut Report) -> Option<f64> {
    let p99 = percentile(late_s, 99.0)?;
    note(format!("generator lateness (s) {p99}"));
    if p99.value > stream.window_interval() {
        report.mismatch(format!(
            "the open-loop generator ran {:.1} ms late at p99, more than one window interval ({:.1} ms)",
            p99.value * 1e3,
            stream.window_interval() * 1e3
        ));
    }
    Some(p99.value)
}

/// One closed-loop pass.
struct ClosedPass {
    wall: f64,
    outcomes: usize,
    finish_s: f64,
    ingest_s: Vec<f64>,
    report: Option<StreamReport>,
}

/// Phase A: launch, ingest every row back to back, finish. With
/// `time_ingest`, every `ingest` call is timed as well.
fn closed_loop(
    stream: &Stream,
    time_ingest: bool,
    reference: &WindowedResult,
    report: &mut Report,
) -> Result<ClosedPass, String> {
    let rows = stream.rows.clone();
    let mut ingest_s = Vec::with_capacity(if time_ingest { rows.len() } else { 0 });
    let mut rejected = 0u64;
    let start = Instant::now();
    let service = stream.launch()?;
    for row in rows {
        let ok = if time_ingest {
            let t = Instant::now();
            let ok = service.ingest(row).is_ok();
            ingest_s.push(t.elapsed().as_secs_f64());
            ok
        } else {
            service.ingest(row).is_ok()
        };
        rejected += u64::from(!ok);
    }
    let finishing = Instant::now();
    let finished = service.finish();
    let finish_s = finishing.elapsed().as_secs_f64();
    let wall = start.elapsed().as_secs_f64();
    let published = check_report(stream, "closed loop", finished.as_ref(), reference, report);
    report.attempted += (stream.rows.len() + stream.num_windows) as u64;
    report.failed += rejected + (stream.num_windows - published) as u64;
    Ok(ClosedPass {
        wall,
        outcomes: published * stream.strategies.len(),
        finish_s,
        ingest_s,
        report: finished.ok(),
    })
}

/// One open-loop pass.
struct OpenPass {
    /// `(window, seconds from its last row's due time to publication)`.
    latencies: Vec<(usize, f64)>,
    /// How late the generator sent each row, in seconds.
    late: Vec<f64>,
}

/// Phase B: a paced generator thread and a draining thread, then finish.
fn open_loop(
    stream: &Stream,
    reference: &WindowedResult,
    report: &mut Report,
) -> Result<OpenPass, String> {
    let rows = stream.rows.clone();
    let service = stream.launch()?;
    let schedule = stream.last_row_due(stream.num_windows - 1);
    let start = Instant::now();
    let ((late, rejected), published) = thread::scope(|scope| {
        let service = &service;
        let generator = scope.spawn(move || {
            let mut late = Vec::with_capacity(rows.len());
            let mut rejected = 0u64;
            for (k, row) in rows.into_iter().enumerate() {
                let due = start + Duration::from_secs_f64(k as f64 / RATE);
                let now = Instant::now();
                if now < due {
                    thread::sleep(due - now);
                }
                late.push(Instant::now().saturating_duration_since(due).as_secs_f64());
                rejected += u64::from(service.ingest(row).is_err());
            }
            (late, rejected)
        });
        let drain = scope.spawn(move || {
            let mut published = Vec::with_capacity(stream.num_windows);
            while published.len() < stream.num_windows {
                match service.next_window() {
                    Some(update) => published.push((update.window_index, Instant::now())),
                    None => break,
                }
            }
            published
        });
        // A service that stops publishing would block the drain forever;
        // give up well past the schedule instead.
        while !(generator.is_finished() && drain.is_finished()) {
            if start.elapsed() > schedule + WATCHDOG {
                crate::abandon("the open-loop pass did not finish within its watchdog");
            }
            thread::sleep(Duration::from_millis(5));
        }
        let sent = generator
            .join()
            .expect("the generator thread does not panic");
        let published = drain.join().expect("the drain thread does not panic");
        (sent, published)
    });
    let finished = service.finish();
    check_report(stream, "open loop", finished.as_ref(), reference, report);

    let mut latencies = Vec::with_capacity(published.len());
    for (i, &(w, at)) in published.iter().enumerate() {
        if w != i {
            report.mismatch(format!("window {w} was published in position {i}"));
        }
        let due = start + stream.last_row_due(w);
        latencies.push((w, at.saturating_duration_since(due).as_secs_f64()));
    }
    report.attempted += (stream.rows.len() + stream.num_windows) as u64;
    report.failed +=
        rejected + (stream.num_windows - published.len().min(stream.num_windows)) as u64;
    Ok(OpenPass { latencies, late })
}

/// Checks a stream's report against the batch replay of the same rows
/// (the service's documented contract: bit-identical outcomes and
/// screens). Returns how many full windows it published.
fn check_report(
    stream: &Stream,
    phase: &str,
    finished: Result<&StreamReport, &sd_core::FrameworkError>,
    reference: &WindowedResult,
    report: &mut Report,
) -> usize {
    let served = match finished {
        Ok(served) => served,
        Err(e) => {
            report.mismatch(format!("{phase}: finish failed: {e}"));
            return 0;
        }
    };
    if served.screens() != reference.screens()
        || !same_outcomes(served.outcomes(), reference.outcomes())
    {
        report.mismatch(format!(
            "{phase}: the stream report differs from WindowedExperiment::run"
        ));
    }
    served.num_windows().min(stream.num_windows)
}

/// Whether two window-outcome lists agree field for field and bit for bit.
fn same_outcomes(a: &[WindowOutcome], b: &[WindowOutcome]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.window_index == y.window_index
                && x.strategy_index == y.strategy_index
                && (x.start, x.end) == (y.start, y.end)
                && x.strategy == y.strategy
                && x.improvement.to_bits() == y.improvement.to_bits()
                && x.distortion.to_bits() == y.distortion.to_bits()
                && replay::same_scores(&x.distortions, &y.distortions)
                && x.cleaning == y.cleaning
                && x.dirty_report == y.dirty_report
                && x.treated_report == y.treated_report
        })
}

/// Per-layer: the batch engine on a timing executor, phase A with and
/// without timed ingest, one open-loop pass, and a replay of every window
/// through `calibrate_window` / `evaluate_window_artifacts` and the
/// layered unit replay.
fn traced(
    stream: &Stream,
    experiment: &WindowedExperiment,
    report: &mut Report,
) -> Result<(), String> {
    let timing = TimingExecutor::new(experiment.config().threads);
    let reference = experiment
        .run_with(&stream.data, &stream.strategies, &timing)
        .map_err(|e| format!("WindowedExperiment::run failed: {e}"))?;
    timing.report(report);

    let untraced = closed_loop(stream, false, &reference, report)?;
    let traced = closed_loop(stream, true, &reference, report)?;
    report
        .metrics
        .insert("trace.overhead", traced.wall / untraced.wall - 1.0);
    report.metrics.insert("serve.finish_s", traced.finish_s);
    if let Some(served) = &traced.report {
        report
            .metrics
            .insert("serve.rows", served.stats().rows_ingested as f64);
        report
            .metrics
            .insert("serve.windows", served.stats().windows_evaluated as f64);
    }
    let ingest_us: Vec<f64> = traced.ingest_s.iter().map(|s| s * 1e6).collect();
    for (name, p) in [("serve.ingest_us_p50", 50.0), ("serve.ingest_us_p99", 99.0)] {
        let q = qualified(&ingest_us, p, "ingest time")?;
        note(format!("ingest time (us) {q}"));
        report.metrics.insert(name, q.value);
    }

    let open = open_loop(stream, &reference, report)?;
    if let Some(p99) = check_schedule(stream, &open.late, report) {
        report.metrics.insert("loadgen.late_ms_p99", p99 * 1e3);
    }
    let latency_ms: Vec<f64> = open.latencies.iter().map(|(_, s)| s * 1e3).collect();
    let p95 = qualified(&latency_ms, 95.0, "window latency")?;
    note(format!("window latency (ms) {p95}"));
    report.metrics.insert("serve.window_p95_ms", p95.value);

    let (calibrate_ms, evaluate_ms) = replay_windows(stream, experiment, &reference, report)?;
    let wait_ms: Vec<f64> = open
        .latencies
        .iter()
        .filter_map(|&(w, s)| Some(s * 1e3 - calibrate_ms.get(w)? - evaluate_ms.get(w)?))
        .collect();
    for (name, samples) in [
        ("core.windowed.calibrate_ms_p50", &calibrate_ms),
        ("core.windowed.evaluate_ms_p50", &evaluate_ms),
        ("serve.wait_ms_p50", &wait_ms),
    ] {
        let q = qualified(samples, 50.0, name)?;
        note(format!("{name}: {q}"));
        report.metrics.insert(name, q.value);
    }
    Ok(())
}

/// Replays every window serially: its segments from per-node rings,
/// `calibrate_window`, `evaluate_window_artifacts` on the service's
/// executor, then the layered unit replay, each checked against the batch
/// reference. Returns each window's calibrate and evaluate time in ms.
fn replay_windows(
    stream: &Stream,
    experiment: &WindowedExperiment,
    reference: &WindowedResult,
    report: &mut Report,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let config = experiment.config();
    let attribute_names: Vec<String> = stream
        .data
        .attributes()
        .iter()
        .map(|a| a.name.clone())
        .collect();
    let transforms = config.transforms(attribute_names.len());
    let neighbors = resolve_neighbor_views(config.pooling, config.topology.as_ref(), &stream.nodes)
        .map_err(|e| format!("resolve_neighbor_views failed: {e}"))?;
    let executor = ThreadPoolExecutor::new(config.threads);
    let capacity = stream.serve.ring_capacity();
    let strategies = &stream.strategies;

    let mut spans = Spans::default();
    let mut calibrate_ms = Vec::with_capacity(stream.num_windows);
    let mut evaluate_ms = Vec::with_capacity(stream.num_windows);
    let start = Instant::now();
    for w in 0..stream.num_windows {
        let (_, end, base) = window_bounds(config, w);
        let segments = spans
            .time("data.segments_s", || {
                stream
                    .data
                    .series()
                    .iter()
                    .map(|s| NodeState::from_series(s, capacity, base, end).materialize(base, end))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("window {w} segments: {e}"))?;
        let t = Instant::now();
        let (artifacts, _) = calibrate_window(config, &attribute_names, w, &segments, &neighbors)
            .map_err(|e| format!("calibrate_window({w}) failed: {e}"))?;
        let seconds = t.elapsed().as_secs_f64();
        spans.add_seconds("core.windowed.calibrate_s", seconds);
        calibrate_ms.push(seconds * 1e3);

        let copy = spans.time("core.windowed.copy_s", || ReplicationArtifacts {
            replication: artifacts.replication,
            dirty: artifacts.dirty.clone(),
            ideal: artifacts.ideal.clone(),
            detector: artifacts.detector.clone(),
            context: artifacts.context.clone(),
            dirty_matrices: artifacts.dirty_matrices.clone(),
        });
        let t = Instant::now();
        let evaluated = evaluate_window_artifacts(config, strategies, &executor, copy);
        let seconds = t.elapsed().as_secs_f64();
        spans.add_seconds("core.windowed.evaluate_s", seconds);
        evaluate_ms.push(seconds * 1e3);

        let expected = reference
            .outcomes()
            .get(w * strategies.len()..(w + 1) * strategies.len())
            .unwrap_or(&[]);
        report.attempted += 2 * strategies.len() as u64;
        match evaluated {
            Ok(outcomes) if same_outcomes(&outcomes, expected) => {}
            Ok(_) => report.mismatch(format!("evaluate_window_artifacts({w}) differs")),
            Err(e) => {
                report.failed += strategies.len() as u64;
                report.mismatch(format!("evaluate_window_artifacts({w}) failed: {e}"));
            }
        }

        let mut shared = Shared::new(artifacts, &transforms, &config.metrics, &mut spans);
        for (s, strategy) in strategies.iter().enumerate() {
            let score = replay::evaluate_unit(
                &mut shared,
                &transforms,
                config.weights,
                config.seed,
                w,
                s,
                strategy,
                &mut spans,
            );
            let matches = match (&score, expected.get(s)) {
                (Ok(score), Some(o)) => score.matches(
                    o.improvement,
                    &o.distortions,
                    &o.cleaning,
                    &o.dirty_report,
                    &o.treated_report,
                ),
                _ => false,
            };
            if !matches {
                report.mismatch(format!("replay of window {w}, strategy {s} differs"));
            }
        }
    }
    let replay_wall = start.elapsed().as_secs_f64();
    report
        .metrics
        .insert("trace.coverage", spans.total_seconds() / replay_wall);
    note(format!(
        "window replay {replay_wall:.3} s; spans cover {:.3} s",
        spans.total_seconds()
    ));
    for internal in [
        "data.segments_s",
        "core.windowed.calibrate_s",
        "core.windowed.copy_s",
        "core.windowed.evaluate_s",
    ] {
        note(format!("{internal} = {:.4}", spans.seconds(internal)));
    }
    let mut layers = std::collections::BTreeMap::new();
    spans.export(&mut layers);
    for (name, value) in layers {
        if !name.starts_with("data.") && !name.starts_with("core.windowed.") {
            report.metrics.insert(name, value);
        }
    }
    Ok((calibrate_ms, evaluate_ms))
}
