//! `budget`: the greedy cleaning frontier of the `figure_budget` bin —
//! strategy 1, the full metric suite, the bin's deployment cost model,
//! budgets of {0, 1, 3, 10} × B, λ = 0.1 — through `budget_optimize`, at
//! B = 50 on 16 generated networks.
//!
//! The greedy selection loop has no public entry point, so the traced run
//! replays it from `PreparedKernel::score_edits` and the other public
//! calls it makes, and checks every frontier point against the library's.

use crate::replay::{self, layer, Shared};
use crate::stats::median;
use crate::trace::{Spans, TimingExecutor};
use crate::{keep_measuring, measure_setup, note, record_peak_rss, series_len, Opts, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_cleaning::{paper_strategy, CompositeStrategy};
use sd_core::{
    budget_optimize, budget_optimize_with, BudgetOptimizerConfig, CostModel, DistortionMetric,
    Experiment, ExperimentConfig, FrameworkError, FrontierPoint, MetricScore, PreparedExperiment,
    SelectionPolicy, TransportMode,
};
use sd_data::Dataset;
use sd_emd::PatchedCloud;
use sd_glitch::{GlitchIndex, GlitchMatrix, GlitchReport};
use sd_netsim::{generate, NetsimConfig};
use sd_stats::AttributeTransform;
use std::time::Instant;

pub const WHY: &str =
    "the greedy budget frontier: PreparedKernel::score_edits calls in the planning loop \
                       dominate, and one plan per replication serializes the pool";

const SAMPLE_SIZE: usize = 50;
const REPLICATIONS: usize = 1;
/// Networks per complete result. A network's glitch density sets how many
/// repairs the greedy planner buys, so on one network alone the
/// workload's cost would swing with the seed by a fifth; sixteen small
/// plans average that out where a few large ones would not.
const NETWORKS: usize = 16;

const CANDIDATES_S: &str = "core.optimize.candidates_s";
const CANDIDATES: &str = "core.optimize.candidates";
const SCORE_EDITS: &str = "core.kernel.score_edits_s";
const SCORE_EDITS_CALLS: &str = "core.kernel.score_edits_calls";
const PLAN_SELF: &str = "core.optimize.plan_self_s";
const PURCHASES: &str = "core.optimize.purchases";
const FRONTIER: &str = "core.optimize.frontier_s";

/// The `figure_budget` bin's greedy configuration at `REPLICATIONS`.
fn optimizer_config(seed: u64) -> BudgetOptimizerConfig {
    let mut experiment = ExperimentConfig::paper_default(SAMPLE_SIZE, seed);
    experiment.replications = REPLICATIONS;
    experiment.metrics = DistortionMetric::full_suite();
    BudgetOptimizerConfig {
        experiment,
        strategies: vec![paper_strategy(1)],
        budgets: [0.0, 1.0, 3.0, 10.0]
            .iter()
            .map(|m| m * SAMPLE_SIZE as f64)
            .collect(),
        cost_model: CostModel {
            base_per_series: 2.0,
            per_missing_cell: 3.0,
            per_inconsistent_cell: 2.0,
            per_outlier_cell: 1.0,
            strategy_factors: Vec::new(),
        },
        policy: SelectionPolicy::Greedy,
        distortion_weight: 0.1,
        transport: TransportMode::default(),
    }
}

/// One generated network and the optimizer configuration run on it.
struct Network {
    data: Dataset,
    config: BudgetOptimizerConfig,
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let networks: Vec<Network> = (0..NETWORKS)
        .map(|k| {
            let seed = opts
                .seed
                .wrapping_mul(NETWORKS as u64)
                .wrapping_add(k as u64);
            Network {
                data: generate(&NetsimConfig::harness_scale(seed)).dataset,
                config: optimizer_config(seed),
            }
        })
        .collect();
    let first = &networks[0];
    let experiment = Experiment::new(first.config.experiment.clone());
    let mut prepared = None;
    let setup_s = measure_setup(
        || experiment.prepare(&first.data),
        |p| {
            prepared = Some(p);
            Ok(())
        },
    )?;
    let prepared = prepared.ok_or("no set-up ran")?;
    let steps = series_len(&first.data)?;
    let mut report = Report {
        inputs: format!(
            "{NETWORKS} netsim harness_scale networks of {} series x {steps} steps; per network \
             R = {REPLICATIONS}, B = {SAMPLE_SIZE}, strategy 1, budgets {:?}, lambda {}, {} metrics, greedy",
            first.data.num_series(),
            first.config.budgets,
            first.config.distortion_weight,
            first.config.experiment.metrics.len()
        ),
        ..Report::default()
    };
    let per_network = REPLICATIONS * first.config.strategies.len() * first.config.budgets.len();
    let points = NETWORKS * per_network;
    if opts.trace {
        traced(&networks, &mut report)?;
        return Ok(report);
    }

    report.metrics.insert("setup_s", setup_s);
    let rows = (NETWORKS * REPLICATIONS * SAMPLE_SIZE * steps) as f64;
    let mut walls = Vec::new();
    let mut firsts: Vec<Vec<FrontierPoint>> = Vec::new();
    let clock = Instant::now();
    while keep_measuring(&walls, clock, opts.seconds) {
        let start = Instant::now();
        let mut frontiers = Vec::with_capacity(NETWORKS);
        for network in &networks {
            match budget_optimize(&network.data, &network.config) {
                Ok(frontier) => frontiers.push(frontier),
                Err(e) => {
                    report.attempted += points as u64;
                    report.failed += points as u64;
                    report.mismatch(format!("budget_optimize failed: {e}"));
                    return Ok(report);
                }
            }
        }
        walls.push(start.elapsed().as_secs_f64());
        report.attempted += points as u64;
        if walls.len() == 1 {
            record_peak_rss(&mut report);
            for frontier in &frontiers {
                if frontier.len() != per_network {
                    report.mismatch(format!(
                        "{} frontier points, expected {per_network}",
                        frontier.len()
                    ));
                }
            }
            firsts = frontiers;
        } else {
            for (a, b) in firsts.iter().zip(&frontiers) {
                same_frontiers(a, b, "repeated run", &mut report);
            }
        }
    }
    note(format!("complete results (s): {walls:.3?}"));
    report.metrics.insert(
        "units_per_s",
        median(&walls.iter().map(|w| points as f64 / w).collect::<Vec<_>>()),
    );
    report.metrics.insert(
        "max_rows_per_s",
        median(&walls.iter().map(|w| rows / w).collect::<Vec<_>>()),
    );
    report
        .metrics
        .insert("latency_p50_ms", median(&walls) * 1e3);
    if let Some(frontier) = firsts.first() {
        let mut spans = Spans::default();
        replay_replication(
            &prepared,
            &first.config,
            0,
            frontier,
            &mut spans,
            &mut report,
        );
    }
    Ok(report)
}

/// Per-layer: every network on the default executor and on a timing
/// wrapper of it (the difference is the tracing overhead), then a traced
/// serial replay of every replication of every network.
fn traced(networks: &[Network], report: &mut Report) -> Result<(), String> {
    let timing = TimingExecutor::new(networks[0].config.experiment.threads);
    let (mut plain_wall, mut timed_wall) = (0.0, 0.0);
    let mut frontiers = Vec::with_capacity(networks.len());
    for network in networks {
        let start = Instant::now();
        let plain = budget_optimize(&network.data, &network.config)
            .map_err(|e| format!("budget_optimize failed: {e}"))?;
        plain_wall += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let timed = budget_optimize_with(&network.data, &network.config, &timing)
            .map_err(|e| format!("budget_optimize failed: {e}"))?;
        timed_wall += start.elapsed().as_secs_f64();
        same_frontiers(&plain, &timed, "timed run", report);
        report.attempted += 2 * timed.len() as u64;
        frontiers.push(timed);
    }
    timing.report(report);
    report
        .metrics
        .insert("trace.overhead", timed_wall / plain_wall - 1.0);

    let mut prepared = Vec::with_capacity(networks.len());
    for network in networks {
        prepared.push(
            Experiment::new(network.config.experiment.clone())
                .prepare(&network.data)
                .map_err(|e| format!("prepare failed: {e}"))?,
        );
    }
    let mut spans = Spans::default();
    let start = Instant::now();
    for ((network, prepared), frontier) in networks.iter().zip(&prepared).zip(&frontiers) {
        for r in 0..REPLICATIONS {
            replay_replication(prepared, &network.config, r, frontier, &mut spans, report);
        }
    }
    let replay_wall = start.elapsed().as_secs_f64();
    spans.export(&mut report.metrics);
    let purchases = spans.counter(PURCHASES).max(1);
    report.metrics.insert(
        "core.optimize.scores_per_purchase",
        spans.counter(SCORE_EDITS_CALLS) as f64 / purchases as f64,
    );
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

/// One purchasable repair: a single series cleaned in isolation.
struct Candidate {
    series: usize,
    price: f64,
    delta_improvement: f64,
    /// The repair as working-space row edits (ascending rows).
    row_edits: Vec<(usize, Vec<f64>)>,
    treated: GlitchMatrix,
}

/// A replayed frontier point, in `FrontierPoint` terms.
struct Point {
    budget: f64,
    spent: f64,
    series_cleaned: usize,
    improvement: f64,
    distortions: Vec<MetricScore>,
    treated_report: GlitchReport,
}

/// Replays replication `r`'s frontier and checks each point against
/// `frontier` (replication-major, then strategy, then budget) bit for bit.
fn replay_replication(
    prepared: &PreparedExperiment,
    config: &BudgetOptimizerConfig,
    r: usize,
    frontier: &[FrontierPoint],
    spans: &mut Spans,
    report: &mut Report,
) {
    let per_replication = config.strategies.len() * config.budgets.len();
    report.attempted += per_replication as u64;
    let points = match replay_points(prepared, config, r, spans) {
        Ok(points) => points,
        Err(e) => {
            report.failed += per_replication as u64;
            report.mismatch(format!("replay of replication {r} failed: {e}"));
            return;
        }
    };
    for (k, p) in points.iter().enumerate() {
        let (si, bi) = (k / config.budgets.len(), k % config.budgets.len());
        let Some(f) = frontier.get(r * per_replication + k) else {
            report.mismatch(format!("no frontier point for replication {r}, index {k}"));
            continue;
        };
        let same = f.replication == r
            && f.strategy_index == si
            && f.budget.to_bits() == config.budgets[bi].to_bits()
            && f.budget.to_bits() == p.budget.to_bits()
            && f.spent.to_bits() == p.spent.to_bits()
            && f.series_cleaned == p.series_cleaned
            && f.improvement.to_bits() == p.improvement.to_bits()
            && replay::same_scores(&f.distortions, &p.distortions)
            && f.treated_report == p.treated_report;
        if !same {
            report.mismatch(format!(
                "replayed frontier point (replication {r}, strategy {si}, budget {}) differs",
                p.budget
            ));
        }
    }
}

fn replay_points(
    prepared: &PreparedExperiment,
    config: &BudgetOptimizerConfig,
    r: usize,
    spans: &mut Spans,
) -> Result<Vec<Point>, FrameworkError> {
    let experiment = prepared.config();
    let transforms = prepared.transforms();
    let index = GlitchIndex::new(experiment.weights);
    let max_budget = config.budgets.iter().copied().fold(0.0, f64::max);
    let artifacts = replay::build_replication(prepared, r, spans);
    let mut shared = Shared::new(artifacts, transforms, &experiment.metrics, spans);
    let mut points = Vec::new();
    for (si, strategy) in config.strategies.iter().enumerate() {
        shared.ensure_model(strategy, spans);
        let candidates =
            build_candidates(&shared, transforms, &index, config, strategy, si, r, spans);
        let order = plan_greedy(
            &shared,
            &candidates,
            config.distortion_weight,
            max_budget,
            spans,
        )?;
        spans.count(PURCHASES, order.len() as u64);
        for &budget in &config.budgets {
            points.push(frontier_point(
                &shared,
                &index,
                &candidates,
                &order,
                budget,
                spans,
            )?);
        }
    }
    Ok(points)
}

/// The RNG stream of one candidate repair, as the optimizer derives it.
fn candidate_seed(seed: u64, replication: usize, strategy_index: usize, series: usize) -> u64 {
    seed ^ ((replication as u64) << 24)
        ^ ((strategy_index as u64) << 44)
        ^ (((series as u64) + 1) << 8)
}

/// Cleans every glitched series in isolation, re-detects it and prices it.
#[allow(clippy::too_many_arguments)]
fn build_candidates(
    shared: &Shared,
    transforms: &[AttributeTransform],
    index: &GlitchIndex,
    config: &BudgetOptimizerConfig,
    strategy: &CompositeStrategy,
    strategy_index: usize,
    r: usize,
    spans: &mut Spans,
) -> Vec<Candidate> {
    let start = Instant::now();
    let children = |s: &Spans| s.seconds(layer::CLEAN_PATCH) + s.seconds(layer::REDETECT);
    let children_before = children(spans);
    let a = &shared.artifacts;
    let model = shared.model(strategy);
    let n = a.dirty.num_series();
    let mut candidates = Vec::new();
    for i in 0..n {
        let dirty_score = index.node_score(&a.dirty_matrices[i]);
        if dirty_score <= 0.0 {
            continue;
        }
        let mut mask = vec![false; n];
        mask[i] = true;
        let mut rng =
            StdRng::seed_from_u64(candidate_seed(config.experiment.seed, r, strategy_index, i));
        let (view, outcome) = spans.time(layer::CLEAN_PATCH, || {
            strategy.clean_patch_filtered(
                &a.dirty,
                &a.dirty_matrices,
                &a.context,
                &mut rng,
                Some(&mask),
                model,
            )
        });
        spans.count(layer::CELLS_CHANGED, outcome.cells_changed() as u64);
        let treated = spans.time(layer::REDETECT, || {
            if view.is_patched(i) {
                a.detector.detect_series(view.series_at(i))
            } else {
                a.dirty_matrices[i].clone()
            }
        });
        if view.is_patched(i) {
            spans.count(layer::REDETECT_SERIES, 1);
        }
        let mut row_edits = Vec::new();
        shared.row_edits(&view, i, transforms, &mut row_edits);
        candidates.push(Candidate {
            series: i,
            price: config
                .cost_model
                .price(strategy_index, &a.dirty_matrices[i]),
            delta_improvement: (dirty_score - index.node_score(&treated)) * 100.0 / n as f64,
            row_edits,
            treated,
        });
    }
    spans.count(CANDIDATES, candidates.len() as u64);
    let children_time = children(spans) - children_before;
    spans.add_seconds(CANDIDATES_S, start.elapsed().as_secs_f64() - children_time);
    candidates
}

/// Scores the primary metric's distortion of an edit set.
fn score_edits(
    shared: &Shared,
    edits: Vec<(usize, Vec<f64>)>,
    spans: &mut Spans,
) -> Result<f64, FrameworkError> {
    spans.count(SCORE_EDITS_CALLS, 1);
    spans.time(SCORE_EDITS, || {
        shared.kernels[0].1.score_edits(&shared.cache, edits)
    })
}

/// Merges two row-ascending, row-disjoint edit sets.
fn merge_edits(a: &[(usize, Vec<f64>)], b: &[(usize, Vec<f64>)]) -> Vec<(usize, Vec<f64>)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0 < b[j].0 {
            out.push(a[i].clone());
            i += 1;
        } else {
            out.push(b[j].clone());
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The greedy purchase order up to `max_budget`: buy the affordable
/// candidate with the best marginal gain per dollar until none gains.
fn plan_greedy(
    shared: &Shared,
    candidates: &[Candidate],
    distortion_weight: f64,
    max_budget: f64,
    spans: &mut Spans,
) -> Result<Vec<usize>, FrameworkError> {
    let start = Instant::now();
    let scoring_before = spans.seconds(SCORE_EDITS);
    let mut steps = Vec::new();
    let mut spent = 0.0;
    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
    let mut selected_edits: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut current_d = score_edits(shared, selected_edits.clone(), spans)?;
    loop {
        let mut best: Option<(usize, f64, f64)> = None;
        for (pos, &c) in remaining.iter().enumerate() {
            let cand = &candidates[c];
            if spent + cand.price > max_budget {
                continue;
            }
            let d_after =
                score_edits(shared, merge_edits(&selected_edits, &cand.row_edits), spans)?;
            let gain = cand.delta_improvement - distortion_weight * (d_after - current_d);
            let better = match best {
                None => true,
                Some((bpos, bgain, _)) => {
                    gain * candidates[remaining[bpos]].price > bgain * cand.price
                }
            };
            if better {
                best = Some((pos, gain, d_after));
            }
        }
        let Some((pos, gain, d_after)) = best else {
            break;
        };
        if gain <= 0.0 {
            break;
        }
        let c = remaining.swap_remove(pos);
        selected_edits = merge_edits(&selected_edits, &candidates[c].row_edits);
        current_d = d_after;
        spent += candidates[c].price;
        steps.push(c);
    }
    let scoring = spans.seconds(SCORE_EDITS) - scoring_before;
    spans.add_seconds(PLAN_SELF, start.elapsed().as_secs_f64() - scoring);
    Ok(steps)
}

/// One budget's point: walk the planned order buying what the budget
/// affords, then score the combined selection with every kernel.
fn frontier_point(
    shared: &Shared,
    index: &GlitchIndex,
    candidates: &[Candidate],
    order: &[usize],
    budget: f64,
    spans: &mut Spans,
) -> Result<Point, FrameworkError> {
    let start = Instant::now();
    let children = |s: &Spans| s.seconds(layer::PATCHED_CLOUD) + s.seconds(layer::SCORE_PATCH);
    let children_before = children(spans);
    let mut selected = Vec::new();
    let mut spent = 0.0;
    for &c in order {
        if spent + candidates[c].price > budget {
            continue;
        }
        spent += candidates[c].price;
        selected.push(c);
    }
    let patched = spans.time(layer::PATCHED_CLOUD, || {
        let mut by_series = selected.clone();
        by_series.sort_by_key(|&c| candidates[c].series);
        let mut merged = Vec::new();
        for &c in &by_series {
            merged.extend_from_slice(&candidates[c].row_edits);
        }
        PatchedCloud::new(&shared.cache, merged)
    });
    let distortions = spans.time(layer::SCORE_PATCH, || {
        shared
            .kernels
            .iter()
            .map(|(name, kernel)| {
                kernel.score_patch(&patched).map(|value| MetricScore {
                    metric: name,
                    value,
                })
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    spans.count(layer::SCORE_PATCH_CALLS, shared.kernels.len() as u64);
    let dirty = &shared.artifacts.dirty_matrices;
    let mut treated: Vec<GlitchMatrix> = dirty.to_vec();
    for &c in &selected {
        treated[candidates[c].series] = candidates[c].treated.clone();
    }
    let point = Point {
        budget,
        spent,
        series_cleaned: selected.len(),
        improvement: index.improvement(dirty, &treated),
        distortions,
        treated_report: GlitchReport::from_matrices(&treated),
    };
    let children_time = children(spans) - children_before;
    spans.add_seconds(FRONTIER, start.elapsed().as_secs_f64() - children_time);
    Ok(point)
}

/// Checks two frontiers of the same configuration for bit-identical points.
fn same_frontiers(a: &[FrontierPoint], b: &[FrontierPoint], what: &str, report: &mut Report) {
    let same = a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.replication == y.replication
                && x.strategy_index == y.strategy_index
                && x.budget.to_bits() == y.budget.to_bits()
                && x.spent.to_bits() == y.spent.to_bits()
                && x.series_cleaned == y.series_cleaned
                && x.improvement.to_bits() == y.improvement.to_bits()
                && replay::same_scores(&x.distortions, &y.distortions)
                && x.treated_report == y.treated_report
        });
    if !same {
        report.mismatch(format!("{what} differs from the first frontier"));
    }
}
