//! Performance tracker: measures µs/iter for the EMD solver family
//! (transportation simplex, min-cost flow, Sinkhorn, grid pipeline), the
//! glitch-detection and cleaning-strategy hot paths, and one end-to-end
//! `(replication × strategy)` unit of the experiment engine, recording the
//! numbers to `$SD_OUT/BENCH_emd.json` so the perf trajectory accumulates
//! PR-over-PR (CI runs this at `SD_SCALE=small` and uploads the artifact).
//!
//! Solver instances are identical to the `emd` criterion bench (shared
//! through [`sd_bench::synth`]); the grid row uses
//! [`sd_bench::synth::grid_cloud_pair`], whose single-stream seeding is
//! pinned so grid deltas stay like-for-like PR-over-PR. `SD_SCALE` only
//! modulates how many measured iterations each point gets, never the
//! instance itself. Construction (clones, problem building) happens outside
//! the timed region.
//!
//! The `replication` row is the engine's unit of work: the wall time of a
//! full batch run at `sample_size = 100`, five paper strategies, divided by
//! `R × S`. It includes per-replication artifact construction, strategy
//! application, re-detection, and EMD distortion — the quantity the staged
//! engine optimises.
//!
//! The distortion-kernel rows track the trait-based kernel subsystem:
//! `distortion_kl` / `distortion_maha` measure the incremental
//! `score_patch` paths against their `_ref` materialized counterparts, and
//! `score_multi` / `score_multi_seq` measure one all-six-kernels run per
//! unit against six sequential single-metric runs (the cleaning-pass
//! amortization the kernel subsystem buys).
//!
//! ```text
//! SD_SCALE=small SD_OUT=out cargo run --release -p sd-bench --bin perf
//! ```

use sd_bench::synth::{grid_cloud_pair, transport_instance};
use sd_bench::{HarnessConfig, Scale};
use sd_cleaning::paper_strategy;
use sd_core::WindowedConfig;
use sd_core::{
    budget_optimize, budget_optimize_reference, cost_sweep, cost_sweep_reference,
    BudgetOptimizerConfig, CostModel, CostSweepConfig, DistortionMetric, Experiment,
    ExperimentConfig, SelectionPolicy, TransportMode,
};
use sd_data::Topology;
use sd_emd::{
    sinkhorn, BatchTransport, GridEmd, MinCostFlow, PatchedCloud, SignatureCache, SinkhornParams,
    TransportProblem,
};
use sd_netsim::{generate, stream_rows, NetsimConfig};
use sd_serve::{ServeConfig, StreamingService};
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

/// One measured point: `µs/iter` over `iters` timed runs (after 1 warm-up),
/// with per-iteration input construction excluded from the clock.
fn measure<I, S: FnMut() -> I, R: FnMut(I) -> f64>(
    iters: usize,
    mut setup: S,
    mut routine: R,
) -> f64 {
    black_box(routine(setup()));
    let mut total = 0.0f64;
    for _ in 0..iters {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        total += start.elapsed().as_secs_f64();
    }
    total / iters as f64 * 1e6
}

/// Aborts the run on a setup or solve failure: a perf row measured after
/// an error would be meaningless, and a bench binary has no caller to
/// propagate to — exit with the error instead of panicking.
fn require<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perf: {what} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let harness = HarnessConfig::from_env();
    let iters = match harness.scale {
        Scale::Small => 5,
        Scale::Harness => 20,
        Scale::Paper => 50,
    };
    let mut results: Vec<Value> = Vec::new();
    let mut record = |bench: &str, size: usize, us: f64| {
        println!("perf: {bench:<12} n={size:<6} {us:>12.3} µs/iter");
        results.push(json!({ "bench": bench, "size": size, "us_per_iter": us }));
    };

    for size in [16usize, 64, 128] {
        let (s, d, cost) = transport_instance(size, size, 11);
        let us = measure(
            iters,
            || (s.clone(), d.clone(), cost.clone()),
            |(s, d, c)| TransportProblem::new(s, d, c).unwrap().solve().unwrap(),
        );
        record("simplex", size, us);
        // Test-only cross-validator (see `sd_emd::MinCostFlow`): tracked
        // here so the gap to the simplex stays visible, not because
        // anything hot calls it. The bipartite-specialized SSP rewrite
        // cut the historical ~23× gap at n = 128 to single digits, which
        // is why the random validation corpora run un-gated on every
        // test run.
        let us = measure(
            iters,
            || (s.clone(), d.clone(), cost.clone()),
            |(s, d, c)| MinCostFlow::new(s, d, c).unwrap().solve().unwrap(),
        );
        record("flow", size, us);
        let us = measure(
            iters,
            || (),
            |()| {
                sinkhorn(
                    black_box(&s),
                    black_box(&d),
                    black_box(&cost),
                    SinkhornParams {
                        regularization: 0.1,
                        max_iterations: 50_000,
                        tolerance: 1e-6,
                    },
                )
                .unwrap()
            },
        );
        record("sinkhorn", size, us);
    }

    // Batch transport on the reused cold arena: S = 5 solves against one
    // fixed dirty signature (shared supply + ground costs) whose
    // cleaned-side masses drift incrementally — the shape of one
    // replication's batch and of the budget optimizer's greedy candidate
    // sweep, where consecutive instances differ by one candidate's sparse
    // edits. `batch_emd_cold` solves each instance from a fresh
    // north-west-corner basis on one `BatchTransport` (allocation
    // amortized — the engine's only transport path), in µs per transport.
    {
        let s_count = 5usize;
        let size = 128usize;
        let (supply, base_demand, cost) = transport_instance(size, size, 11);
        let mut state: u64 = 0x5DEECE66D;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let mut demands: Vec<Vec<f64>> = Vec::with_capacity(s_count);
        let mut d = base_demand.clone();
        for _ in 0..s_count {
            demands.push(d.clone());
            // Two sparse mass moves ≈ one candidate's edit footprint.
            for _ in 0..2 {
                let a = (next() * size as f64) as usize % size;
                let b = (next() * size as f64) as usize % size;
                let slice = d[a] * 0.1;
                d[a] -= slice;
                d[b] += slice;
            }
        }
        let mut cold_arena = BatchTransport::new();
        let us = measure(
            iters,
            || (),
            |()| {
                let mut acc = 0.0;
                for d in &demands {
                    acc += require(
                        cold_arena.solve_cold(black_box(&supply), black_box(d), black_box(&cost)),
                        "cold batch solve",
                    );
                }
                acc
            },
        ) / s_count as f64;
        record("batch_emd_cold", size, us);
    }

    for points in [1_000usize, 10_000] {
        // Pinned single-stream pair (see `grid_cloud_pair`): re-baselined in
        // PR 3 after the PR-2 grid row briefly used independent seeds.
        let (a, b) = grid_cloud_pair(points, 13, 10.0);
        let us = measure(
            iters,
            || (),
            |()| GridEmd::new(6).distance(&a, &b).unwrap().emd,
        );
        record("grid", points, us);
    }

    // Distortion-kernel rows: each kernel's incremental score_patch (the
    // engine's per-unit path, prepared dirty-side state warm) against its
    // materialized score_rows reference, on a pinned 10k-row cloud with a
    // 2 % sparse edit set — the engine's typical cleaned-fraction shape.
    {
        let points = 10_000usize;
        let (dirty, replacement_pool) = grid_cloud_pair(points, 29, 4.0);
        let edits: Vec<(usize, Vec<f64>)> = (0..points / 50)
            .map(|i| (i * 47 % points, replacement_pool[i].clone()))
            .collect();
        let cache = SignatureCache::new(dirty.clone());
        let cleaned = PatchedCloud::new(&cache, edits.clone()).materialize();
        for (label, metric) in [
            ("distortion_kl", DistortionMetric::KlDivergence { bins: 6 }),
            ("distortion_maha", DistortionMetric::Mahalanobis),
        ] {
            let kernel = metric.kernel();
            let prepared = kernel.prepare(&cache);
            let us = measure(
                iters,
                || PatchedCloud::new(&cache, edits.clone()),
                |patched| prepared.score_patch(&patched).unwrap(),
            );
            record(label, points, us);
            let us = measure(
                iters,
                || (),
                |()| kernel.score_rows(&dirty, &cleaned).unwrap(),
            );
            record(&format!("{label}_ref"), points, us);
        }
    }

    // Experiment hot paths: glitch detection, cleaning strategies, and the
    // end-to-end (replication × strategy) engine unit, on the fixed small
    // telemetry instance at the paper's B = 100 sample size.
    let data = generate(&NetsimConfig::small(42)).dataset;
    let mut config = ExperimentConfig::paper_default(100, 42);
    config.threads = 1; // per-unit cost, undiluted by parallelism
    let experiment = Experiment::new(config.clone());
    let prepared = experiment.prepare(&data).expect("prepare succeeds");
    let artifacts = prepared.replication(0);

    let us = measure(
        iters,
        || (),
        |()| {
            let matrices = artifacts
                .detector
                .detect_dataset(black_box(&artifacts.dirty));
            matrices.len() as f64
        },
    );
    record("detect", artifacts.dirty.num_series(), us);

    for k in [1u32, 5] {
        let strategy = paper_strategy(k);
        let us = measure(
            iters,
            || (),
            |()| {
                let (cleaned, outcome) = artifacts.apply(black_box(&strategy), config.seed, 0);
                cleaned.num_series() as f64 + outcome.cells_changed() as f64
            },
        );
        record(&format!("clean_s{k}"), artifacts.dirty.num_series(), us);
    }

    {
        let strategies: Vec<_> = (1..=5).map(paper_strategy).collect();
        let reps = match harness.scale {
            Scale::Small => 3,
            Scale::Harness => 10,
            Scale::Paper => 25,
        };
        let mut run_config = config.clone();
        run_config.replications = reps;
        let runner = Experiment::new(run_config.clone());
        let units = (reps * strategies.len()) as f64;
        // Both replication rows time only the unit work: `prepare()` (pool
        // partitioning, sampler setup) is hoisted out of the clock so the
        // engine and reference rows stay like-for-like.
        let prepared = runner.prepare(&data).expect("prepare succeeds");
        let executor = sd_core::ThreadPoolExecutor::new(1);
        let us = measure(
            iters,
            || (),
            |()| {
                let result = prepared
                    .run_with(black_box(&strategies), &executor)
                    .unwrap();
                result.outcomes().len() as f64
            },
        ) / units;
        record("replication", config.sample_size, us);

        // The historical replication-granular path (kept in-tree as the
        // engine's bit-identity reference): same units, no artifact
        // sharing, full-clone cleaning, uncached distortion. Recording it
        // alongside keeps the engine speedup measurable in one run.
        let ref_prepared = &prepared;
        let us = measure(
            iters,
            || (),
            |()| {
                let mut score = 0.0;
                for i in 0..reps {
                    let artifacts = ref_prepared.replication(i);
                    for (si, s) in strategies.iter().enumerate() {
                        score += ref_prepared
                            .evaluate(black_box(&artifacts), s, si)
                            .unwrap()
                            .distortion;
                    }
                }
                score
            },
        ) / units;
        record("replication_ref", config.sample_size, us);

        // Multi-metric amortization: `score_multi` drains the same R × S
        // units once while scoring all six kernels per unit from one
        // cleaning pass; `score_multi_seq` is the ablation the kernel
        // subsystem replaces — six sequential single-metric experiment
        // runs, each re-detecting and re-cleaning every unit. Both rows
        // are µs per (replication × strategy) unit, so their ratio is the
        // amortization factor.
        let suite = DistortionMetric::full_suite();
        let mut multi_config = run_config.clone();
        multi_config.metrics = suite.clone();
        let multi_prepared = Experiment::new(multi_config)
            .prepare(&data)
            .expect("prepare succeeds");
        let us = measure(
            iters,
            || (),
            |()| {
                let result = multi_prepared
                    .run_with(black_box(&strategies), &executor)
                    .unwrap();
                result.outcomes().len() as f64
            },
        ) / units;
        record("score_multi", config.sample_size, us);

        let single_prepared: Vec<_> = suite
            .iter()
            .map(|&metric| {
                let mut c = run_config.clone();
                c.metrics = vec![metric];
                Experiment::new(c).prepare(&data).expect("prepare succeeds")
            })
            .collect();
        let us = measure(
            iters,
            || (),
            |()| {
                let mut n = 0usize;
                for prepared in &single_prepared {
                    n += prepared
                        .run_with(black_box(&strategies), &executor)
                        .unwrap()
                        .outcomes()
                        .len();
                }
                n as f64
            },
        ) / units;
        record("score_multi_seq", config.sample_size, us);
    }

    // Cost-sweep unit: one (replication × strategy × budget fraction)
    // point of the Figure 7 study. The engine row drains the sweep through
    // the staged work queue (shared replication artifacts, one dirty-side
    // signature cache per replication, per-budget shared ModelFit across
    // the model-imputing strategies, patch cleaning); the `_ref` row is
    // the preserved replication-granular path (full clone, full redetect,
    // materialized distortion, per-point model fit) in the same run, so
    // the engine speedup stays measurable PR-over-PR.
    {
        let reps = match harness.scale {
            Scale::Small => 2,
            Scale::Harness => 6,
            Scale::Paper => 15,
        };
        let mut sweep_experiment = config.clone();
        sweep_experiment.replications = reps;
        let sweep = CostSweepConfig {
            experiment: sweep_experiment,
            fractions: vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0],
            strategies: vec![paper_strategy(1), paper_strategy(2)],
        };
        let units = (reps * sweep.strategies.len() * sweep.fractions.len()) as f64;
        let us = measure(
            iters,
            || (),
            |()| {
                let points = cost_sweep(black_box(&data), &sweep).unwrap();
                points.len() as f64
            },
        ) / units;
        record("cost_sweep", config.sample_size, us);
        let us = measure(
            iters,
            || (),
            |()| {
                let points = cost_sweep_reference(black_box(&data), &sweep).unwrap();
                points.len() as f64
            },
        ) / units;
        record("cost_sweep_ref", config.sample_size, us);
    }

    // Budget-optimizer unit: one (replication × budget) frontier point of
    // the greedy budgeted-cleaning policy. The engine row plans each
    // trajectory on the shared signature cache and scores every candidate
    // union incrementally through `score_edits`; the `_ref` row is the
    // preserved replication-granular path that materializes the full
    // cleaned cloud for every one of those candidate evaluations, so the
    // incremental-kernel speedup stays measurable PR-over-PR.
    {
        let reps = match harness.scale {
            Scale::Small => 2,
            Scale::Harness => 4,
            Scale::Paper => 8,
        };
        let mut opt_experiment = config.clone();
        opt_experiment.replications = reps;
        let opt = BudgetOptimizerConfig {
            experiment: opt_experiment,
            strategies: vec![paper_strategy(1)],
            budgets: vec![0.0, 25.0, 100.0],
            cost_model: CostModel::uniform(),
            policy: SelectionPolicy::Greedy,
            distortion_weight: 0.1,
            transport: TransportMode::Cold,
        };
        let units = (reps * opt.budgets.len()) as f64;
        let us = measure(
            iters,
            || (),
            |()| {
                let points = budget_optimize(black_box(&data), &opt).unwrap();
                points.len() as f64
            },
        ) / units;
        record("budget_opt", config.sample_size, us);
        let us = measure(
            iters,
            || (),
            |()| {
                let points = budget_optimize_reference(black_box(&data), &opt).unwrap();
                points.len() as f64
            },
        ) / units;
        record("budget_opt_ref", config.sample_size, us);
    }

    // Thread-scaling curve: the same R × S engine batch on explicit
    // 1/2/4/8-thread executors, recorded as µs per (replication ×
    // strategy) unit at each thread count (`size` is the thread count).
    // Results are bit-identical across thread counts by the engine's
    // determinism contract, so the curve measures pure scheduling — the
    // `SD_THREADS` knob's payoff. Thread counts beyond the host's cores
    // still measure honestly; they just stop improving.
    {
        let strategies: Vec<_> = (1..=5).map(paper_strategy).collect();
        let reps = match harness.scale {
            Scale::Small => 3,
            Scale::Harness => 10,
            Scale::Paper => 25,
        };
        let mut scaling_config = config.clone();
        scaling_config.replications = reps;
        let runner = Experiment::new(scaling_config);
        let prepared = require(runner.prepare(&data), "thread-scaling prepare");
        let units = (reps * strategies.len()) as f64;
        for threads in [1usize, 2, 4, 8] {
            let executor = sd_core::ThreadPoolExecutor::new(threads);
            let us = measure(
                iters,
                || (),
                |()| {
                    let result = require(
                        prepared.run_with(black_box(&strategies), &executor),
                        "thread-scaling batch",
                    );
                    result.outcomes().len() as f64
                },
            ) / units;
            record("thread_scaling", threads, us);
        }
    }

    // Streaming-service rows: the §3.3 pipeline served online through
    // sd-serve's bounded-channel shards (`SD_SHARDS`, default 4).
    // `streaming_throughput` is µs per ingested row for a complete stream
    // — launch, every row, every window evaluation, and the joined
    // shutdown all inside the clock — so 10 µs/row ≡ 10⁵ rows/s
    // sustained, the serving layer's paper-scale target.
    // `streaming_latency` is the complement: rows are fed one window
    // stride at a time and the clock runs from the stride's last row to
    // the blocking `next_window` update — the freshness a live consumer
    // of the trajectory actually observes. Unlike the engine rows, the
    // stream itself grows with `SD_SCALE` (throughput claims need
    // sustained load, not a 6 000-row sprint), so compare rows only
    // within one scale.
    {
        // `SD_NODES` overrides the stream's fleet size outright (the
        // 10⁴–10⁵-sector serving regime, horizon bounded by
        // `streaming_netsim_config`); otherwise each scale keeps its
        // historical pinned stream so rows stay comparable PR-over-PR.
        let stream_config = if harness.nodes > 0 {
            harness.streaming_netsim_config()
        } else {
            match harness.scale {
                Scale::Small => NetsimConfig::small(42),
                Scale::Harness => NetsimConfig::for_topology(Topology::new(2, 10, 5), 170, 42),
                Scale::Paper => NetsimConfig::harness_scale(42),
            }
        };
        let stream_data = generate(&stream_config).dataset;
        let rows = stream_rows(&stream_data);
        let nodes: Vec<_> = stream_data.series().iter().map(|s| s.node()).collect();
        let attributes: Vec<String> = stream_data
            .attributes()
            .iter()
            .map(|a| a.name.clone())
            .collect();
        let window = 30usize;
        let serve = ServeConfig::new(
            WindowedConfig::paper_default(window, window, harness.seed),
            attributes,
        )
        .with_shards(harness.shards);
        let strategies = vec![paper_strategy(1)];
        let stream_iters = match harness.scale {
            Scale::Small => 5,
            _ => 10,
        };
        let us = measure(
            stream_iters,
            || rows.clone(),
            |rows| {
                let service = require(
                    StreamingService::launch(serve.clone(), nodes.clone(), strategies.clone()),
                    "streaming launch",
                );
                for row in rows {
                    require(service.ingest(row), "streaming ingest");
                }
                require(service.finish(), "streaming finish").num_windows() as f64
            },
        ) / rows.len() as f64;
        record("streaming_throughput", rows.len(), us);

        // Uniform series lengths make the time-major stream sliceable by
        // stride: rows_per_step consecutive rows share one time step.
        let rows_per_step = nodes.len();
        let horizon = stream_config.series_len;
        let num_windows = horizon / window;
        let mut latencies = Vec::with_capacity(stream_iters * num_windows);
        for _ in 0..stream_iters {
            let service = require(
                StreamingService::launch(serve.clone(), nodes.clone(), strategies.clone()),
                "streaming launch",
            );
            for w in 0..num_windows {
                let stride_rows =
                    &rows[w * window * rows_per_step..(w + 1) * window * rows_per_step];
                for row in stride_rows {
                    require(service.ingest(row.clone()), "streaming ingest");
                }
                let start = Instant::now();
                let update = require(
                    service.next_window().ok_or("update feed closed early"),
                    "streaming next_window",
                );
                latencies.push(start.elapsed().as_secs_f64());
                black_box(update.window_index);
            }
            require(service.finish(), "streaming finish");
        }
        let us = latencies.iter().sum::<f64>() / latencies.len() as f64 * 1e6;
        record("streaming_latency", rows_per_step, us);

        // Pipelined-evaluation rows: the same stream under a kernel-heavy
        // windowed config — all six distortion kernels, window 20 /
        // stride 10 (overlapping windows), per-window threads pinned to 1
        // so all parallelism comes from the evaluator pool — served with
        // `SD_EVALUATORS` workers (`streaming_pipelined`) and with the
        // serial pool (`streaming_pipelined_ref`). Both are µs per
        // ingested row for the complete stream; their ratio is the
        // cross-window pipelining speedup. Reports are bit-identical by
        // the reorder stage's in-order publication, so the ratio measures
        // pure overlap.
        let mut heavy = WindowedConfig::paper_default(20, 10, harness.seed);
        heavy.metrics = DistortionMetric::full_suite();
        heavy.threads = 1;
        let heavy_serve =
            ServeConfig::new(heavy, serve.attributes.clone()).with_shards(harness.shards);
        for (bench, evaluators) in [
            ("streaming_pipelined", harness.evaluators.max(1)),
            ("streaming_pipelined_ref", 1),
        ] {
            let pooled = heavy_serve.clone().with_evaluators(evaluators);
            let us = measure(
                stream_iters,
                || rows.clone(),
                |rows| {
                    let service = require(
                        StreamingService::launch(pooled.clone(), nodes.clone(), strategies.clone()),
                        "pipelined launch",
                    );
                    for row in rows {
                        require(service.ingest(row), "pipelined ingest");
                    }
                    require(service.finish(), "pipelined finish").num_windows() as f64
                },
            ) / rows.len() as f64;
            record(bench, evaluators, us);
        }
    }

    harness.write_json(
        "BENCH_emd.json",
        &json!({
            "scale": harness.scale.label(),
            "seed": harness.seed,
            "iters_per_point": iters,
            "benches": Value::Array(results),
        }),
    );
}
