//! Property-based tests (proptest) on the workspace's core invariants:
//! EMD metric axioms, solver agreement, glitch-index algebra, and
//! cleaning idempotence.

use proptest::prelude::*;
use statistical_distortion::emd::{
    emd, emd_1d_weighted, ground_distance_matrix, MinCostFlow, Signature, TransportProblem,
};
use statistical_distortion::glitch::{GlitchIndex, GlitchMatrix, GlitchType, GlitchWeights};
use statistical_distortion::stats::{quantile, sorted_present, Ecdf};

/// A random 1-D signature: points in [-50, 50], weights in (0, 10].
fn signature_1d(max_len: usize) -> impl Strategy<Value = Signature> {
    prop::collection::vec((-50.0f64..50.0, 0.01f64..10.0), 1..max_len).prop_map(|pairs| {
        let (points, weights): (Vec<Vec<f64>>, Vec<f64>) =
            pairs.into_iter().map(|(p, w)| (vec![p], w)).unzip();
        Signature::new(points, weights).expect("valid signature")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn emd_is_nonnegative_and_zero_on_self(sig in signature_1d(12)) {
        let d = emd(&sig, &sig).unwrap();
        prop_assert!(d >= 0.0);
        prop_assert!(d < 1e-9, "self-distance {d}");
    }

    #[test]
    fn emd_is_symmetric(a in signature_1d(10), b in signature_1d(10)) {
        let ab = emd(&a, &b).unwrap();
        let ba = emd(&b, &a).unwrap();
        prop_assert!((ab - ba).abs() < 1e-8, "{ab} vs {ba}");
    }

    #[test]
    fn emd_satisfies_triangle_inequality(
        a in signature_1d(8),
        b in signature_1d(8),
        c in signature_1d(8),
    ) {
        let ab = emd(&a, &b).unwrap();
        let bc = emd(&b, &c).unwrap();
        let ac = emd(&a, &c).unwrap();
        prop_assert!(ac <= ab + bc + 1e-8, "ac {ac} > ab {ab} + bc {bc}");
    }

    #[test]
    fn simplex_flow_meets_marginals(
        supply in prop::collection::vec(0.001f64..1.0, 1..24),
        demand in prop::collection::vec(0.001f64..1.0, 1..24),
        seed in 0u64..1000,
    ) {
        // The solved flow of a random balanced instance must satisfy the
        // row/column marginals to 1e-9 — floating-point residue from the
        // north-west-corner walk may not strand mass.
        let st: f64 = supply.iter().sum();
        let dt: f64 = demand.iter().sum();
        let supply: Vec<f64> = supply.iter().map(|x| x / st).collect();
        let demand: Vec<f64> = demand.iter().map(|x| x / dt).collect();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut cost = Vec::with_capacity(supply.len() * demand.len());
        for _ in 0..supply.len() * demand.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cost.push(((state >> 33) as f64) / (u32::MAX as f64) * 5.0);
        }
        let (n, m) = (supply.len(), demand.len());
        let mut problem = TransportProblem::new(supply.clone(), demand.clone(), cost).unwrap();
        problem.solve().unwrap();
        let flow = problem.flow();
        for i in 0..n {
            let row: f64 = flow[i * m..(i + 1) * m].iter().sum();
            prop_assert!((row - supply[i]).abs() < 1e-9, "row {i}: {row} vs {}", supply[i]);
        }
        for j in 0..m {
            let col: f64 = (0..n).map(|i| flow[i * m + j]).sum();
            prop_assert!((col - demand[j]).abs() < 1e-9, "col {j}: {col} vs {}", demand[j]);
        }
    }

    #[test]
    fn simplex_matches_1d_closed_form(
        a in prop::collection::vec((-20.0f64..20.0, 0.01f64..5.0), 1..10),
        b in prop::collection::vec((-20.0f64..20.0, 0.01f64..5.0), 1..10),
    ) {
        let (ap, aw): (Vec<f64>, Vec<f64>) = a.into_iter().unzip();
        let (bp, bw): (Vec<f64>, Vec<f64>) = b.into_iter().unzip();
        let exact = emd_1d_weighted(&ap, &aw, &bp, &bw).unwrap();
        let a_sig = Signature::new(ap.iter().map(|&x| vec![x]).collect(), aw.clone()).unwrap();
        let b_sig = Signature::new(bp.iter().map(|&x| vec![x]).collect(), bw.clone()).unwrap();
        let cost = ground_distance_matrix(a_sig.points(), b_sig.points());
        let via_simplex = TransportProblem::new(
            a_sig.normalized_weights(),
            b_sig.normalized_weights(),
            cost,
        )
        .unwrap()
        .solve()
        .unwrap();
        prop_assert!((exact - via_simplex).abs() < 1e-8, "{exact} vs {via_simplex}");
    }

    #[test]
    fn translation_shifts_emd_linearly(
        points in prop::collection::vec(-10.0f64..10.0, 2..20),
        delta in 0.1f64..30.0,
    ) {
        let shifted: Vec<f64> = points.iter().map(|x| x + delta).collect();
        let d = statistical_distortion::emd::emd_1d_samples(&points, &shifted).unwrap();
        prop_assert!((d - delta).abs() < 1e-9, "shift {delta} gave EMD {d}");
    }

    #[test]
    fn ecdf_is_monotone(xs in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let e = Ecdf::new(&xs);
        let sorted = sorted_present(&xs);
        let mut prev = 0.0;
        for &x in &sorted {
            let f = e.eval(x);
            prop_assert!(f >= prev);
            prop_assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        prop_assert_eq!(e.eval(f64::INFINITY), 1.0);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        xs in prop::collection::vec(-100.0f64..100.0, 1..50),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo).unwrap();
        let b = quantile(&xs, hi).unwrap();
        prop_assert!(a <= b);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min && b <= max);
    }

    #[test]
    fn glitch_index_is_monotone_in_flags(
        len in 1usize..40,
        flags in prop::collection::vec((0usize..3, 0usize..40), 0..30),
    ) {
        let index = GlitchIndex::new(GlitchWeights::paper());
        let mut m = GlitchMatrix::new(1, len);
        let mut prev = 0.0;
        for (k, t) in flags {
            let g = GlitchType::from_index(k).unwrap();
            m.set(0, g, t % len);
            let score = index.node_score(&m);
            prop_assert!(score >= prev - 1e-12, "score decreased: {score} < {prev}");
            prev = score;
        }
    }

    #[test]
    fn improvement_is_antisymmetric(
        flags_a in prop::collection::vec((0usize..3, 0usize..20), 0..20),
        flags_b in prop::collection::vec((0usize..3, 0usize..20), 0..20),
    ) {
        let build = |flags: &[(usize, usize)]| {
            let mut m = GlitchMatrix::new(1, 20);
            for &(k, t) in flags {
                m.set(0, GlitchType::from_index(k).unwrap(), t % 20);
            }
            vec![m]
        };
        let index = GlitchIndex::new(GlitchWeights::paper());
        let a = build(&flags_a);
        let b = build(&flags_b);
        let ab = index.improvement(&a, &b);
        let ba = index.improvement(&b, &a);
        prop_assert!((ab + ba).abs() < 1e-12);
    }
}

/// Case count for the min-cost-flow cross-validation corpus. The
/// bipartite-specialized successive-shortest-paths solver (see
/// `sd_emd::MinCostFlow`) is fast enough that the full corpus runs on
/// every `cargo test` — no `SD_SCALE` gate.
fn flow_corpus_config() -> ProptestConfig {
    ProptestConfig::with_cases(64)
}

proptest! {
    #![proptest_config(flow_corpus_config())]

    #[test]
    fn simplex_matches_flow_solver(
        supply in prop::collection::vec(0.01f64..1.0, 1..8),
        demand in prop::collection::vec(0.01f64..1.0, 1..8),
        seed in 0u64..1000,
    ) {
        // Balance the problem.
        let st: f64 = supply.iter().sum();
        let dt: f64 = demand.iter().sum();
        let supply: Vec<f64> = supply.iter().map(|x| x / st).collect();
        let demand: Vec<f64> = demand.iter().map(|x| x / dt).collect();
        // Deterministic pseudo-random costs from the seed.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut cost = Vec::with_capacity(supply.len() * demand.len());
        for _ in 0..supply.len() * demand.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cost.push(((state >> 33) as f64) / (u32::MAX as f64) * 5.0);
        }
        let via_simplex = TransportProblem::new(supply.clone(), demand.clone(), cost.clone())
            .unwrap()
            .solve()
            .unwrap();
        let via_flow = MinCostFlow::new(supply, demand, cost).unwrap().solve().unwrap();
        prop_assert!((via_simplex - via_flow).abs() < 1e-7, "{via_simplex} vs {via_flow}");
    }

    #[test]
    fn simplex_survives_degenerate_duplicate_mass_instances(
        supply in prop::collection::vec(1u8..=4, 2..8),
        demand in prop::collection::vec(1u8..=4, 2..8),
        seed in 0u64..1000,
    ) {
        // Small-integer masses make ties and exactly-zero basic flows (the
        // degenerate pivots the basis-tree ratio test must survive —
        // regression cover for the structured `BrokenPivot` path replacing
        // the old `leaving.expect(...)` panic), and small-integer costs
        // make many equal-cost pivots. Normalize to unit mass and demand
        // simplex/flow agreement with no panic on every instance.
        let st: f64 = supply.iter().map(|&x| x as f64).sum();
        let dt: f64 = demand.iter().map(|&x| x as f64).sum();
        let supply: Vec<f64> = supply.iter().map(|&x| x as f64 / st).collect();
        let demand: Vec<f64> = demand.iter().map(|&x| x as f64 / dt).collect();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut cost = Vec::with_capacity(supply.len() * demand.len());
        for _ in 0..supply.len() * demand.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cost.push(((state >> 33) % 3) as f64);
        }
        let via_simplex = TransportProblem::new(supply.clone(), demand.clone(), cost.clone())
            .unwrap()
            .solve()
            .unwrap();
        let via_flow = MinCostFlow::new(supply, demand, cost).unwrap().solve().unwrap();
        prop_assert!((via_simplex - via_flow).abs() < 1e-7, "{via_simplex} vs {via_flow}");
    }
}

/// Builds a random cleaning scenario: correlated two-attribute telemetry
/// with injected missing cells, negative inconsistencies, and spikes, plus
/// the calibrated detector/context the strategies need.
fn cleaning_fixture(
    seed: u64,
) -> (
    statistical_distortion::data::Dataset,
    Vec<GlitchMatrix>,
    statistical_distortion::cleaning::CleaningContext,
) {
    use rand::Rng;
    use statistical_distortion::cleaning::CleaningContext;
    use statistical_distortion::data::{Dataset, NodeId, TimeSeries};
    use statistical_distortion::glitch::{
        Constraint, ConstraintSet, GlitchDetector, OutlierDetector,
    };
    use statistical_distortion::stats::AttributeTransform;

    let mut rng = proptest::seed_for("cleaning_fixture", seed);
    let transforms = [AttributeTransform::Identity, AttributeTransform::Identity];

    let mut ideal_series = TimeSeries::new(NodeId::new(0, 0, 0), 2, 40);
    for t in 0..40 {
        let x = 100.0 + rng.gen_range(-5.0..5.0);
        ideal_series.set(0, t, x);
        ideal_series.set(1, t, 0.5 * x + rng.gen_range(-1.0..1.0));
    }
    let ideal = Dataset::new(vec!["a", "b"], vec![ideal_series]).unwrap();

    let num_series = 1 + (seed as usize % 3);
    let mut series = Vec::new();
    for i in 0..num_series {
        let mut s = TimeSeries::new(NodeId::new(0, 0, 1 + i as u32), 2, 40);
        for t in 0..40 {
            let x = 100.0 + rng.gen_range(-5.0..5.0);
            s.set(0, t, x);
            s.set(1, t, 0.5 * x + rng.gen_range(-1.0..1.0));
        }
        // Inject glitches at random cells.
        for _ in 0..rng.gen_range(0..8usize) {
            let (a, t) = (rng.gen_range(0..2usize), rng.gen_range(0..40usize));
            match rng.gen_range(0..3u32) {
                0 => s.set_missing(a, t),
                1 => s.set(0, t, -rng.gen_range(1.0f64..50.0)), // inconsistent
                _ => s.set(a, t, 2000.0 + rng.gen_range(0.0f64..100.0)), // spike
            }
        }
        series.push(s);
    }
    let dirty = Dataset::new(vec!["a", "b"], series).unwrap();

    let detector = GlitchDetector::new(
        ConstraintSet::new(vec![Constraint::NonNegative { attr: 0 }]),
        Some(OutlierDetector::fit(&ideal, &transforms, 3.0)),
    );
    let glitches = detector.detect_dataset(&dirty);
    let ctx = CleaningContext::fit(&ideal, &transforms, 3.0);
    (dirty, glitches, ctx)
}

/// A random working-space cloud for the kernel equivalence property:
/// `rows × 3` values spanning several scales, with occasional NaN gaps
/// (missing cells survive pooling as NaN).
fn kernel_cloud(seed: u64, rows: usize) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    };
    (0..rows)
        .map(|_| {
            (0..3)
                .map(|k| {
                    let x = next();
                    if x < 0.04 {
                        f64::NAN
                    } else {
                        x * [120.0, 9.0, 1.5][k] - [10.0, 0.0, 0.7][k]
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every distortion kernel's incremental `score_patch` path must be
    /// bit-identical to its materialized `score_rows` path (the
    /// patch-vs-clone pattern, extended from cleaning to scoring): random
    /// dirty cloud, random sparse row edits, all six kernels.
    #[test]
    fn kernel_score_patch_is_bit_identical_to_materialized(
        seed in 0u64..5_000,
        rows in 8usize..80,
        num_edits in 0usize..24,
    ) {
        use statistical_distortion::core::DistortionMetric;
        use statistical_distortion::emd::{PatchedCloud, SignatureCache};

        let base = kernel_cloud(seed, rows);
        // Distinct edit rows with fresh values (and occasional NaN).
        let replacements = kernel_cloud(seed ^ 0xFEED, num_edits.min(rows));
        let edits: Vec<(usize, Vec<f64>)> = replacements
            .into_iter()
            .enumerate()
            .map(|(i, row)| ((i * 7 + seed as usize) % rows, row))
            .collect::<std::collections::BTreeMap<usize, Vec<f64>>>()
            .into_iter()
            .collect();

        let cache = SignatureCache::new(base.clone());
        let patched = PatchedCloud::new(&cache, edits);
        let materialized = patched.materialize();
        for metric in DistortionMetric::full_suite() {
            let kernel = metric.kernel();
            let fast = kernel.prepare(&cache).score_patch(&patched);
            let direct = kernel.score_rows(&base, &materialized);
            match (fast, direct) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} diverged: patched {} vs materialized {}",
                    kernel.name(),
                    a,
                    b
                ),
                (Err(_), Err(_)) => {} // both paths reject (e.g. too few complete rows)
                (fast, direct) => prop_assert!(
                    false,
                    "{}: one path failed, the other did not ({:?} vs {:?})",
                    kernel.name(),
                    fast,
                    direct
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's cell-patch cleaning must equal the full-clone in-place
    /// cleaning for random data and random strategies: same outcome
    /// counters, and the materialized copy-on-write view (and its replayed
    /// patch) bit-identical to the in-place result.
    #[test]
    fn cell_patch_view_equals_full_clone_clean(
        seed in 0u64..10_000,
        missing_kind in 0u32..3,
        outlier_kind in 0u32..2,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use statistical_distortion::cleaning::{
            CompositeStrategy, MissingTreatment, OutlierTreatment,
        };

        let (dirty, glitches, ctx) = cleaning_fixture(seed);
        let strategy = CompositeStrategy::new(
            match missing_kind {
                0 => MissingTreatment::Ignore,
                1 => MissingTreatment::MeanImpute,
                _ => MissingTreatment::ModelImpute,
            },
            if outlier_kind == 0 {
                OutlierTreatment::Ignore
            } else {
                OutlierTreatment::Winsorize
            },
        );

        let mut in_place = dirty.clone();
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0x5EED);
        let out_a = {
            use statistical_distortion::cleaning::CleaningStrategy;
            strategy.clean(&mut in_place, &glitches, &ctx, &mut rng_a)
        };

        let mut rng_b = StdRng::seed_from_u64(seed ^ 0x5EED);
        let (view, out_b) = strategy.clean_patch(&dirty, &glitches, &ctx, &mut rng_b, None);

        prop_assert_eq!(out_a, out_b, "cleaning counters diverge");
        prop_assert!(
            view.to_dataset().same_data(&in_place),
            "materialized view diverges from in-place clean"
        );
        prop_assert!(
            view.patch().apply_to(&dirty).same_data(&in_place),
            "replayed patch diverges from in-place clean"
        );
        // Untouched series must stay borrows of the base (no silent clones).
        for i in 0..dirty.num_series() {
            prop_assert_eq!(view.is_patched(i), view.patch().is_touched(i));
            if !view.is_patched(i) {
                prop_assert!(dirty.series_at(i).same_data(view.series_at(i)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Streaming determinism: whatever the arrival interleaving, shard
    /// count, and channel capacity, the service's trajectory is
    /// bit-identical to the batch replay of the same rows. The arrival
    /// order is the adversarial input — shard threads race on the wall
    /// clock, but the outcome may not.
    #[test]
    fn streaming_trajectories_survive_arrival_order_and_sharding(
        interleave_seed in 0u64..100_000,
        shard_choice in 0usize..4,
        capacity in 1usize..64,
    ) {
        use statistical_distortion::core::{WindowedConfig, WindowedExperiment, WindowedResult};
        use statistical_distortion::netsim::stream_rows_interleaved;
        use statistical_distortion::prelude::*;
        use std::sync::OnceLock;

        static REFERENCE: OnceLock<(Dataset, WindowedResult)> = OnceLock::new();
        let (data, batch) = REFERENCE.get_or_init(|| {
            let data = generate(&NetsimConfig::small(13)).dataset;
            let config = WindowedConfig::paper_default(20, 15, 13);
            let batch = WindowedExperiment::new(config)
                .run(&data, &[paper_strategy(5)])
                .expect("reference batch run");
            (data, batch)
        });

        let shards = [1, 2, 4, 8][shard_choice];
        let config = WindowedConfig::paper_default(20, 15, 13);
        let attributes = data.attributes().iter().map(|a| a.name.clone()).collect();
        let serve = ServeConfig::new(config, attributes)
            .with_shards(shards)
            .with_channel_capacity(capacity);
        let nodes = data.series().iter().map(|s| s.node()).collect();
        let service = StreamingService::launch(serve, nodes, vec![paper_strategy(5)])
            .expect("launch");
        for row in stream_rows_interleaved(data, interleave_seed) {
            service.ingest(row).expect("ingest");
        }
        let report = service.finish().expect("finish");

        prop_assert_eq!(batch.screens(), report.screens());
        prop_assert_eq!(batch.outcomes().len(), report.outcomes().len());
        for (x, y) in batch.outcomes().iter().zip(report.outcomes()) {
            prop_assert_eq!(x.window_index, y.window_index);
            prop_assert_eq!(x.improvement.to_bits(), y.improvement.to_bits(),
                "improvement, window {}", x.window_index);
            prop_assert_eq!(x.distortion.to_bits(), y.distortion.to_bits(),
                "distortion, window {}", x.window_index);
            prop_assert_eq!(&x.cleaning, &y.cleaning);
        }
        prop_assert!(report.stats().ring_high_water <= report.stats().ring_capacity);
    }

    /// The pipelined collector across shard counts: the live feed
    /// publishes strictly in window order and the report stays
    /// bit-identical to the one-shard reference.
    #[test]
    fn pipelined_publication_is_in_order_and_shard_invariant(
        shard_choice in 0usize..4,
    ) {
        use statistical_distortion::core::WindowedConfig;
        use statistical_distortion::prelude::*;
        use std::sync::OnceLock;

        static REFERENCE: OnceLock<(Dataset, StreamReport)> = OnceLock::new();
        let (data, reference) = REFERENCE.get_or_init(|| {
            let data = generate(&NetsimConfig::small(23)).dataset;
            let config = WindowedConfig::paper_default(20, 15, 23);
            let attributes = data.attributes().iter().map(|a| a.name.clone()).collect();
            let serve = ServeConfig::new(config, attributes).with_shards(1);
            let nodes = data.series().iter().map(|s| s.node()).collect();
            let service = StreamingService::launch(serve, nodes, vec![paper_strategy(2)])
                .expect("reference launch");
            for row in stream_rows(&data) {
                service.ingest(row).expect("reference ingest");
            }
            let report = service.finish().expect("reference finish");
            (data, report)
        });

        let shards = [1, 2, 4, 8][shard_choice];
        let config = WindowedConfig::paper_default(20, 15, 23);
        let attributes = data.attributes().iter().map(|a| a.name.clone()).collect();
        let serve = ServeConfig::new(config, attributes).with_shards(shards);
        let nodes = data.series().iter().map(|s| s.node()).collect();
        let service = StreamingService::launch(serve, nodes, vec![paper_strategy(2)])
            .expect("launch");
        let mut live = Vec::new();
        for row in stream_rows(data) {
            service.ingest(row).expect("ingest");
            while let Some(update) = service.try_next_window() {
                live.push(update.window_index);
            }
        }
        while let Some(update) = service.try_next_window() {
            live.push(update.window_index);
        }
        let report = service.finish().expect("finish");

        // Publication is strictly window 0, 1, 2, … on the live feed.
        prop_assert_eq!(&live[..], &(0..live.len()).collect::<Vec<_>>()[..]);
        prop_assert_eq!(report.screens(), reference.screens());
        prop_assert_eq!(report.outcomes().len(), reference.outcomes().len());
        for (x, y) in reference.outcomes().iter().zip(report.outcomes()) {
            prop_assert_eq!(x.improvement.to_bits(), y.improvement.to_bits(),
                "improvement, window {}", x.window_index);
            prop_assert_eq!(x.distortion.to_bits(), y.distortion.to_bits(),
                "distortion, window {}", x.window_index);
        }
    }
}
