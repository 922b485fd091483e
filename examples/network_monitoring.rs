//! Network-monitoring scenario: detect and score glitches on a live-style
//! telemetry feed, then decide how much cleaning the budget should buy.
//!
//! This walks the paper's motivating use case end to end: annotate the
//! stream with the three detectors (§3.3), inspect glitch co-occurrence
//! (§4.2 / Figure 3), rank the dirtiest sectors, and run the §5.2 cost
//! sweep to find the point of diminishing returns.
//!
//! ```text
//! cargo run --release --example network_monitoring
//! ```

use statistical_distortion::glitch::{co_occurrence, counts_per_time};
use statistical_distortion::prelude::*;

fn main() {
    let generated = generate(&NetsimConfig::harness_scale(123));
    let data = generated.dataset;

    // --- Detection ------------------------------------------------------
    // Identify the ideal partition (< 5 % of each glitch type per series),
    // then fit 3-σ limits on it.
    let transforms = vec![
        AttributeTransform::log(), // load: heavy-tailed, work in log space
        AttributeTransform::Identity,
        AttributeTransform::Identity,
    ];
    let constraints = ConstraintSet::paper_rules(0, 2);
    let partition = partition_ideal(&data, &constraints, &transforms, 3.0, 0.05)
        .expect("telemetry contains both clean and dirty sectors");
    println!(
        "partition: {} ideal series, {} dirty series",
        partition.ideal_indices.len(),
        partition.dirty_indices.len()
    );

    let ideal = partition.ideal_dataset(&data);
    let dirty = partition.dirty_dataset(&data);
    let detector = GlitchDetector::new(
        constraints,
        Some(OutlierDetector::fit(&ideal, &transforms, 3.0)),
    );
    let matrices = detector.detect_dataset(&dirty);

    // --- Glitch anatomy ---------------------------------------------------
    let report = GlitchReport::from_matrices(&matrices);
    println!(
        "\nrecord-level glitch rates: missing {:.1} %, inconsistent {:.1} %, outliers {:.1} %",
        report.record_percentage(GlitchType::Missing),
        report.record_percentage(GlitchType::Inconsistent),
        report.record_percentage(GlitchType::Outlier),
    );
    let co = co_occurrence(&matrices, GlitchType::Missing, GlitchType::Inconsistent);
    println!(
        "missing ∩ inconsistent: {:.1} % of records (Jaccard {:.2}) — the \
         cross-attribute rule makes them co-occur",
        100.0 * co.both,
        co.jaccard
    );

    // Figure-3-style burst texture: peak glitch load over time.
    let missing_series = counts_per_time(&matrices, GlitchType::Missing, 170);
    let peak = missing_series.iter().max().copied().unwrap_or(0);
    println!("peak per-step missing count across the dirty partition: {peak}");

    // --- Who is dirtiest? -------------------------------------------------
    let index = GlitchIndex::new(GlitchWeights::paper());
    let ranked = index.rank_dirtiest(&matrices);
    println!("\nthree dirtiest sectors:");
    for &i in ranked.iter().take(3) {
        println!(
            "  {}  (normalized glitch score {:.3})",
            dirty.series_at(i).node(),
            index.node_score(&matrices[i])
        );
    }

    // --- How much cleaning should the budget buy? -------------------------
    let mut experiment = ExperimentConfig::paper_default(100, 31);
    experiment.replications = 8;
    let sweep = CostSweepConfig {
        experiment,
        fractions: vec![0.0, 0.2, 0.5, 1.0],
        strategies: vec![paper_strategy(1)],
    };
    let points = cost_sweep(&data, &sweep).expect("cost sweep");
    println!("\ncost sweep (strategy 1 = winsorize + impute):");
    println!(
        "{:>10} {:>12} {:>12}",
        "% cleaned", "improvement", "distortion"
    );
    for &fraction in &[0.0, 0.2, 0.5, 1.0] {
        let (mut imp, mut dist, mut n) = (0.0, 0.0, 0);
        for p in points.iter().filter(|p| p.fraction == fraction) {
            imp += p.improvement;
            dist += p.distortion;
            n += 1;
        }
        let n = n.max(1) as f64;
        println!(
            "{:>10.0} {:>12.3} {:>12.4}",
            fraction * 100.0,
            imp / n,
            dist / n
        );
    }
    println!(
        "\nReading: if the improvement curve flattens past 50 % cleaned \
         while distortion keeps growing, cleaning the remaining half of \
         the sectors buys little — the paper's §5.6 conclusion."
    );
}
