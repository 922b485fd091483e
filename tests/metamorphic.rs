//! Metamorphic properties of the distortion kernels, checked through the
//! public materialized path (`statistical_distortion`) only — no engine
//! state, cache or reference runner is involved, so these tests share no
//! code with the incremental paths they back up.
//!
//! * identity: `d(D, D) = 0` for every kernel;
//! * series order: pooling treats every time instance as one data point
//!   (§6.1), so reordering the series of both data sets the same way
//!   cannot change any kernel's value beyond summation rounding.

use statistical_distortion::prelude::*;

const SEEDS: [u64; 3] = [1, 7, 9];

fn dirty(seed: u64) -> Dataset {
    generate(&NetsimConfig::small(seed)).dataset
}

fn identity_transforms(data: &Dataset) -> Vec<AttributeTransform> {
    vec![AttributeTransform::Identity; data.num_attributes()]
}

/// A deterministic "cleaned" counterpart built without any cleaning code:
/// every present cell is scaled by a small series- and time-dependent
/// factor; missing cells stay missing.
fn perturbed(data: &Dataset) -> Dataset {
    let mut out = data.clone();
    for (i, series) in out.series_mut().iter_mut().enumerate() {
        for a in 0..series.num_attributes() {
            for t in 0..series.len() {
                let x = series.get(a, t);
                if !x.is_nan() {
                    let factor = 1.0 + 0.05 * ((i * 7 + t * 3 + a) as f64).sin();
                    series.set(a, t, x * factor);
                }
            }
        }
    }
    out
}

/// The series order reversed, then rotated left by `k`.
fn reversed_and_rotated(n: usize, k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).rev().collect();
    order.rotate_left(k % n.max(1));
    order
}

#[test]
fn distortion_of_a_dataset_with_itself_is_zero() {
    for seed in SEEDS {
        let data = dirty(seed);
        let transforms = identity_transforms(&data);
        for metric in DistortionMetric::full_suite() {
            let d = statistical_distortion(&data, &data, &transforms, metric).unwrap();
            assert!(
                d.abs() <= 1e-12,
                "seed {seed}: {} gave {d} on identical data",
                metric.name()
            );
        }
    }
}

#[test]
fn reordering_series_changes_no_kernel() {
    for seed in SEEDS {
        let data = dirty(seed);
        let cleaned = perturbed(&data);
        let transforms = identity_transforms(&data);
        let n = data.num_series();
        for order in [reversed_and_rotated(n, 0), reversed_and_rotated(n, 37)] {
            let data_p = data.subset(&order);
            let cleaned_p = cleaned.subset(&order);
            for metric in DistortionMetric::full_suite() {
                let x = statistical_distortion(&data, &cleaned, &transforms, metric).unwrap();
                let y = statistical_distortion(&data_p, &cleaned_p, &transforms, metric).unwrap();
                assert!(
                    x > 0.0,
                    "seed {seed}: {} cannot see the perturbation",
                    metric.name()
                );
                assert!(
                    (x - y).abs() <= 1e-12 * (1.0 + x.abs()),
                    "seed {seed}: {} moved from {x} to {y} under a series reorder",
                    metric.name()
                );
            }
        }
    }
}
