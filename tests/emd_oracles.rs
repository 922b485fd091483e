//! Independent oracles for the grid EMD pipeline.
//!
//! `GridEmd` solves only the residual (moved) mass and reads its grid
//! cover by rank selection over unmaterialized patched columns. These
//! tests check both against code paths that share neither shortcut: a
//! standalone `TransportProblem` and the structurally independent
//! `MinCostFlow` on the full, unreduced signatures, and `select_sorted_pair`
//! on materialized patched columns.

use proptest::prelude::*;
use statistical_distortion::emd::{
    ground_distance_matrix, BatchTransport, CoverRule, DistanceScaling, GridEmd, MinCostFlow,
    PatchedCloud, SignatureCache, TransportProblem,
};
use statistical_distortion::stats::{
    select_patched_pair, select_sorted_pair, GridHistogram, GridSpec, UnionColumn,
};

/// Deterministic uniform stream in `[0, 1)`.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64 + 1.0)
    }
}

/// Row edits: `(row index, replacement row)`.
type Edits = Vec<(usize, Vec<f64>)>;

/// A dirty cloud and a cleaning of it as row edits. `shape` picks the
/// corner the case stresses.
fn scenario(seed: u64, shape: u64) -> (Vec<Vec<f64>>, Edits) {
    let mut next = lcg(seed);
    let rows = 2 + (next() * 40.0) as usize;
    let value = |next: &mut dyn FnMut() -> f64| match shape {
        // Heavy ties: a few distinct values, so cells carry duplicate mass.
        1 => (next() * 3.0).floor(),
        // One-cell support: every row at the same point.
        2 => 1.5,
        _ => next() * 20.0 - 5.0,
    };
    let mut base: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..3).map(|_| value(&mut next)).collect())
        .collect();
    if shape == 3 {
        // Missing rows, which the cleaning imputes: the dirty and cleaned
        // clouds then bin different totals.
        for row in base.iter_mut().step_by(3).skip(1) {
            row[(next() * 3.0) as usize] = f64::NAN;
        }
    }
    let mut edits = Vec::new();
    for (r, row) in base.iter().enumerate() {
        let imputed = shape == 3 && row.iter().any(|x| x.is_nan());
        if imputed || next() < 0.3 {
            let new_row: Vec<f64> = match shape {
                // Moves to one other point: still a one-cell support each.
                2 => vec![4.0, 1.5, -2.0],
                // Re-writes that leave the row where it was.
                4 => row.clone(),
                _ => (0..3).map(|_| value(&mut next)).collect(),
            };
            edits.push((r, new_row));
        }
    }
    (base, edits)
}

/// The full, unreduced EMD of two clouds on `g`'s grid: both signatures
/// solved by a standalone `TransportProblem` and by `MinCostFlow`.
fn full_problem(
    bins: usize,
    cover: CoverRule,
    scaling: DistanceScaling,
    a: &[Vec<f64>],
    b: &[Vec<f64>],
) -> (f64, f64) {
    let spec = match cover {
        CoverRule::MinMax => GridSpec::covering(a, b, bins),
        CoverRule::Quantile(qlo, qhi) => GridSpec::covering_quantiles(a, b, bins, qlo, qhi),
        CoverRule::Robust { z } => GridSpec::covering_robust(a, b, bins, z),
    }
    .expect("non-empty clouds");
    let scale: Vec<f64> = spec
        .axes()
        .iter()
        .map(|ax| match scaling {
            DistanceScaling::Raw => 1.0,
            DistanceScaling::Normalized if ax.hi - ax.lo > 0.0 => ax.hi - ax.lo,
            DistanceScaling::Normalized => 1.0,
        })
        .collect();
    let side = |rows: &[Vec<f64>]| -> (Vec<Vec<f64>>, Vec<f64>) {
        GridHistogram::from_points(spec.clone(), rows)
            .signature()
            .into_iter()
            .map(|(centre, w)| (centre.iter().zip(&scale).map(|(x, s)| x / s).collect(), w))
            .unzip()
    };
    let (pa, wa) = side(a);
    let (pb, wb) = side(b);
    let cost = ground_distance_matrix(&pa, &pb);
    let simplex = TransportProblem::new(wa.clone(), wb.clone(), cost.clone())
        .expect("balanced")
        .solve()
        .expect("simplex");
    let flow = MinCostFlow::new(wa, wb, cost)
        .expect("balanced")
        .solve()
        .expect("flow");
    (simplex, flow)
}

fn assert_close(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
        "{what}: got {got}, oracle {want}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The residual solve equals the full transportation problem, solved
    /// two independent ways, on every path into it.
    #[test]
    fn residual_emd_matches_full_problem_oracles(seed in 0u64..100_000, shape in 0u64..5) {
        let (base, edits) = scenario(seed, shape);
        let cache = SignatureCache::new(base.clone());
        let patched = PatchedCloud::new(&cache, edits);
        let cleaned = patched.materialize();
        for (bins, cover, scaling) in [
            (8, CoverRule::Robust { z: 5.0 }, DistanceScaling::Normalized),
            (5, CoverRule::MinMax, DistanceScaling::Raw),
            (6, CoverRule::Quantile(0.1, 0.9), DistanceScaling::Normalized),
            // 41³ cells exceed the dense-histogram budget: sparse grid.
            (41, CoverRule::MinMax, DistanceScaling::Normalized),
        ] {
            let g = GridEmd::new(bins).with_cover(cover).with_scaling(scaling);
            let Ok(direct) = g.distance(&base, &cleaned) else {
                // No complete rows on one side: nothing to transport.
                prop_assert!(g.distance_patched(&patched).is_err());
                continue;
            };
            let fast = g.distance_patched(&patched).expect("patched path");
            prop_assert_eq!(fast.emd.to_bits(), direct.emd.to_bits());
            let (simplex, flow) = full_problem(bins, cover, scaling, &base, &cleaned);
            assert_close(direct.emd, simplex, "vs TransportProblem");
            assert_close(direct.emd, flow, "vs MinCostFlow");
        }
    }
}

#[test]
fn identical_clouds_score_exactly_zero() {
    for shape in 0..5 {
        let (base, edits) = scenario(17 + shape, shape);
        let g = GridEmd::default();
        if g.distance(&base, &base).is_err() {
            continue;
        }
        assert_eq!(g.distance(&base, &base).unwrap().emd.to_bits(), 0u64);
        let cache = SignatureCache::new(base.clone());
        let unchanged: Edits = edits.iter().map(|(r, _)| (*r, base[*r].clone())).collect();
        for same in [Vec::new(), unchanged] {
            let d = g
                .distance_patched(&PatchedCloud::new(&cache, same))
                .unwrap()
                .emd;
            assert_eq!(d.to_bits(), 0u64, "shape {shape}");
        }
    }
}

/// A balanced instance whose rounding leaves supply on a row after the
/// last column's demand is used up; the north-west-corner walk used to
/// step past the last column and panic.
#[test]
fn northwest_corner_survives_supply_residue_on_the_last_column() {
    let supply = vec![
        1.734723475976807e-18,
        0.01470588235294118,
        0.02941176470588236,
        0.04411764705882354,
        3.469446951953614e-18,
        0.029411764705882373,
        3.469446951953614e-18,
        1.734723475976807e-18,
        0.04411764705882354,
        1.734723475976807e-18,
    ];
    let demand = vec![
        0.014705882352941178,
        0.014705882352941176,
        0.01470588235294118,
        0.014705882352941178,
        0.014705882352941124,
        0.04411764705882353,
        0.029411764705882356,
        0.014705882352941176,
    ];
    let cost: Vec<f64> = (0..10 * 8)
        .map(|c| ((c / 8) as f64 - (c % 8) as f64).abs())
        .collect();
    let standalone = TransportProblem::new(supply.clone(), demand.clone(), cost.clone())
        .unwrap()
        .solve()
        .unwrap();
    let batched = BatchTransport::new()
        .solve_cold(&supply, &demand, &cost)
        .unwrap();
    assert_eq!(standalone.to_bits(), batched.to_bits());
    let flow = MinCostFlow::new(supply, demand, cost)
        .unwrap()
        .solve()
        .unwrap();
    assert_close(standalone, flow, "vs MinCostFlow");
}

/// A sorted column (ties, ±0.0), a sub-multiset of it to remove and
/// values to add, per `shape`.
fn patched_column(seed: u64, shape: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut next = lcg(seed);
    let n = 1 + (next() * 30.0) as usize;
    let pool = [-2.0, -0.0, 0.0, 0.5, 0.5, 1.0, 3.0, f64::INFINITY];
    let draw = |next: &mut dyn FnMut() -> f64| pool[(next() * pool.len() as f64) as usize];
    let mut base: Vec<f64> = (0..n).map(|_| draw(&mut next)).collect();
    base.sort_by(f64::total_cmp);
    let mut removed: Vec<f64> = match shape {
        // Every value removed.
        0 => base.clone(),
        _ => base.iter().copied().filter(|_| next() < 0.4).collect(),
    };
    let mut added: Vec<f64> = match shape {
        // Removals equal to additions.
        1 => removed.clone(),
        // Nothing added (edits that only blank values).
        2 => Vec::new(),
        _ => (0..(next() * 8.0) as usize)
            .map(|_| draw(&mut next))
            .collect(),
    };
    removed.sort_by(f64::total_cmp);
    added.sort_by(f64::total_cmp);
    (base, removed, added)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The column-free rank selector returns, bit for bit, the element
    /// `select_sorted_pair` returns on the materialized patched column.
    #[test]
    fn patched_rank_selection_matches_materialized_columns(
        seed in 0u64..1_000_000,
        shape in 0u64..4,
    ) {
        let (base, removed, added) = patched_column(seed, shape);
        let mut patched = base.clone();
        for x in &removed {
            let at = patched
                .iter()
                .position(|y| y.total_cmp(x).is_eq())
                .expect("removed values come from the base");
            patched.remove(at);
        }
        patched.extend_from_slice(&added);
        patched.sort_by(f64::total_cmp);
        let column = UnionColumn::Patched {
            base: &base,
            removed: &removed,
            added: &added,
        };
        prop_assert_eq!(column.len(), base.len() + patched.len());
        for k in 0..column.len() {
            prop_assert_eq!(
                select_patched_pair(&base, &removed, &added, k).to_bits(),
                select_sorted_pair(&base, &patched, k).to_bits(),
                "rank {}", k
            );
        }
        let merged = UnionColumn::Pair(&base, &patched);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            prop_assert_eq!(
                column.quantile(q).map(f64::to_bits),
                merged.quantile(q).map(f64::to_bits)
            );
        }
    }
}
