use crate::signature::{quantize, scaled_signature, PatchedCloud};
use crate::{sinkhorn, EmdError, Result, Signature, SignatureCache, SinkhornParams};
use sd_stats::{sorted_union_columns, GridSpec};

/// How cell-centre coordinates are scaled before computing ground
/// distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceScaling {
    /// Use raw data coordinates. Appropriate when all attributes share a
    /// scale (e.g. the per-attribute distortion plots).
    Raw,
    /// Divide each axis by its grid range so every attribute contributes
    /// comparably — telemetry KPIs span wildly different magnitudes
    /// (volumes vs ratios), and without normalization the largest-scale
    /// attribute dominates the distance.
    Normalized,
}

/// How the shared grid's axis ranges are chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoverRule {
    /// Span the exact min–max of the union.
    MinMax,
    /// Span the `[qlo, qhi]` quantile range of the union; values outside
    /// clamp into the edge bins.
    Quantile(f64, f64),
    /// Span `median ± z · IQR` of the union (robust to heavy tails);
    /// values outside clamp into the edge bins.
    Robust {
        /// Half-width in IQR units.
        z: f64,
    },
}

/// Which solver produced a [`GridEmdReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverUsed {
    /// Exact transportation simplex.
    Simplex,
    /// Entropic Sinkhorn approximation (signature exceeded
    /// `max_exact_cells`).
    Sinkhorn,
}

/// End-to-end multidimensional EMD between two point clouds.
///
/// This is the concrete realization of the paper's statistical-distortion
/// measure: pool the `v`-tuples of the dirty and cleaned data sets,
/// quantize both onto one shared grid (so both distributions share a
/// support, as Definition 1 requires), and solve the transportation problem
/// between the occupied cells.
#[derive(Debug, Clone)]
pub struct GridEmd {
    bins_per_axis: usize,
    scaling: DistanceScaling,
    /// When `occupied_a * occupied_b` exceeds this, fall back to Sinkhorn.
    max_exact_cells: usize,
    sinkhorn_params: SinkhornParams,
    /// How the per-axis ranges are chosen.
    cover: CoverRule,
}

/// The result of a [`GridEmd::distance`] computation, with enough
/// diagnostics to audit the quantization.
#[derive(Debug, Clone)]
pub struct GridEmdReport {
    /// The Earth Mover's Distance.
    pub emd: f64,
    /// Occupied grid cells in the first cloud.
    pub occupied_a: usize,
    /// Occupied grid cells in the second cloud.
    pub occupied_b: usize,
    /// Points skipped (missing coordinate) in the first cloud.
    pub skipped_a: usize,
    /// Points skipped in the second cloud.
    pub skipped_b: usize,
    /// Which solver was used.
    pub solver: SolverUsed,
}

impl Default for GridEmd {
    fn default() -> Self {
        GridEmd {
            bins_per_axis: 8,
            scaling: DistanceScaling::Normalized,
            max_exact_cells: 400_000,
            sinkhorn_params: SinkhornParams::default(),
            // Telemetry has extreme spikes; the robust cover keeps the
            // bulk resolved while tails clamp into the edge bins.
            cover: CoverRule::Robust { z: 5.0 },
        }
    }
}

impl GridEmd {
    /// Creates a pipeline with `bins_per_axis` bins on every axis and
    /// normalized distance scaling.
    pub fn new(bins_per_axis: usize) -> Self {
        assert!(bins_per_axis >= 1, "need at least one bin per axis");
        GridEmd {
            bins_per_axis,
            ..Default::default()
        }
    }

    /// Sets the distance scaling.
    pub fn with_scaling(mut self, scaling: DistanceScaling) -> Self {
        self.scaling = scaling;
        self
    }

    /// Sets the exact-solver budget (product of occupied cell counts).
    pub fn with_max_exact_cells(mut self, cells: usize) -> Self {
        self.max_exact_cells = cells;
        self
    }

    /// Sets the Sinkhorn fallback parameters.
    pub fn with_sinkhorn_params(mut self, params: SinkhornParams) -> Self {
        self.sinkhorn_params = params;
        self
    }

    /// Sets the axis-cover rule (out-of-range values clamp into the edge
    /// bins for the quantile and robust rules).
    pub fn with_cover(mut self, cover: CoverRule) -> Self {
        if let CoverRule::Quantile(qlo, qhi) = cover {
            assert!(
                (0.0..=1.0).contains(&qlo) && (0.0..=1.0).contains(&qhi) && qlo < qhi,
                "quantiles must satisfy 0 <= qlo < qhi <= 1"
            );
        }
        if let CoverRule::Robust { z } = cover {
            assert!(z > 0.0, "z must be positive");
        }
        self.cover = cover;
        self
    }

    /// Bins per axis.
    pub fn bins_per_axis(&self) -> usize {
        self.bins_per_axis
    }

    /// EMD between two clouds of equal-dimension points (rows). Rows with
    /// any missing (NaN) coordinate are excluded from the density and
    /// reported in the diagnostics.
    pub fn distance(&self, a: &[Vec<f64>], b: &[Vec<f64>]) -> Result<GridEmdReport> {
        let columns = sorted_union_columns(a, b).ok_or(EmdError::EmptyInput)?;
        let spec = self.spec_from_sorted_columns(&columns);
        let qa = quantize(&spec, a);
        if qa.total == 0.0 {
            return Err(EmdError::EmptyInput);
        }
        let scale = self.axis_scale(&spec);
        let sig_a = scaled_signature(qa.pairs, &scale)?;
        let qb = quantize(&spec, b);
        self.solve_pair(&scale, &sig_a, qa.occupied, qa.skipped, qb)
    }

    /// Like [`GridEmd::distance`], but with the first cloud's quantization
    /// state served from a [`SignatureCache`]: the cached sorted columns
    /// feed the cover rule (merged with `b`'s columns instead of re-sorting
    /// the union), and the cached cloud's histogram/signature for the
    /// resulting grid is built at most once per distinct `(spec, scaling)`.
    ///
    /// Bit-identical to `self.distance(cache.rows(), b)`: both paths share
    /// the sorted-column cover constructors and the same signature/solver
    /// pipeline.
    pub fn distance_cached(&self, cache: &SignatureCache, b: &[Vec<f64>]) -> Result<GridEmdReport> {
        if cache.rows().is_empty() {
            return Err(EmdError::EmptyInput);
        }
        let b_columns = cache.counterpart_columns(b);
        let spec = self.spec_from_column_pairs(cache.sorted_columns(), &b_columns);
        let scale = self.axis_scale(&spec);
        let side = cache.side_for(&spec, &scale)?;
        let qb = quantize(&spec, b);
        self.solve_pair(&scale, &side.signature, side.occupied, side.skipped, qb)
    }

    /// EMD between the cached cloud and a [`PatchedCloud`] counterpart
    /// (the cleaned sample as sparse row edits against the dirty one).
    /// The cover rule consumes derived sorted columns, and the counterpart
    /// histogram is the cached histogram with only the edited rows
    /// re-binned. Bit-identical to
    /// `self.distance(cache.rows(), &patched.materialize())`.
    ///
    /// ```
    /// use sd_emd::{GridEmd, PatchedCloud, SignatureCache};
    ///
    /// // A dirty cloud, cached once; a "cleaning" that moves two rows.
    /// let dirty: Vec<Vec<f64>> = (0..64)
    ///     .map(|i| vec![i as f64 * 0.25, (i % 8) as f64])
    ///     .collect();
    /// let cache = SignatureCache::new(dirty.clone());
    /// let edits = vec![(3, vec![100.0, 50.0]), (40, vec![0.5, 0.5])];
    ///
    /// let emd = GridEmd::new(6);
    /// let patched = emd
    ///     .distance_patched(&PatchedCloud::new(&cache, edits.clone()))
    ///     .unwrap();
    ///
    /// // Bit-identical to materializing the cleaned cloud and starting
    /// // from scratch — the engine leans on this equivalence.
    /// let mut cleaned = dirty.clone();
    /// for (row, values) in edits {
    ///     cleaned[row] = values;
    /// }
    /// let direct = emd.distance(&dirty, &cleaned).unwrap();
    /// assert_eq!(patched.emd.to_bits(), direct.emd.to_bits());
    /// assert!(patched.emd > 0.0);
    /// ```
    pub fn distance_patched(&self, patched: &PatchedCloud<'_>) -> Result<GridEmdReport> {
        let cache = patched.cache();
        if cache.rows().is_empty() {
            return Err(EmdError::EmptyInput);
        }
        let b_columns = patched.sorted_columns();
        let spec = self.spec_from_column_pairs(cache.sorted_columns(), b_columns);
        let scale = self.axis_scale(&spec);
        let side = cache.side_for(&spec, &scale)?;
        let qb = patched.quantize_on(&spec, &side.quant);
        self.solve_pair(&scale, &side.signature, side.occupied, side.skipped, qb)
    }

    /// The grid spec for pre-sorted per-axis union columns, under this
    /// pipeline's cover rule.
    fn spec_from_sorted_columns(&self, columns: &[Vec<f64>]) -> GridSpec {
        match self.cover {
            CoverRule::MinMax => {
                GridSpec::from_sorted_columns_quantiles(columns, self.bins_per_axis, 0.0, 1.0)
            }
            CoverRule::Quantile(qlo, qhi) => {
                GridSpec::from_sorted_columns_quantiles(columns, self.bins_per_axis, qlo, qhi)
            }
            CoverRule::Robust { z } => {
                GridSpec::from_sorted_columns_robust(columns, self.bins_per_axis, z)
            }
        }
    }

    /// The grid spec when each axis's union column is split into two
    /// sorted halves (cached side + counterpart side) — same cover rules,
    /// quantiles read by rank selection instead of merging.
    fn spec_from_column_pairs(&self, a: &[Vec<f64>], b: &[Vec<f64>]) -> GridSpec {
        let pairs: Vec<(&[f64], &[f64])> = a
            .iter()
            .zip(b)
            .map(|(x, y)| (x.as_slice(), y.as_slice()))
            .collect();
        match self.cover {
            CoverRule::MinMax => {
                GridSpec::from_sorted_column_pairs_quantiles(&pairs, self.bins_per_axis, 0.0, 1.0)
            }
            CoverRule::Quantile(qlo, qhi) => {
                GridSpec::from_sorted_column_pairs_quantiles(&pairs, self.bins_per_axis, qlo, qhi)
            }
            CoverRule::Robust { z } => {
                GridSpec::from_sorted_column_pairs_robust(&pairs, self.bins_per_axis, z)
            }
        }
    }

    /// Per-axis coordinate divisors implied by the scaling mode.
    fn axis_scale(&self, spec: &GridSpec) -> Vec<f64> {
        match self.scaling {
            DistanceScaling::Raw => vec![1.0; spec.dim()],
            DistanceScaling::Normalized => spec
                .axes()
                .iter()
                .map(|ax| {
                    let range = ax.hi - ax.lo;
                    if range > 0.0 {
                        range
                    } else {
                        1.0
                    }
                })
                .collect(),
        }
    }

    /// Shared back half of the pipeline: solve the transportation problem
    /// between the prepared `a` side and the quantized `b` side. Exact
    /// solves run on this thread's shared cold arena — pure allocation
    /// reuse, bit-identical to a standalone [`crate::TransportProblem`]
    /// solve.
    fn solve_pair(
        &self,
        scale: &[f64],
        sig_a: &Signature,
        occupied_a: usize,
        skipped_a: usize,
        qb: crate::signature::CloudQuant,
    ) -> Result<GridEmdReport> {
        if qb.total == 0.0 {
            return Err(EmdError::EmptyInput);
        }
        let occupied_b = qb.occupied;
        let skipped_b = qb.skipped;
        let sig_b = scaled_signature(qb.pairs, scale)?;

        let exact = sig_a.len() * sig_b.len() <= self.max_exact_cells;
        let emd = if exact {
            let wa = sig_a.normalized_weights();
            let wb = sig_b.normalized_weights();
            let cost = crate::ground_distance_matrix(sig_a.points(), sig_b.points());
            crate::batch::with_cold_arena(|arena| arena.solve_cold(&wa, &wb, &cost))?
        } else {
            let cost = crate::ground_distance_matrix(sig_a.points(), sig_b.points());
            // Debiased Sinkhorn divergence: the raw entropic cost has a
            // positive floor even for identical distributions (the plan is
            // deliberately blurry), which would swamp small distances.
            // Subtracting the self-transport terms removes that floor:
            //   S(a,b) − ½ S(a,a) − ½ S(b,b).
            let wa = sig_a.normalized_weights();
            let wb = sig_b.normalized_weights();
            let ab = sinkhorn(&wa, &wb, &cost, self.sinkhorn_params)?;
            let cost_aa = crate::ground_distance_matrix(sig_a.points(), sig_a.points());
            let cost_bb = crate::ground_distance_matrix(sig_b.points(), sig_b.points());
            let aa = sinkhorn(&wa, &wa, &cost_aa, self.sinkhorn_params)?;
            let bb = sinkhorn(&wb, &wb, &cost_bb, self.sinkhorn_params)?;
            (ab - 0.5 * aa - 0.5 * bb).max(0.0)
        };

        Ok(GridEmdReport {
            emd,
            occupied_a,
            occupied_b,
            skipped_a,
            skipped_b,
            solver: if exact {
                SolverUsed::Simplex
            } else {
                SolverUsed::Sinkhorn
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(points: &[(f64, f64)]) -> Vec<Vec<f64>> {
        points.iter().map(|&(x, y)| vec![x, y]).collect()
    }

    #[test]
    fn identical_clouds_have_zero_distance() {
        let a = cloud(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]);
        let report = GridEmd::new(4).distance(&a, &a).unwrap();
        assert!(report.emd.abs() < 1e-12);
        assert_eq!(report.solver, SolverUsed::Simplex);
        assert_eq!(report.occupied_a, report.occupied_b);
    }

    #[test]
    fn shifted_cloud_has_positive_distance() {
        let a = cloud(&[(0.0, 0.0), (0.1, 0.1), (0.2, 0.0)]);
        let b = cloud(&[(5.0, 5.0), (5.1, 5.1), (5.2, 5.0)]);
        let report = GridEmd::new(8)
            .with_cover(CoverRule::MinMax)
            .distance(&a, &b)
            .unwrap();
        assert!(report.emd > 0.5);
        // The robust cover widens the axes, shrinking normalized distances
        // but never erasing them.
        let robust = GridEmd::new(8).distance(&a, &b).unwrap();
        assert!(robust.emd > 0.05 && robust.emd <= report.emd + 1e-12);
    }

    #[test]
    fn distance_grows_with_shift() {
        let base = cloud(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let near = cloud(&[(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let far = cloud(&[(7.0, 0.0), (8.0, 0.0), (9.0, 0.0)]);
        let g = GridEmd::new(16).with_scaling(DistanceScaling::Raw);
        let d_near = g.distance(&base, &near).unwrap().emd;
        let d_far = g.distance(&base, &far).unwrap().emd;
        assert!(d_far > d_near, "{d_far} vs {d_near}");
    }

    #[test]
    fn raw_scaling_matches_1d_emd_for_line_clouds() {
        // Points along one axis; grid EMD with fine bins ≈ exact 1-D EMD.
        let a: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, 0.0]).collect();
        let b: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 + 10.0, 0.0]).collect();
        let g = GridEmd::new(64)
            .with_scaling(DistanceScaling::Raw)
            .with_cover(CoverRule::MinMax);
        let grid_d = g.distance(&a, &b).unwrap().emd;
        let a1: Vec<f64> = a.iter().map(|p| p[0]).collect();
        let b1: Vec<f64> = b.iter().map(|p| p[0]).collect();
        let exact = crate::emd_1d_samples(&a1, &b1).unwrap();
        // Quantization error is bounded by the bin diagonal.
        assert!(
            (grid_d - exact).abs() < 2.0,
            "grid {grid_d} vs exact {exact}"
        );
    }

    #[test]
    fn missing_coordinates_are_skipped_and_reported() {
        let mut a = cloud(&[(0.0, 0.0), (1.0, 1.0)]);
        a.push(vec![f64::NAN, 0.5]);
        let b = cloud(&[(0.0, 0.0), (1.0, 1.0)]);
        let report = GridEmd::new(4).distance(&a, &b).unwrap();
        assert_eq!(report.skipped_a, 1);
        assert_eq!(report.skipped_b, 0);
    }

    #[test]
    fn empty_or_all_missing_cloud_is_an_error() {
        let a = cloud(&[(0.0, 0.0)]);
        let empty: Vec<Vec<f64>> = Vec::new();
        assert!(matches!(
            GridEmd::new(4).distance(&a, &empty),
            Err(EmdError::EmptyInput)
        ));
        let all_missing = vec![vec![f64::NAN, f64::NAN]];
        assert!(GridEmd::new(4).distance(&a, &all_missing).is_err());
    }

    #[test]
    fn sinkhorn_fallback_engages_when_budget_exceeded() {
        let a: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64, (i / 8) as f64])
            .collect();
        let b: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64 + 0.4, (i / 8) as f64])
            .collect();
        let report = GridEmd::new(8)
            .with_max_exact_cells(4)
            .with_sinkhorn_params(SinkhornParams {
                regularization: 0.1,
                max_iterations: 50_000,
                tolerance: 1e-8,
            })
            .distance(&a, &b)
            .unwrap();
        assert_eq!(report.solver, SolverUsed::Sinkhorn);
        assert!(report.emd.is_finite());
    }

    #[test]
    fn cached_distance_is_bit_identical_to_direct() {
        // Several counterpart clouds against one cached cloud, across cover
        // rules and scalings: the cached path must reproduce the direct
        // path bit for bit, hits and misses alike.
        let a: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 10) as f64 * 1.3, (i / 10) as f64, (i % 7) as f64 * 0.2])
            .collect();
        let mut with_gap = a.clone();
        with_gap[5][1] = f64::NAN;
        let counterparts: Vec<Vec<Vec<f64>>> = vec![
            a.clone(), // identical → same grid, memo hit on the second call
            a.iter().map(|p| vec![p[0] + 2.0, p[1], p[2]]).collect(),
            a.iter()
                .map(|p| vec![p[0], p[1] * 3.0, p[2] + 1.0])
                .collect(),
            with_gap,
        ];
        for g in [
            GridEmd::new(6),
            GridEmd::new(4).with_scaling(DistanceScaling::Raw),
            GridEmd::new(5).with_cover(CoverRule::MinMax),
            GridEmd::new(5).with_cover(CoverRule::Quantile(0.05, 0.95)),
        ] {
            let cache = SignatureCache::new(a.clone());
            for b in &counterparts {
                let direct = g.distance(&a, b).unwrap();
                let cached = g.distance_cached(&cache, b).unwrap();
                assert_eq!(direct.emd.to_bits(), cached.emd.to_bits());
                assert_eq!(direct.occupied_a, cached.occupied_a);
                assert_eq!(direct.occupied_b, cached.occupied_b);
                assert_eq!(direct.skipped_a, cached.skipped_a);
                assert_eq!(direct.skipped_b, cached.skipped_b);
                assert_eq!(direct.solver, cached.solver);
            }
            // Re-scoring the identical cloud hits the memo.
            let before = cache.memoized();
            g.distance_cached(&cache, &a).unwrap();
            assert_eq!(cache.memoized(), before);
        }
    }

    #[test]
    fn patched_distance_is_bit_identical_to_direct() {
        // The patched pipeline (derived sorted columns + incrementally
        // edited dense histogram) must equal the direct pipeline on the
        // materialized cloud, bit for bit, across edit shapes.
        let a: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i % 9) as f64 * 1.7, (i / 9) as f64 * 0.9, (i % 5) as f64])
            .collect();
        let edit_sets: Vec<Vec<(usize, Vec<f64>)>> = vec![
            vec![],                            // no edits: b == a
            vec![(3, vec![100.0, -4.0, 2.0])], // one row far away
            (0..40)
                .map(|r| (r * 2, vec![r as f64 * 0.3, 1.0, 2.5]))
                .collect(),
            vec![(7, vec![f64::NAN, 1.0, 1.0])], // edit introduces a gap
            vec![(11, vec![0.0, 0.0, 0.0]), (12, vec![8.5, 7.2, 4.0])],
        ];
        let mut with_gap = a.clone();
        with_gap[5][0] = f64::NAN; // base cloud itself has a gap
        for base in [a.clone(), with_gap] {
            for g in [
                GridEmd::new(6),
                GridEmd::new(4).with_scaling(DistanceScaling::Raw),
                GridEmd::new(5).with_cover(CoverRule::MinMax),
            ] {
                let cache = SignatureCache::new(base.clone());
                for edits in &edit_sets {
                    let patched = PatchedCloud::new(&cache, edits.clone());
                    let b = patched.materialize();
                    let direct = g.distance(&base, &b).unwrap();
                    let fast = g.distance_patched(&patched).unwrap();
                    assert_eq!(direct.emd.to_bits(), fast.emd.to_bits());
                    assert_eq!(direct.occupied_a, fast.occupied_a);
                    assert_eq!(direct.occupied_b, fast.occupied_b);
                    assert_eq!(direct.skipped_a, fast.skipped_a);
                    assert_eq!(direct.skipped_b, fast.skipped_b);
                    assert_eq!(direct.solver, fast.solver);
                }
            }
        }
    }

    #[test]
    fn dense_and_sparse_quantization_agree() {
        use crate::signature::quantize;
        use sd_stats::GridHistogram;
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let x = (i as f64 * 0.37).sin() * 40.0;
                let y = (i as f64 * 0.11).cos() * 7.0;
                vec![x, if i % 13 == 0 { f64::NAN } else { y }]
            })
            .collect();
        let spec = sd_stats::GridSpec::covering(&rows, &[], 9).unwrap();
        let dense = quantize(&spec, &rows);
        assert!(dense.counts.is_some(), "9×9 grid takes the dense path");
        let sparse = GridHistogram::from_points(spec.clone(), &rows);
        assert_eq!(dense.total, sparse.total());
        assert_eq!(dense.skipped, sparse.skipped());
        assert_eq!(dense.occupied, sparse.occupied());
        let sparse_pairs = sparse.signature();
        assert_eq!(dense.pairs.len(), sparse_pairs.len());
        for ((pc, pm), (sc, sm)) in dense.pairs.iter().zip(&sparse_pairs) {
            assert_eq!(pc, sc, "centre order must match");
            assert_eq!(pm.to_bits(), sm.to_bits(), "masses must match");
        }
    }

    #[test]
    fn cached_distance_matches_direct_errors() {
        let a = cloud(&[(0.0, 0.0), (1.0, 1.0)]);
        let empty: Vec<Vec<f64>> = Vec::new();
        let cache = SignatureCache::new(a.clone());
        assert!(matches!(
            GridEmd::new(4).distance_cached(&cache, &empty),
            Err(EmdError::EmptyInput)
        ));
        let all_missing = vec![vec![f64::NAN, f64::NAN]];
        assert!(GridEmd::new(4)
            .distance_cached(&cache, &all_missing)
            .is_err());
        // Empty cached cloud behaves like an empty first argument.
        let empty_cache = SignatureCache::new(Vec::new());
        assert!(matches!(
            GridEmd::new(4).distance_cached(&empty_cache, &a),
            Err(EmdError::EmptyInput)
        ));
    }

    #[test]
    fn normalized_scaling_is_insensitive_to_axis_units() {
        // Same shape, one axis measured in different units.
        let a1 = cloud(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        let b1 = cloud(&[(1.0, 0.0), (2.0, 1.0), (3.0, 0.0)]);
        let a2: Vec<Vec<f64>> = a1.iter().map(|p| vec![p[0] * 1000.0, p[1]]).collect();
        let b2: Vec<Vec<f64>> = b1.iter().map(|p| vec![p[0] * 1000.0, p[1]]).collect();
        let g = GridEmd::new(8).with_scaling(DistanceScaling::Normalized);
        let d1 = g.distance(&a1, &b1).unwrap().emd;
        let d2 = g.distance(&a2, &b2).unwrap().emd;
        assert!((d1 - d2).abs() < 1e-9, "{d1} vs {d2}");
    }
}
