//! A replay of the engine's `(replication, strategy)` unit built only from
//! the layers' public functions, with a span around every call.
//!
//! The staged engine keeps its per-replication state and unit evaluation
//! private; this module rebuilds both from the same public calls, in the
//! same order and with the same RNG streams, so that the replay's scores
//! equal the engine's bit for bit. The workloads check that equality on
//! every unit they replay, which makes the per-layer times trustworthy:
//! they were measured on the very computation the engine performs.

use crate::trace::Spans;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_cleaning::{
    CleaningContext, CleaningOutcome, CompositeStrategy, MissingTreatment, ModelFit,
};
use sd_core::{
    DistortionMetric, FrameworkError, MetricScore, PreparedExperiment, PreparedKernel,
    ReplicationArtifacts,
};
use sd_data::{CleanedView, Dataset};
use sd_emd::{PatchedCloud, SignatureCache};
use sd_glitch::{
    GlitchDetector, GlitchIndex, GlitchMatrix, GlitchReport, GlitchWeights, OutlierDetector,
};
use sd_sampling::ReplicationSampler;
use sd_stats::AttributeTransform;

/// Span and counter names, which are also the per-layer metric names.
pub mod layer {
    pub const SAMPLE_PAIR: &str = "sampling.sample_pair_s";
    pub const GLITCH_FIT: &str = "glitch.fit_s";
    pub const GLITCH_DETECT: &str = "glitch.detect_s";
    pub const REDETECT: &str = "glitch.redetect_s";
    pub const REDETECT_SERIES: &str = "glitch.redetect_series";
    pub const CONTEXT: &str = "cleaning.context_s";
    pub const MODEL_FIT: &str = "cleaning.model_fit_s";
    pub const MODEL_FIT_CALLS: &str = "cleaning.model_fit_calls";
    pub const CLEAN_PATCH: &str = "cleaning.clean_patch_s";
    pub const CELLS_CHANGED: &str = "cleaning.cells_changed";
    pub const SIGNATURE_CACHE: &str = "emd.signature_cache_s";
    pub const PATCHED_CLOUD: &str = "emd.patched_cloud_s";
    pub const KERNEL_PREPARE: &str = "core.kernel.prepare_s";
    pub const SCORE_PATCH: &str = "core.kernel.score_patch_s";
    pub const SCORE_PATCH_CALLS: &str = "core.kernel.score_patch_calls";
}

/// One replayed unit's results, in the engine's outcome terms.
#[derive(Debug)]
pub struct UnitScore {
    pub improvement: f64,
    pub distortions: Vec<MetricScore>,
    pub cleaning: CleaningOutcome,
    pub dirty_report: GlitchReport,
    pub treated_report: GlitchReport,
}

impl UnitScore {
    /// Whether the engine's outcome fields equal this replay bit for bit.
    pub fn matches(
        &self,
        improvement: f64,
        distortions: &[MetricScore],
        cleaning: &CleaningOutcome,
        dirty_report: &GlitchReport,
        treated_report: &GlitchReport,
    ) -> bool {
        self.improvement.to_bits() == improvement.to_bits()
            && same_scores(&self.distortions, distortions)
            && &self.cleaning == cleaning
            && &self.dirty_report == dirty_report
            && &self.treated_report == treated_report
    }
}

/// Whether two metric-score lists agree in order, names and bits.
pub fn same_scores(a: &[MetricScore], b: &[MetricScore]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.metric == y.metric && x.value.to_bits() == y.value.to_bits())
}

/// Replication `r`'s calibrated artifacts, as
/// `PreparedExperiment::replication` builds them: sample the test pair,
/// fit the outlier limits and cleaning context on the ideal sample,
/// annotate the dirty sample.
pub fn build_replication(
    prepared: &PreparedExperiment,
    r: usize,
    spans: &mut Spans,
) -> ReplicationArtifacts {
    let config = prepared.config();
    let transforms = prepared.transforms();
    let sampler = ReplicationSampler::new(config.sample_size, config.seed);
    let pair = spans.time(layer::SAMPLE_PAIR, || {
        sampler.sample_pair(prepared.dirty_pool(), prepared.ideal_pool(), r)
    });
    let outliers = spans.time(layer::GLITCH_FIT, || {
        OutlierDetector::fit(&pair.ideal, transforms, config.sigma_k)
    });
    let context = spans.time(layer::CONTEXT, || {
        CleaningContext::from_detector(&pair.ideal, transforms, &outliers)
    });
    let (detector, dirty_matrices) = spans.time(layer::GLITCH_DETECT, || {
        let detector = GlitchDetector::new(config.constraints.clone(), Some(outliers));
        let matrices = detector.detect_dataset(&pair.dirty);
        (detector, matrices)
    });
    ReplicationArtifacts {
        replication: r,
        dirty: pair.dirty,
        ideal: pair.ideal,
        detector,
        context,
        dirty_matrices,
    }
}

/// What every strategy unit of one replication (or window) shares.
pub struct Shared {
    pub artifacts: ReplicationArtifacts,
    pub cache: SignatureCache,
    /// One prepared kernel per requested metric, in config order.
    pub kernels: Vec<(&'static str, Box<dyn PreparedKernel>)>,
    /// Pooled-row offset of each series.
    pub row_offsets: Vec<usize>,
    pub dirty_report: GlitchReport,
    model: Option<ModelFit>,
}

impl Shared {
    /// Pools the dirty sample's working rows into a signature cache and
    /// prepares every requested kernel on it.
    pub fn new(
        artifacts: ReplicationArtifacts,
        transforms: &[AttributeTransform],
        metrics: &[DistortionMetric],
        spans: &mut Spans,
    ) -> Shared {
        let (cache, row_offsets) = spans.time(layer::SIGNATURE_CACHE, || {
            let (rows, offsets) = pooled_working_rows(&artifacts.dirty, transforms);
            (SignatureCache::new(rows), offsets)
        });
        let dirty_report = spans.time(layer::GLITCH_DETECT, || {
            GlitchReport::from_matrices(&artifacts.dirty_matrices)
        });
        let kernels = spans.time(layer::KERNEL_PREPARE, || {
            metrics
                .iter()
                .map(|metric| {
                    let kernel = metric.kernel();
                    (kernel.name(), kernel.prepare(&cache))
                })
                .collect()
        });
        Shared {
            artifacts,
            cache,
            kernels,
            row_offsets,
            dirty_report,
            model: None,
        }
    }

    /// Fits the imputation model if `strategy` needs it and it is not
    /// fitted yet: once per replication, like the engine's shared model.
    pub fn ensure_model(&mut self, strategy: &CompositeStrategy, spans: &mut Spans) {
        if strategy.missing_treatment() == MissingTreatment::ModelImpute && self.model.is_none() {
            let a = &self.artifacts;
            let fit = spans.time(layer::MODEL_FIT, || {
                ModelFit::fit(&a.dirty, &a.dirty_matrices, &a.context, None)
            });
            spans.count(layer::MODEL_FIT_CALLS, 1);
            self.model = Some(fit);
        }
    }

    /// The fitted model `strategy` cleans with, if it imputes by model.
    pub fn model(&self, strategy: &CompositeStrategy) -> Option<&ModelFit> {
        if strategy.missing_treatment() == MissingTreatment::ModelImpute {
            self.model.as_ref()
        } else {
            None
        }
    }

    /// The working-space row edits of `series`' cell edits in `view`,
    /// grouped by pooled row (edits to one row are adjacent and ascend in
    /// time), appended to `out`. Rows of distinct series never coincide,
    /// so appending series in ascending order keeps `out` row-ascending.
    pub fn row_edits(
        &self,
        view: &CleanedView<'_>,
        series: usize,
        transforms: &[AttributeTransform],
        out: &mut Vec<(usize, Vec<f64>)>,
    ) {
        let offset = self.row_offsets[series];
        for e in view.patch().series_edits(series) {
            let row = offset + e.t as usize;
            if out.last().is_none_or(|(r, _)| *r != row) {
                out.push((row, self.cache.rows()[row].clone()));
            }
            if let Some((_, values)) = out.last_mut() {
                let a = e.attr as usize;
                values[a] = transforms[a].forward(e.value);
            }
        }
    }
}

/// Scores one `(group, strategy)` unit: patch-clean with the engine's RNG
/// stream, re-detect the touched series, and score every kernel on the
/// patched cloud.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_unit(
    shared: &mut Shared,
    transforms: &[AttributeTransform],
    weights: GlitchWeights,
    seed: u64,
    group: usize,
    strategy_index: usize,
    strategy: &CompositeStrategy,
    spans: &mut Spans,
) -> Result<UnitScore, FrameworkError> {
    shared.ensure_model(strategy, spans);
    let shared = &*shared;
    let a = &shared.artifacts;
    let model = shared.model(strategy);
    let (view, cleaning) = spans.time(layer::CLEAN_PATCH, || {
        let mut rng =
            StdRng::seed_from_u64(seed ^ ((group as u64) << 20) ^ ((strategy_index as u64) << 50));
        strategy.clean_patch(&a.dirty, &a.dirty_matrices, &a.context, &mut rng, model)
    });
    spans.count(layer::CELLS_CHANGED, cleaning.cells_changed() as u64);

    let (improvement, treated_report, redetected) = spans.time(layer::REDETECT, || {
        let mut redetected = 0;
        let treated: Vec<GlitchMatrix> = (0..view.num_series())
            .map(|i| {
                if view.is_patched(i) {
                    redetected += 1;
                    a.detector.detect_series(view.series_at(i))
                } else {
                    a.dirty_matrices[i].clone()
                }
            })
            .collect();
        let improvement = GlitchIndex::new(weights).improvement(&a.dirty_matrices, &treated);
        (
            improvement,
            GlitchReport::from_matrices(&treated),
            redetected,
        )
    });
    spans.count(layer::REDETECT_SERIES, redetected);

    let patched = spans.time(layer::PATCHED_CLOUD, || {
        let mut edits = Vec::new();
        for i in view.patch().touched_series() {
            shared.row_edits(&view, i, transforms, &mut edits);
        }
        PatchedCloud::new(&shared.cache, edits)
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

    Ok(UnitScore {
        improvement,
        distortions,
        cleaning,
        dirty_report: shared.dirty_report.clone(),
        treated_report,
    })
}

/// Every record of `data` in working space, series after series, with the
/// first row index of each series.
fn pooled_working_rows(
    data: &Dataset,
    transforms: &[AttributeTransform],
) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut rows = Vec::with_capacity(data.num_records());
    let mut offsets = Vec::with_capacity(data.num_series());
    for series in data.series() {
        offsets.push(rows.len());
        for t in 0..series.len() {
            rows.push(
                transforms
                    .iter()
                    .enumerate()
                    .map(|(a, tf)| tf.forward(series.get(a, t)))
                    .collect(),
            );
        }
    }
    (rows, offsets)
}
