//! The window-evaluation stage: one evaluator thread behind the collector.
//!
//! The collector ([`crate::collector`]) assembles sealed windows and
//! *dispatches* them here, in window order, over a bounded channel of
//! capacity 1, so ingestion and assembly overlap with kernel scoring. The
//! evaluator runs each window through the shared windowed pipeline
//! ([`sd_core::calibrate_window`] + [`sd_core::evaluate_window_artifacts`])
//! and publishes its [`WindowUpdate`] directly. One FIFO consumer of an
//! in-order channel publishes in window order by construction, so the
//! report equals the batch replay bit for bit.
//!
//! # Failure containment
//!
//! A structured evaluation error stops the stage: windows after a failed
//! one are withheld, exactly as the batch path never evaluates past a
//! failure. A *panicking* evaluator drops its job receiver, so the
//! collector's next dispatch fails instead of blocking, and
//! [`crate::StreamingService::finish`] — which joins the thread — surfaces
//! [`sd_core::FrameworkError::EvaluatorFailed`] instead of hanging.
//!
//! The thread itself is spawned from [`crate::shard`], the serving
//! layer's one approved spawn site (sd-lint D004).

use crate::collector::WindowUpdate;
use crate::ServeConfig;
use sd_cleaning::CompositeStrategy;
use sd_core::{
    calibrate_window, evaluate_window_artifacts, FrameworkError, ThreadPoolExecutor, WindowOutcome,
    WindowScreen,
};
use sd_data::TimeSeries;
use std::sync::mpsc::{Receiver, Sender};

/// One assembled window handed from the collector to the evaluator.
pub(crate) struct EvalJob {
    /// Window index, in stream order.
    pub(crate) window: usize,
    /// One materialized segment per series, in series order.
    pub(crate) segments: Vec<TimeSeries>,
}

/// Everything the evaluator published, in window order. `error` carries
/// the evaluation failure that stopped the stage, if any.
pub(crate) struct EvaluatorOutput {
    pub(crate) outcomes: Vec<WindowOutcome>,
    pub(crate) screens: Vec<WindowScreen>,
    pub(crate) error: Option<FrameworkError>,
}

/// The evaluator's inputs: the windowed pipeline configuration and the
/// per-window strategy and neighbour context.
pub(crate) struct Evaluator {
    pub(crate) config: ServeConfig,
    pub(crate) strategies: Vec<CompositeStrategy>,
    pub(crate) neighbors: Vec<Vec<(usize, f64)>>,
}

impl Evaluator {
    /// The evaluator thread body: evaluate every dispatched window in
    /// arrival (= window) order and publish it, until the collector closes
    /// the channel or a window fails.
    pub(crate) fn run(
        self,
        jobs: &Receiver<EvalJob>,
        updates: &Sender<WindowUpdate>,
    ) -> EvaluatorOutput {
        let executor = ThreadPoolExecutor::new(self.config.windowed.threads);
        let mut out = EvaluatorOutput {
            outcomes: Vec::new(),
            screens: Vec::new(),
            error: None,
        };
        for job in jobs.iter() {
            #[cfg(test)]
            if self.config.panic_at == Some(job.window) {
                panic!("induced evaluator panic at window {}", job.window);
            }
            match self.evaluate(&executor, job.window, &job.segments) {
                Ok((screen, outcomes)) => {
                    // Live subscribers are optional; a dropped update
                    // receiver must not fail the stream.
                    let _ = updates.send(WindowUpdate {
                        window_index: job.window,
                        screen: screen.clone(),
                        outcomes: outcomes.clone(),
                    });
                    out.screens.push(screen);
                    out.outcomes.extend(outcomes);
                }
                Err(e) => {
                    out.error = Some(e);
                    break;
                }
            }
        }
        out
    }

    /// One window through the shared windowed pipeline — the exact calls
    /// the batch replay makes, so results are bit-identical.
    fn evaluate(
        &self,
        executor: &ThreadPoolExecutor,
        window: usize,
        segments: &[TimeSeries],
    ) -> Result<(WindowScreen, Vec<WindowOutcome>), FrameworkError> {
        let (artifacts, screen) = calibrate_window(
            &self.config.windowed,
            &self.config.attributes,
            window,
            segments,
            &self.neighbors,
        )?;
        let outcomes = evaluate_window_artifacts(
            &self.config.windowed,
            &self.strategies,
            executor,
            artifacts,
        )?;
        Ok((screen, outcomes))
    }
}
