//! The streaming service: producer-facing ingestion, live window updates,
//! and the final report.

use crate::collector::{AssemblerOutput, Collector, UpdateFeed, WindowUpdate};
use crate::evaluator::{Evaluator, EvaluatorOutput};
use crate::shard::{spawn_shard, spawn_stage, ShardMsg, ShardWorker};
use crate::{shard_of, ServeConfig};
use sd_cleaning::CompositeStrategy;
use sd_core::{resolve_neighbor_views, FrameworkError, Result, WindowOutcome, WindowScreen};
use sd_data::{ArrivalRow, NodeId};
use std::sync::mpsc::{channel, sync_channel, SyncSender};
use std::thread::JoinHandle;

/// Aggregate statistics of one served stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Number of ingestion shards.
    pub shards: usize,
    /// Rows ingested across all shards.
    pub rows_ingested: u64,
    /// Highest per-node ring occupancy any shard ever observed. Bounded
    /// memory means this never exceeds `ring_capacity`.
    pub ring_high_water: usize,
    /// The configured per-node ring capacity
    /// ([`ServeConfig::ring_capacity`]).
    pub ring_capacity: usize,
    /// Windows calibrated and evaluated.
    pub windows_evaluated: usize,
}

/// Everything a finished stream produced — the streaming analogue of
/// [`sd_core::WindowedResult`], plus serving statistics.
#[derive(Debug, Clone)]
pub struct StreamReport {
    outcomes: Vec<WindowOutcome>,
    screens: Vec<WindowScreen>,
    metrics: Vec<&'static str>,
    stats: ServeStats,
}

impl StreamReport {
    /// Every `(window, strategy)` outcome, in `(window, strategy)` order —
    /// bit-identical to [`sd_core::WindowedResult::outcomes`] on the same
    /// stream.
    pub fn outcomes(&self) -> &[WindowOutcome] {
        &self.outcomes
    }

    /// Per-window calibration screens, in stream order.
    pub fn screens(&self) -> &[WindowScreen] {
        &self.screens
    }

    /// Number of windows evaluated.
    pub fn num_windows(&self) -> usize {
        self.screens.len()
    }

    /// The scored metric names, in configuration order.
    pub fn metrics(&self) -> &[&'static str] {
        &self.metrics
    }

    /// Serving statistics (rows, ring occupancy, shard count).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// One strategy's per-window `(window_index, improvement, distortion)`
    /// trajectory under the primary metric, in stream order.
    pub fn trajectory(&self, strategy_index: usize) -> Vec<(usize, f64, f64)> {
        self.outcomes
            .iter()
            .filter(|o| o.strategy_index == strategy_index)
            .map(|o| (o.window_index, o.improvement, o.distortion))
            .collect()
    }
}

/// A live sharded ingestion service running the §3.3 windowed cleaning
/// pipeline.
///
/// Rows stream in via [`StreamingService::ingest`] (any interleaving
/// across nodes; time-ordered per node), shards maintain bounded
/// per-node ring buffers, and completed windows are dispatched in stream
/// order to one evaluator thread, which publishes every calibrated,
/// cleaned, kernel-scored window as it goes — emitting [`WindowUpdate`]s
/// live and a [`StreamReport`] at [`StreamingService::finish`] whose
/// outcomes are bit-identical to running [`sd_core::WindowedExperiment`]
/// over the materialized stream.
///
/// ```
/// use sd_cleaning::paper_strategy;
/// use sd_core::WindowedConfig;
/// use sd_data::ArrivalRow;
/// use sd_netsim::{generate, stream_rows, NetsimConfig};
/// use sd_serve::{ServeConfig, StreamingService};
///
/// let config = NetsimConfig::small(7);
/// let data = generate(&config).dataset;
/// let nodes = data.series().iter().map(|s| s.node()).collect();
/// let attributes = data.attributes().iter().map(|a| a.name.clone()).collect();
/// let serve = ServeConfig::new(WindowedConfig::paper_default(30, 30, 7), attributes)
///     .with_shards(2);
/// let service = StreamingService::launch(serve, nodes, vec![paper_strategy(5)]).unwrap();
/// for row in stream_rows(&data) {
///     service.ingest(row).unwrap();
/// }
/// let report = service.finish().unwrap();
/// assert_eq!(report.num_windows(), 2);
/// assert_eq!(report.stats().rows_ingested, 6000);
/// ```
pub struct StreamingService {
    senders: Vec<SyncSender<ShardMsg>>,
    shard_handles: Vec<JoinHandle<()>>,
    collector: JoinHandle<std::result::Result<AssemblerOutput, FrameworkError>>,
    evaluator: JoinHandle<EvaluatorOutput>,
    updates: UpdateFeed,
    metrics: Vec<&'static str>,
    shards: usize,
    ring_capacity: usize,
}

impl StreamingService {
    /// Validates the configuration and spawns the shard, collector and
    /// evaluator threads. `nodes[i]` is the node whose rows form series
    /// `i` of the stream — series order, like the batch dataset's, fixes
    /// outcome order regardless of sharding.
    pub fn launch(
        config: ServeConfig,
        nodes: Vec<NodeId>,
        strategies: Vec<CompositeStrategy>,
    ) -> Result<Self> {
        config.validate(&nodes)?;
        if strategies.is_empty() {
            return Err(FrameworkError::InvalidConfig(
                "a streaming service needs at least one strategy".into(),
            ));
        }
        let neighbors = resolve_neighbor_views(
            config.windowed.pooling,
            config.windowed.topology.as_ref(),
            &nodes,
        )?;
        let metrics: Vec<&'static str> = config
            .windowed
            .metrics
            .iter()
            .map(sd_core::DistortionMetric::name)
            .collect();
        let shards = config.shards;
        let ring_capacity = config.ring_capacity();
        let num_attributes = config.attributes.len();

        // Shard → collector: one bounded channel shared by every shard
        // (per-shard FIFO is what the collector's in-order dispatch
        // relies on). The original sender is dropped below so the channel
        // disconnects as soon as the last shard exits.
        let (emit, emit_rx) = sync_channel(config.channel_capacity);
        let (updates_tx, updates_rx) = channel();

        let mut per_shard: Vec<Vec<(usize, NodeId)>> = vec![Vec::new(); shards];
        for (series, &node) in nodes.iter().enumerate() {
            per_shard[shard_of(node, shards)].push((series, node));
        }

        // Collector → evaluator: one window in the channel while the
        // previous one is scored. Dropping the Collector at end of stream
        // closes the channel, which drains and retires the evaluator.
        let (dispatch, jobs) = sync_channel(1);
        let evaluator = Evaluator {
            config: config.clone(),
            strategies,
            neighbors,
        };
        let evaluator = spawn_stage("evaluator", move || evaluator.run(&jobs, &updates_tx));
        let collector = Collector::new(config.clone(), nodes, dispatch);
        let collector = spawn_stage("collector", move || collector.run(&emit_rx));

        let mut senders = Vec::with_capacity(shards);
        let mut shard_handles = Vec::with_capacity(shards);
        for (shard, owned) in per_shard.into_iter().enumerate() {
            let worker = ShardWorker::new(
                shard,
                &config.windowed,
                ring_capacity,
                num_attributes,
                owned,
                emit.clone(),
            );
            let (tx, rx) = sync_channel(config.channel_capacity);
            senders.push(tx);
            shard_handles.push(spawn_shard(worker, rx));
        }
        drop(emit);

        Ok(StreamingService {
            senders,
            shard_handles,
            collector,
            evaluator,
            updates: UpdateFeed::new(updates_rx),
            metrics,
            shards,
            ring_capacity,
        })
    }

    /// Number of ingestion shards.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Routes one row to its shard, blocking while that shard's bounded
    /// channel is full (backpressure — rows are never dropped). Fails
    /// with [`FrameworkError::ShardFailed`] if the shard has terminated.
    pub fn ingest(&self, row: ArrivalRow) -> Result<()> {
        let shard = shard_of(row.node, self.shards);
        self.senders[shard]
            .send(ShardMsg::Row(row))
            .map_err(|_| FrameworkError::ShardFailed {
                shard,
                detail: "its ingest channel is closed (worker terminated)".into(),
            })
    }

    /// Non-blocking poll for the next completed window, in stream order.
    pub fn try_next_window(&self) -> Option<WindowUpdate> {
        self.updates.try_next()
    }

    /// Blocks until the next window completes; `None` once the evaluator
    /// has exited. Only call when enough rows are in flight to
    /// complete a window — the stream cannot finish a window it was
    /// never fed.
    pub fn next_window(&self) -> Option<WindowUpdate> {
        self.updates.next()
    }

    /// Ends the stream: flushes clipped tail windows, joins every thread,
    /// and returns the report. A panicked shard, evaluator, or collector
    /// surfaces as a structured [`FrameworkError`] — the service never
    /// wedges. Attribution order: a panicked shard first (it starves
    /// everything downstream), then a panicked evaluator or its evaluation
    /// error, then the collector's own error.
    pub fn finish(self) -> Result<StreamReport> {
        for sender in &self.senders {
            // A dead shard already surfaced (or will) via join below.
            let _ = sender.send(ShardMsg::Close);
        }
        drop(self.senders);
        let mut panicked_shard = None;
        for (shard, handle) in self.shard_handles.into_iter().enumerate() {
            if handle.join().is_err() && panicked_shard.is_none() {
                panicked_shard = Some(shard);
            }
        }
        // The collector exits once every shard closed (or errored); its
        // drop closes the dispatch channel, so the evaluator drains and
        // returns. Join order mirrors that shutdown wave — no join can
        // block on a thread joined later.
        let collected = match self.collector.join() {
            Ok(result) => result,
            Err(_) => Err(FrameworkError::Internal(
                "the collector thread panicked".into(),
            )),
        };
        let evaluated = self.evaluator.join();
        if let Some(shard) = panicked_shard {
            return Err(FrameworkError::ShardFailed {
                shard,
                detail: "its worker thread panicked".into(),
            });
        }
        let Ok(evaluated) = evaluated else {
            return Err(FrameworkError::EvaluatorFailed {
                evaluator: 0,
                detail: "its worker thread panicked".into(),
            });
        };
        if let Some(error) = evaluated.error {
            return Err(error);
        }
        let output = collected?;
        let published = evaluated.screens.len();
        if published < output.windows_dispatched {
            return Err(FrameworkError::Internal(format!(
                "{published} of {} dispatched windows were published",
                output.windows_dispatched
            )));
        }
        Ok(StreamReport {
            outcomes: evaluated.outcomes,
            screens: evaluated.screens,
            metrics: self.metrics,
            stats: ServeStats {
                shards: self.shards,
                rows_ingested: output.rows,
                ring_high_water: output.high_water,
                ring_capacity: self.ring_capacity,
                windows_evaluated: published,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_cleaning::paper_strategy;
    use sd_core::WindowedConfig;
    use sd_netsim::{generate, stream_rows, NetsimConfig};

    /// A panicking evaluator — induced via the config's test hook — must
    /// surface from `finish` as a structured
    /// `FrameworkError::EvaluatorFailed`, not a hang: the producer keeps
    /// ingesting and the dead evaluator is reported.
    #[test]
    fn panicking_evaluator_surfaces_as_evaluator_failed_without_hanging() {
        let data = generate(&NetsimConfig::small(41)).dataset;
        let nodes = data.series().iter().map(|s| s.node()).collect();
        let attributes = data.attributes().iter().map(|a| a.name.clone()).collect();
        let mut serve =
            ServeConfig::new(WindowedConfig::paper_default(20, 10, 41), attributes).with_shards(2);
        serve.panic_at = Some(1);
        let service = StreamingService::launch(serve, nodes, vec![paper_strategy(1)]).unwrap();
        for row in stream_rows(&data) {
            service.ingest(row).unwrap();
        }
        match service.finish() {
            Err(FrameworkError::EvaluatorFailed { evaluator, detail }) => {
                assert_eq!(evaluator, 0);
                assert!(detail.contains("panicked"), "detail: {detail}");
            }
            other => panic!("expected EvaluatorFailed, got {other:?}"),
        }
    }
}
