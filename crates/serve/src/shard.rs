//! Shard workers: per-node ring-buffer state behind bounded channels.
//!
//! Every thread of the streaming service is spawned from this module —
//! the sd-lint D004 rule approves exactly this file (next to
//! `sd_core::parallel_map`) as a thread spawn site, so any new
//! concurrency in the serving layer has to pass review here.
//!
//! A shard owns the [`NodeState`] rings of the nodes routed to it and
//! does no cleaning of its own: when a node's stream reaches the end of
//! the shard's pending window, the shard materializes that node's
//! retained `[base, end)` segment and forwards it to the collector over a
//! bounded channel. Backpressure is therefore end-to-end — a slow
//! collector fills the segment channel, which stalls the shard, which
//! fills the ingestion channel, which blocks the producer.

use crate::collector::CollectorMsg;
use sd_core::{FrameworkError, WindowedConfig};
use sd_data::{ArrivalRow, NodeId, NodeState};
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, SyncSender};
use std::thread::JoinHandle;

/// What producers send to a shard.
pub(crate) enum ShardMsg {
    /// One KPI row for a node this shard owns.
    Row(ArrivalRow),
    /// End of stream: flush remaining (clipped) windows and report.
    Close,
}

/// One node owned by a shard.
struct OwnedNode {
    /// Index of the node's series in the service-wide series order.
    series: usize,
    /// The node's bounded ring of retained rows.
    state: NodeState,
    /// Next window this node has not yet emitted a segment for.
    pending: usize,
}

/// A shard worker: consumes [`ShardMsg`]s, maintains per-node rings, and
/// emits window segments to the collector.
pub(crate) struct ShardWorker {
    shard: usize,
    window: usize,
    stride: usize,
    owned: Vec<OwnedNode>,
    index_of: BTreeMap<NodeId, usize>,
    emit: SyncSender<CollectorMsg>,
    rows: u64,
}

impl ShardWorker {
    pub(crate) fn new(
        shard: usize,
        config: &WindowedConfig,
        ring_capacity: usize,
        num_attributes: usize,
        nodes: Vec<(usize, NodeId)>,
        emit: SyncSender<CollectorMsg>,
    ) -> Self {
        let mut owned = Vec::with_capacity(nodes.len());
        let mut index_of = BTreeMap::new();
        for (series, node) in nodes {
            index_of.insert(node, owned.len());
            owned.push(OwnedNode {
                series,
                state: NodeState::new(node, num_attributes, ring_capacity),
                pending: 0,
            });
        }
        ShardWorker {
            shard,
            window: config.window,
            stride: config.stride,
            owned,
            index_of,
            emit,
            rows: 0,
        }
    }

    fn bounds(&self, w: usize) -> (usize, usize, usize) {
        let start = w * self.stride;
        let end = start + self.window;
        (start, end, start.saturating_sub(self.window))
    }

    /// Ingests one row; emits every window segment it completes.
    fn on_row(&mut self, row: ArrivalRow) -> Result<(), FrameworkError> {
        let idx = *self.index_of.get(&row.node).ok_or_else(|| {
            FrameworkError::InvalidConfig(format!(
                "row for {} arrived at shard {}, which does not own it",
                row.node, self.shard
            ))
        })?;
        let owned = &mut self.owned[idx];
        owned
            .state
            .push_at(row.t, &row.values)
            .map_err(|e| FrameworkError::InvalidConfig(format!("row for {}: {e}", row.node)))?;
        self.rows += 1;
        loop {
            let (_, end, base) = self.bounds(self.owned[idx].pending);
            if self.owned[idx].state.next_t() < end {
                break;
            }
            let owned = &mut self.owned[idx];
            let segment = owned
                .state
                .materialize(base, end)
                .map_err(|e| FrameworkError::Internal(format!("shard segment: {e}")))?;
            let msg = CollectorMsg::Segment {
                window: owned.pending,
                series: owned.series,
                sealed: true,
                segment,
            };
            if self.emit.send(msg).is_err() {
                // Collector gone; the service will surface its error.
                return Err(FrameworkError::Internal(
                    "collector hung up mid-stream".into(),
                ));
            }
            owned.pending += 1;
            let next_base = (owned.pending * self.stride).saturating_sub(self.window);
            owned.state.evict_below(next_base);
        }
        Ok(())
    }

    /// End of stream: emit the clipped tail segment of every still-pending
    /// window that overlaps a node's data, then report totals.
    fn close(mut self) {
        let mut high_water = 0;
        let mut final_lens = Vec::with_capacity(self.owned.len());
        for owned in &mut self.owned {
            let len = owned.state.next_t();
            loop {
                let start = owned.pending * self.stride;
                if start >= len {
                    break;
                }
                let end = start + self.window;
                let base = start.saturating_sub(self.window);
                // Streaming emission already covered windows with
                // `end <= len`; what is left here is a clipped tail, never
                // sealed (the collector only counts a window as real once
                // some node reached its full end).
                match owned.state.materialize(base, end) {
                    Ok(segment) => {
                        let msg = CollectorMsg::Segment {
                            window: owned.pending,
                            series: owned.series,
                            sealed: end <= len,
                            segment,
                        };
                        if self.emit.send(msg).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = self.emit.send(CollectorMsg::ShardError {
                            shard: self.shard,
                            error: FrameworkError::Internal(format!("close flush: {e}")),
                        });
                        return;
                    }
                }
                owned.pending += 1;
            }
            high_water = high_water.max(owned.state.high_water());
            final_lens.push((owned.series, len));
        }
        let _ = self.emit.send(CollectorMsg::ShardDone {
            shard: self.shard,
            rows: self.rows,
            high_water,
            final_lens,
        });
    }

    /// The shard thread body: drain messages until close or failure.
    fn run(mut self, inbox: &Receiver<ShardMsg>) {
        for msg in inbox.iter() {
            match msg {
                ShardMsg::Row(row) => {
                    if let Err(error) = self.on_row(row) {
                        let _ = self.emit.send(CollectorMsg::ShardError {
                            shard: self.shard,
                            error,
                        });
                        // Dropping the receiver unblocks any producer
                        // waiting on a full channel with a send error.
                        return;
                    }
                }
                ShardMsg::Close => {
                    self.close();
                    return;
                }
            }
        }
    }
}

/// Spawns one OS thread per shard worker. The worker owns its receiver;
/// the handles are joined by [`crate::StreamingService::finish`].
pub(crate) fn spawn_shard(worker: ShardWorker, inbox: Receiver<ShardMsg>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("sd-serve-shard-{}", worker.shard))
        .spawn(move || worker.run(&inbox))
        // Thread spawning fails only when the OS is out of resources, at
        // which point the service cannot exist; this is the one approved
        // abort point of the serving layer.
        // sd-lint: allow(P001, OS thread exhaustion has no recovery path)
        .expect("spawning a shard thread")
}

/// Spawns one of the two pipeline-stage threads — the collector
/// (assembly) or the evaluator — returning its join handle; the body's
/// return value carries what the stage accumulated.
pub(crate) fn spawn_stage<T: Send + 'static>(
    name: &str,
    body: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    std::thread::Builder::new()
        .name(format!("sd-serve-{name}"))
        .spawn(body)
        // sd-lint: allow(P001, OS thread exhaustion has no recovery path)
        .expect("spawning a pipeline-stage thread")
}
