//! Window assembly: the single consumer of shard output.
//!
//! The collector receives per-node window segments from every shard over
//! one bounded channel and assembles them into service-wide segment
//! vectors (series order, independent of shard count and scheduling).
//! The moment a window is complete it is *dispatched* — in strict stream
//! order, which per-shard FIFO delivery makes safe: a window can only be
//! complete once every earlier window is — to the evaluator thread
//! ([`crate::evaluator`]), which calibrates, scores and publishes it off
//! the assembly thread. Splitting assembly from evaluation lets ingestion
//! and kernel scoring overlap: the collector is back at its inbox while
//! the previous window is still being scored.

use crate::evaluator::EvalJob;
use crate::ServeConfig;
use parking_lot::Mutex;
use sd_core::{FrameworkError, WindowOutcome, WindowScreen};
use sd_data::{NodeId, TimeSeries};
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, SyncSender};

/// What shards send the collector.
pub(crate) enum CollectorMsg {
    /// One node's retained `[base, end)` segment for one window.
    Segment {
        /// Window index.
        window: usize,
        /// Series index of the node in service order.
        series: usize,
        /// Whether the segment covers the window's full `[start, end)`
        /// span. At least one sealed segment is the collector's proof
        /// that the stream's horizon admits this window at all.
        sealed: bool,
        /// The materialized rows.
        segment: TimeSeries,
    },
    /// A shard finished flushing after `Close`.
    ShardDone {
        /// Which shard.
        shard: usize,
        /// Rows the shard ingested.
        rows: u64,
        /// Highest ring occupancy the shard ever saw.
        high_water: usize,
        /// `(series, final stream length)` of every owned node.
        final_lens: Vec<(usize, usize)>,
    },
    /// A shard hit a structured error and stopped.
    ShardError {
        /// Which shard.
        shard: usize,
        /// The error it observed.
        error: FrameworkError,
    },
}

/// One completed window, published by the evaluator in stream order — the
/// live view of the stream's trajectory.
#[derive(Debug, Clone)]
pub struct WindowUpdate {
    /// Window index, in stream order.
    pub window_index: usize,
    /// What the calibration screen did per series.
    pub screen: WindowScreen,
    /// One outcome per strategy, in strategy order.
    pub outcomes: Vec<WindowOutcome>,
}

/// What the assembly thread accumulated by end of stream. Outcomes and
/// screens live with the evaluator; the collector only knows how many
/// windows it dispatched — the completeness bar the evaluator's published
/// count is checked against.
pub(crate) struct AssemblerOutput {
    pub rows: u64,
    pub high_water: usize,
    pub windows_dispatched: usize,
}

/// One window's partially assembled segments.
struct Assembly {
    slots: Vec<Option<TimeSeries>>,
    filled: usize,
    sealed: bool,
}

impl Assembly {
    fn new(num_series: usize) -> Self {
        Assembly {
            slots: (0..num_series).map(|_| None).collect(),
            filled: 0,
            sealed: false,
        }
    }
}

/// The collector (assembly) thread body.
pub(crate) struct Collector {
    config: ServeConfig,
    nodes: Vec<NodeId>,
    dispatch: SyncSender<EvalJob>,
    pending: BTreeMap<usize, Assembly>,
    next_dispatch: usize,
}

impl Collector {
    pub(crate) fn new(
        config: ServeConfig,
        nodes: Vec<NodeId>,
        dispatch: SyncSender<EvalJob>,
    ) -> Self {
        Collector {
            config,
            nodes,
            dispatch,
            pending: BTreeMap::new(),
            next_dispatch: 0,
        }
    }

    /// Drains shard messages until every shard reports done, dispatching
    /// windows eagerly and in order; then settles clipped/ragged tail
    /// windows from the reported stream lengths. Dropping `self` on
    /// return closes the dispatch channel, which is how the evaluator
    /// learns the stream is over.
    pub(crate) fn run(
        mut self,
        inbox: &Receiver<CollectorMsg>,
    ) -> Result<AssemblerOutput, FrameworkError> {
        let num_series = self.nodes.len();
        let shards = self.config.shards;
        let mut done = 0usize;
        let mut closed = vec![false; shards];
        let mut rows = 0u64;
        let mut high_water = 0usize;
        let mut final_lens: Vec<Option<usize>> = vec![None; num_series];
        while done < shards {
            let Ok(msg) = inbox.recv() else {
                return Err(FrameworkError::Internal(
                    "a shard terminated before reporting its close".into(),
                ));
            };
            match msg {
                CollectorMsg::Segment {
                    window,
                    series,
                    sealed,
                    segment,
                } => {
                    self.accept(window, series, sealed, segment)?;
                    self.dispatch_ready()?;
                }
                CollectorMsg::ShardDone {
                    shard,
                    rows: shard_rows,
                    high_water: shard_high,
                    final_lens: lens,
                } => {
                    if closed[shard] {
                        return Err(FrameworkError::Internal(format!(
                            "shard {shard} reported its close twice"
                        )));
                    }
                    closed[shard] = true;
                    done += 1;
                    rows += shard_rows;
                    high_water = high_water.max(shard_high);
                    for (series, len) in lens {
                        final_lens[series] = Some(len);
                    }
                }
                CollectorMsg::ShardError { shard, error } => {
                    return Err(FrameworkError::ShardFailed {
                        shard,
                        detail: error.to_string(),
                    })
                }
            }
        }
        self.settle_tail(&final_lens)?;
        Ok(AssemblerOutput {
            rows,
            high_water,
            windows_dispatched: self.next_dispatch,
        })
    }

    fn accept(
        &mut self,
        window: usize,
        series: usize,
        sealed: bool,
        segment: TimeSeries,
    ) -> Result<(), FrameworkError> {
        if window < self.next_dispatch {
            return Err(FrameworkError::Internal(format!(
                "segment for already-dispatched window {window} (series {series})"
            )));
        }
        let num_series = self.nodes.len();
        let assembly = self
            .pending
            .entry(window)
            .or_insert_with(|| Assembly::new(num_series));
        if assembly.slots[series].is_some() {
            return Err(FrameworkError::Internal(format!(
                "duplicate segment for window {window}, series {series}"
            )));
        }
        assembly.slots[series] = Some(segment);
        assembly.filled += 1;
        assembly.sealed |= sealed;
        Ok(())
    }

    /// Dispatches consecutive complete windows starting at
    /// `next_dispatch`. Per-shard FIFO delivery guarantees window `w`
    /// cannot be complete while `w - 1` is not, so this never leaves a
    /// gap.
    fn dispatch_ready(&mut self) -> Result<(), FrameworkError> {
        while let Some(assembly) = self.pending.get(&self.next_dispatch) {
            if assembly.filled < self.nodes.len() || !assembly.sealed {
                break;
            }
            let w = self.next_dispatch;
            if let Some(assembly) = self.pending.remove(&w) {
                self.dispatch(w, assembly.slots)?;
            }
            self.next_dispatch += 1;
        }
        Ok(())
    }

    /// After every shard closed: fill in empty segments for series whose
    /// stream ended before a window, dispatch the remaining real windows,
    /// and drop speculative tails beyond the stream's horizon (their
    /// windows do not exist in the batch replay either).
    fn settle_tail(&mut self, final_lens: &[Option<usize>]) -> Result<(), FrameworkError> {
        let mut lens = Vec::with_capacity(final_lens.len());
        for (series, len) in final_lens.iter().enumerate() {
            match len {
                Some(len) => lens.push(*len),
                None => {
                    return Err(FrameworkError::Internal(format!(
                        "no shard reported series {series} at close"
                    )))
                }
            }
        }
        let horizon = lens.iter().copied().max().unwrap_or(0);
        let (window, stride) = (self.config.windowed.window, self.config.windowed.stride);
        let num_windows = if horizon < window {
            0
        } else {
            (horizon - window) / stride + 1
        };
        for w in self.next_dispatch..num_windows {
            let mut assembly = self
                .pending
                .remove(&w)
                .unwrap_or_else(|| Assembly::new(self.nodes.len()));
            for (series, slot) in assembly.slots.iter_mut().enumerate() {
                if slot.is_none() {
                    if lens[series] > w * stride {
                        return Err(FrameworkError::Internal(format!(
                            "series {series} never delivered its segment for window {w}"
                        )));
                    }
                    // The series ended before this window started: its
                    // window slice is empty in the batch replay too.
                    *slot = Some(TimeSeries::new(
                        self.nodes[series],
                        self.config.attributes.len(),
                        0,
                    ));
                }
            }
            self.dispatch(w, assembly.slots)?;
        }
        self.next_dispatch = num_windows;
        // Anything still pending reaches past the horizon: those windows
        // do not exist (`num_windows` excludes them) — discard.
        self.pending.clear();
        Ok(())
    }

    /// Hands one assembled window to the evaluator; the bounded dispatch
    /// channel is the pipeline's backpressure.
    fn dispatch(&mut self, w: usize, slots: Vec<Option<TimeSeries>>) -> Result<(), FrameworkError> {
        let mut segments = Vec::with_capacity(slots.len());
        for (series, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(segment) => segments.push(segment),
                None => {
                    return Err(FrameworkError::Internal(format!(
                        "window {w} dispatched with a hole at series {series}"
                    )))
                }
            }
        }
        let job = EvalJob {
            window: w,
            segments,
        };
        if self.dispatch.send(job).is_err() {
            // The evaluator only hangs up after a failure; `finish` will
            // attribute the root cause.
            return Err(FrameworkError::Internal(format!(
                "the evaluator disconnected before window {w}"
            )));
        }
        Ok(())
    }
}

/// A handle pairing the live update receiver with interior mutability so
/// the service can expose `try_next_window(&self)` without exclusive
/// borrows.
pub(crate) struct UpdateFeed {
    receiver: Mutex<Receiver<WindowUpdate>>,
}

impl UpdateFeed {
    pub(crate) fn new(receiver: Receiver<WindowUpdate>) -> Self {
        UpdateFeed {
            receiver: Mutex::new(receiver),
        }
    }

    /// Non-blocking: the next completed window, if one is queued.
    pub(crate) fn try_next(&self) -> Option<WindowUpdate> {
        self.receiver.lock().try_recv().ok()
    }

    /// Blocking: waits for the next completed window; `None` once the
    /// evaluator has hung up (end of stream or failure).
    pub(crate) fn next(&self) -> Option<WindowUpdate> {
        self.receiver.lock().recv().ok()
    }
}
