//! # sd-serve — sharded streaming ingestion for the §3.3 online pipeline
//!
//! The batch windowed mode ([`sd_core::WindowedExperiment`]) replays a
//! finished dataset window by window. This crate serves the same
//! pipeline online: KPI rows arrive one at a time on bounded channels,
//! are routed to shards by a hash of their tower address, accumulate in
//! per-node ring buffers ([`sd_data::NodeState`]) of fixed capacity, and
//! every completed window is screened, cleaned, and kernel-scored the
//! moment its last row lands — with memory bounded by
//! `nodes · 2 · window` retained rows plus the channel capacities, no
//! matter how long the stream runs.
//!
//! Equivalence to the batch path is structural, not approximate: both
//! paths call the same [`sd_core::calibrate_window`] and
//! [`sd_core::evaluate_window_artifacts`] on segments materialized from
//! the same [`sd_data::NodeState`] rings, with the same per-window RNG
//! seeding — so per-window outcomes are bit-identical for every shard
//! count, channel capacity, and arrival interleaving
//! (`tests/streaming_equivalence.rs` holds the proof obligations).
//!
//! Evaluation is one stage behind assembly: the collector only
//! *assembles* windows and dispatches each completed one, in window
//! order, to a single evaluator thread, which scores and publishes it.
//! One in-order consumer keeps the report — and the live update feed —
//! in window order by construction, while kernel scoring overlaps
//! ingestion.
//!
//! ## Layout
//!
//! - [`ServeConfig`] / [`shard_of`] — geometry, serving knobs, routing.
//! - `shard` (private) — shard worker threads owning the rings, and the
//!   one place every service thread is spawned.
//! - `collector` (private) — window assembly and in-order dispatch;
//!   exposes [`WindowUpdate`], the live per-window feed.
//! - `evaluator` (private) — the single evaluation stage: calibrates,
//!   scores and publishes each window in order.
//! - [`StreamingService`] — the producer-facing handle:
//!   [`launch`](StreamingService::launch) →
//!   [`ingest`](StreamingService::ingest) →
//!   [`finish`](StreamingService::finish) → [`StreamReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
mod config;
mod evaluator;
mod service;
mod shard;

pub use collector::WindowUpdate;
pub use config::{shard_of, ServeConfig};
pub use service::{ServeStats, StreamReport, StreamingService};
