//! # dsx-serve
//!
//! A dynamic micro-batching inference engine over the DSXplore model zoo:
//! many concurrent clients share one forward pass.
//!
//! The crate builds on the `Layer::infer(&self)` path added to `dsx-nn`
//! (evaluation-mode inference with no activation caches), which makes a
//! built model `Send + Sync` — one `Arc<dyn Layer>` serves every thread
//! with zero locks:
//!
//! * [`engine`] — the batching engine: a bounded MPMC request queue (with
//!   backpressure) and a worker pool under one work-conserving policy — a
//!   worker blocks for one request, takes whatever else is *already
//!   queued* up to `max_batch`, stacks it into one batched tensor, runs a
//!   single `infer` and scatters the per-request outputs back. Nothing
//!   waits on a timer: requests that arrive during an `infer` are the next
//!   batch, so batches form exactly when load exceeds unbatched capacity
//!   and a lone request is served at once. Every outcome travels as a
//!   [`TaggedResponse`] on the channel the request carries — a private
//!   one-slot channel behind [`ServeHandle::submit`]'s
//!   [`PendingResponse`], or a caller-owned channel keyed by request id
//!   ([`ServeHandle::submit_tagged`], the route the `dsx-net` TCP
//!   front-end streams responses from);
//! * [`stats`] — per-request latency (mean, max and p50/p95/p99
//!   percentiles), batch occupancy and throughput counters;
//! * [`loadgen`] — the serving workload model, a multi-threaded load
//!   generator and the serial-unbatched baseline (what the `dsx-serve`
//!   binary drives).
//!
//! ## Example
//!
//! ```
//! use dsx_serve::{ServeConfig, ServeEngine};
//! use dsx_nn::{GlobalAvgPool, Layer, Linear, Sequential};
//! use dsx_tensor::Tensor;
//! use std::sync::Arc;
//!
//! let model: Arc<dyn Layer> = Arc::new(
//!     Sequential::new("m").push(GlobalAvgPool::new()).push(Linear::new(2, 3, 1)),
//! );
//! let engine = ServeEngine::start(model, ServeConfig::default());
//! let handle = engine.handle();
//! let logits = handle.infer(Tensor::randn(&[1, 2, 4, 4], 7)).unwrap();
//! assert_eq!(logits.shape(), &[1, 3]);
//! drop(handle);
//! let report = engine.shutdown();
//! assert_eq!(report.requests, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod loadgen;
pub mod stats;

pub use engine::{
    PendingResponse, ServeConfig, ServeEngine, ServeError, ServeHandle, TaggedResponse,
};
pub use loadgen::{
    build_serving_model, request_input, run_load, run_serial, serving_spec, serving_spec_with,
    LoadConfig, SerialReport,
};
pub use stats::{ServeSnapshot, ServeStats};
