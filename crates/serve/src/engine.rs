//! The dynamic micro-batching engine.
//!
//! Many clients submit single-request tensors through clonable
//! [`ServeHandle`]s into one bounded MPMC queue (backpressure: submissions
//! block while the queue is full). A pool of worker threads drains the
//! queue under one work-conserving policy: a worker blocks for one live
//! request, takes everything *already queued* — up to `max_batch` — with
//! non-blocking receives, stacks the lot into one batched NCHW tensor
//! ([`Tensor::cat_batch`]), runs a **single** [`Layer::infer`] on the
//! shared `Arc` model, and scatters the per-request slices of the output
//! back to the callers ([`Tensor::split_batch`]).
//!
//! No timer is involved in forming a batch, and none is needed: requests
//! that arrive while a worker is inside `infer` queue up behind it and are
//! exactly its next batch. Batches therefore grow by themselves when — and
//! only when — the arrival rate exceeds what unbatched serving sustains,
//! and an idle engine answers a lone request at once instead of holding it
//! back in the hope of company.
//!
//! This is the serving-side counterpart of the paper's kernel argument:
//! sliding-channel convolution wins by raising the arithmetic intensity of
//! each launch, and micro-batching raises it further by amortising every
//! per-launch cost (weight repacking, GEMM tile setup, allocator traffic)
//! over the whole batch. `infer` takes `&self`, so running a batch needs no
//! lock around the model — concurrency safety is by construction. The only
//! lock in the engine guards the *slot* holding the model `Arc`, and is
//! held just long enough to clone it: that is what makes
//! [`ServeHandle::swap_model`] a zero-drop hot swap — in-flight batches
//! finish on the model they pinned, later batches pick up the replacement.
//!
//! Every outcome — output or error — leaves the engine the same way: as a
//! [`TaggedResponse`] on the channel the request carries. The network
//! front-end in `dsx-net` passes its connection's shared channel to
//! [`ServeHandle::submit_tagged`], so one writer thread can stream
//! responses back to a socket in whatever order batches complete; the
//! in-process [`ServeHandle::submit`] makes a private one-slot channel and
//! wraps its receiving end in a [`PendingResponse`].

use crate::stats::{ServeSnapshot, ServeStats};
use crossbeam::channel::{self, Receiver, Sender};
use dsx_nn::Layer;
use dsx_tensor::Tensor;
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing of the batching engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest number of requests fused into one forward pass.
    pub max_batch: usize,
    /// Bound of the shared request queue; submissions block (backpressure)
    /// while this many requests are already waiting.
    pub queue_capacity: usize,
    /// Worker threads draining the queue. Each runs its own batches, so on
    /// a multi-core host the pool adds parallelism on top of batching.
    pub workers: usize,
    /// When set, the per-request trailing dimensions (`[C, H, W]`) every
    /// submission must carry; mismatches are rejected at `submit` time with
    /// [`ServeError::InvalidRequest`] instead of poisoning a whole batch.
    pub request_dims: Option<Vec<usize>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            queue_capacity: 32,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            request_dims: None,
        }
    }
}

impl ServeConfig {
    /// Sets the largest fused batch (builder style).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the request-queue bound (builder style).
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the worker-pool size (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Requires every submission to carry these trailing (`[C, H, W]`)
    /// dimensions (builder style).
    pub fn with_request_dims(mut self, dims: &[usize]) -> Self {
        self.request_dims = Some(dims.to_vec());
        self
    }
}

/// Error returned by submissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The engine's workers are gone (or the batch carrying this request
    /// failed); the request was not served.
    Shutdown,
    /// The submission did not match the engine's declared request shape.
    InvalidRequest(String),
    /// The request's deadline expired while it sat in the queue; it was
    /// shed at dequeue, before batch assembly — never mid-batch — so the
    /// forward pass it would have joined was not wasted on it.
    DeadlineExceeded,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shutdown => f.write_str("the serving engine has shut down"),
            ServeError::InvalidRequest(why) => write!(f, "invalid serve request: {why}"),
            ServeError::DeadlineExceeded => {
                f.write_str("request deadline expired before batch assembly")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A completed request: the id the caller supplied plus the served output
/// (or the error that prevented serving it). Delivered on the channel
/// given to [`ServeHandle::submit_tagged`].
#[derive(Debug)]
pub struct TaggedResponse {
    /// The caller's request id, echoed back.
    pub id: u64,
    /// The request's output slice, or why it was not served.
    pub result: Result<Tensor, ServeError>,
}

/// A request's response slot: the caller's id and channel, plus the
/// outcome to deliver. `Drop` is the only sender, and the outcome starts as
/// `Shutdown`, so a slot dropped before [`Responder::answer`] — the batch
/// panicked, or the queue rejected the send — still delivers an explicit
/// error and no caller waits forever.
struct Responder {
    id: u64,
    done: Sender<TaggedResponse>,
    result: Result<Tensor, ServeError>,
}

impl Responder {
    fn new(id: u64, done: Sender<TaggedResponse>) -> Self {
        Responder {
            id,
            done,
            result: Err(ServeError::Shutdown),
        }
    }

    /// Delivers the outcome: the served output, or a typed failure (today:
    /// `DeadlineExceeded` from shedding).
    fn answer(mut self, result: Result<Tensor, ServeError>) {
        self.result = result;
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        let result = std::mem::replace(&mut self.result, Err(ServeError::Shutdown));
        // A receiver that gave up (dropped its end) is not an engine error.
        let _ = self.done.send(TaggedResponse {
            id: self.id,
            result,
        });
    }
}

/// One queued inference request: an NCHW input (usually batch 1, but any
/// batch size — including zero — rides along), an optional deadline, plus
/// its response slot.
struct Request {
    input: Tensor,
    enqueued: Instant,
    /// When set, the instant past which the request must not be served:
    /// workers shed it at dequeue (see [`ServeError::DeadlineExceeded`]).
    deadline: Option<Instant>,
    respond: Responder,
}

/// The shared model slot: workers take a read lock only long enough to
/// clone the inner `Arc`, so a swap's brief write lock never stalls an
/// in-flight forward pass and every batch runs to completion on whichever
/// model it started with.
type ModelSlot = Arc<RwLock<Arc<dyn Layer>>>;

/// A client-side handle: cheap to clone, safe to use from many threads.
///
/// Dropping every handle *and* the engine's own sender is what lets the
/// workers drain and exit, so drop handles before calling
/// [`ServeEngine::shutdown`].
#[derive(Clone)]
pub struct ServeHandle {
    queue: Sender<Request>,
    request_dims: Option<Arc<[usize]>>,
    model_slot: ModelSlot,
    stats: Arc<ServeStats>,
}

/// An in-flight request; [`PendingResponse::wait`] blocks for its output.
pub struct PendingResponse {
    rx: Receiver<TaggedResponse>,
}

impl PendingResponse {
    /// Blocks until the batched forward pass that carries this request
    /// completes, returning this request's slice of the output — or the
    /// typed reason it was not served (`DeadlineExceeded` when shed,
    /// `Shutdown` when its batch died or the engine is gone).
    pub fn wait(self) -> Result<Tensor, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Shutdown)?.result
    }
}

impl ServeHandle {
    /// The engine's live serving counters (shared with every worker; the
    /// net tier reads these to answer DSXN stats frames).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    fn validate(&self, input: &Tensor) -> Result<(), ServeError> {
        if input.rank() != 4 {
            return Err(ServeError::InvalidRequest(format!(
                "expected a rank-4 NCHW tensor, got rank {}",
                input.rank()
            )));
        }
        if let Some(dims) = self.request_dims.as_deref() {
            if &input.shape()[1..] != dims {
                return Err(ServeError::InvalidRequest(format!(
                    "expected per-sample dimensions {:?}, got {:?}",
                    dims,
                    &input.shape()[1..]
                )));
            }
        }
        Ok(())
    }

    /// The one admission sequence: validate, shed a zero budget, enqueue
    /// (blocking while the queue is full). An `Err` means the request never
    /// entered the queue and `done` was not used. Once it is queued every
    /// outcome reports through `done` — including a queue whose workers are
    /// gone, which hands the request back to be dropped and so answers
    /// `Shutdown`.
    fn enqueue(
        &self,
        id: u64,
        input: Tensor,
        deadline: Option<Duration>,
        done: Sender<TaggedResponse>,
    ) -> Result<(), ServeError> {
        self.validate(&input)?;
        if deadline.is_some_and(|budget| budget.is_zero()) {
            self.stats.record_shed(1);
            return Err(ServeError::DeadlineExceeded);
        }
        let enqueued = Instant::now();
        let _ = self.queue.send(Request {
            input,
            enqueued,
            deadline: deadline.map(|budget| enqueued + budget),
            respond: Responder::new(id, done),
        });
        Ok(())
    }

    /// Enqueues an inference request, blocking while the queue is full.
    /// `input` must be a rank-4 NCHW tensor (its batch axis may hold any
    /// number of samples, including zero) matching the engine's declared
    /// request dimensions, if any — a mismatch is rejected here, where only
    /// the offending client pays, not the batch it would have poisoned.
    ///
    /// `deadline`, when set, is a serving time budget measured from this
    /// call: if the request is still queued when the budget runs out, a
    /// worker sheds it at dequeue and [`PendingResponse::wait`] returns
    /// [`ServeError::DeadlineExceeded`]. A request already in a batch is
    /// always served — shedding happens before batch assembly, never
    /// mid-batch. A zero budget is shed here, at admission.
    pub fn submit(
        &self,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<PendingResponse, ServeError> {
        let (tx, rx) = channel::bounded(1);
        self.enqueue(0, input, deadline, tx)?;
        Ok(PendingResponse { rx })
    }

    /// Enqueues a request whose outcome — the output, a validation
    /// rejection, a shed `deadline` (see [`ServeHandle::submit`]; the wire
    /// tier turns it into a `DeadlineExceeded` error frame) or a batch
    /// failure — is delivered as a [`TaggedResponse`] carrying `id` on the
    /// caller's `done` channel. This call itself never fails: every path
    /// reports through `done`, so a connection's writer loop has exactly
    /// one stream to watch.
    ///
    /// Blocks while the queue is full, like [`ServeHandle::submit`].
    pub fn submit_tagged(
        &self,
        id: u64,
        input: Tensor,
        deadline: Option<Duration>,
        done: &Sender<TaggedResponse>,
    ) {
        if let Err(err) = self.enqueue(id, input, deadline, done.clone()) {
            let _ = done.send(TaggedResponse {
                id,
                result: Err(err),
            });
        }
    }

    /// Submits without a deadline and waits: the blocking request/response
    /// round trip a client thread performs.
    pub fn infer(&self, input: Tensor) -> Result<Tensor, ServeError> {
        self.submit(input, None)?.wait()
    }

    /// Hot-swaps the served model and returns the new swap generation.
    ///
    /// The swap is zero-drop by construction: workers clone the model `Arc`
    /// per batch, so batches already gathered finish on the old model while
    /// every batch formed after the swap runs the new one. No request is
    /// rejected, re-queued or dropped at any point. The old model is freed
    /// once its last in-flight batch completes.
    pub fn swap_model(&self, model: Arc<dyn Layer>) -> u64 {
        // Poisoning is recoverable here by construction: the lock only
        // ever guards a plain `Arc` assignment/clone, so a panicked holder
        // cannot have left the slot mid-update.
        *self
            .model_slot
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = model;
        self.stats.record_swap()
    }

    /// The current swap generation (0 = the model the engine started with).
    pub fn swap_generation(&self) -> u64 {
        self.stats.swap_generation()
    }
}

/// The running engine: owns the worker pool and the serving counters.
pub struct ServeEngine {
    queue: Sender<Request>,
    request_dims: Option<Arc<[usize]>>,
    model_slot: ModelSlot,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<ServeStats>,
    started: Instant,
}

impl ServeEngine {
    /// Spawns the worker pool over a shared model. The model is any
    /// [`Layer`] behind an `Arc` — the `Send + Sync` bound on the trait is
    /// what makes the sharing sound.
    pub fn start(model: Arc<dyn Layer>, config: ServeConfig) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.workers >= 1, "the worker pool needs a thread");
        let (tx, rx) = channel::bounded(config.queue_capacity);
        let stats = Arc::new(ServeStats::new());
        let model_slot: ModelSlot = Arc::new(RwLock::new(model));
        let workers = (0..config.workers)
            .map(|i| {
                let rx = rx.clone();
                let slot = Arc::clone(&model_slot);
                let stats = Arc::clone(&stats);
                let max_batch = config.max_batch;
                // lint: allow(thread) — the engine's long-lived batch
                // workers block on a channel; the compute pool is for
                // finite kernel launches, not request-draining loops.
                std::thread::Builder::new()
                    .name(format!("dsx-serve-worker-{i}"))
                    .spawn(move || worker_loop(&slot, &rx, &stats, max_batch))
                    // lint: allow(panic) — at process start, before any
                    // request exists; an engine that cannot get its workers
                    // has nothing useful to degrade to.
                    .expect("spawning a serve worker failed")
            })
            .collect();
        ServeEngine {
            queue: tx,
            request_dims: config.request_dims.map(Arc::from),
            model_slot,
            workers,
            stats,
            started: Instant::now(),
        }
    }

    /// A new client handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            queue: self.queue.clone(),
            request_dims: self.request_dims.clone(),
            model_slot: Arc::clone(&self.model_slot),
            stats: Arc::clone(&self.stats),
        }
    }

    /// Hot-swaps the served model (see [`ServeHandle::swap_model`]).
    pub fn swap_model(&self, model: Arc<dyn Layer>) -> u64 {
        self.handle().swap_model(model)
    }

    /// The current swap generation (0 = the model the engine started with).
    pub fn swap_generation(&self) -> u64 {
        self.stats.swap_generation()
    }

    /// The live serving counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// A shared handle onto the live counters alone. Unlike a
    /// [`ServeHandle`], holding one does not keep the request queue open,
    /// so a background reader (e.g. a periodic stats printer) can outlive
    /// the engine without stalling its shutdown drain.
    pub fn stats_arc(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// Stops accepting requests and gracefully drains: every request still
    /// in the queue — and every batch already in flight — is served before
    /// the workers exit, then the final serving report is returned.
    /// Outstanding [`ServeHandle`] clones must be dropped first or this
    /// blocks until they are (their owners may still be submitting).
    pub fn shutdown(self) -> ServeSnapshot {
        // Closing the engine's sender (once every handle is gone too) makes
        // the workers' `recv` fail only after the queue is empty — the
        // drain guarantee lives in the channel's disconnect semantics.
        drop(self.queue);
        for worker in self.workers {
            // A panicked thread must not take shutdown down with it: the
            // snapshot below is still owed to the caller, and a dead worker
            // already dropped its batch's Responders (each client got an
            // error). The join error is logged, not re-raised.
            if worker.join().is_err() {
                eprintln!("dsx-serve: a worker panicked; continuing shutdown");
            }
        }
        self.stats.snapshot(self.started.elapsed())
    }
}

/// One worker: block for a live request, take whatever else is already
/// queued up to `max_batch` without waiting, run the fused pass, scatter
/// the outputs.
fn worker_loop(
    model_slot: &RwLock<Arc<dyn Layer>>,
    rx: &Receiver<Request>,
    stats: &ServeStats,
    max_batch: usize,
) {
    loop {
        // Deadline shedding happens exactly here — at dequeue, before the
        // request joins a batch. Once a request is in `batch` it is always
        // served: a deadline can cut queue time short, never waste a
        // forward pass already committed to.
        let Ok(request) = rx.recv() else {
            return; // every sender gone and the queue drained
        };
        let Some(first) = shed_if_expired(request, stats) else {
            continue;
        };
        let mut batch = vec![first];
        while batch.len() < max_batch {
            let Ok(request) = rx.try_recv() else {
                break; // nothing else is waiting: run what we have, now
            };
            batch.extend(shed_if_expired(request, stats));
        }
        // Pin the current model for this whole batch: clone the inner Arc
        // and release the read lock before running. A concurrent
        // `swap_model` replaces the slot without touching this batch, and
        // a panicking forward pass cannot poison the lock.
        // Poisoning is recoverable: the slot only ever holds a fully
        // assigned `Arc` (writers assign, readers clone — no multi-step
        // state a panic could tear).
        let model = Arc::clone(
            &model_slot
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        // A panicking batch (a model assertion on adversarial input) must
        // not take the worker down with it: contain the unwind, drop the
        // batch — each dropped Responder answers its caller `Shutdown` —
        // and keep serving.
        let batch_len = batch.len();
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(&*model, batch, stats)
        }))
        .is_err()
        {
            stats.record_dropped(batch_len);
            eprintln!("dsx-serve: a batch panicked; its requests were dropped");
        }
    }
}

/// Sheds `request` if its deadline has passed: the caller gets a typed
/// [`ServeError::DeadlineExceeded`] and the shed counter moves. Returns the
/// request untouched when it is still live (or carries no deadline, which
/// costs no clock read).
fn shed_if_expired(request: Request, stats: &ServeStats) -> Option<Request> {
    if request
        .deadline
        .is_some_and(|deadline| Instant::now() >= deadline)
    {
        stats.record_shed(1);
        request.respond.answer(Err(ServeError::DeadlineExceeded));
        None
    } else {
        Some(request)
    }
}

/// Stacks a gathered batch, runs the single shared forward pass, and routes
/// each request's output slice back to its caller.
fn run_batch(model: &dyn Layer, batch: Vec<Request>, stats: &ServeStats) {
    let _span = dsx_obs::span_arg("serve", "serve.batch", "batch", batch.len() as u64);
    let sizes: Vec<usize> = batch.iter().map(|r| r.input.dim(0)).collect();
    let inputs: Vec<&Tensor> = batch.iter().map(|r| &r.input).collect();
    let stacked = Tensor::cat_batch(&inputs);
    let output = model.infer(&stacked);
    let parts = output.split_batch(&sizes);
    stats.record_batch(batch.len());
    for (request, part) in batch.into_iter().zip(parts) {
        stats.record_latency(request.enqueued.elapsed());
        request.respond.answer(Ok(part));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsx_nn::{GlobalAvgPool, Linear, ReLU, Sequential};

    /// A tiny model: [N, 2, 4, 4] -> [N, 3] logits.
    fn tiny_model() -> Arc<dyn Layer> {
        Arc::new(
            Sequential::new("tiny-serve")
                .push(ReLU::new())
                .push(GlobalAvgPool::new())
                .push(Linear::new(2, 3, 7)),
        )
    }

    fn request(seed: u64) -> Tensor {
        Tensor::randn(&[1, 2, 4, 4], seed)
    }

    #[test]
    fn a_lone_request_is_a_batch_of_exactly_one() {
        let engine = ServeEngine::start(tiny_model(), ServeConfig::default().with_workers(1));
        let handle = engine.handle();
        let out = handle.infer(request(1)).unwrap();
        assert_eq!(out.shape(), &[1, 3]);
        drop(handle);
        let snap = engine.shutdown();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.max_batch_occupancy, 1);
    }

    /// An identity layer whose every forward pass reports the batch size it
    /// was handed and then blocks until the test releases it. Holding the
    /// single worker inside `infer` lets a test decide exactly what is
    /// queued behind it, so batch formation is asserted without sleeps.
    struct GatedIdentity {
        entered: Sender<usize>,
        release: Receiver<()>,
    }

    impl Layer for GatedIdentity {
        fn name(&self) -> String {
            "gated-identity".to_string()
        }

        fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
            self.infer(input)
        }

        fn infer(&self, input: &Tensor) -> Tensor {
            // A test that already failed has dropped its ends; let the
            // worker run on instead of panicking inside the model.
            let _ = self.entered.send(input.dim(0));
            let _ = self.release.recv();
            input.clone()
        }

        fn backward(&mut self, grad_output: &Tensor) -> Tensor {
            grad_output.clone()
        }

        fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
            input_shape.to_vec()
        }
    }

    /// A one-worker engine over a [`GatedIdentity`], the channel on which
    /// each forward pass announces its batch size, and the channel that
    /// lets one pass finish per token.
    fn gated_engine(max_batch: usize) -> (ServeEngine, Receiver<usize>, Sender<()>) {
        let (entered_tx, entered) = channel::unbounded();
        let (release, release_rx) = channel::unbounded();
        let engine = ServeEngine::start(
            Arc::new(GatedIdentity {
                entered: entered_tx,
                release: release_rx,
            }),
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(max_batch),
        );
        (engine, entered, release)
    }

    #[test]
    fn requests_queued_behind_a_busy_worker_leave_as_a_full_batch_then_the_remainder() {
        let (engine, entered, release) = gated_engine(4);
        let handle = engine.handle();
        let pin = handle.submit(request(0), None).unwrap();
        assert_eq!(entered.recv().unwrap(), 1, "nothing else was queued");
        // The worker is inside `infer`: these six can only queue.
        let queued: Vec<_> = (1..=6)
            .map(|i| handle.submit(request(i), None).unwrap())
            .collect();
        release.send(()).unwrap();
        assert_eq!(
            entered.recv().unwrap(),
            4,
            "everything queued, up to max_batch"
        );
        release.send(()).unwrap();
        assert_eq!(
            entered.recv().unwrap(),
            2,
            "the remainder, without waiting for more"
        );
        release.send(()).unwrap();
        for p in std::iter::once(pin).chain(queued) {
            assert_eq!(p.wait().unwrap().shape(), &[1, 2, 4, 4]);
        }
        drop(handle);
        let snap = engine.shutdown();
        assert_eq!(snap.requests, 7);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.max_batch_occupancy, 4);
    }

    #[test]
    fn an_expired_request_met_during_the_drain_is_shed_and_takes_no_batch_slot() {
        let (engine, entered, release) = gated_engine(3);
        let handle = engine.handle();
        let pin = handle.submit(request(0), None).unwrap();
        assert_eq!(entered.recv().unwrap(), 1);
        let budget = Duration::from_millis(5);
        let first = handle.submit(request(1), None).unwrap();
        let doomed = handle.submit(request(2), Some(budget)).unwrap();
        let rest = [3, 4].map(|i| handle.submit(request(i), None).unwrap());
        // The worker stays held until the budget has certainly run out.
        std::thread::sleep(budget * 2);
        release.send(()).unwrap();
        // `doomed` sits second in the queue, inside the greedy drain; the
        // batch still fills to max_batch with the three live requests.
        assert_eq!(entered.recv().unwrap(), 3);
        release.send(()).unwrap();
        assert_eq!(doomed.wait(), Err(ServeError::DeadlineExceeded));
        for p in [pin, first].into_iter().chain(rest) {
            assert!(p.wait().is_ok());
        }
        drop(handle);
        let snap = engine.shutdown();
        assert_eq!(snap.shed_requests, 1);
        assert_eq!(snap.requests, 4);
        assert_eq!(snap.batches, 2);
    }

    #[test]
    fn batched_outputs_match_direct_inference() {
        let model = tiny_model();
        let engine = ServeEngine::start(
            Arc::clone(&model),
            ServeConfig::default().with_workers(1).with_max_batch(8),
        );
        let handle = engine.handle();
        let inputs: Vec<Tensor> = (0..6).map(|i| request(100 + i as u64)).collect();
        let pending: Vec<_> = inputs
            .iter()
            .map(|input| handle.submit(input.clone(), None).unwrap())
            .collect();
        for (input, p) in inputs.iter().zip(pending) {
            let served = p.wait().unwrap();
            let direct = model.infer(input);
            assert!(dsx_tensor::allclose(&served, &direct, 1e-6));
        }
        drop(handle);
        engine.shutdown();
    }

    #[test]
    fn multi_sample_and_zero_sample_requests_ride_along() {
        let engine = ServeEngine::start(tiny_model(), ServeConfig::default().with_workers(1));
        let handle = engine.handle();
        let wide = handle
            .submit(Tensor::randn(&[3, 2, 4, 4], 5), None)
            .unwrap();
        // A zero-size batch must flow through stacking, the kernels and the
        // scatter without tripping any chunk math.
        let empty = handle.submit(Tensor::zeros(&[0, 2, 4, 4]), None).unwrap();
        assert_eq!(wide.wait().unwrap().shape(), &[3, 3]);
        assert_eq!(empty.wait().unwrap().shape(), &[0, 3]);
        drop(handle);
        engine.shutdown();
    }

    #[test]
    fn declared_request_dims_reject_mismatches_at_submit_time() {
        let engine = ServeEngine::start(
            tiny_model(),
            ServeConfig::default()
                .with_workers(1)
                .with_request_dims(&[2, 4, 4]),
        );
        let handle = engine.handle();
        assert!(matches!(
            handle.submit(Tensor::zeros(&[1, 2, 5, 5]), None),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            handle.submit(Tensor::zeros(&[4]), None),
            Err(ServeError::InvalidRequest(_))
        ));
        // Conforming requests (any batch size) still flow.
        assert_eq!(handle.infer(request(3)).unwrap().shape(), &[1, 3]);
        drop(handle);
        let snap = engine.shutdown();
        assert_eq!(snap.requests, 1, "rejected submissions never enqueue");
    }

    #[test]
    fn a_poison_batch_fails_its_requests_but_not_the_engine() {
        // No declared request dims, so a bad shape only surfaces inside the
        // worker: [1, 3, 4, 4] sails through ReLU and GlobalAvgPool and
        // panics in Linear's feature check, however it was batched. The
        // affected client must see an error, later requests must still be
        // served, and shutdown must not observe a dead worker.
        let engine = ServeEngine::start(tiny_model(), ServeConfig::default().with_workers(1));
        let handle = engine.handle();
        let bad = handle.submit(Tensor::zeros(&[1, 3, 4, 4]), None).unwrap();
        assert_eq!(bad.wait(), Err(ServeError::Shutdown));
        // The worker survived the poison batch and keeps serving.
        assert_eq!(handle.infer(request(2)).unwrap().shape(), &[1, 3]);
        drop(handle);
        engine.shutdown();
    }

    #[test]
    fn shutdown_reports_queue_latency() {
        let engine = ServeEngine::start(tiny_model(), ServeConfig::default().with_workers(1));
        let handle = engine.handle();
        for i in 0..4 {
            handle.infer(request(i)).unwrap();
        }
        drop(handle);
        let snap = engine.shutdown();
        assert_eq!(snap.requests, 4);
        assert!(snap.throughput_rps > 0.0);
        assert!(snap.max_latency_us as f64 >= snap.mean_latency_us);
        assert!(snap.p50_latency_us <= snap.p99_latency_us);
        assert!(snap.p99_latency_us <= snap.max_latency_us);
    }

    #[test]
    fn submissions_fail_cleanly_after_shutdown() {
        let engine = ServeEngine::start(tiny_model(), ServeConfig::default().with_workers(1));
        let handle = engine.handle();
        // Workers only exit once every sender is gone, so test the client
        // side of the contract: a handle whose engine (and sibling handles)
        // are gone gets `Shutdown`, not a hang or a panic.
        let probe = handle.clone();
        drop(handle);
        let rx_dead = {
            let engine_queue_gone = probe.submit(request(1), None).unwrap();
            engine_queue_gone.wait().unwrap()
        };
        assert_eq!(rx_dead.shape(), &[1, 3]);
        drop(probe);
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_every_queued_request() {
        // Queue up more work than one slow-waiting worker has started on,
        // drop the handle, and shut down: every response must still arrive
        // — the drain guarantee.
        let engine = ServeEngine::start(
            tiny_model(),
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(2)
                .with_queue_capacity(64),
        );
        let handle = engine.handle();
        let pending: Vec<_> = (0..24)
            .map(|i| handle.submit(request(i as u64), None).unwrap())
            .collect();
        drop(handle);
        let snap = engine.shutdown();
        assert_eq!(snap.requests, 24, "shutdown must drain the queue");
        for p in pending {
            assert_eq!(p.wait().unwrap().shape(), &[1, 3]);
        }
    }

    #[test]
    fn tagged_submissions_route_everything_through_one_channel() {
        let model = tiny_model();
        let engine = ServeEngine::start(
            Arc::clone(&model),
            ServeConfig::default()
                .with_workers(1)
                .with_request_dims(&[2, 4, 4]),
        );
        let handle = engine.handle();
        let (done_tx, done_rx) = channel::unbounded();
        // Two good requests and one shape reject, interleaved ids.
        handle.submit_tagged(7, request(1), None, &done_tx);
        handle.submit_tagged(9, Tensor::zeros(&[1, 9, 9, 9]), None, &done_tx);
        handle.submit_tagged(8, request(2), None, &done_tx);
        let mut ok = Vec::new();
        let mut rejected = Vec::new();
        for _ in 0..3 {
            let response = done_rx.recv().unwrap();
            match response.result {
                Ok(output) => {
                    assert_eq!(output.shape(), &[1, 3]);
                    ok.push(response.id);
                }
                Err(ServeError::InvalidRequest(_)) => rejected.push(response.id),
                Err(other) => panic!("unexpected error for id {}: {other}", response.id),
            }
        }
        ok.sort_unstable();
        assert_eq!(ok, vec![7, 8]);
        assert_eq!(rejected, vec![9]);
        drop(handle);
        engine.shutdown();
    }

    #[test]
    fn tagged_requests_in_a_poison_batch_get_explicit_errors() {
        let engine = ServeEngine::start(tiny_model(), ServeConfig::default().with_workers(1));
        let handle = engine.handle();
        let (done_tx, done_rx) = channel::unbounded();
        // Sails through validation (no declared dims) but panics in Linear.
        handle.submit_tagged(42, Tensor::zeros(&[1, 3, 4, 4]), None, &done_tx);
        let response = done_rx.recv().unwrap();
        assert_eq!(response.id, 42);
        assert_eq!(response.result.unwrap_err(), ServeError::Shutdown);
        // The worker is still alive for tagged traffic afterwards.
        handle.submit_tagged(43, request(5), None, &done_tx);
        let response = done_rx.recv().unwrap();
        assert_eq!(response.id, 43);
        assert!(response.result.is_ok());
        drop(handle);
        engine.shutdown();
    }

    #[test]
    fn swap_model_switches_outputs_and_bumps_the_generation() {
        let v1 = tiny_model();
        let v2: Arc<dyn Layer> = Arc::new(
            Sequential::new("tiny-serve-v2")
                .push(ReLU::new())
                .push(GlobalAvgPool::new())
                .push(Linear::new(2, 3, 99)), // different seed => different weights
        );
        let engine = ServeEngine::start(Arc::clone(&v1), ServeConfig::default().with_workers(1));
        let handle = engine.handle();
        let input = request(1);
        let before = handle.infer(input.clone()).unwrap();
        assert!(dsx_tensor::allclose(&before, &v1.infer(&input), 1e-6));
        assert_eq!(engine.swap_generation(), 0);
        assert_eq!(handle.swap_model(Arc::clone(&v2)), 1);
        assert_eq!(engine.swap_generation(), 1);
        let after = handle.infer(input.clone()).unwrap();
        assert!(dsx_tensor::allclose(&after, &v2.infer(&input), 1e-6));
        drop(handle);
        let snap = engine.shutdown();
        assert_eq!(snap.swap_generation, 1);
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.dropped_requests, 0);
    }

    #[test]
    fn dropped_requests_counter_tracks_poison_batches() {
        let engine = ServeEngine::start(tiny_model(), ServeConfig::default().with_workers(1));
        let handle = engine.handle();
        let bad = handle.submit(Tensor::zeros(&[1, 3, 4, 4]), None).unwrap();
        assert_eq!(bad.wait(), Err(ServeError::Shutdown));
        assert_eq!(handle.infer(request(2)).unwrap().shape(), &[1, 3]);
        drop(handle);
        let snap = engine.shutdown();
        assert_eq!(snap.dropped_requests, 1);
        assert_eq!(snap.requests, 1, "the poison request never completed");
        assert!(format!("{snap}").contains("DROPPED 1 requests"));
    }

    #[test]
    fn queued_requests_past_their_deadline_are_shed_with_a_typed_error() {
        // One worker, batch size 1: the first request pins the worker, and
        // the second's 5 ms budget has run out by the time the worker is
        // let back to the queue — it must be shed at dequeue, never served,
        // and told so with `DeadlineExceeded`.
        let (engine, entered, release) = gated_engine(1);
        let handle = engine.handle();
        let budget = Duration::from_millis(5);
        let pinned = handle.submit(request(1), None).unwrap();
        assert_eq!(entered.recv().unwrap(), 1);
        let doomed = handle.submit(request(2), Some(budget)).unwrap();
        std::thread::sleep(budget * 2);
        release.send(()).unwrap();
        assert_eq!(pinned.wait().unwrap().shape(), &[1, 2, 4, 4]);
        assert_eq!(doomed.wait(), Err(ServeError::DeadlineExceeded));
        // The worker is alive and serving after the shed.
        release.send(()).unwrap();
        assert!(handle.infer(request(3)).is_ok());
        drop(handle);
        let snap = engine.shutdown();
        assert_eq!(snap.shed_requests, 1);
        assert_eq!(snap.dropped_requests, 0, "a shed is not a drop");
        assert_eq!(snap.requests, 2, "the shed request never joined a batch");
        assert!(format!("{snap}").contains("SHED 1 requests past deadline"));
    }

    #[test]
    fn generous_deadlines_never_shed() {
        let engine = ServeEngine::start(tiny_model(), ServeConfig::default().with_workers(1));
        let handle = engine.handle();
        for i in 0..8 {
            let out = handle
                .submit(request(i), Some(Duration::from_secs(30)))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(out.shape(), &[1, 3]);
        }
        drop(handle);
        let snap = engine.shutdown();
        assert_eq!(snap.shed_requests, 0);
        assert_eq!(snap.requests, 8);
    }

    #[test]
    fn zero_budget_is_shed_at_admission() {
        let engine = ServeEngine::start(tiny_model(), ServeConfig::default().with_workers(1));
        let handle = engine.handle();
        assert_eq!(
            handle.submit(request(1), Some(Duration::ZERO)).err(),
            Some(ServeError::DeadlineExceeded)
        );
        let (done_tx, done_rx) = channel::unbounded();
        handle.submit_tagged(11, request(2), Some(Duration::ZERO), &done_tx);
        let response = done_rx.recv().unwrap();
        assert_eq!(response.id, 11);
        assert_eq!(response.result.unwrap_err(), ServeError::DeadlineExceeded);
        drop(handle);
        let snap = engine.shutdown();
        assert_eq!(snap.shed_requests, 2);
        assert_eq!(snap.requests, 0);
    }

    #[test]
    fn tagged_deadline_sheds_route_through_the_done_channel() {
        let (engine, entered, release) = gated_engine(1);
        let handle = engine.handle();
        let (done_tx, done_rx) = channel::unbounded();
        let budget = Duration::from_millis(5);
        handle.submit_tagged(1, request(1), None, &done_tx);
        assert_eq!(entered.recv().unwrap(), 1);
        handle.submit_tagged(2, request(2), Some(budget), &done_tx);
        std::thread::sleep(budget * 2);
        release.send(()).unwrap();
        let mut served = Vec::new();
        let mut shed = Vec::new();
        for _ in 0..2 {
            let response = done_rx.recv().unwrap();
            match response.result {
                Ok(_) => served.push(response.id),
                Err(ServeError::DeadlineExceeded) => shed.push(response.id),
                Err(other) => panic!("unexpected error for id {}: {other}", response.id),
            }
        }
        assert_eq!(served, vec![1]);
        assert_eq!(shed, vec![2]);
        drop(handle);
        engine.shutdown();
    }
}
