//! Pluggable execution backends for the SCC kernels.
//!
//! The forward, input-gradient and weight-gradient kernels of the
//! sliding-channel convolution are defined once (the math of §IV-B) but can
//! be *executed* by different substrates. [`KernelBackend`] is the seam:
//!
//! * [`NaiveBackend`] — the straightforward chunked loops the reproduction
//!   started with. One pass over the output plane per window tap, AXPY
//!   inner loops. Kept as the correctness oracle and the baseline every
//!   other backend is benchmarked against.
//! * [`BlockedBackend`] — a register-blocked formulation in the spirit of
//!   Snytsar's sliding-window-sum kernels: the output plane is tiled into
//!   [`LANES`]-wide strips accumulated in fixed-size `[f32; LANES]` arrays
//!   (written so LLVM autovectorizes them — no `unsafe`, no intrinsics),
//!   and all output channels sharing one input-channel window are computed
//!   together so every input tile loaded from memory feeds
//!   [`OC_BLOCK`] accumulator rows.
//! * [`TiledBackend`] — the same register-tiled inner loops, scheduled as
//!   cache-sized `batch × channel-window × row-strip` tasks across the
//!   persistent work-stealing pool (`dsx_tensor::pool`), with a grain-size
//!   heuristic so small planes don't over-decompose. Tuned for large
//!   planes on multi-core hosts; bit-identical results at any thread
//!   count.
//!
//! The kind also picks `dsx-nn`'s dense `Conv2d` path: on `Blocked` and
//! `Tiled`, depthwise inference runs the direct sliding-window-sum
//! (conv-as-FIR) kernel `dsx_nn::swsum::conv2d_swsum`, with no im2col
//! buffer; `Naive` keeps im2col everywhere as the oracle.
//!
//! Future SIMD-intrinsic or GPU-style backends slot under the same trait.
//!
//! Backends are stateless zero-sized types; [`BackendKind`] names them,
//! parses CLI flags (`--backend blocked`) and resolves to a `&'static dyn
//! KernelBackend`. A process-wide default ([`set_default_backend`]) lets
//! binaries flip every layer they construct afterwards without threading a
//! parameter through each call site; freshly constructed layers read it
//! once, so flipping the default never changes a live layer.

mod blocked;
mod naive;
mod tiled;

pub use blocked::{BlockedBackend, LANES, OC_BLOCK, TAP_BLOCK};
pub use naive::NaiveBackend;
pub use tiled::{TiledBackend, TILE_F32};

use crate::backward::SccGradients;
use crate::config::SccConfig;
use crate::cyclic::ChannelCycleMap;
use crate::stats::KernelStats;
use dsx_tensor::Tensor;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};

/// An execution substrate for the SCC kernels.
///
/// Implementations must be numerically equivalent to the scalar reference
/// (`scc_forward_reference` / `scc_backward_reference`) within
/// `dsx_tensor::TEST_TOLERANCE`; the cross-backend property suite in
/// `crates/core/tests/backend_parity.rs` enforces this.
pub trait KernelBackend: std::fmt::Debug + Send + Sync {
    /// Which [`BackendKind`] this backend implements.
    fn kind(&self) -> BackendKind;

    /// Output-centric SCC forward pass.
    ///
    /// * `input`  — `[N, Cin, H, W]`
    /// * `weight` — `[Cout, group_width]`
    /// * `bias`   — optional `[Cout]`
    ///
    /// Returns `[N, Cout, H, W]`. Implementations validate shapes via
    /// `reference::validate_shapes` before touching any data.
    fn forward(
        &self,
        cfg: &SccConfig,
        map: &ChannelCycleMap,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stats: Option<&KernelStats>,
    ) -> Tensor;

    /// Input-gradient kernel of the input-centric backward design
    /// (one writer per input-gradient plane, zero atomics).
    fn grad_input(
        &self,
        cfg: &SccConfig,
        map: &ChannelCycleMap,
        weight: &Tensor,
        grad_output: &Tensor,
    ) -> Tensor;

    /// Weight- and bias-gradient kernels (one writer per filter row /
    /// output channel).
    fn grad_weight_bias(
        &self,
        cfg: &SccConfig,
        map: &ChannelCycleMap,
        input: &Tensor,
        grad_output: &Tensor,
    ) -> (Tensor, Tensor);

    /// Full input-centric backward pass: composes the three gradient
    /// kernels and accounts them in `stats` exactly like the historical
    /// `scc_backward_input_centric` (3 launches, zero atomics).
    fn backward(
        &self,
        cfg: &SccConfig,
        map: &ChannelCycleMap,
        input: &Tensor,
        weight: &Tensor,
        grad_output: &Tensor,
        stats: Option<&KernelStats>,
    ) -> SccGradients {
        let grad_input = self.grad_input(cfg, map, weight, grad_output);
        let (grad_weight, grad_bias) = self.grad_weight_bias(cfg, map, input, grad_output);
        if let Some(s) = stats {
            let (n, _, h, w) = crate::reference::dims4(input);
            let plane = h * w;
            s.add_launches(3);
            s.add_macs(2 * n * cfg.cout() * plane * cfg.group_width() + n * cfg.cout() * plane);
            s.add_bytes_moved(grad_input.bytes() + grad_weight.bytes() + grad_bias.bytes());
        }
        SccGradients {
            grad_input,
            grad_weight,
            grad_bias,
        }
    }
}

/// Records the forward pass in the instrumentation counters: one fused
/// launch, the analytic MAC count, and only the output tensor moved (nothing
/// intermediate is materialised — the key contrast with the operator
/// compositions). Shared by every backend so the accounting never diverges.
pub(crate) fn record_forward_stats(
    cfg: &SccConfig,
    n: usize,
    plane: usize,
    output: &Tensor,
    stats: Option<&KernelStats>,
) {
    if let Some(s) = stats {
        s.add_launch();
        s.add_macs(n * cfg.cout() * plane * cfg.group_width());
        s.add_bytes_moved(output.bytes());
    }
}

/// Names the available [`KernelBackend`] implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The original chunked-loop kernels (correctness oracle).
    #[default]
    Naive,
    /// Register-blocked, autovectorized kernels.
    Blocked,
    /// The blocked inner loops scheduled as cache-sized tiles across the
    /// persistent work-stealing pool (tuned for large planes).
    Tiled,
}

static NAIVE: NaiveBackend = NaiveBackend;
static BLOCKED: BlockedBackend = BlockedBackend;
static TILED: TiledBackend = TiledBackend;

impl BackendKind {
    /// All backends, naive first (the oracle, and the historical default).
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Naive, BackendKind::Blocked, BackendKind::Tiled];

    /// Stable lower-case name, used by `--backend` flags and bench reports.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Naive => "naive",
            BackendKind::Blocked => "blocked",
            BackendKind::Tiled => "tiled",
        }
    }

    /// Resolves the kind to its (stateless, static) backend implementation.
    pub fn backend(&self) -> &'static dyn KernelBackend {
        match self {
            BackendKind::Naive => &NAIVE,
            BackendKind::Blocked => &BLOCKED,
            BackendKind::Tiled => &TILED,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Ok(BackendKind::Naive),
            "blocked" => Ok(BackendKind::Blocked),
            "tiled" => Ok(BackendKind::Tiled),
            other => Err(format!(
                "unknown kernel backend '{other}' (expected one of: naive, blocked, tiled)"
            )),
        }
    }
}

/// Process-wide default backend, encoded as an index into
/// [`BackendKind::ALL`]. New layers read it at construction time.
static DEFAULT_BACKEND: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide default backend used by layers constructed
/// afterwards (e.g. from a `--backend` CLI flag, before any model is built).
/// Layers that already exist keep the backend they were built with.
pub fn set_default_backend(kind: BackendKind) {
    let idx = BackendKind::ALL
        .iter()
        .position(|k| *k == kind)
        // lint: allow(panic) — every `BackendKind` variant appears in
        // `ALL`; the exhaustive-listing test enforces it.
        .expect("kind is one of ALL") as u8;
    DEFAULT_BACKEND.store(idx, Ordering::SeqCst);
}

/// The current process-wide default backend ([`BackendKind::Naive`] unless
/// [`set_default_backend`] was called).
pub fn default_backend() -> BackendKind {
    BackendKind::ALL[DEFAULT_BACKEND.load(Ordering::SeqCst) as usize]
}

/// Serialises tests that flip the process-wide default backend: the test
/// harness runs tests on parallel threads, so two save/flip/restore
/// sequences would otherwise interleave and restore each other's
/// intermediate value.
#[cfg(test)]
pub(crate) fn test_default_backend_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{scc_backward_reference, scc_forward_reference};
    use dsx_tensor::{allclose, TEST_TOLERANCE};

    #[test]
    fn kind_round_trips_through_name_and_from_str() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.backend().kind(), kind);
        }
        assert_eq!(
            "Blocked".parse::<BackendKind>().unwrap(),
            BackendKind::Blocked
        );
        // Only the printed names parse: the retired backend and aliases fail.
        for retired in "swsum fir simd pool cuda".split_whitespace() {
            assert!(retired.parse::<BackendKind>().is_err(), "{retired}");
        }
    }

    #[test]
    fn default_backend_starts_naive_and_can_be_flipped() {
        let _guard = test_default_backend_lock();
        // Restore at the end so test order never leaks a global.
        let original = default_backend();
        set_default_backend(BackendKind::Blocked);
        assert_eq!(default_backend(), BackendKind::Blocked);
        set_default_backend(original);
        assert_eq!(default_backend(), original);
    }

    #[test]
    fn every_backend_matches_the_scalar_reference() {
        let cfg = SccConfig::new(12, 20, 4, 0.5).unwrap();
        let map = ChannelCycleMap::build(&cfg);
        let input = Tensor::randn(&[2, 12, 5, 7], 41);
        let weight = Tensor::randn(&[20, cfg.group_width()], 42);
        let bias = Tensor::randn(&[20], 43);
        let grad_out = Tensor::randn(&[2, 20, 5, 7], 44);
        let ref_fwd = scc_forward_reference(&cfg, &input, &weight, Some(&bias));
        let (ref_gi, ref_gw, ref_gb) = scc_backward_reference(&cfg, &input, &weight, &grad_out);
        for kind in BackendKind::ALL {
            let backend = kind.backend();
            let fwd = backend.forward(&cfg, &map, &input, &weight, Some(&bias), None);
            assert!(allclose(&fwd, &ref_fwd, TEST_TOLERANCE), "{kind} forward");
            let grads = backend.backward(&cfg, &map, &input, &weight, &grad_out, None);
            assert!(
                allclose(&grads.grad_input, &ref_gi, TEST_TOLERANCE),
                "{kind} grad_input"
            );
            assert!(
                allclose(&grads.grad_weight, &ref_gw, TEST_TOLERANCE),
                "{kind} grad_weight"
            );
            assert!(
                allclose(&grads.grad_bias, &ref_gb, TEST_TOLERANCE),
                "{kind} grad_bias"
            );
        }
    }

    #[test]
    fn backward_records_three_launches_and_no_atomics() {
        let cfg = SccConfig::new(8, 16, 2, 0.5).unwrap();
        let map = ChannelCycleMap::build(&cfg);
        let input = Tensor::randn(&[2, 8, 4, 4], 1);
        let weight = Tensor::randn(&[16, 4], 2);
        let grad_out = Tensor::randn(&[2, 16, 4, 4], 3);
        for kind in BackendKind::ALL {
            let stats = KernelStats::new();
            kind.backend()
                .backward(&cfg, &map, &input, &weight, &grad_out, Some(&stats));
            assert_eq!(stats.kernel_launches(), 3, "{kind}");
            assert_eq!(stats.atomic_updates(), 0, "{kind}");
        }
    }
}
