//! # dsx-tensor
//!
//! Dense `f32` tensor library and CPU parallel runtime used by every other
//! crate in the DSXplore-rs workspace.
//!
//! The DSXplore paper implements its kernels directly against raw NCHW
//! buffers on a GPU; this crate provides the equivalent substrate for a CPU
//! reproduction:
//!
//! * [`Tensor`] — a dense, row-major, heap-allocated `f32` tensor with
//!   shape/stride bookkeeping ([`shape`]), elementwise arithmetic, reductions,
//!   and NCHW-specific helpers (channel slicing / concatenation) that mirror
//!   the PyTorch operators the paper's baselines are composed from.
//! * [`matmul`] — blocked and parallel GEMM used by the im2col convolution
//!   path and the fully-connected layers.
//! * [`conv`] — `im2col` / `col2im` lowering plus zero padding, the standard
//!   lowering used by the "highly-optimized library" baselines the paper
//!   compares against.
//! * [`par`] — chunked `parallel_for` entry points, the CPU stand-in for
//!   the paper's "assign one GPU thread per output pixel" decomposition,
//!   scheduled on [`pool`] — a persistent work-stealing worker pool so hot
//!   kernel launches pay a queue push instead of OS thread startup.
//! * [`isa`] — runtime AVX2 dispatch: [`isa::wide`] runs a kernel body at
//!   the host's vector width, with results bit-identical to the baseline.
//! * [`init`] — Kaiming / Xavier / uniform initialisers with deterministic
//!   seeding so experiments are reproducible.
//!
//! ## Example
//!
//! ```
//! use dsx_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! ```

#![warn(missing_docs)]

pub mod checksum;
pub mod conv;
pub mod init;
pub mod isa;
pub mod matmul;
pub mod ops;
pub mod par;
pub mod pool;
pub mod shape;
pub mod slice;
pub mod tensor;
pub mod wire;

pub use checksum::{crc32, Crc32};
pub use matmul::GemmKernel;
pub use par::{num_threads, set_num_threads};
pub use pool::PoolStats;
pub use shape::Shape;
pub use tensor::Tensor;
pub use wire::{WireDecodeError, MAX_WIRE_NUMEL, MAX_WIRE_RANK};

/// Absolute tolerance used by the test-suites of every crate in the
/// workspace when comparing floating-point tensors produced by different but
/// mathematically equivalent kernels (e.g. the SCC output-centric forward vs
/// the naive reference).
pub const TEST_TOLERANCE: f32 = 1e-4;

/// Returns `true` if `a` and `b` have identical shapes and every pair of
/// elements is within `tol` (absolutely or relative to the larger magnitude).
pub fn allclose(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| (x - y).abs() <= tol || (x - y).abs() <= tol * x.abs().max(y.abs()))
}

/// Maximum absolute elementwise difference between two tensors of identical
/// shape. Panics if shapes differ.
pub fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "max_abs_diff: shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allclose_detects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(!allclose(&a, &b, 1e-6));
    }

    #[test]
    fn allclose_detects_value_mismatch() {
        let a = Tensor::zeros(&[3]);
        let mut b = Tensor::zeros(&[3]);
        b.as_mut_slice()[1] = 0.5;
        assert!(!allclose(&a, &b, 1e-6));
        assert!(allclose(&a, &b, 0.6));
    }

    #[test]
    fn allclose_accepts_relative_tolerance() {
        let a = Tensor::from_vec(vec![1000.0, 2000.0], &[2]);
        let b = Tensor::from_vec(vec![1000.05, 2000.1], &[2]);
        assert!(allclose(&a, &b, 1e-4));
    }

    #[test]
    fn max_abs_diff_reports_largest_gap() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![1.0, 2.5, 2.0], &[3]);
        assert!((max_abs_diff(&a, &b) - 1.0).abs() < 1e-6);
    }
}
