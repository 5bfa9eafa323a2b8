//! Runtime instruction-set dispatch for the hot kernels.
//!
//! The workspace builds for baseline x86-64 (SSE2, four `f32` per vector
//! register), so one binary runs on every x86-64 host. [`wide`] lets a
//! kernel body run at the host's width anyway: on a CPU with AVX2 it calls
//! the body inside one `#[target_feature(enable = "avx2")]` function, so
//! LLVM compiles a second copy of it with 8-float YMM registers; elsewhere
//! it calls the body directly.
//!
//! Only `avx2` is enabled, never `fma`: both copies do the same multiplies
//! and adds in the same order, so their results are bit-identical.
//!
//! The body must be a closure marked `#[inline(always)]`, and everything it
//! calls in the hot loop must be `#[inline(always)]` too. Code that is not
//! inlined into the AVX2 function keeps its baseline copy:
//!
//! ```
//! let xs = [1.0f32; 64];
//! let sum = dsx_tensor::isa::wide(
//!     #[inline(always)]
//!     || xs.iter().sum::<f32>(),
//! );
//! assert_eq!(sum, 64.0);
//! ```

#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Runs `f` on the widest instruction set this crate compiles for that the
/// host supports: AVX2 when the CPU has it, the baseline otherwise.
#[inline(always)]
pub fn wide<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `avx2` only enables the `avx2` target feature, and
        // `has_avx2` returned true, i.e. `is_x86_feature_detected!("avx2")`
        // found it on this CPU.
        return unsafe { avx2(f) };
    }
    f()
}

/// The instruction set [`wide`] runs its bodies on: `"avx2"` or
/// `"baseline"`.
pub fn name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        return "avx2";
    }
    "baseline"
}

/// Whether this CPU has AVX2, detected once per process.
#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
}

/// `f`, compiled with AVX2 enabled. Every `#[inline(always)]` callee of
/// `f` is compiled into this copy as well.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_returns_the_value_of_its_body() {
        let owned = String::from("moved in");
        let got = wide(
            #[inline(always)]
            move || owned.len() + 1,
        );
        assert_eq!(got, 9);
        let xs: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let sum = wide(
            #[inline(always)]
            || xs.iter().sum::<f32>(),
        );
        assert_eq!(sum.to_bits(), xs.iter().sum::<f32>().to_bits());
    }

    #[test]
    fn detection_gives_the_same_answer_every_time() {
        let first = name();
        for _ in 0..4 {
            assert_eq!(name(), first);
        }
        assert!(first == "avx2" || first == "baseline", "{first}");
        #[cfg(target_arch = "x86_64")]
        assert_eq!(has_avx2(), first == "avx2");
    }
}
