//! Dense convolution as a sliding window sum (conv-as-FIR), no im2col.
//!
//! The Snytsar sliding-window-sum papers ("Sliding Window Sum Algorithms
//! for Deep Neural Networks", "Accelerating Machine Learning Primitives on
//! Commodity Hardware") observe that on commodity CPUs a convolution can
//! beat the im2col + GEMM lowering by treating each output row as a FIR
//! filter over input rows: for every kernel tap `(ky, kx)` the matching
//! input row is shifted by `kx`, scaled by one hoisted weight, and
//! accumulated into the output row with a unit-stride fused loop. Nothing
//! is materialised — the `C·K·K × N·oh·ow` column matrix that im2col
//! builds (often an order of magnitude larger than the input) never
//! exists.
//!
//! Parallel decomposition: one output row per logical task, scheduled via
//! [`par::parallel_for_each_chunk_mut`] (which batches short rows per pool
//! claim). Each row has exactly one writer and accumulates its taps in a
//! fixed `(ic, ky, kx)` order independent of the thread count, so results
//! are **bit-identical at 1 and N pool threads** — the same determinism
//! contract as the tiled SCC backend.

use dsx_tensor::conv::conv_out_size;
use dsx_tensor::{par, Tensor};

/// Dense (grouped) 2-D convolution via sliding window sums.
///
/// * `input`  — `[N, Cin, H, W]`
/// * `weight` — `[Cout, Cin/groups, K, K]`
/// * `bias`   — optional `[Cout]`
///
/// Returns `[N, Cout, oh, ow]`, numerically equivalent to the im2col +
/// GEMM path within floating-point re-association of the tap order.
pub fn conv2d_swsum(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    assert_eq!(input.rank(), 4, "conv2d_swsum expects NCHW input");
    assert_eq!(weight.rank(), 4, "conv2d_swsum expects OIKK weights");
    let (n, cin, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (cout, cin_g, kernel) = (weight.dim(0), weight.dim(1), weight.dim(2));
    assert_eq!(weight.dim(3), kernel, "square kernels only");
    assert_eq!(cin_g * groups, cin, "weight/groups disagree with Cin");
    assert_eq!(cout % groups, 0, "Cout not divisible by groups");
    let cout_g = cout / groups;
    let oh = conv_out_size(h, kernel, stride, pad);
    let ow = conv_out_size(w, kernel, stride, pad);

    let mut output = Tensor::zeros(&[n, cout, oh, ow]);
    if n == 0 || oh == 0 || ow == 0 {
        return output;
    }
    let src = input.as_slice();
    let w_data = weight.as_slice();
    let b_data = bias.map(|b| b.as_slice());

    // One chunk per output row (img, oc, oy); the grain heuristic batches
    // CIFAR-scale rows per pool claim.
    // Not in `isa::wide`: an AVX2 build of this body measured no faster.
    par::parallel_for_each_chunk_mut(output.as_mut_slice(), ow, |row_idx, out_row| {
        let oy = row_idx % oh;
        let oc = (row_idx / oh) % cout;
        let img = row_idx / (oh * cout);
        let g = oc / cout_g;

        let init = b_data.map(|b| b[oc]).unwrap_or(0.0);
        out_row.fill(init);

        for ic_local in 0..cin_g {
            let ic = g * cin_g + ic_local;
            // Hoisted per-tap weight base: the K² filter taps of this
            // (output, input) channel pair.
            let w_base = (oc * cin_g + ic_local) * kernel * kernel;
            for ky in 0..kernel {
                let iy = (oy * stride + ky) as isize - pad as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let in_row = &src[((img * cin + ic) * h + iy as usize) * w
                    ..((img * cin + ic) * h + iy as usize + 1) * w];
                let taps = &w_data[w_base + ky * kernel..w_base + (ky + 1) * kernel];
                if stride == 1 && kernel == 3 {
                    // The dominant dense-conv case gets a fused kernel: one
                    // pass over the row applying all three taps, instead of
                    // three load-accumulate-store sweeps.
                    accumulate_row_k3(out_row, in_row, taps, pad, w);
                } else {
                    for (kx, &tap) in taps.iter().enumerate() {
                        accumulate_tap(out_row, in_row, tap, kx, stride, pad, w);
                    }
                }
            }
        }
    });
    output
}

/// Fused FIR step for a unit-stride 3-tap row: applies one `(ic, ky)`
/// weight triple in a single pass. Edge columns (where some tap falls off
/// the input row) run a scalar ascending-`kx` loop; the interior runs a
/// three-slice zip LLVM autovectorizes. The per-element accumulation order
/// is fixed, so results stay bit-identical at any pool thread count.
#[inline(always)]
fn accumulate_row_k3(out_row: &mut [f32], in_row: &[f32], taps: &[f32], pad: usize, w: usize) {
    let ow = out_row.len();
    // Interior: ox - pad >= 0 and ox - pad + 2 < w.
    let ox_lo = pad.min(ow);
    let ox_hi = (w + pad).saturating_sub(2).clamp(ox_lo, ow);
    let scalar_edge = |out_row: &mut [f32], range: core::ops::Range<usize>| {
        for ox in range {
            let mut acc = out_row[ox];
            for (kx, &tap) in taps.iter().enumerate() {
                let ix = (ox + kx) as isize - pad as isize;
                if ix >= 0 && ix < w as isize {
                    acc += tap * in_row[ix as usize];
                }
            }
            out_row[ox] = acc;
        }
    };
    scalar_edge(out_row, 0..ox_lo);
    scalar_edge(out_row, ox_hi..ow);
    if ox_lo < ox_hi {
        let len = ox_hi - ox_lo;
        let base = ox_lo - pad;
        let s0 = &in_row[base..base + len];
        let s1 = &in_row[base + 1..base + 1 + len];
        let s2 = &in_row[base + 2..base + 2 + len];
        let (t0, t1, t2) = (taps[0], taps[1], taps[2]);
        for (((o, &a), &b), &c) in out_row[ox_lo..ox_hi].iter_mut().zip(s0).zip(s1).zip(s2) {
            *o += t0 * a + t1 * b + t2 * c;
        }
    }
}

/// Accumulates one kernel tap into an output row: the generic FIR step.
/// For unit stride the valid `ox` range maps to a contiguous shifted slice
/// of the input row, so the update is a unit-stride AXPY LLVM
/// autovectorizes; strided convolutions take the scalar gather.
#[inline(always)]
fn accumulate_tap(
    out_row: &mut [f32],
    in_row: &[f32],
    tap: f32,
    kx: usize,
    stride: usize,
    pad: usize,
    w: usize,
) {
    let ow = out_row.len();
    if stride == 1 {
        // ix = ox + kx - pad must land in [0, w).
        let ox0 = pad.saturating_sub(kx);
        let ox1 = ow.min((w + pad).saturating_sub(kx));
        if ox0 >= ox1 {
            return;
        }
        let ix0 = ox0 + kx - pad;
        let src = &in_row[ix0..ix0 + (ox1 - ox0)];
        for (o, s) in out_row[ox0..ox1].iter_mut().zip(src.iter()) {
            *o += tap * *s;
        }
    } else {
        for (ox, o) in out_row.iter_mut().enumerate() {
            let ix = (ox * stride + kx) as isize - pad as isize;
            if ix >= 0 && ix < w as isize {
                *o += tap * in_row[ix as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{conv2d_reference, Conv2d};
    use crate::layer::Layer;
    use dsx_tensor::{allclose, TEST_TOLERANCE};

    fn check(conv: &Conv2d, input_shape: &[usize], seed: u64) {
        let input = Tensor::randn(input_shape, seed);
        let got = conv2d_swsum(
            &input,
            conv.weight(),
            conv.bias(),
            conv.stride(),
            conv.pad(),
            conv.groups(),
        );
        let want = conv2d_reference(
            &input,
            conv.weight(),
            conv.bias(),
            conv.stride(),
            conv.pad(),
            conv.groups(),
        );
        assert!(
            allclose(&got, &want, TEST_TOLERANCE),
            "swsum diverges from the direct reference for {}",
            conv.name()
        );
    }

    #[test]
    fn matches_reference_on_standard_strided_and_grouped_shapes() {
        check(&Conv2d::new(3, 8, 3, 1, 1, 42), &[2, 3, 6, 6], 1);
        check(&Conv2d::new(4, 6, 3, 2, 1, 43), &[1, 4, 8, 8], 2);
        check(&Conv2d::grouped(8, 12, 3, 1, 1, 4, 44), &[2, 8, 5, 5], 3);
        check(&Conv2d::depthwise(6, 3, 1, 1, 45), &[1, 6, 7, 7], 4);
        check(&Conv2d::pointwise(4, 10, 46), &[2, 4, 3, 3], 5);
        // Non-square planes, no padding, kernel larger than stride.
        check(&Conv2d::new(2, 5, 3, 1, 0, 47), &[1, 2, 4, 9], 6);
        check(&Conv2d::new(2, 3, 2, 2, 0, 48), &[1, 2, 6, 10], 7);
    }

    #[test]
    fn results_are_bit_identical_across_pool_thread_counts() {
        let conv = Conv2d::new(4, 8, 3, 1, 1, 50);
        let input = Tensor::randn(&[2, 4, 32, 32], 51);
        let run = || {
            conv2d_swsum(
                &input,
                conv.weight(),
                conv.bias(),
                conv.stride(),
                conv.pad(),
                conv.groups(),
            )
        };
        dsx_tensor::set_num_threads(1);
        let single = run();
        dsx_tensor::set_num_threads(4);
        let pooled = run();
        dsx_tensor::set_num_threads(0);
        assert_eq!(single.as_slice(), pooled.as_slice());
    }

    #[test]
    fn empty_batch_produces_an_empty_output() {
        let conv = Conv2d::new(2, 3, 3, 1, 1, 52);
        let out = conv2d_swsum(
            &Tensor::zeros(&[0, 2, 4, 4]),
            conv.weight(),
            conv.bias(),
            1,
            1,
            1,
        );
        assert_eq!(out.shape(), &[0, 3, 4, 4]);
    }
}
