//! Standard, grouped, depthwise and (group) pointwise convolutions.
//!
//! These are the "off-the-shelf" convolution operators the paper's baselines
//! are built from. They are lowered to GEMM via `im2col` per channel group —
//! the same lowering cuDNN uses for the library-backed PyTorch operators the
//! paper compares against. The sliding-channel convolution deliberately does
//! *not* use this path (see `dsx-core`).
//!
//! Like [`crate::scc_layer::SccConv2d`], the layer carries a
//! [`BackendKind`] (defaulting to the process-wide
//! [`dsx_core::default_backend`]) that selects the execution strategy:
//!
//! | backend   | dense `Conv2d` path                                        |
//! |-----------|------------------------------------------------------------|
//! | `naive`   | im2col + the historical size-picked GEMM                   |
//! | `blocked` | im2col + the register-tiled GEMM, single caller thread     |
//! | `tiled`   | im2col + the register-tiled GEMM scheduled on the pool     |
//!
//! Depthwise inference (`groups == cin`, no cache) on `blocked` and `tiled`
//! skips im2col: it runs the direct sliding-window-sum kernel
//! ([`crate::swsum`]). `naive` keeps im2col there too, as the oracle.

use crate::layer::Layer;
use dsx_core::{default_backend, BackendKind};
use dsx_tensor::conv::{col2im, conv_out_size, im2col};
use dsx_tensor::{init, GemmKernel, Tensor};

/// A 2-D convolution with optional channel groups.
///
/// Weight layout: `[Cout, Cin/groups, K, K]`; bias `[Cout]`.
pub struct Conv2d {
    cin: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    backend: BackendKind,
    weight: Tensor,
    bias: Option<Tensor>,
    grad_weight: Tensor,
    grad_bias: Tensor,
    // Cached per-group im2col matrices and the input shape from forward.
    cached_cols: Vec<Tensor>,
    cached_input_shape: Vec<usize>,
}

impl Conv2d {
    /// Creates a standard convolution (`groups = 1`).
    pub fn new(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        Self::grouped(cin, cout, kernel, stride, pad, 1, seed)
    }

    /// Creates a grouped convolution.
    pub fn grouped(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        seed: u64,
    ) -> Self {
        assert!(groups > 0, "groups must be positive");
        assert_eq!(
            cin % groups,
            0,
            "cin {cin} not divisible by groups {groups}"
        );
        assert_eq!(
            cout % groups,
            0,
            "cout {cout} not divisible by groups {groups}"
        );
        let cin_g = cin / groups;
        let fan_in = cin_g * kernel * kernel;
        let weight = Tensor::from_vec(
            init::kaiming_normal(cout * cin_g * kernel * kernel, fan_in, seed),
            &[cout, cin_g, kernel, kernel],
        );
        Conv2d {
            cin,
            cout,
            kernel,
            stride,
            pad,
            groups,
            backend: default_backend(),
            grad_weight: Tensor::zeros(weight.shape()),
            weight,
            bias: Some(Tensor::zeros(&[cout])),
            grad_bias: Tensor::zeros(&[cout]),
            cached_cols: Vec::new(),
            cached_input_shape: Vec::new(),
        }
    }

    /// A depthwise convolution: one `K × K` filter per input channel
    /// (`groups = cin`, `cout = cin`).
    pub fn depthwise(cin: usize, kernel: usize, stride: usize, pad: usize, seed: u64) -> Self {
        Self::grouped(cin, cin, kernel, stride, pad, cin, seed)
    }

    /// A pointwise (1×1, `groups = 1`) convolution.
    pub fn pointwise(cin: usize, cout: usize, seed: u64) -> Self {
        Self::grouped(cin, cout, 1, 1, 0, 1, seed)
    }

    /// A group pointwise (1×1, `groups = cg`) convolution.
    pub fn group_pointwise(cin: usize, cout: usize, cg: usize, seed: u64) -> Self {
        Self::grouped(cin, cout, 1, 1, 0, cg, seed)
    }

    /// Removes the bias term.
    pub fn without_bias(mut self) -> Self {
        self.bias = None;
        self
    }

    /// Selects the execution backend (see the module docs for the mapping
    /// from [`BackendKind`] to dense convolution strategy).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The execution backend this layer runs on.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The weight tensor.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias tensor, if the layer has one.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref()
    }

    /// Number of channel groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The spatial stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The zero padding applied to each spatial border.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// The GEMM kernel backing this layer's im2col path. `Naive` keeps the
    /// historical size-picked kernel (the perf-gate baseline); `Blocked`
    /// upgrades to the register-tiled kernel on the caller thread; `Tiled`
    /// schedules register-tiled strips on the worker pool.
    fn gemm_kernel(&self) -> GemmKernel {
        match self.backend {
            BackendKind::Naive => GemmKernel::Auto,
            BackendKind::Blocked => GemmKernel::RegTiled,
            BackendKind::Tiled => GemmKernel::Pooled,
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            conv_out_size(h, self.kernel, self.stride, self.pad),
            conv_out_size(w, self.kernel, self.stride, self.pad),
        )
    }

    /// The im2col + GEMM forward computation, shared by the training path
    /// (which keeps each group's lowered matrix for backward via `cache`)
    /// and the cache-free `infer` path.
    fn run_forward(&self, input: &Tensor, mut cache: Option<&mut Vec<Tensor>>) -> Tensor {
        assert_eq!(input.rank(), 4, "Conv2d expects NCHW input");
        assert_eq!(input.dim(1), self.cin, "Conv2d channel mismatch");
        // Depthwise inference runs the direct sliding-window-sum kernel (no
        // im2col) on every backend but the `Naive` oracle. Training keeps the
        // GEMM route: backward needs the lowered matrices.
        if cache.is_none() && self.groups == self.cin && self.backend != BackendKind::Naive {
            return crate::swsum::conv2d_swsum(
                input,
                &self.weight,
                self.bias.as_ref(),
                self.stride,
                self.pad,
                self.groups,
            );
        }
        let (n, h, w) = (input.dim(0), input.dim(2), input.dim(3));
        let (oh, ow) = self.out_hw(h, w);
        let cin_g = self.cin / self.groups;
        let cout_g = self.cout / self.groups;
        let k2 = self.kernel * self.kernel;

        let mut output = Tensor::zeros(&[n, self.cout, oh, ow]);
        let out_plane = oh * ow;
        for g in 0..self.groups {
            // Slice this group's input channels and lower them.
            let group_input = if self.groups == 1 {
                input.clone()
            } else {
                input.narrow_channels(g * cin_g, cin_g)
            };
            let cols = im2col(&group_input, self.kernel, self.stride, self.pad);
            // Weight matrix of this group: [cout_g, cin_g * K * K].
            let w_start = g * cout_g * cin_g * k2;
            let w_mat = Tensor::from_vec(
                self.weight.as_slice()[w_start..w_start + cout_g * cin_g * k2].to_vec(),
                &[cout_g, cin_g * k2],
            );
            let out_mat = w_mat.matmul_with(&cols, self.gemm_kernel()); // [cout_g, n * oh * ow]
                                                                        // Scatter back into NCHW output.
            let out_data = output.as_mut_slice();
            let om = out_mat.as_slice();
            for oc in 0..cout_g {
                for img in 0..n {
                    let src = &om[oc * n * out_plane + img * out_plane
                        ..oc * n * out_plane + (img + 1) * out_plane];
                    let dst_base = (img * self.cout + g * cout_g + oc) * out_plane;
                    out_data[dst_base..dst_base + out_plane].copy_from_slice(src);
                }
            }
            if let Some(cache) = cache.as_deref_mut() {
                cache.push(cols);
            }
        }
        if let Some(bias) = &self.bias {
            output.add_bias_nchw(bias);
        }
        output
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        if self.groups == 1 && self.kernel == 1 {
            format!("PointwiseConv({}->{})", self.cin, self.cout)
        } else if self.groups == self.cin && self.cout == self.cin {
            format!("DepthwiseConv({}, k{})", self.cin, self.kernel)
        } else if self.groups > 1 {
            format!(
                "GroupConv({}->{}, k{}, g{})",
                self.cin, self.cout, self.kernel, self.groups
            )
        } else {
            format!("Conv2d({}->{}, k{})", self.cin, self.cout, self.kernel)
        }
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.cached_cols.clear();
        self.cached_input_shape.clear();
        if !train {
            return self.run_forward(input, None);
        }
        self.cached_input_shape = input.shape().to_vec();
        // Move the cache out so the shared `&self` helper can fill it.
        let mut cols = std::mem::take(&mut self.cached_cols);
        let output = self.run_forward(input, Some(&mut cols));
        self.cached_cols = cols;
        output
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.run_forward(input, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(
            !self.cached_cols.is_empty(),
            "Conv2d::backward called before forward"
        );
        let input_shape = self.cached_input_shape.clone();
        let (n, h, w) = (input_shape[0], input_shape[2], input_shape[3]);
        let (oh, ow) = self.out_hw(h, w);
        let cin_g = self.cin / self.groups;
        let cout_g = self.cout / self.groups;
        let k2 = self.kernel * self.kernel;
        let out_plane = oh * ow;
        assert_eq!(grad_output.shape(), &[n, self.cout, oh, ow]);

        // Bias gradient.
        if self.bias.is_some() {
            let gb = grad_output.sum_per_channel();
            self.grad_bias.add_assign(&gb);
        }

        let mut grad_input = Tensor::zeros(&input_shape);
        for g in 0..self.groups {
            // Re-pack this group's grad_output into [cout_g, n * oh * ow].
            let mut go_mat = Tensor::zeros(&[cout_g, n * out_plane]);
            {
                let gm = go_mat.as_mut_slice();
                let go = grad_output.as_slice();
                for oc in 0..cout_g {
                    for img in 0..n {
                        let src_base = (img * self.cout + g * cout_g + oc) * out_plane;
                        let dst_base = oc * n * out_plane + img * out_plane;
                        gm[dst_base..dst_base + out_plane]
                            .copy_from_slice(&go[src_base..src_base + out_plane]);
                    }
                }
            }
            let cols = &self.cached_cols[g];
            // grad_W = grad_out_mat * cols^T
            let gw_mat = go_mat.matmul_with(&cols.transpose2(), self.gemm_kernel()); // [cout_g, cin_g * k2]
            let w_start = g * cout_g * cin_g * k2;
            for (i, v) in gw_mat.as_slice().iter().enumerate() {
                self.grad_weight.as_mut_slice()[w_start + i] += v;
            }
            // grad_cols = W^T * grad_out_mat, then col2im.
            let w_mat = Tensor::from_vec(
                self.weight.as_slice()[w_start..w_start + cout_g * cin_g * k2].to_vec(),
                &[cout_g, cin_g * k2],
            );
            let grad_cols = w_mat.transpose2().matmul_with(&go_mat, self.gemm_kernel());
            let group_grad_input = col2im(
                &grad_cols,
                &[n, cin_g, h, w],
                self.kernel,
                self.stride,
                self.pad,
            );
            // Place the group's input gradient into the right channels.
            if self.groups == 1 {
                grad_input.add_assign(&group_grad_input);
            } else {
                let gi = grad_input.as_mut_slice();
                let gg = group_grad_input.as_slice();
                let plane = h * w;
                for img in 0..n {
                    for c in 0..cin_g {
                        let dst_base = (img * self.cin + g * cin_g + c) * plane;
                        let src_base = (img * cin_g + c) * plane;
                        for p in 0..plane {
                            gi[dst_base + p] += gg[src_base + p];
                        }
                    }
                }
            }
        }
        grad_input
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        if let Some(bias) = self.bias.as_mut() {
            f(bias, &mut self.grad_bias);
        }
    }

    fn state(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        f("weight", &self.weight);
        if let Some(bias) = self.bias.as_ref() {
            f("bias", bias);
        }
    }

    fn load_state(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        f("weight", &mut self.weight);
        if let Some(bias) = self.bias.as_mut() {
            f("bias", bias);
        }
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let (n, h, w) = (input_shape[0], input_shape[2], input_shape[3]);
        let (oh, ow) = self.out_hw(h, w);
        vec![n, self.cout, oh, ow]
    }

    fn forward_macs(&self, input_shape: &[usize]) -> usize {
        let out = self.output_shape(input_shape);
        let cin_g = self.cin / self.groups;
        out.iter().product::<usize>() * cin_g * self.kernel * self.kernel
    }
}

/// Reference direct (non-GEMM) convolution used only by the test-suite.
#[doc(hidden)]
pub fn conv2d_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    let (n, cin, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let cout = weight.dim(0);
    let cin_g = weight.dim(1);
    let k = weight.dim(2);
    assert_eq!(cin / groups, cin_g);
    let cout_g = cout / groups;
    let oh = conv_out_size(h, k, stride, pad);
    let ow = conv_out_size(w, k, stride, pad);
    let mut out = Tensor::zeros(&[n, cout, oh, ow]);
    for img in 0..n {
        for oc in 0..cout {
            let g = oc / cout_g;
            let b = bias.map(|t| t.as_slice()[oc]).unwrap_or(0.0);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    for ic in 0..cin_g {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += weight.at(&[oc, ic, ky, kx])
                                    * input.at4(img, g * cin_g + ic, iy as usize, ix as usize);
                            }
                        }
                    }
                    *out.at4_mut(img, oc, oy, ox) = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{check_infer_parity, check_input_gradient};
    use dsx_tensor::{allclose, TEST_TOLERANCE};

    #[test]
    fn standard_conv_matches_reference() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 42);
        let input = Tensor::randn(&[2, 3, 6, 6], 1);
        let out = conv.forward(&input, true);
        let reference = conv2d_reference(&input, conv.weight(), conv.bias.as_ref(), 1, 1, 1);
        assert!(allclose(&out, &reference, TEST_TOLERANCE));
        assert_eq!(out.shape(), &[2, 8, 6, 6]);
    }

    #[test]
    fn strided_conv_matches_reference() {
        let mut conv = Conv2d::new(4, 6, 3, 2, 1, 43);
        let input = Tensor::randn(&[1, 4, 8, 8], 2);
        let out = conv.forward(&input, true);
        let reference = conv2d_reference(&input, conv.weight(), conv.bias.as_ref(), 2, 1, 1);
        assert!(allclose(&out, &reference, TEST_TOLERANCE));
        assert_eq!(out.shape(), &[1, 6, 4, 4]);
    }

    #[test]
    fn grouped_conv_matches_reference() {
        let mut conv = Conv2d::grouped(8, 12, 3, 1, 1, 4, 44);
        let input = Tensor::randn(&[2, 8, 5, 5], 3);
        let out = conv.forward(&input, true);
        let reference = conv2d_reference(&input, conv.weight(), conv.bias.as_ref(), 1, 1, 4);
        assert!(allclose(&out, &reference, TEST_TOLERANCE));
    }

    #[test]
    fn depthwise_conv_matches_reference() {
        let mut conv = Conv2d::depthwise(6, 3, 1, 1, 45);
        let input = Tensor::randn(&[1, 6, 7, 7], 4);
        let out = conv.forward(&input, true);
        let reference = conv2d_reference(&input, conv.weight(), conv.bias.as_ref(), 1, 1, 6);
        assert!(allclose(&out, &reference, TEST_TOLERANCE));
        assert_eq!(out.shape(), &[1, 6, 7, 7]);
    }

    #[test]
    fn pointwise_conv_is_1x1() {
        let mut conv = Conv2d::pointwise(4, 10, 46);
        let input = Tensor::randn(&[2, 4, 3, 3], 5);
        let out = conv.forward(&input, true);
        assert_eq!(out.shape(), &[2, 10, 3, 3]);
        assert_eq!(conv.num_params(), 10 * 4 + 10);
    }

    #[test]
    fn group_pointwise_param_count_is_divided_by_groups() {
        let mut gpw = Conv2d::group_pointwise(16, 32, 4, 47);
        assert_eq!(gpw.num_params(), 32 * 4 + 32);
        let mut pw = Conv2d::pointwise(16, 32, 47);
        assert_eq!(pw.num_params(), 32 * 16 + 32);
    }

    #[test]
    fn input_gradient_is_correct_standard() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 48);
        check_input_gradient(&mut conv, &[1, 2, 4, 4], 2e-2);
    }

    #[test]
    fn input_gradient_is_correct_grouped() {
        let mut conv = Conv2d::grouped(4, 4, 3, 1, 1, 2, 49);
        check_input_gradient(&mut conv, &[1, 4, 4, 4], 2e-2);
    }

    #[test]
    fn input_gradient_is_correct_strided() {
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, 50);
        check_input_gradient(&mut conv, &[1, 2, 6, 6], 2e-2);
    }

    #[test]
    fn weight_gradient_matches_numerical() {
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 51).without_bias();
        let input = Tensor::randn(&[1, 2, 4, 4], 6);
        let out = conv.forward(&input, true);
        let grad_out = Tensor::ones(out.shape());
        conv.backward(&grad_out);
        let analytic = conv.grad_weight.clone();

        let eps = 1e-2f32;
        for &idx in &[0usize, 7, 17, 35] {
            let mut wp = conv.weight.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = conv.weight.clone();
            wm.as_mut_slice()[idx] -= eps;
            let lp = conv2d_reference(&input, &wp, None, 1, 1, 1).sum();
            let lm = conv2d_reference(&input, &wm, None, 1, 1, 1).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[idx]).abs() < 5e-2,
                "weight grad mismatch at {idx}"
            );
        }
    }

    #[test]
    fn macs_formula_matches_known_case() {
        // VGG-style 3x3 conv, 64->128 at 32x32: 128*32*32*64*9 MACs per image.
        let conv = Conv2d::new(64, 128, 3, 1, 1, 52);
        assert_eq!(conv.forward_macs(&[1, 64, 32, 32]), 128 * 32 * 32 * 64 * 9);
    }

    #[test]
    fn output_shape_accounts_for_stride_and_padding() {
        let conv = Conv2d::new(3, 16, 7, 2, 3, 53);
        assert_eq!(conv.output_shape(&[8, 3, 224, 224]), vec![8, 16, 112, 112]);
    }

    #[test]
    fn zero_grad_clears_accumulated_gradients() {
        let mut conv = Conv2d::new(2, 2, 1, 1, 0, 54);
        let input = Tensor::randn(&[1, 2, 3, 3], 7);
        let out = conv.forward(&input, true);
        conv.backward(&Tensor::ones(out.shape()));
        assert!(conv.grad_weight.norm_sq() > 0.0);
        conv.zero_grad();
        assert_eq!(conv.grad_weight.norm_sq(), 0.0);
    }

    #[test]
    fn infer_matches_eval_forward_without_caching() {
        for mut conv in [
            Conv2d::new(3, 8, 3, 1, 1, 60),
            Conv2d::grouped(8, 12, 3, 2, 1, 4, 61),
            Conv2d::depthwise(6, 3, 1, 1, 62),
            Conv2d::pointwise(4, 10, 63),
        ] {
            let cin = conv.cin;
            check_infer_parity(&mut conv, &[2, cin, 6, 6], TEST_TOLERANCE);
            assert!(
                conv.cached_cols.is_empty() && conv.cached_input_shape.is_empty(),
                "eval forward must not cache im2col matrices"
            );
        }
    }

    #[test]
    fn every_backend_agrees_with_the_reference_in_train_and_eval() {
        let input = Tensor::randn(&[2, 4, 6, 6], 8);
        for backend in BackendKind::ALL {
            let mut conv = Conv2d::grouped(4, 6, 3, 1, 1, 2, 56).with_backend(backend);
            assert_eq!(conv.backend(), backend);
            let want = conv2d_reference(&input, conv.weight(), conv.bias(), 1, 1, 2);
            let train_out = conv.forward(&input, true);
            assert!(
                allclose(&train_out, &want, TEST_TOLERANCE),
                "train forward diverges on {backend}"
            );
            let eval_out = conv.infer(&input);
            assert!(
                allclose(&eval_out, &want, TEST_TOLERANCE),
                "infer diverges on {backend}"
            );
        }
    }

    #[test]
    fn backend_defaults_to_the_process_wide_choice() {
        let conv = Conv2d::new(2, 2, 3, 1, 1, 57);
        assert_eq!(conv.backend(), dsx_core::default_backend());
    }

    #[test]
    #[should_panic]
    fn rejects_channel_mismatch() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 55);
        conv.forward(&Tensor::zeros(&[1, 4, 6, 6]), true);
    }
}
