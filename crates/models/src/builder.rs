//! Instantiates trainable `dsx-nn` networks from [`ModelSpec`]s.
//!
//! The builder produces a flat [`Sequential`] network: convolution entries
//! become convolution + batch-norm + ReLU triples, spatial reductions that
//! the spec expresses implicitly (VGG's max-pools) are inserted where the
//! feature-map size shrinks without a stride, and a global-average-pool +
//! linear classifier closes the model. Residual connections are not
//! materialised (the spec is a flat list); for the laptop-scale accuracy
//! experiments this changes ResNet into its "plain" counterpart, which does
//! not affect the FLOP/parameter accounting.

use crate::spec::{ConvKind, ModelSpec};
use dsx_core::{BackendKind, SccConfig, SccImplementation};
use dsx_nn::{
    BatchNorm2d, Conv2d, GlobalAvgPool, Layer, Linear, MaxPool2d, ReLU, SccConv2d, Sequential,
};
use dsx_tensor::init::derive_seed;

/// Builds a trainable network from a model spec using the DSXplore kernel for
/// every SCC layer (on the process-default kernel backend).
pub fn build_model(spec: &ModelSpec, seed: u64) -> Sequential {
    build_model_with(spec, seed, SccImplementation::Dsxplore)
}

/// Builds a trainable network, selecting the implementation used by the SCC
/// layers (so the runtime experiments can train the same architecture under
/// Pytorch-Base / Pytorch-Opt / DSXplore kernels). SCC layers run on the
/// process-default kernel backend.
pub fn build_model_with(
    spec: &ModelSpec,
    seed: u64,
    scc_implementation: SccImplementation,
) -> Sequential {
    build_model_with_backend(spec, seed, scc_implementation, dsx_core::default_backend())
}

/// Builds a trainable network with explicit implementation *and* kernel
/// backend choices (the perf experiments compare the substrates on
/// identical architectures). The backend applies to every convolution in
/// the model: SCC layers pick their `dsx-core` kernel backend and the
/// dense `Conv2d` layers pick the matching GEMM / sliding-window-sum path.
pub fn build_model_with_backend(
    spec: &ModelSpec,
    seed: u64,
    scc_implementation: SccImplementation,
    backend: BackendKind,
) -> Sequential {
    let mut net = Sequential::new(format!("{} [{}]", spec.name, spec.scheme_tag));
    let mut current_hw = spec
        .convs
        .first()
        .map(|c| c.in_hw)
        .unwrap_or(spec.dataset.input_size());

    for (idx, conv) in spec.convs.iter().enumerate() {
        // Insert max-pools wherever the spec's feature map shrinks without a
        // stride (VGG stages, the ImageNet ResNet stem pool).
        let mut reduce_guard = 0;
        while current_hw > conv.in_hw && reduce_guard < 8 {
            net.push_boxed(Box::new(MaxPool2d::new(2, 2)));
            current_hw /= 2;
            reduce_guard += 1;
        }
        assert_eq!(
            current_hw, conv.in_hw,
            "layer {idx} ({}) expects {}x{} input but the running size is {}",
            conv.name, conv.in_hw, conv.in_hw, current_hw
        );

        let layer_seed = derive_seed(seed, idx as u64);
        let layer: Box<dyn Layer> = match conv.kind {
            ConvKind::Standard { kernel, groups } => Box::new(
                Conv2d::grouped(
                    conv.cin,
                    conv.cout,
                    kernel,
                    conv.stride,
                    kernel / 2,
                    groups,
                    layer_seed,
                )
                .without_bias()
                .with_backend(backend),
            ),
            ConvKind::Depthwise { kernel } => Box::new(
                Conv2d::depthwise(conv.cin, kernel, conv.stride, kernel / 2, layer_seed)
                    .without_bias()
                    .with_backend(backend),
            ),
            ConvKind::Pointwise => Box::new(
                Conv2d::pointwise(conv.cin, conv.cout, layer_seed)
                    .without_bias()
                    .with_backend(backend),
            ),
            ConvKind::GroupPointwise { cg } => Box::new(
                Conv2d::group_pointwise(conv.cin, conv.cout, cg, layer_seed)
                    .without_bias()
                    .with_backend(backend),
            ),
            ConvKind::SlidingChannel { cg, co } => {
                let cfg = SccConfig::new(conv.cin, conv.cout, cg, co)
                    // lint: allow(panic) — documented builder contract;
                    // untrusted specs go through `Checkpoint::build_model`,
                    // which validates before calling here.
                    .unwrap_or_else(|e| panic!("invalid SCC layer {}: {e}", conv.name));
                let scc = SccConv2d::with_implementation(cfg, layer_seed, scc_implementation)
                    .with_backend(backend);
                Box::new(if conv.with_bn {
                    scc.without_bias()
                } else {
                    scc
                })
            }
        };
        net.push_boxed(layer);
        if conv.with_bn {
            net.push_boxed(Box::new(BatchNorm2d::new(conv.cout)));
        }
        net.push_boxed(Box::new(ReLU::new()));
        current_hw = conv.out_hw();
    }

    net.push_boxed(Box::new(GlobalAvgPool::new()));
    net.push_boxed(Box::new(Linear::new(
        spec.classifier_in,
        spec.classes,
        derive_seed(seed, 10_000),
    )));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ConvScheme;
    use crate::spec::Dataset;
    use crate::{mobilenet, vgg16};
    use dsx_tensor::Tensor;

    #[test]
    fn built_model_params_match_spec_params() {
        for scheme in [ConvScheme::Origin, ConvScheme::DSXPLORE_DEFAULT] {
            let spec = vgg16(Dataset::Cifar10, scheme).scale_channels(8);
            let mut model = build_model(&spec, 1);
            assert_eq!(
                model.num_params(),
                spec.params(),
                "params mismatch for {}",
                spec.scheme_tag
            );
        }
    }

    #[test]
    fn built_model_macs_match_spec_macs() {
        let spec = mobilenet(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT).scale_channels(8);
        let model = build_model(&spec, 2);
        let input_shape = [1usize, 3, 32, 32];
        assert_eq!(model.forward_macs(&input_shape), spec.macs());
    }

    #[test]
    fn built_vgg_forward_produces_class_logits() {
        let spec = vgg16(Dataset::Cifar10, ConvScheme::Origin).scale_channels(16);
        let mut model = build_model(&spec, 3);
        let out = model.forward(&Tensor::randn(&[2, 3, 32, 32], 1), true);
        assert_eq!(out.shape(), &[2, 10]);
    }

    #[test]
    fn built_scc_mobilenet_trains_one_step() {
        let spec = mobilenet(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT).scale_channels(8);
        let mut model = build_model(&spec, 4);
        let images = Tensor::randn(&[4, 3, 32, 32], 2);
        let labels = vec![0usize, 1, 2, 3];
        let loss_fn = dsx_nn::CrossEntropyLoss::new();
        let mut sgd = dsx_nn::Sgd::new(0.01);
        let batch = dsx_nn::Batch::new(images, labels);
        let m1 = dsx_nn::train_step(&mut model, &mut sgd, &loss_fn, &batch);
        let m2 = dsx_nn::train_step(&mut model, &mut sgd, &loss_fn, &batch);
        assert!(
            m2.loss <= m1.loss * 1.5,
            "loss exploded: {} -> {}",
            m1.loss,
            m2.loss
        );
        assert!(m1.loss.is_finite() && m2.loss.is_finite());
    }

    #[test]
    fn implementation_choice_does_not_change_outputs() {
        let spec = mobilenet(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT).scale_channels(16);
        let input = Tensor::randn(&[1, 3, 32, 32], 5);
        let mut reference = build_model_with(&spec, 7, SccImplementation::Dsxplore);
        let expected = reference.forward(&input, false);
        for implementation in [
            SccImplementation::PytorchBase,
            SccImplementation::PytorchOpt,
        ] {
            let mut model = build_model_with(&spec, 7, implementation);
            let out = model.forward(&input, false);
            assert!(dsx_tensor::allclose(&out, &expected, 1e-3));
        }
    }

    #[test]
    fn backend_choice_does_not_change_outputs() {
        let spec = mobilenet(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT).scale_channels(16);
        let input = Tensor::randn(&[1, 3, 32, 32], 9);
        let mut naive = build_model_with_backend(
            &spec,
            7,
            SccImplementation::Dsxplore,
            dsx_core::BackendKind::Naive,
        );
        let expected = naive.forward(&input, false);
        for backend in [dsx_core::BackendKind::Blocked, dsx_core::BackendKind::Tiled] {
            let mut model =
                build_model_with_backend(&spec, 7, SccImplementation::Dsxplore, backend);
            let out = model.forward(&input, false);
            assert!(
                dsx_tensor::allclose(&out, &expected, 1e-3),
                "backend {backend} diverges from naive"
            );
        }
    }

    #[test]
    fn pools_are_inserted_for_vgg_stages() {
        let spec = vgg16(Dataset::Cifar10, ConvScheme::Origin).scale_channels(16);
        let mut model = build_model(&spec, 8);
        // The summary must show shrinking spatial dimensions down to 2x2.
        let rows = model.summary(&[1, 3, 32, 32]);
        let last_conv_row = rows
            .iter()
            .rev()
            .find(|r| r.output_shape.len() == 4)
            .unwrap();
        assert_eq!(last_conv_row.output_shape[2], 2);
    }
}
