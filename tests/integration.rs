//! Cross-crate integration tests: SCC layers inside full models, training on
//! the synthetic datasets, and agreement between the kernel implementations
//! end to end.

use dsxplore::data::cifar_like;
use dsxplore::models::{build_model, build_model_with, ConvScheme, Dataset, ModelKind};
use dsxplore::nn::{evaluate, train_epoch, Batch, CrossEntropyLoss, Layer, Sgd};
use dsxplore::scc::SccImplementation;
use dsxplore::tensor::{allclose, Tensor};

/// Pins the `par` runtime to one worker for the whole test binary.
///
/// The thread count is process-global state shared by concurrently running
/// tests, and the DSXplore-Var backward accumulates float gradients through
/// atomics whose ordering depends on the thread schedule — single-threaded
/// execution is what makes the loss values and cross-implementation
/// comparisons below bit-exact across runs and CI machines. Every test in
/// this binary calls this before touching a kernel.
fn pin_single_thread() {
    dsxplore::tensor::set_num_threads(1);
}

fn to_batches(pairs: Vec<(Tensor, Vec<usize>)>) -> Vec<Batch> {
    pairs
        .into_iter()
        .map(|(images, labels)| Batch::new(images, labels))
        .collect()
}

#[test]
fn dsxplore_mobilenet_trains_and_loss_decreases() {
    pin_single_thread();
    let spec = ModelKind::MobileNet
        .spec(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT)
        .scale_channels(16);
    let mut model = build_model(&spec, 1);
    let dataset = cifar_like(128, 64, 4, 3);
    let train = to_batches(dataset.train.batches(32));
    let test = to_batches(dataset.test.batches(32));
    let loss_fn = CrossEntropyLoss::new();
    let mut sgd = Sgd::with_config(0.05, 0.9, 0.0);

    let first = train_epoch(&mut model, &mut sgd, &loss_fn, &train);
    let mut last = first;
    for _ in 0..3 {
        last = train_epoch(&mut model, &mut sgd, &loss_fn, &train);
    }
    assert!(
        last.loss < first.loss,
        "training loss did not decrease: {} -> {}",
        first.loss,
        last.loss
    );
    let metrics = evaluate(&mut model, &loss_fn, &test);
    assert!(metrics.loss.is_finite());
}

#[test]
fn every_scheme_produces_a_trainable_vgg() {
    pin_single_thread();
    // Full 32x32 resolution so all five VGG pooling stages apply.
    let dataset = cifar_like(48, 16, 1, 5);
    let train = to_batches(dataset.train.batches(32));
    let loss_fn = CrossEntropyLoss::new();
    for scheme in [
        ConvScheme::Origin,
        ConvScheme::DwPw,
        ConvScheme::DwGpw { cg: 2 },
        ConvScheme::DwScc { cg: 2, co: 0.5 },
        ConvScheme::DwScc { cg: 4, co: 0.33 },
    ] {
        let spec = ModelKind::Vgg16
            .spec(Dataset::Cifar10, scheme)
            .scale_channels(16);
        let mut model = build_model(&spec, 2);
        let mut sgd = Sgd::new(0.01);
        let metrics = train_epoch(&mut model, &mut sgd, &loss_fn, &train);
        assert!(
            metrics.loss.is_finite(),
            "{}: non-finite loss",
            scheme.tag()
        );
    }
}

#[test]
fn scc_implementations_agree_inside_a_full_model() {
    pin_single_thread();
    let spec = ModelKind::MobileNet
        .spec(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT)
        .scale_channels(16);
    let input = Tensor::randn(&[2, 3, 32, 32], 9);
    let mut reference = build_model_with(&spec, 5, SccImplementation::Dsxplore);
    let expected = reference.forward(&input, false);
    for implementation in [
        SccImplementation::PytorchBase,
        SccImplementation::PytorchOpt,
        SccImplementation::DsxploreVar,
    ] {
        let mut model = build_model_with(&spec, 5, implementation);
        let out = model.forward(&input, false);
        assert!(
            allclose(&out, &expected, 1e-3),
            "{implementation:?} diverges from the DSXplore kernel inside a full model"
        );
    }
}

#[test]
fn model_spec_costs_agree_with_built_networks_across_models() {
    pin_single_thread();
    // ResNet is excluded: its projection shortcuts form a parallel branch the
    // flat sequential builder does not materialise.
    for kind in [ModelKind::Vgg16, ModelKind::MobileNet] {
        let spec = kind
            .spec(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT)
            .scale_channels(16);
        let mut model = build_model(&spec, 3);
        assert_eq!(model.num_params(), spec.params(), "{}", kind.name());
        assert_eq!(
            model.forward_macs(&[1, 3, 32, 32]),
            spec.macs(),
            "{}",
            kind.name()
        );
    }
}

#[test]
fn gpu_cost_model_reproduces_headline_orderings_end_to_end() {
    pin_single_thread();
    use dsxplore::gpusim::{estimate_training_step, GpuModel};
    let gpu = GpuModel::v100();
    let spec = ModelKind::Vgg16.spec(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT);
    let base = estimate_training_step(&gpu, &spec, 128, SccImplementation::PytorchBase);
    let opt = estimate_training_step(&gpu, &spec, 128, SccImplementation::PytorchOpt);
    let dsx = estimate_training_step(&gpu, &spec, 128, SccImplementation::Dsxplore);
    assert!(dsx.total_s < opt.total_s && opt.total_s < base.total_s);
    // ImageNet Pytorch-Base exceeds device memory, as in §V-C.
    let imagenet = ModelKind::ResNet50.spec(Dataset::ImageNet, ConvScheme::DSXPLORE_DEFAULT);
    let base_imagenet = estimate_training_step(&gpu, &imagenet, 64, SccImplementation::PytorchBase);
    assert!(!base_imagenet.fits_in_memory);
}
