//! # dsx-experiments
//!
//! Regenerates every table and figure of the DSXplore paper's evaluation
//! (Tables I–V, Figures 7–14). Each `table*` / `fig*` function returns the
//! rows as plain data (so the integration tests can assert on them) and the
//! `dsx-experiments` binary prints them in the paper's layout.
//!
//! Analytic columns (MFLOPs, parameters, cost-model runtimes) reproduce the
//! paper's numbers directly; accuracy columns are measured by short training
//! runs on the synthetic cross-channel datasets from `dsx-data`, which stand
//! in for the paper's CIFAR-10 and ImageNet (PAPER.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dsx_core::SccImplementation;
use dsx_gpusim::{estimate_inference, estimate_training_step, scaling_curve, GpuModel};
use dsx_models::{ConvScheme, Dataset, ModelKind};
use dsx_nn::{evaluate, train_epoch, Batch, CrossEntropyLoss, Sgd};

/// Batch size used for the CIFAR-scale runtime estimates (the paper's
/// training batch).
pub const CIFAR_BATCH: usize = 128;
/// Batch size used for the ImageNet-scale runtime estimates.
pub const IMAGENET_BATCH: usize = 64;

/// One row of Table I: qualitative comparison of PW, GPW and SCC.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Kernel name.
    pub kernel: String,
    /// MFLOPs of a representative layer (Cin=Cout=256, 16x16 feature map).
    pub mflops: f64,
    /// Parameters of the representative layer.
    pub params: usize,
    /// Qualitative accuracy class reproduced from the Table IV measurements.
    pub accuracy_class: &'static str,
}

/// Table I — FLOPs / parameters / accuracy class of PW vs GPW vs SCC.
pub fn table1() -> Vec<Table1Row> {
    use dsx_models::{ConvKind, ConvLayerSpec};
    let layer = |kind: ConvKind| ConvLayerSpec {
        name: "repr".into(),
        kind,
        cin: 256,
        cout: 256,
        in_hw: 16,
        stride: 1,
        with_bn: false,
    };
    let pw = layer(ConvKind::Pointwise);
    let gpw = layer(ConvKind::GroupPointwise { cg: 2 });
    let scc = layer(ConvKind::SlidingChannel { cg: 2, co: 0.5 });
    vec![
        Table1Row {
            kernel: "PW".into(),
            mflops: pw.macs() as f64 / 1e6,
            params: pw.params(),
            accuracy_class: "High",
        },
        Table1Row {
            kernel: "GPW".into(),
            mflops: gpw.macs() as f64 / 1e6,
            params: gpw.params(),
            accuracy_class: "Low",
        },
        Table1Row {
            kernel: "SCC".into(),
            mflops: scc.macs() as f64 / 1e6,
            params: scc.params(),
            accuracy_class: "High",
        },
    ]
}

/// One row of Table II / III / IV: a model under a scheme.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Model name.
    pub model: String,
    /// Scheme tag (Origin, DW+SCC-cg2-co50%, ...).
    pub scheme: String,
    /// Analytic MFLOPs at batch 1.
    pub mflops: f64,
    /// Parameters in millions.
    pub params_m: f64,
    /// Measured accuracy on the synthetic dataset (None when `--train` was
    /// not requested; the analytic columns never need training).
    pub accuracy: Option<f32>,
}

/// Configuration of the (optional) accuracy-measurement training runs.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Channel-scaling divisor applied to each model so it trains in seconds.
    pub channel_scale: usize,
    /// Spatial down-scaling of the synthetic dataset.
    pub image_scale: usize,
    /// Training set size.
    pub train_size: usize,
    /// Test set size.
    pub test_size: usize,
    /// Epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            channel_scale: 16,
            image_scale: 2,
            train_size: 256,
            test_size: 128,
            epochs: 4,
            batch_size: 32,
            lr: 0.05,
            seed: 7,
        }
    }
}

/// Trains a (channel-scaled) model spec briefly on the synthetic CIFAR-like
/// dataset and returns its test accuracy.
pub fn measure_accuracy(kind: ModelKind, scheme: ConvScheme, cfg: &TrainConfig) -> f32 {
    let mut spec = kind.spec(Dataset::Cifar10, scheme);
    // The flat sequential builder cannot materialise the ResNet projection
    // shortcuts (a parallel branch); the accuracy measurement trains the
    // "plain" counterpart instead.
    spec.convs.retain(|c| !c.name.contains("downsample"));
    let spec = spec.scale_channels(cfg.channel_scale);
    let mut model = dsx_models::build_model(&spec, cfg.seed);
    // VGG's five pooling stages need the full 32x32 resolution.
    let image_scale = match kind {
        ModelKind::Vgg16 | ModelKind::Vgg19 => 1,
        _ => cfg.image_scale,
    };
    let dataset = dsx_data::cifar_like(cfg.train_size, cfg.test_size, image_scale, cfg.seed);
    let train_batches: Vec<Batch> = dataset
        .train
        .batches(cfg.batch_size)
        .into_iter()
        .map(|(images, labels)| Batch::new(images, labels))
        .collect();
    let test_batches: Vec<Batch> = dataset
        .test
        .batches(cfg.batch_size)
        .into_iter()
        .map(|(images, labels)| Batch::new(images, labels))
        .collect();
    let loss_fn = CrossEntropyLoss::new();
    let mut sgd = Sgd::with_config(cfg.lr, 0.9, 5e-4);
    for _ in 0..cfg.epochs {
        train_epoch(&mut model, &mut sgd, &loss_fn, &train_batches);
    }
    evaluate(&mut model, &loss_fn, &test_batches).accuracy
}

/// Table II — CIFAR-10 Origin vs DSXplore for all five models.
pub fn table2(train: Option<&TrainConfig>) -> Vec<AccuracyRow> {
    let mut rows = Vec::new();
    for kind in ModelKind::ALL {
        for scheme in [ConvScheme::Origin, ConvScheme::DSXPLORE_DEFAULT] {
            let spec = kind.spec(Dataset::Cifar10, scheme);
            rows.push(AccuracyRow {
                model: kind.name().to_string(),
                scheme: if scheme == ConvScheme::Origin {
                    "Origin".into()
                } else {
                    "DSXplore".into()
                },
                mflops: spec.mflops(),
                params_m: spec.params_m(),
                accuracy: train.map(|cfg| measure_accuracy(kind, scheme, cfg)),
            });
        }
    }
    rows
}

/// Table III — ImageNet ResNet50 Origin vs DSXplore (analytic columns;
/// accuracy measured on the reduced ImageNet-like dataset when requested).
pub fn table3(train: Option<&TrainConfig>) -> Vec<AccuracyRow> {
    [ConvScheme::Origin, ConvScheme::DSXPLORE_DEFAULT]
        .into_iter()
        .map(|scheme| {
            let spec = ModelKind::ResNet50.spec(Dataset::ImageNet, scheme);
            AccuracyRow {
                model: "ResNet50".into(),
                scheme: if scheme == ConvScheme::Origin {
                    "Origin".into()
                } else {
                    "DSXplore".into()
                },
                mflops: spec.mflops(),
                params_m: spec.params_m(),
                accuracy: train.map(|cfg| measure_accuracy(ModelKind::ResNet50, scheme, cfg)),
            }
        })
        .collect()
}

/// The schemes of Table IV (MobileNet ablation), in the paper's row order.
pub fn table4_schemes() -> Vec<ConvScheme> {
    vec![
        ConvScheme::Origin, // Baseline (DW+PW)
        ConvScheme::DwGpw { cg: 2 },
        ConvScheme::DwGpw { cg: 4 },
        ConvScheme::DwGpw { cg: 8 },
        ConvScheme::DwScc { cg: 2, co: 0.33 },
        ConvScheme::DwScc { cg: 2, co: 0.5 },
        ConvScheme::DwScc { cg: 4, co: 0.33 },
        ConvScheme::DwScc { cg: 4, co: 0.5 },
        ConvScheme::DwScc { cg: 8, co: 0.33 },
        ConvScheme::DwScc { cg: 8, co: 0.5 },
    ]
}

/// Table IV — MobileNet under every DSC scheme.
pub fn table4(train: Option<&TrainConfig>) -> Vec<AccuracyRow> {
    table4_schemes()
        .into_iter()
        .map(|scheme| {
            let spec = ModelKind::MobileNet.spec(Dataset::Cifar10, scheme);
            let label = if scheme == ConvScheme::Origin {
                "Baseline (DW+PW)".to_string()
            } else {
                scheme.tag()
            };
            AccuracyRow {
                model: "MobileNet".into(),
                scheme: label,
                mflops: spec.mflops(),
                params_m: spec.params_m(),
                accuracy: train.map(|cfg| measure_accuracy(ModelKind::MobileNet, scheme, cfg)),
            }
        })
        .collect()
}

/// One row of Table V: inference latency at a batch size.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Inference batch size.
    pub batch: usize,
    /// Modelled DW+GPW (cuDNN) latency in milliseconds.
    pub gpw_ms: f64,
    /// Modelled DSXplore latency in milliseconds.
    pub dsxplore_ms: f64,
}

/// Table V — VGG16 inference latency, DW+GPW-cg2 vs DSXplore-cg2-co50%.
pub fn table5() -> Vec<Table5Row> {
    let gpu = GpuModel::v100();
    let gpw = ModelKind::Vgg16.spec(Dataset::Cifar10, ConvScheme::DwGpw { cg: 2 });
    let scc = ModelKind::Vgg16.spec(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT);
    [16usize, 32, 64, 128, 256, 512]
        .into_iter()
        .map(|batch| Table5Row {
            batch,
            gpw_ms: estimate_inference(&gpu, &gpw, batch, SccImplementation::Dsxplore).total_s
                * 1e3,
            dsxplore_ms: estimate_inference(&gpu, &scc, batch, SccImplementation::Dsxplore).total_s
                * 1e3,
        })
        .collect()
}

/// One speedup point of Figures 7/8: a model under a setting.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Model name.
    pub model: String,
    /// `(cg, co)` setting of the SCC layers.
    pub setting: String,
    /// Speedup of Pytorch-Opt over the baseline (1.0 when Pytorch-Opt *is*
    /// the baseline).
    pub pytorch_opt: Option<f64>,
    /// Speedup of DSXplore over the baseline.
    pub dsxplore: Option<f64>,
}

/// The two setting groups of Figures 7/8: varying `cg` at `co = 50 %` and
/// varying `co` at `cg = 2`.
pub fn figure_settings() -> Vec<(usize, f64)> {
    vec![(2, 0.5), (4, 0.5), (8, 0.5), (2, 0.25), (2, 0.75)]
}

/// Figure 7 — CIFAR-10 training speedup over Pytorch-Base.
pub fn fig7() -> Vec<SpeedupRow> {
    let gpu = GpuModel::v100();
    let mut rows = Vec::new();
    for (cg, co) in figure_settings() {
        for kind in ModelKind::ALL {
            let spec = kind.spec(Dataset::Cifar10, ConvScheme::DwScc { cg, co });
            let base =
                estimate_training_step(&gpu, &spec, CIFAR_BATCH, SccImplementation::PytorchBase);
            let opt =
                estimate_training_step(&gpu, &spec, CIFAR_BATCH, SccImplementation::PytorchOpt);
            let dsx = estimate_training_step(&gpu, &spec, CIFAR_BATCH, SccImplementation::Dsxplore);
            let fits = base.fits_in_memory;
            rows.push(SpeedupRow {
                model: kind.name().to_string(),
                setting: format!("cg={cg}, co={}%", (co * 100.0) as usize),
                pytorch_opt: fits.then(|| base.total_s / opt.total_s),
                dsxplore: fits.then(|| base.total_s / dsx.total_s),
            });
        }
    }
    rows
}

/// Figure 8 — ImageNet training speedup of DSXplore over Pytorch-Opt
/// (Pytorch-Base does not fit in memory, as in the paper).
pub fn fig8() -> Vec<SpeedupRow> {
    let gpu = GpuModel::v100();
    let mut rows = Vec::new();
    for (cg, co) in figure_settings() {
        for kind in ModelKind::ALL {
            let spec = kind.spec(Dataset::ImageNet, ConvScheme::DwScc { cg, co });
            let base =
                estimate_training_step(&gpu, &spec, IMAGENET_BATCH, SccImplementation::PytorchBase);
            let opt =
                estimate_training_step(&gpu, &spec, IMAGENET_BATCH, SccImplementation::PytorchOpt);
            let dsx =
                estimate_training_step(&gpu, &spec, IMAGENET_BATCH, SccImplementation::Dsxplore);
            rows.push(SpeedupRow {
                model: kind.name().to_string(),
                setting: format!(
                    "cg={cg}, co={}%{}",
                    (co * 100.0) as usize,
                    if base.fits_in_memory {
                        ""
                    } else {
                        " (Pytorch-Base OOM)"
                    }
                ),
                pytorch_opt: Some(1.0),
                dsxplore: Some(opt.total_s / dsx.total_s),
            });
        }
    }
    rows
}

/// One row of Figure 9: backward-pass time per implementation.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Model name.
    pub model: String,
    /// Backward time (seconds) for Pytorch-Base / Pytorch-Opt / DSXplore-Var
    /// / DSXplore, in that order.
    pub seconds: [f64; 4],
}

/// Figure 9 — backward-propagation runtime of the SCC layers under the four
/// implementations (cg=2, co=50%).
pub fn fig9() -> Vec<Fig9Row> {
    let gpu = GpuModel::v100();
    ModelKind::ALL
        .iter()
        .map(|kind| {
            let spec = kind.spec(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT);
            let t = |imp| dsx_gpusim::backward_pass_time(&gpu, &spec, CIFAR_BATCH, imp);
            Fig9Row {
                model: kind.name().to_string(),
                seconds: [
                    t(SccImplementation::PytorchBase),
                    t(SccImplementation::PytorchOpt),
                    t(SccImplementation::DsxploreVar),
                    t(SccImplementation::Dsxplore),
                ],
            }
        })
        .collect()
}

/// One row of Figure 10: stacking memory with and without the channel-cyclic
/// optimization.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Model name.
    pub model: String,
    /// Megabytes of window slices materialised without the optimization.
    pub without_cc_mb: f64,
    /// Megabytes with the optimization.
    pub with_cc_mb: f64,
    /// Relative saving in percent.
    pub saving_pct: f64,
}

/// Figure 10 — memory consumed by the operator-composition stacking, with vs
/// without the channel-cyclic optimization.
pub fn fig10() -> Vec<Fig10Row> {
    ModelKind::ALL
        .iter()
        .map(|kind| {
            let spec = kind.spec(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT);
            let mut without = 0usize;
            let mut with = 0usize;
            for layer in spec.scc_layers() {
                // lint: allow(panic) — `scc_layers()` already filtered to
                // layers whose kind carries an SCC config.
                let cfg = layer.scc_config().expect("scc layer");
                let shape = dsx_core::LayerShape::square(CIFAR_BATCH, layer.in_hw);
                let (wo, wi) = dsx_core::profile::stacking_memory_bytes(&cfg, &shape);
                without += wo;
                with += wi;
            }
            Fig10Row {
                model: kind.name().to_string(),
                without_cc_mb: without as f64 / 1e6,
                with_cc_mb: with as f64 / 1e6,
                saving_pct: 100.0 * (1.0 - with as f64 / without.max(1) as f64),
            }
        })
        .collect()
}

/// One normalised-runtime series point for Figures 11/12/13.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// Model name.
    pub model: String,
    /// X value (cg, co in percent, or batch size).
    pub x: f64,
    /// Y value (normalised runtime or seconds, per the figure).
    pub y: f64,
}

/// Figure 11 — normalised DSXplore runtime vs number of groups (co = 50 %),
/// normalised to cg = 1.
pub fn fig11() -> Vec<SeriesPoint> {
    let gpu = GpuModel::v100();
    let mut rows = Vec::new();
    for kind in ModelKind::ALL {
        // cg = 1 is SCC degenerated to a full-window (pointwise-like) filter,
        // still executed by the DSXplore kernel — the paper's normalisation
        // point.
        let reference = {
            let spec = kind.spec(Dataset::Cifar10, ConvScheme::DwScc { cg: 1, co: 0.0 });
            estimate_training_step(&gpu, &spec, CIFAR_BATCH, SccImplementation::Dsxplore).total_s
        };
        for cg in [1usize, 2, 4, 8] {
            let scheme = if cg == 1 {
                ConvScheme::DwScc { cg: 1, co: 0.0 }
            } else {
                ConvScheme::DwScc { cg, co: 0.5 }
            };
            let spec = kind.spec(Dataset::Cifar10, scheme);
            let t = estimate_training_step(&gpu, &spec, CIFAR_BATCH, SccImplementation::Dsxplore)
                .total_s;
            rows.push(SeriesPoint {
                model: kind.name().to_string(),
                x: cg as f64,
                y: t / reference,
            });
        }
    }
    rows
}

/// Figure 12 — normalised DSXplore runtime vs overlap ratio (cg = 2),
/// normalised to co = 10 %.
pub fn fig12() -> Vec<SeriesPoint> {
    let gpu = GpuModel::v100();
    let overlaps = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let mut rows = Vec::new();
    for kind in ModelKind::ALL {
        let reference = {
            let spec = kind.spec(Dataset::Cifar10, ConvScheme::DwScc { cg: 2, co: 0.1 });
            estimate_training_step(&gpu, &spec, CIFAR_BATCH, SccImplementation::Dsxplore).total_s
        };
        for co in overlaps {
            let spec = kind.spec(Dataset::Cifar10, ConvScheme::DwScc { cg: 2, co });
            let t = estimate_training_step(&gpu, &spec, CIFAR_BATCH, SccImplementation::Dsxplore)
                .total_s;
            rows.push(SeriesPoint {
                model: kind.name().to_string(),
                x: co * 100.0,
                y: t / reference,
            });
        }
    }
    rows
}

/// Figure 13 — time per training batch vs batch size (cg=2, co=50%) for
/// VGG16, MobileNet and ResNet18.
pub fn fig13() -> Vec<SeriesPoint> {
    let gpu = GpuModel::v100();
    let mut rows = Vec::new();
    for kind in [ModelKind::Vgg16, ModelKind::MobileNet, ModelKind::ResNet18] {
        let spec = kind.spec(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT);
        for batch in [16usize, 32, 64, 128, 256, 512, 1024] {
            let t = estimate_training_step(&gpu, &spec, batch, SccImplementation::Dsxplore).total_s;
            rows.push(SeriesPoint {
                model: kind.name().to_string(),
                x: batch as f64,
                y: t,
            });
        }
    }
    rows
}

/// Figure 14 — multi-GPU speedup for VGG16, MobileNet and ResNet18
/// (cg=2, co=50%, global batch 512).
pub fn fig14() -> Vec<SeriesPoint> {
    let gpu = GpuModel::v100();
    let mut rows = Vec::new();
    for kind in [ModelKind::Vgg16, ModelKind::MobileNet, ModelKind::ResNet18] {
        let spec = kind.spec(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT);
        for point in scaling_curve(&gpu, &spec, 512, SccImplementation::Dsxplore, 4) {
            rows.push(SeriesPoint {
                model: kind.name().to_string(),
                x: point.gpus as f64,
                y: point.speedup,
            });
        }
    }
    rows
}

/// Atomic-operation study (§V-D): measured counter values from the real CPU
/// kernels for a representative layer, per backward design.
#[derive(Debug, Clone)]
pub struct AtomicsRow {
    /// Backward design name.
    pub design: String,
    /// Number of atomic updates recorded by the instrumented kernel.
    pub atomic_updates: usize,
}

/// Runs both backward kernels on a representative layer and reports the
/// atomic-update counters (reproducing the ">90% fewer atomics" claim).
pub fn atomics_study() -> Vec<AtomicsRow> {
    use dsx_core::{
        scc_backward_input_centric, scc_backward_output_centric, KernelStats, SccConfig,
    };
    use dsx_tensor::Tensor;
    // lint: allow(panic) — hard-coded experiment constants, valid by
    // inspection; the validator runs at startup, not on user input.
    let cfg = SccConfig::new(64, 128, 2, 0.5).unwrap();
    let input = Tensor::randn(&[4, 64, 16, 16], 1);
    let weight = Tensor::randn(&[128, 32], 2);
    let grad_out = Tensor::randn(&[4, 128, 16, 16], 3);
    let out_stats = KernelStats::new();
    scc_backward_output_centric(&cfg, &input, &weight, &grad_out, Some(&out_stats));
    let in_stats = KernelStats::new();
    scc_backward_input_centric(&cfg, &input, &weight, &grad_out, Some(&in_stats));
    vec![
        AtomicsRow {
            design: "Output-centric (DSXplore-Var)".into(),
            atomic_updates: out_stats.atomic_updates(),
        },
        AtomicsRow {
            design: "Input-centric (DSXplore)".into(),
            atomic_updates: in_stats.atomic_updates(),
        },
    ]
}

/// The operators of a [`FusionCostRow`], in column order.
pub const FUSION_OPERATORS: [&str; 3] = ["SCC", "GPW", "PW"];

/// One MobileNet-CIFAR channel-fusion layer run as SCC (the `Blocked`
/// kernels), as GPW at the same `cg`, and as PW (`dsx-experiments
/// fusion-cost`). Arrays are indexed like [`FUSION_OPERATORS`].
#[derive(Debug, Clone)]
pub struct FusionCostRow {
    /// Layer name from the model spec.
    pub layer: String,
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Feature-map edge: the plane is `hw × hw`.
    pub hw: usize,
    /// Batch size of one call.
    pub batch: usize,
    /// Multiply-accumulates of one call over the whole batch.
    pub macs: [usize; 3],
    /// Time of one call, in milliseconds, as the caller's timer saw it.
    pub ms: [f64; 3],
}

impl FusionCostRow {
    /// Achieved GMAC/s of operator `op` (an index into
    /// [`FUSION_OPERATORS`]).
    pub fn gmacs(&self, op: usize) -> f64 {
        self.macs[op] as f64 / (self.ms[op] * 1.0e6)
    }
}

/// Builds one [`FusionCostRow`] per fusion layer of MobileNet-CIFAR under
/// DW+SCC (`cg` 2, `co` 50 %) at `batch`. Every operator runs without bias,
/// as in the model, on the `Blocked` backend; `time_ms(layer, input)` times
/// its `infer` (see [`best_infer_ms`]).
pub fn fusion_cost(
    batch: usize,
    mut time_ms: impl FnMut(&dyn dsx_nn::Layer, &dsx_tensor::Tensor) -> f64,
) -> Vec<FusionCostRow> {
    use dsx_core::BackendKind;
    use dsx_models::ConvKind;
    use dsx_nn::{Conv2d, SccConv2d};
    let spec = ModelKind::MobileNet.spec(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT);
    spec.scc_layers()
        .into_iter()
        .enumerate()
        .map(|(idx, conv)| {
            // lint: allow(panic) — `scc_layers` yields sliding-channel layers
            // of a catalog spec, which always carry a valid SCC config.
            let cfg = conv.scc_config().expect("an SCC layer has an SCC config");
            let (cin, cout, hw) = (conv.cin, conv.cout, conv.out_hw());
            let seed = idx as u64;
            let input = dsx_tensor::Tensor::randn(&[batch, cin, hw, hw], seed);
            let scc = SccConv2d::new(cfg, seed)
                .without_bias()
                .with_backend(BackendKind::Blocked);
            let gpw = Conv2d::group_pointwise(cin, cout, cfg.cg(), seed)
                .without_bias()
                .with_backend(BackendKind::Blocked);
            let pw = Conv2d::pointwise(cin, cout, seed)
                .without_bias()
                .with_backend(BackendKind::Blocked);
            let macs_as = |kind| {
                let mut layer = conv.clone();
                layer.kind = kind;
                layer.macs() * batch
            };
            FusionCostRow {
                layer: conv.name.clone(),
                cin,
                cout,
                hw,
                batch,
                macs: [
                    conv.macs() * batch,
                    macs_as(ConvKind::GroupPointwise { cg: cfg.cg() }),
                    macs_as(ConvKind::Pointwise),
                ],
                ms: [
                    time_ms(&scc, &input),
                    time_ms(&gpw, &input),
                    time_ms(&pw, &input),
                ],
            }
        })
        .collect()
}

/// The fastest of `runs` calls of `layer.infer(input)`, in milliseconds.
pub fn best_infer_ms(layer: &dyn dsx_nn::Layer, input: &dsx_tensor::Tensor, runs: usize) -> f64 {
    (0..runs.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(layer.infer(input));
            start.elapsed().as_secs_f64() * 1.0e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Outcome of the train→save half of the model lifecycle
/// (`dsx-experiments train-serve`).
#[derive(Debug)]
pub struct TrainServeOutcome {
    /// The trained weights, ready to [`dsx_models::Checkpoint::save`].
    pub checkpoint: dsx_models::Checkpoint,
    /// Mean training loss over the final epoch.
    pub loss: f32,
    /// Mean training accuracy over the final epoch.
    pub accuracy: f32,
    /// CRC-32 fingerprint of the trained model's inference output
    /// ([`dsx_models::model_digest`]); `dsx-serve --model` prints the same
    /// line after loading, so CI can gate bit-identical round trips on a
    /// string comparison.
    pub digest: u32,
}

/// Trains a compact serving tower on the synthetic CIFAR-like workload
/// (8×8 inputs — the shape `dsx-serve`'s load generator drives) and
/// captures the trained weights as a checkpoint.
///
/// The tower is deliberately narrower than the default serving model
/// (width 32, 2 blocks) so the lifecycle CI job trains in seconds; the
/// checkpoint still exercises every layer kind the format must carry
/// (standard/depthwise/SCC convolutions, batch-norm running statistics,
/// the linear classifier).
pub fn train_serving_checkpoint(cfg: &TrainConfig) -> TrainServeOutcome {
    let spec = dsx_serve::serving_spec_with(32, 2);
    let mut model = dsx_models::build_model(&spec, cfg.seed);
    // image_scale 4 → 8×8 images, matching the serving request shape.
    let dataset = dsx_data::cifar_like(cfg.train_size, cfg.test_size, 4, cfg.seed);
    let train_batches: Vec<Batch> = dataset
        .train
        .batches(cfg.batch_size)
        .into_iter()
        .map(|(images, labels)| Batch::new(images, labels))
        .collect();
    let loss_fn = CrossEntropyLoss::new();
    let mut sgd = Sgd::with_config(cfg.lr, 0.9, 5e-4);
    let mut metrics = train_epoch(&mut model, &mut sgd, &loss_fn, &train_batches);
    for _ in 1..cfg.epochs {
        metrics = train_epoch(&mut model, &mut sgd, &loss_fn, &train_batches);
    }
    let digest = dsx_models::model_digest(&model, &spec);
    TrainServeOutcome {
        checkpoint: dsx_models::Checkpoint::capture(&spec, &model),
        loss: metrics.loss,
        accuracy: metrics.accuracy,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_cost_has_one_row_per_mobilenet_fusion_layer_at_equal_scc_and_gpw_macs() {
        let rows = fusion_cost(2, |_, _| 0.0);
        assert_eq!(rows.len(), 13);
        for row in &rows {
            assert_eq!(row.batch, 2);
            assert_eq!(
                row.macs[0], row.macs[1],
                "{}: SCC MACs != GPW MACs",
                row.layer
            );
            assert_eq!(
                row.macs[2],
                2 * row.macs[0],
                "{}: PW is cg = 2 times SCC",
                row.layer
            );
            assert_eq!(row.macs[0], 2 * row.cout * (row.cin / 2) * row.hw * row.hw);
        }
    }

    #[test]
    fn table1_scc_matches_gpw_cost_and_pw_accuracy_class() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        let pw = &rows[0];
        let gpw = &rows[1];
        let scc = &rows[2];
        assert!(scc.mflops < pw.mflops);
        assert!((scc.mflops - gpw.mflops).abs() < 1e-9);
        assert_eq!(scc.accuracy_class, "High");
        assert_eq!(gpw.accuracy_class, "Low");
    }

    #[test]
    fn table2_has_two_rows_per_model_and_dsxplore_is_cheaper() {
        let rows = table2(None);
        assert_eq!(rows.len(), 10);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].scheme, "Origin");
            assert_eq!(pair[1].scheme, "DSXplore");
            assert!(pair[1].mflops < pair[0].mflops);
            assert!(pair[1].params_m < pair[0].params_m);
        }
    }

    #[test]
    fn table4_flops_decrease_with_cg_and_match_between_gpw_and_scc() {
        let rows = table4(None);
        assert_eq!(rows.len(), 10);
        // GPW-cg2 and SCC-cg2 rows must agree analytically.
        let find = |tag: &str| rows.iter().find(|r| r.scheme.contains(tag)).unwrap();
        assert!((find("GPW-cg2").mflops - find("SCC-cg2-co50%").mflops).abs() < 1e-9);
        assert!(find("SCC-cg8-co50%").mflops < find("SCC-cg2-co50%").mflops);
    }

    #[test]
    fn fig7_speedups_are_greater_than_one() {
        let rows = fig7();
        assert_eq!(rows.len(), 5 * 5);
        for row in &rows {
            if let (Some(opt), Some(dsx)) = (row.pytorch_opt, row.dsxplore) {
                assert!(opt > 1.0, "{row:?}");
                assert!(dsx > opt, "{row:?}");
            }
        }
    }

    #[test]
    fn fig9_ordering_matches_paper() {
        for row in fig9() {
            let [base, opt, var, dsx] = row.seconds;
            assert!(base > opt && opt > var && var > dsx, "{row:?}");
        }
    }

    #[test]
    fn fig10_savings_fall_in_paper_range() {
        for row in fig10() {
            assert!(
                row.saving_pct > 40.0 && row.saving_pct < 99.9,
                "{row:?} outside plausible range"
            );
            assert!(row.with_cc_mb < row.without_cc_mb);
        }
    }

    #[test]
    fn fig11_runtime_decreases_with_groups() {
        let rows = fig11();
        for model in ["VGG16", "MobileNet"] {
            let series: Vec<&SeriesPoint> = rows.iter().filter(|p| p.model == model).collect();
            assert_eq!(series.len(), 4);
            for pair in series.windows(2) {
                assert!(pair[1].y <= pair[0].y * 1.001, "{model}: {pair:?}");
            }
        }
    }

    #[test]
    fn fig12_runtime_is_flat_in_overlap() {
        let rows = fig12();
        for point in &rows {
            assert!((point.y - 1.0).abs() < 0.1, "{point:?}");
        }
    }

    #[test]
    fn fig13_time_grows_with_batch() {
        let rows = fig13();
        for model in ["VGG16", "MobileNet", "ResNet18"] {
            let series: Vec<&SeriesPoint> = rows.iter().filter(|p| p.model == model).collect();
            for pair in series.windows(2) {
                assert!(pair[1].y > pair[0].y);
            }
        }
    }

    #[test]
    fn fig14_speedup_monotone_up_to_four_gpus() {
        let rows = fig14();
        for model in ["VGG16", "MobileNet", "ResNet18"] {
            let series: Vec<&SeriesPoint> = rows.iter().filter(|p| p.model == model).collect();
            assert_eq!(series.len(), 4);
            assert!(series[3].y > series[0].y);
            assert!(series[3].y <= 4.0);
        }
    }

    #[test]
    fn atomics_study_shows_more_than_90_percent_reduction() {
        let rows = atomics_study();
        let output_centric = rows[0].atomic_updates as f64;
        let input_centric = rows[1].atomic_updates as f64;
        assert!(input_centric <= output_centric * 0.1);
    }

    #[test]
    fn table5_latencies_increase_with_batch() {
        let rows = table5();
        for pair in rows.windows(2) {
            assert!(pair[1].gpw_ms > pair[0].gpw_ms);
            assert!(pair[1].dsxplore_ms > pair[0].dsxplore_ms);
        }
    }

    #[test]
    fn accuracy_measurement_runs_and_is_sane() {
        // Tiny budget so this stays fast; just checks the training path.
        let cfg = TrainConfig {
            channel_scale: 32,
            image_scale: 4,
            train_size: 48,
            test_size: 24,
            epochs: 1,
            batch_size: 16,
            lr: 0.05,
            seed: 3,
        };
        let acc = measure_accuracy(ModelKind::MobileNet, ConvScheme::DSXPLORE_DEFAULT, &cfg);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn trained_checkpoint_round_trips_with_an_identical_digest() {
        // Tiny budget: this checks the train→save→load→serve parity chain,
        // not convergence.
        let cfg = TrainConfig {
            train_size: 32,
            test_size: 16,
            epochs: 1,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let outcome = train_serving_checkpoint(&cfg);
        assert!(outcome.loss.is_finite());
        let bytes = outcome.checkpoint.encode();
        let loaded = dsx_models::Checkpoint::decode(&bytes).expect("own bytes decode");
        // Rebuild on the same backend the trained model used so the digest
        // comparison tests checkpoint losslessness, not backend parity.
        let model = loaded
            .build_model(dsx_core::default_backend())
            .expect("own checkpoint rebuilds");
        assert_eq!(
            dsx_models::model_digest(&model, &loaded.spec),
            outcome.digest,
            "loaded weights must infer bit-identically to the trained model"
        );
    }
}
