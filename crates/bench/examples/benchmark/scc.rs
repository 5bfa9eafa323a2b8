//! The two in-process workloads on full-width MobileNet DW+SCC
//! (`ModelKind::MobileNet.spec(Cifar10, DSXPLORE_DEFAULT)`, `Blocked`
//! backend): `scc_infer` calls `Sequential::infer`, `scc_train` runs
//! training steps. No server, no sockets: `dsx-core` does most of the work.

use crate::model::{build_naive, build_via_checkpoint, close, Budget, Lifecycle, RunOut};
use crate::rng::SplitMix64;
use crate::spans::Recorder;
use crate::stats::Op;
use dsx_models::{ConvScheme, Dataset, ModelKind, ModelSpec};
use dsx_nn::{accuracy, train_step, Batch, CrossEntropyLoss, Layer, Sequential, Sgd};
use dsx_tensor::Tensor;
use std::time::Instant;

pub const INFER_BATCH: usize = 4;
pub const TRAIN_BATCH: usize = 2;
/// Distinct inputs (`scc_infer`) / labelled batches (`scc_train`) cycled
/// through; one pass over them is a *cycle*.
pub const CYCLE: usize = 4;
/// Calls / steps at the end of set-up.
pub const WARMUP: usize = 8;

pub fn spec() -> ModelSpec {
    ModelKind::MobileNet.spec(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT)
}

/// Bit pattern of an output: the same input through the same weights on
/// one kernel thread must reproduce it exactly, every iteration.
fn checksum(t: &Tensor) -> u64 {
    t.as_slice().iter().fold(0xCBF2_9CE4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01B3)
    })
}

/// `scc_infer` after set-up.
pub struct Infer {
    pub model: Sequential,
    pub inputs: Vec<Tensor>,
    checksums: Vec<u64>,
    pub lifecycle: Lifecycle,
    pub problems: Vec<String>,
}

impl Infer {
    /// Model lifecycle, expected outputs, `Naive` cross-check and `WARMUP`
    /// checked calls.
    pub fn setup(seed: u64) -> Infer {
        let spec = spec();
        let model_seed = SplitMix64::stream(seed, "scc.model").next_u64();
        let (model, lifecycle) = build_via_checkpoint(&spec, model_seed);
        let mut rng = SplitMix64::stream(seed, "scc.inputs");
        let inputs: Vec<Tensor> = (0..CYCLE)
            .map(|_| rng.tensor(&[INFER_BATCH, 3, 32, 32]))
            .collect();
        let expected: Vec<Tensor> = inputs.iter().map(|x| model.infer(x)).collect();
        let checksums = expected.iter().map(checksum).collect();

        let mut problems = Vec::new();
        if !close(
            &expected[0],
            &build_naive(&spec, model_seed).infer(&inputs[0]),
            1e-3,
        ) {
            problems.push("Blocked model disagrees with the Naive oracle".to_string());
        }
        let mut infer = Infer {
            model,
            inputs,
            checksums,
            lifecycle,
            problems,
        };
        let warm = infer.run(Budget::Ops(WARMUP), 1, Instant::now());
        if warm.ops.iter().any(|op| !op.ok) {
            infer
                .problems
                .push("a warm-up output changed between calls".to_string());
        }
        infer
    }

    pub fn output_ok(&self, idx: usize, out: &Tensor) -> bool {
        checksum(out) == self.checksums[idx % CYCLE]
    }

    /// Whole-model `infer` calls, each checked against its checksum.
    pub fn run(&self, budget: Budget, block_ops: usize, epoch: Instant) -> RunOut {
        let mut ops = Vec::new();
        while !budget.spent(epoch.elapsed(), ops.len(), block_ops) {
            let idx = ops.len();
            let start = epoch.elapsed().as_secs_f64();
            let out = self.model.infer(&self.inputs[idx % CYCLE]);
            let end = epoch.elapsed().as_secs_f64();
            ops.push(Op {
                start,
                end,
                ok: self.output_ok(idx, &out),
            });
        }
        RunOut {
            ops,
            late_ms: Vec::new(),
            inflight_max: 1,
        }
    }
}

/// `scc_train` after set-up.
pub struct Train {
    pub model: Sequential,
    pub batches: Vec<Batch>,
    sgd: Sgd,
    loss_fn: CrossEntropyLoss,
    /// Mean loss over the first cycle of set-up's warm-up steps: what the
    /// last cycle of the run must end below.
    first_cycle_loss: f32,
    /// Loss of every step since set-up, in order.
    pub losses: Vec<f32>,
    pub lifecycle: Lifecycle,
    pub problems: Vec<String>,
}

impl Train {
    /// Model lifecycle, labelled batches, `WARMUP` steps — the first two
    /// also taken by the same model on the `Naive` backend, whose losses
    /// must agree.
    pub fn setup(seed: u64) -> Train {
        let spec = spec();
        let model_seed = SplitMix64::stream(seed, "scc.model").next_u64();
        let (model, lifecycle) = build_via_checkpoint(&spec, model_seed);
        let mut rng = SplitMix64::stream(seed, "scc.batches");
        let batches: Vec<Batch> = (0..CYCLE)
            .map(|_| {
                let images = rng.tensor(&[TRAIN_BATCH, 3, 32, 32]);
                let labels = (0..TRAIN_BATCH).map(|_| rng.below(spec.classes)).collect();
                Batch::new(images, labels)
            })
            .collect();
        let mut train = Train {
            model,
            batches,
            sgd: new_sgd(),
            loss_fn: CrossEntropyLoss::new(),
            first_cycle_loss: 0.0,
            // Room for any run, so recording a loss never reallocates and
            // `mem.allocs_per_op` repeats exactly from block to block.
            losses: Vec::with_capacity(1 << 16),
            lifecycle,
            problems: Vec::new(),
        };
        train.run(Budget::Ops(WARMUP), 1, Instant::now(), None);
        train.first_cycle_loss = mean(&train.losses[..CYCLE]);

        let mut naive = build_naive(&spec, model_seed);
        let mut naive_sgd = new_sgd();
        for step in 0..2 {
            let m = train_step(
                &mut naive,
                &mut naive_sgd,
                &train.loss_fn,
                &train.batches[step],
            );
            if (m.loss - train.losses[step]).abs() > 1e-3 * (1.0 + m.loss.abs()) {
                train.problems.push(format!(
                    "step {step}: Blocked loss {} but Naive loss {}",
                    train.losses[step], m.loss
                ));
            }
        }
        train
    }

    /// Training steps. Untraced, each is one `train_step` call; with a
    /// recorder it is the same four calls made one by one, as a
    /// `train.step` span with `train.fwd` / `train.loss` / `train.bwd` /
    /// `train.optim` children. A step is correct when its loss is finite.
    pub fn run(
        &mut self,
        budget: Budget,
        block_ops: usize,
        epoch: Instant,
        mut rec: Option<&mut Recorder>,
    ) -> RunOut {
        let mut ops = Vec::new();
        while !budget.spent(epoch.elapsed(), ops.len(), block_ops) {
            let batch = &self.batches[self.losses.len() % CYCLE];
            let start = epoch.elapsed().as_secs_f64();
            let loss = match rec.as_deref_mut() {
                None => train_step(&mut self.model, &mut self.sgd, &self.loss_fn, batch).loss,
                Some(rec) => {
                    let step = rec.begin("train.step", None);
                    let logits = rec.span("train.fwd", None, || {
                        self.model.forward(&batch.images, true)
                    });
                    let (loss, grad) = rec.span("train.loss", None, || {
                        let out = self.loss_fn.forward(&logits, &batch.labels);
                        std::hint::black_box(accuracy(&logits, &batch.labels));
                        out
                    });
                    rec.span("train.bwd", None, || {
                        self.model.zero_grad();
                        self.model.backward(&grad)
                    });
                    rec.span("train.optim", None, || self.sgd.step(&mut self.model));
                    rec.end(step, None);
                    loss
                }
            };
            let end = epoch.elapsed().as_secs_f64();
            self.losses.push(loss);
            ops.push(Op {
                start,
                end,
                ok: loss.is_finite(),
            });
        }
        RunOut {
            ops,
            late_ms: Vec::new(),
            inflight_max: 1,
        }
    }

    /// The end-of-run check: training must have made progress.
    pub fn teardown(mut self) -> Vec<String> {
        let last_cycle = mean(&self.losses[self.losses.len() - CYCLE..]);
        if last_cycle.is_nan() || last_cycle >= self.first_cycle_loss {
            self.problems.push(format!(
                "loss did not fall: first cycle {} → last cycle {last_cycle}",
                self.first_cycle_loss
            ));
        }
        self.problems
    }
}

/// Plain SGD with momentum, small enough a step that 8 random-label images
/// are fitted steadily rather than in a few noisy jumps.
fn new_sgd() -> Sgd {
    Sgd::with_config(0.01, 0.9, 0.0)
}

fn mean(values: &[f32]) -> f32 {
    values.iter().sum::<f32>() / values.len() as f32
}
