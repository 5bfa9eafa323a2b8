//! What both workload families share: taking a model through its real
//! lifecycle (build → checkpoint → decode → rebuild), the output check, and
//! the per-layer walk that times each layer of a `Sequential` from outside.

use crate::spans::Recorder;
use crate::stats::{median, Op};
use dsx_core::{BackendKind, SccImplementation};
use dsx_models::{build_model_with_backend, Checkpoint, ModelSpec};
use dsx_nn::{Layer, Sequential};
use dsx_tensor::Tensor;
use std::time::{Duration, Instant};

/// How much work a measuring loop does.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole blocks until this many seconds have passed (at least one).
    Seconds(f64),
    /// Exactly this many operations.
    Ops(usize),
}

impl Budget {
    /// Whether a loop that has issued `issued` operations should stop.
    pub fn spent(&self, elapsed: Duration, issued: usize, block_ops: usize) -> bool {
        match *self {
            Budget::Seconds(s) => {
                issued > 0 && issued.is_multiple_of(block_ops) && elapsed.as_secs_f64() >= s
            }
            Budget::Ops(n) => issued >= n,
        }
    }
}

/// What one measuring loop produced.
#[derive(Default)]
pub struct RunOut {
    /// Every attempted operation, in issue order.
    pub ops: Vec<Op>,
    /// Open loop only: how late each request was sent, in ms.
    pub late_ms: Vec<f64>,
    /// Most requests the generator had outstanding at once.
    pub inflight_max: usize,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times of the model-lifecycle steps inside set-up (`models.*`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Lifecycle {
    pub build_ms: f64,
    pub ckpt_enc_ms: f64,
    pub ckpt_dec_ms: f64,
    pub ckpt_kb: f64,
}

/// Builds `spec` on the `Blocked` backend the way a deployment gets its
/// model: build, capture a checkpoint, encode it, decode the bytes, rebuild
/// from the decoded checkpoint. The rebuilt model is the one measured.
pub fn build_via_checkpoint(spec: &ModelSpec, seed: u64) -> (Sequential, Lifecycle) {
    let t = Instant::now();
    let built = build_model_with_backend(
        spec,
        seed,
        SccImplementation::Dsxplore,
        BackendKind::Blocked,
    );
    let build_ms = ms(t.elapsed());

    let t = Instant::now();
    let bytes = Checkpoint::capture(spec, &built).encode();
    let ckpt_enc_ms = ms(t.elapsed());

    let t = Instant::now();
    let model = Checkpoint::decode(&bytes)
        .and_then(|ckpt| ckpt.build_model(BackendKind::Blocked))
        .expect("a checkpoint this process just encoded decodes and rebuilds");
    let ckpt_dec_ms = ms(t.elapsed());

    let lifecycle = Lifecycle {
        build_ms,
        ckpt_enc_ms,
        ckpt_dec_ms,
        ckpt_kb: bytes.len() as f64 / 1024.0,
    };
    (model, lifecycle)
}

/// The same spec and weights on the `Naive` backend: the oracle the
/// `Blocked` model is checked against once per set-up.
pub fn build_naive(spec: &ModelSpec, seed: u64) -> Sequential {
    build_model_with_backend(spec, seed, SccImplementation::Dsxplore, BackendKind::Naive)
}

/// Element-wise `|actual − expected| ≤ tol · (1 + |expected|)` on equal
/// shapes; a non-finite value never passes.
pub fn close(actual: &Tensor, expected: &Tensor, tol: f32) -> bool {
    actual.shape() == expected.shape()
        && actual
            .as_slice()
            .iter()
            .zip(expected.as_slice())
            .all(|(a, e)| (a - e).abs() <= tol * (1.0 + e.abs()))
}

/// The layer families `nn.*_ms` reports, keyed by `Layer::name()` prefix.
pub const KINDS: [&str; 8] = [
    "conv2d",
    "depthwise",
    "scc",
    "bn",
    "relu",
    "pool",
    "linear",
    "other",
];

pub fn kind_of(layer_name: &str) -> usize {
    const PREFIXES: [(&str, usize); 10] = [
        ("DepthwiseConv(", 1),
        ("Conv2d(", 0),
        ("PointwiseConv(", 0),
        ("GroupConv(", 0),
        ("SccConv2d(", 2),
        ("BatchNorm2d(", 3),
        ("ReLU", 4),
        ("MaxPool2d(", 5),
        ("AvgPool2d(", 5),
        ("Linear(", 6),
    ];
    if layer_name == "GlobalAvgPool" {
        return 5;
    }
    PREFIXES
        .iter()
        .find(|(prefix, _)| layer_name.starts_with(prefix))
        .map_or(KINDS.len() - 1, |&(_, kind)| kind)
}

/// The result of walking a model layer by layer.
pub struct Walk {
    /// One op per walk of the whole model.
    pub ops: Vec<Op>,
    /// Median over walks of the time spent in each layer family, ms.
    pub kind_ms: [f64; 8],
    /// Forward MACs of each family for the walked input shape.
    pub kind_macs: [usize; 8],
    /// Median over walks of whole-model `infer` time minus the walk's layer
    /// times, ms: what `Sequential::infer` itself costs. Each walk is paired
    /// with a whole-model call on the same input right before it, so drift
    /// between the two cancels. 0 when walking with a recorder, where the
    /// pairing is skipped.
    pub gap_ms: f64,
}

/// Runs `inputs` (cycled, all of one shape) through `model` one layer at a
/// time, `iters` times, timing every `Layer::infer` from outside. With a
/// recorder each walk is an `nn.infer` span with one `nn.layer` child per
/// layer call. `check` judges the final output of walk `idx`.
pub fn walk(
    model: &Sequential,
    inputs: &[Tensor],
    iters: usize,
    epoch: Instant,
    mut rec: Option<&mut Recorder>,
    check: impl Fn(usize, &Tensor) -> bool,
) -> Walk {
    let kinds: Vec<usize> = model.layers().iter().map(|l| kind_of(&l.name())).collect();
    let mut kind_macs = [0usize; 8];
    let mut shape = inputs[0].shape().to_vec();
    for (layer, &kind) in model.layers().iter().zip(&kinds) {
        kind_macs[kind] += layer.forward_macs(&shape);
        shape = layer.output_shape(&shape);
    }

    let mut per_walk: [Vec<f64>; 8] = Default::default();
    let mut gaps = Vec::new();
    let mut ops = Vec::with_capacity(iters);
    for idx in 0..iters {
        let whole_ms = rec.is_none().then(|| {
            let t = Instant::now();
            std::hint::black_box(model.infer(&inputs[idx % inputs.len()]));
            ms(t.elapsed())
        });
        let start = epoch.elapsed().as_secs_f64();
        let root = rec.as_deref_mut().map(|r| r.begin("nn.infer", None));
        let mut sums = [0f64; 8];
        let mut x = inputs[idx % inputs.len()].clone();
        for (layer, &kind) in model.layers().iter().zip(&kinds) {
            let span = rec.as_deref_mut().map(|r| r.begin("nn.layer", None));
            let t = Instant::now();
            x = layer.infer(&x);
            sums[kind] += ms(t.elapsed());
            if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
                r.end(id, None);
            }
        }
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), root) {
            r.end(id, None);
        }
        let end = epoch.elapsed().as_secs_f64();
        ops.push(Op {
            start,
            end,
            ok: check(idx, &x),
        });
        gaps.extend(whole_ms.map(|whole| whole - sums.iter().sum::<f64>()));
        for (list, sum) in per_walk.iter_mut().zip(sums) {
            list.push(sum);
        }
    }
    Walk {
        ops,
        kind_ms: per_walk.map(|list| median(&list)),
        kind_macs,
        gap_ms: if gaps.is_empty() { 0.0 } else { median(&gaps) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_map_to_their_family() {
        for (name, kind) in [
            ("Conv2d(256->256, k3)", "conv2d"),
            ("PointwiseConv(8->16)", "conv2d"),
            ("GroupConv(8->16, k1, g2)", "conv2d"),
            ("DepthwiseConv(256, k3)", "depthwise"),
            ("SccConv2d(256->256, cg2-co50%)", "scc"),
            ("BatchNorm2d(256)", "bn"),
            ("ReLU", "relu"),
            ("GlobalAvgPool", "pool"),
            ("MaxPool2d(k2, s2)", "pool"),
            ("Linear(256->10)", "linear"),
            ("Flatten", "other"),
            ("ResidualBlock(identity)", "other"),
        ] {
            assert_eq!(KINDS[kind_of(name)], kind, "{name}");
        }
    }

    #[test]
    fn budget_stops_on_block_boundaries() {
        let b = Budget::Seconds(1.0);
        assert!(
            !b.spent(Duration::from_secs(5), 0, 10),
            "at least one block"
        );
        assert!(!b.spent(Duration::from_secs(5), 15, 10), "mid-block");
        assert!(!b.spent(Duration::from_millis(900), 10, 10), "time left");
        assert!(b.spent(Duration::from_secs(1), 20, 10));
        assert!(Budget::Ops(7).spent(Duration::ZERO, 7, 10));
        assert!(!Budget::Ops(7).spent(Duration::from_secs(9), 6, 10));
    }

    #[test]
    fn close_is_relative_and_rejects_nan() {
        let e = Tensor::from_vec(vec![1.0, -100.0], &[2]);
        assert!(close(
            &Tensor::from_vec(vec![1.0001, -100.01], &[2]),
            &e,
            1e-4
        ));
        assert!(!close(
            &Tensor::from_vec(vec![1.001, -100.0], &[2]),
            &e,
            1e-4
        ));
        assert!(!close(
            &Tensor::from_vec(vec![f32::NAN, -100.0], &[2]),
            &e,
            1e-4
        ));
        assert!(!close(
            &Tensor::from_vec(vec![1.0, -100.0], &[1, 2]),
            &e,
            1e-4
        ));
    }
}
