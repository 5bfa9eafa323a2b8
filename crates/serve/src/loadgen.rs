//! The built-in load generator: a serving workload model, concurrent
//! clients hammering a [`ServeEngine`], and the serial-unbatched baseline
//! the batched numbers are compared against.

use crate::engine::{ServeConfig, ServeEngine};
use crate::stats::ServeSnapshot;
use dsx_core::{BackendKind, SccImplementation};
use dsx_models::{build_model_with_backend, ConvKind, ConvLayerSpec, Dataset, ModelSpec};
use dsx_nn::Layer;
use dsx_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spatial size of one serving request (square, RGB).
pub const INPUT_HW: usize = 8;

/// Class count of the serving model's classifier head.
pub const CLASSES: usize = 10;

/// Default channel width of the serving tower.
pub const DEFAULT_CHANNELS: usize = 256;

/// Default number of serving-tower blocks.
pub const DEFAULT_BLOCKS: usize = 3;

/// The default serving workload model.
///
/// See [`serving_spec_with`] for why the tower is shaped the way it is.
pub fn serving_spec() -> ModelSpec {
    serving_spec_with(DEFAULT_CHANNELS, DEFAULT_BLOCKS)
}

/// A compact low-resolution "serving tower": a strided stem down to 4×4,
/// then `blocks` repetitions of `Standard 3×3 → DW 3×3 → SCC`, strided to
/// 2×2 mid-tower.
///
/// The shape is deliberately the regime where request batching pays most on
/// a CPU: at batch 1 the GEMM behind each dense 3×3 convolution has only
/// `plane` (16, then 4) output columns, so its unit-stride inner loops are
/// a few elements long and per-call fixed costs (weight repacking, tile
/// setup, allocator traffic) rival the arithmetic. Fusing 8 requests widens
/// every GEMM 8× at unchanged fixed cost — the same raise-the-work-per-
/// launch argument the paper makes for the SCC kernel itself. The DW+SCC
/// pairs keep the workload paper-shaped and make the `--backend` choice
/// matter.
pub fn serving_spec_with(channels: usize, blocks: usize) -> ModelSpec {
    assert!(
        channels >= 4 && channels.is_multiple_of(2),
        "need an even tower width"
    );
    let mut convs = vec![ConvLayerSpec {
        name: "stem".into(),
        kind: ConvKind::Standard {
            kernel: 3,
            groups: 1,
        },
        cin: 3,
        cout: channels,
        in_hw: INPUT_HW,
        stride: 2,
        with_bn: true,
    }];
    let mut hw = INPUT_HW / 2;
    for b in 0..blocks {
        // Halve the plane once mid-tower: the 2×2 tail is where a batch-1
        // GEMM is most starved (4 output columns), so it is where fusing
        // requests pays the most.
        let stride = if b == blocks / 2 && hw > 2 { 2 } else { 1 };
        convs.push(ConvLayerSpec {
            name: format!("dense{b}"),
            kind: ConvKind::Standard {
                kernel: 3,
                groups: 1,
            },
            cin: channels,
            cout: channels,
            in_hw: hw,
            stride,
            with_bn: true,
        });
        hw /= stride;
        convs.push(ConvLayerSpec {
            name: format!("dw{b}"),
            kind: ConvKind::Depthwise { kernel: 3 },
            cin: channels,
            cout: channels,
            in_hw: hw,
            stride: 1,
            with_bn: true,
        });
        convs.push(ConvLayerSpec {
            name: format!("scc{b}"),
            kind: ConvKind::SlidingChannel { cg: 2, co: 0.5 },
            cin: channels,
            cout: channels,
            in_hw: hw,
            stride: 1,
            with_bn: true,
        });
    }
    ModelSpec {
        name: format!("ServeTower{channels}x{blocks}"),
        dataset: Dataset::Cifar10,
        scheme_tag: "DW+SCC-cg2-co50%".into(),
        convs,
        classifier_in: channels,
        classes: CLASSES,
    }
}

/// Builds the shared serving model on an explicit kernel backend. The
/// result is `Send + Sync` (every [`Layer`] is), so one `Arc` serves every
/// worker and client thread.
pub fn build_serving_model(spec: &ModelSpec, backend: BackendKind) -> Arc<dyn Layer> {
    Arc::new(build_model_with_backend(
        spec,
        0x5E21E,
        SccImplementation::Dsxplore,
        backend,
    ))
}

/// A deterministic single-sample request input, `[1, 3, INPUT_HW,
/// INPUT_HW]`; distinct seeds give distinct requests.
pub fn request_input(seed: u64) -> Tensor {
    Tensor::randn(&[1, 3, INPUT_HW, INPUT_HW], seed)
}

/// Load-generator shape: how many requests, from how many client threads,
/// against which engine configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total requests to send.
    pub requests: usize,
    /// Concurrent client threads submitting them.
    pub concurrency: usize,
    /// Engine configuration under test.
    pub engine: ServeConfig,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            requests: 256,
            concurrency: 16,
            engine: ServeConfig::default(),
        }
    }
}

/// Report of the serial-unbatched baseline: the same requests issued one at
/// a time, each as its own `infer` call.
#[derive(Debug, Clone, PartialEq)]
pub struct SerialReport {
    /// Requests issued.
    pub requests: usize,
    /// Wall-clock seconds for all of them.
    pub elapsed_secs: f64,
    /// Requests per second.
    pub throughput_rps: f64,
}

/// Drives the engine with `cfg.concurrency` client threads submitting
/// `cfg.requests` single-sample requests in total and returns the engine's
/// final serving report. Every response is shape-checked, so a hung or
/// misrouted request fails loudly.
pub fn run_load(model: Arc<dyn Layer>, cfg: &LoadConfig) -> ServeSnapshot {
    assert!(cfg.concurrency >= 1, "need at least one client");
    let mut engine_cfg = cfg.engine.clone();
    // The load generator always speaks the serving model's request shape;
    // declaring it lets the engine reject stray submissions at the door.
    engine_cfg
        .request_dims
        .get_or_insert_with(|| vec![3, INPUT_HW, INPUT_HW]);
    let engine = ServeEngine::start(model, engine_cfg);
    std::thread::scope(|scope| {
        for client in 0..cfg.concurrency {
            // Front clients take the remainder so exactly `requests` flow.
            let share = cfg.requests / cfg.concurrency
                + usize::from(client < cfg.requests % cfg.concurrency);
            let handle = engine.handle();
            scope.spawn(move || {
                for i in 0..share {
                    let seed = (client * 1_000_003 + i) as u64;
                    let out = handle
                        .infer(request_input(seed))
                        // lint: allow(panic) — load-measurement harness: a
                        // mid-run failure voids the sample, so die loudly.
                        .expect("engine shut down mid-load");
                    assert_eq!(out.shape(), &[1, CLASSES], "response shape mismatch");
                }
            });
        }
    });
    engine.shutdown()
}

/// The serial-unbatched baseline: one thread, one request per forward pass,
/// no queueing. This is what the batched engine must beat.
pub fn run_serial(model: &dyn Layer, requests: usize) -> SerialReport {
    let start = Instant::now();
    for i in 0..requests {
        let out = model.infer(&request_input(i as u64));
        assert_eq!(out.shape(), &[1, CLASSES], "response shape mismatch");
    }
    let elapsed = start.elapsed().max(Duration::from_nanos(1));
    SerialReport {
        requests,
        elapsed_secs: elapsed.as_secs_f64(),
        throughput_rps: requests as f64 / elapsed.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_spec_chains_and_counts() {
        let spec = serving_spec();
        let mut prev = spec.convs[0].cin;
        for conv in &spec.convs {
            assert_eq!(conv.cin, prev, "layer {} breaks the chain", conv.name);
            prev = conv.cout;
        }
        assert_eq!(spec.classifier_in, prev);
        assert_eq!(spec.scc_layers().len(), DEFAULT_BLOCKS);
        assert!(spec.mflops() > 0.0);
    }

    #[test]
    fn small_load_run_completes_on_both_backends() {
        let spec = serving_spec_with(16, 1);
        for backend in [BackendKind::Naive, BackendKind::Blocked] {
            let model = build_serving_model(&spec, backend);
            let cfg = LoadConfig {
                requests: 12,
                concurrency: 3,
                engine: ServeConfig::default().with_workers(2).with_max_batch(4),
            };
            let snap = run_load(Arc::clone(&model), &cfg);
            assert_eq!(snap.requests, 12, "{backend}");
            assert!(snap.batches <= 12);
            let serial = run_serial(&*model, 4);
            assert_eq!(serial.requests, 4);
            assert!(serial.throughput_rps > 0.0);
        }
    }
}
