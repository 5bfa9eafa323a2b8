//! The traced run: one untraced reference pass, one traced pass of the same
//! work, and isolated loops around each crate's public functions. Every
//! number here is a per-layer metric; end-to-end metrics never come from
//! this file.

use crate::alloc::AllocCounts;
use crate::metrics::Workload;
use crate::model::{close, walk, Budget, Lifecycle, RunOut, KINDS};
use crate::rng::SplitMix64;
use crate::rpc::{self, Served};
use crate::scc;
use crate::spans::{durations_ms, write_chrome_trace, Recorder};
use crate::stats::{median, percentile, sorted, Op};
use dsx_core::{BackendKind, SccConfig, SccImplementation, SlidingChannelConv2d};
use dsx_net::protocol::{encode_frame, read_frame, Frame};
use dsx_nn::{Layer, Sequential};
use dsx_serve::ServeEngine;
use dsx_tensor::Tensor;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Per-layer metric values by name; a metric the workload does not
/// exercise is simply absent (and printed as 0).
pub type Layers = BTreeMap<&'static str, f64>;

/// What a traced run hands back: the operations it attempted (reference
/// and traced passes), the per-layer metrics, and checks that failed.
pub struct Traced {
    pub ops: Vec<Op>,
    pub layers: Layers,
    pub problems: Vec<String>,
}

/// Reference and traced passes each do this many blocks.
fn pass_blocks(seconds: f64) -> usize {
    (seconds / 5.0).round().max(1.0) as usize
}

/// Where artefacts go: `benchmark/` in the target directory this binary
/// was built into (it sits in `<target>/<profile>/` as the package's own
/// binary and in `<target>/<profile>/examples/` as `dsx-bench`'s example),
/// never the repo root.
pub fn artefact_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("finding this executable");
    let mut build = exe.parent().expect("an executable sits in a directory");
    if build.ends_with("examples") || build.ends_with("deps") {
        build = build.parent().expect("cargo's profile directory");
    }
    let dir = build
        .parent()
        .expect("cargo's target directory")
        .join("benchmark");
    std::fs::create_dir_all(&dir).expect("creating the artefact directory");
    dir
}

fn p50(ops: &[Op]) -> f64 {
    percentile(&sorted(ops.iter().map(Op::latency_ms).collect()), 0.5)
}

/// Median µs per call of `f`, from `samples` timings of `inner` calls each.
fn probe_us(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / inner as f64
        })
        .collect();
    median(&per_call)
}

/// The reference pass: `blocks` separate untraced runs of one block each,
/// with the process-wide allocation count of every block.
fn reference_pass(
    blocks: usize,
    mut run_block: impl FnMut() -> RunOut,
) -> (RunOut, Vec<AllocCounts>) {
    let mut all = RunOut::default();
    let mut allocs = Vec::new();
    for _ in 0..blocks {
        let before = AllocCounts::now();
        let out = run_block();
        allocs.push(AllocCounts::now().since(before));
        all.ops.extend(out.ops);
        all.late_ms.extend(out.late_ms);
        all.inflight_max = all.inflight_max.max(out.inflight_max);
    }
    (all, allocs)
}

/// Fills `mem.*`, `obs.*` and `gen.*` from the two passes, and writes both
/// traces: the benchmark's spans and, unparsed, whatever `dsx-obs`
/// collected inside the program.
fn pass_metrics(
    w: &Workload,
    reference: &RunOut,
    allocs: &[AllocCounts],
    traced: &RunOut,
    rec: &Recorder,
    layers: &mut Layers,
) {
    let per_op = |f: fn(&AllocCounts) -> u64| {
        let per_block: Vec<f64> = allocs
            .iter()
            .map(|a| f(a) as f64 / w.block_ops as f64)
            .collect();
        median(&per_block)
    };
    layers.insert("mem.allocs_per_op", per_op(|a| a.allocs));
    layers.insert("mem.alloc_kb_per_op", per_op(|a| a.bytes) / 1024.0);

    layers.insert("obs.trace_x", p50(&traced.ops) / p50(&reference.ops));
    layers.insert("obs.spans", dsx_obs::trace::collected_events().len() as f64);
    layers.insert("gen.inflight_max", reference.inflight_max as f64);
    if !reference.late_ms.is_empty() {
        let late = percentile(&sorted(reference.late_ms.clone()), 0.99);
        layers.insert("gen.late_p99_ms", late);
        if late > rpc::LATE_LIMIT_MS {
            eprintln!(
                "# flag: {} generator ran {late:.3} ms late at p99 (>{} ms)",
                w.name,
                rpc::LATE_LIMIT_MS
            );
        }
    }

    let dir = artefact_dir();
    write_chrome_trace(&dir.join(format!("{}.trace.json", w.name)), rec.spans())
        .expect("writing the benchmark's trace");
    dsx_obs::export_chrome_trace(&dir.join(format!("{}.obs.trace.json", w.name)))
        .expect("writing the dsx-obs trace");
}

/// In-process workloads allocate on one thread only, so the count must
/// repeat exactly from block to block — which is what lets a later change
/// claim on `mem.allocs_per_op` as a count.
fn check_exact_allocs(allocs: &[AllocCounts], problems: &mut Vec<String>) {
    if allocs
        .windows(2)
        .any(|pair| pair[0].allocs != pair[1].allocs)
    {
        problems.push(format!(
            "allocation count differs between blocks: {allocs:?}"
        ));
    }
}

fn lifecycle_metrics(lifecycle: &Lifecycle, layers: &mut Layers) {
    layers.insert("models.build_ms", lifecycle.build_ms);
    layers.insert("models.ckpt_enc_ms", lifecycle.ckpt_enc_ms);
    layers.insert("models.ckpt_dec_ms", lifecycle.ckpt_dec_ms);
    layers.insert("models.ckpt_kb", lifecycle.ckpt_kb);
}

/// `nn.*_ms`, `nn.*_gmacs` and `nn.walk_gap_ms`: an untraced per-layer walk
/// of `model` over `inputs`, each walk paired with a whole-model call.
/// `nn.macs_per_op` is the forward MACs of one operation's input, `op`.
fn layer_table(
    model: &Sequential,
    inputs: &[Tensor],
    op: &Tensor,
    iters: usize,
    check: impl Fn(usize, &Tensor) -> bool,
    layers: &mut Layers,
    problems: &mut Vec<String>,
) {
    let walk = walk(model, inputs, iters, Instant::now(), None, check);
    if walk.ops.iter().any(|op| !op.ok) {
        problems.push("the layer-by-layer walk gives a wrong output".to_string());
    }
    const MS: [&str; 8] = [
        "nn.conv2d_ms",
        "nn.depthwise_ms",
        "nn.scc_ms",
        "nn.bn_ms",
        "nn.relu_ms",
        "nn.pool_ms",
        "nn.linear_ms",
        "nn.other_ms",
    ];
    const GMACS: [&str; 3] = ["nn.conv2d_gmacs", "nn.depthwise_gmacs", "nn.scc_gmacs"];
    debug_assert_eq!(MS.len(), KINDS.len());
    for (name, value) in MS.iter().zip(walk.kind_ms) {
        layers.insert(name, value);
    }
    for (kind, name) in GMACS.iter().enumerate() {
        if walk.kind_ms[kind] > 0.0 {
            layers.insert(
                name,
                walk.kind_macs[kind] as f64 / (walk.kind_ms[kind] * 1e6),
            );
        }
    }
    layers.insert("nn.walk_gap_ms", walk.gap_ms);
    layers.insert("nn.macs_per_op", model.forward_macs(op.shape()) as f64);
}

/// Median ms of `iters` whole-model `infer` calls.
fn whole_infer_ms(model: &Sequential, input: &Tensor, iters: usize) -> f64 {
    probe_us(iters, 1, || {
        black_box(model.infer(input));
    }) / 1e3
}

/// The traced run of an `rpc_*` workload.
pub fn traced_rpc(w: &Workload, served: &mut Served, seconds: f64) -> Traced {
    let mut layers = Layers::new();
    let mut problems = Vec::new();
    let blocks = pass_blocks(seconds);
    let epoch = Instant::now();
    let addr = served.server.local_addr();
    let block = Budget::Ops(w.block_ops);
    let run_on =
        |client: &mut dsx_net::NetClient, addr, budget, rec: Option<&mut Recorder>| match w.name {
            "rpc_solo" => rpc::run_solo(&served.oracle, client, budget, w.block_ops, epoch, rec),
            "rpc_sat" => rpc::run_sat(&served.oracle, client, budget, w.block_ops, epoch, rec),
            _ => rpc::run_open(&served.oracle, addr, budget, w.block_ops, epoch, rec),
        };

    let (reference, allocs) =
        reference_pass(blocks, || run_on(&mut served.client, addr, block, None));

    // The traced pass gets a server of its own, so the `ServeSnapshot` it
    // returns on shutdown covers exactly this pass and nothing else.
    let traced_server = rpc::start_server(&served.model);
    let mut traced_client = rpc::connect(traced_server.local_addr());
    let mut rec = Recorder::new(epoch, 0);
    dsx_obs::enable(true);
    let traced = run_on(
        &mut traced_client,
        traced_server.local_addr(),
        Budget::Ops(blocks * w.block_ops),
        Some(&mut rec),
    );
    dsx_obs::enable(false);
    drop(traced_client);
    let snap = traced_server.shutdown();
    problems.extend(rpc::snapshot_problems(&snap));
    layers.insert("serve.batch_mean", snap.mean_batch_occupancy);
    layers.insert("serve.batches", snap.batches as f64);
    layers.insert("serve.engine_p50_ms", snap.p50_latency_us as f64 / 1e3);
    layers.insert("serve.engine_p99_ms", snap.p99_latency_us as f64 / 1e3);
    layers.insert("serve.shed", snap.shed_requests as f64);
    layers.insert("serve.dropped", snap.dropped_requests as f64);

    ladder(served, &mut rec, &mut layers, &mut problems);
    pass_metrics(w, &reference, &allocs, &traced, &rec, &mut layers);
    lifecycle_metrics(&served.lifecycle, &mut layers);
    layers.insert("net.conn_setup_ms", served.conn_setup_ms);
    wire_probes(served, &mut layers);

    // The served model layer by layer, at the batch size this traffic mix
    // mostly runs it at.
    let batch = match w.name {
        "rpc_solo" => 1,
        "rpc_open" => 4,
        _ => 8,
    };
    let stack =
        |tensors: &[Tensor]| Tensor::cat_batch(&tensors[..batch].iter().collect::<Vec<_>>());
    let input = stack(&served.oracle.pool);
    let want = stack(&served.oracle.expected);
    let check = |_, out: &Tensor| close(out, &want, 1e-4);
    layer_table(
        &served.model,
        std::slice::from_ref(&input),
        &served.oracle.pool[0],
        40,
        check,
        &mut layers,
        &mut problems,
    );

    let mut ops = reference.ops;
    ops.extend(traced.ops);
    Traced {
        ops,
        layers,
        problems,
    }
}

/// The subtraction ladder: the same 200 inputs through direct `infer`, the
/// in-process engine, and TCP, interleaved so drift hits all three alike.
/// `serve.hop_us` and `net.hop_us` are differences of neighbouring medians,
/// so direct `infer` + both hops is the TCP round trip.
fn ladder(
    served: &mut Served,
    rec: &mut Recorder,
    layers: &mut Layers,
    problems: &mut Vec<String>,
) {
    let model: std::sync::Arc<dyn Layer> = served.model.clone();
    let engine = ServeEngine::start(model, rpc::serve_config());
    let handle = engine.handle();
    let first = rec.spans().len();
    for i in 0..200 {
        let input = &served.oracle.pool[i % rpc::POOL];
        let want = &served.oracle.expected[i % rpc::POOL];
        let req = Some(i as u64);
        let direct = rec.span("nn.infer", req, || served.model.infer(input));
        let owned = input.clone();
        let engine_out = rec.span("serve.infer", req, || handle.infer(owned));
        let tcp_out = rec.span("net.infer", req, || served.client.infer(input));
        let all_ok = close(&direct, want, 1e-4)
            && engine_out.is_ok_and(|out| close(&out, want, 1e-4))
            && tcp_out.is_ok_and(|out| close(&out, want, 1e-4));
        if !all_ok {
            problems.push(format!("ladder input {i}: the three paths disagree"));
        }
    }
    drop(handle);
    problems.extend(rpc::snapshot_problems(&engine.shutdown()));
    let rung = |name| median(&durations_ms(&rec.spans()[first..], name)) * 1e3;
    let (direct, engine, tcp) = (rung("nn.infer"), rung("serve.infer"), rung("net.infer"));
    layers.insert("serve.hop_us", engine - direct);
    layers.insert("net.hop_us", tcp - engine);
}

/// `tensor.*` batching and wire codecs, `net.*` framing: isolated loops
/// over one request and its reply.
fn wire_probes(served: &Served, layers: &mut Layers) {
    let pool = &served.oracle.pool;
    let parts: Vec<&Tensor> = pool[..8].iter().collect();
    layers.insert(
        "tensor.cat8_us",
        probe_us(200, 10, || {
            black_box(Tensor::cat_batch(black_box(&parts)));
        }),
    );
    let outputs: Vec<&Tensor> = served.oracle.expected[..8].iter().collect();
    let batched = Tensor::cat_batch(&outputs);
    layers.insert(
        "tensor.split8_us",
        probe_us(200, 10, || {
            black_box(black_box(&batched).split_batch(&[1; 8]));
        }),
    );

    let mut wire = Vec::new();
    layers.insert(
        "tensor.wire_enc_us",
        probe_us(200, 10, || {
            wire.clear();
            black_box(&pool[0]).encode_wire(&mut wire);
            black_box(&wire);
        }),
    );
    layers.insert(
        "tensor.wire_dec_us",
        probe_us(200, 10, || {
            black_box(
                Tensor::decode_wire(black_box(&wire)).expect("decoding what encode_wire wrote"),
            );
        }),
    );

    let request = Frame::Request {
        id: 1,
        deadline_us: 0,
        tensor: pool[0].clone(),
    };
    let response = Frame::Response {
        id: 1,
        tensor: served.oracle.expected[0].clone(),
    };
    layers.insert(
        "net.frame_enc_us",
        probe_us(200, 10, || {
            black_box(encode_frame(black_box(&request)));
            black_box(encode_frame(black_box(&response)));
        }),
    );
    let (request_bytes, response_bytes) = (encode_frame(&request), encode_frame(&response));
    layers.insert(
        "net.frame_dec_us",
        probe_us(200, 10, || {
            black_box(
                read_frame(&mut black_box(&request_bytes[..])).expect("a frame encode_frame wrote"),
            );
            black_box(
                read_frame(&mut black_box(&response_bytes[..]))
                    .expect("a frame encode_frame wrote"),
            );
        }),
    );
    layers.insert(
        "net.bytes_per_op",
        (request_bytes.len() + response_bytes.len()) as f64,
    );
}

/// The traced run of `scc_infer`: the traced pass *is* the layer walk.
pub fn traced_infer(w: &Workload, infer: &scc::Infer, seconds: f64, seed: u64) -> Traced {
    let mut layers = Layers::new();
    let mut problems = Vec::new();
    let blocks = pass_blocks(seconds);
    let epoch = Instant::now();

    let (reference, allocs) = reference_pass(blocks, || {
        infer.run(Budget::Ops(w.block_ops), w.block_ops, epoch)
    });
    let mut rec = Recorder::new(epoch, 0);
    dsx_obs::enable(true);
    let layer_walk = walk(
        &infer.model,
        &infer.inputs,
        blocks * w.block_ops,
        epoch,
        Some(&mut rec),
        |idx, out| infer.output_ok(idx, out),
    );
    dsx_obs::enable(false);
    let traced = RunOut {
        ops: layer_walk.ops,
        ..RunOut::default()
    };
    pass_metrics(w, &reference, &allocs, &traced, &rec, &mut layers);
    check_exact_allocs(&allocs, &mut problems);
    lifecycle_metrics(&infer.lifecycle, &mut layers);
    let check = |idx, out: &Tensor| infer.output_ok(idx, out);
    layer_table(
        &infer.model,
        &infer.inputs,
        &infer.inputs[0],
        30,
        check,
        &mut layers,
        &mut problems,
    );
    core_probes(seed, &mut layers, &mut problems);
    pool_probe(&infer.model, &infer.inputs[0], &mut layers);

    let mut ops = reference.ops;
    ops.extend(traced.ops);
    Traced {
        ops,
        layers,
        problems,
    }
}

/// The traced run of `scc_train`: each traced step is its four calls.
pub fn traced_train(w: &Workload, train: &mut scc::Train, seconds: f64, seed: u64) -> Traced {
    let mut layers = Layers::new();
    let mut problems = Vec::new();
    let blocks = pass_blocks(seconds);
    let epoch = Instant::now();

    let (reference, allocs) = reference_pass(blocks, || {
        train.run(Budget::Ops(w.block_ops), w.block_ops, epoch, None)
    });
    let mut rec = Recorder::new(epoch, 0);
    dsx_obs::enable(true);
    let traced = train.run(
        Budget::Ops(blocks * w.block_ops),
        w.block_ops,
        epoch,
        Some(&mut rec),
    );
    dsx_obs::enable(false);
    for (metric, span) in [
        ("nn.fwd_train_ms", "train.fwd"),
        ("nn.loss_ms", "train.loss"),
        ("nn.bwd_ms", "train.bwd"),
        ("nn.optim_ms", "train.optim"),
    ] {
        layers.insert(metric, median(&durations_ms(rec.spans(), span)));
    }
    pass_metrics(w, &reference, &allocs, &traced, &rec, &mut layers);
    check_exact_allocs(&allocs, &mut problems);
    lifecycle_metrics(&train.lifecycle, &mut layers);

    // The same layers the other way round: the inference walk at this
    // workload's batch size, for the forward half of the table.
    let images = &train.batches[0].images;
    let check = |_, out: &Tensor| out.find_non_finite().is_none();
    layer_table(
        &train.model,
        std::slice::from_ref(images),
        images,
        20,
        check,
        &mut layers,
        &mut problems,
    );
    core_probes(seed, &mut layers, &mut problems);
    pool_probe(&train.model, images, &mut layers);

    let mut ops = reference.ops;
    ops.extend(traced.ops);
    Traced {
        ops,
        layers,
        problems,
    }
}

/// `core.*`: `SlidingChannelConv2d::forward` / `backward` alone, on two
/// shapes of 2.10 MMAC per image each (cg 2, co 0.5, one image per call):
/// `wide` is early-network (few channels, large plane), `deep` is
/// late-network (many channels, 4×4 plane). Weights' seed, input and output
/// gradient come from the run's `core.probe` stream.
fn core_probes(seed: u64, layers: &mut Layers, problems: &mut Vec<String>) {
    let mut rng = SplitMix64::stream(seed, "core.probe");
    let shapes = [
        (
            "wide",
            128,
            16,
            "core.fwd_gmacs_wide",
            "core.bwd_gmacs_wide",
        ),
        ("deep", 512, 4, "core.fwd_gmacs_deep", "core.bwd_gmacs_deep"),
    ];
    for (shape, channels, hw, fwd_metric, bwd_metric) in shapes {
        let cfg = SccConfig::new(channels, channels, 2, 0.5).expect("a valid SCC shape");
        let input = rng.tensor(&[1, channels, hw, hw]);
        let grad = rng.tensor(&[1, channels, hw, hw]);
        let weight_seed = rng.next_u64();
        let macs = cfg.forward_macs(1, hw) as f64;
        let layer_for = |implementation| {
            SlidingChannelConv2d::with_seed(cfg, weight_seed)
                .with_backend(BackendKind::Blocked)
                .with_implementation(implementation)
        };
        let time = |layer: &SlidingChannelConv2d, samples| {
            let fwd_us = probe_us(samples, 1, || {
                black_box(layer.forward(black_box(&input)));
            });
            let bwd_us = probe_us(samples, 1, || {
                black_box(layer.backward(black_box(&input), black_box(&grad)));
            });
            (fwd_us, bwd_us)
        };

        let dsx = layer_for(SccImplementation::Dsxplore);
        let (fwd_us, bwd_us) = time(&dsx, 200);
        // MACs per µs ÷ 1000 is GMAC/s; the backward pass does the forward
        // MACs twice over (input gradient and weight gradient).
        layers.insert(fwd_metric, macs / fwd_us / 1e3);
        layers.insert(bwd_metric, 2.0 * macs / bwd_us / 1e3);

        if shape == "wide" {
            // The paper's Fig. 8/9 ratio: the operator-composition baseline
            // against the DSXplore kernel, same backend, same shape.
            let (base_fwd_us, base_bwd_us) = time(&layer_for(SccImplementation::PytorchBase), 30);
            layers.insert("core.fwd_x_base", base_fwd_us / fwd_us);
            layers.insert("core.bwd_x_base", base_bwd_us / bwd_us);

            // Exact per-call counts of one forward plus one backward.
            let before = dsx.stats().snapshot();
            black_box(dsx.forward(&input));
            black_box(dsx.backward(&input, &grad));
            let after = dsx.stats().snapshot();
            layers.insert(
                "core.bytes_moved",
                (after.bytes_moved - before.bytes_moved) as f64,
            );
            // The DSXplore kernels gather in place and write each gradient
            // once: materialising a buffer or an atomic update is a defect.
            for (metric, count) in [
                (
                    "core.bytes_materialized",
                    after.bytes_materialized - before.bytes_materialized,
                ),
                (
                    "core.bwd_atomics",
                    after.atomic_updates - before.atomic_updates,
                ),
            ] {
                layers.insert(metric, count as f64);
                if count != 0 {
                    problems.push(format!("{metric} is {count}, must be 0"));
                }
            }
        }
    }
}

/// `tensor.pool_t2_x`: the model's `infer` at one kernel thread ÷ at two.
/// Informational — nothing end-to-end runs multi-threaded — and only
/// measurable with a second core. Leaves the process back at one thread.
fn pool_probe(model: &Sequential, input: &Tensor, layers: &mut Layers) {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return;
    }
    let one = whole_infer_ms(model, input, 10);
    dsx_tensor::set_num_threads(2);
    let two = whole_infer_ms(model, input, 10);
    dsx_tensor::set_num_threads(1);
    layers.insert("tensor.pool_t2_x", one / two);
}
