//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics each tied in advance to the
//! end-to-end metric and workload it should move. `BENCHMARK.json` lists the
//! same names; a unit test keeps the two in step.

/// One workload and its fixed knobs.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Operations per block: about one second of work on the host the
    /// counts were sized on. Fixed, so both sides of a comparison do the
    /// same work per block.
    pub block_ops: usize,
    /// Blocks to the tail pool (see `stats::summarize`): the fewest that
    /// hold 100 operations, so ten samples lie beyond the pool's p90.
    pub tail_blocks: usize,
    /// A correct result later than this misses `ok_share`.
    pub limit_ms: f64,
    /// What `ops_per_s` counts per operation (requests, or images).
    pub units_per_op: f64,
    /// Arrivals follow a schedule instead of waiting for replies, so the
    /// rate is taken over the whole run (see `stats::summarize`).
    pub open_loop: bool,
}

/// The latency limit of every `rpc_*` workload. It sits far outside the
/// tail (≈30 round trips of `rpc_solo`) and outside the host's own stalls:
/// at 100 ms, neighbour bursts alone cost `rpc_open` up to 22 % of a run;
/// at 250 ms none of 66 sizing runs lost a request. So `ok_share` stays at 1
/// until the server itself really overloads.
const RPC_LIMIT_MS: f64 = 250.0;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "rpc_solo",
        why: "one closed-loop client: batching bypassed, so latency is max_wait + batch-1 infer + the wire/queue hop",
        block_ops: 125,
        tail_blocks: 1,
        limit_ms: RPC_LIMIT_MS,
        units_per_op: 1.0,
        open_loop: false,
    },
    Workload {
        name: "rpc_open",
        why: "open loop, Poisson 240 req/s: above unbatched capacity, so batcher and queue do the work and backlog shows as tail",
        block_ops: 240,
        tail_blocks: 1,
        limit_ms: RPC_LIMIT_MS,
        units_per_op: 1.0,
        open_loop: true,
    },
    Workload {
        name: "rpc_sat",
        why: "16 requests pipelined in flight: every batch full, peak throughput, wire hop and max_wait hidden behind compute",
        block_ops: 400,
        tail_blocks: 1,
        limit_ms: RPC_LIMIT_MS,
        units_per_op: 1.0,
        open_loop: false,
    },
    Workload {
        name: "scc_infer",
        why: "in-process MobileNet DW+SCC inference at batch 4: the SCC forward and depthwise kernels the rpc mixes barely touch",
        block_ops: 15,
        tail_blocks: 7,
        limit_ms: f64::INFINITY,
        units_per_op: 4.0,
        open_loop: false,
    },
    Workload {
        name: "scc_train",
        why: "training steps on the same model at batch 2: SCC backward kernels dominate, so a forward-only gain that costs training shows",
        block_ops: 9,
        tail_blocks: 12,
        limit_ms: f64::INFINITY,
        units_per_op: 2.0,
        open_loop: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// `BENCHMARK.json`'s bound: the share of the parent's median by which
    /// the metric may worsen before a driver rejects a change. A metric has
    /// one for all five workloads and a driver only accepts it if every
    /// workload's run-to-run spread stays inside it, so the noisiest
    /// workload (`rpc_open`) sets it.
    pub bound: f64,
    /// The issue's bound, which `compare` judges by on every workload: a
    /// workload too noisy to resolve it reads `unresolved` there instead of
    /// widening the bound for the quiet ones.
    pub compare_bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    compare_bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        compare_bound,
    }
}

pub const END_TO_END: [EndToEnd; 6] = [
    end_to_end("p50_ms", "ms", false, 0.25, 0.05),
    end_to_end("tail_ms", "ms", false, 0.25, 0.10),
    end_to_end("ops_per_s", "1/s", true, 0.15, 0.05),
    end_to_end("ok_share", "share", true, 0.05, 0.01),
    end_to_end("setup_s", "s", false, 0.25, 0.10),
    end_to_end("peak_rss_mb", "MB", false, 0.10, 0.10),
];

/// A per-layer metric. `moves` names the end-to-end metric and workload it
/// should move; on every other workload the prediction is no change. A
/// workload that does not exercise a metric reports it as 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
        moves,
    }
}

pub const PER_LAYER: [PerLayer; 53] = [
    // dsx-tensor
    layer(
        "tensor.cat8_us",
        "us",
        false,
        "ops_per_s@rpc_sat, tail_ms@rpc_open",
    ),
    layer(
        "tensor.split8_us",
        "us",
        false,
        "ops_per_s@rpc_sat, tail_ms@rpc_open",
    ),
    layer("tensor.wire_enc_us", "us", false, "p50_ms@rpc_solo"),
    layer("tensor.wire_dec_us", "us", false, "p50_ms@rpc_solo"),
    layer(
        "tensor.pool_t2_x",
        "x",
        true,
        "none (nothing end-to-end runs multi-threaded)",
    ),
    // dsx-core
    layer("core.fwd_gmacs_wide", "GMAC/s", true, "ops_per_s@scc_infer"),
    layer("core.fwd_gmacs_deep", "GMAC/s", true, "ops_per_s@scc_infer"),
    layer("core.bwd_gmacs_wide", "GMAC/s", true, "ops_per_s@scc_train"),
    layer("core.bwd_gmacs_deep", "GMAC/s", true, "ops_per_s@scc_train"),
    layer(
        "core.fwd_x_base",
        "x",
        true,
        "none (the paper's Fig. 8 ratio)",
    ),
    layer(
        "core.bwd_x_base",
        "x",
        true,
        "none (the paper's Fig. 9 ratio)",
    ),
    layer(
        "core.bytes_moved",
        "count",
        false,
        "ops_per_s@scc_infer, ops_per_s@scc_train",
    ),
    layer("core.bytes_materialized", "count", false, "must stay 0"),
    layer("core.bwd_atomics", "count", false, "must stay 0"),
    // dsx-nn
    layer(
        "nn.conv2d_ms",
        "ms",
        false,
        "p50_ms@rpc_solo, ops_per_s@rpc_sat",
    ),
    layer(
        "nn.depthwise_ms",
        "ms",
        false,
        "p50_ms@scc_infer, ops_per_s@scc_infer",
    ),
    layer(
        "nn.scc_ms",
        "ms",
        false,
        "p50_ms@scc_infer, ops_per_s@scc_infer",
    ),
    layer("nn.bn_ms", "ms", false, "p50_ms@scc_infer"),
    layer("nn.relu_ms", "ms", false, "p50_ms@scc_infer"),
    layer("nn.pool_ms", "ms", false, "p50_ms@scc_infer"),
    layer("nn.linear_ms", "ms", false, "p50_ms@scc_infer"),
    layer("nn.other_ms", "ms", false, "p50_ms@scc_infer"),
    layer(
        "nn.conv2d_gmacs",
        "GMAC/s",
        true,
        "p50_ms@rpc_solo, ops_per_s@rpc_sat",
    ),
    layer("nn.depthwise_gmacs", "GMAC/s", true, "ops_per_s@scc_infer"),
    layer("nn.scc_gmacs", "GMAC/s", true, "ops_per_s@scc_infer"),
    layer(
        "nn.walk_gap_ms",
        "ms",
        false,
        "p50_ms@scc_infer, p50_ms@rpc_solo",
    ),
    layer("nn.fwd_train_ms", "ms", false, "p50_ms@scc_train"),
    layer("nn.loss_ms", "ms", false, "p50_ms@scc_train"),
    layer("nn.bwd_ms", "ms", false, "p50_ms@scc_train"),
    layer("nn.optim_ms", "ms", false, "p50_ms@scc_train"),
    layer(
        "nn.macs_per_op",
        "count",
        false,
        "p50_ms on the same workload",
    ),
    // dsx-models
    layer("models.build_ms", "ms", false, "setup_s on every workload"),
    layer(
        "models.ckpt_enc_ms",
        "ms",
        false,
        "setup_s on every workload",
    ),
    layer(
        "models.ckpt_dec_ms",
        "ms",
        false,
        "setup_s on every workload",
    ),
    layer("models.ckpt_kb", "KB", false, "setup_s on every workload"),
    // dsx-serve
    layer("serve.hop_us", "us", false, "p50_ms@rpc_solo"),
    layer(
        "serve.batch_mean",
        "count",
        true,
        "tail_ms@rpc_open, ops_per_s@rpc_sat",
    ),
    layer(
        "serve.batches",
        "count",
        false,
        "tail_ms@rpc_open, ops_per_s@rpc_sat",
    ),
    layer(
        "serve.engine_p50_ms",
        "ms",
        false,
        "tail_ms@rpc_open, ops_per_s@rpc_sat",
    ),
    layer("serve.engine_p99_ms", "ms", false, "tail_ms@rpc_open"),
    layer(
        "serve.shed",
        "count",
        false,
        "ok_share@rpc_open (must stay 0)",
    ),
    layer(
        "serve.dropped",
        "count",
        false,
        "ok_share on every rpc workload (must stay 0)",
    ),
    // dsx-net
    layer(
        "net.hop_us",
        "us",
        false,
        "p50_ms@rpc_solo; hidden on rpc_sat",
    ),
    layer("net.frame_enc_us", "us", false, "p50_ms@rpc_solo"),
    layer("net.frame_dec_us", "us", false, "p50_ms@rpc_solo"),
    layer("net.bytes_per_op", "count", false, "p50_ms@rpc_solo"),
    layer("net.conn_setup_ms", "ms", false, "setup_s@rpc_*"),
    // dsx-obs
    layer(
        "obs.trace_x",
        "x",
        false,
        "none (traced ÷ untraced p50: the tracing overhead)",
    ),
    layer(
        "obs.spans",
        "count",
        false,
        "none (events dsx-obs collected in the traced block)",
    ),
    // the counting allocator
    layer(
        "mem.allocs_per_op",
        "count",
        false,
        "p50_ms@rpc_solo, ops_per_s@scc_infer",
    ),
    layer(
        "mem.alloc_kb_per_op",
        "KB",
        false,
        "p50_ms@rpc_solo, ops_per_s@scc_infer",
    ),
    // the load generator itself
    layer(
        "gen.late_p99_ms",
        "ms",
        false,
        "none (>5 ms flags an rpc_open run: not the load described)",
    ),
    layer(
        "gen.inflight_max",
        "count",
        false,
        "none (proves the load was the one described)",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn names(list: &Value) -> Vec<String> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must name the same things with the same units,
    /// directions and bounds.
    #[test]
    fn tables_match_benchmark_json() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/");
        let text = ["../../BENCHMARK.json", "../../../../BENCHMARK.json"]
            .iter()
            .find_map(|rel| std::fs::read_to_string(format!("{root}{rel}")).ok())
            .expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(f64::from(crate::driver::RUN_SECONDS)),
            "`run` measures for as long as a driver's run does"
        );

        let workloads = doc.get("workloads").unwrap();
        assert_eq!(names(workloads), WORKLOADS.map(|w| w.name.to_string()));
        for (listed, ours) in workloads.as_array().unwrap().iter().zip(&WORKLOADS) {
            assert_eq!(listed.get("why").unwrap().as_str(), Some(ours.why));
            assert!(ours.why.len() <= 200, "{}", ours.name);
        }

        let direction = |higher| if higher { "higher" } else { "lower" };
        let e2e = doc.get("end_to_end").unwrap();
        assert_eq!(names(e2e), END_TO_END.map(|m| m.name.to_string()));
        for (listed, ours) in e2e.as_array().unwrap().iter().zip(&END_TO_END) {
            assert_eq!(
                listed.get("unit").unwrap().as_str(),
                Some(ours.unit),
                "{}",
                ours.name
            );
            assert_eq!(
                listed.get("better").unwrap().as_str(),
                Some(direction(ours.higher_is_better))
            );
            assert_eq!(
                listed.get("bound").unwrap().as_f64(),
                Some(ours.bound),
                "{}",
                ours.name
            );
        }

        let layers = doc.get("per_layer").unwrap();
        assert_eq!(
            names(layers),
            PER_LAYER
                .iter()
                .map(|m| m.name.to_string())
                .collect::<Vec<_>>()
        );
        for (listed, ours) in layers.as_array().unwrap().iter().zip(&PER_LAYER) {
            assert_eq!(
                listed.get("unit").unwrap().as_str(),
                Some(ours.unit),
                "{}",
                ours.name
            );
            assert_eq!(
                listed.get("better").unwrap().as_str(),
                Some(direction(ours.higher_is_better))
            );
        }
    }

    #[test]
    fn every_layer_metric_names_its_crate() {
        for m in &PER_LAYER {
            let layer = m.name.split('.').next().unwrap();
            assert!(
                ["tensor", "core", "nn", "models", "serve", "net", "obs", "mem", "gen"]
                    .contains(&layer),
                "{}",
                m.name
            );
            assert!(!m.moves.is_empty());
        }
    }
}
