//! PR6 dense-conv bench: every backend's cache-free `Conv2d` forward at 1
//! and N pool threads on the CIFAR-scale and large-plane dense workloads —
//! written to `BENCH_PR6.json` and gated in CI by `DSX_DENSE_MIN_SPEEDUP`
//! (multi-core hosts only; see `dsx_bench::pr6` for the knobs and skip
//! rules).

use dsx_bench::{pr5, pr6};

const DENSE_SAMPLES: usize = 11;

fn main() {
    let cores = pr5::available_cores();
    println!("PR6 dense-conv bench: {cores} cores, {DENSE_SAMPLES} samples per point");
    for shape in pr6::DENSE_WORKLOADS {
        println!(
            "  workload {:<5}: {}x{} k{} s{} p{} batch {} @ {}x{} ({} MACs/forward)",
            shape.label,
            shape.cin,
            shape.cout,
            shape.kernel,
            shape.stride,
            shape.pad,
            shape.batch,
            shape.hw,
            shape.hw,
            shape.forward_macs(),
        );
    }
    let rows = pr6::measure_dense(DENSE_SAMPLES);
    let report = pr6::Pr6Report { cores, rows };
    pr6::finish_report(&report);
}
