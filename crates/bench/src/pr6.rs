//! BENCH_PR6: dense-convolution parity report for the CI perf gate.
//!
//! PR 6 brought the dense `Conv2d` layers onto the backend system: the
//! `blocked`/`tiled` backends route im2col through a register-tiled
//! (pool-scheduled) GEMM. This module measures every backend on two dense
//! workloads and gates the pool-scheduled path against the historical one:
//!
//! * **`cifar`** ([`DENSE_CIFAR`]) — a CIFAR-scale 3×3 convolution on
//!   16×16 planes, the shape the accuracy experiments train on.
//! * **`large`** ([`DENSE_LARGE`]) — 64×64 planes, the regime where the
//!   GEMM is long and the pool scheduler is designed to win.
//!
//! Each backend's cache-free forward ([`dsx_nn::Layer::infer`]) is timed at
//! one pool thread and at the host's full thread count. The `naive` rows
//! are the exact pre-PR6 path (im2col + the historical size-picked GEMM)
//! and serve as the gate baseline.
//!
//! Environment knobs (read by [`finish_report`]):
//!
//! * `DSX_DENSE_BENCH_JSON` — output path (default `<repo>/BENCH_PR6.json`).
//! * `DSX_DENSE_MIN_SPEEDUP` — when set (CI: `1.3`), fail unless the tiled
//!   (pool-scheduled register-tiled GEMM) forward beats the naive forward
//!   by that factor at full thread count on the `large` workload, **and**
//!   at least matches it (`>= 1.0`) on `cifar` — short GEMMs leave less
//!   room over the LLC-resident naive path, so `cifar` is a no-regression
//!   floor rather than a speedup target.
//!
//! The gate only engages on multi-core hosts
//! (`available_parallelism() > 1`): on one core the pool runs inline and
//! the ratios mostly measure noise, so single-core containers stay green
//! by design.

use crate::report::median_ns;
use dsx_core::BackendKind;
use dsx_nn::{Conv2d, Layer};
use dsx_tensor::Tensor;
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Shape of one dense-convolution benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct DenseShape {
    /// Row label in the report (`"cifar"` / `"large"`).
    pub label: &'static str,
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Spatial stride.
    pub stride: usize,
    /// Zero padding per border.
    pub pad: usize,
    /// Batch size.
    pub batch: usize,
    /// Square feature-map side.
    pub hw: usize,
}

/// CIFAR-scale dense workload: the 3×3 stage shape the accuracy
/// experiments train (GEMM `64 × 288 × 2048` after lowering).
pub const DENSE_CIFAR: DenseShape = DenseShape {
    label: "cifar",
    cin: 32,
    cout: 64,
    kernel: 3,
    stride: 1,
    pad: 1,
    batch: 8,
    hw: 16,
};

/// Large-plane dense workload: 64×64 feature maps, long GEMM strips
/// (`64 × 288 × 8192`), the regime the pool-scheduled GEMM targets.
pub const DENSE_LARGE: DenseShape = DenseShape {
    label: "large",
    cin: 32,
    cout: 64,
    kernel: 3,
    stride: 1,
    pad: 1,
    batch: 2,
    hw: 64,
};

/// The two workloads every backend is measured on.
pub const DENSE_WORKLOADS: [DenseShape; 2] = [DENSE_CIFAR, DENSE_LARGE];

impl DenseShape {
    /// Builds the layer under test on the given backend (bias kept — the
    /// serving models run conv+bias fused the same way).
    pub fn layer(&self, backend: BackendKind) -> Conv2d {
        Conv2d::new(self.cin, self.cout, self.kernel, self.stride, self.pad, 7)
            .with_backend(backend)
    }

    /// A deterministic input batch for this shape.
    pub fn input(&self) -> Tensor {
        Tensor::randn(&[self.batch, self.cin, self.hw, self.hw], 11)
    }

    /// Multiply-accumulates per forward call.
    pub fn forward_macs(&self) -> usize {
        self.layer(BackendKind::Naive)
            .forward_macs(&[self.batch, self.cin, self.hw, self.hw])
    }
}

/// Median cache-free forward time of one backend at one thread count on
/// one dense workload.
#[derive(Debug, Clone)]
pub struct DenseRow {
    /// Workload label (`"cifar"` or `"large"`).
    pub workload: &'static str,
    /// Backend measured.
    pub backend: BackendKind,
    /// Pool thread count the measurement ran at.
    pub threads: usize,
    /// Median wall-clock nanoseconds per forward call.
    pub forward_ns: f64,
}

/// The full BENCH_PR6 report.
#[derive(Debug, Clone)]
pub struct Pr6Report {
    /// `available_parallelism()` of the measuring host.
    pub cores: usize,
    /// Measured rows (backend × thread count × workload).
    pub rows: Vec<DenseRow>,
}

impl Pr6Report {
    fn forward(&self, workload: &str, backend: BackendKind, threads: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.backend == backend && r.threads == threads)
            .map(|r| r.forward_ns)
    }

    /// Naive-over-`backend` forward ratio at full thread count on one
    /// workload — the gate metric (`> 1` means `backend` is faster).
    pub fn speedup_vs_naive(&self, workload: &str, backend: BackendKind) -> Option<f64> {
        let naive = self.forward(workload, BackendKind::Naive, self.cores)?;
        let other = self.forward(workload, backend, self.cores)?;
        (other > 0.0).then(|| naive / other)
    }
}

/// Measures the cache-free forward median of every backend at one thread
/// and at the host's full thread count, on both dense workloads. Restores
/// the hardware-default thread count before returning.
pub fn measure_dense(samples: usize) -> Vec<DenseRow> {
    measure_dense_shapes(&DENSE_WORKLOADS, samples)
}

/// [`measure_dense`] over an explicit workload list (the unit tests run a
/// miniature shape through the same loop).
pub fn measure_dense_shapes(shapes: &[DenseShape], samples: usize) -> Vec<DenseRow> {
    let cores = crate::pr5::available_cores();
    let mut thread_counts = vec![1usize];
    if cores > 1 {
        thread_counts.push(cores);
    }
    let mut rows = Vec::new();
    for &shape in shapes {
        let input = shape.input();
        for &threads in &thread_counts {
            dsx_tensor::set_num_threads(threads);
            for backend in BackendKind::ALL {
                let layer = shape.layer(backend);
                rows.push(DenseRow {
                    workload: shape.label,
                    backend,
                    threads,
                    forward_ns: median_ns(samples, || {
                        black_box(layer.infer(black_box(&input)));
                    }),
                });
            }
        }
    }
    dsx_tensor::set_num_threads(0);
    rows
}

fn fmt_ratio(ratio: Option<f64>) -> String {
    ratio
        .map(|r| format!("{r:.3}"))
        .unwrap_or_else(|| "null".to_string())
}

/// Renders the report as a stable, dependency-free JSON document.
pub fn render_json(report: &Pr6Report) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"dsx-bench/pr6-dense-conv/1\",\n");
    out.push_str(&format!("  \"cores\": {},\n", report.cores));
    out.push_str("  \"dense\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"backend\": \"{}\", \"threads\": {}, \
             \"forward_median_ns\": {:.0}}}{}\n",
            row.workload,
            row.backend,
            row.threads,
            row.forward_ns,
            if i + 1 < report.rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    let mut ratios = Vec::new();
    for shape in DENSE_WORKLOADS {
        ratios.push(format!(
            "  \"tiled_vs_naive_{}\": {}",
            shape.label,
            fmt_ratio(report.speedup_vs_naive(shape.label, BackendKind::Tiled)),
        ));
    }
    out.push_str(&ratios.join(",\n"));
    out.push_str("\n}\n");
    out
}

/// Where the report lands: `DSX_DENSE_BENCH_JSON` if set, else
/// `BENCH_PR6.json` at the repository root.
pub fn json_path() -> PathBuf {
    if let Ok(path) = std::env::var("DSX_DENSE_BENCH_JSON") {
        return PathBuf::from(path);
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR6.json")
}

fn env_gate(name: &str) -> Option<f64> {
    let raw = std::env::var(name).ok()?;
    Some(
        raw.parse::<f64>()
            .unwrap_or_else(|e| panic!("{name} must be a float: {e}")),
    )
}

/// Writes the JSON report, prints a human summary, and enforces the
/// `DSX_DENSE_MIN_SPEEDUP` gate (multi-core hosts only). Exits the process
/// with status 1 when the gate fails, so the CI perf job fails the build.
pub fn finish_report(report: &Pr6Report) {
    let json = render_json(report);
    let path = json_path();
    std::fs::write(&path, &json)
        .unwrap_or_else(|e| panic!("cannot write PR6 report {}: {e}", path.display()));

    println!("\nPR6 dense-conv report ({} cores)", report.cores);
    for row in &report.rows {
        println!(
            "  dense:  {:<5} {:<8} threads {:>2} | forward median {:>12.0} ns",
            row.workload,
            row.backend.name(),
            row.threads,
            row.forward_ns,
        );
    }
    for shape in DENSE_WORKLOADS {
        println!(
            "  {}: tiled {}x naive (full threads)",
            shape.label,
            fmt_ratio(report.speedup_vs_naive(shape.label, BackendKind::Tiled)),
        );
    }
    println!("  wrote {}", path.display());

    let multi_core = report.cores > 1;
    if let Some(min) = env_gate("DSX_DENSE_MIN_SPEEDUP") {
        if multi_core {
            // Tiled: the speedup target on the long-GEMM workload, a plain
            // no-regression floor on the short one.
            for (label, floor) in [("large", min), ("cifar", 1.0)] {
                let tiled = report
                    .speedup_vs_naive(label, BackendKind::Tiled)
                    .expect("tiled and naive were measured at full threads");
                if tiled < floor {
                    eprintln!(
                        "DENSE GATE FAILED: pool-scheduled GEMM forward is only {tiled:.2}x \
                         the naive im2col path on the {label} workload (required {floor:.2}x)"
                    );
                    std::process::exit(1);
                }
                println!("  dense gate passed on {label}: tiled {tiled:.2}x >= {floor:.2}x");
            }
        } else {
            println!("  dense gate skipped: single-core host (pool runs inline)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> Pr6Report {
        let mut rows = Vec::new();
        for (label, naive, tiled) in [
            ("cifar", 4_000_000.0, 2_500_000.0),
            ("large", 40_000_000.0, 20_000_000.0),
        ] {
            for (backend, ns) in [
                (BackendKind::Naive, naive),
                (BackendKind::Blocked, naive * 0.9),
                (BackendKind::Tiled, tiled),
            ] {
                rows.push(DenseRow {
                    workload: label,
                    backend,
                    threads: 4,
                    forward_ns: ns,
                });
            }
        }
        Pr6Report { cores: 4, rows }
    }

    #[test]
    fn speedups_divide_the_right_rows() {
        let report = fake_report();
        assert_eq!(
            report.speedup_vs_naive("cifar", BackendKind::Tiled),
            Some(1.6)
        );
        assert_eq!(
            report.speedup_vs_naive("large", BackendKind::Tiled),
            Some(2.0)
        );
        // Rows at the wrong thread count must not satisfy a lookup.
        assert_eq!(report.forward("large", BackendKind::Naive, 1), None);
    }

    #[test]
    fn missing_rows_render_null_ratios() {
        let report = Pr6Report {
            cores: 4,
            rows: Vec::new(),
        };
        let json = render_json(&report);
        assert!(json.contains("\"tiled_vs_naive_large\": null"));
    }

    #[test]
    fn json_contains_every_row_and_ratio() {
        let json = render_json(&fake_report());
        assert!(json.contains("\"schema\": \"dsx-bench/pr6-dense-conv/1\""));
        assert!(json.contains("\"tiled_vs_naive_cifar\": 1.600"));
        assert!(json.contains("\"tiled_vs_naive_large\": 2.000"));
        assert_eq!(json.matches("forward_median_ns").count(), 6);
    }

    #[test]
    fn dense_workload_macs_are_consistent_with_the_shapes() {
        // cout * oh * ow * batch * cin * k².
        assert_eq!(DENSE_CIFAR.forward_macs(), 64 * 16 * 16 * 8 * 32 * 9);
        assert_eq!(DENSE_LARGE.forward_macs(), 64 * 64 * 64 * 2 * 32 * 9);
    }

    #[test]
    fn measured_rows_cover_every_backend() {
        // A miniature shape keeps the end-to-end measurement loop fast in
        // debug builds while exercising every backend.
        let tiny = DenseShape {
            label: "tiny",
            cin: 2,
            cout: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
            batch: 1,
            hw: 8,
        };
        let rows = measure_dense_shapes(&[tiny], 1);
        for backend in BackendKind::ALL {
            assert!(
                rows.iter()
                    .any(|r| r.backend == backend && r.forward_ns > 0.0),
                "no measurement for {backend}"
            );
        }
    }
}
