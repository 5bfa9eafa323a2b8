//! `dsx-experiments` — command-line harness that regenerates every table and
//! figure of the DSXplore paper.
//!
//! ```text
//! dsx-experiments <command> [--train] [--backend <naive|blocked|tiled>]
//!                 [--save PATH] [--trace-out PATH]
//!
//! Commands:
//!   table1 table2 table3 table4 table5
//!   fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//!   atomics      kernel-level atomic-operation study (§V-D)
//!   fusion-cost  SCC vs GPW vs PW time and GMAC/s per MobileNet-CIFAR
//!                fusion layer, batch 1 and 4, one thread (real kernels)
//!   train-serve  train the compact serving tower and (with --save PATH)
//!                write a versioned checkpoint for `dsx-serve --model`
//!   all          run everything (analytic columns only unless --train)
//! ```
//!
//! `--train` additionally measures the accuracy columns by briefly training
//! channel-scaled models on the synthetic datasets (a few minutes on a
//! laptop); without it only the analytic columns are printed.
//!
//! `--backend` selects the SCC kernel execution backend for everything that
//! runs real CPU kernels (the training runs and the atomics study): it sets
//! the process-default backend before any layer is constructed. On `blocked`
//! and `tiled`, depthwise inference runs the direct sliding-window-sum
//! kernel; `naive` is the oracle. Analytic columns are backend-independent.

use dsx_experiments::*;

fn print_accuracy_rows(title: &str, rows: &[AccuracyRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<12} {:<22} {:>10} {:>12} {:>10}",
        "Model", "Implementation", "MFLOPs", "Param. (M)", "Acc. (%)"
    );
    for row in rows {
        let acc = row
            .accuracy
            .map(|a| format!("{:.2}", a * 100.0))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<12} {:<22} {:>10.2} {:>12.2} {:>10}",
            row.model, row.scheme, row.mflops, row.params_m, acc
        );
    }
}

fn print_speedups(title: &str, rows: &[SpeedupRow], baseline: &str) {
    println!("\n=== {title} (speedup over {baseline}) ===");
    println!(
        "{:<12} {:<28} {:>14} {:>12}",
        "Model", "Setting", "Pytorch-Opt(x)", "DSXplore(x)"
    );
    for row in rows {
        let fmt = |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "OOM".into());
        println!(
            "{:<12} {:<28} {:>14} {:>12}",
            row.model,
            row.setting,
            fmt(row.pytorch_opt),
            fmt(row.dsxplore)
        );
    }
}

fn print_series(title: &str, rows: &[SeriesPoint], x_label: &str, y_label: &str) {
    println!("\n=== {title} ===");
    println!("{:<12} {:>12} {:>16}", "Model", x_label, y_label);
    for point in rows {
        println!("{:<12} {:>12.2} {:>16.6}", point.model, point.x, point.y);
    }
}

fn print_fusion_cost(rows: &[FusionCostRow]) {
    let batch = rows.first().map_or(0, |r| r.batch);
    // The ISA names which copy of the dispatched kernels was timed.
    println!(
        "\n=== Fusion-layer cost: MobileNet-CIFAR, batch {batch}, one thread, best of 5, {} ===",
        dsx_tensor::isa::name()
    );
    print!(
        "{:<12} {:>11} {:>5} {:>8}",
        "Layer", "Cin->Cout", "HxW", "MMAC"
    );
    for op in FUSION_OPERATORS {
        print!(" {:>8} {:>8}", format!("{op} ms"), "GMAC/s");
    }
    println!();
    let mut total_ms = [0.0f64; 3];
    let mut total_macs = [0usize; 3];
    for row in rows {
        print!(
            "{:<12} {:>11} {:>5} {:>8.2}",
            row.layer,
            format!("{}->{}", row.cin, row.cout),
            format!("{0}x{0}", row.hw),
            row.macs[0] as f64 / 1.0e6
        );
        for op in 0..FUSION_OPERATORS.len() {
            print!(" {:>8.3} {:>8.2}", row.ms[op], row.gmacs(op));
            total_ms[op] += row.ms[op];
            total_macs[op] += row.macs[op];
        }
        println!();
    }
    print!(
        "{:<12} {:>11} {:>5} {:>8.2}",
        "total",
        "",
        "",
        total_macs[0] as f64 / 1.0e6
    );
    for op in 0..FUSION_OPERATORS.len() {
        let gmacs = total_macs[op] as f64 / (total_ms[op] * 1.0e6);
        print!(" {:>8.3} {:>8.2}", total_ms[op], gmacs);
    }
    println!();
}

fn run(command: &str, train_cfg: Option<&TrainConfig>) {
    match command {
        "table1" => {
            let rows = table1();
            println!("\n=== Table I: SCC vs PW vs GPW (Cin=Cout=256, 16x16) ===");
            println!(
                "{:<8} {:>10} {:>10} {:>8}",
                "Kernel", "MFLOPs", "Params", "Acc."
            );
            for r in rows {
                println!(
                    "{:<8} {:>10.2} {:>10} {:>8}",
                    r.kernel, r.mflops, r.params, r.accuracy_class
                );
            }
        }
        "table2" => print_accuracy_rows("Table II: CIFAR-10 accuracy/cost", &table2(train_cfg)),
        "table3" => print_accuracy_rows("Table III: ImageNet ResNet50", &table3(train_cfg)),
        "table4" => print_accuracy_rows("Table IV: MobileNet DSC ablation", &table4(train_cfg)),
        "table5" => {
            println!("\n=== Table V: VGG16 inference latency (ms) ===");
            println!(
                "{:>10} {:>14} {:>14}",
                "Batch", "DW+GPW (ms)", "DSXplore (ms)"
            );
            for r in table5() {
                println!("{:>10} {:>14.2} {:>14.2}", r.batch, r.gpw_ms, r.dsxplore_ms);
            }
        }
        "fig7" => print_speedups(
            "Figure 7: CIFAR-10 training speedup",
            &fig7(),
            "Pytorch-Base",
        ),
        "fig8" => print_speedups(
            "Figure 8: ImageNet training speedup",
            &fig8(),
            "Pytorch-Opt",
        ),
        "fig9" => {
            println!("\n=== Figure 9: backward-pass runtime (s) ===");
            println!(
                "{:<12} {:>14} {:>14} {:>14} {:>12}",
                "Model", "Pytorch-Base", "Pytorch-Opt", "DSXplore-Var", "DSXplore"
            );
            for r in fig9() {
                println!(
                    "{:<12} {:>14.4} {:>14.4} {:>14.4} {:>12.4}",
                    r.model, r.seconds[0], r.seconds[1], r.seconds[2], r.seconds[3]
                );
            }
        }
        "fig10" => {
            println!("\n=== Figure 10: channel-cyclic optimization memory (MB) ===");
            println!(
                "{:<12} {:>14} {:>14} {:>12}",
                "Model", "w/o CCO (MB)", "w/ CCO (MB)", "Saving (%)"
            );
            for r in fig10() {
                println!(
                    "{:<12} {:>14.1} {:>14.1} {:>12.2}",
                    r.model, r.without_cc_mb, r.with_cc_mb, r.saving_pct
                );
            }
        }
        "fig11" => print_series(
            "Figure 11: runtime vs number of groups (normalised to cg=1)",
            &fig11(),
            "cg",
            "normalised time",
        ),
        "fig12" => print_series(
            "Figure 12: runtime vs channel overlap (normalised to co=10%)",
            &fig12(),
            "co (%)",
            "normalised time",
        ),
        "fig13" => print_series(
            "Figure 13: time per training batch vs batch size",
            &fig13(),
            "batch",
            "time (s)",
        ),
        "fig14" => print_series(
            "Figure 14: multi-GPU scalability",
            &fig14(),
            "GPUs",
            "speedup (x)",
        ),
        "fusion-cost" => {
            // One thread, so GMAC/s compares kernels, not core counts.
            dsx_tensor::set_num_threads(1);
            for batch in [1, 4] {
                print_fusion_cost(&fusion_cost(batch, |layer, x| best_infer_ms(layer, x, 5)));
            }
        }
        "atomics" => {
            println!("\n=== Atomic-operation study (§V-D) ===");
            for r in atomics_study() {
                println!("{:<34} {:>14}", r.design, r.atomic_updates);
            }
        }
        "all" => {
            for cmd in [
                "table1", "table2", "table3", "table4", "table5", "fig7", "fig8", "fig9", "fig10",
                "fig11", "fig12", "fig13", "fig14", "atomics",
            ] {
                run(cmd, train_cfg);
            }
        }
        other => {
            eprintln!("unknown command: {other}");
            eprintln!(
                "commands: table1..table5, fig7..fig14, atomics, fusion-cost, train-serve, all  (add --train for accuracy columns)"
            );
            std::process::exit(2);
        }
    }
}

/// Fully parsed command line. Parsing is side-effect free so every flag —
/// wherever it sits relative to the command — is validated *before* any
/// process state changes or any layer is constructed.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    command: String,
    train: bool,
    backend: Option<dsx_core::BackendKind>,
    save: Option<std::path::PathBuf>,
    /// Enable `dsx-obs` tracing for the run and write Chrome trace-event
    /// JSON here on exit (pool, per-layer and GEMM spans).
    trace_out: Option<std::path::PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut train = false;
    let mut command: Option<String> = None;
    let mut backend = None;
    let mut save = None;
    let mut trace_out = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        // `--flag value` and `--flag=value` spellings for valued flags.
        let mut valued = |flag: &str| -> Result<Option<String>, String> {
            if arg == flag {
                iter.next()
                    .cloned()
                    .map(Some)
                    .ok_or_else(|| format!("{flag} needs a value"))
            } else {
                Ok(arg.strip_prefix(&format!("{flag}=")).map(str::to_string))
            }
        };
        if let Some(value) = valued("--backend")? {
            backend = Some(value.parse::<dsx_core::BackendKind>()?);
        } else if let Some(value) = valued("--save")? {
            save = Some(std::path::PathBuf::from(value));
        } else if let Some(value) = valued("--trace-out")? {
            trace_out = Some(std::path::PathBuf::from(value));
        } else if arg == "--train" {
            train = true;
        } else if !arg.starts_with("--") {
            command.get_or_insert_with(|| arg.clone());
        } else {
            return Err(format!(
                "unknown flag '{arg}' (flags: --train, --backend <naive|blocked|tiled>, --save PATH, --trace-out PATH; \
                 on blocked and tiled, depthwise inference runs the direct sliding-window kernel)"
            ));
        }
    }
    let command = command.unwrap_or_else(|| "all".to_string());
    if save.is_some() && command != "train-serve" {
        return Err(format!(
            "--save only applies to the train-serve command (got '{command}')"
        ));
    }
    Ok(Cli {
        command,
        train,
        backend,
        save,
        trace_out,
    })
}

/// `train-serve`: one short training run of the compact serving tower,
/// optionally checkpointed to disk for `dsx-serve --model`.
fn run_train_serve(save: Option<&std::path::Path>) {
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    };
    let outcome = train_serving_checkpoint(&cfg);
    println!("\n=== train-serve: model lifecycle ===");
    println!(
        "trained {} for 1 epoch: loss {:.4}, train accuracy {:.2}%",
        outcome.checkpoint.spec.name,
        outcome.loss,
        outcome.accuracy * 100.0
    );
    // The exact line `dsx-serve --model` also prints; CI string-compares
    // the two to gate bit-identical save→load round trips.
    println!("model digest: {:08x}", outcome.digest);
    if let Some(path) = save {
        if let Err(e) = outcome.checkpoint.save(path) {
            eprintln!(
                "dsx-experiments: cannot save checkpoint to {}: {e}",
                path.display()
            );
            std::process::exit(1);
        }
        println!(
            "saved checkpoint: {} ({} tensors)",
            path.display(),
            outcome.checkpoint.records.len()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    // Apply the backend before anything builds a layer: the process-wide
    // default is read at construction time, so ordering is correctness, not
    // cosmetics. The announcement line is printed first so the output
    // itself witnesses the ordering (the CLI tests assert on it).
    if let Some(kind) = cli.backend {
        dsx_core::set_default_backend(kind);
        println!("kernel backend: {kind}");
    }
    if cli.trace_out.is_some() {
        dsx_obs::enable(true);
    }
    if cli.command == "train-serve" {
        run_train_serve(cli.save.as_deref());
    } else {
        let train_cfg = TrainConfig::default();
        run(&cli.command, cli.train.then_some(&train_cfg));
    }
    if let Some(path) = &cli.trace_out {
        dsx_obs::enable(false);
        match dsx_obs::export_chrome_trace(path) {
            Ok(events) => println!("trace: wrote {events} events to {}", path.display()),
            Err(e) => {
                eprintln!(
                    "dsx-experiments: cannot write --trace-out {}: {e}",
                    path.display()
                );
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsx_core::BackendKind;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_to_running_everything() {
        let cli = parse_cli(&[]).unwrap();
        assert_eq!(cli.command, "all");
        assert!(!cli.train);
        assert_eq!(cli.backend, None);
    }

    #[test]
    fn backend_parses_in_both_spellings_and_any_position() {
        for list in [
            ["--backend", "blocked", "table1"],
            ["table1", "--backend", "blocked"],
            ["table1", "--backend=blocked", "--train"],
        ] {
            let cli = parse_cli(&args(&list)).unwrap();
            assert_eq!(cli.backend, Some(BackendKind::Blocked), "{list:?}");
            assert_eq!(cli.command, "table1");
        }
    }

    #[test]
    fn invalid_backend_is_an_error_before_anything_runs() {
        let err = parse_cli(&args(&["--backend", "cuda", "table1"])).unwrap_err();
        assert!(err.contains("unknown kernel backend"), "{err}");
        assert!(parse_cli(&args(&["--backend"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse_cli(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn trace_out_parses_in_both_spellings_and_any_position() {
        for list in [
            ["--trace-out", "/tmp/t.json", "table1"].as_slice(),
            ["table1", "--trace-out=/tmp/t.json"].as_slice(),
        ] {
            let cli = parse_cli(&args(list)).unwrap();
            assert_eq!(
                cli.trace_out.as_deref(),
                Some(std::path::Path::new("/tmp/t.json")),
                "{list:?}"
            );
            assert_eq!(cli.command, "table1");
        }
        assert!(parse_cli(&[]).unwrap().trace_out.is_none());
        assert!(parse_cli(&args(&["--trace-out"])).is_err());
    }

    #[test]
    fn save_parses_with_train_serve_only() {
        for list in [
            ["train-serve", "--save", "/tmp/model.ckpt"].as_slice(),
            ["train-serve", "--save=/tmp/model.ckpt"].as_slice(),
        ] {
            let cli = parse_cli(&args(list)).unwrap();
            assert_eq!(cli.command, "train-serve");
            assert_eq!(
                cli.save.as_deref(),
                Some(std::path::Path::new("/tmp/model.ckpt"))
            );
        }
        // train-serve without --save is a dry run (digest only).
        assert!(parse_cli(&args(&["train-serve"])).unwrap().save.is_none());
        assert!(parse_cli(&args(&["--save"])).is_err());
        let err = parse_cli(&args(&["table1", "--save", "/tmp/m.ckpt"])).unwrap_err();
        assert!(err.contains("train-serve"), "{err}");
        let err = parse_cli(&args(&["--save", "/tmp/m.ckpt"])).unwrap_err();
        assert!(err.contains("train-serve"), "{err}");
    }
}
