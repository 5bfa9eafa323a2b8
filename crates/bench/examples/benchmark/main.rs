//! The repo's benchmark: five workloads, six end-to-end metrics with fixed
//! regression bounds, and per-layer metrics from a traced run. README.md in
//! this directory is the manual; `BENCHMARK.json` at the repo root is the
//! contract.
//!
//! One invocation measures one workload once:
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! and prints, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `run` drives every
//! workload through that same entry point, one child process each, and
//! `compare` judges two of its result files against the bounds.

mod alloc;
mod awake;
mod driver;
mod json;
mod layers;
mod metrics;
mod model;
mod rng;
mod rpc;
mod scc;
mod spans;
mod stats;

use json::{object, Value};
use layers::Layers;
use metrics::{Workload, END_TO_END, PER_LAYER};
use model::Budget;
use stats::{flag_outliers, percentile, sorted, summarize, Op};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  benchmark --workload <rpc_solo|rpc_open|rpc_sat|scc_infer|scc_train> --seed <u64> --seconds <n> --trace <0|1>
  benchmark run --seed <u64> [--smoke] [--out <result.json>]
  benchmark compare <a.json> <b.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => driver::run(&args[1..]),
        Some("compare") => driver::compare(&args[1..]),
        _ => one(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Flag values of the form `--name value`, each name at most once.
pub struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// Splits `args` into `--name value` pairs and bare `--switches` (those
    /// listed in `switches`); anything else is an error.
    pub fn parse(args: &'a [String], switches: &[&str]) -> Result<Flags<'a>, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if switches.contains(&arg) {
                pairs.push((arg, ""));
            } else if arg.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                pairs.push((arg, value));
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(Flags(pairs))
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| *n == name)
    }

    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(n, _)| *n == name) {
            None => Ok(None),
            Some((_, raw)) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for {name}: {raw:?}")),
        }
    }

    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?.ok_or_else(|| format!("{name} is required"))
    }

    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(n)) {
            Some((name, _)) => Err(format!("unknown flag {name}")),
            None => Ok(()),
        }
    }
}

struct Opts {
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Set-up runs this many times per process; `setup_s` is the median.
const SETUPS: usize = 3;

/// What one workload run produced, whichever family it belongs to.
struct Outcome {
    ops: Vec<Op>,
    setup_s: f64,
    /// Present on a traced run.
    layers: Option<Layers>,
    /// Checks that did not hold; any entry makes the run incorrect.
    problems: Vec<String>,
    /// Things worth a second look that do not make the run incorrect.
    flags: Vec<String>,
}

/// Measures one workload once and prints its result line.
fn one(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&["--workload", "--seed", "--seconds", "--trace"])?;
    let name: String = flags.require("--workload")?;
    let w = metrics::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let opts = Opts {
        seed: flags.require("--seed")?,
        seconds: flags.require("--seconds")?,
        trace: match flags.require::<u8>("--trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }

    // One kernel thread, one engine worker: the numbers are per core.
    dsx_tensor::set_num_threads(1);
    let awake = awake::KeepAwake::start();
    let mut outcome = match w.name {
        "scc_infer" => run_infer(w, &opts),
        "scc_train" => run_train(w, &opts),
        _ => run_rpc(w, &opts),
    };
    match awake {
        Ok(awake) => awake.stop(),
        Err(why) => outcome.flags.push(format!(
            "the cores were not kept awake ({why}): expect noisier timings"
        )),
    }

    let summary = summarize(&outcome.ops, w);
    for idx in flag_outliers(&summary.block_rates) {
        outcome.flags.push(format!(
            "block {idx} ran at {:.4} /s, >20 % off the others",
            summary.block_rates[idx]
        ));
    }
    if summary.tail_beyond < 10 && outcome.layers.is_none() {
        outcome.flags.push(format!(
            "the run has fewer blocks than a tail pool: tail_ms has only {} samples beyond it (<10)",
            summary.tail_beyond
        ));
    }
    for line in outcome
        .problems
        .iter()
        .map(|p| ("problem", p))
        .chain(outcome.flags.iter().map(|f| ("flag", f)))
    {
        eprintln!("# {} {}: {}", line.0, w.name, line.1);
    }
    let strings =
        |list: &[String]| Value::Arr(list.iter().map(|s| Value::from(s.as_str())).collect());
    println!(
        "# detail {}",
        object([
            ("block_rates", json::numbers(&summary.block_rates)),
            ("pooled_p50_ms", Value::Num(summary.pooled_p50_ms)),
            ("pooled_tail_ms", Value::Num(summary.pooled_tail_ms)),
            (
                "tail_samples_beyond",
                Value::Num(summary.tail_beyond as f64)
            ),
            ("flags", strings(&outcome.flags)),
            ("problems", strings(&outcome.problems)),
        ])
    );

    let metric = |name: &str, value: f64, unit: &str| {
        (
            name.to_string(),
            object([("value", Value::Num(value)), ("unit", Value::from(unit))]),
        )
    };
    let metrics: Vec<(String, Value)> = match &outcome.layers {
        Some(layers) => PER_LAYER
            .iter()
            .map(|m| metric(m.name, layers.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect(),
        None => {
            let values = [
                summary.p50_ms,
                summary.tail_ms,
                summary.ops_per_s,
                summary.ok_share,
                outcome.setup_s,
                peak_rss_mb(),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| metric(m.name, v, m.unit))
                .collect()
        }
    };
    println!(
        "{}",
        object([
            (
                "correct",
                Value::Bool(outcome.problems.is_empty() && summary.failed == 0)
            ),
            ("attempted", Value::Num(summary.attempted as f64)),
            ("failed", Value::Num(summary.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    );
    Ok(true)
}

/// Runs `setup` [`SETUPS`] times, tearing each context but the last down
/// again, and returns the last context with the median set-up time.
fn set_up<T>(setup: impl Fn() -> T, discard: impl Fn(T) -> Vec<String>) -> (T, f64, Vec<String>) {
    let mut problems = Vec::new();
    let mut secs = Vec::new();
    let mut ctx: Option<T> = None;
    for _ in 0..SETUPS {
        if let Some(old) = ctx.take() {
            problems.extend(discard(old));
        }
        let t = Instant::now();
        ctx = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        ctx.expect("set-up ran at least once"),
        stats::median(&secs),
        problems,
    )
}

fn run_rpc(w: &Workload, opts: &Opts) -> Outcome {
    let (mut served, setup_s, mut problems) =
        set_up(|| rpc::Served::setup(opts.seed), rpc::Served::teardown);
    let mut flags = Vec::new();
    let (ops, layers) = if opts.trace {
        let traced = layers::traced_rpc(w, &mut served, opts.seconds);
        problems.extend(traced.problems);
        (traced.ops, Some(traced.layers))
    } else {
        let (budget, epoch) = (Budget::Seconds(opts.seconds), Instant::now());
        let out = match w.name {
            "rpc_solo" => rpc::run_solo(
                &served.oracle,
                &mut served.client,
                budget,
                w.block_ops,
                epoch,
                None,
            ),
            "rpc_sat" => rpc::run_sat(
                &served.oracle,
                &mut served.client,
                budget,
                w.block_ops,
                epoch,
                None,
            ),
            _ => rpc::run_open(
                &served.oracle,
                served.server.local_addr(),
                budget,
                w.block_ops,
                epoch,
                None,
            ),
        };
        if !out.late_ms.is_empty() {
            let late = percentile(&sorted(out.late_ms), 0.99);
            if late > rpc::LATE_LIMIT_MS {
                flags.push(format!(
                    "the generator ran {late:.3} ms late at p99 (>{} ms): not the load described",
                    rpc::LATE_LIMIT_MS
                ));
            }
        }
        (out.ops, None)
    };
    problems.extend(served.teardown());
    Outcome {
        ops,
        setup_s,
        layers,
        problems,
        flags,
    }
}

fn run_infer(w: &Workload, opts: &Opts) -> Outcome {
    let (infer, setup_s, mut problems) =
        set_up(|| scc::Infer::setup(opts.seed), |old| old.problems);
    let (ops, layers) = if opts.trace {
        let traced = layers::traced_infer(w, &infer, opts.seconds, opts.seed);
        problems.extend(traced.problems);
        (traced.ops, Some(traced.layers))
    } else {
        (
            infer
                .run(Budget::Seconds(opts.seconds), w.block_ops, Instant::now())
                .ops,
            None,
        )
    };
    problems.extend(infer.problems);
    Outcome {
        ops,
        setup_s,
        layers,
        problems,
        flags: Vec::new(),
    }
}

fn run_train(w: &Workload, opts: &Opts) -> Outcome {
    let (mut train, setup_s, mut problems) =
        set_up(|| scc::Train::setup(opts.seed), |old| old.problems);
    let (ops, layers) = if opts.trace {
        let traced = layers::traced_train(w, &mut train, opts.seconds, opts.seed);
        problems.extend(traced.problems);
        (traced.ops, Some(traced.layers))
    } else {
        (
            train
                .run(
                    Budget::Seconds(opts.seconds),
                    w.block_ops,
                    Instant::now(),
                    None,
                )
                .ops,
            None,
        )
    };
    problems.extend(train.teardown());
    Outcome {
        ops,
        setup_s,
        layers,
        problems,
        flags: Vec::new(),
    }
}

/// `VmHWM` of this process: the most resident memory it ever held.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
