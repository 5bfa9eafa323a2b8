//! `run`: every workload through the single-workload entry point, one child
//! process per run so process globals (kernel threads, `dsx-obs`, the
//! metrics registry, peak RSS) never leak between workloads — and
//! `compare`: two result files judged against the bounds.

use crate::json::{self, numbers, object, Value};
use crate::layers::artefact_dir;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{flag_outliers, median};
use crate::Flags;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// The last stdout line of a child is its result; a `# detail` line before
/// it carries the block rates and flags.
struct ChildRun {
    result: Value,
    detail: Value,
}

fn run_child(workload: &str, seed: u64, seconds: u32, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix("# detail "))
        .map_or(Ok(Value::Null), json::parse)?;
    Ok(ChildRun {
        result: json::parse(last)?,
        detail,
    })
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

fn direction(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds one run measures for: `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u32 = 15;
/// Untraced runs per workload; a timing is the median of them.
const RUNS: usize = 4;

/// `run --seed <u64> [--smoke] [--out path]`.
///
/// [`RUNS`] untraced runs of [`RUN_SECONDS`] per workload go round-robin
/// over the workloads (A B C D E, A B C D E, …) so a noisy neighbour on a
/// shared host hits every workload alike; one traced run per workload
/// follows. A timing is reported as the median of its runs with their
/// min–max beside it. `--smoke` is one 1-second untraced run per workload:
/// checks on, bounds off.
pub fn run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--smoke"])?;
    flags.reject_unknown(&["--seed", "--smoke", "--out"])?;
    let seed: u64 = flags.require("--seed")?;
    let smoke = flags.has("--smoke");
    let (seconds, reps) = if smoke { (1, 1) } else { (RUN_SECONDS, RUNS) };
    let out: PathBuf = flags
        .get("--out")?
        .unwrap_or_else(|| artefact_dir().join("result.json"));

    let started = Instant::now();
    let mut untraced: Vec<Vec<ChildRun>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps {
        for (w, runs) in WORKLOADS.iter().zip(&mut untraced) {
            eprintln!("# run {}/{reps} of {}", rep + 1, w.name);
            runs.push(run_child(w.name, seed, seconds, false)?);
        }
    }
    let mut traced = Vec::new();
    if !smoke {
        for w in &WORKLOADS {
            eprintln!("# traced run of {}", w.name);
            traced.push(run_child(w.name, seed, seconds, true)?);
        }
    }

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (idx, w) in WORKLOADS.iter().enumerate() {
        let runs = &untraced[idx];
        let count = |key: &str| {
            runs.iter()
                .filter_map(|r| r.result.get(key)?.as_f64())
                .sum::<f64>()
        };
        let correct = runs
            .iter()
            .chain(traced.get(idx))
            .all(|r| r.result.get("correct") == Some(&Value::Bool(true)));
        all_correct &= correct;
        println!("\n{} — {}", w.name, w.why);
        let fail_share = count("failed") / count("attempted").max(1.0);
        println!(
            "  attempted {} failed {} correct {correct}",
            count("attempted"),
            count("failed")
        );
        println!(
            "  {:<22} {fail_share:>14.6} {:<6} lower is better, any increase is a regression",
            "fail_share", "share"
        );

        let mut end_to_end = Vec::new();
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(&r.result, m.name))
                .collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let flagged = flag_outliers(&values);
            println!(
                "  {:<22} {:>14.6} {:<6} {} is better, may worsen {} % (compare) / {} % (BENCHMARK.json); runs {:.6}..{:.6}{}",
                m.name,
                median(&values),
                m.unit,
                direction(m.higher_is_better),
                m.compare_bound * 100.0,
                m.bound * 100.0,
                lo,
                hi,
                if flagged.is_empty() {
                    String::new()
                } else {
                    format!("  FLAG runs {flagged:?} >20 % off the others")
                },
            );
            end_to_end.push((
                m.name,
                object([
                    ("median", Value::Num(median(&values))),
                    ("unit", Value::from(m.unit)),
                    ("spread", numbers(&[lo, hi])),
                    ("runs", numbers(&values)),
                    (
                        "flagged_runs",
                        numbers(&flagged.iter().map(|&i| i as f64).collect::<Vec<_>>()),
                    ),
                ]),
            ));
        }

        let mut per_layer = Vec::new();
        if let Some(t) = traced.get(idx) {
            for m in &PER_LAYER {
                let value = metric_value(&t.result, m.name).unwrap_or(0.0);
                println!(
                    "  {:<22} {:>14.6} {:<6} {} is better → {}",
                    m.name,
                    value,
                    m.unit,
                    direction(m.higher_is_better),
                    m.moves
                );
                per_layer.push((
                    m.name,
                    object([("value", Value::Num(value)), ("unit", Value::from(m.unit))]),
                ));
            }
        }
        workloads.push((
            w.name,
            object([
                ("correct", Value::Bool(correct)),
                ("attempted", Value::Num(count("attempted"))),
                ("failed", Value::Num(count("failed"))),
                ("fail_share", Value::Num(fail_share)),
                ("end_to_end", object(end_to_end)),
                ("per_layer", object(per_layer)),
                (
                    "run_details",
                    Value::Arr(runs.iter().map(|r| r.detail.clone()).collect()),
                ),
            ]),
        ));
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = object([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu", Value::Str(cpu_model())),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        (
            "git_head",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::Num(seed as f64)),
        ("seconds_per_run", Value::Num(f64::from(seconds))),
        ("untraced_runs_per_workload", Value::Num(reps as f64)),
        (
            "traced_runs_per_workload",
            Value::Num(if smoke { 0.0 } else { 1.0 }),
        ),
        ("wall_s", Value::Num(started.elapsed().as_secs_f64())),
    ]);
    println!("\nheader {header}");
    let doc = object([("header", header), ("workloads", object(workloads))]);
    std::fs::write(&out, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("result written to {}", out.display());
    Ok(all_correct)
}

/// How run set `b` stands against run set `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judges `b` against `a`. `worse_by` is the share of `a`'s median by which
/// `b`'s median is worse. A difference beyond the bound stands only if the
/// runs back it: either every run of one side beats every run of the other,
/// or neither side's own min–max spread exceeds the bound. A difference
/// within the bound is `Same` unless a spread wider than the bound could be
/// hiding a regression.
pub fn judge(a_runs: &[f64], b_runs: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (a, b) = (median(a_runs), median(b_runs));
    let worse_by = if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let spread = |v: &[f64]| (max(v) - min(v)) / median(v).abs();
    let noisy = spread(a_runs) > bound || spread(b_runs) > bound;
    // "Every run of x beats every run of y", in this metric's direction.
    let dominates = |x: &[f64], y: &[f64]| {
        if higher_is_better {
            min(x) > max(y)
        } else {
            max(x) < min(y)
        }
    };
    if worse_by > bound {
        if dominates(a_runs, b_runs) || !noisy {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by < -bound {
        if dominates(b_runs, a_runs) || !noisy {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if noisy && !dominates(b_runs, a_runs) {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Two result files compare only if their runs were alike: runs of another
/// length, count or machine measure something else.
fn comparable(a: &Value, b: &Value) -> Result<(), String> {
    for key in ["nproc", "seconds_per_run", "untraced_runs_per_workload"] {
        let of = |doc: &Value| doc.get("header").and_then(|h| h.get(key)).cloned();
        match (of(a), of(b)) {
            (Some(x), Some(y)) if x == y => {}
            (x, y) => {
                return Err(format!(
                    "the two files differ in {key} ({x:?} against {y:?}): not comparable"
                ))
            }
        }
    }
    Ok(())
}

/// `compare <a.json> <b.json>`: one row per end-to-end metric × workload,
/// judged by the issue's bounds (`compare_bound`, tighter than
/// `BENCHMARK.json`'s); exits non-zero on any `worse` or on more failed
/// operations in `b`, and refuses files of runs that are not alike.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two result files".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    comparable(&a, &b)?;
    let mut acceptable = true;
    println!(
        "{:<10} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "b/a", "bound"
    );
    for w in &WORKLOADS {
        let side = |doc: &Value| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            return Err(format!("{} is missing from one of the files", w.name));
        };
        for m in &END_TO_END {
            let runs = |side: &Value| -> Option<Vec<f64>> {
                let list = side
                    .get("end_to_end")?
                    .get(m.name)?
                    .get("runs")?
                    .as_array()?;
                let values: Vec<f64> = list.iter().filter_map(Value::as_f64).collect();
                (!values.is_empty()).then_some(values)
            };
            let (Some(ra), Some(rb)) = (runs(&wa), runs(&wb)) else {
                return Err(format!(
                    "{} {} has no runs in one of the files",
                    w.name, m.name
                ));
            };
            let verdict = judge(&ra, &rb, m.higher_is_better, m.compare_bound);
            acceptable &= verdict != Verdict::Worse;
            println!(
                "{:<10} {:<12} {:>14.6} {:>14.6} {:>9.4} {:>6.3}  {}",
                w.name,
                m.name,
                median(&ra),
                median(&rb),
                median(&rb) / median(&ra),
                m.compare_bound,
                format!("{verdict:?}").to_lowercase(),
            );
        }
        let failed = |side: &Value| side.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        let attempted = |side: &Value| {
            side.get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(1.0)
                .max(1.0)
        };
        let (fail_a, fail_b) = (failed(&wa) / attempted(&wa), failed(&wb) / attempted(&wb));
        let more_failures = fail_b > fail_a;
        acceptable &= !more_failures;
        println!(
            "{:<10} {:<12} {:>14.6} {:>14.6} {:>9} {:>6}  {}",
            w.name,
            "fail_share",
            fail_a,
            fail_b,
            "-",
            "none",
            if more_failures { "worse" } else { "same" },
        );
    }
    println!(
        "b/a is b's median ÷ a's median; bound is the share of a's median a metric may worsen by"
    );
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_like_runs_compare() {
        let header = |nproc: u32, seconds: u32, runs: u32, seed: u32| {
            json::parse(&format!(
                r#"{{"header": {{"nproc": {nproc}, "seconds_per_run": {seconds},
                    "untraced_runs_per_workload": {runs}, "seed": {seed}}}}}"#
            ))
            .unwrap()
        };
        let a = header(2, 15, 4, 1);
        assert!(
            comparable(&a, &header(2, 15, 4, 2)).is_ok(),
            "seeds may differ"
        );
        for other in [header(4, 15, 4, 1), header(2, 1, 4, 1), header(2, 15, 1, 1)] {
            assert!(comparable(&a, &other).is_err());
        }
        assert!(comparable(&a, &json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = false;
        // Within the bound, tight runs: same.
        assert_eq!(
            judge(&[10.0, 10.1, 9.9], &[10.2, 10.3, 10.1], lower, 0.05),
            Verdict::Same
        );
        // 20 % slower, tight runs: worse. 20 % faster: better.
        assert_eq!(
            judge(&[10.0, 10.1, 9.9], &[12.0, 12.1, 11.9], lower, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(&[10.0, 10.1, 9.9], &[8.0, 8.1, 7.9], lower, 0.05),
            Verdict::Better
        );
        // Median 20 % slower but the runs interleave: unresolved.
        assert_eq!(
            judge(&[10.0, 13.0, 9.0], &[12.0, 9.5, 12.5], lower, 0.05),
            Verdict::Unresolved
        );
        // Noisy, yet every run of a beats every run of b: worse stands.
        assert_eq!(
            judge(&[10.0, 11.0, 9.0], &[14.0, 12.0, 16.0], lower, 0.05),
            Verdict::Worse
        );
        // Within the bound but the spread could hide a regression.
        assert_eq!(
            judge(&[10.0, 12.0, 9.0], &[10.1, 9.0, 12.0], lower, 0.05),
            Verdict::Unresolved
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0], true, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(&[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0], true, 0.05),
            Verdict::Better
        );
        // A metric that never moves (ok_share) is the same, not unresolved.
        assert_eq!(judge(&[1.0, 1.0], &[1.0, 1.0], true, 0.01), Verdict::Same);
    }
}
