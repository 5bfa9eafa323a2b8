//! Order statistics and the reduction from a run's operations to its
//! end-to-end numbers.

use crate::metrics::Workload;

/// One attempted operation: when it started (for an open loop, when it was
/// *due*), when its result arrived, and whether that result was correct.
/// Times are seconds from the start of the run.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub start: f64,
    pub end: f64,
    pub ok: bool,
}

impl Op {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
/// A tail percentile is only reported where this is at least 10.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Indices of values more than 20 % off the median of the *other* values —
/// the noise guard. Flagged values are reported, never dropped.
pub fn flag_outliers(values: &[f64]) -> Vec<usize> {
    if values.len() < 3 {
        return Vec::new();
    }
    (0..values.len())
        .filter(|&i| {
            let others: Vec<f64> = values
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| *v)
                .collect();
            let m = median(&others);
            (values[i] - m).abs() > 0.2 * m.abs()
        })
        .collect()
}

/// The end-to-end numbers of one run's operations.
#[derive(Debug, Clone)]
pub struct Summary {
    pub attempted: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// Samples beyond `TAIL_Q` in the pool `tail_ms` was taken from.
    pub tail_beyond: usize,
    /// Correct operations × `units_per_op` per second.
    pub ops_per_s: f64,
    pub ok_share: f64,
    /// `ops_per_s` of every block, in order.
    pub block_rates: Vec<f64>,
    /// Median and `TAIL_Q` latency over the whole run, stalls and all:
    /// printed beside the metrics, never a metric themselves.
    pub pooled_p50_ms: f64,
    pub pooled_tail_ms: f64,
}

/// The percentile `tail_ms` reports, on every workload. The issue's p99
/// (`rpc_*`) and p95 (`scc_infer`) were tried first, over stretches long
/// enough to leave ten samples beyond them, and did not repeat from run to
/// run on the sizing host (spreads of 11–34 % and 12–14 %); p90 does.
pub const TAIL_Q: f64 = 0.90;

/// Reduces operations (in issue order) to a [`Summary`].
///
/// A block is `w.block_ops` consecutive operations, about a second of work;
/// its time runs from the previous block's last completion to its own. Each
/// timing is taken from the run's **calmest stretch**: `p50_ms` is the lowest
/// block median and `ops_per_s` the highest block rate. `tail_ms` is the p90
/// over the **tail pool**: the `w.tail_blocks` blocks whose own p90 is
/// lowest, pooled — the fewest blocks that hold 100 operations, so that ten
/// samples lie beyond the p90 that is reported. Where a block already holds
/// 100 (`rpc_*`), that is the lowest block p90.
///
/// Why not pooled percentiles, or the median over blocks: on a shared host
/// the noise is one-sided. A neighbour's burst only ever slows a stretch,
/// for seconds at a time, and pooled p90s and block medians follow those
/// bursts (they moved 4–49 % between identical runs on the sizing host, the
/// calmest stretch 2–16 %). The calmest stretch estimates what the program
/// does when left alone, and a change to the program moves every block, so
/// it still moves this. The price is blindness to a stall that spares even
/// `tail_blocks` blocks, whoever causes it: that shows in `ok_share` (each
/// workload's latency limit), in the flagged blocks and in the pooled
/// numbers printed beside the metrics, not here.
///
/// With `w.open_loop` the rate is taken over the whole run instead — correct
/// operations ÷ (last completion − first due time). Arrivals follow a
/// schedule, so a block can only exceed the offered rate by working off an
/// earlier block's backlog, and the best block would reward a stall.
pub fn summarize(ops: &[Op], w: &Workload) -> Summary {
    assert!(!ops.is_empty(), "a run attempts at least one operation");
    let failed = ops.iter().filter(|op| !op.ok).count();
    let within = ops
        .iter()
        .filter(|op| op.ok && op.latency_ms() <= w.limit_ms)
        .count();
    let latencies: Vec<f64> = ops.iter().map(Op::latency_ms).collect();
    let of = |window: &[f64], q| percentile(&sorted(window.to_vec()), q);

    let p50_ms = latencies
        .chunks(w.block_ops)
        .map(|block| of(block, 0.5))
        .fold(f64::INFINITY, f64::min);
    // A run with fewer blocks than a tail pool (a smoke run) pools them all.
    let mut by_tail: Vec<(f64, &[f64])> = latencies
        .chunks(w.block_ops)
        .map(|block| (of(block, TAIL_Q), block))
        .collect();
    by_tail.sort_by(|a, b| a.0.total_cmp(&b.0));
    let tail_pool: Vec<f64> = by_tail
        .iter()
        .take(w.tail_blocks)
        .flat_map(|(_, block)| block.iter().copied())
        .collect();

    let mut block_rates = Vec::new();
    let mut prev_end = ops[0].start;
    for block in ops.chunks(w.block_ops) {
        let end = block.iter().map(|op| op.end).fold(prev_end, f64::max);
        let ok = block.iter().filter(|op| op.ok).count();
        if end > prev_end {
            block_rates.push(ok as f64 * w.units_per_op / (end - prev_end));
        }
        prev_end = end;
    }
    let ops_per_s = if w.open_loop {
        (ops.len() - failed) as f64 * w.units_per_op / (prev_end - ops[0].start)
    } else {
        block_rates.iter().copied().fold(0.0, f64::max)
    };
    Summary {
        attempted: ops.len(),
        failed,
        p50_ms,
        tail_ms: of(&tail_pool, TAIL_Q),
        tail_beyond: samples_beyond(tail_pool.len(), TAIL_Q),
        ops_per_s,
        ok_share: within as f64 / ops.len() as f64,
        block_rates,
        pooled_p50_ms: of(&latencies, 0.5),
        pooled_tail_ms: of(&latencies, TAIL_Q),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // 10 samples: p90 is the 9th, one sample lies beyond it.
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&t, 0.9), 9.0);
        assert_eq!(samples_beyond(10, 0.9), 1);
    }

    #[test]
    fn every_tail_pool_keeps_ten_samples_beyond_its_percentile() {
        for w in &WORKLOADS {
            let beyond = samples_beyond(w.tail_blocks * w.block_ops, TAIL_Q);
            assert!(beyond >= 10, "{}: {beyond}", w.name);
        }
        assert!(samples_beyond(99, TAIL_Q) < 10, "why a pool is ≥100 ops");
    }

    #[test]
    fn median_and_outlier_flags() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(flag_outliers(&[10.0, 10.5, 9.8, 13.0]), vec![3]);
        assert!(flag_outliers(&[10.0, 10.5, 9.8, 11.0]).is_empty());
        assert!(flag_outliers(&[1.0, 9.0]).is_empty(), "too few to judge");
    }

    fn workload(block_ops: usize, tail_blocks: usize, open_loop: bool) -> Workload {
        Workload {
            name: "test",
            why: "",
            block_ops,
            tail_blocks,
            limit_ms: 1_500.0,
            units_per_op: 1.0,
            open_loop,
        }
    }

    #[test]
    fn summary_counts_misses_and_reports_the_calmest_stretch() {
        // Four blocks of two back-to-back ops taking 2, 1, 4 and 8 seconds
        // per block: the later blocks play a neighbour's burst.
        let mut ops = Vec::new();
        let mut t = 0.0;
        for block_secs in [2.0, 1.0, 4.0, 8.0] {
            for _ in 0..2 {
                let end = t + block_secs / 2.0;
                ops.push(Op {
                    start: t,
                    end,
                    ok: true,
                });
                t = end;
            }
        }
        ops[7].ok = false; // a wrong reply: a miss and a failure
        let s = summarize(&ops, &workload(2, 1, false));
        assert_eq!((s.attempted, s.failed), (8, 1));
        assert_eq!(s.block_rates, vec![1.0, 2.0, 0.5, 0.125]);
        assert_eq!((s.p50_ms, s.tail_ms, s.ops_per_s), (500.0, 500.0, 2.0));
        assert_eq!((s.pooled_p50_ms, s.pooled_tail_ms), (1_000.0, 4_000.0));
        // ops 0..4 are within 1.5 s; 4..7 are too slow, 7 also failed.
        assert!((s.ok_share - 0.5).abs() < 1e-12);

        // An open loop is rated over the whole run: 7 correct in 15 s.
        let open = summarize(&ops, &workload(2, 1, true));
        assert!((open.ops_per_s - 7.0 / 15.0).abs() < 1e-12);
        assert_eq!(open.p50_ms, 500.0);

        // A smoke run has fewer blocks than a tail pool: it pools them all.
        let smoke = summarize(&ops[..2], &workload(2, 50, false));
        assert_eq!((smoke.p50_ms, smoke.tail_ms), (1_000.0, 1_000.0));
        assert_eq!(smoke.tail_beyond, 0);
    }

    #[test]
    fn the_tail_is_a_percentile_of_the_pool_not_of_a_block() {
        // 30 blocks of 10 ops at 1 ms. Five blocks are clean; every other
        // block has three ops of 9 ms: a tail the program itself produces.
        let mut ops = Vec::new();
        for i in 0..300 {
            let start = i as f64;
            let ms = if i >= 50 && i % 10 >= 7 { 9.0 } else { 1.0 };
            ops.push(Op {
                start,
                end: start + ms / 1e3,
                ok: true,
            });
        }
        // The calmest block alone would report 1 ms with one sample beyond
        // it. A pool of ten blocks holds the five clean ones and five of the
        // others: 15 slow ops in 100, so the p90 is a slow one.
        let s = summarize(&ops, &workload(10, 10, false));
        assert_eq!(s.tail_beyond, 10);
        assert!((s.tail_ms - 9.0).abs() < 1e-6, "{}", s.tail_ms);
        assert!((s.p50_ms - 1.0).abs() < 1e-6);

        // A neighbour's burst over ten blocks is left out of the pool, and
        // stays in the pooled number printed beside the metric.
        for op in &mut ops[100..200] {
            op.end = op.start + 0.5;
        }
        let s = summarize(&ops, &workload(10, 10, false));
        assert!((s.tail_ms - 9.0).abs() < 1e-6, "{}", s.tail_ms);
        assert_eq!(s.pooled_tail_ms, 500.0);
    }
}
