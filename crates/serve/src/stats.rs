//! Serving-side instrumentation: request latency (mean, maximum and
//! log-bucketed percentiles), batch occupancy and throughput counters
//! shared between the engine's worker threads.
//!
//! The latency distribution lives in [`dsx_obs::Histogram`] (the
//! 256-bucket log histogram with sub-bucket interpolated percentiles grew
//! up here and was promoted into `dsx-obs` so netload and pool stats share
//! it); this module keeps the serving-specific counters around it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

pub use dsx_obs::Histogram;
use dsx_obs::MetricsSnapshot;

/// Thread-safe serving counters. Workers record into these as batches
/// complete; [`ServeStats::snapshot`] folds them into a report.
///
/// **Memory ordering.** Every field is an independent counter or gauge:
/// no thread ever derives a *decision that guards other memory* from one,
/// readers only produce reports, and torn multi-field snapshots are
/// acceptable by design (a report racing a live batch may see the batch
/// counted but not its latency yet). `Relaxed` is therefore sound on every
/// access — each per-site `// ORDER:` tag below points back to this
/// argument.
#[derive(Debug, Default)]
pub struct ServeStats {
    requests: AtomicUsize,
    batches: AtomicUsize,
    batch_size_sum: AtomicUsize,
    batch_size_max: AtomicUsize,
    /// Queue-to-response latency distribution in µs (count, sum, max and
    /// log-bucketed percentiles all live in the histogram).
    latency: Histogram,
    /// How many times a new model was hot-swapped in (generation counter:
    /// 0 means the engine still runs the model it started with).
    swap_generation: AtomicU64,
    /// Requests whose batch failed and were never served. The zero-drop
    /// hot-swap guarantee is CI-gated on this staying 0.
    dropped_requests: AtomicUsize,
    /// Requests shed because their deadline expired before a worker
    /// dequeued them (each one was answered with a typed
    /// `DeadlineExceeded`, so unlike `dropped_requests` nothing is lost —
    /// the client was told).
    shed_requests: AtomicUsize,
}

impl ServeStats {
    /// New, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed batch of `size` requests.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
        self.requests.fetch_add(size, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
        self.batch_size_sum.fetch_add(size, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
        self.batch_size_max.fetch_max(size, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Records one request's queue-to-response latency.
    pub fn record_latency(&self, latency: Duration) {
        self.latency.record(latency.as_micros() as u64);
    }

    /// Records one completed model hot swap, returning the new generation.
    pub fn record_swap(&self) -> u64 {
        self.swap_generation.fetch_add(1, Ordering::Relaxed) + 1 // ORDER: racy-tolerant counter (see struct doc)
    }

    /// The current swap generation (0 = the model the engine started with).
    pub fn swap_generation(&self) -> u64 {
        self.swap_generation.load(Ordering::Relaxed) // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Records `count` requests that were dropped unserved (their batch
    /// panicked).
    pub fn record_dropped(&self, count: usize) {
        self.dropped_requests.fetch_add(count, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Requests dropped unserved so far.
    pub fn dropped_requests(&self) -> usize {
        self.dropped_requests.load(Ordering::Relaxed) // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Records `count` requests shed past their deadline (each answered
    /// with a typed `DeadlineExceeded`, never silently discarded).
    pub fn record_shed(&self, count: usize) {
        self.shed_requests.fetch_add(count, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Requests shed past their deadline so far.
    pub fn shed_requests(&self) -> usize {
        self.shed_requests.load(Ordering::Relaxed) // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Requests completed so far.
    pub fn requests(&self) -> usize {
        self.requests.load(Ordering::Relaxed) // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Batches executed so far.
    pub fn batches(&self) -> usize {
        self.batches.load(Ordering::Relaxed) // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of the recorded latencies
    /// in µs — see [`Histogram::percentile`] for the estimator's contract
    /// (sub-bucket linear interpolation, bounded by the observed maximum).
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        self.latency.percentile(q)
    }

    /// Appends this engine's counters to a metrics snapshot under the
    /// `serve.` prefix (the DSXN `Stats` frame payload).
    pub fn export_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.push("serve.requests", self.requests() as u64);
        snap.push("serve.batches", self.batches() as u64);
        snap.push(
            "serve.batch_size_max",
            self.batch_size_max.load(Ordering::Relaxed) as u64, // ORDER: racy-tolerant counter (see struct doc)
        );
        snap.push("serve.latency.count", self.latency.count());
        snap.push("serve.latency.mean_us", self.latency.mean().round() as u64);
        snap.push("serve.latency.p50_us", self.latency.percentile(0.50));
        snap.push("serve.latency.p95_us", self.latency.percentile(0.95));
        snap.push("serve.latency.p99_us", self.latency.percentile(0.99));
        snap.push("serve.latency.max_us", self.latency.max());
        snap.push("serve.swap_generation", self.swap_generation());
        snap.push("serve.dropped_requests", self.dropped_requests() as u64);
        snap.push("serve.shed_requests", self.shed_requests() as u64);
    }

    /// Folds the counters into a report for a serving window of `elapsed`
    /// wall-clock time.
    pub fn snapshot(&self, elapsed: Duration) -> ServeSnapshot {
        let requests = self.requests();
        let batches = self.batches();
        let secs = elapsed.as_secs_f64();
        ServeSnapshot {
            requests,
            batches,
            mean_batch_occupancy: if batches == 0 {
                0.0
            } else {
                // ORDER: racy-tolerant counter (see struct doc)
                self.batch_size_sum.load(Ordering::Relaxed) as f64 / batches as f64
            },
            max_batch_occupancy: self.batch_size_max.load(Ordering::Relaxed), // ORDER: racy-tolerant counter (see struct doc)
            mean_latency_us: if requests == 0 {
                0.0
            } else {
                self.latency.sum() as f64 / requests as f64
            },
            p50_latency_us: self.latency.percentile(0.50),
            p95_latency_us: self.latency.percentile(0.95),
            p99_latency_us: self.latency.percentile(0.99),
            max_latency_us: self.latency.max(),
            swap_generation: self.swap_generation.load(Ordering::Relaxed), // ORDER: racy-tolerant counter (see struct doc)
            dropped_requests: self.dropped_requests.load(Ordering::Relaxed), // ORDER: racy-tolerant counter (see struct doc)
            shed_requests: self.shed_requests.load(Ordering::Relaxed), // ORDER: racy-tolerant counter (see struct doc)
            elapsed_secs: secs,
            throughput_rps: if secs > 0.0 {
                requests as f64 / secs
            } else {
                0.0
            },
        }
    }
}

/// A point-in-time serving report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSnapshot {
    /// Requests completed in the window.
    pub requests: usize,
    /// Batches executed in the window.
    pub batches: usize,
    /// Mean requests per executed batch.
    pub mean_batch_occupancy: f64,
    /// Largest batch executed.
    pub max_batch_occupancy: usize,
    /// Mean queue-to-response latency in microseconds.
    pub mean_latency_us: f64,
    /// Median queue-to-response latency in microseconds (histogram
    /// estimate with sub-bucket linear interpolation).
    pub p50_latency_us: u64,
    /// 95th-percentile queue-to-response latency in microseconds.
    pub p95_latency_us: u64,
    /// 99th-percentile queue-to-response latency in microseconds.
    pub p99_latency_us: u64,
    /// Worst queue-to-response latency in microseconds.
    pub max_latency_us: u64,
    /// Hot-swap generation at snapshot time (0 = the starting model).
    pub swap_generation: u64,
    /// Requests dropped unserved (their batch panicked). The zero-drop
    /// hot-swap guarantee is gated on this being 0.
    pub dropped_requests: usize,
    /// Requests shed past their deadline before batch assembly. Unlike
    /// drops, every shed request received a typed `DeadlineExceeded`.
    pub shed_requests: usize,
    /// Wall-clock length of the serving window in seconds.
    pub elapsed_secs: f64,
    /// Completed requests per second over the window.
    pub throughput_rps: f64,
}

impl std::fmt::Display for ServeSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests in {:.2} s ({:.1} req/s) over {} batches \
             (occupancy mean {:.2}, max {}); latency mean {:.0} us, \
             p50 {} us, p95 {} us, p99 {} us, max {} us",
            self.requests,
            self.elapsed_secs,
            self.throughput_rps,
            self.batches,
            self.mean_batch_occupancy,
            self.max_batch_occupancy,
            self.mean_latency_us,
            self.p50_latency_us,
            self.p95_latency_us,
            self.p99_latency_us,
            self.max_latency_us,
        )?;
        if self.swap_generation > 0 {
            write!(f, " (model generation {})", self.swap_generation)?;
        }
        if self.dropped_requests > 0 {
            write!(f, "; DROPPED {} requests", self.dropped_requests)?;
        }
        if self.shed_requests > 0 {
            write!(f, "; SHED {} requests past deadline", self.shed_requests)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_derives_means_and_throughput() {
        let stats = ServeStats::new();
        stats.record_batch(8);
        stats.record_batch(4);
        for _ in 0..12 {
            stats.record_latency(Duration::from_micros(500));
        }
        let snap = stats.snapshot(Duration::from_secs(2));
        assert_eq!(snap.requests, 12);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.mean_batch_occupancy, 6.0);
        assert_eq!(snap.max_batch_occupancy, 8);
        assert_eq!(snap.mean_latency_us, 500.0);
        assert_eq!(snap.max_latency_us, 500);
        assert_eq!(snap.throughput_rps, 6.0);
        // The report renders without panicking.
        assert!(format!("{snap}").contains("12 requests"));
    }

    #[test]
    fn empty_window_snapshots_to_zeroes() {
        let snap = ServeStats::new().snapshot(Duration::ZERO);
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.mean_batch_occupancy, 0.0);
        assert_eq!(snap.mean_latency_us, 0.0);
        assert_eq!(snap.p50_latency_us, 0);
        assert_eq!(snap.p99_latency_us, 0);
        assert_eq!(snap.throughput_rps, 0.0);
    }

    #[test]
    fn sub_16us_percentiles_are_exact() {
        // Latencies below 16 µs get one bucket each, so percentiles over
        // them are exact — 100 samples of 1..=10 µs, 10 of each.
        let stats = ServeStats::new();
        for us in 1..=10u64 {
            for _ in 0..10 {
                stats.record_latency(Duration::from_micros(us));
            }
        }
        assert_eq!(stats.latency_percentile_us(0.50), 5);
        assert_eq!(stats.latency_percentile_us(0.95), 10);
        assert_eq!(stats.latency_percentile_us(0.99), 10);
        assert_eq!(stats.latency_percentile_us(0.01), 1);
        assert_eq!(stats.latency_percentile_us(1.0), 10);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded_by_max() {
        let stats = ServeStats::new();
        for us in [3u64, 120, 950, 4_000, 60_000, 2_000_000] {
            stats.record_latency(Duration::from_micros(us));
        }
        let p50 = stats.latency_percentile_us(0.50);
        let p95 = stats.latency_percentile_us(0.95);
        let p99 = stats.latency_percentile_us(0.99);
        let snap = stats.snapshot(Duration::from_secs(1));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 <= snap.max_latency_us);
        // Log buckets never over-report: each estimate stays inside the
        // bucket holding its rank.
        assert!(p50 <= 950);
    }

    #[test]
    fn interpolation_keeps_percentiles_distinct_within_one_wide_bucket() {
        // 100 samples spread across [49200, 57200) µs — all inside ONE log
        // bucket ([49152, 57344)). The pre-interpolation floor estimate
        // collapsed p50 == p95 == p99 == 49152 exactly like the
        // BENCH_PR3.json rows this satellite fixes; sub-bucket linear
        // interpolation must keep them distinct, ordered and bounded.
        let stats = ServeStats::new();
        for i in 0..100u64 {
            stats.record_latency(Duration::from_micros(49_200 + i * 80));
        }
        let p50 = stats.latency_percentile_us(0.50);
        let p95 = stats.latency_percentile_us(0.95);
        let p99 = stats.latency_percentile_us(0.99);
        assert!(p50 < p95 && p95 < p99, "{p50} {p95} {p99} must be distinct");
        assert!(p50 >= 49_152 && p99 <= 57_120, "{p50} {p99}");
        // The median estimate lands near the middle of the bucket, not at
        // its floor.
        assert!(p50 > 51_000 && p50 < 55_000, "{p50}");
    }

    #[test]
    fn interpolation_distinguishes_percentiles_on_a_spread_distribution() {
        // A long-tailed spread across many buckets: percentiles must be
        // strictly ordered and each estimate must stay at or below the
        // sample it approximates.
        let stats = ServeStats::new();
        for i in 1..=200u64 {
            stats.record_latency(Duration::from_micros(i * i)); // 1 .. 40_000
        }
        let p50 = stats.latency_percentile_us(0.50);
        let p90 = stats.latency_percentile_us(0.90);
        let p99 = stats.latency_percentile_us(0.99);
        assert!(p50 < p90 && p90 < p99, "{p50} {p90} {p99}");
        assert!(p50 <= 100 * 100 && p50 > 80 * 80, "{p50}");
        assert!(p99 <= 198 * 198 && p99 > 180 * 180, "{p99}");
    }

    #[test]
    fn swap_and_drop_counters_surface_in_the_snapshot() {
        let stats = ServeStats::new();
        assert_eq!(stats.swap_generation(), 0);
        let quiet = stats.snapshot(Duration::from_secs(1));
        assert_eq!(quiet.swap_generation, 0);
        assert_eq!(quiet.dropped_requests, 0);
        let rendered = format!("{quiet}");
        assert!(!rendered.contains("generation"));
        assert!(!rendered.contains("DROPPED"));

        assert_eq!(stats.record_swap(), 1);
        assert_eq!(stats.record_swap(), 2);
        stats.record_dropped(3);
        let snap = stats.snapshot(Duration::from_secs(1));
        assert_eq!(snap.swap_generation, 2);
        assert_eq!(snap.dropped_requests, 3);
        let rendered = format!("{snap}");
        assert!(rendered.contains("model generation 2"));
        assert!(rendered.contains("DROPPED 3 requests"));
    }

    #[test]
    fn shed_counter_surfaces_in_snapshot_display_and_export() {
        let stats = ServeStats::new();
        let quiet = stats.snapshot(Duration::from_secs(1));
        assert_eq!(quiet.shed_requests, 0);
        assert!(!format!("{quiet}").contains("SHED"));

        stats.record_shed(2);
        stats.record_shed(1);
        let snap = stats.snapshot(Duration::from_secs(1));
        assert_eq!(snap.shed_requests, 3);
        assert!(format!("{snap}").contains("SHED 3 requests past deadline"));
        let mut exported = MetricsSnapshot::new();
        stats.export_metrics(&mut exported);
        assert_eq!(exported.get("serve.shed_requests"), Some(3));
    }

    #[test]
    fn export_metrics_carries_the_serve_prefix() {
        let stats = ServeStats::new();
        stats.record_batch(4);
        for _ in 0..4 {
            stats.record_latency(Duration::from_micros(100));
        }
        let mut snap = MetricsSnapshot::new();
        stats.export_metrics(&mut snap);
        assert_eq!(snap.get("serve.requests"), Some(4));
        assert_eq!(snap.get("serve.batches"), Some(1));
        assert_eq!(snap.get("serve.latency.count"), Some(4));
        assert_eq!(snap.get("serve.latency.max_us"), Some(100));
        assert_eq!(snap.get("serve.dropped_requests"), Some(0));
    }
}
