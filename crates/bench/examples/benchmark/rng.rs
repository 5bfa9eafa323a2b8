//! The benchmark's own input generator: one splitmix64 stream per purpose,
//! all derived from `--seed`. The program under test never sees the seed,
//! only the tensors, labels and arrival times drawn here.

use dsx_tensor::Tensor;

/// splitmix64 (Steele, Lea & Flood): tiny, seedable, and good enough to
/// draw inputs and arrival gaps from.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream for one purpose (`tag`) of one run (`seed`): distinct tags
    /// give independent streams, so adding a draw to one never shifts
    /// another.
    pub fn stream(seed: u64, tag: &str) -> SplitMix64 {
        let mut h = SplitMix64(seed);
        for b in tag.bytes() {
            h.0 ^= u64::from(b);
            h.next_u64();
        }
        SplitMix64(h.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// A tensor of the given shape with values uniform in `[-1, 1)`.
    pub fn tensor(&mut self, dims: &[usize]) -> Tensor {
        let numel: usize = dims.iter().product();
        let data = (0..numel)
            .map(|_| (self.unit() * 2.0 - 1.0) as f32)
            .collect();
        Tensor::from_vec(data, dims)
    }
}

/// Arrival times (seconds from the start of the run) of an open loop at
/// `rate` requests per second: `blocks` blocks of `per_block` arrivals.
///
/// Gaps are exponential — Poisson arrivals — and each block's gaps are then
/// scaled so the block spans exactly `per_block / rate` seconds. That is the
/// Poisson process conditioned on its count per block: bursts and lulls
/// inside a block stay, but the offered load of every block, and so of every
/// run, is the stated rate exactly rather than the rate ± 1/√n. Without it
/// `ops_per_s` would measure the schedule's luck, not the server.
pub fn poisson_schedule(
    rng: &mut SplitMix64,
    rate: f64,
    blocks: usize,
    per_block: usize,
) -> Vec<f64> {
    let block_len = per_block as f64 / rate;
    let mut due = Vec::with_capacity(blocks * per_block);
    for block in 0..blocks {
        let gaps: Vec<f64> = (0..per_block).map(|_| -(1.0 - rng.unit()).ln()).collect();
        let scale = block_len / gaps.iter().sum::<f64>();
        let mut t = block as f64 * block_len;
        for gap in gaps {
            t += gap * scale;
            due.push(t);
        }
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_other_seed_differs() {
        let draw =
            |seed| poisson_schedule(&mut SplitMix64::stream(seed, "arrivals"), 240.0, 3, 240);
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn schedule_is_ordered_and_bursty_at_the_stated_rate() {
        let mut rng = SplitMix64::stream(1, "arrivals");
        // 100 000 draws, unscaled: the raw exponential gaps must already
        // average 1/rate within 1 %.
        let n = 100_000;
        let mean_raw = (0..n).map(|_| -(1.0 - rng.unit()).ln()).sum::<f64>() / n as f64 / 240.0;
        assert!((mean_raw * 240.0 - 1.0).abs() < 0.01, "{mean_raw}");

        let due = poisson_schedule(&mut rng, 240.0, 417, 240);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = due.last().unwrap() / due.len() as f64;
        assert!((mean_gap * 240.0 - 1.0).abs() < 0.01, "{mean_gap}");
        // Exponential gaps have a coefficient of variation of 1; an evenly
        // paced schedule would have 0.
        let gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.9..1.1).contains(&cv), "cv {cv}");
    }

    #[test]
    fn streams_are_independent_per_tag() {
        let a = SplitMix64::stream(3, "pool").next_u64();
        let b = SplitMix64::stream(3, "labels").next_u64();
        assert_ne!(a, b);
        let t = SplitMix64::stream(3, "pool").tensor(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert!(t.as_slice().iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
