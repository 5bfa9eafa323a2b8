//! Channel-cyclic pattern (Algorithm 1 and Algorithm 2 of the paper).
//!
//! Adjacent SCC filters read overlapping, sliding windows of input channels;
//! because both the window width and the slide stride are fixed, the sequence
//! of windows repeats with a short period — the *cyclic distance*. Algorithm
//! 1 enumerates the distinct windows of one cycle; Algorithm 2 maps a filter
//! (output channel) index back to its window with a single modulo and a table
//! lookup, which is what the GPU kernels do per thread.
//!
//! The same map drives the channel-cyclic optimization of the operator
//! composition baselines: only the first cycle's windows need to be sliced
//! and concatenated, everything after that is a repeat.

use crate::config::SccConfig;

/// A single filter's input-channel window.
///
/// `start` is the first input channel; the window covers `len` channels and
/// wraps around `cin` when `start + len > cin` (the channel-circulation
/// scheme of §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelWindow {
    /// First input channel of the window.
    pub start: usize,
    /// Number of channels covered.
    pub len: usize,
    /// Total number of input channels (the modulus for wrap-around).
    pub cin: usize,
}

impl ChannelWindow {
    /// The input channel read at position `offset` within the window.
    #[inline]
    pub fn channel_at(&self, offset: usize) -> usize {
        debug_assert!(offset < self.len);
        (self.start + offset) % self.cin
    }

    /// Whether the window covers input channel `ic`.
    pub fn contains(&self, ic: usize) -> bool {
        self.offset_of(ic).is_some()
    }

    /// Position of input channel `ic` within the window, if covered.
    pub fn offset_of(&self, ic: usize) -> Option<usize> {
        let ic = ic % self.cin;
        let rel = (ic + self.cin - self.start % self.cin) % self.cin;
        if rel < self.len {
            Some(rel)
        } else {
            None
        }
    }

    /// Whether the window wraps past the last input channel.
    pub fn wraps(&self) -> bool {
        self.start + self.len > self.cin
    }

    /// The channels of the window in order.
    pub fn channels(&self) -> Vec<usize> {
        (0..self.len).map(|o| self.channel_at(o)).collect()
    }
}

/// The enumerated cycle of distinct channel windows for an SCC configuration
/// (the output of Algorithm 1), plus the reverse map used by the
/// input-centric backward kernel.
#[derive(Debug, Clone)]
pub struct ChannelCycleMap {
    windows: Vec<ChannelWindow>,
    cyclic_dist: usize,
    cin: usize,
    cout: usize,
    /// The `(window, offset_within_window)` pairs of the cycle's windows
    /// that read each input channel, ascending by window: input channel
    /// `ic`'s pairs are `readers[reader_start[ic]..reader_start[ic + 1]]`.
    readers: Vec<(usize, usize)>,
    reader_start: Vec<usize>,
}

impl ChannelCycleMap {
    /// Runs Algorithm 1 for the given configuration.
    ///
    /// Starting from the window `[0, group_width)`, each subsequent window is
    /// shifted by `group_width - overlap_channels` (modulo `cin`); the
    /// enumeration stops as soon as a window repeats or every output channel
    /// has been assigned one.
    pub fn build(cfg: &SccConfig) -> Self {
        let cin = cfg.cin();
        let cout = cfg.cout();
        let gw = cfg.group_width();
        let stride = cfg.slide_stride();

        let mut windows = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut start = 0usize;
        for _oid in 0..cout {
            let window = ChannelWindow {
                start,
                len: gw,
                cin,
            };
            if !seen.insert(window.start) {
                break;
            }
            windows.push(window);
            start = (start + stride) % cin;
        }
        let cyclic_dist = windows.len();
        // Counting sort of every (window, offset) tap by the channel it
        // reads; windows are visited in order, so each channel's pairs come
        // out ascending by window.
        let mut reader_start = vec![0usize; cin + 1];
        for window in &windows {
            for offset in 0..window.len {
                reader_start[window.channel_at(offset) + 1] += 1;
            }
        }
        for ic in 0..cin {
            reader_start[ic + 1] += reader_start[ic];
        }
        let mut readers = vec![(0, 0); reader_start[cin]];
        let mut next = reader_start.clone();
        for (w, window) in windows.iter().enumerate() {
            for offset in 0..window.len {
                let ic = window.channel_at(offset);
                readers[next[ic]] = (w, offset);
                next[ic] += 1;
            }
        }
        ChannelCycleMap {
            windows,
            cyclic_dist,
            cin,
            cout,
            readers,
            reader_start,
        }
    }

    /// The cyclic distance: how many filters it takes before the same
    /// input-channel window re-appears (paper Fig. 5).
    pub fn cyclic_dist(&self) -> usize {
        self.cyclic_dist
    }

    /// The distinct windows of one cycle, in filter order.
    pub fn windows(&self) -> &[ChannelWindow] {
        &self.windows
    }

    /// Number of input channels.
    pub fn cin(&self) -> usize {
        self.cin
    }

    /// Number of output channels the map was built for.
    pub fn cout(&self) -> usize {
        self.cout
    }

    /// Algorithm 2: the window of output channel `oc`, looked up via
    /// `oc % cyclic_dist`.
    #[inline]
    pub fn window_for_output(&self, oc: usize) -> ChannelWindow {
        self.windows[oc % self.cyclic_dist]
    }

    /// Reverse map for the input-centric backward pass: calls
    /// `f(output_channel, offset_within_window)` for every filter that reads
    /// input channel `ic`, in ascending output-channel order.
    ///
    /// The backward kernel assigns one thread per *input* gradient pixel and
    /// walks this list, pulling contributions instead of scattering them —
    /// which is exactly how the paper eliminates atomic updates (§IV-B).
    /// Only the cycle's windows are stored (built once, `cyclic_dist ×
    /// group_width` pairs); output channel `cycle * cyclic_dist + w` reads
    /// through window `w`, so the pairs are expanded cycle by cycle here
    /// instead of being held for all `cout × group_width` filter taps.
    #[inline]
    pub fn for_each_output_reading(&self, ic: usize, mut f: impl FnMut(usize, usize)) {
        let readers = &self.readers[self.reader_start[ic]..self.reader_start[ic + 1]];
        for first in (0..self.cout).step_by(self.cyclic_dist.max(1)) {
            for &(window, offset) in readers {
                // Only the last cycle can be partial; its windows past
                // `cout` have no filter. (One call site for `f`, so hot
                // kernels get it inlined.)
                if first + window >= self.cout {
                    break;
                }
                f(first + window, offset);
            }
        }
    }

    /// Number of cycles needed to cover all `cout` output channels
    /// (the repetition count used by the cyclic-optimized compositions).
    pub fn num_cycles(&self) -> usize {
        self.cout.div_ceil(self.cyclic_dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cin: usize, cout: usize, cg: usize, co: f64) -> SccConfig {
        SccConfig::new(cin, cout, cg, co).unwrap()
    }

    fn readers_of(map: &ChannelCycleMap, ic: usize) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        map.for_each_output_reading(ic, |oc, offset| pairs.push((oc, offset)));
        pairs
    }

    #[test]
    fn paper_fig5a_cycle() {
        // Cin = 4, cg = 2, co = 50% -> group width 2, stride 1, cyclic_dist 4.
        let map = ChannelCycleMap::build(&cfg(4, 8, 2, 0.5));
        assert_eq!(map.cyclic_dist(), 4);
        let starts: Vec<usize> = map.windows().iter().map(|w| w.start).collect();
        assert_eq!(starts, vec![0, 1, 2, 3]);
        // Filter 3's window wraps: channels {3, 0} as in Fig. 2(c).
        assert_eq!(map.windows()[3].channels(), vec![3, 0]);
    }

    #[test]
    fn paper_fig5b_cycle() {
        // Cin = 6, cg = 2, co = 33% -> group width 3, overlap 1, stride 2,
        // cyclic_dist 3.
        let map = ChannelCycleMap::build(&cfg(6, 6, 2, 0.33));
        assert_eq!(map.cyclic_dist(), 3);
        let starts: Vec<usize> = map.windows().iter().map(|w| w.start).collect();
        assert_eq!(starts, vec![0, 2, 4]);
    }

    #[test]
    fn gpw_cycle_equals_group_count() {
        // co = 0: windows tile the channels exactly, cyclic distance = cg.
        let map = ChannelCycleMap::build(&cfg(16, 32, 4, 0.0));
        assert_eq!(map.cyclic_dist(), 4);
        for (g, w) in map.windows().iter().enumerate() {
            assert_eq!(w.start, g * 4);
            assert!(!w.wraps());
        }
    }

    #[test]
    fn pointwise_cycle_is_one() {
        let map = ChannelCycleMap::build(&cfg(8, 16, 1, 0.0));
        assert_eq!(map.cyclic_dist(), 1);
        assert_eq!(map.windows()[0].len, 8);
    }

    #[test]
    fn cycle_is_bounded_by_cout() {
        // Even if the window sequence would take longer to repeat, we never
        // enumerate more windows than there are output channels.
        let map = ChannelCycleMap::build(&cfg(64, 4, 2, 0.5));
        assert!(map.cyclic_dist() <= 4);
    }

    #[test]
    fn window_lookup_is_periodic() {
        let map = ChannelCycleMap::build(&cfg(4, 16, 2, 0.5));
        for oc in 0..16 {
            assert_eq!(
                map.window_for_output(oc),
                map.window_for_output(oc % map.cyclic_dist())
            );
        }
    }

    #[test]
    fn window_offset_round_trips() {
        let map = ChannelCycleMap::build(&cfg(6, 12, 2, 0.33));
        for w in map.windows() {
            for offset in 0..w.len {
                let ic = w.channel_at(offset);
                assert_eq!(w.offset_of(ic), Some(offset));
            }
        }
    }

    #[test]
    fn window_contains_rejects_outside_channels() {
        let w = ChannelWindow {
            start: 3,
            len: 2,
            cin: 4,
        };
        assert!(w.contains(3));
        assert!(w.contains(0));
        assert!(!w.contains(1));
        assert!(!w.contains(2));
        assert!(w.wraps());
    }

    #[test]
    fn reverse_map_is_consistent_with_forward_windows() {
        let config = cfg(8, 24, 4, 0.5);
        let map = ChannelCycleMap::build(&config);
        // Every (oc, offset) in the reverse map must agree with the forward
        // window, come in ascending oc order, and every forward pair must
        // appear exactly once.
        let mut count = 0usize;
        for ic in 0..8 {
            let pairs = readers_of(&map, ic);
            assert!(
                pairs.windows(2).all(|p| p[0].0 < p[1].0),
                "ic {ic}: {pairs:?}"
            );
            for (oc, offset) in pairs {
                assert_eq!(map.window_for_output(oc).channel_at(offset), ic);
                count += 1;
            }
        }
        assert_eq!(count, config.cout() * config.group_width());
    }

    #[test]
    fn reverse_map_lists_every_reading_filter_in_output_order() {
        // The expansion from the cycle's windows must give exactly the
        // (oc, offset) list of a walk over every filter, in the same order:
        // the input-gradient kernels accumulate in that order.
        for (cin, cout, cg, co) in [
            (4, 10, 2, 0.5),
            (6, 13, 2, 0.33),
            (8, 24, 4, 0.5),
            (16, 7, 4, 0.25),
            (8, 12, 1, 0.0),
            (12, 30, 3, 0.75),
        ] {
            let map = ChannelCycleMap::build(&cfg(cin, cout, cg, co));
            let mut walk = vec![Vec::new(); cin];
            for oc in 0..cout {
                let window = map.window_for_output(oc);
                for offset in 0..window.len {
                    walk[window.channel_at(offset)].push((oc, offset));
                }
            }
            for (ic, want) in walk.iter().enumerate() {
                assert_eq!(
                    &readers_of(&map, ic),
                    want,
                    "cin={cin} cout={cout} cg={cg} co={co} ic={ic}"
                );
            }
        }
    }

    #[test]
    fn every_input_channel_is_read_by_some_filter_when_cout_covers_cycle() {
        let config = cfg(16, 32, 4, 0.5);
        let map = ChannelCycleMap::build(&config);
        assert!((0..16).all(|ic| !readers_of(&map, ic).is_empty()));
    }

    #[test]
    fn num_cycles_covers_all_outputs() {
        let map = ChannelCycleMap::build(&cfg(4, 10, 2, 0.5));
        assert_eq!(map.cyclic_dist(), 4);
        assert_eq!(map.num_cycles(), 3); // ceil(10 / 4)
    }

    #[test]
    fn algorithm1_matches_paper_pseudocode_for_50_percent() {
        // Mirrors the paper's Algorithm 1 trace for Cin=4, cg=2, co=50%:
        // windows (0,2), (1,3), (2,4->wrap), (3,5->wrap), then (0,2) repeats.
        let map = ChannelCycleMap::build(&cfg(4, 8, 2, 0.5));
        let expected: Vec<(usize, usize)> = vec![(0, 2), (1, 2), (2, 2), (3, 2)];
        let got: Vec<(usize, usize)> = map.windows().iter().map(|w| (w.start, w.len)).collect();
        assert_eq!(got, expected);
    }
}
