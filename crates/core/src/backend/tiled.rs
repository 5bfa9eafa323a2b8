//! Multi-threaded tile-scheduled SCC kernels on the persistent worker pool.
//!
//! [`TiledBackend`] keeps the register-tiled inner loops of
//! [`super::BlockedBackend`] (the `[f32; LANES]` accumulator strips LLVM
//! autovectorizes) but changes the *scheduling*: instead of handing each
//! worker a round-robin batch of whole output planes, the output is split
//! into cache-sized tiles —
//!
//! * **forward** — `batch × channel-window × row-strip` tasks. Every task
//!   computes all output channels sharing one cyclic input-channel window
//!   (so each input tile read from memory still feeds `OC_BLOCK`
//!   accumulator rows) but only over a [`TILE_F32`]-sized strip of the
//!   plane, so large planes decompose into many independent tasks the pool
//!   can steal across cores while each task's working set stays
//!   cache-resident.
//! * **grad-input** — `batch × input-channel × row-strip` tasks, each
//!   writing one strip of one input-gradient plane via the blocked
//!   register-strip pull loop.
//! * **grad-weight** — one task per filter row (there are only
//!   `cout × group_width` outputs), with the plane walked in the same row
//!   strips so the `grad_output` strip stays hot across all taps of the
//!   row.
//!
//! Planes of at most 16 pixels skip the tiling: they take the blocked
//! backend's channel-major small-plane forward, so the two backends stay
//! bit-identical there.
//!
//! A grain-size heuristic (`grain_for`) batches several tasks per pool
//! claim when planes are small (CIFAR-scale feature maps produce hundreds
//! of tiny tasks), so the scheduler never over-decomposes the work it was
//! meant to speed up.
//!
//! Scheduling is **deterministic**: every output element is written by
//! exactly one task, and each task's accumulation order depends only on the
//! shape — never on the thread count or which worker claims the task — so
//! forward and backward results are bit-identical between 1 and N pool
//! threads (the determinism test in `crates/core/tests/backend_parity.rs`
//! pins this down).

use super::blocked::{
    build_all_window_tables, build_window_bases, forward_blocks, forward_small_plane,
    grad_input_strip, grad_weight_tap_blocks, SMALL_PLANE_MAX,
};
use super::{record_forward_stats, BackendKind, KernelBackend, LANES};
use crate::backward::naive_grad_bias;
use crate::config::SccConfig;
use crate::cyclic::ChannelCycleMap;
use crate::reference::{dims4, validate_shapes};
use crate::stats::KernelStats;
use dsx_tensor::{par, Tensor};

/// Target `f32` elements per output row strip: 8 KiB, so an
/// `OC_BLOCK`-deep forward block holds ~48 KiB of output strips plus one
/// streamed input tile — a comfortable per-core L2 footprint, while the
/// per-strip setup (block dispatch) amortises over a strip twice as long
/// as the L1-sized alternative measured ~5% slower at one thread.
pub const TILE_F32: usize = 2048;

/// Pool-claim work target in output elements: tasks are batched per claim
/// until one claim covers at least this much output, so small planes don't
/// dissolve into per-claim scheduling overhead.
const GRAIN_TARGET_F32: usize = 8192;

/// Row-strip length for a plane of `plane` elements: planes up to the tile
/// target stay whole (no decomposition to amortise), larger planes split
/// into near-equal strips rounded up to [`LANES`] so only the final strip
/// of a ragged plane takes the scalar tail.
pub(super) fn strip_len_for(plane: usize) -> usize {
    if plane <= TILE_F32 {
        return plane.max(1);
    }
    let strips = plane.div_ceil(TILE_F32);
    plane.div_ceil(strips).div_ceil(LANES) * LANES
}

/// How many tasks one pool claim should cover so a claim amortises to at
/// least [`GRAIN_TARGET_F32`] output elements.
fn grain_for(num_tasks: usize, elems_per_task: usize) -> usize {
    (GRAIN_TARGET_F32 / elems_per_task.max(1)).clamp(1, num_tasks.max(1))
}

/// The tile-scheduled multi-threaded execution substrate.
#[derive(Debug, Clone, Copy, Default)]
pub struct TiledBackend;

impl KernelBackend for TiledBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Tiled
    }

    fn forward(
        &self,
        cfg: &SccConfig,
        map: &ChannelCycleMap,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stats: Option<&KernelStats>,
    ) -> Tensor {
        validate_shapes(cfg, input, weight, bias);
        let (n, cin, h, w) = dims4(input);
        let cout = cfg.cout();
        let gw = cfg.group_width();
        let plane = h * w;
        let cd = map.cyclic_dist().max(1);
        if plane <= SMALL_PLANE_MAX {
            // A plane this small is one strip, so there is nothing to tile:
            // take the blocked backend's channel-major path.
            let output = forward_small_plane(cfg, map, input, weight, bias);
            record_forward_stats(cfg, n, plane, &output, stats);
            return output;
        }

        let mut output = Tensor::zeros(&[n, cout, h, w]);
        if n == 0 {
            record_forward_stats(cfg, n, plane, &output, stats);
            return output;
        }
        let in_data = input.as_slice();
        let w_data = weight.as_slice();
        let b_data = bias.map(|b| b.as_slice());

        let strip_len = strip_len_for(plane);
        let n_strips = plane.div_ceil(strip_len);
        // One task per (image, channel window, row strip); the task owns
        // that strip of every output-channel plane reading the window.
        let mut groups: Vec<Vec<(usize, usize)>> = Vec::with_capacity(n * cd * n_strips);
        for img in 0..n {
            for window in 0..cd {
                for strip in 0..n_strips {
                    let t0 = strip * strip_len;
                    let len = (t0 + strip_len).min(plane) - t0;
                    groups.push(
                        (window..cout)
                            .step_by(cd)
                            .map(|oc| ((img * cout + oc) * plane + t0, len))
                            .collect(),
                    );
                }
            }
        }
        // Per-window tap offsets and weight tables, resolved once per call
        // and reused by every (image, strip) task reading the window.
        let window_bases = build_window_bases(map, cd, plane);
        let window_tables = build_all_window_tables(cd, cout, w_data, b_data, gw);
        let planes_per_window = cout.div_ceil(cd);
        let grain = grain_for(groups.len(), planes_per_window * strip_len.min(plane));
        par::parallel_for_tile_groups_mut(
            output.as_mut_slice(),
            &groups,
            grain,
            |group_idx, tiles| {
                dsx_tensor::isa::wide(
                    #[inline(always)]
                    || {
                        if tiles.is_empty() {
                            return;
                        }
                        let img = group_idx / (cd * n_strips);
                        let window_idx = (group_idx / n_strips) % cd;
                        let t0 = tiles[0].0 % plane;
                        let bases = &window_bases[window_idx];
                        let image = &in_data[img * cin * plane..(img + 1) * cin * plane];
                        // Recover each tile's output channel from its offset and
                        // hand the strips to the blocked register-tiled inner loop.
                        let mut strips: Vec<(usize, &mut [f32])> = tiles
                            .iter_mut()
                            .map(|(offset, strip)| ((*offset / plane) % cout, &mut **strip))
                            .collect();
                        forward_blocks(&mut strips, t0, bases, image, &window_tables[window_idx]);
                    },
                )
            },
        );

        record_forward_stats(cfg, n, plane, &output, stats);
        output
    }

    fn grad_input(
        &self,
        cfg: &SccConfig,
        map: &ChannelCycleMap,
        weight: &Tensor,
        grad_output: &Tensor,
    ) -> Tensor {
        let (n, cout, h, w) = dims4(grad_output);
        let cin = cfg.cin();
        let plane = h * w;
        let go_data = grad_output.as_slice();
        let w_data = weight.as_slice();

        let mut grad_input = Tensor::zeros(&[n, cin, h, w]);
        if plane == 0 || n == 0 {
            return grad_input;
        }
        let strip_len = strip_len_for(plane);
        let n_strips = plane.div_ceil(strip_len);
        // One single-tile task per (image, input channel, row strip).
        let groups: Vec<Vec<(usize, usize)>> = (0..n * cin * n_strips)
            .map(|task| {
                let strip = task % n_strips;
                let chunk = task / n_strips; // img * cin + ic
                let t0 = strip * strip_len;
                let len = (t0 + strip_len).min(plane) - t0;
                vec![(chunk * plane + t0, len)]
            })
            .collect();
        let grain = grain_for(groups.len(), strip_len.min(plane));
        par::parallel_for_tile_groups_mut(
            grad_input.as_mut_slice(),
            &groups,
            grain,
            |_group_idx, tiles| {
                let (offset, strip) = &mut tiles[0];
                let chunk = *offset / plane;
                let t0 = *offset % plane;
                let img = chunk / cin;
                let ic = chunk % cin;
                let go_image = &go_data[img * cout * plane..(img + 1) * cout * plane];
                grad_input_strip(strip, t0, map, ic, go_image, plane, w_data);
            },
        );
        grad_input
    }

    fn grad_weight_bias(
        &self,
        cfg: &SccConfig,
        map: &ChannelCycleMap,
        input: &Tensor,
        grad_output: &Tensor,
    ) -> (Tensor, Tensor) {
        let (n, cin, h, w) = dims4(input);
        let cout = cfg.cout();
        let gw = cfg.group_width();
        let plane = h * w;
        let in_data = input.as_slice();
        let go_data = grad_output.as_slice();
        let strip_len = strip_len_for(plane.max(1));
        let n_strips = plane.div_ceil(strip_len.max(1));

        let mut grad_weight = Tensor::zeros(&[cout, gw]);
        // Only cout rows of gw taps exist, so rows are the parallel unit
        // (grain 1 — a row's cost is plane-sized, not gw-sized); within a
        // row the plane is walked strip-by-strip so the grad_output strip
        // stays cache-hot across every tap block.
        par::parallel_for_each_chunk_mut_with_grain(
            grad_weight.as_mut_slice(),
            gw,
            1,
            |oc, gw_row| {
                let window = map.window_for_output(oc);
                let ics = window.channels();
                for img in 0..n {
                    let go_plane =
                        &go_data[(img * cout + oc) * plane..(img * cout + oc + 1) * plane];
                    let image = &in_data[img * cin * plane..(img + 1) * cin * plane];
                    for strip in 0..n_strips {
                        let t0 = strip * strip_len;
                        let t1 = (t0 + strip_len).min(plane);
                        grad_weight_tap_blocks(gw_row, &ics, go_plane, image, plane, t0, t1);
                    }
                }
            },
        );
        (grad_weight, naive_grad_bias(cfg, grad_output))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{scc_backward_reference, scc_forward_reference};
    use dsx_tensor::{allclose, TEST_TOLERANCE};

    fn check(cin: usize, cout: usize, cg: usize, co: f64, n: usize, h: usize, w: usize) {
        let cfg = SccConfig::new(cin, cout, cg, co).unwrap();
        let map = ChannelCycleMap::build(&cfg);
        let input = Tensor::randn(&[n, cin, h, w], 21);
        let weight = Tensor::randn(&[cout, cfg.group_width()], 22);
        let bias = Tensor::randn(&[cout], 23);
        let grad_out = Tensor::randn(&[n, cout, h, w], 24);
        let backend = TiledBackend;

        let fwd = backend.forward(&cfg, &map, &input, &weight, Some(&bias), None);
        let ref_fwd = scc_forward_reference(&cfg, &input, &weight, Some(&bias));
        assert!(
            allclose(&fwd, &ref_fwd, TEST_TOLERANCE),
            "forward diverges for cin={cin} cout={cout} cg={cg} co={co} {h}x{w}"
        );

        let grads = backend.backward(&cfg, &map, &input, &weight, &grad_out, None);
        let (ref_gi, ref_gw, ref_gb) = scc_backward_reference(&cfg, &input, &weight, &grad_out);
        assert!(
            allclose(&grads.grad_input, &ref_gi, TEST_TOLERANCE),
            "grad_input"
        );
        assert!(
            allclose(&grads.grad_weight, &ref_gw, TEST_TOLERANCE),
            "grad_weight"
        );
        assert!(
            allclose(&grads.grad_bias, &ref_gb, TEST_TOLERANCE),
            "grad_bias"
        );
    }

    #[test]
    fn matches_reference_on_paper_settings() {
        check(16, 32, 2, 0.5, 2, 5, 5);
        check(16, 32, 4, 0.5, 1, 4, 4);
        check(16, 32, 8, 0.5, 1, 4, 4);
        check(12, 24, 2, 0.33, 2, 3, 3);
    }

    #[test]
    fn matches_reference_when_planes_split_into_strips() {
        // Planes above 2 * TILE_F32 actually exercise the strip path:
        // 64x64 = 4096 elements -> 4 strips; 48x47 = 2256 -> ragged strips.
        check(8, 16, 2, 0.5, 1, 64, 64);
        check(8, 16, 2, 0.5, 1, 48, 47);
        check(4, 10, 2, 0.5, 2, 52, 40);
    }

    #[test]
    fn matches_reference_on_ragged_planes_and_partial_blocks() {
        check(8, 16, 2, 0.5, 2, 3, 5); // plane 15, scalar tail
        check(8, 16, 2, 0.5, 1, 1, 3); // plane 3 < LANES
        check(8, 7, 2, 0.5, 1, 4, 4); // windows with ragged plane counts
        check(4, 20, 2, 0.5, 1, 4, 4); // groups of 5: partial OC blocks
        check(8, 12, 1, 0.0, 1, 4, 4); // pointwise: one shared window
        check(8, 12, 4, 0.0, 1, 4, 4); // GPW: disjoint windows
    }

    #[test]
    fn strip_lengths_round_to_lanes_and_cover_the_plane() {
        for plane in [1usize, 7, 256, 2048, 2049, 4096, 4100, 10_000] {
            let strip = strip_len_for(plane);
            assert!(strip >= 1 && strip <= plane.max(1));
            if plane > TILE_F32 {
                assert_eq!(strip % LANES, 0, "plane {plane}: strip {strip}");
                assert!(strip <= TILE_F32 + LANES, "plane {plane}: strip {strip}");
            } else {
                assert_eq!(strip, plane.max(1));
            }
            // Strips tile the plane: n_strips full-or-ragged pieces.
            let n_strips = plane.div_ceil(strip);
            assert!(n_strips * strip >= plane);
            assert!((n_strips - 1) * strip < plane.max(1));
        }
    }
}
