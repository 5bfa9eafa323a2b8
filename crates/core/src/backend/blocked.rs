//! Register-blocked, autovectorizable SCC kernels.
//!
//! Three ideas, all safe Rust (no `unsafe`, no intrinsics, no nightly):
//!
//! 1. **Spatial tiling** — the output plane is processed in [`LANES`]-wide
//!    strips held in fixed-size `[f32; LANES]` accumulator arrays. The inner
//!    loops run over a constant bound, so LLVM unrolls and autovectorizes
//!    them, and each output strip is written exactly once instead of once
//!    per window tap (the naive kernel makes `group_width` passes over the
//!    whole plane).
//! 2. **Output-channel blocking** — Algorithm 2 makes output channels
//!    `oc` and `oc + cyclic_dist` read the *same* input-channel window, so
//!    the forward kernel groups all planes sharing a window (via
//!    `par::parallel_for_each_chunk_group_mut`) and computes [`OC_BLOCK`]
//!    of them together: every input tile loaded from memory feeds
//!    `OC_BLOCK` independent accumulator rows, cutting input traffic by
//!    that factor. On the default CIFAR-scale bench workload
//!    (`cin=64, cg=2, co=0.5, cout=128`) 32 output channels share each
//!    window.
//! 3. **Tap blocking in the weight gradient** — the `grad_output` strip is
//!    loaded once per [`TAP_BLOCK`] window taps rather than once per tap.
//! 4. **Channel-major small planes** — a plane of at most 16 pixels (the
//!    4×4 and 2×2 layers at the end of MobileNet) fills at most two pixel
//!    lanes, so for those the forward kernel turns the tile around: lanes
//!    are [`LANES`] output channels of one window, and the columns of a
//!    register tile are up to [`COL_BLOCK`] pixels of one image. Every lane
//!    reads the same input scalar, so each tap is one contiguous load from
//!    the input's own channel plane, broadcast per column, and one
//!    multiply-add per column; weights are packed one 8-channel block at a
//!    time (`[tap][LANES]`, each weight once per call), not as
//!    lane-broadcast tables.
//!
//! In the pixel-lane kernels a scalar tail handles plane sizes that do not
//! divide [`LANES`], so any spatial shape is supported; the cross-backend
//! proptest suite exercises exactly those ragged cases. The tail adds the
//! bias first, the vector strips and the small-plane path add it last, so
//! tail pixels can differ from the other paths by an ulp.

use super::{record_forward_stats, BackendKind, KernelBackend};
use crate::backward::naive_grad_bias;
use crate::config::SccConfig;
use crate::cyclic::ChannelCycleMap;
use crate::reference::{dims4, validate_shapes};
use crate::stats::KernelStats;
use dsx_tensor::{par, Tensor};

/// Width (in `f32` elements) of one register tile; `[f32; LANES]` arrays
/// are the unit LLVM autovectorizes.
pub const LANES: usize = 8;

/// How many output channels sharing an input-channel window are accumulated
/// per forward pass. Sized so the `OC_BLOCK * LANES`-float accumulator tile
/// plus one input tile still fits the 16 SIMD registers of baseline x86-64.
pub const OC_BLOCK: usize = 6;

/// How many window taps share one `grad_output` strip in the weight-gradient
/// kernel (a narrower block: each tap adds an input tile to the register
/// working set).
pub const TAP_BLOCK: usize = 4;

/// Largest plane, in pixels, that takes the channel-major small-plane
/// forward path ([`forward_small_plane`]).
pub(super) const SMALL_PLANE_MAX: usize = 16;

/// Pixels of one image per small-plane register tile: `COL_BLOCK`
/// accumulator rows of `[f32; LANES]`, one weight row and the broadcast
/// pixel fit the 16 SIMD registers of baseline x86-64 without spills.
const COL_BLOCK: usize = 4;

/// The register-blocked execution substrate.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockedBackend;

impl KernelBackend for BlockedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Blocked
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
        let (n, _, h, w) = dims4(input);
        let plane = h * w;
        let output = if plane <= SMALL_PLANE_MAX {
            forward_small_plane(cfg, map, input, weight, bias)
        } else {
            forward_pixel_lanes(cfg, map, input, weight, bias)
        };
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
        par::parallel_for_each_chunk_mut(
            grad_input.as_mut_slice(),
            plane,
            |chunk_idx, gi_plane| {
                let img = chunk_idx / cin;
                let ic = chunk_idx % cin;
                let go_image = &go_data[img * cout * plane..(img + 1) * cout * plane];
                grad_input_strip(gi_plane, 0, map, ic, go_image, plane, w_data);
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

        let mut grad_weight = Tensor::zeros(&[cout, gw]);
        // Grain 1: each gw-element row reduces over every image's whole
        // plane, so the length-proportional claim heuristic would batch
        // (or inline) rows that should spread across the pool.
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
                    grad_weight_tap_blocks(gw_row, &ics, go_plane, image, plane, 0, plane);
                }
            },
        );
        (grad_weight, naive_grad_bias(cfg, grad_output))
    }
}

/// The pixel-lane forward (ideas 1 and 2 of the module doc) for planes
/// larger than [`SMALL_PLANE_MAX`]; the caller has validated the shapes.
fn forward_pixel_lanes(
    cfg: &SccConfig,
    map: &ChannelCycleMap,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Tensor {
    let (n, cin, h, w) = dims4(input);
    let cout = cfg.cout();
    let gw = cfg.group_width();
    let plane = h * w;
    let cd = map.cyclic_dist().max(1);

    let mut output = Tensor::zeros(&[n, cout, h, w]);
    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    let b_data = bias.map(|b| b.as_slice());

    // Per-window tap offsets and pre-broadcast weight tables, resolved
    // once per call and reused by every image that reads the window.
    let window_bases = build_window_bases(map, cd, plane);
    let window_tables = build_all_window_tables(cd, cout, w_data, b_data, gw);

    // One group per (image, channel window): all output-channel planes of
    // the group read the same input channels, so one worker streams each
    // input tile once and feeds OC_BLOCK accumulator rows from it.
    par::parallel_for_each_chunk_group_mut(
        output.as_mut_slice(),
        plane,
        n * cd,
        |chunk_idx| {
            let img = chunk_idx / cout;
            let oc = chunk_idx % cout;
            img * cd + oc % cd
        },
        |group_idx, planes| {
            let img = group_idx / cd;
            let window = group_idx % cd;
            let image = &in_data[img * cin * plane..(img + 1) * cin * plane];
            forward_blocks(
                planes,
                0,
                &window_bases[window],
                image,
                &window_tables[window],
            );
        },
    );
    output
}

/// Computes one spatial pass of `OCB` output-channel strips that share an
/// input-channel window: for every [`LANES`]-wide strip, each input tile is
/// loaded once and multiplied into `OCB` register accumulator rows.
///
/// Each `block` entry is `(chunk_idx, strip)` where `strip` covers the
/// plane's spatial range `[t0, t0 + strip.len())`. [`BlockedBackend`]
/// passes whole planes (`t0 = 0`); the tiled backend passes cache-sized
/// row strips.
///
/// `wtab`/`biases` come pre-broadcast from [`build_window_tables`]
/// (`wtab[j * OCB + b] = splat(weight[oc_b][j])`), so the hot loop is pure
/// loads + mul/add on fixed-width arrays — no scalar broadcasts, no index
/// arithmetic beyond `base + t0 + t`, and the only branches are the
/// (predictable) slice checks.
pub(super) fn forward_block<const OCB: usize>(
    block: &mut [(usize, &mut [f32])],
    t0: usize,
    bases: &[usize],
    image: &[f32],
    wtab: &[[f32; LANES]],
    biases: &[f32],
) {
    debug_assert_eq!(block.len(), OCB);
    debug_assert_eq!(wtab.len() % OCB, 0);
    debug_assert!(biases.len() >= OCB);
    let strip_len = block[0].1.len();
    let mut t = 0usize;
    while t + LANES <= strip_len {
        let mut acc = [[0.0f32; LANES]; OCB];
        for (&base, wv) in bases.iter().zip(wtab.chunks_exact(OCB)) {
            let at = base + t0 + t;
            let x: [f32; LANES] = image[at..at + LANES]
                .try_into()
                // lint: allow(panic) — the range is LANES wide by
                // construction; failure would mean the tiler itself is
                // broken, which must die loudly, not corrupt output.
                .expect("tile is LANES wide");
            for b in 0..OCB {
                let w = wv[b];
                let row = &mut acc[b];
                for l in 0..LANES {
                    row[l] += w[l] * x[l];
                }
            }
        }
        for (b, (_, out_strip)) in block.iter_mut().enumerate() {
            let bias = biases[b];
            for (dst, a) in out_strip[t..t + LANES].iter_mut().zip(acc[b]) {
                *dst = a + bias;
            }
        }
        t += LANES;
    }
    // Scalar tail for strip lengths that do not divide the tile width.
    while t < strip_len {
        for (b, (_, out_strip)) in block.iter_mut().enumerate() {
            let mut acc = biases[b];
            for (&base, wv) in bases.iter().zip(wtab.chunks_exact(OCB)) {
                acc += wv[b][0] * image[base + t0 + t];
            }
            out_strip[t] = acc;
        }
        t += 1;
    }
}

/// Pre-broadcast forward tables for one cyclic window: for each
/// [`OC_BLOCK`]-sized chunk of the window's output channels (in ascending
/// `oc` order, matching the chunk order both backends hand to
/// [`forward_blocks`]), the splat weight table
/// (`wtab[j * len + b] = [weight[oc_b][j]; LANES]`) and bias row. Built
/// once per forward call and reused across every image (blocked backend)
/// and every row strip (tiled backend) that reads the window.
pub(super) struct WindowTables {
    blocks: Vec<WindowBlock>,
}

struct WindowBlock {
    wtab: Vec<[f32; LANES]>,
    biases: [f32; OC_BLOCK],
    len: usize,
}

/// Builds the [`WindowTables`] for one window's output channels.
pub(super) fn build_window_tables(
    ocs: &[usize],
    w_data: &[f32],
    b_data: Option<&[f32]>,
    gw: usize,
) -> WindowTables {
    let blocks = ocs
        .chunks(OC_BLOCK)
        .map(|chunk| {
            let len = chunk.len();
            let mut wtab = vec![[0.0f32; LANES]; gw * len];
            let mut biases = [0.0f32; OC_BLOCK];
            for (b, &oc) in chunk.iter().enumerate() {
                biases[b] = b_data.map(|bd| bd[oc]).unwrap_or(0.0);
                for j in 0..gw {
                    wtab[j * len + b] = [w_data[oc * gw + j]; LANES];
                }
            }
            WindowBlock { wtab, biases, len }
        })
        .collect();
    WindowTables { blocks }
}

/// [`build_window_tables`] for every window: window `w` owns output
/// channels `oc ≡ w (mod cd)` in ascending order.
pub(super) fn build_all_window_tables(
    cd: usize,
    cout: usize,
    w_data: &[f32],
    b_data: Option<&[f32]>,
    gw: usize,
) -> Vec<WindowTables> {
    (0..cd)
        .map(|w| {
            let ocs: Vec<usize> = (w..cout).step_by(cd).collect();
            build_window_tables(&ocs, w_data, b_data, gw)
        })
        .collect()
}

/// Per-tap input-channel base offsets for every window of `map`, resolved
/// once per call.
pub(super) fn build_window_bases(
    map: &ChannelCycleMap,
    cd: usize,
    plane: usize,
) -> Vec<Vec<usize>> {
    (0..cd)
        .map(|w| {
            map.windows()[w]
                .channels()
                .iter()
                .map(|ic| ic * plane)
                .collect()
        })
        .collect()
}

/// Runs [`forward_block`] over `strips` in [`OC_BLOCK`]-sized pieces using
/// the window's pre-built tables, dispatching to the right monomorphisation
/// for each (possibly partial) block. `strips` must list the window's
/// output channels in the same ascending order `tables` was built from.
/// Shared by the blocked backend (whole planes, `t0 = 0`) and the tiled
/// backend (row strips at arbitrary `t0`).
pub(super) fn forward_blocks(
    strips: &mut [(usize, &mut [f32])],
    t0: usize,
    bases: &[usize],
    image: &[f32],
    tables: &WindowTables,
) {
    let mut rest = strips;
    for block_tables in &tables.blocks {
        if rest.is_empty() {
            break;
        }
        let take = block_tables.len;
        debug_assert!(take <= rest.len(), "tables and strips disagree");
        let (block, tail) = rest.split_at_mut(take);
        let wtab = &block_tables.wtab;
        let biases = &block_tables.biases[..];
        match take {
            6 => forward_block::<6>(block, t0, bases, image, wtab, biases),
            5 => forward_block::<5>(block, t0, bases, image, wtab, biases),
            4 => forward_block::<4>(block, t0, bases, image, wtab, biases),
            3 => forward_block::<3>(block, t0, bases, image, wtab, biases),
            2 => forward_block::<2>(block, t0, bases, image, wtab, biases),
            _ => forward_block::<1>(block, t0, bases, image, wtab, biases),
        }
        rest = tail;
    }
    debug_assert!(rest.is_empty(), "strips left over after the table blocks");
}

/// Channel-major SCC forward for planes of at most [`SMALL_PLANE_MAX`]
/// pixels (idea 4 of the module doc); the caller has validated the shapes.
///
/// One group per cyclic window, so every output element has exactly one
/// writer whatever the thread count. Inside a group the window's output
/// channels go in [`LANES`]-wide blocks, and each image's pixels in tiles
/// of up to [`COL_BLOCK`]. Each output starts at `0.0`, adds the
/// taps in window order and then the bias — the accumulation order of the
/// vector strips in [`forward_block`], so results are bit-identical to it.
/// The input is read in place from its own channel planes; nothing is
/// gathered or stacked.
pub(super) fn forward_small_plane(
    cfg: &SccConfig,
    map: &ChannelCycleMap,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Tensor {
    let (n, cin, h, w) = dims4(input);
    let cout = cfg.cout();
    let gw = cfg.group_width();
    let plane = h * w;
    let cd = map.cyclic_dist().max(1);
    let mut output = Tensor::zeros(&[n, cout, h, w]);
    if output.as_slice().is_empty() {
        return output;
    }
    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    let b_data = bias.map(|b| b.as_slice());
    par::parallel_for_each_chunk_group_mut(
        output.as_mut_slice(),
        plane,
        cd,
        |chunk_idx| (chunk_idx % cout) % cd,
        |window, planes| {
            // `planes` is image-major, output channels ascending within an
            // image: entry `img * per_image + i` is channel `window + i * cd`.
            let ocs: Vec<usize> = (window..cout).step_by(cd).collect();
            debug_assert_eq!(planes.len(), n * ocs.len());
            let bases: Vec<usize> = map.windows()[window]
                .channels()
                .iter()
                .map(|ic| ic * plane)
                .collect();
            let mut wblk = vec![[0.0f32; LANES]; gw];
            for (b, chunk) in ocs.chunks(LANES).enumerate() {
                let bias = pack_block(&mut wblk, chunk, w_data, b_data);
                for img in 0..n {
                    let tile = SmallPlaneTile {
                        image: &in_data[img * cin * plane..(img + 1) * cin * plane],
                        bases: &bases,
                        wblk: &wblk,
                        bias: &bias,
                    };
                    let first = img * ocs.len() + b * LANES;
                    let outs = &mut planes[first..first + chunk.len()];
                    let mut p = 0usize;
                    while p < plane {
                        let take = (plane - p).min(COL_BLOCK);
                        match take {
                            4 => tile.run::<4>(outs, p),
                            3 => tile.run::<3>(outs, p),
                            2 => tile.run::<2>(outs, p),
                            _ => tile.run::<1>(outs, p),
                        }
                        p += take;
                    }
                }
            }
        },
    );
    output
}

/// Packs the weights of up to [`LANES`] output channels (`ocs`) of one
/// window into the small-plane layout, `wblk[j][l]` = tap `j` of channel
/// `ocs[l]`, and returns their biases. Lanes past the end of `ocs` are
/// zero. Each weight is packed once per forward call, into a buffer of one
/// block's size.
fn pack_block(
    wblk: &mut [[f32; LANES]],
    ocs: &[usize],
    w_data: &[f32],
    b_data: Option<&[f32]>,
) -> [f32; LANES] {
    let gw = wblk.len();
    let zeros = if ocs.len() < LANES {
        vec![0.0f32; gw]
    } else {
        Vec::new()
    };
    let rows: [&[f32]; LANES] = std::array::from_fn(|l| match ocs.get(l) {
        Some(&oc) => &w_data[oc * gw..(oc + 1) * gw],
        None => &zeros[..],
    });
    // Re-slicing to `gw` lets the compiler drop the per-tap bounds checks.
    let rows = rows.map(|row| &row[..gw]);
    for (j, taps) in wblk.iter_mut().enumerate() {
        *taps = std::array::from_fn(|l| rows[l][j]);
    }
    std::array::from_fn(|l| match (ocs.get(l), b_data) {
        (Some(&oc), Some(bd)) => bd[oc],
        _ => 0.0,
    })
}

/// One image's share of a small-plane register tile: [`LANES`] output
/// channels of one window, packed by [`pack_block`].
struct SmallPlaneTile<'a> {
    /// The image's input, `[cin][plane]`.
    image: &'a [f32],
    /// Offset of each window tap's channel plane in `image`.
    bases: &'a [usize],
    wblk: &'a [[f32; LANES]],
    bias: &'a [f32; LANES],
}

impl SmallPlaneTile<'_> {
    /// Computes pixels `p0..p0 + NC` of the tile's channels and writes them
    /// to `outs`, the image's output planes of those channels (one per
    /// lane that exists). The `NC` pixels of a tap are one contiguous load
    /// from the tap's channel plane, broadcast across the lanes.
    fn run<const NC: usize>(&self, outs: &mut [(usize, &mut [f32])], p0: usize) {
        let mut acc = [[0.0f32; LANES]; NC];
        for (&base, wv) in self.bases.iter().zip(self.wblk) {
            let at = base + p0;
            let x: [f32; NC] = self.image[at..at + NC]
                .try_into()
                // lint: allow(panic) — the range is NC wide by construction;
                // a failure means the pixel tiler is broken and must die
                // loudly, not corrupt output.
                .expect("pixel tile is NC wide");
            for (row, &xc) in acc.iter_mut().zip(&x) {
                for l in 0..LANES {
                    row[l] += wv[l] * xc;
                }
            }
        }
        for (l, (_, out)) in outs.iter_mut().enumerate() {
            for (c, row) in acc.iter().enumerate() {
                out[p0 + c] = row[l] + self.bias[l];
            }
        }
    }
}

/// Pixels per input-gradient register tile: [`GI_STRIPS`] `LANES`-wide
/// strips share every weight load and every walk of the reverse map.
const GI_STRIPS: usize = 4;

/// Computes one input-gradient strip covering the plane range
/// `[t0, t0 + gi.len())` of input channel `ic`: every covering filter's
/// contribution ([`ChannelCycleMap::for_each_output_reading`]) is pulled
/// into a register tile and the strip is written once (the naive kernel
/// re-reads and re-writes the plane once per covering filter).
pub(super) fn grad_input_strip(
    gi: &mut [f32],
    t0: usize,
    map: &ChannelCycleMap,
    ic: usize,
    go_image: &[f32],
    plane: usize,
    w_data: &[f32],
) {
    let gw = map.windows().first().map_or(0, |w| w.len);
    let strip_len = gi.len();
    let mut t = 0usize;
    while t + GI_STRIPS * LANES <= strip_len {
        let acc = grad_input_tile::<GI_STRIPS>(map, ic, go_image, plane, w_data, gw, t0 + t);
        for (dst, row) in gi[t..t + GI_STRIPS * LANES]
            .chunks_exact_mut(LANES)
            .zip(&acc)
        {
            dst.copy_from_slice(row);
        }
        t += GI_STRIPS * LANES;
    }
    while t + LANES <= strip_len {
        let [acc] = grad_input_tile::<1>(map, ic, go_image, plane, w_data, gw, t0 + t);
        gi[t..t + LANES].copy_from_slice(&acc);
        t += LANES;
    }
    while t < strip_len {
        let mut acc = 0.0f32;
        map.for_each_output_reading(ic, |oc, offset| {
            acc += w_data[oc * gw + offset] * go_image[oc * plane + t0 + t];
        });
        gi[t] = acc;
        t += 1;
    }
}

/// `S` consecutive `LANES`-wide input-gradient strips starting at plane
/// position `at0` of input channel `ic`; each pixel sums its covering
/// filters in the order of [`ChannelCycleMap::for_each_output_reading`].
fn grad_input_tile<const S: usize>(
    map: &ChannelCycleMap,
    ic: usize,
    go_image: &[f32],
    plane: usize,
    w_data: &[f32],
    gw: usize,
    at0: usize,
) -> [[f32; LANES]; S] {
    let mut acc = [[0.0f32; LANES]; S];
    map.for_each_output_reading(ic, |oc, offset| {
        let wj = w_data[oc * gw + offset];
        let at = oc * plane + at0;
        let g = &go_image[at..at + S * LANES];
        for s in 0..S {
            for l in 0..LANES {
                acc[s][l] += wj * g[s * LANES + l];
            }
        }
    });
    acc
}

/// Accumulates one filter row's weight gradient over the plane range
/// `[t0, t1)`, dispatching [`TAP_BLOCK`]-sized tap groups to the right
/// [`grad_weight_taps`] monomorphisation. Shared by the blocked backend
/// (whole planes) and the tiled backend (row strips).
pub(super) fn grad_weight_tap_blocks(
    gw_row: &mut [f32],
    ics: &[usize],
    go_plane: &[f32],
    image: &[f32],
    plane: usize,
    t0: usize,
    t1: usize,
) {
    let gw = gw_row.len();
    let mut j = 0usize;
    while j < gw {
        let take = (gw - j).min(TAP_BLOCK);
        let taps = &ics[j..j + take];
        let row = &mut gw_row[j..j + take];
        match take {
            4 => grad_weight_taps::<4>(row, taps, go_plane, image, plane, t0, t1),
            3 => grad_weight_taps::<3>(row, taps, go_plane, image, plane, t0, t1),
            2 => grad_weight_taps::<2>(row, taps, go_plane, image, plane, t0, t1),
            _ => grad_weight_taps::<1>(row, taps, go_plane, image, plane, t0, t1),
        }
        j += take;
    }
}

/// Accumulates `TB` consecutive taps of one filter row over the plane range
/// `[t0, t1)`: the `grad_output` strip is loaded once per tile and dotted
/// against `TB` input-channel tiles, with per-tap `[f32; LANES]` partial
/// sums reduced at the end.
fn grad_weight_taps<const TB: usize>(
    row: &mut [f32],
    taps: &[usize],
    go_plane: &[f32],
    image: &[f32],
    plane: usize,
    t0: usize,
    t1: usize,
) {
    debug_assert_eq!(row.len(), TB);
    debug_assert_eq!(taps.len(), TB);
    debug_assert!(t0 <= t1 && t1 <= plane);
    let mut acc = [[0.0f32; LANES]; TB];
    let mut t = t0;
    while t + LANES <= t1 {
        let g: [f32; LANES] = go_plane[t..t + LANES]
            .try_into()
            // lint: allow(panic) — `t + LANES <= t1` is the loop guard, so
            // the strip is exactly LANES long.
            .expect("strip is LANES wide");
        for b in 0..TB {
            let base = taps[b] * plane + t;
            let x: [f32; LANES] = image[base..base + LANES]
                .try_into()
                // lint: allow(panic) — LANES-wide by construction, as above.
                .expect("tile is LANES wide");
            let lanes = &mut acc[b];
            for l in 0..LANES {
                lanes[l] += g[l] * x[l];
            }
        }
        t += LANES;
    }
    let mut tails = [0.0f32; TB];
    while t < t1 {
        let g = go_plane[t];
        for b in 0..TB {
            tails[b] += g * image[taps[b] * plane + t];
        }
        t += 1;
    }
    for b in 0..TB {
        row[b] += acc[b].iter().sum::<f32>() + tails[b];
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
        let input = Tensor::randn(&[n, cin, h, w], 11);
        let weight = Tensor::randn(&[cout, cfg.group_width()], 12);
        let bias = Tensor::randn(&[cout], 13);
        let grad_out = Tensor::randn(&[n, cout, h, w], 14);
        let backend = BlockedBackend;

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
    fn matches_reference_on_ragged_planes_and_non_square_dims() {
        // Plane sizes that do not divide LANES (scalar tail), including
        // planes smaller than one tile, and non-square spatial dims.
        check(8, 16, 2, 0.5, 2, 3, 5); // plane 15
        check(8, 16, 2, 0.5, 1, 1, 3); // plane 3 < LANES
        check(8, 12, 4, 0.25, 1, 7, 9); // plane 63
        check(8, 16, 2, 0.5, 1, 2, 4); // plane 8 == LANES exactly
    }

    #[test]
    fn matches_reference_when_output_channels_do_not_fill_blocks() {
        // cout chosen so window groups hold 1, 2, 3 and 5 planes — exercising
        // every forward_block monomorphisation including partial blocks.
        check(8, 4, 2, 0.5, 1, 4, 4); // 4 windows, 1 plane each
        check(8, 7, 2, 0.5, 1, 4, 4); // ragged: some windows get 2 planes
        check(4, 10, 2, 0.5, 1, 4, 4); // cyclic_dist 4 -> groups of 2 and 3
        check(4, 20, 2, 0.5, 1, 4, 4); // groups of 5: one full block + 1
    }

    #[test]
    fn small_plane_path_is_bit_identical_to_the_vector_strips() {
        // Both paths start each output at 0.0, add the taps in window order
        // and the bias last. Pixels the pixel-lane kernel sends through its
        // scalar tail (which adds the bias first) may differ by an ulp.
        for (cin, cout, cg, co) in [(8, 36, 2, 0.5), (8, 12, 1, 0.0), (16, 10, 4, 0.25)] {
            let cfg = SccConfig::new(cin, cout, cg, co).unwrap();
            let map = ChannelCycleMap::build(&cfg);
            for (n, h, w) in [(1, 2, 4), (3, 4, 4), (2, 3, 4)] {
                let input = Tensor::randn(&[n, cin, h, w], 21);
                let weight = Tensor::randn(&[cout, cfg.group_width()], 22);
                let bias = Tensor::randn(&[cout], 23);
                for b in [Some(&bias), None] {
                    let small = forward_small_plane(&cfg, &map, &input, &weight, b);
                    let lanes = forward_pixel_lanes(&cfg, &map, &input, &weight, b);
                    assert!(allclose(&small, &lanes, TEST_TOLERANCE));
                    let vector_pixels = (h * w) / LANES * LANES;
                    let pairs = small.as_slice().iter().zip(lanes.as_slice());
                    for (i, (x, y)) in pairs.enumerate() {
                        if i % (h * w) < vector_pixels {
                            assert_eq!(x.to_bits(), y.to_bits(), "cout={cout} {h}x{w} elem {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pointwise_and_gpw_corners() {
        check(8, 12, 1, 0.0, 1, 4, 4); // pointwise: one shared window
        check(8, 12, 4, 0.0, 1, 4, 4); // GPW: disjoint windows
    }
}
