//! Cross-backend parity property suite.
//!
//! Asserts `BlockedBackend` and `TiledBackend` match `NaiveBackend` *and*
//! the scalar reference within `TEST_TOLERANCE` (no tolerance widening)
//! across `cg ∈ {1, 2, 4, 8}`, `co ∈ {0, 0.25, 0.33, 0.5, 0.75}`,
//! non-square spatial dims, and plane sizes that do not divide the blocked
//! kernel's tile width (`LANES`), plus a determinism check that the tiled
//! backend produces bit-identical results at 1 and N pool threads. The
//! small-plane rows pin the channel-major forward (planes of at most 16
//! pixels) to the reference, to itself across thread counts, and `Blocked`
//! to `Tiled` bit for bit.

use dsx_core::backend::LANES;
use dsx_core::reference::{scc_backward_reference, scc_forward_reference};
use dsx_core::{BackendKind, ChannelCycleMap, SccConfig, SccGradients};
use dsx_tensor::{allclose, Tensor, TEST_TOLERANCE};
use proptest::prelude::*;

struct Case {
    cfg: SccConfig,
    map: ChannelCycleMap,
    input: Tensor,
    weight: Tensor,
    bias: Tensor,
    grad_output: Tensor,
}

#[allow(clippy::too_many_arguments)]
fn build_case(
    cg: usize,
    cin_mult: usize,
    cout: usize,
    co: f64,
    n: usize,
    h: usize,
    w: usize,
    seed: u64,
) -> Option<Case> {
    let cin = cg * cin_mult;
    let cfg = SccConfig::new(cin, cout, cg, co).ok()?;
    let map = ChannelCycleMap::build(&cfg);
    Some(Case {
        input: Tensor::randn(&[n, cin, h, w], seed),
        weight: Tensor::randn(&[cout, cfg.group_width()], seed + 1),
        bias: Tensor::randn(&[cout], seed + 2),
        grad_output: Tensor::randn(&[n, cout, h, w], seed + 3),
        cfg,
        map,
    })
}

fn forward_of(case: &Case, kind: BackendKind) -> Tensor {
    kind.backend().forward(
        &case.cfg,
        &case.map,
        &case.input,
        &case.weight,
        Some(&case.bias),
        None,
    )
}

fn backward_of(case: &Case, kind: BackendKind) -> SccGradients {
    kind.backend().backward(
        &case.cfg,
        &case.map,
        &case.input,
        &case.weight,
        &case.grad_output,
        None,
    )
}

/// Property-test case count: full natively, minimal under Miri or
/// `DSX_TEST_FAST` (sanitizer/interpreter runs need the coverage, not
/// the volume).
fn prop_cases(full: u32) -> u32 {
    if cfg!(miri) || std::env::var_os("DSX_TEST_FAST").is_some() {
        2
    } else {
        full
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(48)))]

    /// Forward parity: blocked == naive == scalar reference, TEST_TOLERANCE.
    #[test]
    fn prop_forward_parity(
        cg in prop::sample::select(vec![1usize, 2, 4, 8]),
        cin_mult in 1usize..4,
        cout in 1usize..24,
        co in prop::sample::select(vec![0.0f64, 0.25, 0.33, 0.5, 0.75]),
        n in 1usize..3,
        h in 1usize..8,
        w in 1usize..8,
        seed in 0u64..1000,
    ) {
        let Some(case) = build_case(cg, cin_mult, cout, co, n, h, w, seed) else {
            return Ok(()); // degenerate (cg, co) combination
        };
        let naive = forward_of(&case, BackendKind::Naive);
        let reference =
            scc_forward_reference(&case.cfg, &case.input, &case.weight, Some(&case.bias));
        for kind in [BackendKind::Blocked, BackendKind::Tiled] {
            let got = forward_of(&case, kind);
            prop_assert!(
                allclose(&got, &naive, TEST_TOLERANCE),
                "{kind} != naive for {:?} {h}x{w}", case.cfg
            );
            prop_assert!(
                allclose(&got, &reference, TEST_TOLERANCE),
                "{kind} != reference for {:?} {h}x{w}", case.cfg
            );
        }
    }

    /// Backward parity: all three gradients agree across backends and with
    /// the scalar reference, TEST_TOLERANCE.
    #[test]
    fn prop_backward_parity(
        cg in prop::sample::select(vec![1usize, 2, 4, 8]),
        cin_mult in 1usize..3,
        cout in 1usize..16,
        co in prop::sample::select(vec![0.0f64, 0.25, 0.33, 0.5, 0.75]),
        h in 1usize..7,
        w in 1usize..7,
        seed in 0u64..1000,
    ) {
        let Some(case) = build_case(cg, cin_mult, cout, co, 1, h, w, seed) else {
            return Ok(());
        };
        let naive = backward_of(&case, BackendKind::Naive);
        let (ref_gi, ref_gw, ref_gb) =
            scc_backward_reference(&case.cfg, &case.input, &case.weight, &case.grad_output);
        for kind in [BackendKind::Blocked, BackendKind::Tiled] {
            let got = backward_of(&case, kind);
            prop_assert!(allclose(&got.grad_input, &naive.grad_input, TEST_TOLERANCE), "{kind}");
            prop_assert!(allclose(&got.grad_weight, &naive.grad_weight, TEST_TOLERANCE), "{kind}");
            prop_assert!(allclose(&got.grad_bias, &naive.grad_bias, TEST_TOLERANCE), "{kind}");
            prop_assert!(allclose(&got.grad_input, &ref_gi, TEST_TOLERANCE), "{kind}");
            prop_assert!(allclose(&got.grad_weight, &ref_gw, TEST_TOLERANCE), "{kind}");
            prop_assert!(allclose(&got.grad_bias, &ref_gb, TEST_TOLERANCE), "{kind}");
        }
    }
}

/// Deterministic sweep of the exact grid the issue names, including plane
/// sizes straddling the tile width on both sides.
#[test]
fn parity_grid_over_cg_co_and_ragged_planes() {
    let spatial = [
        (1usize, 1usize),
        (1, LANES - 1),
        (1, LANES),
        (3, 5),
        (5, 7),
        (4, LANES),
    ];
    for cg in [1usize, 2, 4, 8] {
        for co in [0.0f64, 0.25, 0.33, 0.5, 0.75] {
            let cin = cg * 2;
            let cout = cin + 2; // not a multiple of most cycle lengths
            let Ok(cfg) = SccConfig::new(cin, cout, cg, co) else {
                continue;
            };
            let map = ChannelCycleMap::build(&cfg);
            for (h, w) in spatial {
                let input = Tensor::randn(&[2, cin, h, w], 77);
                let weight = Tensor::randn(&[cout, cfg.group_width()], 78);
                let grad_out = Tensor::randn(&[2, cout, h, w], 79);
                let naive_f = BackendKind::Naive
                    .backend()
                    .forward(&cfg, &map, &input, &weight, None, None);
                let naive_b = BackendKind::Naive
                    .backend()
                    .backward(&cfg, &map, &input, &weight, &grad_out, None);
                for kind in [BackendKind::Blocked, BackendKind::Tiled] {
                    let fwd = kind
                        .backend()
                        .forward(&cfg, &map, &input, &weight, None, None);
                    assert!(
                        allclose(&fwd, &naive_f, TEST_TOLERANCE),
                        "{kind} forward parity fails for cg={cg} co={co} {h}x{w}"
                    );
                    let bwd = kind
                        .backend()
                        .backward(&cfg, &map, &input, &weight, &grad_out, None);
                    for (got, want, name) in [
                        (&bwd.grad_input, &naive_b.grad_input, "grad_input"),
                        (&bwd.grad_weight, &naive_b.grad_weight, "grad_weight"),
                        (&bwd.grad_bias, &naive_b.grad_bias, "grad_bias"),
                    ] {
                        assert!(
                            allclose(got, want, TEST_TOLERANCE),
                            "{kind} {name} parity fails for cg={cg} co={co} {h}x{w}"
                        );
                    }
                }
            }
        }
    }
}

/// Same seed, 1 pool thread vs N pool threads: the tiled backend's task
/// decomposition (and each task's accumulation order) depends only on the
/// shape, so forward *and* backward outputs must be bit-identical — not
/// merely within tolerance.
///
/// (Flipping the global thread count mid-suite is safe: the other tests in
/// this binary are thread-count agnostic — every parallel entry point is
/// correct at any count — so the only effect is which scheduling path they
/// exercise while this test runs.)
#[test]
fn tiled_results_are_bit_identical_across_pool_thread_counts() {
    // 64x64 planes split into 4 strips each, so the pool genuinely
    // decomposes the work instead of degenerating to one task per plane.
    let cfg = SccConfig::new(16, 24, 2, 0.5).unwrap();
    let map = ChannelCycleMap::build(&cfg);
    let input = Tensor::randn(&[2, 16, 64, 64], 91);
    let weight = Tensor::randn(&[24, cfg.group_width()], 92);
    let bias = Tensor::randn(&[24], 93);
    let grad_out = Tensor::randn(&[2, 24, 64, 64], 94);
    let backend = BackendKind::Tiled.backend();

    let run = || {
        let fwd = backend.forward(&cfg, &map, &input, &weight, Some(&bias), None);
        let grads = backend.backward(&cfg, &map, &input, &weight, &grad_out, None);
        (fwd, grads)
    };
    dsx_tensor::set_num_threads(1);
    let (fwd_single, grads_single) = run();
    dsx_tensor::set_num_threads(4);
    let (fwd_pooled, grads_pooled) = run();
    dsx_tensor::set_num_threads(0);

    assert_eq!(
        fwd_single.as_slice(),
        fwd_pooled.as_slice(),
        "forward must be bit-identical at 1 vs 4 pool threads"
    );
    for (single, pooled, name) in [
        (
            &grads_single.grad_input,
            &grads_pooled.grad_input,
            "grad_input",
        ),
        (
            &grads_single.grad_weight,
            &grads_pooled.grad_weight,
            "grad_weight",
        ),
        (
            &grads_single.grad_bias,
            &grads_pooled.grad_bias,
            "grad_bias",
        ),
    ] {
        assert_eq!(
            single.as_slice(),
            pooled.as_slice(),
            "{name} must be bit-identical at 1 vs 4 pool threads"
        );
    }
}

/// Plane sizes around the small-plane cutoff (16 pixels): 1×1, 2×2, 3×3 and
/// 4×4 take the channel-major path, 1×17 and 8×8 the pixel-lane strips.
const SMALL_PLANES: [(usize, usize); 6] = [(1, 1), (2, 2), (3, 3), (4, 4), (1, 17), (8, 8)];

/// Forward of `kind` on a fresh random case; `bias` toggles the bias term.
fn small_forward(
    kind: BackendKind,
    cfg: &SccConfig,
    n: usize,
    (h, w): (usize, usize),
    bias: bool,
) -> (Tensor, Tensor) {
    let map = ChannelCycleMap::build(cfg);
    let input = Tensor::randn(&[n, cfg.cin(), h, w], 101);
    let weight = Tensor::randn(&[cfg.cout(), cfg.group_width()], 102);
    let b = Tensor::randn(&[cfg.cout()], 103);
    let b = bias.then_some(&b);
    let got = kind.backend().forward(cfg, &map, &input, &weight, b, None);
    (got, scc_forward_reference(cfg, &input, &weight, b))
}

/// Small-plane parity with the scalar reference over planes × batches ×
/// `cg`, GPW (`co = 0`) included, at `TEST_TOLERANCE`.
#[test]
fn small_plane_forward_matches_the_reference() {
    for plane in SMALL_PLANES {
        for n in [1usize, 3, 4] {
            for cg in [1usize, 2, 4, 8] {
                for co in [0.0f64, 0.5] {
                    let cfg = SccConfig::new(16, 13, cg, co).unwrap();
                    for kind in [BackendKind::Blocked, BackendKind::Tiled] {
                        let (got, want) = small_forward(kind, &cfg, n, plane, true);
                        assert!(
                            allclose(&got, &want, TEST_TOLERANCE),
                            "{kind} != reference: cg={cg} co={co} n={n} plane={plane:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Window groups of 1, 7, 8 and 9 output channels: one lane, a ragged
/// block, a full block, and a full block plus a one-lane block.
#[test]
fn small_plane_forward_covers_ragged_output_channel_blocks() {
    for per_window in [1usize, 7, 8, 9] {
        // cin 8, cg 2, co 50 %: windows start at 0, 2, 4, 6, so four
        // windows share the output channels round-robin.
        let cfg = SccConfig::new(8, 4 * per_window, 2, 0.5).unwrap();
        assert_eq!(ChannelCycleMap::build(&cfg).cyclic_dist(), 4);
        for plane in [(1, 1), (2, 2), (3, 3), (4, 4)] {
            for n in [1usize, 3] {
                for bias in [true, false] {
                    let (got, want) = small_forward(BackendKind::Blocked, &cfg, n, plane, bias);
                    assert!(
                        allclose(&got, &want, TEST_TOLERANCE),
                        "{per_window} channels per window, n={n} plane={plane:?} bias={bias}"
                    );
                }
            }
        }
    }
}

/// Small-plane forward at 1 and 4 pool threads, and `Blocked` against
/// `Tiled` at one thread: bit for bit, not within tolerance. Each window
/// is one group with one writer per output, so neither the thread count
/// nor the backend changes an accumulation order.
#[test]
fn small_plane_forward_is_bit_identical_across_pool_thread_counts() {
    let cfg = SccConfig::new(16, 36, 2, 0.5).unwrap();
    let run = |kind: BackendKind, plane| small_forward(kind, &cfg, 4, plane, true).0;
    for plane in [(1, 1), (2, 2), (3, 3), (4, 4)] {
        dsx_tensor::set_num_threads(1);
        let blocked_single = run(BackendKind::Blocked, plane);
        let tiled_single = run(BackendKind::Tiled, plane);
        dsx_tensor::set_num_threads(4);
        let blocked_pooled = run(BackendKind::Blocked, plane);
        let tiled_pooled = run(BackendKind::Tiled, plane);
        dsx_tensor::set_num_threads(0);
        assert_eq!(
            blocked_single.as_slice(),
            blocked_pooled.as_slice(),
            "Blocked at 1 vs 4 threads, plane {plane:?}"
        );
        assert_eq!(
            tiled_single.as_slice(),
            tiled_pooled.as_slice(),
            "Tiled at 1 vs 4 threads, plane {plane:?}"
        );
        assert_eq!(
            blocked_single.as_slice(),
            tiled_single.as_slice(),
            "Blocked vs Tiled at one thread, plane {plane:?}"
        );
    }
}
