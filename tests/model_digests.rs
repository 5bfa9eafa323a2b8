//! Bit-level pins of whole-model behaviour.
//!
//! Seeded MobileNet-CIFAR, at a reduced width, under the paper's three
//! channel-fusion schemes (DW+PW, DW+GPW, DW+SCC) on the `Blocked` and
//! `Tiled` kernel backends. Each run records the CRC-32 of three tensors:
//! the `infer` output, the `forward(train = true)` output and the input
//! gradient of `backward`. The digests are committed constants, so any
//! change to the bits the kernels produce fails here, whatever the kernel,
//! the build or the instruction set it ran on.
//!
//! Channel scaling does not change the plane sizes (32×32 down to 2×2), so
//! both SCC forward layouts, pixel lanes and small planes, run.
//!
//! A change that moves bits on purpose updates the constants and names, in
//! its change notes, the parity test that still bounds the difference.

use dsxplore::models::{build_model_with_backend, ConvScheme, Dataset, ModelKind};
use dsxplore::nn::Layer;
use dsxplore::scc::{BackendKind, SccImplementation};
use dsxplore::tensor::{crc32, set_num_threads, Tensor};

/// Channel divisor applied to MobileNet-CIFAR: small enough for a debug
/// build, wide enough that every SCC layer has several cyclic windows.
const SCALE: usize = 16;

/// Images per batch: two, so batch norm in training mode and the per-image
/// loops see more than one image.
const BATCH: usize = 2;

/// `(scheme, [infer, forward(train), grad_input])`. `Blocked` and `Tiled`
/// share each row: they accumulate every output in the same order.
const DIGESTS: [(&str, [u32; 3]); 3] = [
    ("DW+PW", [0xb1b4728b, 0x58045878, 0x3c561e78]),
    ("DW+GPW", [0xa064a37e, 0x38b98f6e, 0x38f3aee1]),
    ("DW+SCC", [0x296c58e0, 0x4bb4b258, 0x23b4c62f]),
];

fn scheme(name: &str) -> ConvScheme {
    match name {
        "DW+PW" => ConvScheme::DwPw,
        "DW+GPW" => ConvScheme::DwGpw { cg: 2 },
        "DW+SCC" => ConvScheme::DSXPLORE_DEFAULT,
        other => panic!("no scheme named {other}"),
    }
}

fn digest(t: &Tensor) -> u32 {
    let bytes: Vec<u8> = t.as_slice().iter().flat_map(|x| x.to_le_bytes()).collect();
    crc32(&bytes)
}

/// `[0x0123abcd, ...]`, the form the constants above are written in.
fn hex(digests: [u32; 3]) -> String {
    let items: Vec<String> = digests.iter().map(|d| format!("{d:#010x}")).collect();
    format!("[{}]", items.join(", "))
}

/// Runs one seeded model through `infer`, `forward(train = true)` and
/// `backward`, and returns the three digests.
fn run(scheme: ConvScheme, backend: BackendKind) -> [u32; 3] {
    let spec = ModelKind::MobileNet
        .spec(Dataset::Cifar10, scheme)
        .scale_channels(SCALE);
    let mut model = build_model_with_backend(&spec, 7, SccImplementation::Dsxplore, backend);
    let input = Tensor::randn(&[BATCH, 3, 32, 32], 101);
    let inferred = model.infer(&input);
    let trained = model.forward(&input, true);
    let grad_output = Tensor::randn(trained.shape(), 102);
    let grad_input = model.backward(&grad_output);
    assert_eq!(grad_input.shape(), input.shape());
    [digest(&inferred), digest(&trained), digest(&grad_input)]
}

/// The one test in this binary, so nothing else changes the process-global
/// pool thread count while it runs.
#[test]
fn model_outputs_match_the_committed_digests_at_one_and_two_threads() {
    let mut mismatches = Vec::new();
    for threads in [1, 2] {
        set_num_threads(threads);
        for (scheme_name, want) in DIGESTS {
            for backend in [BackendKind::Blocked, BackendKind::Tiled] {
                let got = run(scheme(scheme_name), backend);
                if got != want {
                    mismatches.push(format!(
                        "{scheme_name} on {} at {threads} thread(s): got {}, want {}",
                        backend.name(),
                        hex(got),
                        hex(want)
                    ));
                }
            }
        }
    }
    set_num_threads(1);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
