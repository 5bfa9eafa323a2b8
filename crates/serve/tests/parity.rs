//! Concurrency parity: a model shared behind an `Arc` and hammered by many
//! threads through the batching engine must produce exactly the outputs a
//! single-threaded `forward(train=false)` pass produces — the race-freedom
//! acceptance test of the shared-state inference path.

use dsx_core::BackendKind;
use dsx_serve::{request_input, ServeConfig, ServeEngine};
use dsx_tensor::{allclose, Tensor, TEST_TOLERANCE};
use std::sync::Arc;

const THREADS: usize = 4;
const REQUESTS_PER_THREAD: usize = 8;

fn spec() -> dsx_models::ModelSpec {
    // Small enough to keep the test quick, deep enough to cross every layer
    // kind the serving tower uses (dense conv, DW, SCC, BN, pooling, linear).
    dsx_serve::serving_spec_with(32, 2)
}

#[test]
fn concurrent_batched_inference_matches_single_threaded_forward() {
    // One deterministic kernel thread: any cross-request data race would
    // come from the engine itself, which is the point of the test.
    dsx_tensor::set_num_threads(1);
    for backend in BackendKind::ALL {
        let shared = dsx_serve::build_serving_model(&spec(), backend);
        // An identically-seeded twin provides the single-threaded oracle
        // through the training-path entry point.
        let mut oracle = dsx_models::build_model_with_backend(
            &spec(),
            0x5E21E,
            dsx_core::SccImplementation::Dsxplore,
            backend,
        );

        let engine = ServeEngine::start(
            Arc::clone(&shared),
            ServeConfig::default()
                .with_workers(THREADS)
                .with_max_batch(8),
        );
        let outputs: Vec<Vec<(u64, Tensor)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let handle = engine.handle();
                    scope.spawn(move || {
                        (0..REQUESTS_PER_THREAD)
                            .map(|i| {
                                let seed = (t * 1000 + i) as u64;
                                let out = handle
                                    .infer(request_input(seed))
                                    .expect("engine shut down mid-test");
                                (seed, out)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let report = engine.shutdown();
        assert_eq!(report.requests, THREADS * REQUESTS_PER_THREAD, "{backend}");

        for (seed, served) in outputs.into_iter().flatten() {
            let expected = {
                use dsx_nn::Layer;
                oracle.forward(&request_input(seed), false)
            };
            assert!(
                allclose(&served, &expected, TEST_TOLERANCE),
                "{backend}: request {seed} diverges between concurrent batched \
                 infer and single-threaded forward(train=false)"
            );
        }
    }
}

#[test]
fn backends_agree_through_the_engine() {
    dsx_tensor::set_num_threads(1);
    let spec = spec();
    let naive = dsx_serve::build_serving_model(&spec, BackendKind::Naive);
    let blocked = dsx_serve::build_serving_model(&spec, BackendKind::Blocked);
    let input = request_input(99);
    let engine = ServeEngine::start(blocked, ServeConfig::default().with_workers(1));
    let handle = engine.handle();
    let served = handle.infer(input.clone()).unwrap();
    drop(handle);
    engine.shutdown();
    assert!(allclose(&served, &naive.infer(&input), 1e-3));
}
