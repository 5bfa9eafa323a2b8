//! Hot swap under concurrent load: the zero-drop guarantee.
//!
//! Client threads hammer the engine while the main thread repeatedly swaps
//! the model. Every single request must be served (no errors, no drops),
//! the swap generation must climb monotonically, and each response must
//! match one of the two models bit-for-bit — a batch is never served by a
//! half-installed model.

use dsx_nn::{GlobalAvgPool, Layer, Linear, ReLU, Sequential};
use dsx_serve::{ServeConfig, ServeEngine};
use dsx_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn model(seed: u64) -> Arc<dyn Layer> {
    Arc::new(
        Sequential::new("hot-swap")
            .push(ReLU::new())
            .push(GlobalAvgPool::new())
            .push(Linear::new(2, 3, seed)),
    )
}

#[test]
fn concurrent_clients_observe_zero_drops_across_swaps() {
    const CLIENTS: usize = 6;
    const SWAPS: u64 = 8;
    let v1 = model(7);
    let v2 = model(99);
    // One fixed probe input, so every response must equal v1's or v2's
    // output on it exactly.
    let probe = Tensor::randn(&[1, 2, 4, 4], 5);
    let expect_v1 = v1.infer(&probe);
    let expect_v2 = v2.infer(&probe);

    let engine = ServeEngine::start(
        Arc::clone(&v1),
        ServeConfig::default().with_workers(3).with_max_batch(4),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let handle = engine.handle();
            let probe = probe.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    handle.infer(probe.clone()).expect("a request was dropped");
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Alternate v1 <-> v2 under load; the generation must climb by exactly
    // one per swap and the swap itself should be quick (it only replaces
    // an Arc behind a briefly-held write lock).
    let mut last_generation = engine.swap_generation();
    assert_eq!(last_generation, 0);
    let mut worst_swap = Duration::ZERO;
    for i in 0..SWAPS {
        std::thread::sleep(Duration::from_millis(15));
        let next = if i % 2 == 0 { &v2 } else { &v1 };
        let begin = Instant::now();
        let generation = engine.swap_model(Arc::clone(next));
        worst_swap = worst_swap.max(begin.elapsed());
        assert_eq!(
            generation,
            last_generation + 1,
            "generation must be monotonic"
        );
        last_generation = generation;
    }
    stop.store(true, Ordering::Relaxed);
    let served: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let snap = engine.shutdown();

    assert!(served > 0, "the clients never got a request through");
    assert_eq!(snap.requests, served, "every submitted request was served");
    assert_eq!(snap.dropped_requests, 0, "hot swap must drop zero requests");
    assert_eq!(snap.swap_generation, SWAPS);
    assert!(
        worst_swap < Duration::from_secs(1),
        "swap took {worst_swap:?}; it should only replace an Arc"
    );
    println!("worst swap_model latency under load: {worst_swap:?}");

    // Spot-check atomicity: a fresh engine's response flips between the two
    // expected outputs and nothing else.
    let engine = ServeEngine::start(Arc::clone(&v1), ServeConfig::default().with_workers(1));
    let handle = engine.handle();
    let before = handle.infer(probe.clone()).unwrap();
    assert_eq!(before.as_slice(), expect_v1.as_slice());
    engine.swap_model(Arc::clone(&v2));
    let after = handle.infer(probe.clone()).unwrap();
    assert_eq!(after.as_slice(), expect_v2.as_slice());
    drop(handle);
    engine.shutdown();
}
