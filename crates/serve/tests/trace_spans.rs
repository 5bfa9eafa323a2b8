//! End-to-end tracing: one served request must leave batch-execution and
//! per-layer spans in the global trace recorder.

use std::sync::Arc;

use dsx_nn::{GlobalAvgPool, Layer, Linear, ReLU, Sequential};
use dsx_serve::{ServeConfig, ServeEngine};
use dsx_tensor::Tensor;

#[test]
fn traced_request_produces_batch_and_layer_spans() {
    let model: Arc<dyn Layer> = Arc::new(
        Sequential::new("traced-serve")
            .push(ReLU::new())
            .push(GlobalAvgPool::new())
            .push(Linear::new(2, 3, 7)),
    );
    dsx_obs::enable(true);
    let engine = ServeEngine::start(model, ServeConfig::default().with_workers(1));
    let handle = engine.handle();
    let out = handle.infer(Tensor::randn(&[1, 2, 4, 4], 3)).unwrap();
    assert_eq!(out.shape(), &[1, 3]);
    drop(handle);
    engine.shutdown();
    dsx_obs::enable(false);

    let events = dsx_obs::trace::collected_events();
    let has = |cat: &str, name: &str| {
        events
            .iter()
            .any(|e| e.cat == cat && e.name.starts_with(name))
    };
    assert!(has("serve", "serve.batch"), "missing batch span");
    assert!(has("layer", "0:ReLU"), "missing per-layer span");
    assert!(has("layer", "2:Linear"), "missing per-layer span");

    // The batch span carries its occupancy as a numeric argument.
    let batch = events
        .iter()
        .find(|e| e.name == "serve.batch")
        .expect("batch span");
    assert_eq!(batch.arg, Some(("batch", 1)));

    // And the whole thing renders as Chrome trace JSON with X phases.
    let json = dsx_obs::trace::chrome_trace_json();
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("serve.batch"));
}
