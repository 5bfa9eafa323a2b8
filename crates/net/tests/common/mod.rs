//! Shared by the integration-test binaries that need a slow model.

use dsx_nn::Layer;
use dsx_tensor::Tensor;
use std::time::Duration;

/// A model that holds its worker for `delay` — for pinning the batcher, or
/// keeping a request in flight while its client vanishes.
pub struct SlowIdentity {
    pub delay: Duration,
}

impl Layer for SlowIdentity {
    fn name(&self) -> String {
        "slow-identity".to_string()
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        std::thread::sleep(self.delay);
        input.clone()
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        grad_output.clone()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }
}
