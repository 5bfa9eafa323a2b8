//! # dsx-nn
//!
//! Neural-network layers, losses, optimizers and training loops for the
//! DSXplore reproduction.
//!
//! The crate provides everything needed to assemble and train the CNNs the
//! paper evaluates (VGG16/19, MobileNet, ResNet18/50 — built in
//! `dsx-models`) with any of the convolution schemes under study:
//!
//! * [`conv::Conv2d`] — standard / grouped / depthwise / (group) pointwise
//!   convolutions lowered to GEMM via im2col (the "library-backed" operators
//!   the paper's baselines rely on), backend-selectable like the SCC layer:
//!   the `blocked`/`tiled` backends run a register-tiled (pool-scheduled)
//!   GEMM, and their depthwise inference runs [`swsum::conv2d_swsum`] — a
//!   direct sliding-window-sum (conv-as-FIR) kernel with no im2col buffer;
//! * [`scc_layer::SccConv2d`] — the sliding-channel convolution from
//!   `dsx-core`, usable as a drop-in replacement for the pointwise stage;
//! * [`blocks`] — factory functions for standard and depthwise-separable
//!   blocks (`DW+PW`, `DW+GPW`, `DW+SCC`);
//! * [`norm`], [`activation`], [`pool`], [`linear`], [`sequential`] — the
//!   rest of the layer zoo, each with hand-written backward passes;
//! * [`loss`], [`optim`], [`train`] — cross-entropy, SGD with momentum, and
//!   single-device / data-parallel training loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod blocks;
pub mod conv;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod norm;
pub mod optim;
pub mod pool;
pub mod scc_layer;
pub mod sequential;
pub mod swsum;
pub mod train;

pub use activation::ReLU;
pub use blocks::{separable_block, standard_conv_block, ChannelStage};
pub use conv::Conv2d;
pub use layer::Layer;
pub use linear::{Flatten, Linear};
pub use loss::{accuracy, AverageMeter, CrossEntropyLoss};
pub use norm::BatchNorm2d;
pub use optim::{Sgd, StepLr};
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
pub use scc_layer::SccConv2d;
pub use sequential::{LayerSummary, ResidualBlock, Sequential};
pub use swsum::conv2d_swsum;
pub use train::{data_parallel_step, evaluate, train_epoch, train_step, Batch, StepMetrics};
