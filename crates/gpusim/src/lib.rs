//! # dsx-gpusim
//!
//! A V100-like GPU cost model used to reproduce the DSXplore paper's runtime
//! figures (Figs. 7–14, Table V) without CUDA hardware.
//!
//! The model consumes the analytic per-layer [`dsx_core::OpProfile`]s and
//! [`dsx_models::ModelSpec`]s and converts them into estimated execution
//! times through a roofline-plus-overheads decomposition ([`cost`]),
//! whole-model training/inference estimates ([`e2e`]) and a data-parallel
//! scaling model ([`multi_gpu`]). The model stands in for the paper's V100
//! measurements (PAPER.md); it is not a measurement of this machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod e2e;
pub mod machine;
pub mod multi_gpu;

pub use cost::{kernel_time, library_op_time, TimeBreakdown};
pub use e2e::{
    backward_pass_time, estimate_inference, estimate_training_step, training_speedup,
    InferenceEstimate, TrainingStepEstimate,
};
pub use machine::GpuModel;
pub use multi_gpu::{allreduce_time, scaling_curve, ScalingPoint};
