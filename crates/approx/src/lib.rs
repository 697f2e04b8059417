//! Non-linear function approximation substrate for the NOVA reproduction.
//!
//! NN-LUT (Yu et al., DAC 2022) showed that a tiny 2-layer MLP can learn a
//! piecewise-linear (PWL) approximation of any activation function used by
//! attention models, and that 16 breakpoints suffice for negligible accuracy
//! loss. NOVA keeps exactly that mapping and only changes *where* the
//! slope/bias table lives (NoC wires instead of LUT SRAM). This crate is the
//! software half of that story:
//!
//! - [`Activation`]: reference implementations of the non-linear operators
//!   attention layers need (exp, GELU, sigmoid, tanh, erf, reciprocal, …),
//! - [`PiecewiseLinear`]: the PWL function type with per-segment
//!   least-squares fitting,
//! - [`MlpApproximator`]: the NN-LUT-style 2-layer MLP whose hidden ReLU
//!   kinks *are* the learned breakpoints,
//! - [`fit`]: direct breakpoint-placement baselines (uniform / quantile /
//!   greedy) for ablations,
//! - [`QuantizedPwl`]: the hardware table — Q-format slope/bias pairs and
//!   breakpoints, plus the comparator address function,
//! - [`softmax`]: exact, online-normalizer and PWL-approximated softmax
//!   pipelines,
//! - [`metrics`]: error reports used by the Table I reproduction.
//!
//! # Example: approximate GELU with 16 breakpoints
//!
//! ```
//! use nova_approx::{Activation, fit, metrics};
//!
//! # fn main() -> Result<(), nova_approx::ApproxError> {
//! let pwl = fit::fit_activation(Activation::Gelu, 16, fit::BreakpointStrategy::GreedyRefine)?;
//! let report = metrics::compare(&|x| Activation::Gelu.eval(x), &|x| pwl.eval(x),
//!                               pwl.domain(), 1000);
//! assert!(report.max_abs < 0.02);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(lo < hi)` is used deliberately for NaN-rejecting domain validation:
// it is true for NaN bounds where `lo >= hi` would be false.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod error;
mod functions;
mod piecewise;
mod quantized;

pub mod fit;
pub mod metrics;
pub mod mlp;
pub mod normalize;
pub mod softmax;

pub use error::ApproxError;
pub use functions::Activation;
pub use mlp::MlpApproximator;
pub use piecewise::PiecewiseLinear;
pub use quantized::{QuantizedPwl, SlopeBias};

/// The breakpoint count the paper uses for all attention-model evaluations
/// (Table I: "all models use 16 breakpoints except CIFAR-10 which uses 8").
pub const PAPER_BREAKPOINTS: usize = 16;

/// The breakpoint count used by the Fig 2 / Fig 4 walkthroughs.
pub const WALKTHROUGH_BREAKPOINTS: usize = 8;
