//! The NOVA NoC: a bit-accurate, cycle-accurate model of the paper's
//! in-network vector unit.
//!
//! NOVA stores the piecewise-linear slope/bias table "in the wires": every
//! NoC cycle a 257-bit flit carrying 8 quantized `(slope, bias)` pairs and
//! a tag bit snakes down a 1-D line of routers (Fig 4). Each router's
//! comparator front-end has already turned the local PE outputs into
//! 4-bit lookup addresses; the address LSB is matched against the flit's
//! tag bit and the remaining bits select the pair, which is latched and fed
//! to the per-neuron MAC (Fig 3). Clockless repeaters let a flit traverse
//! up to [`max hops`](LineConfig::max_hops_per_cycle) routers in a single
//! cycle (SMART-style), and the NoC clock runs at a multiple of the core
//! clock so a 16-breakpoint lookup still completes with single-cycle
//! effective latency (§IV).
//!
//! Modules:
//! - [`link`]: the flit format and bit-exact packing ([`Flit`],
//!   [`LinkConfig`]),
//! - [`schedule`]: the mapper's broadcast schedule (segments → flits, NoC
//!   clock multiplier),
//! - [`comparator`]: the lookup-address generator,
//! - [`router`]: the Fig 3 router micro-architecture,
//! - [`sim`]: the cycle-accurate line simulator with per-cycle stats.
//!
//! The headline functional property (tested exhaustively and by proptest):
//! running the NoC simulation over any input batch produces *bit-identical*
//! results to evaluating the quantized PWL table directly.
//!
//! # Example
//!
//! ```
//! use nova_approx::{fit, Activation, QuantizedPwl};
//! use nova_fixed::{Fixed, Q4_12, Rounding};
//! use nova_noc::{sim::BroadcastSim, LineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pwl = fit::fit_activation(Activation::Gelu, 16, fit::BreakpointStrategy::GreedyRefine)?;
//! let table = QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven)?;
//! let config = LineConfig::paper_default(4, 128); // 4 routers × 128 neurons
//! let mut sim = BroadcastSim::new(config, &table)?;
//! // Slot `r * 128 + n` is neuron `n` of router `r`.
//! let inputs = vec![Fixed::from_f64(0.5, Q4_12, Rounding::NearestEven); 4 * 128];
//! let mut outputs = vec![Fixed::zero(Q4_12); inputs.len()];
//! let stats = sim.run_flat(&inputs, &mut outputs)?;
//! assert_eq!(outputs[0], table.eval(inputs[0]));
//! assert_eq!(stats.core_cycle_latency, 2); // lookup + MAC
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;

pub mod comparator;
pub mod fault;
pub mod link;
pub mod multiline;
pub mod router;
pub mod rtl;
pub mod schedule;
pub mod sim;

pub use config::LineConfig;
pub use error::NocError;
pub use link::{Flit, LinkConfig};
pub use schedule::BroadcastSchedule;
