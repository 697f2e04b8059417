//! NOVA: a NoC-based Vector Unit for mapping attention layers on CNN
//! accelerators — a from-scratch Rust reproduction of the DATE 2024 paper
//! by Upadhyay, Juneja, Wong and Peh.
//!
//! NOVA replaces the SRAM lookup tables of NN-LUT-style non-linear
//! approximators with an on-chip broadcast: the piecewise-linear
//! `(slope, bias)` pairs travel on a 257-bit line NoC with clockless
//! repeaters, and each router's comparator-addressed tag match latches the
//! right pair for every neuron's MAC. The result is a vector unit that is
//! ~3× smaller and an order of magnitude more power-efficient than LUT
//! baselines, overlayable onto existing accelerators (REACT, TPU-like
//! systolic cores, NVDLA).
//!
//! This crate is the top of the reproduction stack:
//!
//! - [`VectorUnit`]: one trait over the NOVA NoC and the LUT baselines —
//!   identical functional results, different latency/cost semantics,
//! - [`NovaOverlay`]: attach a NOVA NoC to a Table II accelerator config
//!   (Fig 5) and cost it with the 22 nm model,
//! - [`Mapper`]: the §IV software mapper — compiles activation tables into
//!   broadcast schedules and programs the NoC clock multiplier, checking
//!   the SMART timing feasibility,
//! - [`engine`]: per-inference runtime + energy (the Fig 8 evaluation),
//!   plus the analytic multi-stream and fused-softmax serving models,
//! - [`serving`]: the concurrent multi-tenant serving runtime — a
//!   thread-shared keyed table cache and a builder-configured
//!   worker-pool pipeline (admission → per-activation coalescing into
//!   fat work units → shard worker threads over [`spsc`] rings with
//!   [`VectorUnit::switch_table`] re-programming → direct result
//!   scatter with watermark completion) that packs activation-tagged
//!   non-linear queries from many concurrent inference streams into
//!   full vector-unit batches, bit-identically to sequential
//!   evaluation for any worker count and activation interleaving, with
//!   a blocking `serve` and a non-blocking `submit`/`try_poll`/`drain`
//!   session surface.
//!
//! # Quickstart
//!
//! ```
//! use nova::{engine, ApproximatorKind};
//! use nova_accel::AcceleratorConfig;
//! use nova_workloads::bert::BertConfig;
//!
//! # fn main() -> Result<(), nova::NovaError> {
//! let tpu = AcceleratorConfig::tpu_v4_like();
//! let report = engine::evaluate(&tpu, &BertConfig::bert_tiny(), 128,
//!                               ApproximatorKind::NovaNoc)?;
//! assert!(report.approximator_energy_mj > 0.0);
//! # Ok(())
//! # }
//! ```

// Unsafe is denied, not forbidden: the serving data plane's SPSC rings
// ([`spsc`]) and its direct result scatter ([`serving`]) are the two
// audited carve-outs — lock-free cross-thread handoff has no safe
// std-only spelling. Every `unsafe` block sits behind a module- or
// item-level `allow` with a SAFETY argument; the rest of the crate (and
// every other workspace crate) still refuses unsafe outright.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod engine;
pub mod fused;
pub mod mapper;
pub mod overlay;
pub mod react_pipeline;
pub mod serving;
pub mod spsc;
pub mod timeline;
pub mod vector_unit;

pub use engine::{FusedSoftmaxReport, InferenceReport, MultiStreamReport};
pub use error::NovaError;
pub use fused::EngineSoftmax;
pub use mapper::{Mapper, MappingPlan};
pub use nova_fixed::FixedBatch;
pub use overlay::NovaOverlay;
pub use serving::{
    EngineBuilder, FaultInjector, FaultPolicy, InjectedFault, Plan, PlanStage, ServingConfig,
    ServingEngine, ServingRequest, ServingStats, StageTimes, TableCache, TableKey, Ticket,
    WorkerLoad,
};
pub use vector_unit::{
    ApproximatorKind, LutVariant, LutVectorUnit, NovaVectorUnit, SdpVectorUnit, VectorUnit,
};
