//! nova-check — correctness tooling for the NOVA workspace.
//!
//! Two halves:
//!
//! - a **deterministic concurrency model checker**
//!   ([`sched::explore`] / [`sched::model`]) driving instrumented
//!   stand-ins for the std sync primitives ([`shim`], imported by
//!   production code through the cfg-selected [`sync`] facade) — a
//!   bounded-DFS interleaving explorer with a C11-ish operational
//!   memory model, state-hash pruning, seeded-random and exact-replay
//!   schedules, deadlock (lost-wakeup) detection, and vector-clock data
//!   races on `UnsafeCell` accesses;
//! - **`nova-lint`** ([`lint`], plus the `nova-lint` binary), a
//!   dependency-free source scanner that mechanically enforces the
//!   workspace's prose invariants: `unsafe` stays inside the one
//!   audited carve-out (nova-core's `spsc` ring), deterministic crates
//!   never touch wall clocks, nova-core names atomics only through the
//!   facade, every `unsafe` block carries its `SAFETY:` rationale, and
//!   every nova-core atomic callsite its `ordering:` rationale.
//!
//! Model tests for the real `nova::spsc` protocols live in
//! `crates/core/tests/model.rs` and compile under
//! `RUSTFLAGS="--cfg nova_check_model"`; the checker's own self-tests
//! (including the deliberately-broken ring it must catch) run in plain
//! builds because the shim instruments through a thread-local, not the
//! cfg.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod lexer;
pub mod lint;
pub mod sched;
pub mod shim;
pub mod sync;

pub use sched::{explore, model, ModelOptions, Report, Strategy, Violation, ViolationKind};
