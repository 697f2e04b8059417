//! The multi-tenant serving layer: a builder-configured concurrent
//! worker-pool runtime for batched non-linear query serving across many
//! inference streams and many activation tables.
//!
//! Single-shot evaluation (one caller, one table, one batch at a time)
//! wastes the vector unit twice: every caller refits and requantizes its
//! own table, and partial batches leave `(routers × neurons)` grid slots
//! idle. This module amortizes both, on a multi-threaded pipeline:
//!
//! - [`TableCache`] memoizes fitted+quantized tables behind an
//!   [`Arc`], keyed by everything that determines the bits —
//!   `(activation, breakpoints, format, rounding)`. The cache is an
//!   interior-mutability design (`RwLock` map behind a shared handle):
//!   `get_or_fit` takes `&self`, clones share one store, and two threads
//!   racing to fit the same key converge on a single table allocation
//!   (the loser's fit is discarded and counted in
//!   [`TableCache::lost_races`]).
//! - [`ServingEngine`] is a three-stage concurrent runtime built only on
//!   `std` and lock-free [`crate::spsc`] rings:
//!   1. an **admission/coalescing** stage that packs the queries of many
//!      concurrent streams, in arrival order *per activation table*,
//!      into full `(routers × neurons)` batches, gathers runs of up to
//!      `K` same-activation batches into one *fat work unit* (`K`
//!      adapts to the run depth: deep slates amortize the hop over many
//!      batches, a one-batch slate still dispatches immediately), and
//!      feeds units to shard workers over fixed-capacity SPSC rings —
//!      a worker that falls behind exerts backpressure on admission
//!      instead of queueing unboundedly;
//!   2. a pool of **shard workers**, each a real [`std::thread`] owning
//!      its own `Box<dyn VectorUnit>` (the trait is `Send`), receiving
//!      sequence-numbered work units round-robin, re-programming the
//!      unit via [`VectorUnit::switch_table`] whenever a unit carries a
//!      different activation than the one currently loaded (free on
//!      NOVA, a real bank-rewrite stall on LUT/SDP hardware — see
//!      [`crate::timeline::table_switch_cycles`]), evaluating in
//!      parallel into result grids of their own, and sending each fully
//!      served unit home **with its results** in its batch shells;
//!   3. a **completion** stage on the engine thread that pops finished
//!      units off each shard's completion ring, copies every result
//!      span into the submitting ticket's pre-sized output row and
//!      advances the ticket's watermark. Only this thread ever writes a
//!      ticket row, and the output is bit-identical to the sequential
//!      path for any worker count and any activation interleaving.
//!
//! # Parking, not spinning
//!
//! Every blocking edge parks its thread instead of burning a core: an
//! idle worker parks on its feed ring's Dekker flag and is unparked by
//! the engine's next push; a blocked [`wait`](ServingEngine::wait) arms
//! a shared [`crate::spsc::Doorbell`], re-checks the rings, and parks
//! until some worker's completion push rings it. Completion pushes can
//! never block: admission caps each shard's in-flight units at its
//! completion ring's capacity, so a worker always finds a free slot —
//! which is also what makes engine shutdown (close feeds, join
//! workers) deadlock-free by construction.
//!
//! # Multi-tenant configuration and op-graph plans
//!
//! Engines are configured through a typed [`ServingConfig`] assembled by
//! [`EngineBuilder`] ([`ServingEngine::builder`]): geometry via
//! [`line`](EngineBuilder::line) or [`host`](EngineBuilder::host), any
//! number of resident activation tables via
//! [`table`](EngineBuilder::table) / [`tables`](EngineBuilder::tables) /
//! [`plan`](EngineBuilder::plan) (fitted through a shared
//! [`cache`](EngineBuilder::cache)), and the worker count via
//! [`shards`](EngineBuilder::shards). Every [`ServingRequest`] carries a
//! [`Plan`] — an ordered op graph of [`PlanStage`]s, each either a table
//! lookup ([`TableKey`]) or an in-engine elementwise/reduce step (row
//! max-subtract, denominator sum + range reduction, reciprocal scale).
//! A plain activation burst is the trivial one-stage lookup plan
//! (`TableKey` converts `Into<Plan>`), so single-table callers migrate
//! mechanically; [`Plan::fused_softmax`] chains the paper's
//! exp → reduce → reciprocal-scale softmax datapath through two
//! resident tables with zero host round-trips between stages.
//! [`ServingStats`] / [`WorkerLoad`] account the resulting table
//! switches, so makespan and queries/s honestly include the switch
//! stalls the paper's broadcast NoC avoids — and a fused plan's
//! per-batch exp → recip switch pattern is exactly where NOVA's
//! zero-cost switch pays off.
//!
//! # Sessions
//!
//! Beyond blocking [`serve`](ServingEngine::serve), the engine exposes a
//! non-blocking session surface: [`submit`](ServingEngine::submit)
//! enqueues a slate and returns a [`Ticket`],
//! [`try_poll`](ServingEngine::try_poll) collects a finished ticket
//! without blocking, [`wait`](ServingEngine::wait) parks until one
//! specific ticket is done (no spinning), and
//! [`drain`](ServingEngine::drain) blocks until every in-flight ticket
//! is done. `serve` itself is a thin submit-then-wait wrapper, so both
//! surfaces share one data plane (and one bit-identity guarantee
//! against [`serve_reference`](ServingEngine::serve_reference)).
//!
//! The data plane is **flat, and results travel by value**: one packer
//! (`serving/pack.rs`) lays every plan group out as batches of request
//! *spans* — `(request, offset, grid slot, len)` fragments. A batch
//! travels as a contiguous [`nova_fixed::FixedBatch`] grid plus its span
//! list. The worker evaluates it through
//! [`VectorUnit::lookup_batch_into`] into a result grid of its own and,
//! once every batch of the unit was served, swaps the result grids into
//! the unit's shells. The engine thread copies each span into its row
//! and returns the shells (grid plus span list) to an engine-owned pool
//! — once the pipeline has warmed up, steady-state serving performs
//! zero per-batch heap allocations ([`ServingEngine::buffers_created`]
//! stays constant). Wall-clock stage attribution (admission, per-worker
//! busy time, finalize) is exposed via [`ServingEngine::stage_times`]
//! so the scaling bench can attribute regressions to a stage instead of
//! guessing.
//!
//! Only each activation run's tail batch is padded (with an in-domain
//! value whose results are never copied out), so batch occupancy
//! approaches 100 % as offered load grows — which is exactly what the
//! paper's per-batch latency model rewards: the same 2-cycle lookup+MAC
//! now serves `routers × neurons` queries from *different* tenants, on
//! as many shards as the host exposes.
//!
//! # Error semantics
//!
//! A slate whose requests name a non-resident activation, carry a
//! malformed plan (see [`Plan::validate`]), or reduce over a row wider
//! than the engine's batch capacity is rejected up front (nothing
//! dispatches). Otherwise the slate is dispatched
//! batch-by-batch to the pool; every batch that evaluates successfully
//! is counted in the per-worker counters, and on failure the slate's
//! result is the *lowest-sequence* error — deterministic regardless of
//! worker timing. A failed slate counts no requests. A worker that
//! panics mid-batch is caught in the worker loop and surfaces as
//! [`NovaError::Runtime`] instead of hanging the reorder stage —
//! unless the engine was armed with a [`FaultPolicy`], in which case a
//! panic is treated as a *shard* fault (quarantine + requeue, below)
//! rather than a slate failure. Deterministic data errors (a format
//! mismatch, a malformed batch) stay slate failures either way:
//! re-running them on another shard would fail identically.
//!
//! # Fault tolerance & warm start
//!
//! The paper's NoC-broadcast engine is modeled down to its failure
//! modes ([`nova_noc::fault`] injects bit flips on broadcast links);
//! this layer decides what the *runtime* does when such a fault lands
//! mid-traffic. Arming detection is one builder knob —
//! [`fault_check`](EngineBuilder::fault_check) with a [`FaultPolicy`] —
//! and the lifecycle is:
//!
//! 1. **detect** — after every lookup-stage evaluation, the armed
//!    worker re-evaluates a small *canary* slice of the batch through
//!    the scalar architectural path ([`QuantizedPwl::eval`]) and
//!    compares words; a mismatch, an injected [`InjectedFault`], or a
//!    caught panic is a shard-fault verdict (the whole work unit is
//!    condemned — nothing a faulty shard evaluated leaves the worker);
//! 2. **quarantine** — the engine closes the shard's feed ring, joins
//!    the retired worker (deadlock-free: the completion ring holds the
//!    full outstanding cap), and removes the shard from the healthy
//!    routing set; the worker meanwhile hands every in-flight unit
//!    back *whole* (batches and plan intact, zero counters) over its
//!    completion ring;
//! 3. **requeue** — each handed-back unit is re-admitted to the
//!    healthy shards as it came back. A worker swaps results into a
//!    unit only after serving all of it, so a handed-back unit still
//!    carries its inputs; the healthy re-run lands bit-identically and
//!    the slate completes equal to
//!    [`serve_reference`](ServingEngine::serve_reference) as long as
//!    one healthy shard remains; only when the last shard is
//!    quarantined does the engine poison. The ledger counts requeued
//!    units once (the healthy run) and attributes the quarantine cost
//!    to [`StageTimes::requeue_ns`];
//!    [`ServingStats::quarantined_shards`] / `requeued_units` /
//!    `degraded_capacity_pct` report the degradation.
//!
//! Orthogonally, [`TableCache::snapshot`] serializes every fitted
//! table to a [`nova_serde::Value`] (raw slope/bias/breakpoint words —
//! no refit, no float round-trip) and
//! [`TableCache::restore`] rebuilds them raw-word-identically, so a
//! restarted daemon warm-starts instead of refitting every tenant's
//! table. The `nova-table-cache/v1` layout is pinned by a golden file.
//!
//! # Example
//!
//! ```
//! use nova::serving::{Plan, ServingEngine, ServingRequest, TableCache, TableKey};
//! use nova::ApproximatorKind;
//! use nova_approx::Activation;
//! use nova_fixed::{Fixed, Rounding, Q4_12};
//! use nova_noc::LineConfig;
//!
//! # fn main() -> Result<(), nova::NovaError> {
//! let cache = TableCache::new();
//! let gelu = TableKey::paper(Activation::Gelu);
//! let exp = TableKey::paper(Activation::Exp);
//! // Two shard workers (two OS threads), two resident activation tables.
//! let mut engine = ServingEngine::builder(ApproximatorKind::NovaNoc)
//!     .line(LineConfig::paper_default(4, 8))
//!     .cache(&cache)
//!     .tables([gelu, exp])
//!     .shards(2)
//!     .build()?;
//! let x = Fixed::from_f64(0.5, Q4_12, Rounding::NearestEven);
//! // Blocking: one mixed-activation slate.
//! let outputs = engine.serve(&[
//!     ServingRequest::new(0, gelu, vec![x; 3]),
//!     ServingRequest::new(1, exp, vec![x; 2]),
//! ])?;
//! assert_eq!(outputs[0][0], engine.table().eval(x));
//! // Non-blocking session: submit now, poll or drain later.
//! let ticket = engine.submit(&[ServingRequest::new(0, exp, vec![x; 5])])?;
//! let results = engine.drain();
//! assert_eq!(results[0].0, ticket);
//! assert_eq!(results[0].1.as_ref().unwrap()[0].len(), 5);
//! // Fused op-graph plan: the paper's softmax datapath as one request —
//! // max-subtract, PWL exp, denominator range-reduce, PWL reciprocal,
//! // exact shift-scale — executed stage-by-stage inside the workers.
//! let softmax = Plan::fused_softmax(Q4_12, Rounding::NearestEven);
//! let mut fused = ServingEngine::builder(ApproximatorKind::NovaNoc)
//!     .line(LineConfig::paper_default(4, 8))
//!     .cache(&cache)
//!     .plan(&softmax)
//!     .build()?;
//! let probs = fused.serve(&[ServingRequest::new(0, softmax, vec![x; 4])])?;
//! assert_eq!(probs[0].len(), 4);
//! # Ok(())
//! # }
//! ```

pub(crate) mod pack;

use std::collections::{HashMap, VecDeque};
// Atomics come through the nova-check facade (std in normal builds,
// instrumented under `--cfg nova_check_model`); nova-lint keeps raw
// `std::sync::atomic` imports out of this crate.
use nova_check::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use nova_accel::config::AcceleratorConfig;
use nova_approx::{fit, Activation, QuantizedPwl};
use nova_fixed::{Fixed, FixedBatch, QFormat, Rounding, Q4_12};
use nova_noc::{LineConfig, LinkConfig};
use nova_serde::Value;
use nova_synth::TechModel;

pub use nova_noc::fault::{FaultInjector, InjectedFault};

use self::pack::{pack, Span, MAX_UNIT_BATCHES};
use crate::spsc::{self, Doorbell, PushError};
use crate::vector_unit::{build, line_for_kind, HostGeometry, VectorUnit};
use crate::{ApproximatorKind, NovaError};

/// Everything that determines a quantized table's bits — the cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableKey {
    /// The approximated activation.
    pub activation: Activation,
    /// Breakpoint count of the PWL fit.
    pub breakpoints: usize,
    /// Fixed-point word format.
    pub format: QFormat,
    /// Rounding mode for quantization and the MAC output.
    pub rounding: Rounding,
}

impl TableKey {
    /// The paper's defaults: 16 breakpoints in Q4.12 with round-to-
    /// nearest-even.
    #[must_use]
    pub fn paper(activation: Activation) -> Self {
        Self {
            activation,
            breakpoints: 16,
            format: Q4_12,
            rounding: Rounding::NearestEven,
        }
    }
}

/// One stage of an op-graph [`Plan`]: a resident-table lookup or an
/// in-engine elementwise/reduce step executed between lookups.
///
/// The row ops implement the paper's softmax decomposition (see
/// [`nova_approx::softmax`]): every step other than the two PWL lookups
/// is exact integer arithmetic over the request's row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanStage {
    /// Evaluate every lane through the resident table for this key
    /// (re-programming the worker's unit if a different table is
    /// loaded).
    Lookup(TableKey),
    /// Exact row max-subtract in the raw domain: each lane becomes
    /// `x - max(row)` (saturating), so a following `exp` lookup sees
    /// the softmax-normalized domain `[-8, 0]`.
    MaxSubtract,
    /// Reduce the row to its denominator `Σ max(lane, 0)`, range-reduce
    /// it to `m · 2^e` with `m ∈ [1, 2)`, latch the pre-reduce lanes as
    /// numerators, and broadcast `m` into every lane (feeding a
    /// reciprocal lookup). An all-zero row latches the uniform
    /// fallback for the matching [`RangeScale`](Self::RangeScale).
    SumRangeReduce,
    /// Scale each latched numerator by the looked-up `1/m` and the
    /// exact shift `2^{-e}` from the preceding
    /// [`SumRangeReduce`](Self::SumRangeReduce) — the final softmax
    /// probabilities in the word format.
    RangeScale,
}

/// An ordered op-graph plan: what one [`ServingRequest`] asks the
/// engine to execute over its inputs.
///
/// The trivial plan is a single [`PlanStage::Lookup`] — exactly the old
/// tagged-request behavior, and what `TableKey: Into<Plan>` builds.
/// Multi-stage ("fused") plans run entirely inside the shard workers,
/// ping-ponging between scratch batches; their reduce stages operate on
/// each request's row, so a fused request's inputs must fit one
/// `(routers × neurons)` batch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Plan {
    stages: Vec<PlanStage>,
}

impl Plan {
    /// A plan from explicit stages. Validated at admission (or eagerly
    /// via [`validate`](Self::validate)).
    #[must_use]
    pub fn new(stages: impl IntoIterator<Item = PlanStage>) -> Self {
        Self {
            stages: stages.into_iter().collect(),
        }
    }

    /// The trivial one-stage plan: a single table lookup.
    #[must_use]
    pub fn lookup(key: TableKey) -> Self {
        Self {
            stages: vec![PlanStage::Lookup(key)],
        }
    }

    /// The paper's fused softmax datapath as one plan: row max-subtract,
    /// PWL `exp` lookup, denominator sum + range reduction, PWL
    /// reciprocal lookup, exact reciprocal-scale. Both tables use the
    /// paper's 16 breakpoints in the given word format; register them
    /// via [`EngineBuilder::plan`].
    ///
    /// Numerically this is [`nova_approx::softmax::ApproxSoftmax`]'s
    /// datapath with the max subtraction performed on the already
    /// quantized words (the engine receives `Fixed` inputs, not `f64`
    /// logits).
    #[must_use]
    pub fn fused_softmax(format: QFormat, rounding: Rounding) -> Self {
        let table = |activation| TableKey {
            activation,
            breakpoints: 16,
            format,
            rounding,
        };
        Self::new([
            PlanStage::MaxSubtract,
            PlanStage::Lookup(table(Activation::Exp)),
            PlanStage::SumRangeReduce,
            PlanStage::Lookup(table(Activation::Recip)),
            PlanStage::RangeScale,
        ])
    }

    /// The stages, in execution order.
    #[must_use]
    pub fn stages(&self) -> &[PlanStage] {
        &self.stages
    }

    /// `Some(key)` when this is the trivial one-lookup plan.
    #[must_use]
    pub fn single_lookup(&self) -> Option<TableKey> {
        match self.stages[..] {
            [PlanStage::Lookup(key)] => Some(key),
            _ => None,
        }
    }

    /// True for multi-stage (fused) plans.
    #[must_use]
    pub fn is_fused(&self) -> bool {
        self.stages.len() > 1
    }

    /// Every table key the plan looks up, in stage order.
    pub fn table_keys(&self) -> impl Iterator<Item = TableKey> + '_ {
        self.stages.iter().filter_map(|stage| match stage {
            PlanStage::Lookup(key) => Some(*key),
            _ => None,
        })
    }

    /// The word format and rounding the plan's row ops run in — the
    /// first lookup's. `None` for a (malformed) plan with no lookup.
    #[must_use]
    pub fn word_format(&self) -> Option<(QFormat, Rounding)> {
        self.table_keys()
            .next()
            .map(|key| (key.format, key.rounding))
    }

    /// Checks the structural invariants the engine relies on: at least
    /// one stage, at least one lookup, all lookups in one word format,
    /// and every [`PlanStage::RangeScale`] preceded by a
    /// [`PlanStage::SumRangeReduce`] that latched its numerators.
    ///
    /// # Errors
    ///
    /// Returns [`NovaError::BatchShape`] describing the violated
    /// invariant.
    pub fn validate(&self) -> Result<(), NovaError> {
        if self.stages.is_empty() {
            return Err(NovaError::BatchShape(
                "an op-graph plan needs at least one stage".into(),
            ));
        }
        let Some((format, rounding)) = self.word_format() else {
            return Err(NovaError::BatchShape(
                "an op-graph plan needs at least one table lookup stage".into(),
            ));
        };
        for key in self.table_keys() {
            if key.format != format || key.rounding != rounding {
                return Err(NovaError::BatchShape(format!(
                    "op-graph plan mixes word formats: {:?}/{:?} vs {:?}/{:?} — all \
                     lookups in one plan must share format and rounding",
                    format, rounding, key.format, key.rounding
                )));
            }
        }
        let mut reduced = false;
        for stage in &self.stages {
            match stage {
                PlanStage::SumRangeReduce => reduced = true,
                PlanStage::RangeScale if !reduced => {
                    return Err(NovaError::BatchShape(
                        "op-graph plan scales before any SumRangeReduce latched \
                         numerators"
                            .into(),
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl From<TableKey> for Plan {
    /// A tagged request is the trivial one-stage lookup plan.
    fn from(key: TableKey) -> Self {
        Self::lookup(key)
    }
}

impl From<&Plan> for Plan {
    fn from(plan: &Plan) -> Self {
        plan.clone()
    }
}

/// Shared state behind a [`TableCache`] handle.
#[derive(Debug, Default)]
struct CacheInner {
    tables: RwLock<HashMap<TableKey, Arc<QuantizedPwl>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    lost_races: AtomicU64,
}

/// A keyed, thread-shared cache of fitted+quantized tables.
///
/// Fitting a PWL and quantizing it is the expensive, data-independent
/// prefix of every evaluation; the cache does it once per key and hands
/// out [`Arc`] clones, so a cache hit is a pointer copy and every engine
/// serving the same operator shares one allocation.
///
/// The cache itself is a cheap shared handle: [`Clone`] clones the
/// handle, not the store, so engines and worker threads observe one
/// cache. [`get_or_fit`](Self::get_or_fit) takes `&self` — lookups take
/// a read lock, and a miss fits *outside* any lock before taking the
/// write lock to insert. When two threads race to fit the same key, the
/// insert path detects the lost race, discards the duplicate fit and
/// returns the winner's [`Arc`], so all callers converge on one table
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct TableCache {
    inner: Arc<CacheInner>,
}

impl TableCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached table for `key`, fitting and quantizing it on
    /// first use. Hits return the *same* `Arc` (pointer-equal) — even
    /// when concurrent callers raced to fit the key.
    ///
    /// A panicked fitter thread cannot take the cache down with it: the
    /// map is only ever mutated under the write lock *after* a fit
    /// completed, so a poisoned lock still guards a valid map — both
    /// lock sites recover the guard instead of propagating the poison,
    /// and every other engine sharing the cache keeps serving.
    ///
    /// # Errors
    ///
    /// Propagates PWL fitting / quantization failures, including the
    /// refusal of a `key.format` wider than 16 bits.
    pub fn get_or_fit(&self, key: TableKey) -> Result<Arc<QuantizedPwl>, NovaError> {
        if let Some(table) = self
            .inner
            .tables
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            // ordering: Relaxed — monotonic stats counter, no payload.
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(table));
        }
        // Miss: fit outside any lock so concurrent fitters of *different*
        // keys never serialize on the expensive part.
        let pwl = fit::fit_activation(
            key.activation,
            key.breakpoints,
            fit::BreakpointStrategy::Uniform,
        )?;
        let table = Arc::new(QuantizedPwl::from_pwl(&pwl, key.format, key.rounding)?);
        let mut tables = self
            .inner
            .tables
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(winner) = tables.get(&key) {
            // Lost the race: another thread fitted and inserted the same
            // key while we fitted. Converge on its allocation.
            // ordering: Relaxed — monotonic stats counter, no payload.
            self.inner.lost_races.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(winner));
        }
        // ordering: Relaxed — monotonic stats counter, no payload.
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        tables.insert(key, Arc::clone(&table));
        Ok(table)
    }

    /// Cache hits served so far (fast-path read hits).
    #[must_use]
    pub fn hits(&self) -> u64 {
        // ordering: Relaxed — stats snapshot; no synchronization carried.
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (tables fitted and inserted) so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        // ordering: Relaxed — stats snapshot; no synchronization carried.
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Fits discarded after losing an insert race to a concurrent fitter
    /// of the same key. Always 0 under single-threaded use.
    #[must_use]
    pub fn lost_races(&self) -> u64 {
        // ordering: Relaxed — stats snapshot; no synchronization carried.
        self.inner.lost_races.load(Ordering::Relaxed)
    }

    /// Distinct tables held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .tables
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether the cache holds no tables yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes every resident table into a warm-start snapshot: a
    /// [`Value`] tree (render it with [`Value::to_json`]) holding each
    /// table's [`TableKey`] plus its exact raw words — clamp bounds,
    /// quantized breakpoints, and the slope and bias words of its pairs
    /// (`slopes_raw`/`biases_raw`). [`restore`](Self::restore) rebuilds
    /// every derived structure from these words, so a daemon restart
    /// skips refitting and still serves bit-identical results.
    ///
    /// The layout is **stable** (`"nova-table-cache/v1"`, entries sorted
    /// by key, pinned by a golden file in the repo tests): snapshots
    /// taken today stay restorable by later releases.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let tables = self
            .inner
            .tables
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut entries: Vec<(TableKey, Arc<QuantizedPwl>)> =
            tables.iter().map(|(k, t)| (*k, Arc::clone(t))).collect();
        drop(tables);
        // HashMap iteration order is arbitrary: sort on the key so equal
        // caches serialize byte-identically (the golden-file contract).
        entries.sort_by_key(|(k, _)| {
            (
                activation_name(k.activation),
                k.breakpoints,
                k.format.total_bits(),
                k.format.frac_bits(),
                rounding_name(k.rounding),
            )
        });
        let tables = entries
            .into_iter()
            .map(|(key, table)| {
                let (lo, hi) = table.clamp_bounds();
                let raw_seq =
                    |raws: &[i64]| Value::Seq(raws.iter().map(|&r| Value::I64(r)).collect());
                let bp_raw: Vec<i64> = table.breakpoints().iter().map(|b| b.raw()).collect();
                let (slopes_raw, biases_raw): (Vec<i64>, Vec<i64>) = table
                    .pairs()
                    .iter()
                    .map(|p| (p.slope.raw(), p.bias.raw()))
                    .unzip();
                Value::Map(vec![
                    (
                        "activation".into(),
                        Value::Str(activation_name(key.activation).into()),
                    ),
                    ("breakpoints".into(), Value::U64(key.breakpoints as u64)),
                    (
                        "total_bits".into(),
                        Value::U64(u64::from(key.format.total_bits())),
                    ),
                    (
                        "frac_bits".into(),
                        Value::U64(u64::from(key.format.frac_bits())),
                    ),
                    (
                        "rounding".into(),
                        Value::Str(rounding_name(key.rounding).into()),
                    ),
                    ("lo_raw".into(), Value::I64(lo.raw())),
                    ("hi_raw".into(), Value::I64(hi.raw())),
                    ("breakpoints_raw".into(), raw_seq(&bp_raw)),
                    ("slopes_raw".into(), raw_seq(&slopes_raw)),
                    ("biases_raw".into(), raw_seq(&biases_raw)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("format".into(), Value::Str(SNAPSHOT_FORMAT.into())),
            ("tables".into(), Value::Seq(tables)),
        ])
    }

    /// Rebuilds tables from a [`snapshot`](Self::snapshot) and inserts
    /// them, returning how many were inserted. Keys already resident are
    /// left untouched (their live `Arc`s win), and the hit/miss/lost-race
    /// counters don't move — a warm start is not a cache miss.
    ///
    /// # Errors
    ///
    /// Returns [`NovaError::Runtime`] for an unrecognized snapshot format
    /// tag or a structurally malformed tree, and propagates raw-word
    /// validation failures from [`QuantizedPwl::from_raw_parts`], which
    /// refuses a format wider than 16 bits — nothing is inserted unless
    /// the whole snapshot decodes.
    pub fn restore(&self, snapshot: &Value) -> Result<usize, NovaError> {
        let bad = |what: &str| NovaError::Runtime(format!("table cache snapshot: {what}"));
        let format_tag = snapshot
            .get("format")
            .and_then(Value::as_str)
            .map_err(|e| bad(&format!("missing format tag: {e}")))?;
        if format_tag != SNAPSHOT_FORMAT {
            return Err(bad(&format!(
                "unrecognized format {format_tag:?} (expected {SNAPSHOT_FORMAT:?})"
            )));
        }
        let entries = snapshot
            .get("tables")
            .and_then(Value::as_seq)
            .map_err(|e| bad(&format!("missing tables sequence: {e}")))?;
        let mut decoded: Vec<(TableKey, QuantizedPwl)> = Vec::with_capacity(entries.len());
        for entry in entries {
            let str_field = |name: &str| {
                entry
                    .get(name)
                    .and_then(Value::as_str)
                    .map_err(|e| bad(&format!("table entry field {name}: {e}")))
            };
            let u64_field = |name: &str| {
                entry
                    .get(name)
                    .and_then(Value::as_u64)
                    .map_err(|e| bad(&format!("table entry field {name}: {e}")))
            };
            let i64_field = |name: &str| {
                entry
                    .get(name)
                    .and_then(Value::as_i64)
                    .map_err(|e| bad(&format!("table entry field {name}: {e}")))
            };
            let raw_field = |name: &str| -> Result<Vec<i64>, NovaError> {
                entry
                    .get(name)
                    .and_then(Value::as_seq)
                    .map_err(|e| bad(&format!("table entry field {name}: {e}")))?
                    .iter()
                    .map(|v| {
                        v.as_i64()
                            .map_err(|e| bad(&format!("non-integer word in {name}: {e}")))
                    })
                    .collect()
            };
            let activation_str = str_field("activation")?;
            let activation = activation_from_name(activation_str)
                .ok_or_else(|| bad(&format!("unknown activation {activation_str:?}")))?;
            let rounding_str = str_field("rounding")?;
            let rounding = rounding_from_name(rounding_str)
                .ok_or_else(|| bad(&format!("unknown rounding {rounding_str:?}")))?;
            let total_bits = u8::try_from(u64_field("total_bits")?)
                .map_err(|_| bad("total_bits out of range"))?;
            let frac_bits =
                u8::try_from(u64_field("frac_bits")?).map_err(|_| bad("frac_bits out of range"))?;
            let format = QFormat::new(total_bits, frac_bits)
                .map_err(|e| bad(&format!("bad word format: {e}")))?;
            let key = TableKey {
                activation,
                breakpoints: usize::try_from(u64_field("breakpoints")?)
                    .map_err(|_| bad("breakpoint count out of range"))?,
                format,
                rounding,
            };
            let table = QuantizedPwl::from_raw_parts(
                format,
                rounding,
                i64_field("lo_raw")?,
                i64_field("hi_raw")?,
                &raw_field("breakpoints_raw")?,
                &raw_field("slopes_raw")?,
                &raw_field("biases_raw")?,
            )
            .map_err(|e| bad(&format!("table {activation_str}: {e}")))?;
            decoded.push((key, table));
        }
        let mut tables = self
            .inner
            .tables
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut inserted = 0usize;
        for (key, table) in decoded {
            if let std::collections::hash_map::Entry::Vacant(slot) = tables.entry(key) {
                slot.insert(Arc::new(table));
                inserted += 1;
            }
        }
        Ok(inserted)
    }
}

/// Version tag of the [`TableCache::snapshot`] wire layout. Bump only
/// with a migration path: the golden-file test pins the `v1` bytes.
const SNAPSHOT_FORMAT: &str = "nova-table-cache/v1";

/// Stable serialized name of an [`Activation`]. The golden-file test
/// pins every current name, so a variant rename (which would change its
/// snapshot encoding) fails CI instead of silently orphaning old
/// snapshots.
fn activation_name(a: Activation) -> &'static str {
    match a {
        Activation::Relu => "relu",
        Activation::Gelu => "gelu",
        Activation::Sigmoid => "sigmoid",
        Activation::Tanh => "tanh",
        Activation::Exp => "exp",
        Activation::Erf => "erf",
        Activation::Silu => "silu",
        Activation::Softplus => "softplus",
        Activation::Recip => "recip",
        Activation::Rsqrt => "rsqrt",
        Activation::Sqrt => "sqrt",
        // `Activation` is non-exhaustive: a variant added without a
        // snapshot name serializes as "unknown", which `restore`
        // rejects — loud at load time rather than corrupt on disk.
        _ => "unknown",
    }
}

fn activation_from_name(name: &str) -> Option<Activation> {
    if name == "unknown" {
        return None;
    }
    Activation::all()
        .iter()
        .copied()
        .find(|&a| activation_name(a) == name)
}

/// Stable serialized name of a [`Rounding`] mode (see
/// [`activation_name`]).
fn rounding_name(r: Rounding) -> &'static str {
    match r {
        Rounding::NearestEven => "nearest-even",
        Rounding::NearestAway => "nearest-away",
        Rounding::Floor => "floor",
    }
}

fn rounding_from_name(name: &str) -> Option<Rounding> {
    [
        Rounding::NearestEven,
        Rounding::NearestAway,
        Rounding::Floor,
    ]
    .into_iter()
    .find(|&r| rounding_name(r) == name)
}

/// One non-linear query burst from one inference stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingRequest {
    /// Stream (tenant) id — used only for per-stream gather.
    pub stream: usize,
    /// The op graph serving this burst: a one-stage lookup plan for
    /// plain activation serving, or a fused multi-stage pipeline (e.g.
    /// [`Plan::fused_softmax`]).
    pub plan: Plan,
    /// Raw query values in the plan's word format. A fused plan treats
    /// them as one row (its reduce stages span the whole burst), so
    /// they must fit one `(routers × neurons)` batch.
    pub inputs: Vec<Fixed>,
}

impl ServingRequest {
    /// A request: `stream`'s burst of `inputs` through `plan` — pass a
    /// bare [`TableKey`] for the trivial single-lookup plan.
    #[must_use]
    pub fn new(stream: usize, plan: impl Into<Plan>, inputs: Vec<Fixed>) -> Self {
        Self {
            stream,
            plan: plan.into(),
            inputs,
        }
    }
}

/// The typed configuration an engine is built from — what the
/// [`EngineBuilder`] assembles and [`ServingEngine::config`] reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// The approximator hardware every shard worker instantiates.
    pub kind: ApproximatorKind,
    /// Line geometry: `(routers × neurons_per_router)` is the batch
    /// capacity, and the NOVA arm derives its SMART reach from it.
    pub line: LineConfig,
    /// Worker shards (OS threads) in the pool.
    pub shards: usize,
    /// Resident activation tables, in registration order; the first is
    /// the default every worker is pre-programmed with.
    pub tables: Vec<TableKey>,
}

impl ServingConfig {
    /// Checks the structural invariants every engine needs.
    ///
    /// # Errors
    ///
    /// Returns [`NovaError::BatchShape`] for `shards == 0` or an empty
    /// table set.
    pub fn validate(&self) -> Result<(), NovaError> {
        if self.shards == 0 {
            return Err(NovaError::BatchShape(
                "serving engine needs at least one worker shard".into(),
            ));
        }
        if self.tables.is_empty() {
            return Err(NovaError::BatchShape(
                "serving engine needs at least one resident activation table".into(),
            ));
        }
        Ok(())
    }
}

/// Arms per-shard fault detection on a [`ServingEngine`] — the
/// [`EngineBuilder::fault_check`] knob.
///
/// With a policy armed, every shard worker re-evaluates a small *canary
/// slice* of each lookup batch through the architectural scalar path
/// ([`QuantizedPwl::eval`]: comparator address, pair, fused MAC) and
/// compares it against the words the batch kernel gathered from the
/// materialized output table — two different implementations of the
/// same datapath. A mismatch — or any panic caught inside the worker's
/// unwind boundary — is treated as **shard failure**: the shard is
/// quarantined (feed ring closed, worker retired) and its in-flight
/// work units are requeued to the surviving shards, so the slate still
/// completes bit-identical to
/// [`serve_reference`](ServingEngine::serve_reference). Only when the
/// last healthy shard fails does the engine poison.
///
/// Deterministic chaos is driven through [`inject`](Self::inject): a
/// [`FaultInjector`] rides on a chosen shard and corrupts one output
/// word (or panics) after a configured number of lookup evaluations.
///
/// Detection coverage follows the canary width (the two leading lanes
/// of each lookup batch): an injected bit flip lands in lane 0, which
/// the canary always covers; real upsets outside the canary lanes are
/// the same residual risk a sampled checker has in hardware.
#[derive(Debug, Clone, Default)]
pub struct FaultPolicy {
    injectors: Vec<(usize, FaultInjector)>,
}

impl FaultPolicy {
    /// A policy with no injected faults — pure detection arming.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a deterministic fault on shard `shard` (ignored if the
    /// engine has fewer shards). The injector ticks once per lookup
    /// evaluation on that shard and fires exactly once.
    #[must_use]
    pub fn inject(mut self, shard: usize, injector: FaultInjector) -> Self {
        self.injectors.push((shard, injector));
        self
    }

    /// The injector armed for `shard`, if any (first match wins).
    fn injector_for(&self, shard: usize) -> Option<FaultInjector> {
        self.injectors
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|(_, inj)| inj.clone())
    }
}

/// Builds a [`ServingEngine`] from named parts instead of positional
/// arguments: geometry ([`line`](Self::line) or [`host`](Self::host)),
/// resident activation tables ([`table`](Self::table) /
/// [`tables`](Self::tables), fitted through an optional shared
/// [`cache`](Self::cache)), the worker count
/// ([`shards`](Self::shards), default 1) and optional fault detection
/// ([`fault_check`](Self::fault_check)).
#[derive(Debug)]
pub struct EngineBuilder<'a> {
    kind: ApproximatorKind,
    line: Option<LineConfig>,
    host: Option<(&'a TechModel, &'a AcceleratorConfig)>,
    shards: usize,
    tables: Vec<TableKey>,
    cache: Option<&'a TableCache>,
    fault_policy: Option<FaultPolicy>,
}

impl<'a> EngineBuilder<'a> {
    fn new(kind: ApproximatorKind) -> Self {
        Self {
            kind,
            line: None,
            host: None,
            shards: 1,
            tables: Vec::new(),
            cache: None,
            fault_policy: None,
        }
    }

    /// Arms per-shard fault detection (and optional deterministic fault
    /// injection) — see [`FaultPolicy`]. Without this the engine runs
    /// exactly as before: panics fail the slate, nothing quarantines.
    #[must_use]
    pub fn fault_check(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = Some(policy);
        self
    }

    /// Explicit line geometry (`routers × neurons` grid plus link/reach).
    /// Overrides [`host`](Self::host) if both are given.
    #[must_use]
    pub fn line(mut self, line: LineConfig) -> Self {
        self.line = Some(line);
        self
    }

    /// Derives the line geometry from a Table II host at build time,
    /// exactly as the overlay does (the NOVA arm compiles the first
    /// table's broadcast schedule to program the NoC clock and reach).
    #[must_use]
    pub fn host(mut self, tech: &'a TechModel, host: &'a AcceleratorConfig) -> Self {
        self.host = Some((tech, host));
        self
    }

    /// Worker shards (OS threads) in the pool. Defaults to 1.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Registers one resident activation table.
    #[must_use]
    pub fn table(mut self, key: TableKey) -> Self {
        self.tables.push(key);
        self
    }

    /// Registers several resident activation tables at once.
    #[must_use]
    pub fn tables(mut self, keys: impl IntoIterator<Item = TableKey>) -> Self {
        self.tables.extend(keys);
        self
    }

    /// Registers every table a plan looks up, so requests carrying it
    /// (or any plan over the same keys) admit without a resident-table
    /// miss. Row-op stages need no registration.
    #[must_use]
    pub fn plan(mut self, plan: &Plan) -> Self {
        self.tables.extend(plan.table_keys());
        self
    }

    /// Fits the registered tables through a shared cache, so a second
    /// engine for the same keys reuses the same `Arc`'d tables. Without
    /// this the builder fits into a private cache.
    #[must_use]
    pub fn cache(mut self, cache: &'a TableCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Fits the tables, resolves the geometry and spawns the worker
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns [`NovaError::BatchShape`] when no table or no geometry
    /// was configured (or `shards == 0`), and propagates table fitting /
    /// unit construction / thread spawn failures.
    pub fn build(self) -> Result<ServingEngine, NovaError> {
        if self.tables.is_empty() {
            return Err(NovaError::BatchShape(
                "engine builder needs at least one activation table: call .table(key) or .tables([..])"
                    .into(),
            ));
        }
        // Duplicate keys collapse onto one resident table.
        let mut keys: Vec<TableKey> = Vec::with_capacity(self.tables.len());
        for key in self.tables {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        let local_cache;
        let cache = match self.cache {
            Some(cache) => cache,
            None => {
                local_cache = TableCache::new();
                &local_cache
            }
        };
        let tables = keys
            .iter()
            .map(|&key| Ok((key, cache.get_or_fit(key)?)))
            .collect::<Result<Vec<_>, NovaError>>()?;
        let line = match (self.line, self.host) {
            (Some(line), _) => line,
            (None, Some((tech, host))) => line_for_kind(
                self.kind,
                tech,
                &tables[0].1,
                LinkConfig::paper(),
                HostGeometry::of(host),
            )?,
            (None, None) => return Err(NovaError::BatchShape(
                "engine builder needs a geometry: call .line(config) or .host(tech, accelerator)"
                    .into(),
            )),
        };
        let config = ServingConfig {
            kind: self.kind,
            line,
            shards: self.shards,
            tables: keys,
        };
        ServingEngine::from_config_parts(config, tables, self.fault_policy)
    }
}

/// Accounting of a [`ServingEngine`], accumulated across `serve` calls.
///
/// Assembled by [`ServingEngine::stats`] from the per-worker counters
/// ([`ServingEngine::worker_loads`]): `queries`, `batches`,
/// `latency_cycles` and the table-switch counters are sums over the
/// shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServingStats {
    /// Requests served to completion (slates that returned an error
    /// count their dispatched batches/queries below, but no requests).
    pub requests: u64,
    /// Individual queries served (excludes padding).
    pub queries: u64,
    /// Vector-unit batches dispatched.
    pub batches: u64,
    /// Work units dispatched to the pool — each packs a run of up to
    /// `K` same-activation batches, so `jobs <= batches` and the gap is
    /// the channel traffic the fat-unit admission saved.
    pub jobs: u64,
    /// Grid slots filled with padding (tail batches only).
    pub padded_slots: u64,
    /// Accumulated per-batch latency over all dispatched batches, in
    /// accelerator cycles — the *serial* sum across the whole pool; see
    /// [`ServingEngine::makespan_cycles`] for the concurrent-shards
    /// view.
    pub latency_cycles: u64,
    /// Activation-table re-programs performed by the workers (a batch
    /// whose activation differs from the one its worker had loaded).
    pub table_switches: u64,
    /// Accumulated stall cycles those switches cost — 0 on the NOVA NoC
    /// (the table lives on the wire), `entries` per switch on LUT banks,
    /// more on the SDP ([`crate::timeline::table_switch_cycles`]).
    pub switch_cycles: u64,
    /// Shards quarantined after a detected fault (see [`FaultPolicy`]):
    /// their feed rings are closed and their workers retired, but the
    /// engine keeps serving on the survivors.
    pub quarantined_shards: u64,
    /// In-flight work units re-admitted to healthy shards after their
    /// original shard was quarantined. Requeued units contribute nothing
    /// to any other counter — only the healthy re-run is accounted.
    pub requeued_units: u64,
    /// Capacity lost to quarantine, in percent of the configured shard
    /// count (`100 × quarantined / shards`; 0.0 while every shard is
    /// healthy).
    pub degraded_capacity_pct: f64,
}

nova_serde::impl_serde_struct!(ServingStats {
    requests,
    queries,
    batches,
    jobs,
    padded_slots,
    latency_cycles,
    table_switches,
    switch_cycles,
    quarantined_shards,
    requeued_units,
    degraded_capacity_pct,
});

/// Per-shard-worker accounting: what one worker thread served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerLoad {
    /// Work units this worker completed (runs of coalesced batches).
    pub jobs: u64,
    /// Batches this worker evaluated successfully.
    pub batches: u64,
    /// Real (non-padded) queries in those batches.
    pub queries: u64,
    /// Accumulated per-batch latency, in accelerator cycles.
    pub cycles: u64,
    /// Activation-table re-programs this worker performed.
    pub table_switches: u64,
    /// Stall cycles those re-programs cost this worker.
    pub switch_cycles: u64,
    /// Wall-clock nanoseconds spent processing work units (switch +
    /// eval), for the bench's per-stage breakdown.
    pub busy_ns: u64,
}

nova_serde::impl_serde_struct!(WorkerLoad {
    jobs,
    batches,
    queries,
    cycles,
    table_switches,
    switch_cycles,
    busy_ns,
});

/// Wall-clock pipeline-stage attribution, accumulated since
/// construction — see [`ServingEngine::stage_times`].
///
/// `admit_ns` and `finalize_ns` are spent on the *caller's* thread;
/// worker busy time runs concurrently on the pool, so the stage sums do
/// not add up to elapsed wall time — they attribute it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimes {
    /// Nanoseconds the caller thread spent in admission: resolving
    /// tags, packing batches, building work units.
    pub admit_ns: u64,
    /// Sum over all workers of nanoseconds spent processing work units.
    pub worker_busy_ns: u64,
    /// The busiest single worker's processing nanoseconds — the pool's
    /// wall-clock critical path.
    pub worker_busy_max_ns: u64,
    /// Nanoseconds the caller thread spent bringing results home:
    /// copying each served unit's result spans into its ticket's rows,
    /// and judging finished tickets.
    pub finalize_ns: u64,
    /// Nanoseconds the caller thread spent quarantining faulted shards
    /// and re-admitting their in-flight units to healthy shards (ring
    /// close + worker join + requeue); 0 while no fault fired.
    pub requeue_ns: u64,
}

nova_serde::impl_serde_struct!(StageTimes {
    admit_ns,
    worker_busy_ns,
    worker_busy_max_ns,
    finalize_ns,
    requeue_ns,
});

/// One stage of a [`CompiledPlan`]: a [`PlanStage`] with its lookup
/// resolved to the resident table's `Arc`, so workers never touch the
/// engine's table list.
enum StageOp {
    Lookup {
        key: TableKey,
        table: Arc<QuantizedPwl>,
    },
    MaxSubtract,
    SumRangeReduce,
    RangeScale,
}

/// A validated, table-resolved plan — what admission memoizes per
/// [`Plan`] and work units carry to the workers.
struct CompiledPlan {
    stages: Vec<StageOp>,
    /// The word format/rounding of the plan's row ops (the first
    /// lookup's).
    format: QFormat,
    rounding: Rounding,
    /// In-domain pad value for tail slots: the first lookup table's
    /// lower clamp bound (padded lanes can never fault; their outputs
    /// are never copied out).
    pad: Fixed,
    /// Lookup stages per batch — each costs one
    /// [`VectorUnit::latency_cycles`] charge on success.
    lookups: u64,
    /// Multi-stage plans pack row-aligned: a reduce stage spans a
    /// request's whole row, so a row never splits across batches.
    fused: bool,
}

/// Exact row max-subtract in the raw domain — [`PlanStage::MaxSubtract`]
/// as executed by both the workers and the sequential reference.
fn row_max_subtract(row: &mut [Fixed], format: QFormat) {
    let Some(max) = row.iter().map(|x| x.raw()).max() else {
        return;
    };
    for x in row {
        *x = Fixed::from_raw_saturating(x.raw() - max, format);
    }
}

/// The denominator reduce of [`PlanStage::SumRangeReduce`]:
/// `Σ max(lane, 0)` split into `m · 2^e` with `m ∈ [scale, 2·scale)`
/// raw — i.e. `m ∈ [1, 2)`. `None` for an all-zero row (the uniform
/// fallback). Bit-exact to `ApproxSoftmax::eval`'s steps 3–4.
fn row_sum_range_reduce(row: &[Fixed], format: QFormat) -> Option<(i64, i32)> {
    let sum: i64 = row.iter().map(|x| x.raw().max(0)).sum();
    if sum == 0 {
        return None;
    }
    let scale = format.scale();
    let mut e: i32 = 0;
    let mut m_raw = sum;
    while m_raw >= 2 * scale {
        m_raw >>= 1;
        e += 1;
    }
    while m_raw < scale {
        m_raw <<= 1;
        e -= 1;
    }
    Some((m_raw, e))
}

/// One lane of [`PlanStage::RangeScale`]: latched numerator times the
/// looked-up `1/m`, shifted by the exact `2^{-(frac + e)}` — bit-exact
/// to `ApproxSoftmax::eval`'s step 5.
fn range_scale_lane(num_raw: i64, recip_m: Fixed, e: i32, format: QFormat) -> Fixed {
    let wide = num_raw.max(0) * recip_m.raw();
    let shift = i32::from(format.frac_bits()) + e;
    let raw = if shift >= 0 {
        wide >> shift
    } else {
        wide << (-shift).min(62)
    };
    Fixed::from_raw_saturating(raw, format)
}

/// One coalesced batch inside a work unit: a full (possibly
/// tail-padded) grid — inputs on the way out, results on the way back
/// once its unit was served — plus its span map.
struct PackedBatch {
    /// Recyclable flat grid (pool-owned between flights).
    grid: FixedBatch,
    /// One entry per request fragment, in grid-slot order from slot 0:
    /// reduce stages read each span as a row, and the engine copies
    /// each span's result words into its request's row.
    spans: Vec<Span>,
}

impl PackedBatch {
    /// Real (non-padded) queries: the grid's leading slots.
    fn len(&self) -> usize {
        self.spans.last().map_or(0, |span| span.slots().end)
    }
}

/// A fat work unit: a sequence-numbered run of up to
/// [`MAX_UNIT_BATCHES`] same-plan batches. One ring hop, one (at most)
/// table switch per lookup stage, and one completion serve the whole
/// run — that amortization is what makes the pool a wall-clock win for
/// batches that cost ~2 model cycles each.
struct WorkUnit {
    seq: u64,
    plan: Arc<CompiledPlan>,
    batches: Vec<PackedBatch>,
}

/// Completion of one work unit: the unit riding back whole (its shells
/// for recycling, or all of it for a requeue) plus what became of it.
/// The done ring it arrives on names the shard.
struct UnitDone {
    unit: WorkUnit,
    outcome: Outcome,
}

/// What a worker did with one work unit.
enum Outcome {
    /// The unit ran on a trusted shard. `result` is `Ok` or the unit's
    /// first (lowest-batch) failure — later batches still run after one
    /// fails. Only an `Ok` unit's grids hold results; a failed unit's
    /// grids still hold its inputs.
    Served {
        ledger: UnitLedger,
        result: Result<(), NovaError>,
    },
    /// A shard-fault verdict (canary mismatch or armed-policy panic):
    /// the unit was *not* served and rides back with its inputs intact,
    /// so the engine quarantines the worker and requeues the unit on a
    /// healthy shard.
    HandedBack(String),
}

/// Pre-aggregated counters of one served work unit.
#[derive(Default)]
struct UnitLedger {
    /// Batches (and their real queries) that evaluated successfully.
    batches: u64,
    queries: u64,
    /// Summed per-batch latency of the successful batches, in cycles.
    latency: u64,
    /// Padded tail slots of the successful batches.
    padded: u64,
    table_switches: u64,
    switch_cycles: u64,
    /// Wall nanoseconds this unit kept the worker busy.
    busy_ns: u64,
}

/// One slate's results: per-request output vectors, aligned with the
/// submitted `requests`.
pub type SlateOutputs = Vec<Vec<Fixed>>;

/// A drained ticket paired with its slate's outcome — what
/// [`ServingEngine::drain`] yields per in-flight submission.
pub type DrainedTicket = (Ticket, Result<SlateOutputs, NovaError>);

/// A handle to one submitted slate, returned by
/// [`ServingEngine::submit`] and redeemed through
/// [`try_poll`](ServingEngine::try_poll) /
/// [`drain`](ServingEngine::drain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

impl Ticket {
    /// The ticket's engine-unique id (monotonically increasing per
    /// submit).
    #[must_use]
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Book-keeping of one in-flight submitted slate.
struct TicketState {
    id: u64,
    /// Global sequence number of the slate's first work unit.
    base_seq: u64,
    /// Work units dispatched for this slate.
    jobs: usize,
    /// Units completed so far; the ticket finishes at `jobs` (the
    /// watermark — no per-row reorder work happens here).
    received: usize,
    /// Per-request output rows, pre-sized to their final lengths at
    /// admission; the engine copies each served unit's result spans
    /// into them.
    outputs: Vec<Vec<Fixed>>,
    /// Lowest-sequence unit failure, if any — deterministic for any
    /// worker timing because sequence order is submission order.
    failure: Option<(u64, NovaError)>,
}

/// Depth of each worker's feed ring, in work units: admission stalls a
/// shard that is this many units behind, so a slow worker
/// backpressures the coalescing stage instead of queueing the whole
/// slate.
const WORKER_FEED_DEPTH: usize = 2;

/// Depth of each worker's completion ring — and, by the same number,
/// the per-shard in-flight cap admission enforces. Because at most
/// this many units are ever sent-but-uncollected per shard, a worker's
/// completion push always finds a free slot: completion is
/// *non-blocking by invariant*, which is what lets shutdown close the
/// feeds and join workers without first draining completions.
const WORKER_DONE_DEPTH: usize = 4;

/// Leading lanes of each lookup batch an armed worker re-checks through
/// the scalar architectural path (see [`FaultPolicy`]).
const CANARY_LANES: usize = 2;

/// One shard's engine-side plumbing: the two SPSC rings to/from its
/// worker thread, the in-flight unit count that caps completion-ring
/// occupancy, and the join handle.
struct ShardLink {
    feed: spsc::Producer<WorkUnit>,
    done: spsc::Consumer<UnitDone>,
    /// Units pushed to `feed` whose completions have not been popped
    /// from `done` yet. Admission keeps this `< WORKER_DONE_DEPTH`.
    outstanding: usize,
    handle: Option<JoinHandle<()>>,
    /// Set once a fault verdict retired this shard: its feed is closed,
    /// its worker joined, and its (soon-closed) completion ring is
    /// exempt from the worker-died poison check. Never cleared.
    quarantined: bool,
}

/// The concurrent multi-tenant serving engine.
///
/// Owns a pool of shard worker *threads* — one per shard, each holding a
/// functionally identical `Box<dyn VectorUnit>` pre-programmed with the
/// first resident table — plus the admission and reorder stages that
/// feed them (see the [module docs](self) for the pipeline). Because
/// every unit kind is bit-identical to its table and batches are
/// reassembled by sequence number, shard count and threading never
/// change results — only throughput accounting.
///
/// Built via [`ServingEngine::builder`].
pub struct ServingEngine {
    config: ServingConfig,
    /// Resident tables in registration order; index 0 is the default
    /// every worker starts programmed with.
    tables: Vec<(TableKey, Arc<QuantizedPwl>)>,
    /// Memoized compiled plans: one table-resolved `Arc` per distinct
    /// [`Plan`] ever admitted, so re-submitting a plan never re-walks
    /// the table list and admission can group requests by pointer
    /// identity.
    programs: HashMap<Plan, Arc<CompiledPlan>>,
    routers: usize,
    neurons: usize,
    /// Per-shard ring plumbing (round-robin by unit sequence).
    shards: Vec<ShardLink>,
    /// The engine thread's wakeup latch: workers ring it after every
    /// completion push, blocking waits arm → re-check → park on it.
    doorbell: Arc<Doorbell>,
    /// Per-worker counters; aggregate stats are derived from these.
    loads: Vec<WorkerLoad>,
    requests_served: u64,
    padded_slots: u64,
    /// Recycling pool of batch shells (grid plus span list).
    /// Admission pops one per packed batch and completions return them,
    /// so a steady-state serve loop performs zero per-batch heap
    /// allocations.
    spare_batches: Vec<PackedBatch>,
    /// Recycled `WorkUnit::batches` shells (capacity-keeping).
    spare_units: Vec<Vec<PackedBatch>>,
    /// Admission's span scratch: every plan group's layout for the
    /// slate being submitted (capacity-keeping).
    spans: Vec<Span>,
    /// Batch shells minted because the pool ran dry — grows while the
    /// pipeline warms up, then stays constant (the allocation-free
    /// steady-state invariant the recycling test asserts).
    buffers_created: u64,
    /// Global work-unit sequence counter; also drives round-robin
    /// worker assignment (`seq % shards`), so repeated small slates
    /// still spread over every shard.
    next_seq: u64,
    next_ticket: u64,
    /// Units admitted but not yet handed to a worker (the non-blocking
    /// surface keeps them here while the feed rings are full).
    pending: VecDeque<WorkUnit>,
    /// In-flight tickets, ordered by `base_seq` (= submit order).
    inflight: Vec<TicketState>,
    /// Caller-thread nanoseconds spent in admission, cumulative.
    admit_ns: u64,
    /// Caller-thread nanoseconds spent finalizing tickets, cumulative.
    finalize_ns: u64,
    /// Caller-thread nanoseconds spent quarantining shards and
    /// requeueing their in-flight units, cumulative.
    requeue_ns: u64,
    /// Shard indices still accepting work, in index order. Starts as
    /// `0..shards`; quarantine removes entries. Dispatch maps
    /// `seq % healthy.len()` over this list, so the round-robin spread
    /// adapts to the surviving pool.
    healthy: Vec<usize>,
    /// Work units re-admitted after a quarantine, cumulative.
    requeued_units: u64,
    /// Latched fatal runtime failure (a dead worker pool): every later
    /// call fails fast instead of deadlocking. Latching also tears the
    /// pool down and reaps its threads.
    poisoned: Option<String>,
}

impl std::fmt::Debug for ServingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingEngine")
            .field("kind", &self.config.kind)
            .field("shards", &self.shards.len())
            .field("routers", &self.routers)
            .field("neurons", &self.neurons)
            .field("tables", &self.config.tables)
            .field("in_flight", &self.inflight.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Renders a caught panic payload for the `NovaError::Runtime` message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

/// Pushes a completion onto the done ring, yielding on the (invariantly
/// unreachable) full case and dropping it silently once the engine is
/// gone.
fn push_done(done_tx: &spsc::Producer<UnitDone>, mut done: UnitDone) {
    loop {
        match done_tx.try_push(done) {
            Ok(()) => return,
            Err(PushError::Full(back)) => {
                // Unreachable by the outstanding-cap invariant (admission
                // never has more than the ring's capacity in flight per
                // shard); yield rather than wedge if it is ever violated.
                debug_assert!(false, "completion ring full despite the outstanding cap");
                done = back;
                std::thread::yield_now();
            }
            // The engine is gone; nobody will read.
            Err(PushError::Closed(_)) => return,
        }
    }
}

/// The armed worker's per-lookup fault hook: applies this shard's
/// injected fault (if its trigger tick has come up), then re-evaluates
/// the canary lanes of the batch through the scalar architectural path
/// and reports the first mismatching lane.
///
/// Returns `None` when the worker is not armed or when every canary
/// lane agrees; `Some(lane)` is a shard-fault verdict.
fn lookup_fault_hook(
    table: &QuantizedPwl,
    xs: &[Fixed],
    ys: &mut [Fixed],
    injector: &mut Option<FaultInjector>,
    armed: bool,
) -> Option<usize> {
    if !armed {
        return None;
    }
    if let Some(fault) = injector.as_mut().and_then(FaultInjector::tick) {
        match fault {
            InjectedFault::BitFlip { bit } => {
                if let Some(y) = ys.first_mut() {
                    // Flip below the sign bit so the corrupted word is
                    // always representable and never saturates back to
                    // the original value.
                    let fmt = table.format();
                    let width = u32::from(fmt.total_bits()).saturating_sub(1).max(1);
                    *y = Fixed::from_raw_saturating(y.raw() ^ (1i64 << (bit % width)), fmt);
                }
            }
            InjectedFault::Panic => panic!("injected shard fault"),
        }
    }
    xs.iter()
        .zip(ys.iter())
        .take(CANARY_LANES)
        .position(|(&x, &y)| table.eval(x) != y)
}

/// One shard worker: the thread-owned vector unit, scratch grids and
/// fault arming behind the feed → serve → completion loop.
struct Worker {
    id: usize,
    unit: Box<dyn VectorUnit>,
    /// The table `unit` is programmed with; `None` after a panic, which
    /// may have cut a switch short, so the next lookup re-programs
    /// unconditionally.
    current: Option<TableKey>,
    /// The newest stage output.
    scratch: FixedBatch,
    /// Lookup output, swapped into `scratch` after every lookup.
    pong: FixedBatch,
    /// The finished result grid of each batch of the unit in service
    /// (at most [`MAX_UNIT_BATCHES`]), swapped into the unit's shells
    /// once every batch was served.
    results: Vec<FixedBatch>,
    /// The numerators and per-row range exponents a `SumRangeReduce`
    /// latches for the following `RangeScale` (`None` marks an all-zero
    /// row's uniform fallback).
    latch: Vec<i64>,
    row_exps: Vec<Option<i32>>,
    /// Fault detection armed: canary checks run, and a panic is a shard
    /// fault instead of a slate failure.
    armed: bool,
    injector: Option<FaultInjector>,
    /// Latched fault verdict: once set, this shard serves nothing
    /// further and hands every unit back until the engine closes its
    /// feed.
    retired: Option<String>,
}

impl Worker {
    /// The worker thread: parks (not spins) on an empty feed ring and
    /// exits once the engine closes it and the ring has drained. Every
    /// unit yields exactly one completion, and every completion rings
    /// the engine's doorbell.
    fn run(
        mut self,
        feed: spsc::Consumer<WorkUnit>,
        done: spsc::Producer<UnitDone>,
        bell: Arc<Doorbell>,
    ) {
        while let Some(work) = feed.pop_or_park() {
            push_done(&done, self.serve(work));
            bell.ring();
        }
    }

    /// Serves one work unit or, once retired, hands it back whole: after
    /// a fault verdict nothing this shard evaluates can be trusted.
    fn serve(&mut self, mut unit: WorkUnit) -> UnitDone {
        let outcome = match &self.retired {
            Some(verdict) => Outcome::HandedBack(verdict.clone()),
            None => self.serve_batches(&mut unit),
        };
        if let Outcome::HandedBack(verdict) = &outcome {
            self.retired = Some(verdict.clone());
        }
        UnitDone { unit, outcome }
    }

    /// Runs every batch of a unit through its plan into `results`,
    /// pre-aggregating one ledger for the run. A failed batch keeps the
    /// unit going (the run reports its first failure); a panicking batch
    /// is caught instead of killing the thread. The result grids swap
    /// into the unit's shells only when every batch was served, so a
    /// failed unit keeps its input grids: a unit may refuse a batch
    /// before shaping its output, and that grid must not reach the pool.
    ///
    /// A shard-fault verdict stops the unit mid-way: it is handed back
    /// with its inputs intact for the requeue.
    fn serve_batches(&mut self, unit: &mut WorkUnit) -> Outcome {
        let started = Instant::now();
        let WorkUnit { seq, plan, batches } = unit;
        if self.results.len() < batches.len() {
            self.results.resize_with(batches.len(), FixedBatch::empty);
        }
        let mut ledger = UnitLedger::default();
        let mut result = Ok(());
        for (i, pb) in batches.iter().enumerate() {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_stages(plan, pb, &mut ledger)
            }));
            let failure = match run {
                Ok(Ok(None)) => {
                    ledger.batches += 1;
                    ledger.queries += pb.len() as u64;
                    ledger.latency += plan.lookups * self.unit.latency_cycles();
                    ledger.padded += (pb.grid.len() - pb.len()) as u64;
                    std::mem::swap(&mut self.scratch, &mut self.results[i]);
                    continue;
                }
                Ok(Ok(Some(lane))) => {
                    return Outcome::HandedBack(format!(
                        "shard worker {} canary mismatch at lane {lane} of work unit {seq}",
                        self.id
                    ))
                }
                Ok(Err(e)) => e,
                Err(payload) => {
                    self.current = None;
                    let msg = format!(
                        "shard worker {} panicked serving work unit {seq}: {}",
                        self.id,
                        panic_message(payload.as_ref())
                    );
                    if self.armed {
                        return Outcome::HandedBack(msg);
                    }
                    NovaError::Runtime(msg)
                }
            };
            if result.is_ok() {
                result = Err(failure);
            }
        }
        if result.is_ok() {
            for (pb, out) in batches.iter_mut().zip(&mut self.results) {
                std::mem::swap(&mut pb.grid, out);
            }
        }
        ledger.busy_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Outcome::Served { ledger, result }
    }

    /// The stage interpreter: executes `plan` over one batch and leaves
    /// the result words in `scratch`. `Ok(Some(lane))` is a canary
    /// mismatch verdict.
    ///
    /// A lookup reads the packed grid (as the first stage) or
    /// `scratch`, re-programming the unit first when a different table
    /// is loaded; row ops rewrite `scratch` in place, one span (= one
    /// request row) at a time.
    fn run_stages(
        &mut self,
        plan: &CompiledPlan,
        pb: &PackedBatch,
        ledger: &mut UnitLedger,
    ) -> Result<Option<usize>, NovaError> {
        if !matches!(plan.stages[0], StageOp::Lookup { .. }) {
            self.scratch.copy_from(&pb.grid);
        }
        let format = plan.format;
        for (i, op) in plan.stages.iter().enumerate() {
            match op {
                StageOp::Lookup { key, table } => {
                    if self.current != Some(*key) {
                        ledger.switch_cycles += self.unit.switch_table(table)?;
                        ledger.table_switches += 1;
                        self.current = Some(*key);
                    }
                    let src = if i == 0 { &pb.grid } else { &self.scratch };
                    self.unit.lookup_batch_into(src, &mut self.pong)?;
                    let mismatch = lookup_fault_hook(
                        table,
                        src.as_slice(),
                        self.pong.as_mut_slice(),
                        &mut self.injector,
                        self.armed,
                    );
                    std::mem::swap(&mut self.scratch, &mut self.pong);
                    if mismatch.is_some() {
                        return Ok(mismatch);
                    }
                }
                StageOp::MaxSubtract => {
                    let lanes = self.scratch.as_mut_slice();
                    for span in &pb.spans {
                        row_max_subtract(&mut lanes[span.slots()], format);
                    }
                }
                StageOp::SumRangeReduce => {
                    let lanes = self.scratch.as_mut_slice();
                    self.latch.clear();
                    self.latch.extend(lanes.iter().map(|x| x.raw()));
                    self.row_exps.clear();
                    for span in &pb.spans {
                        let row = &mut lanes[span.slots()];
                        let red = row_sum_range_reduce(row, format);
                        // Zero-sum rows broadcast an in-domain
                        // placeholder; their RangeScale overwrites every
                        // lane with the uniform fallback.
                        let m_raw = red.map_or(format.scale(), |(m, _)| m);
                        row.fill(Fixed::from_raw_saturating(m_raw, format));
                        self.row_exps.push(red.map(|(_, e)| e));
                    }
                }
                StageOp::RangeScale => {
                    let lanes = self.scratch.as_mut_slice();
                    for (span, exp) in pb.spans.iter().zip(&self.row_exps) {
                        let row = &mut lanes[span.slots()];
                        match *exp {
                            Some(e) => {
                                for (x, &num) in row.iter_mut().zip(&self.latch[span.slots()]) {
                                    *x = range_scale_lane(num, *x, e, format);
                                }
                            }
                            // All numerators quantized to zero: uniform,
                            // the same divide-by-zero guard as
                            // `ApproxSoftmax::eval`.
                            None => row.fill(Fixed::from_f64(
                                1.0 / span.len as f64,
                                format,
                                plan.rounding,
                            )),
                        }
                    }
                }
            }
        }
        Ok(None)
    }
}

impl ServingEngine {
    /// Starts configuring an engine for `kind` — see [`EngineBuilder`].
    #[must_use]
    pub fn builder<'a>(kind: ApproximatorKind) -> EngineBuilder<'a> {
        EngineBuilder::new(kind)
    }

    /// Builds the per-shard units from the default table and spawns the
    /// pool.
    fn from_config_parts(
        config: ServingConfig,
        tables: Vec<(TableKey, Arc<QuantizedPwl>)>,
        fault_policy: Option<FaultPolicy>,
    ) -> Result<Self, NovaError> {
        config.validate()?;
        let units = (0..config.shards)
            .map(|_| build(config.kind, config.line, &tables[0].1))
            .collect::<Result<Vec<_>, _>>()?;
        // Every resident table must actually be servable by this kind on
        // this line, so an unswitchable table (e.g. one with more flits
        // than the NoC link's tags address) fails construction, not a
        // slate mid-serve. This keeps the "non-resident tags are
        // rejected before anything dispatches" contract honest: a table
        // the builder accepted can always be switched to.
        for (key, table) in &tables[1..] {
            config
                .kind
                .check_table(config.line.link, table)
                .map_err(|e| {
                    NovaError::Runtime(format!(
                        "activation table {:?}/{} breakpoints cannot be served by this \
                         engine's {:?} hardware: {e}",
                        key.activation, key.breakpoints, config.kind
                    ))
                })?;
        }
        Self::from_units(config, tables, fault_policy, units)
    }

    /// Spawns the worker pool around pre-built units (also the test seam
    /// for injecting misbehaving units).
    fn from_units(
        config: ServingConfig,
        tables: Vec<(TableKey, Arc<QuantizedPwl>)>,
        fault_policy: Option<FaultPolicy>,
        units: Vec<Box<dyn VectorUnit>>,
    ) -> Result<Self, NovaError> {
        let shards = units.len();
        let doorbell = Arc::new(Doorbell::new());
        let mut links = Vec::with_capacity(shards);
        for (id, unit) in units.into_iter().enumerate() {
            let worker = Worker {
                id,
                unit,
                current: Some(tables[0].0),
                scratch: FixedBatch::empty(),
                pong: FixedBatch::empty(),
                results: Vec::new(),
                latch: Vec::new(),
                row_exps: Vec::new(),
                armed: fault_policy.is_some(),
                injector: fault_policy.as_ref().and_then(|p| p.injector_for(id)),
                retired: None,
            };
            let (feed_tx, feed_rx) = spsc::ring::<WorkUnit>(WORKER_FEED_DEPTH);
            let (done_tx, done_rx) = spsc::ring::<UnitDone>(WORKER_DONE_DEPTH);
            let bell = Arc::clone(&doorbell);
            let handle = std::thread::Builder::new()
                .name(format!("nova-serve-{id}"))
                .spawn(move || worker.run(feed_rx, done_tx, bell))
                .map_err(|e| NovaError::Runtime(format!("spawning shard worker {id}: {e}")))?;
            links.push(ShardLink {
                feed: feed_tx,
                done: done_rx,
                outstanding: 0,
                handle: Some(handle),
                quarantined: false,
            });
        }
        let routers = config.line.routers;
        let neurons = config.line.neurons_per_router;
        Ok(Self {
            config,
            tables,
            programs: HashMap::new(),
            routers,
            neurons,
            shards: links,
            doorbell,
            loads: vec![WorkerLoad::default(); shards],
            requests_served: 0,
            padded_slots: 0,
            spare_batches: Vec::new(),
            spare_units: Vec::new(),
            spans: Vec::new(),
            buffers_created: 0,
            next_seq: 0,
            next_ticket: 0,
            pending: VecDeque::new(),
            inflight: Vec::new(),
            admit_ns: 0,
            finalize_ns: 0,
            requeue_ns: 0,
            healthy: (0..shards).collect(),
            requeued_units: 0,
            poisoned: None,
        })
    }

    /// The typed configuration this engine was built from.
    #[must_use]
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// The approximator hardware serving this engine.
    #[must_use]
    pub fn kind(&self) -> ApproximatorKind {
        self.config.kind
    }

    /// The default (first-registered) quantized table — the one every
    /// worker is pre-programmed with.
    #[must_use]
    pub fn table(&self) -> &QuantizedPwl {
        &self.tables[0].1
    }

    /// The resident activation tables, in registration order.
    #[must_use]
    pub fn tables(&self) -> &[(TableKey, Arc<QuantizedPwl>)] {
        &self.tables
    }

    /// The resident table for `key`; `None` when the engine does not
    /// serve that activation.
    #[must_use]
    pub fn table_for(&self, key: TableKey) -> Option<&Arc<QuantizedPwl>> {
        self.resolve(key).ok().map(|i| &self.tables[i].1)
    }

    /// Worker shards (threads) in the pool.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Queries one full batch serves: `routers × neurons_per_router`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.routers * self.neurons
    }

    /// Tickets submitted but not yet collected.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Accumulated accounting, assembled from the per-worker counters.
    #[must_use]
    pub fn stats(&self) -> ServingStats {
        let mut stats = ServingStats {
            requests: self.requests_served,
            padded_slots: self.padded_slots,
            ..ServingStats::default()
        };
        for load in &self.loads {
            stats.jobs += load.jobs;
            stats.batches += load.batches;
            stats.queries += load.queries;
            stats.latency_cycles += load.cycles;
            stats.table_switches += load.table_switches;
            stats.switch_cycles += load.switch_cycles;
        }
        let quarantined = self.shards.iter().filter(|l| l.quarantined).count() as u64;
        stats.quarantined_shards = quarantined;
        stats.requeued_units = self.requeued_units;
        stats.degraded_capacity_pct = if self.shards.is_empty() {
            0.0
        } else {
            100.0 * quarantined as f64 / self.shards.len() as f64
        };
        stats
    }

    /// Shards still accepting work (total minus quarantined). Equals
    /// [`Self::shards`] until a fault verdict quarantines one.
    #[must_use]
    pub fn healthy_shards(&self) -> usize {
        self.healthy.len()
    }

    /// Per-worker accounting: what each shard thread served so far.
    #[must_use]
    pub fn worker_loads(&self) -> &[WorkerLoad] {
        &self.loads
    }

    /// Input batch buffers minted since construction. Grows while the
    /// recycling pool warms up (first slate, or a deeper slate than any
    /// before), then stays constant: a steady-state serve loop pops every
    /// buffer from the pool and the completions return it, performing
    /// zero per-batch heap allocations. The capacity-stability test pins
    /// this invariant.
    #[must_use]
    pub fn buffers_created(&self) -> u64 {
        self.buffers_created
    }

    /// Input buffers currently parked in the recycling pool (all of
    /// them, between `serve` calls).
    #[must_use]
    pub fn buffer_pool_len(&self) -> usize {
        self.spare_batches.len()
    }

    /// Wall-clock attribution of where serving time has gone since
    /// construction: caller-thread admission and finalization, plus the
    /// pool's summed and busiest-single-worker processing time. The
    /// worker time runs concurrently with the caller, so the stages do
    /// not sum to elapsed wall time — `worker_busy_max_ns` is the pool's
    /// critical path.
    #[must_use]
    pub fn stage_times(&self) -> StageTimes {
        let mut times = StageTimes {
            admit_ns: self.admit_ns,
            finalize_ns: self.finalize_ns,
            requeue_ns: self.requeue_ns,
            ..StageTimes::default()
        };
        for load in &self.loads {
            times.worker_busy_ns += load.busy_ns;
            times.worker_busy_max_ns = times.worker_busy_max_ns.max(load.busy_ns);
        }
        times
    }

    /// Batch occupancy so far (%): queries served over grid slots
    /// dispatched. 100 % means every dispatched batch was full; before
    /// the first `serve` call (zero batches) this is 0, not NaN.
    #[must_use]
    pub fn occupancy_pct(&self) -> f64 {
        let stats = self.stats();
        let slots = stats.batches * self.capacity() as u64;
        if slots == 0 {
            0.0
        } else {
            100.0 * stats.queries as f64 / slots as f64
        }
    }

    /// The pool's makespan in accelerator cycles: shards serve their
    /// batches concurrently, so the slowest (busiest) worker's
    /// accumulated latency — batch latency *plus table-switch stalls* —
    /// bounds the wall clock. With one shard and no switches this equals
    /// [`ServingStats::latency_cycles`]; with `k` evenly loaded shards
    /// it approaches `latency_cycles / k`. Zero before the first `serve`
    /// call.
    #[must_use]
    pub fn makespan_cycles(&self) -> u64 {
        self.loads
            .iter()
            .map(|l| l.cycles + l.switch_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Aggregate query throughput so far at a `core_ghz` clock
    /// (queries/s): queries served over the pool's parallel makespan
    /// ([`makespan_cycles`](Self::makespan_cycles), switch stalls
    /// included), so adding shards raises throughput even though
    /// per-batch latency is unchanged — and a LUT engine that keeps
    /// re-programming banks honestly reports less throughput than the
    /// switch-free NOVA NoC. Zero (not NaN) before the first `serve`
    /// call.
    #[must_use]
    pub fn queries_per_second(&self, core_ghz: f64) -> f64 {
        let makespan = self.makespan_cycles();
        if makespan == 0 {
            0.0
        } else {
            let seconds = makespan as f64 / (core_ghz * 1e9);
            self.stats().queries as f64 / seconds
        }
    }

    /// Resolves an activation tag to a resident-table index.
    fn resolve(&self, key: TableKey) -> Result<usize, NovaError> {
        if let Some(i) = self.tables.iter().position(|(k, _)| *k == key) {
            return Ok(i);
        }
        Err(NovaError::Runtime(format!(
            "activation table {:?}/{} breakpoints is not resident in this engine \
             (resident: {:?}); register it via EngineBuilder::table/tables/plan",
            key.activation, key.breakpoints, self.config.tables
        )))
    }

    /// Validates `plan` and resolves its lookups against the resident
    /// tables, memoizing the result so admission groups repeat plans by
    /// pointer identity.
    fn compile_plan(&mut self, plan: &Plan) -> Result<Arc<CompiledPlan>, NovaError> {
        if let Some(compiled) = self.programs.get(plan) {
            return Ok(Arc::clone(compiled));
        }
        plan.validate()?;
        let (format, rounding) = plan
            .word_format()
            .expect("validated plans have a lookup stage");
        let mut stages = Vec::with_capacity(plan.stages().len());
        let mut pad = None;
        let mut lookups = 0u64;
        for stage in plan.stages() {
            stages.push(match *stage {
                PlanStage::Lookup(key) => {
                    let table = Arc::clone(&self.tables[self.resolve(key)?].1);
                    if pad.is_none() {
                        pad = Some(table.clamp_bounds().0);
                    }
                    lookups += 1;
                    StageOp::Lookup { key, table }
                }
                PlanStage::MaxSubtract => StageOp::MaxSubtract,
                PlanStage::SumRangeReduce => StageOp::SumRangeReduce,
                PlanStage::RangeScale => StageOp::RangeScale,
            });
        }
        let compiled = Arc::new(CompiledPlan {
            stages,
            format,
            rounding,
            pad: pad.expect("validated plans have a lookup stage"),
            lookups,
            fused: plan.is_fused(),
        });
        self.programs.insert(plan.clone(), Arc::clone(&compiled));
        Ok(compiled)
    }

    fn check_poisoned(&self) -> Result<(), NovaError> {
        match &self.poisoned {
            Some(msg) => Err(NovaError::Runtime(msg.clone())),
            None => Ok(()),
        }
    }

    /// Latches a fatal pool failure and returns it as an error.
    ///
    /// Poisoning also tears the pool down (close feeds, join workers):
    /// a poisoned engine serves nothing further, so its threads are
    /// reaped now rather than at drop.
    fn poison(&mut self, what: &str) -> NovaError {
        let msg = format!("serving engine poisoned: {what}");
        self.poisoned = Some(msg.clone());
        self.shutdown_pool();
        NovaError::Runtime(msg)
    }

    /// Closes every feed ring and reaps the worker threads. Workers
    /// drain (and serve) what was already in their feed before exiting;
    /// their completion pushes always fit by the outstanding-cap
    /// invariant, so this never deadlocks. Units still queued in
    /// `pending` are simply dropped.
    fn shutdown_pool(&mut self) {
        for link in &self.shards {
            link.feed.close();
        }
        for link in &mut self.shards {
            if let Some(handle) = link.handle.take() {
                let _ = handle.join();
            }
        }
    }

    /// Serves a slate of requests from many concurrent streams through
    /// the worker pool, blocking until every batch is back.
    ///
    /// The admission stage coalesces queries in arrival order *per
    /// activation table* (activation runs in first-appearance order;
    /// request order, then query order, within each run) into full
    /// `(routers × neurons)` batches — only each run's tail batch is
    /// padded, with an in-domain value whose outputs are dropped —
    /// packs runs of up to `K` same-activation batches into fat work
    /// units, and feeds those round-robin to the shard workers over
    /// fixed-depth SPSC rings (backpressure, not unbounded queueing).
    /// Workers re-program their unit between runs of different
    /// activations, charging the per-kind switch stall to
    /// [`WorkerLoad::switch_cycles`], and send each served unit back
    /// with its result grids; the engine thread copies each span's
    /// result words into its request's output row. The assembled
    /// outputs align with `requests` — bit-identical to evaluating each
    /// query through its table's [`QuantizedPwl::eval`] alone, for any
    /// worker count, any run length and any activation interleaving.
    ///
    /// Equivalent to [`submit`](Self::submit) followed by blocking
    /// collection of the returned ticket.
    ///
    /// # Errors
    ///
    /// Rejects slates naming a non-resident activation up front (nothing
    /// dispatches). Otherwise propagates worker failures (e.g. format
    /// mismatches); the whole slate is dispatched before results are
    /// judged, so on failure the per-worker counters reflect exactly the
    /// batches that evaluated successfully (their queries included) —
    /// never the failed ones — and the error returned is the
    /// lowest-sequence failure, making the outcome deterministic for any
    /// worker count. A failed slate counts no requests.
    pub fn serve(&mut self, requests: &[ServingRequest]) -> Result<Vec<Vec<Fixed>>, NovaError> {
        let ticket = self.submit(requests)?;
        self.wait(ticket)
    }

    /// Admits a slate without blocking: packs it into sequence-numbered
    /// work units (runs of coalesced same-activation batches), queues
    /// them toward the worker pool, and returns a [`Ticket`] to collect
    /// later via [`try_poll`](Self::try_poll) or
    /// [`drain`](Self::drain). Already-submitted work keeps flowing to
    /// the workers while the caller does other things between calls.
    ///
    /// # Errors
    ///
    /// Returns [`NovaError::Runtime`] when a request names an activation
    /// with no resident table, [`NovaError::BatchShape`] for a malformed
    /// plan or a fused row wider than one batch (nothing is dispatched
    /// either way), and the latched error when the engine was poisoned
    /// by a dead worker pool.
    pub fn submit(&mut self, requests: &[ServingRequest]) -> Result<Ticket, NovaError> {
        self.check_poisoned()?;
        let started = Instant::now();
        let capacity = self.capacity();
        // Compile every plan up front and group requests into per-plan
        // runs, in first-appearance order: a slate naming a non-resident
        // activation or carrying a malformed plan is rejected before any
        // buffer or counter moves. (Plan compilation mutates only the
        // memo cache, which is invisible to accounting.) Memoization
        // makes equal plans pointer-equal, so groups form by identity.
        let mut group_of: Vec<usize> = Vec::with_capacity(requests.len());
        let mut groups: Vec<Arc<CompiledPlan>> = Vec::new();
        for request in requests {
            let plan = self.compile_plan(&request.plan)?;
            let g = match groups.iter().position(|p| Arc::ptr_eq(p, &plan)) {
                Some(g) => g,
                None => {
                    groups.push(plan);
                    groups.len() - 1
                }
            };
            group_of.push(g);
        }
        // Lay every group out before anything dispatches, so a fused row
        // wider than one batch also rejects the slate up front.
        self.spans.clear();
        let mut layouts = Vec::with_capacity(groups.len());
        for (g, plan) in groups.iter().enumerate() {
            let members = requests
                .iter()
                .enumerate()
                .filter(|&(ri, _)| group_of[ri] == g)
                .map(|(ri, request)| (ri, request.inputs.len()));
            let layout = pack(
                members,
                plan.fused,
                capacity,
                self.shards.len(),
                MAX_UNIT_BATCHES,
                &mut self.spans,
            )?;
            layouts.push((layout, self.spans.len()));
        }
        // Pre-size every output row to its final length: `route` copies
        // each served span into its slice of the row.
        let outputs: Vec<Vec<Fixed>> = requests
            .iter()
            .zip(&group_of)
            .map(|(request, &g)| vec![groups[g].pad; request.inputs.len()])
            .collect();
        // Seal each group's batches into units of `K`. Batch shells and
        // unit shells come from the recycling pools: once the pipeline
        // has warmed up, admission performs no per-batch allocation.
        let spans = std::mem::take(&mut self.spans);
        let base_seq = self.next_seq;
        let mut start = 0;
        for (plan, (layout, end)) in groups.iter().zip(layouts) {
            // A span at grid slot 0 opens the next batch.
            let mut batches = spans[start..end]
                .chunk_by(|_, next| next.slot != 0)
                .peekable();
            while batches.peek().is_some() {
                let mut unit = self.spare_units.pop().unwrap_or_default();
                for batch in batches.by_ref().take(layout.unit_batches) {
                    unit.push(self.fill_batch(plan.pad, batch, requests));
                }
                self.pending.push_back(WorkUnit {
                    seq: self.next_seq,
                    plan: Arc::clone(plan),
                    batches: unit,
                });
                self.next_seq += 1;
            }
            start = end;
        }
        self.spans = spans;
        let id = self.next_ticket;
        self.next_ticket += 1;
        self.inflight.push(TicketState {
            id,
            base_seq,
            jobs: usize::try_from(self.next_seq - base_seq).expect("unit count fits usize"),
            received: 0,
            outputs,
            failure: None,
        });
        self.admit_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Err(e) = self.pump() {
            // The pool died mid-admission (and was torn down by the
            // poison latch): the caller gets the error, never the ticket
            // — unregister the orphaned state (it was pushed last) so
            // `drain`/`in_flight` don't report a submission the caller
            // has no handle to.
            self.inflight.pop();
            return Err(e);
        }
        Ok(Ticket(id))
    }

    /// Pops a recycled batch shell (minting one if the pool is dry) and
    /// packs one batch into it: its spans, each span's request words
    /// into its grid slots, and the in-domain `pad` into the tail slots
    /// (their outputs are never copied out).
    fn fill_batch(
        &mut self,
        pad: Fixed,
        spans: &[Span],
        requests: &[ServingRequest],
    ) -> PackedBatch {
        let mut pb = self.spare_batches.pop().unwrap_or_else(|| {
            self.buffers_created += 1;
            PackedBatch {
                grid: FixedBatch::new(self.routers, self.neurons, pad),
                spans: Vec::new(),
            }
        });
        pb.spans.extend_from_slice(spans);
        let len = pb.len();
        let grid = pb.grid.as_mut_slice();
        for span in spans {
            grid[span.slots()].copy_from_slice(&requests[span.request].inputs[span.queries()]);
        }
        grid[len..].fill(pad);
        pb
    }

    /// Blocks until `ticket` finishes and returns its result — the
    /// single-ticket blocking collector ([`serve`](Self::serve) is
    /// submit + wait). Unlike spinning on
    /// [`try_poll`](Self::try_poll), this parks on the [`Doorbell`]
    /// (arm → re-check → park, so no wakeup is missed) and burns no CPU.
    /// Other in-flight tickets keep making progress while this one is
    /// waited on.
    ///
    /// # Errors
    ///
    /// As [`try_poll`](Self::try_poll): the ticket's lowest-sequence
    /// batch failure, an unknown/already-collected ticket, or the
    /// latched poison error.
    pub fn wait(&mut self, ticket: Ticket) -> Result<Vec<Vec<Fixed>>, NovaError> {
        loop {
            self.check_poisoned()?;
            self.pump()?;
            if let Some(outputs) = self.collect(ticket)? {
                return Ok(outputs);
            }
            // An unfinished ticket either has units in flight (their
            // completions ring the doorbell) or units pending behind a
            // saturated shard (that shard has completions coming, which
            // also ring) — so parking here can always be woken.
            self.doorbell.arm();
            if self.progress_ready() {
                self.doorbell.disarm();
                continue;
            }
            std::thread::park();
            self.doorbell.disarm();
        }
    }

    /// Collects `ticket` if it has finished, without blocking. `Ok(None)`
    /// means its batches are still in flight (the call still pumps the
    /// pipeline, so repeated polling makes progress).
    ///
    /// # Errors
    ///
    /// Returns the ticket's lowest-sequence batch failure once it
    /// finishes (the ticket is consumed), [`NovaError::Runtime`] for an
    /// unknown or already-collected ticket, and the latched poison error
    /// if the worker pool died.
    pub fn try_poll(&mut self, ticket: Ticket) -> Result<Option<Vec<Vec<Fixed>>>, NovaError> {
        self.check_poisoned()?;
        self.pump()?;
        self.collect(ticket)
    }

    /// Blocks until every in-flight ticket has finished and returns
    /// their results in submit order. The engine is fully idle
    /// afterwards ([`in_flight`](Self::in_flight) is 0).
    pub fn drain(&mut self) -> Vec<DrainedTicket> {
        let mut results = Vec::with_capacity(self.inflight.len());
        while let Some(id) = self.inflight.first().map(|t| t.id) {
            let result = self.wait(Ticket(id));
            results.push((Ticket(id), result));
            if let Some(msg) = self.poisoned.clone() {
                // The pool is gone: the remaining tickets can never
                // complete — fail them deterministically. The ticket
                // whose wait hit the poison is still in `inflight`
                // (poison-path errors don't consume it) and was already
                // reported above, so it is skipped here: one result per
                // submission.
                for state in self.inflight.drain(..) {
                    if state.id == id {
                        continue;
                    }
                    results.push((Ticket(state.id), Err(NovaError::Runtime(msg.clone()))));
                }
                break;
            }
        }
        results
    }

    /// Drains completions and feeds pending work units without ever
    /// blocking: the non-blocking half of the pipeline shared by
    /// `submit`, `try_poll` and the blocking wait loop.
    fn pump(&mut self) -> Result<(), NovaError> {
        for s in 0..self.shards.len() {
            while let Some(UnitDone { unit, outcome }) = self.shards[s].done.try_pop() {
                self.shards[s].outstanding -= 1;
                match outcome {
                    Outcome::Served { ledger, result } => self.route(s, unit, &ledger, result),
                    Outcome::HandedBack(verdict) => self.handle_fault(s, unit, &verdict)?,
                }
            }
            // A closed (and now drained) completion ring means its
            // worker thread died outside the catch — unit panics are
            // caught and reported, so this is a wiring failure. A
            // quarantined shard's ring is closed *by design* (its
            // worker was retired and joined), so it is exempt.
            if self.shards[s].done.is_closed() && !self.shards[s].quarantined {
                return Err(self.poison(&format!("shard worker {s} died")));
            }
        }
        while let Some(unit) = self.pending.pop_front() {
            // Units go out strictly in sequence order (stopping at the
            // first saturated shard), so each worker's table-switch
            // pattern is deterministic for a given worker count *and
            // quarantine set*. The outstanding cap keeps every shard's
            // completion ring from ever filling — that is what makes
            // worker completion pushes non-blocking by invariant.
            let Some(worker) = self.route_shard(unit.seq) else {
                // No healthy shard left: the fault that emptied the set
                // already latched the poison — park the unit and let the
                // caller's check_poisoned surface it.
                self.pending.push_front(unit);
                break;
            };
            let link = &mut self.shards[worker];
            if link.outstanding >= WORKER_DONE_DEPTH || link.feed.is_full() {
                self.pending.push_front(unit);
                break;
            }
            match link.feed.try_push(unit) {
                Ok(()) => link.outstanding += 1,
                // Closed means the shard failed between the routing
                // decision and the push (its fault completion is in
                // flight): park the unit — the next pump quarantines the
                // shard and re-routes over the shrunken healthy set.
                Err(PushError::Full(unit) | PushError::Closed(unit)) => {
                    self.pending.push_front(unit);
                    break;
                }
            }
        }
        Ok(())
    }

    /// The healthy shard `seq` routes to, or `None` once every shard is
    /// quarantined. Round-robin over the *healthy* list, so routing
    /// stays deterministic for a given quarantine set.
    fn route_shard(&self, seq: u64) -> Option<usize> {
        if self.healthy.is_empty() {
            return None;
        }
        let slot = usize::try_from(seq % self.healthy.len() as u64).expect("shards fit usize");
        Some(self.healthy[slot])
    }

    /// Retires shard `s` after a fault verdict: closes its feed ring
    /// (the retired worker drains the ring back as fault completions and
    /// exits), joins the thread, and removes the shard from the healthy
    /// routing set. Idempotent — the drain-back completions re-enter
    /// here once per parked unit.
    fn quarantine(&mut self, s: usize) {
        if self.shards[s].quarantined {
            return;
        }
        self.shards[s].quarantined = true;
        self.shards[s].feed.close();
        if let Some(handle) = self.shards[s].handle.take() {
            // Cannot deadlock: the done ring's depth equals the
            // outstanding cap, so every drain-back push fits without the
            // engine popping.
            let _ = handle.join();
        }
        self.healthy.retain(|&h| h != s);
    }

    /// One handed-back unit from shard `s`: quarantines the shard (first
    /// verdict only) and re-admits the unit as it came back to the
    /// healthy routing set. A worker swaps results into a unit only
    /// after serving all of it, so the unit still carries its inputs
    /// and the healthy re-run lands bit-identically.
    ///
    /// # Errors
    ///
    /// Poisons the engine when the quarantine empties the healthy set:
    /// with no shard left to re-run on, the slate can never complete.
    fn handle_fault(&mut self, s: usize, unit: WorkUnit, verdict: &str) -> Result<(), NovaError> {
        let started = Instant::now();
        self.quarantine(s);
        let outcome = if self.healthy.is_empty() {
            Err(self.poison(&format!(
                "all shard workers quarantined; last verdict: {verdict}"
            )))
        } else {
            self.requeued_units += 1;
            self.pending.push_back(unit);
            Ok(())
        };
        self.requeue_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        outcome
    }

    /// Files one unit served by shard `s` with its in-flight ticket:
    /// rolls its ledger into the worker's load, copies a successful
    /// unit's result spans into the ticket's rows (timed into
    /// `finalize_ns`), recycles the batch shells and advances the
    /// ticket's watermark.
    fn route(
        &mut self,
        s: usize,
        mut unit: WorkUnit,
        ledger: &UnitLedger,
        result: Result<(), NovaError>,
    ) {
        // A switch the worker performed really re-programmed the unit —
        // later runs of that activation won't switch again — so the
        // ledger counts it even when the run's lookups then failed (only
        // the batch/query counters are conditional on success).
        let load = &mut self.loads[s];
        load.jobs += 1;
        load.batches += ledger.batches;
        load.queries += ledger.queries;
        load.cycles += ledger.latency;
        load.table_switches += ledger.table_switches;
        load.switch_cycles += ledger.switch_cycles;
        load.busy_ns += ledger.busy_ns;
        self.padded_slots += ledger.padded;
        let seq = unit.seq;
        let idx = self
            .inflight
            .partition_point(|t| t.base_seq + t.jobs as u64 <= seq);
        let ticket = &mut self.inflight[idx];
        match result {
            Ok(()) => {
                let started = Instant::now();
                for pb in &unit.batches {
                    let words = pb.grid.as_slice();
                    for span in &pb.spans {
                        ticket.outputs[span.request][span.queries()]
                            .copy_from_slice(&words[span.slots()]);
                    }
                }
                self.finalize_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
            // Keep the lowest-sequence failure: sequence order is
            // submission order, so the reported error is deterministic
            // for any worker count and timing.
            Err(e) => match &ticket.failure {
                Some((first, _)) if *first <= seq => {}
                _ => ticket.failure = Some((seq, e)),
            },
        }
        ticket.received += 1;
        // Success or failure, the shells return to the pools.
        for mut pb in unit.batches.drain(..) {
            pb.spans.clear();
            self.spare_batches.push(pb);
        }
        self.spare_units.push(unit.batches);
    }

    /// True when `pump` could make progress right now: a completion is
    /// waiting (or a worker died), or the head pending unit's shard can
    /// accept it. The blocking wait only parks when this is false —
    /// progress then requires a worker to push a completion, and every
    /// such push rings the doorbell.
    fn progress_ready(&self) -> bool {
        if self.shards.iter().any(|link| {
            // A quarantined shard's rings are closed by design and its
            // buffered fault completions were all drained during the
            // quarantine pump — treating its permanently-closed done
            // ring as "ready" would busy-spin the wait loop.
            !link.done.is_empty() || (link.done.is_closed() && !link.quarantined)
        }) {
            return true;
        }
        match self.pending.front() {
            Some(unit) => match self.route_shard(unit.seq) {
                Some(worker) => {
                    let link = &self.shards[worker];
                    link.feed.is_closed()
                        || (link.outstanding < WORKER_DONE_DEPTH && !link.feed.is_full())
                }
                // Healthy set empty: the engine is poisoned and the wait
                // loop's check_poisoned fires before it can park.
                None => true,
            },
            None => false,
        }
    }

    /// Removes and judges `ticket` once every unit of it is back
    /// (`Ok(None)` before): `route` already copied every result word
    /// into its pre-sized output rows.
    fn collect(&mut self, ticket: Ticket) -> Result<Option<Vec<Vec<Fixed>>>, NovaError> {
        let id = ticket.0;
        let idx = self
            .inflight
            .iter()
            .position(|t| t.id == id)
            .ok_or_else(|| {
                NovaError::Runtime(format!("unknown or already-collected ticket #{id}"))
            })?;
        if self.inflight[idx].received < self.inflight[idx].jobs {
            return Ok(None);
        }
        let started = Instant::now();
        let state = self.inflight.remove(idx);
        let verdict = match state.failure {
            Some((_, e)) => Err(e),
            None => {
                // Only a fully served slate counts its requests: on an
                // error the batch/query counters reflect the work that
                // evaluated, but no request was answered in full.
                self.requests_served += state.outputs.len() as u64;
                Ok(Some(state.outputs))
            }
        };
        self.finalize_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        verdict
    }

    /// The sequential reference path: a plain op-graph interpreter that
    /// walks each request's [`Plan`] stage by stage — table lookups via
    /// the resident [`QuantizedPwl`] tables (the buffer-reusing
    /// [`QuantizedPwl::eval_into`]), reduce stages via the exact same
    /// raw-domain helpers the workers run — with no batching, threading
    /// or switch accounting. [`serve`](Self::serve) must be
    /// bit-identical to this for any worker count, any activation
    /// interleaving and any plan shape — the determinism tests and the
    /// CI checksum smokes (flat and fused) assert exactly that.
    ///
    /// Does not touch the worker pool or any counter.
    ///
    /// # Panics
    ///
    /// Panics if a request carries a malformed plan, names a
    /// non-resident activation, or an input word is not in its table's
    /// format (the same wiring-bug conditions `serve` reports as
    /// errors).
    #[must_use]
    pub fn serve_reference(&self, requests: &[ServingRequest]) -> Vec<Vec<Fixed>> {
        requests
            .iter()
            .map(|request| {
                request.plan.validate().expect("plan well-formed");
                let (format, rounding) =
                    request.plan.word_format().expect("validated plans look up");
                let mut cur = request.inputs.clone();
                let mut scratch = Vec::with_capacity(cur.len());
                // Reduce-stage carry: per-lane numerators latched at the
                // denominator reduction, and the range exponent (`None`
                // marks the all-zero row that falls back to uniform).
                let mut latch: Vec<i64> = Vec::new();
                let mut row_exp: Option<i32> = None;
                for stage in request.plan.stages() {
                    match stage {
                        PlanStage::Lookup(key) => {
                            let ti = self.resolve(*key).expect("plan table resident");
                            self.tables[ti].1.eval_into(&cur, &mut scratch);
                            std::mem::swap(&mut cur, &mut scratch);
                        }
                        PlanStage::MaxSubtract => row_max_subtract(&mut cur, format),
                        PlanStage::SumRangeReduce => {
                            latch.clear();
                            latch.extend(cur.iter().map(|x| x.raw()));
                            let red = row_sum_range_reduce(&cur, format);
                            let m_raw = red.map_or(format.scale(), |(m, _)| m);
                            let m = Fixed::from_raw_saturating(m_raw, format);
                            cur.iter_mut().for_each(|x| *x = m);
                            row_exp = red.map(|(_, e)| e);
                        }
                        PlanStage::RangeScale => match row_exp {
                            Some(e) => {
                                for (k, x) in cur.iter_mut().enumerate() {
                                    *x = range_scale_lane(latch[k], *x, e, format);
                                }
                            }
                            None if cur.is_empty() => {}
                            None => {
                                let n = cur.len();
                                let uniform = Fixed::from_f64(1.0 / n as f64, format, rounding);
                                cur.iter_mut().for_each(|x| *x = uniform);
                            }
                        },
                    }
                }
                cur
            })
            .collect()
    }
}

impl Drop for ServingEngine {
    fn drop(&mut self) {
        // Close the feed rings so worker loops exit (they first drain —
        // and serve — any queued units; the completion pushes fit by the
        // outstanding-cap invariant), then reap the threads so none
        // outlives its engine. Units still pending in the engine are
        // simply dropped.
        self.shutdown_pool();
    }
}

/// Gathers per-request outputs into per-stream result vectors,
/// concatenated in arrival order — the "scatter back per stream" view of
/// a [`ServingEngine::serve`] result.
///
/// # Panics
///
/// Panics if `outputs` is not aligned with `requests` (wrong length).
#[must_use]
pub fn gather_by_stream(
    requests: &[ServingRequest],
    outputs: &[Vec<Fixed>],
) -> HashMap<usize, Vec<Fixed>> {
    assert_eq!(
        requests.len(),
        outputs.len(),
        "outputs must align with requests"
    );
    let mut streams: HashMap<usize, Vec<Fixed>> = HashMap::new();
    for (request, out) in requests.iter().zip(outputs) {
        streams.entry(request.stream).or_default().extend(out);
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_approx::ApproxError;
    use nova_fixed::rng::StdRng;
    use nova_fixed::FixedError;

    fn fixed(x: f64) -> Fixed {
        Fixed::from_f64(x, Q4_12, Rounding::NearestEven)
    }

    fn gelu_key() -> TableKey {
        TableKey::paper(Activation::Gelu)
    }

    fn exp_key() -> TableKey {
        TableKey::paper(Activation::Exp)
    }

    /// Odd-sized per-stream bursts so batches never align with request
    /// boundaries. All tagged with the paper GELU table.
    fn requests(streams: usize, queries_per_stream: usize, seed: u64) -> Vec<ServingRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..streams)
            .map(|stream| ServingRequest {
                stream,
                plan: gelu_key().into(),
                inputs: (0..queries_per_stream)
                    .map(|_| fixed(rng.gen_range(-6.0..6.0)))
                    .collect(),
            })
            .collect()
    }

    /// Mixed-tenancy slate: even streams hit GELU, odd streams hit the
    /// softmax-exp table, interleaved in arrival order.
    fn mixed_requests(streams: usize, queries_per_stream: usize, seed: u64) -> Vec<ServingRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..streams)
            .map(|stream| ServingRequest {
                stream,
                plan: if stream % 2 == 0 {
                    gelu_key().into()
                } else {
                    exp_key().into()
                },
                inputs: (0..queries_per_stream)
                    .map(|_| fixed(rng.gen_range(-6.0..6.0)))
                    .collect(),
            })
            .collect()
    }

    fn engine(kind: ApproximatorKind, routers: usize, neurons: usize) -> ServingEngine {
        engine_with_workers(kind, routers, neurons, 1)
    }

    fn engine_with_workers(
        kind: ApproximatorKind,
        routers: usize,
        neurons: usize,
        workers: usize,
    ) -> ServingEngine {
        ServingEngine::builder(kind)
            .line(LineConfig::paper_default(routers, neurons))
            .table(gelu_key())
            .shards(workers)
            .build()
            .unwrap()
    }

    fn mixed_engine(
        kind: ApproximatorKind,
        routers: usize,
        neurons: usize,
        workers: usize,
        cache: &TableCache,
    ) -> ServingEngine {
        ServingEngine::builder(kind)
            .line(LineConfig::paper_default(routers, neurons))
            .cache(cache)
            .tables([gelu_key(), exp_key()])
            .shards(workers)
            .build()
            .unwrap()
    }

    #[test]
    fn cache_hits_return_the_same_arc() {
        let cache = TableCache::new();
        let key = gelu_key();
        let a = cache.get_or_fit(key).unwrap();
        let b = cache.get_or_fit(key).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the allocation");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));

        // A different key is a different table.
        let c = cache.get_or_fit(exp_key()).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));

        // Any key component change misses: same activation, other format.
        let other = TableKey {
            rounding: Rounding::Floor,
            ..key
        };
        let d = cache.get_or_fit(other).unwrap();
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.lost_races(), 0, "no concurrency, no races");
    }

    #[test]
    fn cache_clones_share_one_store_across_threads() {
        // The interior-mutability contract: clones are handles onto one
        // store, `get_or_fit` needs only `&self`, and concurrent fitters
        // of the same key converge on a single Arc. With threads racing,
        // every fit beyond the winner's is either a read hit or a lost
        // race — never a second inserted table.
        let cache = TableCache::new();
        let key = gelu_key();
        let fitters = 4;
        let tables: Vec<Arc<QuantizedPwl>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..fitters)
                .map(|_| {
                    let cache = cache.clone();
                    scope.spawn(move || cache.get_or_fit(key).unwrap())
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for table in &tables {
            assert!(
                Arc::ptr_eq(&tables[0], table),
                "all threads must share one allocation"
            );
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1, "exactly one fit won the insert");
        assert_eq!(
            cache.hits() + cache.misses() + cache.lost_races(),
            fitters as u64,
            "every call accounted exactly once"
        );
    }

    #[test]
    fn cache_default_and_engine_debug_render() {
        // Satellite: `TableCache` is `Default`-constructible and
        // `ServingEngine` renders a useful `Debug` for error messages.
        let cache = TableCache::default();
        assert!(cache.is_empty());
        let eng = engine(ApproximatorKind::NovaNoc, 2, 4);
        let dbg = format!("{eng:?}");
        assert!(
            dbg.contains("ServingEngine")
                && dbg.contains("NovaNoc")
                && dbg.contains("tables")
                && dbg.contains("in_flight"),
            "{dbg}"
        );
    }

    #[test]
    fn cache_and_builder_debug_print_table_sizes_not_contents() {
        // A failing assert_eq! on a cache, or on a builder holding one,
        // must not flood the log with each table's derived output words.
        let cache = TableCache::new();
        cache.get_or_fit(gelu_key()).unwrap();
        cache.get_or_fit(exp_key()).unwrap();
        let builder = ServingEngine::builder(ApproximatorKind::NovaNoc).cache(&cache);
        for dbg in [format!("{cache:?}"), format!("{builder:?}")] {
            assert!(dbg.len() < 16 * 1024, "{} bytes", dbg.len());
            assert_eq!(dbg.matches("output_entries").count(), 2, "{dbg}");
        }
    }

    #[test]
    fn builder_validates_tables_geometry_and_shards() {
        assert!(matches!(
            ServingEngine::builder(ApproximatorKind::NovaNoc)
                .line(LineConfig::paper_default(2, 4))
                .build(),
            Err(NovaError::BatchShape(_))
        ));
        assert!(matches!(
            ServingEngine::builder(ApproximatorKind::NovaNoc)
                .table(gelu_key())
                .build(),
            Err(NovaError::BatchShape(_))
        ));
        assert!(matches!(
            ServingEngine::builder(ApproximatorKind::NovaNoc)
                .line(LineConfig::paper_default(2, 4))
                .table(gelu_key())
                .shards(0)
                .build(),
            Err(NovaError::BatchShape(_))
        ));
        // Duplicate keys collapse onto one resident table.
        let eng = ServingEngine::builder(ApproximatorKind::PerCoreLut)
            .line(LineConfig::paper_default(2, 4))
            .tables([gelu_key(), gelu_key(), exp_key()])
            .build()
            .unwrap();
        assert_eq!(eng.tables().len(), 2);
        assert_eq!(eng.config().tables, vec![gelu_key(), exp_key()]);
        assert_eq!(eng.config().shards, 1);
        // A table wider than the 16-bit word is refused on every kind.
        let wide = TableKey {
            format: QFormat::new(24, 20).unwrap(),
            ..gelu_key()
        };
        for kind in ApproximatorKind::all() {
            let built = ServingEngine::builder(kind)
                .line(LineConfig::paper_default(2, 4))
                .table(wide)
                .build();
            assert!(
                matches!(
                    &built,
                    Err(NovaError::Approx(ApproxError::Fixed(
                        FixedError::InvalidFormat {
                            total_bits: 24,
                            frac_bits: 20
                        }
                    )))
                ),
                "{}: {:?}",
                kind.label(),
                built.err()
            );
        }
    }

    #[test]
    fn builder_rejects_tables_the_hardware_cannot_switch_to() {
        // A 32-segment table needs more flits than the paper link's tag
        // space addresses: registering it on a NOVA engine must fail at
        // build time (the up-front-rejection contract), not poison a
        // slate mid-serve. LUT hardware has no broadcast line and must
        // keep accepting the same pair of tables.
        let cache = TableCache::new();
        let big = TableKey {
            breakpoints: 32,
            ..gelu_key()
        };
        let build = |kind| {
            ServingEngine::builder(kind)
                .line(LineConfig::paper_default(2, 4))
                .cache(&cache)
                .tables([gelu_key(), big])
                .build()
        };
        let err = build(ApproximatorKind::NovaNoc).unwrap_err();
        assert!(
            matches!(&err, NovaError::Runtime(msg) if msg.contains("cannot be served")),
            "{err:?}"
        );
        assert!(build(ApproximatorKind::PerCoreLut).is_ok());
    }

    #[test]
    fn builder_shares_cached_tables_across_engines() {
        let tech = TechModel::cmos22();
        let host = AcceleratorConfig::tpu_v4_like();
        let cache = TableCache::new();
        let a = ServingEngine::builder(ApproximatorKind::NovaNoc)
            .host(&tech, &host)
            .cache(&cache)
            .table(gelu_key())
            .build()
            .unwrap();
        let b = ServingEngine::builder(ApproximatorKind::PerCoreLut)
            .host(&tech, &host)
            .cache(&cache)
            .table(gelu_key())
            .build()
            .unwrap();
        assert_eq!(cache.misses(), 1, "second engine reuses the fit");
        assert_eq!(cache.hits(), 1);
        assert_eq!(a.capacity(), host.total_neurons());
        assert_eq!(b.capacity(), host.total_neurons());
        assert!(Arc::ptr_eq(&a.tables()[0].1, &b.tables()[0].1));
    }

    #[test]
    fn tagged_requests_migrate_to_one_stage_plans() {
        // The migration contract: a bare `TableKey` converts into the
        // trivial one-stage plan, so PR-5-era tagged callers move
        // mechanically (`key` → `key.into()`) and serve bit-identically
        // to an explicit `Plan::lookup`.
        let cache = TableCache::new();
        let table = cache.get_or_fit(gelu_key()).unwrap();
        let mut eng = ServingEngine::builder(ApproximatorKind::PerCoreLut)
            .line(LineConfig::paper_default(2, 4))
            .cache(&cache)
            .table(gelu_key())
            .build()
            .unwrap();
        let x = fixed(0.5);
        let tagged = vec![ServingRequest::new(0, gelu_key(), vec![x; 3])];
        let explicit = vec![ServingRequest::new(0, Plan::lookup(gelu_key()), vec![x; 3])];
        assert_eq!(tagged[0].plan, explicit[0].plan);
        assert_eq!(tagged[0].plan.single_lookup(), Some(gelu_key()));
        let outputs = eng.serve(&tagged).unwrap();
        assert_eq!(outputs, eng.serve(&explicit).unwrap());
        assert_eq!(outputs[0][0], table.eval(x));
        assert_eq!(eng.stats().table_switches, 0, "one table, no switches");
    }

    #[test]
    fn multi_stream_results_bit_identical_to_table_eval() {
        // The acceptance criterion: scatter/gather through coalesced
        // multi-tenant batches must equal a dedicated per-query eval.
        for kind in ApproximatorKind::all() {
            let mut eng = engine(kind, 4, 8);
            let reqs = requests(8, 37, 1);
            let outputs = eng.serve(&reqs).unwrap();
            for (request, out) in reqs.iter().zip(&outputs) {
                assert_eq!(out.len(), request.inputs.len());
                for (&x, &y) in request.inputs.iter().zip(out) {
                    assert_eq!(y, eng.table().eval(x), "{kind:?} stream {}", request.stream);
                }
            }
        }
    }

    #[test]
    fn multi_stream_matches_single_stream_serving() {
        // Serving all streams together must be bit-identical to serving
        // each stream through its own engine.
        let reqs = requests(6, 53, 2);
        let mut shared = engine(ApproximatorKind::NovaNoc, 4, 8);
        let together = shared.serve(&reqs).unwrap();
        for (i, request) in reqs.iter().enumerate() {
            let mut solo = engine(ApproximatorKind::NovaNoc, 4, 8);
            let alone = solo.serve(std::slice::from_ref(request)).unwrap();
            assert_eq!(together[i], alone[0], "stream {}", request.stream);
        }
    }

    #[test]
    fn parallel_serve_bit_identical_across_worker_counts() {
        // The tentpole determinism property, seeded and property-style:
        // for every approximator kind, worker count, shard geometry and
        // ragged tail shape, the threaded pool's output must be
        // bit-identical to the sequential reference (and therefore to
        // every other worker count). Ragged tails are guaranteed by
        // query counts that are coprime to the batch capacities.
        for (seed, (routers, neurons)) in [(11u64, (4usize, 8usize)), (12, (3, 5))] {
            for kind in ApproximatorKind::all() {
                for queries_per_stream in [1usize, 7, 61] {
                    let reqs = requests(5, queries_per_stream, seed);
                    let reference = engine(kind, routers, neurons).serve_reference(&reqs);
                    for workers in [1usize, 2, 4] {
                        let mut eng = engine_with_workers(kind, routers, neurons, workers);
                        let outputs = eng.serve(&reqs).unwrap();
                        assert_eq!(
                            outputs, reference,
                            "{kind:?} diverged: {workers} workers, \
                             {routers}x{neurons} grid, {queries_per_stream} q/stream"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_activation_serving_bit_identical_and_charges_switch_stalls() {
        // The PR 5 acceptance criterion: mixed GELU+exp tenancy is
        // bit-identical to the multi-table reference across worker
        // counts {1,2,4} × all four kinds, and the reported makespan
        // grows by the table-switch stalls for LUT/SDP hardware while
        // staying unchanged (switches are free) for the NOVA NoC.
        let cache = TableCache::new();
        for kind in ApproximatorKind::all() {
            // 4 streams × 21 queries on a 2×4 grid: 6 GELU + 6 exp
            // batches, so every worker serves both activations.
            let reqs = mixed_requests(4, 21, 7);
            let reference = mixed_engine(kind, 2, 4, 1, &cache).serve_reference(&reqs);
            for workers in [1usize, 2, 4] {
                let mut eng = mixed_engine(kind, 2, 4, workers, &cache);
                let outputs = eng.serve(&reqs).unwrap();
                assert_eq!(outputs, reference, "{kind:?} diverged at {workers} workers");
                let stats = eng.stats();
                assert!(stats.table_switches > 0, "{kind:?}: no switch happened");
                let busiest_batch_cycles =
                    eng.worker_loads().iter().map(|l| l.cycles).max().unwrap();
                if kind == ApproximatorKind::NovaNoc {
                    assert_eq!(stats.switch_cycles, 0, "NOVA re-programs for free");
                    assert_eq!(
                        eng.makespan_cycles(),
                        busiest_batch_cycles,
                        "NOVA makespan must not grow under mixed tenancy"
                    );
                } else {
                    assert!(stats.switch_cycles > 0, "{kind:?} must pay bank rewrites");
                    assert!(
                        eng.makespan_cycles() > busiest_batch_cycles,
                        "{kind:?} makespan must include switch stalls"
                    );
                }
                // The switch ledger is consistent between views.
                assert_eq!(
                    stats.table_switches,
                    eng.worker_loads()
                        .iter()
                        .map(|l| l.table_switches)
                        .sum::<u64>()
                );
                assert_eq!(
                    stats.switch_cycles,
                    eng.worker_loads()
                        .iter()
                        .map(|l| l.switch_cycles)
                        .sum::<u64>()
                );
            }
        }
    }

    #[test]
    fn per_activation_runs_minimize_switches() {
        // Admission coalesces per-activation runs: a 1-worker engine
        // serving an interleaved GELU/exp slate must switch at most
        // (activations per serve call) times, not once per request.
        let cache = TableCache::new();
        let mut eng = mixed_engine(ApproximatorKind::PerCoreLut, 2, 4, 1, &cache);
        let reqs = mixed_requests(8, 9, 13); // interleaved tags in arrival order
        eng.serve(&reqs).unwrap();
        // GELU run first (worker pre-programmed with it), then one
        // switch into the exp run.
        assert_eq!(eng.stats().table_switches, 1);
        // Serving again switches back to GELU and into exp once more.
        eng.serve(&reqs).unwrap();
        assert_eq!(eng.stats().table_switches, 3);
    }

    #[test]
    fn non_resident_activation_is_rejected_before_dispatch() {
        let mut eng = engine(ApproximatorKind::PerCoreLut, 2, 4);
        let bad = vec![
            ServingRequest::new(0, gelu_key(), vec![fixed(0.1); 3]),
            ServingRequest::new(1, TableKey::paper(Activation::Tanh), vec![fixed(0.2); 3]),
        ];
        assert!(matches!(eng.serve(&bad), Err(NovaError::Runtime(_))));
        assert_eq!(eng.stats(), ServingStats::default(), "nothing dispatched");
        assert_eq!(eng.buffer_pool_len(), 0, "no buffer moved");
        assert_eq!(eng.in_flight(), 0, "no ticket admitted");
        assert!(eng.table_for(TableKey::paper(Activation::Tanh)).is_none());
        // The engine still serves well-tagged slates afterwards.
        assert_eq!(eng.serve(&bad[..1]).unwrap()[0].len(), 3);
    }

    #[test]
    fn session_tickets_overlap_and_match_the_reference() {
        let cache = TableCache::new();
        let mut eng = mixed_engine(ApproximatorKind::PerCoreLut, 2, 4, 2, &cache);
        let slate_a = mixed_requests(3, 17, 41);
        let slate_b = requests(2, 23, 42);
        let ref_a = eng.serve_reference(&slate_a);
        let ref_b = eng.serve_reference(&slate_b);
        let ticket_a = eng.submit(&slate_a).unwrap();
        let ticket_b = eng.submit(&slate_b).unwrap();
        assert_ne!(ticket_a, ticket_b);
        assert_eq!(eng.in_flight(), 2);
        // Collect out of submit order: poll B first.
        let out_b = loop {
            if let Some(out) = eng.try_poll(ticket_b).unwrap() {
                break out;
            }
        };
        assert_eq!(out_b, ref_b);
        // Drain what's left — exactly ticket A, in submit order.
        let drained = eng.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, ticket_a);
        assert_eq!(drained[0].1.as_ref().unwrap(), &ref_a);
        assert_eq!(eng.in_flight(), 0);
        // A collected ticket cannot be redeemed twice.
        assert!(eng.try_poll(ticket_b).is_err());
        // Single-ticket blocking wait: parks on completions (no
        // spinning) and is consumed exactly once.
        let ticket_c = eng.submit(&slate_b).unwrap();
        assert_eq!(eng.wait(ticket_c).unwrap(), ref_b);
        assert!(eng.wait(ticket_c).is_err(), "already collected");
        // The blocking wrapper shares the same plane and counters.
        assert_eq!(eng.serve(&slate_a).unwrap(), ref_a);
        assert_eq!(
            eng.stats().requests,
            (slate_a.len() * 2 + slate_b.len() * 2) as u64
        );
    }

    #[test]
    fn empty_submissions_complete_immediately() {
        let mut eng = engine(ApproximatorKind::NovaNoc, 2, 4);
        let ticket = eng.submit(&[]).unwrap();
        assert_eq!(eng.try_poll(ticket).unwrap(), Some(Vec::new()));
        // A zero-query (but non-empty) slate also completes at once and
        // aligns its outputs with the requests.
        let hollow = vec![ServingRequest::new(3, gelu_key(), Vec::new())];
        let ticket = eng.submit(&hollow).unwrap();
        assert_eq!(eng.try_poll(ticket).unwrap(), Some(vec![Vec::new()]));
        assert_eq!(eng.stats().batches, 0);
        assert_eq!(eng.stats().requests, 1);
    }

    #[test]
    fn tail_padding_never_leaks_into_outputs() {
        let mut eng = engine(ApproximatorKind::PerCoreLut, 4, 8);
        let capacity = eng.capacity();
        // 3 streams × 11 queries = 33 queries over 32-slot batches:
        // 2 batches, 31 padded slots.
        let reqs = requests(3, 11, 3);
        let outputs = eng.serve(&reqs).unwrap();
        let produced: usize = outputs.iter().map(Vec::len).sum();
        assert_eq!(produced, 33, "every query answered, nothing extra");
        let stats = eng.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.queries, 33);
        assert_eq!(stats.padded_slots, 2 * capacity as u64 - 33);
        // And the per-stream gather sees exactly each stream's volume.
        let by_stream = gather_by_stream(&reqs, &outputs);
        assert_eq!(by_stream.len(), 3);
        assert!(by_stream.values().all(|v| v.len() == 11));
    }

    #[test]
    fn coalescing_amortizes_vs_per_request_dispatch() {
        // 8 streams of small bursts: coalesced dispatch must beat one
        // batch per request (the naive single-tenant pattern) on both
        // occupancy and aggregate throughput.
        let reqs = requests(8, 10, 4);
        let mut coalesced = engine(ApproximatorKind::NovaNoc, 5, 8);
        coalesced.serve(&reqs).unwrap();
        let mut naive = engine(ApproximatorKind::NovaNoc, 5, 8);
        for request in &reqs {
            naive.serve(std::slice::from_ref(request)).unwrap();
        }
        assert_eq!(coalesced.stats().queries, naive.stats().queries);
        assert!(coalesced.stats().batches < naive.stats().batches);
        assert!(
            coalesced.occupancy_pct() > 90.0,
            "{}",
            coalesced.occupancy_pct()
        );
        assert!(coalesced.queries_per_second(1.0) > naive.queries_per_second(1.0));
    }

    #[test]
    fn sharded_pool_is_functionally_invisible() {
        let cache = TableCache::new();
        let reqs = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..5)
                .map(|stream| ServingRequest {
                    stream,
                    plan: exp_key().into(),
                    inputs: (0..29).map(|_| fixed(rng.gen_range(-6.0..6.0))).collect(),
                })
                .collect::<Vec<_>>()
        };
        let build = |workers| {
            ServingEngine::builder(ApproximatorKind::PerNeuronLut)
                .line(LineConfig::paper_default(4, 8))
                .cache(&cache)
                .table(exp_key())
                .shards(workers)
                .build()
                .unwrap()
        };
        let mut one = build(1);
        let mut four = build(4);
        assert_eq!(four.shards(), 4);
        assert_eq!(one.serve(&reqs).unwrap(), four.serve(&reqs).unwrap());
        // ...but throughput-visible: 5×29 = 145 queries over 32-slot
        // batches is 5 batches, spread 2/1/1/1 over 4 round-robin
        // shards, so the pool's makespan is 2 batches vs 5 serially.
        assert_eq!(one.stats().batches, 5);
        assert_eq!(one.makespan_cycles(), one.stats().latency_cycles);
        assert_eq!(four.makespan_cycles(), 2 * one.makespan_cycles() / 5);
        assert!(four.queries_per_second(1.0) > 2.0 * one.queries_per_second(1.0));
    }

    #[test]
    fn worker_loads_aggregate_to_engine_stats() {
        // Aggregate stats are *derived from* per-worker counters, and
        // round-robin admission spreads batches across every shard.
        let mut eng = engine_with_workers(ApproximatorKind::PerCoreLut, 4, 8, 3);
        // 7 batches over 3 workers: 3/2/2.
        let reqs = requests(7, 32, 8);
        eng.serve(&reqs).unwrap();
        let loads = eng.worker_loads().to_vec();
        assert_eq!(loads.len(), 3);
        assert!(loads.iter().all(|l| l.batches > 0), "{loads:?}");
        let stats = eng.stats();
        assert_eq!(stats.batches, loads.iter().map(|l| l.batches).sum::<u64>());
        assert_eq!(stats.queries, loads.iter().map(|l| l.queries).sum::<u64>());
        assert_eq!(
            stats.latency_cycles,
            loads.iter().map(|l| l.cycles).sum::<u64>()
        );
        assert_eq!(
            eng.makespan_cycles(),
            loads
                .iter()
                .map(|l| l.cycles + l.switch_cycles)
                .max()
                .unwrap()
        );
    }

    #[test]
    fn round_robin_cursor_persists_across_serve_calls() {
        // Regression: the low-load steady state — repeated slates that
        // each fit in one batch — must still spread over every shard,
        // not land on worker 0 forever.
        let mut eng = engine_with_workers(ApproximatorKind::PerCoreLut, 2, 4, 3);
        for _ in 0..6 {
            eng.serve(&requests(1, 5, 10)).unwrap(); // 5 queries = 1 batch
        }
        let loads = eng.worker_loads();
        assert!(
            loads.iter().all(|l| l.batches == 2),
            "6 single-batch slates over 3 shards must spread 2/2/2: {loads:?}"
        );
    }

    #[test]
    fn backpressure_survives_slates_far_deeper_than_the_feed_channels() {
        // A slate hundreds of batches deep forces admission to block on
        // the bounded feeds many times over; everything must still come
        // back in order and bit-identical.
        let mut eng = engine_with_workers(ApproximatorKind::PerCoreLut, 2, 4, 2);
        let reqs = requests(4, 1000, 9); // 4000 queries / 8-slot batches = 500 batches
        let outputs = eng.serve(&reqs).unwrap();
        assert_eq!(outputs, eng.serve_reference(&reqs));
        assert_eq!(eng.stats().batches, 500);
    }

    #[test]
    fn mid_slate_error_leaves_stats_consistent() {
        // A format-mismatched request fails in the worker; the counters
        // must reflect exactly the batches that evaluated successfully —
        // queries included — so occupancy/throughput accounting never
        // skews, and the same error must surface for any worker count.
        use nova_fixed::Q8_8;
        for workers in [1usize, 3] {
            let mut eng = engine_with_workers(ApproximatorKind::PerCoreLut, 4, 8, workers);
            let capacity = eng.capacity() as u64;
            let good = requests(2, 40, 6); // 80 queries = 2.5 batches
            let mut bad = good.clone();
            bad.push(ServingRequest {
                stream: 9,
                plan: gelu_key().into(),
                inputs: vec![Fixed::from_f64(0.5, Q8_8, Rounding::NearestEven)],
            });
            assert!(eng.serve(&bad).is_err());
            let stats = eng.stats();
            // The first two full batches evaluated; the tail batch
            // holding the mismatched word failed and is not counted
            // anywhere, and no request of the failed slate counts as
            // served.
            assert_eq!(stats.requests, 0, "{workers} workers");
            assert_eq!(stats.batches, 2);
            assert_eq!(stats.queries, 2 * capacity);
            assert_eq!(stats.padded_slots, 0);
            assert!((eng.occupancy_pct() - 100.0).abs() < 1e-12);
            // And the engine keeps serving correctly afterwards.
            let outputs = eng.serve(&good).unwrap();
            assert_eq!(outputs.iter().map(Vec::len).sum::<usize>(), 80);
            assert_eq!(eng.stats().requests, 2);
        }
    }

    #[test]
    fn steady_state_serving_is_allocation_free() {
        // The PR 4 acceptance criterion, asserted as a capacity-
        // stability test: after the first slate warms the recycling pool,
        // repeated slates of the same depth mint no new buffer pairs and
        // never grow a recycled buffer's capacity — i.e. the per-batch
        // hot path touches the allocator zero times. Still true through
        // the session-based submit/wait plane.
        let mut eng = engine_with_workers(ApproximatorKind::PerCoreLut, 4, 8, 2);
        let reqs = requests(6, 37, 21); // 222 queries / 32-slot grid = 7 batches
        let reference = eng.serve_reference(&reqs);
        assert_eq!(eng.serve(&reqs).unwrap(), reference);
        let minted = eng.buffers_created();
        let pool = eng.buffer_pool_len();
        assert_eq!(minted, pool as u64, "every minted pair returns to the pool");
        assert!(minted >= 1);
        for _ in 0..5 {
            assert_eq!(eng.serve(&reqs).unwrap(), reference);
            assert_eq!(
                eng.buffers_created(),
                minted,
                "steady state must not mint buffers"
            );
            assert_eq!(eng.buffer_pool_len(), pool);
        }
        // A shallower slate reuses the same pool; a failed slate returns
        // its buffers too.
        assert_eq!(eng.serve(&requests(1, 5, 22)).unwrap().len(), 1);
        assert_eq!(eng.buffers_created(), minted);
        use nova_fixed::Q8_8;
        let mut bad = requests(1, 5, 23);
        bad[0].inputs[0] = Fixed::from_f64(0.5, Q8_8, Rounding::NearestEven);
        assert!(eng.serve(&bad).is_err());
        assert_eq!(
            eng.buffers_created(),
            minted,
            "errors must not leak buffers"
        );
        assert_eq!(eng.buffer_pool_len(), pool);
    }

    #[test]
    fn zero_batch_state_reports_zeros_not_nan() {
        // Regression: before the first `serve` call every rate/occupancy
        // accessor must return a plain 0 — never NaN, infinity or
        // garbage from a 0/0.
        let eng = engine_with_workers(ApproximatorKind::NovaNoc, 2, 4, 2);
        assert_eq!(eng.stats(), ServingStats::default());
        assert_eq!(eng.occupancy_pct(), 0.0);
        assert_eq!(eng.makespan_cycles(), 0);
        assert_eq!(eng.queries_per_second(1.0), 0.0);
        assert!(eng.occupancy_pct().is_finite());
        assert!(eng.queries_per_second(1.0).is_finite());
        // An empty slate must not disturb that.
        let mut eng = eng;
        eng.serve(&[]).unwrap();
        assert_eq!(eng.occupancy_pct(), 0.0);
        assert_eq!(eng.queries_per_second(1.0), 0.0);
    }

    #[test]
    fn dropping_an_engine_with_jobs_in_flight_joins_cleanly() {
        // Satellite: shutdown with work still queued (in the bounded
        // feeds *and* in the engine-side pending queue) must hang up the
        // feeds, let the workers drain and exit, and join them — no
        // deadlock, no panic.
        let mut eng = engine_with_workers(ApproximatorKind::PerCoreLut, 2, 4, 2);
        let reqs = requests(4, 500, 17); // 250 batches, mostly still pending
        let ticket = eng.submit(&reqs).unwrap();
        assert!(eng.in_flight() > 0);
        let _ = ticket;
        drop(eng);
    }

    /// A deliberately broken unit for the worker-panic test.
    struct PanickingUnit;

    impl VectorUnit for PanickingUnit {
        fn name(&self) -> &str {
            "panicking"
        }

        fn lookup_batch_into(
            &mut self,
            _inputs: &FixedBatch,
            _out: &mut FixedBatch,
        ) -> Result<(), NovaError> {
            panic!("injected unit failure")
        }

        fn switch_table(&mut self, _table: &QuantizedPwl) -> Result<u64, NovaError> {
            Ok(0)
        }

        fn latency_cycles(&self) -> u64 {
            0
        }

        fn lookups(&self) -> u64 {
            0
        }
    }

    #[test]
    fn worker_panic_surfaces_as_runtime_error_not_a_hang() {
        // Satellite: a panicking unit must not kill the worker thread or
        // hang the reorder stage — the panic is caught in the worker
        // loop and comes back as `NovaError::Runtime`.
        let cache = TableCache::new();
        let key = gelu_key();
        let table = cache.get_or_fit(key).unwrap();
        let config = ServingConfig {
            kind: ApproximatorKind::PerCoreLut,
            line: LineConfig::paper_default(2, 4),
            shards: 2,
            tables: vec![key],
        };
        let units: Vec<Box<dyn VectorUnit>> =
            vec![Box::new(PanickingUnit), Box::new(PanickingUnit)];
        let mut eng = ServingEngine::from_units(config, vec![(key, table)], None, units).unwrap();
        let err = eng.serve(&requests(2, 10, 30)).unwrap_err();
        assert!(
            matches!(&err, NovaError::Runtime(msg) if msg.contains("panicked")),
            "{err:?}"
        );
        assert_eq!(eng.stats().batches, 0, "panicked batches count nothing");
        // The pool survived the panic: the engine still answers (with
        // the same per-batch error), it does not hang or poison.
        assert!(eng.serve(&requests(1, 3, 31)).is_err());
        assert!(eng.in_flight() == 0);
    }

    #[test]
    fn zero_shards_rejected_and_empty_slates_are_free() {
        let line = LineConfig::paper_default(2, 4);
        assert!(matches!(
            ServingEngine::builder(ApproximatorKind::NovaNoc)
                .line(line)
                .table(gelu_key())
                .shards(0)
                .build(),
            Err(NovaError::BatchShape(_))
        ));
        let mut eng = ServingEngine::builder(ApproximatorKind::NovaNoc)
            .line(line)
            .table(gelu_key())
            .build()
            .unwrap();
        let outputs = eng.serve(&[]).unwrap();
        assert!(outputs.is_empty());
        assert_eq!(eng.stats().batches, 0);
    }

    fn softmax_plan() -> Plan {
        Plan::fused_softmax(Q4_12, Rounding::NearestEven)
    }

    /// Ragged attention-style slate: one fused-softmax row per request,
    /// each with its own width.
    fn fused_requests(widths: &[usize], seed: u64) -> Vec<ServingRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        widths
            .iter()
            .enumerate()
            .map(|(stream, &w)| {
                ServingRequest::new(
                    stream,
                    softmax_plan(),
                    (0..w).map(|_| fixed(rng.gen_range(-4.0..4.0))).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn fused_softmax_bit_identical_across_kinds_and_workers() {
        // The tentpole acceptance gate in miniature: a fused
        // exp → reduce → recip → scale plan served through the pool is
        // bit-identical to the sequential op-graph interpreter for every
        // approximator kind × worker count, rows stay whole across
        // batches, empty rows ride along, and the fused steady state
        // mints no buffers.
        let cache = TableCache::new();
        let plan = softmax_plan();
        // Capacity is 8 (2×4): widths share batches, fill one exactly,
        // and include an empty row.
        let widths = [7usize, 3, 8, 1, 0, 5, 8, 2, 6, 4];
        let reqs = fused_requests(&widths, 0xF05);
        for kind in ApproximatorKind::all() {
            for workers in [1usize, 2, 4] {
                let mut eng = ServingEngine::builder(kind)
                    .line(LineConfig::paper_default(2, 4))
                    .cache(&cache)
                    .plan(&plan)
                    .shards(workers)
                    .build()
                    .unwrap();
                let label = format!("{} w={workers}", kind.label());
                let reference = eng.serve_reference(&reqs);
                assert_eq!(eng.serve(&reqs).unwrap(), reference, "{label}");
                let minted = eng.buffers_created();
                assert_eq!(eng.serve(&reqs).unwrap(), reference, "{label}");
                assert_eq!(
                    eng.buffers_created(),
                    minted,
                    "fused steady state minted buffers: {label}"
                );
                // Sanity beyond bit-identity: every non-empty row is a
                // probability vector (within PWL + fixed-point noise).
                for (out, &w) in reference.iter().zip(&widths) {
                    assert_eq!(out.len(), w, "{label}");
                    if w == 0 {
                        continue;
                    }
                    let sum: f64 = out.iter().map(|x| x.to_f64()).sum();
                    assert!(
                        (sum - 1.0).abs() < 0.1,
                        "{label}: width-{w} row sums to {sum}"
                    );
                    assert!(out.iter().all(|x| x.to_f64() >= 0.0), "{label}");
                }
            }
        }
    }

    #[test]
    fn mixed_single_and_fused_slates_serve_together() {
        // Plans group independently in arrival order: a slate mixing
        // plain GELU lookups with fused softmax rows serves
        // bit-identically to the reference, on one worker and several.
        let cache = TableCache::new();
        let plan = softmax_plan();
        let mut rng = StdRng::seed_from_u64(0x50F7);
        let mut reqs = Vec::new();
        for stream in 0..6 {
            if stream % 2 == 0 {
                reqs.push(ServingRequest::new(
                    stream,
                    gelu_key(),
                    (0..13).map(|_| fixed(rng.gen_range(-6.0..6.0))).collect(),
                ));
            } else {
                reqs.push(ServingRequest::new(
                    stream,
                    plan.clone(),
                    (0..5).map(|_| fixed(rng.gen_range(-4.0..4.0))).collect(),
                ));
            }
        }
        for workers in [1usize, 3] {
            let mut eng = ServingEngine::builder(ApproximatorKind::NovaNoc)
                .line(LineConfig::paper_default(2, 4))
                .cache(&cache)
                .table(gelu_key())
                .plan(&plan)
                .shards(workers)
                .build()
                .unwrap();
            let reference = eng.serve_reference(&reqs);
            assert_eq!(eng.serve(&reqs).unwrap(), reference, "{workers} workers");
        }
    }

    #[test]
    fn fused_plan_switch_ledger_nova_free_baselines_paying() {
        // The headline economics: every fused batch re-programs the unit
        // twice (exp, then recip) except the boot batch whose exp table
        // is already loaded — free on the NOVA NoC, strictly positive
        // stall cycles on the LUT banks and the SDP.
        let cache = TableCache::new();
        let plan = softmax_plan();
        let reqs = fused_requests(&[7, 5, 8, 3, 6, 2], 0xAB);
        let mut stalls = Vec::new();
        for kind in ApproximatorKind::all() {
            let mut eng = ServingEngine::builder(kind)
                .line(LineConfig::paper_default(2, 4))
                .cache(&cache)
                .plan(&plan)
                .build()
                .unwrap();
            eng.serve(&reqs).unwrap();
            let stats = eng.stats();
            assert!(stats.batches > 1, "{}", kind.label());
            assert_eq!(
                stats.table_switches,
                2 * stats.batches - 1,
                "{}: two lookups per batch, boot table preloaded",
                kind.label()
            );
            stalls.push((kind, stats.switch_cycles));
        }
        for (kind, cycles) in stalls {
            if kind == ApproximatorKind::NovaNoc {
                assert_eq!(cycles, 0, "NOVA switches are free");
            } else {
                assert!(cycles > 0, "{} switches must stall", kind.label());
            }
        }
    }

    #[test]
    fn malformed_plans_and_oversized_fused_rows_rejected_up_front() {
        use nova_fixed::Q8_8;
        let cache = TableCache::new();
        let plan = softmax_plan();
        let mut eng = ServingEngine::builder(ApproximatorKind::NovaNoc)
            .line(LineConfig::paper_default(2, 4))
            .cache(&cache)
            .plan(&plan)
            .build()
            .unwrap();
        // A fused row wider than the batch capacity cannot reduce
        // in-engine: rejected before anything is dispatched.
        let wide = vec![ServingRequest::new(
            0,
            plan.clone(),
            vec![fixed(0.1); eng.capacity() + 1],
        )];
        assert!(matches!(eng.serve(&wide), Err(NovaError::BatchShape(_))));
        // Malformed plans fail validation and admission alike: empty,
        // lookup-free, scale before any reduction, mixed word formats.
        let mismatched = TableKey {
            format: Q8_8,
            ..gelu_key()
        };
        for bad in [
            Plan::new([]),
            Plan::new([PlanStage::MaxSubtract]),
            Plan::new([PlanStage::RangeScale, PlanStage::Lookup(gelu_key())]),
            Plan::new([PlanStage::Lookup(gelu_key()), PlanStage::Lookup(mismatched)]),
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
            let reqs = vec![ServingRequest::new(0, bad.clone(), vec![fixed(0.0)])];
            assert!(
                matches!(eng.serve(&reqs), Err(NovaError::BatchShape(_))),
                "{bad:?}"
            );
        }
        // The engine still serves after every rejection.
        assert!(eng.serve(&fused_requests(&[3], 1)).is_ok());
        assert_eq!(eng.in_flight(), 0);
    }

    #[test]
    fn zero_denominator_rows_fall_back_to_uniform() {
        // A custom plan whose numerators can all quantize to zero (GELU
        // of strongly negative inputs) exercises the uniform fallback —
        // identically on the pool and the reference interpreter.
        let cache = TableCache::new();
        let recip = TableKey {
            activation: Activation::Recip,
            ..gelu_key()
        };
        let plan = Plan::new([
            PlanStage::Lookup(gelu_key()),
            PlanStage::SumRangeReduce,
            PlanStage::Lookup(recip),
            PlanStage::RangeScale,
        ]);
        assert!(plan.validate().is_ok());
        let mut eng = ServingEngine::builder(ApproximatorKind::NovaNoc)
            .line(LineConfig::paper_default(2, 4))
            .cache(&cache)
            .plan(&plan)
            .build()
            .unwrap();
        // Precondition: the compiled GELU table maps -6.0 to a
        // non-positive word, so the denominator really is zero.
        let gelu_table = eng.table_for(gelu_key()).expect("resident");
        assert!(gelu_table.eval(fixed(-6.0)).raw() <= 0, "precondition");
        let reqs = vec![
            ServingRequest::new(0, plan.clone(), vec![fixed(-6.0); 4]),
            ServingRequest::new(1, plan.clone(), vec![fixed(1.0); 3]),
        ];
        let reference = eng.serve_reference(&reqs);
        let outputs = eng.serve(&reqs).unwrap();
        assert_eq!(outputs, reference);
        let quarter = Fixed::from_f64(0.25, Q4_12, Rounding::NearestEven);
        assert!(
            outputs[0].iter().all(|&x| x == quarter),
            "zero-sum row must be uniform: {:?}",
            outputs[0]
        );
    }

    // ----- fault quarantine, requeue, and warm-start snapshots -----

    #[test]
    fn injected_fault_quarantines_the_shard_and_the_slate_completes() {
        // The tentpole in one engine: a bit-flip fault fires on shard 0
        // mid-traffic, the canary catches it, the shard is quarantined,
        // its in-flight units re-run on the survivor — and the slate is
        // still bit-identical to the sequential reference.
        let mut eng = ServingEngine::builder(ApproximatorKind::PerCoreLut)
            .line(LineConfig::paper_default(2, 4))
            .table(gelu_key())
            .shards(2)
            .fault_check(FaultPolicy::new().inject(0, FaultInjector::bit_flip(1, 7)))
            .build()
            .unwrap();
        let reqs = requests(8, 40, 0xFA01);
        let reference = eng.serve_reference(&reqs);
        assert_eq!(eng.serve(&reqs).unwrap(), reference);
        let stats = eng.stats();
        assert_eq!(stats.quarantined_shards, 1, "{stats:?}");
        assert!(stats.requeued_units >= 1, "{stats:?}");
        assert!(
            (stats.degraded_capacity_pct - 50.0).abs() < 1e-9,
            "{stats:?}"
        );
        assert_eq!(eng.healthy_shards(), 1);
        assert!(
            eng.stage_times().requeue_ns > 0,
            "requeue cost must be attributed"
        );
        // Degraded steady state: the survivor keeps serving correctly.
        assert_eq!(eng.serve(&reqs).unwrap(), reference);
        assert_eq!(eng.stats().quarantined_shards, 1, "no double quarantine");
    }

    #[test]
    fn last_healthy_shard_fault_poisons_the_engine() {
        let mut eng = ServingEngine::builder(ApproximatorKind::PerCoreLut)
            .line(LineConfig::paper_default(2, 4))
            .table(gelu_key())
            .fault_check(FaultPolicy::new().inject(0, FaultInjector::panic_after(0)))
            .build()
            .unwrap();
        let err = eng.serve(&requests(2, 10, 0xFA02)).unwrap_err();
        assert!(
            matches!(&err, NovaError::Runtime(msg) if msg.contains("all shard workers quarantined")),
            "{err:?}"
        );
        // The poison is latched: the engine stays dead deterministically.
        assert!(eng.serve(&requests(1, 3, 0xFA03)).is_err());
        assert_eq!(eng.healthy_shards(), 0);
        assert!((eng.stats().degraded_capacity_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn armed_but_fault_free_policy_serves_identically() {
        // Detection arming without any injected fault must be purely
        // observational: same outputs, nothing quarantined or requeued.
        let reqs = requests(6, 30, 0xFA04);
        let mut plain = engine_with_workers(ApproximatorKind::NovaNoc, 2, 4, 2);
        let reference = plain.serve(&reqs).unwrap();
        let mut armed = ServingEngine::builder(ApproximatorKind::NovaNoc)
            .line(LineConfig::paper_default(2, 4))
            .table(gelu_key())
            .shards(2)
            .fault_check(FaultPolicy::new())
            .build()
            .unwrap();
        assert_eq!(armed.serve(&reqs).unwrap(), reference);
        let stats = armed.stats();
        assert_eq!(stats.quarantined_shards, 0);
        assert_eq!(stats.requeued_units, 0);
        assert!(stats.degraded_capacity_pct.abs() < 1e-9);
        assert_eq!(armed.stage_times().requeue_ns, 0);
    }

    #[test]
    fn seeded_chaos_sweep_stays_bit_identical_while_any_shard_survives() {
        // Satellite: random BitFaults + panics injected mid-traffic
        // across workers {1, 2, 4} × every approximator kind. Whenever
        // k < workers shards are hit, the slate must complete
        // bit-identical to `serve_reference` and the ledger must match
        // the injection log; when the only shard is hit, the engine
        // must poison (not hang, not corrupt).
        let mut rng = StdRng::seed_from_u64(0xC7A05);
        let reqs = mixed_requests(8, 40, 0xFA05);
        let cache = TableCache::new();
        for kind in ApproximatorKind::all() {
            for workers in [1usize, 2, 4] {
                // Injection log: hit `workers - 1` shards (so one always
                // survives), except the 1-worker row which hits its only
                // shard to exercise the poison path.
                let hit = if workers == 1 { 1 } else { workers - 1 };
                let mut policy = FaultPolicy::new();
                for shard in 0..hit {
                    let after = rng.gen_range(0u64..3);
                    policy = if rng.gen_range(0u32..2) == 0 {
                        let bit = rng.gen_range(0u32..32);
                        policy.inject(shard, FaultInjector::bit_flip(after, bit))
                    } else {
                        policy.inject(shard, FaultInjector::panic_after(after))
                    };
                }
                let mut eng = ServingEngine::builder(kind)
                    .line(LineConfig::paper_default(2, 4))
                    .cache(&cache)
                    .tables([gelu_key(), exp_key()])
                    .shards(workers)
                    .fault_check(policy)
                    .build()
                    .unwrap();
                let label = format!("{} w={workers}", kind.label());
                let reference = eng.serve_reference(&reqs);
                if workers == 1 {
                    let err = eng.serve(&reqs).unwrap_err();
                    assert!(
                        matches!(&err, NovaError::Runtime(msg)
                            if msg.contains("all shard workers quarantined")),
                        "{label}: {err:?}"
                    );
                    continue;
                }
                assert_eq!(eng.serve(&reqs).unwrap(), reference, "{label}");
                let stats = eng.stats();
                assert_eq!(stats.quarantined_shards, hit as u64, "{label}: {stats:?}");
                assert!(
                    stats.requeued_units >= hit as u64,
                    "{label}: every hit shard bounces at least its triggering unit: {stats:?}"
                );
                let expected_pct = 100.0 * hit as f64 / workers as f64;
                assert!(
                    (stats.degraded_capacity_pct - expected_pct).abs() < 1e-9,
                    "{label}: {stats:?}"
                );
                assert_eq!(eng.healthy_shards(), workers - hit, "{label}");
                // Degraded but alive: the survivors still serve the
                // whole slate bit-identically.
                assert_eq!(eng.serve(&reqs).unwrap(), reference, "{label}");
            }
        }
    }

    #[test]
    fn poisoning_fitter_thread_does_not_take_down_the_cache() {
        // Satellite: a thread that panics while holding the cache's
        // write lock poisons the `RwLock`; recovery must hand later
        // callers the (valid) map instead of cascading the panic into
        // every serving engine sharing the cache.
        let cache = TableCache::new();
        cache.get_or_fit(gelu_key()).unwrap();
        let poisoner = cache.clone();
        let result = std::thread::spawn(move || {
            let _guard = poisoner.inner.tables.write().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(result.is_err(), "the fitter thread must have panicked");
        assert_eq!(cache.len(), 1, "reads recover the poisoned lock");
        let a = cache.get_or_fit(gelu_key()).unwrap();
        let b = cache.get_or_fit(exp_key()).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2, "writes recover the poisoned lock");
        let snapshot = cache.snapshot();
        let fresh = TableCache::new();
        assert_eq!(fresh.restore(&snapshot).unwrap(), 2);
    }

    #[test]
    fn snapshot_restore_round_trips_every_resident_table_raw_identical() {
        // Warm-start contract: every fitted table survives
        // snapshot → restore with raw slope/bias/breakpoint words
        // bit-identical, across activations, formats, and roundings.
        let cache = TableCache::new();
        let mut keys = vec![gelu_key(), exp_key()];
        keys.push(TableKey {
            rounding: Rounding::Floor,
            ..gelu_key()
        });
        keys.push(TableKey {
            activation: Activation::Tanh,
            breakpoints: 9,
            ..gelu_key()
        });
        for &key in &keys {
            cache.get_or_fit(key).unwrap();
        }
        let snapshot = cache.snapshot();
        let warm = TableCache::new();
        assert_eq!(warm.restore(&snapshot).unwrap(), keys.len());
        assert_eq!(warm.len(), keys.len());
        for &key in &keys {
            let orig = cache.get_or_fit(key).unwrap();
            let misses = warm.misses();
            let restored = warm.get_or_fit(key).unwrap();
            assert_eq!(warm.misses(), misses, "warm start must not refit {key:?}");
            assert_eq!(orig.pairs(), restored.pairs(), "{key:?}");
            assert_eq!(orig.breakpoints(), restored.breakpoints(), "{key:?}");
            assert_eq!(orig.format(), restored.format(), "{key:?}");
            assert_eq!(orig.rounding(), restored.rounding(), "{key:?}");
        }
        // Restore is additive and idempotent: resident keys are skipped.
        assert_eq!(warm.restore(&snapshot).unwrap(), 0);
        // And the snapshot survives a JSON round-trip (the daemon's
        // on-disk form).
        let json = snapshot.to_json();
        let reloaded = Value::from_json(&json).unwrap();
        let warm2 = TableCache::new();
        assert_eq!(warm2.restore(&reloaded).unwrap(), keys.len());
        assert_eq!(warm2.snapshot().to_json(), warm.snapshot().to_json());
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let cache = TableCache::new();
        let err = cache
            .restore(&Value::from_json("{\"format\":\"bogus/v9\",\"tables\":[]}").unwrap())
            .unwrap_err();
        assert!(
            matches!(&err, NovaError::Runtime(msg) if msg.contains("unrecognized format")),
            "{err:?}"
        );
        // A malformed entry rejects the whole snapshot atomically:
        // nothing is inserted from the valid half.
        let donor = TableCache::new();
        donor.get_or_fit(gelu_key()).unwrap();
        let mut json = donor.snapshot().to_json();
        json = json.replacen("\"gelu\"", "\"unknown\"", 1);
        let err = cache
            .restore(&Value::from_json(&json).unwrap())
            .unwrap_err();
        assert!(
            matches!(&err, NovaError::Runtime(msg) if msg.contains("activation")),
            "{err:?}"
        );
        // A table wider than the 16-bit word is refused, naming its
        // format.
        let json = donor
            .snapshot()
            .to_json()
            .replacen("\"total_bits\":16", "\"total_bits\":24", 1);
        let err = cache
            .restore(&Value::from_json(&json).unwrap())
            .unwrap_err();
        assert!(
            matches!(&err, NovaError::Runtime(msg) if msg.contains("24 total bits")),
            "{err:?}"
        );
        assert_eq!(cache.len(), 0, "rejected snapshots insert nothing");
    }
}
