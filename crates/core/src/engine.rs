//! The end-to-end evaluation engine: per-inference runtime and energy
//! (the machinery behind Fig 8).
//!
//! The paper's methodology (§V.F): SCALE-Sim supplies per-inference
//! runtime on the host; the synthesis power numbers of each approximator
//! supply the power; energy is their product over the time the
//! approximator is active. Because NOVA and the LUT baselines have
//! identical lookup latency, their energy ratio equals their power ratio —
//! which is exactly how the paper's 9.4× / 4.14× headline numbers arise.

use nova_accel::config::AcceleratorConfig;
use nova_accel::runtime::{matmul_runtime, MatmulRuntime};
use nova_accel::systolic::Dataflow;
use nova_approx::Activation;
use nova_synth::{units, LutSharing, TechModel};
use nova_workloads::bert::{census, BertConfig, OpCensus};

use crate::serving::pack::pack;
use crate::timeline::table_switch_cycles;
use crate::NovaError;

// The dispatch axis lives with the unit implementations; re-exported
// here because the engine's cost models are keyed off the same enum.
pub use crate::vector_unit::ApproximatorKind;

/// Full per-inference report for one (host, model, approximator) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Host accelerator name.
    pub accelerator: String,
    /// Workload name.
    pub model: String,
    /// Sequence length evaluated.
    pub seq_len: usize,
    /// Approximator used.
    pub approximator: String,
    /// Matmul cycles on the systolic fabric.
    pub matmul_cycles: u64,
    /// Non-linear approximator queries (exp + recip + GELU + rsqrt).
    pub nl_queries: u64,
    /// Vector-unit batches (queries over all neurons in parallel).
    pub nl_batches: u64,
    /// Cycles spent on non-linear lookups (2 per batch: lookup + MAC).
    pub nl_cycles: u64,
    /// Total inference latency (s).
    pub total_seconds: f64,
    /// Approximator power (mW) while active.
    pub approximator_power_mw: f64,
    /// Approximator energy per inference (mJ).
    pub approximator_energy_mj: f64,
    /// Host compute power (mW) while matmuls run.
    pub host_power_mw: f64,
    /// Host compute energy per inference (mJ).
    pub host_energy_mj: f64,
    /// Approximator energy as % of host compute energy (the paper's
    /// "energy overhead").
    pub energy_overhead_pct: f64,
}

nova_serde::impl_serde_struct!(InferenceReport {
    accelerator,
    model,
    seq_len,
    approximator,
    matmul_cycles,
    nl_queries,
    nl_batches,
    nl_cycles,
    total_seconds,
    approximator_power_mw,
    approximator_energy_mj,
    host_power_mw,
    host_energy_mj,
    energy_overhead_pct,
});

/// Power (mW) of `kind` on `config` at the host's clock/activity,
/// from the calibrated 22 nm model.
#[must_use]
pub fn approximator_power_mw(
    tech: &TechModel,
    config: &AcceleratorConfig,
    kind: ApproximatorKind,
) -> f64 {
    let n = config.nova_routers as f64;
    let neurons = config.neurons_per_router;
    let core = config.frequency_ghz();
    let act = config.datapath_activity;
    match kind {
        ApproximatorKind::NovaNoc => {
            let r = units::nova_router(tech, neurons, 16, config.router_pitch_mm);
            r.power_mw(tech, core, core * 2.0, act) * n
        }
        ApproximatorKind::PerNeuronLut => {
            units::lut_unit(tech, neurons, 16, LutSharing::PerNeuron).power_mw(tech, core, act) * n
        }
        ApproximatorKind::PerCoreLut => {
            units::lut_unit(tech, neurons, 16, LutSharing::PerCore).power_mw(tech, core, act) * n
        }
        // The SDP is the host's always-clocked native engine — no demand
        // gating, so activity 1 regardless of the attention duty cycle.
        ApproximatorKind::NvdlaSdp => units::nvdla_sdp(tech, neurons).power_mw(tech, core, 1.0) * n,
    }
}

/// Host compute power (mW): all systolic MACs switching at the core clock.
#[must_use]
pub fn host_power_mw(tech: &TechModel, config: &AcceleratorConfig) -> f64 {
    let pes = (config.systolic.pes_per_array() * config.systolic.arrays) as f64;
    let (_, mac_cap) = nova_synth::components::mac16(tech);
    tech.dynamic_power_mw(pes * mac_cap, config.frequency_ghz(), 1.0)
}

/// Evaluates one inference of `model` at `seq_len` on `config` with
/// `kind` serving the non-linear operators (paper defaults: OS dataflow,
/// cmos22 tech).
///
/// # Errors
///
/// Returns [`NovaError::BatchShape`] for a zero sequence length.
pub fn evaluate(
    config: &AcceleratorConfig,
    model: &BertConfig,
    seq_len: usize,
    kind: ApproximatorKind,
) -> Result<InferenceReport, NovaError> {
    if seq_len == 0 {
        return Err(NovaError::BatchShape(
            "sequence length must be positive".into(),
        ));
    }
    let tech = TechModel::cmos22();
    let ops = census(model, seq_len);
    evaluate_census(&tech, config, model.name, seq_len, &ops, kind)
}

/// Evaluates one inference of a CNN/MLP vision model on `config` (the
/// NVDLA/Jetson path: ReLU traffic plus one classifier softmax).
///
/// # Errors
///
/// Propagates [`evaluate_census`] failures.
pub fn evaluate_cnn(
    config: &AcceleratorConfig,
    model: &nova_workloads::cnn::CnnConfig,
    kind: ApproximatorKind,
) -> Result<InferenceReport, NovaError> {
    let tech = TechModel::cmos22();
    let ops = nova_workloads::cnn::census(model);
    evaluate_census(&tech, config, model.name, 1, &ops, kind)
}

/// Evaluates a pre-computed census (for custom workloads).
///
/// # Errors
///
/// Currently infallible for well-formed censuses; returns [`NovaError`]
/// for future host-specific validation.
pub fn evaluate_census(
    tech: &TechModel,
    config: &AcceleratorConfig,
    model_name: &str,
    seq_len: usize,
    ops: &OpCensus,
    kind: ApproximatorKind,
) -> Result<InferenceReport, NovaError> {
    let mm: MatmulRuntime = matmul_runtime(config, ops, Dataflow::OutputStationary);
    let queries = ops.approximator_queries();
    let neurons = config.total_neurons() as u64;
    let batches = queries.div_ceil(neurons);
    // Per-batch latency of the serving hardware: 2 (lookup + MAC) for
    // NOVA and the NN-LUT baselines, 3 for the SDP's deeper pipeline.
    let nl_cycles = batches * kind.batch_latency_cycles();
    let freq_hz = config.frequency_mhz * 1e6;
    let nl_seconds = nl_cycles as f64 / freq_hz;
    let total_seconds = mm.seconds + nl_seconds;

    let p_approx = approximator_power_mw(tech, config, kind);
    let p_host = host_power_mw(tech, config);
    let e_approx = p_approx * nl_seconds; // mW · s = mJ... (mW×s = mJ)
    let e_host = p_host * mm.seconds;

    Ok(InferenceReport {
        accelerator: config.name.to_string(),
        model: model_name.to_string(),
        seq_len,
        approximator: kind.label().to_string(),
        matmul_cycles: mm.cycles,
        nl_queries: queries,
        nl_batches: batches,
        nl_cycles,
        total_seconds,
        approximator_power_mw: p_approx,
        approximator_energy_mj: e_approx,
        host_power_mw: p_host,
        host_energy_mj: e_host,
        energy_overhead_pct: if e_host > 0.0 {
            100.0 * e_approx / e_host
        } else {
            0.0
        },
    })
}

/// Aggregate serving report for a slate of inference requests arriving
/// on many concurrent streams and sharing one approximator — the
/// analytic counterpart of the functional
/// [`crate::serving::ServingEngine`].
///
/// The key quantity is batch coalescing: a naive engine dispatches each
/// request's non-linear queries alone and pays `ceil(q_i / capacity)`
/// batches per request, while the shared scheduler pays
/// `ceil(Σ q_i / capacity)` — every tail batch but one is filled with
/// another request's queries.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStreamReport {
    /// Host accelerator name.
    pub accelerator: String,
    /// Approximator used.
    pub approximator: String,
    /// Inference requests in the slate (across all streams).
    pub requests: usize,
    /// Shard workers serving the coalesced batches concurrently.
    pub workers: usize,
    /// Distinct activation tables the slate touches (batches coalesce
    /// only within one table's run).
    pub activations: usize,
    /// Non-linear queries summed over all requests.
    pub total_queries: u64,
    /// Vector-unit batches with cross-request coalescing.
    pub coalesced_batches: u64,
    /// Batches if each request dispatched alone (sum of per-request
    /// ceilings — the naive single-tenant pattern).
    pub naive_batches: u64,
    /// Occupancy of the coalesced batches (%).
    pub batch_occupancy_pct: f64,
    /// Non-linear cycles with coalescing — the *serial* sum over all
    /// batches, independent of the worker count.
    pub nl_cycles: u64,
    /// Per-worker accumulated non-linear cycles under round-robin batch
    /// dispatch — the counters the aggregate view below is gathered
    /// from. One entry per worker.
    pub worker_nl_cycles: Vec<u64>,
    /// Per-worker accumulated table-switch stall cycles under the same
    /// round-robin dispatch: a worker switches whenever consecutive
    /// batches it serves belong to different activation tables. All
    /// zeros for the NOVA NoC.
    pub worker_switch_cycles: Vec<u64>,
    /// Activation-table switches summed over the pool.
    pub table_switches: u64,
    /// Table-switch stall cycles summed over the pool
    /// ([`crate::timeline::table_switch_cycles`] per switch).
    pub switch_cycles: u64,
    /// The worker pool's non-linear makespan: the busiest worker's
    /// accumulated batch *plus switch* cycles. Equals
    /// `nl_cycles + switch_cycles` for one worker and approaches that
    /// sum over `workers` for an evenly loaded pool.
    pub makespan_nl_cycles: u64,
    /// Table switches a naive single-worker dispatcher pays: one at
    /// every activation boundary of the arrival order (no run grouping
    /// to amortize them).
    pub naive_table_switches: u64,
    /// Non-linear cycles under naive per-request dispatch: batch latency
    /// plus the switch stall at every arrival-order activation boundary
    /// — the same stall model as the coalesced path, so the comparison
    /// is symmetric.
    pub naive_nl_cycles: u64,
    /// Matmul time over all requests, serialized on the host fabric (s).
    pub matmul_seconds: f64,
    /// End-to-end time for the whole slate (s).
    pub total_seconds: f64,
    /// Aggregate inference throughput (inferences/s).
    pub inferences_per_second: f64,
    /// Non-linear service rate with coalescing (queries/s).
    pub queries_per_second: f64,
    /// Non-linear service rate under naive dispatch (queries/s).
    pub naive_queries_per_second: f64,
    /// `naive_nl_cycles` over the coalesced single-worker cost
    /// (`nl_cycles` plus one switch stall per run transition) — what
    /// coalescing buys, switch stalls counted on both sides.
    pub nl_speedup: f64,
    /// Approximator energy for the slate with coalescing (mJ).
    pub approximator_energy_mj: f64,
    /// Approximator energy under naive per-stream dispatch (mJ).
    pub naive_approximator_energy_mj: f64,
}

nova_serde::impl_serde_struct!(MultiStreamReport {
    accelerator,
    approximator,
    requests,
    workers,
    activations,
    total_queries,
    coalesced_batches,
    naive_batches,
    batch_occupancy_pct,
    nl_cycles,
    worker_nl_cycles,
    worker_switch_cycles,
    table_switches,
    switch_cycles,
    makespan_nl_cycles,
    naive_table_switches,
    naive_nl_cycles,
    matmul_seconds,
    total_seconds,
    inferences_per_second,
    queries_per_second,
    naive_queries_per_second,
    nl_speedup,
    approximator_energy_mj,
    naive_approximator_energy_mj,
});

/// PWL entries of the paper's activation tables — the analytic model's
/// per-switch rewrite volume (matches `timeline::layer_timeline`).
const PAPER_TABLE_ENTRIES: u64 = 16;

/// Evaluates a mixed-activation slate of inference requests (one
/// `(activation, census)` pair each, from any number of concurrent
/// streams) sharing `kind` on `config`: non-linear queries are coalesced
/// across requests into full `(routers × neurons)` batches *within each
/// activation's run* (runs in first-appearance order, exactly like the
/// functional engine's admission stage), dealt one batch at a time
/// round-robin over `workers` concurrent shard workers, matmuls
/// serialize on the host fabric, and the report carries aggregate
/// throughput (inferences/s, queries/s) plus batch occupancy — versus
/// naive dispatch, where each request's batches run alone with their
/// own padded tails on a single worker.
///
/// The batch counts match the functional engine's, but the per-worker
/// split is its `K = 1` case: the engine deals whole work units of up
/// to `K` batches round-robin, so deep runs can split unevenly there.
/// On the 32-batch GELU+exp scaling slate at 3 workers, the engine
/// serves `[12, 12, 8]` batches per worker where this model deals
/// `[11, 11, 10]`.
///
/// Aggregate numbers are gathered from the per-worker cycle counters:
/// the non-linear wall time is the pool's makespan (the busiest worker,
/// **table-switch stalls included** — a worker switches whenever
/// consecutive batches it serves belong to different activations, at
/// [`crate::timeline::table_switch_cycles`] per switch: free for the
/// NOVA NoC, a real bank rewrite for LUT/SDP hardware), so `workers = 1`
/// with a single activation reproduces the serial accounting exactly.
/// The model has no table registry, so workers are taken as
/// pre-programmed with the *slate's first* activation; a functional
/// engine pre-programs with its first *registered* table instead, so
/// absolute switch counts can differ by up to one switch per worker
/// when a slate opens with a different activation than the engine
/// default.
///
/// This is the *analytic* twin of [`crate::serving::ServingEngine`]: it
/// counts queries and batch slots without materializing values, and its
/// `capacity = routers × neurons` accounting is exactly the flat
/// [`nova_fixed::FixedBatch`] slot layout the functional pipeline packs
/// (slate census totals here = grid slots there). Callers holding a
/// seeded trace get the census slate without cloning request records via
/// `nova_workloads::traffic::TrafficMix::census_slate`.
///
/// # Errors
///
/// Returns [`NovaError::BatchShape`] for an empty request slate or
/// `workers == 0`.
pub fn evaluate_multi_stream(
    tech: &TechModel,
    config: &AcceleratorConfig,
    requests: &[(Activation, OpCensus)],
    kind: ApproximatorKind,
    workers: usize,
) -> Result<MultiStreamReport, NovaError> {
    if requests.is_empty() {
        return Err(NovaError::BatchShape(
            "multi-stream evaluation needs at least one request".into(),
        ));
    }
    if workers == 0 {
        return Err(NovaError::BatchShape(
            "multi-stream evaluation needs at least one worker".into(),
        ));
    }
    let capacity = config.total_neurons() as u64;
    let total_queries: u64 = requests.iter().map(|(_, s)| s.approximator_queries()).sum();
    // Group queries into per-activation runs, in first-appearance order
    // — coalescing never crosses a table boundary, exactly like the
    // functional admission stage.
    let mut run_activations: Vec<Activation> = Vec::new();
    let mut run_queries: Vec<u64> = Vec::new();
    for (activation, census) in requests {
        match run_activations.iter().position(|a| a == activation) {
            Some(i) => run_queries[i] += census.approximator_queries(),
            None => {
                run_activations.push(*activation);
                run_queries.push(census.approximator_queries());
            }
        }
    }
    let coalesced_batches: u64 = run_queries.iter().map(|q| q.div_ceil(capacity)).sum();
    let naive_batches: u64 = requests
        .iter()
        .map(|(_, s)| s.approximator_queries().div_ceil(capacity))
        .sum();
    let latency = kind.batch_latency_cycles();
    let nl_cycles = coalesced_batches * latency;
    // Deal the run-ordered batches round-robin, one batch at a time (the
    // runtime's dispatch with one batch per unit), tracking which
    // activation each worker has loaded (all pre-programmed with the
    // first run's table), and gather the aggregate from the per-worker
    // counters.
    let switch_stall = table_switch_cycles(kind, PAPER_TABLE_ENTRIES);
    let mut worker_nl_cycles = vec![0u64; workers];
    let mut worker_switch_cycles = vec![0u64; workers];
    let mut worker_current = vec![run_activations[0]; workers];
    let mut table_switches = 0u64;
    let mut seq = 0u64;
    for (run, &activation) in run_activations.iter().enumerate() {
        for _ in 0..run_queries[run].div_ceil(capacity) {
            let w = usize::try_from(seq % workers as u64).expect("workers fit usize");
            if worker_current[w] != activation {
                worker_current[w] = activation;
                worker_switch_cycles[w] += switch_stall;
                table_switches += 1;
            }
            worker_nl_cycles[w] += latency;
            seq += 1;
        }
    }
    let switch_cycles: u64 = worker_switch_cycles.iter().sum();
    let makespan_nl_cycles = worker_nl_cycles
        .iter()
        .zip(&worker_switch_cycles)
        .map(|(&c, &s)| c + s)
        .max()
        .unwrap_or(0);
    // The naive single-worker dispatcher pays the same stall model,
    // symmetric with the coalesced path: pre-programmed with the first
    // request's table, it switches at every activation boundary of the
    // arrival order — run grouping is exactly what it lacks.
    let naive_table_switches = requests.windows(2).filter(|w| w[0].0 != w[1].0).count() as u64;
    let naive_nl_cycles = naive_batches * latency + naive_table_switches * switch_stall;
    // The coalesced path's single-worker equivalent for the speedup
    // ratio: one switch per run transition, however many workers the
    // report models (per-pool switch counts scale with workers, which
    // would skew a serial-vs-serial comparison).
    let coalesced_serial_cycles = nl_cycles + (run_activations.len() as u64 - 1) * switch_stall;
    let freq_hz = config.frequency_mhz * 1e6;
    // Wall time is bounded by the busiest worker; energy is not — every
    // batch burns one unit's power for its latency wherever it runs, so
    // the energy integral follows the *serial* cycle sum.
    let nl_seconds = makespan_nl_cycles as f64 / freq_hz;
    let serial_nl_seconds = nl_cycles as f64 / freq_hz;
    let naive_nl_seconds = naive_nl_cycles as f64 / freq_hz;
    // Energy integrates lookup activity only, on both sides — switch
    // stalls cost wall time, not datapath switching energy here.
    let naive_lookup_seconds = (naive_batches * latency) as f64 / freq_hz;
    let matmul_seconds: f64 = requests
        .iter()
        .map(|(_, s)| matmul_runtime(config, s, Dataflow::OutputStationary).seconds)
        .sum();
    let total_seconds = matmul_seconds + nl_seconds;
    let p_approx = approximator_power_mw(tech, config, kind);
    let rate = |seconds: f64| {
        if seconds > 0.0 {
            total_queries as f64 / seconds
        } else {
            0.0
        }
    };
    Ok(MultiStreamReport {
        accelerator: config.name.to_string(),
        approximator: kind.label().to_string(),
        requests: requests.len(),
        workers,
        activations: run_activations.len(),
        total_queries,
        coalesced_batches,
        naive_batches,
        batch_occupancy_pct: if coalesced_batches == 0 {
            0.0
        } else {
            100.0 * total_queries as f64 / (coalesced_batches * capacity) as f64
        },
        nl_cycles,
        worker_nl_cycles,
        worker_switch_cycles,
        table_switches,
        switch_cycles,
        makespan_nl_cycles,
        naive_table_switches,
        naive_nl_cycles,
        matmul_seconds,
        total_seconds,
        inferences_per_second: if total_seconds > 0.0 {
            requests.len() as f64 / total_seconds
        } else {
            0.0
        },
        queries_per_second: rate(nl_seconds),
        naive_queries_per_second: rate(naive_nl_seconds),
        nl_speedup: if coalesced_serial_cycles > 0 {
            naive_nl_cycles as f64 / coalesced_serial_cycles as f64
        } else {
            1.0
        },
        approximator_energy_mj: p_approx * serial_nl_seconds,
        naive_approximator_energy_mj: p_approx * naive_lookup_seconds,
    })
}

/// The analytic view of a fused-softmax trace served as op-graph plans.
///
/// Mirrors [`evaluate_multi_stream`]'s relationship to the single-table
/// runtime: it counts batches, lookups and switch stalls without
/// materializing values, with the functional engine's own packer for
/// fused plans (row-aligned — an attention row never splits across
/// batches, because the reduce stages span it).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedSoftmaxReport {
    /// Host accelerator name.
    pub accelerator: String,
    /// Approximator kind label.
    pub approximator: String,
    /// Concurrent shard workers modeled.
    pub workers: usize,
    /// Attention rows served (zero-width rows excluded).
    pub rows: u64,
    /// Total softmax lanes (the sum of row widths).
    pub total_queries: u64,
    /// Row-aligned batches packed.
    pub batches: u64,
    /// Slot occupancy of those batches (row alignment pads more than
    /// the single-table packer's ragged tails).
    pub batch_occupancy_pct: f64,
    /// Serial lookup cycles: every batch runs the exp *and* the
    /// reciprocal table (two lookup passes).
    pub nl_cycles: u64,
    /// Table re-programs across the pool: two per batch (exp, recip),
    /// minus the boot batch per worker whose exp table is preloaded.
    pub table_switches: u64,
    /// Stall cycles those switches cost — the op-graph headline: zero
    /// on the NOVA NoC, strictly positive on LUT/SDP hardware.
    pub switch_cycles: u64,
    /// `switch_cycles` as a percentage of `nl_cycles` — the per-layer
    /// switch overhead on the fused trace.
    pub switch_overhead_pct: f64,
    /// Busiest worker's cycles, lookups + switch stalls.
    pub makespan_nl_cycles: u64,
    /// Softmax lanes per second at the host clock, over the makespan.
    pub queries_per_second: f64,
}

nova_serde::impl_serde_struct!(FusedSoftmaxReport {
    accelerator,
    approximator,
    workers,
    rows,
    total_queries,
    batches,
    batch_occupancy_pct,
    nl_cycles,
    table_switches,
    switch_cycles,
    switch_overhead_pct,
    makespan_nl_cycles,
    queries_per_second
});

/// Evaluates a fused-softmax trace — one entry per attention row, the
/// row's lane width — served as op-graph plans of `kind` on `config`:
/// rows pack row-aligned into `(routers × neurons)`-slot batches, every
/// batch runs two lookup passes (softmax-exp, then reciprocal) with a
/// table switch before each pass the worker's loaded table doesn't
/// match, and batches are dealt one at a time round-robin over
/// `workers` shards — the functional engine's dispatch with one batch
/// per work unit (it deals whole units of up to `K` batches, so its
/// per-worker split can differ; the batch count cannot). Workers boot
/// with the exp table loaded (the plan's first lookup), so the first
/// batch on each worker switches once and every later batch twice.
///
/// This is the analytic twin of serving
/// `nova_workloads::traffic::TrafficMix::fused_rows_slate` through a
/// [`crate::serving::Plan::fused_softmax`]-registered engine.
///
/// # Errors
///
/// Returns [`NovaError::BatchShape`] for an empty row slate (or one
/// with only zero-width rows), `workers == 0`, or a row wider than the
/// batch capacity (the functional engine rejects those up front — the
/// reduce stages cannot span batches).
pub fn evaluate_fused_softmax(
    config: &AcceleratorConfig,
    rows: &[u64],
    kind: ApproximatorKind,
    workers: usize,
) -> Result<FusedSoftmaxReport, NovaError> {
    if workers == 0 {
        return Err(NovaError::BatchShape(
            "fused-softmax evaluation needs at least one worker".into(),
        ));
    }
    let capacity = config.total_neurons() as u64;
    let widths = rows
        .iter()
        .map(|&w| usize::try_from(w).unwrap_or(usize::MAX))
        .enumerate();
    let mut spans = Vec::new();
    let layout = pack(widths, true, config.total_neurons(), workers, 1, &mut spans)?;
    let batches = layout.batches as u64;
    if batches == 0 {
        return Err(NovaError::BatchShape(
            "fused-softmax evaluation needs at least one non-empty row".into(),
        ));
    }
    let row_count = spans.len() as u64;
    let total_queries: u64 = rows.iter().sum();
    let latency = kind.batch_latency_cycles();
    // Two lookup passes per batch: the exp table over the scores, the
    // reciprocal table over the broadcast denominators.
    let nl_cycles = batches * 2 * latency;
    let switch_stall = table_switch_cycles(kind, PAPER_TABLE_ENTRIES);
    let mut worker_cycles = vec![0u64; workers];
    let mut worker_booted = vec![false; workers];
    let mut table_switches = 0u64;
    let mut switch_cycles = 0u64;
    for seq in 0..batches {
        let w = usize::try_from(seq % workers as u64).expect("workers fit usize");
        // Boot batch: exp is preloaded, only the recip switch pays.
        // Every later batch re-programs exp *and* recip.
        let switches = if worker_booted[w] { 2 } else { 1 };
        worker_booted[w] = true;
        table_switches += switches;
        switch_cycles += switches * switch_stall;
        worker_cycles[w] += 2 * latency + switches * switch_stall;
    }
    let makespan_nl_cycles = worker_cycles.iter().copied().max().unwrap_or(0);
    let freq_hz = config.frequency_mhz * 1e6;
    let seconds = makespan_nl_cycles as f64 / freq_hz;
    Ok(FusedSoftmaxReport {
        accelerator: config.name.to_string(),
        approximator: kind.label().to_string(),
        workers,
        rows: row_count,
        total_queries,
        batches,
        batch_occupancy_pct: 100.0 * total_queries as f64 / (batches * capacity) as f64,
        nl_cycles,
        table_switches,
        switch_cycles,
        switch_overhead_pct: 100.0 * switch_cycles as f64 / nl_cycles as f64,
        makespan_nl_cycles,
        queries_per_second: if seconds > 0.0 {
            total_queries as f64 / seconds
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nova_energy_beats_luts_everywhere() {
        for cfg in [
            AcceleratorConfig::tpu_v3_like(),
            AcceleratorConfig::tpu_v4_like(),
        ] {
            for model in BertConfig::fig8_benchmarks() {
                let nova = evaluate(&cfg, &model, 1024, ApproximatorKind::NovaNoc).unwrap();
                let pn = evaluate(&cfg, &model, 1024, ApproximatorKind::PerNeuronLut).unwrap();
                let pc = evaluate(&cfg, &model, 1024, ApproximatorKind::PerCoreLut).unwrap();
                assert!(
                    nova.approximator_energy_mj < pn.approximator_energy_mj,
                    "{} {}",
                    cfg.name,
                    model.name
                );
                assert!(nova.approximator_energy_mj < pc.approximator_energy_mj);
            }
        }
    }

    #[test]
    fn energy_ratio_tracks_power_ratio() {
        // Same latency ⇒ energy ratio == power ratio (the paper's
        // headline arithmetic).
        let cfg = AcceleratorConfig::tpu_v4_like();
        let m = BertConfig::bert_mini();
        let nova = evaluate(&cfg, &m, 1024, ApproximatorKind::NovaNoc).unwrap();
        let pc = evaluate(&cfg, &m, 1024, ApproximatorKind::PerCoreLut).unwrap();
        let e_ratio = pc.approximator_energy_mj / nova.approximator_energy_mj;
        let p_ratio = pc.approximator_power_mw / nova.approximator_power_mw;
        assert!((e_ratio - p_ratio).abs() < 1e-9);
        // Paper: per-core LUT burns ~9.4× NOVA's energy on TPU-v4.
        assert!(e_ratio > 4.0, "per-core/NOVA energy ratio = {e_ratio}");
    }

    #[test]
    fn nova_overhead_is_small_on_tpu_v4() {
        // Paper: "energy overhead of only 0.5%" for NOVA on TPU-v4.
        let cfg = AcceleratorConfig::tpu_v4_like();
        for model in BertConfig::fig8_benchmarks() {
            let r = evaluate(&cfg, &model, 1024, ApproximatorKind::NovaNoc).unwrap();
            assert!(
                r.energy_overhead_pct < 5.0,
                "{}: overhead {}%",
                model.name,
                r.energy_overhead_pct
            );
        }
    }

    #[test]
    fn queries_and_batches_consistent() {
        let cfg = AcceleratorConfig::react();
        let r = evaluate(
            &cfg,
            &BertConfig::bert_tiny(),
            128,
            ApproximatorKind::NovaNoc,
        )
        .unwrap();
        assert_eq!(r.nl_batches, r.nl_queries.div_ceil(2560));
        assert_eq!(r.nl_cycles, 2 * r.nl_batches);
        assert!(r.total_seconds > 0.0);
    }

    #[test]
    fn sdp_pays_its_deeper_pipeline() {
        // The cost model must agree with the functional SdpVectorUnit:
        // 3 cycles per batch vs 2 for NOVA/LUTs.
        let cfg = AcceleratorConfig::jetson_xavier_nx();
        let m = BertConfig::mobilebert_tiny();
        let nova = evaluate(&cfg, &m, 128, ApproximatorKind::NovaNoc).unwrap();
        let sdp = evaluate(&cfg, &m, 128, ApproximatorKind::NvdlaSdp).unwrap();
        assert_eq!(nova.nl_cycles, 2 * nova.nl_batches);
        assert_eq!(sdp.nl_cycles, 3 * sdp.nl_batches);
        assert_eq!(sdp.nl_batches, nova.nl_batches);
    }

    #[test]
    fn zero_seq_len_rejected() {
        let cfg = AcceleratorConfig::react();
        assert!(evaluate(&cfg, &BertConfig::bert_tiny(), 0, ApproximatorKind::NovaNoc).is_err());
    }

    #[test]
    fn cnn_on_jetson_nova_beats_sdp() {
        let cfg = AcceleratorConfig::jetson_xavier_nx();
        for model in nova_workloads::cnn::CnnConfig::table1_models() {
            let nova = evaluate_cnn(&cfg, &model, ApproximatorKind::NovaNoc).unwrap();
            let sdp = evaluate_cnn(&cfg, &model, ApproximatorKind::NvdlaSdp).unwrap();
            assert!(
                nova.approximator_energy_mj < sdp.approximator_energy_mj,
                "{}",
                model.name
            );
            assert!(nova.nl_queries > 0);
        }
    }

    #[test]
    fn multi_stream_coalescing_beats_naive_dispatch() {
        // The serving acceptance criterion on a TPU-v4-like host: with
        // mixed traffic from 8 concurrent streams (one census per
        // request), coalesced batch occupancy exceeds 90% and aggregate
        // throughput beats the sum of naive per-request dispatch.
        let tech = TechModel::cmos22();
        let cfg = AcceleratorConfig::tpu_v4_like();
        let trace = nova_workloads::traffic::TrafficMix::paper_default(8).generate();
        assert!(trace.iter().map(|r| r.stream).max().unwrap() + 1 >= 8);
        let requests: Vec<(Activation, OpCensus)> = trace
            .into_iter()
            .map(|r| (r.activation, r.census))
            .collect();
        let r =
            evaluate_multi_stream(&tech, &cfg, &requests, ApproximatorKind::NovaNoc, 1).unwrap();
        assert!(r.requests >= 8);
        assert_eq!(r.activations, 1);
        assert_eq!((r.table_switches, r.switch_cycles), (0, 0));
        assert!(
            r.batch_occupancy_pct > 90.0,
            "occupancy {}",
            r.batch_occupancy_pct
        );
        assert!(r.coalesced_batches < r.naive_batches);
        assert!(r.queries_per_second > r.naive_queries_per_second);
        assert!(r.nl_speedup > 1.0);
        assert!(r.approximator_energy_mj < r.naive_approximator_energy_mj);
        assert!(r.inferences_per_second > 0.0);
    }

    #[test]
    fn multi_stream_single_stream_degenerates_to_naive() {
        let tech = TechModel::cmos22();
        let cfg = AcceleratorConfig::tpu_v4_like();
        let ops = census(&BertConfig::bert_tiny(), 128);
        let slate = [(Activation::Gelu, ops.clone())];
        let r = evaluate_multi_stream(&tech, &cfg, &slate, ApproximatorKind::NovaNoc, 1).unwrap();
        assert_eq!(r.coalesced_batches, r.naive_batches);
        assert!((r.nl_speedup - 1.0).abs() < 1e-12);
        // And it agrees with the single-shot engine's accounting.
        let single = evaluate_census(
            &tech,
            &cfg,
            "BERT-tiny",
            128,
            &ops,
            ApproximatorKind::NovaNoc,
        )
        .unwrap();
        assert_eq!(r.coalesced_batches, single.nl_batches);
        assert_eq!(r.nl_cycles, single.nl_cycles);
    }

    #[test]
    fn multi_stream_worker_pool_scales_makespan_not_energy() {
        // The analytic counterpart of the serving runtime's thread pool:
        // aggregate stats come from per-worker counters, the makespan is
        // the busiest worker, wall-clock throughput scales with workers,
        // and the energy integral (serial batch·cycles) does not change.
        let tech = TechModel::cmos22();
        let cfg = AcceleratorConfig::tpu_v4_like();
        let requests = nova_workloads::traffic::TrafficMix::paper_default(16).census_slate();
        let one =
            evaluate_multi_stream(&tech, &cfg, &requests, ApproximatorKind::NovaNoc, 1).unwrap();
        let four =
            evaluate_multi_stream(&tech, &cfg, &requests, ApproximatorKind::NovaNoc, 4).unwrap();
        assert_eq!(one.workers, 1);
        assert_eq!(one.worker_nl_cycles, vec![one.nl_cycles]);
        assert_eq!(one.makespan_nl_cycles, one.nl_cycles);
        assert_eq!(four.workers, 4);
        assert_eq!(four.worker_nl_cycles.len(), 4);
        assert_eq!(
            four.worker_nl_cycles.iter().sum::<u64>(),
            four.nl_cycles,
            "per-worker counters must add up to the serial sum"
        );
        assert_eq!(
            four.makespan_nl_cycles,
            *four.worker_nl_cycles.iter().max().unwrap()
        );
        // Round-robin over plenty of batches: ≥ 1.5× wall-clock scaling
        // at 4 workers (the serving acceptance shape), same energy.
        assert!(four.coalesced_batches >= 4);
        assert!(
            four.queries_per_second >= 1.5 * one.queries_per_second,
            "4 workers {} q/s vs 1 worker {} q/s",
            four.queries_per_second,
            one.queries_per_second
        );
        assert!((four.approximator_energy_mj - one.approximator_energy_mj).abs() < 1e-12);
        assert_eq!(four.nl_cycles, one.nl_cycles);
        assert!(four.total_seconds < one.total_seconds);
    }

    #[test]
    fn multi_stream_empty_slate_rejected() {
        let tech = TechModel::cmos22();
        let cfg = AcceleratorConfig::tpu_v4_like();
        assert!(matches!(
            evaluate_multi_stream(&tech, &cfg, &[], ApproximatorKind::NovaNoc, 1),
            Err(NovaError::BatchShape(_))
        ));
        let slate = [(Activation::Gelu, census(&BertConfig::bert_tiny(), 128))];
        assert!(matches!(
            evaluate_multi_stream(&tech, &cfg, &slate, ApproximatorKind::NovaNoc, 0),
            Err(NovaError::BatchShape(_))
        ));
    }

    #[test]
    fn multi_stream_mixed_activations_charge_switch_stalls() {
        // The analytic table-switch model mirrors the functional engine:
        // a 2-activation slate coalesces per run, every worker that
        // serves both runs switches once, and the makespan grows by the
        // per-kind stall — 0 for NOVA, `entries` per switch for LUT
        // banks, more for the SDP.
        let tech = TechModel::cmos22();
        let cfg = AcceleratorConfig::tpu_v4_like();
        let requests = nova_workloads::traffic::TrafficMix::mixed_activations(16).census_slate();
        assert!(requests.iter().any(|(a, _)| *a == Activation::Exp));
        for workers in [1usize, 4] {
            let nova =
                evaluate_multi_stream(&tech, &cfg, &requests, ApproximatorKind::NovaNoc, workers)
                    .unwrap();
            let lut = evaluate_multi_stream(
                &tech,
                &cfg,
                &requests,
                ApproximatorKind::PerNeuronLut,
                workers,
            )
            .unwrap();
            let sdp =
                evaluate_multi_stream(&tech, &cfg, &requests, ApproximatorKind::NvdlaSdp, workers)
                    .unwrap();
            assert_eq!(nova.activations, 2);
            // Same dispatch pattern → same switch count for every kind.
            assert!(nova.table_switches > 0);
            assert_eq!(nova.table_switches, lut.table_switches);
            assert_eq!(lut.table_switches, sdp.table_switches);
            // NOVA re-programs for free; the baselines stall.
            assert_eq!(nova.switch_cycles, 0, "{workers} workers");
            assert_eq!(
                nova.makespan_nl_cycles,
                nova.coalesced_batches.div_ceil(workers as u64)
                    * ApproximatorKind::NovaNoc.batch_latency_cycles(),
                "NOVA's mixed-tenancy makespan is pure batch latency"
            );
            assert!(lut.switch_cycles > 0);
            assert!(sdp.switch_cycles > lut.switch_cycles, "SDP rewrites more");
            let lut_batch_makespan = lut.worker_nl_cycles.iter().copied().max().unwrap();
            assert!(
                lut.makespan_nl_cycles > lut_batch_makespan,
                "LUT makespan must include switch stalls"
            );
            assert_eq!(
                lut.switch_cycles,
                lut.worker_switch_cycles.iter().sum::<u64>()
            );
            // The naive baseline pays the same stall model — a switch at
            // every arrival-order activation boundary, far more than the
            // run-grouped coalesced path — so the comparison is
            // symmetric and run grouping is what nl_speedup rewards.
            assert!(
                lut.naive_table_switches > lut.activations as u64,
                "interleaved arrivals must out-switch run grouping \
                 ({} naive switches)",
                lut.naive_table_switches
            );
            assert_eq!(nova.naive_table_switches, lut.naive_table_switches);
            assert_eq!(
                lut.naive_nl_cycles,
                lut.naive_batches * ApproximatorKind::PerNeuronLut.batch_latency_cycles()
                    + lut.naive_table_switches
                        * table_switch_cycles(ApproximatorKind::PerNeuronLut, 16),
                "naive cycles include the switch stalls"
            );
            assert_eq!(
                nova.naive_nl_cycles,
                nova.naive_batches * ApproximatorKind::NovaNoc.batch_latency_cycles(),
                "NOVA's naive path pays no stall either"
            );
        }
        // And the run-grouped coalescing still beats naive dispatch.
        let r =
            evaluate_multi_stream(&tech, &cfg, &requests, ApproximatorKind::NovaNoc, 1).unwrap();
        assert!(r.coalesced_batches < r.naive_batches);
    }

    #[test]
    fn sdp_costs_more_than_nova_on_jetson() {
        let cfg = AcceleratorConfig::jetson_xavier_nx();
        let m = BertConfig::mobilebert_tiny();
        let nova = evaluate(&cfg, &m, 128, ApproximatorKind::NovaNoc).unwrap();
        let sdp = evaluate(&cfg, &m, 128, ApproximatorKind::NvdlaSdp).unwrap();
        assert!(sdp.approximator_power_mw > 3.0 * nova.approximator_power_mw);
    }

    #[test]
    fn fused_softmax_model_packs_row_aligned_and_charges_double_switches() {
        let cfg = AcceleratorConfig::tpu_v4_like();
        let capacity = cfg.total_neurons() as u64;
        // Three rows that force a seal (two fit, the third spills) plus
        // a zero-width row that must be skipped.
        let rows = [capacity - 4, 3, capacity, 0];
        let r = evaluate_fused_softmax(&cfg, &rows, ApproximatorKind::NovaNoc, 1).unwrap();
        assert_eq!(r.rows, 3);
        assert_eq!(r.batches, 2, "row-aligned packing: [cap-4, 3], [cap]");
        assert_eq!(r.total_queries, 2 * capacity - 1);
        assert_eq!(
            r.nl_cycles,
            2 * 2 * ApproximatorKind::NovaNoc.batch_latency_cycles(),
            "two lookup passes per batch"
        );
        // Boot batch switches once (exp preloaded), the second twice.
        assert_eq!(r.table_switches, 3);
        assert_eq!(r.switch_cycles, 0);
        assert_eq!(r.switch_overhead_pct, 0.0, "NOVA's fused trace is free");
        // The same trace on LUT/SDP hardware pays strictly positive
        // overhead — the op-graph acceptance criterion.
        let lut = evaluate_fused_softmax(&cfg, &rows, ApproximatorKind::PerCoreLut, 1).unwrap();
        let sdp = evaluate_fused_softmax(&cfg, &rows, ApproximatorKind::NvdlaSdp, 1).unwrap();
        assert_eq!(lut.table_switches, 3, "same dispatch, same switches");
        assert!(lut.switch_overhead_pct > 0.0);
        assert!(sdp.switch_overhead_pct > lut.switch_overhead_pct);
        assert!(
            lut.makespan_nl_cycles > lut.nl_cycles - 1,
            "stalls included"
        );
        // Workers split the makespan but boot one exp table each.
        let two = evaluate_fused_softmax(&cfg, &rows, ApproximatorKind::PerCoreLut, 2).unwrap();
        assert_eq!(two.table_switches, 2, "each worker boots with exp");
        assert!(two.makespan_nl_cycles < lut.makespan_nl_cycles);
    }

    #[test]
    fn fused_softmax_model_rejects_bad_slates() {
        let cfg = AcceleratorConfig::tpu_v4_like();
        let capacity = cfg.total_neurons() as u64;
        for (rows, workers) in [
            (vec![4u64], 0usize),
            (vec![], 1),
            (vec![0], 1),
            (vec![capacity + 1], 1),
        ] {
            assert!(
                matches!(
                    evaluate_fused_softmax(&cfg, &rows, ApproximatorKind::NovaNoc, workers),
                    Err(NovaError::BatchShape(_))
                ),
                "{rows:?} x{workers}"
            );
        }
    }

    #[test]
    fn fused_trace_from_traffic_mix_evaluates() {
        let rows = nova_workloads::traffic::TrafficMix::fused_attention(8).fused_rows_slate();
        assert!(!rows.is_empty());
        let cfg = AcceleratorConfig::tpu_v4_like();
        let r = evaluate_fused_softmax(&cfg, &rows, ApproximatorKind::NovaNoc, 4).unwrap();
        assert_eq!(r.rows, rows.len() as u64);
        assert!(r.batch_occupancy_pct > 0.0 && r.batch_occupancy_pct <= 100.0);
        assert!(r.queries_per_second > 0.0);
    }
}
