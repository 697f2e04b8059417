//! One trait over all vector-unit implementations.
//!
//! The paper's comparison hinges on three units that compute *the same
//! function* with different hardware: the NOVA NoC, the per-neuron LUT and
//! the per-core LUT. [`VectorUnit`] captures the shared contract — batch
//! lookups over `(routers × neurons)` grids with bit-identical results —
//! while each implementation reports its own latency and activity.

use nova_accel::config::AcceleratorConfig;
use nova_approx::QuantizedPwl;
use nova_fixed::{Fixed, FixedBatch};
use nova_lut::{PerCoreLut, PerNeuronLut, SdpUnit};
use nova_noc::{multiline::SegmentedNoc, sim::BroadcastSim, LineConfig, LinkConfig};
use nova_synth::{timing, TechModel};

use crate::timeline::table_switch_cycles;
use crate::NovaError;

/// Per-batch lookup latency in accelerator cycles shared by NOVA and
/// the NN-LUT baselines: one cycle for the lookup (comparator address /
/// bank read) plus one for the MAC (paper §V.B: "NOVA's latency is
/// identical to that of the baseline"). The NVDLA SDP's pipeline is one
/// stage deeper — see [`ApproximatorKind::batch_latency_cycles`].
pub const BATCH_LATENCY_CYCLES: u64 = 2;

/// Which approximator hardware serves the non-linear queries.
///
/// This enum is the workspace's single dispatch axis: [`build`] /
/// [`line_for_kind`] turn a kind into a functional [`VectorUnit`],
/// [`ApproximatorKind::batch_latency_cycles`] gives its timing, and the
/// engine's cost models key their power/energy formulas off the same
/// variants — adding a new approximator means extending this enum and
/// the `match`es in those few places, all discoverable from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApproximatorKind {
    /// The NOVA NoC overlay.
    NovaNoc,
    /// Per-neuron LUT vector unit.
    PerNeuronLut,
    /// Per-core LUT vector unit.
    PerCoreLut,
    /// NVDLA's native SDP (Jetson host only).
    NvdlaSdp,
}

nova_serde::impl_serde_enum!(ApproximatorKind {
    NovaNoc,
    PerNeuronLut,
    PerCoreLut,
    NvdlaSdp
});

impl ApproximatorKind {
    /// Table III row label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ApproximatorKind::NovaNoc => "NOVA NoC",
            ApproximatorKind::PerNeuronLut => "naive LUT (per-neuron LUT)",
            ApproximatorKind::PerCoreLut => "naive LUT (per-core LUT)",
            ApproximatorKind::NvdlaSdp => "NVDLA SDP",
        }
    }

    /// Every variant, in Table III order.
    #[must_use]
    pub fn all() -> [ApproximatorKind; 4] {
        [
            ApproximatorKind::NovaNoc,
            ApproximatorKind::PerNeuronLut,
            ApproximatorKind::PerCoreLut,
            ApproximatorKind::NvdlaSdp,
        ]
    }

    /// The three Fig 8 contenders.
    #[must_use]
    pub fn fig8_contenders() -> [ApproximatorKind; 3] {
        [
            ApproximatorKind::NovaNoc,
            ApproximatorKind::PerNeuronLut,
            ApproximatorKind::PerCoreLut,
        ]
    }

    /// Per-batch lookup latency of this kind's hardware, in accelerator
    /// cycles: NOVA and the NN-LUT baselines share the 2-cycle
    /// lookup+MAC path; the SDP's datapath is one pipeline stage deeper
    /// (read, interpolate, scale).
    #[must_use]
    pub fn batch_latency_cycles(self) -> u64 {
        match self {
            ApproximatorKind::NovaNoc
            | ApproximatorKind::PerNeuronLut
            | ApproximatorKind::PerCoreLut => BATCH_LATENCY_CYCLES,
            ApproximatorKind::NvdlaSdp => SdpUnit::PIPELINE_STAGES,
        }
    }
}

/// The host-side parameters the kind → geometry dispatch needs: how
/// many vector-unit sites the host exposes, how they are spaced, and
/// the clock the NoC would be programmed against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostGeometry {
    /// Vector-unit sites (NOVA routers / LUT cores) on the host.
    pub routers: usize,
    /// Output neurons served per site.
    pub neurons_per_router: usize,
    /// Host core clock (GHz).
    pub core_ghz: f64,
    /// Physical spacing between adjacent sites (mm).
    pub pitch_mm: f64,
}

impl HostGeometry {
    /// Reads the geometry off a Table II configuration.
    #[must_use]
    pub fn of(config: &AcceleratorConfig) -> Self {
        Self {
            routers: config.nova_routers,
            neurons_per_router: config.neurons_per_router,
            core_ghz: config.frequency_ghz(),
            pitch_mm: config.router_pitch_mm,
        }
    }
}

/// Derives the line geometry `kind` needs on `host` — the one place the
/// kind → geometry dispatch lives.
///
/// Only the NOVA NoC compiles a broadcast schedule (to program the NoC
/// clock and derive the SMART reach). LUT/SDP units have no line to
/// cover, so they get a trivially covering reach and tables too large
/// for the link's tag space still build on LUT hardware.
///
/// # Errors
///
/// Propagates broadcast-schedule compilation errors (NOVA kind only).
pub fn line_for_kind(
    kind: ApproximatorKind,
    tech: &TechModel,
    table: &QuantizedPwl,
    link: LinkConfig,
    host: HostGeometry,
) -> Result<LineConfig, NovaError> {
    let reach = match kind {
        ApproximatorKind::NovaNoc => {
            let schedule = nova_noc::BroadcastSchedule::compile(table, link)?;
            let noc_ghz = host.core_ghz * schedule.noc_clock_multiplier() as f64;
            timing::max_hops_per_cycle(tech, noc_ghz, host.pitch_mm).max(1)
        }
        ApproximatorKind::PerNeuronLut
        | ApproximatorKind::PerCoreLut
        | ApproximatorKind::NvdlaSdp => host.routers.max(1),
    };
    Ok(LineConfig {
        routers: host.routers,
        neurons_per_router: host.neurons_per_router,
        link,
        max_hops_per_cycle: reach,
    })
}

/// Builds the functional vector unit for `kind` on an explicit line
/// geometry — the workspace's one construction point for approximator
/// hardware.
///
/// The NOVA arm picks the plain line when the SMART reach covers it in
/// one cycle and the segmented line otherwise, so callers get the
/// paper's latency behavior without re-implementing that choice.
///
/// # Errors
///
/// Propagates NoC configuration/schedule errors.
pub fn build(
    kind: ApproximatorKind,
    config: LineConfig,
    table: &QuantizedPwl,
) -> Result<Box<dyn VectorUnit>, NovaError> {
    Ok(match kind {
        ApproximatorKind::NovaNoc => {
            if config.max_hops_per_cycle >= config.routers {
                Box::new(NovaVectorUnit::new(config, table)?)
            } else {
                Box::new(SegmentedNovaUnit::new(config, table)?)
            }
        }
        ApproximatorKind::PerNeuronLut => Box::new(LutVectorUnit::new(
            table,
            config.routers,
            config.neurons_per_router,
            LutVariant::PerNeuron,
        )),
        ApproximatorKind::PerCoreLut => Box::new(LutVectorUnit::new(
            table,
            config.routers,
            config.neurons_per_router,
            LutVariant::PerCore,
        )),
        ApproximatorKind::NvdlaSdp => Box::new(SdpVectorUnit::new(
            table,
            config.routers,
            config.neurons_per_router,
        )),
    })
}

/// Builds the functional vector unit for `kind` on a Table II host: the
/// line geometry (router count, neurons, SMART reach at the programmed
/// NoC clock) is derived from `config` and `tech` exactly as the
/// overlay does it.
///
/// # Errors
///
/// Propagates NoC configuration/schedule errors.
pub fn build_for_host(
    kind: ApproximatorKind,
    tech: &TechModel,
    config: &AcceleratorConfig,
    table: &QuantizedPwl,
) -> Result<Box<dyn VectorUnit>, NovaError> {
    let line = line_for_kind(
        kind,
        tech,
        table,
        LinkConfig::paper(),
        HostGeometry::of(config),
    )?;
    build(kind, line, table)
}

/// Validates a `(routers × neurons)` batch: the row count and every
/// row's width must match the unit's grid. Shared by all [`VectorUnit`]
/// implementations so malformed batches — including ragged ones, where
/// one row is narrower than `neurons_per_router` — are rejected with a
/// uniform [`NovaError::BatchShape`] before any lookup runs or counter
/// advances.
///
/// # Errors
///
/// Returns [`NovaError::BatchShape`] naming the offending dimension.
pub fn validate_batch_shape(
    inputs: &[Vec<Fixed>],
    routers: usize,
    neurons: usize,
) -> Result<(), NovaError> {
    if inputs.len() != routers {
        return Err(NovaError::BatchShape(format!(
            "{} rows for {routers} cores",
            inputs.len()
        )));
    }
    if let Some((r, row)) = inputs
        .iter()
        .enumerate()
        .find(|(_, row)| row.len() != neurons)
    {
        return Err(NovaError::BatchShape(format!(
            "row {r} has {} values for {neurons} neurons per core",
            row.len()
        )));
    }
    Ok(())
}

/// Validates a flat [`FixedBatch`] against a unit's `(routers × neurons)`
/// grid — the flat-path twin of [`validate_batch_shape`], shared by all
/// [`VectorUnit`] implementations so malformed batches are rejected with
/// a uniform [`NovaError::BatchShape`] before any lookup runs or counter
/// advances.
///
/// # Errors
///
/// Returns [`NovaError::BatchShape`] naming the offending dimension.
pub fn validate_flat_shape(
    inputs: &FixedBatch,
    routers: usize,
    neurons: usize,
) -> Result<(), NovaError> {
    if inputs.dims() != (routers, neurons) {
        let (r, n) = inputs.dims();
        return Err(NovaError::BatchShape(format!(
            "{r}×{n} batch for a {routers}×{neurons} grid"
        )));
    }
    Ok(())
}

/// A batch-lookup vector unit: the functional contract shared by NOVA and
/// the LUT baselines.
///
/// The primitive operation is the *flat* path
/// [`lookup_batch_into`](Self::lookup_batch_into): one contiguous
/// [`FixedBatch`] in, results written into a caller-recycled
/// [`FixedBatch`] out, with no allocation on the steady-state path. The
/// nested [`lookup_batch`](Self::lookup_batch) survives as a provided
/// compatibility shim that round-trips through flat buffers.
///
/// The trait is `Send` so a `Box<dyn VectorUnit>` can be moved into a
/// worker thread — the serving runtime gives each shard worker its own
/// unit and feeds it batches over a channel. Implementations are plain
/// owned data (simulator state, LUT banks), so this costs nothing.
pub trait VectorUnit: Send {
    /// Display name (matches the Table III row labels).
    fn name(&self) -> &str;

    /// Evaluates one flat batch: slot `r * neurons + n` of `inputs` →
    /// the same slot of `out`, bit-identical to the quantized table.
    ///
    /// `out` is reshaped to the unit's grid by the implementation
    /// (contents discarded, allocation reused), so callers recycle one
    /// buffer across batches and the steady state is allocation-free.
    ///
    /// # Errors
    ///
    /// Implementations return [`NovaError::BatchShape`] when `inputs`
    /// does not match the unit's grid (no counter advances), and
    /// propagate format mismatches.
    fn lookup_batch_into(
        &mut self,
        inputs: &FixedBatch,
        out: &mut FixedBatch,
    ) -> Result<(), NovaError>;

    /// Evaluates one nested batch: `inputs[r][n]` → approximated outputs
    /// with the same shape. Compatibility shim over
    /// [`lookup_batch_into`](Self::lookup_batch_into) — it pays a
    /// flatten/reshape round trip, so hot loops should hold
    /// [`FixedBatch`] buffers instead.
    ///
    /// # Errors
    ///
    /// Returns [`NovaError::BatchShape`] for ragged or mis-shaped
    /// batches; propagates unit errors otherwise.
    fn lookup_batch(&mut self, inputs: &[Vec<Fixed>]) -> Result<Vec<Vec<Fixed>>, NovaError> {
        // Raggedness has no flat representation; reject it here with the
        // same error the nested validators used, before any counter moves.
        let neurons = inputs.first().map_or(0, Vec::len);
        validate_batch_shape(inputs, inputs.len(), neurons)?;
        let flat = FixedBatch::from_rows(inputs).expect("raggedness rejected above");
        let mut out = FixedBatch::empty();
        self.lookup_batch_into(&flat, &mut out)?;
        Ok(out.to_rows())
    }

    /// Re-programs the unit to serve `table`, returning the stall the
    /// switch costs in accelerator cycles —
    /// [`crate::timeline::table_switch_cycles`] of the unit's kind and
    /// the table's segment count. The NOVA NoC stores nothing (the next
    /// broadcast simply carries the next table's pairs), so its switch is
    /// free; LUT banks pay one cycle per entry and the SDP's larger
    /// interpolation tables proportionally more. After a successful
    /// switch the unit is bit-identical to the new table; lookup
    /// counters are preserved.
    ///
    /// # Errors
    ///
    /// Propagates re-programming failures (e.g. a NoC schedule that
    /// cannot address the new table); on error the old table stays
    /// active.
    fn switch_table(&mut self, table: &QuantizedPwl) -> Result<u64, NovaError>;

    /// Effective per-batch latency in accelerator cycles. Before the
    /// first batch runs this is the schedule's nominal per-batch latency
    /// (never a stale 0); afterwards it is the last batch's measured
    /// latency.
    fn latency_cycles(&self) -> u64;

    /// Total lookups served so far.
    fn lookups(&self) -> u64;
}

/// The NOVA NoC as a vector unit (wraps the cycle-accurate simulator).
#[derive(Debug, Clone)]
pub struct NovaVectorUnit {
    sim: BroadcastSim,
    last_latency: u64,
    lookups: u64,
}

impl NovaVectorUnit {
    /// Builds the unit for a line geometry and table.
    ///
    /// # Errors
    ///
    /// Propagates NoC configuration/schedule errors.
    pub fn new(config: LineConfig, table: &QuantizedPwl) -> Result<Self, NovaError> {
        let sim = BroadcastSim::new(config, table)?;
        // Seed the latency with the schedule's nominal per-batch value so
        // callers that query before the first batch don't read a stale 0.
        let last_latency = sim.nominal_core_cycle_latency();
        Ok(Self {
            sim,
            last_latency,
            lookups: 0,
        })
    }

    /// The underlying simulator (for stats inspection).
    #[must_use]
    pub fn sim(&self) -> &BroadcastSim {
        &self.sim
    }
}

impl VectorUnit for NovaVectorUnit {
    fn name(&self) -> &str {
        "NOVA NoC"
    }

    fn lookup_batch_into(
        &mut self,
        inputs: &FixedBatch,
        out: &mut FixedBatch,
    ) -> Result<(), NovaError> {
        let config = self.sim.config();
        validate_flat_shape(inputs, config.routers, config.neurons_per_router)?;
        out.reset(
            config.routers,
            config.neurons_per_router,
            Fixed::zero(self.sim.table().format()),
        );
        let stats = self.sim.run_flat(inputs.as_slice(), out.as_mut_slice())?;
        self.last_latency = stats.core_cycle_latency;
        self.lookups += inputs.len() as u64;
        Ok(())
    }

    fn switch_table(&mut self, table: &QuantizedPwl) -> Result<u64, NovaError> {
        // The table lives on the wire: re-programming compiles the new
        // broadcast schedule and re-points the line at the shared table.
        // `set_table` compiles before it changes anything, so a refused
        // switch leaves the old table active.
        self.sim.set_table(table)?;
        self.last_latency = self.sim.nominal_core_cycle_latency();
        Ok(table_switch_cycles(
            ApproximatorKind::NovaNoc,
            table.segments() as u64,
        ))
    }

    fn latency_cycles(&self) -> u64 {
        self.last_latency
    }

    fn lookups(&self) -> u64 {
        self.lookups
    }
}

/// The segmented NOVA NoC as a vector unit: parallel line segments keep
/// the broadcast single-cycle when the host has more routers than the
/// SMART reach covers (e.g. 8 TPU MXUs at a 2.8 GHz NoC clock with a
/// 5-router reach).
#[derive(Debug, Clone)]
pub struct SegmentedNovaUnit {
    noc: SegmentedNoc,
    last_latency: u64,
    lookups: u64,
}

impl SegmentedNovaUnit {
    /// Builds the unit, splitting `config.routers` into the fewest
    /// segments that each fit the single-cycle reach.
    ///
    /// # Errors
    ///
    /// Propagates NoC configuration/schedule errors.
    pub fn new(config: LineConfig, table: &QuantizedPwl) -> Result<Self, NovaError> {
        let noc = SegmentedNoc::new(config, table)?;
        // As for the plain line: report the nominal schedule latency
        // until a batch supplies a measured value.
        let last_latency = noc.nominal_core_cycle_latency();
        Ok(Self {
            noc,
            last_latency,
            lookups: 0,
        })
    }

    /// Number of parallel line segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.noc.segment_count()
    }
}

impl VectorUnit for SegmentedNovaUnit {
    fn name(&self) -> &str {
        "NOVA NoC (segmented)"
    }

    fn lookup_batch_into(
        &mut self,
        inputs: &FixedBatch,
        out: &mut FixedBatch,
    ) -> Result<(), NovaError> {
        let config = self.noc.config();
        validate_flat_shape(inputs, config.routers, config.neurons_per_router)?;
        out.reset(
            config.routers,
            config.neurons_per_router,
            Fixed::zero(self.noc.table().format()),
        );
        let stats = self.noc.run_flat(inputs.as_slice(), out.as_mut_slice())?;
        self.last_latency = stats.core_cycle_latency;
        self.lookups += inputs.len() as u64;
        Ok(())
    }

    fn switch_table(&mut self, table: &QuantizedPwl) -> Result<u64, NovaError> {
        // As for the plain line, on every segment at once.
        self.noc.set_table(table)?;
        self.last_latency = self.noc.nominal_core_cycle_latency();
        Ok(table_switch_cycles(
            ApproximatorKind::NovaNoc,
            table.segments() as u64,
        ))
    }

    fn latency_cycles(&self) -> u64 {
        self.last_latency
    }

    fn lookups(&self) -> u64 {
        self.lookups
    }
}

/// Which LUT baseline a [`LutVectorUnit`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LutVariant {
    /// One single-ported bank per neuron.
    PerNeuron,
    /// One multi-ported bank per core.
    PerCore,
}

/// A LUT-based vector unit spread across `routers` cores.
#[derive(Debug, Clone)]
pub struct LutVectorUnit {
    variant: LutVariant,
    per_neuron: Vec<PerNeuronLut>,
    per_core: Vec<PerCoreLut>,
    neurons: usize,
    format: nova_fixed::QFormat,
    lookups: u64,
}

impl LutVectorUnit {
    /// Builds `routers` cores of `neurons` each, sharing per the variant.
    ///
    /// # Panics
    ///
    /// Panics if `routers == 0` or `neurons == 0`.
    #[must_use]
    pub fn new(table: &QuantizedPwl, routers: usize, neurons: usize, variant: LutVariant) -> Self {
        assert!(
            routers > 0 && neurons > 0,
            "need at least one core and neuron"
        );
        let (per_neuron, per_core) = match variant {
            LutVariant::PerNeuron => (
                (0..routers)
                    .map(|_| PerNeuronLut::new(table, neurons))
                    .collect(),
                Vec::new(),
            ),
            LutVariant::PerCore => (
                Vec::new(),
                (0..routers)
                    .map(|_| PerCoreLut::new(table, neurons))
                    .collect(),
            ),
        };
        Self {
            variant,
            per_neuron,
            per_core,
            neurons,
            format: table.format(),
            lookups: 0,
        }
    }
}

impl VectorUnit for LutVectorUnit {
    fn name(&self) -> &str {
        match self.variant {
            LutVariant::PerNeuron => "naive LUT (per-neuron LUT)",
            LutVariant::PerCore => "naive LUT (per-core LUT)",
        }
    }

    fn lookup_batch_into(
        &mut self,
        inputs: &FixedBatch,
        out: &mut FixedBatch,
    ) -> Result<(), NovaError> {
        let cores = self.per_neuron.len().max(self.per_core.len());
        validate_flat_shape(inputs, cores, self.neurons)?;
        out.reset(cores, self.neurons, Fixed::zero(self.format));
        match self.variant {
            LutVariant::PerNeuron => {
                for (r, unit) in self.per_neuron.iter_mut().enumerate() {
                    unit.lookup_into(inputs.row(r), out.row_mut(r))?;
                }
            }
            LutVariant::PerCore => {
                for (r, unit) in self.per_core.iter_mut().enumerate() {
                    unit.lookup_into(inputs.row(r), out.row_mut(r))?;
                }
            }
        }
        self.lookups += inputs.len() as u64;
        Ok(())
    }

    fn switch_table(&mut self, table: &QuantizedPwl) -> Result<u64, NovaError> {
        // Every bank is rewritten: one cycle per entry with a single
        // write port (shared or not, the rewrite serializes per bank
        // set). The modeled banks rewrite in place and each core shares
        // the table instead of copying it, so a serving worker's
        // run-boundary switch stays off the allocator's hot path.
        let kind = match self.variant {
            LutVariant::PerNeuron => {
                for core in &mut self.per_neuron {
                    core.reprogram(table);
                }
                ApproximatorKind::PerNeuronLut
            }
            LutVariant::PerCore => {
                for core in &mut self.per_core {
                    core.reprogram(table);
                }
                ApproximatorKind::PerCoreLut
            }
        };
        self.format = table.format();
        Ok(table_switch_cycles(kind, table.segments() as u64))
    }

    fn latency_cycles(&self) -> u64 {
        BATCH_LATENCY_CYCLES // lookup + MAC (paper §V.B: same latency as NOVA)
    }

    fn lookups(&self) -> u64 {
        self.lookups
    }
}

/// NVDLA's native SDP as a vector unit: one single-throughput SDP engine
/// per core (router). Functionally identical to the table like every
/// other unit; the cost difference lives in the synthesis model.
#[derive(Debug, Clone)]
pub struct SdpVectorUnit {
    cores: Vec<SdpUnit>,
    /// Lanes per core, cached at construction (identical across cores by
    /// construction) so the per-batch hot path never re-derives it from
    /// `cores.first()`.
    neurons: usize,
    format: nova_fixed::QFormat,
    lookups: u64,
}

impl SdpVectorUnit {
    /// Builds `routers` SDP engines of `neurons` lanes each.
    ///
    /// # Panics
    ///
    /// Panics if `routers == 0` or `neurons == 0`.
    #[must_use]
    pub fn new(table: &QuantizedPwl, routers: usize, neurons: usize) -> Self {
        assert!(
            routers > 0 && neurons > 0,
            "need at least one core and neuron"
        );
        Self {
            cores: (0..routers).map(|_| SdpUnit::new(table, neurons)).collect(),
            neurons,
            format: table.format(),
            lookups: 0,
        }
    }
}

impl VectorUnit for SdpVectorUnit {
    fn name(&self) -> &str {
        "NVDLA SDP"
    }

    fn lookup_batch_into(
        &mut self,
        inputs: &FixedBatch,
        out: &mut FixedBatch,
    ) -> Result<(), NovaError> {
        validate_flat_shape(inputs, self.cores.len(), self.neurons)?;
        out.reset(self.cores.len(), self.neurons, Fixed::zero(self.format));
        for (r, core) in self.cores.iter_mut().enumerate() {
            core.lookup_into(inputs.row(r), out.row_mut(r))?;
        }
        self.lookups += inputs.len() as u64;
        Ok(())
    }

    fn switch_table(&mut self, table: &QuantizedPwl) -> Result<u64, NovaError> {
        // In-place interpolation-table rewrite per core (the table
        // itself is shared, not copied); activity counters preserved.
        for core in &mut self.cores {
            core.reprogram(table);
        }
        self.format = table.format();
        Ok(table_switch_cycles(
            ApproximatorKind::NvdlaSdp,
            table.segments() as u64,
        ))
    }

    fn latency_cycles(&self) -> u64 {
        // The SDP datapath is one pipeline stage deeper than the
        // 2-cycle NN-LUT/NOVA path (read, interpolate, scale).
        SdpUnit::PIPELINE_STAGES
    }

    fn lookups(&self) -> u64 {
        self.lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_approx::{fit, Activation};
    use nova_fixed::{Rounding, Q4_12};

    fn table() -> QuantizedPwl {
        let pwl =
            fit::fit_activation(Activation::Gelu, 16, fit::BreakpointStrategy::Uniform).unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    fn batch(routers: usize, neurons: usize) -> Vec<Vec<Fixed>> {
        (0..routers)
            .map(|r| {
                (0..neurons)
                    .map(|n| {
                        Fixed::from_f64(
                            ((r * neurons + n) as f64 * 0.37).sin() * 5.0,
                            Q4_12,
                            Rounding::NearestEven,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn all_three_units_agree_bit_for_bit() {
        let t = table();
        let inputs = batch(4, 16);
        let mut nova = NovaVectorUnit::new(LineConfig::paper_default(4, 16), &t).unwrap();
        let mut pn = LutVectorUnit::new(&t, 4, 16, LutVariant::PerNeuron);
        let mut pc = LutVectorUnit::new(&t, 4, 16, LutVariant::PerCore);
        let a = nova.lookup_batch(&inputs).unwrap();
        let b = pn.lookup_batch(&inputs).unwrap();
        let c = pc.lookup_batch(&inputs).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        // And all equal the table.
        for (r, row) in inputs.iter().enumerate() {
            for (n, &x) in row.iter().enumerate() {
                assert_eq!(a[r][n], t.eval(x));
            }
        }
    }

    #[test]
    fn latency_parity() {
        // Paper: "NOVA's latency is identical to that of the baseline".
        let t = table();
        let inputs = batch(10, 8);
        let mut nova = NovaVectorUnit::new(LineConfig::paper_default(10, 8), &t).unwrap();
        let mut pn = LutVectorUnit::new(&t, 10, 8, LutVariant::PerNeuron);
        nova.lookup_batch(&inputs).unwrap();
        pn.lookup_batch(&inputs).unwrap();
        assert_eq!(nova.latency_cycles(), pn.latency_cycles());
    }

    #[test]
    fn lookup_counters() {
        let t = table();
        let mut pc = LutVectorUnit::new(&t, 2, 8, LutVariant::PerCore);
        pc.lookup_batch(&batch(2, 8)).unwrap();
        pc.lookup_batch(&batch(2, 8)).unwrap();
        assert_eq!(pc.lookups(), 32);
    }

    #[test]
    fn lut_batch_shape_checked() {
        let t = table();
        let mut pn = LutVectorUnit::new(&t, 3, 8, LutVariant::PerNeuron);
        assert!(matches!(
            pn.lookup_batch(&batch(2, 8)),
            Err(NovaError::BatchShape(_))
        ));
    }

    #[test]
    fn segmented_unit_restores_single_cycle_latency() {
        let t = table();
        let mut config = LineConfig::paper_default(8, 4);
        config.max_hops_per_cycle = 5; // TPU-like 2.8 GHz reach
        let inputs = batch(8, 4);
        let mut plain = NovaVectorUnit::new(config, &t).unwrap();
        let mut seg = SegmentedNovaUnit::new(config, &t).unwrap();
        let a = plain.lookup_batch(&inputs).unwrap();
        let b = seg.lookup_batch(&inputs).unwrap();
        assert_eq!(a, b, "segmentation is functionally invisible");
        assert_eq!(seg.segments(), 2);
        assert!(seg.latency_cycles() < plain.latency_cycles());
        assert_eq!(seg.latency_cycles(), 2);
    }

    #[test]
    fn factory_covers_every_kind_and_all_agree() {
        let t = table();
        let inputs = batch(3, 8);
        let config = LineConfig::paper_default(3, 8);
        let expect: Vec<Vec<Fixed>> = inputs
            .iter()
            .map(|row| row.iter().map(|&x| t.eval(x)).collect())
            .collect();
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, config, &t).unwrap();
            assert_eq!(
                unit.lookup_batch(&inputs).unwrap(),
                expect,
                "{} diverges from the table",
                unit.name()
            );
            assert_eq!(unit.lookups(), 24);
        }
    }

    #[test]
    fn factory_segments_nova_beyond_reach() {
        let t = table();
        let mut config = LineConfig::paper_default(8, 4);
        config.max_hops_per_cycle = 5;
        let mut unit = build(ApproximatorKind::NovaNoc, config, &t).unwrap();
        unit.lookup_batch(&batch(8, 4)).unwrap();
        assert_eq!(unit.name(), "NOVA NoC (segmented)");
        assert_eq!(unit.latency_cycles(), BATCH_LATENCY_CYCLES);
    }

    #[test]
    fn host_factory_matches_line_factory() {
        let t = table();
        let cfg = AcceleratorConfig::jetson_xavier_nx();
        let tech = TechModel::cmos22();
        let inputs = batch(cfg.nova_routers, cfg.neurons_per_router);
        for kind in ApproximatorKind::all() {
            let mut unit = build_for_host(kind, &tech, &cfg, &t).unwrap();
            let out = unit.lookup_batch(&inputs).unwrap();
            for (row_out, row_in) in out.iter().zip(&inputs) {
                for (&o, &x) in row_out.iter().zip(row_in) {
                    assert_eq!(o, t.eval(x), "{}", kind.label());
                }
            }
        }
    }

    #[test]
    fn sdp_latency_reflects_deeper_pipeline() {
        let t = table();
        let mut unit = build(
            ApproximatorKind::NvdlaSdp,
            LineConfig::paper_default(2, 8),
            &t,
        )
        .unwrap();
        unit.lookup_batch(&batch(2, 8)).unwrap();
        // Read, interpolate, scale: one stage deeper than NN-LUT/NOVA.
        assert_eq!(unit.latency_cycles(), 3);
        assert!(unit.latency_cycles() > BATCH_LATENCY_CYCLES);
    }

    #[test]
    fn oversized_tables_still_build_on_lut_hardware() {
        // 32 segments need 4 flits — beyond the paper link's 1-bit tag
        // space — so the NoC must refuse, but LUT/SDP hardware has no
        // broadcast line and must keep working.
        let pwl =
            fit::fit_activation(Activation::Gelu, 32, fit::BreakpointStrategy::Uniform).unwrap();
        let t = QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap();
        let cfg = AcceleratorConfig::react();
        let tech = TechModel::cmos22();
        for kind in [
            ApproximatorKind::PerNeuronLut,
            ApproximatorKind::PerCoreLut,
            ApproximatorKind::NvdlaSdp,
        ] {
            let mut unit = build_for_host(kind, &tech, &cfg, &t)
                .unwrap_or_else(|e| panic!("{} must build: {e}", kind.label()));
            let inputs = batch(cfg.nova_routers, cfg.neurons_per_router);
            let out = unit.lookup_batch(&inputs).unwrap();
            assert_eq!(out[0][0], t.eval(inputs[0][0]));
        }
        assert!(
            build_for_host(ApproximatorKind::NovaNoc, &tech, &cfg, &t).is_err(),
            "the NoC link's tag space cannot address 4 flits"
        );
    }

    #[test]
    fn latency_reported_before_first_batch() {
        // Regression: `latency_cycles()` used to return a stale 0 until
        // the first batch ran. It must report the schedule's nominal
        // per-batch latency from construction, and that nominal value
        // must agree with the measured one.
        let t = table();
        let mut plain = NovaVectorUnit::new(LineConfig::paper_default(4, 16), &t).unwrap();
        let before = plain.latency_cycles();
        assert!(
            before > 0,
            "nominal latency must be reported before any batch"
        );
        plain.lookup_batch(&batch(4, 16)).unwrap();
        assert_eq!(before, plain.latency_cycles());

        let mut config = LineConfig::paper_default(8, 4);
        config.max_hops_per_cycle = 5;
        let mut seg = SegmentedNovaUnit::new(config, &t).unwrap();
        let before = seg.latency_cycles();
        assert!(before > 0);
        seg.lookup_batch(&batch(8, 4)).unwrap();
        assert_eq!(before, seg.latency_cycles());
    }

    #[test]
    fn ragged_batches_rejected_uniformly() {
        // A batch with the right row count but one under-width row must
        // be rejected with `NovaError::BatchShape` by every unit, before
        // any lookup is counted.
        let t = table();
        let config = LineConfig::paper_default(3, 8);
        let mut ragged = batch(3, 8);
        ragged[1].pop();
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, config, &t).unwrap();
            assert!(
                matches!(unit.lookup_batch(&ragged), Err(NovaError::BatchShape(_))),
                "{} accepted a ragged batch",
                unit.name()
            );
            assert_eq!(
                unit.lookups(),
                0,
                "{} counted a rejected batch",
                unit.name()
            );
        }
    }

    #[test]
    fn flat_path_bit_identical_to_nested_for_every_kind() {
        // The tentpole contract: `lookup_batch_into` over one contiguous
        // buffer produces exactly the words the legacy nested path (and
        // the table) produce, for every approximator kind.
        let t = table();
        let inputs = batch(4, 16);
        let flat = FixedBatch::from_rows(&inputs).unwrap();
        let config = LineConfig::paper_default(4, 16);
        for kind in ApproximatorKind::all() {
            let mut nested_unit = build(kind, config, &t).unwrap();
            let mut flat_unit = build(kind, config, &t).unwrap();
            let nested = nested_unit.lookup_batch(&inputs).unwrap();
            let mut out = FixedBatch::empty();
            flat_unit.lookup_batch_into(&flat, &mut out).unwrap();
            assert_eq!(out.to_rows(), nested, "{}", kind.label());
            assert_eq!(flat_unit.lookups(), 64, "{}", kind.label());
            for (r, row) in inputs.iter().enumerate() {
                for (n, &x) in row.iter().enumerate() {
                    assert_eq!(out.row(r)[n], t.eval(x), "{}", kind.label());
                }
            }
        }
    }

    #[test]
    fn flat_output_buffer_is_recycled_without_reallocation() {
        // The zero-copy contract: a reused output buffer reaches a steady
        // state where repeated batches never grow its allocation.
        let t = table();
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, LineConfig::paper_default(3, 8), &t).unwrap();
            let flat = FixedBatch::from_rows(&batch(3, 8)).unwrap();
            let mut out = FixedBatch::empty();
            unit.lookup_batch_into(&flat, &mut out).unwrap();
            let cap = out.capacity();
            for _ in 0..4 {
                unit.lookup_batch_into(&flat, &mut out).unwrap();
                assert_eq!(out.capacity(), cap, "{} reallocated", unit.name());
            }
        }
    }

    #[test]
    fn flat_shape_mismatch_rejected_before_counters_move() {
        let t = table();
        let wrong = FixedBatch::from_rows(&batch(2, 8)).unwrap();
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, LineConfig::paper_default(3, 8), &t).unwrap();
            let mut out = FixedBatch::empty();
            assert!(
                matches!(
                    unit.lookup_batch_into(&wrong, &mut out),
                    Err(NovaError::BatchShape(_))
                ),
                "{} accepted a mis-shaped flat batch",
                unit.name()
            );
            assert_eq!(unit.lookups(), 0, "{}", unit.name());
        }
    }

    #[test]
    fn switch_table_reprograms_every_kind_bit_identically() {
        // The multi-tenant serving contract: after `switch_table` the
        // unit serves the *new* table bit for bit, lookup counters are
        // preserved, and the stall cost matches the timeline model —
        // 0 for NOVA (the table lives on the wire), `entries` cycles for
        // LUT banks, `entries × 16` for the SDP.
        let gelu = table();
        let exp_pwl =
            fit::fit_activation(Activation::Exp, 16, fit::BreakpointStrategy::Uniform).unwrap();
        let exp = QuantizedPwl::from_pwl(&exp_pwl, Q4_12, Rounding::NearestEven).unwrap();
        let inputs = batch(3, 8);
        let config = LineConfig::paper_default(3, 8);
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, config, &gelu).unwrap();
            unit.lookup_batch(&inputs).unwrap();
            let lookups_before = unit.lookups();
            let cost = unit.switch_table(&exp).unwrap();
            assert_eq!(
                cost,
                table_switch_cycles(kind, exp.segments() as u64),
                "{}",
                kind.label()
            );
            assert_eq!(unit.lookups(), lookups_before, "{}", kind.label());
            let out = unit.lookup_batch(&inputs).unwrap();
            for (row_out, row_in) in out.iter().zip(&inputs) {
                for (&o, &x) in row_out.iter().zip(row_in) {
                    assert_eq!(o, exp.eval(x), "{} serves the old table", kind.label());
                }
            }
        }
        // The cost asymmetry the serving stats surface: free on NOVA,
        // linear on LUTs, heaviest on the SDP.
        let entries = exp.segments() as u64;
        assert_eq!(table_switch_cycles(ApproximatorKind::NovaNoc, entries), 0);
        assert!(
            table_switch_cycles(ApproximatorKind::NvdlaSdp, entries)
                > table_switch_cycles(ApproximatorKind::PerCoreLut, entries)
        );
    }

    #[test]
    fn failed_switch_keeps_the_old_table_active() {
        // A 32-segment table needs more flits than the paper link's tag
        // space addresses: the NOVA NoC must refuse the switch and keep
        // serving the old table — on a plain line and on every segment of
        // a segmented one, through the fast path and through the
        // flit-level reference, which reads the router comparators.
        let gelu = table();
        let big_pwl =
            fit::fit_activation(Activation::Gelu, 32, fit::BreakpointStrategy::Uniform).unwrap();
        let big = QuantizedPwl::from_pwl(&big_pwl, Q4_12, Rounding::NearestEven).unwrap();
        let gelu_batch = |config: LineConfig| {
            let rows = batch(config.routers, config.neurons_per_router);
            let inputs = FixedBatch::from_rows(&rows).unwrap();
            let expect: Vec<Fixed> = inputs.as_slice().iter().map(|&x| gelu.eval(x)).collect();
            let blank = vec![Fixed::zero(Q4_12); expect.len()];
            (inputs, expect, blank)
        };
        let mut out = FixedBatch::empty();

        let plain_config = LineConfig::paper_default(2, 4);
        let mut plain = NovaVectorUnit::new(plain_config, &gelu).unwrap();
        let latency = plain.latency_cycles();
        assert!(plain.switch_table(&big).is_err());
        assert_eq!(plain.latency_cycles(), latency);
        let (inputs, expect, mut ref_out) = gelu_batch(plain_config);
        plain.lookup_batch_into(&inputs, &mut out).unwrap();
        assert_eq!(out.as_slice(), expect, "plain line, fast path");
        plain
            .sim
            .run_flat_reference(inputs.as_slice(), &mut ref_out)
            .unwrap();
        assert_eq!(ref_out, expect, "plain line, reference path");

        let seg_config = LineConfig {
            max_hops_per_cycle: 5,
            ..LineConfig::paper_default(12, 16)
        };
        let mut seg = SegmentedNovaUnit::new(seg_config, &gelu).unwrap();
        assert_eq!(seg.segments(), 3);
        let latency = seg.latency_cycles();
        assert!(seg.switch_table(&big).is_err());
        assert_eq!(seg.latency_cycles(), latency);
        let (inputs, expect, mut ref_out) = gelu_batch(seg_config);
        seg.lookup_batch_into(&inputs, &mut out).unwrap();
        assert_eq!(out.as_slice(), expect, "segmented line, fast path");
        seg.noc
            .run_flat_reference(inputs.as_slice(), &mut ref_out)
            .unwrap();
        assert_eq!(ref_out, expect, "segmented line, reference path");
    }

    #[test]
    fn nova_switch_shares_the_table_on_every_segment() {
        // Re-programming a NOVA unit is a pointer copy: after
        // `switch_table(&t)` the line's table reads `t`'s own storage, on
        // the plain line and on every segment of a segmented one.
        let exp_pwl =
            fit::fit_activation(Activation::Exp, 16, fit::BreakpointStrategy::Uniform).unwrap();
        let exp = QuantizedPwl::from_pwl(&exp_pwl, Q4_12, Rounding::NearestEven).unwrap();
        let shares = |t: &QuantizedPwl| t.slopes_raw().as_ptr() == exp.slopes_raw().as_ptr();

        let mut plain = NovaVectorUnit::new(LineConfig::paper_default(4, 16), &table()).unwrap();
        plain.switch_table(&exp).unwrap();
        assert!(shares(plain.sim().table()));

        let config = LineConfig {
            max_hops_per_cycle: 5,
            ..LineConfig::paper_default(12, 16)
        };
        let mut seg = SegmentedNovaUnit::new(config, &table()).unwrap();
        seg.switch_table(&exp).unwrap();
        assert_eq!(seg.noc.segments().len(), 3);
        for (i, line) in seg.noc.segments().iter().enumerate() {
            assert!(shares(line.table()), "segment {i} copied the table");
        }
    }

    #[test]
    fn trait_objects_work() {
        // The trait is object-safe — hosts can hold `Box<dyn VectorUnit>`.
        let t = table();
        let mut units: Vec<Box<dyn VectorUnit>> = vec![
            Box::new(NovaVectorUnit::new(LineConfig::paper_default(2, 4), &t).unwrap()),
            Box::new(LutVectorUnit::new(&t, 2, 4, LutVariant::PerNeuron)),
        ];
        let inputs = batch(2, 4);
        let a = units[0].lookup_batch(&inputs).unwrap();
        let b = units[1].lookup_batch(&inputs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn trait_objects_move_into_worker_threads() {
        // The `Send` supertrait end to end: every kind's boxed unit can
        // be moved into a `std::thread` worker and evaluate there with
        // results identical to the table — the contract the serving
        // worker pool is built on.
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<dyn VectorUnit>();
        let t = table();
        let inputs = batch(3, 8);
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, LineConfig::paper_default(3, 8), &t).unwrap();
            let batch_for_thread = inputs.clone();
            let out = std::thread::spawn(move || unit.lookup_batch(&batch_for_thread).unwrap())
                .join()
                .unwrap();
            for (row_out, row_in) in out.iter().zip(&inputs) {
                for (&o, &x) in row_out.iter().zip(row_in) {
                    assert_eq!(o, t.eval(x), "{}", kind.label());
                }
            }
        }
    }
}
