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
use nova_noc::{multiline::SegmentedNoc, LineConfig, LinkConfig};
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
/// The NOVA arm is a [`NovaVectorUnit`]: one segment when the SMART
/// reach covers the line in one cycle, parallel segments beyond it, so
/// callers get the paper's latency behavior without re-implementing
/// that choice.
///
/// # Errors
///
/// Returns [`NovaError::Noc`] for a line with zero routers, neurons or
/// reach (for every kind), and propagates NoC schedule errors.
pub fn build(
    kind: ApproximatorKind,
    config: LineConfig,
    table: &QuantizedPwl,
) -> Result<Box<dyn VectorUnit>, NovaError> {
    config.validate()?;
    Ok(match kind {
        ApproximatorKind::NovaNoc => Box::new(NovaVectorUnit::new(config, table)?),
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

/// Validates a flat [`FixedBatch`] against a unit's `(routers × neurons)`
/// grid, shared by all [`VectorUnit`] implementations so malformed
/// batches are rejected with a uniform [`NovaError::BatchShape`] before
/// any lookup runs or counter advances.
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

/// Refuses a batch holding a word outside `format` before any LUT or
/// SDP core runs: a core checks only its own row.
fn validate_formats(inputs: &FixedBatch, format: nova_fixed::QFormat) -> Result<(), NovaError> {
    if inputs.as_slice().iter().any(|x| x.format() != format) {
        return Err(nova_lut::LutError::FormatMismatch.into());
    }
    Ok(())
}

/// A batch-lookup vector unit: the functional contract shared by NOVA and
/// the LUT baselines.
///
/// The one batch operation is
/// [`lookup_batch_into`](Self::lookup_batch_into): one contiguous
/// [`FixedBatch`] in, results written into a caller-recycled
/// [`FixedBatch`] out, with no allocation on the steady-state path. The
/// NOVA implementation splits its line into parallel segments when the
/// SMART reach does not cover it, so every host gets the paper's
/// single-cycle broadcast.
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

/// The NOVA NoC as a vector unit: the cycle-accurate line simulator,
/// split into the fewest parallel segments that each fit the
/// single-cycle SMART reach. A line within reach is one segment, which
/// is exactly the plain line; beyond reach (e.g. 8 TPU MXUs at a
/// 2.8 GHz NoC clock with a 5-router reach) the segments keep the
/// broadcast single-cycle.
#[derive(Debug, Clone)]
pub struct NovaVectorUnit {
    noc: SegmentedNoc,
    last_latency: u64,
    lookups: u64,
}

impl NovaVectorUnit {
    /// Builds the unit for a line geometry and table, split into the
    /// fewest segments that each fit `config.max_hops_per_cycle` (one
    /// when the reach covers the line).
    ///
    /// # Errors
    ///
    /// Propagates NoC configuration/schedule errors.
    pub fn new(config: LineConfig, table: &QuantizedPwl) -> Result<Self, NovaError> {
        let noc = SegmentedNoc::new(config, table)?;
        // Seed the latency with the schedule's nominal per-batch value so
        // callers that query before the first batch don't read a stale 0.
        let last_latency = noc.nominal_core_cycle_latency();
        Ok(Self {
            noc,
            last_latency,
            lookups: 0,
        })
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
        // The table lives on the wire: re-programming compiles the new
        // broadcast schedule and re-points every segment at the shared
        // table. `set_table` compiles before it changes anything, so a
        // refused switch leaves the old table active.
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
        validate_formats(inputs, self.format)?;
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
        validate_formats(inputs, self.format)?;
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
    use crate::serving::{ServingEngine, TableKey};
    use nova_approx::{fit, Activation};
    use nova_fixed::{Rounding, Q4_12, Q6_10};
    use nova_lut::{LutError, LutStats};
    use nova_noc::sim::BroadcastSim;
    use nova_noc::NocError;

    fn table() -> QuantizedPwl {
        let pwl =
            fit::fit_activation(Activation::Gelu, 16, fit::BreakpointStrategy::Uniform).unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    /// A flat `routers × neurons` batch (slot `r * neurons + n`).
    fn batch(routers: usize, neurons: usize) -> FixedBatch {
        let mut b = FixedBatch::new(routers, neurons, Fixed::zero(Q4_12));
        for (i, x) in b.as_mut_slice().iter_mut().enumerate() {
            *x = Fixed::from_f64((i as f64 * 0.37).sin() * 5.0, Q4_12, Rounding::NearestEven);
        }
        b
    }

    /// Runs one batch into a fresh output buffer.
    fn lookup(unit: &mut dyn VectorUnit, inputs: &FixedBatch) -> Result<FixedBatch, NovaError> {
        let mut out = FixedBatch::empty();
        unit.lookup_batch_into(inputs, &mut out)?;
        Ok(out)
    }

    /// `table` over every word of `inputs`, through the scalar datapath.
    fn expected(table: &QuantizedPwl, inputs: &FixedBatch) -> Vec<Fixed> {
        inputs.as_slice().iter().map(|&x| table.eval(x)).collect()
    }

    #[test]
    fn all_three_units_agree_bit_for_bit() {
        let t = table();
        let inputs = batch(4, 16);
        let mut nova = NovaVectorUnit::new(LineConfig::paper_default(4, 16), &t).unwrap();
        let mut pn = LutVectorUnit::new(&t, 4, 16, LutVariant::PerNeuron);
        let mut pc = LutVectorUnit::new(&t, 4, 16, LutVariant::PerCore);
        let a = lookup(&mut nova, &inputs).unwrap();
        let b = lookup(&mut pn, &inputs).unwrap();
        let c = lookup(&mut pc, &inputs).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        // And all equal the table.
        assert_eq!(a.as_slice(), expected(&t, &inputs));
    }

    #[test]
    fn latency_parity() {
        // Paper: "NOVA's latency is identical to that of the baseline".
        let t = table();
        let inputs = batch(10, 8);
        let mut nova = NovaVectorUnit::new(LineConfig::paper_default(10, 8), &t).unwrap();
        let mut pn = LutVectorUnit::new(&t, 10, 8, LutVariant::PerNeuron);
        lookup(&mut nova, &inputs).unwrap();
        lookup(&mut pn, &inputs).unwrap();
        assert_eq!(nova.latency_cycles(), pn.latency_cycles());
    }

    #[test]
    fn lookup_counters() {
        let t = table();
        let mut pc = LutVectorUnit::new(&t, 2, 8, LutVariant::PerCore);
        lookup(&mut pc, &batch(2, 8)).unwrap();
        lookup(&mut pc, &batch(2, 8)).unwrap();
        assert_eq!(pc.lookups(), 32);
    }

    #[test]
    fn lut_batch_shape_checked() {
        let t = table();
        let mut pn = LutVectorUnit::new(&t, 3, 8, LutVariant::PerNeuron);
        assert!(matches!(
            lookup(&mut pn, &batch(2, 8)),
            Err(NovaError::BatchShape(_))
        ));
    }

    #[test]
    fn segmented_unit_restores_single_cycle_latency() {
        // Beyond the reach the unit splits its line: bit-identical to
        // the plain line, and back to the 2-cycle lookup + MAC latency.
        let t = table();
        let mut config = LineConfig::paper_default(8, 4);
        config.max_hops_per_cycle = 5; // TPU-like 2.8 GHz reach
        let inputs = batch(8, 4);
        let mut plain = BroadcastSim::new(config, &t).unwrap();
        let mut plain_out = vec![Fixed::zero(Q4_12); inputs.len()];
        let plain_stats = plain.run_flat(inputs.as_slice(), &mut plain_out).unwrap();
        let mut unit = NovaVectorUnit::new(config, &t).unwrap();
        let out = lookup(&mut unit, &inputs).unwrap();
        assert_eq!(
            out.as_slice(),
            plain_out,
            "segmentation is functionally invisible"
        );
        assert_eq!(unit.noc.segment_count(), 2);
        assert!(unit.latency_cycles() < plain_stats.core_cycle_latency);
        assert_eq!(unit.latency_cycles(), 2);
    }

    #[test]
    fn factory_covers_every_kind_and_all_agree() {
        let t = table();
        let inputs = batch(3, 8);
        let config = LineConfig::paper_default(3, 8);
        let expect = expected(&t, &inputs);
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, config, &t).unwrap();
            assert_eq!(
                lookup(unit.as_mut(), &inputs).unwrap().as_slice(),
                expect,
                "{} diverges from the table",
                unit.name()
            );
            assert_eq!(unit.lookups(), 24);
        }
    }

    #[test]
    fn factory_segments_nova_beyond_reach() {
        // A plain 8-router line at reach 5 needs 3 NoC cycles per flit
        // pair (3 core cycles); the built unit segments and keeps 2.
        let t = table();
        let mut config = LineConfig::paper_default(8, 4);
        config.max_hops_per_cycle = 5;
        let mut unit = build(ApproximatorKind::NovaNoc, config, &t).unwrap();
        lookup(unit.as_mut(), &batch(8, 4)).unwrap();
        assert_eq!(unit.name(), "NOVA NoC");
        assert_eq!(unit.latency_cycles(), BATCH_LATENCY_CYCLES);
    }

    #[test]
    fn zero_sized_lines_are_errors_for_every_kind() {
        // A line with no routers or no neurons is a configuration error
        // for every kind, through the unit factory and through the
        // serving builder — never a panic.
        let t = table();
        for (routers, neurons) in [(0, 8), (3, 0)] {
            let config = LineConfig::paper_default(routers, neurons);
            for kind in ApproximatorKind::all() {
                let label = format!("{} on {routers}×{neurons}", kind.label());
                assert!(
                    matches!(
                        build(kind, config, &t),
                        Err(NovaError::Noc(nova_noc::NocError::BadLineConfig(_)))
                    ),
                    "{label}"
                );
                let engine = ServingEngine::builder(kind)
                    .line(config)
                    .table(TableKey::paper(Activation::Gelu))
                    .build();
                assert!(engine.is_err(), "{label}: the serving builder accepted it");
            }
        }
    }

    #[test]
    fn host_factory_matches_line_factory() {
        let t = table();
        let cfg = AcceleratorConfig::jetson_xavier_nx();
        let tech = TechModel::cmos22();
        let inputs = batch(cfg.nova_routers, cfg.neurons_per_router);
        let expect = expected(&t, &inputs);
        for kind in ApproximatorKind::all() {
            let mut unit = build_for_host(kind, &tech, &cfg, &t).unwrap();
            let out = lookup(unit.as_mut(), &inputs).unwrap();
            assert_eq!(out.as_slice(), expect, "{}", kind.label());
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
        lookup(unit.as_mut(), &batch(2, 8)).unwrap();
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
        let inputs = batch(cfg.nova_routers, cfg.neurons_per_router);
        for kind in [
            ApproximatorKind::PerNeuronLut,
            ApproximatorKind::PerCoreLut,
            ApproximatorKind::NvdlaSdp,
        ] {
            let mut unit = build_for_host(kind, &tech, &cfg, &t)
                .unwrap_or_else(|e| panic!("{} must build: {e}", kind.label()));
            let out = lookup(unit.as_mut(), &inputs).unwrap();
            assert_eq!(out.as_slice(), expected(&t, &inputs), "{}", kind.label());
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
        // must agree with the measured one — on one segment and on
        // several.
        let t = table();
        let beyond_reach = LineConfig {
            max_hops_per_cycle: 5,
            ..LineConfig::paper_default(8, 4)
        };
        for (config, segments) in [(LineConfig::paper_default(4, 16), 1), (beyond_reach, 2)] {
            let mut unit = NovaVectorUnit::new(config, &t).unwrap();
            assert_eq!(unit.noc.segment_count(), segments);
            let before = unit.latency_cycles();
            assert!(
                before > 0,
                "nominal latency must be reported before any batch"
            );
            lookup(&mut unit, &batch(config.routers, config.neurons_per_router)).unwrap();
            assert_eq!(before, unit.latency_cycles(), "{segments} segment(s)");
        }
    }

    #[test]
    fn ragged_batches_rejected_uniformly() {
        // A batch with the unit's slot count but the wrong row width —
        // what a ragged grid becomes once flattened — must be rejected
        // with `NovaError::BatchShape` by every unit, before any lookup
        // is counted.
        let t = table();
        let config = LineConfig::paper_default(3, 8);
        let misshapen = batch(4, 6);
        assert_eq!(misshapen.len(), config.total_neurons());
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, config, &t).unwrap();
            assert!(
                matches!(
                    lookup(unit.as_mut(), &misshapen),
                    Err(NovaError::BatchShape(_))
                ),
                "{} accepted a mis-shaped batch",
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
    fn flat_path_bit_identical_to_scalar_eval_for_every_kind() {
        // `lookup_batch_into` over one contiguous buffer produces exactly
        // the words the scalar datapath (`QuantizedPwl::eval`) produces,
        // for every approximator kind. One output buffer is shared across
        // kinds and batches, and consecutive batches differ, so recycling
        // must never leak a previous batch's words.
        let t = table();
        let forward = batch(4, 16);
        let mut reversed = forward.clone();
        reversed.as_mut_slice().reverse();
        let config = LineConfig::paper_default(4, 16);
        let mut out = FixedBatch::empty();
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, config, &t).unwrap();
            for inputs in [&forward, &reversed] {
                unit.lookup_batch_into(inputs, &mut out).unwrap();
                assert_eq!(out.dims(), (4, 16), "{}", kind.label());
                assert_eq!(out.as_slice(), expected(&t, inputs), "{}", kind.label());
            }
            assert_eq!(unit.lookups(), 128, "{}", kind.label());
        }
    }

    #[test]
    fn flat_output_buffer_is_recycled_without_reallocation() {
        // The zero-copy contract: a reused output buffer reaches a steady
        // state where repeated batches never grow its allocation.
        let t = table();
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, LineConfig::paper_default(3, 8), &t).unwrap();
            let flat = batch(3, 8);
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
        // A mis-shaped batch, and one whose last word has the wrong
        // format, are refused before any segment or core runs, on a line
        // beyond reach: 3 NOVA segments, 12 LUT/SDP cores per kind.
        let t = table();
        let mut config = LineConfig::paper_default(12, 2);
        config.max_hops_per_cycle = 4;
        let mut wrong_format = batch(12, 2);
        wrong_format.as_mut_slice()[23] = Fixed::from_f64(0.5, Q6_10, Rounding::NearestEven);
        let mut nova = NovaVectorUnit::new(config, &t).unwrap();
        let mut per_neuron = LutVectorUnit::new(&t, 12, 2, LutVariant::PerNeuron);
        let mut per_core = LutVectorUnit::new(&t, 12, 2, LutVariant::PerCore);
        let mut sdp = SdpVectorUnit::new(&t, 12, 2);
        let segments = nova.noc.segments().to_vec();
        let units: [&mut dyn VectorUnit; 4] = [&mut nova, &mut per_neuron, &mut per_core, &mut sdp];
        for unit in units {
            let mut out = FixedBatch::empty();
            let shape = unit.lookup_batch_into(&batch(2, 8), &mut out);
            assert!(
                matches!(shape, Err(NovaError::BatchShape(_))),
                "{}: {shape:?}",
                unit.name()
            );
            let format = unit.lookup_batch_into(&wrong_format, &mut out);
            assert!(
                matches!(
                    format,
                    Err(NovaError::Noc(NocError::FormatMismatch)
                        | NovaError::Lut(LutError::FormatMismatch))
                ),
                "{}: {format:?}",
                unit.name()
            );
            assert_eq!(unit.lookups(), 0, "{}", unit.name());
        }
        assert_eq!(nova.noc.segment_count(), 3);
        assert_eq!(nova.noc.segments(), segments, "a NOVA segment ran");
        let mut cores = (per_neuron.per_neuron.iter().map(PerNeuronLut::stats))
            .chain(per_core.per_core.iter().map(PerCoreLut::stats))
            .chain(sdp.cores.iter().map(SdpUnit::stats));
        assert!(cores.all(|s| s == LutStats::default()), "a core ran");
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
            lookup(unit.as_mut(), &inputs).unwrap();
            let lookups_before = unit.lookups();
            let cost = unit.switch_table(&exp).unwrap();
            assert_eq!(
                cost,
                table_switch_cycles(kind, exp.segments() as u64),
                "{}",
                kind.label()
            );
            assert_eq!(unit.lookups(), lookups_before, "{}", kind.label());
            let out = lookup(unit.as_mut(), &inputs).unwrap();
            assert_eq!(
                out.as_slice(),
                expected(&exp, &inputs),
                "{} serves the old table",
                kind.label()
            );
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
        // serving the old table — on one segment and on every segment of
        // a split line, through the fast path and through the flit-level
        // reference, which reads the router comparators.
        let gelu = table();
        let big_pwl =
            fit::fit_activation(Activation::Gelu, 32, fit::BreakpointStrategy::Uniform).unwrap();
        let big = QuantizedPwl::from_pwl(&big_pwl, Q4_12, Rounding::NearestEven).unwrap();
        let beyond_reach = LineConfig {
            max_hops_per_cycle: 5,
            ..LineConfig::paper_default(12, 16)
        };
        let mut out = FixedBatch::empty();
        for (config, segments) in [(LineConfig::paper_default(2, 4), 1), (beyond_reach, 3)] {
            let mut unit = NovaVectorUnit::new(config, &gelu).unwrap();
            assert_eq!(unit.noc.segment_count(), segments);
            let latency = unit.latency_cycles();
            assert!(unit.switch_table(&big).is_err());
            assert_eq!(unit.latency_cycles(), latency);
            let inputs = batch(config.routers, config.neurons_per_router);
            let expect = expected(&gelu, &inputs);
            unit.lookup_batch_into(&inputs, &mut out).unwrap();
            assert_eq!(out.as_slice(), expect, "{segments} segment(s), fast path");
            let mut ref_out = vec![Fixed::zero(Q4_12); expect.len()];
            unit.noc
                .run_flat_reference(inputs.as_slice(), &mut ref_out)
                .unwrap();
            assert_eq!(ref_out, expect, "{segments} segment(s), reference path");
        }
    }

    #[test]
    fn nova_switch_shares_the_table_on_every_segment() {
        // Re-programming a NOVA unit is a pointer copy: after
        // `switch_table(&t)` every segment's table reads `t`'s own
        // storage, on one segment and on a split line.
        let exp_pwl =
            fit::fit_activation(Activation::Exp, 16, fit::BreakpointStrategy::Uniform).unwrap();
        let exp = QuantizedPwl::from_pwl(&exp_pwl, Q4_12, Rounding::NearestEven).unwrap();
        let shares = |t: &QuantizedPwl| t.slopes_raw().as_ptr() == exp.slopes_raw().as_ptr();
        let beyond_reach = LineConfig {
            max_hops_per_cycle: 5,
            ..LineConfig::paper_default(12, 16)
        };
        for (config, segments) in [(LineConfig::paper_default(4, 16), 1), (beyond_reach, 3)] {
            let mut unit = NovaVectorUnit::new(config, &table()).unwrap();
            unit.switch_table(&exp).unwrap();
            assert_eq!(unit.noc.segments().len(), segments);
            for (i, line) in unit.noc.segments().iter().enumerate() {
                assert!(shares(line.table()), "segment {i} copied the table");
            }
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
        let a = lookup(units[0].as_mut(), &inputs).unwrap();
        let b = lookup(units[1].as_mut(), &inputs).unwrap();
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
        let expect = expected(&t, &inputs);
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, LineConfig::paper_default(3, 8), &t).unwrap();
            let batch_for_thread = inputs.clone();
            let out = std::thread::spawn(move || lookup(unit.as_mut(), &batch_for_thread).unwrap())
                .join()
                .unwrap();
            assert_eq!(out.as_slice(), expect, "{}", kind.label());
        }
    }
}
