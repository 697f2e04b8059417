//! One vector unit for every approximator kind.
//!
//! The paper compares four units that compute *the same function* — the
//! quantized PWL table — with different hardware: the NOVA NoC, the
//! per-neuron LUT, the per-core LUT and NVDLA's SDP (§V.B: "NOVA's
//! latency is identical to that of the baseline"). So one [`Unit`]
//! serves every kind. A batch is one shape check, one format scan and
//! one call of the table's batch kernel
//! ([`QuantizedPwl::eval_to_slice_unchecked`]); a table switch swaps the
//! shared table. Only the cost differs per kind, and each cost is a
//! closed form in one place:
//!
//! - the batch latency, [`ApproximatorKind::batch_latency_cycles`];
//! - the switch stall, [`table_switch_cycles`];
//! - which tables the hardware can carry: the NOVA NoC needs
//!   [`BroadcastSchedule::flit_count_for`] to accept the table on its
//!   link, while LUT and SDP banks hold any table.
//!
//! The hardware models (`BroadcastSim`, `SegmentedNoc`, the `nova-lut`
//! cores and banks, `SdpUnit`) are the references these closed forms
//! are pinned against; no unit runs them.

use nova_accel::config::AcceleratorConfig;
use nova_approx::QuantizedPwl;
use nova_fixed::{Fixed, FixedBatch};
use nova_lut::SdpUnit;
use nova_noc::{BroadcastSchedule, LineConfig, LinkConfig, NocError};
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
    ///
    /// NOVA's 2 holds on every line. The unit splits a line into the
    /// fewest segments that each fit the single-cycle SMART reach, so
    /// each of a table's `flits` flits crosses its segment in one NoC
    /// cycle, and the NoC runs at `flits ×` the core clock: the
    /// broadcast takes `flits` NoC cycles, one core cycle, before the
    /// MAC. `SegmentedNoc`'s flit-level simulation measures the same.
    #[must_use]
    pub fn batch_latency_cycles(self) -> u64 {
        match self {
            ApproximatorKind::NovaNoc
            | ApproximatorKind::PerNeuronLut
            | ApproximatorKind::PerCoreLut => BATCH_LATENCY_CYCLES,
            ApproximatorKind::NvdlaSdp => SdpUnit::PIPELINE_STAGES,
        }
    }

    /// Checks that this kind's hardware on `link` can serve `table`:
    /// the NOVA NoC's tag field must address every flit; LUT and SDP
    /// banks hold any table. Every table fits the link's 16-bit words,
    /// because `QuantizedPwl` refuses wider formats.
    ///
    /// # Errors
    ///
    /// Returns [`NovaError::Noc`] for a table the NOVA link cannot
    /// carry (see [`BroadcastSchedule::flit_count_for`]).
    pub(crate) fn check_table(
        self,
        link: LinkConfig,
        table: &QuantizedPwl,
    ) -> Result<(), NovaError> {
        if self == ApproximatorKind::NovaNoc {
            BroadcastSchedule::flit_count_for(table, link)?;
        }
        Ok(())
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
/// Only the NOVA NoC has a reach to derive: the table's flit count sets
/// the NoC clock (`flits ×` the core clock), and that clock sets the
/// SMART reach. LUT/SDP units have no line to cover, so they get a
/// trivially covering reach and tables too large for the link's tag
/// space still build on LUT hardware.
///
/// # Errors
///
/// Returns [`NovaError::Noc`] for a table the NOVA link cannot carry
/// (NOVA kind only).
pub fn line_for_kind(
    kind: ApproximatorKind,
    tech: &TechModel,
    table: &QuantizedPwl,
    link: LinkConfig,
    host: HostGeometry,
) -> Result<LineConfig, NovaError> {
    let reach = match kind {
        ApproximatorKind::NovaNoc => {
            let flits = BroadcastSchedule::flit_count_for(table, link)?;
            let noc_ghz = host.core_ghz * flits as f64;
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
/// hardware. Every kind gets a [`Unit`].
///
/// # Errors
///
/// Returns [`NovaError::Noc`] for a line with zero routers, neurons or
/// reach (for every kind), and for a table the NOVA link cannot carry
/// (NOVA kind only; see [`BroadcastSchedule::flit_count_for`]).
pub fn build(
    kind: ApproximatorKind,
    config: LineConfig,
    table: &QuantizedPwl,
) -> Result<Box<dyn VectorUnit>, NovaError> {
    Ok(Box::new(Unit::new(kind, config, table)?))
}

/// Builds the functional vector unit for `kind` on a Table II host: the
/// line geometry (router count, neurons, SMART reach at the programmed
/// NoC clock) is derived from `config` and `tech` exactly as the
/// overlay does it.
///
/// # Errors
///
/// Propagates the errors of [`line_for_kind`] and [`build`].
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
/// grid, so malformed batches are rejected with a uniform
/// [`NovaError::BatchShape`] before any lookup runs or counter advances.
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

/// A batch-lookup vector unit: the functional contract every
/// approximator kind shares.
///
/// The one batch operation is
/// [`lookup_batch_into`](Self::lookup_batch_into): one contiguous
/// [`FixedBatch`] in, results written into a caller-recycled
/// [`FixedBatch`] out, with no allocation on the steady-state path.
/// [`Unit`] is the one production implementation; the trait lets a test
/// stand in a misbehaving unit.
///
/// The trait is `Send` so a `Box<dyn VectorUnit>` can be moved into a
/// worker thread — the serving runtime gives each shard worker its own
/// unit and feeds it batches over a channel. A [`Unit`] is a shared
/// table handle and a few counts, so this costs nothing.
pub trait VectorUnit: Send {
    /// Display name (matches the Table III row labels).
    fn name(&self) -> &str;

    /// Evaluates one flat batch: slot `r * neurons + n` of `inputs` →
    /// the same slot of `out`, bit-identical to the quantized table.
    ///
    /// Every slot of `out` is overwritten, not refilled first: the
    /// implementation reshapes `out` only when its grid differs from
    /// the unit's (allocation reused), so callers recycle one buffer
    /// across batches and the steady state is allocation-free.
    ///
    /// # Errors
    ///
    /// Implementations return [`NovaError::BatchShape`] when `inputs`
    /// does not match the unit's grid and [`NocError::FormatMismatch`]
    /// when a word is not in the table's format, in both cases before
    /// `out` or any counter changes.
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
    /// Propagates re-programming failures (e.g. a table the NoC link
    /// cannot carry); on error the old table stays active.
    fn switch_table(&mut self, table: &QuantizedPwl) -> Result<u64, NovaError>;

    /// Per-batch latency in accelerator cycles, reported from
    /// construction on (never a stale 0).
    fn latency_cycles(&self) -> u64;

    /// Total grid lookups served so far: the slots of every batch that
    /// went through [`lookup_batch_into`](Self::lookup_batch_into). The
    /// serving workers evaluate a fused plan's once-per-row lookups
    /// through the table directly, so those are not counted here; the
    /// engine's cycle ledger charges every lookup stage either way.
    fn lookups(&self) -> u64;
}

/// The vector unit of every [`ApproximatorKind`]: a `(routers ×
/// neurons)` grid served through the table's batch kernel, with the
/// kind's closed-form costs (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Unit {
    kind: ApproximatorKind,
    table: QuantizedPwl,
    routers: usize,
    neurons: usize,
    link: LinkConfig,
    lookups: u64,
}

impl Unit {
    /// Builds the unit for `kind` on a line geometry, programmed with
    /// `table`; fails as [`build`] does.
    pub(crate) fn new(
        kind: ApproximatorKind,
        config: LineConfig,
        table: &QuantizedPwl,
    ) -> Result<Self, NovaError> {
        config.validate()?;
        kind.check_table(config.link, table)?;
        Ok(Self {
            kind,
            table: table.clone(),
            routers: config.routers,
            neurons: config.neurons_per_router,
            link: config.link,
            lookups: 0,
        })
    }
}

impl VectorUnit for Unit {
    fn name(&self) -> &str {
        self.kind.label()
    }

    fn lookup_batch_into(
        &mut self,
        inputs: &FixedBatch,
        out: &mut FixedBatch,
    ) -> Result<(), NovaError> {
        validate_flat_shape(inputs, self.routers, self.neurons)?;
        let format = self.table.format();
        if inputs.as_slice().iter().any(|x| x.format() != format) {
            return Err(NocError::FormatMismatch.into());
        }
        if out.dims() != inputs.dims() {
            out.reset(self.routers, self.neurons, Fixed::zero(format));
        }
        self.table
            .eval_to_slice_unchecked(inputs.as_slice(), out.as_mut_slice());
        self.lookups += inputs.len() as u64;
        Ok(())
    }

    fn switch_table(&mut self, table: &QuantizedPwl) -> Result<u64, NovaError> {
        self.kind.check_table(self.link, table)?;
        self.table.clone_from(table);
        Ok(table_switch_cycles(self.kind, table.segments() as u64))
    }

    fn latency_cycles(&self) -> u64 {
        self.kind.batch_latency_cycles()
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
    use nova_fixed::{QFormat, Rounding, Q4_12, Q6_10};
    use nova_lut::{LutBank, LutStats, PerCoreLut, PerNeuronLut};
    use nova_noc::multiline::SegmentedNoc;
    use nova_noc::sim::{BroadcastSim, SimStats};

    fn fitted(activation: Activation, segments: usize, format: QFormat) -> QuantizedPwl {
        let pwl =
            fit::fit_activation(activation, segments, fit::BreakpointStrategy::Uniform).unwrap();
        QuantizedPwl::from_pwl(&pwl, format, Rounding::NearestEven).unwrap()
    }

    fn table() -> QuantizedPwl {
        fitted(Activation::Gelu, 16, Q4_12)
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

    /// The NOVA hardware model beside a unit: `inputs` through the
    /// flit-level simulation of `config`'s line, split into the fewest
    /// segments within reach.
    fn flit_reference(
        config: LineConfig,
        table: &QuantizedPwl,
        inputs: &FixedBatch,
    ) -> Result<(Vec<Fixed>, SimStats), NocError> {
        let mut noc = SegmentedNoc::new(config, table)?;
        let mut out = vec![Fixed::zero(table.format()); inputs.len()];
        let stats = noc.run_flat(inputs.as_slice(), &mut out)?;
        Ok((out, stats))
    }

    #[test]
    fn all_three_units_agree_bit_for_bit() {
        let t = table();
        let inputs = batch(4, 16);
        let config = LineConfig::paper_default(4, 16);
        let [a, b, c] = ApproximatorKind::fig8_contenders()
            .map(|kind| lookup(build(kind, config, &t).unwrap().as_mut(), &inputs).unwrap());
        assert_eq!(a, b);
        assert_eq!(b, c);
        // And all equal the table.
        assert_eq!(a.as_slice(), expected(&t, &inputs));
    }

    #[test]
    fn latency_parity() {
        // Paper: "NOVA's latency is identical to that of the baseline",
        // and the NOVA unit's is what the flit-level line measures.
        let t = table();
        let config = LineConfig::paper_default(10, 8);
        let nova = build(ApproximatorKind::NovaNoc, config, &t).unwrap();
        let pn = build(ApproximatorKind::PerNeuronLut, config, &t).unwrap();
        assert_eq!(nova.latency_cycles(), pn.latency_cycles());
        let (_, stats) = flit_reference(config, &t, &batch(10, 8)).unwrap();
        assert_eq!(nova.latency_cycles(), stats.core_cycle_latency);
    }

    #[test]
    fn lookup_counters() {
        // Every kind counts each served slot once; a switch keeps the
        // count.
        let t = table();
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, LineConfig::paper_default(2, 8), &t).unwrap();
            lookup(unit.as_mut(), &batch(2, 8)).unwrap();
            unit.switch_table(&t).unwrap();
            lookup(unit.as_mut(), &batch(2, 8)).unwrap();
            assert_eq!(unit.lookups(), 32, "{}", kind.label());
        }
    }

    #[test]
    fn lut_batch_shape_checked() {
        let t = table();
        let config = LineConfig::paper_default(3, 8);
        let mut pn = build(ApproximatorKind::PerNeuronLut, config, &t).unwrap();
        assert!(matches!(
            lookup(pn.as_mut(), &batch(2, 8)),
            Err(NovaError::BatchShape(_))
        ));
    }

    #[test]
    fn segmented_unit_restores_single_cycle_latency() {
        // Beyond the reach a plain line parks its flits; the unit costs
        // what the segmented line measures: bit-identical outputs and
        // the 2-cycle lookup + MAC latency.
        let t = table();
        let config = LineConfig {
            max_hops_per_cycle: 5, // TPU-like 2.8 GHz reach
            ..LineConfig::paper_default(8, 4)
        };
        let inputs = batch(8, 4);
        let mut plain = BroadcastSim::new(config, &t).unwrap();
        let mut plain_out = vec![Fixed::zero(Q4_12); inputs.len()];
        let plain_stats = plain.run_flat(inputs.as_slice(), &mut plain_out).unwrap();
        let (segmented_out, segmented) = flit_reference(config, &t, &inputs).unwrap();
        let mut unit = build(ApproximatorKind::NovaNoc, config, &t).unwrap();
        let out = lookup(unit.as_mut(), &inputs).unwrap();
        assert_eq!(out.as_slice(), plain_out, "segmentation is invisible");
        assert_eq!(out.as_slice(), segmented_out);
        assert_eq!(unit.latency_cycles(), segmented.core_cycle_latency);
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
        // the first batch ran. Every kind reports its closed form from
        // construction, unchanged by a batch, and NOVA's equals what the
        // flit-level line measures — on one segment and on several.
        let t = table();
        let beyond_reach = LineConfig {
            max_hops_per_cycle: 5,
            ..LineConfig::paper_default(8, 4)
        };
        for (config, segments) in [(LineConfig::paper_default(4, 16), 1), (beyond_reach, 2)] {
            let inputs = batch(config.routers, config.neurons_per_router);
            assert_eq!(
                SegmentedNoc::new(config, &t).unwrap().segment_count(),
                segments
            );
            for kind in ApproximatorKind::all() {
                let mut unit = build(kind, config, &t).unwrap();
                let before = unit.latency_cycles();
                assert!(before > 0, "{}: no latency before a batch", kind.label());
                lookup(unit.as_mut(), &inputs).unwrap();
                assert_eq!(before, unit.latency_cycles(), "{}", kind.label());
            }
            let nova = build(ApproximatorKind::NovaNoc, config, &t).unwrap();
            let (_, measured) = flit_reference(config, &t, &inputs).unwrap();
            assert_eq!(
                nova.latency_cycles(),
                measured.core_cycle_latency,
                "{segments} segment(s)"
            );
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
        // format, are refused by every kind with one error each, before
        // the output is touched or a lookup is counted — on a line the
        // NOVA hardware splits into 3 segments. (`SegmentedNoc`'s own
        // tests cover the segment-level refusal.)
        let t = table();
        let config = LineConfig {
            max_hops_per_cycle: 4,
            ..LineConfig::paper_default(12, 2)
        };
        let mut wrong_format = batch(12, 2);
        wrong_format.as_mut_slice()[23] = Fixed::from_f64(0.5, Q6_10, Rounding::NearestEven);
        let untouched = batch(5, 3);
        for kind in ApproximatorKind::all() {
            let mut unit = build(kind, config, &t).unwrap();
            let mut out = untouched.clone();
            let shape = unit.lookup_batch_into(&batch(2, 8), &mut out);
            assert!(
                matches!(shape, Err(NovaError::BatchShape(_))),
                "{}: {shape:?}",
                kind.label()
            );
            let format = unit.lookup_batch_into(&wrong_format, &mut out);
            assert!(
                matches!(format, Err(NovaError::Noc(NocError::FormatMismatch))),
                "{}: {format:?}",
                kind.label()
            );
            assert_eq!(out, untouched, "{} wrote the output", kind.label());
            assert_eq!(unit.lookups(), 0, "{}", kind.label());
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
        // space addresses: the NOVA unit refuses the switch with the
        // error the NoC model gives, and keeps serving the old table as
        // the model's flit-level reference does — on one segment and on
        // a line split into 3.
        let gelu = table();
        let big = fitted(Activation::Gelu, 32, Q4_12);
        let beyond_reach = LineConfig {
            max_hops_per_cycle: 5,
            ..LineConfig::paper_default(12, 16)
        };
        let mut out = FixedBatch::empty();
        for (config, segments) in [(LineConfig::paper_default(2, 4), 1), (beyond_reach, 3)] {
            let mut noc = SegmentedNoc::new(config, &gelu).unwrap();
            assert_eq!(noc.segment_count(), segments);
            let refused = noc.set_table(&big).unwrap_err();
            let mut unit = build(ApproximatorKind::NovaNoc, config, &gelu).unwrap();
            let latency = unit.latency_cycles();
            let switch = unit.switch_table(&big);
            assert!(
                matches!(&switch, Err(NovaError::Noc(e)) if *e == refused),
                "{switch:?}"
            );
            assert_eq!(unit.latency_cycles(), latency);
            let inputs = batch(config.routers, config.neurons_per_router);
            let expect = expected(&gelu, &inputs);
            unit.lookup_batch_into(&inputs, &mut out).unwrap();
            assert_eq!(out.as_slice(), expect, "{segments} segment(s), unit");
            let mut ref_out = vec![Fixed::zero(Q4_12); expect.len()];
            noc.run_flat(inputs.as_slice(), &mut ref_out).unwrap();
            assert_eq!(ref_out, expect, "{segments} segment(s), reference");
        }
    }

    #[test]
    fn nova_switch_shares_the_table_on_every_segment() {
        // Re-programming is a pointer copy for every kind: after
        // `switch_table(&t)` the unit reads `t`'s own storage. The NOVA
        // unit serves every segment of a split line from that one table.
        let exp = fitted(Activation::Exp, 16, Q4_12);
        let beyond_reach = LineConfig {
            max_hops_per_cycle: 5,
            ..LineConfig::paper_default(12, 16)
        };
        for config in [LineConfig::paper_default(4, 16), beyond_reach] {
            for kind in ApproximatorKind::all() {
                let mut unit = Unit::new(kind, config, &table()).unwrap();
                unit.switch_table(&exp).unwrap();
                assert_eq!(
                    unit.table.pairs().as_ptr(),
                    exp.pairs().as_ptr(),
                    "{} copied the table",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn closed_form_costs_match_the_hardware_models() {
        // Each kind's costs are closed forms on the unit; the hardware
        // models are what they are pinned against. Tables of 4–32
        // segments, three links, and lines of one router, within the
        // reach and beyond it.
        let tables = [4, 8, 16, 32].map(|s| fitted(Activation::Gelu, s, Q4_12));
        let links = [
            LinkConfig::paper(),
            LinkConfig::new(4, 2).unwrap(),
            LinkConfig::new(8, 2).unwrap(),
        ];
        let lines = [
            (1, 4, 10),
            (4, 16, 10),
            (10, 8, 10),
            (8, 4, 5),
            (12, 2, 4),
            (25, 3, 7),
        ];
        for table in &tables {
            let segments = table.segments() as u64;
            for (routers, neurons, reach) in lines {
                let line = LineConfig {
                    max_hops_per_cycle: reach,
                    ..LineConfig::paper_default(routers, neurons)
                };
                let label = format!("{segments} segments, {routers}×{neurons} @ {reach}");
                let inputs = batch(routers, neurons);

                // NOVA: what the flit-level segmented line measures, or
                // the error with which the model refuses the table.
                for link in links {
                    let config = LineConfig { link, ..line };
                    let nova = Unit::new(ApproximatorKind::NovaNoc, config, table);
                    match (flit_reference(config, table, &inputs), nova) {
                        (Ok((out, stats)), Ok(mut unit)) => {
                            let at = format!("{label}, {link:?}");
                            assert_eq!(unit.latency_cycles(), stats.core_cycle_latency, "{at}");
                            let served = lookup(&mut unit, &inputs).unwrap();
                            assert_eq!(served.as_slice(), out, "{at}");
                            // Free: the next broadcast carries the next pairs.
                            assert_eq!(unit.switch_table(table).unwrap(), 0, "{at}");
                        }
                        (Err(refused), Err(NovaError::Noc(e))) => assert_eq!(e, refused),
                        (model, unit) => panic!("{label}, {link:?}: {model:?} vs {unit:?}"),
                    }
                }

                // LUT and SDP: one batch through one core of each model.
                let row = inputs.row(0);
                let mut out = vec![Fixed::zero(table.format()); neurons];
                let mut per_neuron = PerNeuronLut::new(table, neurons);
                let mut per_core = PerCoreLut::new(table, neurons);
                let mut sdp = SdpUnit::new(table, neurons);
                per_neuron.lookup_into(row, &mut out).unwrap();
                per_core.lookup_into(row, &mut out).unwrap();
                sdp.lookup_into(row, &mut out).unwrap();
                let models: [(ApproximatorKind, LutStats); 3] = [
                    (ApproximatorKind::PerNeuronLut, per_neuron.stats()),
                    (ApproximatorKind::PerCoreLut, per_core.stats()),
                    (ApproximatorKind::NvdlaSdp, sdp.stats()),
                ];
                for (kind, stats) in models {
                    let unit = build(kind, line, table).unwrap();
                    assert_eq!(unit.latency_cycles(), stats.cycles, "{label}");
                }
            }

            // The switch stall: a LUT bank rewrites one entry per cycle.
            // The SDP's 16× has no model here; `table_switch_cycles`
            // states it for its 257-entry interpolation tables.
            let mut bank = LutBank::from_table(&tables[0], 1);
            bank.reprogram(table);
            let line = LineConfig::paper_default(2, 4);
            for (kind, stall) in [
                (ApproximatorKind::PerNeuronLut, bank.entries() as u64),
                (ApproximatorKind::PerCoreLut, bank.entries() as u64),
                (ApproximatorKind::NvdlaSdp, 16 * segments),
            ] {
                let mut unit = build(kind, line, &tables[0]).unwrap();
                assert_eq!(unit.switch_table(table).unwrap(), stall, "{segments}");
            }
        }
    }

    #[test]
    fn trait_objects_work() {
        // The trait is object-safe — hosts can hold `Box<dyn VectorUnit>`.
        let t = table();
        let config = LineConfig::paper_default(2, 4);
        let mut units: Vec<Box<dyn VectorUnit>> = vec![
            Box::new(Unit::new(ApproximatorKind::NovaNoc, config, &t).unwrap()),
            build(ApproximatorKind::PerNeuronLut, config, &t).unwrap(),
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
