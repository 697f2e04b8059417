//! Overlaying NOVA onto a Table II accelerator (Fig 5).

use nova_accel::{config::AcceleratorConfig, integrate};
use nova_approx::QuantizedPwl;
use nova_noc::{BroadcastSchedule, LineConfig, LinkConfig};
use nova_synth::{timing, units, AreaPower, LutSharing, TechModel};

use crate::vector_unit::{self, ApproximatorKind, Unit};
use crate::{NovaError, VectorUnit};

/// A NOVA NoC attached to a host accelerator: geometry from the Fig 5
/// adapter, cost from the 22 nm model, function from the shared
/// [`vector_unit::Unit`].
#[derive(Debug, Clone)]
pub struct NovaOverlay {
    config: AcceleratorConfig,
    attachment: integrate::Attachment,
    breakpoints: usize,
}

impl NovaOverlay {
    /// Attaches NOVA to `config` with the paper's 16 breakpoints.
    #[must_use]
    pub fn new(config: &AcceleratorConfig) -> Self {
        Self::with_breakpoints(config, 16)
    }

    /// Attaches with an explicit breakpoint budget.
    #[must_use]
    pub fn with_breakpoints(config: &AcceleratorConfig, breakpoints: usize) -> Self {
        Self {
            attachment: integrate::attachment(config),
            config: config.clone(),
            breakpoints,
        }
    }

    /// The host configuration.
    #[must_use]
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The Fig 5 attachment description.
    #[must_use]
    pub fn attachment(&self) -> &integrate::Attachment {
        &self.attachment
    }

    /// The NoC line geometry for this host, with the SMART reach computed
    /// from the tech model at the NoC clock (`multiplier ×` core clock).
    #[must_use]
    pub fn line_config(&self, tech: &TechModel, noc_multiplier: usize) -> LineConfig {
        let noc_ghz = self.config.frequency_ghz() * noc_multiplier as f64;
        let reach = timing::max_hops_per_cycle(tech, noc_ghz, self.attachment.pitch_mm).max(1);
        LineConfig {
            routers: self.attachment.routers,
            neurons_per_router: self.attachment.neurons_per_router,
            link: LinkConfig::paper(),
            max_hops_per_cycle: reach,
        }
    }

    /// Builds the functional NOVA vector unit for `table` (typed; the
    /// NoC is what the overlay attaches), on the line whose reach the
    /// table's flit count sets, exactly as [`unit`](Self::unit) with
    /// [`ApproximatorKind::NovaNoc`] does.
    ///
    /// # Errors
    ///
    /// Returns [`NovaError::Noc`] for a table the paper link cannot
    /// carry.
    pub fn vector_unit(&self, tech: &TechModel, table: &QuantizedPwl) -> Result<Unit, NovaError> {
        let flits = BroadcastSchedule::flit_count_for(table, LinkConfig::paper())?;
        Unit::new(
            ApproximatorKind::NovaNoc,
            self.line_config(tech, flits),
            table,
        )
    }

    /// Builds the functional unit for *any* approximator kind on this
    /// host's line geometry, through the unified
    /// [`vector_unit::build`] dispatch. (The Fig 5 attachment mirrors
    /// the config's geometry, so this is exactly
    /// [`vector_unit::build_for_host`] on the wrapped config.)
    ///
    /// # Errors
    ///
    /// Propagates NoC construction errors.
    pub fn unit(
        &self,
        tech: &TechModel,
        table: &QuantizedPwl,
        kind: ApproximatorKind,
    ) -> Result<Box<dyn VectorUnit>, NovaError> {
        vector_unit::build_for_host(kind, tech, &self.config, table)
    }

    /// Total NOVA NoC area/power on this host (all routers), at the
    /// host's clocks and activity.
    #[must_use]
    pub fn area_power(&self, tech: &TechModel) -> AreaPower {
        let router = units::nova_router(
            tech,
            self.attachment.neurons_per_router,
            self.breakpoints,
            self.attachment.pitch_mm,
        );
        let core_ghz = self.config.frequency_ghz();
        // 16 breakpoints on the 8-pair link → 2× NoC clock (paper §IV).
        let noc_ghz = core_ghz * self.breakpoints.div_ceil(8).max(1) as f64;
        let n = self.attachment.routers as f64;
        AreaPower {
            area_mm2: router.area_um2 * n * 1e-6,
            power_mw: router.power_mw(tech, core_ghz, noc_ghz, self.config.datapath_activity) * n,
        }
    }

    /// Area/power of a LUT baseline on the same host (Table III rows).
    #[must_use]
    pub fn lut_area_power(&self, tech: &TechModel, sharing: LutSharing) -> AreaPower {
        let unit = units::lut_unit(
            tech,
            self.attachment.neurons_per_router,
            self.breakpoints,
            sharing,
        );
        let n = self.attachment.routers as f64;
        AreaPower {
            area_mm2: unit.area_um2 * n * 1e-6,
            power_mw: unit.power_mw(
                tech,
                self.config.frequency_ghz(),
                self.config.datapath_activity,
            ) * n,
        }
    }

    /// Area overhead as a percentage of the host die, when the paper
    /// reports one (§V.C's 9.11% for REACT).
    #[must_use]
    pub fn area_overhead_pct(&self, tech: &TechModel) -> Option<f64> {
        self.config
            .die_area_mm2
            .map(|die| 100.0 * self.area_power(tech).area_mm2 / die)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_approx::{fit, Activation};
    use nova_fixed::{Fixed, FixedBatch, Rounding, Q4_12};

    fn tech() -> TechModel {
        TechModel::cmos22()
    }

    fn table() -> QuantizedPwl {
        let pwl =
            fit::fit_activation(Activation::Exp, 16, fit::BreakpointStrategy::Uniform).unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    #[test]
    fn react_overhead_near_paper_9pct() {
        let overlay = NovaOverlay::new(&AcceleratorConfig::react());
        let pct = overlay.area_overhead_pct(&tech()).unwrap();
        assert!(
            (5.0..15.0).contains(&pct),
            "REACT overhead {pct}% (paper: 9.11%)"
        );
    }

    #[test]
    fn nova_beats_both_luts_on_every_host() {
        let t = tech();
        for cfg in AcceleratorConfig::table2() {
            let overlay = NovaOverlay::new(&cfg);
            let nova = overlay.area_power(&t);
            let pn = overlay.lut_area_power(&t, LutSharing::PerNeuron);
            let pc = overlay.lut_area_power(&t, LutSharing::PerCore);
            assert!(
                nova.area_mm2 < pn.area_mm2,
                "{}: area vs per-neuron",
                cfg.name
            );
            assert!(
                nova.area_mm2 < pc.area_mm2,
                "{}: area vs per-core",
                cfg.name
            );
            assert!(
                nova.power_mw < pn.power_mw,
                "{}: power vs per-neuron",
                cfg.name
            );
            assert!(
                nova.power_mw < pc.power_mw,
                "{}: power vs per-core",
                cfg.name
            );
        }
    }

    #[test]
    fn functional_unit_from_overlay() {
        let overlay = NovaOverlay::new(&AcceleratorConfig::jetson_xavier_nx());
        let t = table();
        let mut unit = overlay.vector_unit(&tech(), &t).unwrap();
        let mut inputs = FixedBatch::new(2, 16, Fixed::zero(Q4_12));
        for r in 0..2 {
            for (n, x) in inputs.row_mut(r).iter_mut().enumerate() {
                *x = Fixed::from_f64(-(r as f64) - n as f64 * 0.3, Q4_12, Rounding::NearestEven);
            }
        }
        let mut out = FixedBatch::empty();
        unit.lookup_batch_into(&inputs, &mut out).unwrap();
        assert_eq!(out.row(1)[5], t.eval(inputs.row(1)[5]));
    }

    #[test]
    fn tpu_v4_doubles_v3() {
        let t = tech();
        let v3 = NovaOverlay::new(&AcceleratorConfig::tpu_v3_like()).area_power(&t);
        let v4 = NovaOverlay::new(&AcceleratorConfig::tpu_v4_like()).area_power(&t);
        assert!((v4.area_mm2 / v3.area_mm2 - 2.0).abs() < 0.01);
    }
}
