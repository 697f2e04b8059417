//! NVDLA Single Data Processor (SDP) functional model.
//!
//! The SDP is NVDLA's LUT-based activation engine (nvdla.org primer): a
//! per-core interpolation-table pipeline with bias/scale stages. For the
//! Table III Jetson comparison it behaves functionally like a per-core LUT
//! with a deeper pipeline (3 stages: table read, interpolate, scale), so
//! its latency is one cycle worse than the 2-cycle NN-LUT pipeline while
//! results stay bit-identical to the quantized table. Data-wise it
//! inherits [`PerCoreLut`]'s SoA batch fast path; only the cycle
//! accounting differs.

use nova_approx::QuantizedPwl;
use nova_fixed::Fixed;

use crate::{LutError, LutStats, PerCoreLut};

/// The SDP model: a per-core LUT with a 3-stage pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SdpUnit {
    inner: PerCoreLut,
    extra_cycles: u64,
}

impl SdpUnit {
    /// Pipeline depth of the SDP datapath (read, interpolate, scale).
    pub const PIPELINE_STAGES: u64 = 3;

    /// Builds an SDP serving `neurons` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `neurons == 0`.
    #[must_use]
    pub fn new(table: &QuantizedPwl, neurons: usize) -> Self {
        Self {
            inner: PerCoreLut::new(table, neurons),
            extra_cycles: 0,
        }
    }

    /// Re-programs the SDP's interpolation table in place (bank
    /// allocation reused, evaluation table shared, activity counters
    /// preserved).
    pub fn reprogram(&mut self, table: &QuantizedPwl) {
        self.inner.reprogram(table);
    }

    /// Lanes served.
    #[must_use]
    pub fn neurons(&self) -> usize {
        self.inner.neurons()
    }

    /// Activity counters (cycles include the deeper pipeline).
    #[must_use]
    pub fn stats(&self) -> LutStats {
        let mut s = self.inner.stats();
        s.cycles += self.extra_cycles;
        s
    }

    /// One batch through the SDP pipeline.
    ///
    /// # Errors
    ///
    /// Propagates the underlying batch validation errors.
    pub fn lookup_batch(&mut self, xs: &[Fixed]) -> Result<Vec<Fixed>, LutError> {
        let out = self.inner.lookup_batch(xs)?;
        // One extra stage vs the 2-cycle NN-LUT pipeline.
        self.extra_cycles += Self::PIPELINE_STAGES - 2;
        Ok(out)
    }

    /// The zero-copy batch path through the SDP pipeline: results land in
    /// `out` in place.
    ///
    /// # Errors
    ///
    /// Propagates the underlying batch validation errors.
    pub fn lookup_into(&mut self, xs: &[Fixed], out: &mut [Fixed]) -> Result<(), LutError> {
        self.inner.lookup_into(xs, out)?;
        // One extra stage vs the 2-cycle NN-LUT pipeline.
        self.extra_cycles += Self::PIPELINE_STAGES - 2;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_approx::{fit, Activation};
    use nova_fixed::{Rounding, Q4_12};

    fn table() -> QuantizedPwl {
        let pwl =
            fit::fit_activation(Activation::Relu, 16, fit::BreakpointStrategy::Uniform).unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    #[test]
    fn sdp_matches_table_with_deeper_pipeline() {
        let t = table();
        let mut sdp = SdpUnit::new(&t, 16);
        let xs: Vec<Fixed> = (0..16)
            .map(|i| Fixed::from_f64(i as f64 * 0.5 - 4.0, Q4_12, Rounding::NearestEven))
            .collect();
        let out = sdp.lookup_batch(&xs).unwrap();
        for (o, &x) in out.iter().zip(&xs) {
            assert_eq!(*o, t.eval(x));
        }
        assert_eq!(sdp.stats().cycles, 3);
    }

    #[test]
    fn sdp_neuron_count() {
        let sdp = SdpUnit::new(&table(), 16);
        assert_eq!(sdp.neurons(), 16);
    }
}
