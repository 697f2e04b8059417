//! The Fig 5(a) integration, end to end: REACT's Weighted-Sum NoC
//! computes the neuron pre-activations, the widened 6×2 crossbar forwards
//! them to the NOVA comparators, and the NOVA NoC returns the
//! approximated activations through the 2×6 output crossbar.
//!
//! This is a *functional* composition of two cycle-accurate substrates —
//! a full dense-layer forward pass (weights → weighted sums → non-linear
//! activation) running entirely on the 16-bit hardware datapath.

use nova_accel::react::ReactCore;
use nova_approx::QuantizedPwl;
use nova_fixed::Fixed;
use nova_noc::{sim::BroadcastSim, LineConfig};

use crate::NovaError;

/// Combined per-layer statistics of the REACT + NOVA pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// WS-line cycles spent producing weighted sums.
    pub ws_cycles: u64,
    /// NOVA NoC cycles spent on the activation broadcast.
    pub noc_cycles: u64,
    /// Total effective core cycles for the layer.
    pub total_cycles: u64,
}

/// One REACT core with a NOVA router attached (Fig 5a).
#[derive(Debug, Clone)]
pub struct ReactNovaPipeline {
    core: ReactCore,
    nova: BroadcastSim,
    table: QuantizedPwl,
}

impl ReactNovaPipeline {
    /// Builds the pipeline: a REACT core computing `weights` and a
    /// single-router NOVA line serving its output neurons with `table`.
    ///
    /// # Errors
    ///
    /// Propagates NoC construction errors.
    ///
    /// # Panics
    ///
    /// Panics if the weight matrix is malformed (see [`ReactCore::new`]).
    pub fn new(weights: Vec<Vec<Fixed>>, table: &QuantizedPwl) -> Result<Self, NovaError> {
        let core = ReactCore::new(weights, table.rounding());
        let config = LineConfig::paper_default(1, core.neurons());
        Ok(Self {
            core,
            nova: BroadcastSim::new(config, table)?,
            table: table.clone(),
        })
    }

    /// Output neurons of the layer.
    #[must_use]
    pub fn neurons(&self) -> usize {
        self.core.neurons()
    }

    /// Runs one dense layer: `activation(W · x)` on the hardware
    /// datapath. Returns the activations and the cycle breakdown.
    ///
    /// # Errors
    ///
    /// Propagates NoC batch errors.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the core's PE count.
    pub fn forward(&mut self, inputs: &[Fixed]) -> Result<(Vec<Fixed>, PipelineStats), NovaError> {
        let ws_before = self.core.stats().cycles;
        let sums = self.core.weighted_sums(inputs);
        let ws_cycles = self.core.stats().cycles - ws_before;
        let mut activations = vec![Fixed::zero(self.table.format()); sums.len()];
        let noc = self.nova.run_flat(&sums, &mut activations)?;
        let stats = PipelineStats {
            ws_cycles,
            noc_cycles: noc.noc_cycles,
            total_cycles: ws_cycles + noc.core_cycle_latency,
        };
        Ok((activations, stats))
    }

    /// The activation table in use.
    #[must_use]
    pub fn table(&self) -> &QuantizedPwl {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_approx::{fit, Activation};
    use nova_fixed::{Rounding, Q4_12};

    fn table(a: Activation) -> QuantizedPwl {
        let pwl = fit::fit_activation(a, 16, fit::BreakpointStrategy::GreedyRefine).unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    fn fx(v: f64) -> Fixed {
        Fixed::from_f64(v, Q4_12, Rounding::NearestEven)
    }

    #[test]
    fn dense_layer_with_sigmoid_matches_reference() {
        let weights = vec![
            vec![fx(0.5), fx(-0.5), fx(0.25), fx(0.1)],
            vec![fx(-0.2), fx(0.4), fx(0.3), fx(-0.1)],
            vec![fx(1.0), fx(0.0), fx(-1.0), fx(0.5)],
        ];
        let t = table(Activation::Sigmoid);
        let mut pipe = ReactNovaPipeline::new(weights.clone(), &t).unwrap();
        let inputs = [fx(1.0), fx(-2.0), fx(0.5), fx(3.0)];
        let (out, stats) = pipe.forward(&inputs).unwrap();
        assert_eq!(out.len(), 3);
        for (n, row) in weights.iter().enumerate() {
            let pre: f64 = row
                .iter()
                .zip(&inputs)
                .map(|(w, x)| w.to_f64() * x.to_f64())
                .sum();
            let expect = Activation::Sigmoid.eval(pre);
            assert!(
                (out[n].to_f64() - expect).abs() < 0.02,
                "neuron {n}: {} vs {expect}",
                out[n].to_f64()
            );
        }
        assert!(stats.ws_cycles > 0 && stats.noc_cycles > 0);
        assert_eq!(stats.total_cycles, stats.ws_cycles + 2);
    }

    #[test]
    fn nova_output_is_exact_table_eval_of_ws_sum() {
        // Bit-level contract across the crossbar: the activation equals
        // table.eval(weighted sum) exactly.
        let weights = vec![vec![fx(0.75), fx(0.25)]; 2];
        let t = table(Activation::Gelu);
        let mut pipe = ReactNovaPipeline::new(weights, &t).unwrap();
        let inputs = [fx(2.0), fx(-1.0)];
        let (out, _) = pipe.forward(&inputs).unwrap();
        let pre = fx(0.75 * 2.0 + -0.25);
        assert_eq!(out[0], t.eval(pre));
        assert_eq!(out[1], t.eval(pre));
    }

    #[test]
    fn reusable_across_layers() {
        let t = table(Activation::Relu);
        let mut pipe = ReactNovaPipeline::new(vec![vec![fx(1.0); 2]; 2], &t).unwrap();
        let (a, _) = pipe.forward(&[fx(1.0), fx(1.0)]).unwrap();
        let (b, _) = pipe.forward(&[fx(-3.0), fx(1.0)]).unwrap();
        assert!(a[0].to_f64() > 1.9);
        assert!(b[0].to_f64().abs() < 0.1);
    }
}
