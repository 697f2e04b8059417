//! The NOVA router micro-architecture (paper Fig 3).
//!
//! Two input ports — east (neighbouring router) and local (the PE
//! comparators) — and two output ports — west (next router) and local (the
//! approximated values). The east input has a register stage plus a bypass
//! path; the snooping logic matches each pending lookup address's tag bits
//! against the flit tag and latches the addressed `(slope, bias)` pair for
//! the neuron's MAC.

use nova_approx::{QuantizedPwl, SlopeBias};
use nova_fixed::{Fixed, Rounding};

use crate::comparator::{Comparators, LookupAddress};
use crate::{Flit, NocError};

/// Per-router activity counters (used for link-utilization stats and the
/// energy model's activity factors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Flits observed on the east input (bypass or registered).
    pub flits_seen: u64,
    /// Flits parked in the east input register (reach boundary).
    pub flits_buffered: u64,
    /// `(slope, bias)` pairs latched for local neurons.
    pub pairs_latched: u64,
    /// MAC operations performed.
    pub mac_ops: u64,
}

/// One NOVA router with its comparator front-end and per-neuron MAC
/// back-end.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    comparators: Comparators,
    rounding: Rounding,
    /// PE output words latched at the local input port.
    inputs: Vec<Fixed>,
    /// Lookup addresses generated by the comparators (parallel to
    /// `inputs`).
    pending: Vec<LookupAddress>,
    /// Latched pairs, filled in as matching flits pass.
    latched: Vec<Option<SlopeBias>>,
    /// Statistics.
    pub stats: RouterStats,
}

impl Router {
    /// Builds a router addressing `table`. The comparator bank shares the
    /// table's thresholds instead of copying them, and the router's
    /// registers start empty, so this allocates nothing. The pairs stay
    /// *off* the router — they live on the wire.
    #[must_use]
    pub fn new(table: &QuantizedPwl) -> Self {
        Self {
            comparators: Comparators::from_table(table),
            rounding: table.rounding(),
            inputs: Vec::new(),
            pending: Vec::new(),
            latched: Vec::new(),
            stats: RouterStats::default(),
        }
    }

    /// Local input port: latch PE outputs and run the comparator stage,
    /// producing one lookup address per neuron. The router's input,
    /// address and latch registers are reused across batches — a
    /// steady-state batch loop performs no heap allocation here.
    pub fn load_inputs(&mut self, xs: &[Fixed]) {
        self.inputs.clear();
        self.inputs.extend_from_slice(xs);
        let comparators = &self.comparators;
        self.pending.clear();
        self.pending
            .extend(xs.iter().map(|&x| comparators.address(x)));
        self.latched.clear();
        self.latched.resize(xs.len(), None);
    }

    /// East input port: a flit passes (bypass) or is read from the input
    /// register. Every pending address whose tag matches latches its slot's
    /// pair. Returns the number of pairs latched.
    pub fn snoop(&mut self, flit: &Flit, flits_in_schedule: usize, table: &QuantizedPwl) -> usize {
        self.stats.flits_seen += 1;
        let mut latched = 0;
        for (i, addr) in self.pending.iter().enumerate() {
            if self.latched[i].is_some() {
                continue;
            }
            if addr.tag(flits_in_schedule) == flit.tag() {
                self.latched[i] = Some(flit.pair(addr.slot(flits_in_schedule), table.format()));
                latched += 1;
            }
        }
        self.stats.pairs_latched += latched as u64;
        latched
    }

    /// Records a flit being parked in the east input register (it will
    /// continue west next cycle).
    pub fn buffer(&mut self) {
        self.stats.flits_buffered += 1;
    }

    /// True once every neuron has latched its pair.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.latched.iter().all(Option::is_some)
    }

    /// Local output port: the MAC stage computes `a·x + b` for every
    /// neuron, one accelerator cycle after the last matching flit, and
    /// writes it into `out` in place, with no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::BadLineConfig`] if called before all pairs are
    /// latched, or if `out` is not exactly one slot per loaded neuron
    /// (both scheduling bugs, not data conditions).
    pub fn compute_into(&mut self, out: &mut [Fixed]) -> Result<(), NocError> {
        if !self.ready() {
            return Err(NocError::BadLineConfig(
                "MAC fired before all pairs latched",
            ));
        }
        if out.len() != self.inputs.len() {
            return Err(NocError::BadLineConfig(
                "MAC output row mismatches the loaded neuron count",
            ));
        }
        self.stats.mac_ops += self.inputs.len() as u64;
        // Clamp the input exactly as the comparator front-end did, so the
        // MAC sees the same saturated word the address was generated from.
        for ((&x, pair), slot) in self.inputs.iter().zip(&self.latched).zip(out) {
            let p = pair.expect("readiness checked above");
            let xc = self.comparators.clamp(x);
            *slot = p
                .slope
                .mul_add(xc, p.bias, self.rounding)
                .expect("router datapath words share one format");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BroadcastSchedule, LinkConfig};
    use nova_approx::{fit, Activation};
    use nova_fixed::{Rounding, Q4_12};

    fn table(segments: usize) -> QuantizedPwl {
        let pwl = fit::fit_activation(Activation::Gelu, segments, fit::BreakpointStrategy::Uniform)
            .unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    fn words(xs: &[f64]) -> Vec<Fixed> {
        xs.iter()
            .map(|&x| Fixed::from_f64(x, Q4_12, Rounding::NearestEven))
            .collect()
    }

    /// Fires the MAC stage into a fresh row of the loaded neuron count.
    fn compute(r: &mut Router, neurons: usize) -> Result<Vec<Fixed>, NocError> {
        let mut out = vec![Fixed::zero(Q4_12); neurons];
        r.compute_into(&mut out)?;
        Ok(out)
    }

    #[test]
    fn router_latches_over_two_flits_and_matches_table() {
        let t = table(16);
        let s = BroadcastSchedule::compile(&t, LinkConfig::paper()).unwrap();
        let mut r = Router::new(&t);
        let inputs = words(&[-3.0, -0.5, 0.0, 0.7, 2.5, 6.0]);
        r.load_inputs(&inputs);
        assert!(!r.ready());
        for flit in s.flits() {
            r.snoop(flit, s.flit_count(), &t);
        }
        assert!(r.ready());
        let out = compute(&mut r, inputs.len()).unwrap();
        for (o, &x) in out.iter().zip(&inputs) {
            assert_eq!(
                *o,
                t.eval(x),
                "router output must be bit-identical to the table"
            );
        }
    }

    #[test]
    fn compute_before_ready_is_error() {
        let t = table(16);
        let mut r = Router::new(&t);
        r.load_inputs(&words(&[0.0]));
        assert!(compute(&mut r, 1).is_err());
    }

    #[test]
    fn single_flit_schedule_latches_everything_at_once() {
        let t = table(8);
        let s = BroadcastSchedule::compile(&t, LinkConfig::paper()).unwrap();
        assert_eq!(s.flit_count(), 1);
        let mut r = Router::new(&t);
        r.load_inputs(&words(&[-2.0, 1.0, 3.0]));
        let latched = r.snoop(&s.flits()[0], 1, &t);
        assert_eq!(latched, 3);
        assert!(r.ready());
    }

    #[test]
    fn stats_accumulate() {
        let t = table(16);
        let s = BroadcastSchedule::compile(&t, LinkConfig::paper()).unwrap();
        let mut r = Router::new(&t);
        r.load_inputs(&words(&[0.1, 0.2]));
        for flit in s.flits() {
            r.snoop(flit, 2, &t);
        }
        compute(&mut r, 2).unwrap();
        assert_eq!(r.stats.flits_seen, 2);
        assert_eq!(r.stats.pairs_latched, 2);
        assert_eq!(r.stats.mac_ops, 2);
    }

    #[test]
    fn duplicate_snoop_does_not_relatch() {
        let t = table(8);
        let s = BroadcastSchedule::compile(&t, LinkConfig::paper()).unwrap();
        let mut r = Router::new(&t);
        r.load_inputs(&words(&[0.5]));
        assert_eq!(r.snoop(&s.flits()[0], 1, &t), 1);
        assert_eq!(r.snoop(&s.flits()[0], 1, &t), 0, "already latched");
    }
}
