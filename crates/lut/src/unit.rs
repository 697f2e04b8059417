//! The two LUT vector-unit variants: per-neuron and per-core sharing.

use nova_approx::QuantizedPwl;
use nova_fixed::Fixed;

use crate::{LutBank, LutError};

/// Activity counters of a LUT vector unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LutStats {
    /// Lookup batches served.
    pub batches: u64,
    /// Individual neuron lookups.
    pub lookups: u64,
    /// SRAM bank reads (per-neuron: = lookups; per-core: = lookups, but
    /// all on one bank's many ports).
    pub bank_reads: u64,
    /// MAC operations.
    pub mac_ops: u64,
    /// Total cycles consumed (2 per batch when fully ported).
    pub cycles: u64,
}

/// Per-neuron LUT unit: every neuron owns a private single-ported bank
/// holding a full copy of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct PerNeuronLut {
    table: QuantizedPwl,
    banks: Vec<LutBank>,
    stats: LutStats,
}

impl PerNeuronLut {
    /// Builds the unit for `neurons` neurons.
    ///
    /// # Panics
    ///
    /// Panics if `neurons == 0`.
    #[must_use]
    pub fn new(table: &QuantizedPwl, neurons: usize) -> Self {
        assert!(neurons > 0, "a vector unit serves at least one neuron");
        Self {
            table: table.clone(),
            banks: (0..neurons)
                .map(|_| LutBank::from_table(table, 1))
                .collect(),
            stats: LutStats::default(),
        }
    }

    /// Re-programs the unit to serve a new table, rewriting every
    /// neuron's private bank in place (allocations reused, activity
    /// counters preserved) — the hot-loop-friendly form of rebuilding
    /// the unit that a serving-time table switch uses. The unit's
    /// evaluation table is shared with `table`, not copied.
    pub fn reprogram(&mut self, table: &QuantizedPwl) {
        self.table.clone_from(table);
        for bank in &mut self.banks {
            bank.reprogram(table);
        }
    }

    /// Neurons served.
    #[must_use]
    pub fn neurons(&self) -> usize {
        self.banks.len()
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> LutStats {
        self.stats
    }

    /// One batch lookup: cycle 1 reads each neuron's private bank at the
    /// comparator address, cycle 2 MACs. Results are bit-identical to the
    /// table.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::BatchShape`] / [`LutError::FormatMismatch`] for
    /// malformed batches.
    pub fn lookup_batch(&mut self, xs: &[Fixed]) -> Result<Vec<Fixed>, LutError> {
        let mut out = xs.to_vec();
        self.lookup_into(xs, &mut out)?;
        Ok(out)
    }

    /// The zero-copy batch lookup: writes each neuron's approximated
    /// value into `out` in place. Validation (shape + one format pass) is
    /// hoisted out of the loop; the data itself runs through the table's
    /// batch kernel ([`QuantizedPwl::eval_to_slice_unchecked`]) in one
    /// call — legal because every neuron's private bank mirrors
    /// `self.table` bit-for-bit (they are loaded from it on construction
    /// and rewritten from it on [`reprogram`](Self::reprogram)), so the
    /// kernel's output is exactly what per-bank read + MAC would produce.
    /// Each bank still records its one architectural read per batch.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::BatchShape`] / [`LutError::FormatMismatch`] for
    /// malformed batches (including an `out` of the wrong width).
    pub fn lookup_into(&mut self, xs: &[Fixed], out: &mut [Fixed]) -> Result<(), LutError> {
        validate(&self.table, self.banks.len(), xs)?;
        if out.len() != xs.len() {
            return Err(LutError::BatchShape {
                neurons: xs.len(),
                got: out.len(),
            });
        }
        self.table.eval_to_slice_unchecked(xs, out);
        for bank in &mut self.banks {
            bank.record_reads(1);
        }
        self.stats.batches += 1;
        self.stats.lookups += xs.len() as u64;
        self.stats.bank_reads += xs.len() as u64;
        self.stats.mac_ops += xs.len() as u64;
        self.stats.cycles += 2; // lookup + MAC, fully parallel banks
        Ok(())
    }
}

/// Per-core LUT unit: one bank with `neurons` read ports shared by all
/// neurons (no data redundancy, expensive multiporting).
#[derive(Debug, Clone, PartialEq)]
pub struct PerCoreLut {
    table: QuantizedPwl,
    bank: LutBank,
    neurons: usize,
    stats: LutStats,
}

impl PerCoreLut {
    /// Builds the unit for `neurons` neurons (bank gets `neurons` ports,
    /// as the paper's per-core variant provides).
    ///
    /// # Panics
    ///
    /// Panics if `neurons == 0`.
    #[must_use]
    pub fn new(table: &QuantizedPwl, neurons: usize) -> Self {
        assert!(neurons > 0, "a vector unit serves at least one neuron");
        Self {
            table: table.clone(),
            bank: LutBank::from_table(table, neurons),
            neurons,
            stats: LutStats::default(),
        }
    }

    /// Re-programs the unit to serve a new table, rewriting the shared
    /// bank in place (allocation reused, activity counters preserved).
    /// The unit's evaluation table is shared with `table`, not copied.
    pub fn reprogram(&mut self, table: &QuantizedPwl) {
        self.table.clone_from(table);
        self.bank.reprogram(table);
    }

    /// Neurons served.
    #[must_use]
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> LutStats {
        self.stats
    }

    /// The shared bank (for port/read statistics).
    #[must_use]
    pub fn bank(&self) -> &LutBank {
        &self.bank
    }

    /// One batch lookup through the shared multi-ported bank.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::BatchShape`] / [`LutError::FormatMismatch`] for
    /// malformed batches.
    pub fn lookup_batch(&mut self, xs: &[Fixed]) -> Result<Vec<Fixed>, LutError> {
        let mut out = xs.to_vec();
        self.lookup_into(xs, &mut out)?;
        Ok(out)
    }

    /// The zero-copy batch lookup through the shared multi-ported bank:
    /// writes results into `out` in place, with validation hoisted out of
    /// the loop. As with [`PerNeuronLut::lookup_into`], the data runs
    /// through the table's batch kernel — the shared bank mirrors
    /// `self.table` bit-for-bit by construction and re-programming — and
    /// the bank records one read per neuron (all on its many ports), as
    /// the per-element path did.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::BatchShape`] / [`LutError::FormatMismatch`] for
    /// malformed batches (including an `out` of the wrong width).
    pub fn lookup_into(&mut self, xs: &[Fixed], out: &mut [Fixed]) -> Result<(), LutError> {
        validate(&self.table, self.neurons, xs)?;
        if out.len() != xs.len() {
            return Err(LutError::BatchShape {
                neurons: xs.len(),
                got: out.len(),
            });
        }
        let lookup_cycles = self.bank.cycles_for(xs.len());
        self.table.eval_to_slice_unchecked(xs, out);
        self.bank.record_reads(xs.len() as u64);
        self.stats.batches += 1;
        self.stats.lookups += xs.len() as u64;
        self.stats.bank_reads += xs.len() as u64;
        self.stats.mac_ops += xs.len() as u64;
        self.stats.cycles += lookup_cycles as u64 + 1;
        Ok(())
    }
}

fn validate(table: &QuantizedPwl, neurons: usize, xs: &[Fixed]) -> Result<(), LutError> {
    if xs.len() != neurons {
        return Err(LutError::BatchShape {
            neurons,
            got: xs.len(),
        });
    }
    let format = table.format();
    if xs.iter().any(|x| x.format() != format) {
        return Err(LutError::FormatMismatch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_approx::{fit, Activation};
    use nova_fixed::{Rounding, Q4_12};

    fn table() -> QuantizedPwl {
        let pwl =
            fit::fit_activation(Activation::Sigmoid, 16, fit::BreakpointStrategy::Uniform).unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    fn batch(n: usize, seed: f64) -> Vec<Fixed> {
        (0..n)
            .map(|i| {
                Fixed::from_f64(
                    (i as f64 * 0.9 + seed).sin() * 6.0,
                    Q4_12,
                    Rounding::NearestEven,
                )
            })
            .collect()
    }

    #[test]
    fn reprogram_switches_tables_in_place_and_keeps_counters() {
        let sigmoid = table();
        let tanh_pwl =
            fit::fit_activation(Activation::Tanh, 16, fit::BreakpointStrategy::Uniform).unwrap();
        let tanh = QuantizedPwl::from_pwl(&tanh_pwl, Q4_12, Rounding::NearestEven).unwrap();
        let xs = batch(8, 0.7);
        let mut pn = PerNeuronLut::new(&sigmoid, 8);
        let mut pc = PerCoreLut::new(&sigmoid, 8);
        pn.lookup_batch(&xs).unwrap();
        pc.lookup_batch(&xs).unwrap();
        let (pn_stats, pc_stats) = (pn.stats(), pc.stats());
        pn.reprogram(&tanh);
        pc.reprogram(&tanh);
        // Same hardware, new operator: counters survive the rewrite...
        assert_eq!(pn.stats(), pn_stats);
        assert_eq!(pc.stats(), pc_stats);
        // ...and lookups are now bit-identical to the new table.
        let a = pn.lookup_batch(&xs).unwrap();
        let b = pc.lookup_batch(&xs).unwrap();
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(a[i], tanh.eval(x));
            assert_eq!(b[i], tanh.eval(x));
        }
    }

    #[test]
    fn reprogram_shares_the_table_instead_of_copying() {
        // A switch re-points each unit's evaluation table at the new
        // table's storage; only the modeled banks are rewritten.
        let tanh_pwl =
            fit::fit_activation(Activation::Tanh, 16, fit::BreakpointStrategy::Uniform).unwrap();
        let tanh = QuantizedPwl::from_pwl(&tanh_pwl, Q4_12, Rounding::NearestEven).unwrap();
        let mut pn = PerNeuronLut::new(&table(), 8);
        let mut pc = PerCoreLut::new(&table(), 8);
        pn.reprogram(&tanh);
        pc.reprogram(&tanh);
        let storage = tanh.slopes_raw().as_ptr();
        assert_eq!(pn.table.slopes_raw().as_ptr(), storage, "per-neuron copy");
        assert_eq!(pc.table.slopes_raw().as_ptr(), storage, "per-core copy");
        assert_eq!(pc.bank().entries(), tanh.segments());
    }

    #[test]
    fn both_variants_match_table() {
        let t = table();
        let xs = batch(16, 0.4);
        let mut pn = PerNeuronLut::new(&t, 16);
        let mut pc = PerCoreLut::new(&t, 16);
        let a = pn.lookup_batch(&xs).unwrap();
        let b = pc.lookup_batch(&xs).unwrap();
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(a[i], t.eval(x));
            assert_eq!(b[i], t.eval(x));
        }
    }

    #[test]
    fn two_cycle_latency() {
        let t = table();
        let xs = batch(8, 0.0);
        let mut pn = PerNeuronLut::new(&t, 8);
        let mut pc = PerCoreLut::new(&t, 8);
        pn.lookup_batch(&xs).unwrap();
        pc.lookup_batch(&xs).unwrap();
        assert_eq!(pn.stats().cycles, 2);
        assert_eq!(
            pc.stats().cycles,
            2,
            "fully ported bank keeps 2-cycle latency"
        );
    }

    #[test]
    fn per_core_shares_one_bank() {
        let t = table();
        let xs = batch(32, 1.0);
        let mut pc = PerCoreLut::new(&t, 32);
        pc.lookup_batch(&xs).unwrap();
        assert_eq!(pc.bank().reads(), 32);
        assert_eq!(pc.bank().read_ports(), 32);
    }

    #[test]
    fn stats_accumulate_over_batches() {
        let t = table();
        let mut pn = PerNeuronLut::new(&t, 4);
        for k in 0..5 {
            pn.lookup_batch(&batch(4, k as f64)).unwrap();
        }
        let s = pn.stats();
        assert_eq!(s.batches, 5);
        assert_eq!(s.lookups, 20);
        assert_eq!(s.bank_reads, 20);
        assert_eq!(s.cycles, 10);
    }

    #[test]
    fn shape_and_format_validation() {
        let t = table();
        let mut pn = PerNeuronLut::new(&t, 4);
        assert!(matches!(
            pn.lookup_batch(&batch(3, 0.0)),
            Err(LutError::BatchShape { neurons: 4, got: 3 })
        ));
        let wrong = vec![Fixed::zero(nova_fixed::Q6_10); 4];
        assert!(matches!(
            pn.lookup_batch(&wrong),
            Err(LutError::FormatMismatch)
        ));
    }
}
