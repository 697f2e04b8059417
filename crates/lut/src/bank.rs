//! The 64-byte LUT SRAM bank.

use nova_approx::{QuantizedPwl, SlopeBias};

use crate::LutError;

/// One SRAM bank holding the `(slope, bias)` table (paper: 64 B = 16
/// pairs), with a fixed number of read ports and access counting.
#[derive(Debug, Clone, PartialEq)]
pub struct LutBank {
    entries: Vec<SlopeBias>,
    read_ports: usize,
    reads: u64,
}

impl LutBank {
    /// Loads the bank from a quantized table.
    ///
    /// # Panics
    ///
    /// Panics if `read_ports == 0`.
    #[must_use]
    pub fn from_table(table: &QuantizedPwl, read_ports: usize) -> Self {
        assert!(read_ports > 0, "a bank needs at least one read port");
        Self {
            entries: table.pairs().to_vec(),
            read_ports,
            reads: 0,
        }
    }

    /// Rewrites every entry from a new table in place — the SRAM bank
    /// reload a table switch models. Reuses the bank's allocation (no
    /// heap traffic when the new table has no more segments than the
    /// bank's capacity) and preserves the read counter: the bank is the
    /// same hardware, serving a new operator.
    pub fn reprogram(&mut self, table: &QuantizedPwl) {
        self.entries.clear();
        self.entries.extend_from_slice(table.pairs());
    }

    /// Entries stored (= table segments).
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Read ports.
    #[must_use]
    pub fn read_ports(&self) -> usize {
        self.read_ports
    }

    /// Total reads issued so far.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Reads one entry.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::AddressOutOfRange`] for a bad address.
    pub fn read(&mut self, address: usize) -> Result<SlopeBias, LutError> {
        self.reads += 1;
        self.entries
            .get(address)
            .copied()
            .ok_or(LutError::AddressOutOfRange {
                address,
                entries: self.entries.len(),
            })
    }

    /// Accounts for `reads` entry reads served in bulk — the batch fast
    /// path's accounting twin of calling [`read`](Self::read) that many
    /// times. The data itself comes from the table's batch kernel (which
    /// this bank mirrors bit-for-bit by construction and re-programming),
    /// so only the activity counter needs to move.
    pub fn record_reads(&mut self, reads: u64) {
        self.reads += reads;
    }

    /// Cycles needed to serve `requests` simultaneous reads: reads beyond
    /// the port count serialize (relevant only for hypothetical
    /// under-ported configs; the paper's per-core banks are fully ported).
    #[must_use]
    pub fn cycles_for(&self, requests: usize) -> usize {
        requests.div_ceil(self.read_ports).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_approx::{fit, Activation};
    use nova_fixed::{Rounding, Q4_12};

    fn table() -> QuantizedPwl {
        let pwl =
            fit::fit_activation(Activation::Tanh, 16, fit::BreakpointStrategy::Uniform).unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    #[test]
    fn bank_mirrors_table() {
        let t = table();
        let mut b = LutBank::from_table(&t, 1);
        assert_eq!(b.entries(), 16);
        for (i, p) in t.pairs().iter().enumerate() {
            assert_eq!(b.read(i).unwrap(), *p);
        }
        assert_eq!(b.reads(), 16);
    }

    #[test]
    fn out_of_range_read_is_error() {
        let t = table();
        let mut b = LutBank::from_table(&t, 1);
        assert!(matches!(
            b.read(16),
            Err(LutError::AddressOutOfRange {
                address: 16,
                entries: 16
            })
        ));
    }

    #[test]
    fn port_serialization() {
        let t = table();
        let b = LutBank::from_table(&t, 4);
        assert_eq!(b.cycles_for(4), 1);
        assert_eq!(b.cycles_for(5), 2);
        assert_eq!(b.cycles_for(0), 1);
        let fully_ported = LutBank::from_table(&t, 128);
        assert_eq!(fully_ported.cycles_for(128), 1);
    }

    #[test]
    #[should_panic(expected = "at least one read port")]
    fn zero_ports_panics() {
        let _ = LutBank::from_table(&table(), 0);
    }
}
