//! The comparator front-end: PE outputs → lookup addresses.
//!
//! Each PE output is compared against the quantized breakpoint thresholds
//! (Fig 2's `d_n` registers); the thermometer code of "how many thresholds
//! are ≤ x" is the lookup address. For 16 segments this is a 4-bit address
//! whose LSB is matched against the flit tag on the NoC.

use nova_approx::QuantizedPwl;
use nova_fixed::Fixed;

/// A lookup address produced by the comparator tree (segment index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LookupAddress(pub u8);

impl LookupAddress {
    /// The tag this address expects on the link, given the broadcast's
    /// flit count (address modulo flits — LSB for the paper's 2 flits).
    #[must_use]
    pub fn tag(self, flits: usize) -> u8 {
        (usize::from(self.0) % flits.max(1)) as u8
    }

    /// The pair slot within the matching flit (remaining address bits).
    #[must_use]
    pub fn slot(self, flits: usize) -> usize {
        usize::from(self.0) / flits.max(1)
    }
}

/// The per-router comparator bank: the thresholds and clamp bounds of a
/// quantized table. The bank holds the table itself — a shared handle, so
/// programming a bank copies no thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparators {
    table: QuantizedPwl,
}

impl Comparators {
    /// Builds the comparator bank from the table it will address.
    #[must_use]
    pub fn from_table(table: &QuantizedPwl) -> Self {
        Self {
            table: table.clone(),
        }
    }

    /// Number of thresholds (segments − 1).
    #[must_use]
    pub fn thresholds(&self) -> usize {
        self.table.breakpoints().len()
    }

    /// The saturation bounds of the comparator front-end.
    #[must_use]
    pub fn bounds(&self) -> (Fixed, Fixed) {
        self.table.clamp_bounds()
    }

    /// Clamps a word to the bank's saturation bounds (shared with the MAC
    /// stage so address and operand always agree).
    #[must_use]
    pub fn clamp(&self, x: Fixed) -> Fixed {
        self.table.clamp(x)
    }

    /// Generates the lookup address for a PE output word: clamp, then
    /// count thresholds `≤ x` (the hardware thermometer encode).
    #[must_use]
    pub fn address(&self, x: Fixed) -> LookupAddress {
        let raw = self.clamp(x).raw();
        let count = self.table.breakpoints().partition_point(|d| d.raw() <= raw);
        LookupAddress(count as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_approx::{fit, Activation, QuantizedPwl};
    use nova_fixed::{Rounding, Q4_12};

    fn table(segments: usize) -> QuantizedPwl {
        let pwl = fit::fit_activation(
            Activation::Sigmoid,
            segments,
            fit::BreakpointStrategy::Uniform,
        )
        .unwrap();
        QuantizedPwl::from_pwl(&pwl, Q4_12, Rounding::NearestEven).unwrap()
    }

    #[test]
    fn addresses_match_table_lookup() {
        let t = table(16);
        let c = Comparators::from_table(&t);
        for raw in (Q4_12.min_raw()..Q4_12.max_raw()).step_by(997) {
            let x = Fixed::from_raw(raw, Q4_12).unwrap();
            assert_eq!(usize::from(c.address(x).0), t.lookup_address(x));
        }
    }

    #[test]
    fn tag_slot_decomposition_paper_scheme() {
        // 16 segments over 2 flits: address LSB = tag, upper bits = slot.
        for addr in 0u8..16 {
            let a = LookupAddress(addr);
            assert_eq!(a.tag(2), addr & 1);
            assert_eq!(a.slot(2), usize::from(addr >> 1));
        }
    }

    #[test]
    fn single_flit_tag_is_zero() {
        for addr in 0u8..8 {
            let a = LookupAddress(addr);
            assert_eq!(a.tag(1), 0);
            assert_eq!(a.slot(1), usize::from(addr));
        }
    }

    #[test]
    fn tag_slot_reconstruct_address() {
        for flits in [1usize, 2, 4] {
            for addr in 0u8..16 {
                let a = LookupAddress(addr);
                let rebuilt = a.slot(flits) * flits + usize::from(a.tag(flits));
                assert_eq!(rebuilt, usize::from(addr));
            }
        }
    }

    #[test]
    fn clamping_saturates_addresses() {
        let t = table(8);
        let c = Comparators::from_table(&t);
        let min = Fixed::from_raw(Q4_12.min_raw(), Q4_12).unwrap();
        let max = Fixed::from_raw(Q4_12.max_raw(), Q4_12).unwrap();
        assert_eq!(c.address(min).0, 0);
        assert_eq!(usize::from(c.address(max).0), t.segments() - 1);
    }
}
