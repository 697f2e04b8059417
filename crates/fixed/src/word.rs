use std::fmt;

use crate::{Fixed, FixedError, QFormat};

/// A raw 16-bit hardware word, as carried on the NOVA NoC wires.
///
/// The 257-bit NOVA link is 16 of these words (8 slope/bias pairs) plus one
/// tag bit; [`Word16`] is the unit the flit packer operates on. A `Word16`
/// is just bits — it only becomes a number when paired with a [`QFormat`]
/// via [`Word16::to_fixed`].
///
/// # Example
///
/// ```
/// use nova_fixed::{Fixed, Q4_12, Rounding, Word16};
///
/// # fn main() -> Result<(), nova_fixed::FixedError> {
/// let v = Fixed::from_f64(-1.5, Q4_12, Rounding::NearestEven);
/// let w = Word16::from_fixed(v)?;
/// assert_eq!(w.to_fixed(Q4_12).to_f64(), -1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Word16(u16);

impl Word16 {
    /// Wraps raw bits.
    #[must_use]
    pub fn new(bits: u16) -> Self {
        Self(bits)
    }

    /// The raw bit pattern.
    #[must_use]
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Encodes a fixed-point value into a 16-bit word.
    ///
    /// For every format of at most 16 bits the `from_fixed` →
    /// [`to_fixed`](Self::to_fixed) round trip is exact on *every* raw
    /// word: truncation to 16 bits is lossless because the format bounds
    /// the word, and decoding sign-extends the same bits back. This is
    /// the invariant the NoC simulation's exactness rests on — a compiled
    /// schedule's wire-decoded `(slope, bias)` pairs are bit-identical to
    /// the table they were packed from, so evaluating through the wire
    /// is bit-identical to evaluating the table directly. Tables are at
    /// most 16 bits wide, but a [`Fixed`] may be up to 32, so the encoder
    /// checks the width itself. The exhaustive round-trip test pins the
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::InvalidFormat`] if the value's format is wider
    /// than 16 bits (it would not fit on the wire).
    pub fn from_fixed(value: Fixed) -> Result<Self, FixedError> {
        let fmt = value.format();
        if fmt.total_bits() > 16 {
            return Err(FixedError::InvalidFormat {
                total_bits: fmt.total_bits(),
                frac_bits: fmt.frac_bits(),
            });
        }
        // Two's-complement truncation to 16 bits preserves the word because
        // the format guarantees it fits.
        Ok(Self(value.raw() as i16 as u16))
    }

    /// Decodes the word under a format (sign-extending from bit 15).
    #[must_use]
    pub fn to_fixed(self, format: QFormat) -> Fixed {
        let raw = self.0 as i16 as i64;
        // A 16-bit pattern always fits a format with total_bits == 16; for
        // narrower formats saturate (hardware would never produce these).
        Fixed::from_raw_saturating(raw, format)
    }
}

impl fmt::Display for Word16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:04x}", self.0)
    }
}

impl fmt::LowerHex for Word16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Word16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<u16> for Word16 {
    fn from(bits: u16) -> Self {
        Self(bits)
    }
}

impl From<Word16> for u16 {
    fn from(word: Word16) -> Self {
        word.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rounding, Q4_12};

    #[test]
    fn roundtrip_all_sign_cases() {
        for v in [-8.0, -0.125, 0.0, 0.125, 7.5] {
            let f = Fixed::from_f64(v, Q4_12, Rounding::NearestEven);
            let w = Word16::from_fixed(f).unwrap();
            assert_eq!(w.to_fixed(Q4_12), f);
        }
    }

    #[test]
    fn negative_values_encode_twos_complement() {
        let f = Fixed::from_raw(-1, Q4_12).unwrap();
        let w = Word16::from_fixed(f).unwrap();
        assert_eq!(w.bits(), 0xffff);
    }

    #[test]
    fn roundtrip_exact_for_every_raw_word_of_16_bit_formats() {
        // The wire-exactness invariant behind the NoC simulation:
        // every raw word of a ≤ 16-bit format survives the wire
        // unchanged, for both a full-width and a narrower format.
        for format in [Q4_12, crate::QFormat::new(12, 8).unwrap()] {
            for raw in format.min_raw()..=format.max_raw() {
                let f = Fixed::from_raw(raw, format).unwrap();
                let w = Word16::from_fixed(f).unwrap();
                assert_eq!(w.to_fixed(format), f, "raw {raw} in {format}");
            }
        }
    }

    #[test]
    fn wide_format_rejected() {
        let wide = crate::QFormat::new(32, 16).unwrap();
        let f = Fixed::from_f64(1.0, wide, Rounding::NearestEven);
        assert!(Word16::from_fixed(f).is_err());
    }

    #[test]
    fn formatting_impls() {
        let w = Word16::new(0x0abc);
        assert_eq!(w.to_string(), "0x0abc");
        assert_eq!(format!("{w:x}"), "abc");
        assert_eq!(format!("{w:b}"), "101010111100");
    }
}
