use std::fmt;

use crate::FixedError;

/// Rounding mode applied when quantizing a real value (or a wide
/// intermediate result) to a fixed-point word.
///
/// Hardware MACs in the paper's datapath truncate or round-to-nearest at the
/// output register; both are provided so the approximation-error experiments
/// can ablate the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Round to nearest, ties to even (IEEE-style; hardware "convergent").
    #[default]
    NearestEven,
    /// Round to nearest, ties away from zero.
    NearestAway,
    /// Truncate toward negative infinity (drop fraction bits; cheapest gate
    /// count, used by the most area-frugal MAC variant).
    Floor,
}

/// A signed fixed-point format: `total_bits`-bit two's-complement word with
/// `frac_bits` bits after the binary point (a "Q" format).
///
/// The value of a word with raw integer `r` is `r / 2^frac_bits`.
///
/// # Example
///
/// ```
/// use nova_fixed::QFormat;
///
/// # fn main() -> Result<(), nova_fixed::FixedError> {
/// let q = QFormat::new(16, 12)?;
/// assert_eq!(q.total_bits(), 16);
/// assert_eq!(q.frac_bits(), 12);
/// assert_eq!(q.max_value(), (i16::MAX as f64) / 4096.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    total_bits: u8,
    frac_bits: u8,
}

impl QFormat {
    /// Creates a format with `total_bits` word size and `frac_bits` fraction
    /// bits.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::InvalidFormat`] if `total_bits` is 0 or greater
    /// than 32, or if `frac_bits >= total_bits` (at least the sign bit must
    /// remain).
    pub fn new(total_bits: u8, frac_bits: u8) -> Result<Self, FixedError> {
        if total_bits == 0 || total_bits > 32 || frac_bits >= total_bits {
            return Err(FixedError::InvalidFormat {
                total_bits,
                frac_bits,
            });
        }
        Ok(Self {
            total_bits,
            frac_bits,
        })
    }

    /// `const` constructor for the crate's predefined formats.
    ///
    /// # Panics
    ///
    /// Panics at compile time (const evaluation) on an invalid format.
    pub(crate) const fn const_new(total_bits: u8, frac_bits: u8) -> Self {
        assert!(total_bits > 0 && total_bits <= 32 && frac_bits < total_bits);
        Self {
            total_bits,
            frac_bits,
        }
    }

    /// Word size in bits.
    #[inline]
    #[must_use]
    pub fn total_bits(self) -> u8 {
        self.total_bits
    }

    /// Number of fraction bits.
    #[inline]
    #[must_use]
    pub fn frac_bits(self) -> u8 {
        self.frac_bits
    }

    /// Number of integer bits including the sign bit.
    #[must_use]
    pub fn int_bits(self) -> u8 {
        self.total_bits - self.frac_bits
    }

    /// Smallest representable increment (`2^-frac_bits`).
    #[must_use]
    pub fn resolution(self) -> f64 {
        (self.scale() as f64).recip()
    }

    /// The scaling factor `2^frac_bits`.
    #[inline]
    #[must_use]
    pub fn scale(self) -> i64 {
        1i64 << self.frac_bits
    }

    /// Largest raw word value (`2^(total_bits-1) - 1`).
    #[inline]
    #[must_use]
    pub fn max_raw(self) -> i64 {
        (1i64 << (self.total_bits - 1)) - 1
    }

    /// Smallest (most negative) raw word value (`-2^(total_bits-1)`).
    #[inline]
    #[must_use]
    pub fn min_raw(self) -> i64 {
        -(1i64 << (self.total_bits - 1))
    }

    /// Largest representable real value.
    #[must_use]
    pub fn max_value(self) -> f64 {
        self.max_raw() as f64 * self.resolution()
    }

    /// Smallest (most negative) representable real value.
    #[must_use]
    pub fn min_value(self) -> f64 {
        self.min_raw() as f64 * self.resolution()
    }

    /// Quantizes a real value to a raw word, saturating at the format's
    /// range boundaries.
    #[must_use]
    pub fn quantize(self, value: f64, rounding: Rounding) -> i64 {
        if value.is_nan() {
            return 0;
        }
        let scaled = value * self.scale() as f64;
        let rounded = match rounding {
            Rounding::NearestEven => scaled.round_ties_even(),
            Rounding::NearestAway => scaled.round(),
            Rounding::Floor => scaled.floor(),
        };
        if rounded >= self.max_raw() as f64 {
            self.max_raw()
        } else if rounded <= self.min_raw() as f64 {
            self.min_raw()
        } else {
            rounded as i64
        }
    }

    /// Clamps a raw (possibly wide) integer into this format's word range.
    #[inline]
    #[must_use]
    pub fn saturate_raw(self, raw: i64) -> i64 {
        raw.clamp(self.min_raw(), self.max_raw())
    }

    /// True if `raw` fits in the word without saturation.
    #[inline]
    #[must_use]
    pub fn contains_raw(self, raw: i64) -> bool {
        raw >= self.min_raw() && raw <= self.max_raw()
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.int_bits(), self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_invalid_formats() {
        assert!(QFormat::new(0, 0).is_err());
        assert!(QFormat::new(33, 2).is_err());
        assert!(QFormat::new(16, 16).is_err());
        assert!(QFormat::new(16, 17).is_err());
        assert!(QFormat::new(16, 15).is_ok());
    }

    #[test]
    fn q4_12_range() {
        let q = QFormat::new(16, 12).unwrap();
        assert_eq!(q.max_raw(), 32767);
        assert_eq!(q.min_raw(), -32768);
        assert!((q.max_value() - 7.999_755_859_375).abs() < 1e-12);
        assert_eq!(q.min_value(), -8.0);
        assert_eq!(q.int_bits(), 4);
    }

    #[test]
    fn quantize_saturates() {
        let q = QFormat::new(16, 12).unwrap();
        assert_eq!(q.quantize(100.0, Rounding::NearestEven), q.max_raw());
        assert_eq!(q.quantize(-100.0, Rounding::NearestEven), q.min_raw());
        assert_eq!(q.quantize(f64::NAN, Rounding::NearestEven), 0);
    }

    #[test]
    fn quantize_rounding_modes() {
        let q = QFormat::new(16, 0).unwrap();
        assert_eq!(q.quantize(2.5, Rounding::NearestEven), 2);
        assert_eq!(q.quantize(3.5, Rounding::NearestEven), 4);
        assert_eq!(q.quantize(2.5, Rounding::NearestAway), 3);
        assert_eq!(q.quantize(-2.5, Rounding::NearestAway), -3);
        assert_eq!(q.quantize(2.9, Rounding::Floor), 2);
        assert_eq!(q.quantize(-2.1, Rounding::Floor), -3);
    }

    #[test]
    fn display_format() {
        assert_eq!(QFormat::new(16, 12).unwrap().to_string(), "Q4.12");
        assert_eq!(QFormat::new(16, 8).unwrap().to_string(), "Q8.8");
    }

    #[test]
    fn resolution_matches_scale() {
        let q = QFormat::new(16, 10).unwrap();
        assert_eq!(q.scale(), 1024);
        assert!((q.resolution() - 1.0 / 1024.0).abs() < 1e-15);
    }
}
