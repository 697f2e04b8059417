use std::cmp::Ordering;
use std::fmt;

use crate::{FixedError, QFormat, Rounding};

/// A fixed-point value: a raw two's-complement word interpreted in a
/// [`QFormat`].
///
/// `Fixed` is the *architectural* value type: all datapath simulation in the
/// NOVA reproduction (comparators, MACs, broadcast words) goes through it so
/// that results are bit-exact with what the 16-bit RTL datapath would
/// produce.
///
/// Arithmetic is saturating, mirroring the saturating adders the paper's MAC
/// units use; mixed-format operations are an error rather than an implicit
/// conversion.
///
/// The raw word is stored as an `i32`, so a `Fixed` is 8 bytes: every
/// batch grid, request and result row the serving engine copies moves half
/// the bytes an `i64` word would. The narrowing is exact, because
/// [`QFormat::new`] refuses formats wider than 32 bits and every
/// constructor saturates or range-checks into its format before it stores
/// the word. [`raw`](Self::raw) still returns `i64`, and all arithmetic
/// runs in `i64` before the result is saturated back into the format.
///
/// # Example
///
/// ```
/// use nova_fixed::{Fixed, Q4_12, Rounding};
///
/// # fn main() -> Result<(), nova_fixed::FixedError> {
/// let slope = Fixed::from_f64(0.5, Q4_12, Rounding::NearestEven);
/// let x = Fixed::from_f64(3.0, Q4_12, Rounding::NearestEven);
/// let bias = Fixed::from_f64(0.125, Q4_12, Rounding::NearestEven);
/// let y = slope.mul_add(x, bias, Rounding::NearestEven)?;
/// assert!((y.to_f64() - 1.625).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fixed {
    raw: i32,
    format: QFormat,
}

const _: () = assert!(std::mem::size_of::<Fixed>() == 8);

impl Fixed {
    /// Zero in the given format.
    #[must_use]
    pub fn zero(format: QFormat) -> Self {
        Self { raw: 0, format }
    }

    /// One in the given format (saturated if 1.0 is out of range).
    #[must_use]
    pub fn one(format: QFormat) -> Self {
        Self::from_raw_saturating(format.scale(), format)
    }

    /// Quantizes `value` into `format`, saturating out-of-range inputs.
    #[must_use]
    pub fn from_f64(value: f64, format: QFormat, rounding: Rounding) -> Self {
        Self {
            raw: format.quantize(value, rounding) as i32,
            format,
        }
    }

    /// Constructs from a raw word.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::RawOutOfRange`] if `raw` does not fit the
    /// format's word.
    pub fn from_raw(raw: i64, format: QFormat) -> Result<Self, FixedError> {
        if format.contains_raw(raw) {
            Ok(Self {
                raw: raw as i32,
                format,
            })
        } else {
            Err(FixedError::RawOutOfRange { raw, format })
        }
    }

    /// Constructs from a raw word, saturating instead of failing.
    #[inline]
    #[must_use]
    pub fn from_raw_saturating(raw: i64, format: QFormat) -> Self {
        Self {
            raw: format.saturate_raw(raw) as i32,
            format,
        }
    }

    /// The raw two's-complement word.
    #[inline]
    #[must_use]
    pub fn raw(self) -> i64 {
        i64::from(self.raw)
    }

    /// The value's format.
    #[inline]
    #[must_use]
    pub fn format(self) -> QFormat {
        self.format
    }

    /// Converts to `f64` exactly (every fixed-point word is representable).
    #[must_use]
    pub fn to_f64(self) -> f64 {
        f64::from(self.raw) * self.format.resolution()
    }

    /// Re-quantizes into another format.
    #[must_use]
    pub fn convert(self, format: QFormat, rounding: Rounding) -> Self {
        if format == self.format {
            return self;
        }
        Fixed::from_f64(self.to_f64(), format, rounding)
    }

    /// Saturating addition.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatMismatch`] if the operands' formats
    /// differ.
    pub fn saturating_add(self, rhs: Self) -> Result<Self, FixedError> {
        self.check_format(rhs)?;
        Ok(Self::from_raw_saturating(
            self.raw() + rhs.raw(),
            self.format,
        ))
    }

    /// Saturating subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatMismatch`] if the operands' formats
    /// differ.
    pub fn saturating_sub(self, rhs: Self) -> Result<Self, FixedError> {
        self.check_format(rhs)?;
        Ok(Self::from_raw_saturating(
            self.raw() - rhs.raw(),
            self.format,
        ))
    }

    /// Saturating multiplication with a single rounding step, as a hardware
    /// multiplier with a `2n`-bit product register would produce.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatMismatch`] if the operands' formats
    /// differ.
    pub fn saturating_mul(self, rhs: Self, rounding: Rounding) -> Result<Self, FixedError> {
        self.check_format(rhs)?;
        let wide = self.raw() * rhs.raw(); // ≤ 64 bits for ≤ 32-bit words
        let raw = shift_round(wide, self.format.frac_bits(), rounding);
        Ok(Self::from_raw_saturating(raw, self.format))
    }

    /// Fused multiply-add `self * x + b` with one rounding step at the end,
    /// exactly as the paper's per-neuron MAC computes `a·x + b`.
    ///
    /// The product is kept in a wide accumulator, the bias is aligned to the
    /// accumulator's precision, and a single quantization produces the
    /// output word — so `mul_add` can be more accurate than
    /// `saturating_mul` followed by `saturating_add`.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatMismatch`] if the formats differ.
    pub fn mul_add(self, x: Self, b: Self, rounding: Rounding) -> Result<Self, FixedError> {
        self.check_format(x)?;
        self.check_format(b)?;
        Ok(Self {
            raw: Self::mul_add_raw(self.raw(), x.raw(), b.raw(), self.format, rounding) as i32,
            format: self.format,
        })
    }

    /// The raw-word core of [`mul_add`](Self::mul_add): computes the
    /// saturated output word of `slope·x + bias` for words already known
    /// to share `format`. This is the datapath batch loops drive after
    /// hoisting the format check out of the loop — `mul_add` itself
    /// delegates here, so the two are bit-identical by construction.
    ///
    /// `#[inline]` matters: without it (and without LTO) this call would
    /// stay an opaque cross-crate function in the batch kernels' inner
    /// loops, blocking constant-folding of `format`/`rounding` and any
    /// autovectorization downstream.
    #[inline]
    #[must_use]
    pub fn mul_add_raw(
        slope_raw: i64,
        x_raw: i64,
        bias_raw: i64,
        format: QFormat,
        rounding: Rounding,
    ) -> i64 {
        let frac = format.frac_bits();
        let wide = slope_raw * x_raw + (bias_raw << frac);
        format.saturate_raw(shift_round(wide, frac, rounding))
    }

    /// Saturating negation (`-min_raw` saturates to `max_raw`).
    #[must_use]
    pub fn saturating_neg(self) -> Self {
        Self::from_raw_saturating(-self.raw(), self.format)
    }

    /// Absolute value, saturating for the most-negative word.
    #[must_use]
    pub fn saturating_abs(self) -> Self {
        if self.raw < 0 {
            self.saturating_neg()
        } else {
            self
        }
    }

    /// Compares two values of the same format.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatMismatch`] if the operands' formats
    /// differ.
    pub fn compare(self, rhs: Self) -> Result<Ordering, FixedError> {
        self.check_format(rhs)?;
        Ok(self.raw.cmp(&rhs.raw))
    }

    fn check_format(self, rhs: Self) -> Result<(), FixedError> {
        if self.format == rhs.format {
            Ok(())
        } else {
            Err(FixedError::FormatMismatch {
                lhs: self.format,
                rhs: rhs.format,
            })
        }
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.to_f64(), self.format)
    }
}

/// Arithmetic right shift by `frac` bits with the requested rounding of the
/// dropped fraction. Shared by [`Fixed::mul_add_raw`] and the [`Mac`]
/// accumulator read-out (`crate::mac`), so the fused-MAC batch kernels and
/// the accumulator model cannot drift apart.
///
/// The rounding increment is computed as a boolean rather than selected by
/// nested branches: once a caller's `rounding` is a known constant (every
/// batch kernel hoists it), the whole body reduces to shift/compare/add
/// with no data-dependent branch, which is what lets LLVM vectorize the
/// loops driving it.
///
/// [`Mac`]: crate::Mac
#[inline]
pub(crate) fn shift_round(wide: i64, frac: u8, rounding: Rounding) -> i64 {
    if frac == 0 {
        return wide;
    }
    let floor = wide >> frac;
    // `floor` rounds toward -inf, so `rem` is the dropped fraction in
    // `[0, 2^frac)` regardless of sign.
    let rem = wide - (floor << frac);
    let half = 1i64 << (frac - 1);
    let bump = match rounding {
        Rounding::Floor => false,
        // Ties away from zero: toward +inf for non-negative values (the
        // dropped fraction is measured from floor, so "away" is up), and
        // toward -inf (stay at floor) for negative ones.
        Rounding::NearestAway => rem > half || (rem == half && wide >= 0),
        Rounding::NearestEven => rem > half || (rem == half && floor & 1 == 1),
    };
    floor + i64::from(bump)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Q4_12, Q6_10};

    #[test]
    fn roundtrip_exact_values() {
        for v in [-8.0, -1.5, -0.25, 0.0, 0.5, 1.0, 3.75, 7.5] {
            let f = Fixed::from_f64(v, Q4_12, Rounding::NearestEven);
            assert_eq!(f.to_f64(), v, "value {v} should be exact in Q4.12");
        }
    }

    #[test]
    fn add_saturates_at_bounds() {
        let max = Fixed::from_f64(7.9, Q4_12, Rounding::NearestEven);
        let one = Fixed::one(Q4_12);
        let sum = max.saturating_add(one).unwrap();
        assert_eq!(sum.raw(), Q4_12.max_raw());
        let min = Fixed::from_f64(-8.0, Q4_12, Rounding::NearestEven);
        let diff = min.saturating_sub(one).unwrap();
        assert_eq!(diff.raw(), Q4_12.min_raw());
    }

    #[test]
    fn format_mismatch_is_an_error() {
        let a = Fixed::zero(Q4_12);
        let b = Fixed::zero(Q6_10);
        assert!(matches!(
            a.saturating_add(b),
            Err(FixedError::FormatMismatch { .. })
        ));
    }

    #[test]
    fn mul_matches_float_within_resolution() {
        let a = Fixed::from_f64(1.25, Q4_12, Rounding::NearestEven);
        let b = Fixed::from_f64(-2.5, Q4_12, Rounding::NearestEven);
        let p = a.saturating_mul(b, Rounding::NearestEven).unwrap();
        assert!((p.to_f64() - (-3.125)).abs() <= Q4_12.resolution());
    }

    #[test]
    fn mul_add_single_rounding() {
        // a*x where the product needs rounding: with a wide accumulator the
        // bias add happens before the rounding step.
        let a = Fixed::from_raw(3, Q4_12).unwrap(); // tiny slope
        let x = Fixed::from_raw(3, Q4_12).unwrap();
        let b = Fixed::from_f64(1.0, Q4_12, Rounding::NearestEven);
        let fused = a.mul_add(x, b, Rounding::NearestEven).unwrap();
        // product = 9 >> 12 -> rounds to 0, so fused ≈ 1.0
        assert_eq!(fused.to_f64(), 1.0);
    }

    #[test]
    fn neg_and_abs_saturate_min_word() {
        let min = Fixed::from_raw(Q4_12.min_raw(), Q4_12).unwrap();
        assert_eq!(min.saturating_neg().raw(), Q4_12.max_raw());
        assert_eq!(min.saturating_abs().raw(), Q4_12.max_raw());
        let pos = Fixed::from_f64(2.0, Q4_12, Rounding::NearestEven);
        assert_eq!(pos.saturating_abs(), pos);
    }

    #[test]
    fn convert_changes_format() {
        let a = Fixed::from_f64(1.5, Q4_12, Rounding::NearestEven);
        let b = a.convert(Q6_10, Rounding::NearestEven);
        assert_eq!(b.format(), Q6_10);
        assert_eq!(b.to_f64(), 1.5);
    }

    #[test]
    fn from_raw_rejects_out_of_range() {
        assert!(Fixed::from_raw(40_000, Q4_12).is_err());
        assert!(Fixed::from_raw(32_767, Q4_12).is_ok());
    }

    #[test]
    fn thirty_two_bit_words_survive_the_narrow_raw_field() {
        // The model keeps every word in `i64` and saturates with
        // `QFormat::saturate_raw`; the `i32` field must reproduce it.
        let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
        let roundings = [
            Rounding::Floor,
            Rounding::NearestAway,
            Rounding::NearestEven,
        ];
        for q in [QFormat::new(32, 0).unwrap(), QFormat::new(32, 16).unwrap()] {
            assert_eq!((q.min_raw(), q.max_raw()), (lo, hi), "{q}");
            for raw in [lo, hi] {
                assert_eq!(Fixed::from_raw(raw, q).unwrap().raw(), raw, "{q}");
            }
            assert!(matches!(
                Fixed::from_raw(hi + 1, q),
                Err(FixedError::RawOutOfRange { raw, .. }) if raw == hi + 1
            ));
            assert_eq!(Fixed::from_raw_saturating(i64::MAX, q).raw(), hi, "{q}");
            assert_eq!(Fixed::from_raw_saturating(i64::MIN, q).raw(), lo, "{q}");
            assert_eq!(Fixed::from_f64(1e12, q, Rounding::NearestEven).raw(), hi);
            assert_eq!(Fixed::from_f64(-1e12, q, Rounding::NearestEven).raw(), lo);
            assert_eq!(Fixed::one(q).raw(), q.saturate_raw(q.scale()), "{q}");

            let frac = q.frac_bits();
            let words = [lo, lo + 1, -1, 0, 1, hi - 1, hi];
            let fixed = |raw: i64| Fixed::from_raw(raw, q).unwrap();
            for a in words {
                let fa = fixed(a);
                assert_eq!(fa.saturating_neg().raw(), q.saturate_raw(-a), "{q} -{a}");
                assert_eq!(
                    fa.saturating_abs().raw(),
                    q.saturate_raw(a.abs()),
                    "{q} |{a}|"
                );
                assert_eq!(fa.to_f64(), a as f64 * q.resolution(), "{q} {a}");
                for b in words {
                    let fb = fixed(b);
                    let sum = fa.saturating_add(fb).unwrap();
                    assert_eq!(sum.raw(), q.saturate_raw(a + b), "{q} {a}+{b}");
                    let diff = fa.saturating_sub(fb).unwrap();
                    assert_eq!(diff.raw(), q.saturate_raw(a - b), "{q} {a}-{b}");
                    assert_eq!(fa.compare(fb).unwrap(), a.cmp(&b), "{q} {a}<=>{b}");
                    for r in roundings {
                        let prod = fa.saturating_mul(fb, r).unwrap();
                        let want = q.saturate_raw(shift_round(a * b, frac, r));
                        assert_eq!(prod.raw(), want, "{q} {a}*{b} {r:?}");
                        for c in words {
                            let fused = fa.mul_add(fb, fixed(c), r).unwrap();
                            let wide = a * b + (c << frac);
                            let want = q.saturate_raw(shift_round(wide, frac, r));
                            assert_eq!(fused.raw(), want, "{q} {a}*{b}+{c} {r:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shift_round_modes() {
        assert_eq!(shift_round(5, 1, Rounding::Floor), 2);
        assert_eq!(shift_round(5, 1, Rounding::NearestAway), 3);
        assert_eq!(shift_round(5, 1, Rounding::NearestEven), 2); // 2.5 -> 2
        assert_eq!(shift_round(7, 1, Rounding::NearestEven), 4); // 3.5 -> 4
        assert_eq!(shift_round(-5, 1, Rounding::Floor), -3);
        assert_eq!(shift_round(-5, 1, Rounding::NearestAway), -3); // -2.5 away -> -3... floor(-5/2)=-3, rem=1 == half -> floor => -3
    }
}
