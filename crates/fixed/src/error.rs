use std::error::Error;
use std::fmt;

/// Errors produced by fixed-point construction and arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FixedError {
    /// The requested Q-format is not representable (zero width, too wide,
    /// or more fraction bits than the word holds).
    InvalidFormat {
        /// Total word size in bits that was requested.
        total_bits: u8,
        /// Fraction bits that were requested.
        frac_bits: u8,
    },
    /// Two operands of a binary operation used different Q-formats.
    FormatMismatch {
        /// Format of the left operand.
        lhs: crate::QFormat,
        /// Format of the right operand.
        rhs: crate::QFormat,
    },
    /// A raw integer does not fit in the format's word.
    RawOutOfRange {
        /// The raw value that was supplied.
        raw: i64,
        /// The format it was supposed to fit.
        format: crate::QFormat,
    },
}

impl fmt::Display for FixedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixedError::InvalidFormat {
                total_bits,
                frac_bits,
            } => write!(
                f,
                "invalid Q-format: {total_bits} total bits with {frac_bits} fraction bits"
            ),
            FixedError::FormatMismatch { lhs, rhs } => {
                write!(f, "format mismatch: {lhs} vs {rhs}")
            }
            FixedError::RawOutOfRange { raw, format } => {
                write!(f, "raw value {raw} does not fit {format}")
            }
        }
    }
}

impl Error for FixedError {}
