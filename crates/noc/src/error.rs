use std::error::Error;
use std::fmt;

/// Errors produced by NoC configuration, scheduling and simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NocError {
    /// The table needs more flits than the tag field can distinguish.
    TagOverflow {
        /// Flits required for the table.
        flits_needed: usize,
        /// Flits distinguishable by the configured tag width.
        tag_capacity: usize,
    },
    /// A link configuration was invalid (zero pairs per flit or zero tag
    /// bits with multiple flits).
    BadLinkConfig(&'static str),
    /// A line configuration was invalid (zero routers/neurons).
    BadLineConfig(&'static str),
    /// The input or output buffer does not hold exactly `routers ×
    /// neurons` slots.
    InputShape {
        /// Routers in the configuration.
        routers: usize,
        /// Neurons per router in the configuration.
        neurons: usize,
        /// What the caller supplied: (input slots, output slots).
        got: (usize, usize),
    },
    /// A word in the input batch used a different Q-format than the table.
    FormatMismatch,
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::TagOverflow { flits_needed, tag_capacity } => write!(
                f,
                "table needs {flits_needed} flits but the tag field distinguishes only {tag_capacity}"
            ),
            NocError::BadLinkConfig(msg) => write!(f, "bad link config: {msg}"),
            NocError::BadLineConfig(msg) => write!(f, "bad line config: {msg}"),
            NocError::InputShape { routers, neurons, got } => write!(
                f,
                "(input, output) slots {got:?} do not match {routers} routers × {neurons} neurons"
            ),
            NocError::FormatMismatch => write!(f, "input word format does not match the table"),
        }
    }
}

impl Error for NocError {}
