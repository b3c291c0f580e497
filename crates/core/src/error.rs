//! Error type for ProgXe execution.

use std::fmt;

/// Errors surfaced by the public API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A source's attribute matrix and join-key vector disagree in length.
    SourceShape {
        /// Rows in the attribute matrix.
        attr_rows: usize,
        /// Entries in the join-key vector.
        key_rows: usize,
    },
    /// The mapping set's input arity does not match a source's attributes.
    MappingArity {
        /// What the mapping set expects.
        expected: usize,
        /// What the source provides.
        actual: usize,
        /// Which source ("R" or "T").
        source: &'static str,
    },
    /// The preference dimensionality differs from the number of maps.
    PreferenceArity {
        /// Number of mapping functions (output dimensions).
        maps: usize,
        /// Preference dimensions.
        preference: usize,
    },
    /// The output dimensionality exceeds the supported maximum.
    TooManyDimensions {
        /// Requested output dimensionality.
        dims: usize,
        /// Hard limit of the cell-coordinate encoding.
        max: usize,
    },
    /// A configuration field is out of its valid range.
    InvalidConfig(&'static str),
    /// An input row holds NaN or ±∞. Input values must be finite
    /// ([`SourceView::new`](crate::source::SourceView::new) checks);
    /// mapped output values may still be non-finite.
    NonFiniteValue {
        /// Row position in its source.
        row: usize,
        /// Attribute column holding the value.
        dim: usize,
    },
    /// A flexible-dominance weight family is degenerate or mismatched
    /// (see [`crate::fdom::FdomError`]).
    Dominance(crate::fdom::FdomError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SourceShape {
                attr_rows,
                key_rows,
            } => write!(
                f,
                "source shape mismatch: {attr_rows} attribute rows vs {key_rows} join keys"
            ),
            Error::MappingArity {
                expected,
                actual,
                source,
            } => write!(
                f,
                "mapping expects {expected} attributes from source {source}, got {actual}"
            ),
            Error::PreferenceArity { maps, preference } => write!(
                f,
                "preference has {preference} dimensions but the query defines {maps} maps"
            ),
            Error::TooManyDimensions { dims, max } => {
                write!(
                    f,
                    "{dims} output dimensions exceed the supported maximum {max}"
                )
            }
            Error::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            Error::NonFiniteValue { row, dim } => {
                write!(
                    f,
                    "input row {row} holds a non-finite value in column {dim}"
                )
            }
            Error::Dominance(e) => write!(f, "dominance model: {e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::SourceShape {
            attr_rows: 3,
            key_rows: 2,
        };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("2"));
        let e = Error::InvalidConfig("output_cells_per_dim must be > 0");
        assert!(e.to_string().contains("output_cells_per_dim"));
        let e = Error::NonFiniteValue { row: 12, dim: 3 };
        assert!(e.to_string().contains("row 12") && e.to_string().contains("column 3"));
    }
}
