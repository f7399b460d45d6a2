//! Error type shared across the data substrate.

use std::fmt;

/// Errors produced while building, loading or transforming datasets.
#[derive(Debug)]
pub enum DataError {
    /// A row or operation referenced an attribute that does not exist.
    UnknownAttribute(String),
    /// A value id was out of range for an attribute's domain.
    UnknownValue { attribute: String, value: String },
    /// A row had the wrong number of cells or a cell of the wrong kind.
    SchemaMismatch(String),
    /// Malformed CSV input.
    Csv { line: usize, message: String },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Corrupt or truncated binary persistence payload.
    Decode(String),
    /// A persistence frame's CRC32 did not match its payload.
    ChecksumMismatch {
        /// The checksum recorded in the frame.
        expected: u32,
        /// The checksum computed over the payload actually read.
        found: u32,
    },
    /// An operation's preconditions were violated (empty dataset, bad
    /// parameter, ...).
    Invalid(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownAttribute(name) => write!(f, "unknown attribute: {name}"),
            DataError::UnknownValue { attribute, value } => {
                write!(f, "unknown value {value:?} for attribute {attribute}")
            }
            DataError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            DataError::Csv { line, message } => write!(f, "CSV error at line {line}: {message}"),
            DataError::Io(e) => write!(f, "I/O error: {e}"),
            DataError::Decode(msg) => write!(f, "decode error: {msg}"),
            DataError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: frame says {expected:#010x}, payload hashes to {found:#010x}"
            ),
            DataError::Invalid(msg) => write!(f, "invalid operation: {msg}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, DataError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = DataError::UnknownAttribute("Foo".into());
        assert_eq!(e.to_string(), "unknown attribute: Foo");
        let e = DataError::Csv {
            line: 3,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = DataError::UnknownValue {
            attribute: "A".into(),
            value: "x".into(),
        };
        assert!(e.to_string().contains("\"x\""));
    }

    #[test]
    fn io_error_source_preserved() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: DataError = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
