//! Error types of the SEED core DBMS.

use std::fmt;

use crate::consistency::ConsistencyViolation;

/// Result alias used throughout `seed-core`.
pub type SeedResult<T> = Result<T, SeedError>;

/// Errors raised by database operations.
#[derive(Debug)]
pub enum SeedError {
    /// The schema rejected the operation (unknown class, bad cardinality string, ...).
    Schema(seed_schema::SchemaError),
    /// The storage layer failed while persisting or loading the database.
    Storage(seed_storage::StorageError),
    /// The operation would make the database inconsistent.  SEED "permanently ensures database
    /// consistency", so such operations are rejected rather than applied.
    Inconsistent(Vec<ConsistencyViolation>),
    /// An object id, relationship id or name did not refer to a live item.
    NotFound(String),
    /// An object with this name already exists.
    DuplicateName(String),
    /// A value did not conform to the expected domain.
    DomainMismatch { expected: String, found: String },
    /// A version id was unknown, already taken, or structurally invalid.
    Version(String),
    /// A history-sensitive consistency rule rejected the version transition.
    TransitionRejected(String),
    /// Attempt to update inherited pattern information in the context of an inheritor, or
    /// another violation of the pattern rules.
    Pattern(String),
    /// An operation requires an active transaction, or a transaction is already active.
    Transaction(String),
    /// Re-classification was not possible (classes in unrelated hierarchies, invalid target...).
    Reclassification(String),
    /// Historical versions are read-only.
    ReadOnlyVersion(String),
    /// Catch-all for invalid arguments.
    Invalid(String),
    /// An error raised by a remote server whose type does not cross the wire (`Schema`,
    /// `Storage`, `Inconsistent`), carried as the server's rendered text and displayed
    /// verbatim — a client shows the rejection exactly as an in-process caller would.
    Remote(String),
}

impl fmt::Display for SeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeedError::Schema(e) => write!(f, "schema error: {e}"),
            SeedError::Storage(e) => write!(f, "storage error: {e}"),
            SeedError::Inconsistent(violations) => {
                write!(f, "operation rejected, it would violate consistency: ")?;
                for (i, v) in violations.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
            SeedError::NotFound(what) => write!(f, "not found: {what}"),
            SeedError::DuplicateName(name) => write!(f, "an object named '{name}' already exists"),
            SeedError::DomainMismatch { expected, found } => {
                write!(f, "value of type {found} does not conform to domain {expected}")
            }
            SeedError::Version(msg) => write!(f, "version error: {msg}"),
            SeedError::TransitionRejected(msg) => {
                write!(f, "version transition rejected: {msg}")
            }
            SeedError::Pattern(msg) => write!(f, "pattern error: {msg}"),
            SeedError::Transaction(msg) => write!(f, "transaction error: {msg}"),
            SeedError::Reclassification(msg) => write!(f, "re-classification error: {msg}"),
            SeedError::ReadOnlyVersion(msg) => write!(f, "read-only version: {msg}"),
            SeedError::Invalid(msg) => write!(f, "invalid operation: {msg}"),
            SeedError::Remote(text) => f.write_str(text),
        }
    }
}

impl std::error::Error for SeedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SeedError::Schema(e) => Some(e),
            SeedError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<seed_schema::SchemaError> for SeedError {
    fn from(e: seed_schema::SchemaError) -> Self {
        SeedError::Schema(e)
    }
}

impl From<seed_storage::StorageError> for SeedError {
    fn from(e: seed_storage::StorageError) -> Self {
        SeedError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: SeedError = seed_schema::SchemaError::UnknownClass("X".into()).into();
        assert!(matches!(e, SeedError::Schema(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e: SeedError = seed_storage::StorageError::Corrupt("x".into()).into();
        assert!(matches!(e, SeedError::Storage(_)));
        assert!(std::error::Error::source(&SeedError::NotFound("x".into())).is_none());
    }

    #[test]
    fn display_is_informative() {
        assert!(SeedError::NotFound("object 'Alarms'".into()).to_string().contains("Alarms"));
        assert!(SeedError::DomainMismatch { expected: "STRING".into(), found: "INTEGER".into() }
            .to_string()
            .contains("STRING"));
    }
}
