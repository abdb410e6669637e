//! Error type shared by all storage-layer modules.

use std::fmt;
use std::io;

/// Result alias used throughout `seed-storage`.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the storage substrate.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure (WAL segment or snapshot file).
    Io(io::Error),
    /// Malformed bytes encountered while decoding (corrupt snapshot, WAL frame, or value).
    Corrupt(String),
    /// An earlier commit or checkpoint failed on I/O, so the log may no longer match what
    /// callers were told; the engine refuses all further work until it is reopened.
    Poisoned(String),
    /// Catch-all for invalid arguments (bad configuration, a stale snapshot image, ...).
    InvalidArgument(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            StorageError::Poisoned(reason) => write!(f, "storage engine poisoned: {reason}"),
            StorageError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = StorageError::Corrupt("snapshot: bad magic".into());
        assert!(e.to_string().contains("bad magic"));

        let e = StorageError::Poisoned("commit at lsn 42 failed".into());
        assert!(e.to_string().contains("poisoned: commit at lsn 42"));
    }

    #[test]
    fn io_error_converts_and_links_source() {
        let ioe = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e: StorageError = ioe.into();
        assert!(matches!(e, StorageError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn non_io_errors_have_no_source() {
        assert!(std::error::Error::source(&StorageError::Corrupt("x".into())).is_none());
    }
}
