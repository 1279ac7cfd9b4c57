//! The workspace-wide error type for fallible public entry points.
//!
//! Hand-rolled (the workspace has no `thiserror`), `Clone + PartialEq`
//! so per-request failures can be stored, compared and replayed by the
//! serving engine, and `std::error::Error` so it composes with `?` and
//! `Box<dyn Error>` in binaries.
//!
//! Layering: `rt-sparse` keeps its structural [`SparseError`] and
//! snapshot errors (they predate this type and are precise); `RtError`
//! wraps them at the `rt-core` / `rt-engine` boundary so calculator and
//! engine callers handle exactly one error enum. The serving variants
//! (`QueueFull`, `DeadlineExceeded`, ...) live here too so the engine
//! does not need a second enum wrapping this one.

use core::fmt;
use rt_sparse::io::SnapshotError;
use rt_sparse::SparseError;

/// Why a dose-calculation request, calculator construction, or engine
/// operation failed.
#[derive(Clone, Debug, PartialEq)]
pub enum RtError {
    /// The matrix failed structural CSR validation.
    Sparse(SparseError),
    /// An RTDM snapshot could not be loaded (carries the rendered cause;
    /// [`SnapshotError`] holds a non-cloneable `io::Error`).
    Snapshot(String),
    /// An input vector had the wrong length for the matrix it targets.
    DimensionMismatch {
        /// What was being checked ("weights", "residual", ...).
        what: &'static str,
        expected: usize,
        actual: usize,
    },
    /// The matrix has zero rows or zero columns — nothing to serve.
    EmptyMatrix { nrows: usize, ncols: usize },
    /// A gradient was requested from a calculator built without the
    /// transpose copy.
    TransposeUnavailable,
    /// `threads_per_block` must be a multiple of 32 in `32..=1024`.
    InvalidThreadsPerBlock(u32),
    /// A counter extrapolation factor must be finite and positive.
    InvalidScale(f64),
    /// A cooperative-group tile width outside the supported set.
    InvalidTileWidth(u32),
    /// The engine has no such registered plan.
    UnknownPlan(String),
    /// A plan with this name is already registered.
    DuplicatePlan(String),
    /// The engine was built with an empty device pool.
    EmptyDevicePool,
    /// The bounded request queue was full (load shed at admission).
    QueueFull { capacity: usize },
    /// The request's deadline expired before a worker picked it up.
    DeadlineExceeded { budget_ms: f64, waited_ms: f64 },
    /// The engine is shutting down and no longer accepts requests.
    EngineShutdown,
    /// An execution policy asked for a replica/shard placement the
    /// device pool cannot satisfy (carries the rendered reason).
    InvalidPlacement(String),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Sparse(e) => write!(f, "invalid sparse matrix: {e}"),
            RtError::Snapshot(msg) => write!(f, "snapshot load failed: {msg}"),
            RtError::DimensionMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what} length {actual}, expected {expected}"),
            RtError::EmptyMatrix { nrows, ncols } => {
                write!(f, "degenerate matrix: {nrows} rows x {ncols} cols")
            }
            RtError::TransposeUnavailable => {
                write!(f, "gradient requires a calculator built with_transpose")
            }
            RtError::InvalidThreadsPerBlock(tpb) => write!(
                f,
                "threads_per_block must be a multiple of 32 in 32..=1024, got {tpb}"
            ),
            RtError::InvalidScale(s) => {
                write!(f, "scale factor must be finite and positive, got {s}")
            }
            RtError::InvalidTileWidth(w) => {
                write!(f, "tile width must be one of [2, 4, 8, 16, 32], got {w}")
            }
            RtError::UnknownPlan(name) => write!(f, "unknown plan: {name}"),
            RtError::DuplicatePlan(name) => write!(f, "plan already registered: {name}"),
            RtError::EmptyDevicePool => write!(f, "engine requires at least one device"),
            RtError::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            RtError::DeadlineExceeded {
                budget_ms,
                waited_ms,
            } => write!(
                f,
                "deadline exceeded: budget {budget_ms:.1} ms, waited {waited_ms:.1} ms"
            ),
            RtError::EngineShutdown => write!(f, "engine is shutting down"),
            RtError::InvalidPlacement(msg) => write!(f, "invalid placement: {msg}"),
        }
    }
}

impl std::error::Error for RtError {}

impl From<SparseError> for RtError {
    fn from(e: SparseError) -> Self {
        RtError::Sparse(e)
    }
}

impl From<SnapshotError> for RtError {
    fn from(e: SnapshotError) -> Self {
        // Structural failures keep their typed cause; everything else
        // (io, magic, truncation) is a rendered message.
        match e {
            SnapshotError::Structure(s) => RtError::Sparse(s),
            other => RtError::Snapshot(other.to_string()),
        }
    }
}

/// A short machine-readable tag for metrics/JSON (one per variant).
impl RtError {
    pub fn kind(&self) -> &'static str {
        match self {
            RtError::Sparse(_) => "sparse",
            RtError::Snapshot(_) => "snapshot",
            RtError::DimensionMismatch { .. } => "dimension_mismatch",
            RtError::EmptyMatrix { .. } => "empty_matrix",
            RtError::TransposeUnavailable => "transpose_unavailable",
            RtError::InvalidThreadsPerBlock(_) => "invalid_threads_per_block",
            RtError::InvalidScale(_) => "invalid_scale",
            RtError::InvalidTileWidth(_) => "invalid_tile_width",
            RtError::UnknownPlan(_) => "unknown_plan",
            RtError::DuplicatePlan(_) => "duplicate_plan",
            RtError::EmptyDevicePool => "empty_device_pool",
            RtError::QueueFull { .. } => "queue_full",
            RtError::DeadlineExceeded { .. } => "deadline_exceeded",
            RtError::EngineShutdown => "engine_shutdown",
            RtError::InvalidPlacement(_) => "invalid_placement",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RtError::DimensionMismatch {
            what: "weights",
            expected: 10,
            actual: 3,
        };
        assert_eq!(e.to_string(), "weights length 3, expected 10");
        assert!(RtError::QueueFull { capacity: 8 }.to_string().contains("8"));
        assert!(RtError::InvalidThreadsPerBlock(48)
            .to_string()
            .contains("48"));
    }

    #[test]
    fn sparse_errors_convert() {
        let s = SparseError::RowPtrLength {
            expected: 5,
            actual: 3,
        };
        let e: RtError = s.clone().into();
        assert_eq!(e, RtError::Sparse(s));
        assert_eq!(e.kind(), "sparse");
    }

    #[test]
    fn snapshot_errors_convert() {
        let e: RtError = SnapshotError::BadMagic.into();
        assert_eq!(e, RtError::Snapshot("not an RTDM snapshot".to_string()));
        // Structural snapshot failures stay typed.
        let s = SparseError::RowPtrNotMonotonic { row: 2 };
        let e: RtError = SnapshotError::Structure(s.clone()).into();
        assert_eq!(e, RtError::Sparse(s));
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            RtError::EmptyMatrix { nrows: 0, ncols: 0 }.kind(),
            RtError::TransposeUnavailable.kind(),
            RtError::UnknownPlan("x".into()).kind(),
            RtError::DuplicatePlan("x".into()).kind(),
            RtError::EmptyDevicePool.kind(),
            RtError::QueueFull { capacity: 1 }.kind(),
            RtError::DeadlineExceeded {
                budget_ms: 1.0,
                waited_ms: 2.0,
            }
            .kind(),
            RtError::EngineShutdown.kind(),
            RtError::InvalidScale(-1.0).kind(),
            RtError::InvalidTileWidth(7).kind(),
            RtError::InvalidPlacement("r > pool".into()).kind(),
        ];
        let set: std::collections::HashSet<_> = kinds.iter().collect();
        assert_eq!(set.len(), kinds.len());
    }
}
