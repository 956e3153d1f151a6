//! Error type for the systolic simulator.
//!
//! A correct implementation of the paper's algorithm never hits the
//! `Overflow`, `IterationBound` or `Disordered` variants — they exist so the
//! simulator *falsifies loudly* instead of silently violating Corollary 1.2,
//! Theorem 1 or Theorem 2 if a modification introduces a bug.

use std::fmt;

/// Errors raised by the systolic simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SystolicError {
    /// The two input rows have different widths.
    WidthMismatch {
        /// Width of the first input.
        left: u32,
        /// Width of the second input.
        right: u32,
    },
    /// The two input images have different heights.
    HeightMismatch {
        /// Height of the first input.
        left: usize,
        /// Height of the second input.
        right: usize,
    },
    /// A run was shifted out of the last cell. Corollary 1.2 guarantees this
    /// cannot happen with capacity `k1 + k2`; seeing it means the machine
    /// (or a caller-supplied smaller capacity) is wrong.
    Overflow {
        /// Number of cells in the array.
        cells: usize,
    },
    /// The machine failed to terminate within the Theorem-1 bound
    /// (`k1 + k2` iterations, plus any caller-granted slack).
    IterationBound {
        /// The bound that was exceeded.
        bound: u64,
    },
    /// Extraction found `RegSmall` runs out of order or overlapping,
    /// violating Theorem 2.
    Disordered {
        /// Index of the first cell whose run violates the ordering.
        cell: usize,
    },
    /// An invariant check (enabled via
    /// [`SystolicArray::enable_invariant_checks`]) failed.
    ///
    /// [`SystolicArray::enable_invariant_checks`]:
    ///     crate::array::SystolicArray::enable_invariant_checks
    InvariantViolated {
        /// Human-readable description of the violated invariant.
        what: String,
    },
    /// An executor row crashed its worker on every attempt the executor
    /// was willing to grant (see [`DiffExecutorConfig::retry_limit`]).
    /// Raised instead of propagating the worker's panic to the caller.
    ///
    /// [`DiffExecutorConfig::retry_limit`]:
    ///     crate::engine::executor::DiffExecutorConfig::retry_limit
    RowFailed {
        /// Ticket id of the failed row.
        row: u64,
        /// How many times the row was attempted before giving up.
        attempts: u32,
        /// The panic message of the last attempt.
        cause: String,
    },
    /// A collect deadline — [`JobHandle::collect_next`]'s deadline,
    /// [`DiffExecutor::diff_pair`]'s budget or
    /// [`DiffExecutorConfig::row_deadline`] — expired with rows still in
    /// flight, typically behind a stalled worker.
    ///
    /// [`JobHandle::collect_next`]:
    ///     crate::engine::executor::JobHandle::collect_next
    /// [`DiffExecutor::diff_pair`]:
    ///     crate::engine::executor::DiffExecutor::diff_pair
    /// [`DiffExecutorConfig::row_deadline`]:
    ///     crate::engine::executor::DiffExecutorConfig::row_deadline
    DeadlineExceeded {
        /// How long the collector waited before giving up.
        waited: std::time::Duration,
        /// Rows submitted but not yet collected when the deadline fired.
        in_flight: usize,
    },
}

impl fmt::Display for SystolicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystolicError::WidthMismatch { left, right } => {
                write!(f, "input rows have different widths ({left} vs {right})")
            }
            SystolicError::HeightMismatch { left, right } => {
                write!(f, "input images have different heights ({left} vs {right})")
            }
            SystolicError::Overflow { cells } => {
                write!(
                    f,
                    "a run was shifted out of the {cells}-cell array (Corollary 1.2 violated)"
                )
            }
            SystolicError::IterationBound { bound } => {
                write!(
                    f,
                    "machine did not terminate within {bound} iterations (Theorem 1 violated)"
                )
            }
            SystolicError::Disordered { cell } => {
                write!(
                    f,
                    "RegSmall chain is disordered at cell {cell} (Theorem 2 violated)"
                )
            }
            SystolicError::InvariantViolated { what } => {
                write!(f, "invariant violated: {what}")
            }
            SystolicError::RowFailed {
                row,
                attempts,
                cause,
            } => {
                write!(
                    f,
                    "row {row} failed after {attempts} attempts (last cause: {cause})"
                )
            }
            SystolicError::DeadlineExceeded { waited, in_flight } => {
                write!(
                    f,
                    "pipeline deadline exceeded after {:.1} ms with {in_flight} rows in flight",
                    waited.as_secs_f64() * 1e3
                )
            }
        }
    }
}

impl std::error::Error for SystolicError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_theorem() {
        assert!(SystolicError::Overflow { cells: 8 }
            .to_string()
            .contains("Corollary 1.2"));
        assert!(SystolicError::IterationBound { bound: 9 }
            .to_string()
            .contains("Theorem 1"));
        assert!(SystolicError::Disordered { cell: 2 }
            .to_string()
            .contains("Theorem 2"));
        assert!(SystolicError::WidthMismatch { left: 1, right: 2 }
            .to_string()
            .contains("widths"));
        assert!(SystolicError::HeightMismatch { left: 1, right: 2 }
            .to_string()
            .contains("heights"));
        assert!(SystolicError::InvariantViolated { what: "x".into() }
            .to_string()
            .contains("x"));
        let failed = SystolicError::RowFailed {
            row: 7,
            attempts: 3,
            cause: "boom".into(),
        }
        .to_string();
        assert!(
            failed.contains("row 7") && failed.contains("3 attempts") && failed.contains("boom")
        );
        let late = SystolicError::DeadlineExceeded {
            waited: std::time::Duration::from_millis(250),
            in_flight: 2,
        }
        .to_string();
        assert!(late.contains("deadline") && late.contains("2 rows"));
    }
}
