//! Step engines driving the systolic register file.
//!
//! The machine's semantics live in [`crate::cell`] and
//! [`crate::array::SystolicArray`]; an *engine* decides how the per-cell
//! work of one iteration is executed on the host:
//!
//! * the **sequential engine** ([`run_sequential`]) is
//!   `SystolicArray::run` — one scan per phase;
//! * the **parallel engine** ([`parallel::run_parallel`]) splits the cell
//!   array into contiguous chunks, one worker thread per chunk, with three
//!   barriers per iteration (compute / shift / reset). Results are
//!   bit-identical to the sequential engine, which the test-suite asserts;
//! * the **executor** ([`executor::DiffExecutor`]) moves the parallelism
//!   up a level: a persistent worker pool schedules whole images as
//!   independent *jobs* — many image pairs in flight at once, chunks from
//!   different jobs interleaved round-robin on one run queue that every
//!   worker pops — each diffing rows through an adaptive [`kernel`] (RLE
//!   merge vs. packed words vs. the systolic simulation) on reusable
//!   scratch buffers. Every job takes one path, whose first stage — the
//!   signature prefilter and the inline residual — settles matching and
//!   few-row work on the submitter's thread.
//!
//! Real systolic hardware updates every cell simultaneously; the parallel
//! engine is therefore the more faithful *execution* model, while the
//! sequential engine is the faithful *semantic* reference. The executor
//! models a rack of independent chips fed from one queue.

pub mod executor;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod kernel;
pub mod parallel;
pub mod simd;

use crate::array::SystolicArray;
use crate::error::SystolicError;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Poison-tolerant lock for the engines' shared state: a holder that
/// panicked leaves consistent-enough data (every critical section is a
/// single push, pop, take or store), so callers proceed on the recovered
/// guard instead of propagating the poison.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs the machine to termination on the calling thread. Identical to
/// [`SystolicArray::run`]; provided for symmetry with the parallel engine.
pub fn run_sequential(array: &mut SystolicArray) -> Result<(), SystolicError> {
    array.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rle::RleRow;

    #[test]
    fn sequential_engine_is_array_run() {
        let a = RleRow::from_pairs(64, &[(0, 4), (10, 4)]).unwrap();
        let b = RleRow::from_pairs(64, &[(2, 4), (20, 4)]).unwrap();
        let mut m1 = SystolicArray::load(&a, &b).unwrap();
        run_sequential(&mut m1).unwrap();
        let mut m2 = SystolicArray::load(&a, &b).unwrap();
        m2.run().unwrap();
        assert_eq!(m1.extract().unwrap(), m2.extract().unwrap());
        assert_eq!(m1.stats(), m2.stats());
    }
}
