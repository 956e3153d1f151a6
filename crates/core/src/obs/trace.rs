//! Structured trace events and the lock-light ring buffer they live in.
//!
//! A trace answers the questions metrics can't: *which* rows retried,
//! *which* worker a chunk ran on, in *what order* recovery interleaved
//! with the hot path. Events are small `Copy` values stamped with a
//! monotonic sequence number and nanoseconds since the observer's epoch;
//! the ring keeps the most recent `capacity` of them and overwrites the
//! oldest beyond that (recording never blocks on a reader and never
//! allocates).

use crate::engine::kernel::KernelChoice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// What happened, with the ids needed to correlate it.
///
/// The taxonomy mirrors the pipeline's life cycle: rows are *submitted*,
/// chunks are *checked out* by workers, every row a kernel finishes gets a
/// *kernel* event, completed chunks produce *chunk-done*; recovery and
/// deadlines contribute *retry*, *row-failed*, *respawn* and *timeout*; jobs
/// are bracketed by *job-submit* and *job-done*, and the signature
/// prefilter's host-side resolutions are *sig-skip*. Per row the causal
/// chain `Submit < Checkout < Kernel < ChunkDone` must hold in sequence
/// order — the observability suite audits exactly that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A row pair entered the queue.
    Submit {
        /// The row's ticket.
        ticket: u64,
    },
    /// A worker took a chunk off the queue and checked it out.
    Checkout {
        /// The chunk's base ticket.
        chunk: u64,
        /// Rows in the chunk.
        rows: u32,
        /// The worker slot that owns the attempt.
        worker: u32,
        /// Attempt number (0 for the first try).
        attempt: u32,
    },
    /// A kernel finished one row successfully.
    Kernel {
        /// The row's ticket.
        ticket: u64,
        /// The worker slot that diffed it.
        worker: u32,
        /// Which kernel actually ran.
        choice: KernelChoice,
        /// `k1 + k2` input runs for the row.
        runs: u64,
        /// Wall-clock nanoseconds the diff took.
        latency_ns: u64,
    },
    /// A kernel returned a per-row error (e.g. width mismatch).
    RowError {
        /// The row's ticket.
        ticket: u64,
    },
    /// A worker finished a chunk and sent its results.
    ChunkDone {
        /// The chunk's base ticket.
        chunk: u64,
        /// Rows delivered.
        rows: u32,
        /// The worker slot that completed it.
        worker: u32,
        /// Wall-clock nanoseconds for the whole chunk.
        latency_ns: u64,
    },
    /// A chunk was re-enqueued after a panic or worker death.
    Retry {
        /// The chunk's base ticket.
        chunk: u64,
        /// Rows being retried.
        rows: u32,
        /// Attempt count after the increment (1 = first retry).
        attempt: u32,
    },
    /// A row exhausted its retry budget and failed permanently.
    RowFailed {
        /// The row's ticket.
        ticket: u64,
        /// Total attempts charged to the row.
        attempts: u32,
    },
    /// A dying worker thread was replaced: its checkout slot spawned the
    /// replacement on the same slot while the thread unwound, before
    /// recovering the chunk it held (so a `Retry` of that chunk follows).
    Respawn {
        /// The worker slot that was respawned.
        worker: u32,
    },
    /// A collector's deadline expired with rows still in flight.
    Timeout {
        /// Rows in flight at expiry.
        in_flight: u64,
    },
    /// The signature prefilter resolved a row host-side: matching row
    /// signatures short-circuited it to an empty diff with no submit, no
    /// checkout and no kernel. Carries the image row index (not a ticket —
    /// skipped rows never enter the ticketed ledger).
    SigSkip {
        /// The image row that was skipped.
        row: u64,
    },
    /// A job entered the executor (its rows get the per-ticket
    /// `Submit` events; this is the job-level envelope).
    JobSubmit {
        /// The job id.
        job: u64,
        /// Rows the job spans.
        rows: u64,
    },
    /// A job delivered its last row.
    JobDone {
        /// The job id.
        job: u64,
        /// Rows the job spanned.
        rows: u64,
    },
}

impl TraceKind {
    /// The event's name as it appears in exposition output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Submit { .. } => "submit",
            TraceKind::Checkout { .. } => "checkout",
            TraceKind::Kernel { .. } => "kernel",
            TraceKind::RowError { .. } => "row_error",
            TraceKind::ChunkDone { .. } => "chunk_done",
            TraceKind::Retry { .. } => "retry",
            TraceKind::RowFailed { .. } => "row_failed",
            TraceKind::Respawn { .. } => "respawn",
            TraceKind::Timeout { .. } => "timeout",
            TraceKind::SigSkip { .. } => "sig_skip",
            TraceKind::JobSubmit { .. } => "job_submit",
            TraceKind::JobDone { .. } => "job_done",
        }
    }
}

/// The name a [`KernelChoice`] is exposed under.
#[must_use]
pub fn kernel_choice_name(choice: KernelChoice) -> &'static str {
    match choice {
        KernelChoice::FastPath => "fast_path",
        KernelChoice::Rle => "rle",
        KernelChoice::Packed => "packed",
        KernelChoice::Systolic => "systolic",
    }
}

/// One recorded event: a [`TraceKind`] plus its global sequence number and
/// timestamp (nanoseconds since the observer's epoch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global record order: event `n` was recorded before event `n + 1`.
    pub seq: u64,
    /// Nanoseconds since the observer was created. Non-decreasing in
    /// `seq`: an event never carries an earlier time than one recorded
    /// before it (see [`TraceRing::record`]).
    pub at_ns: u64,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Renders the event as one JSON object (used line-per-event for
    /// `--trace-out`). Keys: `seq`, `at_ns`, `event`, then the kind's ids.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let head = format!(
            "{{\"seq\": {}, \"at_ns\": {}, \"event\": \"{}\"",
            self.seq,
            self.at_ns,
            self.kind.name()
        );
        let tail = match self.kind {
            TraceKind::Submit { ticket } | TraceKind::RowError { ticket } => {
                format!(", \"ticket\": {ticket}}}")
            }
            TraceKind::Checkout {
                chunk,
                rows,
                worker,
                attempt,
            } => format!(
                ", \"chunk\": {chunk}, \"rows\": {rows}, \"worker\": {worker}, \"attempt\": {attempt}}}"
            ),
            TraceKind::Kernel {
                ticket,
                worker,
                choice,
                runs,
                latency_ns,
            } => format!(
                ", \"ticket\": {ticket}, \"worker\": {worker}, \"choice\": \"{}\", \"runs\": {runs}, \"latency_ns\": {latency_ns}}}",
                kernel_choice_name(choice)
            ),
            TraceKind::ChunkDone {
                chunk,
                rows,
                worker,
                latency_ns,
            } => format!(
                ", \"chunk\": {chunk}, \"rows\": {rows}, \"worker\": {worker}, \"latency_ns\": {latency_ns}}}"
            ),
            TraceKind::Retry {
                chunk,
                rows,
                attempt,
            } => format!(", \"chunk\": {chunk}, \"rows\": {rows}, \"attempt\": {attempt}}}"),
            TraceKind::RowFailed { ticket, attempts } => {
                format!(", \"ticket\": {ticket}, \"attempts\": {attempts}}}")
            }
            TraceKind::Respawn { worker } => format!(", \"worker\": {worker}}}"),
            TraceKind::Timeout { in_flight } => format!(", \"in_flight\": {in_flight}}}"),
            TraceKind::SigSkip { row } => format!(", \"row\": {row}}}"),
            TraceKind::JobSubmit { job, rows } | TraceKind::JobDone { job, rows } => {
                format!(", \"job\": {job}, \"rows\": {rows}}}")
            }
        };
        head + &tail
    }
}

/// A fixed-capacity ring of [`TraceEvent`]s.
///
/// Recording claims a sequence number, and with it a slot, with one
/// compare-exchange on `head` (retried, with a fresh clock read, only when
/// another thread claimed the number first), then writes the event under
/// that slot's own mutex — different slots never contend, and the same
/// slot only contends after the ring wraps a full lap, so the hot path is
/// effectively an uncontended lock plus a `Copy` store (no allocation).
/// Readers ([`Self::events`]) take the slots one at a time and sort by
/// sequence number.
#[derive(Debug)]
pub struct TraceRing {
    head: AtomicU64,
    slots: Vec<Mutex<Option<TraceEvent>>>,
}

impl TraceRing {
    /// A ring holding the most recent `capacity` events (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// How many events fit before the ring overwrites.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records `kind`, stamped by `clock`, returning its sequence number.
    ///
    /// The clock is read after loading `head` and before claiming the
    /// number with a compare-exchange; if another thread claims it first,
    /// the clock is read again. So the time was read after every earlier
    /// number was claimed, and a later `seq` never carries an earlier
    /// `at_ns` (the claim is `AcqRel`, so with a monotonic clock this holds
    /// across threads too).
    pub fn record(&self, clock: impl Fn() -> u64, kind: TraceKind) -> u64 {
        let mut seq = self.head.load(Ordering::Acquire);
        let at_ns = loop {
            let at_ns = clock();
            match self
                .head
                .compare_exchange_weak(seq, seq + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break at_ns,
                Err(current) => seq = current,
            }
        };
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot.lock().unwrap_or_else(PoisonError::into_inner) =
            Some(TraceEvent { seq, at_ns, kind });
        seq
    }

    /// Events recorded since creation (including any since overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap-around.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// The retained events in sequence order. Meant for quiescent reads
    /// (concurrent recording may tear the *set* of retained events, never
    /// an individual event).
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self
            .slots
            .iter()
            .filter_map(|slot| *slot.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_most_recent_events_in_order() {
        let ring = TraceRing::new(4);
        for ticket in 0..6u64 {
            ring.record(|| ticket * 10, TraceKind::Submit { ticket });
        }
        assert_eq!(ring.recorded(), 6);
        assert_eq!(ring.dropped(), 2);
        let events = ring.events();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5], "oldest two overwritten");
        assert!(events
            .iter()
            .all(|e| matches!(e.kind, TraceKind::Submit { ticket } if ticket == e.seq)));
    }

    #[test]
    fn ring_capacity_floor_is_one() {
        let ring = TraceRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(|| 0, TraceKind::Timeout { in_flight: 0 });
        assert_eq!(ring.events().len(), 1);
    }

    #[test]
    fn json_lines_are_balanced_and_named() {
        let cases = [
            TraceKind::Submit { ticket: 3 },
            TraceKind::Checkout {
                chunk: 3,
                rows: 2,
                worker: 1,
                attempt: 0,
            },
            TraceKind::Kernel {
                ticket: 3,
                worker: 1,
                choice: KernelChoice::Packed,
                runs: 17,
                latency_ns: 420,
            },
            TraceKind::RowError { ticket: 4 },
            TraceKind::ChunkDone {
                chunk: 3,
                rows: 2,
                worker: 1,
                latency_ns: 999,
            },
            TraceKind::Retry {
                chunk: 3,
                rows: 2,
                attempt: 1,
            },
            TraceKind::RowFailed {
                ticket: 3,
                attempts: 3,
            },
            TraceKind::Respawn { worker: 0 },
            TraceKind::Timeout { in_flight: 5 },
            TraceKind::SigSkip { row: 7 },
            TraceKind::JobSubmit { job: 2, rows: 64 },
            TraceKind::JobDone { job: 2, rows: 64 },
        ];
        for (i, kind) in cases.into_iter().enumerate() {
            let event = TraceEvent {
                seq: i as u64,
                at_ns: 100,
                kind,
            };
            let line = event.to_json_line();
            assert_eq!(line.matches('{').count(), 1, "{line}");
            assert_eq!(line.matches('}').count(), 1, "{line}");
            assert!(
                line.contains(&format!("\"event\": \"{}\"", kind.name())),
                "{line}"
            );
        }
    }

    #[test]
    fn concurrent_recording_keeps_unique_seqs() {
        let ring = std::sync::Arc::new(TraceRing::new(256));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for ticket in 0..32 {
                        ring.record(|| 0, TraceKind::Submit { ticket });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.recorded(), 128);
        let events = ring.events();
        assert_eq!(events.len(), 128);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 128, "every event got a unique sequence number");
    }
}
