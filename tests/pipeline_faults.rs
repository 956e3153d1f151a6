//! Executor fault drills (requires `--features fault-injection`).
//!
//! Every failure mode the worker pool claims to tolerate is driven here by a
//! deterministic [`FaultPlan`] and checked against the one acceptance bar
//! that matters: after recovery, `diff_images` is **bit-identical** to the
//! sequential reference `xor_image`, and the intervention is visible in
//! [`PipelineStats`] / [`SupervisionCounters`].
//!
//! The second half re-runs the matrix at **job granularity** on the shared
//! multi-image executor: several jobs in flight on one run queue while a
//! worker panics, dies, or poisons a lock mid-stream. The bar gains a
//! clause — recovery must also be *isolated*: every collected ticket stays
//! inside its owning job's range, the intervention is charged to the job
//! that owned the crashed chunk, and bystander jobs finish untouched.
#![cfg(feature = "fault-injection")]

use rle_systolic::rle::{RleImage, RleRow};
use rle_systolic::systolic_core::image::xor_image;
use rle_systolic::systolic_core::{
    DiffExecutorConfig, FaultPlan, JobHandle, Kernel, SupervisionCounters, SystolicError,
};
use rle_systolic::workload::{errors, ErrorModel, GenParams, RowGenerator};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Silence the default panic hook for the *injected* panics these drills
/// fire on worker threads (a caught row panic is retried, and an injected
/// death unwinds its thread on purpose, but the hook would still spray
/// backtraces over the test output). Real panics keep the default
/// reporting.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected fault"))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

fn image_pair(height: usize) -> (RleImage, RleImage) {
    let params = GenParams::for_density(512, 0.3);
    let a = RowGenerator::new(params, 0xFA17).next_image(height);
    let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.05), 0xFA18);
    (a, b)
}

#[test]
fn panicked_row_is_retried_and_result_is_bit_identical() {
    quiet_injected_panics();
    let (a, b) = image_pair(16);
    let (expected, _) = xor_image(&a, &b).unwrap();
    // Fresh pipeline: ticket n == row n. Row 5's first attempt panics.
    let mut pipeline = DiffExecutorConfig::new(3)
        .fault_plan(FaultPlan::new().panic_on_row(5))
        .build();
    let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
    assert_eq!(got, expected, "retried row must reproduce the exact diff");
    assert_eq!(stats.rows, 16);
    assert_eq!(stats.retries, 1, "the panic must cost exactly one retry");
    assert_eq!(stats.respawns, 0, "caught panics must not kill the worker");
    assert_eq!(stats.timeouts, 0);
    assert_eq!(
        pipeline.counters(),
        SupervisionCounters {
            retries: 1,
            ..Default::default()
        }
    );
    // The pool is healthy afterwards: a clean re-run needs no interventions.
    let (again, stats) = pipeline.diff_images(&a, &b).unwrap();
    assert_eq!(again, expected);
    assert_eq!((stats.retries, stats.respawns), (0, 0));
}

#[test]
fn dead_worker_is_respawned_and_its_row_recovered() {
    quiet_injected_panics();
    let (a, b) = image_pair(12);
    let (expected, _) = xor_image(&a, &b).unwrap();
    let mut pipeline = DiffExecutorConfig::new(2)
        .fault_plan(FaultPlan::new().die_on_row(3))
        .build();
    let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
    assert_eq!(got, expected, "recovered row must reproduce the exact diff");
    assert_eq!(stats.respawns, 1, "the dead thread must be replaced");
    assert_eq!(stats.retries, 1, "its orphaned row must be re-enqueued");
    assert_eq!(pipeline.workers(), 2, "pool size is restored");
}

#[test]
fn dead_sole_worker_still_recovers() {
    quiet_injected_panics();
    let (a, b) = image_pair(6);
    let (expected, _) = xor_image(&a, &b).unwrap();
    // threads = 1: the only worker dies; nothing can make progress until
    // its checkout slot respawns it.
    let mut pipeline = DiffExecutorConfig::new(1)
        .fault_plan(FaultPlan::new().die_on_row(2))
        .build();
    let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
    assert_eq!(got, expected);
    assert_eq!(stats.respawns, 1);
}

#[test]
fn row_that_keeps_crashing_surfaces_as_row_failed() {
    quiet_injected_panics();
    let (a, b) = image_pair(8);
    let mut pipeline = DiffExecutorConfig::new(2)
        .retry_limit(1)
        .fault_plan(FaultPlan::new().panic_on_row_times(4, 10))
        .build();
    let err = pipeline.diff_images(&a, &b).unwrap_err();
    match err {
        SystolicError::RowFailed {
            row,
            attempts,
            cause,
        } => {
            assert_eq!(row, 4);
            assert_eq!(attempts, 2, "initial attempt + retry_limit retries");
            assert!(cause.contains("injected fault"), "{cause}");
        }
        other => panic!("expected RowFailed, got {other:?}"),
    }
    // The failed batch was fully drained; the pool survives and recovers.
    assert_eq!(pipeline.in_flight(), 0);
    let (got, _) = pipeline.diff_images(&a, &b).unwrap();
    assert_eq!(got, xor_image(&a, &b).unwrap().0);
}

#[test]
fn stalled_worker_trips_the_batch_deadline_instead_of_hanging() {
    quiet_injected_panics();
    let (a, b) = image_pair(8);
    let mut pipeline = DiffExecutorConfig::new(2)
        .row_deadline(Duration::from_millis(100))
        .shutdown_grace(Duration::from_millis(50))
        .fault_plan(FaultPlan::new().stall_on_row(1, Duration::from_secs(30)))
        .build();
    let start = std::time::Instant::now();
    let err = pipeline.diff_images(&a, &b).unwrap_err();
    assert!(
        matches!(err, SystolicError::DeadlineExceeded { .. }),
        "{err:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "deadline must fire long before the 30 s stall ends"
    );
    assert_eq!(pipeline.counters().timeouts, 1);
    // The aborted batch abandons its remaining rows behind the ticket
    // watermark: the pipeline is immediately idle again, and the wedged
    // worker's outstanding rows are reported honestly as abandoned.
    assert_eq!(pipeline.in_flight(), 0);
    assert!(pipeline.abandoned() >= 1, "{pipeline:?}");
    drop(pipeline); // must not deadlock: wedged worker is detached after grace
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "drop must not wait out the stall"
    );
}

#[test]
fn abandoned_batch_heals_and_stale_deliveries_are_discarded() {
    quiet_injected_panics();
    let (a, b) = image_pair(8);
    let (expected, _) = xor_image(&a, &b).unwrap();
    // Worker 0 wedges for ~600 ms on the first batch; the 100 ms deadline
    // abandons that batch long before the stall ends.
    let mut pipeline = DiffExecutorConfig::new(2)
        .row_deadline(Duration::from_millis(100))
        .fault_plan(FaultPlan::new().stall_on_row(1, Duration::from_millis(600)))
        .build();
    let err = pipeline.diff_images(&a, &b).unwrap_err();
    assert!(
        matches!(err, SystolicError::DeadlineExceeded { .. }),
        "{err:?}"
    );
    assert_eq!(pipeline.in_flight(), 0, "abandon must leave the pool idle");
    let abandoned = pipeline.abandoned();
    assert!(abandoned >= 1, "{pipeline:?}");

    // A new batch on the surviving worker succeeds bit-identically while
    // its sibling is still wedged mid-stall.
    let (got, _) = pipeline.diff_images(&a, &b).unwrap();
    assert_eq!(got, expected, "pool must keep working around the stall");

    // Once the stall ends, the wedged worker delivers its stale chunk. The
    // collector discards it at the watermark — it must never leak into a
    // later batch — and the abandoned count drains back to zero.
    std::thread::sleep(Duration::from_millis(700));
    let (again, _) = pipeline.diff_images(&a, &b).unwrap();
    assert_eq!(again, expected, "stale rows must not pollute this batch");
    assert_eq!(pipeline.abandoned(), 0, "stale deliveries all reaped");
    assert_eq!(pipeline.in_flight(), 0);

    // The metrics ledger reconciles across abandon + discard: every diffed
    // row was either handed to a caller or booked as discarded.
    let obs = pipeline.observer();
    let snap = obs.metrics_snapshot();
    assert_eq!(
        snap.rows_diffed,
        snap.rows_completed + snap.rows_discarded,
        "{snap:?}"
    );
    assert_eq!((snap.queue_depth, snap.in_flight), (0, 0), "{snap:?}");
}

#[test]
fn streaming_collect_timeout_trips_on_a_stall_then_recovers() {
    quiet_injected_panics();
    let (a, b) = image_pair(1);
    let pipeline = DiffExecutorConfig::new(1)
        .fault_plan(FaultPlan::new().stall_on_row(0, Duration::from_millis(400)))
        .build();
    let handle = pipeline
        .submit_pair(&Arc::new(a.clone()), &Arc::new(b.clone()))
        .unwrap();
    let ticket = handle.tickets().0;
    let err = handle
        .collect_next(Some(Instant::now() + Duration::from_millis(50)))
        .unwrap_err();
    assert!(
        matches!(err, SystolicError::DeadlineExceeded { in_flight: 1, .. }),
        "{err:?}"
    );
    // The row was only delayed, not lost: a patient collect still gets it.
    let outcome = handle
        .collect_next(None)
        .unwrap()
        .expect("row still in flight");
    assert_eq!(outcome.ticket.id(), ticket);
    let (row, _) = outcome.result.unwrap();
    assert_eq!(
        row,
        xor_image(&a, &b).unwrap().0.rows()[0],
        "stalled row must still produce the exact diff"
    );
    assert_eq!(pipeline.in_flight(), 0);
}

#[test]
fn abandon_releases_a_collector_blocked_without_a_deadline() {
    quiet_injected_panics();
    let (a, b) = image_pair(1);
    // The sole worker wedges on the only row, so no delivery can wake the
    // collector: only the abandon's bell can.
    let executor = DiffExecutorConfig::new(1)
        .shutdown_grace(Duration::from_millis(50))
        .fault_plan(FaultPlan::new().stall_on_row(0, Duration::from_secs(3)))
        .build();
    let handle = Arc::new(executor.submit_pair(&Arc::new(a), &Arc::new(b)).unwrap());
    let (tx, rx) = std::sync::mpsc::channel();
    let collector = Arc::clone(&handle);
    // Detached and reporting through the channel, so a collector that
    // never wakes fails this test instead of hanging it.
    std::thread::spawn(move || {
        let _ = tx.send(collector.collect_next(None));
    });
    // Time for the collector to block before the abandon.
    std::thread::sleep(Duration::from_millis(50));
    handle.abandon();
    let released = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("abandon must wake a collector blocked without a deadline");
    assert!(matches!(released, Ok(None)), "{released:?}");
    assert_eq!(executor.in_flight(), 0);
    assert_eq!(executor.abandoned(), 1, "the wedged row is written off");
}

#[test]
fn poisoned_lock_is_tolerated() {
    quiet_injected_panics();
    let (a, b) = image_pair(10);
    let (expected, _) = xor_image(&a, &b).unwrap();
    let mut pipeline = DiffExecutorConfig::new(2)
        .fault_plan(FaultPlan::new().poison_on_row(2))
        .build();
    let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
    assert_eq!(
        got, expected,
        "poisoned state lock must not corrupt results"
    );
    assert_eq!(stats.rows, 10);
    // Submissions and further batches keep working on the poisoned mutex.
    let (again, _) = pipeline.diff_images(&a, &b).unwrap();
    assert_eq!(again, expected);
}

#[test]
fn combined_faults_in_one_batch_all_recover() {
    quiet_injected_panics();
    let (a, b) = image_pair(24);
    let (expected, _) = xor_image(&a, &b).unwrap();
    let plan = FaultPlan::new()
        .panic_on_row(2)
        .die_on_row(9)
        .poison_on_row(14)
        .panic_on_row(21);
    // Force the systolic kernel so machine-work totals are comparable
    // against the sequential reference below.
    let mut pipeline = DiffExecutorConfig::new(4)
        .kernel(Kernel::Systolic)
        .fault_plan(plan)
        .build();
    let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
    assert_eq!(got, expected);
    assert_eq!(stats.rows, 24);
    assert_eq!(stats.retries, 3, "two panics + one orphaned chunk");
    assert_eq!(stats.respawns, 1);
    // Aggregated machine work matches the sequential reference: retries
    // re-run whole chunks but only the successful attempt is absorbed.
    let (_, seq_stats) = xor_image(&a, &b).unwrap();
    assert_eq!(stats.totals.iterations, seq_stats.totals.iterations);
}

// ---------------------------------------------------------------------------
// Job-granularity drills on the shared multi-image executor.
// ---------------------------------------------------------------------------

fn seeded_pair(height: usize, seed: u64) -> (RleImage, RleImage) {
    let params = GenParams::for_density(512, 0.3);
    let a = RowGenerator::new(params, seed).next_image(height);
    let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.05), seed ^ 0xFA18);
    (a, b)
}

/// Drains one job through [`JobHandle::collect_next`], asserting the
/// result-isolation invariant along the way: every collected ticket lies
/// inside the handle's own `[lo, hi)` range. Returns the rows reassembled
/// in ticket order.
fn collect_job(handle: &JobHandle) -> Vec<RleRow> {
    let (lo, hi) = handle.tickets();
    let mut rows: Vec<Option<RleRow>> = vec![None; (hi - lo) as usize];
    while let Some(outcome) = handle
        .collect_next(None)
        .expect("collect without a deadline cannot time out")
    {
        let ticket = outcome.ticket.id();
        assert!(
            (lo..hi).contains(&ticket),
            "ticket {ticket} leaked into job {} (range {lo}..{hi})",
            handle.id()
        );
        let slot = &mut rows[(ticket - lo) as usize];
        assert!(slot.is_none(), "ticket {ticket} delivered twice");
        *slot = Some(
            outcome
                .result
                .expect("no faults exhaust the retry budget")
                .0,
        );
    }
    rows.into_iter()
        .map(|r| r.expect("every ticket delivered exactly once"))
        .collect()
}

#[test]
fn worker_death_between_two_in_flight_jobs_recovers_both_in_isolation() {
    quiet_injected_panics();
    // Both jobs are submitted before either is collected, so their chunks
    // interleave round-robin on the one run queue and the doomed worker
    // processes chunks from both jobs. Ticket 3 belongs to job A (tickets
    // 0..16): the worker dies mid-stream while job B's chunks are also
    // queued.
    let (a1, b1) = seeded_pair(16, 0xD1E1);
    let (a2, b2) = seeded_pair(16, 0xD1E2);
    let executor = DiffExecutorConfig {
        threads: 2,
        fault_plan: Some(FaultPlan::new().die_on_row(3)),
        ..DiffExecutorConfig::default()
    }
    .build();
    let job_a = executor
        .submit_pair(&Arc::new(a1.clone()), &Arc::new(b1.clone()))
        .unwrap();
    let job_b = executor
        .submit_pair(&Arc::new(a2.clone()), &Arc::new(b2.clone()))
        .unwrap();
    assert_eq!(job_a.tickets(), (0, 16));
    assert_eq!(job_b.tickets(), (16, 32));

    // Collect the bystander first: it must complete bit-identically even
    // though the respawn happens underneath it.
    let got_b = collect_job(&job_b);
    assert_eq!(got_b, xor_image(&a2, &b2).unwrap().0.rows());
    let got_a = collect_job(&job_a);
    assert_eq!(got_a, xor_image(&a1, &b1).unwrap().0.rows());

    // The intervention is visible globally and charged per job: exactly
    // one respawn, owned by whichever job's chunk the dead worker held.
    let counters = executor.counters();
    assert_eq!(counters.respawns, 1, "the dead thread was replaced");
    assert!(counters.retries >= 1, "the orphaned chunk was re-enqueued");
    let (sup_a, sup_b) = (job_a.supervision(), job_b.supervision());
    assert_eq!(
        sup_a.respawns + sup_b.respawns,
        1,
        "the respawn is charged to exactly one owner, not smeared: {sup_a:?} {sup_b:?}"
    );
    assert_eq!(counters.retries, sup_a.retries + sup_b.retries);
    assert_eq!(executor.in_flight(), 0);
    assert_eq!(executor.workers(), 2, "pool size restored");
}

#[test]
fn fault_matrix_across_three_concurrent_jobs_stays_bit_identical() {
    quiet_injected_panics();
    // One fault of each flavour, each planted in a different job's ticket
    // range: panic in job 0 (tickets 0..10), death in job 1 (10..20),
    // poison in job 2 (20..30). All three jobs are in flight together.
    let plan = FaultPlan::new()
        .panic_on_row(3)
        .die_on_row(14)
        .poison_on_row(25);
    let executor = DiffExecutorConfig {
        threads: 3,
        fault_plan: Some(plan),
        ..DiffExecutorConfig::default()
    }
    .build();
    let pairs: Vec<(RleImage, RleImage)> =
        (0..3).map(|i| seeded_pair(10, 0xFA57 + i as u64)).collect();
    let handles: Vec<JobHandle> = pairs
        .iter()
        .map(|(a, b)| {
            executor
                .submit_pair(&Arc::new(a.clone()), &Arc::new(b.clone()))
                .unwrap()
        })
        .collect();
    for (i, (handle, (a, b))) in handles.iter().zip(&pairs).enumerate() {
        assert_eq!(handle.tickets(), (10 * i as u64, 10 * (i + 1) as u64));
        let got = collect_job(handle);
        assert_eq!(
            got,
            xor_image(a, b).unwrap().0.rows(),
            "job {i} must survive its fault bit-identically"
        );
    }
    let counters = executor.counters();
    assert!(
        counters.retries >= 2,
        "panic + orphaned chunk: {counters:?}"
    );
    assert_eq!(counters.respawns, 1, "{counters:?}");
    // Per-job attribution sums to the executor's totals.
    let sup: Vec<SupervisionCounters> = handles.iter().map(JobHandle::supervision).collect();
    assert_eq!(counters.retries, sup.iter().map(|s| s.retries).sum::<u64>());
    assert_eq!(
        counters.respawns,
        sup.iter().map(|s| s.respawns).sum::<u64>()
    );
    // The panic was planted in job 0's range and charged there.
    assert!(sup[0].retries >= 1, "{sup:?}");
    assert_eq!(executor.in_flight(), 0);

    // The pool is healthy afterwards: a clean job needs no interventions.
    let (a, b) = seeded_pair(10, 0xC1EA);
    let job = executor
        .diff_pair(&Arc::new(a.clone()), &Arc::new(b.clone()), None)
        .unwrap();
    assert_eq!(job.image, xor_image(&a, &b).unwrap().0);
    assert_eq!((job.stats.retries, job.stats.respawns), (0, 0));
}
