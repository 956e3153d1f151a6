//! Fairness, isolation and bit-identity proofs for the shared multi-image
//! executor — the proof harness for job-level scheduling.
//!
//! The executor's scheduling contract, as exercised here:
//!
//! * **Fairness / no starvation**: jobs are planned into chunks and the
//!   chunks of concurrent jobs interleave round-robin on the one run
//!   queue. A small job submitted while large jobs are in flight waits
//!   behind at most one queued chunk of each of them per turn of the
//!   rotation — a stream of big neighbours cannot push it back
//!   indefinitely. The drill asserts a bounded multiple of the big jobs'
//!   own service time.
//! * **Work spreading**: every idle worker pops the same queue, so one
//!   job's queued chunks reach more than one worker
//!   (`effective_workers > 1`).
//! * **Result isolation**: under concurrent submit / collect / abandon
//!   churn, every collected ticket lies inside its owning job's range and
//!   no row ever routes to a bystander job — including rows of abandoned
//!   jobs, which are discarded, never re-delivered.
//! * **Bit identity**: whatever the interleaving, every job's output
//!   equals both sequential references ([`xor_image`] and
//!   [`RleImage::xor`]) exactly.
//!
//! These run without `fault-injection`; the same invariants under worker
//! death live in `pipeline_faults.rs` (job-granularity drills). Every test
//! here holds one file-level lock, so the fairness drill's wall-clock
//! bound never measures cores shared with another test of this file.

use rle_systolic::rle::{RleImage, RleRow};
use rle_systolic::systolic_core::image::xor_image;
use rle_systolic::systolic_core::{
    DiffExecutor, DiffExecutorConfig, JobHandle, PipelineStats, SigPrefilterMode,
};
use rle_systolic::workload::{errors, ErrorModel, GenParams, RowGenerator};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Serializes the tests of this file (see the module docs). A failed
/// test poisons the lock; the next one still runs.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn image_pair(width: u32, height: usize, seed: u64) -> (Arc<RleImage>, Arc<RleImage>) {
    let params = GenParams::for_density(width, 0.3);
    let a = RowGenerator::new(params, seed).next_image(height);
    let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.06), seed ^ 0xFA1A);
    (Arc::new(a), Arc::new(b))
}

/// Drains a job via [`JobHandle::collect_next`], asserting every ticket
/// stays inside the handle's own range, and returns the reassembled rows.
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
        *slot = Some(outcome.result.expect("clean run: no row errors").0);
    }
    rows.into_iter()
        .map(|r| r.expect("every ticket delivered exactly once"))
        .collect()
}

// ---------------------------------------------------------------------------
// Fairness: small jobs are not starved by a stream of big neighbours.
// ---------------------------------------------------------------------------

#[test]
fn small_jobs_complete_within_a_bounded_multiple_of_big_job_service_time() {
    let _serial = serial();
    const BIG_ROWS: usize = 128;
    const SMALL_ROWS: usize = 8;
    const BIG_JOBS: usize = 4; // per big submitter
    const SMALL_JOBS: usize = 16; // per small submitter

    let executor: Arc<DiffExecutor> = Arc::new(DiffExecutorConfig::new(4).build());
    let big_lat: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    let small_lat: Mutex<Vec<Duration>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // Two submitters keep the executor saturated with big jobs …
        for submitter in 0u64..2 {
            let executor = Arc::clone(&executor);
            let big_lat = &big_lat;
            scope.spawn(move || {
                for round in 0..BIG_JOBS as u64 {
                    let (a, b) = image_pair(512, BIG_ROWS, 0xB16 + submitter * 97 + round);
                    let t0 = Instant::now();
                    let job = executor.diff_pair(&a, &b, None).unwrap();
                    big_lat.lock().unwrap().push(t0.elapsed());
                    assert_eq!(job.image, xor_image(&a, &b).unwrap().0);
                }
            });
        }
        // … while two more submit skewed-small jobs and time each one.
        for submitter in 0u64..2 {
            let executor = Arc::clone(&executor);
            let small_lat = &small_lat;
            scope.spawn(move || {
                for round in 0..SMALL_JOBS as u64 {
                    let (a, b) = image_pair(512, SMALL_ROWS, 0x5A11 + submitter * 97 + round);
                    let t0 = Instant::now();
                    let job = executor.diff_pair(&a, &b, None).unwrap();
                    small_lat.lock().unwrap().push(t0.elapsed());
                    assert_eq!(job.image, xor_image(&a, &b).unwrap().0);
                }
            });
        }
    });

    let big = big_lat.into_inner().unwrap();
    let small = small_lat.into_inner().unwrap();
    assert_eq!(big.len(), 2 * BIG_JOBS);
    assert_eq!(small.len(), 2 * SMALL_JOBS);

    // Fair-share bound: a small job waits at most for the chunks already
    // queued when it arrived — in the worst case every in-flight big job —
    // never for big jobs submitted *after* it. With blocking submitters at
    // most two big jobs are ever ahead, so 16× the work ratio of slack on
    // top of that absorbs scheduler noise on a loaded CI box; a starved
    // small job (queued behind the entire big stream) blows through this
    // by an order of magnitude.
    let max_big = big.iter().copied().max().unwrap();
    let worst_small = small.iter().copied().max().unwrap();
    let bound = Duration::from_millis(20).max(3 * max_big);
    assert!(
        worst_small <= bound,
        "starved: worst small-job latency {worst_small:?} exceeds {bound:?} \
         (max big-job service time {max_big:?})"
    );
    assert_eq!(executor.in_flight(), 0, "quiescent after the storm");
}

// ---------------------------------------------------------------------------
// Work spreading: one job's queued chunks reach more than one worker.
// ---------------------------------------------------------------------------

#[test]
fn a_jobs_queued_chunks_reach_more_than_one_idle_worker() {
    let _serial = serial();
    // 96 single-row chunks on the one run queue and 4 idle workers: the
    // push wakes them all, and each pops until the queue is empty. Which
    // workers win the pops is load-dependent, so drive rounds until more
    // than one takes part (bounded).
    let executor = DiffExecutorConfig {
        threads: 4,
        chunk_target: Some(1),
        ..DiffExecutorConfig::default()
    }
    .build();
    let mut most_workers = 0;
    for round in 0..20u64 {
        let (a, b) = image_pair(768, 96, 0x57EA + round);
        let job = executor.diff_pair(&a, &b, None).unwrap();
        assert_eq!(job.image, xor_image(&a, &b).unwrap().0);
        most_workers = most_workers.max(job.stats.effective_workers);
        if most_workers > 1 {
            break;
        }
    }
    assert!(
        most_workers > 1,
        "one worker ran every chunk of 20 rounds of 96 chunks: \
         idle workers are not taking queued chunks"
    );
}

// ---------------------------------------------------------------------------
// Isolation: concurrent submit / collect / abandon churn never routes a
// row to the wrong job.
// ---------------------------------------------------------------------------

#[test]
fn results_route_only_to_the_owning_job_under_churn() {
    let _serial = serial();
    let executor: Arc<DiffExecutor> = Arc::new(DiffExecutorConfig::new(3).build());

    std::thread::scope(|scope| {
        for submitter in 0u64..3 {
            let executor = Arc::clone(&executor);
            scope.spawn(move || {
                for round in 0u64..6 {
                    let height = 6 + 5 * submitter as usize + round as usize;
                    let (a, b) = image_pair(448, height, 0x150 + submitter * 31 + round);
                    let handle = executor.submit_pair(&a, &b).unwrap();
                    if round % 3 == 2 {
                        // Churn: walk away mid-job. Its rows must be
                        // discarded, never delivered to anyone else.
                        let _ = handle.collect_next(Some(Instant::now())).map(drop);
                        handle.abandon();
                        continue;
                    }
                    let got = collect_job(&handle);
                    assert_eq!(
                        got,
                        xor_image(&a, &b).unwrap().0.rows(),
                        "submitter {submitter} round {round}"
                    );
                }
            });
        }
    });

    // Quiescence: abandoned rows drain (workers discard stale deliveries
    // on arrival) and nothing stays in flight.
    let settled_by = Instant::now() + Duration::from_secs(10);
    while executor.abandoned() > 0 && Instant::now() < settled_by {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(executor.abandoned(), 0, "stale deliveries all reaped");
    assert_eq!(executor.in_flight(), 0);

    // The healed executor still produces exact diffs.
    let (a, b) = image_pair(448, 12, 0xF1A1);
    let job = executor.diff_pair(&a, &b, None).unwrap();
    assert_eq!(job.image, xor_image(&a, &b).unwrap().0);
}

// ---------------------------------------------------------------------------
// Differential suite: many submitters, one executor, two references.
// ---------------------------------------------------------------------------

/// Four submitters × six rounds of jobs with uneven widths and heights
/// on one executor, each pair built by `pair(width, height, seed)`. Every
/// job must equal both references; returns each job's stats beside the
/// number of rows its two images had equal.
fn run_differential_suite(
    executor: &Arc<DiffExecutor>,
    pair: impl Fn(u32, usize, u64) -> (Arc<RleImage>, Arc<RleImage>) + Sync,
) -> Vec<(PipelineStats, usize)> {
    let jobs: Mutex<Vec<(PipelineStats, usize)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for submitter in 0u64..4 {
            let (executor, pair, jobs) = (Arc::clone(executor), &pair, &jobs);
            scope.spawn(move || {
                for round in 0u64..6 {
                    let seed = 0xD1FF + submitter * 1_009 + round;
                    let width = 64 + 128 * (1 + submitter as u32);
                    let height = 1 + 4 * round as usize + submitter as usize;
                    let (a, b) = pair(width, height, seed);
                    let job = executor.diff_pair(&a, &b, None).unwrap();
                    let reference = a.xor(&b).expect("same dimensions");
                    assert_eq!(
                        job.image, reference,
                        "submitter {submitter} round {round}: RleImage::xor"
                    );
                    assert_eq!(
                        job.image,
                        xor_image(&a, &b).unwrap().0,
                        "submitter {submitter} round {round}: xor_image"
                    );
                    assert_eq!(job.stats.rows, height);
                    let equal = a
                        .rows()
                        .iter()
                        .zip(b.rows())
                        .filter(|(x, y)| x == y)
                        .count();
                    jobs.lock().unwrap().push((job.stats, equal));
                }
            });
        }
    });
    assert_eq!(executor.in_flight(), 0);
    assert_eq!(executor.abandoned(), 0);
    jobs.into_inner().unwrap()
}

#[test]
fn multi_submitter_differential_suite_is_bit_identical_to_both_references() {
    let _serial = serial();
    let executor: Arc<DiffExecutor> = Arc::new(DiffExecutorConfig::new(3).build());
    run_differential_suite(&executor, image_pair);
}

/// The same suite on a prefiltered executor: `diff_pair` runs the
/// signature prefilter, and the four submitters share its adaptive skip
/// rate. Pairs alternate between mostly-equal and mostly-changed rows, so
/// jobs see both prefilter modes and both the inline and the pooled
/// residual.
#[test]
fn multi_submitter_differential_suite_with_the_prefilter_is_bit_identical() {
    let _serial = serial();
    let executor: Arc<DiffExecutor> =
        Arc::new(DiffExecutorConfig::new(3).signature_prefilter().build());
    let jobs = run_differential_suite(&executor, |width, height, seed| {
        let (a, changed) = image_pair(width, height, seed);
        let stride = if seed % 2 == 0 { 5 } else { 2 };
        let rows = (0..height)
            .map(|i| {
                let source = if i % stride == 0 { &changed } else { &a };
                source.rows()[i].clone()
            })
            .collect();
        let b = RleImage::from_rows(a.width(), rows).unwrap();
        (a, Arc::new(b))
    });
    let mut modes = [0usize; 2];
    for (stats, equal) in &jobs {
        assert_eq!(stats.sig_collisions, 0);
        match stats.sig_prefilter {
            SigPrefilterMode::Active => {
                modes[0] += 1;
                assert_eq!(stats.rows_sig_skipped, *equal, "{stats:?}");
            }
            SigPrefilterMode::Bypassed => {
                modes[1] += 1;
                assert_eq!(stats.rows_sig_skipped, 0, "{stats:?}");
            }
            SigPrefilterMode::Off => panic!("the prefilter is on: {stats:?}"),
        }
    }
    assert!(modes[0] > 0, "some job ran the prefilter: {modes:?}");

    // The ledger closes, and every presented row is accounted for once:
    // skipped, diffed inline, or submitted to the pool.
    let s = executor.observer().metrics_snapshot();
    assert_eq!(s.jobs_submitted, 24);
    assert_eq!(s.jobs_submitted, s.jobs_completed + s.jobs_abandoned);
    assert_eq!(
        s.rows_submitted,
        s.rows_completed + s.rows_errored + s.rows_abandoned
    );
    assert_eq!(s.rows_diffed, s.rows_completed + s.rows_discarded);
    assert_eq!(s.kernel_rows(), s.rows_diffed + s.rows_inline_diffed);
    assert_eq!((s.queue_depth, s.in_flight), (0, 0));
    let skipped: usize = jobs.iter().map(|(stats, _)| stats.rows_sig_skipped).sum();
    let presented: usize = jobs.iter().map(|(stats, _)| stats.rows).sum();
    assert_eq!(s.rows_sig_skipped, skipped as u64);
    assert_eq!(
        s.rows_submitted + s.rows_sig_skipped + s.rows_inline_diffed,
        presented as u64
    );
}
