//! Invariant audit of the observability layer: the metrics ledger and the
//! structured trace are *verified against each other* and against the
//! pipeline's own accounting, not just emitted.
//!
//! The identities exercised here (all on quiescent pipelines — drained,
//! nothing in flight):
//!
//! * every histogram's bucket total equals its count;
//! * `row_latency_ns.count == row_runs.count ==
//!   rows_diffed + rows_inline_diffed`;
//! * the four kernel counters partition
//!   `rows_diffed + rows_inline_diffed` (worker-side diffs plus the
//!   prefilter's host-side inline residuals);
//! * `rows_diffed == rows_completed + rows_discarded` (the all-or-nothing
//!   chunk-retry ledger closes exactly, even under injected faults);
//! * `rows_completed + rows_errored == rows_submitted` after a full drain;
//! * `chunk_latency_ns.count == chunks_completed`;
//! * retry/respawn/timeout counters equal both the matching trace-event
//!   counts and [`SupervisionCounters`];
//! * per row, the trace is causally ordered:
//!   `Submit < Checkout < Kernel < ChunkDone` by sequence number;
//! * `jobs_submitted == jobs_completed + jobs_abandoned` — the job-level
//!   ledger the multi-image executor adds on top of the row ledger.
//!
//! Plus the PR's satellite audits: the paper's §5 Observation re-checked
//! through the observed pipeline (per-row `iterations ≤ k3 + 1`), the
//! `PipelineStats` kernel-accounting identity across kernels × threads ×
//! uneven heights, a deterministic multi-submitter stress drill, and the
//! job-granular audit: per-job `PipelineStats` identities close for every
//! job on a shared [`DiffExecutor`] *and* their sums reconcile with the
//! one shared metrics registry.

mod common;

use common::canonical_pair;
use proptest::prelude::*;
use rle_systolic::rle::{RleImage, RleRow};
use rle_systolic::systolic_core::engine::executor::RowOutcome;
use rle_systolic::systolic_core::image::xor_image;
use rle_systolic::systolic_core::obs::ObsConfig;
use rle_systolic::systolic_core::{
    DiffExecutor, DiffExecutorConfig, JobHandle, Kernel, MetricsSnapshot, PipelineStats,
    SystolicError, TraceEvent, TraceKind,
};
use rle_systolic::workload::{errors, ErrorModel, GenParams, RowGenerator};
use std::sync::{Arc, Mutex};

fn image_pair(width: u32, height: usize, seed: u64) -> (RleImage, RleImage) {
    let params = GenParams::for_density(width, 0.3);
    let a = RowGenerator::new(params, seed).next_image(height);
    let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.05), seed ^ 0xBEEF);
    (a, b)
}

/// A one-row image holding `row`: a single row pair enters the executor
/// as a job of its own.
fn row_image(row: &RleRow) -> Arc<RleImage> {
    Arc::new(RleImage::from_rows(row.width(), vec![row.clone()]).unwrap())
}

/// Every row of `handle`'s job, in completion order.
fn collect_all(handle: &JobHandle) -> Vec<RowOutcome> {
    std::iter::from_fn(|| handle.collect_next(None).expect("no deadline")).collect()
}

/// The histogram/counter identities every quiescent snapshot must satisfy,
/// regardless of workload or fault history.
fn assert_ledger_closed(s: &MetricsSnapshot) {
    for (name, h) in [
        ("row_latency_ns", &s.row_latency_ns),
        ("chunk_latency_ns", &s.chunk_latency_ns),
        ("row_runs", &s.row_runs),
    ] {
        assert_eq!(
            h.bucket_total(),
            h.count,
            "{name}: buckets must sum to count"
        );
    }
    assert_eq!(
        s.row_latency_ns.count,
        s.rows_diffed + s.rows_inline_diffed,
        "one latency sample per successful diff (worker or inline)"
    );
    assert_eq!(
        s.row_runs.count,
        s.rows_diffed + s.rows_inline_diffed,
        "one run-count sample per successful diff (worker or inline)"
    );
    assert_eq!(
        s.kernel_rows(),
        s.rows_diffed + s.rows_inline_diffed,
        "kernel counters must partition the diffed rows"
    );
    assert_eq!(
        s.rows_diffed,
        s.rows_completed + s.rows_discarded,
        "every diffed row is either delivered or discarded by a chunk crash"
    );
    assert_eq!(
        s.chunk_latency_ns.count, s.chunks_completed,
        "one chunk latency sample per completed chunk"
    );
    assert_eq!(
        s.rows_submitted,
        s.rows_completed + s.rows_errored + s.rows_abandoned,
        "every accepted row is delivered, errored, or written off by an abort"
    );
    assert_eq!(
        s.jobs_submitted,
        s.jobs_completed + s.jobs_abandoned,
        "every ledgered job either completes or is abandoned, exactly once"
    );
    assert_eq!(s.queue_depth, 0, "quiescent: empty queue");
    assert_eq!(s.in_flight, 0, "quiescent: nothing in flight");
}

/// Counts trace events matching `pred`.
fn count(events: &[TraceEvent], pred: impl Fn(&TraceKind) -> bool) -> u64 {
    events.iter().filter(|e| pred(&e.kind)).count() as u64
}

#[test]
fn clean_batches_reconcile_across_kernels() {
    let (a, b) = image_pair(768, 24, 0x0B5E);
    let expected = xor_image(&a, &b).unwrap().0;
    for kernel in [Kernel::Auto, Kernel::Rle, Kernel::Packed, Kernel::Systolic] {
        let mut pipeline = DiffExecutorConfig::new(3).kernel(kernel).build();
        let obs = pipeline.observer();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, expected, "{kernel:?}");

        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        assert_eq!(s.batches, 1);
        assert_eq!(s.rows_submitted, 24);
        assert_eq!(s.rows_completed, 24);
        assert_eq!(s.rows_errored, 0);
        assert_eq!(s.rows_discarded, 0, "no faults, no discards");
        assert_eq!(s.retries + s.respawns + s.timeouts, 0);
        // The metrics agree with the pipeline's own per-batch accounting.
        assert_eq!(s.rows_fast_path, stats.rows_fast_path as u64, "{kernel:?}");
        assert_eq!(s.rows_rle_kernel, stats.rows_rle_kernel as u64);
        assert_eq!(s.rows_packed_kernel, stats.rows_packed_kernel as u64);
        assert_eq!(s.rows_systolic_kernel, stats.rows_systolic_kernel as u64);
        assert_eq!(s.chunks_dispatched, stats.chunks as u64);
        assert_eq!(s.chunks_completed, stats.chunks as u64);

        // Exposition round-trips the same numbers.
        let prom = s.to_prometheus();
        assert!(
            prom.contains("diffpipeline_rows_completed_total 24"),
            "{prom}"
        );
        let json = s.to_json();
        assert!(json.contains("\"rows_completed\": 24"), "{json}");
    }
}

/// The registry needs no `observe()`: executors built without it count
/// every path — a worker batch, `diff_pair`, and the prefilter's inline
/// residual — while recording no trace at all.
#[test]
fn registry_is_on_by_default() {
    let (a, b) = image_pair(512, 12, 0xDEF0);
    let expected = xor_image(&a, &b).unwrap().0;
    let (a, b) = (Arc::new(a), Arc::new(b));

    let mut executor = DiffExecutorConfig::new(3).build();
    let (got, batch) = executor.diff_images_shared(&a, &b).unwrap();
    assert_eq!(got, expected);
    let job = executor.diff_pair(&a, &b, None).unwrap();
    assert_eq!(job.image, expected);
    let s = executor.observer().metrics_snapshot();
    assert_eq!(
        (s.jobs_submitted, s.rows_submitted, s.rows_completed),
        (2, 24, 24)
    );
    assert_eq!(
        s.chunks_dispatched,
        (batch.chunks + job.stats.chunks) as u64
    );

    // The prefilter is a config switch of its own; the registry still
    // needs no `observe()`. Only the first three rows may differ, so the
    // residual is diffed inline on the host.
    let rows = (0..a.height())
        .map(|i| {
            if i < 3 {
                b.rows()[i].clone()
            } else {
                a.rows()[i].clone()
            }
        })
        .collect();
    let c = Arc::new(RleImage::from_rows(a.width(), rows).unwrap());
    let residual = (0..a.height())
        .filter(|&i| a.rows()[i].signature() != c.rows()[i].signature())
        .count();
    assert!(residual > 0, "some row must differ");
    let mut prefiltered = DiffExecutorConfig::new(3).signature_prefilter().build();
    let (got, stats) = prefiltered.diff_images_shared(&a, &c).unwrap();
    assert_eq!(got, xor_image(&a, &c).unwrap().0);
    assert_eq!(stats.chunks, 0, "the residual ran inline");
    let s = prefiltered.observer().metrics_snapshot();
    assert_eq!(s.rows_inline_diffed, residual as u64);
    assert_eq!(s.rows_sig_skipped, (a.height() - residual) as u64);

    for executor in [&executor, &prefiltered] {
        let obs = executor.observer();
        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        assert_eq!(s.trace_recorded, 0, "no ring, no events");
        assert!(obs.trace_snapshot().is_empty());
        let c = executor.counters();
        assert_eq!(
            (s.retries, s.respawns, s.timeouts),
            (c.retries, c.respawns, c.timeouts)
        );
    }
}

#[test]
fn metrics_accumulate_across_batches_and_streaming() {
    let (a, b) = image_pair(512, 10, 0xACC0);
    let a_arc = Arc::new(a.clone());
    let b_arc = Arc::new(b.clone());
    let mut pipeline = DiffExecutorConfig::new(2).observe().build();
    let obs = pipeline.observer();

    let (_, first) = pipeline.diff_images(&a, &b).unwrap();
    let (_, second) = pipeline.diff_images_shared(&a_arc, &b_arc).unwrap();
    // Row at a time: each row pair goes in as a one-row job.
    let handles: Vec<JobHandle> = a
        .rows()
        .iter()
        .zip(b.rows())
        .map(|(ra, rb)| {
            pipeline
                .submit_pair(&row_image(ra), &row_image(rb))
                .unwrap()
        })
        .collect();
    let outcomes: Vec<RowOutcome> = handles.iter().flat_map(collect_all).collect();
    assert_eq!(outcomes.len(), 10);

    let s = obs.metrics_snapshot();
    assert_ledger_closed(&s);
    assert_eq!(s.batches, 12, "every row pair submitted alone is a job");
    assert_eq!(s.rows_submitted, 30);
    assert_eq!(s.rows_completed, 30);
    // Each one-row job is a single chunk.
    assert!(handles.iter().all(|h| h.chunks() == 1));
    assert_eq!(
        s.chunks_dispatched,
        (first.chunks + second.chunks + 10) as u64
    );
    let events = obs.trace_snapshot();
    assert_eq!(
        count(&events, |k| matches!(k, TraceKind::Submit { .. })),
        30
    );
    assert_eq!(
        count(&events, |k| matches!(k, TraceKind::JobDone { .. })),
        12
    );
}

#[test]
fn trace_is_causally_ordered_per_row() {
    let (a, b) = image_pair(640, 16, 0xCA5A);
    let mut pipeline = DiffExecutorConfig::new(4).observe().build();
    let obs = pipeline.observer();
    pipeline.diff_images(&a, &b).unwrap();
    let events = obs.trace_snapshot();

    // Sequence numbers are unique and timestamps non-decreasing along them.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "events sorted by seq");
        assert!(pair[0].at_ns <= pair[1].at_ns, "clock is monotonic");
    }

    // Per ticket: Submit < covering Checkout < Kernel < covering ChunkDone.
    // A clean run has exactly one of each per row/chunk.
    for ticket in 0..16u64 {
        let submit = events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::Submit { ticket: t } if t == ticket))
            .unwrap_or_else(|| panic!("row {ticket}: no submit event"));
        let checkout = events
            .iter()
            .find(|e| {
                matches!(e.kind, TraceKind::Checkout { chunk, rows, .. }
                    if chunk <= ticket && ticket < chunk + u64::from(rows))
            })
            .unwrap_or_else(|| panic!("row {ticket}: no covering checkout"));
        let kernel = events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::Kernel { ticket: t, .. } if t == ticket))
            .unwrap_or_else(|| panic!("row {ticket}: no kernel event"));
        let done = events
            .iter()
            .find(|e| {
                matches!(e.kind, TraceKind::ChunkDone { chunk, rows, .. }
                    if chunk <= ticket && ticket < chunk + u64::from(rows))
            })
            .unwrap_or_else(|| panic!("row {ticket}: no covering chunk-done"));
        assert!(
            submit.seq < checkout.seq && checkout.seq < kernel.seq && kernel.seq < done.seq,
            "row {ticket}: causal chain violated \
             (submit {} checkout {} kernel {} done {})",
            submit.seq,
            checkout.seq,
            kernel.seq,
            done.seq
        );
        // The kernel event's worker matches its checkout's worker.
        let (TraceKind::Checkout { worker: cw, .. }, TraceKind::Kernel { worker: kw, .. }) =
            (checkout.kind, kernel.kind)
        else {
            unreachable!("matched above");
        };
        assert_eq!(cw, kw, "row {ticket}: kernel ran on the checked-out worker");
    }
}

#[test]
fn trace_ring_wraps_without_corrupting_accounting() {
    let (a, b) = image_pair(512, 32, 0x0F10);
    let mut pipeline = DiffExecutorConfig::new(2)
        .observe_with(ObsConfig { trace_capacity: 16 })
        .build();
    let obs = pipeline.observer();
    pipeline.diff_images(&a, &b).unwrap();

    let s = obs.metrics_snapshot();
    assert_ledger_closed(&s);
    let events = obs.trace_snapshot();
    assert_eq!(events.len(), 16, "ring retains exactly its capacity");
    assert_eq!(
        s.trace_recorded,
        s.trace_dropped + events.len() as u64,
        "recorded = retained + overwritten"
    );
    assert!(s.trace_dropped > 0, "32 rows must overflow 16 slots");
    // The retained window is the most recent events, still in order.
    for pair in events.windows(2) {
        assert_eq!(
            pair[1].seq,
            pair[0].seq + 1,
            "retained window is contiguous"
        );
    }
    assert_eq!(events.last().unwrap().seq, s.trace_recorded - 1);
}

#[test]
fn row_errors_are_ledgered_not_lost() {
    // A row pair of unequal width is refused with a typed error before
    // submission, so it enters no ledger; the good row beside it is
    // ledgered as usual.
    let pipeline = DiffExecutorConfig::new(2).observe().build();
    let obs = pipeline.observer();
    let good = row_image(&RleRow::from_pairs(64, &[(0, 9)]).unwrap());
    let bad = row_image(&RleRow::new(32)); // width mismatch
    assert!(matches!(
        pipeline.submit_pair(&good, &bad).err(),
        Some(SystolicError::WidthMismatch { .. })
    ));
    let outcomes = collect_all(&pipeline.submit_pair(&good, &good).unwrap());
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes.iter().all(|o| o.result.is_ok()));

    let s = obs.metrics_snapshot();
    assert_ledger_closed(&s);
    assert_eq!(s.rows_submitted, 1);
    assert_eq!(s.rows_completed, 1);
    assert_eq!(s.rows_errored, 0);
    assert_eq!(s.rows_kernel_errors, 0);
    assert_eq!(s.rows_diffed, 1, "the bad row never produced a diff");
    let events = obs.trace_snapshot();
    assert_eq!(
        count(&events, |k| matches!(k, TraceKind::RowError { .. })),
        0
    );
}

#[test]
fn gauges_never_go_negative_under_concurrent_sampling() {
    // The queue-depth gauge moves inside the same shard-lock critical
    // sections that mutate the sharded queues, so no interleaving of
    // pushes, pops and steals can ever expose a negative depth to a
    // concurrent scraper. Hammer several batches while a sampler thread
    // reads both gauges as fast as it can.
    let (a, b) = image_pair(512, 32, 0x6A06);
    let expected = xor_image(&a, &b).unwrap().0;
    let mut pipeline = DiffExecutorConfig::new(4).chunk_target(1).build();
    let obs = pipeline.observer();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let obs = Arc::clone(&obs);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut samples = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let s = obs.metrics_snapshot();
                assert!(s.queue_depth >= 0, "queue_depth went negative: {s:?}");
                assert!(s.in_flight >= 0, "in_flight went negative: {s:?}");
                samples += 1;
            }
            samples
        })
    };

    for _ in 0..6 {
        let (got, _) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, expected);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let samples = sampler.join().expect("sampler found a negative gauge");
    assert!(samples > 0, "sampler must have observed the run");

    // Quiescent: both gauges return exactly to zero and the ledger closes.
    let s = obs.metrics_snapshot();
    assert_ledger_closed(&s);
}

// ---------------------------------------------------------------------------
// Satellite: the §5 Observation through the observed pipeline.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The paper's Observation, replayed through the *pipeline* rather
    /// than the bare array: canonical (fully-compressed) random rows on
    /// the systolic kernel halt within `k3 + 1` iterations, where `k3` is
    /// the raw output run count carried by each [`RowOutcome`]'s stats.
    /// (The bare-array version with 512 cases lives in
    /// `correctness_props.rs`; EXPERIMENTS.md §E9 records the measured
    /// rates.)
    #[test]
    fn observation_k3_plus_one_via_pipeline((a, b) in canonical_pair(800, 48)) {
        let pipeline = DiffExecutorConfig::new(1)
            .kernel(Kernel::Systolic)
            .build();
        let handle = pipeline.submit_pair(&row_image(&a), &row_image(&b)).unwrap();
        let outcome = handle.collect_next(None).unwrap().expect("one row in flight");
        let (_, stats) = outcome.result.expect("systolic kernel succeeds");
        prop_assert!(
            stats.iterations <= stats.output_runs as u64 + 1,
            "counterexample to the Observation: {} iterations, k3 = {} (a = {:?}, b = {:?})",
            stats.iterations, stats.output_runs, a, b
        );
    }
}

/// Deterministic tally behind the EXPERIMENTS.md §E9 numbers: 1 000
/// seeded canonical pairs from the §5 generator, zero violations
/// tolerated. Prints the pass/fail tally so a `--nocapture` run shows the
/// measured rate being recorded.
#[test]
fn observation_tally_on_generated_workloads() {
    let params = GenParams::for_density(2_000, 0.25);
    let mut violations = 0u64;
    let mut at_bound = 0u64;
    let total = 1_000u64;
    let pipeline = DiffExecutorConfig::new(2).kernel(Kernel::Systolic).build();
    for seed in 0..total {
        let mut gen = RowGenerator::new(params, 0x0B5E + seed);
        let a = gen.next_image(1);
        let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.08), seed);
        let handle = pipeline.submit_pair(&Arc::new(a), &Arc::new(b)).unwrap();
        let outcome = handle
            .collect_next(None)
            .unwrap()
            .expect("one row in flight");
        let (_, stats) = outcome.result.expect("systolic kernel succeeds");
        let bound = stats.output_runs as u64 + 1;
        if stats.iterations > bound {
            violations += 1;
        } else if stats.iterations == bound {
            at_bound += 1;
        }
    }
    println!(
        "observation tally: {total} pairs, {violations} violations, \
         {at_bound} exactly at the k3+1 bound"
    );
    assert_eq!(violations, 0, "counterexample to the paper's Observation");
}

// ---------------------------------------------------------------------------
// Satellite: PipelineStats kernel accounting across kernels × threads ×
// uneven heights.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `rows_fast_path + rows_rle_kernel + rows_packed_kernel +
    /// rows_systolic_kernel == rows` for every batch, and the observed
    /// metrics agree with the per-batch stats.
    #[test]
    fn pipeline_stats_kernel_counters_partition_rows(
        kernel_ix in 0usize..4,
        threads in 1usize..=4,
        height in 1usize..=13,
        seed in 0u64..1024,
    ) {
        let kernel = [Kernel::Auto, Kernel::Rle, Kernel::Packed, Kernel::Systolic][kernel_ix];
        let (a, b) = image_pair(320, height, seed);
        let mut pipeline = DiffExecutorConfig::new(threads).kernel(kernel).build();
        let obs = pipeline.observer();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        prop_assert_eq!(&got, &xor_image(&a, &b).unwrap().0);
        prop_assert_eq!(stats.rows, height);
        prop_assert_eq!(
            stats.rows_fast_path
                + stats.rows_rle_kernel
                + stats.rows_packed_kernel
                + stats.rows_systolic_kernel,
            stats.rows,
            "kernel counters must partition the batch ({:?}, {} threads)",
            kernel,
            threads
        );
        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        prop_assert_eq!(s.rows_completed, height as u64);
    }
}

// ---------------------------------------------------------------------------
// Satellite: deterministic multi-submitter stress drill.
// ---------------------------------------------------------------------------

#[test]
fn shared_pipeline_stress_from_four_submitters() {
    let pipeline = Arc::new(Mutex::new(DiffExecutorConfig::new(3).build()));
    let obs = pipeline.lock().unwrap().observer();
    let mut expected_rows = 0u64;

    std::thread::scope(|scope| {
        for submitter in 0u64..4 {
            let pipeline = Arc::clone(&pipeline);
            scope.spawn(move || {
                for round in 0u64..3 {
                    let seed = 0x57E5 + submitter * 100 + round;
                    let (a, b) = image_pair(384, 6, seed);
                    let expected = xor_image(&a, &b).unwrap().0;
                    let mut p = pipeline.lock().unwrap();
                    match (submitter + round) % 3 {
                        0 => {
                            let (got, stats) = p.diff_images(&a, &b).unwrap();
                            assert_eq!(got, expected, "submitter {submitter} round {round}");
                            assert_eq!(stats.rows, 6);
                        }
                        1 => {
                            let (aa, bb) = (Arc::new(a), Arc::new(b));
                            let (got, _) = p.diff_images_shared(&aa, &bb).unwrap();
                            assert_eq!(got, expected, "submitter {submitter} round {round}");
                        }
                        _ => {
                            let handles: Vec<JobHandle> = a
                                .rows()
                                .iter()
                                .zip(b.rows())
                                .map(|(ra, rb)| {
                                    p.submit_pair(&row_image(ra), &row_image(rb)).unwrap()
                                })
                                .collect();
                            let tickets: Vec<u64> = handles.iter().map(|h| h.tickets().0).collect();
                            let mut got = vec![None; tickets.len()];
                            for outcome in handles.iter().flat_map(collect_all) {
                                let slot = tickets
                                    .iter()
                                    .position(|t| *t == outcome.ticket.id())
                                    .expect("own ticket");
                                got[slot] = Some(outcome.result.unwrap().0);
                            }
                            for (slot, row) in got.into_iter().enumerate() {
                                assert_eq!(
                                    row.unwrap(),
                                    expected.rows()[slot],
                                    "submitter {submitter} round {round} row {slot}"
                                );
                            }
                        }
                    }
                }
            });
            expected_rows += 3 * 6;
        }
    });

    // Clean drain: nothing leaked, the ledger closes over all 12 calls.
    let p = pipeline.lock().unwrap();
    assert_eq!(p.in_flight(), 0, "no leaked checkouts");
    let s = obs.metrics_snapshot();
    assert_ledger_closed(&s);
    assert_eq!(s.rows_submitted, expected_rows);
    assert_eq!(s.rows_completed, expected_rows);
    assert_eq!(s.rows_errored, 0);
}

// ---------------------------------------------------------------------------
// Satellite: the job-level ledger on the shared multi-image executor.
// Per-job PipelineStats identities must close for every job, and their
// sums must reconcile with the one shared metrics registry — exact
// attribution under arbitrary interleaving, not merely eventual totals.
// ---------------------------------------------------------------------------

#[test]
fn executor_job_ledger_closes_per_job_and_in_aggregate() {
    let executor: Arc<DiffExecutor> = Arc::new(
        DiffExecutorConfig {
            threads: 3,
            observe: Some(ObsConfig::default()),
            ..DiffExecutorConfig::default()
        }
        .build(),
    );
    let obs = executor.observer();

    // 4 submitters × 3 jobs each, uneven heights so the chunk plans and
    // interleavings differ between jobs sharing the shards.
    let per_job: Mutex<Vec<PipelineStats>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for submitter in 0u64..4 {
            let executor = Arc::clone(&executor);
            let per_job = &per_job;
            scope.spawn(move || {
                for round in 0u64..3 {
                    let seed = 0x10B5 + submitter * 64 + round;
                    let height = 5 + 7 * submitter as usize + round as usize;
                    let (a, b) = image_pair(448, height, seed);
                    let expected = xor_image(&a, &b).unwrap().0;
                    let (a, b) = (Arc::new(a), Arc::new(b));
                    let job = executor.diff_pair(&a, &b, None).unwrap();
                    assert_eq!(
                        job.image, expected,
                        "submitter {submitter} round {round}: bit-identity"
                    );
                    // Per-job identities: the stats describe exactly this
                    // job's rows, no more, no less.
                    assert_eq!(job.stats.rows, height);
                    assert_eq!(
                        job.stats.rows_fast_path
                            + job.stats.rows_rle_kernel
                            + job.stats.rows_packed_kernel
                            + job.stats.rows_systolic_kernel,
                        height,
                        "submitter {submitter} round {round}: per-job kernel partition"
                    );
                    assert_eq!(
                        job.tickets.1 - job.tickets.0,
                        height as u64,
                        "ticket range covers exactly the job's rows"
                    );
                    per_job.lock().unwrap().push(job.stats);
                }
            });
        }
    });

    let per_job = per_job.into_inner().unwrap();
    assert_eq!(per_job.len(), 12);
    let sum = |f: fn(&PipelineStats) -> u64| per_job.iter().map(f).sum::<u64>();
    let total_rows = sum(|s| s.rows as u64);

    let s = obs.metrics_snapshot();
    assert_ledger_closed(&s);
    assert_eq!(s.jobs_submitted, 12);
    assert_eq!(s.jobs_completed, 12);
    assert_eq!(s.jobs_abandoned, 0);
    assert_eq!(s.rows_submitted, total_rows);
    assert_eq!(s.rows_completed, total_rows);
    // Summed per-job kernel counters equal the registry's global
    // partition: every worker-side increment was attributed to exactly
    // one job.
    assert_eq!(s.rows_fast_path, sum(|j| j.rows_fast_path as u64));
    assert_eq!(s.rows_rle_kernel, sum(|j| j.rows_rle_kernel as u64));
    assert_eq!(s.rows_packed_kernel, sum(|j| j.rows_packed_kernel as u64));
    assert_eq!(
        s.rows_systolic_kernel,
        sum(|j| j.rows_systolic_kernel as u64)
    );
    // Same for the supervision and scheduler counters.
    assert_eq!(s.retries, sum(|j| j.retries));
    assert_eq!(s.respawns, sum(|j| j.respawns));
    assert_eq!(s.timeouts, sum(|j| j.timeouts));
    assert_eq!(s.chunks_stolen, sum(|j| j.chunks_stolen));
    assert_eq!(s.chunks_dispatched, sum(|j| j.chunks as u64));
    assert_eq!(s.chunks_completed, s.chunks_dispatched);

    // Trace: one JobSubmit and one JobDone per job, causally ordered and
    // carrying the same row count.
    let events = obs.trace_snapshot();
    let submits: Vec<(u64, u64, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::JobSubmit { job, rows } => Some((job, rows, e.seq)),
            _ => None,
        })
        .collect();
    assert_eq!(submits.len(), 12);
    for (job, rows, submit_seq) in submits {
        let done = events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::JobDone { job: j, .. } if j == job))
            .unwrap_or_else(|| panic!("job {job}: no JobDone event"));
        let TraceKind::JobDone {
            rows: done_rows, ..
        } = done.kind
        else {
            unreachable!("matched above");
        };
        assert_eq!(done_rows, rows, "job {job}: JobDone row count");
        assert!(submit_seq < done.seq, "job {job}: submit precedes done");
    }

    // Exposition carries the job ledger.
    let prom = s.to_prometheus();
    assert!(
        prom.contains("diffpipeline_jobs_submitted_total 12"),
        "{prom}"
    );
    assert!(
        prom.contains("diffpipeline_jobs_completed_total 12"),
        "{prom}"
    );
    assert!(s.to_json().contains("\"jobs_completed\": 12"));
}

// ---------------------------------------------------------------------------
// Fault-injected audits: trace and metrics reconcile with
// SupervisionCounters under panics, deaths and stalls.
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use rle_systolic::systolic_core::{FaultPlan, SigPrefilterMode};
    use std::time::Duration;

    /// Silence the default panic hook for injected panics (same helper as
    /// `pipeline_faults.rs`; real panics keep full reporting).
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

    #[test]
    fn panicked_chunk_ledger_closes_and_retry_is_traced() {
        quiet_injected_panics();
        let (a, b) = image_pair(512, 16, 0xFA11);
        let mut pipeline = DiffExecutorConfig::new(3)
            .fault_plan(FaultPlan::new().panic_on_row(5))
            .observe()
            .build();
        let obs = pipeline.observer();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);
        assert_eq!(stats.retries, 1);

        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        let counters = pipeline.counters();
        assert_eq!(s.retries, counters.retries);
        assert_eq!(s.respawns, counters.respawns);
        assert_eq!(s.timeouts, counters.timeouts);
        // The crashed chunk's partial work is visible: rows diffed before
        // the panic were discarded and re-diffed.
        assert_eq!(s.rows_completed, 16);
        assert_eq!(s.rows_diffed, 16 + s.rows_discarded);
        let events = obs.trace_snapshot();
        assert_eq!(
            count(&events, |k| matches!(k, TraceKind::Retry { .. })),
            counters.retries,
            "every supervision retry appears in the trace"
        );
        // The retried chunk was checked out once more than the clean ones.
        assert_eq!(
            count(&events, |k| matches!(k, TraceKind::Checkout { .. })),
            s.chunks_completed + counters.retries
        );
    }

    #[test]
    fn dead_worker_ledger_closes_and_respawn_is_traced() {
        quiet_injected_panics();
        let (a, b) = image_pair(512, 12, 0xDEAD);
        let mut pipeline = DiffExecutorConfig::new(2)
            .fault_plan(FaultPlan::new().die_on_row(3))
            .observe()
            .build();
        let obs = pipeline.observer();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);
        assert_eq!(stats.respawns, 1);

        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        let counters = pipeline.counters();
        assert_eq!(
            (s.retries, s.respawns),
            (counters.retries, counters.respawns)
        );
        let events = obs.trace_snapshot();
        assert_eq!(
            count(&events, |k| matches!(k, TraceKind::Respawn { .. })),
            counters.respawns
        );
        assert_eq!(
            count(&events, |k| matches!(k, TraceKind::Retry { .. })),
            counters.retries
        );
    }

    /// Supervision lands in the registry of an executor built without
    /// `observe()`: a panic and a worker death each book their retry, the
    /// death its respawn, and the trace stays empty.
    #[test]
    fn default_registry_counts_a_panic_and_a_worker_death() {
        quiet_injected_panics();
        let (a, b) = image_pair(512, 12, 0xDEF1);
        let mut executor = DiffExecutorConfig::new(3)
            .fault_plan(FaultPlan::new().panic_on_row(2).die_on_row(9))
            .build();
        let (got, stats) = executor.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);
        assert_eq!((stats.retries, stats.respawns), (2, 1));

        let obs = executor.observer();
        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        assert_eq!((s.retries, s.respawns, s.timeouts), (2, 1, 0));
        let c = executor.counters();
        assert_eq!(
            (s.retries, s.respawns, s.timeouts),
            (c.retries, c.respawns, c.timeouts)
        );
        assert_eq!(s.trace_recorded, 0);
        assert!(obs.trace_snapshot().is_empty());
    }

    #[test]
    fn exhausted_retries_trace_the_failed_row() {
        quiet_injected_panics();
        let (a, b) = image_pair(512, 8, 0xFA12);
        let mut pipeline = DiffExecutorConfig::new(2)
            .retry_limit(1)
            .fault_plan(FaultPlan::new().panic_on_row_times(4, 10))
            .observe()
            .build();
        let obs = pipeline.observer();
        let err = pipeline.diff_images(&a, &b).unwrap_err();
        assert!(matches!(
            err,
            rle_systolic::systolic_core::SystolicError::RowFailed { row: 4, .. }
        ));
        assert_eq!(pipeline.in_flight(), 0, "failed batch fully drained");

        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        assert_eq!(s.rows_errored, 1, "exactly the culprit row errored");
        assert_eq!(s.rows_completed + s.rows_errored, s.rows_submitted);
        let events = obs.trace_snapshot();
        let failed: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::RowFailed { ticket, attempts } => {
                    assert_eq!(ticket, 4);
                    Some(attempts)
                }
                _ => None,
            })
            .collect();
        assert_eq!(failed, vec![2], "initial attempt + one retry");
        assert_eq!(
            count(&events, |k| matches!(k, TraceKind::Retry { .. })),
            pipeline.counters().retries
        );
    }

    #[test]
    fn stall_timeout_is_counted_and_traced_consistently() {
        quiet_injected_panics();
        let (a, b) = image_pair(512, 1, 0x57A1);
        let pipeline = DiffExecutorConfig::new(1)
            .fault_plan(FaultPlan::new().stall_on_row(0, Duration::from_millis(300)))
            .observe()
            .build();
        let obs = pipeline.observer();
        let handle = pipeline.submit_pair(&Arc::new(a), &Arc::new(b)).unwrap();
        let err = handle
            .collect_next(Some(std::time::Instant::now() + Duration::from_millis(40)))
            .unwrap_err();
        assert!(matches!(err, SystolicError::DeadlineExceeded { .. }));
        // The stalled row eventually lands; the pipeline goes quiescent.
        let outcome = handle
            .collect_next(None)
            .unwrap()
            .expect("row still in flight");
        assert!(outcome.result.is_ok());

        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        let counters = pipeline.counters();
        assert_eq!(counters.timeouts, 1);
        assert_eq!(s.timeouts, counters.timeouts);
        let events = obs.trace_snapshot();
        let timeouts: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Timeout { in_flight } => Some(in_flight),
                _ => None,
            })
            .collect();
        assert_eq!(timeouts, vec![1], "one timeout with one row in flight");
    }

    #[test]
    fn abandoned_batch_surfaces_in_rows_abandoned_and_ledger_recloses() {
        quiet_injected_panics();
        let (a, b) = image_pair(512, 6, 0xABA0);
        let stall = Duration::from_millis(400);
        let mut pipeline = DiffExecutorConfig::new(2)
            .row_deadline(Duration::from_millis(40))
            .fault_plan(FaultPlan::new().stall_on_row(0, stall))
            .build();
        let obs = pipeline.observer();
        let err = pipeline.diff_images(&a, &b).unwrap_err();
        assert!(matches!(
            err,
            rle_systolic::systolic_core::SystolicError::DeadlineExceeded { .. }
        ));
        assert_eq!(pipeline.in_flight(), 0, "abandon leaves the pool idle");
        let wedged = pipeline.abandoned();
        assert!(wedged >= 1, "{pipeline:?}");

        // The write-off is visible without a debugger: the counter covers
        // the wedged remainder plus any queued rows dropped before a
        // worker ever ran them, and the submit ledger closes immediately
        // (not only after the stall heals).
        let s = obs.metrics_snapshot();
        assert!(s.rows_abandoned >= wedged as u64, "{s:?}");
        assert_eq!(
            s.rows_submitted,
            s.rows_completed + s.rows_errored + s.rows_abandoned
        );
        assert!(s
            .to_prometheus()
            .contains("diffpipeline_rows_abandoned_total"));
        assert!(s.to_json().contains("\"rows_abandoned\""));

        // Wait out the stall; the stale delivery is discarded at the
        // watermark and the abandoned level drains back to zero while the
        // counter stays monotonic.
        let healed_by = std::time::Instant::now() + stall * 10;
        while pipeline.abandoned() > 0 && std::time::Instant::now() < healed_by {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(pipeline.abandoned(), 0, "healed pool drains the level");
        let healed = obs.metrics_snapshot();
        assert_eq!(healed.rows_abandoned, s.rows_abandoned);
        assert_ledger_closed(&healed);

        // And the pool still works: a clean batch reconciles on top.
        let (got, _) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);
        assert_ledger_closed(&obs.metrics_snapshot());
    }

    #[test]
    fn combined_fault_storm_keeps_every_identity() {
        quiet_injected_panics();
        let (a, b) = image_pair(640, 24, 0x5702);
        let plan = FaultPlan::new()
            .panic_on_row(2)
            .die_on_row(9)
            .poison_on_row(14)
            .panic_on_row(21);
        let mut pipeline = DiffExecutorConfig::new(4)
            .kernel(Kernel::Systolic)
            .fault_plan(plan)
            .observe()
            .build();
        let obs = pipeline.observer();
        let (got, _) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);

        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        let counters = pipeline.counters();
        assert_eq!(s.retries, counters.retries);
        assert_eq!(s.respawns, counters.respawns);
        assert_eq!(s.rows_completed, 24);
        assert_eq!(
            s.rows_diffed,
            24 + s.rows_discarded,
            "all-or-nothing chunk retries close the diff ledger exactly"
        );
        let events = obs.trace_snapshot();
        assert_eq!(
            count(&events, |k| matches!(k, TraceKind::Retry { .. })),
            counters.retries
        );
        assert_eq!(
            count(&events, |k| matches!(k, TraceKind::Respawn { .. })),
            counters.respawns
        );
        // Only the systolic kernel ran.
        assert_eq!(s.rows_systolic_kernel, s.rows_diffed);
    }

    /// Faults on a prefiltered batch, whose tickets cover only the
    /// residual rows the signatures could not resolve (so the ticket → row
    /// map is sparse): a panic and a worker death on residual tickets
    /// recover bit-identically with the skips untouched, and a stalled
    /// residual row trips `row_deadline` without disturbing the next
    /// prefiltered batch.
    #[test]
    fn prefiltered_batch_survives_faults_on_residual_tickets() {
        quiet_injected_panics();
        let height = 100;
        let (a, changed) = image_pair(512, height, 0x5165);
        // Every fifth row changes: a residual too large to diff inline,
        // and a skip rate that keeps the adaptive prefilter active.
        let rows = (0..height)
            .map(|i| {
                if i % 5 == 0 {
                    changed.rows()[i].clone()
                } else {
                    a.rows()[i].clone()
                }
            })
            .collect();
        let b = RleImage::from_rows(a.width(), rows).unwrap();
        let residual = (0..height)
            .filter(|&i| a.rows()[i].signature() != b.rows()[i].signature())
            .count();
        assert!(residual > 16, "residual must dispatch: {residual}");
        assert!(residual * 4 <= height, "skip rate must stay above 0.75");
        let expected = xor_image(&a, &b).unwrap().0;
        let (a, b) = (Arc::new(a), Arc::new(b));

        // A fresh executor tickets only residual rows: the first batch
        // takes tickets 0..residual, the second residual..2 * residual.
        let stall = Duration::from_millis(1_000);
        let plan = FaultPlan::new()
            .panic_on_row(3)
            .die_on_row(12)
            .stall_on_row(residual as u64 + 7, stall);
        let mut executor = DiffExecutorConfig::new(2)
            .signature_prefilter()
            .row_deadline(Duration::from_millis(250))
            .fault_plan(plan)
            .build();
        let obs = executor.observer();

        let (got, stats) = executor.diff_images_shared(&a, &b).unwrap();
        assert_eq!(got, expected, "recovered residual rows are exact");
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Active);
        assert_eq!(stats.rows, height);
        assert_eq!(stats.rows_sig_skipped, height - residual, "{stats:?}");
        assert!(stats.chunks > 0, "the residual went to the workers");
        assert_eq!(stats.retries, 2, "one panic + one orphaned chunk");
        assert_eq!(stats.respawns, 1, "the dead worker was replaced");
        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        assert_eq!(s.rows_submitted, residual as u64);
        assert_eq!(s.rows_sig_skipped, (height - residual) as u64);

        let err = executor.diff_images_shared(&a, &b).unwrap_err();
        assert!(
            matches!(
                err,
                rle_systolic::systolic_core::SystolicError::DeadlineExceeded { .. }
            ),
            "{err:?}"
        );
        assert_eq!(executor.in_flight(), 0, "abandon leaves the pool idle");

        let (again, stats) = executor.diff_images_shared(&a, &b).unwrap();
        assert_eq!(again, expected, "the batch after the stall is exact");
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Active);
        assert_eq!(stats.rows_sig_skipped, height - residual);

        let healed_by = std::time::Instant::now() + stall * 10;
        while executor.abandoned() > 0 && std::time::Instant::now() < healed_by {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(executor.abandoned(), 0, "healed pool drains the level");
        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        assert_eq!(
            (s.jobs_submitted, s.jobs_completed, s.jobs_abandoned),
            (3, 2, 1)
        );
    }

    /// Two jobs on one shared executor, a panic planned inside the second
    /// job's ticket range: the retry lands on the faulted job's stats
    /// only, the shared registry agrees with the per-job sums, and the
    /// job ledger closes.
    #[test]
    fn job_ledger_attributes_faults_to_the_owning_job() {
        quiet_injected_panics();
        let executor = DiffExecutorConfig {
            threads: 2,
            // Job 1 takes tickets 0..8, job 2 takes 8..16; row 11 is
            // inside job 2.
            fault_plan: Some(FaultPlan::new().panic_on_row(11)),
            ..DiffExecutorConfig::default()
        }
        .build();
        let obs = executor.observer();

        let (a1, b1) = image_pair(512, 8, 0x0A11);
        let (a2, b2) = image_pair(512, 8, 0x0A22);
        let clean = executor
            .diff_pair(&Arc::new(a1.clone()), &Arc::new(b1.clone()), None)
            .unwrap();
        let faulted = executor
            .diff_pair(&Arc::new(a2.clone()), &Arc::new(b2.clone()), None)
            .unwrap();
        assert_eq!(clean.image, xor_image(&a1, &b1).unwrap().0);
        assert_eq!(faulted.image, xor_image(&a2, &b2).unwrap().0);
        assert_eq!(clean.tickets, (0, 8));
        assert_eq!(faulted.tickets, (8, 16));

        assert_eq!(clean.stats.retries, 0, "the clean job saw no fault");
        assert_eq!(faulted.stats.retries, 1, "the panic charged its owner");
        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        assert_eq!(s.retries, clean.stats.retries + faulted.stats.retries);
        assert_eq!(
            (s.jobs_submitted, s.jobs_completed, s.jobs_abandoned),
            (2, 2, 0)
        );
        // The crashed chunk's discarded rows belong to the ledger too.
        assert_eq!(s.rows_diffed, 16 + s.rows_discarded);
    }

    /// An abandoned job books `jobs_abandoned` exactly once, a neighbour
    /// job sharing the executor completes bit-identically meanwhile, and
    /// once the stalled worker heals the full ledger re-closes.
    #[test]
    fn abandoned_job_ledger_closes_and_neighbour_is_unaffected() {
        quiet_injected_panics();
        let stall = Duration::from_millis(400);
        let executor = DiffExecutorConfig {
            threads: 2,
            fault_plan: Some(FaultPlan::new().stall_on_row(0, stall)),
            ..DiffExecutorConfig::default()
        }
        .build();
        let obs = executor.observer();

        let (a1, b1) = image_pair(512, 6, 0xABA1);
        let err = executor
            .diff_pair(
                &Arc::new(a1.clone()),
                &Arc::new(b1.clone()),
                Some(Duration::from_millis(40)),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            rle_systolic::systolic_core::SystolicError::DeadlineExceeded { .. }
        ));

        // The neighbour rides the surviving worker while the first job's
        // stalled chunk is still wedged.
        let (a2, b2) = image_pair(512, 6, 0xABA2);
        let job = executor
            .diff_pair(&Arc::new(a2.clone()), &Arc::new(b2.clone()), None)
            .unwrap();
        assert_eq!(job.image, xor_image(&a2, &b2).unwrap().0);

        // Wait out the stall: the stale delivery is discarded on arrival
        // and the abandoned level drains back to zero.
        let healed_by = std::time::Instant::now() + stall * 10;
        while executor.abandoned() > 0 && std::time::Instant::now() < healed_by {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(executor.abandoned(), 0, "healed pool drains the level");
        assert_eq!(executor.in_flight(), 0);

        let s = obs.metrics_snapshot();
        assert_ledger_closed(&s);
        assert_eq!(
            (s.jobs_submitted, s.jobs_completed, s.jobs_abandoned),
            (2, 1, 1)
        );
        assert!(s.rows_abandoned >= 1, "{s:?}");
        assert!(s
            .to_prometheus()
            .contains("diffpipeline_jobs_abandoned_total 1"));
    }
}
