//! Experiment E13: image throughput of the persistent worker-pool pipeline
//! vs. per-row `run_parallel` spawning, across thread counts and kernel
//! policies.
//!
//! The baseline diffs a tall image by calling the barrier-synchronised
//! parallel engine once per row — paying thread-spawn and three barriers
//! per iteration for every single row, exactly the pattern the pipeline
//! was built to eliminate. The pipeline spawns its workers once, schedules
//! cost-weighted row chunks through the shared `Arc` zero-copy path, and
//! diffs each row with the adaptive hybrid kernel.
//!
//! Two workloads: the standard E13 image (2–4 px runs at 30 % density —
//! run-dense enough that the adaptive policy picks the packed kernel) and
//! a denser variant (1–2 px runs at 45 %) that stresses the packed path
//! harder. Forced-kernel rows at the widest thread count quantify what the
//! adaptive choice is worth.
//!
//! Results are written to `BENCH_pipeline.json` at the workspace root so
//! CI history can track the speedup; the JSON embeds the pipeline numbers
//! committed by the pre-kernel revision for regression comparison.
//! Hand-rolled timing loop (not criterion): the comparison needs raw
//! sample access for the JSON report.
//!
//! Set `BENCH_SMOKE=1` for a seconds-scale smoke run (small image, one
//! sample, no JSON rewrite) — used by the CI bench-smoke job.

use rle::RleImage;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use systolic_core::engine::parallel::systolic_xor_parallel;
use systolic_core::{DiffExecutorConfig, Kernel};
use workload::{errors, ErrorModel, GenParams, RowGenerator};

/// Rows in the benchmark image; the acceptance floor is 1024.
const HEIGHT: usize = 1024;
/// Row width; with 2–4 px runs at 30 % density this yields ~1600 runs per
/// side per row, enough cells for `run_parallel` to engage multiple
/// workers (and well past the packed-kernel crossover of 512).
const WIDTH: u32 = 16_384;
const SAMPLES: usize = 3;

/// `pipeline_best_ms` committed by the pre-kernel revision (PR 1) on this
/// exact workload, per thread count — the regression baseline the JSON
/// report compares against.
const PR1_PIPELINE_BEST_MS: [(usize, f64); 2] = [(4, 172.687), (8, 183.182)];

fn build_pair(height: usize) -> (RleImage, RleImage) {
    let params = GenParams::with_runs(WIDTH, (2, 4), 0.3);
    let a = RowGenerator::new(params, 0xE13).next_image(height);
    let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.01), 0xE13 + 1);
    (a, b)
}

fn build_dense_pair(height: usize) -> (RleImage, RleImage) {
    let params = GenParams::with_runs(WIDTH, (1, 2), 0.45);
    let a = RowGenerator::new(params, 0xDE45).next_image(height);
    let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.01), 0xDE45 + 1);
    (a, b)
}

/// Wall-clock of `f`, best (min) and mean over `samples` runs after one
/// warm-up run.
fn time<R>(samples: usize, mut f: impl FnMut() -> R) -> (Duration, Duration) {
    let _ = f(); // warm-up
    let mut total = Duration::ZERO;
    let mut best = Duration::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        let _ = std::hint::black_box(f());
        let took = start.elapsed();
        total += took;
        best = best.min(took);
    }
    (best, total / samples as u32)
}

fn per_row_spawning(a: &RleImage, b: &RleImage, threads: usize) -> u64 {
    let mut iterations = 0;
    for (ra, rb) in a.rows().iter().zip(b.rows()) {
        let (_, stats) = systolic_xor_parallel(ra, rb, threads).expect("row diff");
        iterations += stats.iterations;
    }
    iterations
}

/// Times one zero-copy batch through a fresh pool with the given kernel.
fn time_pipeline(
    a: &Arc<RleImage>,
    b: &Arc<RleImage>,
    threads: usize,
    kernel: Kernel,
    samples: usize,
) -> (Duration, Duration) {
    let mut pipeline = DiffExecutorConfig::new(threads).kernel(kernel).build();
    time(samples, || {
        let (diff, stats) = pipeline.diff_images_shared(a, b).expect("image diff");
        (diff.total_runs(), stats.totals.iterations)
    })
}

/// Trace-ring overhead: the same zero-copy batch through a pool without and
/// with the trace ring attached, best-of-`samples` each. Both pools carry
/// the always-on metrics registry, so this measures the ring alone.
/// Returns the relative overhead in percent plus the absolute overhead in
/// ns per row. Under `BENCH_SMOKE=1` this is a hard CI guard: the budget
/// is < 5 % — but the vectorized kernel shrank the smoke batch to
/// sub-millisecond wall-clock, where a min-of-N *relative* comparison
/// flakes on scheduler noise, so the guard also accepts any run whose
/// absolute cost stays under 2 µs/row (far below what 5 % meant on the
/// pre-SIMD pipeline).
fn trace_ring_overhead(
    a: &Arc<RleImage>,
    b: &Arc<RleImage>,
    threads: usize,
    samples: usize,
) -> (f64, f64) {
    let mut plain = DiffExecutorConfig::new(threads).build();
    let (plain_best, _) = time(samples, || {
        plain.diff_images_shared(a, b).expect("image diff").1.rows
    });
    let mut traced = DiffExecutorConfig::new(threads).observe().build();
    let (traced_best, _) = time(samples, || {
        traced.diff_images_shared(a, b).expect("image diff").1.rows
    });
    let percent = (traced_best.as_secs_f64() / plain_best.as_secs_f64() - 1.0) * 100.0;
    let per_row_ns =
        traced_best.saturating_sub(plain_best).as_nanos() as f64 / a.rows().len() as f64;
    (percent, per_row_ns)
}

/// Smoke-mode thread-scaling guard: on a host with enough cores to show
/// it, the sharded pipeline must actually scale — the dense workload at
/// 8 threads has to beat the same workload at 1 thread. Single-core and
/// dual-core runners cannot demonstrate scaling (workers just time-slice
/// one package), so the guard skips honestly there instead of flaking.
fn scaling_guard(da: &Arc<RleImage>, db: &Arc<RleImage>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        println!(
            "  scaling guard skipped: {cores} core(s) available, need >= 4 \
             to demonstrate thread scaling"
        );
        return;
    }
    // Best-of-3 per point stabilises the comparison on noisy CI runners.
    let (one_best, _) = time_pipeline(da, db, 1, Kernel::Auto, 3);
    let (eight_best, _) = time_pipeline(da, db, 8, Kernel::Auto, 3);
    println!(
        "  scaling guard ({cores} cores): dense 1t {:.1} ms vs 8t {:.1} ms",
        one_best.as_secs_f64() * 1e3,
        eight_best.as_secs_f64() * 1e3,
    );
    assert!(
        eight_best < one_best,
        "8-thread dense pipeline ({:.1} ms) must beat 1 thread ({:.1} ms) \
         on a {cores}-core host — the thread-scaling wall is back",
        eight_best.as_secs_f64() * 1e3,
        one_best.as_secs_f64() * 1e3,
    );
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0");
    let (height, samples, thread_counts): (usize, usize, &[usize]) = if smoke {
        (128, 1, &[2])
    } else {
        (HEIGHT, SAMPLES, &[1, 2, 4, 8])
    };

    let (a, b) = build_pair(height);
    let a = Arc::new(a);
    let b = Arc::new(b);
    println!(
        "pipeline_throughput{}: {}x{} image, {} runs total per side",
        if smoke { " (smoke)" } else { "" },
        WIDTH,
        height,
        a.total_runs()
    );

    let mut json_rows = String::new();
    for &threads in thread_counts {
        let (base_best, base_mean) = if smoke {
            // The smoke job only needs the pipeline exercised end-to-end;
            // the spawning baseline is minutes-scale and skipped.
            (Duration::ZERO, Duration::ZERO)
        } else {
            time(samples, || per_row_spawning(&a, &b, threads))
        };

        let (pipe_best, pipe_mean) = time_pipeline(&a, &b, threads, Kernel::Auto, samples);

        // Same pool with the supervision knobs exercised (a generous batch
        // deadline forces the deadline-arithmetic path on every collect):
        // quantifies what fault tolerance costs on the happy path.
        let mut supervised = DiffExecutorConfig::new(threads)
            .row_deadline(Duration::from_secs(60))
            .build();
        let (sup_best, sup_mean) = time(samples, || {
            let (diff, stats) = supervised.diff_images_shared(&a, &b).expect("image diff");
            (diff.total_runs(), stats.totals.iterations)
        });
        drop(supervised);

        let speedup = if pipe_best.is_zero() {
            0.0
        } else {
            base_best.as_secs_f64() / pipe_best.as_secs_f64()
        };
        let beats = smoke || pipe_best < base_best;
        println!(
            "  threads={threads}: per-row spawning {:.1} ms, pipeline {:.1} ms  ({speedup:.2}x, {})",
            base_best.as_secs_f64() * 1e3,
            pipe_best.as_secs_f64() * 1e3,
            if beats { "pipeline wins" } else { "pipeline LOSES" },
        );
        println!(
            "    with deadline supervision: {:.1} ms  ({:+.1}% vs plain pipeline)",
            sup_best.as_secs_f64() * 1e3,
            (sup_best.as_secs_f64() / pipe_best.as_secs_f64() - 1.0) * 100.0,
        );
        if let Some((_, pr1_ms)) = PR1_PIPELINE_BEST_MS.iter().find(|(t, _)| *t == threads) {
            println!(
                "    vs pre-kernel pipeline ({pr1_ms:.1} ms): {:.2}x",
                pr1_ms / (pipe_best.as_secs_f64() * 1e3),
            );
        }

        let pr1 = PR1_PIPELINE_BEST_MS
            .iter()
            .find(|(t, _)| *t == threads)
            .map(|(_, ms)| *ms);
        let _ = write!(
            json_rows,
            "{}    {{\"threads\": {threads}, \
             \"per_row_spawn_best_ms\": {:.3}, \"per_row_spawn_mean_ms\": {:.3}, \
             \"pipeline_best_ms\": {:.3}, \"pipeline_mean_ms\": {:.3}, \
             \"supervised_best_ms\": {:.3}, \"supervised_mean_ms\": {:.3}, \
             \"speedup\": {speedup:.3}, \"pipeline_beats_per_row_spawning\": {beats}{}}}",
            if json_rows.is_empty() { "" } else { ",\n" },
            base_best.as_secs_f64() * 1e3,
            base_mean.as_secs_f64() * 1e3,
            pipe_best.as_secs_f64() * 1e3,
            pipe_mean.as_secs_f64() * 1e3,
            sup_best.as_secs_f64() * 1e3,
            sup_mean.as_secs_f64() * 1e3,
            pr1.map_or(String::new(), |ms| format!(
                ", \"pr1_pipeline_best_ms\": {ms:.3}, \"speedup_vs_pr1\": {:.3}",
                ms / (pipe_best.as_secs_f64() * 1e3)
            )),
        );
    }

    // Forced-kernel comparison at the widest thread count: what the
    // adaptive policy is worth against always-merge and always-packed.
    let kernel_threads = *thread_counts.last().expect("non-empty");
    let mut kernel_json = String::new();
    println!("  kernels at threads={kernel_threads}:");
    for kernel in [Kernel::Auto, Kernel::Rle, Kernel::Packed] {
        let (best, mean) = time_pipeline(&a, &b, kernel_threads, kernel, samples);
        println!(
            "    {kernel:?}: best {:.1} ms, mean {:.1} ms",
            best.as_secs_f64() * 1e3,
            mean.as_secs_f64() * 1e3
        );
        let _ = write!(
            kernel_json,
            "{}    {{\"kernel\": \"{kernel:?}\", \"best_ms\": {:.3}, \"mean_ms\": {:.3}}}",
            if kernel_json.is_empty() { "" } else { ",\n" },
            best.as_secs_f64() * 1e3,
            mean.as_secs_f64() * 1e3,
        );
    }

    // Dense-image variant (shorter, denser runs — deep packed territory).
    let (da, db) = build_dense_pair(height);
    let da = Arc::new(da);
    let db = Arc::new(db);
    let mut dense_json = String::new();
    println!("  dense variant: {} runs total per side", da.total_runs());
    for &threads in thread_counts {
        let (best, mean) = time_pipeline(&da, &db, threads, Kernel::Auto, samples);
        println!(
            "    threads={threads}: pipeline {:.1} ms",
            best.as_secs_f64() * 1e3
        );
        let _ = write!(
            dense_json,
            "{}    {{\"threads\": {threads}, \"pipeline_best_ms\": {:.3}, \
             \"pipeline_mean_ms\": {:.3}}}",
            if dense_json.is_empty() { "" } else { ",\n" },
            best.as_secs_f64() * 1e3,
            mean.as_secs_f64() * 1e3,
        );
    }

    // Tracing budget: the trace ring must stay cheap enough to leave on
    // in production pools (diffd runs with it). Best-of-9 stabilises the
    // min-timing comparison even on the one-sample smoke configuration.
    let guard_threads = *thread_counts.last().expect("non-empty");
    let (overhead, per_row_ns) = trace_ring_overhead(&a, &b, guard_threads, samples.max(9));
    println!(
        "  trace-ring overhead at threads={guard_threads}: {overhead:+.2}% / \
         {per_row_ns:.0} ns per row (budget < 5% or < 2 us/row)"
    );
    if smoke {
        assert!(
            overhead < 5.0 || per_row_ns < 2_000.0,
            "trace-ring overhead {overhead:+.2}% ({per_row_ns:.0} ns/row) \
             blew both the < 5% and the < 2 us/row budget"
        );
        scaling_guard(&da, &db);
        println!("smoke run: guards passed; BENCH_pipeline.json left untouched");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"pipeline_throughput\",\n  \"image\": {{\"width\": {WIDTH}, \
         \"height\": {HEIGHT}, \"runs_per_side\": {}}},\n  \"samples\": {SAMPLES},\n  \
         \"results\": [\n{json_rows}\n  ],\n  \
         \"kernels\": {{\"threads\": {kernel_threads}, \"results\": [\n{kernel_json}\n  ]}},\n  \
         \"dense_image\": {{\"width\": {WIDTH}, \"height\": {HEIGHT}, \"runs_per_side\": {}, \
         \"results\": [\n{dense_json}\n  ]}}\n}}\n",
        a.total_runs(),
        da.total_runs(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
