//! Experiment E16: incremental differencing of frame sequences via the
//! signature prefilter, plus the delta archive's storage/replay costs.
//!
//! A frame sequence with bounded row churn is the workload the rolling
//! row signatures were built for: when only `c·height` rows change per
//! frame, diffing consecutive frames through the prefilter pipeline
//! (`DiffExecutorConfig::signature_prefilter`) short-circuits the other
//! `(1−c)·height` rows host-side — no chunk, no checkout, no kernel. This
//! bench sweeps churn from 1 % to 50 % and compares the prefilter
//! pipeline against the plain pipeline on the identical frame stream,
//! asserting bit-identical outputs. It then times the `RDA2` journal
//! (`archive::ArchiveFile` on in-memory storage, fsync on close)
//! append/extract over the same stream and reports its committed size
//! against encoding every frame in full.
//!
//! Results go to `BENCH_delta.json` at the workspace root. Hand-rolled
//! timing loop (not criterion): the comparison needs raw sample access
//! for the JSON report.
//!
//! Set `BENCH_SMOKE=1` for a seconds-scale smoke run (small frames, one
//! sample) — used by the CI archive-smoke job. The smoke run keeps the
//! speedup guard (prefilter must win at 10 % churn) when the host has
//! enough cores to show it, and leaves `BENCH_delta.json` untouched.

use rle::RleImage;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use systolic_core::DiffExecutorConfig;
use workload::{FrameSequence, GenParams, SequenceParams};

/// Full-run geometry: matches the E13 pipeline bench so the absolute
/// milliseconds are comparable across BENCH_pipeline.json and this file.
const WIDTH: u32 = 16_384;
const HEIGHT: usize = 1024;
const FRAMES: usize = 100;
const SAMPLES: usize = 3;
const CHURNS: [f64; 5] = [0.01, 0.05, 0.10, 0.25, 0.50];

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

fn build_frames(width: u32, height: usize, frames: usize, churn: f64) -> Vec<Arc<RleImage>> {
    let params = SequenceParams {
        gen: GenParams::with_runs(width, (2, 4), 0.3),
        height,
        churn,
    };
    FrameSequence::new(params, 0xE16)
        .take_frames(frames)
        .into_iter()
        .map(Arc::new)
        .collect()
}

/// Diffs every consecutive pair through one pool; returns total skipped
/// rows as a cheap checksum that the prefilter actually engaged.
fn diff_stream(pipeline: &mut systolic_core::DiffExecutor, frames: &[Arc<RleImage>]) -> usize {
    let mut skipped = 0;
    for pair in frames.windows(2) {
        let (_, stats) = pipeline
            .diff_images_shared(&pair[0], &pair[1])
            .expect("frame diff");
        skipped += stats.rows_sig_skipped;
    }
    skipped
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0");
    let (width, height, frames, samples, thread_counts): (u32, usize, usize, usize, &[usize]) =
        if smoke {
            (4_096, 128, 12, 1, &[2])
        } else {
            (WIDTH, HEIGHT, FRAMES, SAMPLES, &[1, 2, 4, 8])
        };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "frame_sequence{}: {width}x{height}, {frames} frames, churn sweep {CHURNS:?} ({cores} cores)",
        if smoke { " (smoke)" } else { "" },
    );

    let mut churn_json = String::new();
    for &churn in &CHURNS {
        let stream = build_frames(width, height, frames, churn);
        println!(
            "  churn {:.0}%: {} runs in frame 0",
            churn * 100.0,
            stream[0].total_runs()
        );

        // Bit-identity first: the prefilter must change nothing but the
        // cost. One pass, every consecutive pair, full comparison. The
        // adaptive bypass is pinned off (threshold 0.0) throughout this
        // bench: the sweep measures the *raw* prefilter cost across the
        // churn range — these numbers are what the default
        // `sig_prefilter_min_skip_rate` break-even was derived from, so
        // letting the bypass engage would measure the cure instead of
        // the disease.
        {
            let mut plain = DiffExecutorConfig::new(2).build();
            let mut filtered = DiffExecutorConfig::new(2)
                .signature_prefilter()
                .sig_prefilter_min_skip_rate(0.0)
                .build();
            for pair in stream.windows(2) {
                let (d1, _) = plain.diff_images_shared(&pair[0], &pair[1]).unwrap();
                let (d2, s2) = filtered.diff_images_shared(&pair[0], &pair[1]).unwrap();
                assert_eq!(d1, d2, "prefilter changed a diff at churn {churn}");
                assert!(
                    s2.rows_sig_skipped > 0 || churn >= 1.0,
                    "prefilter never engaged at churn {churn}"
                );
            }
        }

        let mut thread_json = String::new();
        let speedup_at = |threads: usize| -> (f64, f64, f64, usize) {
            let mut plain = DiffExecutorConfig::new(threads).build();
            let (full_best, _) = time(samples, || diff_stream(&mut plain, &stream));
            let mut filtered = DiffExecutorConfig::new(threads)
                .signature_prefilter()
                .sig_prefilter_min_skip_rate(0.0)
                .build();
            let (inc_best, _) = time(samples, || diff_stream(&mut filtered, &stream));
            let mut verified = DiffExecutorConfig::new(threads)
                .signature_prefilter()
                .sig_prefilter_min_skip_rate(0.0)
                .verify_signatures()
                .build();
            let (ver_best, _) = time(samples, || diff_stream(&mut verified, &stream));
            let skipped = diff_stream(&mut filtered, &stream);
            (
                full_best.as_secs_f64() * 1e3,
                inc_best.as_secs_f64() * 1e3,
                ver_best.as_secs_f64() * 1e3,
                skipped,
            )
        };
        for &threads in thread_counts {
            let (full_ms, inc_ms, ver_ms, skipped) = speedup_at(threads);
            let speedup = full_ms / inc_ms.max(1e-9);
            println!(
                "    threads={threads}: full {full_ms:.1} ms, incremental {inc_ms:.1} ms \
                 ({speedup:.2}x, paranoid {ver_ms:.1} ms, {skipped} rows skipped)"
            );
            let _ = write!(
                thread_json,
                "{}      {{\"threads\": {threads}, \"full_best_ms\": {full_ms:.3}, \
                 \"incremental_best_ms\": {inc_ms:.3}, \"paranoid_best_ms\": {ver_ms:.3}, \
                 \"speedup\": {speedup:.3}, \"rows_sig_skipped\": {skipped}}}",
                if thread_json.is_empty() { "" } else { ",\n" },
            );
            // The acceptance guard: at <= 10% churn on a host that can
            // demonstrate it, skipping ~90% of the rows must actually pay.
            if smoke && (churn - 0.10).abs() < 1e-9 && threads >= 2 && cores >= 4 {
                assert!(
                    speedup > 1.0,
                    "prefilter lost at 10% churn: full {full_ms:.1} ms vs \
                     incremental {inc_ms:.1} ms"
                );
            }
        }

        // Archive costs over the same stream: append every frame, then
        // extract every frame and verify bit-identity against the source.
        let opts = archive::ArchiveOptions {
            keyframe_interval: archive::DEFAULT_KEYFRAME_INTERVAL,
            fsync: archive::FsyncPolicy::OnClose,
        };
        let mut store =
            archive::ArchiveFile::create_on(archive::MemStorage::new(), opts).expect("create");
        let append_started = Instant::now();
        for f in &stream {
            store.append(f).expect("append");
        }
        let append_ms = append_started.elapsed().as_secs_f64() * 1e3;
        let extract_started = Instant::now();
        for (i, f) in stream.iter().enumerate() {
            let got = store.extract(i).expect("extract");
            assert_eq!(&got, f.as_ref(), "archive replay must be bit-identical");
        }
        let extract_ms = extract_started.elapsed().as_secs_f64() * 1e3;
        let bytes = store.stat().journal_bytes as usize;
        let full_bytes: usize = stream
            .iter()
            .map(|f| rle::serialize::encode_image(f).len())
            .sum();
        let ratio = full_bytes as f64 / bytes.max(1) as f64;
        println!(
            "    archive: append {append_ms:.1} ms, extract-all {extract_ms:.1} ms, \
             {bytes} bytes vs {full_bytes} full ({ratio:.2}x smaller)"
        );

        let _ = write!(
            churn_json,
            "{}    {{\"churn\": {churn}, \"threads\": [\n{thread_json}\n    ], \
             \"archive\": {{\"append_ms\": {append_ms:.3}, \"extract_all_ms\": {extract_ms:.3}, \
             \"bytes\": {bytes}, \"full_bytes\": {full_bytes}, \
             \"compression_vs_full\": {ratio:.3}}}}}",
            if churn_json.is_empty() { "" } else { ",\n" },
        );
    }

    if smoke {
        println!("smoke run: guards passed; BENCH_delta.json left untouched");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"frame_sequence\",\n  \"image\": {{\"width\": {width}, \
         \"height\": {height}}},\n  \"frames\": {frames},\n  \"samples\": {samples},\n  \
         \"keyframe_interval\": {},\n  \"churn_sweep\": [\n{churn_json}\n  ]\n}}\n",
        archive::DEFAULT_KEYFRAME_INTERVAL,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_delta.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
