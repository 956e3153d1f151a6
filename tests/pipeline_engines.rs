//! Cross-engine equivalence at image granularity: the sequential streamer
//! ([`xor_image`]) and the persistent worker pool ([`DiffExecutor`]) —
//! through both its multi-submitter `diff_pair` and its batch
//! `diff_images` — must produce bit-identical images and consistent
//! statistics on random workloads.

mod common;

use common::rle_row;
use proptest::prelude::*;
use rle_systolic::rle::{RleImage, RleRow};
use rle_systolic::systolic_core::image::xor_image;
use rle_systolic::systolic_core::{DiffExecutor, DiffExecutorConfig, Kernel};
use std::sync::Arc;

const WIDTH: u32 = 512;

fn image_pair() -> impl Strategy<Value = (RleImage, RleImage)> {
    prop::collection::vec((rle_row(WIDTH, 12, true), rle_row(WIDTH, 12, true)), 0..=12).prop_map(
        |pairs| {
            let (rows_a, rows_b): (Vec<RleRow>, Vec<RleRow>) = pairs.into_iter().unzip();
            (
                RleImage::from_rows(WIDTH, rows_a).unwrap(),
                RleImage::from_rows(WIDTH, rows_b).unwrap(),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn three_engines_are_bit_identical((a, b) in image_pair(), threads in 1usize..5) {
        let (seq, seq_stats) = xor_image(&a, &b).unwrap();
        // The systolic-kernel pool runs the same cycle-accurate machine as
        // the reference engine, so its stats must agree exactly.
        let mut pool = DiffExecutorConfig::new(threads)
            .kernel(Kernel::Systolic)
            .build();
        let job = pool
            .diff_pair(&Arc::new(a.clone()), &Arc::new(b.clone()), None)
            .unwrap();
        let (par, par_stats) = (job.image, job.stats);
        let (pipe, pipe_stats) = pool.diff_images(&a, &b).unwrap();

        // Bit-identical output rows across all three engines.
        prop_assert_eq!(&par, &seq);
        prop_assert_eq!(&pipe, &seq);
        // And against the pure-RLE reference.
        prop_assert_eq!(&pipe, &a.xor(&b).unwrap());

        // Stats invariants: per-row counters aggregate identically no
        // matter which engine scheduled the rows.
        prop_assert_eq!(par_stats.totals, seq_stats.totals);
        prop_assert_eq!(pipe_stats.totals, seq_stats.totals);
        prop_assert_eq!(pipe_stats.max_row_iterations, seq_stats.max_row_iterations);
        prop_assert_eq!(pipe_stats.rows, a.height());
        prop_assert_eq!(pipe_stats.rows_systolic_kernel, a.height());
        prop_assert_eq!(pipe_stats.workers, threads);
        prop_assert!(pipe_stats.effective_workers <= threads);
        if a.height() > 0 {
            prop_assert!(pipe_stats.effective_workers >= 1);
        }
        // Theorem 1 holds in aggregate: total iterations never exceed the
        // summed per-row bounds.
        prop_assert!(pipe_stats.totals.within_theorem1());

        // Every kernel policy — hybrid, forced-RLE, forced-packed — is
        // bit-identical to the reference; only scheduling and per-row
        // algorithm differ.
        for kernel in [Kernel::Auto, Kernel::Rle, Kernel::Packed] {
            let mut pool = DiffExecutorConfig::new(threads).kernel(kernel).build();
            let (img, stats) = pool.diff_images(&a, &b).unwrap();
            prop_assert_eq!(&img, &seq, "kernel {:?}", kernel);
            prop_assert_eq!(stats.rows, a.height());
            // The adaptive policy only picks the packed kernel when it is
            // cheaper than the merge, so its host iteration totals stay
            // within the machine's Theorem-1 budget. (Forcing Packed on
            // sparse rows legitimately exceeds it.)
            if kernel != Kernel::Packed {
                prop_assert!(stats.totals.within_theorem1(), "kernel {:?}", kernel);
            }
        }
    }
}

#[test]
fn pipeline_is_reusable_and_stable_across_batches() {
    // One pool serving many images — the deployment shape the pipeline
    // exists for. Results must not depend on what the pool processed
    // before (register buffers are reloaded, not leaked).
    let mut pool = DiffExecutor::new(DiffExecutorConfig::new(3));
    let mut gen = rle_systolic::workload::RowGenerator::new(
        rle_systolic::workload::GenParams::for_density(WIDTH, 0.3),
        42,
    );
    let images: Vec<RleImage> = (0..4).map(|_| gen.next_image(16)).collect();
    for window in images.windows(2) {
        let (expected, _) = xor_image(&window[0], &window[1]).unwrap();
        let (first, _) = pool.diff_images(&window[0], &window[1]).unwrap();
        let (second, stats) = pool.diff_images(&window[0], &window[1]).unwrap();
        assert_eq!(first, expected);
        assert_eq!(second, expected, "repeat batch on a warm pool must agree");
        assert_eq!(stats.rows, 16);
    }
}
