//! Kernel-equivalence suite: the adaptive hybrid kernel and both forced
//! kernels must be bit-identical to the canonical RLE XOR
//! ([`rle::ops::xor`]) on every input — across the full density sweep
//! (empty → sparse → the calibrated crossover → dense → full), at odd and
//! word-unaligned widths, on the valid-but-non-canonical rows the paper
//! admits as input, and on the cases where the packed kernel's run edges
//! matter: rows that share nothing, runs ending at the row end, touching
//! runs, and run lists that must resynchronise after an error site.

mod common;

use common::row_pair;
use proptest::prelude::*;
use rle_systolic::rle;
use rle_systolic::rle::{RleRow, Run};
use rle_systolic::systolic_core::engine::kernel::{diff_row, KernelScratch, PACKED_RUNS_PER_WORD};
use rle_systolic::systolic_core::{Kernel, KernelChoice, SimdLevel};
use rle_systolic::workload::{errors, ErrorModel, GenParams, RowGenerator};

/// Runs one row pair through every kernel policy and checks each against
/// the canonical reference. Returns the choice the adaptive policy made.
fn assert_kernels_agree(a: &RleRow, b: &RleRow) -> KernelChoice {
    let expected = rle::ops::xor(a, b);
    let mut scratch = KernelScratch::new();
    let mut auto_choice = KernelChoice::FastPath;
    for kernel in [Kernel::Auto, Kernel::Rle, Kernel::Packed, Kernel::Systolic] {
        let (got, stats, choice) = diff_row(kernel, &mut scratch, a, b)
            .unwrap_or_else(|e| panic!("{kernel:?} failed: {e}"));
        assert_eq!(
            got, expected,
            "{kernel:?} (chose {choice:?}) disagrees with rle::ops::xor on\n  a={a:?}\n  b={b:?}"
        );
        assert_eq!(stats.k1, a.run_count());
        assert_eq!(stats.k2, b.run_count());
        // The systolic machine reports the raw (uncoalesced) extraction
        // size; the host kernels report the canonical count.
        assert!(stats.output_runs >= got.run_count());
        if kernel == Kernel::Auto {
            auto_choice = choice;
        }
    }
    auto_choice
}

/// [`assert_kernels_agree`], plus the two policies that run the packed
/// kernel at every SIMD level (a level above the host's clamps down).
/// `case` names the pair in a failure message instead of its runs.
/// Returns the choice the adaptive policy made.
fn assert_kernels_agree_at_every_level(case: &str, a: &RleRow, b: &RleRow) -> KernelChoice {
    let choice = assert_kernels_agree(a, b);
    let expected = rle::ops::xor(a, b);
    for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
        let mut scratch = KernelScratch::with_simd(level);
        for kernel in [Kernel::Auto, Kernel::Packed] {
            let (got, _, _) = diff_row(kernel, &mut scratch, a, b)
                .unwrap_or_else(|e| panic!("{case}: {kernel:?} at {level} failed: {e}"));
            assert!(
                got == expected,
                "{case}: {kernel:?} at {level} disagrees with rle::ops::xor"
            );
        }
    }
    choice
}

/// A row of the given width with `runs` unit runs spread evenly, shifted
/// by `offset` pixels — deterministic density control for the crossover
/// sweep (distinct offsets keep the pair from hitting the equal-rows fast
/// path).
fn evenly_spread(width: u32, runs: usize, offset: u32) -> RleRow {
    let mut row = RleRow::new(width);
    if runs == 0 {
        return row;
    }
    let stride = (width as usize / runs).max(2);
    for i in 0..runs {
        let start = (i * stride) as u32 + offset;
        if start >= width {
            break;
        }
        row.push_run(Run::new(start, 1)).unwrap();
    }
    row
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn xor_kernels_agree_on_random_rows(
        // The shimmed proptest has no flat_map, so vary the width by
        // cropping a max-width pair down to the sampled width.
        (a, b) in ((0usize..7), row_pair(1000, 16)).prop_map(|(i, (a, b))| {
            const WIDTHS: [u32; 7] = [64, 65, 127, 128, 300, 511, 1000];
            (a.crop(0, WIDTHS[i]), b.crop(0, WIDTHS[i]))
        }),
    ) {
        assert_kernels_agree(&a, &b);
    }
}

#[test]
fn xor_kernels_agree_across_the_density_sweep() {
    // 0.02 ≈ near-empty, 0.5 = balanced, 0.95 ≈ near-full (truly empty
    // rows are covered by the degenerate test); widths include
    // word-aligned and ragged tails.
    for width in [64u32, 65, 127, 512, 1000] {
        for density in [0.02, 0.1, 0.3, 0.5, 0.8, 0.95] {
            let params = GenParams::for_density(width, density);
            let a = RowGenerator::new(params, 0xD00D + width as u64).next_row();
            let b = errors::apply_errors(&a, &ErrorModel::fraction(0.1), 0xBEEF);
            assert_kernels_agree(&a, &b);
        }
    }
}

#[test]
fn xor_kernels_agree_around_the_calibrated_threshold() {
    // The adaptive policy flips to the packed kernel when
    // `k1 + k2 > PACKED_RUNS_PER_WORD * words`; probe the boundary
    // run-count for ±2 on both word-aligned and ragged widths.
    for width in [256u32, 300, 1000] {
        let words = (width as usize).div_ceil(64);
        let crossover = PACKED_RUNS_PER_WORD * words;
        for total in crossover.saturating_sub(2)..=crossover + 2 {
            let a = evenly_spread(width, total / 2, 0);
            let b = evenly_spread(width, total - total / 2, 1);
            let choice = assert_kernels_agree(&a, &b);
            let runs = a.run_count() + b.run_count();
            if runs > crossover {
                assert_eq!(choice, KernelChoice::Packed, "width {width}, {runs} runs");
            } else if runs > 0 && a.runs() != b.runs() {
                assert_eq!(choice, KernelChoice::Rle, "width {width}, {runs} runs");
            }
        }
    }
}

#[test]
fn packed_kernel_is_bit_identical_at_every_simd_level() {
    // Force each level explicitly (the SYSTOLIC_SIMD env path is the same
    // resolve call, exercised by CI re-running this suite under each
    // value); a request above the host's capability clamps down, so every
    // scratch built here is executable.
    for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
        let mut scratch = KernelScratch::with_simd(level);
        assert!(
            scratch.simd() <= SimdLevel::detect(),
            "forced level must clamp to hardware: {} on {}",
            scratch.simd(),
            SimdLevel::detect()
        );
        for width in [64u32, 65, 127, 300, 512, 1000] {
            for density in [0.02, 0.1, 0.3, 0.5, 0.8, 0.95] {
                let params = GenParams::for_density(width, density);
                let a = RowGenerator::new(params, 0x51D + width as u64).next_row();
                let b = errors::apply_errors(&a, &ErrorModel::fraction(0.1), 0xFEED);
                let expected = rle::ops::xor(&a, &b);
                let (got, stats, _) = diff_row(Kernel::Packed, &mut scratch, &a, &b)
                    .unwrap_or_else(|e| panic!("{level} failed: {e}"));
                assert_eq!(
                    got, expected,
                    "SIMD {level} disagrees at width {width}, density {density}"
                );
                assert_eq!(stats.k1, a.run_count());
                assert_eq!(stats.k2, b.run_count());
            }
        }
    }
}

#[test]
fn xor_kernels_agree_on_degenerate_rows() {
    for width in [1u32, 2, 63, 64, 65] {
        let empty = RleRow::new(width);
        let full = RleRow::from_pairs(width, &[(0, width)]).unwrap();
        for (a, b) in [
            (empty.clone(), empty.clone()), // both empty → fast path
            (empty.clone(), full.clone()),  // one side empty → copy
            (full.clone(), empty.clone()),
            (full.clone(), full.clone()), // equal → annihilates
        ] {
            let choice = assert_kernels_agree(&a, &b);
            assert_eq!(choice, KernelChoice::FastPath, "width {width}");
        }
    }
}

#[test]
fn xor_kernels_agree_on_non_canonical_input() {
    // Adjacent runs are valid input; every kernel must canonicalize its
    // output regardless.
    let a = RleRow::from_runs(16, vec![Run::new(0, 3), Run::new(3, 2), Run::new(8, 1)]).unwrap();
    let b = RleRow::from_runs(16, vec![Run::new(2, 4), Run::new(6, 2), Run::new(10, 6)]).unwrap();
    assert_kernels_agree(&a, &b);
    // One side empty with a non-canonical other side: the fast-path copy
    // must still coalesce.
    let empty = RleRow::new(16);
    assert_kernels_agree(&a, &empty);
    assert_kernels_agree(&empty, &b);
}

#[test]
fn xor_kernels_agree_on_unrelated_dense_rows() {
    // Two independent draws, as `FrameSequence` redraws a churned row:
    // run lengths 2–4 at 30 % density, so almost no run cancels and every
    // run of both rows reaches the edge scratch.
    for width in [8191u32, 8192, 8193, 16384] {
        let mut gen = RowGenerator::new(GenParams::with_runs(width, (2, 4), 0.3), 0xC0DE);
        let (a, b) = (gen.next_row(), gen.next_row());
        let choice = assert_kernels_agree_at_every_level(&format!("width {width}"), &a, &b);
        assert_eq!(choice, KernelChoice::Packed, "width {width}");
    }
}

#[test]
fn xor_kernels_agree_on_runs_ending_at_the_row_end() {
    // A run ending at the row end has its end edge at `width`: at a width
    // ≡ 0 (mod 64) that edge lands in the scratch's extra word. One side
    // ending there flips that edge once; both ending there flip it twice.
    for width in [63u32, 64, 65, 127, 128, 129, 4095, 4096, 4097] {
        // Unit runs every 8 px up to `width - 8`, then the final run.
        let row = |offset: u32, last: Run| {
            let body = evenly_spread(width - 8, (width as usize / 8).max(1), offset);
            let mut runs = body.into_runs();
            runs.push(last);
            RleRow::from_runs(width, runs).unwrap()
        };
        let a = row(0, Run::new(width - 3, 3));
        let b = row(1, Run::new(width - 5, 5));
        let short = row(2, Run::new(width - 7, 2));
        for (case, x, y) in [
            ("both end at the edge", &a, &b),
            ("one ends at the edge", &a, &short),
        ] {
            assert_kernels_agree_at_every_level(&format!("{case}, width {width}"), x, y);
            assert_kernels_agree_at_every_level(&format!("{case} (swapped), width {width}"), y, x);
        }
    }
}

#[test]
fn xor_kernels_agree_on_touching_runs() {
    // Across the two rows: [0, 5) against [5, 8) is one run [0, 8), the
    // shared edge 5 flipping once per row.
    for width in [8u32, 64, 65] {
        let a = RleRow::from_pairs(width, &[(0, 5)]).unwrap();
        let b = RleRow::from_pairs(width, &[(5, 3)]).unwrap();
        assert_kernels_agree_at_every_level(&format!("[0,5) ^ [5,8), width {width}"), &a, &b);
    }
    // Inside one row: every run of a dense row split into touching halves
    // (a valid, non-canonical row), so each split point is an edge that
    // one row flips twice, against an edited copy of the canonical row.
    for width in [1000u32, 8192] {
        let canonical =
            RowGenerator::new(GenParams::with_runs(width, (2, 4), 0.3), 0x7C).next_row();
        let split = canonical
            .runs()
            .iter()
            .flat_map(|r| match r.len() {
                1 => vec![*r],
                len => vec![
                    Run::new(r.start(), len / 2),
                    Run::new(r.start() + len / 2, len - len / 2),
                ],
            })
            .collect();
        let split = RleRow::from_runs(width, split).unwrap();
        assert!(!split.is_canonical());
        let edited = errors::apply_errors(&canonical, &ErrorModel::fraction(0.05), 0x5EED);
        let unrelated =
            RowGenerator::new(GenParams::with_runs(width, (2, 4), 0.3), 0x7D).next_row();
        for (case, other) in [
            ("canonical twin", &canonical),
            ("edited", &edited),
            ("unrelated", &unrelated),
        ] {
            assert_kernels_agree_at_every_level(
                &format!("split ^ {case}, width {width}"),
                &split,
                other,
            );
            assert_kernels_agree_at_every_level(
                &format!("{case} ^ split, width {width}"),
                other,
                &split,
            );
        }
    }
}

#[test]
fn xor_kernels_resynchronise_after_an_error_site() {
    // A long identical prefix, one run split in two by a cleared pixel,
    // then an identical tail: the lists fall out of step at the error and
    // must cancel again after it. The XOR is that one pixel.
    for width in [4096u32, 16384] {
        let a = RowGenerator::new(GenParams::with_runs(width, (2, 4), 0.3), 0xA11).next_row();
        let runs = a.runs();
        let at = (runs.len() / 2..runs.len())
            .find(|&i| runs[i].len() >= 3)
            .expect("a run of length ≥ 3 past the middle");
        let r = runs[at];
        let mut split = runs[..at].to_vec();
        split.extend([Run::new(r.start(), 1), Run::new(r.start() + 2, r.len() - 2)]);
        split.extend_from_slice(&runs[at + 1..]);
        let b = RleRow::from_runs(width, split).unwrap();
        assert_eq!(rle::ops::xor(&a, &b).runs(), [Run::new(r.start() + 1, 1)]);
        assert_kernels_agree_at_every_level(&format!("split run, width {width}"), &a, &b);
        assert_kernels_agree_at_every_level(&format!("split run (swapped), width {width}"), &b, &a);
    }
}
