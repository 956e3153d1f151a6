//! The signature layer's three safety contracts, end to end:
//!
//! 1. **Canonical-view hashing** — any valid encoding of the same pixel
//!    content (canonical or not) hashes identically, so the prefilter can
//!    compare rows that arrived through different code paths.
//! 2. **Skips never lie** — across a density sweep, every row the
//!    prefilter skips agrees with the reference `rle::ops::xor` (and the
//!    paranoid mode's sampled cross-checks confirm rather than catch);
//!    across a churn sweep, the prefiltered executor returns what the
//!    plain one does, skipping or bypassing as its adaptive rate says.
//! 3. **Collisions are survivable** — with a fault-injected signature
//!    collision, paranoid mode substitutes the reference diff and the
//!    batch output stays exact (fault-injection builds only).

mod common;

use common::rle_row;
use proptest::prelude::*;
use rle_systolic::rle::{ops, sig, RleImage, RleRow};
use rle_systolic::systolic_core::{DiffExecutorConfig, SigPrefilterMode};
use rle_systolic::workload::{FrameSequence, GenParams, SequenceParams};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Signatures are a function of pixel content, not encoding: a row and
    /// its canonical form hash equal, and re-encoding through dense bits
    /// changes nothing.
    #[test]
    fn non_canonical_encodings_hash_identically(row in rle_row(300, 24, true)) {
        let canonical = row.canonicalized();
        prop_assert_eq!(row.signature(), canonical.signature());
        let rebuilt = RleRow::from_bits(&row.to_bits());
        prop_assert_eq!(row.signature(), rebuilt.signature());
        prop_assert_ne!(row.signature(), 0, "0 is the cache sentinel");
    }

    /// Different content (at the same width) almost surely hashes
    /// different; equal signatures on a 192-case run of structured rows
    /// would mean the mixer is broken, not unlucky.
    #[test]
    fn content_changes_change_the_signature(row in rle_row(300, 24, true)) {
        let mut bits = row.to_bits();
        bits[0] = !bits[0];
        let flipped = RleRow::from_bits(&bits);
        prop_assert_ne!(row.signature(), flipped.signature());
    }
}

/// The density-sweep guard: from sparse to half-on images, with the
/// prefilter and paranoid verification enabled, every batch's output must
/// equal the reference XOR — no skip may disagree — and the ledger must
/// partition (`rows == skipped + collisions + kernel rows`).
#[test]
fn no_skip_disagrees_with_the_reference_across_densities() {
    for (i, density) in [0.01, 0.05, 0.10, 0.25, 0.50].iter().enumerate() {
        let params = SequenceParams {
            gen: GenParams::for_density(2_048, *density),
            height: 64,
            churn: 0.15,
        };
        let mut seq = FrameSequence::new(params, 0xD5 + i as u64);
        let frames: Vec<Arc<RleImage>> = seq.take_frames(4).into_iter().map(Arc::new).collect();
        let mut pipeline = DiffExecutorConfig::new(2)
            .signature_prefilter()
            .verify_signatures()
            .build();
        for pair in frames.windows(2) {
            let (got, stats) = pipeline
                .diff_images_shared(&pair[0], &pair[1])
                .expect("diff");
            for (y, (ra, rb)) in pair[0].rows().iter().zip(pair[1].rows()).enumerate() {
                assert_eq!(
                    got.rows()[y],
                    ops::xor(ra, rb),
                    "density {density}, row {y} disagrees with the reference"
                );
            }
            assert!(
                stats.rows_sig_skipped > 0,
                "density {density}: 85% unchanged rows must produce skips"
            );
            assert_eq!(
                stats.sig_collisions, 0,
                "real signatures do not collide here"
            );
            assert_eq!(
                stats.rows,
                stats.rows_sig_skipped
                    + stats.sig_collisions
                    + stats.rows_fast_path
                    + stats.rows_rle_kernel
                    + stats.rows_packed_kernel
                    + stats.rows_systolic_kernel,
                "density {density}: the row ledger must partition"
            );
            assert!(stats.sig_verified > 0, "paranoid sampling must engage");
        }
    }
}

/// The churn sweep: over 4096×128 frame streams at 1 %, 10 % and 50 %
/// churn, a prefiltered executor at the default bypass threshold returns
/// what a plain executor returns, and both equal `rle::ops::xor` row by
/// row. Every job skips exactly the unchanged rows while the skip rate
/// stays above the threshold; at 50 % churn the first job's rate drops
/// every later job into bypass, where it skips nothing.
#[test]
fn prefilter_matches_the_plain_executor_across_churn() {
    use SigPrefilterMode::{Active, Bypassed};
    for (churn, unchanged, later) in [
        (0.01, 126, Active),
        (0.10, 115, Active),
        (0.50, 64, Bypassed),
    ] {
        let params = SequenceParams {
            gen: GenParams::with_runs(4_096, (2, 4), 0.3),
            height: 128,
            churn,
        };
        let frames: Vec<Arc<RleImage>> = FrameSequence::new(params, 0xE16)
            .take_frames(12)
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut plain = DiffExecutorConfig::new(2).build();
        let mut prefiltered = DiffExecutorConfig::new(2).signature_prefilter().build();
        for (job, pair) in frames.windows(2).enumerate() {
            let (want, _) = plain
                .diff_images_shared(&pair[0], &pair[1])
                .expect("plain diff");
            let (got, stats) = prefiltered
                .diff_images_shared(&pair[0], &pair[1])
                .expect("prefiltered diff");
            assert_eq!(
                got, want,
                "churn {churn}, job {job}: the prefilter changed a diff"
            );
            for (y, (ra, rb)) in pair[0].rows().iter().zip(pair[1].rows()).enumerate() {
                assert_eq!(
                    got.rows()[y],
                    ops::xor(ra, rb),
                    "churn {churn}, job {job}, row {y} disagrees with the reference"
                );
            }
            let mode = if job == 0 { Active } else { later };
            let skipped = if mode == Active { unchanged } else { 0 };
            assert_eq!(
                (stats.sig_prefilter, stats.rows_sig_skipped),
                (mode, skipped),
                "churn {churn}, job {job}"
            );
        }
    }
}

/// Image-level signatures see content and geometry.
#[test]
fn image_signature_tracks_rows_and_dimensions() {
    let a = RleImage::from_rows(
        32,
        vec![
            RleRow::from_pairs(32, &[(0, 4)]).unwrap(),
            RleRow::from_pairs(32, &[(8, 2)]).unwrap(),
        ],
    )
    .unwrap();
    let mut b = a.clone();
    assert_eq!(sig::image_signature(&a), sig::image_signature(&b));
    assert_eq!(a.signature(), sig::image_signature(&a));
    b.set_row(1, RleRow::from_pairs(32, &[(9, 2)]).unwrap())
        .unwrap();
    assert_ne!(a.signature(), b.signature());
    let taller = RleImage::new(32, 3);
    let wider = RleImage::new(33, 3);
    assert_ne!(taller.signature(), wider.signature());
}

/// The false-skip drill: force a synthetic signature collision on an
/// adversarially similar row pair (same width, overlapping runs, one
/// pixel of true difference — the kind of pair a weak hash would actually
/// confuse) and prove (a) an unchecked prefilter emits a wrong row — the
/// hazard is real — and (b) paranoid mode's sampled cross-check catches
/// it, substitutes the reference diff, and accounts for it as
/// `sig_collisions`. The forced collision sits at skip ordinal 0 because
/// verification samples every `SIG_VERIFY_SAMPLE`-th skip starting there.
#[cfg(feature = "fault-injection")]
#[test]
fn injected_collision_is_caught_only_by_paranoid_mode() {
    let width = 1_024;
    let a = Arc::new(
        RleImage::from_rows(
            width,
            (0..8)
                .map(|y| RleRow::from_pairs(width, &[(y * 10, 5)]).unwrap())
                .collect(),
        )
        .unwrap(),
    );
    let mut rows = a.rows().to_vec();
    // Nearly identical to a's row 0 ((0,5)): shifted by one pixel.
    rows[0] = RleRow::from_pairs(width, &[(1, 5)]).unwrap();
    let b = Arc::new(RleImage::from_rows(width, rows).unwrap());
    let reference = {
        let rows = a
            .rows()
            .iter()
            .zip(b.rows())
            .map(|(ra, rb)| ops::xor(ra, rb))
            .collect();
        RleImage::from_rows(width, rows).unwrap()
    };

    // Unchecked: the forced collision on row 0 silently yields an empty
    // diff row — this is exactly the failure paranoid mode exists for.
    let mut unchecked = DiffExecutorConfig::new(1)
        .signature_prefilter()
        .fault_sig_collisions(vec![0])
        .build();
    let (wrong, _) = unchecked.diff_images_shared(&a, &b).unwrap();
    assert!(
        wrong.rows()[0].is_empty(),
        "the drill must produce a false skip"
    );
    assert_ne!(wrong, reference);

    // Paranoid: same forced collision, exact output, accounted collision.
    let mut paranoid = DiffExecutorConfig::new(1)
        .signature_prefilter()
        .verify_signatures()
        .fault_sig_collisions(vec![0])
        .build();
    let (got, stats) = paranoid.diff_images_shared(&a, &b).unwrap();
    assert_eq!(got, reference);
    assert_eq!(stats.sig_collisions, 1);
    assert_eq!(stats.rows_sig_skipped, 7);
}
