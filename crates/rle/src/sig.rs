//! Rolling 64-bit row signatures.
//!
//! The incremental-diff layer (ROADMAP item 3) needs a cheap way to decide
//! "these two rows are identical" without running a kernel: consecutive
//! frames in the repo's target workloads (PCB inspection, motion detection)
//! leave the overwhelming majority of rows untouched, and the systolic XOR
//! would still pay Θ(k1+k2) per row to discover that. A 64-bit signature per
//! row turns that into one integer compare.
//!
//! Two properties drive the design:
//!
//! * **Canonical-view hashing.** Rows compare equal by content, not by
//!   encoding: `[(3,4),(7,2)]` and `[(3,6)]` are the same bitstring (the
//!   paper permits adjacent runs), so they must hash equal. The fold
//!   therefore merges adjacent runs *on the fly* while hashing — no
//!   allocation, no mutation of the row — so a non-canonical encoding
//!   produces exactly the canonical encoding's signature.
//! * **Word-granularity mixing.** Byte-at-a-time FNV over a dense row's run
//!   list would cost as much as the packed XOR kernel it is meant to
//!   short-circuit. Instead each canonical run is packed into one `u64`
//!   (`start << 32 | len`) and folded with an xxhash/wyhash-style
//!   multiply–rotate–multiply step: two multiplies per run, independent of
//!   run length.
//!
//! Signatures are **never 0**: the finalizer remaps an (astronomically
//! unlikely) zero digest to a fixed non-zero constant, so 0 can serve as the
//! "not yet computed" sentinel in [`crate::RleRow`]'s lazy cache.
//!
//! Equal signatures do not *prove* equal rows — collisions exist at the
//! 2⁻⁶⁴ level. The executor's signature prefilter treats a match as "equal"
//! by default and offers a paranoid mode that cross-checks a sample of
//! skips against the real kernel; see `DiffExecutorConfig::verify_signatures`
//! in the core crate and the density-sweep guard in the root test suite.

use crate::image::RleImage;
use crate::run::{Pixel, Run};

/// Seed the fold starts from (FNV-1a's 64-bit offset basis — any fixed
/// odd constant works; this one is recognizable).
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Multiplier applied to each incoming word before it is xor-folded
/// (rapidhash/wyhash family constant).
const MUL_IN: u64 = 0xa24b_aed4_963e_e407;

/// Multiplier applied after the rotate (rapidhash/wyhash family constant).
const MUL_OUT: u64 = 0x9fb2_1c65_1e98_df25;

/// Replacement digest for the zero case, so signatures are never 0.
const NONZERO: u64 = SEED;

/// One fold step: absorb `word` into the accumulator.
#[inline]
const fn mix(acc: u64, word: u64) -> u64 {
    (acc ^ word.wrapping_mul(MUL_IN))
        .rotate_left(31)
        .wrapping_mul(MUL_OUT)
}

/// Murmur3-style avalanche so low-entropy tails still flip high bits, then
/// the never-zero fixup.
#[inline]
const fn finish(acc: u64) -> u64 {
    let mut h = acc;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    if h == 0 {
        NONZERO
    } else {
        h
    }
}

/// Signature of a run list interpreted as a row of width `width`.
///
/// `runs` must satisfy the [`crate::RleRow`] invariants (sorted,
/// non-overlapping; adjacency allowed). Adjacent runs are merged on the fly
/// while hashing, so any valid encoding of the same bitstring — canonical
/// or not — produces the same signature. The width participates in the
/// digest: the same runs at a different width hash differently, matching
/// `RleRow`'s equality.
#[must_use]
pub fn signature_of_runs(width: Pixel, runs: &[Run]) -> u64 {
    let mut acc = mix(SEED, u64::from(width));
    let mut iter = runs.iter();
    if let Some(first) = iter.next() {
        // Track the current maximal run as (start, end_exclusive) and only
        // fold it once no further run extends it.
        let mut start = first.start();
        let mut end = first.end_exclusive();
        for run in iter {
            if run.start() == end {
                // Adjacent: extend the pending canonical run. (Overlap is
                // ruled out by the row invariant.)
                end = run.end_exclusive();
            } else {
                acc = mix(acc, pack(start, end - start));
                start = run.start();
                end = run.end_exclusive();
            }
        }
        acc = mix(acc, pack(start, end - start));
    }
    finish(acc)
}

/// Packs one canonical run into the 64-bit word the fold absorbs.
#[inline]
const fn pack(start: Pixel, len: Pixel) -> u64 {
    ((start as u64) << 32) | len as u64
}

/// Whole-image signature: folds the dimensions and every row's (cached)
/// signature. Two images compare equal iff they have equal dimensions and
/// content, and equal images always produce equal image signatures.
#[must_use]
pub fn image_signature(image: &RleImage) -> u64 {
    let mut acc = mix(SEED, u64::from(image.width()));
    acc = mix(acc, image.height() as u64);
    for row in image.rows() {
        acc = mix(acc, row.signature());
    }
    finish(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RleRow;

    fn row(pairs: &[(Pixel, Pixel)]) -> RleRow {
        RleRow::from_pairs(64, pairs).unwrap()
    }

    #[test]
    fn canonical_and_non_canonical_encodings_hash_equal() {
        // (3,4)+(7,2) is the bitstring 3..8 — same as the single run (3,6).
        let split = row(&[(3, 4), (7, 2)]);
        let merged = row(&[(3, 6)]);
        assert!(!split.is_canonical());
        assert_eq!(split.signature(), merged.signature());

        // A chain of three adjacent fragments still folds to one run.
        let shredded = row(&[(3, 1), (4, 2), (6, 3)]);
        assert_eq!(shredded.signature(), row(&[(3, 6)]).signature());
    }

    #[test]
    fn gap_versus_adjacency_distinguished() {
        // (3,4)+(8,2) has a one-pixel gap — different content, different sig.
        assert_ne!(
            row(&[(3, 4), (7, 2)]).signature(),
            row(&[(3, 4), (8, 2)]).signature()
        );
    }

    #[test]
    fn width_participates() {
        let a = RleRow::from_pairs(64, &[(3, 4)]).unwrap();
        let b = RleRow::from_pairs(128, &[(3, 4)]).unwrap();
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn empty_rows_hash_by_width_only() {
        assert_eq!(RleRow::new(64).signature(), RleRow::new(64).signature());
        assert_ne!(RleRow::new(64).signature(), RleRow::new(65).signature());
    }

    #[test]
    fn signatures_are_never_zero() {
        // Can't force the 2^-64 zero digest, but every signature we can
        // produce must be nonzero (0 is the cache sentinel).
        for w in [0u32, 1, 64, 4096] {
            assert_ne!(RleRow::new(w).signature(), 0);
        }
        for pairs in [&[(0u32, 64u32)][..], &[(1, 1)], &[(0, 1), (63, 1)]] {
            assert_ne!(RleRow::from_pairs(64, pairs).unwrap().signature(), 0);
        }
    }

    #[test]
    fn nearby_rows_get_distinct_signatures() {
        // Adversarially similar rows: single-pixel shifts, length swaps,
        // and transpositions must all produce distinct signatures (this is
        // the collision drill's static half; the pipeline-level drill lives
        // in the root test suite).
        let rows = [
            row(&[(3, 4), (10, 2)]),
            row(&[(4, 4), (10, 2)]), // shifted start
            row(&[(3, 5), (10, 2)]), // longer first run
            row(&[(3, 4), (10, 3)]), // longer second run
            row(&[(3, 2), (10, 4)]), // lengths swapped
            row(&[(2, 4), (11, 2)]), // both moved
            row(&[(3, 4), (9, 2)]),
            row(&[(3, 4)]),
            row(&[(10, 2)]),
            RleRow::new(64),
        ];
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                if i != j {
                    assert_ne!(a.signature(), b.signature(), "rows {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn image_signature_tracks_content_and_dims() {
        let a = RleImage::from_ascii(".#.\n##.\n...");
        let b = RleImage::from_ascii(".#.\n##.\n...");
        let c = RleImage::from_ascii(".#.\n##.\n..#");
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature());
        assert_ne!(
            RleImage::new(4, 2).signature(),
            RleImage::new(2, 4).signature()
        );
        assert_ne!(a.signature(), 0);
    }
}
