//! Versioned delta archive for RLE binary image sequences.
//!
//! Consecutive frames in the workloads this repo targets (PCB inspection,
//! motion detection) differ in a handful of rows; storing every frame in
//! full re-pays the cost of everything that *didn't* change. This crate
//! persists a sequence as **keyframes plus per-row literal-or-XOR
//! deltas**, keyed by the 64-bit row signatures from [`rle::sig`], in one
//! store: the crash-safe, append-only `RDA2` journal [`ArchiveFile`]
//! (format, versions and recovery in [`journal`]).
//!
//! * **Append** compares the new frame's row signatures against the
//!   previous frame's (both cached on the rows, so the compare is O(1) per
//!   row) and stores only the rows whose signatures differ — append cost
//!   is proportional to what changed, the same leverage the executor's
//!   signature prefilter gets (see `DiffExecutorConfig::signature_prefilter`).
//!   Each changed row is stored as whichever has fewer runs: the row
//!   itself (a *literal*; ties go to it) or its XOR against the previous
//!   frame. The XOR of two unlike rows tends to k1 + k2 runs (the paper's
//!   Observation), so a redrawn row is stored as itself and a row with a
//!   few pixel errors as its XOR; the choice is counted before any XOR is
//!   built.
//! * **Extract** reconstructs any version by replaying its chain
//!   newest-first, from the frame back to the nearest keyframe: each row is
//!   built once, at its newest literal (a keyframe row counts as one), with
//!   the XOR rows newer than that literal XORed onto it, and is skipped
//!   without being built in every older record; the result is the forward
//!   replay's, run encoding included. Every record of the chain is still
//!   CRC-checked, and the reconstruction's row signatures are checked
//!   against the stored signature index — bit-rot anywhere in the replay
//!   chain surfaces as a typed [`ArchiveError::CrcMismatch`] or
//!   [`ArchiveError::SignatureMismatch`], not as a silently wrong image.
//! * **Re-keyframing** ([`ArchiveFile::compact_into`]) bounds replay cost:
//!   a full keyframe is stored every `keyframe_interval` frames, so no
//!   extraction replays more than `interval − 1` deltas.
//!
//! Append, extract, `fsck`'s deep verify and the legacy import share one
//! private delta codec, so every path computes and checks a delta the
//! same way; `fsck` and the legacy import, which must produce every frame
//! in order, replay forward through it.
//!
//! Each payload is a standard `RLI1` blob from [`rle::serialize`],
//! inheriting its hardening wholesale: varints are bounds-checked,
//! declared counts are capped by what the remaining input could plausibly
//! hold *before* any allocation, and malformed input of any kind produces
//! a typed error, never a panic. The archive's own header fields follow
//! the same plausibility-cap discipline.
//!
//! Like the signatures themselves, delta elision is probabilistic at the
//! 2⁻⁶⁴ level: two different rows whose signatures collide would be stored
//! as "unchanged". Callers that cannot tolerate that can diff the frames
//! exactly first (the pipeline's `verify_signatures` mode); the archive's
//! own integrity check catches every *storage or replay* corruption, which
//! is the failure mode archives actually see.
//!
//! # Legacy import format
//!
//! Archives written before the journal are whole-file `RDA1` blobs. This
//! crate reads them but never writes them: [`ArchiveFile::from_rda1`]
//! parses the whole blob, replays and checks every frame, and migrates it
//! into a journal with the blob's own keyframe cadence.
//!
//! ```text
//! archive := "RDA1" width:u32le height:varint interval:varint count:varint frame*
//! frame   := flags:u8 (bit0 = keyframe)
//!            changed:varint
//!            sig[height]:u64le          -- row signatures of the FRAME (not the delta)
//!            payload_len:varint
//!            payload:RLI1               -- full frame (keyframe) or XOR delta image
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rle::serialize::{self, get_varint, DecodeError};
use rle::{Pixel, RleError, RleImage, RleRow};

mod crc;
pub mod journal;
pub mod storage;

pub use journal::{
    journal_version, ArchiveFile, ArchiveOptions, FsckReport, FsyncPolicy, RecoveryReport,
    TornReason, JOURNAL_MAGIC, JOURNAL_VERSION,
};
#[cfg(feature = "fault-injection")]
pub use storage::{CrashMode, CrashPlan, FaultStorage};
pub use storage::{MemStorage, Storage};

/// Magic of the legacy whole-blob `RDA1` format (see the crate docs) —
/// exported so front ends can sniff a file's format and route it to
/// [`ArchiveFile::from_rda1`] or [`ArchiveFile::open_on`] accordingly.
pub const LEGACY_MAGIC: &[u8; 4] = b"RDA1";

/// Default re-keyframe cadence: a keyframe every 16 frames bounds any
/// extraction to at most 15 delta replays while keeping the storage
/// overhead of full frames under ~7% for low-churn sequences.
pub const DEFAULT_KEYFRAME_INTERVAL: usize = 16;

/// Errors arising from archive operations. Every malformed input path is
/// a typed error; nothing panics.
#[derive(Debug, PartialEq, Eq)]
pub enum ArchiveError {
    /// The input starts with neither the journal magic (`RDA2`) nor the
    /// legacy one (`RDA1`).
    BadMagic,
    /// The byte stream ended mid-value.
    Truncated,
    /// A declared count exceeds what the remaining input could possibly
    /// hold (the plausibility cap; checked before any allocation).
    ImplausibleCount {
        /// The count the header declared.
        declared: u64,
        /// The most the remaining input could plausibly hold.
        max_plausible: u64,
    },
    /// The keyframe interval was 0 (no keyframes could ever be written).
    ZeroInterval,
    /// An embedded `RLI1` payload failed to decode.
    Payload(DecodeError),
    /// A decoded payload violated RLE invariants when replayed.
    Rle(RleError),
    /// A frame's dimensions disagree with the archive's.
    DimensionMismatch {
        /// Width and height the archive holds.
        expected: (Pixel, usize),
        /// Width and height the frame supplied.
        got: (Pixel, usize),
    },
    /// The requested frame index does not exist.
    FrameOutOfRange {
        /// The requested index.
        index: usize,
        /// Frames in the archive.
        frames: usize,
    },
    /// A reconstructed row's signature disagrees with the stored signature
    /// index — the archive bytes or the replay chain are corrupt.
    SignatureMismatch {
        /// The frame whose reconstruction failed the check.
        frame: usize,
        /// The first row that disagreed.
        row: usize,
    },
    /// A payload decoded cleanly but described the wrong geometry (e.g. a
    /// delta image whose dimensions differ from the archive's).
    PayloadGeometry {
        /// The frame whose payload was malformed.
        frame: usize,
    },
    /// A journal record's CRC32 disagreed with its bytes — the committed
    /// region is corrupt (run `archive fsck`).
    CrcMismatch {
        /// The frame whose record failed its checksum.
        frame: usize,
        /// Byte offset of the record in the journal.
        offset: u64,
    },
    /// The journal header's CRC32 disagreed with its fields — not a torn
    /// create (those are recovered), but in-place header corruption.
    HeaderCorrupt,
    /// The journal declares a format version this build does not speak.
    UnsupportedVersion {
        /// The version byte found in the header.
        version: u8,
    },
    /// The journal's format version is one this build reads but no longer
    /// writes, so it takes no appends; [`ArchiveFile::compact_into`]
    /// rewrites it in the current version.
    ReadOnlyVersion {
        /// The version byte found in the header.
        version: u8,
    },
    /// The backing storage failed.
    Io {
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// The I/O error message.
        message: String,
    },
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::BadMagic => write!(
                f,
                "bad archive magic (want an RDA2 journal or a legacy RDA1 blob)"
            ),
            ArchiveError::Truncated => write!(f, "archive truncated"),
            ArchiveError::ImplausibleCount {
                declared,
                max_plausible,
            } => write!(
                f,
                "declared count {declared} exceeds what the input can hold (≤ {max_plausible})"
            ),
            ArchiveError::ZeroInterval => write!(f, "keyframe interval must be ≥ 1"),
            ArchiveError::Payload(e) => write!(f, "frame payload: {e}"),
            ArchiveError::Rle(e) => write!(f, "replayed rows invalid: {e}"),
            ArchiveError::DimensionMismatch { expected, got } => write!(
                f,
                "frame is {}x{}, archive is {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            ArchiveError::FrameOutOfRange { index, frames } => {
                write!(f, "frame {index} out of range (archive holds {frames})")
            }
            ArchiveError::SignatureMismatch { frame, row } => write!(
                f,
                "frame {frame}, row {row}: reconstruction disagrees with the signature index"
            ),
            ArchiveError::PayloadGeometry { frame } => {
                write!(
                    f,
                    "frame {frame}: payload geometry disagrees with the archive"
                )
            }
            ArchiveError::CrcMismatch { frame, offset } => write!(
                f,
                "frame {frame} (offset {offset}): record checksum mismatch — run fsck"
            ),
            ArchiveError::HeaderCorrupt => write!(f, "journal header corrupt (CRC mismatch)"),
            ArchiveError::UnsupportedVersion { version } => {
                write!(f, "journal format version {version} not supported")
            }
            ArchiveError::ReadOnlyVersion { version } => write!(
                f,
                "journal format version {version} is read-only; compact it into a new journal to append"
            ),
            ArchiveError::Io { kind, message } => write!(f, "journal I/O ({kind:?}): {message}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl From<DecodeError> for ArchiveError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => ArchiveError::Truncated,
            other => ArchiveError::Payload(other),
        }
    }
}

impl From<RleError> for ArchiveError {
    fn from(e: RleError) -> Self {
        ArchiveError::Rle(e)
    }
}

/// Summary of an archive's shape (see [`ArchiveFile::stat`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Frames stored.
    pub frames: usize,
    /// How many of them are keyframes.
    pub keyframes: usize,
    /// Image width in pixels.
    pub width: Pixel,
    /// Image height in rows.
    pub height: usize,
    /// Re-keyframe cadence.
    pub keyframe_interval: usize,
    /// Sum of changed rows across delta frames (the work extraction
    /// replays; keyframes excluded).
    pub delta_rows: usize,
    /// Total runs stored across all payloads (keyframes + deltas) — the
    /// archive's size driver.
    pub stored_runs: usize,
    /// Committed journal size in bytes.
    pub journal_bytes: u64,
    /// Torn/uncommitted bytes truncated by open-time recovery.
    pub recovered_tail_bytes: u64,
    /// Record checksum failures observed since open.
    pub crc_errors: u64,
    /// Records read and CRC-checked in service of `extract` since open —
    /// the replay cost the keyframe index is meant to bound.
    pub records_replayed: u64,
    /// Bytes written by appends since open (journal I/O, not file size).
    pub bytes_appended: u64,
    /// Bytes written by the most recent append — O(frame), not
    /// O(archive), which is the journal's point.
    pub last_append_bytes: u64,
    /// Fsync barriers issued since open.
    pub syncs: u64,
}

/// Outcome of one [`ArchiveFile::append`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Index the frame was stored at.
    pub frame: usize,
    /// Whether it was stored as a keyframe.
    pub keyframe: bool,
    /// Rows whose signatures differed from the previous frame (== height
    /// for the first frame).
    pub changed_rows: usize,
}

/// Indices of the rows whose signature in `sigs` (the new frame's)
/// differs from `prev`'s: the rows a delta stores.
fn changed_rows(prev: &RleImage, sigs: &[u64]) -> Vec<usize> {
    prev.rows()
        .iter()
        .zip(sigs)
        .enumerate()
        .filter(|(_, (row, &sig))| row.signature() != sig)
        .map(|(i, _)| i)
        .collect()
}

/// Whether row `row` is set in a literal bitmap (bit `row % 8` of byte
/// `row / 8`). Rows past the bitmap's end read as clear, so the empty
/// bitmap is the all-clear one that XOR-only payloads replay with.
fn is_literal(literal: &[u8], row: usize) -> bool {
    literal
        .get(row / 8)
        .is_some_and(|b| b >> (row % 8) & 1 != 0)
}

/// A row's run edges (each run's start and end-exclusive), ascending,
/// with the shared edge of two touching runs cancelled: the edges of the
/// row's canonical encoding, whatever its encoding.
fn edges(row: &RleRow) -> Vec<Pixel> {
    let mut out = Vec::with_capacity(2 * row.run_count());
    for r in row.runs() {
        if out.last() == Some(&r.start()) {
            out.pop();
        } else {
            out.push(r.start());
        }
        out.push(r.end_exclusive());
    }
    out
}

/// Whether `prev XOR row` has fewer runs than `row` stores: the XOR with a
/// run budget of one run fewer than the row, counted without being built.
/// The XOR toggles exactly where one of the rows toggles and the other
/// does not, so it has `(|A| + |B|) / 2 − s` runs, `A` and `B` being the
/// rows' canonical edges and `s` the edges they share. A merge whose steps
/// do not branch on the data counts `s`, and stops as soon as the edges
/// left cannot bring it to what the budget needs — about halfway through
/// for two unrelated rows, whose XOR outgrows either row.
fn xor_is_smaller(prev: &RleRow, row: &RleRow) -> bool {
    let (a, b) = (edges(prev), edges(row));
    let need = ((a.len() + b.len()) / 2 + 1).saturating_sub(row.run_count());
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        if shared + (a.len() - i).min(b.len() - j) < need {
            return false;
        }
        let (x, y) = (a[i], b[j]);
        shared += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    shared >= need
}

/// A delta frame as the journal stores it.
struct Delta {
    /// `RLI1` image of the stored rows; unchanged rows are empty.
    payload: Vec<u8>,
    /// Literal bitmap, `⌈height/8⌉` bytes: a set bit marks a row stored as
    /// itself, a clear bit on a non-empty row one stored as an XOR.
    literal: Vec<u8>,
    /// Runs stored across the payload.
    runs: usize,
}

/// The delta codec's encoder: stores each `changed` row of `frame` as
/// whichever has fewer runs — its XOR against `prev` (`rle::ops::xor`),
/// or the row itself (a *literal*; a tie goes to the literal). The XOR of
/// two unlike rows tends to k1 + k2 runs (the paper's Observation), so a
/// redrawn row is cheaper stored as itself, while a row with a few pixel
/// errors is cheaper as its XOR. [`xor_is_smaller`] decides first, so the
/// XOR is built only for rows that store it.
fn delta(prev: &RleImage, frame: &RleImage, changed: &[usize]) -> Delta {
    let unchanged = RleRow::new(frame.width());
    let mut literal = vec![0u8; frame.height().div_ceil(8)];
    let mut runs = 0;
    let mut next = changed.iter().copied().peekable();
    let mut out = serialize::ImageWriter::new(Vec::new(), frame.width(), frame.height())
        .expect("writing to a Vec cannot fail");
    for (i, (pr, fr)) in prev.rows().iter().zip(frame.rows()).enumerate() {
        let xor;
        let row = if next.next_if_eq(&i).is_none() {
            &unchanged
        } else if xor_is_smaller(pr, fr) {
            xor = rle::ops::xor(pr, fr);
            &xor
        } else {
            literal[i / 8] |= 1 << (i % 8);
            fr
        };
        runs += row.run_count();
        out.write_row(row).expect("writing to a Vec cannot fail");
    }
    let payload = out.finish().expect("one row was written per frame row");
    Delta {
        payload,
        literal,
        runs,
    }
}

/// The delta codec's forward decoder: replays `delta` onto `img` in place.
/// A row set in the `literal` bitmap replaces its row (it may be empty);
/// any other non-empty delta row is XORed into its row. A delta whose
/// geometry differs from `img`'s is a malformed payload of `frame`. The
/// paths that must produce every frame in order use it (`fsck`'s deep
/// verify, the `RDA1` import); `extract` replays newest-first, and its
/// tests hold it to this decoder's result.
fn apply_delta(
    img: &mut RleImage,
    delta: RleImage,
    literal: &[u8],
    frame: usize,
) -> Result<(), ArchiveError> {
    if delta.width() != img.width() || delta.height() != img.height() {
        return Err(ArchiveError::PayloadGeometry { frame });
    }
    for (i, d) in delta.into_rows().into_iter().enumerate() {
        if is_literal(literal, i) {
            img.set_row(i, d)?;
        } else if !d.is_empty() {
            let replayed = rle::ops::xor(&img.rows()[i], &d);
            img.set_row(i, replayed)?;
        }
    }
    Ok(())
}

/// The delta codec's integrity check: a reconstruction of `frame` must
/// match its stored signature index row for row.
fn check_signatures(img: &RleImage, sigs: &[u64], frame: usize) -> Result<(), ArchiveError> {
    if img.height() != sigs.len() {
        return Err(ArchiveError::PayloadGeometry { frame });
    }
    match img
        .rows()
        .iter()
        .zip(sigs)
        .position(|(row, &sig)| row.signature() != sig)
    {
        Some(row) => Err(ArchiveError::SignatureMismatch { frame, row }),
        None => Ok(()),
    }
}

/// Reads a signature index of `height` little-endian `u64`s at `*pos`, or
/// `None` when fewer bytes remain — checked before anything is allocated.
/// Shared by the `RDA1` and `RDA2` body parsers.
fn read_signatures(data: &[u8], pos: &mut usize, height: usize) -> Option<Vec<u64>> {
    let bytes = data.get(*pos..)?.get(..height.checked_mul(8)?)?;
    *pos += bytes.len();
    Some(
        bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect(),
    )
}

/// One frame of a legacy `RDA1` blob, as parsed.
struct LegacyFrame {
    keyframe: bool,
    /// Full frame (keyframe) or XOR delta image.
    payload: RleImage,
    /// Row signatures of the reconstructed frame (the integrity index).
    sigs: Vec<u64>,
}

/// Parses a whole legacy `RDA1` blob into its keyframe interval and
/// frames, enforcing the same plausibility caps as [`rle::serialize`]:
/// declared counts are checked against what the remaining input could
/// hold *before* anything is allocated. Replaying and checking the frames
/// is [`ArchiveFile::from_rda1`]'s job.
fn parse_rda1(data: &[u8]) -> Result<(usize, Vec<LegacyFrame>), ArchiveError> {
    if data.len() < LEGACY_MAGIC.len() {
        return Err(ArchiveError::Truncated);
    }
    if &data[..LEGACY_MAGIC.len()] != LEGACY_MAGIC {
        return Err(ArchiveError::BadMagic);
    }
    let width = data.get(4..8).ok_or(ArchiveError::Truncated)?;
    let width = Pixel::from_le_bytes(width.try_into().expect("4 bytes"));
    let mut pos = 8;
    let height = get_varint(data, &mut pos)? as usize;
    let keyframe_interval = get_varint(data, &mut pos)? as usize;
    if keyframe_interval == 0 {
        return Err(ArchiveError::ZeroInterval);
    }
    let count = get_varint(data, &mut pos)? as usize;
    // Every frame costs at least: 1 flag byte + 1 changed varint byte
    // + 8 bytes per row of signature index + 1 payload-length byte +
    // the RLI1 header (magic + width + height ≥ 9 bytes).
    let per_frame_floor = (8 * height as u64) + 11;
    let remaining = (data.len() - pos) as u64;
    let max_plausible = remaining / per_frame_floor;
    if count as u64 > max_plausible {
        return Err(ArchiveError::ImplausibleCount {
            declared: count as u64,
            max_plausible,
        });
    }
    let mut frames = Vec::with_capacity(count);
    for frame in 0..count {
        let &flags = data.get(pos).ok_or(ArchiveError::Truncated)?;
        pos += 1;
        let keyframe = flags & 1 != 0;
        let changed_rows = get_varint(data, &mut pos)? as usize;
        if changed_rows > height {
            return Err(ArchiveError::ImplausibleCount {
                declared: changed_rows as u64,
                max_plausible: height as u64,
            });
        }
        let sigs = read_signatures(data, &mut pos, height).ok_or(ArchiveError::Truncated)?;
        let payload_len = get_varint(data, &mut pos)? as usize;
        let payload = data[pos..]
            .get(..payload_len)
            .ok_or(ArchiveError::Truncated)?;
        let payload = serialize::decode_image(payload)?;
        pos += payload_len;
        if payload.width() != width || payload.height() != height || (frame == 0 && !keyframe) {
            return Err(ArchiveError::PayloadGeometry { frame });
        }
        frames.push(LegacyFrame {
            keyframe,
            payload,
            sigs,
        });
    }
    Ok((keyframe_interval, frames))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rle::serialize::put_varint;
    use rle::Run;

    /// The 12-frame legacy fixture (recipe in `tests/delta_archive.rs`).
    const LEGACY: &[u8] = include_bytes!("../testdata/legacy.rda1");

    /// A deterministic little sequence: a bar that marches one row down
    /// per frame over a static background.
    fn sequence(frames: usize, width: Pixel, height: usize) -> Vec<RleImage> {
        (0..frames)
            .map(|t| {
                let rows = (0..height)
                    .map(|y| {
                        if y == t % height {
                            RleRow::from_pairs(width, &[(2, 5), (10, 3)]).unwrap()
                        } else if y % 3 == 0 {
                            RleRow::from_pairs(width, &[(0, 2)]).unwrap()
                        } else {
                            RleRow::new(width)
                        }
                    })
                    .collect();
                RleImage::from_rows(width, rows).unwrap()
            })
            .collect()
    }

    fn journal(interval: usize) -> ArchiveFile<MemStorage> {
        let opts = ArchiveOptions {
            keyframe_interval: interval,
            fsync: FsyncPolicy::OnClose,
        };
        ArchiveFile::create_on(MemStorage::new(), opts).unwrap()
    }

    fn from_rda1(blob: &[u8]) -> Result<ArchiveFile<MemStorage>, ArchiveError> {
        ArchiveFile::from_rda1(MemStorage::new(), blob, FsyncPolicy::OnClose)
    }

    #[test]
    fn round_trip_reconstructs_every_frame() {
        let frames = sequence(20, 32, 7);
        let mut archive = journal(5);
        for (i, f) in frames.iter().enumerate() {
            let outcome = archive.append(f).unwrap();
            assert_eq!(outcome.frame, i);
            assert_eq!(outcome.keyframe, i % 5 == 0);
        }
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(&archive.extract(i).unwrap(), f, "frame {i}");
        }
        let bytes = archive.into_storage().into_bytes();
        let mut back =
            ArchiveFile::open_on(MemStorage::from_bytes(bytes), ArchiveOptions::default()).unwrap();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(&back.extract(i).unwrap(), f, "reopened frame {i}");
        }
        let stats = back.stat();
        assert_eq!(stats.frames, 20);
        assert_eq!(stats.keyframes, 4);
        assert_eq!((stats.width, stats.height), (32, 7));
        // Two rows change per delta frame (bar leaves one row, enters
        // another), so the archive stores far fewer rows than 20 full
        // frames would.
        assert_eq!(stats.delta_rows, 2 * 16);
    }

    #[test]
    fn deltas_store_only_changed_rows() {
        let mut archive = journal(100);
        for f in &sequence(4, 32, 8) {
            archive.append(f).unwrap();
        }
        let stats = archive.stat();
        assert_eq!(stats.keyframes, 1);
        assert_eq!(stats.delta_rows, 2 * 3, "two rows churn per frame");
    }

    #[test]
    fn compact_rekeys_and_preserves_content() {
        let frames = sequence(17, 24, 5);
        let mut archive = journal(100);
        for f in &frames {
            archive.append(f).unwrap();
        }
        assert_eq!(archive.stat().keyframes, 1);
        let mut compacted = archive.compact_into(MemStorage::new(), 4).unwrap();
        assert_eq!(compacted.keyframe_interval(), 4);
        assert_eq!(compacted.stat().keyframes, 5);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(&compacted.extract(i).unwrap(), f, "frame {i} after compact");
        }
        // Appending continues on the new cadence.
        compacted.append(&frames[0]).unwrap();
        assert_eq!(compacted.extract(17).unwrap(), frames[0]);
    }

    #[test]
    fn dimension_and_range_errors_are_typed() {
        let frames = sequence(2, 32, 4);
        let mut archive = journal(4);
        archive.append(&frames[0]).unwrap();
        for odd in [RleImage::new(32, 5), RleImage::new(33, 4)] {
            assert_eq!(
                archive.append(&odd),
                Err(ArchiveError::DimensionMismatch {
                    expected: (32, 4),
                    got: (odd.width(), odd.height()),
                })
            );
        }
        assert_eq!(archive.len(), 1, "a rejected frame writes nothing");
        assert!(matches!(
            archive.extract(7),
            Err(ArchiveError::FrameOutOfRange {
                index: 7,
                frames: 1
            })
        ));
        assert!(matches!(
            archive.signatures(3),
            Err(ArchiveError::FrameOutOfRange { .. })
        ));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for cut in 0..LEGACY.len() {
            assert!(
                from_rda1(&LEGACY[..cut]).is_err(),
                "prefix of {cut} bytes must not migrate"
            );
        }
        assert_eq!(from_rda1(LEGACY).unwrap().len(), 12);
    }

    #[test]
    fn adversarial_counts_are_capped_before_allocation() {
        // A tiny input declaring 2^28 frames must be rejected up front.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"RDA1");
        bytes.extend_from_slice(&16u32.to_le_bytes());
        put_varint(&mut bytes, 4); // height
        put_varint(&mut bytes, 3); // interval
        put_varint(&mut bytes, 1 << 28); // frames — absurd
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            from_rda1(&bytes),
            Err(ArchiveError::ImplausibleCount { .. })
        ));
        // Zero keyframe interval is rejected too.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"RDA1");
        bytes.extend_from_slice(&16u32.to_le_bytes());
        put_varint(&mut bytes, 4);
        put_varint(&mut bytes, 0);
        put_varint(&mut bytes, 0);
        assert!(matches!(from_rda1(&bytes), Err(ArchiveError::ZeroInterval)));
        assert!(matches!(from_rda1(b"NOPE"), Err(ArchiveError::BadMagic)));
    }

    #[test]
    fn tampered_signature_index_is_caught() {
        // Flip one bit in frame 0's signature index, which starts at byte
        // 13: magic (4) + width (4) + one-byte varints for height, interval
        // and count, then frame 0's flags and changed count. Migration
        // replays and checks every frame, so the first one fails.
        let mut bytes = LEGACY.to_vec();
        bytes[13] ^= 0x01;
        assert_eq!(
            from_rda1(&bytes).unwrap_err(),
            ArchiveError::SignatureMismatch { frame: 0, row: 0 }
        );
    }

    /// A random row of `width` pixels whose runs may touch (a
    /// non-canonical encoding), as the paper allows.
    pub(crate) fn random_row(rng: &mut impl rand::Rng, width: Pixel) -> RleRow {
        let mut runs = Vec::new();
        let mut at = 0;
        while at < width {
            at += rng.gen_range(0..4);
            let len = rng.gen_range(1..6).min(width.saturating_sub(at));
            if len == 0 {
                break;
            }
            runs.push(Run::new(at, len));
            at += len;
        }
        RleRow::from_runs(width, runs).unwrap()
    }

    #[test]
    fn the_xor_run_count_matches_the_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB0D6);
        let (mut smaller, mut not) = (0, 0);
        for round in 0..4_000 {
            let width = rng.gen_range(1..96);
            let a = random_row(&mut rng, width);
            // Half the pairs are similar: `a` with one pixel flipped.
            let b = if round % 2 == 0 {
                random_row(&mut rng, width)
            } else {
                let flip = RleRow::from_pairs(width, &[(rng.gen_range(0..width), 1)]).unwrap();
                rle::ops::combine(&a, &flip, |x, y| x != y)
            };
            for (prev, row) in [(&a, &b), (&b, &a)] {
                let want = rle::ops::xor(prev, row).run_count() < row.run_count();
                assert_eq!(xor_is_smaller(prev, row), want, "{prev:?} ^ {row:?}");
                if want {
                    smaller += 1;
                } else {
                    not += 1;
                }
            }
        }
        assert!(smaller > 1_000 && not > 1_000, "{smaller} / {not}");
    }

    #[test]
    fn deltas_pick_the_smaller_row_and_replay_it() {
        let row = |pairs: &[(Pixel, Pixel)]| RleRow::from_pairs(32, pairs).unwrap();
        let image = |rows: Vec<RleRow>| RleImage::from_rows(32, rows).unwrap();
        let prev = image(vec![
            row(&[(0, 2), (4, 2), (8, 2)]),
            row(&[(0, 2), (4, 2), (8, 2)]),
            row(&[(1, 1)]),
            row(&[(3, 3)]),
        ]);
        let frame = image(vec![
            row(&[(0, 2), (4, 2), (8, 2), (12, 1)]), // one pixel more: XOR
            row(&[(20, 5)]),                         // redrawn: literal
            RleRow::new(32),                         // cleared: empty literal
            row(&[(3, 3)]),                          // unchanged
        ]);
        let changed = changed_rows(&prev, &frame.row_signatures());
        assert_eq!(changed, [0, 1, 2]);
        let d = delta(&prev, &frame, &changed);
        assert_eq!(d.literal, [0b0110]);
        let payload = serialize::decode_image(&d.payload).unwrap();
        assert_eq!(payload.rows()[0], row(&[(12, 1)]));
        assert_eq!(payload.rows()[1], frame.rows()[1]);
        assert!(payload.rows()[2].is_empty() && payload.rows()[3].is_empty());
        assert_eq!(d.runs, payload.total_runs());
        let mut img = prev.clone();
        apply_delta(&mut img, payload, &d.literal, 1).unwrap();
        assert_eq!(img, frame);
    }

    #[test]
    fn empty_archive_round_trips() {
        let mut blob = LEGACY_MAGIC.to_vec();
        blob.extend_from_slice(&0u32.to_le_bytes()); // width
        put_varint(&mut blob, 0); // height
        put_varint(&mut blob, 8); // interval
        put_varint(&mut blob, 0); // frames
        let migrated = from_rda1(&blob).unwrap().into_storage();
        let back = ArchiveFile::open_on(migrated, ArchiveOptions::default()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.keyframe_interval(), 8);
    }
}
