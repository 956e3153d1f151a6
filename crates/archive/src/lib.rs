//! Versioned delta archive for RLE binary image sequences.
//!
//! Consecutive frames in the workloads this repo targets (PCB inspection,
//! motion detection) differ in a handful of rows; storing every frame in
//! full re-pays the cost of everything that *didn't* change. This crate
//! persists a sequence as **keyframes plus per-row XOR deltas**, keyed by
//! the 64-bit row signatures from [`rle::sig`]:
//!
//! * **Append** compares the new frame's row signatures against the
//!   previous frame's (both cached on the rows, so the compare is O(1) per
//!   row) and XORs only the rows whose signatures differ — append cost is
//!   proportional to what changed, the same leverage the executor's
//!   signature prefilter gets (see `DiffExecutorConfig::signature_prefilter`).
//! * **Extract** reconstructs any version by replaying deltas forward from
//!   the nearest keyframe, then checks the reconstruction's row signatures
//!   against the stored signature index — bit-rot anywhere in the replay
//!   chain surfaces as a typed [`ArchiveError::SignatureMismatch`], not as
//!   a silently wrong image.
//! * **Re-keyframing** ([`DeltaArchive::compact`]) bounds replay cost: a
//!   full keyframe is stored every `keyframe_interval` frames, so no
//!   extraction replays more than `interval − 1` deltas.
//!
//! The wire format (`RDA1`) embeds each payload as a standard `RLI1` blob
//! from [`rle::serialize`], inheriting its hardening wholesale: varints are
//! bounds-checked, declared counts are capped by what the remaining input
//! could plausibly hold *before* any allocation, and malformed input of any
//! kind produces a typed error, never a panic. The archive's own header
//! fields follow the same plausibility-cap discipline.
//!
//! Like the signatures themselves, delta elision is probabilistic at the
//! 2⁻⁶⁴ level: two different rows whose signatures collide would be stored
//! as "unchanged". Callers that cannot tolerate that can diff the frames
//! exactly first (the pipeline's `verify_signatures` mode); the archive's
//! own integrity check catches every *storage or replay* corruption, which
//! is the failure mode archives actually see.
//!
//! # Wire format
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

use rle::serialize::{self, get_varint, put_varint, DecodeError};
use rle::{Pixel, RleError, RleImage, RleRow};

mod crc;
pub mod journal;
pub mod storage;

pub use journal::{
    ArchiveFile, ArchiveOptions, FsckReport, FsyncPolicy, RecoveryReport, TornReason, JOURNAL_MAGIC,
};
#[cfg(feature = "fault-injection")]
pub use storage::{CrashMode, CrashPlan, FaultStorage};
pub use storage::{MemStorage, Storage};

const MAGIC: &[u8; 4] = b"RDA1";

/// Magic of the legacy whole-blob [`DeltaArchive::to_bytes`] format —
/// exported so front ends can sniff a file's format and route it to
/// [`DeltaArchive::from_bytes`] or the [`journal`] accordingly.
pub const LEGACY_MAGIC: &[u8; 4] = MAGIC;

/// Default re-keyframe cadence: a keyframe every 16 frames bounds any
/// extraction to at most 15 delta replays while keeping the storage
/// overhead of full frames under ~7% for low-churn sequences.
pub const DEFAULT_KEYFRAME_INTERVAL: usize = 16;

/// Errors arising from archive operations. Every malformed input path is
/// a typed error; nothing panics.
#[derive(Debug, PartialEq, Eq)]
pub enum ArchiveError {
    /// The archive magic did not match `RDA1`.
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
            ArchiveError::BadMagic => write!(f, "bad archive magic (want RDA1)"),
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

/// One stored frame: either a full keyframe or an XOR delta against the
/// previous frame, plus the frame's signature index.
#[derive(Clone, Debug)]
struct FrameRecord {
    keyframe: bool,
    /// Full frame (keyframe) or delta image with empty rows where the
    /// signature matched the previous frame.
    payload: RleImage,
    /// Row signatures of the *reconstructed* frame (the integrity index).
    sigs: Vec<u64>,
    /// Rows whose signature differed from the previous frame (== height
    /// for keyframe 0; informational for [`ArchiveStats`]).
    changed_rows: usize,
}

/// Summary of an archive's shape (see [`DeltaArchive::stat`]).
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
    /// Committed journal size in bytes (0 for in-memory archives).
    pub journal_bytes: u64,
    /// Torn/uncommitted bytes truncated by open-time recovery.
    pub recovered_tail_bytes: u64,
    /// Record checksum failures observed since open.
    pub crc_errors: u64,
    /// Records decoded in service of `extract` since open — the replay
    /// cost the keyframe index is meant to bound.
    pub records_replayed: u64,
    /// Bytes written by appends since open (journal I/O, not file size).
    pub bytes_appended: u64,
    /// Bytes written by the most recent append — O(frame), not
    /// O(archive), which is the journal's point.
    pub last_append_bytes: u64,
    /// Fsync barriers issued since open.
    pub syncs: u64,
}

/// Outcome of one [`DeltaArchive::append`].
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

/// A versioned sequence of same-sized RLE images stored as keyframes plus
/// XOR deltas (see the crate docs for the format and guarantees).
#[derive(Clone, Debug)]
pub struct DeltaArchive {
    width: Pixel,
    height: usize,
    keyframe_interval: usize,
    frames: Vec<FrameRecord>,
    /// Reconstruction of the newest frame, kept so append is incremental.
    last: Option<RleImage>,
}

impl DeltaArchive {
    /// An empty archive; dimensions are adopted from the first appended
    /// frame. `keyframe_interval` is clamped to at least 1.
    #[must_use]
    pub fn new(keyframe_interval: usize) -> Self {
        Self {
            width: 0,
            height: 0,
            keyframe_interval: keyframe_interval.max(1),
            frames: Vec::new(),
            last: None,
        }
    }

    /// Frames stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the archive holds no frames.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Image width (0 until the first frame is appended).
    #[must_use]
    pub fn width(&self) -> Pixel {
        self.width
    }

    /// Image height (0 until the first frame is appended).
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Re-keyframe cadence.
    #[must_use]
    pub fn keyframe_interval(&self) -> usize {
        self.keyframe_interval
    }

    /// The stored signature index of frame `index`.
    pub fn signatures(&self, index: usize) -> Result<&[u64], ArchiveError> {
        self.frames
            .get(index)
            .map(|f| f.sigs.as_slice())
            .ok_or(ArchiveError::FrameOutOfRange {
                index,
                frames: self.frames.len(),
            })
    }

    /// Appends the next version of the image. The first frame (and every
    /// `keyframe_interval`-th after it) is stored in full; other frames
    /// store only the XOR of rows whose signatures changed since the
    /// previous frame — cost proportional to the churn, not the image.
    pub fn append(&mut self, frame: &RleImage) -> Result<AppendOutcome, ArchiveError> {
        if self.frames.is_empty() {
            self.width = frame.width();
            self.height = frame.height();
        } else if frame.width() != self.width || frame.height() != self.height {
            return Err(ArchiveError::DimensionMismatch {
                expected: (self.width, self.height),
                got: (frame.width(), frame.height()),
            });
        }
        let index = self.frames.len();
        let sigs = frame.row_signatures();
        let keyframe = index.is_multiple_of(self.keyframe_interval);
        let (payload, changed_rows) = if keyframe {
            (frame.clone(), self.height)
        } else {
            let prev = self
                .last
                .as_ref()
                .expect("non-empty archive has a last frame");
            let mut changed = 0usize;
            let mut rows = Vec::with_capacity(self.height);
            for (i, (pr, fr)) in prev.rows().iter().zip(frame.rows()).enumerate() {
                if pr.signature() == sigs[i] {
                    rows.push(RleRow::new(self.width));
                } else {
                    changed += 1;
                    rows.push(rle::ops::xor(pr, fr));
                }
            }
            (RleImage::from_rows(self.width, rows)?, changed)
        };
        self.frames.push(FrameRecord {
            keyframe,
            payload,
            sigs,
            changed_rows,
        });
        self.last = Some(frame.clone());
        Ok(AppendOutcome {
            frame: index,
            keyframe,
            changed_rows,
        })
    }

    /// Reconstructs frame `index` bit-identically by replaying deltas from
    /// the nearest keyframe, then verifies the reconstruction against the
    /// stored signature index.
    pub fn extract(&self, index: usize) -> Result<RleImage, ArchiveError> {
        if index >= self.frames.len() {
            return Err(ArchiveError::FrameOutOfRange {
                index,
                frames: self.frames.len(),
            });
        }
        let key = (0..=index)
            .rev()
            .find(|&i| self.frames[i].keyframe)
            .expect("frame 0 is always a keyframe");
        let mut img = self.frames[key].payload.clone();
        if img.width() != self.width || img.height() != self.height {
            return Err(ArchiveError::PayloadGeometry { frame: key });
        }
        for j in key + 1..=index {
            let delta = &self.frames[j].payload;
            if delta.width() != self.width || delta.height() != self.height {
                return Err(ArchiveError::PayloadGeometry { frame: j });
            }
            for (i, d) in delta.rows().iter().enumerate() {
                if !d.is_empty() {
                    let replayed = rle::ops::xor(&img.rows()[i], d);
                    img.set_row(i, replayed)?;
                }
            }
        }
        let want = &self.frames[index].sigs;
        for (i, row) in img.rows().iter().enumerate() {
            if row.signature() != want[i] {
                return Err(ArchiveError::SignatureMismatch {
                    frame: index,
                    row: i,
                });
            }
        }
        Ok(img)
    }

    /// Rebuilds the archive with a new keyframe cadence (clamped to ≥ 1)
    /// in one forward replay — re-keyframing after the fact, so replay
    /// cost stays bounded however the archive was written. The stored
    /// sequence of frames is unchanged.
    pub fn compact(&mut self, keyframe_interval: usize) -> Result<(), ArchiveError> {
        let mut rebuilt = DeltaArchive::new(keyframe_interval);
        let mut current: Option<RleImage> = None;
        for (index, record) in self.frames.iter().enumerate() {
            let frame = if record.keyframe {
                record.payload.clone()
            } else {
                let mut img = current.take().expect("deltas always follow a frame");
                for (i, d) in record.payload.rows().iter().enumerate() {
                    if !d.is_empty() {
                        let replayed = rle::ops::xor(&img.rows()[i], d);
                        img.set_row(i, replayed)?;
                    }
                }
                img
            };
            for (i, row) in frame.rows().iter().enumerate() {
                if row.signature() != record.sigs[i] {
                    return Err(ArchiveError::SignatureMismatch {
                        frame: index,
                        row: i,
                    });
                }
            }
            rebuilt.append(&frame)?;
            current = Some(frame);
        }
        *self = rebuilt;
        Ok(())
    }

    /// Shape summary (frame counts, churn, stored size drivers).
    #[must_use]
    pub fn stat(&self) -> ArchiveStats {
        ArchiveStats {
            frames: self.frames.len(),
            keyframes: self.frames.iter().filter(|f| f.keyframe).count(),
            width: self.width,
            height: self.height,
            keyframe_interval: self.keyframe_interval,
            delta_rows: self
                .frames
                .iter()
                .filter(|f| !f.keyframe)
                .map(|f| f.changed_rows)
                .sum(),
            stored_runs: self.frames.iter().map(|f| f.payload.total_runs()).sum(),
            ..ArchiveStats::default()
        }
    }

    /// Serializes the archive (see the crate docs for the `RDA1` format).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.width.to_le_bytes());
        put_varint(&mut out, self.height as u32);
        put_varint(&mut out, self.keyframe_interval as u32);
        put_varint(&mut out, self.frames.len() as u32);
        for record in &self.frames {
            out.push(u8::from(record.keyframe));
            put_varint(&mut out, record.changed_rows as u32);
            for sig in &record.sigs {
                out.extend_from_slice(&sig.to_le_bytes());
            }
            let payload = serialize::encode_image(&record.payload);
            put_varint(&mut out, payload.len() as u32);
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Deserializes an archive, enforcing the same plausibility caps as
    /// [`rle::serialize`]: declared counts are checked against what the
    /// remaining input could hold *before* anything is allocated, and the
    /// newest frame is reconstructed (and signature-verified) so a corrupt
    /// tail fails at load instead of at first append.
    pub fn from_bytes(data: &[u8]) -> Result<Self, ArchiveError> {
        if data.len() < MAGIC.len() {
            return Err(ArchiveError::Truncated);
        }
        if &data[..MAGIC.len()] != MAGIC {
            return Err(ArchiveError::BadMagic);
        }
        let mut pos = MAGIC.len();
        if data.len() < pos + 4 {
            return Err(ArchiveError::Truncated);
        }
        let width = Pixel::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
        pos += 4;
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
            if data.len() - pos < 8 * height {
                return Err(ArchiveError::Truncated);
            }
            let mut sigs = Vec::with_capacity(height);
            for _ in 0..height {
                sigs.push(u64::from_le_bytes(
                    data[pos..pos + 8].try_into().expect("8 bytes"),
                ));
                pos += 8;
            }
            let payload_len = get_varint(data, &mut pos)? as usize;
            if data.len() - pos < payload_len {
                return Err(ArchiveError::Truncated);
            }
            let payload = serialize::decode_image(&data[pos..pos + payload_len])?;
            pos += payload_len;
            if payload.width() != width || payload.height() != height {
                return Err(ArchiveError::PayloadGeometry { frame });
            }
            if frame == 0 && !keyframe {
                return Err(ArchiveError::PayloadGeometry { frame });
            }
            frames.push(FrameRecord {
                keyframe,
                payload,
                sigs,
                changed_rows,
            });
        }
        let mut archive = Self {
            width: if frames.is_empty() { 0 } else { width },
            height: if frames.is_empty() { 0 } else { height },
            keyframe_interval,
            frames,
            last: None,
        };
        if !archive.is_empty() {
            // Reconstruct (and thereby signature-verify) the newest frame
            // so append stays incremental and a corrupt tail fails here.
            archive.last = Some(archive.extract(archive.len() - 1)?);
        }
        Ok(archive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn round_trip_reconstructs_every_frame() {
        let frames = sequence(20, 32, 7);
        let mut archive = DeltaArchive::new(5);
        for (i, f) in frames.iter().enumerate() {
            let outcome = archive.append(f).unwrap();
            assert_eq!(outcome.frame, i);
            assert_eq!(outcome.keyframe, i % 5 == 0);
        }
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(&archive.extract(i).unwrap(), f, "frame {i}");
        }
        let bytes = archive.to_bytes();
        let back = DeltaArchive::from_bytes(&bytes).unwrap();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(&back.extract(i).unwrap(), f, "decoded frame {i}");
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
        let frames = sequence(4, 32, 8);
        let mut archive = DeltaArchive::new(100);
        for f in &frames {
            archive.append(f).unwrap();
        }
        let stats = archive.stat();
        assert_eq!(stats.keyframes, 1);
        assert_eq!(stats.delta_rows, 2 * 3, "two rows churn per frame");
    }

    #[test]
    fn compact_rekeys_and_preserves_content() {
        let frames = sequence(17, 24, 5);
        let mut archive = DeltaArchive::new(100);
        for f in &frames {
            archive.append(f).unwrap();
        }
        assert_eq!(archive.stat().keyframes, 1);
        archive.compact(4).unwrap();
        assert_eq!(archive.keyframe_interval(), 4);
        assert_eq!(archive.stat().keyframes, 5);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(&archive.extract(i).unwrap(), f, "frame {i} after compact");
        }
        // Appending continues on the new cadence.
        archive.append(&frames[0]).unwrap();
        assert_eq!(archive.extract(17).unwrap(), frames[0]);
    }

    #[test]
    fn dimension_and_range_errors_are_typed() {
        let frames = sequence(2, 32, 4);
        let mut archive = DeltaArchive::new(4);
        archive.append(&frames[0]).unwrap();
        let tall = RleImage::new(32, 5);
        assert!(matches!(
            archive.append(&tall),
            Err(ArchiveError::DimensionMismatch { .. })
        ));
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
        let frames = sequence(6, 16, 4);
        let mut archive = DeltaArchive::new(3);
        for f in &frames {
            archive.append(f).unwrap();
        }
        let bytes = archive.to_bytes();
        for cut in 0..bytes.len() {
            let err = DeltaArchive::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
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
            DeltaArchive::from_bytes(&bytes),
            Err(ArchiveError::ImplausibleCount { .. })
        ));
        // Zero keyframe interval is rejected too.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"RDA1");
        bytes.extend_from_slice(&16u32.to_le_bytes());
        put_varint(&mut bytes, 4);
        put_varint(&mut bytes, 0);
        put_varint(&mut bytes, 0);
        assert!(matches!(
            DeltaArchive::from_bytes(&bytes),
            Err(ArchiveError::ZeroInterval)
        ));
        assert!(matches!(
            DeltaArchive::from_bytes(b"NOPE"),
            Err(ArchiveError::BadMagic)
        ));
    }

    #[test]
    fn tampered_signature_index_is_caught() {
        let frames = sequence(5, 16, 4);
        let mut archive = DeltaArchive::new(10);
        for f in &frames {
            archive.append(f).unwrap();
        }
        let mut bytes = archive.to_bytes();
        // Flip one bit in the LAST frame's signature index: load-time
        // verification of the newest frame catches it immediately.
        let len = bytes.len();
        let sig_region = len - 40; // inside the final frame's sigs
        bytes[sig_region] ^= 0x01;
        assert!(matches!(
            DeltaArchive::from_bytes(&bytes),
            Err(ArchiveError::SignatureMismatch { .. })
        ));
    }

    #[test]
    fn empty_archive_round_trips() {
        let archive = DeltaArchive::new(8);
        let back = DeltaArchive::from_bytes(&archive.to_bytes()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.keyframe_interval(), 8);
    }
}
