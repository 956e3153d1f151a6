//! The on-disk journal (`RDA2`): the crate's one archive store,
//! crash-consistent and append-only.
//!
//! [`ArchiveFile`] appends each frame as a self-describing, checksummed
//! journal record followed by an explicit **commit record**; a frame
//! exists if and only if its commit record is fully on disk. That makes
//! append O(frame) I/O — earlier frames are never rewritten — and turns
//! every crash into a *torn tail*: open-time recovery scans forward, keeps
//! the longest valid committed prefix, truncates the rest, and reports
//! what was salvaged. Legacy `RDA1` blobs enter only through
//! [`ArchiveFile::from_rda1`].
//!
//! # Wire format
//!
//! ```text
//! journal := header record*
//! header  := "RDA2" version:u8 interval:u32le crc:u32le      -- crc over version+interval
//! record  := frame commit
//! frame   := 0xF1 body_len:u32le body_crc:u32le body          -- crc over body
//! body    := seq:u32le flags:u8 (bit0 = keyframe)
//!            width:u32le height:varint changed:varint runs:varint
//!            sig[height]:u64le
//!            payload_len:varint payload:RLI1                  -- full frame or XOR delta
//! commit  := 0xC7 seq:u32le crc:u32le                         -- crc over seq
//! ```
//!
//! Every multi-byte field a reader trusts is covered by a CRC32: the
//! header CRC covers the interval, the body CRC covers everything in the
//! record (including the signature index), and the commit CRC covers its
//! sequence number. Records carry their own geometry (`width`/`height`),
//! so recovery never needs archive-level state to parse a record.
//!
//! # Recovery
//!
//! [`ArchiveFile::open_on`] scans records from the header forward. The
//! scan stops at the first record that is truncated, fails its CRC, has a
//! malformed body, or lacks a valid commit — everything before that point
//! is the committed prefix, everything after is torn and gets truncated
//! (reported in [`RecoveryReport`]). A file shorter than a full header is
//! a torn `create` and is reset to an empty journal. [`ArchiveFile::fsck`]
//! runs the same scan without mutating, then deep-verifies every frame by
//! replaying it and checking the stored signature index, and can repair
//! (truncate the torn tail, or cut back to the last verifiable frame if a
//! committed record is corrupt).
//!
//! # Durability knobs
//!
//! [`FsyncPolicy`] picks the fsync cadence: `Always` (sync every commit;
//! a crash loses at most the in-flight frame), `EveryN(n)` (bound the loss
//! window to `n` frames), `OnClose` (fastest; rely on the OS until close).
//! Whatever the policy, the *format* guarantees recovery keeps only whole
//! committed frames — the policy only bounds how many of the most recent
//! commits might not have reached the platter.

use std::io::SeekFrom;
use std::path::Path;

use rle::serialize::{self, get_varint, put_varint};
use rle::{Pixel, RleImage};

use crate::crc::crc32;
use crate::storage::Storage;
use crate::{apply_delta, check_signatures, delta, read_signatures};
use crate::{AppendOutcome, ArchiveError, ArchiveStats};

/// Magic prefix of a journaled archive.
pub const JOURNAL_MAGIC: &[u8; 4] = b"RDA2";

const VERSION: u8 = 1;
/// magic(4) + version(1) + interval(4) + crc(4).
const HEADER_LEN: u64 = 13;
const FRAME_TAG: u8 = 0xF1;
const COMMIT_TAG: u8 = 0xC7;
/// tag(1) + body_len(4) + body_crc(4).
const FRAME_PREFIX_LEN: u64 = 9;
/// tag(1) + seq(4) + crc(4).
const COMMIT_LEN: u64 = 9;

/// When the journal calls `fsync` on its backing store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every commit record: a crash loses at most the frame
    /// being appended. The safe default.
    Always,
    /// Sync every `n` appends: bounds the loss window to `n` frames while
    /// amortising the sync cost (clamped to ≥ 1).
    EveryN(u64),
    /// Sync only at [`ArchiveFile::close`] (and explicit
    /// [`ArchiveFile::sync`]): fastest, loss window bounded by the OS.
    OnClose,
}

/// Create/open parameters for an [`ArchiveFile`].
#[derive(Clone, Copy, Debug)]
pub struct ArchiveOptions {
    /// Keyframe cadence for newly written frames (clamped to ≥ 1). An
    /// existing journal keeps the interval in its header; this value is
    /// used when creating (or resetting a torn) journal.
    pub keyframe_interval: usize,
    /// Fsync cadence.
    pub fsync: FsyncPolicy,
}

impl Default for ArchiveOptions {
    fn default() -> Self {
        Self {
            keyframe_interval: crate::DEFAULT_KEYFRAME_INTERVAL,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// Why a recovery scan stopped before the end of the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TornReason {
    /// The file ended mid-record.
    Truncated,
    /// A byte where a record tag belongs held neither a frame nor a
    /// commit tag.
    BadTag,
    /// A record's body CRC32 disagreed with its bytes.
    CrcMismatch,
    /// A record body parsed but violated an invariant (wrong sequence
    /// number, geometry change, implausible count…).
    Malformed,
    /// The frame record was intact but its commit record was missing,
    /// torn, or failed its CRC — the append never committed.
    Uncommitted,
    /// The file was shorter than a full header (a torn `create`).
    TornHeader,
}

impl std::fmt::Display for TornReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TornReason::Truncated => "record truncated mid-write",
            TornReason::BadTag => "unrecognised record tag",
            TornReason::CrcMismatch => "record checksum mismatch",
            TornReason::Malformed => "record body malformed",
            TornReason::Uncommitted => "frame never committed",
            TornReason::TornHeader => "torn header (crash during create)",
        };
        f.write_str(s)
    }
}

/// What [`ArchiveFile::open_on`] salvaged and discarded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed frames recovered.
    pub frames: usize,
    /// Torn/uncommitted bytes truncated from the tail.
    pub truncated_bytes: u64,
    /// Why the committed prefix ended before the file did (`None` when
    /// the file was clean).
    pub reason: Option<TornReason>,
    /// The header itself was torn and the journal was reset to empty.
    pub header_reset: bool,
}

impl RecoveryReport {
    /// Whether the journal was already fully consistent.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.truncated_bytes == 0 && !self.header_reset
    }
}

/// Outcome of [`ArchiveFile::fsck`]: the structural scan plus a deep
/// replay-and-verify of every committed frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Committed frames found by the structural scan.
    pub frames: usize,
    /// Frames that replayed and matched their stored signature index.
    pub verified: usize,
    /// Torn/uncommitted bytes after the committed prefix.
    pub torn_bytes: u64,
    /// Why the committed prefix ended early, if it did.
    pub torn_reason: Option<TornReason>,
    /// First committed frame that failed deep verification (payload CRC,
    /// geometry, or signature mismatch) — mid-file corruption, not a torn
    /// tail.
    pub first_corrupt: Option<usize>,
    /// Frames dropped by a repair (only corruption repairs lose frames;
    /// torn tails were never committed).
    pub frames_lost: usize,
    /// Whether repairs were applied.
    pub repaired: bool,
    /// Journal size in bytes after fsck.
    pub bytes: u64,
}

impl FsckReport {
    /// Whether the journal was fully consistent as found (nothing torn,
    /// nothing corrupt).
    #[must_use]
    pub fn clean(&self) -> bool {
        self.torn_bytes == 0 && self.first_corrupt.is_none()
    }
}

/// In-memory index entry for one committed record.
#[derive(Clone, Debug)]
struct Entry {
    /// Byte offset of the frame record's tag.
    offset: u64,
    /// Length of the record body (between prefix and commit).
    body_len: u32,
    keyframe: bool,
    changed: usize,
    runs: usize,
    /// Row signatures of the reconstructed frame (the integrity index).
    sigs: Vec<u64>,
}

impl Entry {
    /// Total on-disk footprint: prefix + body + commit.
    fn footprint(&self) -> u64 {
        FRAME_PREFIX_LEN + u64::from(self.body_len) + COMMIT_LEN
    }
}

/// Journal I/O counters, surfaced through [`ArchiveStats`].
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    bytes_appended: u64,
    last_append_bytes: u64,
    syncs: u64,
    records_replayed: u64,
    crc_errors: u64,
}

/// Fields parsed out of a record body.
struct ParsedBody {
    seq: u32,
    keyframe: bool,
    width: Pixel,
    height: usize,
    changed: usize,
    runs: usize,
    sigs: Vec<u64>,
    /// Byte range of the RLI1 payload within the body.
    payload: std::ops::Range<usize>,
}

/// Result of the non-mutating structural scan.
struct Scan {
    /// `None` means the header was torn (file shorter than a header that
    /// still looks like one) — the journal must be reset.
    interval: Option<usize>,
    width: Pixel,
    height: usize,
    entries: Vec<Entry>,
    /// End of the committed prefix (header end when no frames).
    committed_end: u64,
    file_len: u64,
    /// Why the scan stopped before `file_len`, if it did.
    torn: Option<TornReason>,
}

/// A crash-consistent, append-only delta archive on a [`Storage`]
/// backend. See the module docs for the format and guarantees.
#[derive(Debug)]
pub struct ArchiveFile<S: Storage> {
    storage: S,
    opts: ArchiveOptions,
    interval: usize,
    width: Pixel,
    height: usize,
    entries: Vec<Entry>,
    /// Reconstruction of the newest frame, kept so append is incremental.
    last: Option<RleImage>,
    /// End of the committed region; appends write here.
    end: u64,
    unsynced: u64,
    recovery: RecoveryReport,
    counters: Counters,
}

/// Reads exactly `buf.len()` bytes at `pos`, or reports a clean EOF.
fn try_read_exact<S: Storage>(
    storage: &mut S,
    pos: u64,
    buf: &mut [u8],
) -> Result<bool, ArchiveError> {
    storage.seek(SeekFrom::Start(pos))?;
    let mut filled = 0;
    while filled < buf.len() {
        let n = storage.read(&mut buf[filled..])?;
        if n == 0 {
            return Ok(false);
        }
        filled += n;
    }
    Ok(true)
}

fn u32_at(buf: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes"))
}

/// Parses and validates a record body. `expect_seq` is the sequence number
/// the record must carry; `dims` is the archive geometry so far (`None`
/// before the first frame).
fn parse_body(
    body: &[u8],
    expect_seq: u32,
    dims: Option<(Pixel, usize)>,
) -> Result<ParsedBody, TornReason> {
    if body.len() < 9 {
        return Err(TornReason::Malformed);
    }
    let seq = u32_at(body, 0);
    if seq != expect_seq {
        return Err(TornReason::Malformed);
    }
    let flags = body[4];
    if flags & !1 != 0 {
        return Err(TornReason::Malformed);
    }
    let keyframe = flags & 1 != 0;
    if expect_seq == 0 && !keyframe {
        return Err(TornReason::Malformed);
    }
    let width = u32_at(body, 5);
    let mut pos = 9usize;
    let height = get_varint(body, &mut pos).map_err(|_| TornReason::Malformed)? as usize;
    if let Some((w, h)) = dims {
        if width != w || height != h {
            return Err(TornReason::Malformed);
        }
    }
    let changed = get_varint(body, &mut pos).map_err(|_| TornReason::Malformed)? as usize;
    if changed > height {
        return Err(TornReason::Malformed);
    }
    let runs = get_varint(body, &mut pos).map_err(|_| TornReason::Malformed)? as usize;
    let sigs = read_signatures(body, &mut pos, height).ok_or(TornReason::Malformed)?;
    let payload_len = get_varint(body, &mut pos).map_err(|_| TornReason::Malformed)? as usize;
    if body.len() - pos != payload_len {
        // The payload must account for every remaining byte — trailing
        // slack would let garbage hide inside a CRC-valid record.
        return Err(TornReason::Malformed);
    }
    Ok(ParsedBody {
        seq,
        keyframe,
        width,
        height,
        changed,
        runs,
        sigs,
        payload: pos..body.len(),
    })
}

/// Structural scan: find the longest valid committed prefix. Never
/// mutates `storage`; hard-errors only on I/O failures and files that are
/// not (torn) `RDA2` journals.
fn scan<S: Storage>(storage: &mut S) -> Result<Scan, ArchiveError> {
    let file_len = storage.byte_len()?;
    let mut header = [0u8; HEADER_LEN as usize];
    let whole_header = try_read_exact(storage, 0, &mut header)?;
    if !whole_header {
        let got = file_len.min(4) as usize;
        if header[..got] != JOURNAL_MAGIC[..got] {
            return Err(ArchiveError::BadMagic);
        }
        // A prefix of a valid header: a crash during create.
        return Ok(Scan {
            interval: None,
            width: 0,
            height: 0,
            entries: Vec::new(),
            committed_end: 0,
            file_len,
            torn: Some(TornReason::TornHeader),
        });
    }
    if &header[..4] != JOURNAL_MAGIC {
        return Err(ArchiveError::BadMagic);
    }
    if crc32(&header[4..9]) != u32_at(&header, 9) {
        return Err(ArchiveError::HeaderCorrupt);
    }
    if header[4] != VERSION {
        return Err(ArchiveError::UnsupportedVersion { version: header[4] });
    }
    let interval = u32_at(&header, 5) as usize;
    if interval == 0 {
        return Err(ArchiveError::ZeroInterval);
    }

    let mut entries: Vec<Entry> = Vec::new();
    let mut committed_end = HEADER_LEN;
    let mut width: Pixel = 0;
    let mut height: usize = 0;
    let mut torn = None;
    let mut pos = HEADER_LEN;
    'scan: while pos < file_len {
        let mut prefix = [0u8; FRAME_PREFIX_LEN as usize];
        if !try_read_exact(storage, pos, &mut prefix)? {
            torn = Some(TornReason::Truncated);
            break;
        }
        if prefix[0] != FRAME_TAG {
            torn = Some(TornReason::BadTag);
            break;
        }
        let body_len = u32_at(&prefix, 1);
        let body_crc = u32_at(&prefix, 5);
        let after_prefix = pos + FRAME_PREFIX_LEN;
        // Plausibility cap before allocation: the body must fit in the
        // bytes that remain (a missing commit is classified separately).
        if u64::from(body_len) > file_len - after_prefix {
            torn = Some(TornReason::Truncated);
            break;
        }
        let mut body = vec![0u8; body_len as usize];
        if !try_read_exact(storage, after_prefix, &mut body)? {
            torn = Some(TornReason::Truncated);
            break;
        }
        if crc32(&body) != body_crc {
            torn = Some(TornReason::CrcMismatch);
            break;
        }
        let dims = (!entries.is_empty()).then_some((width, height));
        let parsed = match parse_body(&body, entries.len() as u32, dims) {
            Ok(p) => p,
            Err(reason) => {
                torn = Some(reason);
                break 'scan;
            }
        };
        let mut commit = [0u8; COMMIT_LEN as usize];
        if !try_read_exact(storage, after_prefix + u64::from(body_len), &mut commit)? {
            torn = Some(TornReason::Uncommitted);
            break;
        }
        if commit[0] != COMMIT_TAG
            || u32_at(&commit, 1) != parsed.seq
            || crc32(&commit[1..5]) != u32_at(&commit, 5)
        {
            torn = Some(TornReason::Uncommitted);
            break;
        }
        width = parsed.width;
        height = parsed.height;
        entries.push(Entry {
            offset: pos,
            body_len,
            keyframe: parsed.keyframe,
            changed: parsed.changed,
            runs: parsed.runs,
            sigs: parsed.sigs,
        });
        pos = after_prefix + u64::from(body_len) + COMMIT_LEN;
        committed_end = pos;
    }
    if entries.is_empty() {
        width = 0;
        height = 0;
    }
    Ok(Scan {
        interval: Some(interval),
        width,
        height,
        entries,
        committed_end,
        file_len,
        torn,
    })
}

fn encode_header(interval: usize) -> [u8; HEADER_LEN as usize] {
    let mut header = [0u8; HEADER_LEN as usize];
    header[..4].copy_from_slice(JOURNAL_MAGIC);
    header[4] = VERSION;
    header[5..9].copy_from_slice(&(interval as u32).to_le_bytes());
    let crc = crc32(&header[4..9]);
    header[9..13].copy_from_slice(&crc.to_le_bytes());
    header
}

impl<S: Storage> ArchiveFile<S> {
    /// Initialises a fresh journal on an **empty** `storage` with the
    /// options' keyframe interval. Syncs the header under
    /// [`FsyncPolicy::Always`].
    pub fn create_on(storage: S, opts: ArchiveOptions) -> Result<Self, ArchiveError> {
        let interval = opts.keyframe_interval.max(1);
        let mut archive = Self {
            storage,
            opts,
            interval,
            width: 0,
            height: 0,
            entries: Vec::new(),
            last: None,
            end: HEADER_LEN,
            unsynced: 0,
            recovery: RecoveryReport::default(),
            counters: Counters::default(),
        };
        archive.storage.set_len(0)?;
        archive.storage.seek(SeekFrom::Start(0))?;
        archive.storage.write_all(&encode_header(interval))?;
        if matches!(opts.fsync, FsyncPolicy::Always) {
            archive.sync()?;
        }
        Ok(archive)
    }

    /// Opens a journal, running torn-tail recovery: the longest valid
    /// committed prefix is kept, everything after it is truncated, and
    /// [`ArchiveFile::recovery`] reports what happened. An empty storage
    /// is initialised as a fresh journal; a storage holding only a prefix
    /// of a header (a crash during create) is reset to one. Requires
    /// write access (recovery truncates).
    pub fn open_on(storage: S, opts: ArchiveOptions) -> Result<Self, ArchiveError> {
        let mut storage = storage;
        if storage.byte_len()? == 0 {
            return Self::create_on(storage, opts);
        }
        let scan = scan(&mut storage)?;
        let Some(interval) = scan.interval else {
            // Torn header: nothing was ever committed. Reset to empty.
            let torn = scan.file_len;
            let mut archive = Self::create_on(storage, opts)?;
            archive.recovery = RecoveryReport {
                frames: 0,
                truncated_bytes: torn,
                reason: Some(TornReason::TornHeader),
                header_reset: true,
            };
            return Ok(archive);
        };
        let mut recovery = RecoveryReport {
            frames: scan.entries.len(),
            truncated_bytes: scan.file_len - scan.committed_end,
            reason: scan.torn,
            header_reset: false,
        };
        if scan.committed_end < scan.file_len {
            storage.set_len(scan.committed_end)?;
            if matches!(opts.fsync, FsyncPolicy::Always) {
                storage.sync_data()?;
            }
        } else {
            recovery.reason = None;
        }
        let mut archive = Self {
            storage,
            opts,
            interval,
            width: scan.width,
            height: scan.height,
            entries: scan.entries,
            last: None,
            end: scan.committed_end,
            unsynced: 0,
            recovery,
            counters: Counters::default(),
        };
        if !archive.entries.is_empty() {
            // Reconstruct (and signature-verify) the newest frame so
            // append stays incremental and committed-region corruption in
            // the live tail fails at open.
            archive.last = Some(archive.extract(archive.entries.len() - 1)?);
        }
        Ok(archive)
    }

    /// Migrates a legacy `RDA1` blob (see the crate docs) into a fresh
    /// journal on the **empty** `storage`, keeping the blob's own keyframe
    /// cadence. The whole blob is parsed before anything is written; then
    /// each frame is replayed, checked against the blob's signature index
    /// and appended, so a corrupt frame anywhere fails the migration.
    pub fn from_rda1(storage: S, blob: &[u8], fsync: FsyncPolicy) -> Result<Self, ArchiveError> {
        let (keyframe_interval, frames) = crate::parse_rda1(blob)?;
        let opts = ArchiveOptions {
            keyframe_interval,
            fsync,
        };
        let mut journal = Self::create_on(storage, opts)?;
        let mut current: Option<RleImage> = None;
        for (index, frame) in frames.into_iter().enumerate() {
            let img = if frame.keyframe {
                frame.payload
            } else {
                let mut img = current.take().expect("frame 0 parsed as a keyframe");
                apply_delta(&mut img, &frame.payload, index)?;
                img
            };
            check_signatures(&img, &frame.sigs, index)?;
            journal.append(&img)?;
            current = Some(img);
        }
        Ok(journal)
    }

    /// Frames committed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal holds no frames.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

    /// Keyframe cadence (from the journal header).
    #[must_use]
    pub fn keyframe_interval(&self) -> usize {
        self.interval
    }

    /// What open-time recovery found and did.
    #[must_use]
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Cumulative end offset (the byte after the commit record) of each
    /// committed frame — the exact boundaries where a crash flips a frame
    /// between committed and torn. Feeds crash-sweep plans
    /// (`workload::crash::CrashSweep::sampled`) and recovery assertions.
    #[must_use]
    pub fn frame_ends(&self) -> Vec<u64> {
        self.entries
            .iter()
            .map(|e| e.offset + e.footprint())
            .collect()
    }

    /// The stored signature index of frame `index`.
    pub fn signatures(&self, index: usize) -> Result<&[u64], ArchiveError> {
        self.entries
            .get(index)
            .map(|e| e.sigs.as_slice())
            .ok_or(ArchiveError::FrameOutOfRange {
                index,
                frames: self.entries.len(),
            })
    }

    /// Appends the next version of the image as one journal record plus a
    /// commit record — O(frame) I/O, no rewrite of earlier frames. The
    /// frame is durable per the [`FsyncPolicy`]. On an I/O error the
    /// in-memory state is unchanged and the torn bytes are cut back on a
    /// best-effort basis; the next append (or open) overwrites them.
    pub fn append(&mut self, frame: &RleImage) -> Result<AppendOutcome, ArchiveError> {
        if self.entries.is_empty() {
            self.width = frame.width();
            self.height = frame.height();
        } else if frame.width() != self.width || frame.height() != self.height {
            return Err(ArchiveError::DimensionMismatch {
                expected: (self.width, self.height),
                got: (frame.width(), frame.height()),
            });
        }
        let index = self.entries.len();
        let sigs = frame.row_signatures();
        let keyframe = index.is_multiple_of(self.interval);
        let (payload, changed) = if keyframe {
            (frame.clone(), self.height)
        } else {
            let prev = self
                .last
                .as_ref()
                .expect("non-empty journal has a last frame");
            delta(prev, frame, &sigs)?
        };
        let runs = payload.total_runs();

        let mut body = Vec::with_capacity(32 + 8 * self.height);
        body.extend_from_slice(&(index as u32).to_le_bytes());
        body.push(u8::from(keyframe));
        body.extend_from_slice(&self.width.to_le_bytes());
        put_varint(&mut body, self.height as u32);
        put_varint(&mut body, changed as u32);
        put_varint(&mut body, runs as u32);
        for sig in &sigs {
            body.extend_from_slice(&sig.to_le_bytes());
        }
        let rli = serialize::encode_image(&payload);
        put_varint(&mut body, rli.len() as u32);
        body.extend_from_slice(&rli);

        let mut record = Vec::with_capacity(body.len() + 18);
        record.push(FRAME_TAG);
        record.extend_from_slice(&(body.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&body).to_le_bytes());
        record.extend_from_slice(&body);
        record.push(COMMIT_TAG);
        record.extend_from_slice(&(index as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&(index as u32).to_le_bytes()).to_le_bytes());

        let offset = self.end;
        self.storage.seek(SeekFrom::Start(offset))?;
        if let Err(e) = self.storage.write_all(&record) {
            // Cut the torn bytes back so a later append starts clean; if
            // even that fails, open-time recovery handles it.
            let _ = self.storage.set_len(offset);
            if index == 0 {
                self.width = 0;
                self.height = 0;
            }
            return Err(e.into());
        }
        self.end = offset + record.len() as u64;
        self.counters.bytes_appended += record.len() as u64;
        self.counters.last_append_bytes = record.len() as u64;
        self.entries.push(Entry {
            offset,
            body_len: body.len() as u32,
            keyframe,
            changed,
            runs,
            sigs,
        });
        self.last = Some(frame.clone());
        match self.opts.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::OnClose => self.unsynced += 1,
        }
        Ok(AppendOutcome {
            frame: index,
            keyframe,
            changed_rows: changed,
        })
    }

    /// Reads and CRC-checks frame `index`'s payload from disk.
    fn read_payload(&mut self, index: usize) -> Result<RleImage, ArchiveError> {
        let (offset, body_len) = {
            let e = &self.entries[index];
            (e.offset, e.body_len)
        };
        let mut prefix = [0u8; FRAME_PREFIX_LEN as usize];
        let mut body = vec![0u8; body_len as usize];
        if !try_read_exact(&mut self.storage, offset, &mut prefix)?
            || prefix[0] != FRAME_TAG
            || u32_at(&prefix, 1) != body_len
            || !try_read_exact(&mut self.storage, offset + FRAME_PREFIX_LEN, &mut body)?
        {
            self.counters.crc_errors += 1;
            return Err(ArchiveError::CrcMismatch {
                frame: index,
                offset,
            });
        }
        if crc32(&body) != u32_at(&prefix, 5) {
            self.counters.crc_errors += 1;
            return Err(ArchiveError::CrcMismatch {
                frame: index,
                offset,
            });
        }
        let parsed = parse_body(&body, index as u32, Some((self.width, self.height)))
            .map_err(|_| ArchiveError::PayloadGeometry { frame: index })?;
        self.counters.records_replayed += 1;
        let payload = serialize::decode_image(&body[parsed.payload])?;
        if payload.width() != self.width || payload.height() != self.height {
            return Err(ArchiveError::PayloadGeometry { frame: index });
        }
        Ok(payload)
    }

    /// Reconstructs frame `index` bit-identically. The in-memory index
    /// holds each frame's byte offset, so extraction seeks straight to
    /// the governing keyframe and replays at most `keyframe_interval − 1`
    /// deltas — never a scan from frame 0. The reconstruction is verified
    /// against the stored signature index.
    pub fn extract(&mut self, index: usize) -> Result<RleImage, ArchiveError> {
        if index >= self.entries.len() {
            return Err(ArchiveError::FrameOutOfRange {
                index,
                frames: self.entries.len(),
            });
        }
        let key = (0..=index)
            .rev()
            .find(|&i| self.entries[i].keyframe)
            .expect("frame 0 is always a keyframe");
        let mut img = self.read_payload(key)?;
        for j in key + 1..=index {
            apply_delta(&mut img, &self.read_payload(j)?, j)?;
        }
        check_signatures(&img, &self.entries[index].sigs, index)?;
        Ok(img)
    }

    /// Rewrites the archive onto `target` with a new keyframe cadence,
    /// replaying and verifying every frame. The new journal is synced
    /// before this returns; `self` is not modified — the caller decides
    /// when (and whether) the compacted copy replaces the original.
    pub fn compact_into<T: Storage>(
        &mut self,
        target: T,
        keyframe_interval: usize,
    ) -> Result<ArchiveFile<T>, ArchiveError> {
        let mut out = ArchiveFile::create_on(
            target,
            ArchiveOptions {
                keyframe_interval,
                fsync: FsyncPolicy::OnClose,
            },
        )?;
        for i in 0..self.len() {
            let frame = self.extract(i)?;
            out.append(&frame)?;
        }
        out.sync()?;
        Ok(out)
    }

    /// Full filesystem-check: structural scan, then deep verification of
    /// every committed frame (payload CRC + geometry + replay + signature
    /// index). With `repair`, truncates the torn tail and — if a
    /// *committed* record is corrupt — cuts back to the last verifiable
    /// frame so the journal is consistent again (lost frames are
    /// reported, never silently dropped). An associated function rather
    /// than a method: fsck is what you run *before* trusting a file
    /// enough to open it.
    pub fn fsck(storage: &mut S, repair: bool) -> Result<FsckReport, ArchiveError> {
        let scan = scan(storage)?;
        let Some(_interval) = scan.interval else {
            // Torn create: no header, no frames. Repair = reset to empty.
            let mut report = FsckReport {
                frames: 0,
                verified: 0,
                torn_bytes: scan.file_len,
                torn_reason: Some(TornReason::TornHeader),
                first_corrupt: None,
                frames_lost: 0,
                repaired: repair,
                bytes: scan.file_len,
            };
            if repair {
                storage.set_len(0)?;
                storage.seek(SeekFrom::Start(0))?;
                storage.write_all(&encode_header(crate::DEFAULT_KEYFRAME_INTERVAL))?;
                storage.sync_data()?;
                report.bytes = HEADER_LEN;
            }
            return Ok(report);
        };
        let mut report = FsckReport {
            frames: scan.entries.len(),
            verified: 0,
            torn_bytes: scan.file_len - scan.committed_end,
            torn_reason: scan.torn,
            first_corrupt: None,
            frames_lost: 0,
            repaired: false,
            bytes: scan.file_len,
        };
        // Deep verify: one forward replay over all frames, checking each
        // reconstruction against its stored signature index.
        let mut current: Option<RleImage> = None;
        for (index, entry) in scan.entries.iter().enumerate() {
            let mut prefix = [0u8; FRAME_PREFIX_LEN as usize];
            let mut body = vec![0u8; entry.body_len as usize];
            let intact = try_read_exact(storage, entry.offset, &mut prefix)?
                && try_read_exact(storage, entry.offset + FRAME_PREFIX_LEN, &mut body)?
                && crc32(&body) == u32_at(&prefix, 5);
            let replayed = intact.then(|| {
                let parsed = parse_body(&body, index as u32, None).ok()?;
                let payload = serialize::decode_image(&body[parsed.payload]).ok()?;
                let frame = if entry.keyframe {
                    payload
                } else {
                    let mut img = current.take()?;
                    apply_delta(&mut img, &payload, index).ok()?;
                    img
                };
                check_signatures(&frame, &entry.sigs, index).ok()?;
                Some(frame)
            });
            let Some(frame) = replayed.flatten() else {
                report.first_corrupt = Some(index);
                break;
            };
            report.verified += 1;
            current = Some(frame);
        }
        if repair && !report.clean() {
            let keep_end = match report.first_corrupt {
                // Corruption inside the committed region: cut back to the
                // last frame that verified.
                Some(frame) => scan.entries[frame].offset,
                None => scan.committed_end,
            };
            report.frames_lost = scan.entries.len() - report.verified.min(scan.entries.len());
            storage.set_len(keep_end)?;
            storage.sync_data()?;
            report.repaired = true;
            report.bytes = keep_end;
        }
        Ok(report)
    }

    /// Flushes and fsyncs the journal now, regardless of policy.
    pub fn sync(&mut self) -> Result<(), ArchiveError> {
        self.storage.flush()?;
        self.storage.sync_data()?;
        self.counters.syncs += 1;
        self.unsynced = 0;
        Ok(())
    }

    /// Syncs (per `EveryN`/`OnClose` policies) and consumes the archive.
    /// Dropping without `close` is safe for committed data under
    /// `Always`; under the lazier policies it leaves durability to the
    /// OS.
    pub fn close(mut self) -> Result<(), ArchiveError> {
        if self.unsynced > 0 || matches!(self.opts.fsync, FsyncPolicy::OnClose) {
            self.sync()?;
        }
        Ok(())
    }

    /// Shape summary plus journal I/O counters.
    #[must_use]
    pub fn stat(&self) -> ArchiveStats {
        ArchiveStats {
            frames: self.entries.len(),
            keyframes: self.entries.iter().filter(|e| e.keyframe).count(),
            width: self.width,
            height: self.height,
            keyframe_interval: self.interval,
            delta_rows: self
                .entries
                .iter()
                .filter(|e| !e.keyframe)
                .map(|e| e.changed)
                .sum(),
            stored_runs: self.entries.iter().map(|e| e.runs).sum(),
            journal_bytes: self.end,
            recovered_tail_bytes: self.recovery.truncated_bytes,
            crc_errors: self.counters.crc_errors,
            records_replayed: self.counters.records_replayed,
            bytes_appended: self.counters.bytes_appended,
            last_append_bytes: self.counters.last_append_bytes,
            syncs: self.counters.syncs,
        }
    }

    /// Consumes the archive, returning its backing storage (no implicit
    /// sync — use [`ArchiveFile::close`] for that).
    #[must_use]
    pub fn into_storage(self) -> S {
        self.storage
    }
}

impl ArchiveFile<std::fs::File> {
    /// Opens (or creates) a journal at `path`, with recovery as in
    /// [`ArchiveFile::open_on`].
    pub fn open(path: impl AsRef<Path>, opts: ArchiveOptions) -> Result<Self, ArchiveError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Self::open_on(file, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use rle::RleRow;

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

    fn opts(interval: usize) -> ArchiveOptions {
        ArchiveOptions {
            keyframe_interval: interval,
            fsync: FsyncPolicy::Always,
        }
    }

    #[test]
    fn append_reopen_round_trips_every_frame() {
        let frames = sequence(21, 32, 7);
        let mut journal = ArchiveFile::create_on(MemStorage::new(), opts(5)).unwrap();
        for (i, f) in frames.iter().enumerate() {
            let outcome = journal.append(f).unwrap();
            assert_eq!(outcome.frame, i);
            assert_eq!(outcome.keyframe, i % 5 == 0);
        }
        let bytes = journal.into_storage().into_bytes();
        let mut back = ArchiveFile::open_on(MemStorage::from_bytes(bytes), opts(999)).unwrap();
        assert!(back.recovery().clean());
        assert_eq!(back.len(), frames.len());
        assert_eq!(
            back.keyframe_interval(),
            5,
            "interval comes from the header"
        );
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(&back.extract(i).unwrap(), f, "frame {i}");
        }
    }

    #[test]
    fn append_io_is_o_frame_not_o_archive() {
        let frames = sequence(40, 64, 16);
        let mut journal = ArchiveFile::create_on(MemStorage::new(), opts(8)).unwrap();
        let mut delta_costs = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            journal.append(f).unwrap();
            let stat = journal.stat();
            if !i.is_multiple_of(8) {
                delta_costs.push(stat.last_append_bytes);
            }
            // Every append's I/O is exactly one record, never a rewrite.
            assert!(stat.last_append_bytes < stat.journal_bytes || i == 0);
        }
        // Delta appends cost the same no matter how long the archive is.
        let (first, last) = (delta_costs[0], *delta_costs.last().unwrap());
        assert_eq!(first, last, "append cost must not grow with archive length");
    }

    #[test]
    fn extract_replays_at_most_one_interval() {
        let frames = sequence(50, 32, 8);
        let mut journal = ArchiveFile::create_on(MemStorage::new(), opts(8)).unwrap();
        for f in &frames {
            journal.append(f).unwrap();
        }
        let before = journal.stat().records_replayed;
        journal.extract(47).unwrap();
        let replayed = journal.stat().records_replayed - before;
        assert_eq!(replayed, 8, "frame 47: keyframe 40 + 7 deltas");
        assert!(replayed <= journal.keyframe_interval() as u64);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let frames = sequence(6, 16, 4);
        let mut journal = ArchiveFile::create_on(MemStorage::new(), opts(3)).unwrap();
        for f in &frames {
            journal.append(f).unwrap();
        }
        let committed_4 = journal.entries[4].offset;
        let bytes = journal.into_storage().into_bytes();
        // Cut mid-record of frame 4: frames 0–3 must survive.
        let torn = bytes[..committed_4 as usize + 5].to_vec();
        let torn_len = torn.len() as u64;
        let mut back = ArchiveFile::open_on(MemStorage::from_bytes(torn), opts(3)).unwrap();
        let report = *back.recovery();
        assert_eq!(report.frames, 4);
        assert_eq!(report.truncated_bytes, torn_len - committed_4);
        assert_eq!(report.reason, Some(TornReason::Truncated));
        for (i, f) in frames.iter().take(4).enumerate() {
            assert_eq!(&back.extract(i).unwrap(), f);
        }
        // Appends continue cleanly after recovery.
        back.append(&frames[4]).unwrap();
        assert_eq!(&back.extract(4).unwrap(), &frames[4]);
    }

    #[test]
    fn missing_commit_discards_the_frame() {
        let frames = sequence(3, 16, 4);
        let mut journal = ArchiveFile::create_on(MemStorage::new(), opts(10)).unwrap();
        for f in &frames {
            journal.append(f).unwrap();
        }
        let last_commit = journal.end - COMMIT_LEN;
        let bytes = journal.into_storage().into_bytes();
        // Frame record fully present, commit record cut: not committed.
        let torn = bytes[..last_commit as usize].to_vec();
        let mut back = ArchiveFile::open_on(MemStorage::from_bytes(torn), opts(10)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.recovery().reason, Some(TornReason::Uncommitted));
        assert_eq!(&back.extract(1).unwrap(), &frames[1]);
    }

    #[test]
    fn torn_header_resets_to_an_empty_journal() {
        for cut in 0..HEADER_LEN {
            let full = encode_header(7);
            let mut back = ArchiveFile::open_on(
                MemStorage::from_bytes(full[..cut as usize].to_vec()),
                opts(5),
            )
            .unwrap();
            assert!(back.is_empty(), "cut at {cut}");
            if cut > 0 {
                assert!(back.recovery().header_reset, "cut at {cut}");
            }
            assert_eq!(back.keyframe_interval(), 5, "reset uses the fallback");
            back.append(&sequence(1, 16, 2)[0]).unwrap();
        }
    }

    #[test]
    fn foreign_and_corrupt_headers_are_typed_errors() {
        assert!(matches!(
            ArchiveFile::open_on(MemStorage::from_bytes(b"RDA1junk".to_vec()), opts(4)),
            Err(ArchiveError::BadMagic)
        ));
        let mut header = encode_header(4).to_vec();
        header[5] ^= 0x10; // interval bit flip: caught by the header CRC
        assert!(matches!(
            ArchiveFile::open_on(MemStorage::from_bytes(header), opts(4)),
            Err(ArchiveError::HeaderCorrupt)
        ));
        let mut versioned = encode_header(4);
        versioned[4] = 9;
        let crc = crc32(&versioned[4..9]);
        versioned[9..13].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ArchiveFile::open_on(MemStorage::from_bytes(versioned.to_vec()), opts(4)),
            Err(ArchiveError::UnsupportedVersion { version: 9 })
        ));
    }

    #[test]
    fn fsync_policy_counts_syncs() {
        let frames = sequence(10, 16, 4);
        for (policy, want) in [
            (FsyncPolicy::Always, 11),   // header + every append
            (FsyncPolicy::EveryN(4), 3), // after frames 4, 8, close (2 unsynced)
            (FsyncPolicy::OnClose, 1),
        ] {
            let mut journal = ArchiveFile::create_on(
                MemStorage::new(),
                ArchiveOptions {
                    keyframe_interval: 4,
                    fsync: policy,
                },
            )
            .unwrap();
            for f in &frames {
                journal.append(f).unwrap();
            }
            let syncs_before_close = journal.stat().syncs;
            let total = match policy {
                FsyncPolicy::Always => syncs_before_close,
                _ => syncs_before_close + 1, // close adds the final sync
            };
            journal.close().unwrap();
            assert_eq!(total, want, "{policy:?}");
        }
    }

    #[test]
    fn import_migrates_an_rda1_archive() {
        // The legacy blob and the v1 journal fixture hold the same
        // 12-frame stream (recipe in `tests/delta_archive.rs`).
        let legacy = include_bytes!("../testdata/legacy.rda1");
        let v1 = include_bytes!("../testdata/v1.rda2").to_vec();
        let mut journal =
            ArchiveFile::from_rda1(MemStorage::new(), legacy, FsyncPolicy::OnClose).unwrap();
        let mut reference = ArchiveFile::open_on(MemStorage::from_bytes(v1), opts(4)).unwrap();
        assert_eq!(journal.len(), 12);
        for i in 0..12 {
            assert_eq!(
                journal.extract(i).unwrap(),
                reference.extract(i).unwrap(),
                "migrated frame {i}"
            );
        }
        // Keyframes stay on the blob's cadence: every 4th of 12.
        let stats = journal.stat();
        assert_eq!(journal.keyframe_interval(), 4);
        assert_eq!((stats.keyframes, stats.delta_rows), (3, 36));
    }

    #[test]
    fn compact_into_rekeys_without_touching_the_source() {
        let frames = sequence(17, 24, 5);
        let mut journal = ArchiveFile::create_on(MemStorage::new(), opts(100)).unwrap();
        for f in &frames {
            journal.append(f).unwrap();
        }
        assert_eq!(journal.stat().keyframes, 1);
        let mut compacted = journal.compact_into(MemStorage::new(), 4).unwrap();
        assert_eq!(compacted.stat().keyframes, 5);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(&compacted.extract(i).unwrap(), f, "compacted frame {i}");
            assert_eq!(&journal.extract(i).unwrap(), f, "source frame {i}");
        }
    }

    #[test]
    fn fsck_verifies_repairs_and_reports() {
        let frames = sequence(8, 16, 4);
        let mut journal = ArchiveFile::create_on(MemStorage::new(), opts(4)).unwrap();
        for f in &frames {
            journal.append(f).unwrap();
        }
        let entry_5 = journal.entries[5].offset;
        let mut clean = journal.into_storage();
        let report = ArchiveFile::<MemStorage>::fsck(&mut clean, false).unwrap();
        assert!(report.clean());
        assert_eq!(report.frames, 8);
        assert_eq!(report.verified, 8);

        // Torn tail: verify-only reports it, repair truncates it.
        let mut torn =
            MemStorage::from_bytes(clean.as_bytes()[..clean.as_bytes().len() - 3].to_vec());
        let report = ArchiveFile::<MemStorage>::fsck(&mut torn, false).unwrap();
        assert!(!report.clean());
        assert_eq!(report.frames, 7);
        assert!(report.torn_bytes > 0);
        let report = ArchiveFile::<MemStorage>::fsck(&mut torn, true).unwrap();
        assert!(report.repaired);
        assert_eq!(report.frames_lost, 0, "torn frames were never committed");
        let report = ArchiveFile::<MemStorage>::fsck(&mut torn, false).unwrap();
        assert!(report.clean(), "fsck after repair is clean");

        // Coherent mid-file corruption: flip a byte in frame 5's stored
        // signature index *and* recompute the body CRC, so the structural
        // scan passes and only deep replay-verify can catch it.
        let mut bytes = clean.as_bytes().to_vec();
        let body_start = (entry_5 + FRAME_PREFIX_LEN) as usize;
        let body_len = u32_at(&bytes, entry_5 as usize + 1) as usize;
        bytes[body_start + 14] ^= 0x40; // inside the sigs region
        let fixed = crc32(&bytes[body_start..body_start + body_len]);
        bytes[entry_5 as usize + 5..entry_5 as usize + 9].copy_from_slice(&fixed.to_le_bytes());
        let mut corrupt = MemStorage::from_bytes(bytes);
        let report = ArchiveFile::<MemStorage>::fsck(&mut corrupt, false).unwrap();
        assert!(!report.clean());
        assert_eq!(report.first_corrupt, Some(5));
        assert_eq!(report.frames, 8, "the scan itself saw all commits");
        let report = ArchiveFile::<MemStorage>::fsck(&mut corrupt, true).unwrap();
        assert!(report.repaired);
        assert_eq!(report.frames_lost, 3, "frames 5..8 cut back");
        let report = ArchiveFile::<MemStorage>::fsck(&mut corrupt, false).unwrap();
        assert!(report.clean());
        let mut back = ArchiveFile::open_on(corrupt, opts(4)).unwrap();
        assert_eq!(back.len(), 5);
        for (i, want) in frames.iter().enumerate().take(back.len()) {
            assert_eq!(&back.extract(i).unwrap(), want, "surviving frame {i}");
        }
    }

    #[test]
    fn out_of_range_is_typed() {
        let mut journal = ArchiveFile::create_on(MemStorage::new(), opts(4)).unwrap();
        assert!(matches!(
            journal.extract(0),
            Err(ArchiveError::FrameOutOfRange {
                index: 0,
                frames: 0
            })
        ));
        assert!(matches!(
            journal.signatures(0),
            Err(ArchiveError::FrameOutOfRange { .. })
        ));
    }
}
