//! End-to-end contract of the delta archive against realistic sequences:
//! a 100-frame churn-controlled stream must replay bit-identically from
//! every keyframe distance, survive a reopen, re-keyframe without content
//! drift, and reject corrupted bytes with typed errors — plus the edge
//! cases (out-of-range indexing, degenerate compaction, the keyframe
//! replay bound on a long archive), the per-row literal-or-XOR choice on
//! streams that mix redrawn and similar rows, the O(frame) append guard,
//! and the pinned formats: the legacy RDA1 fixture migrates into the
//! journal bit-identically, a fresh journal reproduces the version-2 RDA2
//! fixture byte for byte, and the version-1 fixture still reads.

use rle_systolic::archive::{ArchiveError, ArchiveFile, ArchiveOptions, FsyncPolicy, MemStorage};
use rle_systolic::rle::serialize::{decode_image, encode_image, get_varint};
use rle_systolic::rle::{RleImage, RleRow};
use rle_systolic::workload::errors::{apply_errors, ErrorModel};
use rle_systolic::workload::{FrameSequence, GenParams, SequenceParams};

/// A legacy `RDA1` blob, written once by the crate's last `RDA1` writer
/// (commit 6433a25, the in-memory archive with keyframe interval 4,
/// appending [`fixture_frames`] and serialising the whole blob). 3,297
/// bytes; regenerating it gave identical bytes.
const LEGACY: &[u8] = include_bytes!("../crates/archive/testdata/legacy.rda1");

/// The `RDA2` journal format, version 1 (XOR-only deltas), as the last
/// version-1 writer (commit 3a0dc23) wrote it for the same recipe as
/// [`V2`]. 3,635 bytes.
const V1: &[u8] = include_bytes!("../crates/archive/testdata/v1.rda2");

/// The `RDA2` journal format, version 2 (literal-or-XOR deltas):
/// [`fixture_frames`] appended to
/// `ArchiveFile::create_on(MemStorage::new(), opts(4))`. 3,268 bytes;
/// regenerating it gave identical bytes.
const V2: &[u8] = include_bytes!("../crates/archive/testdata/v2.rda2");

/// The stream both fixtures hold: 12 frames of 256×16 at 25 % churn.
fn fixture_frames() -> Vec<RleImage> {
    let params = SequenceParams {
        gen: GenParams::for_density(256, 0.3),
        height: 16,
        churn: 0.25,
    };
    FrameSequence::new(params, 0x1DA1).take_frames(12)
}

fn frames(n: usize, churn: f64, seed: u64) -> Vec<RleImage> {
    let params = SequenceParams {
        gen: GenParams::for_density(1_024, 0.3),
        height: 48,
        churn,
    };
    FrameSequence::new(params, seed).take_frames(n)
}

fn opts(keyframe_interval: usize) -> ArchiveOptions {
    ArchiveOptions {
        keyframe_interval,
        fsync: FsyncPolicy::OnClose,
    }
}

fn journal(keyframe_interval: usize) -> ArchiveFile<MemStorage> {
    ArchiveFile::create_on(MemStorage::new(), opts(keyframe_interval)).expect("create")
}

fn from_rda1(blob: &[u8]) -> Result<ArchiveFile<MemStorage>, ArchiveError> {
    ArchiveFile::from_rda1(MemStorage::new(), blob, FsyncPolicy::OnClose)
}

#[test]
fn hundred_frame_sequence_replays_bit_identically() {
    let stream = frames(100, 0.10, 0xA5C1);
    let mut store = journal(16);
    for (i, f) in stream.iter().enumerate() {
        let outcome = store.append(f).expect("append");
        assert_eq!(outcome.keyframe, i % 16 == 0);
        if !outcome.keyframe {
            // 10% churn of 48 rows = at most 5 redrawn rows per frame.
            assert!(
                outcome.changed_rows <= 5,
                "frame {i}: {}",
                outcome.changed_rows
            );
        }
    }
    // Every frame — keyframes, mid-chain deltas, the frame right before a
    // keyframe (the longest replay) — reconstructs exactly.
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(&store.extract(i).expect("extract"), f, "frame {i}");
    }
    // And again after a reopen of the journal bytes.
    let bytes = store.into_storage().into_bytes();
    let mut back = ArchiveFile::open_on(MemStorage::from_bytes(bytes), opts(16)).expect("reopen");
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(&back.extract(i).expect("extract"), f, "reopened frame {i}");
    }
    // The whole point: 10% churn stores ~10% of the rows (plus keyframes).
    let stats = back.stat();
    let full_rows = stats.frames * stats.height;
    let stored_rows = stats.keyframes * stats.height + stats.delta_rows;
    assert!(
        stored_rows * 4 < full_rows,
        "delta storage must be well under a quarter of full storage \
         ({stored_rows} of {full_rows} row-slots)"
    );
}

#[test]
fn compaction_rekeys_a_long_archive_without_drift() {
    let stream = frames(40, 0.25, 0xC0DE);
    // Written with a pathological interval: one keyframe, 39 deltas.
    let mut store = journal(1_000);
    for f in &stream {
        store.append(f).expect("append");
    }
    assert_eq!(store.stat().keyframes, 1);
    let mut store = store
        .compact_into(MemStorage::new(), 8)
        .expect("compact_into");
    assert_eq!(store.stat().keyframes, 5);
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(
            &store.extract(i).expect("extract"),
            f,
            "frame {i} after compact"
        );
    }
}

#[test]
fn corrupted_bytes_are_typed_errors_never_panics() {
    let stream = fixture_frames();

    // Every truncation point fails typed.
    for cut in 0..LEGACY.len() {
        assert!(
            from_rda1(&LEGACY[..cut]).is_err(),
            "prefix of {cut} bytes migrated"
        );
    }
    // A single-bit flip at any byte either fails typed or migrates frames
    // that are still exactly the source frames — never a panic, never a
    // wrong frame: migration replays every frame and checks it against
    // the signature index.
    for pos in 0..LEGACY.len() {
        let mut evil = LEGACY.to_vec();
        evil[pos] ^= 0x10;
        if let Ok(mut migrated) = from_rda1(&evil) {
            for (i, want) in stream.iter().enumerate().take(migrated.len()) {
                assert_eq!(
                    &migrated.extract(i).expect("extract"),
                    want,
                    "flip at {pos}, frame {i}"
                );
            }
        }
    }

    // Sweep until one flip trips the signature index, proving it is a real
    // integrity check, not decoration.
    let caught = (12..LEGACY.len()).any(|pos| {
        let mut evil = LEGACY.to_vec();
        evil[pos] ^= 0x01;
        matches!(
            from_rda1(&evil),
            Err(ArchiveError::SignatureMismatch { .. })
        )
    });
    assert!(caught, "no bit flip ever tripped the signature index");
}

/// Out-of-range indexing on empty and single-frame stores: always
/// `FrameOutOfRange` carrying the right bounds, never a panic or a wrong
/// frame.
#[test]
fn out_of_range_indexing_is_typed_on_empty_and_single_frame_stores() {
    let one = frames(1, 0.0, 0xE1).remove(0);

    let mut store = journal(4);
    assert_eq!(store.len(), 0);
    for probe in [0usize, 1, usize::MAX] {
        assert!(matches!(
            store.extract(probe),
            Err(ArchiveError::FrameOutOfRange { frames: 0, .. })
        ));
        assert!(matches!(
            store.signatures(probe),
            Err(ArchiveError::FrameOutOfRange { frames: 0, .. })
        ));
    }
    store.append(&one).expect("append");
    assert_eq!(&store.extract(0).expect("extract"), &one);
    assert_eq!(store.signatures(0).expect("sigs").len(), one.height());
    assert!(matches!(
        store.extract(1),
        Err(ArchiveError::FrameOutOfRange {
            index: 1,
            frames: 1
        })
    ));
    assert!(matches!(
        store.signatures(1),
        Err(ArchiveError::FrameOutOfRange {
            index: 1,
            frames: 1
        })
    ));
    assert!(matches!(
        store.signatures(usize::MAX),
        Err(ArchiveError::FrameOutOfRange { frames: 1, .. })
    ));
}

/// Compacting with an interval larger than the archive degenerates to
/// "one keyframe, everything else a delta" and stays bit-identical.
#[test]
fn compact_with_interval_beyond_the_archive_is_sound() {
    let stream = frames(6, 0.2, 0xC0);
    let mut store = journal(2);
    for f in &stream {
        store.append(f).expect("append");
    }
    assert_eq!(store.stat().keyframes, 3);
    let mut compacted = store
        .compact_into(MemStorage::new(), 1_000)
        .expect("compact_into");
    assert_eq!(
        compacted.stat().keyframes,
        1,
        "one governing keyframe is enough"
    );
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(&compacted.extract(i).expect("extract"), f, "frame {i}");
    }
}

/// RDA1 → RDA2 migration: the legacy fixture migrates on its own cadence
/// to exactly the frames it was written from — and to exactly the bytes a
/// fresh journal writes for them — and every frame survives the journal's
/// own recovery path after a reopen.
#[test]
fn rda1_blobs_migrate_into_the_journal_round_trip() {
    let stream = fixture_frames();
    let mut journal = from_rda1(LEGACY).expect("migrate");
    assert_eq!(journal.len(), stream.len());
    assert_eq!(journal.keyframe_interval(), 4, "the blob's cadence");
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(&journal.extract(i).expect("extract"), f, "migrated {i}");
    }
    journal.sync().expect("sync");
    let storage = journal.into_storage();
    assert!(storage.as_bytes() == V2, "migration wrote the v2 journal");
    let mut back = ArchiveFile::open_on(storage, opts(8)).expect("reopen");
    assert!(back.recovery().clean(), "migration left nothing torn");
    assert_eq!(back.len(), stream.len());
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(&back.extract(i).expect("extract"), f, "reopened {i}");
    }
}

/// The on-disk format is pinned: a fresh journal fed the fixture stream
/// writes the `v2.rda2` fixture byte for byte, and the fixture opens clean
/// and extracts that stream.
#[test]
fn rda2_bytes_match_the_v2_fixture() {
    let stream = fixture_frames();
    let mut fresh = journal(4);
    for f in &stream {
        fresh.append(f).expect("append");
    }
    assert!(
        fresh.into_storage().as_bytes() == V2,
        "journal bytes drifted from the v2 fixture"
    );
    let mut back =
        ArchiveFile::open_on(MemStorage::from_bytes(V2.to_vec()), opts(16)).expect("open");
    assert!(back.recovery().clean());
    assert_eq!((back.version(), back.keyframe_interval()), (2, 4));
    assert_eq!(back.len(), stream.len());
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(&back.extract(i).expect("extract"), f, "frame {i}");
    }
}

/// Version-1 journals stay readable: the `v1.rda2` fixture opens clean,
/// extracts the stream it was written from and passes `fsck`. It takes no
/// appends, and `compact_into` at its own interval migrates it to exactly
/// the bytes a fresh version-2 journal writes.
#[test]
fn v1_fixture_reads_fscks_and_migrates() {
    let stream = fixture_frames();
    let mut storage = MemStorage::from_bytes(V1.to_vec());
    let report = ArchiveFile::<MemStorage>::fsck(&mut storage, false).expect("fsck");
    assert!(report.clean(), "{report:?}");
    assert_eq!((report.frames, report.verified), (12, 12));
    let mut v1 = ArchiveFile::open_on(storage, opts(16)).expect("open");
    assert!(v1.recovery().clean());
    assert_eq!((v1.version(), v1.keyframe_interval()), (1, 4));
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(&v1.extract(i).expect("extract"), f, "frame {i}");
    }
    assert_eq!(
        v1.append(&stream[0]),
        Err(ArchiveError::ReadOnlyVersion { version: 1 })
    );
    let stats = v1.stat();
    assert_eq!((stats.frames, stats.stored_runs), (12, 705));
    let interval = v1.keyframe_interval();
    let migrated = v1
        .compact_into(MemStorage::new(), interval)
        .expect("compact_into");
    assert_eq!(migrated.version(), 2);
    assert!(
        migrated.into_storage().as_bytes() == V2,
        "migration wrote the v2 journal"
    );
    assert!(
        v1.into_storage().as_bytes() == V1,
        "the source is untouched"
    );
}

/// The replay bound on a genuinely long archive: 200 frames, interval 16,
/// and the worst-case extraction (the frame right before a keyframe)
/// replays exactly `interval` records — seek to the governing keyframe,
/// never a scan from frame 0.
#[test]
fn long_archive_extraction_replays_at_most_one_interval() {
    const N: usize = 200;
    const INTERVAL: usize = 16;
    let stream = frames(N, 0.2, 0x10_06);
    let mut journal = journal(INTERVAL);
    for f in &stream {
        journal.append(f).expect("append");
    }
    // Worst case: the last frame of a full chain (191 = 12·16 − 1 → its
    // keyframe is 176, fifteen deltas behind).
    let worst = 12 * INTERVAL - 1;
    let before = journal.stat().records_replayed;
    assert_eq!(&journal.extract(worst).expect("extract"), &stream[worst]);
    let replayed = journal.stat().records_replayed - before;
    assert_eq!(
        replayed, INTERVAL as u64,
        "worst-case extract must replay exactly one interval"
    );
    // And the best case — a keyframe — replays exactly one record, no
    // matter how deep in the archive it sits.
    let key = 11 * INTERVAL;
    let before = journal.stat().records_replayed;
    assert_eq!(&journal.extract(key).expect("extract"), &stream[key]);
    assert_eq!(journal.stat().records_replayed - before, 1);
}

#[test]
fn zero_churn_archives_are_tiny() {
    let stream = frames(20, 0.0, 0x5AFE);
    let mut store = journal(10);
    for f in &stream {
        store.append(f).expect("append");
    }
    let stats = store.stat();
    assert_eq!(stats.delta_rows, 0, "nothing changed, nothing stored");
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(&store.extract(i).expect("extract"), f, "frame {i}");
    }
}

/// One frame record of a journal, as its bytes say (format in
/// `archive::journal`).
struct Record {
    keyframe: bool,
    /// The literal bitmap (empty for an `0xF1` record).
    literal: Vec<u8>,
    payload: RleImage,
}

impl Record {
    fn is_literal(&self, row: usize) -> bool {
        self.literal
            .get(row / 8)
            .is_some_and(|b| b >> (row % 8) & 1 != 0)
    }
}

/// Walks a clean journal's records: a 13-byte header, then per frame a
/// tag, body length, body CRC, the body and a 9-byte commit.
fn records(bytes: &[u8]) -> Vec<Record> {
    let u32_at = |pos: usize| u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
    let mut out = Vec::new();
    let mut pos = 13;
    while pos < bytes.len() {
        let tag = bytes[pos];
        assert!(tag == 0xF1 || tag == 0xF2, "tag {tag:#x} at {pos}");
        let body = &bytes[pos + 9..pos + 9 + u32_at(pos + 1) as usize];
        let keyframe = body[4] & 1 != 0;
        let mut p = 9;
        let height = get_varint(body, &mut p).unwrap() as usize;
        get_varint(body, &mut p).unwrap(); // changed
        get_varint(body, &mut p).unwrap(); // runs
        p += 8 * height;
        let literal = if tag == 0xF2 {
            p += height.div_ceil(8);
            body[p - height.div_ceil(8)..p].to_vec()
        } else {
            Vec::new()
        };
        let len = get_varint(body, &mut p).unwrap() as usize;
        assert_eq!(p + len, body.len(), "payload ends the body");
        out.push(Record {
            keyframe,
            literal,
            payload: decode_image(&body[p..]).unwrap(),
        });
        pos += 9 + body.len() + 9;
    }
    out
}

/// A stream whose delta records mix the two kinds of changed row:
/// `FrameSequence` redraws at `churn` (unrelated rows, where the literal is
/// smaller) and, on a quarter of the other rows per frame, 2 error runs of
/// 3 pixels from the paper's error injector (similar rows, where the XOR is
/// smaller). Errors accumulate, and a redraw overwrites them.
fn mixed_frames(n: usize, churn: f64, seed: u64) -> Vec<RleImage> {
    let params = SequenceParams {
        gen: GenParams::for_density(1_024, 0.3),
        height: 24,
        churn,
    };
    let mut seq = FrameSequence::new(params, seed);
    let mut base = seq.next_frame();
    let mut cur = base.clone();
    let mut out = vec![cur.clone()];
    for t in 1..n {
        let next = seq.next_frame();
        for y in 0..cur.height() {
            let row = if base.rows()[y] != next.rows()[y] {
                next.rows()[y].clone()
            } else if (y + t) % 4 == 0 {
                let salt = seed ^ (t * 1_000 + y) as u64;
                apply_errors(&cur.rows()[y], &ErrorModel::fixed(2, 3), salt)
            } else {
                continue;
            };
            cur.set_row(y, row).unwrap();
        }
        base = next;
        out.push(cur.clone());
    }
    out
}

/// Every delta record of `bytes` stores each changed row of `stream` as
/// its XOR exactly when the XOR has fewer runs than the row (the literal
/// otherwise, a tie included), and leaves unchanged rows empty and clear.
/// Returns how many changed rows went each way, (XOR, literal).
fn assert_literal_or_xor(bytes: &[u8], stream: &[RleImage], label: &str) -> (usize, usize) {
    let mut tally = (0, 0);
    let recs = records(bytes);
    assert_eq!(recs.len(), stream.len(), "{label}");
    for (t, rec) in recs.iter().enumerate().filter(|(_, r)| !r.keyframe) {
        for (y, stored) in rec.payload.rows().iter().enumerate() {
            let (prev, row) = (&stream[t - 1].rows()[y], &stream[t].rows()[y]);
            let at = format!("{label}, frame {t}, row {y}");
            if prev == row {
                assert!(!rec.is_literal(y) && stored.is_empty(), "{at}: unchanged");
                continue;
            }
            let xor = rle_systolic::rle::ops::xor(prev, row);
            if xor.run_count() < row.run_count() {
                assert!(!rec.is_literal(y), "{at}: XOR expected");
                assert_eq!(stored, &xor, "{at}");
                tally.0 += 1;
            } else {
                assert!(rec.is_literal(y), "{at}: literal expected");
                assert_eq!(stored, row, "{at}");
                tally.1 += 1;
            }
        }
    }
    tally
}

/// Every frame of `stream` extracts bit-identically from `store`.
fn assert_extracts(store: &mut ArchiveFile<MemStorage>, stream: &[RleImage], label: &str) {
    assert_eq!(store.len(), stream.len(), "{label}");
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(&store.extract(i).expect("extract"), f, "{label}: frame {i}");
    }
}

/// The per-row choice and its replay on mixed streams at churn 0, 1 %,
/// 40 % and 100 %: every changed row is stored the smaller way, and every
/// frame, at every replay depth 0–7, extracts bit-identically — fresh,
/// after a reopen, and after `compact_into` onto another cadence.
#[test]
fn mixed_streams_store_each_row_the_smaller_way_and_replay_exactly() {
    for (churn, seed) in [(0.0, 0xA0), (0.01, 0xA1), (0.4, 0xA4), (1.0, 0xAF)] {
        let label = format!("churn {churn}");
        let stream = mixed_frames(24, churn, seed);
        let mut store = journal(8);
        for f in &stream {
            store.append(f).expect("append");
        }
        assert_extracts(&mut store, &stream, &label);
        let bytes = store.into_storage().into_bytes();
        let (xors, literals) = assert_literal_or_xor(&bytes, &stream, &label);
        // Similar rows go by XOR whenever a frame has any; full churn
        // redraws every row, so each one is a literal.
        if churn < 1.0 {
            assert!(xors > 0, "{label}: no row stored as XOR");
        } else {
            assert_eq!(xors, 0, "{label}");
        }
        if churn > 0.0 {
            assert!(literals > 0, "{label}: no row stored as a literal");
        }
        let mut back = ArchiveFile::open_on(MemStorage::from_bytes(bytes), opts(8)).expect("open");
        assert_extracts(&mut back, &stream, &format!("{label}, reopened"));
        let mut compacted = back.compact_into(MemStorage::new(), 5).expect("compact");
        assert_extracts(&mut compacted, &stream, &format!("{label}, compacted"));
        let bytes = compacted.into_storage().into_bytes();
        assert_literal_or_xor(&bytes, &stream, &format!("{label}, compacted"));
    }
}

/// Two edge cases of the literal bitmap: a row cleared to empty is a set
/// bit over an empty payload row, never "unchanged", and a row that
/// returns to an earlier value replays to exactly that value — by literal
/// from empty (the XOR would tie the row's runs), by XOR from a similar
/// row.
#[test]
fn cleared_and_returning_rows_replay_exactly() {
    let row = |pairs: &[(u32, u32)]| RleRow::from_pairs(64, pairs).unwrap();
    let comb = [(0, 4), (10, 4), (20, 4), (30, 4)];
    let dotted = [(0, 4), (10, 4), (20, 4), (30, 4), (40, 1)];
    let frame = |r0: &[(u32, u32)], r1: &[(u32, u32)]| {
        RleImage::from_rows(64, vec![row(r0), row(r1), row(&[(5, 5)])]).unwrap()
    };
    let stream = vec![
        frame(&comb, &comb),
        frame(&[], &comb),     // row 0 cleared
        frame(&comb, &comb),   // row 0 returns, from empty
        frame(&comb, &dotted), // row 1 gains a pixel
        frame(&comb, &comb),   // row 1 returns, from a similar row
    ];
    let mut store = journal(100);
    for f in &stream {
        store.append(f).expect("append");
    }
    assert_extracts(&mut store, &stream, "fresh");
    let bytes = store.into_storage().into_bytes();
    assert_eq!(assert_literal_or_xor(&bytes, &stream, "edges"), (2, 2));
    let recs = records(&bytes);
    assert!(recs[1].is_literal(0) && recs[1].payload.rows()[0].is_empty());
    assert_eq!(recs[2].payload.rows()[0], row(&comb));
    for t in [3, 4] {
        assert!(!recs[t].is_literal(1));
        assert_eq!(recs[t].payload.rows()[1], row(&[(40, 1)]), "frame {t}");
    }
    let mut back = ArchiveFile::open_on(MemStorage::from_bytes(bytes), opts(100)).expect("open");
    assert_extracts(&mut back, &stream, "reopened");
    let mut compacted = back.compact_into(MemStorage::new(), 2).expect("compact");
    assert_extracts(&mut compacted, &stream, "compacted");
}

/// E17's byte-counter guards (2048×128, 48 frames at 10 % churn, a
/// keyframe every 16): every append writes O(frame) bytes, flat across
/// the archive's growth, while a whole-file rewrite grows with it, and
/// every frame extracts bit-identically. Plus the literal-or-XOR bound: no
/// delta record stores more runs than its changed rows would as literals.
#[test]
fn journal_appends_are_o_frame_and_never_exceed_literal_runs() {
    let (width, height, frames) = (2_048, 128, 48);
    let params = SequenceParams {
        gen: GenParams::with_runs(width, (2, 4), 0.3),
        height,
        churn: 0.10,
    };
    let stream = FrameSequence::new(params, 0xE17).take_frames(frames);
    let max_frame_bytes = stream.iter().map(|f| encode_image(f).len()).max().unwrap();
    let mut store = journal(16);
    let (mut journal_bytes, mut rewrite_bytes) = (Vec::new(), Vec::new());
    let mut stored_runs = 0;
    for (i, f) in stream.iter().enumerate() {
        let outcome = store.append(f).expect("append");
        let stats = store.stat();
        journal_bytes.push(stats.last_append_bytes);
        rewrite_bytes.push(stats.journal_bytes);
        let runs = stats.stored_runs - stored_runs;
        stored_runs = stats.stored_runs;
        if !outcome.keyframe {
            let prev = &stream[i - 1];
            let literal_runs: usize = (prev.rows().iter().zip(f.rows()))
                .filter(|(a, b)| a != b)
                .map(|(_, b)| b.run_count())
                .sum();
            assert!(
                runs <= literal_runs,
                "frame {i} stores {runs} runs, its changed rows as literals {literal_runs}"
            );
        }
    }
    let max_append = *journal_bytes.iter().max().unwrap();
    let bound = 2 * max_frame_bytes as u64 + 64;
    assert!(
        max_append <= bound,
        "an append wrote {max_append} bytes, over the O(frame) bound {bound}"
    );
    let q = frames / 4;
    let first_max = *journal_bytes[..q].iter().max().unwrap();
    let last_max = *journal_bytes[frames - q..].iter().max().unwrap();
    assert!(
        last_max <= first_max * 2,
        "append cost grew with the archive: {first_max} -> {last_max}"
    );
    let (rewrite_first, rewrite_last) = (rewrite_bytes[q - 1], *rewrite_bytes.last().unwrap());
    assert!(
        rewrite_last > rewrite_first * 2,
        "a whole-file rewrite should grow with the archive: {rewrite_first} -> {rewrite_last}"
    );
    assert_extracts(&mut store, &stream, "e17 smoke");
}
