//! End-to-end contract of the delta archive against realistic sequences:
//! a 100-frame churn-controlled stream must replay bit-identically from
//! every keyframe distance, survive a reopen, re-keyframe without content
//! drift, and reject corrupted bytes with typed errors — plus the edge
//! cases (out-of-range indexing, degenerate compaction, the keyframe
//! replay bound on a long archive) and the two pinned formats: the legacy
//! RDA1 fixture migrates into the journal bit-identically, and a fresh
//! journal reproduces the RDA2 fixture byte for byte.

use rle_systolic::archive::{ArchiveError, ArchiveFile, ArchiveOptions, FsyncPolicy, MemStorage};
use rle_systolic::rle::RleImage;
use rle_systolic::workload::{FrameSequence, GenParams, SequenceParams};

/// A legacy `RDA1` blob, written once by the crate's last `RDA1` writer
/// (commit 6433a25, the in-memory archive with keyframe interval 4,
/// appending [`fixture_frames`] and serialising the whole blob). 3,297
/// bytes; regenerating it gave identical bytes.
const LEGACY: &[u8] = include_bytes!("../crates/archive/testdata/legacy.rda1");

/// The `RDA2` journal format, version 1: [`fixture_frames`] appended to
/// `ArchiveFile::create_on(MemStorage::new(), opts(4))`. 3,635 bytes.
const V1: &[u8] = include_bytes!("../crates/archive/testdata/v1.rda2");

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
    assert!(storage.as_bytes() == V1, "migration wrote the v1 journal");
    let mut back = ArchiveFile::open_on(storage, opts(8)).expect("reopen");
    assert!(back.recovery().clean(), "migration left nothing torn");
    assert_eq!(back.len(), stream.len());
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(&back.extract(i).expect("extract"), f, "reopened {i}");
    }
}

/// The on-disk format is pinned: a fresh journal fed the fixture stream
/// writes the `v1.rda2` fixture byte for byte, and the fixture opens clean
/// and extracts that stream.
#[test]
fn rda2_bytes_match_the_v1_fixture() {
    let stream = fixture_frames();
    let mut fresh = journal(4);
    for f in &stream {
        fresh.append(f).expect("append");
    }
    assert!(
        fresh.into_storage().as_bytes() == V1,
        "journal bytes drifted from the v1 fixture"
    );
    let mut back =
        ArchiveFile::open_on(MemStorage::from_bytes(V1.to_vec()), opts(16)).expect("open");
    assert!(back.recovery().clean());
    assert_eq!(back.keyframe_interval(), 4);
    assert_eq!(back.len(), stream.len());
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(&back.extract(i).expect("extract"), f, "frame {i}");
    }
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
