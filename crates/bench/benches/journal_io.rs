//! Experiment E17: append cost of the RDA2 archive journal.
//!
//! The journal's contract is that `append` performs O(frame) I/O — one
//! frame record plus a 9-byte commit, regardless of how many frames the
//! archive already holds. A whole-file store (what `rlediff archive
//! append` did with RDA1 blobs before the journal) rewrites the entire
//! archive on every append, paying O(archive) instead. This bench
//! demonstrates both claims with *byte counters*, not wall-clock:
//! counters are exact and deterministic, so the result is meaningful even
//! on a noisy or single-core host.
//!
//! For a churn-controlled frame stream it appends every frame to an
//! in-memory journal, recording `last_append_bytes` per append, and takes
//! the whole-file-rewrite baseline as the journal's committed size after
//! each append — what rewriting the whole file would have cost. The
//! guards assert the journal's per-append bytes are bounded by the frame
//! size (flat across the archive's growth) while the rewrite bytes grow
//! with the archive.
//!
//! Results merge into `BENCH_delta.json` under a `"journal"` key — the
//! rest of that file (E16's timing sweep) is left untouched. Set
//! `BENCH_SMOKE=1` for a seconds-scale guard-only run.

use std::fmt::Write as _;

use archive::{ArchiveFile, ArchiveOptions, FsyncPolicy, MemStorage};
use workload::{FrameSequence, GenParams, SequenceParams};

const WIDTH: u32 = 8_192;
const HEIGHT: usize = 512;
const FRAMES: usize = 200;
const CHURN: f64 = 0.10;
const KEYFRAME_INTERVAL: usize = 16;

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0");
    let (width, height, frames) = if smoke {
        (2_048, 128, 48)
    } else {
        (WIDTH, HEIGHT, FRAMES)
    };
    println!(
        "journal_io{}: {width}x{height}, {frames} frames, churn {CHURN}, keyframe every {KEYFRAME_INTERVAL}",
        if smoke { " (smoke)" } else { "" },
    );

    let params = SequenceParams {
        gen: GenParams::with_runs(width, (2, 4), 0.3),
        height,
        churn: CHURN,
    };
    let stream = FrameSequence::new(params, 0xE17).take_frames(frames);
    let max_frame_bytes = stream
        .iter()
        .map(|f| rle::serialize::encode_image(f).len())
        .max()
        .unwrap_or(0);

    let opts = ArchiveOptions {
        keyframe_interval: KEYFRAME_INTERVAL,
        fsync: FsyncPolicy::OnClose,
    };
    let mut journal = ArchiveFile::create_on(MemStorage::new(), opts).expect("create");

    // Per-append bytes for both strategies. `legacy_bytes[i]` is what a
    // whole-file store writes back to disk after append i: the entire
    // archive.
    let mut journal_bytes = Vec::with_capacity(frames);
    let mut legacy_bytes = Vec::with_capacity(frames);
    for f in &stream {
        journal.append(f).expect("journal append");
        let stats = journal.stat();
        journal_bytes.push(stats.last_append_bytes);
        legacy_bytes.push(stats.journal_bytes);
    }

    // The O(frame) guard: no append — first or last, keyframe or delta —
    // writes more than one frame record. (2x covers record framing plus
    // the sequence's churn variance; the point is it does not scale with
    // the archive.)
    let max_append = *journal_bytes.iter().max().unwrap();
    let bound = 2 * max_frame_bytes as u64 + 64;
    assert!(
        max_append <= bound,
        "journal append wrote {max_append} bytes, over the O(frame) bound {bound}"
    );
    // And it is flat: the most expensive append in the last quarter of the
    // stream costs no more than the most expensive in the first quarter
    // (both quarters contain keyframes, the worst case).
    let q = frames / 4;
    let first_max = *journal_bytes[..q].iter().max().unwrap();
    let last_max = *journal_bytes[frames - q..].iter().max().unwrap();
    assert!(
        last_max <= first_max.saturating_mul(2),
        "append cost grew with archive length: first-quarter max {first_max}, \
         last-quarter max {last_max}"
    );
    // The rewrite strategy, by contrast, grows with the archive.
    let legacy_first = legacy_bytes[q - 1];
    let legacy_last = *legacy_bytes.last().unwrap();
    assert!(
        legacy_last > legacy_first.saturating_mul(2),
        "whole-blob rewrite should scale with the archive: {legacy_first} -> {legacy_last}"
    );

    let journal_total: u64 = journal_bytes.iter().sum();
    let legacy_total: u64 = legacy_bytes.iter().sum();
    let ratio = legacy_total as f64 / journal_total.max(1) as f64;
    let stats = journal.stat();
    println!(
        "  journal : {journal_total} bytes written over {frames} appends \
         (max single append {max_append}, file ends at {} bytes)",
        stats.journal_bytes
    );
    println!("  rewrite : {legacy_total} bytes for the same stream ({ratio:.1}x more I/O)");

    // Bit-identity backstop: the counters only matter if the journal holds
    // the same frames.
    for (i, f) in stream.iter().enumerate() {
        assert_eq!(&journal.extract(i).expect("extract"), f, "frame {i}");
    }

    if smoke {
        println!("smoke run: guards passed; BENCH_delta.json left untouched");
        return;
    }

    let mut entry = String::new();
    let _ = write!(
        entry,
        ",\n  \"journal\": {{\"width\": {width}, \"height\": {height}, \"frames\": {frames}, \
         \"churn\": {CHURN}, \"keyframe_interval\": {KEYFRAME_INTERVAL}, \
         \"bytes_per_append_max\": {max_append}, \"bytes_per_append_first_quarter_max\": {first_max}, \
         \"bytes_per_append_last_quarter_max\": {last_max}, \"journal_total_bytes\": {journal_total}, \
         \"rewrite_total_bytes\": {legacy_total}, \"rewrite_vs_journal\": {ratio:.3}}}\n}}\n"
    );

    // Merge into BENCH_delta.json: drop any previous "journal" key (and
    // the closing brace), then append ours. E16's churn sweep is the
    // expensive part of that file; never regenerate it from here.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_delta.json");
    match std::fs::read_to_string(path) {
        Ok(mut text) => {
            let cut = text
                .find(",\n  \"journal\"")
                .or_else(|| text.rfind('}'))
                .unwrap_or(text.len());
            text.truncate(cut);
            text.push_str(&entry);
            match std::fs::write(path, &text) {
                Ok(()) => println!("merged \"journal\" into {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
        Err(e) => eprintln!("could not read {path} (run the frame_sequence bench first): {e}"),
    }
}
