//! The frame workloads: a frame stream diffed and archived in process.
//!
//! Frames reach the system as encoded bytes and are decoded outside the
//! timed region, so every row signature starts cold, as in real ingest.
//! One step diffs the new frame against the previous one through a
//! `DiffPipeline` with the signature prefilter at its default threshold,
//! appends it to a file-backed journal, and on every 4th step extracts an
//! earlier frame. Extract targets cycle through shuffled rounds of replay
//! depths 0–15, so every depth occurs equally often.
//!
//! The journal is bounded: once it holds [`SEGMENT_FRAMES`] frames it is
//! replaced, outside any timed interval, by a fresh journal holding the
//! last [`WARM_FRAMES`] frames again. Appended frames keep their sequence
//! order, so churn between consecutive frames never changes.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use archive::{ArchiveFile, ArchiveOptions, ArchiveStats, FsyncPolicy};
use rle::serialize::{decode_image, encode_image};
use rle::RleImage;
use systolic_core::{DiffPipelineConfig, SigPrefilterMode};
use workload::FrameSequence;

use crate::trace::{Trace, Tracer};
use crate::wire::Pair;
use crate::{mix, Plan, Setups, Window};

/// Keyframe cadence of the journal.
pub const KEYFRAME_INTERVAL: usize = archive::DEFAULT_KEYFRAME_INTERVAL;
/// Frames in the journal that set-up opens and every replacement journal
/// starts with: two keyframe intervals, so every replay depth exists.
pub const WARM_FRAMES: usize = 2 * KEYFRAME_INTERVAL;
/// Frames at which the journal is replaced.
pub const SEGMENT_FRAMES: usize = WARM_FRAMES + 8 * KEYFRAME_INTERVAL;
/// Every this-many steps ends with an extract.
pub const EXTRACT_EVERY: u64 = 4;

/// The next frame of `seq`, as the bytes it arrives in.
fn next_bytes(seq: &mut FrameSequence) -> Vec<u8> {
    encode_image(&seq.next_frame())
}

/// `n` consecutive frame pairs of `seq`, each decoded from its bytes so
/// its row signatures start cold, for the layer replays.
pub fn replay_pairs(seq: &mut FrameSequence, n: usize) -> Vec<Pair> {
    let decode = |seq: &mut FrameSequence| {
        Arc::new(decode_image(&next_bytes(seq)).expect("the sequence encodes valid frames"))
    };
    let mut prev = decode(seq);
    (0..n)
        .map(|_| {
            let cur = decode(seq);
            Pair::new(std::mem::replace(&mut prev, Arc::clone(&cur)), cur)
        })
        .collect()
}

/// Everything one frames run measured.
#[derive(Debug, Default)]
pub struct FramesRun {
    /// Duration of each set-up (pipeline build + journal open), s.
    pub setup_s: Vec<f64>,
    /// The journal-open part of each set-up, ms.
    pub open_ms: Vec<f64>,
    /// Duration of each correct step (diff + append + extract when due),
    /// per window.
    pub windows: Vec<Window>,
    /// Spans of the traced windows.
    pub trace: Trace,
    /// Operations issued (steps), warm-up included.
    pub attempted: u64,
    /// Steps with an error or a wrong output.
    pub failed: u64,
    /// Steps with a wrong output.
    pub wrong: u64,
    /// Journal bytes per appended frame over complete keyframe intervals.
    pub bytes_per_frame: f64,
    /// Steps inside measurement windows.
    pub frames: u64,
    /// Rows diffed in those steps.
    pub rows: u64,
    /// Rows the prefilter resolved by signature.
    pub rows_skipped: u64,
    /// Rows that ran a kernel, inline or on a worker.
    pub rows_to_kernels: u64,
    /// Steps whose diff ran with the prefilter bypassed.
    pub bypassed: u64,
    /// Appends over the load phase.
    pub appends: u64,
    /// Bytes those appends wrote.
    pub append_bytes: u64,
    /// Fsyncs those appends issued.
    pub syncs: u64,
    /// Extracts over the load phase.
    pub extracts: u64,
    /// Journal records those extracts decoded.
    pub records_replayed: u64,
}

/// What an extract must reproduce: the source frame's row signatures and
/// a hash of its bytes.
struct Check {
    sigs: Vec<u64>,
    hash: u64,
}

impl Check {
    fn of(frame: &RleImage, bytes: &[u8]) -> Self {
        Self {
            sigs: frame.row_signatures(),
            hash: hash(bytes),
        }
    }

    fn matches(&self, frame: &RleImage) -> bool {
        frame.row_signatures() == self.sigs && hash(&encode_image(frame)) == self.hash
    }
}

/// Whether `diff` is `prev.xor(cur)`. Rows the stream carried over
/// unchanged must diff to empty; every other row is checked against the
/// reference merge `rle::ops::xor`.
fn matches_reference(prev: &RleImage, cur: &RleImage, diff: &RleImage) -> bool {
    diff.width() == cur.width()
        && diff.height() == cur.height()
        && prev
            .rows()
            .iter()
            .zip(cur.rows())
            .zip(diff.rows())
            .all(|((a, b), d)| {
                if a == b {
                    d.is_empty()
                } else {
                    *d == rle::ops::xor(a, b)
                }
            })
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// Shuffled rounds of the replay depths `0..KEYFRAME_INTERVAL`.
struct Depths {
    state: u64,
    round: Vec<usize>,
}

impl Depths {
    fn next(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = (0..KEYFRAME_INTERVAL).collect();
            for i in (1..self.round.len()).rev() {
                self.state = mix(self.state, i as u64);
                self.round.swap(i, (self.state % (i as u64 + 1)) as usize);
            }
        }
        self.round.pop().expect("a round was just dealt")
    }
}

/// The live journal plus what its frames must extract to.
struct Journal {
    archive: ArchiveFile<std::fs::File>,
    /// Its I/O counters right after open, which itself replays frames.
    opened: ArchiveStats,
    checks: Vec<Check>,
    /// Bytes written by each load-phase append into this journal.
    appended: Vec<u64>,
}

impl Journal {
    fn new(archive: ArchiveFile<std::fs::File>, checks: Vec<Check>) -> Self {
        Self {
            opened: archive.stat(),
            archive,
            checks,
            appended: Vec::new(),
        }
    }

    fn open(path: &Path, checks: Vec<Check>) -> Result<Self, String> {
        let archive = ArchiveFile::open(path, OPTIONS).map_err(|e| format!("open: {e}"))?;
        Ok(Self::new(archive, checks))
    }

    /// Adds this journal's load-phase I/O to `out` and closes it. Only
    /// complete keyframe intervals count towards bytes per frame: load
    /// appends start on a keyframe, so whole intervals carry the keyframe's
    /// share exactly once.
    fn finish(self, out: &mut FramesRun, complete: &mut (u64, u64)) -> Result<(), String> {
        let stat = self.archive.stat();
        out.syncs += stat.syncs - self.opened.syncs;
        out.records_replayed += stat.records_replayed - self.opened.records_replayed;
        let whole = self.appended.len() / KEYFRAME_INTERVAL * KEYFRAME_INTERVAL;
        complete.0 += self.appended[..whole].iter().sum::<u64>();
        complete.1 += whole as u64;
        self.archive.close().map_err(|e| format!("close: {e}"))
    }
}

const OPTIONS: ArchiveOptions = ArchiveOptions {
    keyframe_interval: KEYFRAME_INTERVAL,
    fsync: FsyncPolicy::EveryN(KEYFRAME_INTERVAL as u64),
};

/// Writes a fresh journal at `path` holding `frames`.
fn warm(path: &Path, frames: &VecDeque<Vec<u8>>) -> Result<Vec<Check>, String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("remove {}: {e}", path.display()))
        }
        _ => {}
    }
    let mut archive = ArchiveFile::open(path, OPTIONS).map_err(|e| format!("create: {e}"))?;
    let mut checks = Vec::with_capacity(frames.len());
    for bytes in frames {
        let frame = decode_image(bytes).map_err(|e| e.to_string())?;
        archive
            .append(&frame)
            .map_err(|e| format!("warm append: {e}"))?;
        checks.push(Check::of(&frame, bytes));
    }
    archive.close().map_err(|e| format!("close: {e}"))?;
    Ok(checks)
}

/// Runs the frames load: a warm journal, timed set-ups, then steps until
/// the schedule ends.
pub fn run(
    seq: &mut FrameSequence,
    threads: usize,
    setups: Setups,
    plan: &Plan,
    epoch: Instant,
    dir: &Path,
    seed: u64,
) -> Result<FramesRun, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("journal.rda2");
    let mut recent: VecDeque<Vec<u8>> = (0..WARM_FRAMES).map(|_| next_bytes(seq)).collect();
    let checks = warm(&path, &recent)?;

    let mut out = FramesRun::default();
    let (setup_s, (mut pipeline, archive)) = setups.run(
        || {
            let pipeline = DiffPipelineConfig::new(threads)
                .signature_prefilter()
                .build();
            let t = Instant::now();
            let archive = ArchiveFile::open(&path, OPTIONS).map_err(|e| format!("open: {e}"))?;
            out.open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            Ok((pipeline, archive))
        },
        |live| {
            drop(live);
            Ok(())
        },
    )?;
    out.setup_s = setup_s;
    let mut journal = Journal::new(archive, checks);
    let last = recent.back().expect("warm frames exist");
    let mut prev = Arc::new(decode_image(last).map_err(|e| e.to_string())?);
    let mut depths = Depths {
        state: mix(seed, 0xD3),
        round: Vec::new(),
    };
    let mut tracer = Tracer::new(epoch);
    let mut complete = (0u64, 0u64);

    let schedule = plan.start(epoch);
    out.windows = schedule.windows_vec();
    let mut step = 0u64;
    loop {
        let now = Instant::now();
        if now >= schedule.end() {
            break;
        }
        let window = schedule.window_of(now);
        let traced = schedule.traced(window);
        let bytes = next_bytes(seq);
        let cur = Arc::new(decode_image(&bytes).map_err(|e| e.to_string())?);
        out.attempted += 1;
        let index = journal.checks.len();
        let target = (step % EXTRACT_EVERY == EXTRACT_EVERY - 1).then(|| {
            let depth = depths.next();
            // The newest frame at this depth behind its keyframe.
            let top = index - 1;
            top - (top % KEYFRAME_INTERVAL + KEYFRAME_INTERVAL - depth) % KEYFRAME_INTERVAL
        });
        step += 1;

        let t0 = Instant::now();
        let diffed = pipeline.diff_images_shared(&prev, &cur);
        let t1 = Instant::now();
        let appended = journal.archive.append(&cur);
        let t2 = Instant::now();
        let extracted = target.map(|i| (i, journal.archive.extract(i)));
        let t3 = Instant::now();

        let stats_after = journal.archive.stat();
        let mut ok = true;
        let mut right = true;
        match &diffed {
            Ok((diff, stats)) => {
                right &= matches_reference(&prev, &cur, diff);
                if window.is_some() {
                    out.frames += 1;
                    out.rows += stats.rows as u64;
                    out.rows_skipped += stats.rows_sig_skipped as u64;
                    out.rows_to_kernels += (stats.rows_fast_path
                        + stats.rows_rle_kernel
                        + stats.rows_packed_kernel
                        + stats.rows_systolic_kernel)
                        as u64;
                    out.bypassed += u64::from(stats.sig_prefilter == SigPrefilterMode::Bypassed);
                }
            }
            Err(e) => {
                eprintln!("frame diff failed: {e}");
                ok = false;
            }
        }
        match appended {
            Ok(outcome) => {
                right &= outcome.frame == index;
                out.appends += 1;
                out.append_bytes += stats_after.last_append_bytes;
                journal.appended.push(stats_after.last_append_bytes);
                journal.checks.push(Check::of(&cur, &bytes));
            }
            Err(e) => {
                eprintln!("append failed: {e}");
                ok = false;
            }
        }
        if let Some((i, got)) = &extracted {
            out.extracts += 1;
            match got {
                Ok(frame) => right &= journal.checks[*i].matches(frame),
                Err(e) => {
                    eprintln!("extract of frame {i} failed: {e}");
                    ok = false;
                }
            }
        }
        if !right {
            eprintln!("step {step}: output differs from the reference");
            out.wrong += 1;
        }
        if !(ok && right) {
            out.failed += 1;
        }
        if let Some(w) = window.filter(|_| ok && right) {
            out.windows[w]
                .samples_ms
                .push((t3 - t0).as_secs_f64() * 1e3);
        }
        if traced {
            let [n0, n1, n2, n3] = [t0, t1, t2, t3].map(|t| tracer.ns(t));
            let root = tracer.span("frame.step", n0, n3, None, step);
            tracer.span("engine.diff", n0, n1, root, step);
            tracer.span("archive.append", n1, n2, root, step);
            if extracted.is_some() {
                tracer.span("archive.extract", n2, n3, root, step);
            }
        }

        recent.push_back(bytes);
        if recent.len() > WARM_FRAMES {
            recent.pop_front();
        }
        prev = cur;
        if journal.checks.len() >= SEGMENT_FRAMES {
            journal.finish(&mut out, &mut complete)?;
            let checks = warm(&path, &recent)?;
            journal = Journal::open(&path, checks)?;
        }
    }
    journal.finish(&mut out, &mut complete)?;
    out.bytes_per_frame = if complete.1 > 0 {
        complete.0 as f64 / complete.1 as f64
    } else {
        out.append_bytes as f64 / out.appends.max(1) as f64
    };
    out.trace.absorb(tracer);
    Ok(out)
}
