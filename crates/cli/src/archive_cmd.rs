//! The `archive` commands (`append`, `extract`, `stat`, `fsck`) and the
//! journal helpers behind them: in-place migration of legacy RDA1 blobs
//! and older journal versions, and read-only loading of either format.

use crate::{load_image, save_image, CliError};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Writes the journal `migrate` builds to a temp sibling of `path`, then
/// renames it over `path`: a crash mid-migration leaves either file fully
/// intact, never a mix, and on failure the temp file is removed and
/// `path` is left as it was. Returns the migrated frame count.
fn replace_with_migrated(
    path: &Path,
    migrate: impl FnOnce(fs::File) -> Result<usize, CliError>,
) -> Result<usize, CliError> {
    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(".migrate");
    let tmp = PathBuf::from(tmp);
    let frames = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| CliError::parse_at(path, archive::ArchiveError::from(e)))
        .and_then(migrate)
        .inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })?;
    fs::rename(&tmp, path)?;
    Ok(frames)
}

/// Checks that the frames of one append fit `journal`: every frame has its
/// geometry, or the first frame's when it holds none yet. `archive
/// append` runs it before anything is written or migrated, so a frame
/// that cannot join leaves the file as it was.
fn check_geometry<S: archive::Storage>(
    journal: &archive::ArchiveFile<S>,
    frames: &[(&Path, rle::RleImage)],
) -> Result<(), CliError> {
    let mut expected = (!journal.is_empty()).then(|| (journal.width(), journal.height()));
    for (path, frame) in frames {
        let got = (frame.width(), frame.height());
        match expected {
            Some(expected) if expected != got => {
                let e = archive::ArchiveError::DimensionMismatch { expected, got };
                return Err(CliError::Mismatch(format!("{}: {e}", path.display())));
            }
            _ => expected = Some(got),
        }
    }
    Ok(())
}

/// The note for a journal whose open-time recovery salvaged a torn tail.
fn recovery_note(rec: &archive::RecoveryReport) -> String {
    format!(
        "recovered: {} committed frame(s) intact, {} torn byte(s) truncated ({})\n",
        rec.frames,
        rec.truncated_bytes,
        rec.reason
            .map_or_else(|| "unknown".to_string(), |r| r.to_string()),
    )
}

/// Opens (or creates) the RDA2 journal at `path` for appending `frames`,
/// checking them against it first ([`check_geometry`]). A legacy RDA1
/// blob, or a journal whose header declares a format version this build
/// no longer writes, is migrated through a synced temp sibling that is
/// renamed over it ([`replace_with_migrated`]): the blob by replaying,
/// checking and appending every frame, the older journal by
/// `compact_into` at its own keyframe interval. The older journal is read
/// from an in-memory copy, so even its recovery never touches the file,
/// and the frames are checked before the rename, so a failed migration or
/// a frame that does not fit leaves it byte-identical. Returns the open
/// journal plus the notes to print (migration, recovery salvage).
fn open_journal(
    path: &Path,
    opts: archive::ArchiveOptions,
    frames: &[(&Path, rle::RleImage)],
) -> Result<(archive::ArchiveFile<fs::File>, String), CliError> {
    let mut notes = String::new();
    let data = match fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    if data.starts_with(archive::LEGACY_MAGIC) {
        // The blob keeps its own keyframe cadence; the CLI flag only
        // governs archives created from scratch.
        let migrated = replace_with_migrated(path, |file| {
            let mut journal = archive::ArchiveFile::from_rda1(file, &data, opts.fsync)
                .map_err(|e| CliError::parse_at(path, e))?;
            check_geometry(&journal, frames)?;
            journal.sync().map_err(|e| CliError::parse_at(path, e))?;
            Ok(journal.len())
        })?;
        let _ = writeln!(
            notes,
            "migrated {migrated} RDA1 frame(s) into the RDA2 journal"
        );
    } else if let Some(version) =
        archive::journal_version(&data).filter(|&v| v != archive::JOURNAL_VERSION)
    {
        let mut old = archive::ArchiveFile::open_on(archive::MemStorage::from_bytes(data), opts)
            .map_err(|e| CliError::parse_at(path, e))?;
        check_geometry(&old, frames)?;
        if !old.recovery().clean() {
            notes.push_str(&recovery_note(old.recovery()));
        }
        let interval = old.keyframe_interval();
        let migrated = replace_with_migrated(path, |file| {
            let journal = old
                .compact_into(file, interval)
                .map_err(|e| CliError::parse_at(path, e))?;
            Ok(journal.len())
        })?;
        let _ = writeln!(
            notes,
            "migrated {migrated} frame(s) of journal version {version} to version {}",
            archive::JOURNAL_VERSION
        );
    }
    let journal =
        archive::ArchiveFile::open(path, opts).map_err(|e| CliError::parse_at(path, e))?;
    check_geometry(&journal, frames)?;
    if !journal.recovery().clean() {
        notes.push_str(&recovery_note(journal.recovery()));
    }
    Ok((journal, notes))
}

/// Loads an archive of either format into memory, so a read path never
/// mutates the file: an RDA2 journal goes through its recovery scan, a
/// legacy RDA1 blob through migration (every frame replayed and checked).
/// Returns the archive, whether the file is an RDA2 journal, and the
/// file's size in bytes.
fn load_archive(
    path: &Path,
) -> Result<(archive::ArchiveFile<archive::MemStorage>, bool, usize), CliError> {
    let data = fs::read(path)?;
    let (journal, bytes) = (data.starts_with(archive::JOURNAL_MAGIC), data.len());
    let store = if journal {
        archive::ArchiveFile::open_on(
            archive::MemStorage::from_bytes(data),
            archive::ArchiveOptions::default(),
        )
    } else {
        archive::ArchiveFile::from_rda1(
            archive::MemStorage::new(),
            &data,
            archive::FsyncPolicy::OnClose,
        )
    }
    .map_err(|e| CliError::parse_at(path, e))?;
    Ok((store, journal, bytes))
}

pub(crate) fn append(
    path: &Path,
    frames: &[PathBuf],
    keyframe_every: usize,
    fsync: archive::FsyncPolicy,
) -> Result<String, CliError> {
    let opts = archive::ArchiveOptions {
        keyframe_interval: keyframe_every,
        fsync,
    };
    // Every frame is loaded before the journal opens, so a frame that is
    // missing, unreadable or of the wrong geometry fails the command
    // before the file changes.
    let frames = frames
        .iter()
        .map(|p| Ok((p.as_path(), load_image(p)?)))
        .collect::<Result<Vec<_>, CliError>>()?;
    let (mut store, mut s) = open_journal(path, opts, &frames)?;
    for (frame_path, frame) in &frames {
        let outcome = store
            .append(frame)
            .map_err(|e| CliError::Mismatch(format!("{}: {e}", frame_path.display())))?;
        let _ = writeln!(
            s,
            "frame {} <- {} ({}, {} rows changed)",
            outcome.frame,
            frame_path.display(),
            if outcome.keyframe {
                "keyframe"
            } else {
                "delta"
            },
            outcome.changed_rows
        );
    }
    let stats = store.stat();
    store
        .close()
        .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))?;
    let _ = writeln!(
        s,
        "journal {} ({} frames, {} bytes, {} appended this run, {} fsyncs)",
        path.display(),
        stats.frames,
        stats.journal_bytes,
        frames.len(),
        stats.syncs
    );
    Ok(s)
}

pub(crate) fn extract(path: &Path, index: usize, out: &Path) -> Result<String, CliError> {
    let (mut store, _, _) = load_archive(path)?;
    let mut s = String::new();
    let rec = store.recovery();
    if !rec.clean() {
        let _ = writeln!(
            s,
            "note: journal tail is torn ({} byte(s) ignored); run `archive fsck`",
            rec.truncated_bytes
        );
    }
    let frame = store
        .extract(index)
        .map_err(|e| CliError::parse_at(path, e))?;
    save_image(&frame, out)?;
    let _ = writeln!(
        s,
        "extracted frame {index} ({}x{}, {} runs) -> {}",
        frame.width(),
        frame.height(),
        frame.total_runs(),
        out.display()
    );
    Ok(s)
}

pub(crate) fn stat(path: &Path) -> Result<String, CliError> {
    let (store, journal, bytes) = load_archive(path)?;
    let mut s = String::new();
    let _ = writeln!(s, "{}", path.display());
    let format = if !journal {
        "RDA1 legacy blob (append migrates it to the RDA2 journal)".to_string()
    } else if store.version() == archive::JOURNAL_VERSION {
        format!("RDA2 journal, version {}", store.version())
    } else {
        format!(
            "RDA2 journal, version {} (append migrates it to version {})",
            store.version(),
            archive::JOURNAL_VERSION
        )
    };
    let _ = writeln!(s, "  format     : {format}");
    let rec = store.recovery();
    if !rec.clean() {
        let _ = writeln!(
            s,
            "  unclean    : {} torn byte(s) past the committed prefix ({}) — run `archive fsck`",
            rec.truncated_bytes,
            rec.reason
                .map_or_else(|| "unknown".to_string(), |r| r.to_string()),
        );
    }
    let stats = store.stat();
    let _ = writeln!(s, "  dimensions : {} x {}", stats.width, stats.height);
    let _ = writeln!(
        s,
        "  frames     : {} ({} keyframes, every {})",
        stats.frames, stats.keyframes, stats.keyframe_interval
    );
    let _ = writeln!(s, "  delta rows : {}", stats.delta_rows);
    let _ = writeln!(s, "  stored runs: {}", stats.stored_runs);
    let full = stats.frames * stats.height;
    if full > 0 {
        let stored = stats.keyframes * stats.height + stats.delta_rows;
        let _ = writeln!(
            s,
            "  row storage: {stored} of {full} row-slots ({:.1}% of storing every frame in full)",
            stored as f64 / full as f64 * 100.0
        );
    }
    let _ = writeln!(s, "  bytes      : {bytes}");
    Ok(s)
}

pub(crate) fn fsck(path: &Path, repair: bool) -> Result<String, CliError> {
    let mut file = fs::OpenOptions::new().read(true).write(repair).open(path)?;
    let report = archive::ArchiveFile::<fs::File>::fsck(&mut file, repair)
        .map_err(|e| CliError::parse_at(path, e))?;
    let mut s = String::new();
    let _ = writeln!(s, "{}", path.display());
    let _ = writeln!(
        s,
        "  frames     : {} committed, {} verified deep",
        report.frames, report.verified
    );
    if report.torn_bytes > 0 {
        let _ = writeln!(
            s,
            "  torn tail  : {} byte(s) ({})",
            report.torn_bytes,
            report
                .torn_reason
                .map_or_else(|| "unknown".to_string(), |r| r.to_string()),
        );
    }
    if let Some(frame) = report.first_corrupt {
        let _ = writeln!(s, "  corrupt    : first bad committed frame is {frame}");
    }
    if report.repaired {
        let _ = writeln!(
            s,
            "  repaired   : journal cut back to {} byte(s), {} frame(s) lost",
            report.bytes, report.frames_lost
        );
    }
    if report.clean() {
        let _ = writeln!(s, "  clean      : every committed frame verifies");
    } else if !repair {
        return Err(CliError::Corrupt(format!(
            "{} is unclean (re-run with --repair to truncate to the consistent prefix)\n{s}",
            path.display()
        )));
    }
    Ok(s)
}
