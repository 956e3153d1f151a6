//! Implementation of the `rlediff` command-line tool.
//!
//! The binary in `main.rs` is a thin wrapper over [`run_command`]; all
//! behaviour lives here so it can be unit-tested without spawning
//! processes.
//!
//! ```text
//! rlediff diff a.pbm b.pbm -o diff.pbm [--algo systolic|sequential|mesh|dense] [--clean N]
//! rlediff encode image.pbm -o image.rle
//! rlediff decode image.rle -o image.pbm
//! rlediff info file.(pbm|rle)
//! rlediff components file.(pbm|rle) [--min-area N]
//! rlediff gen pcb|paper|glyphs -o out.pbm [--seed N] [--text S]
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use bitimg::{convert, pbm};
use rle::{serialize, RleImage};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Which differencing algorithm `diff` uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// The paper's systolic array (simulated).
    Systolic,
    /// The sequential RLE merge (§2 baseline).
    Sequential,
    /// The §6 reconfigurable-mesh-assisted array.
    Mesh,
    /// Dense word-wise XOR (uncompressed baseline).
    Dense,
}

impl Algo {
    fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "systolic" => Ok(Algo::Systolic),
            "sequential" => Ok(Algo::Sequential),
            "mesh" => Ok(Algo::Mesh),
            "dense" => Ok(Algo::Dense),
            other => Err(CliError::Usage(format!("unknown algorithm {other:?}"))),
        }
    }
}

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Diff two images.
    Diff {
        /// First input path.
        a: PathBuf,
        /// Second input path.
        b: PathBuf,
        /// Output path (PBM or `.rle`); `None` prints stats only.
        out: Option<PathBuf>,
        /// Algorithm selection.
        algo: Algo,
        /// Despeckle radius: drop difference components shorter than this.
        clean: u32,
    },
    /// Diff two images through the persistent worker-pool pipeline.
    DiffImage {
        /// First input path.
        a: PathBuf,
        /// Second input path.
        b: PathBuf,
        /// Output path (PBM or `.rle`); `None` prints stats only.
        out: Option<PathBuf>,
        /// Worker threads in the pool (`0` = all available cores).
        threads: usize,
        /// Despeckle radius: drop difference components shorter than this.
        clean: u32,
        /// Longest wait for the batch's next row, in milliseconds (`None` =
        /// wait indefinitely); wired to
        /// [`systolic_core::DiffExecutorConfig::row_deadline`].
        timeout_ms: Option<u64>,
        /// Per-row kernel policy; wired to
        /// [`systolic_core::DiffExecutorConfig::kernel`].
        kernel: systolic_core::Kernel,
        /// Scheduling weight per chunk in input runs (`None` = derive from
        /// the batch); wired to
        /// [`systolic_core::DiffExecutorConfig::chunk_target`].
        chunk_target: Option<usize>,
        /// SIMD level for the packed kernel (`None` = env / auto-detect,
        /// clamped to the hardware); wired to
        /// [`systolic_core::DiffExecutorConfig::simd`].
        simd: Option<systolic_core::SimdLevel>,
        /// Write a metrics snapshot here after the batch (`.json` gets the
        /// JSON exposition, anything else Prometheus text).
        metrics_out: Option<PathBuf>,
        /// Write the structured trace here as JSON lines. Attaches the
        /// executor's trace ring.
        trace_out: Option<PathBuf>,
        /// Skip rows whose cached 64-bit signatures match; wired to
        /// [`systolic_core::DiffExecutorConfig::signature_prefilter`].
        sig_prefilter: bool,
        /// Cross-check sampled skips against the reference XOR (implies
        /// `--sig-prefilter`); wired to
        /// [`systolic_core::DiffExecutorConfig::verify_signatures`].
        verify_sigs: bool,
    },
    /// Convert a PBM file to the compact RLE format.
    Encode {
        /// Input PBM path.
        input: PathBuf,
        /// Output `.rle` path.
        out: PathBuf,
    },
    /// Convert a compact RLE file back to PBM.
    Decode {
        /// Input `.rle` path.
        input: PathBuf,
        /// Output PBM path.
        out: PathBuf,
    },
    /// Print information about an image file.
    Info {
        /// Input path (PBM or `.rle`).
        input: PathBuf,
    },
    /// Label the connected components of an image and report them.
    Components {
        /// Input path (PBM or `.rle`).
        input: PathBuf,
        /// Ignore components smaller than this many pixels.
        min_area: u64,
    },
    /// Generate a synthetic workload image.
    Gen {
        /// Workload kind: `pcb`, `paper` or `glyphs`.
        kind: String,
        /// Output path.
        out: PathBuf,
        /// RNG seed.
        seed: u64,
        /// Text for the `glyphs` kind.
        text: String,
    },
    /// Append frames to (or create) a crash-safe archive journal.
    /// Legacy RDA1 blobs are migrated to the RDA2 journal in place
    /// (atomically, via a temp sibling + rename) before the append.
    ArchiveAppend {
        /// Archive path (created if missing).
        archive: PathBuf,
        /// Frame image paths, appended in order.
        frames: Vec<PathBuf>,
        /// Keyframe cadence when creating a new archive.
        keyframe_every: usize,
        /// When the journal fsyncs; wired to
        /// [`archive::ArchiveOptions::fsync`].
        fsync: archive::FsyncPolicy,
    },
    /// Extract one frame of a delta archive.
    ArchiveExtract {
        /// Archive path.
        archive: PathBuf,
        /// Frame index (0-based).
        index: usize,
        /// Output image path.
        out: PathBuf,
    },
    /// Print a delta archive's shape summary.
    ArchiveStat {
        /// Archive path.
        archive: PathBuf,
    },
    /// Check an RDA2 archive journal: structural scan plus a deep
    /// replay-and-verify of every committed frame. Exits non-zero on an
    /// unclean journal unless `--repair` is given.
    ArchiveFsck {
        /// Archive path.
        archive: PathBuf,
        /// Truncate torn tails and cut back past corrupt records so the
        /// journal is consistent again (lost frames are reported).
        repair: bool,
    },
    /// Drive a remote `diffd` server with synthetic load and report
    /// latency percentiles and throughput.
    DiffClient {
        /// Server address (`host:port`).
        addr: String,
        /// Concurrent client connections.
        clients: usize,
        /// Requests per client.
        requests: usize,
        /// Synthetic image width in pixels.
        width: u32,
        /// Synthetic image height in rows.
        height: usize,
        /// Foreground density of the synthetic images.
        density: f64,
        /// RNG seed for the synthetic images.
        seed: u64,
        /// Per-request deadline in milliseconds (`0` = server default).
        deadline_ms: u32,
        /// Retries absorbed per request when the server sheds with
        /// `Overloaded` (`0` = no retrying, the shed counts as a failure).
        retries: u32,
        /// Base backoff between retries in milliseconds (doubles per
        /// attempt, capped at 32× the base, deterministically jittered).
        backoff_ms: u64,
        /// Write the summary as JSON here as well as printing it.
        json_out: Option<PathBuf>,
    },
    /// Show usage.
    Help,
}

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments; the string explains.
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Input file could not be parsed.
    Parse(String),
    /// The two diff inputs are incompatible.
    Mismatch(String),
    /// The diff pipeline failed (row failure past its retry budget, or a
    /// deadline expiry).
    Pipeline(String),
    /// An archive journal failed its integrity check (`archive fsck`
    /// without `--repair` on an unclean journal).
    Corrupt(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Parse(m) => write!(f, "parse error: {m}"),
            CliError::Mismatch(m) => write!(f, "input mismatch: {m}"),
            CliError::Pipeline(m) => write!(f, "pipeline error: {m}"),
            CliError::Corrupt(m) => write!(f, "archive integrity error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// The usage text.
pub const USAGE: &str = "\
rlediff — binary image differencing in the compressed domain

usage:
  rlediff diff <a> <b> [-o OUT] [--algo systolic|sequential|mesh|dense] [--clean N]
  rlediff diff-image <a> <b> [-o OUT] [--threads N] [--clean N] [--timeout-ms N]
                     [--kernel auto|rle|packed|systolic] [--chunk-target N]
                     [--simd auto|scalar|sse2|avx2] [--sig-prefilter]
                     [--verify-sigs] [--metrics-out PATH] [--trace-out PATH]
  rlediff encode <in.pbm> -o <out.rle>
  rlediff decode <in.rle> -o <out.pbm>
  rlediff info <file>
  rlediff components <file> [--min-area N]
  rlediff gen <pcb|paper|glyphs> -o <out> [--seed N] [--text S]
  rlediff archive append <archive> <frame>... [--keyframe-every N]
                         [--fsync always|every=N|close]
  rlediff archive extract <archive> <index> -o <out>
  rlediff archive stat <archive>
  rlediff archive fsck <archive> [--repair]
  rlediff diff-client <host:port> [--clients N] [--requests N] [--width N]
                      [--height N] [--density F] [--seed N] [--deadline-ms N]
                      [--retries N] [--backoff-ms N] [--json-out PATH]

Inputs and outputs may be PBM (P1/P4, by .pbm extension) or the compact
RLE stream format (any other extension). `diff-client` generates a
synthetic workload and drives a running `diffd` server, reporting p50/p99
latency and throughput; it exits nonzero when no request succeeds.
`archive` manages a versioned delta store: frames are kept as keyframes
plus per-row XOR deltas keyed by row signatures, and any version can be
extracted bit-identically.";

/// Parses an argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut positional: Vec<&str> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut algo = Algo::Systolic;
    let mut clean = 0u32;
    let mut seed = 1u64;
    let mut min_area = 1u64;
    let mut threads = 0usize;
    let mut timeout_ms: Option<u64> = None;
    let mut kernel = systolic_core::Kernel::Auto;
    let mut chunk_target: Option<usize> = None;
    let mut simd: Option<systolic_core::SimdLevel> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut sig_prefilter = false;
    let mut verify_sigs = false;
    let mut text = String::from("RLE SYSTOLIC 1999");
    let mut clients = 1usize;
    let mut requests = 16usize;
    let mut width = 512u32;
    let mut height = 128usize;
    let mut density = 0.3f64;
    let mut deadline_ms = 0u32;
    let mut retries = 0u32;
    let mut backoff_ms = 25u64;
    let mut json_out: Option<PathBuf> = None;
    let mut keyframe_every = archive::DEFAULT_KEYFRAME_INTERVAL;
    let mut fsync = archive::FsyncPolicy::Always;
    let mut repair = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--out" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("-o needs a path".into()))?;
                out = Some(PathBuf::from(v));
            }
            "--algo" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--algo needs a value".into()))?;
                algo = Algo::parse(v)?;
            }
            "--clean" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--clean needs a value".into()))?;
                clean = v
                    .parse()
                    .map_err(|_| CliError::Usage("--clean needs a number".into()))?;
            }
            "--min-area" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--min-area needs a value".into()))?;
                min_area = v
                    .parse()
                    .map_err(|_| CliError::Usage("--min-area needs a number".into()))?;
            }
            "--threads" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--threads needs a value".into()))?;
                threads = v
                    .parse()
                    .map_err(|_| CliError::Usage("--threads needs a number".into()))?;
            }
            "--timeout-ms" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--timeout-ms needs a value".into()))?;
                timeout_ms = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage("--timeout-ms needs a number".into()))?,
                );
            }
            "--kernel" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--kernel needs a value".into()))?;
                kernel = v.parse().map_err(CliError::Usage)?;
            }
            "--chunk-target" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--chunk-target needs a value".into()))?;
                chunk_target = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage("--chunk-target needs a number".into()))?,
                );
            }
            "--simd" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--simd needs a value".into()))?;
                simd = systolic_core::SimdLevel::parse_override(v).map_err(CliError::Usage)?;
            }
            "--sig-prefilter" => sig_prefilter = true,
            "--verify-sigs" => verify_sigs = true,
            "--metrics-out" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--metrics-out needs a path".into()))?;
                metrics_out = Some(PathBuf::from(v));
            }
            "--trace-out" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--trace-out needs a path".into()))?;
                trace_out = Some(PathBuf::from(v));
            }
            "--seed" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--seed needs a value".into()))?;
                seed = v
                    .parse()
                    .map_err(|_| CliError::Usage("--seed needs a number".into()))?;
            }
            "--clients" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--clients needs a value".into()))?;
                clients = v
                    .parse()
                    .map_err(|_| CliError::Usage("--clients needs a number".into()))?;
            }
            "--requests" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--requests needs a value".into()))?;
                requests = v
                    .parse()
                    .map_err(|_| CliError::Usage("--requests needs a number".into()))?;
            }
            "--width" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--width needs a value".into()))?;
                width = v
                    .parse()
                    .map_err(|_| CliError::Usage("--width needs a number".into()))?;
            }
            "--height" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--height needs a value".into()))?;
                height = v
                    .parse()
                    .map_err(|_| CliError::Usage("--height needs a number".into()))?;
            }
            "--density" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--density needs a value".into()))?;
                density = v
                    .parse()
                    .map_err(|_| CliError::Usage("--density needs a number".into()))?;
            }
            "--deadline-ms" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--deadline-ms needs a value".into()))?;
                deadline_ms = v
                    .parse()
                    .map_err(|_| CliError::Usage("--deadline-ms needs a number".into()))?;
            }
            "--retries" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--retries needs a value".into()))?;
                retries = v
                    .parse()
                    .map_err(|_| CliError::Usage("--retries needs a number".into()))?;
            }
            "--backoff-ms" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--backoff-ms needs a value".into()))?;
                backoff_ms = v
                    .parse()
                    .map_err(|_| CliError::Usage("--backoff-ms needs a number".into()))?;
                if backoff_ms == 0 {
                    return Err(CliError::Usage("--backoff-ms must be at least 1".into()));
                }
            }
            "--keyframe-every" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--keyframe-every needs a value".into()))?;
                keyframe_every = v
                    .parse()
                    .map_err(|_| CliError::Usage("--keyframe-every needs a number".into()))?;
                if keyframe_every == 0 {
                    return Err(CliError::Usage(
                        "--keyframe-every must be at least 1".into(),
                    ));
                }
            }
            "--json-out" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--json-out needs a path".into()))?;
                json_out = Some(PathBuf::from(v));
            }
            "--fsync" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--fsync needs a policy".into()))?;
                fsync = match v.as_str() {
                    "always" => archive::FsyncPolicy::Always,
                    "close" => archive::FsyncPolicy::OnClose,
                    other => match other.strip_prefix("every=") {
                        Some(n) => {
                            let n: u64 = n.parse().map_err(|_| {
                                CliError::Usage("--fsync every=N needs a number".into())
                            })?;
                            if n == 0 {
                                return Err(CliError::Usage(
                                    "--fsync every=N must be at least 1".into(),
                                ));
                            }
                            archive::FsyncPolicy::EveryN(n)
                        }
                        None => {
                            return Err(CliError::Usage(format!(
                                "unknown fsync policy {other:?} (want always, every=N or close)"
                            )))
                        }
                    },
                };
            }
            "--repair" => repair = true,
            "--text" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--text needs a value".into()))?;
                text = v.clone();
            }
            "-h" | "--help" => return Ok(Command::Help),
            other => positional.push(other),
        }
    }

    match positional.as_slice() {
        ["diff", a, b] => Ok(Command::Diff {
            a: PathBuf::from(a),
            b: PathBuf::from(b),
            out,
            algo,
            clean,
        }),
        ["diff-image", a, b] => Ok(Command::DiffImage {
            a: PathBuf::from(a),
            b: PathBuf::from(b),
            out,
            threads,
            clean,
            timeout_ms,
            kernel,
            chunk_target,
            simd,
            metrics_out,
            trace_out,
            sig_prefilter,
            verify_sigs,
        }),
        ["encode", input] => Ok(Command::Encode {
            input: PathBuf::from(input),
            out: out.ok_or_else(|| CliError::Usage("encode needs -o".into()))?,
        }),
        ["decode", input] => Ok(Command::Decode {
            input: PathBuf::from(input),
            out: out.ok_or_else(|| CliError::Usage("decode needs -o".into()))?,
        }),
        ["info", input] => Ok(Command::Info {
            input: PathBuf::from(input),
        }),
        ["components", input] => Ok(Command::Components {
            input: PathBuf::from(input),
            min_area,
        }),
        ["gen", kind] => Ok(Command::Gen {
            kind: (*kind).to_string(),
            out: out.ok_or_else(|| CliError::Usage("gen needs -o".into()))?,
            seed,
            text,
        }),
        ["archive", "append", archive_path, frames @ ..] if !frames.is_empty() => {
            Ok(Command::ArchiveAppend {
                archive: PathBuf::from(archive_path),
                frames: frames.iter().map(PathBuf::from).collect(),
                keyframe_every,
                fsync,
            })
        }
        ["archive", "extract", archive_path, index] => Ok(Command::ArchiveExtract {
            archive: PathBuf::from(archive_path),
            index: index
                .parse()
                .map_err(|_| CliError::Usage("archive extract needs a frame index".into()))?,
            out: out.ok_or_else(|| CliError::Usage("archive extract needs -o".into()))?,
        }),
        ["archive", "stat", archive_path] => Ok(Command::ArchiveStat {
            archive: PathBuf::from(archive_path),
        }),
        ["archive", "fsck", archive_path] => Ok(Command::ArchiveFsck {
            archive: PathBuf::from(archive_path),
            repair,
        }),
        ["diff-client", addr] => {
            if clients == 0 || requests == 0 {
                return Err(CliError::Usage(
                    "--clients and --requests must be at least 1".into(),
                ));
            }
            Ok(Command::DiffClient {
                addr: (*addr).to_string(),
                clients,
                requests,
                width,
                height,
                density,
                seed,
                deadline_ms,
                retries,
                backoff_ms,
                json_out,
            })
        }
        [] => Ok(Command::Help),
        other => Err(CliError::Usage(format!(
            "unrecognised arguments: {other:?}"
        ))),
    }
}

fn is_pbm(path: &Path) -> bool {
    path.extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("pbm"))
}

/// Loads an image from PBM or the compact RLE format, by extension.
pub fn load_image(path: &Path) -> Result<RleImage, CliError> {
    let data = fs::read(path)?;
    if is_pbm(path) {
        let bm = pbm::read(&mut &data[..])
            .map_err(|e| CliError::Parse(format!("{}: {e}", path.display())))?;
        Ok(convert::encode(&bm))
    } else {
        serialize::decode_image(&data)
            .map_err(|e| CliError::Parse(format!("{}: {e}", path.display())))
    }
}

/// Saves an image as PBM (P4) or the compact RLE format, by extension.
pub fn save_image(img: &RleImage, path: &Path) -> Result<(), CliError> {
    if is_pbm(path) {
        let bm = convert::decode(img);
        let mut buf = Vec::new();
        pbm::write_p4(&bm, &mut buf)?;
        fs::write(path, buf)?;
    } else {
        fs::write(path, serialize::encode_image(img))?;
    }
    Ok(())
}

/// Writes the journal `migrate` builds to a temp sibling of `path`, then
/// renames it over `path`: a crash mid-migration leaves either file fully
/// intact, never a mix, and on failure the temp file is removed and
/// `path` is left as it was. Returns the migrated frame count.
fn replace_with_migrated(
    path: &Path,
    migrate: impl FnOnce(fs::File) -> Result<usize, archive::ArchiveError>,
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
        .map_err(archive::ArchiveError::from)
        .and_then(migrate)
        .map_err(|e| {
            let _ = fs::remove_file(&tmp);
            CliError::Parse(format!("{}: {e}", path.display()))
        })?;
    fs::rename(&tmp, path)?;
    Ok(frames)
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

/// Opens (or creates) the RDA2 journal at `path` for appending. A legacy
/// RDA1 blob, or a journal whose header declares a format version this
/// build no longer writes, is first migrated through a synced temp
/// sibling that is renamed over it ([`replace_with_migrated`]): the blob
/// by replaying, checking and appending every frame, the older journal
/// by `compact_into` at its own keyframe interval. The older journal is
/// read from an in-memory copy, so even its recovery never touches the
/// file, and a failed migration leaves it byte-identical. Returns the
/// open journal plus the notes to print (migration, recovery salvage).
fn open_journal(
    path: &Path,
    opts: archive::ArchiveOptions,
) -> Result<(archive::ArchiveFile<fs::File>, String), CliError> {
    let parse_error =
        |e: archive::ArchiveError| CliError::Parse(format!("{}: {e}", path.display()));
    let mut notes = String::new();
    let data = match fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    if data.starts_with(archive::LEGACY_MAGIC) {
        // The blob keeps its own keyframe cadence; the CLI flag only
        // governs archives created from scratch.
        let frames = replace_with_migrated(path, |file| {
            let mut journal = archive::ArchiveFile::from_rda1(file, &data, opts.fsync)?;
            journal.sync()?;
            Ok(journal.len())
        })?;
        let _ = writeln!(
            notes,
            "migrated {frames} RDA1 frame(s) into the RDA2 journal"
        );
    } else if let Some(version) =
        archive::journal_version(&data).filter(|&v| v != archive::JOURNAL_VERSION)
    {
        let mut old = archive::ArchiveFile::open_on(archive::MemStorage::from_bytes(data), opts)
            .map_err(parse_error)?;
        if !old.recovery().clean() {
            notes.push_str(&recovery_note(old.recovery()));
        }
        let interval = old.keyframe_interval();
        let frames =
            replace_with_migrated(path, |file| Ok(old.compact_into(file, interval)?.len()))?;
        let _ = writeln!(
            notes,
            "migrated {frames} frame(s) of journal version {version} to version {}",
            archive::JOURNAL_VERSION
        );
    }
    let journal = archive::ArchiveFile::open(path, opts).map_err(parse_error)?;
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
    .map_err(|e| CliError::Parse(format!("{}: {e}", path.display())))?;
    Ok((store, journal, bytes))
}

/// Executes a command, returning the text to print.
pub fn run_command(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(format!("{USAGE}\n")),
        Command::Encode { input, out } => {
            let img = load_image(input)?;
            save_image(&img, out)?;
            let rle_len = serialize::encode_image(&img).len();
            let dense = serialize::dense_size_bytes(img.width(), img.height());
            Ok(format!(
                "encoded {} -> {} ({} runs, {} bytes vs {} dense, {:.1}x)\n",
                input.display(),
                out.display(),
                img.total_runs(),
                rle_len,
                dense,
                dense as f64 / rle_len.max(1) as f64
            ))
        }
        Command::Decode { input, out } => {
            let img = load_image(input)?;
            save_image(&img, out)?;
            Ok(format!(
                "decoded {} -> {}\n",
                input.display(),
                out.display()
            ))
        }
        Command::Info { input } => {
            let img = load_image(input)?;
            let rle_len = serialize::encode_image(&img).len();
            let dense = serialize::dense_size_bytes(img.width(), img.height());
            let mut s = String::new();
            let _ = writeln!(s, "{}", input.display());
            let _ = writeln!(s, "  dimensions : {} x {}", img.width(), img.height());
            let _ = writeln!(s, "  runs       : {}", img.total_runs());
            let _ = writeln!(
                s,
                "  foreground : {} px ({:.2}%)",
                img.ones(),
                img.density() * 100.0
            );
            let _ = writeln!(s, "  canonical  : {}", img.is_canonical());
            let _ = writeln!(
                s,
                "  storage    : {} bytes RLE vs {} bytes dense ({:.1}x)",
                rle_len,
                dense,
                dense as f64 / rle_len.max(1) as f64
            );
            Ok(s)
        }
        Command::Components { input, min_area } => {
            use rle_analysis::features::{classify_defect, shape_features};
            let img = load_image(input)?;
            let labeling = rle_analysis::label_components(&img, rle_analysis::Connectivity::Eight);
            let kept = rle_analysis::features::filter_by_area(&labeling, *min_area);
            let mut s = String::new();
            let _ = writeln!(
                s,
                "{}: {} components ({} after --min-area {})",
                input.display(),
                labeling.count(),
                kept.len(),
                min_area
            );
            let mut sorted = kept;
            sorted.sort_by_key(|c| std::cmp::Reverse(c.area));
            for c in sorted.iter().take(20) {
                let f = shape_features(c);
                let _ = writeln!(
                    s,
                    "  #{:<4} {:?} at ({:.0},{:.0})  area {:<6} bbox {}x{}  fill {:.0}%",
                    c.label,
                    classify_defect(c),
                    c.cx,
                    c.cy,
                    c.area,
                    c.bbox_width(),
                    c.bbox_height(),
                    f.fill_ratio * 100.0
                );
            }
            if sorted.len() > 20 {
                let _ = writeln!(s, "  ... and {} more", sorted.len() - 20);
            }
            Ok(s)
        }
        Command::Diff {
            a,
            b,
            out,
            algo,
            clean,
        } => {
            let ia = load_image(a)?;
            let ib = load_image(b)?;
            if ia.width() != ib.width() || ia.height() != ib.height() {
                return Err(CliError::Mismatch(format!(
                    "{}x{} vs {}x{}",
                    ia.width(),
                    ia.height(),
                    ib.width(),
                    ib.height()
                )));
            }
            let (mut diff, detail) = run_diff(&ia, &ib, *algo)?;
            if *clean > 0 {
                for y in 0..diff.height() {
                    let cleaned = rle::morph::remove_small(&diff.rows()[y], *clean);
                    diff.set_row(y, cleaned).expect("widths preserved");
                }
            }
            let mut s = String::new();
            let _ = writeln!(
                s,
                "diff: {} px differ in {} runs",
                diff.ones(),
                diff.total_runs()
            );
            let _ = writeln!(s, "{detail}");
            if let Some(out) = out {
                save_image(&diff, out)?;
                let _ = writeln!(s, "wrote {}", out.display());
            }
            Ok(s)
        }
        Command::DiffImage {
            a,
            b,
            out,
            threads,
            clean,
            timeout_ms,
            kernel,
            chunk_target,
            simd,
            metrics_out,
            trace_out,
            sig_prefilter,
            verify_sigs,
        } => {
            let ia = std::sync::Arc::new(load_image(a)?);
            let ib = std::sync::Arc::new(load_image(b)?);
            let threads = if *threads == 0 {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            } else {
                *threads
            };
            let mut config = systolic_core::DiffExecutorConfig::new(threads).kernel(*kernel);
            if let Some(ms) = timeout_ms {
                config = config.row_deadline(std::time::Duration::from_millis(*ms));
            }
            if let Some(target) = chunk_target {
                config = config.chunk_target(*target);
            }
            if let Some(level) = simd {
                config = config.simd(*level);
            }
            if *sig_prefilter || *verify_sigs {
                config = config.signature_prefilter();
            }
            if *verify_sigs {
                config = config.verify_signatures();
            }
            if trace_out.is_some() {
                config = config.observe();
            }
            // Deterministic wedge for black-box deadline drills: with the
            // fault-injection build, RLEDIFF_FAULT_STALL_MS=N stalls the
            // batch's first row for N ms so `--timeout-ms` can trip.
            #[cfg(feature = "fault-injection")]
            if let Some(ms) = std::env::var("RLEDIFF_FAULT_STALL_MS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
            {
                config = config.fault_plan(
                    systolic_core::FaultPlan::new()
                        .stall_on_row(0, std::time::Duration::from_millis(ms)),
                );
            }
            let mut pipeline = config.build();
            let (mut diff, stats) = pipeline.diff_images_shared(&ia, &ib).map_err(|e| match e {
                systolic_core::SystolicError::WidthMismatch { .. }
                | systolic_core::SystolicError::HeightMismatch { .. } => {
                    CliError::Mismatch(e.to_string())
                }
                other => CliError::Pipeline(other.to_string()),
            })?;
            if *clean > 0 {
                for y in 0..diff.height() {
                    let cleaned = rle::morph::remove_small(&diff.rows()[y], *clean);
                    diff.set_row(y, cleaned).expect("widths preserved");
                }
            }
            let mut s = String::new();
            let _ = writeln!(
                s,
                "diff: {} px differ in {} runs",
                diff.ones(),
                diff.total_runs()
            );
            let _ = writeln!(
                s,
                "pipeline: {} rows in {:.3} ms",
                stats.rows,
                stats.wall.as_secs_f64() * 1e3
            );
            let _ = writeln!(
                s,
                "  iterations : {} total, slowest row {}",
                stats.totals.iterations, stats.max_row_iterations
            );
            let _ = writeln!(
                s,
                "  workers    : {} effective of {} in pool",
                stats.effective_workers, stats.workers
            );
            let _ = writeln!(
                s,
                "  kernels    : {} fast-path, {} rle, {} packed, {} systolic over {} chunks",
                stats.rows_fast_path,
                stats.rows_rle_kernel,
                stats.rows_packed_kernel,
                stats.rows_systolic_kernel,
                stats.chunks
            );
            if stats.sig_prefilter != systolic_core::SigPrefilterMode::Off {
                let mode = match stats.sig_prefilter {
                    systolic_core::SigPrefilterMode::Off => unreachable!(),
                    systolic_core::SigPrefilterMode::Active => "active",
                    systolic_core::SigPrefilterMode::Bypassed => "bypassed (high churn)",
                };
                let _ = writeln!(
                    s,
                    "  signatures : {mode}; {} rows skipped, {} collisions caught, {} skips verified",
                    stats.rows_sig_skipped, stats.sig_collisions, stats.sig_verified
                );
            }
            let _ = writeln!(s, "  allocations: {} buffers reused", stats.buffers_reused);
            if stats.retries + stats.respawns + stats.timeouts > 0 {
                let _ = writeln!(
                    s,
                    "  supervision: {} retries, {} respawns, {} timeouts",
                    stats.retries, stats.respawns, stats.timeouts
                );
            }
            if let Some(rps) = stats.rows_per_second() {
                let _ = writeln!(s, "  throughput : {rps:.0} rows/s");
            }
            let obs = pipeline.observer();
            let snapshot = obs.metrics_snapshot();
            if let Some(path) = metrics_out {
                let json = path
                    .extension()
                    .is_some_and(|e| e.eq_ignore_ascii_case("json"));
                let body = if json {
                    snapshot.to_json()
                } else {
                    snapshot.to_prometheus()
                };
                fs::write(path, body)?;
                let _ = writeln!(s, "wrote {} (metrics)", path.display());
            }
            if let Some(path) = trace_out {
                let mut body = String::new();
                for event in obs.trace_snapshot() {
                    body.push_str(&event.to_json_line());
                    body.push('\n');
                }
                fs::write(path, body)?;
                let _ = writeln!(
                    s,
                    "wrote {} (trace, {} events, {} dropped)",
                    path.display(),
                    snapshot.trace_recorded - snapshot.trace_dropped,
                    snapshot.trace_dropped
                );
            }
            if let Some(out) = out {
                save_image(&diff, out)?;
                let _ = writeln!(s, "wrote {}", out.display());
            }
            Ok(s)
        }
        Command::Gen {
            kind,
            out,
            seed,
            text,
        } => {
            let img = match kind.as_str() {
                "pcb" => {
                    let bm =
                        workload::pcb::reference_layer(&workload::pcb::PcbParams::default(), *seed);
                    convert::encode(&bm)
                }
                "paper" => {
                    let params = workload::GenParams::for_density(2_048, 0.3);
                    workload::RowGenerator::new(params, *seed).next_image(512)
                }
                "glyphs" => workload::glyphs::render_rle(text, 4),
                other => return Err(CliError::Usage(format!("unknown workload kind {other:?}"))),
            };
            save_image(&img, out)?;
            Ok(format!(
                "generated {kind} workload: {}x{}, {} runs -> {}\n",
                img.width(),
                img.height(),
                img.total_runs(),
                out.display()
            ))
        }
        Command::ArchiveAppend {
            archive: path,
            frames,
            keyframe_every,
            fsync,
        } => {
            let opts = archive::ArchiveOptions {
                keyframe_interval: *keyframe_every,
                fsync: *fsync,
            };
            let (mut store, mut s) = open_journal(path, opts)?;
            for frame_path in frames {
                let frame = load_image(frame_path)?;
                let outcome = store
                    .append(&frame)
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
        Command::ArchiveExtract {
            archive: path,
            index,
            out,
        } => {
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
                .extract(*index)
                .map_err(|e| CliError::Parse(format!("{}: {e}", path.display())))?;
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
        Command::ArchiveStat { archive: path } => {
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
                    rec.reason.map_or_else(|| "unknown".to_string(), |r| r.to_string()),
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
        Command::ArchiveFsck {
            archive: path,
            repair,
        } => {
            let mut file = fs::OpenOptions::new()
                .read(true)
                .write(*repair)
                .open(path)?;
            let report = archive::ArchiveFile::<fs::File>::fsck(&mut file, *repair)
                .map_err(|e| CliError::Parse(format!("{}: {e}", path.display())))?;
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
            } else if !*repair {
                return Err(CliError::Corrupt(format!(
                    "{} is unclean (re-run with --repair to truncate to the consistent prefix)\n{s}",
                    path.display()
                )));
            }
            Ok(s)
        }
        Command::DiffClient {
            addr,
            clients,
            requests,
            width,
            height,
            density,
            seed,
            deadline_ms,
            retries,
            backoff_ms,
            json_out,
        } => run_diff_client(
            addr,
            *clients,
            *requests,
            *width,
            *height,
            *density,
            *seed,
            *deadline_ms,
            *retries,
            *backoff_ms,
            json_out.as_deref(),
        ),
    }
}

/// Typed per-request outcomes the load generator tallies; anything else
/// (a transport failure, a protocol violation) aborts the run.
#[derive(Default, Clone, Copy)]
struct LoadTally {
    ok: u64,
    /// Requests that succeeded only after absorbing ≥ 1 `Overloaded`
    /// shed under the retry policy (a subset of `ok`; their latency
    /// samples include the backoff, which is exactly what the p99
    /// should show under overload).
    shed_then_ok: u64,
    /// Total sheds absorbed by retries across the run.
    sheds_absorbed: u64,
    /// Requests that ended shed (the retry budget exhausted, or no
    /// retrying configured).
    shed: u64,
    deadline: u64,
    other_server: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_diff_client(
    addr: &str,
    clients: usize,
    requests: usize,
    width: u32,
    height: usize,
    density: f64,
    seed: u64,
    deadline_ms: u32,
    retries: u32,
    backoff_ms: u64,
    json_out: Option<&Path>,
) -> Result<String, CliError> {
    use diffd::proto::ErrorCode;
    use std::time::Instant;

    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            std::thread::spawn(move || -> Result<(Vec<[f64; 3]>, LoadTally), String> {
                // Per-client synthetic pair; replies are verified against
                // the local reference so the load run doubles as a
                // correctness check.
                let params = workload::GenParams::for_density(width, density);
                let a = workload::RowGenerator::new(params, seed.wrapping_add(c as u64))
                    .next_image(height);
                let b = workload::errors::apply_errors_image(
                    &a,
                    &workload::ErrorModel::fraction(0.05),
                    seed ^ 0x00C1_1E47 ^ c as u64,
                );
                let expected = a.xor(&b).map_err(|e| e.to_string())?;
                let mut client = diffd::DiffClient::connect(&addr)
                    .map_err(|e| format!("connect {addr}: {e}"))?;
                // One jitter stream per client so synchronized sheds
                // spread out instead of re-colliding on the retry.
                let policy = diffd::RetryPolicy {
                    retries,
                    base_backoff: std::time::Duration::from_millis(backoff_ms),
                    max_backoff: std::time::Duration::from_millis(backoff_ms.saturating_mul(32)),
                    jitter_seed: seed ^ 0xBAC0_FF00 ^ c as u64,
                };
                let mut samples = Vec::with_capacity(requests);
                let mut tally = LoadTally::default();
                for _ in 0..requests {
                    let t0 = Instant::now();
                    match client.diff_with_retry(&a, &b, deadline_ms, &policy) {
                        Ok((reply, sheds_absorbed)) => {
                            if reply.image != expected {
                                return Err("server returned a wrong diff".into());
                            }
                            // Total round-trip, plus the server-reported
                            // split of its own share: executor queue wait
                            // vs. compute. The split comes per request off
                            // the reply, so the percentiles below are true
                            // per-request distributions, not a scrape of
                            // the server-wide histograms.
                            samples.push([
                                t0.elapsed().as_secs_f64() * 1e3,
                                reply.queue_wait_ns as f64 / 1e6,
                                reply.compute_ns as f64 / 1e6,
                            ]);
                            tally.ok += 1;
                            if sheds_absorbed > 0 {
                                tally.shed_then_ok += 1;
                                tally.sheds_absorbed += u64::from(sheds_absorbed);
                            }
                        }
                        Err(diffd::ClientError::Server { code, .. }) => match code {
                            ErrorCode::Overloaded => tally.shed += 1,
                            ErrorCode::DeadlineExceeded => tally.deadline += 1,
                            _ => tally.other_server += 1,
                        },
                        Err(e) => return Err(e.to_string()),
                    }
                }
                Ok((samples, tally))
            })
        })
        .collect();

    let mut samples: Vec<[f64; 3]> = Vec::new();
    let mut tally = LoadTally::default();
    for w in workers {
        let (lat, t) = w
            .join()
            .map_err(|_| CliError::Pipeline("a load client panicked".into()))?
            .map_err(CliError::Pipeline)?;
        samples.extend(lat);
        tally.ok += t.ok;
        tally.shed_then_ok += t.shed_then_ok;
        tally.sheds_absorbed += t.sheds_absorbed;
        tally.shed += t.shed;
        tally.deadline += t.deadline;
        tally.other_server += t.other_server;
    }
    let wall = started.elapsed().as_secs_f64();
    // A run where every request was shed or timed out measured nothing:
    // there are no latencies to report and a scripted caller must not
    // mistake the summary for a healthy benchmark. Fail loudly instead.
    if tally.ok == 0 {
        return Err(CliError::Pipeline(format!(
            "no request succeeded ({} shed, {} deadline-exceeded, {} other server errors)",
            tally.shed, tally.deadline, tally.other_server
        )));
    }
    let percentiles = |column: usize| -> (f64, f64) {
        let mut values: Vec<f64> = samples.iter().map(|s| s[column]).collect();
        values.sort_by(|x, y| x.partial_cmp(y).expect("latencies are finite"));
        if values.is_empty() {
            return (0.0, 0.0);
        }
        let pick = |p: f64| values[((values.len() as f64 - 1.0) * p).round() as usize];
        (pick(0.50), pick(0.99))
    };
    let (p50, p99) = percentiles(0);
    let (queue_p50, queue_p99) = percentiles(1);
    let (compute_p50, compute_p99) = percentiles(2);
    let throughput = if wall > 0.0 {
        tally.ok as f64 / wall
    } else {
        0.0
    };

    let mut s = String::new();
    let _ = writeln!(
        s,
        "diff-client: {clients} clients x {requests} requests against {addr}"
    );
    let _ = writeln!(
        s,
        "  workload   : {width}x{height} at density {density:.2}, seed {seed}"
    );
    let _ = writeln!(
        s,
        "  outcomes   : {} ok, {} shed, {} deadline, {} other",
        tally.ok, tally.shed, tally.deadline, tally.other_server
    );
    if tally.shed_then_ok > 0 || retries > 0 {
        let _ = writeln!(
            s,
            "  retries    : {} of the ok succeeded after retry ({} sheds absorbed, \
             budget {retries} x {backoff_ms} ms backoff)",
            tally.shed_then_ok, tally.sheds_absorbed
        );
    }
    let _ = writeln!(s, "  latency    : p50 {p50:.3} ms, p99 {p99:.3} ms");
    let _ = writeln!(
        s,
        "  queue wait : p50 {queue_p50:.3} ms, p99 {queue_p99:.3} ms (server-reported, per request)"
    );
    let _ = writeln!(
        s,
        "  compute    : p50 {compute_p50:.3} ms, p99 {compute_p99:.3} ms (server-reported, per request)"
    );
    let _ = writeln!(
        s,
        "  throughput : {throughput:.1} requests/s over {wall:.3} s"
    );
    if let Some(path) = json_out {
        let json = format!(
            "{{\n  \"addr\": \"{addr}\",\n  \"clients\": {clients},\n  \"requests_per_client\": {requests},\n  \"width\": {width},\n  \"height\": {height},\n  \"density\": {density},\n  \"retries\": {retries},\n  \"backoff_ms\": {backoff_ms},\n  \"ok\": {},\n  \"shed_then_ok\": {},\n  \"sheds_absorbed\": {},\n  \"shed\": {},\n  \"deadline\": {},\n  \"other_server_errors\": {},\n  \"p50_ms\": {p50},\n  \"p99_ms\": {p99},\n  \"queue_wait_p50_ms\": {queue_p50},\n  \"queue_wait_p99_ms\": {queue_p99},\n  \"compute_p50_ms\": {compute_p50},\n  \"compute_p99_ms\": {compute_p99},\n  \"throughput_rps\": {throughput},\n  \"wall_s\": {wall}\n}}\n",
            tally.ok, tally.shed_then_ok, tally.sheds_absorbed, tally.shed, tally.deadline, tally.other_server
        );
        fs::write(path, json)?;
        let _ = writeln!(s, "wrote {} (summary)", path.display());
    }
    Ok(s)
}

fn run_diff(a: &RleImage, b: &RleImage, algo: Algo) -> Result<(RleImage, String), CliError> {
    let to_err = |e: systolic_core::SystolicError| CliError::Mismatch(e.to_string());
    match algo {
        Algo::Systolic => {
            let (diff, stats) = systolic_core::image::xor_image(a, b).map_err(to_err)?;
            Ok((
                diff,
                format!(
                    "systolic: {} iterations total, slowest row {} (cells provisioned: {})",
                    stats.totals.iterations, stats.max_row_iterations, stats.totals.cells
                ),
            ))
        }
        Algo::Mesh => {
            let mut rows = Vec::with_capacity(a.height());
            let mut iters = 0u64;
            for (ra, rb) in a.rows().iter().zip(b.rows()) {
                let (row, stats) = systolic_core::bus::systolic_xor_mesh(ra, rb).map_err(to_err)?;
                iters += stats.iterations;
                rows.push(row);
            }
            let diff = RleImage::from_rows(a.width(), rows).expect("widths preserved");
            Ok((
                diff,
                format!("mesh-assisted systolic: {iters} iterations total"),
            ))
        }
        Algo::Sequential => {
            let mut rows = Vec::with_capacity(a.height());
            let mut iters = 0u64;
            for (ra, rb) in a.rows().iter().zip(b.rows()) {
                let (row, stats) = rle::ops::xor_raw_with_stats(ra, rb);
                iters += stats.iterations;
                rows.push(row.canonicalized());
            }
            let diff = RleImage::from_rows(a.width(), rows).expect("widths preserved");
            Ok((diff, format!("sequential merge: {iters} iterations total")))
        }
        Algo::Dense => {
            let da = convert::decode(a);
            let db = convert::decode(b);
            let diff = convert::encode(&bitimg::ops::xor(&da, &db));
            Ok((diff, "dense word XOR".to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rlediff_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parse_diff_with_options() {
        let cmd = parse_args(&args(&[
            "diff", "a.pbm", "b.pbm", "-o", "d.pbm", "--algo", "mesh", "--clean", "2",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Diff {
                a: "a.pbm".into(),
                b: "b.pbm".into(),
                out: Some("d.pbm".into()),
                algo: Algo::Mesh,
                clean: 2,
            }
        );
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            parse_args(&args(&["encode", "x.pbm"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["diff", "a", "b", "--algo", "warp"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert_eq!(parse_args(&args(&[])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn gen_info_encode_decode_round_trip() {
        let pbm_path = tmp("board.pbm");
        let msg = run_command(&Command::Gen {
            kind: "pcb".into(),
            out: pbm_path.clone(),
            seed: 5,
            text: String::new(),
        })
        .unwrap();
        assert!(msg.contains("generated pcb"));

        let info = run_command(&Command::Info {
            input: pbm_path.clone(),
        })
        .unwrap();
        assert!(info.contains("dimensions"));

        let rle_path = tmp("board.rle");
        run_command(&Command::Encode {
            input: pbm_path.clone(),
            out: rle_path.clone(),
        })
        .unwrap();
        let back_path = tmp("board_back.pbm");
        run_command(&Command::Decode {
            input: rle_path.clone(),
            out: back_path.clone(),
        })
        .unwrap();
        assert_eq!(
            load_image(&pbm_path).unwrap(),
            load_image(&back_path).unwrap()
        );
        // RLE file is smaller than the PBM.
        assert!(fs::metadata(&rle_path).unwrap().len() < fs::metadata(&pbm_path).unwrap().len());
    }

    #[test]
    fn diff_algorithms_agree_end_to_end() {
        let a_path = tmp("ga.pbm");
        let b_path = tmp("gb.pbm");
        run_command(&Command::Gen {
            kind: "glyphs".into(),
            out: a_path.clone(),
            seed: 1,
            text: "PCB".into(),
        })
        .unwrap();
        run_command(&Command::Gen {
            kind: "glyphs".into(),
            out: b_path.clone(),
            seed: 1,
            text: "PCR".into(),
        })
        .unwrap();

        let mut outputs = Vec::new();
        for algo in [Algo::Systolic, Algo::Sequential, Algo::Mesh, Algo::Dense] {
            let out = tmp(&format!("diff_{algo:?}.rle"));
            let msg = run_command(&Command::Diff {
                a: a_path.clone(),
                b: b_path.clone(),
                out: Some(out.clone()),
                algo,
                clean: 0,
            })
            .unwrap();
            assert!(msg.contains("px differ"), "{msg}");
            outputs.push(load_image(&out).unwrap());
        }
        for pair in outputs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
        assert!(outputs[0].ones() > 0, "B vs R must differ");
    }

    #[test]
    fn diff_clean_drops_specks() {
        // Two glyph images with 1-px noise: --clean 2 keeps only wider
        // difference components.
        let a = workload::glyphs::render_rle("O", 3);
        let mut noisy_dense = convert::decode(&a);
        noisy_dense.set(0, 0, true); // single-pixel speck
        let b = convert::encode(&noisy_dense);
        let a_path = tmp("ca.rle");
        let b_path = tmp("cb.rle");
        save_image(&a, &a_path).unwrap();
        save_image(&b, &b_path).unwrap();
        let out = tmp("cd.rle");
        run_command(&Command::Diff {
            a: a_path,
            b: b_path,
            out: Some(out.clone()),
            algo: Algo::Systolic,
            clean: 2,
        })
        .unwrap();
        assert_eq!(
            load_image(&out).unwrap().ones(),
            0,
            "speck must be cleaned away"
        );
    }

    #[test]
    fn diff_rejects_dimension_mismatch() {
        let a = workload::glyphs::render_rle("A", 2);
        let b = workload::glyphs::render_rle("AB", 2);
        let a_path = tmp("ma.rle");
        let b_path = tmp("mb.rle");
        save_image(&a, &a_path).unwrap();
        save_image(&b, &b_path).unwrap();
        let err = run_command(&Command::Diff {
            a: a_path,
            b: b_path,
            out: None,
            algo: Algo::Systolic,
            clean: 0,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Mismatch(_)));
    }

    #[test]
    fn components_command_reports_blobs() {
        let img = workload::glyphs::render_rle("I I", 2);
        let path = tmp("comp.rle");
        save_image(&img, &path).unwrap();
        let out = run_command(&Command::Components {
            input: path.clone(),
            min_area: 1,
        })
        .unwrap();
        assert!(out.contains("2 components"), "{out}");
        // min-area filters the report.
        let filtered = run_command(&Command::Components {
            input: path,
            min_area: 10_000,
        })
        .unwrap();
        assert!(filtered.contains("(0 after --min-area"), "{filtered}");
    }

    #[test]
    fn parse_diff_image_with_threads() {
        let cmd = parse_args(&args(&[
            "diff-image",
            "a.pbm",
            "b.pbm",
            "-o",
            "d.rle",
            "--threads",
            "3",
            "--clean",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::DiffImage {
                a: "a.pbm".into(),
                b: "b.pbm".into(),
                out: Some("d.rle".into()),
                threads: 3,
                clean: 1,
                timeout_ms: None,
                kernel: systolic_core::Kernel::Auto,
                chunk_target: None,
                simd: None,
                metrics_out: None,
                trace_out: None,
                sig_prefilter: false,
                verify_sigs: false,
            }
        );
    }

    #[test]
    fn parse_diff_image_sig_flags() {
        let cmd = parse_args(&args(&["diff-image", "a.pbm", "b.pbm", "--verify-sigs"])).unwrap();
        let Command::DiffImage {
            sig_prefilter,
            verify_sigs,
            ..
        } = cmd
        else {
            panic!("parsed the wrong command")
        };
        assert!(
            !sig_prefilter,
            "--verify-sigs implies the prefilter at run time, not parse time"
        );
        assert!(verify_sigs);
    }

    #[test]
    fn parse_diff_image_metrics_and_trace_out() {
        let cmd = parse_args(&args(&[
            "diff-image",
            "a.pbm",
            "b.pbm",
            "--metrics-out",
            "m.prom",
            "--trace-out",
            "t.jsonl",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::DiffImage {
                a: "a.pbm".into(),
                b: "b.pbm".into(),
                out: None,
                threads: 0,
                clean: 0,
                timeout_ms: None,
                kernel: systolic_core::Kernel::Auto,
                chunk_target: None,
                simd: None,
                metrics_out: Some("m.prom".into()),
                trace_out: Some("t.jsonl".into()),
                sig_prefilter: false,
                verify_sigs: false,
            }
        );
        assert!(matches!(
            parse_args(&args(&["diff-image", "a", "b", "--metrics-out"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["diff-image", "a", "b", "--trace-out"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_diff_image_kernel_and_chunk_target() {
        let cmd = parse_args(&args(&[
            "diff-image",
            "a.pbm",
            "b.pbm",
            "--kernel",
            "packed",
            "--chunk-target",
            "256",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::DiffImage {
                a: "a.pbm".into(),
                b: "b.pbm".into(),
                out: None,
                threads: 0,
                clean: 0,
                timeout_ms: None,
                kernel: systolic_core::Kernel::Packed,
                chunk_target: Some(256),
                simd: None,
                metrics_out: None,
                trace_out: None,
                sig_prefilter: false,
                verify_sigs: false,
            }
        );
        for kernel in ["auto", "rle", "systolic"] {
            assert!(
                parse_args(&args(&["diff-image", "a", "b", "--kernel", kernel])).is_ok(),
                "{kernel}"
            );
        }
        let err = parse_args(&args(&["diff-image", "a", "b", "--kernel", "quantum"]));
        assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("quantum")));
        assert!(matches!(
            parse_args(&args(&["diff-image", "a", "b", "--chunk-target", "many"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["diff-image", "a", "b", "--kernel"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_diff_image_simd_level() {
        for (value, expected) in [
            ("auto", None),
            ("scalar", Some(systolic_core::SimdLevel::Scalar)),
            ("sse2", Some(systolic_core::SimdLevel::Sse2)),
            ("avx2", Some(systolic_core::SimdLevel::Avx2)),
        ] {
            let cmd = parse_args(&args(&["diff-image", "a", "b", "--simd", value])).unwrap();
            let Command::DiffImage { simd, .. } = cmd else {
                panic!("expected diff-image, got {cmd:?}");
            };
            assert_eq!(simd, expected, "{value}");
        }
        let err = parse_args(&args(&["diff-image", "a", "b", "--simd", "avx512"]));
        assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("avx512")));
        assert!(matches!(
            parse_args(&args(&["diff-image", "a", "b", "--simd"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_diff_image_timeout() {
        let cmd = parse_args(&args(&[
            "diff-image",
            "a.pbm",
            "b.pbm",
            "--timeout-ms",
            "1500",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::DiffImage {
                a: "a.pbm".into(),
                b: "b.pbm".into(),
                out: None,
                threads: 0,
                clean: 0,
                timeout_ms: Some(1500),
                kernel: systolic_core::Kernel::Auto,
                chunk_target: None,
                simd: None,
                metrics_out: None,
                trace_out: None,
                sig_prefilter: false,
                verify_sigs: false,
            }
        );
        assert!(matches!(
            parse_args(&args(&["diff-image", "a", "b", "--timeout-ms", "soon"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["diff-image", "a", "b", "--timeout-ms"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn diff_image_with_generous_timeout_succeeds() {
        let a = workload::glyphs::render_rle("OK", 2);
        let b = workload::glyphs::render_rle("OX", 2);
        let a_path = tmp("ta.rle");
        let b_path = tmp("tb.rle");
        save_image(&a, &a_path).unwrap();
        save_image(&b, &b_path).unwrap();
        let msg = run_command(&Command::DiffImage {
            a: a_path,
            b: b_path,
            out: None,
            threads: 2,
            clean: 0,
            timeout_ms: Some(60_000),
            kernel: systolic_core::Kernel::Auto,
            chunk_target: None,
            simd: None,
            metrics_out: None,
            trace_out: None,
            sig_prefilter: false,
            verify_sigs: false,
        })
        .unwrap();
        assert!(msg.contains("pipeline:"), "{msg}");
    }

    #[test]
    fn corrupt_rle_input_is_a_clean_parse_error() {
        // An adversarial header declaring a huge image must fail fast with
        // a parse error, not a panic or a giant allocation.
        let path = tmp("evil.rle");
        let mut bytes = b"RLI1".to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0x7F]); // huge height varint
        fs::write(&path, &bytes).unwrap();
        let err = run_command(&Command::Info {
            input: path.clone(),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Parse(_)), "{err:?}");
        assert!(err.to_string().contains("exceeds"), "{err}");
        let display = CliError::Pipeline("row 3 failed".into()).to_string();
        assert!(display.contains("pipeline error"));
    }

    #[test]
    fn diff_image_matches_diff_and_prints_stats() {
        let a = workload::glyphs::render_rle("PCB", 2);
        let b = workload::glyphs::render_rle("PCR", 2);
        let a_path = tmp("pa.rle");
        let b_path = tmp("pb.rle");
        save_image(&a, &a_path).unwrap();
        save_image(&b, &b_path).unwrap();

        let via_diff = tmp("pd1.rle");
        run_command(&Command::Diff {
            a: a_path.clone(),
            b: b_path.clone(),
            out: Some(via_diff.clone()),
            algo: Algo::Systolic,
            clean: 0,
        })
        .unwrap();

        let via_pipeline = tmp("pd2.rle");
        let msg = run_command(&Command::DiffImage {
            a: a_path,
            b: b_path,
            out: Some(via_pipeline.clone()),
            threads: 2,
            clean: 0,
            timeout_ms: None,
            kernel: systolic_core::Kernel::Auto,
            chunk_target: None,
            simd: None,
            metrics_out: None,
            trace_out: None,
            sig_prefilter: false,
            verify_sigs: false,
        })
        .unwrap();
        assert!(msg.contains("pipeline:"), "{msg}");
        assert!(msg.contains("workers"), "{msg}");
        assert!(msg.contains("kernels"), "{msg}");
        assert!(msg.contains("buffers reused"), "{msg}");
        assert_eq!(
            load_image(&via_diff).unwrap(),
            load_image(&via_pipeline).unwrap()
        );
    }

    #[test]
    fn diff_image_rejects_dimension_mismatch() {
        let a = workload::glyphs::render_rle("A", 2);
        let b = workload::glyphs::render_rle("AB", 2);
        let a_path = tmp("pma.rle");
        let b_path = tmp("pmb.rle");
        save_image(&a, &a_path).unwrap();
        save_image(&b, &b_path).unwrap();
        let err = run_command(&Command::DiffImage {
            a: a_path,
            b: b_path,
            out: None,
            threads: 2,
            clean: 0,
            timeout_ms: None,
            kernel: systolic_core::Kernel::Auto,
            chunk_target: None,
            simd: None,
            metrics_out: None,
            trace_out: None,
            sig_prefilter: false,
            verify_sigs: false,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Mismatch(_)));
    }

    #[test]
    fn parse_components_with_min_area() {
        let cmd = parse_args(&args(&["components", "x.rle", "--min-area", "5"])).unwrap();
        assert_eq!(
            cmd,
            Command::Components {
                input: "x.rle".into(),
                min_area: 5
            }
        );
    }

    #[test]
    fn help_text() {
        let out = run_command(&Command::Help).unwrap();
        assert!(out.contains("rlediff"));
        assert!(out.contains("diff"));
        assert!(out.contains("diff-client"));
    }

    #[test]
    fn parse_diff_client_with_options() {
        let cmd = parse_args(&args(&[
            "diff-client",
            "127.0.0.1:7177",
            "--clients",
            "4",
            "--requests",
            "32",
            "--width",
            "256",
            "--height",
            "64",
            "--density",
            "0.25",
            "--seed",
            "9",
            "--deadline-ms",
            "500",
            "--retries",
            "3",
            "--backoff-ms",
            "10",
            "--json-out",
            "load.json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::DiffClient {
                addr: "127.0.0.1:7177".into(),
                clients: 4,
                requests: 32,
                width: 256,
                height: 64,
                density: 0.25,
                seed: 9,
                deadline_ms: 500,
                retries: 3,
                backoff_ms: 10,
                json_out: Some("load.json".into()),
            }
        );
        assert!(matches!(
            parse_args(&args(&["diff-client", "host:1", "--clients", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["diff-client", "host:1", "--density", "thick"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn diff_client_drives_a_loopback_server_and_writes_json() {
        let server =
            diffd::DiffServer::bind("127.0.0.1:0", diffd::DiffServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let (handle, join) = server.spawn();

        let json_path = tmp("load.json");
        let out = run_command(&Command::DiffClient {
            addr: addr.to_string(),
            clients: 2,
            requests: 3,
            width: 64,
            height: 16,
            density: 0.3,
            seed: 1,
            deadline_ms: 0,
            retries: 0,
            backoff_ms: 25,
            json_out: Some(json_path.clone()),
        })
        .unwrap();
        assert!(out.contains("6 ok, 0 shed"), "{out}");
        assert!(out.contains("p50"), "{out}");
        assert!(out.contains("requests/s"), "{out}");

        let json = fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"ok\": 6"), "{json}");
        assert!(json.contains("\"p99_ms\""), "{json}");

        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn diff_client_reports_connect_failure_as_an_error() {
        // A port nothing listens on: the run must fail with a typed error,
        // not hang or panic.
        let err = run_command(&Command::DiffClient {
            addr: "127.0.0.1:1".into(),
            clients: 1,
            requests: 1,
            width: 32,
            height: 4,
            density: 0.3,
            seed: 1,
            deadline_ms: 0,
            retries: 0,
            backoff_ms: 25,
            json_out: None,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Pipeline(_)), "{err:?}");
        assert!(err.to_string().contains("connect"), "{err}");
    }

    /// Deterministic same-geometry frames for the archive tests, written
    /// to disk as `.rle` files.
    fn frame_files(prefix: &str, n: usize, seed: u64) -> (Vec<RleImage>, Vec<PathBuf>) {
        let params = workload::SequenceParams {
            gen: workload::GenParams::for_density(256, 0.3),
            height: 32,
            churn: 0.2,
        };
        let frames = workload::FrameSequence::new(params, seed).take_frames(n);
        let paths: Vec<PathBuf> = frames
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let p = tmp(&format!("{prefix}_{i}.rle"));
                save_image(f, &p).unwrap();
                p
            })
            .collect();
        (frames, paths)
    }

    #[test]
    fn parse_archive_append_with_fsync_policies() {
        let cmd = parse_args(&args(&[
            "archive",
            "append",
            "a.rda",
            "f0.rle",
            "f1.rle",
            "--keyframe-every",
            "4",
            "--fsync",
            "every=8",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::ArchiveAppend {
                archive: "a.rda".into(),
                frames: vec!["f0.rle".into(), "f1.rle".into()],
                keyframe_every: 4,
                fsync: archive::FsyncPolicy::EveryN(8),
            }
        );
        for (value, expected) in [
            ("always", archive::FsyncPolicy::Always),
            ("close", archive::FsyncPolicy::OnClose),
        ] {
            let cmd = parse_args(&args(&[
                "archive", "append", "a.rda", "f.rle", "--fsync", value,
            ]))
            .unwrap();
            assert!(
                matches!(cmd, Command::ArchiveAppend { fsync, .. } if fsync == expected),
                "{value}"
            );
        }
        for bad in ["every=0", "sometimes", "every=x"] {
            assert!(matches!(
                parse_args(&args(&[
                    "archive", "append", "a.rda", "f.rle", "--fsync", bad
                ])),
                Err(CliError::Usage(_))
            ));
        }
    }

    #[test]
    fn parse_archive_fsck() {
        assert_eq!(
            parse_args(&args(&["archive", "fsck", "a.rda"])).unwrap(),
            Command::ArchiveFsck {
                archive: "a.rda".into(),
                repair: false,
            }
        );
        assert_eq!(
            parse_args(&args(&["archive", "fsck", "a.rda", "--repair"])).unwrap(),
            Command::ArchiveFsck {
                archive: "a.rda".into(),
                repair: true,
            }
        );
    }

    #[test]
    fn archive_append_extract_stat_fsck_round_trip() {
        let (frames, paths) = frame_files("journal_rt", 6, 0xA11CE);
        let archive_path = tmp("journal_rt.rda");
        let _ = fs::remove_file(&archive_path);

        let out = run_command(&Command::ArchiveAppend {
            archive: archive_path.clone(),
            frames: paths,
            keyframe_every: 3,
            fsync: archive::FsyncPolicy::EveryN(2),
        })
        .unwrap();
        assert!(out.contains("frame 0"), "{out}");
        assert!(out.contains("keyframe"), "{out}");
        assert!(out.contains("6 frames"), "{out}");

        // The file on disk is an RDA2 journal now.
        let head = fs::read(&archive_path).unwrap();
        assert!(head.starts_with(archive::JOURNAL_MAGIC));

        // Every frame extracts bit-identically through the CLI.
        for (i, want) in frames.iter().enumerate() {
            let out_path = tmp(&format!("journal_rt_out_{i}.rle"));
            run_command(&Command::ArchiveExtract {
                archive: archive_path.clone(),
                index: i,
                out: out_path.clone(),
            })
            .unwrap();
            assert_eq!(&load_image(&out_path).unwrap(), want, "frame {i}");
        }

        let stat = run_command(&Command::ArchiveStat {
            archive: archive_path.clone(),
        })
        .unwrap();
        assert!(stat.contains("RDA2 journal"), "{stat}");
        assert!(stat.contains("6 (2 keyframes, every 3)"), "{stat}");
        assert!(!stat.contains("unclean"), "{stat}");

        let fsck = run_command(&Command::ArchiveFsck {
            archive: archive_path.clone(),
            repair: false,
        })
        .unwrap();
        assert!(fsck.contains("6 committed, 6 verified"), "{fsck}");
        assert!(fsck.contains("clean"), "{fsck}");
    }

    #[test]
    fn archive_append_migrates_rda1_blobs_in_place() {
        // The 12-frame legacy fixture and the stream it was written from
        // (recipe in the root `tests/delta_archive.rs`), plus a 13th frame
        // to append after migration.
        let legacy: &[u8] = include_bytes!("../../archive/testdata/legacy.rda1");
        let params = workload::SequenceParams {
            gen: workload::GenParams::for_density(256, 0.3),
            height: 16,
            churn: 0.25,
        };
        let frames = workload::FrameSequence::new(params, 0x1DA1).take_frames(13);
        let next = tmp("migrate_12.rle");
        save_image(&frames[12], &next).unwrap();
        let append = |path: &Path| {
            run_command(&Command::ArchiveAppend {
                archive: path.to_path_buf(),
                frames: vec![next.clone()],
                keyframe_every: 999, // ignored: the blob's cadence wins
                fsync: archive::FsyncPolicy::Always,
            })
        };
        let migrate_tmp = |path: &Path| {
            let mut tmp = path.as_os_str().to_owned();
            tmp.push(".migrate");
            PathBuf::from(tmp)
        };

        // A truncated blob fails to migrate and is left exactly as it was.
        let torn_path = tmp("migrate_torn.rda");
        let torn = &legacy[..legacy.len() - 5];
        fs::write(&torn_path, torn).unwrap();
        assert!(append(&torn_path).is_err());
        assert_eq!(fs::read(&torn_path).unwrap(), torn);
        assert!(
            !migrate_tmp(&torn_path).exists(),
            "temp journal left behind"
        );

        // stat of the untouched blob reports the shape it was written with.
        let archive_path = tmp("migrate.rda");
        fs::write(&archive_path, legacy).unwrap();
        let stat = run_command(&Command::ArchiveStat {
            archive: archive_path.clone(),
        })
        .unwrap();
        for line in [
            "RDA1 legacy blob",
            "12 (3 keyframes, every 4)",
            "delta rows : 36",
            // `stat` reports the blob as migrated in memory, which stores
            // each delta row as the smaller of the row and its XOR: 705
            // runs in the blob's XOR-only deltas, 513 migrated.
            "stored runs: 513",
            "bytes      : 3297",
        ] {
            assert!(stat.contains(line), "{line}: {stat}");
        }

        // Appending migrates, then appends on the journal.
        let out = append(&archive_path).unwrap();
        assert!(out.contains("migrated 12 RDA1 frame(s)"), "{out}");
        assert!(out.contains("13 frames"), "{out}");
        assert!(fs::read(&archive_path)
            .unwrap()
            .starts_with(archive::JOURNAL_MAGIC));
        assert!(!migrate_tmp(&archive_path).exists());

        let stat = run_command(&Command::ArchiveStat {
            archive: archive_path.clone(),
        })
        .unwrap();
        assert!(stat.contains("every 4"), "{stat}");

        for (i, want) in frames.iter().enumerate() {
            let out_path = tmp(&format!("migrate_out_{i}.rle"));
            run_command(&Command::ArchiveExtract {
                archive: archive_path.clone(),
                index: i,
                out: out_path.clone(),
            })
            .unwrap();
            assert_eq!(&load_image(&out_path).unwrap(), want, "frame {i}");
        }
    }

    #[test]
    fn archive_fsck_flags_a_torn_tail_and_repairs_it() {
        let (frames, paths) = frame_files("fsck", 4, 0xF5C);
        let archive_path = tmp("fsck.rda");
        let _ = fs::remove_file(&archive_path);
        run_command(&Command::ArchiveAppend {
            archive: archive_path.clone(),
            frames: paths,
            keyframe_every: 2,
            fsync: archive::FsyncPolicy::Always,
        })
        .unwrap();

        // Tear the tail: chop 3 bytes off the last committed record.
        let len = fs::metadata(&archive_path).unwrap().len();
        let file = fs::OpenOptions::new()
            .write(true)
            .open(&archive_path)
            .unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        // Without --repair: report + non-zero exit via the typed error.
        let err = run_command(&Command::ArchiveFsck {
            archive: archive_path.clone(),
            repair: false,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("--repair"), "{err}");

        // Reads still work (recovery ignores the torn tail) and say so.
        let out_path = tmp("fsck_out.rle");
        let out = run_command(&Command::ArchiveExtract {
            archive: archive_path.clone(),
            index: 2,
            out: out_path.clone(),
        })
        .unwrap();
        assert!(out.contains("torn"), "{out}");
        assert_eq!(&load_image(&out_path).unwrap(), &frames[2]);

        // --repair truncates to the consistent prefix; fsck is then clean.
        let repaired = run_command(&Command::ArchiveFsck {
            archive: archive_path.clone(),
            repair: true,
        })
        .unwrap();
        assert!(repaired.contains("repaired"), "{repaired}");
        let clean = run_command(&Command::ArchiveFsck {
            archive: archive_path.clone(),
            repair: false,
        })
        .unwrap();
        assert!(clean.contains("3 committed, 3 verified"), "{clean}");
        assert!(clean.contains("clean"), "{clean}");
    }
}
