//! The command line: [`Command`], [`USAGE`] and [`parse_args`], which
//! reads every subcommand's flags through one [`Flags`] reader.

use crate::CliError;
use std::fmt::Display;
use std::num::{ParseFloatError, ParseIntError};
use std::path::PathBuf;
use std::str::FromStr;

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
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "systolic" => Ok(Algo::Systolic),
            "sequential" => Ok(Algo::Sequential),
            "mesh" => Ok(Algo::Mesh),
            "dense" => Ok(Algo::Dense),
            other => Err(format!("unknown algorithm {other:?}")),
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

/// The flags of one command line, split from its positionals once. Each
/// subcommand takes the flags it owns by name; one left over was given to
/// a subcommand that does not take it.
struct Flags<'a> {
    /// `(flag, value)` in command-line order (`--out` spelled `-o`); a
    /// switch's value is empty.
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Takes every value given for `flag`, in command-line order.
    fn all(&mut self, flag: &str) -> Vec<&'a str> {
        let values = self.given.iter().filter(|(f, _)| *f == flag);
        let values = values.map(|&(_, v)| v).collect();
        self.given.retain(|(f, _)| *f != flag);
        values
    }

    /// Takes `flag`'s value as written; when repeated, the last one wins.
    fn raw(&mut self, flag: &str) -> Option<&'a str> {
        self.all(flag).pop()
    }

    /// Takes `flag`'s value through `parse`. When repeated, the last one
    /// wins, but every value must parse: one `parse` refuses is a usage
    /// error naming the flag and the value.
    fn take<T, E: Display>(
        &mut self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Option<T>, CliError> {
        self.all(flag).into_iter().try_fold(None, |_, v| {
            parse(v)
                .map(Some)
                .map_err(|e| CliError::Usage(format!("{flag} {v:?}: {e}")))
        })
    }

    /// The `-o` path a subcommand cannot run without.
    fn out(&mut self, subcommand: &str) -> Result<PathBuf, CliError> {
        let out = self.raw("-o").map(PathBuf::from);
        out.ok_or_else(|| CliError::Usage(format!("{subcommand} needs -o")))
    }
}

/// A count that must be at least 1.
fn at_least_one<T: FromStr<Err = ParseIntError> + From<u8> + PartialOrd>(
    s: &str,
) -> Result<T, String> {
    let n: T = s.parse().map_err(|e: ParseIntError| e.to_string())?;
    if n >= T::from(1) {
        Ok(n)
    } else {
        Err("must be at least 1".into())
    }
}

/// A foreground density strictly between 0 and 1, the range the
/// workload generator accepts.
fn density(s: &str) -> Result<f64, String> {
    let d: f64 = s.parse().map_err(|e: ParseFloatError| e.to_string())?;
    if d > 0.0 && d < 1.0 {
        Ok(d)
    } else {
        Err("must be in (0, 1)".into())
    }
}

fn fsync_policy(s: &str) -> Result<archive::FsyncPolicy, String> {
    match s {
        "always" => Ok(archive::FsyncPolicy::Always),
        "close" => Ok(archive::FsyncPolicy::OnClose),
        _ => match s.strip_prefix("every=") {
            Some(n) => at_least_one(n).map(archive::FsyncPolicy::EveryN),
            None => Err("unknown fsync policy (want always, every=N or close)".into()),
        },
    }
}

/// Parses an argument vector (without the program name). `-h`/`--help`
/// anywhere asks for help; a flag the subcommand does not take is a usage
/// error.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut positional = Vec::new();
    let mut f = Flags { given: Vec::new() };
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "-h" | "--help" => return Ok(Command::Help),
            "--sig-prefilter" | "--verify-sigs" | "--repair" => f.given.push((arg, "")),
            flag if flag.len() > 1 && flag.starts_with('-') => {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
                f.given
                    .push((if flag == "--out" { "-o" } else { flag }, value));
            }
            _ => positional.push(arg),
        }
    }

    let command = match positional.as_slice() {
        [] => return Ok(Command::Help),
        ["diff", a, b] => Command::Diff {
            a: a.into(),
            b: b.into(),
            out: f.raw("-o").map(PathBuf::from),
            algo: f.take("--algo", Algo::parse)?.unwrap_or(Algo::Systolic),
            clean: f.take("--clean", str::parse)?.unwrap_or(0),
        },
        ["diff-image", a, b] => Command::DiffImage {
            a: a.into(),
            b: b.into(),
            out: f.raw("-o").map(PathBuf::from),
            threads: f.take("--threads", str::parse)?.unwrap_or(0),
            clean: f.take("--clean", str::parse)?.unwrap_or(0),
            timeout_ms: f.take("--timeout-ms", str::parse)?,
            kernel: f.take("--kernel", str::parse)?.unwrap_or_default(),
            chunk_target: f.take("--chunk-target", str::parse)?,
            simd: f
                .take("--simd", systolic_core::SimdLevel::parse_override)?
                .flatten(),
            metrics_out: f.raw("--metrics-out").map(PathBuf::from),
            trace_out: f.raw("--trace-out").map(PathBuf::from),
            sig_prefilter: f.raw("--sig-prefilter").is_some(),
            verify_sigs: f.raw("--verify-sigs").is_some(),
        },
        ["encode", input] => Command::Encode {
            input: input.into(),
            out: f.out("encode")?,
        },
        ["decode", input] => Command::Decode {
            input: input.into(),
            out: f.out("decode")?,
        },
        ["info", input] => Command::Info {
            input: input.into(),
        },
        ["components", input] => Command::Components {
            input: input.into(),
            min_area: f.take("--min-area", str::parse)?.unwrap_or(1),
        },
        ["gen", kind] => Command::Gen {
            kind: (*kind).to_string(),
            out: f.out("gen")?,
            seed: f.take("--seed", str::parse)?.unwrap_or(1),
            text: f.raw("--text").unwrap_or("RLE SYSTOLIC 1999").to_string(),
        },
        ["archive", "append", path, frames @ ..] if !frames.is_empty() => Command::ArchiveAppend {
            archive: path.into(),
            frames: frames.iter().map(PathBuf::from).collect(),
            keyframe_every: f
                .take("--keyframe-every", at_least_one)?
                .unwrap_or(archive::DEFAULT_KEYFRAME_INTERVAL),
            fsync: f
                .take("--fsync", fsync_policy)?
                .unwrap_or(archive::FsyncPolicy::Always),
        },
        ["archive", "extract", path, index] => Command::ArchiveExtract {
            archive: path.into(),
            index: index
                .parse()
                .map_err(|_| CliError::Usage("archive extract needs a frame index".into()))?,
            out: f.out("archive extract")?,
        },
        ["archive", "stat", path] => Command::ArchiveStat {
            archive: path.into(),
        },
        ["archive", "fsck", path] => Command::ArchiveFsck {
            archive: path.into(),
            repair: f.raw("--repair").is_some(),
        },
        ["diff-client", addr] => Command::DiffClient {
            addr: (*addr).to_string(),
            clients: f.take("--clients", at_least_one)?.unwrap_or(1),
            requests: f.take("--requests", at_least_one)?.unwrap_or(16),
            width: f.take("--width", str::parse)?.unwrap_or(512),
            height: f.take("--height", str::parse)?.unwrap_or(128),
            density: f.take("--density", density)?.unwrap_or(0.3),
            seed: f.take("--seed", str::parse)?.unwrap_or(1),
            deadline_ms: f.take("--deadline-ms", str::parse)?.unwrap_or(0),
            retries: f.take("--retries", str::parse)?.unwrap_or(0),
            backoff_ms: f.take("--backoff-ms", at_least_one)?.unwrap_or(25),
            json_out: f.raw("--json-out").map(PathBuf::from),
        },
        other => {
            return Err(CliError::Usage(format!(
                "unrecognised arguments: {other:?}"
            )))
        }
    };
    if let Some((flag, _)) = f.given.first() {
        let words = if positional[0] == "archive" { 2 } else { 1 };
        return Err(CliError::Usage(format!(
            "`{}` does not take {flag}",
            positional[..words].join(" ")
        )));
    }
    Ok(command)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, CliError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn a_flag_the_subcommand_does_not_take_is_a_usage_error_naming_it() {
        for (line, flag, subcommand) in [
            ("info x --threads 4", "--threads", "`info`"),
            ("diff a b --threads 2", "--threads", "`diff`"),
            ("archive stat a --repair", "--repair", "`archive stat`"),
            ("encode x -o y --seed 3", "--seed", "`encode`"),
            (
                "diff-client h:1 --keyframe-every 2",
                "--keyframe-every",
                "`diff-client`",
            ),
            ("decode x -o y --algo mesh", "--algo", "`decode`"),
            ("components x --clean 1", "--clean", "`components`"),
            ("gen pcb -o y --min-area 2", "--min-area", "`gen`"),
            ("diff-image a b --algo dense", "--algo", "`diff-image`"),
            ("diff a b --sig-prefilter", "--sig-prefilter", "`diff`"),
            (
                "archive append a f --threads 1",
                "--threads",
                "`archive append`",
            ),
            (
                "archive extract a 0 -o y --fsync close",
                "--fsync",
                "`archive extract`",
            ),
            (
                "archive fsck a --json-out j",
                "--json-out",
                "`archive fsck`",
            ),
            ("diff-client h:1 --out y", "-o", "`diff-client`"),
            ("info x --frobnicate 1", "--frobnicate", "`info`"),
        ] {
            match parse(line) {
                Err(CliError::Usage(m)) => {
                    assert!(m.contains(flag) && m.contains(subcommand), "{line}: {m}");
                }
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        assert_eq!(
            parse("diff a b --clean 1 -o x --algo dense --clean 3 --out y --algo mesh").unwrap(),
            Command::Diff {
                a: "a".into(),
                b: "b".into(),
                out: Some("y".into()),
                algo: Algo::Mesh,
                clean: 3,
            }
        );
        assert!(matches!(
            parse("archive fsck a --repair --repair").unwrap(),
            Command::ArchiveFsck { repair: true, .. }
        ));
        // An earlier value that does not parse is still an error.
        assert!(matches!(
            parse("diff a b --clean x --clean 3"),
            Err(CliError::Usage(m)) if m.contains("--clean") && m.contains("\"x\"")
        ));
    }
}
