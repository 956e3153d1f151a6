//! Implementation of the `rlediff` command-line tool.
//!
//! The binary in `main.rs` is a thin wrapper over [`parse_args`] and
//! [`run_command`]; all behaviour lives here so it can be unit-tested
//! without spawning processes. [`USAGE`] lists the subcommands; one
//! module parses them (`args`) and three run them (`image`,
//! `archive_cmd`, `diff_client`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod archive_cmd;
mod args;
mod diff_client;
mod image;

pub use args::{parse_args, Algo, Command, USAGE};
pub use image::{load_image, save_image};

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

impl CliError {
    /// A [`CliError::Parse`] naming the file at `path`.
    fn parse_at(path: &std::path::Path, e: impl std::fmt::Display) -> Self {
        CliError::Parse(format!("{}: {e}", path.display()))
    }
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

/// Executes a command, returning the text to print.
pub fn run_command(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(format!("{USAGE}\n")),
        Command::Encode { input, out } => image::encode(input, out),
        Command::Decode { input, out } => image::decode(input, out),
        Command::Info { input } => image::info(input),
        Command::Components { input, min_area } => image::components(input, *min_area),
        Command::Gen {
            kind,
            out,
            seed,
            text,
        } => image::gen(kind, out, *seed, text),
        Command::Diff {
            a,
            b,
            out,
            algo,
            clean,
        } => image::diff(a, b, out.as_deref(), *algo, *clean),
        Command::DiffImage { .. } => image::diff_image(cmd),
        Command::ArchiveAppend {
            archive,
            frames,
            keyframe_every,
            fsync,
        } => archive_cmd::append(archive, frames, *keyframe_every, *fsync),
        Command::ArchiveExtract {
            archive,
            index,
            out,
        } => archive_cmd::extract(archive, *index, out),
        Command::ArchiveStat { archive } => archive_cmd::stat(archive),
        Command::ArchiveFsck { archive, repair } => archive_cmd::fsck(archive, *repair),
        Command::DiffClient { .. } => diff_client::run(cmd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitimg::convert;
    use rle::RleImage;
    use std::fs;
    use std::path::{Path, PathBuf};

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
        // The workload generator takes densities strictly inside (0, 1).
        for bad in ["1.5", "NaN", "0", "1", "-0.5", "inf"] {
            assert!(
                matches!(
                    parse_args(&args(&["diff-client", "host:1", "--density", bad])),
                    Err(CliError::Usage(m)) if m.contains("--density")
                ),
                "{bad}"
            );
        }
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
