//! Black-box tests of the compiled `rlediff` binary.

use std::path::PathBuf;
use std::process::Command;

fn rlediff(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rlediff"))
        .args(args)
        .output()
        .expect("binary must run")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlediff_bin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn help_exits_zero() {
    let out = rlediff(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn bad_arguments_exit_nonzero_with_usage() {
    let out = rlediff(&["frobnicate"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// A flag the subcommand does not take and a `--density` outside (0, 1)
/// are both refused at parse time: exit 2 with the usage text, never a
/// load thread's panic.
#[test]
fn misplaced_and_out_of_range_flags_exit_two_with_usage() {
    for (args, flag) in [
        (
            &["diff", "a.pbm", "b.pbm", "--threads", "2"][..],
            "--threads",
        ),
        (
            &["diff-client", "127.0.0.1:1", "--density", "1.5"],
            "--density",
        ),
        (
            &["diff-client", "127.0.0.1:1", "--density", "NaN"],
            "--density",
        ),
    ] {
        let out = rlediff(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(stderr.contains(rlediff::USAGE), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// An unknown `gen` kind is refused at parse time: exit 2 with the usage
/// text, and no output file.
#[test]
fn gen_of_an_unknown_kind_exits_two_with_usage() {
    let out_path = tmp("motion.pbm");
    let out = rlediff(&["gen", "motion", "-o", out_path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown workload kind \"motion\""),
        "{stderr}"
    );
    assert!(stderr.contains(rlediff::USAGE), "{stderr}");
    assert!(!out_path.exists());
}

#[test]
fn missing_file_exits_one() {
    let out = rlediff(&["info", "/nonexistent/nope.pbm"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn full_workflow_gen_diff_info() {
    let a = tmp("w_a.pbm");
    let b = tmp("w_b.pbm");
    let d = tmp("w_diff.rle");

    let out = rlediff(&["gen", "glyphs", "-o", a.to_str().unwrap(), "--text", "IPPS"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = rlediff(&["gen", "glyphs", "-o", b.to_str().unwrap(), "--text", "IPPC"]);
    assert!(out.status.success());

    let out = rlediff(&[
        "diff",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "-o",
        d.to_str().unwrap(),
        "--algo",
        "systolic",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("px differ"), "{text}");
    assert!(text.contains("systolic"), "{text}");

    let out = rlediff(&["info", d.to_str().unwrap()]);
    assert!(out.status.success());
    let info = String::from_utf8_lossy(&out.stdout);
    assert!(info.contains("dimensions"), "{info}");
}

#[test]
fn corrupt_rle_exits_one_without_panic() {
    // An adversarial 13-byte header declaring a gigantic image: the binary
    // must exit 1 quickly with a parse error on stderr — no panic
    // backtrace, no multi-gigabyte allocation.
    let evil = tmp("evil.rle");
    let mut bytes = b"RLI1".to_vec();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0x7F]);
    std::fs::write(&evil, &bytes).unwrap();

    for cmd in ["info", "decode"] {
        let out = tmp("evil_out.pbm");
        let args: Vec<&str> = match cmd {
            "decode" => vec![cmd, evil.to_str().unwrap(), "-o", out.to_str().unwrap()],
            _ => vec![cmd, evil.to_str().unwrap()],
        };
        let out = rlediff(&args);
        assert_eq!(out.status.code(), Some(1), "{cmd} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("parse error"), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }

    // Truncated and bit-flipped streams get the same treatment.
    let garbage = tmp("garbage.rle");
    std::fs::write(&garbage, b"RLR1\x10\x00").unwrap();
    let out = rlediff(&["info", garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
}

#[test]
fn diff_image_timeout_flag_round_trips() {
    let a = tmp("t_a.pbm");
    let b = tmp("t_b.pbm");
    rlediff(&["gen", "glyphs", "-o", a.to_str().unwrap(), "--text", "AB"]);
    rlediff(&["gen", "glyphs", "-o", b.to_str().unwrap(), "--text", "AC"]);
    // A generous deadline on healthy workers changes nothing.
    let out = rlediff(&[
        "diff-image",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--threads",
        "2",
        "--timeout-ms",
        "60000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("pipeline:"));
    // A malformed value is a usage error (exit 2).
    let out = rlediff(&[
        "diff-image",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--timeout-ms",
        "never",
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn diff_image_kernel_and_chunk_target_flags() {
    let a = tmp("k_a.pbm");
    let b = tmp("k_b.pbm");
    rlediff(&["gen", "glyphs", "-o", a.to_str().unwrap(), "--text", "XOR"]);
    rlediff(&["gen", "glyphs", "-o", b.to_str().unwrap(), "--text", "XOS"]);

    // Every kernel policy produces the same pixel diff; the stats block
    // reports the per-kernel row counts and avoided allocations.
    let mut diffs = Vec::new();
    for kernel in ["auto", "rle", "packed", "systolic"] {
        let out_path = tmp(&format!("k_d_{kernel}.rle"));
        let out = rlediff(&[
            "diff-image",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
            "--kernel",
            kernel,
            "--chunk-target",
            "64",
        ]);
        assert!(
            out.status.success(),
            "{kernel}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.contains("kernels    :"), "{kernel}: {text}");
        assert!(text.contains("buffers reused"), "{kernel}: {text}");
        let first_line = text.lines().next().unwrap_or("").to_string();
        diffs.push((std::fs::read(&out_path).unwrap(), first_line));
    }
    for (bytes, summary) in &diffs[1..] {
        assert_eq!(bytes, &diffs[0].0, "kernels must agree byte-for-byte");
        assert_eq!(summary, &diffs[0].1);
    }

    // An unknown kernel is a usage error (exit 2) that names the options.
    let out = rlediff(&[
        "diff-image",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--kernel",
        "quantum",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("packed"));
    // So is a malformed chunk target.
    let out = rlediff(&[
        "diff-image",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--chunk-target",
        "lots",
    ]);
    assert_eq!(out.status.code(), Some(2));
}

/// Pulls `name value` out of Prometheus text exposition.
fn prom_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing:\n{text}"))
        .parse()
        .unwrap_or_else(|_| panic!("metric {name} is not an integer"))
}

/// Pulls `"key": value` out of the flat JSON exposition.
fn json_value(text: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = text
        .find(&pat)
        .unwrap_or_else(|| panic!("key {key} missing:\n{text}"));
    text[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("key {key} is not an integer"))
}

#[test]
fn diff_image_metrics_out_emits_a_parsable_consistent_snapshot() {
    let a = tmp("m_a.pbm");
    let b = tmp("m_b.pbm");
    rlediff(&["gen", "pcb", "-o", a.to_str().unwrap(), "--seed", "7"]);
    rlediff(&["gen", "pcb", "-o", b.to_str().unwrap(), "--seed", "8"]);
    let prom = tmp("m.prom");
    let json = tmp("m.json");
    let trace = tmp("m.jsonl");

    let out = rlediff(&[
        "diff-image",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--threads",
        "2",
        "--metrics-out",
        prom.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(metrics)"), "{stdout}");
    assert!(stdout.contains("(trace"), "{stdout}");

    // Prometheus text: the ledger identities must reconcile.
    let text = std::fs::read_to_string(&prom).unwrap();
    let rows = prom_value(&text, "diffpipeline_rows_submitted_total");
    assert!(rows > 0, "pcb images are not empty");
    assert_eq!(prom_value(&text, "diffpipeline_rows_completed_total"), rows);
    assert_eq!(prom_value(&text, "diffpipeline_rows_errored_total"), 0);
    assert_eq!(prom_value(&text, "diffpipeline_rows_diffed_total"), rows);
    let by_kernel = prom_value(&text, "diffpipeline_rows_fast_path_total")
        + prom_value(&text, "diffpipeline_rows_rle_kernel_total")
        + prom_value(&text, "diffpipeline_rows_packed_kernel_total")
        + prom_value(&text, "diffpipeline_rows_systolic_kernel_total");
    assert_eq!(by_kernel, rows, "kernel counters partition the rows");
    assert_eq!(prom_value(&text, "diffpipeline_row_latency_ns_count"), rows);
    assert_eq!(prom_value(&text, "diffpipeline_row_runs_count"), rows);
    assert_eq!(prom_value(&text, "diffpipeline_queue_depth"), 0);
    assert_eq!(prom_value(&text, "diffpipeline_in_flight"), 0);
    assert_eq!(
        prom_value(&text, "diffpipeline_chunks_completed_total"),
        prom_value(&text, "diffpipeline_chunks_dispatched_total"),
    );

    // A .json extension switches to the JSON exposition with the same
    // numbers.
    let out = rlediff(&[
        "diff-image",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--threads",
        "2",
        "--metrics-out",
        json.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let jtext = std::fs::read_to_string(&json).unwrap();
    assert!(jtext.trim_start().starts_with('{'), "{jtext}");
    assert_eq!(json_value(&jtext, "rows_submitted"), rows);
    assert_eq!(json_value(&jtext, "rows_completed"), rows);
    assert_eq!(json_value(&jtext, "batches"), 1);

    // The trace is one JSON object per line, with submits and kernels for
    // every row (ring capacity far exceeds this workload).
    let ttext = std::fs::read_to_string(&trace).unwrap();
    let mut submits = 0u64;
    let mut kernels = 0u64;
    for line in ttext.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"event\": \""), "{line}");
        if line.contains("\"event\": \"submit\"") {
            submits += 1;
        }
        if line.contains("\"event\": \"kernel\"") {
            kernels += 1;
        }
    }
    assert_eq!(submits, rows);
    assert_eq!(kernels, rows);
}

/// The robustness contract of `--timeout-ms` end to end: a wedged worker
/// (deterministically injected via `RLEDIFF_FAULT_STALL_MS`) must surface
/// as exit code 1 with the pipeline's deadline message on stderr — no
/// panic, no hang. Requires `--features fault-injection`.
#[cfg(feature = "fault-injection")]
#[test]
fn diff_image_timeout_under_a_stalled_worker_exits_one_with_deadline_message() {
    let a = tmp("s_a.pbm");
    let b = tmp("s_b.pbm");
    rlediff(&[
        "gen",
        "glyphs",
        "-o",
        a.to_str().unwrap(),
        "--text",
        "STALL",
    ]);
    rlediff(&[
        "gen",
        "glyphs",
        "-o",
        b.to_str().unwrap(),
        "--text",
        "STALK",
    ]);

    let out = Command::new(env!("CARGO_BIN_EXE_rlediff"))
        .args([
            "diff-image",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--threads",
            "2",
            "--timeout-ms",
            "50",
        ])
        .env("RLEDIFF_FAULT_STALL_MS", "2000")
        .output()
        .expect("binary must run");
    assert_eq!(out.status.code(), Some(1), "deadline expiry is exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("deadline exceeded"),
        "stderr must carry the DeadlineExceeded message: {stderr}"
    );
    assert!(stderr.contains("pipeline error"), "{stderr}");
    assert!(!stderr.contains("panicked"), "no panic leaks: {stderr}");

    // Same flags without the injected stall: clean success, proving the
    // failure above was the deadline and not the flag plumbing.
    let out = Command::new(env!("CARGO_BIN_EXE_rlediff"))
        .args([
            "diff-image",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--threads",
            "2",
            "--timeout-ms",
            "50",
        ])
        .output()
        .expect("binary must run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn archive_round_trips_frames_bit_identically() {
    let store = tmp("seq.rda");
    let _ = std::fs::remove_file(&store);
    let mut frame_paths = Vec::new();
    for (i, text) in ["AAA", "AAB", "ABB", "BBB"].iter().enumerate() {
        let p = tmp(&format!("seq_f{i}.rle"));
        let out = rlediff(&["gen", "glyphs", "-o", p.to_str().unwrap(), "--text", text]);
        assert!(out.status.success());
        frame_paths.push(p);
    }

    // Append the first two frames in one invocation, the rest in a second
    // — the archive must pick up where it left off.
    let out = rlediff(&[
        "archive",
        "append",
        store.to_str().unwrap(),
        frame_paths[0].to_str().unwrap(),
        frame_paths[1].to_str().unwrap(),
        "--keyframe-every",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("frame 0"), "{text}");
    assert!(text.contains("keyframe"), "{text}");
    let out = rlediff(&[
        "archive",
        "append",
        store.to_str().unwrap(),
        frame_paths[2].to_str().unwrap(),
        frame_paths[3].to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // stat reports the shape.
    let out = rlediff(&["archive", "stat", store.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("frames     : 4 (2 keyframes, every 3)"),
        "{text}"
    );

    // Every extracted frame matches its source byte-for-byte.
    for (i, src) in frame_paths.iter().enumerate() {
        let got = tmp(&format!("seq_x{i}.rle"));
        let out = rlediff(&[
            "archive",
            "extract",
            store.to_str().unwrap(),
            &i.to_string(),
            "-o",
            got.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "frame {i}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            std::fs::read(&got).unwrap(),
            std::fs::read(src).unwrap(),
            "frame {i} must be bit-identical"
        );
    }

    // An out-of-range index and a corrupt archive both exit 1 cleanly.
    let out = rlediff(&[
        "archive",
        "extract",
        store.to_str().unwrap(),
        "9",
        "-o",
        tmp("nope.rle").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    let evil = tmp("evil.rda");
    std::fs::write(&evil, b"RDA1\xFF\xFF").unwrap();
    let out = rlediff(&["archive", "stat", evil.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
}

/// `archive append` on a version-1 journal (the pinned `v1.rda2`, 12
/// frames of 256×16) migrates it in place to version 2 and appends; a
/// failed migration leaves the file byte-identical.
#[test]
fn archive_append_migrates_a_version_1_journal() {
    let v1: &[u8] = include_bytes!("../../archive/testdata/v1.rda2");
    let store = tmp("v1_copy.rda2");
    std::fs::write(&store, v1).unwrap();
    let store_arg = store.to_str().unwrap();
    let out = rlediff(&["archive", "stat", store_arg]);
    assert!(String::from_utf8_lossy(&out.stdout)
        .contains("RDA2 journal, version 1 (append migrates it to version 2)"));

    // The frames as the version-1 journal holds them (reads never write).
    let extract = |i: usize| {
        let got = tmp(&format!("v1_x{i}.rle"));
        let out = rlediff(&[
            "archive",
            "extract",
            store_arg,
            &i.to_string(),
            "-o",
            got.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "frame {i}: {out:?}");
        (got.clone(), std::fs::read(&got).unwrap())
    };
    let before: Vec<(PathBuf, Vec<u8>)> = (0..12).map(extract).collect();
    assert_eq!(std::fs::read(&store).unwrap(), v1);

    // A directory squatting on the temp path makes the migration fail:
    // exit 1, and the journal is byte-identical.
    let migrate = tmp("v1_copy.rda2.migrate");
    std::fs::create_dir_all(&migrate).unwrap();
    let next = before[11].0.to_str().unwrap();
    let out = rlediff(&["archive", "append", store_arg, next]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(std::fs::read(&store).unwrap(), v1);
    std::fs::remove_dir(&migrate).unwrap();

    let out = rlediff(&["archive", "append", store_arg, next]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout.contains("migrated 12 frame(s) of journal version 1 to version 2"),
        "{stdout}"
    );
    assert!(stdout.contains("13 frames"), "{stdout}");
    assert!(!migrate.exists(), "temp journal left behind");
    let migrated = std::fs::read(&store).unwrap();
    assert_eq!((&migrated[..4], migrated[4]), (&b"RDA2"[..], 2));
    let out = rlediff(&["archive", "stat", store_arg]);
    let stat = String::from_utf8_lossy(&out.stdout);
    assert!(stat.contains("RDA2 journal, version 2\n"), "{stat}");
    assert!(stat.contains("13 (4 keyframes, every 4)"), "{stat}");
    for (i, (_, want)) in before.iter().enumerate() {
        assert_eq!(&extract(i).1, want, "frame {i} after migration");
    }
    assert_eq!(extract(12).1, before[11].1, "the appended frame");
}

/// An append with a frame that does not fit the archive's geometry exits
/// 1 and leaves the file byte-identical: a version-1 journal or an RDA1
/// blob is not migrated, and no frame before the bad one is appended.
#[test]
fn a_failed_archive_append_leaves_the_file_untouched() {
    let big = tmp("untouched_pcb.pbm");
    let out = rlediff(&["gen", "pcb", "-o", big.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let big = big.to_str().unwrap();
    let fixtures: [(&str, &[u8]); 3] = [
        ("v1.rda2", include_bytes!("../../archive/testdata/v1.rda2")),
        (
            "legacy.rda1",
            include_bytes!("../../archive/testdata/legacy.rda1"),
        ),
        ("v2.rda2", include_bytes!("../../archive/testdata/v2.rda2")),
    ];
    for (name, fixture) in fixtures {
        let store = tmp(&format!("untouched_{name}"));
        std::fs::write(&store, fixture).unwrap();
        let store = store.to_str().unwrap();
        // A frame that fits: the fixture's own first frame.
        let fits = tmp(&format!("untouched_{name}_f0.rle"));
        let fits = fits.to_str().unwrap();
        let out = rlediff(&["archive", "extract", store, "0", "-o", fits]);
        assert!(out.status.success(), "{name}: {out:?}");
        for frames in [vec![big], vec![fits, big]] {
            let mut args = vec!["archive", "append", store];
            args.extend(&frames);
            let out = rlediff(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {frames:?}: {stderr}");
            assert!(
                stderr.contains("input mismatch") && stderr.contains("frame is 1024x256"),
                "{name} {frames:?}: {stderr}"
            );
            let unchanged = std::fs::read(store).unwrap() == fixture;
            assert!(unchanged, "{name} {frames:?}: the file changed");
        }
        assert!(!tmp(&format!("untouched_{name}.migrate")).exists());
    }
}

/// A file that is not an archive of either format is refused without
/// being touched, and the message names the format the CLI writes.
#[test]
fn archive_refuses_a_foreign_file_and_names_the_journal_format() {
    let foreign = tmp("foreign.rda");
    let original = b"P1\n4 2\n1 0 1 0\n0 1 0 1\n";
    std::fs::write(&foreign, original).unwrap();
    let frame = tmp("foreign_f0.rle");
    let out = rlediff(&[
        "gen",
        "glyphs",
        "-o",
        frame.to_str().unwrap(),
        "--text",
        "A",
    ]);
    assert!(out.status.success());

    let foreign = foreign.to_str().unwrap();
    for args in [
        vec!["archive", "append", foreign, frame.to_str().unwrap()],
        vec!["archive", "stat", foreign],
    ] {
        let out = rlediff(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("RDA2"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(std::fs::read(foreign).unwrap(), original, "{args:?}");
    }
}

/// A load run where the server sheds every request must exit nonzero: a
/// scripted benchmark that silently reports "p50 0.000 ms" over zero
/// successes is worse than one that fails. A zero-admission server makes
/// the total shed deterministic.
#[test]
fn diff_client_exits_one_when_every_request_is_shed() {
    let cfg = diffd::DiffServerConfig {
        max_concurrent_requests: 0,
        ..Default::default()
    };
    let server = diffd::DiffServer::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();
    let (handle, join) = server.spawn();

    let out = rlediff(&[
        "diff-client",
        &addr,
        "--clients",
        "2",
        "--requests",
        "3",
        "--width",
        "64",
        "--height",
        "16",
    ]);
    handle.shutdown();
    let _ = join.join();

    assert_eq!(out.status.code(), Some(1), "all-shed run must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no request succeeded"), "{stderr}");
    assert!(stderr.contains("6 shed"), "{stderr}");
}

#[test]
fn diff_of_identical_inputs_is_empty() {
    let a = tmp("i_a.pbm");
    rlediff(&["gen", "pcb", "-o", a.to_str().unwrap(), "--seed", "3"]);
    let out = rlediff(&["diff", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 px differ"));
}
