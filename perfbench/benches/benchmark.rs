//! The repository benchmark command:
//!
//! ```text
//! cargo bench --manifest-path perfbench/Cargo.toml --bench benchmark -- \
//!     --workload <name|all> [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--smoke]
//! ```
//!
//! Prints the host record, each workload's metrics as `name value unit`
//! lines, and as its last line one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 after printing if any
//! operation failed or came back wrong, 2 on a usage error.

use std::path::Path;
use std::process::ExitCode;

use perfbench::report::{json_line, Host};
use perfbench::{Config, Workload};

const USAGE: &str =
    "usage: benchmark --workload <wire_small|wire_large|frames_low_churn|frames_high_churn|all> \
                     [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--smoke]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--workload" => {
                let name = value()?;
                args.workloads = match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    other => {
                        vec![Workload::parse(other).ok_or(format!("unknown workload {other:?}"))?]
                    }
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => args.smoke = true,
            // `cargo bench` appends this to every bench target's arguments.
            "--bench" => {}
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let host = Host::detect(manifest.parent().unwrap_or(manifest), args.smoke);
    println!("{}", host.record());
    // Journals and trace files live in the build's target directory, beside
    // the `tmp` directory Cargo names here.
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).with_file_name("benchmark");
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.6 } else { 30.0 });

    let mut reports = Vec::new();
    for workload in &args.workloads {
        let cfg = Config {
            workload: *workload,
            seed: args.seed,
            seconds,
            trace: args.trace,
            smoke: args.smoke,
            out_dir: out_dir.clone(),
        };
        println!(
            "== {} seed {} seconds {seconds} trace {}",
            workload.name(),
            args.seed,
            u8::from(args.trace)
        );
        match perfbench::run(&cfg, &host) {
            Ok(report) => {
                print!("{}", report.lines());
                reports.push(report);
            }
            Err(e) => {
                eprintln!("{}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }

    let ok = reports.iter().all(perfbench::report::Report::ok);
    let line = if let [only] = reports.as_slice() {
        only.json()
    } else {
        json_line(
            reports.iter().all(|r| r.wrong == 0),
            reports.iter().map(|r| r.attempted).sum(),
            reports.iter().map(|r| r.failed).sum(),
            reports.iter().flat_map(|r| {
                r.metrics
                    .iter()
                    .map(move |m| (format!("{}/{}", r.workload, m.name), m.value, m.unit))
            }),
        )
    };
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
