//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [experiment ...] [--quick] [--out DIR]
//!
//! experiments: fig1 fig3 fig5 table1 observation bus scaling all (default: all)
//! --quick     smaller sweeps/trials, for smoke runs
//! --out DIR   where CSVs are written (default: results/)
//! ```

use harness::experiments::{
    ablation_bus, coalesce, fig1, fig3, fig5, hardware, observation, scaling, table1, utilization,
};
use std::path::PathBuf;

struct Options {
    experiments: Vec<String>,
    quick: bool,
    out: PathBuf,
}

fn parse_args() -> Options {
    let mut experiments = Vec::new();
    let mut quick = false;
    let mut out = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [fig1|fig3|fig5|table1|observation|bus|coalesce|utilization|scaling|all ...] [--quick] [--out DIR]"
                );
                std::process::exit(0);
            }
            name => experiments.push(name.to_string()),
        }
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = [
            "fig1",
            "fig3",
            "fig5",
            "table1",
            "observation",
            "bus",
            "coalesce",
            "utilization",
            "hardware",
            "scaling",
        ]
        .map(String::from)
        .to_vec();
    }
    Options {
        experiments,
        quick,
        out,
    }
}

fn main() {
    let opts = parse_args();
    let mut unknown = Vec::new();

    for name in &opts.experiments {
        let banner = format!(
            "══ {name} {}",
            "═".repeat(66_usize.saturating_sub(name.len()))
        );
        match name.as_str() {
            "fig1" => {
                println!("{banner}");
                print!("{}", fig1::report());
            }
            "fig3" => {
                println!("{banner}");
                print!("{}", fig3::report());
            }
            "fig5" => {
                println!("{banner}");
                let config = if opts.quick {
                    fig5::Fig5Config {
                        width: 4_000,
                        trials: 8,
                        error_percents: (1..=14).map(|i| f64::from(i) * 5.0).collect(),
                        ..Default::default()
                    }
                } else {
                    fig5::Fig5Config::default()
                };
                // The sweep runs through a DiffExecutor (stats are
                // bit-identical to the bare array) so the iteration figure
                // ships with a machine-readable metrics snapshot.
                let (result, metrics) = fig5::run_observed(&config);
                print!("{}", fig5::report(&result));
                write_csv(&opts, "fig5.csv", &fig5::to_csv(&result));
                let svg_path = opts.out.join("fig5.svg");
                match std::fs::create_dir_all(&opts.out)
                    .and_then(|()| std::fs::write(&svg_path, fig5::to_svg(&result)))
                {
                    Ok(()) => println!("[svg] wrote {}", svg_path.display()),
                    Err(e) => eprintln!("[svg] failed to write {}: {e}", svg_path.display()),
                }
                for (file, body) in [
                    ("fig5_metrics.prom", metrics.to_prometheus()),
                    ("fig5_metrics.json", metrics.to_json()),
                ] {
                    let path = opts.out.join(file);
                    match std::fs::write(&path, body) {
                        Ok(()) => println!("[metrics] wrote {}", path.display()),
                        Err(e) => eprintln!("[metrics] failed to write {}: {e}", path.display()),
                    }
                }
            }
            "table1" => {
                println!("{banner}");
                let config = if opts.quick {
                    table1::Table1Config {
                        trials: 40,
                        ..Default::default()
                    }
                } else {
                    table1::Table1Config::default()
                };
                let result = table1::run(&config);
                print!("{}", table1::report(&result));
                write_csv(&opts, "table1.csv", &table1::to_csv(&result));
            }
            "observation" => {
                println!("{banner}");
                let config = if opts.quick {
                    observation::ObservationConfig {
                        width: 1_024,
                        similar_trials: 300,
                        independent_trials: 300,
                        ..Default::default()
                    }
                } else {
                    observation::ObservationConfig::default()
                };
                let result = observation::run(&config);
                print!("{}", observation::report(&result));
                write_csv(&opts, "observation.csv", &observation::to_csv(&result));
            }
            "bus" => {
                println!("{banner}");
                let config = if opts.quick {
                    ablation_bus::BusConfig {
                        width: 3_000,
                        trials: 5,
                        ..Default::default()
                    }
                } else {
                    ablation_bus::BusConfig::default()
                };
                let result = ablation_bus::run(&config);
                print!("{}", ablation_bus::report(&result));
                write_csv(&opts, "ablation_bus.csv", &ablation_bus::to_csv(&result));
            }
            "coalesce" => {
                println!("{banner}");
                let config = if opts.quick {
                    coalesce::CoalesceConfig {
                        width: 3_000,
                        trials: 5,
                        ..Default::default()
                    }
                } else {
                    coalesce::CoalesceConfig::default()
                };
                let result = coalesce::run(&config);
                print!("{}", coalesce::report(&result));
                write_csv(&opts, "coalesce.csv", &coalesce::to_csv(&result));
            }
            "utilization" => {
                println!("{banner}");
                let config = if opts.quick {
                    utilization::UtilizationConfig {
                        width: 3_000,
                        trials: 5,
                        ..Default::default()
                    }
                } else {
                    utilization::UtilizationConfig::default()
                };
                let result = utilization::run(&config);
                print!("{}", utilization::report(&result));
                write_csv(&opts, "utilization.csv", &utilization::to_csv(&result));
            }
            "hardware" => {
                println!("{banner}");
                print!("{}", hardware::report());
                write_csv(&opts, "hardware.csv", &hardware::to_csv());
            }
            "scaling" => {
                println!("{banner}");
                let config = if opts.quick {
                    scaling::ScalingConfig {
                        width: 100_000,
                        big_width: 400_000,
                        reps: 2,
                        ..Default::default()
                    }
                } else {
                    scaling::ScalingConfig::default()
                };
                let result = scaling::run(&config);
                print!("{}", scaling::report(&result));
                write_csv(&opts, "scaling.csv", &scaling::to_csv(&result));
            }
            other => unknown.push(other.to_string()),
        }
        println!();
    }

    if !unknown.is_empty() {
        eprintln!("unknown experiments: {}", unknown.join(", "));
        eprintln!("known: fig1 fig3 fig5 table1 observation bus coalesce utilization hardware scaling all");
        std::process::exit(2);
    }
}

fn write_csv(opts: &Options, file: &str, csv: &harness::csv::Csv) {
    let path = opts.out.join(file);
    match csv.write_to(&path) {
        Ok(()) => println!("[csv] wrote {}", path.display()),
        Err(e) => eprintln!("[csv] failed to write {}: {e}", path.display()),
    }
}
