//! The repository benchmark: four workloads over `diffd`, the executor and
//! the delta archive, with a traced per-layer run.
//!
//! Every layer is timed from outside, through the public APIs of `diffd`,
//! `systolic_core`, `rle` and `archive`; no program code changes. Each run
//! does an untimed warm-up and then measures equal time windows. The p50
//! latency is the mean over windows of each window's median (the min/max
//! spread is printed beside it); a tail is taken over the pooled samples.
//! The traced run alternates untraced and traced windows and then replays,
//! one layer at a time, the layers the workload's own path uses. See
//! `README.md` for the workloads, metrics and how to read the trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frames;
pub mod replay;
pub mod report;
pub mod trace;
pub mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use workload::{FrameSequence, GenParams, SequenceParams};

use crate::report::{median, percentile, sorted, tail_percentile, Host, Metric, Report, Windowed};
use crate::trace::Trace;

/// End-to-end metrics `(name, unit)`: what a user of the system sees.
/// Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("bytes_per_op", "B"),
];

/// Per-layer metrics `(name, unit)` that the traced run of every workload
/// reports: layers both paths go through, each measured on the workload's
/// own traffic. These make up the traced run's JSON line.
pub const PER_LAYER: [(&str, &str); 17] = [
    ("engine.diff_ms", "ms"),
    ("executor.submit_ms", "ms"),
    ("executor.queue_wait_ms", "ms"),
    ("executor.collect_ms", "ms"),
    ("executor.assemble_ms", "ms"),
    ("executor.chunks_per_job", "count"),
    ("executor.steals_per_job", "count"),
    ("executor.effective_workers", "count"),
    ("kernel.rows_rle", "ratio"),
    ("kernel.rows_packed", "ratio"),
    ("kernel.rows_fast", "ratio"),
    ("kernel.ns_per_row_rle", "ns"),
    ("kernel.ns_per_row_packed", "ns"),
    ("serialize.encode_frame_ms", "ms"),
    ("serialize.decode_frame_ms", "ms"),
    ("stage_sum_gap", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Layer metrics only the wire workloads' path has (`diffd`); their traced
/// runs print them beside the per-layer metrics, outside the JSON line.
pub const WIRE_LAYERS: [(&str, &str); 11] = [
    ("client.encode_ms", "ms"),
    ("client.decode_ms", "ms"),
    ("client.verify_ms", "ms"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p99_ms", "ms"),
    ("server.compute_ms", "ms"),
    ("server.other_ms", "ms"),
    ("proto.decode_request_ms", "ms"),
    ("proto.encode_reply_ms", "ms"),
    ("wire.request_bytes", "B"),
    ("wire.reply_bytes", "B"),
];

/// Layer metrics only the frame workloads' path has (prefilter, archive),
/// printed like [`WIRE_LAYERS`].
pub const FRAME_LAYERS: [(&str, &str); 10] = [
    ("pipeline.sig_skip_rate", "ratio"),
    ("pipeline.bypassed_frames", "ratio"),
    ("pipeline.rows_to_kernels", "count"),
    ("sig.cold_frame_ms", "ms"),
    ("archive.append_ms", "ms"),
    ("archive.extract_ms", "ms"),
    ("journal.append_bytes", "B"),
    ("journal.syncs_per_append", "ratio"),
    ("journal.records_replayed_per_extract", "count"),
    ("journal.open_ms", "ms"),
];

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Small requests over loopback: per-request fixed costs dominate.
    WireSmall,
    /// Large requests over loopback: byte-proportional work dominates.
    WireLarge,
    /// A 1 %-churn frame stream diffed and archived in process.
    FramesLowChurn,
    /// The same stream at 40 % churn, past the prefilter's bypass point.
    FramesHighChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::WireSmall,
        Workload::WireLarge,
        Workload::FramesLowChurn,
        Workload::FramesHighChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire_small",
            Workload::WireLarge => "wire_large",
            Workload::FramesLowChurn => "frames_low_churn",
            Workload::FramesHighChurn => "frames_high_churn",
        }
    }

    /// Whether the workload drives `diffd` (else the in-process frame path).
    #[must_use]
    pub fn is_wire(self) -> bool {
        matches!(self, Workload::WireSmall | Workload::WireLarge)
    }

    /// The layer metrics only this workload's path has.
    #[must_use]
    pub fn path_layers(self) -> &'static [(&'static str, &'static str)] {
        if self.is_wire() {
            &WIRE_LAYERS
        } else {
            &FRAME_LAYERS
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `op_tail_ms` reports: p99 where a window's worth of
    /// requests supports it, p95 elsewhere.
    #[must_use]
    pub fn tail(self) -> f64 {
        match self {
            Workload::WireSmall => 99.0,
            _ => 95.0,
        }
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of measurement windows.
    pub seconds: f64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
    /// Small geometry and short set-up, same code path and checks.
    pub smoke: bool,
    /// Where journals (removed at exit) and trace files are written.
    pub out_dir: PathBuf,
}

/// A measurement plan: an untimed warm-up, then equal windows.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Untimed warm-up before the first window.
    pub warmup: Duration,
    /// Total length of the windows.
    pub measure: Duration,
    /// Number of windows.
    pub windows: usize,
    /// Whether odd-numbered windows record spans, so traced and untraced
    /// windows interleave.
    pub trace: bool,
}

impl Plan {
    /// Starts the plan now; spans count from `epoch`.
    #[must_use]
    pub fn start(&self, epoch: Instant) -> Schedule {
        let windows = self.windows.max(1);
        Schedule {
            epoch,
            begin: Instant::now() + self.warmup,
            window: self.measure / u32::try_from(windows).expect("few windows"),
            windows,
            trace: self.trace,
        }
    }
}

/// A started [`Plan`].
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Span timestamps count from here.
    pub epoch: Instant,
    /// Start of the first window.
    pub begin: Instant,
    /// Length of one window.
    pub window: Duration,
    /// Number of windows.
    pub windows: usize,
    /// Whether odd-numbered windows record spans.
    pub trace: bool,
}

impl Schedule {
    /// End of the last window.
    #[must_use]
    pub fn end(&self) -> Instant {
        self.begin + self.window * u32::try_from(self.windows).expect("few windows")
    }

    /// The window containing `t`; `None` during warm-up.
    #[must_use]
    pub fn window_of(&self, t: Instant) -> Option<usize> {
        let since = t.checked_duration_since(self.begin)?;
        let w = (since.as_nanos() / self.window.as_nanos().max(1)) as usize;
        (w < self.windows).then_some(w)
    }

    /// One empty [`Window`] per window of the schedule.
    #[must_use]
    pub fn windows_vec(&self) -> Vec<Window> {
        (0..self.windows)
            .map(|w| Window {
                traced: self.traced(Some(w)),
                samples_ms: Vec::new(),
            })
            .collect()
    }

    /// Whether an operation starting in `window` records spans.
    #[must_use]
    pub fn traced(&self, window: Option<usize>) -> bool {
        self.trace && window.is_some_and(|w| w % 2 == 1)
    }
}

/// SplitMix64 of `seed` and `salt`: derives independent seeds.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How often a run sets the system up: at least `min` times and for at
/// least `budget`, so a cheap set-up is repeated more and its median
/// settles. Every set-up but the last is torn down again.
#[derive(Clone, Copy, Debug)]
pub struct Setups {
    /// Fewest set-ups.
    pub min: usize,
    /// Shortest total time spent setting up.
    pub budget: Duration,
}

impl Setups {
    /// Times `setup` repeatedly; returns each duration in seconds and the
    /// last set-up's result.
    pub fn run<T>(
        self,
        mut setup: impl FnMut() -> Result<T, String>,
        mut teardown: impl FnMut(T) -> Result<(), String>,
    ) -> Result<(Vec<f64>, T), String> {
        let start = Instant::now();
        let mut times = Vec::new();
        loop {
            let t = Instant::now();
            let live = setup()?;
            times.push(t.elapsed().as_secs_f64());
            if times.len() >= self.min && start.elapsed() >= self.budget {
                return Ok((times, live));
            }
            teardown(live)?;
        }
    }
}

/// Sizes and timings that differ between full and smoke runs.
struct Scale {
    setups: Setups,
    warmup: Duration,
    /// Time each layer replay runs for.
    replay: Duration,
}

impl Scale {
    fn of(cfg: &Config) -> Self {
        if cfg.smoke {
            Self {
                setups: Setups {
                    min: 3,
                    budget: Duration::ZERO,
                },
                warmup: Duration::from_millis(100),
                replay: Duration::ZERO,
            }
        } else {
            Self {
                setups: Setups {
                    min: 9,
                    budget: Duration::from_millis(500),
                },
                warmup: Duration::from_secs(1),
                replay: Duration::from_millis(300),
            }
        }
    }
}

/// The request pool and connection count of a wire workload.
/// `wire_small`'s rows are sparse enough (10 % density) that `Kernel::Auto`
/// sends most of them to the RLE merge, `wire_large`'s dense enough that it
/// sends every one to the packed kernel.
fn wire_spec(w: Workload, smoke: bool) -> (wire::PoolSpec, usize) {
    let (width, height, run_len, density, errors, pairs, connections) = match (w, smoke) {
        (Workload::WireSmall, false) => (2048, 128, GenParams::PAPER_RUN_LEN, 0.1, 0.02, 16, 2),
        (Workload::WireSmall, true) => (256, 16, GenParams::PAPER_RUN_LEN, 0.1, 0.02, 4, 2),
        (_, false) => (16_384, 256, (2, 4), 0.3, 0.01, 4, 1),
        (_, true) => (1024, 32, (2, 4), 0.3, 0.01, 2, 1),
    };
    let spec = wire::PoolSpec {
        gen: GenParams::with_runs(width, run_len, density),
        height,
        errors,
        pairs,
    };
    (spec, connections)
}

fn frame_sequence(w: Workload, smoke: bool, seed: u64) -> FrameSequence {
    let churn = if w == Workload::FramesLowChurn {
        0.01
    } else {
        0.40
    };
    let (width, height) = if smoke { (512, 32) } else { (8192, 512) };
    let params = SequenceParams {
        gen: GenParams::with_runs(width, (2, 4), 0.3),
        height,
        churn,
    };
    FrameSequence::new(params, mix(seed, 0xF4))
}

/// Consecutive frame pairs the frame workloads replay layers over.
const REPLAY_PAIRS: usize = 4;

/// Values gathered by a run, keyed by metric name, with a note each.
pub(crate) type Values = BTreeMap<&'static str, (f64, String)>;

/// The operations that started within one measurement window.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Whether the window recorded spans.
    pub traced: bool,
    /// Duration of each operation that completed correctly, in ms.
    pub samples_ms: Vec<f64>,
}

/// What a traced run hands to the per-layer report.
struct Traced {
    /// Name of the span every operation is rooted at.
    root: &'static str,
    trace: Trace,
    windows: Vec<Window>,
    /// The image pairs the layer replays run over.
    pairs: Vec<wire::Pair>,
}

/// Runs one workload and returns its report; prints the trace table of a
/// traced run as it goes.
pub fn run(cfg: &Config, host: &Host) -> Result<Report, String> {
    let scale = Scale::of(cfg);
    let threads = host.cores;
    let epoch = Instant::now();
    // Windows of about a second, at least five; a traced run needs an even
    // count so traced and untraced windows pair up.
    let windows = (cfg.seconds.round() as usize).max(5);
    let windows = if cfg.trace {
        windows.next_multiple_of(2)
    } else {
        windows
    };
    let plan = Plan {
        warmup: scale.warmup,
        measure: Duration::from_secs_f64(cfg.seconds),
        windows,
        trace: cfg.trace,
    };
    let mut values = Values::new();
    let mut report = Report {
        workload: cfg.workload.name().to_string(),
        ..Report::default()
    };

    let traced = if cfg.workload.is_wire() {
        let (spec, connections) = wire_spec(cfg.workload, cfg.smoke);
        let connections = connections.min(host.cores);
        println!(
            "# {}: {}x{} pool of {} pairs, {}, {}",
            cfg.workload.name(),
            spec.gen.width,
            spec.height,
            spec.pairs,
            host.threads("connections", connections),
            host.threads("executor_threads", threads),
        );
        let pool = wire::pool(&spec, cfg.seed);
        let run = wire::run(&pool, connections, threads, scale.setups, &plan, epoch)?;
        tally(&mut report, run.attempted, run.failed, run.wrong);
        values.insert("setup_s", setup(&run.setup_s));
        latency_metrics(&run.windows, cfg.workload, &mut values);
        values.insert(
            "bytes_per_op",
            (
                run.bytes_per_request,
                "request + reply frame bytes per request".into(),
            ),
        );
        if cfg.trace {
            wire_layers(&run, &mut values);
        }
        Traced {
            root: "request",
            trace: run.trace,
            windows: run.windows,
            pairs: pool,
        }
    } else {
        let mut seq = frame_sequence(cfg.workload, cfg.smoke, cfg.seed);
        println!(
            "# {}: {} in process, {}",
            cfg.workload.name(),
            host.threads("load_threads", 1),
            host.threads("pipeline_threads", threads),
        );
        let dir = cfg.out_dir.join(format!(
            "run-{}-{}",
            cfg.workload.name(),
            std::process::id()
        ));
        let run = frames::run(
            &mut seq,
            threads,
            scale.setups,
            &plan,
            epoch,
            &dir,
            cfg.seed,
        );
        let run = cleanup(&dir, run)?;
        tally(&mut report, run.attempted, run.failed, run.wrong);
        values.insert("setup_s", setup(&run.setup_s));
        latency_metrics(&run.windows, cfg.workload, &mut values);
        values.insert(
            "bytes_per_op",
            (
                run.bytes_per_frame,
                "journal bytes per frame over whole keyframe intervals".into(),
            ),
        );
        if cfg.trace {
            frames_layers(&run, &mut values);
        }
        Traced {
            root: "frame.step",
            trace: run.trace,
            windows: run.windows,
            pairs: frames::replay_pairs(&mut seq, REPLAY_PAIRS),
        }
    };

    if cfg.trace {
        let t = &traced.trace;
        let ops = t.durations_ms(traced.root).len();
        values.insert(
            "engine.diff_ms",
            (
                p50_of(t, "engine.diff"),
                format!("p50, {ops} traced operations"),
            ),
        );
        values.insert(
            "stage_sum_gap",
            (
                t.stage_sum_gap(traced.root).unwrap_or(0.0),
                format!(
                    "|sum of stage p50s - {} p50 {:.4} ms| / {0} p50",
                    traced.root,
                    p50_of(t, traced.root)
                ),
            ),
        );
        values.insert("trace.overhead", overhead(&traced.windows));
        let (attempted, failed) = replay::run(
            &traced.pairs,
            cfg.workload.is_wire(),
            threads,
            scale.replay,
            &mut values,
        );
        tally(&mut report, attempted, failed, failed);
        let path = cfg.out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        t.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# spans -> {}", path.display());
        print!("{}", t.table());
    }

    let (declared, details): (&[(&'static str, &'static str)], _) = if cfg.trace {
        (&PER_LAYER, cfg.workload.path_layers())
    } else {
        (&END_TO_END, &[][..])
    };
    report.metrics = take(&mut values, declared)?;
    report.details = take(&mut values, details)?;
    // A traced run measures the end-to-end metrics too but reports layers.
    let undeclared = values
        .keys()
        .find(|name| !END_TO_END.iter().any(|(e, _)| e == *name));
    if let Some(name) = undeclared {
        return Err(format!("{name} was measured but is not declared"));
    }
    Ok(report)
}

/// Moves the `names` out of `values`, in order.
fn take(
    values: &mut Values,
    names: &[(&'static str, &'static str)],
) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|&(name, unit)| {
            let (value, note) = values
                .remove(name)
                .ok_or_else(|| format!("{name} was not measured"))?;
            Ok(Metric {
                name,
                value,
                unit,
                note,
            })
        })
        .collect()
}

fn tally(report: &mut Report, attempted: u64, failed: u64, wrong: u64) {
    report.attempted += attempted;
    report.failed += failed;
    report.wrong += wrong;
}

/// Removes a run's journal directory whatever the run's outcome.
fn cleanup<T>(dir: &std::path::Path, result: Result<T, String>) -> Result<T, String> {
    let removed = std::fs::remove_dir_all(dir);
    let value = result?;
    removed.map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(value)
}

fn windowed(values: &[f64], unit: &str) -> (f64, String) {
    match Windowed::of(values) {
        Some(w) => (
            w.mean,
            format!(
                "mean of {} window p50s, min {:.4} max {:.4} {unit}",
                w.windows, w.min, w.max
            ),
        ),
        None => (0.0, "no window had samples".into()),
    }
}

fn tail(samples: &mut [f64], p: f64) -> (f64, String) {
    let n = samples.len();
    let value = percentile(sorted(samples), p).unwrap_or(0.0);
    let note = match tail_percentile(n) {
        Some(max) if max >= p => format!("p{p} of {n} samples"),
        Some(max) => format!("p{p} of {n} samples: only p{max} has 10 beyond it"),
        None => format!("p{p} of {n} samples: too few for any tail"),
    };
    (value, note)
}

fn setup(samples: &[f64]) -> (f64, String) {
    (
        median(samples).unwrap_or(0.0),
        format!("median of {} set-ups", samples.len()),
    )
}

/// Operation latencies, window p50s and the pooled tail, from the
/// untraced windows.
fn latency_metrics(windows: &[Window], w: Workload, values: &mut Values) {
    let measured: Vec<&[f64]> = windows
        .iter()
        .filter(|win| !win.traced && !win.samples_ms.is_empty())
        .map(|win| win.samples_ms.as_slice())
        .collect();
    let p50s: Vec<f64> = measured.iter().filter_map(|s| median(s)).collect();
    let mut pooled: Vec<f64> = measured.concat();
    values.insert("op_p50_ms", windowed(&p50s, "ms"));
    values.insert("op_tail_ms", tail(&mut pooled, w.tail()));
}

fn overhead(windows: &[Window]) -> (f64, String) {
    let p50 = |traced: bool| {
        let p: Vec<f64> = windows
            .iter()
            .filter(|w| w.traced == traced)
            .filter_map(|w| median(&w.samples_ms))
            .collect();
        median(&p)
    };
    match (p50(true), p50(false)) {
        (Some(t), Some(u)) if u > 0.0 => (
            t / u - 1.0,
            format!("traced p50 {t:.4} ms / untraced p50 {u:.4} ms - 1"),
        ),
        _ => (0.0, "no traced or untraced window".into()),
    }
}

fn p50_of(trace: &Trace, name: &str) -> f64 {
    median(&trace.durations_ms(name)).unwrap_or(0.0)
}

fn wire_layers(run: &wire::WireRun, values: &mut Values) {
    let t = &run.trace;
    let n = t.durations_ms("request").len();
    let note = |what: &str| format!("{what}, {n} traced requests");
    let mut queue = t.durations_ms("server.queue_wait");
    values.insert(
        "client.encode_ms",
        (p50_of(t, "client.encode"), note("p50")),
    );
    values.insert(
        "client.decode_ms",
        (p50_of(t, "client.decode"), note("p50")),
    );
    values.insert(
        "client.verify_ms",
        (
            p50_of(t, "client.verify"),
            note("p50, outside the request span"),
        ),
    );
    values.insert(
        "server.queue_wait_p50_ms",
        (
            p50_of(t, "server.queue_wait"),
            note("p50 as reported by the server"),
        ),
    );
    let (p99, p99_note) = tail(&mut queue, 99.0);
    values.insert("server.queue_wait_p99_ms", (p99, p99_note));
    values.insert(
        "server.compute_ms",
        (
            p50_of(t, "server.compute"),
            note("p50 as reported by the server"),
        ),
    );
    values.insert(
        "server.other_ms",
        (
            median(&t.self_ms("client.round_trip")).unwrap_or(0.0),
            note("p50 of round trip minus queue wait minus compute"),
        ),
    );
}

fn frames_layers(run: &frames::FramesRun, values: &mut Values) {
    let t = &run.trace;
    let frames = run.frames.max(1) as f64;
    let n = t.durations_ms("frame.step").len();
    values.insert(
        "archive.append_ms",
        (
            p50_of(t, "archive.append"),
            format!("p50, {n} traced steps"),
        ),
    );
    let extracts = t.durations_ms("archive.extract").len();
    values.insert(
        "archive.extract_ms",
        (
            p50_of(t, "archive.extract"),
            format!("p50, {extracts} traced extracts"),
        ),
    );
    values.insert(
        "pipeline.sig_skip_rate",
        (
            run.rows_skipped as f64 / run.rows.max(1) as f64,
            "rows skipped / rows".into(),
        ),
    );
    values.insert(
        "pipeline.bypassed_frames",
        (
            run.bypassed as f64 / frames,
            "frames diffed with the prefilter bypassed".into(),
        ),
    );
    values.insert(
        "pipeline.rows_to_kernels",
        (
            run.rows_to_kernels as f64 / frames,
            "rows per frame that ran a kernel".into(),
        ),
    );
    let appends = run.appends.max(1) as f64;
    values.insert(
        "journal.append_bytes",
        (run.append_bytes as f64 / appends, "per append".into()),
    );
    values.insert(
        "journal.syncs_per_append",
        (run.syncs as f64 / appends, "fsyncs / appends".into()),
    );
    values.insert(
        "journal.records_replayed_per_extract",
        (
            run.records_replayed as f64 / run.extracts.max(1) as f64,
            format!("{} extracts", run.extracts),
        ),
    );
    values.insert("journal.open_ms", setup(&run.open_ms));
}
