//! Reporting rules shared by every workload: the host record, the
//! percentile rule, window medians with their spread, metric lines and the
//! JSON result line.

use std::fmt::Write as _;
use std::path::Path;

use systolic_core::SimdLevel;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule chooses from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// What a result depends on besides the code: printed before any metric.
#[derive(Clone, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism()`.
    pub cores: usize,
    /// The widest SIMD level the CPU runs.
    pub simd: SimdLevel,
    /// Commit of the measured code, or `unknown` outside a git checkout.
    pub rev: String,
    /// Whether the run uses the small smoke geometry.
    pub smoke: bool,
}

impl Host {
    /// Detects the host. `repo_root` is where `.git` would be.
    #[must_use]
    pub fn detect(repo_root: &Path, smoke: bool) -> Self {
        Self {
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            simd: SimdLevel::detect(),
            rev: git_rev(repo_root),
            smoke,
        }
    }

    /// The record line printed first.
    #[must_use]
    pub fn record(&self) -> String {
        format!(
            "host cores={} simd={} rev={} smoke={}",
            self.cores, self.simd, self.rev, self.smoke
        )
    }

    /// `name=count`, tagged when the count exceeds the host's cores.
    #[must_use]
    pub fn threads(&self, name: &str, count: usize) -> String {
        if count > self.cores {
            format!("{name}={count} oversubscribed")
        } else {
            format!("{name}={count}")
        }
    }
}

/// Only a checkout that has its own `.git` is asked, so a copy nested in
/// some other repository never reports that repository's commit.
fn git_rev(repo_root: &Path) -> String {
    if !repo_root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Nearest rank of percentile `p` (0–100, in steps of 0.1) among `n`
/// samples, in integers so that 99.9 % of 10 000 is exactly 9 990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).min(n)
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p).max(1) - 1])
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
#[must_use]
pub fn supports(n: usize, p: f64) -> bool {
    n - rank(n, p) >= MIN_BEYOND
}

/// The highest percentile of the ladder that `n` samples support.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| supports(n, p))
}

/// Sorts in place and returns the slice (NaN-free inputs only).
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of unsorted values.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    percentile(sorted(&mut v), 50.0)
}

/// One value per measurement window, summarised as their mean with the
/// min/max spread. Each window's value is already a median, so a stall
/// shorter than half a window leaves it alone; what moves windows is the
/// host's speed drifting over tens of seconds, and the mean of every
/// window averages that drift more closely than their median does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    /// Mean across windows.
    pub mean: f64,
    /// Smallest window value.
    pub min: f64,
    /// Largest window value.
    pub max: f64,
    /// Windows that had a value.
    pub windows: usize,
}

impl Windowed {
    /// Summarises per-window values; `None` when no window had one.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut v = values.to_vec();
        let s = sorted(&mut v);
        Some(Self {
            mean: s.iter().sum::<f64>() / s.len() as f64,
            min: *s.first()?,
            max: *s.last()?,
            windows: s.len(),
        })
    }
}

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How it was obtained (window spread, sample count), for the reader.
    pub note: String,
}

/// The outcome of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Operations issued, warm-up and replays included.
    pub attempted: u64,
    /// Operations that erred, were shed, missed a deadline or came back
    /// wrong.
    pub failed: u64,
    /// Operations whose output was wrong (a subset of `failed`).
    pub wrong: u64,
    /// The metrics `BENCHMARK.json` declares, in declaration order: the
    /// JSON line carries these.
    pub metrics: Vec<Metric>,
    /// Layer metrics of the workload's own path, printed after the
    /// declared ones but left out of the JSON line.
    pub details: Vec<Metric>,
}

impl Report {
    /// True when nothing failed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failed == 0
    }

    /// `name value unit` lines, each followed by its note.
    #[must_use]
    pub fn lines(&self) -> String {
        let mut out = String::new();
        let line = |out: &mut String, m: &Metric| {
            let _ = writeln!(out, "{} {} {}    # {}", m.name, m.value, m.unit, m.note);
        };
        for m in &self.metrics {
            line(&mut out, m);
        }
        if !self.details.is_empty() {
            let _ = writeln!(out, "# layers of this path only (not in the JSON line):");
        }
        for m in &self.details {
            line(&mut out, m);
        }
        let _ = writeln!(
            out,
            "# {}: attempted {} failed {} wrong {}",
            self.workload, self.attempted, self.failed, self.wrong
        );
        out
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        json_line(
            self.wrong == 0,
            self.attempted,
            self.failed,
            self.metrics
                .iter()
                .map(|m| (m.name.to_string(), m.value, m.unit)),
        )
    }
}

/// Formats the result object: `correct`, `attempted`, `failed`, `metrics`.
/// Values keep every digit Rust's shortest round-trip form gives them.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, f64, &'static str)>,
) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.enumerate() {
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            body,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_have_no_percentile_and_no_window_summary() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(tail_percentile(0), None);
        assert_eq!(Windowed::of(&[]), None);
    }

    #[test]
    fn fewer_than_ten_samples_support_no_tail() {
        for n in 1..MIN_BEYOND {
            assert_eq!(tail_percentile(n), None, "{n} samples");
        }
        // The ladder stops at the median, which needs twenty samples.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
    }

    #[test]
    fn the_rule_picks_the_highest_supported_percentile() {
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert!(supports(200, 95.0) && !supports(199, 95.0));
    }

    #[test]
    fn ties_resolve_to_the_tied_value() {
        let v = [2.0, 2.0, 2.0, 2.0, 7.0];
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        assert_eq!(percentile(&v, 80.0), Some(2.0));
        assert_eq!(percentile(&v, 81.0), Some(7.0));
    }

    #[test]
    fn windows_summarise_as_their_mean_and_range() {
        let w = Windowed::of(&[3.0, 1.0, 3.0, 1.0]).unwrap();
        assert_eq!((w.mean, w.min, w.max, w.windows), (2.0, 1.0, 3.0, 4));
    }

    #[test]
    fn thread_counts_above_the_cores_are_tagged() {
        let host = Host {
            cores: 2,
            simd: SimdLevel::Scalar,
            rev: "x".into(),
            smoke: false,
        };
        assert_eq!(host.threads("executor", 2), "executor=2");
        assert_eq!(host.threads("load", 3), "load=3 oversubscribed");
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let line = json_line(
            true,
            3,
            0,
            [
                ("a_ms".to_string(), 1.25, "ms"),
                ("n".to_string(), f64::NAN, "count"),
            ]
            .into_iter(),
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"n\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
