//! Experiment E4 — Figure 5: systolic iterations as a function of the
//! percentage of differing pixels, plotted alongside the two quantities the
//! paper identifies as the dominating factors:
//!
//! * the difference in the number of runs between the two images
//!   (tracks the iteration count up to ~30–40 % error), and
//! * the number of runs in the XOR produced by the algorithm (the
//!   conjectured upper bound).
//!
//! Setup per the paper: rows of 10 000 pixels at ≈30 % density (≈250 runs),
//! image runs 4–20 px, error runs 2–6 px, error percentage swept.

use crate::ascii_plot::{plot, Series};
use crate::csv::Csv;
use crate::sampling::Summary;
use crate::table::TextTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rle::metrics::row_similarity;
use rle::{Pixel, RleRow};
use systolic_core::{ArrayStats, DiffExecutorConfig, Kernel, MetricsSnapshot};
use workload::{GenParams, RowGenerator};

/// Sweep configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig5Config {
    /// Row width; the paper uses 10 000.
    pub width: Pixel,
    /// Foreground density; the paper uses ≈30 %.
    pub density: f64,
    /// Error percentages to sweep (x-axis of the figure).
    pub error_percents: Vec<f64>,
    /// Trials per point.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Self {
            width: 10_000,
            density: 0.3,
            error_percents: (1..=19).map(|i| f64::from(i) * 2.5).collect(),
            trials: 25,
            seed: 0x1999_0412,
        }
    }
}

/// One point of the sweep.
#[derive(Clone, Debug)]
pub struct Fig5Point {
    /// Requested error percentage.
    pub target_percent: f64,
    /// Realised percentage of differing pixels (mean over trials).
    pub realized_percent: f64,
    /// Systolic iterations.
    pub iterations: Summary,
    /// `|k1 − k2|`.
    pub diff_runs: Summary,
    /// Runs in the XOR as the algorithm produced it (raw output).
    pub xor_runs: Summary,
}

/// Full sweep result.
#[derive(Clone, Debug)]
pub struct Fig5Result {
    /// The configuration that produced it.
    pub config: Fig5Config,
    /// One entry per error percentage.
    pub points: Vec<Fig5Point>,
}

/// Runs the sweep on the bare systolic array.
#[must_use]
pub fn run(config: &Fig5Config) -> Fig5Result {
    sweep(config, &mut |a, b| {
        systolic_core::systolic_xor(a, b).expect("systolic run").1
    })
}

/// Runs the sweep through an *observed* [`systolic_core::DiffExecutor`]
/// (forced systolic kernel, so the per-row statistics are bit-identical to
/// [`run`]'s) and returns the figure data together with the pipeline's
/// [`MetricsSnapshot`], so the iteration sweep emits machine-readable
/// metrics alongside its CSV. The snapshot's `row_runs` histogram is the
/// `k1 + k2` distribution of the whole sweep.
#[must_use]
pub fn run_observed(config: &Fig5Config) -> (Fig5Result, MetricsSnapshot) {
    let mut pipeline = DiffExecutorConfig::new(2)
        .kernel(Kernel::Systolic)
        .observe()
        .build();
    let obs = pipeline.observer().expect("observer enabled above");
    let result = sweep(config, &mut |a, b| {
        pipeline.submit(a.clone(), b.clone());
        let outcome = pipeline.collect().expect("one row in flight");
        outcome.result.expect("systolic run").1
    });
    (result, obs.metrics_snapshot())
}

/// The shared sweep skeleton: generation, error injection and summary
/// statistics are identical for every engine; `diff` supplies the per-row
/// [`ArrayStats`].
fn sweep(config: &Fig5Config, diff: &mut impl FnMut(&RleRow, &RleRow) -> ArrayStats) -> Fig5Result {
    let params = GenParams::for_density(config.width, config.density);
    let mut points = Vec::with_capacity(config.error_percents.len());
    for (pi, &percent) in config.error_percents.iter().enumerate() {
        let mut iterations = Vec::with_capacity(config.trials);
        let mut diff_runs = Vec::with_capacity(config.trials);
        let mut xor_runs = Vec::with_capacity(config.trials);
        let mut realized = Vec::with_capacity(config.trials);
        let mut rng =
            StdRng::seed_from_u64(config.seed ^ (pi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..config.trials {
            let mut generator = RowGenerator::new(params, rng.gen());
            let a = generator.next_row();
            let model = workload::ErrorModel::fraction(percent / 100.0);
            let b = workload::errors::apply_errors_rng(&a, &model, &mut rng);
            let stats = diff(&a, &b);
            let sim = row_similarity(&a, &b);
            iterations.push(stats.iterations as f64);
            diff_runs.push(sim.run_count_difference as f64);
            xor_runs.push(stats.output_runs as f64);
            realized.push(sim.differing_fraction * 100.0);
        }
        points.push(Fig5Point {
            target_percent: percent,
            realized_percent: Summary::of(&realized).mean,
            iterations: Summary::of(&iterations),
            diff_runs: Summary::of(&diff_runs),
            xor_runs: Summary::of(&xor_runs),
        });
    }
    Fig5Result {
        config: config.clone(),
        points,
    }
}

/// The figure's three series, shared by the ASCII and SVG renderers.
#[must_use]
pub fn series(result: &Fig5Result) -> Vec<Series> {
    vec![
        Series::new(
            "Number of iterations",
            result
                .points
                .iter()
                .map(|p| (p.realized_percent, p.iterations.mean))
                .collect(),
        ),
        Series::new(
            "Difference in number of runs in the two images",
            result
                .points
                .iter()
                .map(|p| (p.realized_percent, p.diff_runs.mean))
                .collect(),
        ),
        Series::new(
            "Number of runs in the XOR",
            result
                .points
                .iter()
                .map(|p| (p.realized_percent, p.xor_runs.mean))
                .collect(),
        ),
    ]
}

/// Renders the figure as an SVG document.
#[must_use]
pub fn to_svg(result: &Fig5Result) -> String {
    crate::svg_plot::SvgChart {
        title: format!(
            "Figure 5 — iterations vs percent of differing pixels ({} px, {:.0}% density)",
            result.config.width,
            result.config.density * 100.0
        ),
        x_label: "percent of pixels that are different between the two images".into(),
        y_label: "mean over trials".into(),
        ..Default::default()
    }
    .render(&series(result))
}

/// Renders the figure as an ASCII chart plus a data table.
#[must_use]
pub fn report(result: &Fig5Result) -> String {
    let series = series(result);
    let chart = plot(
        &series,
        72,
        22,
        "Figure 5 — iterations vs percent of pixels that differ (10,000 px, ~250 runs, 30% density)",
    );

    let mut table = TextTable::new(["err% (real)", "iterations", "|k1-k2|", "runs in XOR"]);
    for p in &result.points {
        table.push_row([
            format!("{:.1}", p.realized_percent),
            format!("{:.1} ±{:.1}", p.iterations.mean, p.iterations.ci95()),
            format!("{:.1}", p.diff_runs.mean),
            format!("{:.1}", p.xor_runs.mean),
        ]);
    }
    format!("{chart}\n{}", table.render())
}

/// Exports the sweep as CSV.
#[must_use]
pub fn to_csv(result: &Fig5Result) -> Csv {
    let mut csv = Csv::new([
        "target_percent",
        "realized_percent",
        "iterations_mean",
        "iterations_std",
        "diff_runs_mean",
        "xor_runs_mean",
    ]);
    for p in &result.points {
        csv.push_floats([
            p.target_percent,
            p.realized_percent,
            p.iterations.mean,
            p.iterations.std_dev,
            p.diff_runs.mean,
            p.xor_runs.mean,
        ]);
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Fig5Config {
        Fig5Config {
            width: 2_000,
            density: 0.3,
            error_percents: vec![2.0, 10.0, 30.0, 50.0],
            trials: 6,
            seed: 7,
        }
    }

    #[test]
    fn sweep_produces_all_points() {
        let r = run(&small_config());
        assert_eq!(r.points.len(), 4);
        for p in &r.points {
            assert_eq!(p.iterations.n, 6);
            assert!(p.realized_percent > 0.0);
        }
    }

    #[test]
    fn iterations_track_diff_runs_at_low_error() {
        // The paper's headline correlation: below ~30 % error the iteration
        // count follows |k1 - k2| closely (and is upper-bounded by the XOR
        // run count).
        let r = run(&Fig5Config {
            trials: 12,
            ..small_config()
        });
        let low = &r.points[0]; // 2 % errors
        assert!(
            (low.iterations.mean - low.diff_runs.mean).abs() <= (3.0 + 0.3 * low.diff_runs.mean),
            "iterations {} should track diff_runs {}",
            low.iterations.mean,
            low.diff_runs.mean
        );
        for p in &r.points {
            assert!(
                p.iterations.mean <= p.xor_runs.mean + 1.0 + 1e-9,
                "observation bound: iterations {} vs xor runs {}",
                p.iterations.mean,
                p.xor_runs.mean
            );
        }
    }

    #[test]
    fn iterations_grow_with_error_percent() {
        let r = run(&small_config());
        assert!(
            r.points.last().unwrap().iterations.mean > r.points[0].iterations.mean * 2.0,
            "more errors must cost more iterations"
        );
    }

    #[test]
    fn observed_sweep_matches_bare_array_and_reconciles_metrics() {
        let config = small_config();
        let bare = run(&config);
        let (piped, metrics) = run_observed(&config);
        for (a, b) in bare.points.iter().zip(&piped.points) {
            assert_eq!(
                a.iterations.mean, b.iterations.mean,
                "same machine, same stats"
            );
            assert_eq!(a.xor_runs.mean, b.xor_runs.mean);
            assert_eq!(a.realized_percent, b.realized_percent);
        }
        let rows = (config.error_percents.len() * config.trials) as u64;
        assert_eq!(metrics.rows_completed, rows);
        assert_eq!(metrics.rows_diffed, rows);
        assert_eq!(metrics.row_runs.count, rows, "one k1+k2 sample per trial");
        assert_eq!(metrics.row_runs.bucket_total(), rows);
        assert!(metrics
            .to_prometheus()
            .contains("diffpipeline_rows_completed_total"));
    }

    #[test]
    fn report_and_csv_shapes() {
        let r = run(&small_config());
        let rep = report(&r);
        assert!(rep.contains("Figure 5"));
        assert!(rep.contains("runs in XOR"));
        let csv = to_csv(&r);
        assert_eq!(csv.len(), 4);
    }
}
