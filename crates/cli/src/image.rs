//! The image commands: `encode`, `decode`, `info`, `components`, `gen`,
//! `diff` and `diff-image`, plus the PBM / compact-RLE file I/O they share.

use crate::{Algo, CliError, Command};
use bitimg::{convert, pbm};
use rle::{serialize, RleImage};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

fn has_extension(path: &Path, ext: &str) -> bool {
    path.extension()
        .is_some_and(|e| e.eq_ignore_ascii_case(ext))
}

/// Loads an image from PBM or the compact RLE format, by extension.
pub fn load_image(path: &Path) -> Result<RleImage, CliError> {
    let data = fs::read(path)?;
    if has_extension(path, "pbm") {
        let bm = pbm::read(&mut &data[..]).map_err(|e| CliError::parse_at(path, e))?;
        Ok(convert::encode(&bm))
    } else {
        serialize::decode_image(&data).map_err(|e| CliError::parse_at(path, e))
    }
}

/// Saves an image as PBM (P4) or the compact RLE format, by extension.
pub fn save_image(img: &RleImage, path: &Path) -> Result<(), CliError> {
    if has_extension(path, "pbm") {
        let bm = convert::decode(img);
        let mut buf = Vec::new();
        pbm::write_p4(&bm, &mut buf)?;
        fs::write(path, buf)?;
    } else {
        fs::write(path, serialize::encode_image(img))?;
    }
    Ok(())
}

/// The `RLE vs dense` storage figures `encode` and `info` report.
fn storage(img: &RleImage) -> (usize, usize, f64) {
    let rle_len = serialize::encode_image(img).len();
    let dense = serialize::dense_size_bytes(img.width(), img.height());
    (rle_len, dense, dense as f64 / rle_len.max(1) as f64)
}

pub(crate) fn encode(input: &Path, out: &Path) -> Result<String, CliError> {
    let img = load_image(input)?;
    save_image(&img, out)?;
    let (rle_len, dense, ratio) = storage(&img);
    Ok(format!(
        "encoded {} -> {} ({} runs, {rle_len} bytes vs {dense} dense, {ratio:.1}x)\n",
        input.display(),
        out.display(),
        img.total_runs(),
    ))
}

pub(crate) fn decode(input: &Path, out: &Path) -> Result<String, CliError> {
    save_image(&load_image(input)?, out)?;
    Ok(format!(
        "decoded {} -> {}\n",
        input.display(),
        out.display()
    ))
}

pub(crate) fn info(input: &Path) -> Result<String, CliError> {
    let img = load_image(input)?;
    let (rle_len, dense, ratio) = storage(&img);
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
        "  storage    : {rle_len} bytes RLE vs {dense} bytes dense ({ratio:.1}x)"
    );
    Ok(s)
}

pub(crate) fn components(input: &Path, min_area: u64) -> Result<String, CliError> {
    use rle_analysis::features::{classify_defect, shape_features};
    let img = load_image(input)?;
    let labeling = rle_analysis::label_components(&img, rle_analysis::Connectivity::Eight);
    let mut kept = rle_analysis::features::filter_by_area(&labeling, min_area);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{}: {} components ({} after --min-area {min_area})",
        input.display(),
        labeling.count(),
        kept.len(),
    );
    kept.sort_by_key(|c| std::cmp::Reverse(c.area));
    for c in kept.iter().take(20) {
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
    if kept.len() > 20 {
        let _ = writeln!(s, "  ... and {} more", kept.len() - 20);
    }
    Ok(s)
}

pub(crate) fn gen(kind: &str, out: &Path, seed: u64, text: &str) -> Result<String, CliError> {
    let img = match kind {
        "pcb" => {
            let bm = workload::pcb::reference_layer(&workload::pcb::PcbParams::default(), seed);
            convert::encode(&bm)
        }
        "paper" => {
            let params = workload::GenParams::for_density(2_048, 0.3);
            workload::RowGenerator::new(params, seed).next_image(512)
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

/// Drops difference components shorter than `clean` pixels (none when
/// `clean` is 0) and opens the report with the summary line `diff` and
/// `diff-image` share.
fn despeckle(diff: &mut RleImage, clean: u32) -> String {
    if clean > 0 {
        for y in 0..diff.height() {
            let cleaned = rle::morph::remove_small(&diff.rows()[y], clean);
            diff.set_row(y, cleaned).expect("widths preserved");
        }
    }
    format!(
        "diff: {} px differ in {} runs\n",
        diff.ones(),
        diff.total_runs()
    )
}

/// Writes the difference image to `out`, if given, and closes the report.
fn finish(diff: &RleImage, out: Option<&Path>, mut s: String) -> Result<String, CliError> {
    if let Some(out) = out {
        save_image(diff, out)?;
        let _ = writeln!(s, "wrote {}", out.display());
    }
    Ok(s)
}

pub(crate) fn diff(
    a: &Path,
    b: &Path,
    out: Option<&Path>,
    algo: Algo,
    clean: u32,
) -> Result<String, CliError> {
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
    let (mut diff, detail) = run_diff(&ia, &ib, algo)?;
    let mut s = despeckle(&mut diff, clean);
    let _ = writeln!(s, "{detail}");
    finish(&diff, out, s)
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

/// Runs [`Command::DiffImage`] through the worker-pool executor.
pub(crate) fn diff_image(cmd: &Command) -> Result<String, CliError> {
    let Command::DiffImage {
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
    } = cmd
    else {
        unreachable!("run_command routes only diff-image here")
    };
    let ia = std::sync::Arc::new(load_image(a)?);
    let ib = std::sync::Arc::new(load_image(b)?);
    let defaults = systolic_core::DiffExecutorConfig::default();
    let config = systolic_core::DiffExecutorConfig {
        // 0 asks for every available core, which is the default's count.
        threads: Some(*threads)
            .filter(|&t| t > 0)
            .unwrap_or(defaults.threads),
        row_deadline: timeout_ms.map(std::time::Duration::from_millis),
        kernel: *kernel,
        simd: *simd,
        chunk_target: *chunk_target,
        observe: trace_out.is_some().then(systolic_core::ObsConfig::default),
        signature_prefilter: *sig_prefilter || *verify_sigs,
        verify_signatures: *verify_sigs,
        ..defaults
    };
    // Deterministic wedge for black-box deadline drills: with the
    // fault-injection build, RLEDIFF_FAULT_STALL_MS=N stalls the
    // batch's first row for N ms so `--timeout-ms` can trip.
    #[cfg(feature = "fault-injection")]
    let config = match std::env::var("RLEDIFF_FAULT_STALL_MS").map(|v| v.parse::<u64>()) {
        Ok(Ok(ms)) => config.fault_plan(
            systolic_core::FaultPlan::new().stall_on_row(0, std::time::Duration::from_millis(ms)),
        ),
        _ => config,
    };
    let mut pipeline = config.build();
    let (mut diff, stats) = pipeline.diff_images_shared(&ia, &ib).map_err(|e| match e {
        systolic_core::SystolicError::WidthMismatch { .. }
        | systolic_core::SystolicError::HeightMismatch { .. } => CliError::Mismatch(e.to_string()),
        other => CliError::Pipeline(other.to_string()),
    })?;
    let mut s = despeckle(&mut diff, *clean);
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
    let mode = match stats.sig_prefilter {
        systolic_core::SigPrefilterMode::Off => None,
        systolic_core::SigPrefilterMode::Active => Some("active"),
        systolic_core::SigPrefilterMode::Bypassed => Some("bypassed (high churn)"),
    };
    if let Some(mode) = mode {
        let _ = writeln!(
            s,
            "  signatures : {mode}; {} rows skipped, {} collisions caught, {} skips verified",
            stats.rows_sig_skipped, stats.sig_collisions, stats.sig_verified
        );
    }
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
        let body = if has_extension(path, "json") {
            snapshot.to_json()
        } else {
            snapshot.to_prometheus()
        };
        fs::write(path, body)?;
        let _ = writeln!(s, "wrote {} (metrics)", path.display());
    }
    if let Some(path) = trace_out {
        let events = obs.trace_snapshot();
        let body: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        fs::write(path, body)?;
        let _ = writeln!(
            s,
            "wrote {} (trace, {} events, {} dropped)",
            path.display(),
            snapshot.trace_recorded - snapshot.trace_dropped,
            snapshot.trace_dropped
        );
    }
    finish(&diff, out.as_deref(), s)
}
