//! Experiment E14: request latency and saturation throughput of the
//! `diffd` network front end.
//!
//! An in-process `DiffServer` is bound on a loopback port and driven by
//! N ∈ {1, 2, 4, 8} concurrent synthetic clients, each looping
//! request/response over its own connection for a fixed wall window.
//! Every reply is verified against the local `RleImage::xor` reference,
//! so the load run doubles as a correctness soak. Reported per client
//! count: p50/p99 request latency and aggregate requests/s; the maximum
//! across client counts is the saturation throughput.
//!
//! Results are written to `BENCH_diffd.json` at the workspace root.
//! Hand-rolled timing loop (not criterion): concurrent open-loop clients
//! need raw per-request samples for the percentile report.
//!
//! Set `BENCH_SMOKE=1` for a seconds-scale smoke run (one client count,
//! short window, no JSON rewrite) — used by the CI diffd-smoke job.

use diffd::{DiffClient, DiffServer, DiffServerConfig};
use rle::RleImage;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workload::{errors, ErrorModel, GenParams, RowGenerator};

const WIDTH: u32 = 2_048;
const HEIGHT: usize = 128;
const DENSITY: f64 = 0.3;

/// The committed 8-client p99 from the pipeline-mutex era (PR 8's
/// BENCH_diffd.json, this same workload): every session serialized on one
/// mutex around a single-submitter engine. The smoke guard asserts the executor keeps the
/// 8-client p99 below this — a regression back to session serialization
/// roughly doubles it and fails loudly.
const MUTEX_ERA_P99_MS: f64 = 16.854;

fn build_pair(seed: u64) -> (RleImage, RleImage) {
    let params = GenParams::for_density(WIDTH, DENSITY);
    let a = RowGenerator::new(params, seed).next_image(HEIGHT);
    let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.02), seed ^ 0xE14);
    (a, b)
}

/// One client: request/response against `addr` until `window` elapses.
/// Returns per-request samples in milliseconds:
/// `[total, queue_wait, compute]`, the latter two server-reported off
/// each reply (executor scheduling delay vs. time actually diffing).
fn drive_client(addr: std::net::SocketAddr, seed: u64, window: Duration) -> Vec<[f64; 3]> {
    let (a, b) = build_pair(seed);
    let expected = a.xor(&b).expect("reference xor");
    let mut client = DiffClient::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut samples = Vec::new();
    let until = Instant::now() + window;
    while Instant::now() < until {
        let t0 = Instant::now();
        let reply = client.diff(&a, &b, 0).expect("diff request");
        let total_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(reply.image, expected, "server diff must match reference");
        samples.push([
            total_ms,
            reply.queue_wait_ns as f64 / 1e6,
            reply.compute_ns as f64 / 1e6,
        ]);
    }
    samples
}

/// p50/p99 of one sample column.
fn column_percentiles(samples: &[[f64; 3]], column: usize) -> (f64, f64) {
    let mut values: Vec<f64> = samples.iter().map(|s| s[column]).collect();
    values.sort_by(|x, y| x.partial_cmp(y).expect("finite latencies"));
    (percentile(&values, 0.50), percentile(&values, 0.99))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0");
    let (window, client_counts): (Duration, &[usize]) = if smoke {
        // One quick sanity point plus the 8-client regression-guard point.
        (Duration::from_millis(300), &[2, 8])
    } else {
        (Duration::from_millis(1_500), &[1, 2, 4, 8])
    };

    let server =
        DiffServer::bind("127.0.0.1:0", DiffServerConfig::default()).expect("bind loopback server");
    let addr = server.local_addr();
    let (handle, join) = server.spawn();
    println!(
        "diffd_load{}: {WIDTH}x{HEIGHT} images at density {DENSITY}, \
         {:.1} s window per point, server {addr}",
        if smoke { " (smoke)" } else { "" },
        window.as_secs_f64(),
    );

    let mut json_rows = String::new();
    let mut saturation_rps = 0.0f64;
    let mut p99_at_8 = None;
    for &clients in client_counts {
        let t0 = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|c| std::thread::spawn(move || drive_client(addr, 0xBE9C + c as u64, window)))
            .collect();
        let mut samples: Vec<[f64; 3]> = Vec::new();
        for w in workers {
            samples.extend(w.join().expect("client thread"));
        }
        let wall = t0.elapsed().as_secs_f64();
        let (p50, p99) = column_percentiles(&samples, 0);
        let (queue_p50, queue_p99) = column_percentiles(&samples, 1);
        let (compute_p50, compute_p99) = column_percentiles(&samples, 2);
        let rps = samples.len() as f64 / wall;
        saturation_rps = saturation_rps.max(rps);
        if clients == 8 {
            p99_at_8 = Some(p99);
        }
        println!(
            "  clients={clients}: {} requests, p50 {p50:.3} ms, p99 {p99:.3} ms \
             (queue wait p50 {queue_p50:.3} / p99 {queue_p99:.3} ms, \
             compute p50 {compute_p50:.3} / p99 {compute_p99:.3} ms), {rps:.1} req/s",
            samples.len(),
        );
        let _ = write!(
            json_rows,
            "{}    {{\"clients\": {clients}, \"requests\": {}, \
             \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \
             \"queue_wait_p50_ms\": {queue_p50:.3}, \"queue_wait_p99_ms\": {queue_p99:.3}, \
             \"compute_p50_ms\": {compute_p50:.3}, \"compute_p99_ms\": {compute_p99:.3}, \
             \"throughput_rps\": {rps:.1}}}",
            if json_rows.is_empty() { "" } else { ",\n" },
            samples.len(),
        );
    }

    handle.shutdown();
    join.join().expect("server drain");
    let m = handle.server_metrics();
    assert_eq!(
        m.requests.get(),
        m.responses_total(),
        "request ledger closes"
    );
    assert_eq!(
        handle.pipeline_in_flight(),
        0,
        "no leaked tickets after the soak"
    );
    println!(
        "  server ledger: {} requests, {} ok, saturation {saturation_rps:.1} req/s",
        m.requests.get(),
        m.responses_ok.get(),
    );

    if smoke {
        // 8-client p99 regression guard: concurrent sessions must not
        // re-serialize. Wall-clock percentiles are only meaningful with
        // real parallelism, so starved runners report a skip instead of
        // flaking (same convention as the pipeline scaling guard).
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let p99 = p99_at_8.expect("smoke run includes the 8-client point");
        if cores >= 4 {
            assert!(
                p99 < MUTEX_ERA_P99_MS,
                "8-client p99 regressed to the mutex era: {p99:.3} ms \
                 (guard: < {MUTEX_ERA_P99_MS} ms)"
            );
            println!(
                "  8-client p99 guard: {p99:.3} ms < {MUTEX_ERA_P99_MS} ms (mutex-era baseline)"
            );
        } else {
            println!(
                "  8-client p99 guard skipped: {cores} core(s) available, \
                 need >= 4 for meaningful wall-clock percentiles \
                 (measured {p99:.3} ms)"
            );
        }
        println!("smoke run: ledger guards passed; BENCH_diffd.json left untouched");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"diffd_load\",\n  \"image\": {{\"width\": {WIDTH}, \
         \"height\": {HEIGHT}, \"density\": {DENSITY}}},\n  \
         \"window_s\": {:.3},\n  \"saturation_rps\": {saturation_rps:.1},\n  \
         \"results\": [\n{json_rows}\n  ]\n}}\n",
        window.as_secs_f64(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_diffd.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
