//! `diff-client`: the load generator that drives a running `diffd` server
//! with synthetic image pairs, checks every reply against the local XOR
//! and reports latency percentiles and throughput.

use crate::{CliError, Command};
use diffd::proto::ErrorCode;
use std::fmt::Write as _;
use std::fs;
use std::time::{Duration, Instant};

/// Typed per-request outcomes the load generator tallies; anything else
/// (a transport failure, a protocol violation) aborts the run.
#[derive(Default, Clone, Copy)]
struct LoadTally {
    ok: u64,
    /// Requests that succeeded only after absorbing ≥ 1 `Overloaded`
    /// shed under the retry policy (a subset of `ok`; their latency
    /// samples include the backoff, which is exactly what the p99
    /// should show under overload).
    shed_then_ok: u64,
    /// Total sheds absorbed by retries across the run.
    sheds_absorbed: u64,
    /// Requests that ended shed (the retry budget exhausted, or no
    /// retrying configured).
    shed: u64,
    deadline: u64,
    other_server: u64,
}

/// Runs [`Command::DiffClient`]: one thread and connection per client.
pub(crate) fn run(cmd: &Command) -> Result<String, CliError> {
    let &Command::DiffClient {
        ref addr,
        clients,
        requests,
        width,
        height,
        density,
        seed,
        deadline_ms,
        retries,
        backoff_ms,
        ref json_out,
    } = cmd
    else {
        unreachable!("run_command routes only diff-client here")
    };
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Result<(Vec<[f64; 3]>, LoadTally), String> {
                // Per-client synthetic pair; replies are verified against
                // the local reference so the load run doubles as a
                // correctness check.
                let params = workload::GenParams::for_density(width, density);
                let a = workload::RowGenerator::new(params, seed.wrapping_add(c as u64))
                    .next_image(height);
                let b = workload::errors::apply_errors_image(
                    &a,
                    &workload::ErrorModel::fraction(0.05),
                    seed ^ 0x00C1_1E47 ^ c as u64,
                );
                let expected = a.xor(&b).map_err(|e| e.to_string())?;
                let mut client = diffd::DiffClient::connect(&addr)
                    .map_err(|e| format!("connect {addr}: {e}"))?;
                // One jitter stream per client so synchronized sheds
                // spread out instead of re-colliding on the retry.
                let policy = diffd::RetryPolicy {
                    retries,
                    base_backoff: Duration::from_millis(backoff_ms),
                    max_backoff: Duration::from_millis(backoff_ms.saturating_mul(32)),
                    jitter_seed: seed ^ 0xBAC0_FF00 ^ c as u64,
                };
                let mut samples = Vec::with_capacity(requests);
                let mut tally = LoadTally::default();
                for _ in 0..requests {
                    let t0 = Instant::now();
                    match client.diff_with_retry(&a, &b, deadline_ms, &policy) {
                        Ok((reply, sheds_absorbed)) => {
                            if reply.image != expected {
                                return Err("server returned a wrong diff".into());
                            }
                            // Total round-trip, plus the server-reported
                            // split of its own share: executor queue wait
                            // vs. compute. The split comes per request off
                            // the reply, so the percentiles below are true
                            // per-request distributions, not a scrape of
                            // the server-wide histograms.
                            samples.push([
                                t0.elapsed().as_secs_f64() * 1e3,
                                reply.queue_wait_ns as f64 / 1e6,
                                reply.compute_ns as f64 / 1e6,
                            ]);
                            tally.ok += 1;
                            if sheds_absorbed > 0 {
                                tally.shed_then_ok += 1;
                                tally.sheds_absorbed += u64::from(sheds_absorbed);
                            }
                        }
                        Err(diffd::ClientError::Server { code, .. }) => match code {
                            ErrorCode::Overloaded => tally.shed += 1,
                            ErrorCode::DeadlineExceeded => tally.deadline += 1,
                            _ => tally.other_server += 1,
                        },
                        Err(e) => return Err(e.to_string()),
                    }
                }
                Ok((samples, tally))
            })
        })
        .collect();

    let mut samples: Vec<[f64; 3]> = Vec::new();
    let mut tally = LoadTally::default();
    for w in workers {
        let (lat, t) = w
            .join()
            .map_err(|_| CliError::Pipeline("a load client panicked".into()))?
            .map_err(CliError::Pipeline)?;
        samples.extend(lat);
        tally.ok += t.ok;
        tally.shed_then_ok += t.shed_then_ok;
        tally.sheds_absorbed += t.sheds_absorbed;
        tally.shed += t.shed;
        tally.deadline += t.deadline;
        tally.other_server += t.other_server;
    }
    let wall = started.elapsed().as_secs_f64();
    // A run where every request was shed or timed out measured nothing:
    // there are no latencies to report and a scripted caller must not
    // mistake the summary for a healthy benchmark. Fail loudly instead.
    if tally.ok == 0 {
        return Err(CliError::Pipeline(format!(
            "no request succeeded ({} shed, {} deadline-exceeded, {} other server errors)",
            tally.shed, tally.deadline, tally.other_server
        )));
    }
    let percentiles = |column: usize| -> (f64, f64) {
        let mut values: Vec<f64> = samples.iter().map(|s| s[column]).collect();
        values.sort_by(|x, y| x.partial_cmp(y).expect("latencies are finite"));
        let pick = |p: f64| values[((values.len() as f64 - 1.0) * p).round() as usize];
        (pick(0.50), pick(0.99))
    };
    let (p50, p99) = percentiles(0);
    let (queue_p50, queue_p99) = percentiles(1);
    let (compute_p50, compute_p99) = percentiles(2);
    let throughput = tally.ok as f64 / wall;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "diff-client: {clients} clients x {requests} requests against {addr}"
    );
    let _ = writeln!(
        s,
        "  workload   : {width}x{height} at density {density:.2}, seed {seed}"
    );
    let _ = writeln!(
        s,
        "  outcomes   : {} ok, {} shed, {} deadline, {} other",
        tally.ok, tally.shed, tally.deadline, tally.other_server
    );
    if tally.shed_then_ok > 0 || retries > 0 {
        let _ = writeln!(
            s,
            "  retries    : {} of the ok succeeded after retry ({} sheds absorbed, \
             budget {retries} x {backoff_ms} ms backoff)",
            tally.shed_then_ok, tally.sheds_absorbed
        );
    }
    let _ = writeln!(s, "  latency    : p50 {p50:.3} ms, p99 {p99:.3} ms");
    let _ = writeln!(
        s,
        "  queue wait : p50 {queue_p50:.3} ms, p99 {queue_p99:.3} ms (server-reported, per request)"
    );
    let _ = writeln!(
        s,
        "  compute    : p50 {compute_p50:.3} ms, p99 {compute_p99:.3} ms (server-reported, per request)"
    );
    let _ = writeln!(
        s,
        "  throughput : {throughput:.1} requests/s over {wall:.3} s"
    );
    if let Some(path) = json_out {
        let json = format!(
            "{{\n  \"addr\": \"{addr}\",\n  \"clients\": {clients},\n  \"requests_per_client\": {requests},\n  \"width\": {width},\n  \"height\": {height},\n  \"density\": {density},\n  \"retries\": {retries},\n  \"backoff_ms\": {backoff_ms},\n  \"ok\": {},\n  \"shed_then_ok\": {},\n  \"sheds_absorbed\": {},\n  \"shed\": {},\n  \"deadline\": {},\n  \"other_server_errors\": {},\n  \"p50_ms\": {p50},\n  \"p99_ms\": {p99},\n  \"queue_wait_p50_ms\": {queue_p50},\n  \"queue_wait_p99_ms\": {queue_p99},\n  \"compute_p50_ms\": {compute_p50},\n  \"compute_p99_ms\": {compute_p99},\n  \"throughput_rps\": {throughput},\n  \"wall_s\": {wall}\n}}\n",
            tally.ok, tally.shed_then_ok, tally.sheds_absorbed, tally.shed, tally.deadline, tally.other_server
        );
        fs::write(path, json)?;
        let _ = writeln!(s, "wrote {} (summary)", path.display());
    }
    Ok(s)
}
