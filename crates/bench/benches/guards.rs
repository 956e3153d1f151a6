//! Wall-clock guards on the system's engine and front end: four timing
//! claims that a deterministic test cannot check, each asserted at a
//! seconds-scale geometry.
//!
//! 1. The trace ring is cheap enough to leave on: attaching it costs
//!    < 5 % of a zero-copy batch, or < 2 µs per row. Plain and traced
//!    batches alternate on an image tall enough (16384×1024) that a batch
//!    takes milliseconds, and the median pair is the reading.
//! 2. No thread-scaling wall: a dense batch at 8 threads beats 1 thread.
//! 3. The signature prefilter pays at 10 % churn: diffing a frame stream
//!    through a prefiltered pool beats the plain pool.
//! 4. diffd sessions do not serialize: the 8-client p99 stays below the
//!    16.854 ms measured when every session queued on one mutex.
//!
//! Guards 2–4 need real parallelism, so on hosts with fewer than 4 cores
//! they print a skip instead of flaking. Every other timing is the best of
//! N runs after one warm-up run. Run with
//! `cargo bench -p bench --bench guards`.

use diffd::{DiffClient, DiffServer, DiffServerConfig};
use rle::RleImage;
use std::sync::Arc;
use std::time::{Duration, Instant};
use systolic_core::{DiffExecutor, DiffExecutorConfig};
use workload::{errors, ErrorModel, FrameSequence, GenParams, RowGenerator, SequenceParams};

/// Hosts below this many cores skip the guards that need parallelism.
const MIN_CORES: usize = 4;

/// The 8-client p99 of the 2048×128 diffd workload when every session
/// serialized on one mutex around a single-submitter engine. Falling back
/// to serialization roughly doubles the p99.
const MUTEX_ERA_P99_MS: f64 = 16.854;

/// Best (minimum) wall-clock of `f` over `samples` runs after one warm-up.
fn best<R>(samples: usize, mut f: impl FnMut() -> R) -> Duration {
    let _ = f();
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .min()
        .expect("at least one sample")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Rows of the trace-ring guard's image. A 2-thread batch of 16384×128 is
/// sub-millisecond, and its relative overhead read anywhere from −30 % to
/// +20 % from run to run; at 1024 rows a batch takes milliseconds.
const TRACE_RING_ROWS: usize = 1_024;

/// A 16384-px-wide image pair of `height` rows with `runs`-px runs at
/// `density`, and 1 % of the pixels flipped.
fn image_pair(
    runs: (u32, u32),
    density: f64,
    seed: u64,
    height: usize,
) -> (Arc<RleImage>, Arc<RleImage>) {
    let a = RowGenerator::new(GenParams::with_runs(16_384, runs, density), seed).next_image(height);
    let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.01), seed + 1);
    (Arc::new(a), Arc::new(b))
}

/// Best-of-`samples` batch time of `a`/`b` through `pool`.
fn batch_time(
    mut pool: DiffExecutor,
    a: &Arc<RleImage>,
    b: &Arc<RleImage>,
    samples: usize,
) -> Duration {
    best(samples, || {
        pool.diff_images_shared(a, b).expect("image diff").1.rows
    })
}

fn trace_ring_guard() {
    let (a, b) = image_pair((2, 4), 0.3, 0xE13, TRACE_RING_ROWS);
    let mut pools = [
        DiffExecutorConfig::new(2).build(),
        DiffExecutorConfig::new(2).observe().build(),
    ];
    // One warm-up batch each, then 21 plain/traced pairs, each pool going
    // first every other pair so host drift and ordering reach both alike.
    // The reading is the pair with the median traced/plain ratio.
    let mut batch = |i: usize| {
        let start = Instant::now();
        std::hint::black_box(
            pools[i]
                .diff_images_shared(&a, &b)
                .expect("image diff")
                .1
                .rows,
        );
        start.elapsed().as_secs_f64()
    };
    batch(0);
    batch(1);
    let mut pairs: Vec<(f64, f64)> = (0..21)
        .map(|k| {
            if k % 2 == 0 {
                (batch(0), batch(1))
            } else {
                let traced = batch(1);
                (batch(0), traced)
            }
        })
        .collect();
    pairs.sort_by(|x, y| (x.1 / x.0).total_cmp(&(y.1 / y.0)));
    let (plain, traced) = pairs[pairs.len() / 2];
    let percent = (traced / plain - 1.0) * 100.0;
    let per_row_ns = (traced - plain).max(0.0) * 1e9 / a.height() as f64;
    println!(
        "  trace ring: {percent:+.2}% / {per_row_ns:.0} ns per row at 2 threads, \
         plain batch {:.2} ms (budget < 5% or < 2 us/row)",
        plain * 1e3
    );
    assert!(
        percent < 5.0 || per_row_ns < 2_000.0,
        "trace-ring overhead {percent:+.2}% ({per_row_ns:.0} ns/row) \
         blew both the < 5% and the < 2 us/row budget"
    );
}

fn scaling_guard() {
    let (a, b) = image_pair((1, 2), 0.45, 0xDE45, 128);
    let one = batch_time(DiffExecutorConfig::new(1).build(), &a, &b, 3);
    let eight = batch_time(DiffExecutorConfig::new(8).build(), &a, &b, 3);
    println!(
        "  scaling: dense 1t {:.1} ms vs 8t {:.1} ms",
        ms(one),
        ms(eight)
    );
    assert!(
        eight < one,
        "8-thread dense batch ({:.1} ms) must beat 1 thread ({:.1} ms): \
         the thread-scaling wall is back",
        ms(eight),
        ms(one),
    );
}

fn prefilter_guard() {
    let params = SequenceParams {
        gen: GenParams::with_runs(4_096, (2, 4), 0.3),
        height: 128,
        churn: 0.10,
    };
    let frames: Vec<Arc<RleImage>> = FrameSequence::new(params, 0xE16)
        .take_frames(12)
        .into_iter()
        .map(Arc::new)
        .collect();
    let stream_time = |mut pool: DiffExecutor| {
        best(1, || {
            for pair in frames.windows(2) {
                pool.diff_images_shared(&pair[0], &pair[1])
                    .expect("frame diff");
            }
        })
    };
    let plain = stream_time(DiffExecutorConfig::new(2).build());
    let prefiltered = stream_time(DiffExecutorConfig::new(2).signature_prefilter().build());
    println!(
        "  prefilter at 10% churn: plain {:.1} ms vs prefiltered {:.1} ms",
        ms(plain),
        ms(prefiltered)
    );
    assert!(
        prefiltered < plain,
        "prefilter lost at 10% churn: plain {:.1} ms vs prefiltered {:.1} ms",
        ms(plain),
        ms(prefiltered)
    );
}

/// One client diffing its own 2048×128 pair until `window` elapses;
/// returns each request's latency in milliseconds.
fn drive_client(addr: std::net::SocketAddr, seed: u64, window: Duration) -> Vec<f64> {
    let a = RowGenerator::new(GenParams::for_density(2_048, 0.3), seed).next_image(128);
    let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.02), seed ^ 0xE14);
    let expected = a.xor(&b).expect("reference xor");
    let mut client = DiffClient::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut latencies = Vec::new();
    let until = Instant::now() + window;
    while Instant::now() < until {
        let t0 = Instant::now();
        let reply = client.diff(&a, &b, 0).expect("diff request");
        latencies.push(ms(t0.elapsed()));
        assert_eq!(reply.image, expected, "server diff must match reference");
    }
    latencies
}

fn diffd_p99_guard() {
    let server =
        DiffServer::bind("127.0.0.1:0", DiffServerConfig::default()).expect("bind loopback server");
    let addr = server.local_addr();
    let (handle, join) = server.spawn();
    // A 2-client point warms the server before the guarded 8-client point.
    let mut p99 = 0.0;
    for clients in [2u64, 8] {
        let drivers: Vec<_> = (0..clients)
            .map(|c| {
                std::thread::spawn(move || {
                    drive_client(addr, 0xBE9C + c, Duration::from_millis(300))
                })
            })
            .collect();
        let mut latencies: Vec<f64> = drivers
            .into_iter()
            .flat_map(|d| d.join().expect("client thread"))
            .collect();
        latencies.sort_by(f64::total_cmp);
        p99 = latencies[((latencies.len() - 1) as f64 * 0.99).round() as usize];
        println!(
            "  diffd {clients} clients: {} requests, p99 {p99:.3} ms",
            latencies.len()
        );
    }
    handle.shutdown();
    join.join().expect("server drain");
    assert!(
        p99 < MUTEX_ERA_P99_MS,
        "8-client p99 regressed to the mutex era: {p99:.3} ms (guard: < {MUTEX_ERA_P99_MS} ms)"
    );
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("guards: {cores} core(s) available");
    trace_ring_guard();
    let gated: [(&str, fn()); 3] = [
        ("dense 8t beats 1t", scaling_guard),
        ("prefilter beats plain at 10% churn", prefilter_guard),
        ("diffd 8-client p99", diffd_p99_guard),
    ];
    for (name, guard) in gated {
        if cores >= MIN_CORES {
            guard();
        } else {
            println!("  {name} skipped: {cores} core(s) available, need >= {MIN_CORES}");
        }
    }
    println!("guards passed");
}
