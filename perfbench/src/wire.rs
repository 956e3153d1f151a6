//! The wire workloads: a loopback `DiffServer` driven in a closed loop.
//!
//! Each connection has its own load thread that sends its next request only
//! after the previous reply arrived. Untraced windows use the system's own
//! `DiffClient`; traced windows use [`TracedClient`], a replica of
//! `DiffClient::diff` built from the public `diffd::proto` functions that
//! stamps a span at each boundary. Replies are checked against the
//! `RleImage::xor` computed at set-up, after the latency is taken.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use diffd::proto::{
    decode_diff_reply, decode_error_reply, encode_diff_request, encode_frame, read_frame,
    DEFAULT_MAX_FRAME_LEN,
};
use diffd::{DiffClient, DiffReply, DiffRequest, DiffServer, DiffServerConfig, FrameKind};
use rle::RleImage;
use workload::{errors, ErrorModel, GenParams, RowGenerator};

use crate::trace::{Trace, Tracer};
use crate::{mix, Plan, Schedule, Setups, Window};

/// A request the pool can send, with the reply it must get back.
#[derive(Clone, Debug)]
pub struct Pair {
    /// First operand.
    pub a: Arc<RleImage>,
    /// Second operand.
    pub b: Arc<RleImage>,
    /// `a.xor(b)`, computed at set-up.
    pub expected: RleImage,
}

impl Pair {
    /// Builds a pair and its expected diff.
    #[must_use]
    pub fn new(a: Arc<RleImage>, b: Arc<RleImage>) -> Self {
        let expected = a.xor(&b).expect("pool pairs share their geometry");
        Self { a, b, expected }
    }
}

/// Geometry and error rate of a request pool.
#[derive(Clone, Copy, Debug)]
pub struct PoolSpec {
    /// Row generator parameters (width, run lengths, density).
    pub gen: GenParams,
    /// Rows per image.
    pub height: usize,
    /// Share of pixels flipped between `a` and `b`.
    pub errors: f64,
    /// Distinct pairs the clients cycle through.
    pub pairs: usize,
}

/// The seeded request pool.
#[must_use]
pub fn pool(spec: &PoolSpec, seed: u64) -> Vec<Pair> {
    (0..spec.pairs)
        .map(|i| {
            let s = mix(seed, i as u64);
            let a = RowGenerator::new(spec.gen, s).next_image(spec.height);
            let b = errors::apply_errors_image(&a, &ErrorModel::fraction(spec.errors), mix(s, 1));
            Pair::new(Arc::new(a), Arc::new(b))
        })
        .collect()
}

/// Everything one wire run measured.
#[derive(Debug, Default)]
pub struct WireRun {
    /// Duration of each set-up (bind + spawn + connects + first pings), s.
    pub setup_s: Vec<f64>,
    /// Send-to-decoded-reply latency of every verified reply, per window.
    pub windows: Vec<Window>,
    /// Spans of the traced windows.
    pub trace: Trace,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Requests that erred or came back wrong.
    pub failed: u64,
    /// Replies that differed from the expected diff.
    pub wrong: u64,
    /// Request plus reply frame bytes per request, from the server's
    /// counters over the whole load phase.
    pub bytes_per_request: f64,
}

/// A live server with its connected clients.
struct Live {
    handle: diffd::ServerHandle,
    join: std::thread::JoinHandle<diffd::DrainReport>,
    clients: Vec<DiffClient>,
}

fn start(threads: usize, connections: usize) -> Result<Live, String> {
    let cfg = DiffServerConfig {
        threads,
        ..DiffServerConfig::default()
    };
    let server = DiffServer::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let (handle, join) = server.spawn();
    let mut clients = Vec::with_capacity(connections);
    for _ in 0..connections {
        let mut client = plain_client(addr).map_err(|e| format!("connect: {e}"))?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        clients.push(client);
    }
    Ok(Live {
        handle,
        join,
        clients,
    })
}

fn stop(live: Live) -> Result<(), String> {
    drop(live.clients);
    live.handle.shutdown();
    live.join
        .join()
        .map(|_| ())
        .map_err(|_| "server thread panicked".to_string())
}

/// Runs the wire load: timed set-ups, then one closed-loop thread per
/// connection until the schedule ends.
pub fn run(
    pool: &[Pair],
    connections: usize,
    threads: usize,
    setups: Setups,
    plan: &Plan,
    epoch: Instant,
) -> Result<WireRun, String> {
    let mut out = WireRun::default();
    let (setup_s, mut live) = setups.run(|| start(threads, connections), stop)?;
    out.setup_s = setup_s;
    let addr = live.handle.addr();
    let metrics = live.handle.server_metrics();
    let before = (
        metrics.bytes_read.get() + metrics.bytes_written.get(),
        metrics.requests.get(),
    );

    let schedule = plan.start(epoch);
    let results: Vec<ThreadResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = live
            .clients
            .drain(..)
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || drive(pool, c, connections, client, addr, &schedule))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });

    let metrics = live.handle.server_metrics();
    let requests = metrics.requests.get() - before.1;
    out.bytes_per_request = (metrics.bytes_read.get() + metrics.bytes_written.get() - before.0)
        as f64
        / requests.max(1) as f64;
    out.windows = schedule.windows_vec();
    for r in results {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.wrong += r.wrong;
        for (w, mut lat) in r.latencies.into_iter().enumerate() {
            out.windows[w].samples_ms.append(&mut lat);
        }
        out.trace.absorb(r.tracer);
    }
    let ledger_closed = metrics.requests.get() == metrics.responses_total()
        && live.handle.pipeline_in_flight() == 0;
    stop(live)?;
    if !ledger_closed {
        eprintln!("diffd: request ledger did not close after the load phase");
        out.failed += 1;
        out.wrong += 1;
    }
    Ok(out)
}

struct ThreadResult {
    latencies: Vec<Vec<f64>>,
    tracer: Tracer,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

enum Conn {
    Plain(DiffClient),
    Traced(TracedClient),
}

fn drive(
    pool: &[Pair],
    c: usize,
    connections: usize,
    client: DiffClient,
    addr: SocketAddr,
    schedule: &Schedule,
) -> ThreadResult {
    let mut r = ThreadResult {
        latencies: vec![Vec::new(); schedule.windows],
        tracer: Tracer::new(schedule.epoch),
        attempted: 0,
        failed: 0,
        wrong: 0,
    };
    let mut conn = Some(Conn::Plain(client));
    let mut k = 0usize;
    loop {
        let now = Instant::now();
        if now >= schedule.end() {
            break;
        }
        let window = schedule.window_of(now);
        let traced = schedule.traced(window);
        // Switching client kinds reconnects, outside any timed interval, so
        // a thread never holds more than one connection.
        let matches = matches!(
            (&conn, traced),
            (Some(Conn::Plain(_)), false) | (Some(Conn::Traced(_)), true)
        );
        if !matches {
            drop(conn.take());
            conn = connect(addr, traced)
                .map_err(|e| eprintln!("reconnect: {e}"))
                .ok();
        }
        let Some(active) = conn.as_mut() else {
            r.attempted += 1;
            r.failed += 1;
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let pair = &pool[(c + k * connections) % pool.len()];
        k += 1;
        r.attempted += 1;
        let request = ((c as u64) << 48) | k as u64;
        let t0 = Instant::now();
        let reply = match active {
            Conn::Plain(client) => client.diff(&pair.a, &pair.b, 0).map_err(|e| e.to_string()),
            Conn::Traced(client) => client.diff(&pair.a, &pair.b, request, &mut r.tracer),
        };
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("request failed: {e}");
                r.failed += 1;
                conn = None;
                continue;
            }
        };
        let v0 = Instant::now();
        let right = reply.image == pair.expected;
        if traced {
            let (s, e) = (r.tracer.ns(v0), r.tracer.ns(Instant::now()));
            r.tracer.span("client.verify", s, e, None, request);
        }
        if !right {
            eprintln!("request {request}: reply differs from RleImage::xor");
            r.failed += 1;
            r.wrong += 1;
            continue;
        }
        if let Some(w) = window {
            r.latencies[w].push(latency_ms);
        }
    }
    r
}

fn connect(addr: SocketAddr, traced: bool) -> std::io::Result<Conn> {
    if traced {
        TracedClient::connect(addr).map(Conn::Traced)
    } else {
        plain_client(addr).map(Conn::Plain)
    }
}

fn plain_client(addr: SocketAddr) -> std::io::Result<DiffClient> {
    let mut client = DiffClient::connect(addr)?;
    client.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(client)
}

const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// `DiffClient::diff` rebuilt from the public protocol functions, with a
/// span at each boundary: `request` covers `client.encode` (clone and
/// encode), `client.round_trip` (first byte written to reply read) and
/// `client.decode`. The server's reported queue wait and compute become
/// `server.queue_wait` and `server.compute` under an `engine.diff` span
/// (the executor's `diff_pair` inside the server) under
/// `client.round_trip`; they carry the server's durations placed at the
/// start of the round trip, since the server reports durations, not
/// timestamps. The rest of the round trip (socket transfer, server-side
/// decode, admission, reply encode) is its self time. Sending
/// is not a span of its own: on loopback the kernel does receive-side work
/// inside `write`, so the split between writing and waiting swings from
/// request to request while their sum does not.
pub struct TracedClient {
    stream: TcpStream,
    next_id: u64,
}

impl TracedClient {
    /// Connects with the same socket options as `DiffClient`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Self { stream, next_id: 1 })
    }

    /// One traced request.
    pub fn diff(
        &mut self,
        a: &RleImage,
        b: &RleImage,
        request: u64,
        tracer: &mut Tracer,
    ) -> Result<DiffReply, String> {
        let id = self.next_id;
        self.next_id += 1;
        let t0 = Instant::now();
        let req = DiffRequest {
            request_id: id,
            deadline_ms: 0,
            a: a.clone(),
            b: b.clone(),
        };
        let frame = encode_frame(FrameKind::Diff, &encode_diff_request(&req));
        let t1 = Instant::now();
        self.stream
            .write_all(&frame)
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("send: {e}"))?;
        let (kind, payload) = read_frame(&mut self.stream, DEFAULT_MAX_FRAME_LEN)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("connection closed")?;
        let t2 = Instant::now();
        let reply = match kind {
            FrameKind::DiffOk => decode_diff_reply(&payload).map_err(|e| e.to_string())?,
            FrameKind::Error => {
                return Err(decode_error_reply(&payload).map_or_else(
                    |e| e.to_string(),
                    |r| format!("{:?}: {}", r.code, r.message),
                ))
            }
            other => return Err(format!("unexpected {other:?}")),
        };
        let t3 = Instant::now();
        if reply.request_id != id {
            return Err("reply for another request".into());
        }
        let [n0, n1, n2, n3] = [t0, t1, t2, t3].map(|t| tracer.ns(t));
        let root = tracer.span("request", n0, n3, None, request);
        tracer.span("client.encode", n0, n1, root, request);
        let trip = tracer.span("client.round_trip", n1, n2, root, request);
        let queued = n1 + reply.queue_wait_ns;
        let computed = queued + reply.compute_ns;
        let diff = tracer.span("engine.diff", n1, computed, trip, request);
        tracer.span("server.queue_wait", n1, queued, diff, request);
        tracer.span("server.compute", queued, computed, diff, request);
        tracer.span("client.decode", n2, n3, root, request);
        Ok(reply)
    }
}
