//! The `diffd` server: many connections multiplexed onto one shared
//! [`DiffExecutor`], designed around failure first.
//!
//! * **Concurrent sessions, no pipeline mutex** — every session submits
//!   its request directly as an executor *job* via
//!   [`DiffExecutor::diff_pair`]; jobs from different sessions interleave
//!   on the executor's one run queue under its round-robin policy,
//!   so one huge request can no longer serialize the rest behind a lock.
//! * **Admission control** — before a request touches the executor it must
//!   pass the shed policy, driven by the executor's `queue_depth` /
//!   `in_flight` gauges plus a server-side concurrent-request bound;
//!   everything over the line gets a typed `Overloaded` response instead
//!   of a place in an unbounded queue.
//! * **Deadlines** — each request carries (or inherits) a wall-clock
//!   budget, mapped onto the job's collect deadline; on expiry the job is
//!   abandoned (other sessions' jobs unaffected), so a wedged row can
//!   never wedge a connection.
//! * **Slowloris defence** — a connection may idle between frames for at
//!   most `idle_timeout`, and once a frame has started it must complete
//!   within `frame_timeout`; reads poll in `poll_interval` slices so the
//!   shutdown flag is honoured promptly.
//! * **Graceful drain** — shutdown stops the accept loop, lets in-flight
//!   requests finish and flush their responses, then closes every session
//!   (a wedged session is bounded by its own deadline; past
//!   `shutdown_grace` it is detached, never joined on forever).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use systolic_core::obs::Observer;
use systolic_core::{DiffExecutor, DiffExecutorConfig, SystolicError};

#[cfg(feature = "fault-injection")]
use systolic_core::FaultPlan;

use crate::metrics::ServerMetrics;
use crate::proto::{
    self, decode_header, encode_error_reply, encode_frame, DiffReply, ErrorCode, ErrorReply,
    FrameKind, DEFAULT_MAX_FRAME_LEN, FRAME_HEADER_LEN,
};

/// Everything tunable about a [`DiffServer`]. `Default` is production-ish;
/// tests shrink the timeouts to milliseconds.
#[derive(Clone, Debug)]
pub struct DiffServerConfig {
    /// Worker threads in the shared executor.
    pub threads: usize,
    /// Ceiling on a frame's declared payload length.
    pub max_frame_len: u32,
    /// Shed when admitting a request would push the executor's
    /// `in_flight` gauge past this many rows.
    pub max_pending_rows: usize,
    /// Shed when more than this many requests are admitted but unanswered
    /// (each holds an executor job; this bounds that concurrency).
    pub max_concurrent_requests: usize,
    /// Refuse connections beyond this many concurrent sessions.
    pub max_connections: usize,
    /// Budget for requests that ask for the default (`deadline_ms == 0`).
    pub default_deadline: Duration,
    /// Clamp on client-requested deadlines.
    pub max_deadline: Duration,
    /// How long a session may sit idle between frames.
    pub idle_timeout: Duration,
    /// How long a started frame may take to arrive completely.
    pub frame_timeout: Duration,
    /// Socket read/write poll slice (shutdown responsiveness).
    pub poll_interval: Duration,
    /// How long drain waits for sessions before detaching them.
    pub shutdown_grace: Duration,
    #[cfg(feature = "fault-injection")]
    /// Deterministic fault plan installed into the executor (chaos drills).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for DiffServerConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_pending_rows: 65_536,
            max_concurrent_requests: 64,
            max_connections: 256,
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(60),
            idle_timeout: Duration::from_secs(60),
            frame_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(25),
            shutdown_grace: Duration::from_secs(5),
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

/// Why `run` stopped and what it left behind.
#[derive(Clone, Copy, Debug, Default)]
pub struct DrainReport {
    /// Sessions alive when shutdown began.
    pub sessions_at_shutdown: usize,
    /// Sessions that exited within the grace window.
    pub sessions_drained: usize,
    /// Sessions detached because they outlived the grace window.
    pub sessions_detached: usize,
}

struct ServerShared {
    addr: SocketAddr,
    cfg: DiffServerConfig,
    executor: DiffExecutor,
    observer: Arc<Observer>,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    active_requests: AtomicUsize,
    conn_seq: AtomicU64,
}

impl ServerShared {
    /// The full `/metrics` body: executor exposition plus server counters.
    fn prometheus(&self) -> String {
        let mut text = self.observer.metrics_snapshot().to_prometheus();
        text.push_str(&self.metrics.to_prometheus());
        text
    }

    fn json(&self) -> String {
        format!(
            "{{\n\"pipeline\": {},\n\"server\": {}\n}}\n",
            self.observer.metrics_snapshot().to_json().trim_end(),
            self.metrics.to_json().trim_end(),
        )
    }
}

/// A bound-but-not-yet-running server. [`DiffServer::run`] blocks in the
/// accept loop until [`ServerHandle::shutdown`]; [`DiffServer::spawn`]
/// does the same on a background thread.
pub struct DiffServer {
    listener: TcpListener,
    shared: Arc<ServerShared>,
}

/// A cloneable remote control for a running server.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<ServerShared>,
}

impl DiffServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and spins up the shared
    /// executor with its default kernel policy and chunk plan, and no
    /// trace ring: nothing serves a trace yet, so its `diffpipeline_trace_*`
    /// counters read 0. Admission control reads the executor's registry
    /// gauges and `/metrics` serves its exposition.
    pub fn bind(addr: impl ToSocketAddrs, cfg: DiffServerConfig) -> std::io::Result<Self> {
        assert!(cfg.threads > 0, "need at least one executor worker");
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let executor = DiffExecutorConfig {
            threads: cfg.threads,
            #[cfg(feature = "fault-injection")]
            fault_plan: cfg.fault_plan.clone(),
            ..DiffExecutorConfig::default()
        }
        .build();
        let observer = executor.observer();
        Ok(Self {
            listener,
            shared: Arc::new(ServerShared {
                addr: local,
                cfg,
                executor,
                observer,
                metrics: ServerMetrics::default(),
                shutdown: AtomicBool::new(false),
                active_requests: AtomicUsize::new(0),
                conn_seq: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A remote control valid for the server's whole life.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop on this thread until shutdown, then drains.
    pub fn run(self) -> DrainReport {
        let shared = self.shared;
        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
                Err(_) => continue,
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                // The wake-up poke, or a late arrival during drain: refuse
                // politely and stop accepting.
                refuse(&stream, &shared, ErrorCode::ShuttingDown, "server draining");
                break;
            }
            sessions.retain(|h| !h.is_finished());
            if sessions.len() >= shared.cfg.max_connections {
                shared.metrics.sheds.inc();
                refuse(
                    &stream,
                    &shared,
                    ErrorCode::Overloaded,
                    "connection limit reached",
                );
                continue;
            }
            let conn_shared = Arc::clone(&shared);
            let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
            sessions.push(std::thread::spawn(move || {
                Session::new(stream, conn_shared, id).serve();
            }));
        }
        drop(self.listener);

        // Drain: sessions notice the shutdown flag within one poll slice
        // (or finish their in-flight request first — that response is
        // flushed before the close). Anything still alive past the grace
        // window is detached, mirroring the pipeline's own never-deadlock
        // Drop policy.
        let mut report = DrainReport {
            sessions_at_shutdown: sessions.len(),
            ..Default::default()
        };
        let grace_over = Instant::now() + shared.cfg.shutdown_grace;
        loop {
            sessions.retain(|h| !h.is_finished());
            if sessions.is_empty() || Instant::now() >= grace_over {
                break;
            }
            std::thread::sleep(shared.cfg.poll_interval.min(Duration::from_millis(10)));
        }
        report.sessions_detached = sessions.len();
        report.sessions_drained = report.sessions_at_shutdown - report.sessions_detached;
        report
    }

    /// Runs the server on a background thread; returns the handle and the
    /// join handle yielding the final [`DrainReport`].
    #[must_use]
    pub fn spawn(self) -> (ServerHandle, JoinHandle<DrainReport>) {
        let handle = self.handle();
        let join = std::thread::spawn(move || self.run());
        (handle, join)
    }
}

impl ServerHandle {
    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begins graceful shutdown: no new connections or requests are
    /// admitted; in-flight work finishes and is flushed. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.shared.addr, Duration::from_secs(1));
    }

    /// True once [`Self::shutdown`] has been called.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The combined Prometheus exposition (`diffpipeline_*` + `diffd_*`).
    #[must_use]
    pub fn metrics_prometheus(&self) -> String {
        self.shared.prometheus()
    }

    /// The combined JSON exposition.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.shared.json()
    }

    /// Server-side counters (tests and embedders).
    #[must_use]
    pub fn server_metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// The shared executor's observer (ledger assertions in tests).
    #[must_use]
    pub fn observer(&self) -> Arc<Observer> {
        Arc::clone(&self.shared.observer)
    }

    /// Rows currently in flight inside the shared executor (0 on an idle,
    /// healthy server — the no-leaked-tickets check).
    #[must_use]
    pub fn pipeline_in_flight(&self) -> usize {
        self.shared.executor.in_flight()
    }

    /// Abandoned-row level inside the shared executor (drains back to 0
    /// once wedged workers heal).
    #[must_use]
    pub fn pipeline_abandoned(&self) -> usize {
        self.shared.executor.abandoned()
    }
}

/// Sends a best-effort error frame on a connection we are refusing (the
/// request id is 0 — nothing was parsed yet).
fn refuse(mut stream: &TcpStream, shared: &ServerShared, code: ErrorCode, msg: &str) {
    let frame = encode_frame(
        FrameKind::Error,
        &encode_error_reply(&ErrorReply {
            request_id: 0,
            code,
            message: msg.to_string(),
        }),
    );
    let _ = stream.set_write_timeout(Some(shared.cfg.poll_interval));
    let _ = stream.write_all(&frame);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Outcome of a deadline-bounded read attempt.
enum ReadStep {
    /// Buffer filled.
    Done,
    /// Peer closed with `got` of the wanted bytes delivered.
    Eof { got: usize },
    /// Deadline expired first.
    TimedOut,
    /// The server is draining.
    Shutdown,
    /// Transport error.
    Failed,
}

/// Why a session ended — drives the close-reason metrics.
enum CloseReason {
    PeerClosed,
    Protocol,
    IdleOrStalled,
    Shutdown,
    Io,
}

struct Session {
    stream: TcpStream,
    shared: Arc<ServerShared>,
    #[allow(dead_code)] // part of the conn→ticket mapping, surfaced in replies
    conn_id: u64,
    /// Each request's payload is read into this buffer and each reply
    /// encoded into it. Between frames it is kept only up to
    /// `max_frame_len` bytes.
    buf: Vec<u8>,
}

impl Session {
    fn new(stream: TcpStream, shared: Arc<ServerShared>, conn_id: u64) -> Self {
        shared.metrics.connections_accepted.inc();
        shared.metrics.connections_open.add(1);
        Self {
            stream,
            shared,
            conn_id,
            buf: Vec::new(),
        }
    }

    fn serve(mut self) {
        let _ = self.stream.set_nodelay(true);
        let _ = self
            .stream
            .set_read_timeout(Some(self.shared.cfg.poll_interval));
        let _ = self
            .stream
            .set_write_timeout(Some(self.shared.cfg.frame_timeout));
        let reason = self.session_loop();
        match reason {
            CloseReason::Protocol => self.shared.metrics.protocol_errors.inc(),
            CloseReason::IdleOrStalled => self.shared.metrics.idle_timeouts.inc(),
            CloseReason::PeerClosed | CloseReason::Shutdown | CloseReason::Io => {}
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        self.shared.metrics.connections_open.sub(1);
        self.shared.metrics.connections_closed.inc();
    }

    fn session_loop(&mut self) -> CloseReason {
        loop {
            // Between frames: wait up to idle_timeout for the first bytes.
            let idle_deadline = Instant::now() + self.shared.cfg.idle_timeout;
            let mut lead = [0u8; 4];
            match self.read_exact_deadline(&mut lead, idle_deadline) {
                ReadStep::Done => {}
                ReadStep::Eof { got: 0 } => return CloseReason::PeerClosed,
                ReadStep::Eof { .. } => return CloseReason::Protocol,
                ReadStep::TimedOut => return CloseReason::IdleOrStalled,
                ReadStep::Shutdown => return CloseReason::Shutdown,
                ReadStep::Failed => return CloseReason::Io,
            }

            // A frame (or HTTP request) has started: it must complete
            // within frame_timeout, however slowly the peer dribbles it.
            let frame_deadline = Instant::now() + self.shared.cfg.frame_timeout;

            if &lead == b"GET " {
                return self.serve_http(frame_deadline);
            }

            let mut rest = [0u8; FRAME_HEADER_LEN - 4];
            match self.read_exact_deadline(&mut rest, frame_deadline) {
                ReadStep::Done => {}
                ReadStep::Eof { .. } => return CloseReason::Protocol,
                ReadStep::TimedOut => return CloseReason::IdleOrStalled,
                ReadStep::Shutdown => return CloseReason::Shutdown,
                ReadStep::Failed => return CloseReason::Io,
            }
            let mut header = [0u8; FRAME_HEADER_LEN];
            header[..4].copy_from_slice(&lead);
            header[4..].copy_from_slice(&rest);

            let (kind, len) = match decode_header(&header, self.shared.cfg.max_frame_len) {
                Ok(pair) => pair,
                Err(e) => {
                    self.send_error(0, ErrorCode::Protocol, &e.to_string());
                    return CloseReason::Protocol;
                }
            };
            if !kind.is_request() {
                self.send_error(
                    0,
                    ErrorCode::Protocol,
                    &format!("{kind:?} is a response kind, not a request"),
                );
                return CloseReason::Protocol;
            }

            match self.read_payload_deadline(len, frame_deadline) {
                ReadStep::Done => {}
                ReadStep::TimedOut => return CloseReason::IdleOrStalled,
                ReadStep::Shutdown => return CloseReason::Shutdown,
                ReadStep::Eof { .. } => return CloseReason::Protocol,
                ReadStep::Failed => return CloseReason::Io,
            }
            self.shared
                .metrics
                .bytes_read
                .add((FRAME_HEADER_LEN + self.buf.len()) as u64);

            match kind {
                FrameKind::Ping => {
                    if !self.send_frame(FrameKind::Pong, &[]) {
                        return CloseReason::Io;
                    }
                }
                FrameKind::Metrics => {
                    let body = self.shared.prometheus();
                    if !self.send_frame(FrameKind::MetricsText, body.as_bytes()) {
                        return CloseReason::Io;
                    }
                }
                FrameKind::Diff => match proto::decode_diff_request(&self.buf) {
                    Ok(req) => {
                        if !self.handle_diff(req) {
                            return CloseReason::Io;
                        }
                    }
                    Err(e) => {
                        self.send_error(0, ErrorCode::Protocol, &e.to_string());
                        return CloseReason::Protocol;
                    }
                },
                FrameKind::DiffOk | FrameKind::Error | FrameKind::Pong | FrameKind::MetricsText => {
                    unreachable!("is_request() filtered response kinds")
                }
            }

            if self.shared.shutdown.load(Ordering::SeqCst) {
                // The response above was flushed; drain ends the session
                // at the frame boundary.
                return CloseReason::Shutdown;
            }
        }
    }

    /// One `Diff` request, end to end. Returns false on a dead socket.
    fn handle_diff(&mut self, req: proto::DiffRequest) -> bool {
        let shared = Arc::clone(&self.shared);
        let m = &shared.metrics;
        m.requests.inc();
        let id = req.request_id;

        if shared.shutdown.load(Ordering::SeqCst) {
            m.shutdown_rejects.inc();
            return self.send_error(id, ErrorCode::ShuttingDown, "server draining");
        }

        // Admission control: the executor gauges are lock-free reads, so a
        // wedged job (bounded by its own deadline) can never stall the
        // shed decision.
        let gauges = &shared.observer.metrics;
        let rows_in_flight = usize::try_from(gauges.in_flight.get().max(0)).unwrap_or(0);
        let queued_chunks = usize::try_from(gauges.queue_depth.get().max(0)).unwrap_or(0);
        let height = req.a.height();
        let cfg = &shared.cfg;
        let admitted = shared.active_requests.fetch_add(1, Ordering::SeqCst);
        let _slot = ActiveGuard(&shared.active_requests);
        if admitted >= cfg.max_concurrent_requests {
            m.sheds.inc();
            return self.send_error(
                id,
                ErrorCode::Overloaded,
                &format!(
                    "{admitted} requests already admitted (limit {})",
                    cfg.max_concurrent_requests
                ),
            );
        }
        if rows_in_flight + queued_chunks + height > cfg.max_pending_rows {
            m.sheds.inc();
            return self.send_error(
                id,
                ErrorCode::Overloaded,
                &format!(
                    "executor carrying {rows_in_flight} rows / {queued_chunks} queued chunks; \
                     admitting {height} more would exceed {}",
                    cfg.max_pending_rows
                ),
            );
        }

        // Deadline: clamp the ask; the whole job must finish inside it.
        let budget = if req.deadline_ms == 0 {
            cfg.default_deadline
        } else {
            Duration::from_millis(u64::from(req.deadline_ms)).min(cfg.max_deadline)
        };

        let a = Arc::new(req.a);
        let b = Arc::new(req.b);
        // The session submits straight into the shared executor — no
        // pipeline mutex. The request latency splits at the job's first
        // chunk checkout: submission → checkout is executor queueing
        // (diffd_queue_wait_ns), the rest is compute (diffd_compute_ns).
        // The split is what distinguishes "add capacity" from "the diff
        // itself is slow" when the p99 climbs.
        let total_started = Instant::now();
        let outcome = shared.executor.diff_pair(&a, &b, Some(budget));
        let total_ns = u64::try_from(total_started.elapsed().as_nanos()).unwrap_or(u64::MAX);

        match outcome {
            Ok(job) => {
                let queue_wait_ns = u64::try_from(job.queue_wait.as_nanos())
                    .unwrap_or(u64::MAX)
                    .min(total_ns);
                let compute_ns = total_ns - queue_wait_ns;
                m.queue_wait_ns.record(queue_wait_ns);
                m.compute_ns.record(compute_ns);
                m.responses_ok.inc();
                let reply = DiffReply {
                    request_id: id,
                    ticket_lo: job.tickets.0,
                    ticket_hi: job.tickets.1,
                    queue_wait_ns,
                    compute_ns,
                    image: job.image,
                };
                self.send(FrameKind::DiffOk, |out| {
                    proto::write_diff_reply(out, &reply)
                })
            }
            Err(e @ SystolicError::DeadlineExceeded { .. }) => {
                m.deadline_hits.inc();
                self.send_error(id, ErrorCode::DeadlineExceeded, &e.to_string())
            }
            Err(
                e @ (SystolicError::WidthMismatch { .. } | SystolicError::HeightMismatch { .. }),
            ) => {
                m.mismatches.inc();
                self.send_error(id, ErrorCode::Mismatch, &e.to_string())
            }
            Err(e @ SystolicError::RowFailed { .. }) => {
                m.row_failures.inc();
                self.send_error(id, ErrorCode::RowFailed, &e.to_string())
            }
            Err(e) => {
                m.internal_errors.inc();
                self.send_error(id, ErrorCode::Internal, &e.to_string())
            }
        }
    }

    /// Minimal HTTP/1.0 for scrape tooling: the sniffed `GET ` lead means
    /// this connection speaks HTTP; serve one response and close.
    fn serve_http(&mut self, deadline: Instant) -> CloseReason {
        // Read until the header terminator, bounded in size and time.
        let mut buf = Vec::with_capacity(256);
        let mut scratch = [0u8; 256];
        while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 4096 {
            match self.stream.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&scratch[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if Instant::now() >= deadline || self.shared.shutdown.load(Ordering::SeqCst) {
                        return CloseReason::IdleOrStalled;
                    }
                }
                Err(_) => return CloseReason::Io,
            }
            // An LF-only client still terminates eventually.
            if buf.windows(2).any(|w| w == b"\n\n") {
                break;
            }
        }
        let request_line = String::from_utf8_lossy(&buf);
        let path = request_line
            .split_whitespace()
            .next()
            .unwrap_or_default()
            .to_string();
        let (status, body) = match path.as_str() {
            "/metrics" => ("200 OK", self.shared.prometheus()),
            "/metrics.json" => ("200 OK", self.shared.json()),
            _ => ("404 Not Found", String::from("try /metrics\n")),
        };
        let response = format!(
            "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = self.stream.write_all(response.as_bytes());
        self.shared.metrics.bytes_written.add(response.len() as u64);
        CloseReason::PeerClosed
    }

    /// Fills `buf`, polling in `poll_interval` slices so `deadline` and
    /// the shutdown flag are both honoured mid-read.
    fn read_exact_deadline(&mut self, buf: &mut [u8], deadline: Instant) -> ReadStep {
        let mut got = 0;
        while got < buf.len() {
            match self.stream.read(&mut buf[got..]) {
                Ok(0) => return ReadStep::Eof { got },
                Ok(n) => got += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.shared.shutdown.load(Ordering::SeqCst) && got == 0 {
                        return ReadStep::Shutdown;
                    }
                    if Instant::now() >= deadline {
                        return ReadStep::TimedOut;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return ReadStep::Failed,
            }
        }
        ReadStep::Done
    }

    /// Reads a declared-length payload into `self.buf` under the frame
    /// deadline. Growth follows received bytes, never the claimed length
    /// (see [`proto::read_payload_part`]).
    fn read_payload_deadline(&mut self, len: u32, deadline: Instant) -> ReadStep {
        let len = len as usize;
        self.buf.clear();
        while self.buf.len() < len {
            match proto::read_payload_part(&mut self.stream, &mut self.buf, len) {
                Ok(0) => {
                    return ReadStep::Eof {
                        got: self.buf.len(),
                    }
                }
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if Instant::now() >= deadline {
                        return ReadStep::TimedOut;
                    }
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        return ReadStep::Shutdown;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return ReadStep::Failed,
            }
        }
        ReadStep::Done
    }

    /// Encodes one frame into `self.buf` and writes it; returns false if
    /// the socket is gone (the session then closes — a stalled *reader* is
    /// bounded by the write timeout).
    fn send(&mut self, kind: FrameKind, write_payload: impl FnOnce(&mut Vec<u8>)) -> bool {
        self.buf.clear();
        proto::write_frame(&mut self.buf, kind, write_payload);
        let sent = self.stream.write_all(&self.buf).is_ok();
        if sent {
            self.shared.metrics.bytes_written.add(self.buf.len() as u64);
            let _ = self.stream.flush();
        }
        // A request grows the buffer to its length at most, and that is
        // capped; only a reply can leave it larger.
        if self.buf.capacity() > self.shared.cfg.max_frame_len as usize {
            self.buf = Vec::new();
        }
        sent
    }

    fn send_frame(&mut self, kind: FrameKind, payload: &[u8]) -> bool {
        self.send(kind, |out| out.extend_from_slice(payload))
    }

    fn send_error(&mut self, request_id: u64, code: ErrorCode, message: &str) -> bool {
        self.send_frame(
            FrameKind::Error,
            &encode_error_reply(&ErrorReply {
                request_id,
                code,
                message: message.to_string(),
            }),
        )
    }
}

/// Decrements the admitted-request count however the request ends.
struct ActiveGuard<'a>(&'a AtomicUsize);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}
