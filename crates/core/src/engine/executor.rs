//! The diff engine: a supervised, sharded worker pool that diffs whole
//! images row by row, scheduling each image pair as an independent **job**
//! (kernel, row range, source `Arc`s, job id, contiguous ticket range).
//!
//! [`crate::engine::parallel`] parallelises *within* one row by splitting
//! the cell array across threads. For whole images the natural unit of
//! parallelism is the row pair itself — rows are independent, so a pool of
//! workers can each diff its own rows, like a rack of systolic chips
//! scanning different board regions.
//!
//! # One job kind, one path
//!
//! Every unit of work is an image-pair job. [`DiffExecutor::diff_pair`]
//! (one budget for the whole job) and the batch calls
//! [`DiffExecutor::diff_images_shared`] / [`DiffExecutor::diff_images`]
//! (the per-collect [`DiffExecutorConfig::row_deadline`]) run one path:
//! check → signature prefilter → inline residual → plan → submit →
//! collect → assemble. The prefilter
//! ([`DiffExecutorConfig::signature_prefilter`], with its adaptive
//! bypass and paranoid verification) resolves matching rows host-side,
//! and a residual of a few rows is diffed inline on the caller's thread.
//! [`DiffExecutor::submit_pair`] plans every row and hands back the
//! [`JobHandle`], whose [`JobHandle::collect_next`] yields rows by
//! [`Ticket`] in completion order. Every entry point takes `&self`, so an
//! `Arc<DiffExecutor>` serves any number of submitters with no outer
//! lock; `diffd` sessions submit this way.
//!
//! The planner splits an image into contiguous row chunks weighted by
//! per-row run counts ([`DiffExecutorConfig::chunk_target`]); chunks
//! reference the caller's images through `Arc`s, so neither submission
//! nor checkout copies row data. Workers diff rows through
//! [`crate::engine::kernel::diff_row`] on per-worker reusable scratch.
//!
//! # Scheduling
//!
//! Many jobs are in flight on one shard set at once:
//!
//! * **Job-fair scheduling.** Every shard keeps one deque *per job* plus a
//!   round-robin rotation over the job ids present, so chunks from
//!   different jobs interleave: a submitter with four rows gets its turn
//!   between the chunks of a 100 000-row batch instead of queueing behind
//!   all of them. The owner pops the front of the rotated job's deque, a
//!   thief the back, and steals are attributed to the stolen chunk's job.
//! * **Result routing keyed by job id.** A worker delivers each finished
//!   chunk straight into the owning job's completion state (a mutex +
//!   condvar pair per job) — there is no shared collector loop and no
//!   global pending queue to serialize on. [`JobHandle::collect_next`]
//!   waits on its own job's condvar; concurrent submitters never contend
//!   except on the shard queues themselves.
//! * **Job-granular attribution.** Retries, respawns, timeouts, steals and
//!   buffer hits are counted on the owning job, which makes per-job
//!   [`PipelineStats`] exact under interleaving. Executor-wide totals live
//!   only in the always-on metrics registry ([`DiffExecutor::observer`]);
//!   [`DiffExecutor::counters`] and [`DiffExecutor::in_flight`] read it.
//!
//! The ticket space is global and monotonic, so a fresh executor numbers
//! rows `0, 1, 2, …` in submission order and the deterministic fault
//! drills address rows by ticket.
//!
//! # Supervision
//!
//! The pool is built for the continuous-inspection service the paper
//! targets, where one crashed row must not take down the line. The *chunk*
//! is the checkout and retry unit; every row inside it keeps its own
//! ticket:
//!
//! * **Caught panics.** Each row runs inside `catch_unwind`; a panicking
//!   row discards the worker's (possibly corrupt) kernel state and its
//!   whole chunk is re-enqueued, up to [`DiffExecutorConfig::retry_limit`]
//!   extra attempts. A chunk that keeps crashing fails only the culprit row
//!   (as a structured [`SystolicError::RowFailed`]); the sibling rows are
//!   re-queued as smaller chunks.
//! * **Dead workers.** A worker parks the chunk it is processing in its
//!   shard's *checkout slot*. A dedicated supervisor thread ticks every
//!   `SUPERVISION_TICK`, respawns worker threads that exited without being
//!   asked to, and recovers the orphaned chunk — re-enqueued, failed past
//!   the retry budget, or written off if its job was already abandoned.
//! * **Stalls and deadlines.** A collect deadline bounds how long a wedged
//!   worker can hold a caller, returning
//!   [`SystolicError::DeadlineExceeded`] instead of hanging. An expired job
//!   is *abandoned*: its queued chunks are dropped, the rows a wedged
//!   worker still holds are written off ([`DiffExecutor::abandoned`]), and
//!   their stale results are discarded on arrival — other jobs on the same
//!   executor are untouched. Dropping the executor never deadlocks:
//!   workers get [`DiffExecutorConfig::shutdown_grace`] to exit, after
//!   which wedged threads are detached instead of joined.
//!
//! Results are bit-identical to the sequential reference
//! ([`crate::image::xor_image`]) for every kernel policy; the test-suite
//! asserts this across all kernels and across injected faults.

use crate::engine::kernel::{self, Kernel, KernelChoice, KernelScratch};
use crate::engine::lock;
use crate::engine::simd::SimdLevel;
use crate::error::SystolicError;
use crate::image::check_dims;
use crate::obs::{ObsConfig, Observer, TraceKind};
use crate::stats::{ArrayStats, PipelineStats, SigPrefilterMode};
use rle::{RleImage, RleRow};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-injection")]
use crate::engine::fault::{Fault, FaultPlan};

/// How often the supervisor thread checks worker liveness (and a blocked
/// worker or collector re-polls — the doorbell backstop).
const SUPERVISION_TICK: Duration = Duration::from_millis(20);

/// The scheduler aims for this many chunks per worker, so stragglers can
/// steal the tail of a job without per-row traffic.
const CHUNKS_PER_WORKER: usize = 4;

/// At most this many spare chunk-result vectors are kept for reuse.
const SPARE_POOL_CAP: usize = 64;

/// In paranoid mode ([`DiffExecutorConfig::verify_signatures`]), every
/// `SIG_VERIFY_SAMPLE`-th signature skip of a job (starting with the
/// first) is cross-checked against the reference XOR.
const SIG_VERIFY_SAMPLE: usize = 16;

/// When the signature prefilter resolves all but at most this many rows,
/// the leftovers are diffed inline on the host instead of dispatched: for
/// a handful of rows the pool round-trip (enqueue, wake, collect
/// handshake) costs more than the kernels themselves, and it is exactly
/// the low-churn frame-sequence case the prefilter exists for.
const INLINE_RESIDUAL_ROWS: usize = 16;

/// Skip rate below which the signature prefilter bypasses the next job
/// (see [`DiffExecutorConfig::signature_prefilter`]). `0.75` is the
/// break-even the E16 churn sweep measured on warm signatures: above
/// ~25 % churn the prefilter's bookkeeping costs more than it saves.
const SIG_PREFILTER_MIN_SKIP_RATE: f64 = 0.75;

/// Identifies one submitted row: a job's rows take consecutive tickets
/// ([`JobHandle::tickets`]), and every [`RowOutcome`] echoes its row's
/// ticket so a collector can place rows, which complete out of order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The submission sequence number (0 for the first row ever submitted).
    #[must_use]
    pub fn id(self) -> u64 {
        self.0
    }
}

/// One completed row diff, as handed back by [`JobHandle::collect_next`].
#[derive(Debug)]
pub struct RowOutcome {
    /// Which submission this result answers.
    pub ticket: Ticket,
    /// Index of the pool worker that processed the row (for utilization
    /// accounting; see [`PipelineStats::effective_workers`]).
    pub worker: usize,
    /// Which kernel diffed the row; `None` when the row errored before a
    /// kernel could run (or was failed by the supervisor).
    pub kernel: Option<KernelChoice>,
    /// The diff row and its per-row statistics, or the error for this row
    /// pair.
    pub result: Result<(RleRow, ArrayStats), SystolicError>,
}

/// Lifetime totals of the supervisor's interventions (never reset; the
/// per-job view lives in [`PipelineStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisionCounters {
    /// Chunks re-enqueued after a worker panic or death.
    pub retries: u64,
    /// Worker threads replaced after dying unexpectedly.
    pub respawns: u64,
    /// Deadline expiries observed by collectors.
    pub timeouts: u64,
}

/// A contiguous chunk of one job's row pairs: the scheduling, checkout and
/// retry unit. Row `i` (for `lo <= i < hi`) carries ticket
/// `base + (i - lo)`, so per-row identity survives chunking; the `job`
/// `Arc` routes every result (and every supervision event) back to the
/// owner. The rows stay in the caller's images, indexed by absolute image
/// row, so cloning a chunk (checkout, retry re-enqueue) copies no row
/// data.
#[derive(Clone)]
struct Chunk {
    base: u64,
    lo: usize,
    hi: usize,
    attempts: u32,
    a: Arc<RleImage>,
    b: Arc<RleImage>,
    job: Arc<JobState>,
}

impl Chunk {
    fn len(&self) -> usize {
        self.hi - self.lo
    }

    fn ticket_of(&self, i: usize) -> u64 {
        self.base + (i - self.lo) as u64
    }

    fn row(&self, i: usize) -> (&RleRow, &RleRow) {
        (&self.a.rows()[i], &self.b.rows()[i])
    }

    /// A sub-chunk over `[lo, hi)` keeping this chunk's attempt count,
    /// per-row tickets and job.
    fn slice(&self, lo: usize, hi: usize) -> Chunk {
        Chunk {
            base: self.base + (lo - self.lo) as u64,
            lo,
            hi,
            ..self.clone()
        }
    }
}

/// One row's result inside a chunk delivery.
struct RowResult {
    ticket: u64,
    kernel: Option<KernelChoice>,
    result: Result<(RleRow, ArrayStats), SystolicError>,
}

/// Mutable completion state of one job, guarded by the job's mutex.
struct JobInner {
    /// Delivered rows not yet popped by [`JobHandle::collect_next`].
    pending: VecDeque<RowOutcome>,
    /// Rows submitted but not yet delivered (queued, checked out, or held
    /// by a wedged worker).
    undelivered: usize,
    /// The job was abandoned: stale deliveries are discarded on arrival.
    abandoned: bool,
    /// All rows were delivered (guards the `jobs_completed` count against
    /// double-fire).
    completed: bool,
    /// Wedged rows a worker still holds for this abandoned job; each one
    /// decrements on (discarded) arrival or orphan recovery.
    stale: usize,
    /// Which worker slots delivered at least one successful row.
    seen: Vec<bool>,
}

/// One job: identity, ticket range, completion state and per-job
/// supervision attribution.
struct JobState {
    id: u64,
    lo: u64,
    hi: u64,
    /// Chunks the job was planned into.
    chunks: usize,
    created: Instant,
    /// Nanoseconds from job creation to the first chunk checkout, plus one
    /// (0 = no chunk checked out yet). The submit→first-dispatch delay is
    /// the executor's honest "queue wait": time the job spent waiting for
    /// a worker, as opposed to computing.
    first_checkout_ns: AtomicU64,
    retries: AtomicU64,
    respawns: AtomicU64,
    timeouts: AtomicU64,
    steals: AtomicU64,
    buffer_hits: AtomicU64,
    inner: Mutex<JobInner>,
    bell: Condvar,
}

impl JobState {
    fn new(id: u64, lo: u64, hi: u64, chunks: usize, workers: usize) -> Self {
        Self {
            id,
            lo,
            hi,
            chunks,
            created: Instant::now(),
            first_checkout_ns: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            buffer_hits: AtomicU64::new(0),
            inner: Mutex::new(JobInner {
                pending: VecDeque::new(),
                undelivered: (hi - lo) as usize,
                abandoned: false,
                completed: false,
                stale: 0,
                seen: vec![false; workers],
            }),
            bell: Condvar::new(),
        }
    }

    fn rows(&self) -> u64 {
        self.hi - self.lo
    }

    fn stamp_checkout(&self) {
        if self.first_checkout_ns.load(Ordering::Relaxed) == 0 {
            let ns = (self.created.elapsed().as_nanos() as u64).saturating_add(1);
            let _ = self.first_checkout_ns.compare_exchange(
                0,
                ns,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }
}

/// Per-shard queue state: one deque per job plus a round-robin rotation
/// over the job ids present, so a pop services jobs in turn instead of
/// first-come-first-drained.
#[derive(Default)]
struct JobQueues {
    /// Rotation order; an id is present iff its deque is non-empty, once.
    order: VecDeque<u64>,
    queues: HashMap<u64, VecDeque<Chunk>>,
}

impl JobQueues {
    fn push(&mut self, chunk: Chunk) {
        let id = chunk.job.id;
        let queue = self.queues.entry(id).or_default();
        if queue.is_empty() {
            self.order.push_back(id);
        }
        queue.push_back(chunk);
    }

    /// Pops one chunk, rotating the job order: the owner takes the front
    /// of the next job's deque, a thief the back.
    fn pop(&mut self, own: bool) -> Option<Chunk> {
        let id = self.order.pop_front()?;
        let queue = self.queues.get_mut(&id).expect("ordered job is queued");
        let chunk = if own {
            queue.pop_front()
        } else {
            queue.pop_back()
        };
        if queue.is_empty() {
            self.queues.remove(&id);
        } else {
            self.order.push_back(id);
        }
        chunk
    }

    /// Drops every queued chunk of `job`; returns `(chunks, rows)`
    /// dropped.
    fn remove_job(&mut self, job: u64) -> (usize, usize) {
        let Some(queue) = self.queues.remove(&job) else {
            return (0, 0);
        };
        self.order.retain(|&id| id != job);
        let rows = queue.iter().map(Chunk::len).sum();
        (queue.len(), rows)
    }
}

/// One worker's slice of the scheduler: its job-fair input queues and its
/// checkout slot, each behind its own short-lived lock.
#[derive(Default)]
struct Shard {
    queue: Mutex<JobQueues>,
    /// The chunk this worker is currently processing, parked here so the
    /// supervisor can recover it if the thread dies mid-chunk.
    running: Mutex<Option<Chunk>>,
}

struct Shared {
    shards: Vec<Shard>,
    /// Rows written off by abandoned jobs whose stale results are still
    /// outstanding; drains back to 0 as they arrive or are recovered.
    abandoned_rows: AtomicUsize,
    next_ticket: AtomicU64,
    next_job_id: AtomicU64,
    /// Round-robin cursor dealing chunks across the shards.
    submit_cursor: AtomicUsize,
    shutdown: AtomicBool,
    /// Doorbell for workers: producers notify while holding the bell, and
    /// sleepers re-check the `queue_depth` gauge under it, so a push can
    /// never slip between a worker's check and its wait.
    work_bell: Mutex<()>,
    work_ready: Condvar,
    /// The supervisor's private bell, so the retry path's `notify_one` can
    /// never be swallowed by the supervisor instead of a worker.
    sup_bell: Mutex<()>,
    sup_ready: Condvar,
    /// Chunk-result vectors recycled back to workers.
    spare: Mutex<Vec<Vec<RowResult>>>,
    kernel: Kernel,
    /// Resolved SIMD level every worker's kernel scratch is built with.
    simd: SimdLevel,
    /// Chunk-weight target for job plans.
    chunk_target: Option<usize>,
    retry_limit: u32,
    /// Signature prefilter settings (see the config fields of the same
    /// names).
    signature_prefilter: bool,
    verify_signatures: bool,
    #[cfg(feature = "fault-injection")]
    fault_sig_collisions: Vec<usize>,
    /// `f64` bits of the last prefiltered job's observed skip rate
    /// (matched rows / rows), driving the adaptive bypass. Starts as NaN,
    /// which compares below no threshold, so the first job always runs
    /// the prefilter.
    sig_skip_rate: AtomicU64,
    /// Worker thread handles, shared between the supervisor (respawns)
    /// and `Drop` (joins). Indexed by worker slot.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// The executor's one counter store (always on) and its optional trace
    /// ring, shared by workers, supervisor and collectors.
    obs: Arc<Observer>,
    #[cfg(feature = "fault-injection")]
    faults: Option<FaultPlan>,
}

impl Shared {
    /// Enqueues a chunk onto `shard`'s queues. The depth gauge moves
    /// inside the same critical section as the push, so it can never
    /// undercount the queues' true contents.
    fn push_chunk(&self, shard: usize, chunk: Chunk) {
        let mut queue = lock(&self.shards[shard].queue);
        queue.push(chunk);
        self.obs.metrics.queue_depth.add(1);
    }

    fn pop_shard(&self, shard: usize, own: bool) -> Option<Chunk> {
        let mut queue = lock(&self.shards[shard].queue);
        let chunk = queue.pop(own);
        if chunk.is_some() {
            self.obs.metrics.queue_depth.sub(1);
        }
        chunk
    }

    /// One non-blocking attempt to find work for `worker`: its own shard
    /// first, then each sibling in ring order (a steal, attributed to the
    /// stolen chunk's job).
    fn try_pop(&self, worker: usize) -> Option<Chunk> {
        if self.obs.metrics.queue_depth.get() <= 0 {
            return None;
        }
        if let Some(chunk) = self.pop_shard(worker, true) {
            return Some(chunk);
        }
        let n = self.shards.len();
        for d in 1..n {
            if let Some(chunk) = self.pop_shard((worker + d) % n, false) {
                chunk.job.steals.fetch_add(1, Ordering::Relaxed);
                self.obs.metrics.chunks_stolen.inc();
                return Some(chunk);
            }
        }
        None
    }

    /// Blocks until a chunk is available for `worker` or shutdown is
    /// requested. The doorbell re-check plus tick timeout make a lost
    /// wakeup impossible to get stuck on.
    fn next_chunk(&self, worker: usize) -> Option<Chunk> {
        loop {
            if let Some(chunk) = self.try_pop(worker) {
                return Some(chunk);
            }
            if self.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            let bell = lock(&self.work_bell);
            if self.obs.metrics.queue_depth.get() > 0 {
                continue; // work arrived between the pop and the bell
            }
            if self.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            let _unused = self
                .work_ready
                .wait_timeout(bell, SUPERVISION_TICK)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Books a retry of `chunk` (on its job and in the registry) and puts
    /// it back on `worker`'s shard; the caller rings the doorbell.
    fn requeue(&self, worker: usize, chunk: Chunk) {
        chunk.job.retries.fetch_add(1, Ordering::Relaxed);
        self.obs.metrics.retries.inc();
        self.obs.record(TraceKind::Retry {
            chunk: chunk.base,
            rows: chunk.len() as u32,
            attempt: chunk.attempts,
        });
        self.push_chunk(worker, chunk);
    }

    fn notify_work_all(&self) {
        let _bell = lock(&self.work_bell);
        self.work_ready.notify_all();
    }

    fn notify_work_one(&self) {
        let _bell = lock(&self.work_bell);
        self.work_ready.notify_one();
    }

    fn take_spare(&self, job: &JobState) -> Vec<RowResult> {
        let recycled = lock(&self.spare).pop();
        match recycled {
            Some(vec) => {
                job.buffer_hits.fetch_add(1, Ordering::Relaxed);
                vec
            }
            None => Vec::new(),
        }
    }

    fn return_spare(&self, mut vec: Vec<RowResult>) {
        vec.clear();
        if vec.capacity() == 0 {
            return;
        }
        let mut pool = lock(&self.spare);
        if pool.len() < SPARE_POOL_CAP {
            pool.push(vec);
        }
    }

    /// Routes one finished chunk to its owning job: live rows join the
    /// job's pending queue (ringing its bell); rows of an abandoned job
    /// are discarded here, never delivered — the result-isolation
    /// invariant. The result vector is recycled afterwards.
    fn deliver(&self, worker: usize, job: &Arc<JobState>, mut results: Vec<RowResult>) {
        {
            let mut inner = lock(&job.inner);
            if inner.abandoned {
                for row in results.drain(..) {
                    inner.stale = inner.stale.saturating_sub(1);
                    decrement(&self.abandoned_rows);
                    // Only successfully diffed rows entered `rows_diffed`;
                    // booking errored rows as discarded would unbalance
                    // the `rows_diffed == rows_completed + rows_discarded`
                    // ledger.
                    if row.result.is_ok() {
                        self.obs.metrics.rows_discarded.inc();
                    }
                }
            } else {
                let n = results.len();
                let ok = results.iter().filter(|row| row.result.is_ok()).count();
                self.obs.metrics.rows_completed.add(ok as u64);
                self.obs.metrics.rows_errored.add((n - ok) as u64);
                if ok > 0 {
                    inner.seen[worker] = true;
                }
                for row in results.drain(..) {
                    inner.pending.push_back(RowOutcome {
                        ticket: Ticket(row.ticket),
                        worker,
                        kernel: row.kernel,
                        result: row.result,
                    });
                }
                inner.undelivered -= n;
                if inner.undelivered == 0 && !inner.completed {
                    inner.completed = true;
                    self.obs.metrics.jobs_completed.inc();
                    self.obs.record(TraceKind::JobDone {
                        job: job.id,
                        rows: job.rows(),
                    });
                }
                job.bell.notify_all();
            }
        }
        self.return_spare(results);
    }
}

/// `fetch_sub(1)` clamped at zero (mirrors the old collector's
/// `saturating_sub` robustness against double write-offs).
fn decrement(counter: &AtomicUsize) {
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
}

/// Configuration for a [`DiffExecutor`].
#[derive(Clone, Debug)]
pub struct DiffExecutorConfig {
    /// Worker threads in the pool (must be > 0).
    pub threads: usize,
    /// Extra attempts the supervisor grants a chunk whose worker panicked
    /// or died. A chunk is attempted at most `retry_limit + 1` times before
    /// its culprit row surfaces as [`SystolicError::RowFailed`].
    pub retry_limit: u32,
    /// Per-collect deadline of the batch calls: the longest
    /// [`DiffExecutor::diff_images_shared`] waits for the *next* completed
    /// row before abandoning the batch with
    /// [`SystolicError::DeadlineExceeded`]. `None` (the default) waits
    /// indefinitely (supervision still recovers dead workers; only genuine
    /// stalls can block). [`DiffExecutor::diff_pair`] takes a per-call
    /// budget instead.
    pub row_deadline: Option<Duration>,
    /// How long [`Drop`] waits for workers to exit before detaching wedged
    /// threads instead of joining them (the never-deadlock guarantee).
    pub shutdown_grace: Duration,
    /// Kernel policy workers diff rows with (default [`Kernel::Auto`]).
    pub kernel: Kernel,
    /// SIMD level for the packed kernel's run-comparison scan. `None` (the
    /// default) resolves from the `SYSTOLIC_SIMD` environment variable,
    /// falling back to runtime CPU detection. `Some` requests an explicit
    /// level, clamped down to what the host actually supports — a forced
    /// level can narrow the choice, never exceed the hardware.
    pub simd: Option<SimdLevel>,
    /// Target scheduling weight per chunk, measured in input runs (each row
    /// weighs `k1 + k2 + 1`). `None` (the default) derives it from the
    /// job: `total_weight / (threads * 4)`, clamped to at least one row —
    /// and the derived plan is further split until it has at least one
    /// chunk per worker (an explicit target is honoured exactly).
    pub chunk_target: Option<usize>,
    /// Tracing: `Some` attaches a trace ring to the executor's
    /// [`Observer`]. `None` (the default) records no trace events; the
    /// metrics registry is always on either way.
    pub observe: Option<ObsConfig>,
    /// Signature prefilter for [`DiffExecutor::diff_pair`] and the batch
    /// calls (default off): before planning chunks, compare the two images'
    /// cached per-row signatures ([`rle::RleRow::signature`]) and resolve
    /// every matching row host-side as an empty diff — no submit, no
    /// checkout round-trip, no kernel. [`DiffExecutor::submit_pair`] plans
    /// every row, because its caller collects rows by ticket. Skips
    /// surface in [`PipelineStats::rows_sig_skipped`], the
    /// `rows_sig_skipped` metric and `sig_skip` trace events. Equal rows
    /// always match (signatures are canonical-view), and distinct rows
    /// collide with probability ~2⁻⁶⁴; use [`Self::verify_signatures`] if
    /// even that is too much. Ignored under [`Kernel::Systolic`], whose
    /// contract is cycle-exact per-row statistics against the reference
    /// machine — skipping rows would zero their iteration counts.
    ///
    /// The prefilter adapts to churn: when the last prefiltered job's
    /// skip rate (fraction of rows whose signatures matched) falls below
    /// 0.75, the next job *bypasses* skip resolution and sends every row
    /// to the kernels, while still comparing the cached signatures (a u64
    /// compare per row) so the prefilter re-arms once churn drops. The
    /// rate is executor-wide: with one submitter it is the previous job's,
    /// with several it is whichever job measured last. The first job after
    /// build always runs the prefilter (there is no rate to adapt to yet);
    /// the engaged mode is reported in [`PipelineStats::sig_prefilter`].
    pub signature_prefilter: bool,
    /// Paranoid mode for the prefilter (default off): cross-check a
    /// deterministic sample of signature skips (the first of each job,
    /// then every 16th) against the reference XOR. A confirmed check
    /// counts in [`PipelineStats::sig_verified`]; a caught collision
    /// substitutes the reference diff for the empty row (the output stays
    /// exact) and counts in [`PipelineStats::sig_collisions`].
    pub verify_signatures: bool,
    /// Deterministic fault schedule for tests (see
    /// [`crate::engine::fault`]).
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<FaultPlan>,
    /// Test hook: image rows whose signature comparison is forced to
    /// "equal" even when the rows differ — a synthetic 64-bit collision,
    /// used by the false-skip drill to prove what [`Self::verify_signatures`]
    /// catches.
    #[cfg(feature = "fault-injection")]
    pub fault_sig_collisions: Vec<usize>,
}

impl Default for DiffExecutorConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            retry_limit: 2,
            row_deadline: None,
            shutdown_grace: Duration::from_millis(500),
            kernel: Kernel::Auto,
            simd: None,
            chunk_target: None,
            observe: None,
            signature_prefilter: false,
            verify_signatures: false,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
            #[cfg(feature = "fault-injection")]
            fault_sig_collisions: Vec::new(),
        }
    }
}

impl DiffExecutorConfig {
    /// A default configuration over `threads` workers.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Sets the retry budget (see [`Self::retry_limit`]).
    #[must_use]
    pub fn retry_limit(mut self, retries: u32) -> Self {
        self.retry_limit = retries;
        self
    }

    /// Sets the per-collect batch deadline (see [`Self::row_deadline`]).
    #[must_use]
    pub fn row_deadline(mut self, deadline: Duration) -> Self {
        self.row_deadline = Some(deadline);
        self
    }

    /// Sets the shutdown grace period (see [`Self::shutdown_grace`]).
    #[must_use]
    pub fn shutdown_grace(mut self, grace: Duration) -> Self {
        self.shutdown_grace = grace;
        self
    }

    /// Sets the kernel policy (see [`Self::kernel`]).
    #[must_use]
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Requests an explicit SIMD level (see [`Self::simd`]).
    #[must_use]
    pub fn simd(mut self, level: SimdLevel) -> Self {
        self.simd = Some(level);
        self
    }

    /// Sets the chunk scheduling weight (see [`Self::chunk_target`]).
    #[must_use]
    pub fn chunk_target(mut self, runs_per_chunk: usize) -> Self {
        self.chunk_target = Some(runs_per_chunk);
        self
    }

    /// Enables the signature prefilter (see [`Self::signature_prefilter`]).
    #[must_use]
    pub fn signature_prefilter(mut self) -> Self {
        self.signature_prefilter = true;
        self
    }

    /// Enables paranoid skip verification (see [`Self::verify_signatures`]);
    /// the prefilter itself is still opted into separately.
    #[must_use]
    pub fn verify_signatures(mut self) -> Self {
        self.verify_signatures = true;
        self
    }

    /// Forces synthetic signature collisions on the given image rows (test
    /// builds only; see [`Self::fault_sig_collisions`]).
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn fault_sig_collisions(mut self, rows: Vec<usize>) -> Self {
        self.fault_sig_collisions = rows;
        self
    }

    /// Attaches a trace ring with the default settings (see
    /// [`Self::observe`]).
    #[must_use]
    pub fn observe(mut self) -> Self {
        self.observe = Some(ObsConfig::default());
        self
    }

    /// Attaches a trace ring with explicit settings (see [`Self::observe`]).
    #[must_use]
    pub fn observe_with(mut self, obs: ObsConfig) -> Self {
        self.observe = Some(obs);
        self
    }

    /// Installs a deterministic fault schedule (test builds only).
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builds the executor described by this configuration.
    #[must_use]
    pub fn build(self) -> DiffExecutor {
        DiffExecutor::new(self)
    }
}

/// Everything [`DiffExecutor::diff_pair`] reports about one finished job.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's id (monotonic per executor).
    pub job: u64,
    /// The contiguous ticket range `[lo, hi)` the job's rows occupied.
    pub tickets: (u64, u64),
    /// The reassembled diff image.
    pub image: RleImage,
    /// Per-job statistics — retries, respawns, steals and buffer hits are
    /// attributed to *this* job only, exact under interleaving.
    pub stats: PipelineStats,
    /// Submission → first chunk checkout: time the job waited for a
    /// worker.
    pub queue_wait: Duration,
}

/// How long a job's collector may wait for its next row.
#[derive(Clone, Copy)]
enum Deadline {
    /// One budget for the whole job ([`DiffExecutor::diff_pair`]).
    Job(Duration),
    /// A window that restarts at every collect
    /// ([`DiffExecutorConfig::row_deadline`]).
    Collect(Duration),
}

/// A supervised, shard-scheduled worker pool that runs many independent
/// image-pair jobs concurrently (see the module docs). Every job runs the
/// same path and all its state lives in the job or the shared pool, so
/// any number of threads can submit through `&self`.
pub struct DiffExecutor {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
    shutdown_grace: Duration,
    row_deadline: Option<Duration>,
}

impl std::fmt::Debug for DiffExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiffExecutor")
            .field("workers", &self.workers())
            .field("in_flight", &self.in_flight())
            .field("abandoned", &self.abandoned())
            .field("counters", &self.counters())
            .finish()
    }
}

impl DiffExecutor {
    /// Spawns the worker pool and its supervisor.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads == 0`.
    #[must_use]
    pub fn new(config: DiffExecutorConfig) -> Self {
        assert!(config.threads > 0, "need at least one thread");
        let simd = config.simd.map_or_else(SimdLevel::default_level, |level| {
            SimdLevel::resolve(Some(level))
        });
        let shared = Arc::new(Shared {
            shards: (0..config.threads).map(|_| Shard::default()).collect(),
            abandoned_rows: AtomicUsize::new(0),
            next_ticket: AtomicU64::new(0),
            next_job_id: AtomicU64::new(0),
            submit_cursor: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            work_bell: Mutex::new(()),
            work_ready: Condvar::new(),
            sup_bell: Mutex::new(()),
            sup_ready: Condvar::new(),
            spare: Mutex::new(Vec::new()),
            kernel: config.kernel,
            simd,
            chunk_target: config.chunk_target,
            retry_limit: config.retry_limit,
            signature_prefilter: config.signature_prefilter,
            verify_signatures: config.verify_signatures,
            #[cfg(feature = "fault-injection")]
            fault_sig_collisions: config.fault_sig_collisions,
            sig_skip_rate: AtomicU64::new(f64::NAN.to_bits()),
            handles: Mutex::new(Vec::new()),
            obs: Arc::new(Observer::new(config.observe)),
            #[cfg(feature = "fault-injection")]
            faults: config.fault_plan,
        });
        *lock(&shared.handles) = (0..config.threads)
            .map(|worker| spawn_worker(&shared, worker))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervisor_loop(&shared))
        };
        Self {
            shared,
            supervisor: Some(supervisor),
            shutdown_grace: config.shutdown_grace,
            row_deadline: config.row_deadline,
        }
    }

    /// Number of worker slots in the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.shards.len()
    }

    /// The SIMD level the pool's kernels resolved to (after the env /
    /// config override and the hardware clamp).
    #[must_use]
    pub fn simd_level(&self) -> SimdLevel {
        self.shared.simd
    }

    /// The executor's [`Observer`]: its metrics registry (always on) and
    /// trace (empty unless [`DiffExecutorConfig::observe`] attached a
    /// ring). The `Arc` stays valid after the executor is dropped, so
    /// snapshots can outlive the pool.
    #[must_use]
    pub fn observer(&self) -> Arc<Observer> {
        Arc::clone(&self.shared.obs)
    }

    /// Lifetime supervision totals across every job, read from the
    /// metrics registry.
    #[must_use]
    pub fn counters(&self) -> SupervisionCounters {
        let metrics = &self.shared.obs.metrics;
        SupervisionCounters {
            retries: metrics.retries.get(),
            respawns: metrics.respawns.get(),
            timeouts: metrics.timeouts.get(),
        }
    }

    /// Rows submitted but not yet collected or written off, across all
    /// jobs (the registry's `in_flight` gauge, clamped at 0).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        usize::try_from(self.shared.obs.metrics.in_flight.get()).unwrap_or(0)
    }

    /// Rows written off by abandoned jobs whose stale results are still
    /// outstanding — held by a wedged worker. Each one is discarded (and
    /// this count decremented) when its stale result finally arrives or
    /// its dead worker is reaped, so a healed executor drains back to 0.
    #[must_use]
    pub fn abandoned(&self) -> usize {
        self.shared.abandoned_rows.load(Ordering::Relaxed)
    }

    /// The ticket the next submitted row will receive (global, monotonic
    /// across all jobs). A job's rows take consecutive tickets, so reading
    /// this before and after a batch call gives the half-open range the
    /// batch occupied.
    #[must_use]
    pub fn next_ticket(&self) -> u64 {
        self.shared.next_ticket.load(Ordering::Relaxed)
    }

    /// Submits one job over `ranges` of the shared images: allocates its
    /// id and a contiguous ticket range, records the submit ledger, and
    /// deals the chunks round-robin across the shards. Ranges must be
    /// disjoint and ascending; row `lo + k` of a range gets the ticket
    /// after all rows of the ranges before it.
    fn submit_job(
        &self,
        a: &Arc<RleImage>,
        b: &Arc<RleImage>,
        ranges: Vec<(usize, usize)>,
    ) -> JobHandle {
        let rows: usize = ranges.iter().map(|(lo, hi)| hi - lo).sum();
        let id = self.shared.next_job_id.fetch_add(1, Ordering::Relaxed);
        let lo = self
            .shared
            .next_ticket
            .fetch_add(rows as u64, Ordering::Relaxed);
        let job = Arc::new(JobState::new(
            id,
            lo,
            lo + rows as u64,
            ranges.len(),
            self.workers(),
        ));
        let obs = &self.shared.obs;
        obs.metrics.jobs_submitted.inc();
        obs.metrics.rows_submitted.add(rows as u64);
        obs.metrics.chunks_dispatched.add(ranges.len() as u64);
        obs.metrics.in_flight.add(rows as i64);
        obs.record(TraceKind::JobSubmit {
            job: id,
            rows: rows as u64,
        });
        // Submit events precede the enqueue so every row's causal chain
        // starts before any worker can check its chunk out. The job's rows
        // hold its tickets in order, so the loop walks the ticket range.
        if obs.tracing() {
            for ticket in job.lo..job.hi {
                obs.record(TraceKind::Submit { ticket });
            }
        }
        if rows == 0 {
            // Nothing will ever be delivered; complete the job here.
            lock(&job.inner).completed = true;
            obs.metrics.jobs_completed.inc();
            obs.record(TraceKind::JobDone { job: id, rows: 0 });
        }
        let shards = self.shared.shards.len();
        let mut base = lo;
        for (lo, hi) in ranges {
            let chunk = Chunk {
                base,
                lo,
                hi,
                attempts: 0,
                a: Arc::clone(a),
                b: Arc::clone(b),
                job: Arc::clone(&job),
            };
            base += chunk.len() as u64;
            let shard = self.shared.submit_cursor.fetch_add(1, Ordering::Relaxed) % shards;
            self.shared.push_chunk(shard, chunk);
        }
        self.shared.notify_work_all();
        JobHandle {
            job,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Plans and submits one image pair as a job without waiting for it.
    /// The caller collects through the returned [`JobHandle`]; many
    /// submitters can do this concurrently on one executor. Every row is
    /// planned: the signature prefilter does not run here, because the
    /// caller collects rows by ticket and a row resolved host-side would
    /// never arrive.
    pub fn submit_pair(
        &self,
        a: &Arc<RleImage>,
        b: &Arc<RleImage>,
    ) -> Result<JobHandle, SystolicError> {
        check_dims(a, b)?;
        let ranges = plan_ranges(a, b, None, self.shared.chunk_target, self.workers());
        Ok(self.submit_job(a, b, ranges))
    }

    /// Diffs one image pair end to end as one job (see the module docs for
    /// its path). This is the request-sized entry point `diffd` sessions
    /// call concurrently — no outer mutex; fairness and isolation come
    /// from the job machinery. A `budget` bounds the whole job; on expiry
    /// the job is abandoned (other jobs unaffected) and
    /// [`SystolicError::DeadlineExceeded`] returned.
    pub fn diff_pair(
        &self,
        a: &Arc<RleImage>,
        b: &Arc<RleImage>,
        budget: Option<Duration>,
    ) -> Result<JobOutcome, SystolicError> {
        self.run_job(a, b, budget.map(Deadline::Job))
    }

    /// Diffs two images row by row across the pool, reassembling the rows
    /// in order and aggregating per-row statistics. Copies both images
    /// into `Arc`s once; use [`Self::diff_images_shared`] to avoid that.
    pub fn diff_images(
        &mut self,
        a: &RleImage,
        b: &RleImage,
    ) -> Result<(RleImage, PipelineStats), SystolicError> {
        self.diff_images_shared(&Arc::new(a.clone()), &Arc::new(b.clone()))
    }

    /// The batch API: diffs two shared images as one job, on the same path
    /// as [`Self::diff_pair`] but with the per-collect
    /// [`DiffExecutorConfig::row_deadline`] instead of a job budget. No row
    /// data is copied. It keeps its `&mut self` receiver so callers that
    /// bind the executor `mut` compile unchanged; it reads no per-owner
    /// state.
    ///
    /// Bit-identical to [`crate::image::xor_image`] for every kernel
    /// policy. If any row fails, the remaining rows are still drained and
    /// the first error is returned. With a
    /// [`DiffExecutorConfig::row_deadline`], a stall longer than the
    /// deadline aborts the batch with [`SystolicError::DeadlineExceeded`];
    /// the batch's remaining rows are abandoned (see [`Self::abandoned`])
    /// and the executor is immediately reusable.
    pub fn diff_images_shared(
        &mut self,
        a: &Arc<RleImage>,
        b: &Arc<RleImage>,
    ) -> Result<(RleImage, PipelineStats), SystolicError> {
        let out = self.run_job(a, b, self.row_deadline.map(Deadline::Collect))?;
        Ok((out.image, out.stats))
    }

    /// Runs the signature prefilter over a job's rows, if enabled. Returns
    /// the stats of the rows it resolved host-side (skipped, or
    /// substituted after a caught collision) with the engaged mode, and
    /// those rows' diffs — `None` means "plan every row": the prefilter is
    /// off, the kernel policy demands exact per-row statistics, the
    /// adaptive bypass is engaged (the last measured skip rate is below
    /// [`SIG_PREFILTER_MIN_SKIP_RATE`]), or no row matched. Records this
    /// job's observed match rate either way so the next job adapts.
    fn prefilter(
        &self,
        a: &RleImage,
        b: &RleImage,
    ) -> (PipelineStats, Option<Vec<Option<RleRow>>>) {
        let shared = &self.shared;
        let mut stats = PipelineStats::default();
        if !shared.signature_prefilter || shared.kernel == Kernel::Systolic {
            return (stats, None);
        }
        let height = a.height();
        let rate = f64::from_bits(shared.sig_skip_rate.load(Ordering::Relaxed));
        // Bypass: the last job churned too much for skip resolution to pay
        // for itself. Still compare the cached signatures — one u64
        // equality per row — so the rate stays measured and the prefilter
        // re-arms as soon as the sequence calms down.
        let bypass = rate < SIG_PREFILTER_MIN_SKIP_RATE;
        stats.sig_prefilter = if bypass {
            SigPrefilterMode::Bypassed
        } else {
            SigPrefilterMode::Active
        };
        let mut rows: Option<Vec<Option<RleRow>>> = (!bypass).then(|| vec![None; height]);
        let mut matched = 0usize;
        for i in 0..height {
            let (ra, rb) = (&a.rows()[i], &b.rows()[i]);
            let matches = ra.signature() == rb.signature();
            #[cfg(feature = "fault-injection")]
            let matches = matches || shared.fault_sig_collisions.contains(&i);
            if !matches {
                continue;
            }
            let ordinal = matched;
            matched += 1;
            let Some(rows) = rows.as_mut() else {
                continue;
            };
            let row_stats = ArrayStats {
                k1: ra.run_count(),
                k2: rb.run_count(),
                ..ArrayStats::default()
            };
            stats.rows += 1;
            if shared.verify_signatures && ordinal.is_multiple_of(SIG_VERIFY_SAMPLE) {
                let reference = rle::ops::xor(ra, rb);
                if !reference.is_empty() {
                    // A 64-bit collision (or an injected one): the skip
                    // would have dropped real differences. Resolve the row
                    // with the reference diff instead — still host-side,
                    // still no kernel, but exact.
                    stats.totals.absorb(&ArrayStats {
                        output_runs: reference.run_count(),
                        ..row_stats
                    });
                    stats.sig_collisions += 1;
                    rows[i] = Some(reference);
                    continue;
                }
                stats.sig_verified += 1;
            }
            stats.totals.absorb(&row_stats);
            stats.rows_sig_skipped += 1;
            rows[i] = Some(RleRow::new(a.width()));
            shared.obs.record(TraceKind::SigSkip { row: i as u64 });
        }
        if height > 0 {
            let observed = matched as f64 / height as f64;
            shared
                .sig_skip_rate
                .store(observed.to_bits(), Ordering::Relaxed);
        }
        shared
            .obs
            .metrics
            .rows_sig_skipped
            .add(stats.rows_sig_skipped as u64);
        (stats, rows.filter(|_| matched > 0))
    }

    /// Small-job shortcut after the prefilter: when at most
    /// [`INLINE_RESIDUAL_ROWS`] rows were *not* resolved, diff them here on
    /// the submitter's thread with the same kernel policy a worker would
    /// use, on scratch of its own. The job then plans zero chunks — no
    /// enqueue, no wake-up, no collect handshake — which is what makes
    /// low-churn frame diffs cheap instead of merely parallel. Inline rows
    /// join `stats` like collected rows do; they never enter the
    /// submit/complete ledgers (nothing was submitted).
    fn inline_residual(
        &self,
        a: &RleImage,
        b: &RleImage,
        rows: &mut [Option<RleRow>],
        stats: &mut PipelineStats,
    ) -> Result<(), SystolicError> {
        let residual = rows.iter().filter(|row| row.is_none()).count();
        if residual == 0 || residual > INLINE_RESIDUAL_ROWS {
            return Ok(());
        }
        let mut scratch = KernelScratch::with_simd(self.shared.simd);
        for (i, slot) in rows.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let row_start = Instant::now();
            let (row, row_stats, choice) =
                kernel::diff_row(self.shared.kernel, &mut scratch, &a.rows()[i], &b.rows()[i])?;
            // Mirror a worker's per-row accounting (kernel mix + the two
            // row histograms) under `rows_inline_diffed` instead of
            // `rows_diffed`, keeping both documented ledger identities
            // closed: these rows were never submitted, so they must not
            // appear on the worker/collector side.
            let metrics = &self.shared.obs.metrics;
            metrics.rows_inline_diffed.inc();
            metrics.record_diff(
                choice,
                row_start.elapsed().as_nanos() as u64,
                (row_stats.k1 + row_stats.k2) as u64,
            );
            absorb_row(stats, &row_stats, Some(choice));
            *slot = Some(row);
        }
        Ok(())
    }

    /// The one job path behind [`Self::diff_pair`] and
    /// [`Self::diff_images_shared`]: check → prefilter → inline residual →
    /// plan → submit → collect → assemble. Rows the first two stages
    /// settled host-side are left out of the plan, so tickets map to image
    /// rows through it. This is the one place a job's [`PipelineStats`]
    /// is built: the prefilter's and the inline path's share, the collected
    /// rows, and the job's supervision counts. On a deadline the handle is
    /// dropped uncollected, which abandons the job.
    fn run_job(
        &self,
        a: &Arc<RleImage>,
        b: &Arc<RleImage>,
        deadline: Option<Deadline>,
    ) -> Result<JobOutcome, SystolicError> {
        check_dims(a, b)?;
        let start = Instant::now();
        let (mut stats, mut resolved) = self.prefilter(a, b);
        if let Some(rows) = &mut resolved {
            self.inline_residual(a, b, rows, &mut stats)?;
        }
        let ranges = plan_ranges(
            a,
            b,
            resolved.as_deref(),
            self.shared.chunk_target,
            self.workers(),
        );
        let ticket_rows: Option<Vec<usize>> = resolved
            .as_ref()
            .map(|_| ranges.iter().flat_map(|&(lo, hi)| lo..hi).collect());
        let mut rows = resolved.unwrap_or_else(|| vec![None; a.height()]);
        stats.workers = self.workers();
        stats.chunks = ranges.len();
        let handle = self.submit_job(a, b, ranges);
        let base = handle.tickets().0;
        let mut first_err: Option<SystolicError> = None;
        loop {
            let collect_deadline = match deadline {
                None => None,
                Some(Deadline::Job(budget)) => Some(start + budget),
                Some(Deadline::Collect(window)) => Some(Instant::now() + window),
            };
            match handle.collect_next(collect_deadline)? {
                Some(outcome) => match outcome.result {
                    Ok((row, row_stats)) => {
                        absorb_row(&mut stats, &row_stats, outcome.kernel);
                        let offset =
                            usize::try_from(outcome.ticket.id() - base).expect("ticket fits");
                        rows[ticket_rows.as_ref().map_or(offset, |tr| tr[offset])] = Some(row);
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                },
                None => break,
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        handle.fill_supervision(&mut stats);
        stats.wall = start.elapsed();
        let rows: Vec<RleRow> = rows
            .into_iter()
            .map(|r| r.expect("every row collected"))
            .collect();
        let image = RleImage::from_rows(a.width(), rows).expect("row widths preserved");
        Ok(JobOutcome {
            job: handle.id(),
            tickets: handle.tickets(),
            image,
            stats,
            queue_wait: handle.queue_wait().unwrap_or_default(),
        })
    }
}

/// Folds one diffed row into a job's statistics, tallying the kernel that
/// ran it (`None`: no kernel ran).
fn absorb_row(stats: &mut PipelineStats, row: &ArrayStats, kernel: Option<KernelChoice>) {
    stats.totals.absorb(row);
    stats.max_row_iterations = stats.max_row_iterations.max(row.iterations);
    stats.rows += 1;
    match kernel {
        Some(KernelChoice::FastPath) => stats.rows_fast_path += 1,
        Some(KernelChoice::Rle) => stats.rows_rle_kernel += 1,
        Some(KernelChoice::Packed) => stats.rows_packed_kernel += 1,
        Some(KernelChoice::Systolic) => stats.rows_systolic_kernel += 1,
        None => {}
    }
}

impl Drop for DiffExecutor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.notify_work_all();
        {
            let _bell = lock(&self.shared.sup_bell);
            self.shared.sup_ready.notify_all();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // Join workers that exit within the grace period; detach the rest
        // (e.g. a wedged worker mid-stall) so Drop can never deadlock. A
        // detached worker sees the shutdown flag and exits as soon as it
        // unwedges; the Arc keeps its shared state alive until then.
        let deadline = Instant::now() + self.shutdown_grace;
        for handle in lock(&self.shared.handles).drain(..) {
            while !handle.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
    }
}

/// One submitted job's collection side: results route here and nowhere
/// else. The handle is `Send` — a submitter thread can hand it off — and
/// every method takes `&self`. Dropping it before every row was collected
/// abandons the job.
pub struct JobHandle {
    job: Arc<JobState>,
    shared: Arc<Shared>,
}

impl JobHandle {
    /// The job's id (monotonic per executor).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// The contiguous ticket range `[lo, hi)` allocated to this job's
    /// rows.
    #[must_use]
    pub fn tickets(&self) -> (u64, u64) {
        (self.job.lo, self.job.hi)
    }

    /// Chunks the job was planned into.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.job.chunks
    }

    /// Submission → first chunk checkout, if a worker has started.
    #[must_use]
    pub fn queue_wait(&self) -> Option<Duration> {
        match self.job.first_checkout_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns - 1)),
        }
    }

    /// Copies this job's supervision attribution into `stats` — exact for
    /// this job even when other jobs were interleaving on the same shard
    /// set.
    fn fill_supervision(&self, stats: &mut PipelineStats) {
        stats.retries = self.job.retries.load(Ordering::Relaxed);
        stats.respawns = self.job.respawns.load(Ordering::Relaxed);
        stats.timeouts = self.job.timeouts.load(Ordering::Relaxed);
        stats.chunks_stolen = self.job.steals.load(Ordering::Relaxed);
        stats.buffers_reused = self.job.buffer_hits.load(Ordering::Relaxed);
        stats.effective_workers = self.effective_workers();
    }

    /// Worker slots that delivered at least one successful row for this
    /// job.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        lock(&self.job.inner).seen.iter().filter(|s| **s).count()
    }

    /// Per-job supervision counters.
    #[must_use]
    pub fn supervision(&self) -> SupervisionCounters {
        SupervisionCounters {
            retries: self.job.retries.load(Ordering::Relaxed),
            respawns: self.job.respawns.load(Ordering::Relaxed),
            timeouts: self.job.timeouts.load(Ordering::Relaxed),
        }
    }

    /// Chunks of this job popped by a non-owning shard (tail
    /// rebalancing), attributed to this job alone.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.job.steals.load(Ordering::Relaxed)
    }

    /// Blocks for this job's next completed row, in completion order.
    /// `Ok(None)` means the job has no rows outstanding. With a
    /// `deadline`, gives up at that instant with
    /// [`SystolicError::DeadlineExceeded`] — the rows stay in flight
    /// (their worker may still deliver them later); the caller can keep
    /// collecting, or [`Self::abandon`] the job (dropping the handle does
    /// the same).
    pub fn collect_next(
        &self,
        deadline: Option<Instant>,
    ) -> Result<Option<RowOutcome>, SystolicError> {
        let start = Instant::now();
        let mut inner = lock(&self.job.inner);
        loop {
            if let Some(outcome) = inner.pending.pop_front() {
                drop(inner);
                self.shared.obs.metrics.in_flight.sub(1);
                return Ok(Some(outcome));
            }
            if inner.undelivered == 0 {
                return Ok(None);
            }
            let now = Instant::now();
            if let Some(d) = deadline {
                if now >= d {
                    let in_flight = inner.undelivered;
                    drop(inner);
                    self.job.timeouts.fetch_add(1, Ordering::Relaxed);
                    self.shared.obs.metrics.timeouts.inc();
                    self.shared.obs.record(TraceKind::Timeout {
                        in_flight: in_flight as u64,
                    });
                    return Err(SystolicError::DeadlineExceeded {
                        waited: start.elapsed(),
                        in_flight,
                    });
                }
            }
            let wait = deadline.map_or(SUPERVISION_TICK, |d| {
                SUPERVISION_TICK.min(d.saturating_duration_since(now))
            });
            let (guard, _timed_out) = self
                .job
                .bell
                .wait_timeout(inner, wait)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Abandons this job. Queued-but-unstarted chunks are dropped; rows
    /// still held by a (possibly wedged) worker are written off behind
    /// the job's abandoned flag, so their eventual stale delivery is
    /// discarded on arrival and no other job can ever receive them.
    /// Uncollected pending rows are dropped too. The executor (and every
    /// other job) is unaffected.
    pub fn abandon(&self) {
        let mut dropped_chunks = 0usize;
        let mut dropped_rows = 0usize;
        for shard in &self.shared.shards {
            let (chunks, rows) = lock(&shard.queue).remove_job(self.job.id);
            dropped_chunks += chunks;
            dropped_rows += rows;
        }
        let metrics = &self.shared.obs.metrics;
        metrics.queue_depth.sub(dropped_chunks as i64);
        let mut inner = lock(&self.job.inner);
        if inner.abandoned {
            return;
        }
        let pending_rows = inner.pending.len();
        let undelivered = inner.undelivered;
        // Rows neither queued nor pending are held by a worker (possibly
        // wedged): they become stale and are discarded on arrival.
        let wedged = undelivered - dropped_rows;
        inner.pending.clear();
        inner.undelivered = 0;
        if undelivered > 0 {
            inner.abandoned = true;
            inner.stale += wedged;
        }
        drop(inner);
        metrics.in_flight.sub((pending_rows + undelivered) as i64);
        if undelivered == 0 {
            // All rows were delivered (and counted completed/errored);
            // dropping the uncollected remainder writes off nothing.
            return;
        }
        self.shared
            .abandoned_rows
            .fetch_add(wedged, Ordering::Relaxed);
        // Ledger: dropped rows never ran and wedged rows will be
        // discarded on arrival, so neither can ever reach
        // `rows_completed` / `rows_errored`; booking them here closes
        // `rows_submitted == rows_completed + rows_errored + rows_abandoned`.
        metrics.rows_abandoned.add((dropped_rows + wedged) as u64);
        metrics.jobs_abandoned.inc();
    }
}

/// A handle dropped before its job was fully collected abandons the job,
/// so its rows leave the `in_flight` gauge (which `diffd` admission reads)
/// instead of staying there forever. A fully collected job — every
/// [`DiffExecutor::diff_pair`] ends this way — returns after one look at
/// the job's own lock, touching no shard.
impl Drop for JobHandle {
    fn drop(&mut self) {
        {
            let inner = lock(&self.job.inner);
            if inner.undelivered == 0 && inner.pending.is_empty() {
                return;
            }
        }
        self.abandon();
    }
}

/// Splits `[0, height)` into contiguous row ranges whose summed weight
/// (`k1 + k2 + 1`, so empty rows still make progress) reaches
/// `target_override` or the derived target
/// `total / (workers * CHUNKS_PER_WORKER)`. Rows already resolved
/// (`resolved[i]` is `Some`) are excluded (they break ranges). A *derived* plan is split further
/// until it holds at least one range per worker, so a single heavy row
/// cannot idle the rest of the pool.
fn plan_ranges(
    a: &RleImage,
    b: &RleImage,
    resolved: Option<&[Option<RleRow>]>,
    target_override: Option<usize>,
    workers: usize,
) -> Vec<(usize, usize)> {
    let height = a.height();
    let excluded = |i: usize| resolved.is_some_and(|r| r[i].is_some());
    let weight = |i: usize| a.rows()[i].run_count() + b.rows()[i].run_count() + 1;
    let target = target_override
        .unwrap_or_else(|| {
            let total: usize = (0..height).filter(|&i| !excluded(i)).map(weight).sum();
            total / (workers * CHUNKS_PER_WORKER).max(1)
        })
        .max(1);
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut submitted = 0usize;
    let mut lo = 0usize;
    let mut acc = 0usize;
    for i in 0..height {
        if excluded(i) {
            if lo < i {
                ranges.push((lo, i));
                submitted += i - lo;
            }
            lo = i + 1;
            acc = 0;
            continue;
        }
        acc += weight(i);
        if acc >= target || i + 1 == height {
            ranges.push((lo, i + 1));
            submitted += i + 1 - lo;
            lo = i + 1;
            acc = 0;
        }
    }
    if target_override.is_none() {
        let want = workers.min(submitted);
        while ranges.len() < want {
            let Some(idx) = ranges
                .iter()
                .enumerate()
                .filter(|(_, (lo, hi))| hi - lo >= 2)
                .max_by_key(|(_, (lo, hi))| hi - lo)
                .map(|(idx, _)| idx)
            else {
                break;
            };
            let (lo, hi) = ranges.remove(idx);
            let mid = lo + (hi - lo) / 2;
            ranges.insert(idx, (mid, hi));
            ranges.insert(idx, (lo, mid));
        }
    }
    ranges
}

fn spawn_worker(shared: &Arc<Shared>, worker: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || worker_loop(&shared, worker))
}

/// The supervisor: ticks until shutdown, replacing dead worker threads
/// and recovering the chunks they held. Workers only exit voluntarily
/// once `shutdown` is set, so any finished handle seen here is a
/// casualty.
fn supervisor_loop(shared: &Arc<Shared>) {
    loop {
        {
            let bell = lock(&shared.sup_bell);
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let _unused = shared
                .sup_ready
                .wait_timeout(bell, SUPERVISION_TICK)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        supervise(shared);
    }
}

fn supervise(shared: &Arc<Shared>) {
    let mut handles = lock(&shared.handles);
    for worker in 0..handles.len() {
        if !handles[worker].is_finished() {
            continue;
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Take the orphan before the replacement starts so the new thread
        // can never race us for the slot.
        let orphan = lock(&shared.shards[worker].running).take();
        let replacement = spawn_worker(shared, worker);
        let dead = std::mem::replace(&mut handles[worker], replacement);
        let _ = dead.join();
        shared.obs.metrics.respawns.inc();
        shared.obs.record(TraceKind::Respawn {
            worker: worker as u32,
        });
        let Some(chunk) = orphan else {
            continue;
        };
        chunk.job.respawns.fetch_add(1, Ordering::Relaxed);
        recover_orphan(shared, worker, chunk);
    }
}

/// Re-enqueues, fails, or writes off the chunk recovered from a dead
/// worker's checkout slot — at job granularity: an abandoned job's orphan
/// is written off against that job's stale count only.
fn recover_orphan(shared: &Arc<Shared>, worker: usize, mut chunk: Chunk) {
    let job = Arc::clone(&chunk.job);
    {
        let mut inner = lock(&job.inner);
        if inner.abandoned {
            let n = chunk.len();
            inner.stale = inner.stale.saturating_sub(n);
            drop(inner);
            for _ in 0..n {
                decrement(&shared.abandoned_rows);
            }
            return;
        }
    }
    chunk.attempts += 1;
    if chunk.attempts > shared.retry_limit {
        for i in chunk.lo..chunk.hi {
            shared.obs.record(TraceKind::RowFailed {
                ticket: chunk.ticket_of(i),
                attempts: chunk.attempts,
            });
        }
        let results = (chunk.lo..chunk.hi)
            .map(|i| RowResult {
                ticket: chunk.ticket_of(i),
                kernel: None,
                result: Err(SystolicError::RowFailed {
                    row: chunk.ticket_of(i),
                    attempts: chunk.attempts,
                    cause: "worker thread died while processing the row".into(),
                }),
            })
            .collect();
        shared.deliver(worker, &job, results);
    } else {
        shared.requeue(worker, chunk);
        shared.notify_work_all();
    }
}

/// A worker: pop chunks from its shard (job-fair, stealing the tail of
/// siblings' when its own runs dry) until shutdown, diffing each row
/// through the configured kernel on persistent per-worker scratch and
/// routing each finished chunk to its owning job.
///
/// Each chunk is parked in the shard's checkout slot before processing
/// (so the supervisor can recover it if this thread dies) and every row
/// runs under `catch_unwind` (so a panicking row costs its chunk one
/// retry, not the worker).
fn worker_loop(shared: &Arc<Shared>, worker: usize) {
    let mut scratch = KernelScratch::with_simd(shared.simd);
    let obs = &shared.obs;
    while let Some(chunk) = shared.next_chunk(worker) {
        *lock(&shared.shards[worker].running) = Some(chunk.clone());
        chunk.job.stamp_checkout();
        obs.record(TraceKind::Checkout {
            chunk: chunk.base,
            rows: chunk.len() as u32,
            worker: worker as u32,
            attempt: chunk.attempts,
        });
        let chunk_start = Instant::now();

        let mut out = shared.take_spare(&chunk.job);
        out.reserve(chunk.len());
        // Index and panic message of the row that crashed this chunk, if
        // any; rows before it are discarded and recomputed on retry so a
        // chunk's results are all-or-nothing (keeps stats totals exact).
        let mut crashed: Option<(usize, String)> = None;
        for i in chunk.lo..chunk.hi {
            let ticket = chunk.ticket_of(i);

            #[cfg(feature = "fault-injection")]
            let mut injected_panic = false;
            #[cfg(feature = "fault-injection")]
            if let Some(fault) = shared.faults.as_ref().and_then(|plan| plan.take(ticket)) {
                match fault {
                    Fault::Panic => injected_panic = true,
                    Fault::Stall(duration) => std::thread::sleep(duration),
                    // Exit with the chunk still parked in the checkout
                    // slot: the supervisor must notice the dead thread
                    // and recover the orphan. Injected death is
                    // cooperative, so the rows already diffed into `out`
                    // can be booked as discarded (a real crash can't do
                    // this; `rows_discarded` is a lower bound there).
                    Fault::Die => {
                        obs.metrics.rows_discarded.add(out.len() as u64);
                        return;
                    }
                    Fault::PoisonLock => {
                        let shared = Arc::clone(shared);
                        let _ = catch_unwind(AssertUnwindSafe(move || {
                            let _guard = lock(&shared.shards[worker].queue);
                            panic!("injected fault: poisoning a shard queue lock");
                        }));
                    }
                }
            }

            let (ra, rb) = chunk.row(i);
            let row_start = Instant::now();
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-injection")]
                if injected_panic {
                    panic!("injected fault: panic on row {ticket}");
                }
                kernel::diff_row(shared.kernel, &mut scratch, ra, rb)
            }));
            match attempt {
                // Kernel errors (e.g. a width mismatch) are per-row
                // outcomes; the rest of the chunk proceeds.
                Ok(result) => {
                    match &result {
                        Ok((_, stats, choice)) => {
                            let latency_ns = row_start.elapsed().as_nanos() as u64;
                            let runs = (stats.k1 + stats.k2) as u64;
                            obs.metrics.rows_diffed.inc();
                            obs.metrics.record_diff(*choice, latency_ns, runs);
                            obs.record(TraceKind::Kernel {
                                ticket,
                                worker: worker as u32,
                                choice: *choice,
                                runs,
                                latency_ns,
                            });
                        }
                        Err(_) => {
                            obs.metrics.rows_kernel_errors.inc();
                            obs.record(TraceKind::RowError { ticket });
                        }
                    }
                    out.push(RowResult {
                        ticket,
                        kernel: result.as_ref().ok().map(|(_, _, choice)| *choice),
                        result: result.map(|(row, stats, _)| (row, stats)),
                    });
                }
                Err(payload) => {
                    scratch.discard_poisoned();
                    crashed = Some((i, panic_message(payload)));
                    break;
                }
            }
        }

        match crashed {
            None => {
                *lock(&shared.shards[worker].running) = None;
                let latency_ns = chunk_start.elapsed().as_nanos() as u64;
                obs.metrics.chunks_completed.inc();
                obs.metrics.chunk_latency_ns.record(latency_ns);
                obs.record(TraceKind::ChunkDone {
                    chunk: chunk.base,
                    rows: out.len() as u32,
                    worker: worker as u32,
                    latency_ns,
                });
                shared.deliver(worker, &chunk.job, out);
            }
            Some((culprit, cause)) => {
                // The partial results are all-or-nothing casualties:
                // their rows were diffed (and counted) but will be
                // diffed again.
                obs.metrics.rows_discarded.add(out.len() as u64);
                shared.return_spare(out);
                *lock(&shared.shards[worker].running) = None;
                let mut chunk = chunk;
                chunk.attempts += 1;
                if chunk.attempts > shared.retry_limit {
                    // Only the culprit row fails; its siblings go back to
                    // the queue as sub-chunks that keep the attempt count.
                    let ticket = chunk.ticket_of(culprit);
                    obs.record(TraceKind::RowFailed {
                        ticket,
                        attempts: chunk.attempts,
                    });
                    let job = Arc::clone(&chunk.job);
                    shared.deliver(
                        worker,
                        &job,
                        vec![RowResult {
                            ticket,
                            kernel: None,
                            result: Err(SystolicError::RowFailed {
                                row: ticket,
                                attempts: chunk.attempts,
                                cause,
                            }),
                        }],
                    );
                    if culprit > chunk.lo {
                        shared.push_chunk(worker, chunk.slice(chunk.lo, culprit));
                    }
                    if culprit + 1 < chunk.hi {
                        shared.push_chunk(worker, chunk.slice(culprit + 1, chunk.hi));
                    }
                    shared.notify_work_all();
                } else {
                    shared.requeue(worker, chunk);
                    shared.notify_work_one();
                }
            }
        }
    }
}

/// Best-effort rendering of a caught panic payload, taking ownership so a
/// `String` payload moves out instead of being copied.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "worker panicked with a non-string payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::xor_image;

    /// Deterministic sparse image generator (LCG over gap/len pairs) so
    /// executor unit tests don't depend on the workload crate.
    fn gen_image(width: u32, height: usize, seed: u64) -> RleImage {
        let mut state = seed | 1;
        let mut rows = Vec::with_capacity(height);
        for _ in 0..height {
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            let mut x = 0u32;
            loop {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let gap = 1 + ((state >> 33) as u32 % 16);
                let len = 1 + ((state >> 51) as u32 % 6);
                if x + gap + len >= width {
                    break;
                }
                pairs.push((x + gap, len));
                x += gap + len;
            }
            rows.push(RleRow::from_pairs(width, &pairs).unwrap());
        }
        RleImage::from_rows(width, rows).unwrap()
    }

    #[test]
    fn concurrent_jobs_are_isolated_and_bit_identical() {
        let exec = Arc::new(DiffExecutorConfig::new(3).build());
        let threads: Vec<_> = (0..6u64)
            .map(|i| {
                let exec = Arc::clone(&exec);
                std::thread::spawn(move || {
                    let a = Arc::new(gen_image(128, 24 + i as usize, 0x5EED + i));
                    let b = Arc::new(gen_image(128, 24 + i as usize, 0xFEED + i));
                    let expected = a.xor(&b).unwrap();
                    let out = exec.diff_pair(&a, &b, None).unwrap();
                    assert_eq!(out.image, expected, "results routed to the wrong job");
                    assert_eq!(out.stats.rows, a.height());
                    out.job
                })
            })
            .collect();
        let mut ids: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6, "every submitter got its own job id");
        assert_eq!(exec.in_flight(), 0);
        assert_eq!(exec.abandoned(), 0);
    }

    #[test]
    fn job_ticket_ranges_are_contiguous_and_disjoint() {
        let exec = DiffExecutorConfig::new(2).build();
        let a = Arc::new(gen_image(64, 9, 1));
        let b = Arc::new(gen_image(64, 9, 2));
        let first = exec.diff_pair(&a, &b, None).unwrap();
        let second = exec.diff_pair(&a, &b, None).unwrap();
        assert_eq!(first.tickets.1 - first.tickets.0, 9);
        assert!(second.tickets.0 >= first.tickets.1);
        assert_eq!(exec.next_ticket(), second.tickets.1);
    }

    #[test]
    fn queue_wait_is_measured_per_job() {
        let exec = DiffExecutorConfig::new(2).build();
        let a = Arc::new(gen_image(64, 16, 3));
        let b = Arc::new(gen_image(64, 16, 4));
        let out = exec.diff_pair(&a, &b, None).unwrap();
        // A finished job must have checked out at least one chunk, and
        // its queue wait is bounded by its wall time.
        assert!(out.queue_wait <= out.stats.wall + Duration::from_millis(1));
    }

    #[test]
    fn plan_ranges_covers_and_splits() {
        let a = gen_image(256, 40, 7);
        let b = gen_image(256, 40, 8);
        let ranges = plan_ranges(&a, &b, None, None, 4);
        assert!(ranges.len() >= 4);
        let mut next = 0usize;
        for (lo, hi) in &ranges {
            assert_eq!(*lo, next, "ranges are contiguous and ordered");
            assert!(hi > lo);
            next = *hi;
        }
        assert_eq!(next, 40, "ranges cover every row");
        // An explicit target of 1 produces per-row ranges.
        assert_eq!(plan_ranges(&a, &b, None, Some(1), 4).len(), 40);
    }

    #[test]
    fn fairness_small_job_is_not_starved_by_a_big_one() {
        // One huge job saturates a 2-worker executor; a small job
        // submitted after it completes while the big one is in flight —
        // the round-robin rotation interleaves its chunks.
        let exec = Arc::new(DiffExecutorConfig::new(2).build());
        let big_a = Arc::new(gen_image(2048, 1200, 11));
        let big_b = Arc::new(gen_image(2048, 1200, 12));
        let small_a = Arc::new(gen_image(2048, 8, 13));
        let small_b = Arc::new(gen_image(2048, 8, 14));
        let big_handle = exec.submit_pair(&big_a, &big_b).unwrap();
        let small = exec.diff_pair(&small_a, &small_b, None).unwrap();
        assert_eq!(small.image, small_a.xor(&small_b).unwrap());
        let mut big_ok = 0usize;
        while let Ok(Some(o)) = big_handle.collect_next(None) {
            assert!(o.result.is_ok(), "big job rows must all succeed");
            big_ok += 1;
        }
        assert_eq!(big_ok, 1200);
        assert_eq!(exec.in_flight(), 0);
    }

    #[test]
    fn abandon_is_job_local() {
        let exec = DiffExecutorConfig::new(2).build();
        let a = Arc::new(gen_image(128, 32, 21));
        let b = Arc::new(gen_image(128, 32, 22));
        let doomed = exec.submit_pair(&a, &b).unwrap();
        doomed.abandon();
        // A subsequent job on the same executor is unaffected.
        let out = exec.diff_pair(&a, &b, None).unwrap();
        assert_eq!(out.image, a.xor(&b).unwrap());
        assert_eq!(exec.in_flight(), 0);
    }

    fn img(art: &str) -> RleImage {
        RleImage::from_ascii(art)
    }

    #[test]
    fn batch_matches_sequential_reference() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        let (seq, seq_stats) = xor_image(&a, &b).unwrap();

        // The systolic kernel reproduces the reference machine's stats
        // exactly — same per-row iteration counts, same totals.
        let mut exact = DiffExecutorConfig::new(3).kernel(Kernel::Systolic).build();
        let (got, stats) = exact.diff_images(&a, &b).unwrap();
        assert_eq!(got, seq);
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.totals.iterations, seq_stats.totals.iterations);
        assert_eq!(stats.max_row_iterations, seq_stats.max_row_iterations);
        assert_eq!(stats.rows_systolic_kernel, 4);
        assert_eq!(stats.workers, 3);
        assert!(stats.effective_workers >= 1 && stats.effective_workers <= 3);
        // A healthy run needs no supervisor interventions.
        assert_eq!((stats.retries, stats.respawns, stats.timeouts), (0, 0, 0));
        assert_eq!(exact.counters(), SupervisionCounters::default());

        // The default hybrid kernel is bit-identical with cheaper stats.
        let mut pipeline = DiffExecutorConfig::new(3).build();
        let (hybrid, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(hybrid, seq);
        assert_eq!(stats.rows, 4);
        assert_eq!(
            stats.rows_fast_path
                + stats.rows_rle_kernel
                + stats.rows_packed_kernel
                + stats.rows_systolic_kernel,
            4,
            "every row's kernel choice is recorded"
        );
        assert!(stats.totals.within_theorem1());
        assert!(stats.chunks >= 1);
    }

    #[test]
    fn owned_and_shared_batches_agree() {
        let a = Arc::new(img("####....\n..##..##\n........\n#.#.#.#.\n"));
        let b = Arc::new(img("####....\n..##..#.\n...##...\n.#.#.#.#\n"));
        let mut pipeline = DiffExecutorConfig::new(2).build();
        let (owned, _) = pipeline.diff_images(&a, &b).unwrap();
        let (shared, stats) = pipeline.diff_images_shared(&a, &b).unwrap();
        assert_eq!(owned, shared);
        assert_eq!(stats.rows, 4);
    }

    #[test]
    fn forced_kernels_are_bit_identical() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        let (seq, _) = xor_image(&a, &b).unwrap();
        for kernel in [Kernel::Rle, Kernel::Packed] {
            let mut pipeline = DiffExecutorConfig::new(2).kernel(kernel).build();
            let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
            assert_eq!(got, seq, "{kernel:?}");
            match kernel {
                Kernel::Rle => assert_eq!(stats.rows_rle_kernel, 4),
                Kernel::Packed => assert_eq!(stats.rows_packed_kernel, 4),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn forced_simd_levels_are_bit_identical() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        let (seq, _) = xor_image(&a, &b).unwrap();
        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
            let mut pipeline = DiffExecutorConfig::new(2)
                .kernel(Kernel::Packed)
                .simd(level)
                .build();
            // An unsupported request clamps down instead of failing.
            assert!(pipeline.simd_level() <= SimdLevel::detect());
            let (got, _) = pipeline.diff_images(&a, &b).unwrap();
            assert_eq!(got, seq, "{level}");
        }
    }

    #[test]
    fn chunk_target_controls_scheduling_granularity() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        // A huge target packs the whole image into one chunk...
        let mut coarse = DiffExecutorConfig::new(2).chunk_target(1_000_000).build();
        let (_, stats) = coarse.diff_images(&a, &b).unwrap();
        assert_eq!(stats.chunks, 1);
        // ...a target of one run forces per-row chunks.
        let mut fine = DiffExecutorConfig::new(2).chunk_target(1).build();
        let (_, stats) = fine.diff_images(&a, &b).unwrap();
        assert_eq!(stats.chunks, 4);
    }

    #[test]
    fn derived_chunk_plan_feeds_every_worker() {
        // One pathologically heavy row used to swallow the whole derived
        // weight target, leaving fewer chunks than workers and most of the
        // pool idle; the plan must split until every worker can get a
        // chunk.
        let width = 4096u32;
        let heavy: Vec<(u32, u32)> = (0..512).map(|i| (i * 8, 3)).collect();
        let mut rows = vec![RleRow::from_pairs(width, &heavy).unwrap()];
        for _ in 0..7 {
            rows.push(RleRow::new(width));
        }
        let a = RleImage::from_rows(width, rows).unwrap();
        let b = RleImage::new(width, 8);
        let mut pipeline = DiffExecutorConfig::new(4).build();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);
        assert!(
            stats.chunks >= 4,
            "derived plan must feed all 4 workers: {stats:?}"
        );
        // An image shorter than the pool caps at one chunk per row.
        let a = img("####....\n..##..##\n");
        let b = img("####....\n..##..#.\n");
        let (_, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(stats.chunks, 2);
    }

    #[test]
    fn result_buffers_are_recycled_across_batches() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        let mut pipeline = DiffExecutorConfig::new(1).chunk_target(1).build();
        let (_, _first) = pipeline.diff_images(&a, &b).unwrap();
        let (_, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert!(
            stats.buffers_reused > 0,
            "second batch must hit the recycling pool: {stats:?}"
        );
    }

    #[test]
    fn pool_is_reused_across_calls() {
        let a = img("##..##..\n.######.\n");
        let b = img("##.###..\n.#....#.\n");
        let mut pipeline = DiffExecutorConfig::new(2).build();
        let (first, _) = pipeline.diff_images(&a, &b).unwrap();
        let (second, _) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(first, second);
        let (identity, stats) = pipeline.diff_images(&a, &a.clone()).unwrap();
        assert_eq!(identity.ones(), 0);
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.rows_fast_path, 2, "equal rows take the fast path");
    }

    /// A one-row image holding `row`: how a single row pair enters the
    /// executor, as a job of its own.
    fn row_image(row: &RleRow) -> Arc<RleImage> {
        Arc::new(RleImage::from_rows(row.width(), vec![row.clone()]).unwrap())
    }

    #[test]
    fn streaming_submit_collect_round_trip() {
        // Rows arriving one at a time go in as one-row jobs; the tickets
        // place the results, which complete out of order.
        let a = img("####....\n..##..##\n#.#.#.#.\n");
        let b = img("###.....\n..##..#.\n.#.#.#.#\n");
        let pipeline = DiffExecutorConfig::new(2).build();
        let handles: Vec<JobHandle> = a
            .rows()
            .iter()
            .zip(b.rows())
            .map(|(ra, rb)| {
                pipeline
                    .submit_pair(&row_image(ra), &row_image(rb))
                    .unwrap()
            })
            .collect();
        let tickets: Vec<Ticket> = handles.iter().map(|h| Ticket(h.tickets().0)).collect();
        assert_eq!(pipeline.in_flight(), 3);

        let mut rows: Vec<Option<RleRow>> = vec![None; 3];
        for handle in &handles {
            while let Some(done) = handle.collect_next(None).unwrap() {
                let slot = tickets.iter().position(|t| *t == done.ticket).unwrap();
                rows[slot] = Some(done.result.unwrap().0);
            }
        }
        assert_eq!(pipeline.in_flight(), 0);
        let (expected, _) = xor_image(&a, &b).unwrap();
        for (slot, row) in rows.into_iter().enumerate() {
            assert_eq!(row.unwrap(), expected.rows()[slot]);
        }
    }

    #[test]
    fn row_error_is_reported_and_pipeline_survives() {
        // A row pair of unequal width is refused with a typed error before
        // anything is submitted, and the pool keeps working.
        let pipeline = DiffExecutorConfig::new(2).build();
        let good = row_image(&RleRow::from_pairs(16, &[(0, 4)]).unwrap());
        let bad = row_image(&RleRow::new(8)); // width mismatch against `good`
        let err = pipeline.submit_pair(&good, &bad).err().expect("refused");
        assert!(
            matches!(err, SystolicError::WidthMismatch { .. }),
            "{err:?}"
        );
        assert!(pipeline.diff_pair(&good, &bad, None).is_err());
        let s = pipeline.observer().metrics_snapshot();
        assert_eq!(s.rows_submitted, 0, "no kernel ran for the bad row");
        // The pool still works after the failure.
        let handle = pipeline.submit_pair(&good, &good).unwrap();
        let ok = handle.collect_next(None).unwrap().unwrap();
        assert!(ok.result.unwrap().0.is_empty());
    }

    #[test]
    fn dropping_an_uncollected_handle_abandons_its_rows() {
        // A handle dropped before its rows were collected must take them
        // out of the `in_flight` gauge, which admission control reads.
        let exec = DiffExecutorConfig::new(2).build();
        let a = Arc::new(gen_image(128, 64, 31));
        let b = Arc::new(gen_image(128, 64, 32));
        drop(exec.submit_pair(&a, &b).unwrap());
        assert_eq!(exec.in_flight(), 0, "the dropped job's rows left the gauge");
        let out = exec.diff_pair(&a, &b, None).unwrap();
        assert_eq!(out.image, a.xor(&b).unwrap());
        assert_eq!(exec.in_flight(), 0);
        // Once any stale rows are reaped, both ledgers close.
        let settled_by = Instant::now() + Duration::from_secs(10);
        while exec.abandoned() > 0 && Instant::now() < settled_by {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(exec.abandoned(), 0);
        let s = exec.observer().metrics_snapshot();
        assert_eq!(
            s.rows_submitted,
            s.rows_completed + s.rows_errored + s.rows_abandoned
        );
        assert_eq!(s.jobs_submitted, s.jobs_completed + s.jobs_abandoned);
    }

    #[test]
    fn empty_image_batch() {
        let a = RleImage::new(32, 0);
        let mut pipeline = DiffExecutorConfig::new(2).build();
        let (d, stats) = pipeline.diff_images(&a, &a.clone()).unwrap();
        assert_eq!(d.height(), 0);
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.chunks, 0);
        assert_eq!(stats.effective_workers, 0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut pipeline = DiffExecutorConfig::new(2).build();
        let a = RleImage::new(8, 2);
        assert!(pipeline.diff_images(&a, &RleImage::new(9, 2)).is_err());
        assert!(pipeline.diff_images(&a, &RleImage::new(8, 3)).is_err());
        // Failed dimension checks leave nothing in flight.
        assert_eq!(pipeline.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_workers_panics() {
        let _ = DiffExecutorConfig::new(0).build();
    }

    #[test]
    fn config_defaults_and_builders() {
        let config = DiffExecutorConfig::default();
        assert!(config.threads >= 1);
        assert_eq!(config.retry_limit, 2);
        assert!(config.row_deadline.is_none());
        assert_eq!(config.kernel, Kernel::Auto);
        assert_eq!(config.simd, None, "SIMD level is auto-detected");
        assert_eq!(config.chunk_target, None);
        assert_eq!(config.observe, None, "observability is opt-in");
        let config = DiffExecutorConfig::new(2)
            .retry_limit(5)
            .row_deadline(Duration::from_millis(250))
            .shutdown_grace(Duration::from_millis(100))
            .kernel(Kernel::Packed)
            .simd(SimdLevel::Scalar)
            .chunk_target(64);
        assert_eq!(config.threads, 2);
        assert_eq!(config.retry_limit, 5);
        assert_eq!(config.row_deadline, Some(Duration::from_millis(250)));
        assert_eq!(config.shutdown_grace, Duration::from_millis(100));
        assert_eq!(config.kernel, Kernel::Packed);
        assert_eq!(config.simd, Some(SimdLevel::Scalar));
        assert_eq!(config.chunk_target, Some(64));
        let pipeline = config.build();
        assert_eq!(pipeline.workers(), 2);
        assert_eq!(pipeline.simd_level(), SimdLevel::Scalar);
        assert_eq!(pipeline.abandoned(), 0);
    }

    #[test]
    fn observed_pipeline_records_a_consistent_snapshot() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        let mut unobserved = DiffExecutorConfig::new(2).build();
        unobserved.diff_images(&a, &b).unwrap();
        let off = unobserved.observer();
        assert!(
            off.trace_snapshot().is_empty() && off.metrics_snapshot().rows_completed == 4,
            "trace empty, registry counted"
        );

        let mut pipeline = DiffExecutorConfig::new(2).observe().build();
        let obs = pipeline.observer();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);

        let snapshot = obs.metrics_snapshot();
        assert_eq!(snapshot.batches, 1);
        assert_eq!(snapshot.rows_submitted, 4);
        assert_eq!(snapshot.rows_completed, 4);
        assert_eq!(snapshot.rows_diffed, 4, "no faults: one diff per row");
        assert_eq!(snapshot.kernel_rows(), 4);
        assert_eq!(snapshot.rows_fast_path, stats.rows_fast_path as u64);
        assert_eq!(snapshot.chunks_dispatched, stats.chunks as u64);
        assert_eq!(snapshot.chunks_completed, stats.chunks as u64);
        assert_eq!(snapshot.row_latency_ns.count, 4);
        assert_eq!(snapshot.row_runs.count, 4);
        assert_eq!((snapshot.queue_depth, snapshot.in_flight), (0, 0));
        // Trace carries the full causal story: 4 submits, a checkout and a
        // chunk-done per chunk, one kernel event per row.
        let events = obs.trace_snapshot();
        let count = |pred: fn(&TraceKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
        assert_eq!(count(|k| matches!(k, TraceKind::Submit { .. })), 4);
        assert_eq!(count(|k| matches!(k, TraceKind::Kernel { .. })), 4);
        assert_eq!(
            count(|k| matches!(k, TraceKind::Checkout { .. })),
            stats.chunks
        );
        assert_eq!(
            count(|k| matches!(k, TraceKind::ChunkDone { .. })),
            stats.chunks
        );
    }

    #[test]
    fn collect_timeout_on_healthy_pipeline_returns_rows() {
        let pipeline = DiffExecutorConfig::new(2).build();
        let row = row_image(&RleRow::from_pairs(16, &[(0, 4)]).unwrap());
        let handle = pipeline.submit_pair(&row, &row).unwrap();
        let got = handle
            .collect_next(Some(Instant::now() + Duration::from_secs(10)))
            .expect("healthy worker beats a generous deadline")
            .expect("one row in flight");
        assert!(got.result.unwrap().0.is_empty());
        // Nothing left in flight: a short deadline returns `None` at once.
        assert!(matches!(
            handle.collect_next(Some(Instant::now() + Duration::from_millis(10))),
            Ok(None),
        ));
    }

    #[test]
    fn drain_empties_the_pipeline() {
        let pipeline = DiffExecutorConfig::new(2).build();
        let row = row_image(&RleRow::from_pairs(16, &[(0, 4)]).unwrap());
        let handles: Vec<JobHandle> = (0..5)
            .map(|_| pipeline.submit_pair(&row, &row).unwrap())
            .collect();
        let mut outcomes = Vec::new();
        for handle in &handles {
            while let Some(done) = handle.collect_next(None).unwrap() {
                outcomes.push(done);
            }
        }
        assert_eq!(outcomes.len(), 5);
        assert_eq!(pipeline.in_flight(), 0);
        assert!(handles
            .iter()
            .all(|h| matches!(h.collect_next(None), Ok(None))));
    }

    #[test]
    fn batch_deadline_passes_when_workers_are_healthy() {
        let a = img("####....\n..##..##\n#.#.#.#.\n");
        let b = img("###.....\n..##..#.\n.#.#.#.#\n");
        let mut pipeline = DiffExecutorConfig::new(2)
            .row_deadline(Duration::from_secs(10))
            .build();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn per_call_budget_matches_reference_and_maps_tickets() {
        let a = Arc::new(img("####....\n..##..##\n#.#.#.#.\n"));
        let b = Arc::new(img("###.....\n..##..#.\n.#.#.#.#\n"));
        let pipeline = DiffExecutorConfig::new(2).build();
        assert_eq!(pipeline.next_ticket(), 0);
        let lo = pipeline.next_ticket();
        let got = pipeline
            .diff_pair(&a, &b, Some(Duration::from_secs(10)))
            .unwrap()
            .image;
        let hi = pipeline.next_ticket();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);
        // One ticket per row, allocated contiguously for the batch.
        assert_eq!(hi - lo, a.height() as u64);
        // Different budgets per call on the same pool, no rebuild.
        let again = pipeline
            .diff_pair(&a, &b, Some(Duration::from_secs(1)))
            .unwrap()
            .image;
        assert_eq!(again, got);
        assert_eq!(pipeline.next_ticket(), hi + a.height() as u64);
    }

    #[test]
    fn signature_prefilter_skips_matching_rows() {
        // Rows 0 and 2 are identical between the images; rows 1 and 3
        // differ. With the prefilter on, the identical rows resolve
        // host-side and the rest still go through kernels — bit-identical
        // either way.
        let a = img("####....\n..##..##\n.#.#.#.#\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n.#.#.#.#\n.#.#.#.#\n");
        let (seq, _) = xor_image(&a, &b).unwrap();
        // Each front end gets a fresh executor: this test exercises the
        // skip mechanics, not the adaptive bypass (see
        // `adaptive_prefilter_bypasses_and_rearms`), and a fresh
        // executor's first job always runs the prefilter, whereas this
        // pair's 0.5 skip rate would bypass the next job.
        let prefiltered = || DiffExecutorConfig::new(2).signature_prefilter().build();
        let (got, stats) = prefiltered().diff_images(&a, &b).unwrap();
        assert_eq!(got, seq);
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.rows_sig_skipped, 2);
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Active);
        assert_eq!(stats.sig_collisions, 0);
        let kernel_rows = stats.rows_fast_path
            + stats.rows_rle_kernel
            + stats.rows_packed_kernel
            + stats.rows_systolic_kernel;
        assert_eq!(kernel_rows, 2, "only the changed rows reach a kernel");
        // Skipped rows still contribute their input sizes to the totals.
        assert_eq!(stats.totals.k1, a.total_runs());
        assert_eq!(stats.totals.k2, b.total_runs());

        // The shared front-end agrees.
        let (a, b) = (Arc::new(a), Arc::new(b));
        let (shared, shared_stats) = prefiltered().diff_images_shared(&a, &b).unwrap();
        assert_eq!(shared, seq);
        assert_eq!(shared_stats.rows_sig_skipped, 2);

        // So does `diff_pair`: the prefilter is a stage of every job.
        let job = prefiltered().diff_pair(&a, &b, None).unwrap();
        assert_eq!(job.image, seq);
        assert_eq!(job.stats.rows_sig_skipped, 2);
    }

    #[test]
    fn adaptive_prefilter_bypasses_and_rearms() {
        // Two image pairs: `hot` churns every row (skip rate 0), `cold`
        // changes nothing (skip rate 1). Under the default threshold the
        // prefilter must run the first batch, stand aside after observing
        // the churn, keep measuring while bypassed, and re-arm one batch
        // after the sequence calms down — bit-identical output throughout.
        let base = img("####....\n..##..##\n.#.#.#.#\n#.#.#.#.\n");
        let hot = img("...####.\n##..##..\n#.#.#.#.\n.#.#.#.#\n");
        let mut pipeline = DiffExecutorConfig::new(2).signature_prefilter().build();

        // Batch 1: no history yet, so the prefilter runs (and finds
        // nothing to skip — every row differs).
        let (hot_seq, _) = xor_image(&base, &hot).unwrap();
        let (got, stats) = pipeline.diff_images(&base, &hot).unwrap();
        assert_eq!(got, hot_seq);
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Active);
        assert_eq!(stats.rows_sig_skipped, 0);

        // Batch 2: the observed rate (0.0) is below the threshold, so the
        // prefilter bypasses — even though this batch is all-identical and
        // would have skipped every row. Output must still be exact.
        let (got, stats) = pipeline.diff_images(&base, &base).unwrap();
        assert!(got.rows().iter().all(RleRow::is_empty));
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Bypassed);
        assert_eq!(stats.rows_sig_skipped, 0, "bypassed batches skip nothing");
        let kernel_rows = stats.rows_fast_path
            + stats.rows_rle_kernel
            + stats.rows_packed_kernel
            + stats.rows_systolic_kernel;
        assert_eq!(
            kernel_rows, 4,
            "every row reaches the kernels while bypassed"
        );

        // Batch 3: the bypassed batch still measured (rate 1.0), so the
        // prefilter re-arms and resolves every matching row host-side.
        let (got, stats) = pipeline.diff_images(&base, &base).unwrap();
        assert!(got.rows().iter().all(RleRow::is_empty));
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Active);
        assert_eq!(stats.rows_sig_skipped, 4);

        // And back: a hot batch under an active prefilter records its own
        // low rate, dropping the *next* batch into bypass again.
        let (got, stats) = pipeline.diff_images(&base, &hot).unwrap();
        assert_eq!(got, hot_seq);
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Active);
        let (_, stats) = pipeline.diff_images(&base, &hot).unwrap();
        assert_eq!(stats.sig_prefilter, SigPrefilterMode::Bypassed);
    }

    #[test]
    fn small_residuals_are_diffed_inline_without_dispatch() {
        // 40 rows, 3 changed: far under INLINE_RESIDUAL_ROWS, so the batch
        // plans zero chunks, diffs the leftovers host-side, and the inline
        // ledger (not the worker ledger) carries them.
        let width = 256u32;
        let rows: Vec<RleRow> = (0..40)
            .map(|y: u32| RleRow::from_pairs(width, &[(y % 32, 5)]).unwrap())
            .collect();
        let a = RleImage::from_rows(width, rows.clone()).unwrap();
        let mut rows_b = rows;
        for y in [3usize, 17, 38] {
            rows_b[y] = RleRow::from_pairs(width, &[(y as u32 % 32 + 64, 5)]).unwrap();
        }
        let b = RleImage::from_rows(width, rows_b).unwrap();
        let (seq, _) = xor_image(&a, &b).unwrap();
        let mut pipeline = DiffExecutorConfig::new(2).signature_prefilter().build();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, seq);
        assert_eq!(stats.rows, 40);
        assert_eq!(stats.rows_sig_skipped, 37);
        assert_eq!(stats.chunks, 0, "small residuals must not dispatch");
        let kernel_rows = stats.rows_fast_path
            + stats.rows_rle_kernel
            + stats.rows_packed_kernel
            + stats.rows_systolic_kernel;
        assert_eq!(kernel_rows, 3, "inline rows keep their kernel accounting");
        let s = pipeline.observer().metrics_snapshot();
        assert_eq!(s.rows_inline_diffed, 3);
        assert_eq!(s.rows_submitted, 0, "nothing entered the pool");
        assert_eq!(s.rows_diffed, 0, "no worker ran");
        assert_eq!(s.row_latency_ns.count, 3);
        assert_eq!(s.row_runs.count, 3);
        assert_eq!(s.kernel_rows(), 3);

        // A residual above the cap still goes through the pool.
        let mut rows_c = a.rows().to_vec();
        for (y, row) in rows_c.iter_mut().enumerate().take(INLINE_RESIDUAL_ROWS + 4) {
            *row = RleRow::from_pairs(width, &[(y as u32 + 100, 7)]).unwrap();
        }
        let c = RleImage::from_rows(width, rows_c).unwrap();
        let (seq_ac, _) = xor_image(&a, &c).unwrap();
        let (got_ac, stats_ac) = pipeline.diff_images(&a, &c).unwrap();
        assert_eq!(got_ac, seq_ac);
        assert!(stats_ac.chunks > 0, "large residuals still dispatch");
        let s2 = pipeline.observer().metrics_snapshot();
        assert_eq!(s2.rows_inline_diffed, 3, "inline count unchanged");
        assert_eq!(
            s2.rows_diffed,
            (INLINE_RESIDUAL_ROWS + 4) as u64,
            "the second batch's residual ran on workers"
        );
    }

    #[test]
    fn signature_prefilter_handles_fully_identical_images() {
        let a = Arc::new(img("####....\n..##..##\n.#.#.#.#\n"));
        let b = Arc::new((*a).clone());
        let mut pipeline = DiffExecutorConfig::new(2)
            .signature_prefilter()
            .observe()
            .build();
        let (diff, stats) = pipeline.diff_images_shared(&a, &b).unwrap();
        assert!(diff.rows().iter().all(RleRow::is_empty));
        assert_eq!(diff.height(), 3);
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.rows_sig_skipped, 3);
        assert_eq!(stats.chunks, 0, "nothing left to plan");
        // Skipped rows never enter the submit/complete ledgers; the metric
        // and trace event carry them instead.
        let snapshot = pipeline.observer().metrics_snapshot();
        assert_eq!(snapshot.rows_submitted, 0);
        assert_eq!(snapshot.rows_completed, 0);
        assert_eq!(snapshot.rows_sig_skipped, 3);
        let events = pipeline.observer().trace_snapshot();
        let skips = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::SigSkip { .. }))
            .count();
        assert_eq!(skips, 3);
        // The pipeline is idle and immediately reusable.
        assert_eq!(pipeline.in_flight(), 0);
        let (again, _) = pipeline.diff_images_shared(&a, &b).unwrap();
        assert_eq!(again, diff);
    }

    #[test]
    fn signature_prefilter_respects_non_canonical_encodings() {
        // The same bitstring encoded canonically on one side and as split
        // adjacent runs on the other: signatures match (canonical-view
        // hashing), so the row is skipped — and that is *correct*, because
        // the XOR of equal content is empty however it is encoded.
        let wide = 64u32;
        let canonical = RleRow::from_pairs(wide, &[(3, 6)]).unwrap();
        let split = RleRow::from_pairs(wide, &[(3, 4), (7, 2)]).unwrap();
        let changed_a = RleRow::from_pairs(wide, &[(0, 2)]).unwrap();
        let changed_b = RleRow::from_pairs(wide, &[(1, 2)]).unwrap();
        let a = RleImage::from_rows(wide, vec![canonical, changed_a]).unwrap();
        let b = RleImage::from_rows(wide, vec![split, changed_b]).unwrap();
        let (seq, _) = xor_image(&a, &b).unwrap();
        let mut pipeline = DiffExecutorConfig::new(2).signature_prefilter().build();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, seq);
        assert_eq!(stats.rows_sig_skipped, 1);
    }

    #[test]
    fn verify_signatures_confirms_clean_skips() {
        let a = img("####....\n..##..##\n.#.#.#.#\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n.#.#.#.#\n.#.#.#.#\n");
        let mut pipeline = DiffExecutorConfig::new(2)
            .signature_prefilter()
            .verify_signatures()
            .build();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, xor_image(&a, &b).unwrap().0);
        assert_eq!(stats.rows_sig_skipped, 2);
        assert_eq!(stats.sig_verified, 1, "first skip of the batch sampled");
        assert_eq!(stats.sig_collisions, 0);
    }

    #[test]
    fn systolic_kernel_bypasses_the_prefilter() {
        // Kernel::Systolic promises cycle-exact per-row statistics against
        // the reference machine; the prefilter must stand aside.
        let a = img("####....\n..##..##\n");
        let b = img("####....\n..##..#.\n");
        let (seq, seq_stats) = xor_image(&a, &b).unwrap();
        let mut pipeline = DiffExecutorConfig::new(2)
            .kernel(Kernel::Systolic)
            .signature_prefilter()
            .build();
        let (got, stats) = pipeline.diff_images(&a, &b).unwrap();
        assert_eq!(got, seq);
        assert_eq!(stats.rows_sig_skipped, 0);
        assert_eq!(stats.rows_systolic_kernel, 2);
        assert_eq!(stats.totals.iterations, seq_stats.totals.iterations);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_collision_is_caught_by_paranoid_mode() {
        // Force the prefilter to believe row 0's signatures match even
        // though the rows differ — a synthetic 64-bit collision. Without
        // verification the diff silently loses row 0's differences; with
        // it, the sampled cross-check substitutes the reference diff.
        let a = img("####....\n..##..##\n");
        let b = img("...####.\n..##..##\n");
        let (seq, _) = xor_image(&a, &b).unwrap();

        let mut unchecked = DiffExecutorConfig::new(2)
            .signature_prefilter()
            .fault_sig_collisions(vec![0])
            .build();
        let (wrong, stats) = unchecked.diff_images(&a, &b).unwrap();
        assert_ne!(wrong, seq, "the forced false skip drops row 0's diff");
        assert!(wrong.rows()[0].is_empty());
        assert_eq!(stats.rows_sig_skipped, 2);

        let mut paranoid = DiffExecutorConfig::new(2)
            .signature_prefilter()
            .verify_signatures()
            .fault_sig_collisions(vec![0])
            .build();
        let (got, stats) = paranoid.diff_images(&a, &b).unwrap();
        assert_eq!(got, seq, "verification restores exactness");
        assert_eq!(stats.sig_collisions, 1);
        assert_eq!(stats.rows_sig_skipped, 1, "row 1's genuine skip remains");
    }
}
