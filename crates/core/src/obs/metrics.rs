//! Lock-light metrics primitives and the pipeline's registry.
//!
//! Everything here is built from `AtomicU64`/`AtomicI64` with relaxed
//! ordering: a recording site is one `fetch_add` (two for a histogram),
//! never a lock, so workers can update counters from the hot path without
//! serialising on each other. Reads ([`MetricsRegistry::snapshot`]) are
//! racy-by-design — each atomic is loaded independently — which is the
//! standard metrics trade-off; the invariant-audit suite therefore always
//! snapshots a *quiescent* pipeline (drained, no rows in flight), where
//! the accounting identities must hold exactly.

use crate::engine::kernel::KernelChoice;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, rows in flight).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value outright (used where the true value is known under a
    /// lock, so concurrent inc/dec drift cannot accumulate).
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`. Callers must pair every `add` with a matching [`Self::sub`]
    /// inside the same critical section that mutates the mirrored
    /// structure (the executor's run queue does this under its lock), so
    /// the gauge can drift neither negative nor away from the ledger.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (see [`Self::add`] for the pairing discipline).
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Buckets in a [`Log2Histogram`]: bucket 0 holds exact zeros, bucket `i`
/// (1 ≤ i ≤ 63) holds values in `[2^(i-1), 2^i)`, and bucket 64 holds the
/// top of the `u64` range — every value has exactly one bucket, so the
/// bucket sum always equals the count (an identity the audit suite
/// asserts).
pub const LOG2_BUCKETS: usize = 65;

/// A fixed-bucket base-2 histogram: one `fetch_add` on the bucket plus one
/// on each of count and sum per record — no allocation, no lock, no
/// dynamic bucket search beyond a `leading_zeros`.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; LOG2_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: [(); LOG2_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: 0 for 0, else `floor(log2(v)) + 1`.
#[must_use]
pub fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Log2Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[log2_bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state out.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one [`Log2Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`LOG2_BUCKETS`] for the edges).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Sum over the buckets — must equal [`Self::count`] on a quiescent
    /// registry (the audit suite's first identity).
    #[must_use]
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Inclusive upper edge of bucket `i` (`0`, then `2^i − 1`), rendered
    /// for the Prometheus `le` label.
    #[must_use]
    pub fn bucket_edge(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }
}

/// Every metric the diff executor maintains: its one counter store,
/// always on.
///
/// The counters form a closed ledger over row outcomes, which is what
/// makes the layer *testable* rather than merely emitted:
///
/// * `rows_diffed` — kernel executions that produced a diff (worker side;
///   counts **attempts that completed**, including ones later discarded by
///   a chunk crash);
/// * `rows_discarded` — completed row results thrown away because a later
///   row crashed their chunk (the chunk re-runs whole, so these rows are
///   diffed again);
/// * `rows_completed` / `rows_errored` — outcomes actually unpacked from
///   the result channel (collector side);
/// * `rows_inline_diffed` — kernel executions performed host-side by the
///   prefilter's inline-residual shortcut: real diffs through the same
///   kernels (so they count in the kernel mix and the row histograms) but
///   never submitted, so they appear in no queue/submit/complete ledger.
///
/// Quiescent identities (asserted by `tests/observability.rs`):
///
/// * `rows_fast_path + rows_rle_kernel + rows_packed_kernel +
///   rows_systolic_kernel == rows_diffed + rows_inline_diffed`
/// * `row_latency_ns.count == row_runs.count ==
///   rows_diffed + rows_inline_diffed`
/// * `rows_diffed == rows_completed + rows_discarded` (absent kernel
///   errors, which every job's dimension check rules out)
/// * `rows_submitted == rows_completed + rows_errored + rows_abandoned`
///   (every accepted row is either delivered, delivered-as-error, or
///   written off by a deadline abort — no row is silently lost)
/// * `chunk_latency_ns.count == chunks_completed`
/// * `retries`/`respawns`/`timeouts` equal the matching trace-event counts
///   when a trace ring is attached (`SupervisionCounters` is read from
///   these counters, so it agrees by construction).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Row pairs submitted to the pool by a job.
    pub rows_submitted: Counter,
    /// Row outcomes unpacked from the result channel with an `Ok` diff.
    pub rows_completed: Counter,
    /// Row outcomes unpacked from the result channel with an `Err`.
    pub rows_errored: Counter,
    /// Successful kernel executions (worker side, per attempt).
    pub rows_diffed: Counter,
    /// Kernel executions that returned a per-row error (worker side).
    pub rows_kernel_errors: Counter,
    /// Completed row results discarded because their chunk crashed.
    pub rows_discarded: Counter,
    /// Rows written off when a job was abandoned (a deadline abort or a
    /// handle dropped uncollected): queued rows dropped before any worker
    /// ran them, plus rows still checked out by a worker. The monotonic
    /// mirror of
    /// [`crate::DiffExecutor::abandoned`] (a level that drains back to 0
    /// as stale results arrive; this counter never decreases).
    pub rows_abandoned: Counter,
    /// Rows resolved host-side by the signature prefilter: matching row
    /// signatures short-circuited them to an empty diff before planning, so
    /// they appear in **no** other row ledger (not submitted, not diffed,
    /// not completed). Rows presented to prefiltered jobs total
    /// `rows_submitted + rows_sig_skipped + rows_inline_diffed`, plus any
    /// caught collisions.
    pub rows_sig_skipped: Counter,
    /// Rows the prefilter's inline-residual shortcut diffed host-side
    /// (small leftovers after a job's skips; never submitted to the
    /// pool). Counted in the kernel-mix counters and row histograms, but
    /// not in `rows_diffed` (worker side) or the submit/complete ledgers.
    pub rows_inline_diffed: Counter,
    /// Rows short-circuited by the trivial fast path.
    pub rows_fast_path: Counter,
    /// Rows diffed by the RLE merge kernel.
    pub rows_rle_kernel: Counter,
    /// Rows diffed by the packed word-XOR kernel.
    pub rows_packed_kernel: Counter,
    /// Rows diffed by the systolic simulation kernel.
    pub rows_systolic_kernel: Counter,
    /// Chunks handed to the scheduler queue by job planning (retries do
    /// not re-count).
    pub chunks_dispatched: Counter,
    /// Chunks a worker carried to completion and sent back.
    pub chunks_completed: Counter,
    /// Chunk re-enqueues after a panic or worker death (read back by
    /// `DiffExecutor::counters`).
    pub retries: Counter,
    /// Worker threads replaced after dying before shutdown (a dying
    /// worker's checkout slot spawns its replacement).
    pub respawns: Counter,
    /// Deadline expiries observed by collectors.
    pub timeouts: Counter,
    /// Jobs accepted by the executor: one per `diff_pair`, `submit_pair`
    /// or batch call (exposed a second time as `batches`). Quiescent
    /// identity: `jobs_submitted == jobs_completed + jobs_abandoned`.
    pub jobs_submitted: Counter,
    /// Jobs whose every row was delivered.
    pub jobs_completed: Counter,
    /// Jobs written off by `JobHandle::abandon` (or a dropped handle)
    /// before all rows were delivered.
    pub jobs_abandoned: Counter,
    /// Chunks currently sitting in the scheduler queues (the workers'
    /// emptiness check reads it).
    pub queue_depth: Gauge,
    /// Rows submitted but not yet handed back to the caller.
    pub in_flight: Gauge,
    /// Wall-clock nanoseconds per successful row diff (worker side).
    pub row_latency_ns: Log2Histogram,
    /// Wall-clock nanoseconds per completed chunk (worker side).
    pub chunk_latency_ns: Log2Histogram,
    /// `k1 + k2` input-run count per successfully diffed row.
    pub row_runs: Log2Histogram,
}

impl MetricsRegistry {
    /// Books one successful row diff: the kernel that ran it, its latency
    /// and its `k1 + k2` input runs.
    #[inline]
    pub(crate) fn record_diff(&self, choice: KernelChoice, latency_ns: u64, runs: u64) {
        match choice {
            KernelChoice::FastPath => self.rows_fast_path.inc(),
            KernelChoice::Rle => self.rows_rle_kernel.inc(),
            KernelChoice::Packed => self.rows_packed_kernel.inc(),
            KernelChoice::Systolic => self.rows_systolic_kernel.inc(),
        }
        self.row_latency_ns.record(latency_ns);
        self.row_runs.record(runs);
    }

    /// Copies every metric out. `trace_recorded`/`trace_dropped` are owned
    /// by the trace ring; [`crate::obs::Observer::metrics_snapshot`] fills
    /// them in.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let jobs_submitted = self.jobs_submitted.get();
        MetricsSnapshot {
            rows_submitted: self.rows_submitted.get(),
            rows_completed: self.rows_completed.get(),
            rows_errored: self.rows_errored.get(),
            rows_diffed: self.rows_diffed.get(),
            rows_kernel_errors: self.rows_kernel_errors.get(),
            rows_discarded: self.rows_discarded.get(),
            rows_abandoned: self.rows_abandoned.get(),
            rows_sig_skipped: self.rows_sig_skipped.get(),
            rows_inline_diffed: self.rows_inline_diffed.get(),
            rows_fast_path: self.rows_fast_path.get(),
            rows_rle_kernel: self.rows_rle_kernel.get(),
            rows_packed_kernel: self.rows_packed_kernel.get(),
            rows_systolic_kernel: self.rows_systolic_kernel.get(),
            chunks_dispatched: self.chunks_dispatched.get(),
            chunks_completed: self.chunks_completed.get(),
            retries: self.retries.get(),
            respawns: self.respawns.get(),
            timeouts: self.timeouts.get(),
            batches: jobs_submitted,
            jobs_submitted,
            jobs_completed: self.jobs_completed.get(),
            jobs_abandoned: self.jobs_abandoned.get(),
            queue_depth: self.queue_depth.get(),
            in_flight: self.in_flight.get(),
            row_latency_ns: self.row_latency_ns.snapshot(),
            chunk_latency_ns: self.chunk_latency_ns.snapshot(),
            row_runs: self.row_runs.snapshot(),
            trace_recorded: 0,
            trace_dropped: 0,
        }
    }
}

/// A point-in-time copy of the whole registry, with machine-readable
/// exposition in two formats: Prometheus text ([`Self::to_prometheus`])
/// and JSON ([`Self::to_json`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on MetricsRegistry
pub struct MetricsSnapshot {
    pub rows_submitted: u64,
    pub rows_completed: u64,
    pub rows_errored: u64,
    pub rows_diffed: u64,
    pub rows_kernel_errors: u64,
    pub rows_discarded: u64,
    pub rows_abandoned: u64,
    pub rows_sig_skipped: u64,
    pub rows_inline_diffed: u64,
    pub rows_fast_path: u64,
    pub rows_rle_kernel: u64,
    pub rows_packed_kernel: u64,
    pub rows_systolic_kernel: u64,
    pub chunks_dispatched: u64,
    pub chunks_completed: u64,
    pub retries: u64,
    pub respawns: u64,
    pub timeouts: u64,
    /// Always equal to `jobs_submitted` (the registry keeps no separate
    /// count); exposed under its own name for existing dashboards.
    pub batches: u64,
    pub jobs_submitted: u64,
    pub jobs_completed: u64,
    pub jobs_abandoned: u64,
    pub queue_depth: i64,
    pub in_flight: i64,
    pub row_latency_ns: HistogramSnapshot,
    pub chunk_latency_ns: HistogramSnapshot,
    pub row_runs: HistogramSnapshot,
    /// Trace events recorded since the observer was created.
    pub trace_recorded: u64,
    /// Trace events overwritten because the ring wrapped.
    pub trace_dropped: u64,
}

impl MetricsSnapshot {
    /// Sum of the four per-kernel row counters — must equal
    /// `rows_diffed + rows_inline_diffed` on a quiescent pipeline.
    #[must_use]
    pub fn kernel_rows(&self) -> u64 {
        self.rows_fast_path
            + self.rows_rle_kernel
            + self.rows_packed_kernel
            + self.rows_systolic_kernel
    }

    /// Prometheus text exposition (prefix `diffpipeline_`; see
    /// [`render`]).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        self.expose(Format::Prometheus)
    }

    /// JSON object exposition (see [`render`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.expose(Format::Json)
    }

    fn expose(&self, format: Format) -> String {
        use Metric::{Counter as C, Gauge as G, Histogram as H};
        // The trace ring's totals carry different names in the two formats.
        let (recorded, dropped) = match format {
            Format::Prometheus => ("trace_events", "trace_events_dropped"),
            Format::Json => ("trace_recorded", "trace_dropped"),
        };
        render(
            format,
            "diffpipeline_",
            &[
                C("rows_submitted", self.rows_submitted),
                C("rows_completed", self.rows_completed),
                C("rows_errored", self.rows_errored),
                C("rows_diffed", self.rows_diffed),
                C("rows_kernel_errors", self.rows_kernel_errors),
                C("rows_discarded", self.rows_discarded),
                C("rows_abandoned", self.rows_abandoned),
                C("rows_sig_skipped", self.rows_sig_skipped),
                C("rows_inline_diffed", self.rows_inline_diffed),
                C("rows_fast_path", self.rows_fast_path),
                C("rows_rle_kernel", self.rows_rle_kernel),
                C("rows_packed_kernel", self.rows_packed_kernel),
                C("rows_systolic_kernel", self.rows_systolic_kernel),
                C("chunks_dispatched", self.chunks_dispatched),
                C("chunks_completed", self.chunks_completed),
                C("retries", self.retries),
                C("respawns", self.respawns),
                C("timeouts", self.timeouts),
                C("batches", self.batches),
                C("jobs_submitted", self.jobs_submitted),
                C("jobs_completed", self.jobs_completed),
                C("jobs_abandoned", self.jobs_abandoned),
                C(recorded, self.trace_recorded),
                C(dropped, self.trace_dropped),
                G("queue_depth", self.queue_depth),
                G("in_flight", self.in_flight),
                H("row_latency_ns", &self.row_latency_ns),
                H("chunk_latency_ns", &self.chunk_latency_ns),
                H("row_runs", &self.row_runs),
            ],
        )
    }
}

/// One metric handed to [`render`]: its unprefixed name and its value.
#[derive(Clone, Copy, Debug)]
pub enum Metric<'a> {
    /// A monotonic count.
    Counter(&'a str, u64),
    /// An instantaneous level.
    Gauge(&'a str, i64),
    /// A [`Log2Histogram`] snapshot.
    Histogram(&'a str, &'a HistogramSnapshot),
}

/// The two text formats [`render`] writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Prometheus text exposition.
    Prometheus,
    /// One flat JSON object.
    Json,
}

/// The one exposition writer: renders `metrics` in order, for the
/// executor's registry and diffd's server counters alike, so both
/// concatenate into one `/metrics` body.
///
/// * [`Format::Prometheus`]: every name gets `prefix`, counters are
///   suffixed `_total`, and histograms take the standard
///   `_bucket`/`_sum`/`_count` shape with cumulative `le` labels. Empty
///   buckets are elided; the `+Inf` bucket carries the full count
///   regardless.
/// * [`Format::Json`]: unprefixed `"name": number` pairs plus one
///   `{"count", "sum", "buckets"}` object per histogram, hand-rolled (the
///   workspace carries no serde) and stable for CI parsers. Trailing zero
///   buckets are trimmed; absent entries are zero by construction.
#[must_use]
pub fn render(format: Format, prefix: &str, metrics: &[Metric<'_>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if format == Format::Json {
        out.push_str("{\n");
    }
    for (i, metric) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        let _ = match (format, *metric) {
            (Format::Prometheus, Metric::Counter(name, v)) => {
                writeln!(
                    out,
                    "# TYPE {prefix}{name} counter\n{prefix}{name}_total {v}"
                )
            }
            (Format::Prometheus, Metric::Gauge(name, v)) => {
                writeln!(out, "# TYPE {prefix}{name} gauge\n{prefix}{name} {v}")
            }
            (Format::Prometheus, Metric::Histogram(name, h)) => {
                let _ = writeln!(out, "# TYPE {prefix}{name} histogram");
                let mut cumulative = 0u64;
                for (b, n) in h.buckets.iter().enumerate() {
                    cumulative += n;
                    if *n > 0 {
                        let edge = HistogramSnapshot::bucket_edge(b);
                        let _ =
                            writeln!(out, "{prefix}{name}_bucket{{le=\"{edge}\"}} {cumulative}");
                    }
                }
                writeln!(
                    out,
                    "{prefix}{name}_bucket{{le=\"+Inf\"}} {count}\n{prefix}{name}_sum {}\n\
                     {prefix}{name}_count {count}",
                    h.sum,
                    count = h.count
                )
            }
            (Format::Json, Metric::Counter(name, v)) => writeln!(out, "  \"{name}\": {v}{sep}"),
            (Format::Json, Metric::Gauge(name, v)) => writeln!(out, "  \"{name}\": {v}{sep}"),
            (Format::Json, Metric::Histogram(name, h)) => {
                let last = h.buckets.iter().rposition(|n| *n > 0).map_or(0, |b| b + 1);
                let buckets: Vec<String> = h.buckets[..last].iter().map(u64::to_string).collect();
                writeln!(
                    out,
                    "  \"{name}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}{sep}",
                    h.count,
                    h.sum,
                    buckets.join(", ")
                )
            }
        };
    }
    if format == Format::Json {
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_partition_the_u64_range() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1023), 10);
        assert_eq!(log2_bucket(1024), 11);
        assert_eq!(log2_bucket(u64::MAX), 64);
        // Edges agree with the bucketing: edge(i) is the largest value in
        // bucket i.
        for i in 0..LOG2_BUCKETS {
            let edge = HistogramSnapshot::bucket_edge(i);
            assert_eq!(log2_bucket(edge), i, "edge of bucket {i}");
            if i < 64 {
                assert_eq!(log2_bucket(edge + 1), i + 1);
            }
        }
    }

    #[test]
    fn histogram_count_equals_bucket_total() {
        let h = Log2Histogram::default();
        for v in [0u64, 1, 1, 5, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.bucket_total(), 6);
        assert_eq!(
            s.sum,
            0u64.wrapping_add(1 + 1 + 5 + 1000).wrapping_add(u64::MAX)
        );
        assert_eq!(s.buckets[0], 1, "one zero");
        assert_eq!(s.buckets[1], 2, "two ones");
        assert_eq!(s.buckets[64], 1, "one max");
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(-1);
        assert_eq!(g.get(), -1);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::default();
        reg.rows_completed.add(3);
        reg.row_latency_ns.record(100);
        reg.row_latency_ns.record(5000);
        reg.queue_depth.set(2);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE diffpipeline_rows_completed counter"));
        assert!(text.contains("diffpipeline_rows_completed_total 3"));
        assert!(text.contains("diffpipeline_queue_depth 2"));
        assert!(text.contains("diffpipeline_row_latency_ns_count 2"));
        assert!(text.contains("diffpipeline_row_latency_ns_bucket{le=\"+Inf\"} 2"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("diffpipeline_row_latency_ns_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    #[test]
    fn json_exposition_shape() {
        let reg = MetricsRegistry::default();
        reg.rows_diffed.add(2);
        reg.row_runs.record(12);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"rows_diffed\": 2"));
        assert!(json.contains("\"row_runs\": {\"count\": 1"));
        // Balanced braces and no trailing comma before a closing brace.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n}"));
    }
}
