//! Server-side counters (`diffd_*`), kept separate from the pipeline's
//! `diffpipeline_*` registry: the pipeline counts rows and chunks, the
//! server counts connections, requests and the ways they fail. Built on
//! the same lock-light atomics (`core::obs::metrics`), rendered by the
//! same exposition writer ([`systolic_core::obs::metrics::render`]) so
//! `/metrics` is one concatenation.

use systolic_core::obs::metrics::{render, Counter, Format, Gauge, Log2Histogram, Metric};

/// Every metric the server maintains. All counters are monotonic; the one
/// gauge (`connections_open`) is inc/dec'd symmetrically around each
/// connection's lifetime.
///
/// Accounting identities (asserted by the chaos suite on a drained
/// server):
///
/// * `connections_accepted == connections_closed` once every connection
///   has ended (`connections_open == 0`);
/// * `requests == responses_ok + sheds + deadline_hits + mismatches +
///   row_failures + internal_errors + shutdown_rejects` — every parsed
///   `Diff` request gets exactly one typed response;
/// * `protocol_errors` and `idle_timeouts` count *connection* failures
///   before or between requests, so they are outside the request ledger.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections the accept loop handed to a session thread.
    pub connections_accepted: Counter,
    /// Sessions that ended (any reason).
    pub connections_closed: Counter,
    /// Sessions currently alive.
    pub connections_open: Gauge,
    /// `Diff` requests successfully parsed off the wire.
    pub requests: Counter,
    /// `DiffOk` responses sent.
    pub responses_ok: Counter,
    /// Requests (or whole connections) shed by admission control with a
    /// typed `Overloaded` response.
    pub sheds: Counter,
    /// Requests that hit their deadline and were answered
    /// `DeadlineExceeded`.
    pub deadline_hits: Counter,
    /// Requests rejected because the image dimensions disagreed.
    pub mismatches: Counter,
    /// Requests answered `RowFailed` (a row exhausted its retry budget).
    pub row_failures: Counter,
    /// Requests answered `Internal`.
    pub internal_errors: Counter,
    /// Requests refused because the server was draining.
    pub shutdown_rejects: Counter,
    /// Malformed frames / headers answered with a typed `Protocol` error
    /// and a close.
    pub protocol_errors: Counter,
    /// Connections closed for idling between frames or stalling
    /// mid-frame (slowloris defence).
    pub idle_timeouts: Counter,
    /// Payload bytes read off accepted connections.
    pub bytes_read: Counter,
    /// Frame bytes written to clients.
    pub bytes_written: Counter,
    /// Nanoseconds an admitted request's job waited between submission
    /// and its first chunk checkout on the shared executor. Splitting
    /// this out of the request latency separates "the server is
    /// queueing" from "the diff is slow" — the tail of this histogram is
    /// the executor's scheduling delay under concurrent load (what used
    /// to be the pipeline-mutex wait before sessions submitted as
    /// independent jobs).
    pub queue_wait_ns: Log2Histogram,
    /// Nanoseconds spent computing the diff (the request latency minus
    /// parse, admission and queue wait).
    pub compute_ns: Log2Histogram,
}

impl ServerMetrics {
    /// Prometheus text exposition (prefix `diffd_`), written by the
    /// pipeline's own writer so both concatenate into one `/metrics` body.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        self.expose(Format::Prometheus)
    }

    /// Flat JSON exposition, in the pipeline's JSON shape.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.expose(Format::Json)
    }

    fn expose(&self, format: Format) -> String {
        use Metric::{Counter as C, Gauge as G, Histogram as H};
        let queue_wait = self.queue_wait_ns.snapshot();
        let compute = self.compute_ns.snapshot();
        render(
            format,
            "diffd_",
            &[
                C("connections_accepted", self.connections_accepted.get()),
                C("connections_closed", self.connections_closed.get()),
                C("requests", self.requests.get()),
                C("responses_ok", self.responses_ok.get()),
                C("sheds", self.sheds.get()),
                C("deadline_hits", self.deadline_hits.get()),
                C("mismatches", self.mismatches.get()),
                C("row_failures", self.row_failures.get()),
                C("internal_errors", self.internal_errors.get()),
                C("shutdown_rejects", self.shutdown_rejects.get()),
                C("protocol_errors", self.protocol_errors.get()),
                C("idle_timeouts", self.idle_timeouts.get()),
                C("bytes_read", self.bytes_read.get()),
                C("bytes_written", self.bytes_written.get()),
                G("connections_open", self.connections_open.get()),
                H("queue_wait_ns", &queue_wait),
                H("compute_ns", &compute),
            ],
        )
    }

    /// The request ledger's right-hand side: every typed response class.
    /// Equals [`Self::requests`] on a drained server.
    #[must_use]
    pub fn responses_total(&self) -> u64 {
        self.responses_ok.get()
            + self.sheds.get()
            + self.deadline_hits.get()
            + self.mismatches.get()
            + self.row_failures.get()
            + self.internal_errors.get()
            + self.shutdown_rejects.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expositions_are_well_formed() {
        let m = ServerMetrics::default();
        m.requests.add(3);
        m.responses_ok.add(2);
        m.sheds.inc();
        m.connections_open.set(1);
        m.queue_wait_ns.record(1_500);
        m.queue_wait_ns.record(0);
        m.compute_ns.record(2_000_000);
        let prom = m.to_prometheus();
        assert!(prom.contains("diffd_requests_total 3"));
        assert!(prom.contains("diffd_sheds_total 1"));
        assert!(prom.contains("diffd_connections_open 1"));
        assert!(prom.contains("# TYPE diffd_queue_wait_ns histogram"));
        assert!(prom.contains("diffd_queue_wait_ns_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("diffd_queue_wait_ns_sum 1500"));
        assert!(prom.contains("diffd_compute_ns_count 1"));
        let json = m.to_json();
        assert!(json.contains("\"responses_ok\": 2"));
        assert!(json.contains("\"queue_wait_ns\": {\"count\": 2, \"sum\": 1500"));
        assert!(json.contains("\"compute_ns\": {\"count\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n}"));
        assert_eq!(m.responses_total(), 3);
    }
}
