//! Loopback integration: a real `DiffServer` on 127.0.0.1, real sockets,
//! happy paths and every *typed* refusal the protocol promises — shed,
//! mismatch, connection cap, graceful drain.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use diffd::proto::{self, ErrorCode, FrameKind};
use diffd::{ClientError, DiffClient, DiffServer, DiffServerConfig, RetryPolicy};
use rle::RleImage;
use workload::{errors, ErrorModel, GenParams, RowGenerator};

/// Tight timeouts so the suite never dawdles; generous enough for CI.
fn test_config() -> DiffServerConfig {
    DiffServerConfig {
        threads: 2,
        idle_timeout: Duration::from_secs(5),
        frame_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(5),
        shutdown_grace: Duration::from_secs(5),
        ..DiffServerConfig::default()
    }
}

fn image_pair(width: u32, height: usize, seed: u64) -> (RleImage, RleImage) {
    let a = RowGenerator::new(GenParams::for_density(width, 0.3), seed).next_image(height);
    let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.05), seed ^ 0xD1FF);
    (a, b)
}

#[test]
fn diff_round_trip_matches_reference_and_maps_tickets() {
    let server = DiffServer::bind("127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    let (a, b) = image_pair(64, 32, 0x10);
    let expected = a.xor(&b).unwrap();

    let mut client = DiffClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reply = client.diff(&a, &b, 0).unwrap();
    assert_eq!(reply.image, expected, "network diff must equal local xor");
    // The connection-to-pipeline mapping: one contiguous ticket per row.
    assert_eq!(reply.ticket_hi - reply.ticket_lo, a.height() as u64);

    // A second request on the same connection reuses the pool and gets the
    // next ticket range.
    let again = client.diff(&a, &b, 0).unwrap();
    assert_eq!(again.image, expected);
    assert!(again.ticket_lo >= reply.ticket_hi);

    handle.shutdown();
    join.join().unwrap();
    assert_eq!(handle.pipeline_in_flight(), 0, "no leaked tickets");
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let server = DiffServer::bind("127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    let threads: Vec<_> = (0..6u64)
        .map(|i| {
            std::thread::spawn(move || {
                let (a, b) = image_pair(64, 16, 0x100 + i);
                let expected = a.xor(&b).unwrap();
                let mut client = DiffClient::connect(addr).unwrap();
                client
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                for _ in 0..4 {
                    let reply = client.diff(&a, &b, 0).unwrap();
                    assert_eq!(reply.image, expected);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let m = handle.server_metrics();
    assert_eq!(m.responses_ok.get(), 24, "6 clients x 4 requests");
    assert_eq!(m.requests.get(), m.responses_total());
    // The latency split: every admitted request records exactly one mutex
    // wait and (having reached the pipeline) one compute sample, so
    // queueing delay and diff time are separable after the fact.
    assert_eq!(m.queue_wait_ns.count(), 24);
    assert_eq!(m.compute_ns.count(), 24);
    assert!(m.compute_ns.snapshot().sum > 0, "diffs take nonzero time");

    handle.shutdown();
    join.join().unwrap();
    assert_eq!(handle.pipeline_in_flight(), 0);
}

#[test]
fn ping_and_binary_metrics_frames_work() {
    let server = DiffServer::bind("127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    let mut client = DiffClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    client.ping().unwrap();

    let text = client.metrics().unwrap();
    assert!(text.contains("diffpipeline_rows_completed_total"));
    assert!(text.contains("diffpipeline_rows_abandoned_total"));
    assert!(text.contains("diffd_requests_total"));
    assert!(text.contains("diffd_connections_open"));
    assert!(text.contains("diffd_queue_wait_ns_count"));
    assert!(text.contains("diffd_compute_ns_count"));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn http_metrics_endpoint_serves_text_json_and_404() {
    let server = DiffServer::bind("127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    let get = |path: &str| -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        let mut body = String::new();
        use std::io::Read as _;
        stream.read_to_string(&mut body).unwrap();
        body
    };

    let text = get("/metrics");
    assert!(text.starts_with("HTTP/1.0 200 OK"));
    assert!(text.contains("diffpipeline_rows_completed_total"));
    assert!(text.contains("diffd_connections_open"));

    let json = get("/metrics.json");
    assert!(json.starts_with("HTTP/1.0 200 OK"));
    assert!(json.contains("\"pipeline\""));
    assert!(json.contains("\"server\""));
    assert!(json.contains("\"rows_abandoned\""));

    let missing = get("/nope");
    assert!(missing.starts_with("HTTP/1.0 404"));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn zero_request_budget_sheds_with_typed_overloaded() {
    let cfg = DiffServerConfig {
        max_concurrent_requests: 0,
        ..test_config()
    };
    let server = DiffServer::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    let (a, b) = image_pair(32, 4, 0x20);
    let mut client = DiffClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match client.diff(&a, &b, 0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("wanted a typed Overloaded shed, got {other:?}"),
    }
    // The shed is per-request, not per-connection: the session survives.
    client.ping().unwrap();
    assert_eq!(handle.server_metrics().sheds.get(), 1);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn zero_row_budget_sheds_on_pipeline_pressure() {
    let cfg = DiffServerConfig {
        max_pending_rows: 0,
        ..test_config()
    };
    let server = DiffServer::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    let (a, b) = image_pair(32, 4, 0x21);
    let mut client = DiffClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match client.diff(&a, &b, 0) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Overloaded);
            assert!(
                message.contains("rows"),
                "row-pressure shed explains itself"
            );
        }
        other => panic!("wanted a typed Overloaded shed, got {other:?}"),
    }

    handle.shutdown();
    join.join().unwrap();
}

/// The retry contract end to end: a single-slot server is driven into
/// shed by a slow request on one connection, and a second client's
/// `diff_with_retry` must absorb at least one `Overloaded`, converge to
/// the correct answer once the slot frees, and report how many sheds it
/// rode out.
///
/// The blocker holds the slot through a planned stall on its first row
/// (ticket 0 of the fresh executor) rather than by being slow, so the
/// first retry attempt cannot outrun it; that needs the fault hooks.
#[cfg(feature = "fault-injection")]
#[test]
fn retrying_client_converges_after_a_shed() {
    let cfg = DiffServerConfig {
        max_concurrent_requests: 1,
        fault_plan: Some(systolic_core::FaultPlan::new().stall_on_row(0, Duration::from_secs(2))),
        ..test_config()
    };
    let server = DiffServer::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    // Occupy the single request slot with a diff whose first row stalls.
    let blocker = std::thread::spawn(move || {
        let (a, b) = image_pair(1_024, 16, 0x51);
        let expected = a.xor(&b).unwrap();
        let mut client = DiffClient::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reply = client.diff(&a, &b, 30_000).unwrap();
        assert_eq!(reply.image, expected);
    });
    // Wait until the blocker holds the slot: its job is submitted only
    // after it claimed the one admission slot, and the stall keeps the
    // job's rows in flight.
    let m = handle.server_metrics();
    let armed = std::time::Instant::now();
    while handle.pipeline_in_flight() == 0 && armed.elapsed() < Duration::from_secs(20) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(m.requests.get(), 1, "blocker never arrived");
    assert!(handle.pipeline_in_flight() > 0, "blocker never submitted");

    // The retrying client: its first attempt lands while the slot is
    // held (a guaranteed shed), then backoff-and-retry until the blocker
    // completes. Tiny backoff keeps the test fast; the budget is far
    // larger than the blocker could ever need.
    let (a, b) = image_pair(32, 4, 0x52);
    let expected = a.xor(&b).unwrap();
    let mut client = DiffClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let policy = RetryPolicy {
        retries: 20_000,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        jitter_seed: 0x7E57,
    };
    let (reply, sheds_absorbed) = client
        .diff_with_retry(&a, &b, 0, &policy)
        .expect("retry must converge once the slot frees");
    assert_eq!(reply.image, expected);
    assert!(
        sheds_absorbed >= 1,
        "the first attempt must have been shed ({sheds_absorbed} absorbed)"
    );
    assert!(
        m.sheds.get() >= u64::from(sheds_absorbed),
        "client-side sheds must be visible server-side"
    );

    blocker.join().unwrap();
    handle.shutdown();
    join.join().unwrap();
    assert_eq!(handle.pipeline_in_flight(), 0);
}

/// A zero-retry policy behaves exactly like `diff`: the shed surfaces.
#[test]
fn zero_retry_policy_surfaces_the_shed() {
    let cfg = DiffServerConfig {
        max_concurrent_requests: 0,
        ..test_config()
    };
    let server = DiffServer::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    let (a, b) = image_pair(32, 4, 0x53);
    let mut client = DiffClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match client.diff_with_retry(&a, &b, 0, &RetryPolicy::default()) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("wanted the shed surfaced unretried, got {other:?}"),
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn mismatched_dimensions_get_a_typed_mismatch() {
    let server = DiffServer::bind("127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    let (a, _) = image_pair(32, 4, 0x30);
    let (b, _) = image_pair(16, 4, 0x31);
    let mut client = DiffClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match client.diff(&a, &b, 0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Mismatch),
        other => panic!("wanted a typed Mismatch, got {other:?}"),
    }
    assert_eq!(handle.server_metrics().mismatches.get(), 1);
    // The pipeline never saw the batch: nothing in flight, nothing leaked.
    assert_eq!(handle.pipeline_in_flight(), 0);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn connection_cap_refuses_with_a_typed_error_frame() {
    let cfg = DiffServerConfig {
        max_connections: 1,
        ..test_config()
    };
    let server = DiffServer::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    // First session: fully established (the ping round trip proves the
    // session thread is alive and registered).
    let mut first = DiffClient::connect(addr).unwrap();
    first
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    first.ping().unwrap();

    // Second connection: refused before any request with Overloaded.
    let mut second = TcpStream::connect(addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let frame = proto::read_frame(&mut second, proto::DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .expect("a refusal frame, not silence");
    assert_eq!(frame.0, FrameKind::Error);
    let reply = proto::decode_error_reply(&frame.1).unwrap();
    assert_eq!(reply.code, ErrorCode::Overloaded);
    // ... and then a clean close.
    assert!(proto::read_frame(&mut second, proto::DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .is_none());

    // The first session is unaffected.
    first.ping().unwrap();

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn graceful_drain_flushes_open_sessions_and_reports() {
    let server = DiffServer::bind("127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    // An idle-but-open session at shutdown time.
    let mut client = DiffClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let (a, b) = image_pair(64, 8, 0x40);
    let reply = client.diff(&a, &b, 0).unwrap();
    assert_eq!(reply.image, a.xor(&b).unwrap());

    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.sessions_at_shutdown, 1);
    assert_eq!(
        report.sessions_drained, 1,
        "idle session closes in a poll slice"
    );
    assert_eq!(report.sessions_detached, 0);
    assert_eq!(handle.pipeline_in_flight(), 0);
    assert!(handle.is_shutting_down());

    // The response sent before shutdown was flushed; the session then
    // closed cleanly, so the client observes EOF rather than a reset.
    match client.ping() {
        Err(ClientError::Closed | ClientError::Io(_)) => {}
        other => panic!("session should be gone after drain, got {other:?}"),
    }
}
