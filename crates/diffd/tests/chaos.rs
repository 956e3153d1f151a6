//! Network chaos drills: connections killed mid-frame under concurrent
//! good traffic, stalled readers, worker panic storms, a stalled session
//! beside a live one, and wedged rows (`--features fault-injection`), and
//! graceful drain under load. After every storm the same acceptance bar
//! holds: no panic, no leaked in-flight tickets, the observability ledger
//! closes, and a polite client still gets a correct answer.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use diffd::proto::{self, FrameKind};
use diffd::{ClientError, DiffClient, DiffServer, DiffServerConfig};
use rle::RleImage;
use workload::{errors, ErrorModel, GenParams, RowGenerator};

fn chaos_config() -> DiffServerConfig {
    DiffServerConfig {
        threads: 2,
        idle_timeout: Duration::from_secs(5),
        frame_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(5),
        shutdown_grace: Duration::from_secs(10),
        ..DiffServerConfig::default()
    }
}

fn image_pair(width: u32, height: usize, seed: u64) -> (RleImage, RleImage) {
    let a = RowGenerator::new(GenParams::for_density(width, 0.3), seed).next_image(height);
    let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.05), seed ^ 0xC4A05);
    (a, b)
}

/// Asserts the pipeline's row ledger closes on the (quiescent) server.
fn assert_pipeline_ledger_closed(handle: &diffd::ServerHandle) {
    let s = handle.observer().metrics_snapshot();
    assert_eq!(
        s.rows_submitted,
        s.rows_completed + s.rows_errored + s.rows_abandoned,
        "every admitted row is delivered, errored, or written off"
    );
    assert_eq!(s.in_flight, 0, "gauge back to zero after the storm");
}

#[test]
fn mid_frame_kills_do_not_disturb_concurrent_good_traffic() {
    let server = DiffServer::bind("127.0.0.1:0", chaos_config()).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    // Good citizen: correctness-checked diffs the whole time.
    let good = std::thread::spawn(move || {
        let (a, b) = image_pair(64, 16, 0x60);
        let expected = a.xor(&b).unwrap();
        let mut client = DiffClient::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for _ in 0..10 {
            let reply = client.diff(&a, &b, 0).unwrap();
            assert_eq!(reply.image, expected, "good traffic must stay correct");
        }
    });

    // Chaos: connections that die at every stage of a frame.
    let (ca, cb) = image_pair(64, 16, 0x61);
    let full_frame = proto::encode_frame(
        FrameKind::Diff,
        &proto::encode_diff_request(&proto::DiffRequest {
            request_id: 1,
            deadline_ms: 0,
            a: ca,
            b: cb,
        }),
    );
    let cuts = [
        0,
        1,
        4,
        8,
        9,
        12,
        full_frame.len() / 2,
        full_frame.len() - 1,
    ];
    for round in 0..3 {
        for &cut in &cuts {
            let mut victim = TcpStream::connect(addr).unwrap();
            let _ = victim.write_all(&full_frame[..cut]);
            // Hard drop: RST or FIN mid-frame, the session must cope.
            drop(victim);
            let _ = round;
        }
    }

    good.join().unwrap();

    // The server survived and the books balance.
    let mut probe = DiffClient::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    probe.ping().unwrap();
    assert_eq!(handle.server_metrics().responses_ok.get(), 10);
    assert_eq!(handle.pipeline_in_flight(), 0, "no leaked tickets");
    assert_pipeline_ledger_closed(&handle);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn stalled_readers_are_closed_by_the_slowloris_timeouts() {
    let cfg = DiffServerConfig {
        idle_timeout: Duration::from_millis(80),
        frame_timeout: Duration::from_millis(120),
        ..chaos_config()
    };
    let server = DiffServer::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    // Stall A: connects and never sends a byte (idle timeout).
    let idle = TcpStream::connect(addr).unwrap();
    // Stall B: starts a frame and dribbles no more (frame timeout).
    let mut dribble = TcpStream::connect(addr).unwrap();
    dribble.write_all(b"DFD1").unwrap();

    // Both must be evicted without us doing anything further.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let m = handle.server_metrics();
        if m.idle_timeouts.get() >= 2 && m.connections_open.get() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slowloris sockets not evicted: {} timeouts, {} open",
            m.idle_timeouts.get(),
            m.connections_open.get()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(idle);
    drop(dribble);

    // The server still serves.
    let mut probe = DiffClient::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    probe.ping().unwrap();

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn graceful_drain_under_a_client_storm_keeps_the_books() {
    let server = DiffServer::bind("127.0.0.1:0", chaos_config()).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    // A storm of clients looping diffs until the server turns them away.
    let workers: Vec<_> = (0..4u64)
        .map(|i| {
            std::thread::spawn(move || {
                let (a, b) = image_pair(64, 16, 0x80 + i);
                let expected = a.xor(&b).unwrap();
                let mut oks = 0u64;
                let Ok(mut client) = DiffClient::connect(addr) else {
                    return oks;
                };
                let _ = client.set_read_timeout(Some(Duration::from_secs(10)));
                loop {
                    match client.diff(&a, &b, 0) {
                        Ok(reply) => {
                            assert_eq!(reply.image, expected);
                            oks += 1;
                        }
                        // Every refusal during drain is typed or a clean
                        // transport close — never a panic, never a corrupt
                        // frame.
                        Err(
                            ClientError::Server { .. } | ClientError::Closed | ClientError::Io(_),
                        ) => break,
                        Err(other) => panic!("storm client saw {other:?}"),
                    }
                }
                oks
            })
        })
        .collect();

    // Let the storm establish, then pull the plug mid-flight.
    std::thread::sleep(Duration::from_millis(150));
    handle.shutdown();
    let report = join.join().unwrap();
    let delivered: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();

    assert!(
        delivered > 0,
        "the storm got real work done before the drain"
    );
    assert_eq!(
        report.sessions_at_shutdown,
        report.sessions_drained + report.sessions_detached
    );
    assert_eq!(
        report.sessions_detached, 0,
        "every session ends in the grace window"
    );
    assert_eq!(handle.pipeline_in_flight(), 0, "drain leaks no tickets");
    assert_pipeline_ledger_closed(&handle);
    // Request ledger: exactly one typed response per parsed request.
    let m = handle.server_metrics();
    assert_eq!(m.requests.get(), m.responses_total());
    assert_eq!(m.connections_open.get(), 0);
}

#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use diffd::proto::ErrorCode;
    use systolic_core::FaultPlan;

    /// Silence the default panic hook for *injected* worker panics (they
    /// are caught by the pipeline supervisor; the hook would only spray
    /// backtraces over the output). Real panics keep default reporting.
    fn quiet_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("injected fault"))
                    || info
                        .payload()
                        .downcast_ref::<String>()
                        .is_some_and(|s| s.contains("injected fault"));
                if !injected {
                    default_hook(info);
                }
            }));
        });
    }

    #[test]
    fn worker_panic_storm_under_load_keeps_every_response_correct() {
        quiet_injected_panics();
        // Fresh pipeline: ticket n == row n. Panic the first attempt of a
        // spread of early tickets — they land across the first requests.
        let plan = FaultPlan::new()
            .panic_on_row(0)
            .panic_on_row(3)
            .panic_on_row(17)
            .panic_on_row(40)
            .panic_on_row(77);
        let cfg = DiffServerConfig {
            fault_plan: Some(plan),
            ..chaos_config()
        };
        let server = DiffServer::bind("127.0.0.1:0", cfg).unwrap();
        let addr = server.local_addr();
        let (handle, join) = server.spawn();

        let workers: Vec<_> = (0..3u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let (a, b) = image_pair(64, 16, 0x90 + i);
                    let expected = a.xor(&b).unwrap();
                    let mut client = DiffClient::connect(addr).unwrap();
                    client
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .unwrap();
                    for _ in 0..4 {
                        let reply = client.diff(&a, &b, 0).unwrap();
                        assert_eq!(
                            reply.image, expected,
                            "a retried row must reproduce the exact diff"
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }

        let s = handle.observer().metrics_snapshot();
        assert!(s.retries >= 1, "the storm actually fired");
        assert_eq!(handle.server_metrics().responses_ok.get(), 12);
        assert_eq!(handle.pipeline_in_flight(), 0);
        assert_pipeline_ledger_closed(&handle);

        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn a_stalled_session_does_not_hold_up_another() {
        // Ticket 0 (session A's first row) stalls for 2 s. Session B,
        // arriving while A is outstanding, must get its exact answer
        // without waiting for A: sessions share the executor, not a lock.
        let cfg = DiffServerConfig {
            fault_plan: Some(FaultPlan::new().stall_on_row(0, Duration::from_secs(2))),
            ..chaos_config()
        };
        let server = DiffServer::bind("127.0.0.1:0", cfg).unwrap();
        let addr = server.local_addr();
        let (handle, join) = server.spawn();

        let blocker = std::thread::spawn(move || {
            let (a, b) = image_pair(1_024, 16, 0xB0);
            let expected = a.xor(&b).unwrap();
            let mut client = DiffClient::connect(addr).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let reply = client.diff(&a, &b, 0).unwrap();
            assert_eq!(
                reply.image, expected,
                "the stalled session's answer is exact"
            );
        });
        // A's job is in flight once its rows are submitted; the stall
        // keeps them there.
        let armed = Instant::now();
        while handle.pipeline_in_flight() == 0 && armed.elapsed() < Duration::from_secs(20) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(handle.pipeline_in_flight() > 0, "session A never submitted");

        let (a, b) = image_pair(1_024, 16, 0xB1);
        let expected = a.xor(&b).unwrap();
        let mut client = DiffClient::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reply = client.diff(&a, &b, 0).unwrap();
        assert_eq!(reply.image, expected);
        assert!(
            !blocker.is_finished(),
            "session B was answered only after the stalled session A"
        );

        blocker.join().unwrap();
        assert_eq!(handle.server_metrics().responses_ok.get(), 2);
        assert_pipeline_ledger_closed(&handle);

        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn wedged_row_trips_the_request_deadline_then_heals() {
        quiet_injected_panics();
        // Ticket 0 (the very first row) stalls well past the request
        // deadline; the request must come back DeadlineExceeded and the
        // server must recover once the stall expires.
        let cfg = DiffServerConfig {
            fault_plan: Some(FaultPlan::new().stall_on_row(0, Duration::from_millis(400))),
            ..chaos_config()
        };
        let server = DiffServer::bind("127.0.0.1:0", cfg).unwrap();
        let addr = server.local_addr();
        let (handle, join) = server.spawn();

        let (a, b) = image_pair(64, 8, 0xA0);
        let expected = a.xor(&b).unwrap();
        let mut client = DiffClient::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        match client.diff(&a, &b, 60) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::DeadlineExceeded)
            }
            other => panic!("wanted DeadlineExceeded, got {other:?}"),
        }
        // The wedged row was written off behind the ticket watermark — the
        // connection is free even though a worker still holds the row.
        assert_eq!(
            handle.pipeline_in_flight(),
            0,
            "abandon frees the connection"
        );
        assert!(
            handle.pipeline_abandoned() >= 1,
            "the wedge is on the books"
        );
        let m = handle.server_metrics();
        assert_eq!(m.deadline_hits.get(), 1);
        let prom = handle.metrics_prometheus();
        assert!(prom.contains("diffd_deadline_hits_total 1"));
        assert!(prom.contains("diffpipeline_rows_abandoned_total"));

        // Past the stall the worker delivers its stale row; the next batch
        // absorbs and discards it, and everything reconciles.
        std::thread::sleep(Duration::from_millis(500));
        let reply = client.diff(&a, &b, 0).unwrap();
        assert_eq!(reply.image, expected, "healed server is bit-identical");
        assert_eq!(handle.pipeline_abandoned(), 0, "stale delivery absorbed");
        assert_eq!(handle.pipeline_in_flight(), 0);
        assert_pipeline_ledger_closed(&handle);

        handle.shutdown();
        join.join().unwrap();
    }
}
