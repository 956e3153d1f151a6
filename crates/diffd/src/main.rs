//! The `diffd` server binary.
//!
//! ```text
//! diffd [--addr HOST:PORT] [--threads N] [--max-pending-rows N]
//!       [--max-requests N] [--max-connections N] [--deadline-ms N]
//!       [--max-deadline-ms N] [--idle-timeout-ms N] [--frame-timeout-ms N]
//!       [--max-frame-len BYTES]
//! ```
//!
//! Shutdown: the process drains gracefully when stdin reaches EOF or a
//! line reading `shutdown` arrives (portable without signal-handler
//! dependencies — `echo shutdown | diffd`, or close the pipe). SIGINT /
//! SIGTERM keep their default process-killing behaviour.

use std::io::BufRead;
use std::time::Duration;

use diffd::{DiffServer, DiffServerConfig};

const USAGE: &str = "\
diffd - network front end for the compressed-domain diff pipeline

USAGE:
    diffd [OPTIONS]

OPTIONS:
    --addr HOST:PORT        listen address (default 127.0.0.1:7177)
    --threads N             pipeline worker threads (default: cores)
    --max-pending-rows N    admission ceiling on pipeline rows (default 65536)
    --max-requests N        concurrent admitted requests (default 64)
    --max-connections N     concurrent sessions (default 256)
    --deadline-ms N         default per-request budget (default 10000)
    --max-deadline-ms N     clamp on client-requested budgets (default 60000)
    --idle-timeout-ms N     close sessions idle this long (default 60000)
    --frame-timeout-ms N    a started frame must finish in this (default 10000)
    --max-frame-len BYTES   frame payload cap (default 16777216)
    --help                  print this help

SHUTDOWN:
    send a line reading 'shutdown' on stdin, or close stdin; the server
    stops accepting, flushes in-flight requests, then exits.
";

fn parse(args: &[String]) -> Result<(String, DiffServerConfig), String> {
    let mut addr = String::from("127.0.0.1:7177");
    let mut cfg = DiffServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--addr" => addr = value()?.clone(),
            "--threads" => cfg.threads = positive(flag, value()?)?,
            "--max-pending-rows" => cfg.max_pending_rows = positive(flag, value()?)?,
            "--max-requests" => cfg.max_concurrent_requests = positive(flag, value()?)?,
            "--max-connections" => cfg.max_connections = positive(flag, value()?)?,
            "--deadline-ms" => cfg.default_deadline = millis(flag, value()?)?,
            "--max-deadline-ms" => cfg.max_deadline = millis(flag, value()?)?,
            "--idle-timeout-ms" => cfg.idle_timeout = millis(flag, value()?)?,
            "--frame-timeout-ms" => cfg.frame_timeout = millis(flag, value()?)?,
            "--max-frame-len" => cfg.max_frame_len = positive(flag, value()?)?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok((addr, cfg))
}

/// A count, size or time that must be at least 1: at 0 none of these
/// flags leaves a server that can serve (no worker, every request shed,
/// every connection refused, every frame too large, every budget or read
/// window already spent).
fn positive<T: std::str::FromStr + Default + PartialEq>(flag: &str, s: &str) -> Result<T, String> {
    let n: T = s
        .parse()
        .map_err(|_| format!("{flag}: not a number: {s}"))?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

fn millis(flag: &str, s: &str) -> Result<Duration, String> {
    positive(flag, s).map(Duration::from_millis)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    let server = match DiffServer::bind(&addr, cfg.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "diffd listening on {} ({} pipeline workers, {} max sessions)",
        server.local_addr(),
        cfg.threads,
        cfg.max_connections
    );

    let handle = server.handle();
    let watcher = handle.clone();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(line) if line.trim() == "shutdown" => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        // EOF or the shutdown command: begin the drain.
        watcher.shutdown();
    });

    let report = server.run();
    println!(
        "diffd drained: {} sessions at shutdown, {} drained, {} detached",
        report.sessions_at_shutdown, report.sessions_drained, report.sessions_detached
    );
    let _ = handle;
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNT_FLAGS: [&str; 9] = [
        "--threads",
        "--max-pending-rows",
        "--max-requests",
        "--max-connections",
        "--max-frame-len",
        "--deadline-ms",
        "--max-deadline-ms",
        "--idle-timeout-ms",
        "--frame-timeout-ms",
    ];

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn every_count_size_and_time_flag_refuses_zero_and_names_itself() {
        for flag in COUNT_FLAGS {
            let err = parse(&args(&[flag, "0"])).expect_err(flag);
            assert_eq!(err, format!("{flag} must be at least 1"));
        }
    }

    #[test]
    fn every_count_size_and_time_flag_accepts_one() {
        for flag in COUNT_FLAGS {
            let (_, cfg) = parse(&args(&[flag, "1"])).expect(flag);
            let one = Duration::from_millis(1);
            let set = match flag {
                "--threads" => cfg.threads == 1,
                "--max-pending-rows" => cfg.max_pending_rows == 1,
                "--max-requests" => cfg.max_concurrent_requests == 1,
                "--max-connections" => cfg.max_connections == 1,
                "--max-frame-len" => cfg.max_frame_len == 1,
                "--deadline-ms" => cfg.default_deadline == one,
                "--max-deadline-ms" => cfg.max_deadline == one,
                "--idle-timeout-ms" => cfg.idle_timeout == one,
                "--frame-timeout-ms" => cfg.frame_timeout == one,
                _ => unreachable!(),
            };
            assert!(set, "{flag} 1 was not applied: {cfg:?}");
        }
    }

    #[test]
    fn bad_values_and_unknown_flags_are_refused() {
        assert_eq!(
            parse(&args(&["--threads", "x"])).unwrap_err(),
            "--threads: not a number: x"
        );
        assert_eq!(
            parse(&args(&["--max-requests"])).unwrap_err(),
            "--max-requests needs a value"
        );
        assert_eq!(
            parse(&args(&["--listen", "x"])).unwrap_err(),
            "unknown flag: --listen"
        );
        let (addr, _) = parse(&args(&["--addr", "127.0.0.1:0"])).unwrap();
        assert_eq!(addr, "127.0.0.1:0");
    }
}
