//! Layer replays: after the load phase, the workload's own image pairs are
//! pushed through one layer at a time, so each layer's cost is timed from
//! outside through its public API without competing with the load. Every
//! workload replays the layers both paths use (`rle::serialize`, the
//! executor, the kernels); the wire workloads also replay `diffd::proto`,
//! and the frame workloads the cold `row_signatures()` their prefilter
//! pays.

use std::time::{Duration, Instant};

use diffd::proto::{decode_diff_request, encode_diff_reply, encode_diff_request};
use diffd::{DiffReply, DiffRequest};
use rle::serialize::{decode_image, encode_image};
use rle::{RleImage, RleRow};
use systolic_core::engine::kernel::{diff_row, KernelScratch};
use systolic_core::{DiffExecutorConfig, Kernel, KernelChoice};

use crate::report::median;
use crate::wire::Pair;
use crate::Values;

/// Frame header bytes in front of every `diffd` payload.
const FRAME_HEADER: f64 = diffd::proto::FRAME_HEADER_LEN as f64;

/// Calls `f(i)` with `i = 0, 1, …` until `budget` has elapsed and at least
/// `min` calls ran.
fn repeat(budget: Duration, min: usize, mut f: impl FnMut(usize)) {
    let until = Instant::now() + budget;
    let mut i = 0;
    while i < min || Instant::now() < until {
        f(i);
        i += 1;
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Per-metric samples; each metric reports its median.
#[derive(Default)]
struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.0.push((name, vec![value])),
        }
    }

    fn report(self, values: &mut Values) {
        for (name, v) in self.0 {
            let note = format!("replay median of {}", v.len());
            values.insert(name, (median(&v).unwrap_or(0.0), note));
        }
    }
}

/// Replays the layers the workload's path uses over `pairs` (`wire`: the
/// `diffd` path, else the frame path), each for about `budget`, and
/// records their metrics. Returns the operations replayed and how many of
/// them came back wrong.
pub fn run(
    pairs: &[Pair],
    wire: bool,
    threads: usize,
    budget: Duration,
    values: &mut Values,
) -> (u64, u64) {
    let mut s = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |ok: bool, what: &str| {
        attempted += 1;
        if !ok {
            eprintln!("replay: {what} output differs from the reference");
            failed += 1;
        }
    };

    if wire {
        repeat(budget, pairs.len(), |i| {
            let p = &pairs[i % pairs.len()];
            let payload = encode_diff_request(&DiffRequest {
                request_id: i as u64,
                deadline_ms: 0,
                a: RleImage::clone(&p.a),
                b: RleImage::clone(&p.b),
            });
            let t = Instant::now();
            let decoded = decode_diff_request(&payload);
            s.push("proto.decode_request_ms", ms(t));
            check(
                decoded.is_ok_and(|r| r.a == *p.a && r.b == *p.b),
                "decode_diff_request",
            );
            let reply = DiffReply {
                request_id: i as u64,
                ticket_lo: 0,
                ticket_hi: p.a.height() as u64,
                queue_wait_ns: 0,
                compute_ns: 0,
                image: p.expected.clone(),
            };
            let t = Instant::now();
            let encoded = encode_diff_reply(&reply);
            s.push("proto.encode_reply_ms", ms(t));
            s.push("wire.request_bytes", FRAME_HEADER + payload.len() as f64);
            s.push("wire.reply_bytes", FRAME_HEADER + encoded.len() as f64);
        });
    }

    repeat(budget, pairs.len(), |i| {
        let image = &pairs[i % pairs.len()].b;
        let t = Instant::now();
        let bytes = encode_image(image);
        s.push("serialize.encode_frame_ms", ms(t));
        let t = Instant::now();
        let decoded = decode_image(&bytes);
        s.push("serialize.decode_frame_ms", ms(t));
        let Ok(fresh) = decoded else {
            check(false, "decode_image");
            return;
        };
        let mut right = fresh == **image;
        if !wire {
            let t = Instant::now();
            let sigs = fresh.row_signatures();
            s.push("sig.cold_frame_ms", ms(t));
            right &= sigs == image.row_signatures();
        }
        check(right, "decode_image");
    });

    let executor = DiffExecutorConfig::new(threads).build();
    repeat(budget, pairs.len(), |i| {
        let p = &pairs[i % pairs.len()];
        let t = Instant::now();
        let Ok(handle) = executor.submit_pair(&p.a, &p.b) else {
            check(false, "submit_pair");
            return;
        };
        s.push("executor.submit_ms", ms(t));
        let lo = handle.tickets().0;
        let mut rows: Vec<Option<RleRow>> = vec![None; p.a.height()];
        let mut ok = true;
        let t = Instant::now();
        while let Ok(Some(row)) = handle.collect_next(None) {
            match row.result {
                Ok((diff, _)) => rows[(row.ticket.id() - lo) as usize] = Some(diff),
                Err(_) => ok = false,
            }
        }
        s.push("executor.collect_ms", ms(t));
        let queue_wait = handle.queue_wait().unwrap_or_default();
        s.push("executor.queue_wait_ms", queue_wait.as_secs_f64() * 1e3);
        s.push("executor.chunks_per_job", handle.chunks() as f64);
        s.push("executor.steals_per_job", handle.steals() as f64);
        s.push(
            "executor.effective_workers",
            handle.effective_workers() as f64,
        );
        let t = Instant::now();
        let image = rows
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .and_then(|rows| RleImage::from_rows(p.a.width(), rows).ok());
        s.push("executor.assemble_ms", ms(t));
        check(ok && image.is_some_and(|img| img == p.expected), "executor");
    });
    drop(executor);

    let mut scratch = KernelScratch::new();
    let mut choices = [0usize; 3];
    repeat(budget, pairs.len(), |i| {
        let p = &pairs[i % pairs.len()];
        let want = p.expected.rows();
        let mut ok = true;
        for (r, (a, b)) in p.a.rows().iter().zip(p.b.rows()).enumerate() {
            match diff_row(Kernel::Auto, &mut scratch, a, b) {
                Ok((diff, _, choice)) => {
                    ok &= diff == want[r];
                    match choice {
                        KernelChoice::Rle => choices[0] += 1,
                        KernelChoice::Packed => choices[1] += 1,
                        KernelChoice::FastPath => choices[2] += 1,
                        KernelChoice::Systolic => {}
                    }
                }
                Err(_) => ok = false,
            }
        }
        for (kernel, name) in [
            (Kernel::Rle, "kernel.ns_per_row_rle"),
            (Kernel::Packed, "kernel.ns_per_row_packed"),
        ] {
            let t = Instant::now();
            let diffs: Vec<_> =
                p.a.rows()
                    .iter()
                    .zip(p.b.rows())
                    .map(|(a, b)| diff_row(kernel, &mut scratch, a, b))
                    .collect();
            s.push(
                name,
                t.elapsed().as_nanos() as f64 / p.a.height().max(1) as f64,
            );
            ok &= diffs
                .iter()
                .zip(want)
                .all(|(d, w)| d.as_ref().is_ok_and(|(d, _, _)| d == w));
        }
        check(ok, "diff_row");
    });
    s.report(values);
    let rows = choices.iter().sum::<usize>().max(1) as f64;
    for (name, n) in ["kernel.rows_rle", "kernel.rows_packed", "kernel.rows_fast"]
        .into_iter()
        .zip(choices)
    {
        let note = "share of rows under Kernel::Auto".to_string();
        values.insert(name, (n as f64 / rows, note));
    }
    (attempted, failed)
}
