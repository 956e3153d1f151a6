//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Each load thread owns a [`Tracer`]; spans stay in memory and are merged
//! into one [`Trace`] when the run ends, which prints the per-layer table
//! (duration and self time per span name) and writes the spans as JSONL.
//! A span's self time is its duration minus the durations of its children.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::{percentile, sorted};

/// Spans one thread keeps before it starts dropping them.
pub const SPANS_PER_THREAD: usize = 200_000;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer and operation, e.g. `client.encode`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation every span of one request or frame shares.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Nanoseconds from the epoch to `t`.
    #[must_use]
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `[start_ns, end_ns)`; `None` once the thread's budget is
    /// spent (the span is counted as dropped).
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if self.spans.len() >= SPANS_PER_THREAD {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }
}

/// Every span of a run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Merged spans; parents index into this vector.
    pub spans: Vec<Span>,
    /// Spans not kept because a thread's budget was spent.
    pub dropped: u64,
}

impl Trace {
    /// Appends a thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, tracer: Tracer) {
        let base = self.spans.len();
        self.dropped += tracer.dropped;
        self.spans.extend(tracer.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span called `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time in milliseconds of every span called `name`.
    #[must_use]
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let children = self.child_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.duration_ns().saturating_sub(children[i]) as f64 / 1e6)
            .collect()
    }

    /// How far the stages of the operations rooted at spans called `root`
    /// fail to add up: |sum of stage medians − operation median| ÷
    /// operation median. An operation's time splits exactly into the self
    /// times of its spans; a stage is a span name, and an operation's time
    /// in it is the self time of its spans of that name (0 when it has
    /// none). `None` without such operations.
    #[must_use]
    pub fn stage_sum_gap(&self, root: &str) -> Option<f64> {
        let children = self.child_ns();
        // Parents are recorded before their children, so one pass finds
        // every span's root.
        let mut root_of = vec![0usize; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = s.parent.map_or(i, |p| root_of[p]);
        }
        let ops: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none() && self.spans[i].name == root)
            .collect();
        let slot: BTreeMap<usize, usize> = ops.iter().enumerate().map(|(k, &i)| (i, k)).collect();
        let mut stages: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(&k) = slot.get(&root_of[i]) {
                let own = s.duration_ns().saturating_sub(children[i]) as f64 / 1e6;
                stages.entry(s.name).or_insert_with(|| vec![0.0; ops.len()])[k] += own;
            }
        }
        let mut totals: Vec<f64> = ops
            .iter()
            .map(|&i| self.spans[i].duration_ns() as f64 / 1e6)
            .collect();
        let total = percentile(sorted(&mut totals), 50.0)?;
        let sum: f64 = stages
            .into_values()
            .filter_map(|mut v| percentile(sorted(&mut v), 50.0))
            .sum();
        (total > 0.0).then(|| (sum - total).abs() / total)
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration_ns();
            }
        }
        children
    }

    /// The per-layer table: span count, median duration and median self
    /// time per span name.
    #[must_use]
    pub fn table(&self) -> String {
        let children = self.child_ns();
        let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(s.duration_ns() as f64 / 1e6);
            entry
                .1
                .push(s.duration_ns().saturating_sub(children[i]) as f64 / 1e6);
        }
        let mut out = format!(
            "# {:<22} {:>8} {:>12} {:>12}\n",
            "span", "count", "p50 ms", "self p50 ms"
        );
        for (name, (mut dur, mut own)) in by_name {
            let n = dur.len();
            let d = percentile(sorted(&mut dur), 50.0).unwrap_or(0.0);
            let o = percentile(sorted(&mut own), 50.0).unwrap_or(0.0);
            out.push_str(&format!("# {name:<22} {n:>8} {d:>12.4} {o:>12.4}\n"));
        }
        if self.dropped > 0 {
            out.push_str(&format!("# ({} spans dropped)\n", self.dropped));
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_across_merged_threads() {
        let epoch = Instant::now();
        let mut t1 = Tracer::new(epoch);
        let root = t1.span("request", 0, 10_000_000, None, 1);
        t1.span("client.encode", 0, 2_000_000, root, 1);
        t1.span("client.round_trip", 2_000_000, 9_000_000, root, 1);
        let mut t2 = Tracer::new(epoch);
        let root2 = t2.span("request", 0, 4_000_000, None, 2);
        t2.span("client.encode", 0, 1_000_000, root2, 2);
        let mut trace = Trace::default();
        trace.absorb(t1);
        trace.absorb(t2);
        assert_eq!(trace.spans[4].parent, Some(3));
        assert_eq!(trace.self_ms("request"), vec![1.0, 3.0]);
        assert_eq!(trace.durations_ms("client.encode"), vec![2.0, 1.0]);
        assert!(trace.table().contains("client.round_trip"));
    }

    #[test]
    fn stage_sum_gap_counts_a_missing_stage_as_zero() {
        let mut t = Tracer::new(Instant::now());
        // Three steps of 4 ms (diff 1 + append 3); one of them also
        // extracts for 8 ms. Stage medians: diff 1, append 3, extract 0.
        for (k, extract) in [(0u64, false), (1, true), (2, false)] {
            let end = if extract { 12_000_000 } else { 4_000_000 };
            let root = t.span("frame.step", 0, end, None, k);
            t.span("engine.diff", 0, 1_000_000, root, k);
            t.span("archive.append", 1_000_000, 4_000_000, root, k);
            if extract {
                t.span("archive.extract", 4_000_000, 12_000_000, root, k);
            }
        }
        t.span("client.verify", 0, 9_000_000, None, 9);
        let mut trace = Trace::default();
        trace.absorb(t);
        assert_eq!(trace.stage_sum_gap("frame.step"), Some(0.0));
        assert_eq!(trace.stage_sum_gap("request"), None);
    }
}
