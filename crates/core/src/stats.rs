//! Instrumentation counters for systolic runs.

/// Counters accumulated over a full systolic run. `iterations` is the
/// quantity the paper reports in Figure 5 and Table 1; the rest quantify
/// data movement and cell activity for the ablation studies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrayStats {
    /// Synchronous iterations until every cell raised its complete signal.
    pub iterations: u64,
    /// Step-1 register swaps.
    pub swaps: u64,
    /// Step-1 moves of a lone `RegBig` run into `RegSmall`.
    pub moves: u64,
    /// Step-2 executions where both runs were present and disjoint.
    pub disjoint_xors: u64,
    /// Step-2 executions that combined overlapping runs.
    pub combines: u64,
    /// Step-2 executions where identical runs annihilated.
    pub annihilations: u64,
    /// Occupied `RegBig` registers moved during step-3 shifts (total data
    /// movement on the shift chain).
    pub run_shifts: u64,
    /// Runs placed directly by the broadcast bus (always 0 on the pure
    /// systolic machine; see [`crate::bus`]).
    pub bus_placements: u64,
    /// Sum over all iterations of the number of cells holding at least one
    /// run when step 2 completed — the hardware-utilization numerator.
    pub busy_cell_iterations: u64,
    /// Number of cells in the array.
    pub cells: usize,
    /// Runs in the first input (`k1`).
    pub k1: usize,
    /// Runs in the second input (`k2`).
    pub k2: usize,
    /// Runs extracted from `RegSmall` when the machine halted (the raw,
    /// uncoalesced output size).
    pub output_runs: usize,
}

impl ArrayStats {
    /// Theorem 1's bound for this input: `k1 + k2`.
    #[must_use]
    pub fn theorem1_bound(&self) -> u64 {
        (self.k1 + self.k2) as u64
    }

    /// Whether the run respected Theorem 1.
    #[must_use]
    pub fn within_theorem1(&self) -> bool {
        self.iterations <= self.theorem1_bound()
    }

    /// Mean fraction of cells that held at least one run per iteration —
    /// how much of the silicon the workload keeps busy. `None` when no
    /// iterations ran.
    #[must_use]
    pub fn utilization(&self) -> Option<f64> {
        if self.iterations == 0 || self.cells == 0 {
            return None;
        }
        Some(self.busy_cell_iterations as f64 / (self.iterations as f64 * self.cells as f64))
    }

    /// Merges counters from another run (used when aggregating per-row runs
    /// into whole-image totals, and per-thread partials in the parallel
    /// engine). `cells` accumulates and `iterations` adds; callers wanting a
    /// max-iterations view track it separately.
    pub fn absorb(&mut self, other: &ArrayStats) {
        self.iterations += other.iterations;
        self.swaps += other.swaps;
        self.moves += other.moves;
        self.disjoint_xors += other.disjoint_xors;
        self.combines += other.combines;
        self.annihilations += other.annihilations;
        self.run_shifts += other.run_shifts;
        self.bus_placements += other.bus_placements;
        self.busy_cell_iterations += other.busy_cell_iterations;
        self.cells += other.cells;
        self.k1 += other.k1;
        self.k2 += other.k2;
        self.output_runs += other.output_runs;
    }
}

/// How the signature prefilter engaged for one job (see
/// [`crate::DiffExecutorConfig::signature_prefilter`] for the adaptive
/// bypass).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SigPrefilterMode {
    /// The prefilter did not run: disabled in the configuration, or the
    /// kernel policy (cycle-exact systolic) forbids skipping rows.
    #[default]
    Off,
    /// The prefilter compared row signatures and resolved matching rows
    /// host-side.
    Active,
    /// The last measured skip rate (the previous job's, with one
    /// submitter) fell below the adaptive threshold, so the prefilter
    /// stood aside for this job — signatures were still compared (cheap,
    /// cached u64s) to measure the rate and re-arm when churn drops
    /// again, but every row went to the kernels.
    Bypassed,
}

/// Aggregate statistics for one [`crate::DiffExecutor`] job (a
/// `diff_pair` call or a batch), built in one place as the job finishes:
/// what the pool did to an image, and how the work spread over the
/// workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Row pairs processed.
    pub rows: usize,
    /// Sum of every per-row counter; `totals.iterations` is the work a
    /// single physical array would spend streaming all rows through.
    pub totals: ArrayStats,
    /// The slowest row's iteration count — the latency bound with one
    /// array per row (fully parallel hardware).
    pub max_row_iterations: u64,
    /// Host wall-clock for the whole batch (submission through reassembly).
    pub wall: std::time::Duration,
    /// Workers in the pool.
    pub workers: usize,
    /// Workers that processed at least one row of this batch — how much of
    /// the pool the workload actually kept busy.
    pub effective_workers: usize,
    /// Rows re-enqueued after a worker panic or death during this batch
    /// (each retry re-runs the row from scratch on a healthy array).
    pub retries: u64,
    /// Worker threads that died holding one of this batch's chunks and
    /// were replaced by their own checkout slot as they unwound.
    pub respawns: u64,
    /// Deadline expiries ([`crate::error::SystolicError::DeadlineExceeded`])
    /// observed during this batch.
    pub timeouts: u64,
    /// Contiguous row chunks the scheduler dispatched (the checkout and
    /// retry granularity; see [`crate::DiffExecutorConfig::chunk_target`]).
    pub chunks: usize,
    /// Rows resolved host-side by the signature prefilter
    /// ([`crate::DiffExecutorConfig::signature_prefilter`]): matching row signatures
    /// short-circuited them to an empty diff before any chunk was planned —
    /// no submit, no checkout round-trip, no kernel. Disjoint from the
    /// per-kernel counters below; `rows` partitions into
    /// `rows_sig_skipped + sig_collisions + rows_fast_path +
    /// rows_rle_kernel + rows_packed_kernel + rows_systolic_kernel`.
    pub rows_sig_skipped: usize,
    /// How the prefilter engaged for this job: off, actively skipping,
    /// or adaptively bypassed because the last measured skip rate fell
    /// below the threshold (see
    /// [`crate::DiffExecutorConfig::signature_prefilter`]).
    pub sig_prefilter: SigPrefilterMode,
    /// Signature skips cross-checked against the reference XOR in paranoid
    /// mode ([`crate::DiffExecutorConfig::verify_signatures`]); counts checks that
    /// confirmed the skip. A check that instead caught a collision moves
    /// the row to `sig_collisions`.
    pub sig_verified: usize,
    /// Paranoid-mode cross-checks that caught a signature collision (equal
    /// signatures, unequal rows). The row's diff is replaced by the
    /// reference XOR, so the batch output stays exact.
    pub sig_collisions: usize,
    /// Rows short-circuited without running any kernel (equal inputs or an
    /// empty side; see [`crate::engine::kernel::KernelChoice::FastPath`]).
    pub rows_fast_path: usize,
    /// Rows diffed by the sequential RLE merge kernel.
    pub rows_rle_kernel: usize,
    /// Rows diffed by the packed edge-parity kernel.
    pub rows_packed_kernel: usize,
    /// Rows diffed by the cycle-accurate systolic simulation.
    pub rows_systolic_kernel: usize,
}

impl PipelineStats {
    /// Rows per second over the batch wall-clock; `None` for an instant or
    /// empty batch.
    #[must_use]
    pub fn rows_per_second(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        if self.rows == 0 || secs <= 0.0 {
            return None;
        }
        Some(self.rows as f64 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_bound_and_check() {
        let s = ArrayStats {
            iterations: 5,
            k1: 3,
            k2: 4,
            ..Default::default()
        };
        assert_eq!(s.theorem1_bound(), 7);
        assert!(s.within_theorem1());
        let s = ArrayStats {
            iterations: 8,
            k1: 3,
            k2: 4,
            ..Default::default()
        };
        assert!(!s.within_theorem1());
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = ArrayStats {
            iterations: 2,
            swaps: 1,
            k1: 3,
            ..Default::default()
        };
        let b = ArrayStats {
            iterations: 3,
            swaps: 2,
            k2: 4,
            output_runs: 5,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.iterations, 5);
        assert_eq!(a.swaps, 3);
        assert_eq!(a.k1, 3);
        assert_eq!(a.k2, 4);
        assert_eq!(a.output_runs, 5);
    }

    #[test]
    fn pipeline_throughput_math() {
        let mut s = PipelineStats {
            rows: 100,
            ..Default::default()
        };
        assert_eq!(s.rows_per_second(), None, "zero wall-clock");
        s.wall = std::time::Duration::from_secs(2);
        assert_eq!(s.rows_per_second(), Some(50.0));
        s.rows = 0;
        assert_eq!(s.rows_per_second(), None, "empty batch");
    }
}
