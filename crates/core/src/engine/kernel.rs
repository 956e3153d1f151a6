//! Row-diff kernels and the adaptive selector used by the pipeline.
//!
//! The paper's sequential analysis (§2) assumes run-length processing is
//! always the right representation, but its `Θ(k1 + k2)` merge loses to
//! word-level work once rows get dense: a 16 384-pixel row is only 256
//! `u64` words, while a noisy scan line can easily carry thousands of runs.
//! Breuel (arXiv:0712.0121) and Ehrensperger et al. (arXiv:1504.01052)
//! document the same density-dependent crossover for RLE morphology. This
//! module packages the three in-tree ways of diffing one row pair —
//!
//! * **RLE merge** ([`rle::ops::xor_into`]): `Θ(k1 + k2)` merge iterations,
//!   allocation-free against a per-worker output buffer;
//! * **packed edge parity**: the XOR of two rows changes value exactly
//!   where an odd number of their run edges sit, so each run `[s, e)` only
//!   flips the two bits `s` and `e` of one reusable edge scratch, and the
//!   result's runs are the set bits read in pairs. Runs that appear
//!   identically in both rows would flip the same bits twice; a SIMD
//!   common-prefix scan ([`crate::engine::simd`]) cancels those long
//!   identical stretches at vector width instead
//!   (`Θ(width/64 + k_cancelled/V + k_leftover)` for vector width `V`);
//! * **systolic simulation** ([`SystolicArray`]): the paper's cycle-accurate
//!   machine, kept for stats-exact experiments (cost ~ iterations × cells);
//!
//! — behind one [`diff_row`] entry point, plus [`Kernel::Auto`], which picks
//! per row using the calibrated crossover [`PACKED_RUNS_PER_WORD`] and
//! short-circuits trivial rows (equal → empty diff, one side empty → copy)
//! without running any kernel at all.
//!
//! Kernel selection is purely per-row (a function of the two rows and the
//! configured [`Kernel`]), never per-batch: on the multi-image executor a
//! worker interleaves chunks from unrelated jobs, and a row diffs to the
//! same bits and the same kernel choice whether its job runs alone or
//! next to a dozen others — the bit-identity half of the executor's
//! fairness/isolation proof suite leans on this.

use crate::array::SystolicArray;
use crate::engine::simd::{common_prefix_runs, SimdLevel};
use crate::error::SystolicError;
use crate::stats::ArrayStats;
use rle::{Pixel, RleRow, Run};

/// Kernel selection policy for the pipeline (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Per-row choice: fast paths first, then RLE merge vs. packed words by
    /// the [`PACKED_RUNS_PER_WORD`] density crossover.
    #[default]
    Auto,
    /// Always the sequential RLE merge (the paper's §2 algorithm).
    Rle,
    /// Always the packed edge-parity kernel: identical runs cancel, the
    /// rest flip their edge bits, and the set bits read back as runs.
    Packed,
    /// Always the cycle-accurate systolic array simulation. Slow, but the
    /// only kernel whose [`ArrayStats`] model the paper's machine exactly.
    Systolic,
}

impl std::str::FromStr for Kernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Kernel::Auto),
            "rle" => Ok(Kernel::Rle),
            "packed" => Ok(Kernel::Packed),
            "systolic" => Ok(Kernel::Systolic),
            other => Err(format!(
                "unknown kernel {other:?} (expected auto, rle, packed or systolic)"
            )),
        }
    }
}

/// What [`diff_row`] actually ran for one row — recorded per row in
/// [`crate::stats::PipelineStats`] so the selector's behaviour is
/// observable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// Trivial row short-circuited: equal inputs (empty diff) or an empty
    /// side (canonicalized copy). No kernel ran.
    FastPath,
    /// The sequential RLE merge.
    Rle,
    /// The packed edge-parity kernel.
    Packed,
    /// The systolic array simulation.
    Systolic,
}

/// `Auto` switches from the RLE merge to the packed kernel when
/// `k1 + k2 > PACKED_RUNS_PER_WORD * ceil(width / 64)`.
///
/// Calibration (see DESIGN.md "Hot path & kernel selection"): the merge
/// costs ~`k1 + k2` branchy iterations; the packed edge-parity kernel
/// costs `Θ(width/64 + k_cancelled/V + k_leftover)`, two bit flips per
/// leftover run plus one pass over the edge words. Swept from 0.5 to 8
/// runs per word at 2 048 and 16 384 px: on similar pairs (~1 % pixel
/// errors, the paper's workload) packed wins from about one run per word
/// up, by 1.4–1.9× at two; on unrelated pairs, where nothing cancels, the
/// crossover lies between 1.5 and 3 runs per word (packed 0.69× the
/// merge's speed at two on 2 048 px, 1.12× on 16 384 px). Two runs per
/// word stays the balanced middle: one would cost unrelated rows up to
/// 2.5×, three would give up the 1.4–1.9× on similar rows. It also
/// guarantees that an auto-chosen packed kernel reports
/// `iterations < (k1 + k2) / 2`, keeping every auto row within the
/// paper's Theorem-1 budget of `k1 + k2`.
pub const PACKED_RUNS_PER_WORD: usize = 2;

/// Per-worker reusable buffers: the packed kernel's edge words, one output
/// row for the merge and the fast paths, the lazily-built systolic array,
/// and the SIMD dispatch level the packed kernel's prefix scan runs at. In
/// steady state a worker's row diffs allocate only each result row.
#[derive(Debug)]
pub struct KernelScratch {
    edges: Vec<u64>,
    out: RleRow,
    array: Option<SystolicArray>,
    simd: SimdLevel,
}

impl Default for KernelScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelScratch {
    /// Empty scratch; buffers grow on first use and are then reused. The
    /// SIMD level comes from [`SimdLevel::default_level`] (runtime
    /// detection, overridable via `SYSTOLIC_SIMD`).
    #[must_use]
    pub fn new() -> Self {
        Self::with_simd(SimdLevel::default_level())
    }

    /// Empty scratch pinned to an explicit SIMD level (clamped to what the
    /// CPU supports, so a forced level is always executable).
    #[must_use]
    pub fn with_simd(level: SimdLevel) -> Self {
        Self {
            edges: Vec::new(),
            out: RleRow::new(0),
            array: None,
            simd: SimdLevel::resolve(Some(level)),
        }
    }

    /// The SIMD level the packed kernel's prefix scan dispatches at.
    #[must_use]
    pub fn simd(&self) -> SimdLevel {
        self.simd
    }

    /// Discards state that may be mid-mutation after a caught panic. The
    /// edge and output buffers are unconditionally reset per row, so only
    /// the array can hold poisoned state.
    pub fn discard_poisoned(&mut self) {
        self.array = None;
    }
}

/// Diffs one row pair with the given kernel policy, using `scratch` for
/// all intermediate state. Returns the canonical diff row, the cost
/// accounting and which kernel actually ran.
///
/// Unlike the raw kernels this is a total function over mismatched widths:
/// they surface as [`SystolicError::WidthMismatch`], never a panic, so a
/// bad row costs the pipeline one error outcome instead of a retry loop.
pub fn diff_row(
    kernel: Kernel,
    scratch: &mut KernelScratch,
    a: &RleRow,
    b: &RleRow,
) -> Result<(RleRow, ArrayStats, KernelChoice), SystolicError> {
    if a.width() != b.width() {
        return Err(SystolicError::WidthMismatch {
            left: a.width(),
            right: b.width(),
        });
    }
    match kernel {
        Kernel::Rle => Ok(rle_kernel(scratch, a, b)),
        Kernel::Packed => Ok(packed_kernel(scratch, a, b)),
        Kernel::Systolic => systolic_kernel(scratch, a, b),
        Kernel::Auto => {
            if std::ptr::eq(a, b) || a.runs() == b.runs() {
                scratch.out.reset(a.width());
                return Ok(fast_path(scratch, a, b));
            }
            if a.is_empty() || b.is_empty() {
                scratch.out.copy_from(if a.is_empty() { b } else { a });
                scratch.out.canonicalize();
                return Ok(fast_path(scratch, a, b));
            }
            let runs = a.run_count() + b.run_count();
            if runs > PACKED_RUNS_PER_WORD * a.width().div_ceil(64) as usize {
                Ok(packed_kernel(scratch, a, b))
            } else {
                Ok(rle_kernel(scratch, a, b))
            }
        }
    }
}

/// Shared stats skeleton for the non-systolic kernels: they model no cells,
/// swaps or shifts — only input/output sizes and an iteration count.
fn host_stats(a: &RleRow, b: &RleRow, iterations: u64, output_runs: usize) -> ArrayStats {
    ArrayStats {
        iterations,
        k1: a.run_count(),
        k2: b.run_count(),
        output_runs,
        ..ArrayStats::default()
    }
}

fn fast_path(
    scratch: &mut KernelScratch,
    a: &RleRow,
    b: &RleRow,
) -> (RleRow, ArrayStats, KernelChoice) {
    let stats = host_stats(a, b, 0, scratch.out.run_count());
    (scratch.out.clone(), stats, KernelChoice::FastPath)
}

fn rle_kernel(
    scratch: &mut KernelScratch,
    a: &RleRow,
    b: &RleRow,
) -> (RleRow, ArrayStats, KernelChoice) {
    let op = rle::ops::xor_into(a, b, &mut scratch.out);
    let stats = host_stats(a, b, op.iterations, scratch.out.run_count());
    (scratch.out.clone(), stats, KernelChoice::Rle)
}

/// Flips the packed kernel makes in merge order before it checks whether
/// the rows cancel at all (see [`packed_kernel`]).
const MERGE_ORDER_PROBE: usize = 64;

/// Flips the edge bits of `run` (`start` and `end_exclusive`) in `edges`.
fn flip(edges: &mut [u64], run: &Run) {
    for edge in [run.start(), run.end_exclusive()] {
        edges[edge as usize / 64] ^= 1 << (edge % 64);
    }
}

/// The packed kernel: run cancellation, then edge parity.
///
/// XOR is symmetric difference. A run `[s, e)` of either row contributes
/// two edges, `s` and `e`, and the XOR of the two rows changes value
/// exactly at the positions flipped an odd number of times; read in
/// pairs, those positions are its runs. Within one row a shared edge of
/// two touching runs flips twice and vanishes, so non-canonical input
/// needs no coalescing, and two output runs never share an edge, so the
/// output is canonical by construction.
///
/// 1. **Cancel.** Walking both sorted run lists in merge order, equal
///    heads start a common-prefix scan at vector width
///    ([`common_prefix_runs`]); a run present byte-identically in both
///    rows would only flip the same two bits twice.
/// 2. **Flip.** Every other run flips its two edge bits in the zeroed
///    scratch of `width / 64 + 1` words (the extra word holds an edge at
///    `width`). The merge order only lets the lists resynchronise after an
///    error site — absolute positions mean the tails match again — and
///    correctness does not depend on it. So once [`MERGE_ORDER_PROBE`] runs
///    have flipped while fewer cancelled, the rows are not alike and the
///    rest of both rows flips in list order, without the merge's
///    unpredictable branch.
/// 3. **Read.** One pass over the edge words pairs the set bits into runs,
///    in a vector reserved at the flip count, which bounds the output.
///
/// On near-identical dense rows (the continuous-inspection workload) this
/// costs a memcmp-speed scan plus a handful of flips around the actual
/// defects; on rows that share nothing, two flips per run and the read.
fn packed_kernel(
    scratch: &mut KernelScratch,
    a: &RleRow,
    b: &RleRow,
) -> (RleRow, ArrayStats, KernelChoice) {
    let width = a.width();
    let edges = &mut scratch.edges;
    edges.clear();
    edges.resize(width as usize / 64 + 1, 0);
    let (ar, br) = (a.runs(), b.runs());
    let (mut i, mut j, mut cancelled, mut flipped) = (0usize, 0usize, 0usize, 0usize);
    while let (Some(ra), Some(rb)) = (ar.get(i), br.get(j)) {
        if ra == rb {
            let p = common_prefix_runs(scratch.simd, &ar[i..], &br[j..]);
            i += p;
            j += p;
            cancelled += 2 * p;
        } else if flipped == MERGE_ORDER_PROBE && cancelled < flipped {
            break;
        } else if ra.start() <= rb.start() {
            flip(edges, ra);
            i += 1;
            flipped += 1;
        } else {
            flip(edges, rb);
            j += 1;
            flipped += 1;
        }
    }
    let (rest_a, rest_b) = (&ar[i..], &br[j..]);
    for run in rest_a.iter().chain(rest_b) {
        flip(edges, run);
    }
    let mut runs = Vec::with_capacity(flipped + rest_a.len() + rest_b.len());
    let mut start: Option<Pixel> = None;
    for (w, &word) in edges.iter().enumerate() {
        let (mut bits, base) = (word, w as Pixel * 64);
        while bits != 0 {
            let edge = base + bits.trailing_zeros();
            bits &= bits - 1;
            match start.take() {
                None => start = Some(edge),
                Some(s) => runs.push(Run::new(s, edge - s)),
            }
        }
    }
    let out = RleRow::from_runs(width, runs).expect("paired edges are ordered runs in the row");
    // One "iteration" per word of the row: the packed kernel's fixed
    // edge-read cost, directly comparable against the merge's k1 + k2
    // (and, via the Auto crossover, always below it).
    let stats = host_stats(a, b, u64::from(width.div_ceil(64)), out.run_count());
    (out, stats, KernelChoice::Packed)
}

fn systolic_kernel(
    scratch: &mut KernelScratch,
    a: &RleRow,
    b: &RleRow,
) -> Result<(RleRow, ArrayStats, KernelChoice), SystolicError> {
    let machine = match scratch.array.as_mut() {
        Some(machine) => {
            machine.reload(a, b)?;
            machine
        }
        None => scratch.array.insert(SystolicArray::load(a, b)?),
    };
    machine.run()?;
    Ok((machine.extract()?, *machine.stats(), KernelChoice::Systolic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rle::ops::xor;

    fn row(width: u32, pairs: &[(u32, u32)]) -> RleRow {
        RleRow::from_pairs(width, pairs).unwrap()
    }

    fn dense_row(width: u32) -> RleRow {
        // Alternating single-pixel runs: the worst case for run counts.
        let pairs: Vec<(u32, u32)> = (0..width).step_by(2).map(|p| (p, 1)).collect();
        row(width, &pairs)
    }

    #[test]
    fn all_kernels_agree_with_reference() {
        let cases = [
            (row(130, &[(0, 5), (70, 10)]), row(130, &[(3, 5), (64, 30)])),
            (dense_row(200), row(200, &[(0, 200)])),
            (row(65, &[(64, 1)]), row(65, &[(0, 1)])),
        ];
        let mut scratch = KernelScratch::new();
        for (a, b) in &cases {
            let expected = xor(a, b);
            for kernel in [Kernel::Auto, Kernel::Rle, Kernel::Packed, Kernel::Systolic] {
                let (got, stats, _) = diff_row(kernel, &mut scratch, a, b).unwrap();
                assert_eq!(got, expected, "{kernel:?}: {a:?} ^ {b:?}");
                assert_eq!(stats.k1, a.run_count());
                assert_eq!(stats.k2, b.run_count());
            }
        }
    }

    #[test]
    fn auto_fast_paths_trivial_rows() {
        let mut scratch = KernelScratch::new();
        let a = row(100, &[(5, 10)]);
        let empty = RleRow::new(100);

        let (d, stats, choice) = diff_row(Kernel::Auto, &mut scratch, &a, &a.clone()).unwrap();
        assert!(d.is_empty());
        assert_eq!((stats.iterations, choice), (0, KernelChoice::FastPath));

        let (d, _, choice) = diff_row(Kernel::Auto, &mut scratch, &a, &empty).unwrap();
        assert_eq!((d, choice), (a.clone(), KernelChoice::FastPath));
        let (d, _, choice) = diff_row(Kernel::Auto, &mut scratch, &empty, &a).unwrap();
        assert_eq!((d, choice), (a, KernelChoice::FastPath));
    }

    #[test]
    fn auto_switches_kernels_at_the_density_crossover() {
        let mut scratch = KernelScratch::new();
        // 256 px = 4 words; threshold is 8 total runs.
        let sparse = row(256, &[(0, 3), (50, 3)]);
        let sparse_b = row(256, &[(10, 3), (80, 3)]);
        let (_, _, choice) = diff_row(Kernel::Auto, &mut scratch, &sparse, &sparse_b).unwrap();
        assert_eq!(choice, KernelChoice::Rle);

        let dense_a = dense_row(256);
        let dense_b = row(256, &[(1, 254)]);
        let (_, stats, choice) = diff_row(Kernel::Auto, &mut scratch, &dense_a, &dense_b).unwrap();
        assert_eq!(choice, KernelChoice::Packed);
        assert!(
            stats.within_theorem1(),
            "auto-chosen packed stays within the k1+k2 budget"
        );
    }

    #[test]
    fn width_mismatch_is_an_error_not_a_panic() {
        let mut scratch = KernelScratch::new();
        let a = RleRow::new(10);
        let b = RleRow::new(12);
        for kernel in [Kernel::Auto, Kernel::Rle, Kernel::Packed, Kernel::Systolic] {
            assert_eq!(
                diff_row(kernel, &mut scratch, &a, &b),
                Err(SystolicError::WidthMismatch {
                    left: 10,
                    right: 12
                }),
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn kernel_parses_from_str() {
        assert_eq!("auto".parse::<Kernel>().unwrap(), Kernel::Auto);
        assert_eq!("rle".parse::<Kernel>().unwrap(), Kernel::Rle);
        assert_eq!("packed".parse::<Kernel>().unwrap(), Kernel::Packed);
        assert_eq!("systolic".parse::<Kernel>().unwrap(), Kernel::Systolic);
        assert!("warp".parse::<Kernel>().is_err());
        assert_eq!(Kernel::default(), Kernel::Auto);
    }

    #[test]
    fn packed_agrees_on_both_sides_of_the_merge_order_probe() {
        use workload::{GenParams, RowGenerator};
        // An identical prefix of `shared` runs, then unrelated tails: short
        // prefixes leave the rows below the probe's cancellation bar (the
        // rest flips in list order), long ones keep the merge order to the
        // end. Either way one row runs out first and the other's tail
        // must still flip.
        let mut gen = RowGenerator::new(GenParams::with_runs(4096, (2, 4), 0.3), 0xED6E);
        let (x, y) = (gen.next_row(), gen.next_row());
        for shared in [0, 1, 20, 31, 32, 33, 100, 300] {
            let cut = x.runs()[shared].start();
            let tail = |r: &RleRow| -> Vec<Run> {
                let after = r.runs().iter().filter(|run| run.start() > cut + 1);
                after.copied().collect()
            };
            let mut a = x.runs()[..shared].to_vec();
            a.extend(tail(&x));
            let mut b = x.runs()[..shared].to_vec();
            b.extend(tail(&y).into_iter().skip(shared % 7));
            let a = RleRow::from_runs(4096, a).unwrap();
            let b = RleRow::from_runs(4096, b).unwrap();
            let expected = xor(&a, &b);
            let mut scratch = KernelScratch::new();
            for (p, q) in [(&a, &b), (&b, &a)] {
                let (got, stats, _) = diff_row(Kernel::Packed, &mut scratch, p, q).unwrap();
                assert_eq!(got, expected, "{shared} shared runs");
                assert_eq!(stats.iterations, 64);
            }
        }
    }

    #[test]
    fn zero_width_rows() {
        let mut scratch = KernelScratch::new();
        let empty = RleRow::new(0);
        for kernel in [Kernel::Auto, Kernel::Rle, Kernel::Packed, Kernel::Systolic] {
            let (d, _, _) = diff_row(kernel, &mut scratch, &empty, &empty.clone()).unwrap();
            assert_eq!(d.width(), 0);
            assert!(d.is_empty());
        }
    }
}
