//! Runtime-dispatched SIMD primitives for the packed diff kernel.
//!
//! The hot loop of the run-cancellation kernel (see
//! [`crate::engine::kernel`]) is a longest-common-prefix scan over two
//! sorted run lists: on real scan data the overwhelming majority of runs
//! are identical between the two frames, so the kernel's throughput is set
//! by how fast it can confirm equality. A [`rle::Run`] is exactly 8 bytes
//! (`start: u32`, `len: u32` — the rle crate asserts the layout), so the
//! scan is a memcmp-with-position: AVX2 compares four runs per iteration,
//! SSE2 two, and the portable fallback one run per 8-byte comparison.
//!
//! Dispatch is decided once per scratch (not per row): `core::arch`
//! runtime detection picks the widest level the CPU supports, the
//! `SYSTOLIC_SIMD` environment variable or
//! `DiffExecutorConfig::simd` can force a *narrower* level (for testing
//! the fallbacks), and non-x86 targets always resolve to
//! [`SimdLevel::Scalar`]. No crates.io dependency: everything is
//! `core::arch` + `is_x86_feature_detected!`.
//!
//! This is the only module in the crate allowed to use `unsafe` (the
//! crate-level lint is `deny`, overridden here): every unsafe function
//! carries an explicit safety contract, and the only operations are
//! unaligned loads within bounds established by slice lengths.
#![allow(unsafe_code)]

use rle::Run;
use std::sync::OnceLock;

/// Vector width the common-prefix scan runs at. Ordered narrow → wide so
/// `min`-clamping an override against the detected level is meaningful.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable path: one 8-byte run comparison per iteration.
    #[default]
    Scalar,
    /// SSE2 16-byte blocks (two runs per compare). Baseline on x86_64.
    Sse2,
    /// AVX2 32-byte blocks (four runs per compare).
    Avx2,
}

impl SimdLevel {
    /// The widest level this CPU can execute, via runtime feature
    /// detection. Non-x86_64 targets report [`SimdLevel::Scalar`].
    #[must_use]
    pub fn detect() -> SimdLevel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
            if std::arch::is_x86_feature_detected!("sse2") {
                return SimdLevel::Sse2;
            }
        }
        SimdLevel::Scalar
    }

    /// Parses an override string: `auto` defers to detection, anything
    /// else names a level. Unknown values are an error (callers decide
    /// whether to surface or ignore it).
    pub fn parse_override(s: &str) -> Result<Option<SimdLevel>, String> {
        match s {
            "auto" => Ok(None),
            "scalar" => Ok(Some(SimdLevel::Scalar)),
            "sse2" => Ok(Some(SimdLevel::Sse2)),
            "avx2" => Ok(Some(SimdLevel::Avx2)),
            other => Err(format!(
                "unknown SIMD level {other:?} (expected auto, scalar, sse2 or avx2)"
            )),
        }
    }

    /// Resolves an optional override against the detected level. An
    /// override can only *narrow* the level — requesting AVX2 on a CPU
    /// without it clamps to what the hardware can run, so a forced level
    /// is always executable.
    #[must_use]
    pub fn resolve(requested: Option<SimdLevel>) -> SimdLevel {
        let detected = Self::detect();
        match requested {
            Some(level) => level.min(detected),
            None => detected,
        }
    }

    /// The process-wide default: the `SYSTOLIC_SIMD` environment variable
    /// (read once) resolved against detection. Malformed values fall back
    /// to plain detection rather than erroring — the env var is a
    /// diagnostic knob, not configuration.
    #[must_use]
    pub fn default_level() -> SimdLevel {
        static DEFAULT: OnceLock<SimdLevel> = OnceLock::new();
        *DEFAULT.get_or_init(|| {
            let requested = std::env::var("SYSTOLIC_SIMD")
                .ok()
                .and_then(|s| SimdLevel::parse_override(&s).ok().flatten());
            SimdLevel::resolve(requested)
        })
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        })
    }
}

/// Length (in runs) of the longest common prefix of `a` and `b`, compared
/// bytewise at the given vector width. Two runs are equal iff their 8-byte
/// representations are (same `start`, same `len`), so the byte compare is
/// exact, and the first differing byte always lands inside the first
/// differing run.
#[must_use]
pub fn common_prefix_runs(level: SimdLevel, a: &[Run], b: &[Run]) -> usize {
    let n = a.len().min(b.len());
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: both pointers address at least `n * 8` valid bytes
        // (`Run` is 8 bytes with no padding); the intrinsics used are
        // unaligned loads, and dispatch guarantees the feature is present
        // (`resolve` clamps every level to what detection reported).
        match level {
            SimdLevel::Avx2 => unsafe {
                return prefix_avx2(a.as_ptr().cast(), b.as_ptr().cast(), n);
            },
            SimdLevel::Sse2 => unsafe {
                return prefix_sse2(a.as_ptr().cast(), b.as_ptr().cast(), n);
            },
            SimdLevel::Scalar => {}
        }
    }
    let _ = level;
    prefix_scalar(a, b, n)
}

/// Portable fallback: per-run equality (one 8-byte compare each).
fn prefix_scalar(a: &[Run], b: &[Run], n: usize) -> usize {
    for i in 0..n {
        if a[i] != b[i] {
            return i;
        }
    }
    n
}

/// AVX2: compare 32-byte blocks (four runs); on a mismatch the movemask's
/// first zero bit names the differing byte, hence the differing run.
///
/// # Safety
///
/// `a` and `b` must each point at `n * 8` readable bytes, and the CPU must
/// support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn prefix_avx2(a: *const u8, b: *const u8, n: usize) -> usize {
    use std::arch::x86_64::{_mm256_cmpeq_epi8, _mm256_loadu_si256, _mm256_movemask_epi8};
    let bytes = n * 8;
    let mut i = 0usize;
    while i + 32 <= bytes {
        let va = _mm256_loadu_si256(a.add(i).cast());
        let vb = _mm256_loadu_si256(b.add(i).cast());
        let eq = _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)) as u32;
        if eq != u32::MAX {
            return (i + (!eq).trailing_zeros() as usize) / 8;
        }
        i += 32;
    }
    i / 8 + prefix_tail(a.add(i), b.add(i), (bytes - i) / 8)
}

/// SSE2: compare 16-byte blocks (two runs).
///
/// # Safety
///
/// `a` and `b` must each point at `n * 8` readable bytes, and the CPU must
/// support SSE2 (always true on x86_64).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn prefix_sse2(a: *const u8, b: *const u8, n: usize) -> usize {
    use std::arch::x86_64::{_mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8};
    let bytes = n * 8;
    let mut i = 0usize;
    while i + 16 <= bytes {
        let va = _mm_loadu_si128(a.add(i).cast());
        let vb = _mm_loadu_si128(b.add(i).cast());
        let eq = _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)) as u32;
        if eq != 0xFFFF {
            return (i + (!eq).trailing_zeros() as usize) / 8;
        }
        i += 16;
    }
    i / 8 + prefix_tail(a.add(i), b.add(i), (bytes - i) / 8)
}

/// Tail of the vector loops: whole-run unaligned u64 compares.
///
/// # Safety
///
/// `a` and `b` must each point at `runs * 8` readable bytes.
#[cfg(target_arch = "x86_64")]
unsafe fn prefix_tail(a: *const u8, b: *const u8, runs: usize) -> usize {
    for i in 0..runs {
        let wa = a.add(i * 8).cast::<u64>().read_unaligned();
        let wb = b.add(i * 8).cast::<u64>().read_unaligned();
        if wa != wb {
            return i;
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(pairs: &[(u32, u32)]) -> Vec<Run> {
        pairs.iter().map(|&(s, l)| Run::new(s, l)).collect()
    }

    /// Levels that can actually execute on the test machine.
    fn levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
            .into_iter()
            .filter(|&l| l <= SimdLevel::detect())
            .collect()
    }

    #[test]
    fn prefix_agrees_across_levels_and_offsets() {
        // Mismatches at every position relative to the 4-run AVX2 block:
        // start of a block, inside, at the tail, and no mismatch at all.
        let base: Vec<Run> = (0..23).map(|i| Run::new(i * 10, (i % 4) + 1)).collect();
        for mismatch_at in 0..=base.len() {
            let mut other = base.clone();
            if mismatch_at < base.len() {
                other[mismatch_at] = Run::new(base[mismatch_at].start(), 9);
            }
            for level in levels() {
                let got = common_prefix_runs(level, &base, &other);
                assert_eq!(got, mismatch_at, "{level:?}, mismatch at {mismatch_at}");
                // Symmetric.
                assert_eq!(common_prefix_runs(level, &other, &base), mismatch_at);
            }
        }
    }

    #[test]
    fn prefix_handles_unequal_lengths_and_empties() {
        let long = runs(&[(0, 1), (5, 2), (9, 3), (20, 1), (30, 2)]);
        let short = runs(&[(0, 1), (5, 2)]);
        for level in levels() {
            assert_eq!(common_prefix_runs(level, &long, &short), 2, "{level:?}");
            assert_eq!(common_prefix_runs(level, &short, &long), 2, "{level:?}");
            assert_eq!(common_prefix_runs(level, &long, &[]), 0, "{level:?}");
            assert_eq!(common_prefix_runs(level, &[], &[]), 0, "{level:?}");
        }
    }

    #[test]
    fn prefix_at_misaligned_list_offsets() {
        // Stealing a suffix slice (`&runs[i..]`) shifts the byte address by
        // 8*i, exercising genuinely unaligned vector loads.
        let a: Vec<Run> = (0..40).map(|i| Run::new(i * 7, 3)).collect();
        for off_a in 0..5 {
            for off_b in 0..5 {
                let (sa, sb) = (&a[off_a..], &a[off_b..]);
                let expected = prefix_scalar(sa, sb, sa.len().min(sb.len()));
                for level in levels() {
                    assert_eq!(
                        common_prefix_runs(level, sa, sb),
                        expected,
                        "{level:?} offsets {off_a}/{off_b}"
                    );
                }
            }
        }
    }

    #[test]
    fn override_parsing_and_clamping() {
        assert_eq!(SimdLevel::parse_override("auto"), Ok(None));
        assert_eq!(
            SimdLevel::parse_override("scalar"),
            Ok(Some(SimdLevel::Scalar))
        );
        assert_eq!(SimdLevel::parse_override("sse2"), Ok(Some(SimdLevel::Sse2)));
        assert_eq!(SimdLevel::parse_override("avx2"), Ok(Some(SimdLevel::Avx2)));
        assert!(SimdLevel::parse_override("neon").is_err());
        // Overrides can only narrow: Scalar always wins against detection,
        // and a requested level never exceeds what the CPU reports.
        assert_eq!(
            SimdLevel::resolve(Some(SimdLevel::Scalar)),
            SimdLevel::Scalar
        );
        assert!(SimdLevel::resolve(Some(SimdLevel::Avx2)) <= SimdLevel::detect());
        assert_eq!(SimdLevel::resolve(None), SimdLevel::detect());
    }
}
