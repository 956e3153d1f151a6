//! Multi-threaded dense operations — the uncompressed parallel baseline.
//!
//! The paper's conclusions note that "a parallel solution of the image
//! difference problem can easily be performed on uncompressed data in
//! constant time if the number of processors available is proportional to
//! the number of pixels". On a real machine we have a fixed thread count, so
//! this module provides the practical version: the flat word array is split
//! into equal chunks, one per worker, and XORed with no synchronisation
//! beyond the final join (`std::thread::scope`; the disjoint `&mut`
//! chunks make this data-race-free by construction).

use crate::bitmap::Bitmap;

/// Smallest number of words a worker is worth spawning for. Below this the
/// per-thread cost dominates and we fall back to fewer workers.
const MIN_WORDS_PER_THREAD: usize = 4096;

/// Parallel bitmap XOR using up to `threads` workers.
///
/// Equivalent to [`crate::ops::xor`]; the output is bit-identical.
///
/// # Panics
///
/// Panics if dimensions differ or `threads == 0`.
#[must_use]
pub fn xor(a: &Bitmap, b: &Bitmap, threads: usize) -> Bitmap {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "bitmap dimension mismatch"
    );
    let mut out = Bitmap::new(a.width(), a.height());
    xor_into(a, b, &mut out, threads);
    out
}

/// Parallel XOR writing into a preallocated output bitmap of the same
/// dimensions. Exposed separately so benchmarks can exclude allocation.
///
/// # Panics
///
/// Panics if dimensions differ or `threads == 0`.
pub fn xor_into(a: &Bitmap, b: &Bitmap, out: &mut Bitmap, threads: usize) {
    assert!(threads > 0, "need at least one thread");
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "bitmap dimension mismatch"
    );
    assert_eq!(
        (a.width(), a.height()),
        (out.width(), out.height()),
        "output dimension mismatch"
    );

    let total = out.words().len();
    let workers = effective_workers(total, threads);
    if workers <= 1 {
        for ((o, x), y) in out.words_mut().iter_mut().zip(a.words()).zip(b.words()) {
            *o = x ^ y;
        }
        return;
    }

    let chunk = total.div_ceil(workers);
    let (aw, bw) = (a.words(), b.words());
    std::thread::scope(|scope| {
        for (i, out_chunk) in out.words_mut().chunks_mut(chunk).enumerate() {
            let start = i * chunk;
            let a_chunk = &aw[start..start + out_chunk.len()];
            let b_chunk = &bw[start..start + out_chunk.len()];
            scope.spawn(move || {
                for ((o, x), y) in out_chunk.iter_mut().zip(a_chunk).zip(b_chunk) {
                    *o = x ^ y;
                }
            });
        }
    });
}

/// Parallel Hamming distance (differing-pixel count) between two bitmaps.
///
/// # Panics
///
/// Panics if dimensions differ or `threads == 0`.
#[must_use]
pub fn hamming(a: &Bitmap, b: &Bitmap, threads: usize) -> u64 {
    assert!(threads > 0, "need at least one thread");
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "bitmap dimension mismatch"
    );

    let total = a.words().len();
    let workers = effective_workers(total, threads);
    if workers <= 1 {
        return crate::ops::hamming(a, b);
    }

    let chunk = total.div_ceil(workers);
    let (aw, bw) = (a.words(), b.words());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let lo = i * chunk;
                let hi = (lo + chunk).min(total);
                let (ac, bc) = (&aw[lo..hi], &bw[lo..hi]);
                scope.spawn(move || {
                    ac.iter()
                        .zip(bc)
                        .map(|(x, y)| u64::from((x ^ y).count_ones()))
                        .sum::<u64>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hamming worker panicked"))
            .sum()
    })
}

fn effective_workers(total_words: usize, threads: usize) -> usize {
    threads
        .min(total_words.div_ceil(MIN_WORDS_PER_THREAD))
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn checkerboards(width: u32, height: usize) -> (Bitmap, Bitmap) {
        let mut a = Bitmap::new(width, height);
        let mut b = Bitmap::new(width, height);
        for y in 0..height {
            for x in 0..width {
                if (x as usize + y).is_multiple_of(2) {
                    a.set(x, y, true);
                }
                if (x as usize + y).is_multiple_of(3) {
                    b.set(x, y, true);
                }
            }
        }
        (a, b)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (a, b) = checkerboards(1000, 50);
        let want = ops::xor(&a, &b);
        for threads in [1, 2, 3, 8] {
            assert_eq!(xor(&a, &b, threads), want, "threads={threads}");
        }
    }

    #[test]
    fn xor_into_reuses_buffer() {
        let (a, b) = checkerboards(300, 10);
        let mut out = Bitmap::new(300, 10);
        xor_into(&a, &b, &mut out, 4);
        assert_eq!(out, ops::xor(&a, &b));
    }

    #[test]
    fn parallel_hamming_matches_sequential() {
        let (a, b) = checkerboards(1000, 50);
        let want = ops::hamming(&a, &b);
        for threads in [1, 2, 5] {
            assert_eq!(hamming(&a, &b, threads), want, "threads={threads}");
        }
    }

    #[test]
    fn small_inputs_fall_back_to_single_worker() {
        // 10 words < MIN_WORDS_PER_THREAD; must still be correct.
        let (a, b) = checkerboards(64, 10);
        assert_eq!(xor(&a, &b, 16), ops::xor(&a, &b));
        assert_eq!(hamming(&a, &b, 16), ops::hamming(&a, &b));
    }

    #[test]
    fn large_input_uses_many_chunks_correctly() {
        // Force multiple real chunks: 64 * 20000 words.
        let mut a = Bitmap::new(6400, 2000);
        let mut b = Bitmap::new(6400, 2000);
        a.fill_rect(0, 0, 6400, 1000, true);
        b.fill_rect(3200, 500, 3200, 1500, true);
        assert_eq!(xor(&a, &b, 8), ops::xor(&a, &b));
        assert_eq!(hamming(&a, &b, 8), ops::hamming(&a, &b));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = xor(&Bitmap::new(10, 1), &Bitmap::new(10, 1), 0);
    }

    #[test]
    fn empty_bitmap_ok() {
        let a = Bitmap::new(0, 0);
        assert_eq!(xor(&a, &a.clone(), 4).count_ones(), 0);
        assert_eq!(hamming(&a, &a.clone(), 4), 0);
    }
}
