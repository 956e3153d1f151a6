//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) for journal
//! record checksums.
//!
//! The journal needs a checksum that detects torn writes and bit rot, not
//! a cryptographic MAC — CRC32 is the standard choice (ext4 journals, zlib,
//! PNG). Every record is checksummed on append, by the open-time scan, on
//! every replay and in fsck, so the loop is slicing-by-8: eight 256-entry
//! tables, built at compile time, fold eight input bytes per step instead
//! of one (about 4× the byte-at-a-time loop's throughput). A buffer of at
//! least [`LANES_MIN_LEN`] bytes runs as four interleaved slicing-by-8
//! lanes joined by zlib's GF(2) shift-and-combine, another 2–3×. All of
//! it is safe Rust without any external crate, and every path yields the
//! byte-at-a-time loop's value.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table for the reflected IEEE
/// polynomial; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so one lookup per byte folds a whole 8-byte word at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Buffers at least this long are checked in four lanes, shorter ones in
/// one: below it, joining the lanes costs more than the lanes save (see
/// [`crc32`]; DESIGN §15 "Checksums" has the measurement).
const LANES_MIN_LEN: usize = 1024;

/// CRC32 (IEEE) of `data`, as produced by zlib's `crc32(0, ...)`.
///
/// Slicing-by-8 folds a word per step, but each step waits on the last.
/// From [`LANES_MIN_LEN`] bytes on, the buffer is cut into four equal
/// lanes of whole words, checked side by side so their steps overlap,
/// then joined the way zlib's `crc32_combine` joins two CRCs; the last
/// `len % 32` bytes follow in one lane.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    if data.len() < LANES_MIN_LEN {
        return !slicing_by_8(!0, data);
    }
    let lane = data.len() / 32 * 8;
    let (lanes, tail) = data.split_at(4 * lane);
    let (a, rest) = lanes.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, d) = rest.split_at(lane);
    // Lane 0 starts from the initial register, the others from zero, so
    // the register after two lanes is the first lane's register carried
    // over the second lane's length in zero bytes, XOR the second's.
    let (mut ca, mut cb, mut cc, mut cd) = (!0u32, 0u32, 0u32, 0u32);
    for (((wa, wb), wc), wd) in words(a).zip(words(b)).zip(words(c)).zip(words(d)) {
        ca = fold_word(ca, wa);
        cb = fold_word(cb, wb);
        cc = fold_word(cc, wc);
        cd = fold_word(cd, wd);
    }
    let carry = x8nmodp(lane);
    let crc = [cb, cc, cd]
        .into_iter()
        .fold(ca, |crc, next| multmodp(carry, crc) ^ next);
    !slicing_by_8(crc, tail)
}

/// The little-endian 64-bit words of `data`, ignoring a partial last one.
fn words(data: &[u8]) -> impl Iterator<Item = u64> + '_ {
    data.chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
}

/// Advances the CRC register `crc` over `data`, eight bytes a step.
fn slicing_by_8(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    crc = words(data).fold(crc, fold_word);
    for &b in data.chunks_exact(8).remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// One slicing-by-8 step: the register after the eight little-endian
/// bytes of `word`.
#[inline(always)]
fn fold_word(crc: u32, word: u64) -> u32 {
    let t = &TABLES;
    let lo = crc ^ word as u32;
    let hi = (word >> 32) as u32;
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// `a · b` modulo the CRC polynomial, in the register's reflected bit
/// order (bit 31 holds x⁰): zlib's `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (1 << (31 - bit)) != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit += 1;
    }
    product
}

/// `X2N[k]` is x^(2^k) modulo the CRC polynomial (zlib's `x2n_table`).
const X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    table[0] = 1 << 30; // x¹
    let mut k = 1;
    while k < 32 {
        table[k] = multmodp(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// x^(8n) modulo the CRC polynomial: the factor that carries a register
/// over `n` zero bytes (zlib's `x2nmodp(n, 3)`). x^(2^32) is x modulo the
/// polynomial, so `X2N` repeats every 32 entries and the index wraps.
fn x8nmodp(mut n: usize) -> u32 {
    let mut p = 1 << 31; // x⁰
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::{crc32, multmodp, slicing_by_8, x8nmodp, LANES_MIN_LEN, TABLES, X2N};

    /// The byte-at-a-time loop the journal used before slicing-by-8: the
    /// reference every fast-path result must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32/IEEE check values (same as zlib / Python binascii).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_reference() {
        // A deterministic 1 MB buffer (64-bit LCG, high bytes).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1 << 20)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        // Every length 0–64, so each tail length meets each word count.
        for len in 0..=64 {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "{len}");
        }
        // Either side of the lane threshold; a multiple of four lanes of
        // whole words, one byte either side of it, and every tail after it
        // (0–7 bytes past each of its whole tail words); short and long
        // lengths up to the whole buffer. Each at every start offset
        // within a word.
        let lanes = 32 * 100;
        let lengths = (LANES_MIN_LEN - 1..=LANES_MIN_LEN + 9)
            .chain([lanes - 1, lanes + 1])
            .chain(lanes..lanes + 32)
            .chain([1, 7, 8, 9, 63, 4_095, 65_537, (1 << 20) - 8]);
        for len in lengths {
            for start in 0..8 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn lane_carries_match_zero_bytes() {
        // x^(2^32) = x, which lets `x8nmodp` wrap its table index.
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
        // Carrying a register over n zero bytes is running it over them.
        for n in [0, 1, 7, 8, 100, 4_096] {
            let zeros = vec![0u8; n];
            for crc in [!0u32, 0x1234_5678, 1] {
                assert_eq!(multmodp(x8nmodp(n), crc), slicing_by_8(crc, &zeros), "{n}");
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let base = b"journal record payload".to_vec();
        let want = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), want, "flip at {byte}.{bit}");
            }
        }
    }
}
