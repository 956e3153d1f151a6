//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) for journal
//! record checksums.
//!
//! The journal needs a checksum that detects torn writes and bit rot, not
//! a cryptographic MAC — CRC32 is the standard choice (ext4 journals, zlib,
//! PNG). Every record is checksummed on append and again on each replay,
//! so the loop is slicing-by-8: eight 256-entry tables, built at compile
//! time, fold eight input bytes per step instead of one (about 4× the
//! byte-at-a-time loop's throughput), in safe Rust and without any
//! external crate.

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
                (crc >> 1) ^ 0xEDB8_8320
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

/// CRC32 (IEEE) of `data`, as produced by zlib's `crc32(0, ...)`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::{crc32, TABLES};

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
        // Unaligned slices: every start offset within a word, short and
        // long lengths, up to the whole buffer.
        for start in 0..8 {
            for len in [1, 7, 8, 9, 63, 4_095, 65_537, (1 << 20) - 8] {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
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
