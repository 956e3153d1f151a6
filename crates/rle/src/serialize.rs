//! Compact binary serialization for RLE rows and images.
//!
//! The PCB-inspection pipeline the paper targets stores gigabytes of binary
//! image data in RLE form; this module provides the storage format:
//! delta-encoded LEB128 varints (gap to the previous run, then length − 1),
//! which typically takes 2–3 bytes per run regardless of image width.
//!
//! Format:
//!
//! ```text
//! row   := "RLR1" width:u32le  count:varint  (gap:varint len1:varint)*
//! image := "RLI1" width:u32le  height:varint row_body*      (no per-row magic)
//! ```
//!
//! `gap` is the distance from the previous run's end-exclusive position (or
//! from 0 for the first run); `len1` is `len − 1`. Decoding validates the
//! same invariants as [`RleRow::from_runs`].
//!
//! ```
//! use rle::{serialize, RleRow};
//!
//! let row = RleRow::from_pairs(10_000, &[(100, 50), (9_000, 20)]).unwrap();
//! let bytes = serialize::encode_row(&row);
//! assert!(bytes.len() < 20, "two runs cost a handful of bytes");
//! assert_eq!(serialize::decode_row(&bytes).unwrap(), row);
//! ```

use crate::error::RleError;
use crate::image::RleImage;
use crate::row::RleRow;
use crate::run::{Pixel, Run};

const ROW_MAGIC: &[u8; 4] = b"RLR1";
const IMAGE_MAGIC: &[u8; 4] = b"RLI1";

/// Errors arising while decoding the binary format.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The magic number did not match.
    BadMagic,
    /// The byte stream ended mid-value.
    Truncated,
    /// A varint exceeded 32 bits.
    VarintOverflow,
    /// A declared run/row count exceeds what the remaining input could
    /// possibly encode (every run costs ≥ 2 bytes and ≥ 1 pixel; every row
    /// body costs ≥ 1 byte). Rejecting up front means a truncated or
    /// adversarial header can never trigger allocations or decode work
    /// beyond input-proportional bounds.
    ImplausibleCount {
        /// The count the header declared.
        declared: u64,
        /// The most the remaining input could plausibly hold.
        max_plausible: u64,
    },
    /// The decoded runs violate RLE invariants.
    Invalid(RleError),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic number"),
            DecodeError::Truncated => write!(f, "byte stream truncated"),
            DecodeError::VarintOverflow => write!(f, "varint exceeds 32 bits"),
            DecodeError::ImplausibleCount {
                declared,
                max_plausible,
            } => write!(
                f,
                "declared count {declared} exceeds what the input can hold (≤ {max_plausible})"
            ),
            DecodeError::Invalid(e) => write!(f, "decoded runs invalid: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<RleError> for DecodeError {
    fn from(e: RleError) -> Self {
        DecodeError::Invalid(e)
    }
}

/// Appends `v` as an LEB128 varint (the wire format's integer encoding;
/// public so containers embedding RLI1 blobs — the delta archive — share
/// one implementation).
pub fn put_varint(out: &mut Vec<u8>, v: u32) {
    let mut bytes = [0u8; 5];
    let n = write_varint(&mut bytes, 0, v);
    out.extend_from_slice(&bytes[..n]);
}

/// Writes `v` as an LEB128 varint into `buf` at `at` and returns the index
/// past it; a value below 128 is one store. The one varint writer.
fn write_varint(buf: &mut [u8], mut at: usize, mut v: u32) -> usize {
    while v >= 0x80 {
        buf[at] = v as u8 | 0x80;
        at += 1;
        v >>= 7;
    }
    buf[at] = v as u8;
    at + 1
}

/// Reads an LEB128 varint from `data` at `*pos`, advancing it (see
/// [`put_varint`]). Overflow beyond 32 bits and truncation are typed
/// errors, never panics. A one-byte value skips the loop.
#[inline]
pub fn get_varint(data: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    match data.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Ok(u32::from(byte))
        }
        _ => get_long_varint(data, pos),
    }
}

fn get_long_varint(data: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    let mut value: u32 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = data.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        // A u32 holds 4 full 7-bit groups plus 4 bits of a fifth group.
        if shift > 28 || (shift == 28 && byte & 0x70 != 0) {
            return Err(DecodeError::VarintOverflow);
        }
        value |= u32::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn encode_row_body(row: &RleRow, out: &mut Vec<u8>) {
    let runs = row.runs();
    put_varint(out, runs.len() as u32);
    // Runs are staged on the stack and appended 32 at a time; a run whose
    // gap and length − 1 both fit one byte (the common case) is two plain
    // stores. 32 runs of two 5-byte varints fill at most 320 bytes.
    let mut stage = [0u8; 320];
    let mut prev_end: Pixel = 0;
    for chunk in runs.chunks(32) {
        let mut n = 0;
        for run in chunk {
            let (gap, len1) = (run.start() - prev_end, run.len() - 1);
            if (gap | len1) < 0x80 {
                stage[n] = gap as u8;
                stage[n + 1] = len1 as u8;
                n += 2;
            } else {
                n = write_varint(&mut stage, n, gap);
                n = write_varint(&mut stage, n, len1);
            }
            prev_end = run.end_exclusive();
        }
        out.extend_from_slice(&stage[..n]);
    }
}

/// The tightest cheap upper bound on a row's run count: each run costs at
/// least two bytes on the wire (one gap varint, one length varint) and
/// covers at least one pixel of the row.
fn plausible_run_count(remaining_bytes: usize, width: Pixel) -> u64 {
    (remaining_bytes as u64 / 2).min(u64::from(width))
}

fn decode_row_body(data: &[u8], pos: &mut usize, width: Pixel) -> Result<RleRow, DecodeError> {
    let count = get_varint(data, pos)? as usize;
    let max_plausible = plausible_run_count(data.len() - *pos, width);
    if count as u64 > max_plausible {
        return Err(DecodeError::ImplausibleCount {
            declared: count as u64,
            max_plausible,
        });
    }
    // The cap above keeps `count` at most half the remaining bytes, so this
    // exact reservation is at most 4 × the remaining input (8-byte runs).
    let mut runs = Vec::with_capacity(count);
    let mut prev_end: u64 = 0;
    for index in 0..count {
        let (gap, len1) = match data.get(*pos..*pos + 2) {
            Some(&[gap, len1]) if (gap | len1) < 0x80 => {
                *pos += 2;
                (u32::from(gap), u32::from(len1))
            }
            _ => (get_varint(data, pos)?, get_varint(data, pos)?),
        };
        let start = prev_end + u64::from(gap);
        let end = start + u64::from(len1) + 1;
        if end > u64::from(width) {
            return Err(RleError::RunExceedsWidth { index, width }.into());
        }
        // A gap is never negative, so each run starts past the last one's
        // end: the width check above is the only one a run can fail.
        runs.push(Run::new(start as Pixel, len1 + 1));
        prev_end = end;
    }
    Ok(RleRow::from_checked_runs(width, runs))
}

/// Steps over a row body without building the row. The count is read and
/// capped exactly as [`decode_row_body`] caps it; each of the `2 × count`
/// varints after it ends in a byte with the high bit clear, so the body
/// ends at the `2 × count`-th such byte, found by counting them eight
/// bytes at a time.
fn skip_row_body(data: &[u8], pos: &mut usize, width: Pixel) -> Result<(), DecodeError> {
    let count = get_varint(data, pos)? as usize;
    let max_plausible = plausible_run_count(data.len() - *pos, width);
    if count as u64 > max_plausible {
        return Err(DecodeError::ImplausibleCount {
            declared: count as u64,
            max_plausible,
        });
    }
    // The cap keeps `2 × count` within the remaining bytes.
    let body = &data[*pos..];
    let mut left = 2 * count;
    let mut at = 0;
    for word in body.chunks_exact(8) {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        // A 1 in the low bit of each byte that ends a varint; the multiply
        // sums the eight of them into the top byte (cheaper than a
        // `count_ones` the baseline x86-64 target has no instruction for).
        let ends_mask = (!word & 0x8080_8080_8080_8080) >> 7;
        let ends = (ends_mask.wrapping_mul(0x0101_0101_0101_0101) >> 56) as usize;
        if ends >= left {
            break;
        }
        left -= ends;
        at += 8;
    }
    for &byte in &body[at..] {
        if left == 0 {
            break;
        }
        left -= usize::from(byte < 0x80);
        at += 1;
    }
    if left > 0 {
        return Err(DecodeError::Truncated);
    }
    *pos += at;
    Ok(())
}

/// Serializes a row into the compact binary format.
#[must_use]
pub fn encode_row(row: &RleRow) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + row.run_count() * 3);
    out.extend_from_slice(ROW_MAGIC);
    out.extend_from_slice(&row.width().to_le_bytes());
    encode_row_body(row, &mut out);
    out
}

/// Deserializes a row.
pub fn decode_row(data: &[u8]) -> Result<RleRow, DecodeError> {
    let mut pos = 0usize;
    expect_magic(data, &mut pos, ROW_MAGIC)?;
    let width = read_u32(data, &mut pos)?;
    let row = decode_row_body(data, &mut pos, width)?;
    Ok(row)
}

/// Serializes an image.
#[must_use]
pub fn encode_image(img: &RleImage) -> Vec<u8> {
    let mut out = Vec::new();
    encode_image_into(img, &mut out);
    out
}

/// Appends an image's encoding to `out`, for containers that frame RLI1
/// blobs in a buffer of their own (the `diffd` wire frames).
pub fn encode_image_into(img: &RleImage, out: &mut Vec<u8>) {
    // The size when every varint takes one byte: header, one count byte a
    // row, two bytes a run.
    out.reserve(13 + img.height() + 2 * img.total_runs());
    out.extend_from_slice(IMAGE_MAGIC);
    out.extend_from_slice(&img.width().to_le_bytes());
    put_varint(out, img.height() as u32);
    for row in img.rows() {
        encode_row_body(row, out);
    }
}

/// Deserializes an image.
pub fn decode_image(data: &[u8]) -> Result<RleImage, DecodeError> {
    let mut reader = RowReader::new(data)?;
    let mut rows = Vec::with_capacity(reader.rows_remaining());
    while let Some(row) = reader.next_row() {
        rows.push(row?);
    }
    Ok(RleImage::from_rows(reader.width(), rows)?)
}

/// Reads an image held in a slice row by row, building each row
/// ([`RowReader::next_row`]) or stepping over it ([`RowReader::skip_row`]).
/// [`decode_image`] is a loop of `next_row`; the delta archive's replay
/// skips the rows a newer record overwrites.
///
/// A skipped row is checked less than a decoded one. Its count gets the
/// same plausibility cap, and its body must hold `2 × count` complete
/// varints inside the slice, so `skip_row` fails only with `Truncated`,
/// `ImplausibleCount`, or `VarintOverflow` on the count. It does not
/// check a body varint for `VarintOverflow`, nor a run for
/// `RunExceedsWidth`: a skipped row never reaches any output, so nothing
/// it holds can make one wrong. In the archive its bytes are still covered
/// by its record's CRC, and `fsck` decodes every row in full. Wherever
/// decoding a row succeeds, skipping it succeeds and ends at the same
/// byte.
pub struct RowReader<'a> {
    data: &'a [u8],
    pos: usize,
    width: Pixel,
    remaining: usize,
}

impl<'a> RowReader<'a> {
    /// Reads and validates an `RLI1` header.
    pub fn new(data: &'a [u8]) -> Result<Self, DecodeError> {
        let mut pos = 0usize;
        expect_magic(data, &mut pos, IMAGE_MAGIC)?;
        let width = read_u32(data, &mut pos)?;
        let height = get_varint(data, &mut pos)? as usize;
        // Every row body costs at least one byte (its count varint), so a
        // height the remaining input cannot hold is rejected before any
        // allocation — a 5-byte crafted header cannot reserve gigabytes.
        let remaining = data.len() - pos;
        if height > remaining {
            return Err(DecodeError::ImplausibleCount {
                declared: height as u64,
                max_plausible: remaining as u64,
            });
        }
        Ok(Self {
            data,
            pos,
            width,
            remaining: height,
        })
    }

    /// Declared row width.
    #[must_use]
    pub fn width(&self) -> Pixel {
        self.width
    }

    /// Rows not yet read or skipped.
    #[must_use]
    pub fn rows_remaining(&self) -> usize {
        self.remaining
    }

    /// Byte offset of the next row body in the slice.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Decodes the next row; `None` once the declared height is exhausted.
    pub fn next_row(&mut self) -> Option<Result<RleRow, DecodeError>> {
        self.remaining = self.remaining.checked_sub(1)?;
        Some(decode_row_body(self.data, &mut self.pos, self.width))
    }

    /// Steps over the next row without building it (see the type docs for
    /// what is not checked); `None` once the declared height is exhausted.
    pub fn skip_row(&mut self) -> Option<Result<(), DecodeError>> {
        self.remaining = self.remaining.checked_sub(1)?;
        Some(skip_row_body(self.data, &mut self.pos, self.width))
    }
}

fn expect_magic(data: &[u8], pos: &mut usize, magic: &[u8; 4]) -> Result<(), DecodeError> {
    if data.len() < *pos + 4 {
        return Err(DecodeError::Truncated);
    }
    if &data[*pos..*pos + 4] != magic {
        return Err(DecodeError::BadMagic);
    }
    *pos += 4;
    Ok(())
}

fn read_u32(data: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    let bytes: [u8; 4] = data
        .get(*pos..*pos + 4)
        .ok_or(DecodeError::Truncated)?
        .try_into()
        .unwrap();
    *pos += 4;
    Ok(u32::from_le_bytes(bytes))
}

/// Size of the dense (1 bit/pixel) representation, for compression-ratio
/// reporting.
#[must_use]
pub fn dense_size_bytes(width: Pixel, height: usize) -> usize {
    (width as usize).div_ceil(8) * height
}

// ---------------------------------------------------------------------
// Streaming I/O — the "gigabytes of binary image data" regime the paper's
// introduction describes never materialises a whole image in memory; rows
// are produced, processed and consumed one at a time. The byte stream is
// identical to [`encode_image`] / [`decode_image`], which tests assert.
// ---------------------------------------------------------------------

use std::io::{self, Read, Write};

/// Writes an image row by row without holding it in memory.
pub struct ImageWriter<W: Write> {
    out: W,
    width: Pixel,
    remaining: usize,
    buf: Vec<u8>,
}

impl<W: Write> ImageWriter<W> {
    /// Starts a stream of exactly `height` rows of the given width.
    pub fn new(mut out: W, width: Pixel, height: usize) -> io::Result<Self> {
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(IMAGE_MAGIC);
        header.extend_from_slice(&width.to_le_bytes());
        put_varint(
            &mut header,
            u32::try_from(height).expect("height fits in u32"),
        );
        out.write_all(&header)?;
        Ok(Self {
            out,
            width,
            remaining: height,
            buf: Vec::new(),
        })
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the stream's, or if more rows
    /// are pushed than the declared height.
    pub fn write_row(&mut self, row: &RleRow) -> io::Result<()> {
        assert_eq!(row.width(), self.width, "row width must match the stream");
        assert!(
            self.remaining > 0,
            "stream already holds its declared height"
        );
        self.remaining -= 1;
        self.buf.clear();
        encode_row_body(row, &mut self.buf);
        self.out.write_all(&self.buf)
    }

    /// Finishes the stream, verifying the declared height was met, and
    /// returns the underlying writer.
    pub fn finish(self) -> io::Result<W> {
        if self.remaining != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} rows still owed to the stream", self.remaining),
            ));
        }
        Ok(self.out)
    }
}

/// Reads an image row by row. Wrap files in a `BufReader`; the decoder
/// reads a byte at a time.
pub struct ImageReader<R: Read> {
    input: R,
    width: Pixel,
    remaining: usize,
}

impl<R: Read> ImageReader<R> {
    /// Opens a stream, reading and validating the header.
    pub fn new(mut input: R) -> Result<Self, DecodeError> {
        let mut magic = [0u8; 4];
        input
            .read_exact(&mut magic)
            .map_err(|_| DecodeError::Truncated)?;
        if &magic != IMAGE_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let mut w = [0u8; 4];
        input
            .read_exact(&mut w)
            .map_err(|_| DecodeError::Truncated)?;
        let width = u32::from_le_bytes(w);
        let height = read_varint_io(&mut input)? as usize;
        Ok(Self {
            input,
            width,
            remaining: height,
        })
    }

    /// Declared row width.
    #[must_use]
    pub fn width(&self) -> Pixel {
        self.width
    }

    /// Rows not yet read.
    #[must_use]
    pub fn rows_remaining(&self) -> usize {
        self.remaining
    }

    /// Reads the next row; `None` once the declared height is exhausted.
    pub fn next_row(&mut self) -> Option<Result<RleRow, DecodeError>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.read_one())
    }

    fn read_one(&mut self) -> Result<RleRow, DecodeError> {
        let count = read_varint_io(&mut self.input)? as usize;
        // The stream's remaining length is unknown, but runs cover at least
        // one pixel each, so a count beyond the row width is corrupt.
        if count as u64 > u64::from(self.width) {
            return Err(DecodeError::ImplausibleCount {
                declared: count as u64,
                max_plausible: u64::from(self.width),
            });
        }
        let mut row = RleRow::new(self.width);
        let mut prev_end: u64 = 0;
        for _ in 0..count {
            let gap = u64::from(read_varint_io(&mut self.input)?);
            let len = u64::from(read_varint_io(&mut self.input)?) + 1;
            let start = prev_end + gap;
            if start + len > u64::from(self.width) {
                return Err(RleError::RunExceedsWidth {
                    index: row.run_count(),
                    width: self.width,
                }
                .into());
            }
            row.push_run(Run::new(start as Pixel, len as Pixel))?;
            prev_end = start + len;
        }
        Ok(row)
    }
}

fn read_varint_io(input: &mut impl Read) -> Result<u32, DecodeError> {
    let mut value: u32 = 0;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        input
            .read_exact(&mut byte)
            .map_err(|_| DecodeError::Truncated)?;
        let byte = byte[0];
        if shift > 28 || (shift == 28 && byte & 0x70 != 0) {
            return Err(DecodeError::VarintOverflow);
        }
        value |= u32::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pairs: &[(Pixel, Pixel)]) -> RleRow {
        RleRow::from_pairs(10_000, pairs).unwrap()
    }

    /// The byte-at-a-time codec the fast paths replaced, kept as the
    /// reference they must match byte for byte and error for error.
    mod oracle {
        use super::super::{expect_magic, plausible_run_count, read_u32, IMAGE_MAGIC, ROW_MAGIC};
        use super::*;

        fn put_varint(out: &mut Vec<u8>, mut v: u32) {
            loop {
                let byte = (v & 0x7F) as u8;
                v >>= 7;
                if v == 0 {
                    out.push(byte);
                    return;
                }
                out.push(byte | 0x80);
            }
        }

        fn get_varint(data: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
            let mut value: u32 = 0;
            let mut shift = 0u32;
            loop {
                let &byte = data.get(*pos).ok_or(DecodeError::Truncated)?;
                *pos += 1;
                if shift > 28 || (shift == 28 && byte & 0x70 != 0) {
                    return Err(DecodeError::VarintOverflow);
                }
                value |= u32::from(byte & 0x7F) << shift;
                if byte & 0x80 == 0 {
                    return Ok(value);
                }
                shift += 7;
            }
        }

        fn encode_row_body(row: &RleRow, out: &mut Vec<u8>) {
            put_varint(out, row.run_count() as u32);
            let mut prev_end: Pixel = 0;
            for run in row.runs() {
                put_varint(out, run.start() - prev_end);
                put_varint(out, run.len() - 1);
                prev_end = run.end_exclusive();
            }
        }

        fn decode_row_body(
            data: &[u8],
            pos: &mut usize,
            width: Pixel,
        ) -> Result<RleRow, DecodeError> {
            let count = get_varint(data, pos)? as usize;
            let max_plausible = plausible_run_count(data.len() - *pos, width);
            if count as u64 > max_plausible {
                return Err(DecodeError::ImplausibleCount {
                    declared: count as u64,
                    max_plausible,
                });
            }
            let mut row = RleRow::new(width);
            let mut prev_end: u64 = 0;
            for _ in 0..count {
                let gap = u64::from(get_varint(data, pos)?);
                let len = u64::from(get_varint(data, pos)?) + 1;
                let start = prev_end + gap;
                if start + len > u64::from(width) {
                    return Err(RleError::RunExceedsWidth {
                        index: row.run_count(),
                        width,
                    }
                    .into());
                }
                row.push_run(Run::new(start as Pixel, len as Pixel))?;
                prev_end = start + len;
            }
            Ok(row)
        }

        pub fn encode_row(row: &RleRow) -> Vec<u8> {
            let mut out = Vec::new();
            out.extend_from_slice(ROW_MAGIC);
            out.extend_from_slice(&row.width().to_le_bytes());
            encode_row_body(row, &mut out);
            out
        }

        pub fn decode_row(data: &[u8]) -> Result<RleRow, DecodeError> {
            let mut pos = 0usize;
            expect_magic(data, &mut pos, ROW_MAGIC)?;
            let width = read_u32(data, &mut pos)?;
            decode_row_body(data, &mut pos, width)
        }

        pub fn encode_image(img: &RleImage) -> Vec<u8> {
            let mut out = Vec::new();
            out.extend_from_slice(IMAGE_MAGIC);
            out.extend_from_slice(&img.width().to_le_bytes());
            put_varint(&mut out, img.height() as u32);
            for row in img.rows() {
                encode_row_body(row, &mut out);
            }
            out
        }

        pub fn decode_image(data: &[u8]) -> Result<RleImage, DecodeError> {
            let mut pos = 0usize;
            expect_magic(data, &mut pos, IMAGE_MAGIC)?;
            let width = read_u32(data, &mut pos)?;
            let height = get_varint(data, &mut pos)? as usize;
            let remaining = data.len() - pos;
            if height > remaining {
                return Err(DecodeError::ImplausibleCount {
                    declared: height as u64,
                    max_plausible: remaining as u64,
                });
            }
            let mut rows = Vec::with_capacity(height);
            for _ in 0..height {
                rows.push(decode_row_body(data, &mut pos, width)?);
            }
            Ok(RleImage::from_rows(width, rows)?)
        }
    }

    /// SplitMix64 step: the oracle tests' deterministic input stream.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random row mixing adjacent runs (gap 0), one-byte gaps and
    /// lengths, values either side of the one- and two-byte varint limits
    /// (127/128, 16383/16384), gaps ≥ 128 and runs ≥ 129 px, and — on wide
    /// rows — gaps and runs of millions of pixels.
    fn random_row(width: Pixel, max_runs: usize, state: &mut u64) -> RleRow {
        let draw = |state: &mut u64| match next(state) % 6 {
            0 => 0,
            1 => next(state) % 128,
            2 => [124, 16_380][(next(state) % 2) as usize] + next(state) % 8,
            3 => 128 + next(state) % 20_000,
            _ => next(state) % (u64::from(width) / 4 + 1),
        };
        let mut runs = Vec::new();
        let mut at = draw(state);
        while runs.len() < max_runs {
            let len = 1 + draw(state);
            if at + len > u64::from(width) {
                break;
            }
            runs.push(Run::new(at as Pixel, len as Pixel));
            at += len + draw(state);
        }
        RleRow::from_runs(width, runs).unwrap()
    }

    fn random_image(width: Pixel, height: usize, max_runs: usize, state: &mut u64) -> RleImage {
        let rows = (0..height)
            .map(|_| match next(state) % 5 {
                0 => RleRow::new(width),
                _ => random_row(width, max_runs, state),
            })
            .collect();
        RleImage::from_rows(width, rows).unwrap()
    }

    /// Skips and decodes the row body at `*pos` side by side. The skip
    /// stays inside the slice, succeeds wherever the decode does and then
    /// ends at the same byte, and fails only for want of bytes or on the
    /// count varint. Returns whether both succeeded; `*pos` then moves past
    /// the row.
    fn skip_matches_decode(data: &[u8], pos: &mut usize, width: Pixel) -> bool {
        let (mut skipped_to, mut decoded_to) = (*pos, *pos);
        let skipped = skip_row_body(data, &mut skipped_to, width);
        let decoded = decode_row_body(data, &mut decoded_to, width);
        assert!(skipped_to <= data.len(), "skip left the slice");
        match (skipped, decoded) {
            (Ok(()), Ok(_)) => {
                assert_eq!(skipped_to, decoded_to, "skip and decode end apart");
                *pos = skipped_to;
                true
            }
            // What a skip does not check: a body varint past 32 bits, a
            // run past the width.
            (Ok(()), Err(e)) => {
                assert!(
                    matches!(
                        e,
                        DecodeError::VarintOverflow
                            | DecodeError::Invalid(RleError::RunExceedsWidth { .. })
                    ),
                    "{e:?}"
                );
                false
            }
            (Err(e), decoded) => {
                assert!(decoded.is_err(), "skip failed ({e:?}) where decode did not");
                match e {
                    DecodeError::Truncated => {}
                    DecodeError::ImplausibleCount { .. } => assert_eq!(decoded, Err(e)),
                    DecodeError::VarintOverflow => {
                        let mut at = *pos;
                        assert_eq!(get_varint(data, &mut at), Err(e), "only on the count");
                    }
                    other => panic!("skip failed with {other:?}"),
                }
                false
            }
        }
    }

    /// [`skip_matches_decode`] over every row of `bytes`, read as an `RLR1`
    /// row or an `RLI1` image by its magic; for an image whose every row
    /// skips and decodes, [`RowReader::skip_row`] steps over the whole
    /// image to the byte where decoding it ends.
    fn skips_match_decodes(bytes: &[u8]) {
        let mut pos = 0;
        if expect_magic(bytes, &mut pos, ROW_MAGIC).is_ok() {
            if let Ok(width) = read_u32(bytes, &mut pos) {
                skip_matches_decode(bytes, &mut pos, width);
            }
            return;
        }
        let Ok(mut reader) = RowReader::new(bytes) else {
            return;
        };
        let (width, mut pos) = (reader.width(), reader.position());
        for _ in 0..reader.rows_remaining() {
            if !skip_matches_decode(bytes, &mut pos, width) {
                return;
            }
        }
        while let Some(skipped) = reader.skip_row() {
            assert_eq!(skipped, Ok(()));
        }
        assert_eq!(reader.position(), pos);
        assert_eq!(reader.next_row(), None);
    }

    /// Every cut and every single-bit flip of `bytes` decodes to the same
    /// `Result` through both codecs, and skips as it decodes.
    fn damaged_inputs_match_the_oracle(bytes: &[u8]) {
        for cut in 0..bytes.len() {
            let cut = &bytes[..cut];
            assert_eq!(decode_row(cut), oracle::decode_row(cut));
            assert_eq!(decode_image(cut), oracle::decode_image(cut));
            skips_match_decodes(cut);
        }
        let mut flipped = bytes.to_vec();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(decode_row(&flipped), oracle::decode_row(&flipped));
            assert_eq!(decode_image(&flipped), oracle::decode_image(&flipped));
            skips_match_decodes(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn codec_matches_the_per_byte_oracle() {
        let mut state = 0x5EED;
        let widths = [0, 1, 7, 200, 10_000, 1 << 20, u32::MAX - 1, u32::MAX];
        for &width in &widths {
            for _ in 0..20 {
                let img = random_image(width, 6, 12, &mut state);
                let bytes = encode_image(&img);
                assert_eq!(bytes, oracle::encode_image(&img), "width {width}");
                assert_eq!(decode_image(&bytes), Ok(img.clone()));
                let mut skipper = RowReader::new(&bytes).unwrap();
                while let Some(skipped) = skipper.skip_row() {
                    assert_eq!(skipped, Ok(()));
                }
                assert_eq!(skipper.position(), bytes.len(), "width {width}");
                skips_match_decodes(&bytes);
                for r in img.rows() {
                    let bytes = encode_row(r);
                    assert_eq!(bytes, oracle::encode_row(r), "width {width}");
                    assert_eq!(decode_row(&bytes), Ok(r.clone()));
                    skips_match_decodes(&bytes);
                }
            }
        }
        // Runs that end exactly at the widest width, and one past it: the
        // skip steps over the second as it does over the first.
        let edge = RleRow::from_pairs(u32::MAX, &[(0, 1), (u32::MAX - 3, 3)]).unwrap();
        let bytes = encode_row(&edge);
        assert_eq!(bytes, oracle::encode_row(&edge));
        assert_eq!(decode_row(&bytes), Ok(edge));
        skips_match_decodes(&bytes);
        let mut past = bytes.clone();
        *past.last_mut().unwrap() = 3; // length 4 from u32::MAX − 3
        assert!(matches!(
            decode_row(&past),
            Err(DecodeError::Invalid(RleError::RunExceedsWidth {
                index: 1,
                ..
            }))
        ));
        assert_eq!(decode_row(&past), oracle::decode_row(&past));
        let mut pos = 8;
        assert_eq!(skip_row_body(&past, &mut pos, u32::MAX), Ok(()));
        assert_eq!(pos, past.len());
    }

    #[test]
    fn damaged_and_garbage_inputs_decode_like_the_oracle() {
        let mut state = 0xF11B;
        for &width in &[0, 13, 300, 2_000, 70_000, u32::MAX] {
            for _ in 0..6 {
                let img = random_image(width, 4, 8, &mut state);
                damaged_inputs_match_the_oracle(&encode_image(&img));
                damaged_inputs_match_the_oracle(&encode_row(&random_row(width, 10, &mut state)));
            }
        }
        for _ in 0..500 {
            let len = (next(&mut state) % 64) as usize;
            let tail: Vec<u8> = (0..len).map(|_| next(&mut state) as u8).collect();
            for magic in [ROW_MAGIC, IMAGE_MAGIC] {
                let mut bytes = magic.to_vec();
                bytes.extend_from_slice(&tail);
                assert_eq!(decode_row(&bytes), oracle::decode_row(&bytes));
                assert_eq!(decode_image(&bytes), oracle::decode_image(&bytes));
                skips_match_decodes(&bytes);
            }
        }
    }

    #[test]
    fn row_round_trip() {
        let cases = [
            RleRow::new(0),
            RleRow::new(10_000),
            row(&[(0, 1)]),
            row(&[(0, 10_000)]),
            row(&[(3, 4), (8, 5), (15, 5), (23, 2), (9_990, 10)]),
            row(&[(0, 2), (2, 2), (4, 2)]), // adjacent (non-canonical) runs
        ];
        for original in cases {
            let bytes = encode_row(&original);
            let back = decode_row(&bytes).unwrap();
            assert_eq!(back, original);
        }
    }

    #[test]
    fn image_round_trip() {
        let rows = vec![
            row(&[(0, 5)]),
            RleRow::new(10_000),
            row(&[(100, 50), (9_000, 1_000)]),
        ];
        let img = RleImage::from_rows(10_000, rows).unwrap();
        let bytes = encode_image(&img);
        assert_eq!(decode_image(&bytes).unwrap(), img);
    }

    #[test]
    fn format_is_compact() {
        // Small gaps and lengths: ~2 bytes per run plus the header.
        let pairs: Vec<(Pixel, Pixel)> = (0..500).map(|i| (i * 20, 10)).collect();
        let r = RleRow::from_pairs(10_000, &pairs).unwrap();
        let bytes = encode_row(&r);
        assert!(
            bytes.len() < 9 + 500 * 3,
            "{} bytes for 500 runs",
            bytes.len()
        );
        // ... and far below the dense bitmap.
        assert!(bytes.len() < dense_size_bytes(10_000, 1));
    }

    #[test]
    fn varint_round_trips_across_sizes() {
        for v in [
            0u32,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX / 2,
            u32::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode_row(&row(&[(1, 2)]));
        bytes[0] = b'X';
        assert_eq!(decode_row(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = encode_row(&row(&[(3, 4), (100, 5)]));
        for cut in 0..bytes.len() {
            let err = decode_row(&bytes[..cut]).unwrap_err();
            // A cut right after the count varint leaves too few bytes for
            // the declared runs, which the plausibility cap reports.
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated
                        | DecodeError::BadMagic
                        | DecodeError::ImplausibleCount { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_implausible_run_count() {
        // Header declares u32::MAX runs backed by two bytes of payload.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(ROW_MAGIC);
        bytes.extend_from_slice(&10_000u32.to_le_bytes());
        put_varint(&mut bytes, u32::MAX);
        bytes.extend_from_slice(&[0, 0]);
        assert!(matches!(
            decode_row(&bytes),
            Err(DecodeError::ImplausibleCount {
                declared,
                max_plausible: 1,
            }) if declared == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn rejects_run_count_beyond_width() {
        // Plenty of bytes, but more runs than the row has pixels.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(ROW_MAGIC);
        bytes.extend_from_slice(&4u32.to_le_bytes());
        put_varint(&mut bytes, 5); // 5 runs in a 4-pixel row
        bytes.extend_from_slice(&[0; 16]);
        assert!(matches!(
            decode_row(&bytes),
            Err(DecodeError::ImplausibleCount {
                declared: 5,
                max_plausible: 4,
            })
        ));
    }

    #[test]
    fn rejects_implausible_image_height() {
        // A 13-byte "image" declaring ~256M rows must be rejected before
        // any allocation happens.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(IMAGE_MAGIC);
        bytes.extend_from_slice(&100u32.to_le_bytes());
        put_varint(&mut bytes, u32::MAX / 16);
        assert!(bytes.len() < 16, "the crafted header stays tiny");
        assert!(matches!(
            decode_image(&bytes),
            Err(DecodeError::ImplausibleCount {
                max_plausible: 0,
                ..
            })
        ));
    }

    #[test]
    fn streaming_reader_rejects_implausible_count() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(IMAGE_MAGIC);
        bytes.extend_from_slice(&8u32.to_le_bytes());
        put_varint(&mut bytes, 1); // one row...
        put_varint(&mut bytes, 200); // ...claiming 200 runs in 8 pixels
        let mut reader = ImageReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            reader.next_row().unwrap(),
            Err(DecodeError::ImplausibleCount {
                declared: 200,
                max_plausible: 8,
            })
        ));
    }

    #[test]
    fn rejects_runs_past_width() {
        // Hand-craft a row whose run exceeds the declared width.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(ROW_MAGIC);
        bytes.extend_from_slice(&8u32.to_le_bytes());
        put_varint(&mut bytes, 1); // one run
        put_varint(&mut bytes, 5); // gap 5
        put_varint(&mut bytes, 9); // len 10 -> exceeds width 8
        assert!(matches!(decode_row(&bytes), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn rejects_varint_overflow() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(ROW_MAGIC);
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]); // 6-byte varint
        assert_eq!(decode_row(&bytes), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn display_messages() {
        assert!(DecodeError::BadMagic.to_string().contains("magic"));
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        let implausible = DecodeError::ImplausibleCount {
            declared: 1_000,
            max_plausible: 3,
        }
        .to_string();
        assert!(implausible.contains("1000") && implausible.contains("3"));
        assert!(DecodeError::Invalid(RleError::OutOfOrder { index: 1 })
            .to_string()
            .contains("invalid"));
    }

    #[test]
    fn streaming_writer_matches_batch_encoder() {
        let rows = vec![
            row(&[(0, 5)]),
            RleRow::new(10_000),
            row(&[(100, 50), (9_000, 1_000)]),
        ];
        let img = RleImage::from_rows(10_000, rows.clone()).unwrap();
        let mut w = ImageWriter::new(Vec::new(), 10_000, 3).unwrap();
        for r in &rows {
            w.write_row(r).unwrap();
        }
        let streamed = w.finish().unwrap();
        assert_eq!(
            streamed,
            encode_image(&img),
            "byte-identical to the batch format"
        );
    }

    #[test]
    fn streaming_reader_round_trips() {
        let rows = vec![
            row(&[(3, 4), (8, 5)]),
            row(&[(0, 10_000)]),
            RleRow::new(10_000),
        ];
        let img = RleImage::from_rows(10_000, rows.clone()).unwrap();
        let bytes = encode_image(&img);
        let mut reader = ImageReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.width(), 10_000);
        assert_eq!(reader.rows_remaining(), 3);
        for want in &rows {
            assert_eq!(&reader.next_row().unwrap().unwrap(), want);
        }
        assert!(reader.next_row().is_none());
        assert_eq!(reader.rows_remaining(), 0);
    }

    #[test]
    fn streaming_writer_enforces_height() {
        let w = ImageWriter::new(Vec::new(), 100, 2).unwrap();
        assert!(w.finish().is_err(), "finishing short must fail");

        let mut w = ImageWriter::new(Vec::new(), 100, 1).unwrap();
        w.write_row(&RleRow::new(100)).unwrap();
        assert!(w.finish().is_ok());
    }

    #[test]
    #[should_panic(expected = "declared height")]
    fn streaming_writer_rejects_extra_rows() {
        let mut w = ImageWriter::new(Vec::new(), 100, 1).unwrap();
        w.write_row(&RleRow::new(100)).unwrap();
        let _ = w.write_row(&RleRow::new(100));
    }

    #[test]
    fn streaming_reader_rejects_garbage() {
        assert!(matches!(
            ImageReader::new(&b"XXXX"[..]),
            Err(DecodeError::BadMagic)
        ));
        assert!(matches!(
            ImageReader::new(&b"RL"[..]),
            Err(DecodeError::Truncated)
        ));
        // Truncated mid-row.
        let img = RleImage::from_rows(100, vec![row(&[(3, 4)]).crop(0, 100)]).unwrap();
        let bytes = encode_image(&img);
        let mut reader = ImageReader::new(&bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(
            reader.next_row().unwrap(),
            Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn streaming_pipeline_diff_without_materializing() {
        // Two "gigabyte-scale" streams (shrunk): diff row by row, write the
        // mask stream, never holding an image.
        let width = 5_000u32;
        let mut base_rows = Vec::new();
        for i in 0..20u32 {
            base_rows.push(row(&[(i * 7 % 4_000, 30), (4_500, 100)]).crop(0, width));
        }
        let img_a = RleImage::from_rows(width, base_rows.clone()).unwrap();
        let img_b = {
            let mut rows = base_rows.clone();
            rows[7] = rows[7].crop(0, width); // identical
            rows[13] = row(&[(1, 2)]).crop(0, width); // changed
            RleImage::from_rows(width, rows).unwrap()
        };
        let (bytes_a, bytes_b) = (encode_image(&img_a), encode_image(&img_b));

        let mut ra = ImageReader::new(&bytes_a[..]).unwrap();
        let mut rb = ImageReader::new(&bytes_b[..]).unwrap();
        let mut out = ImageWriter::new(Vec::new(), width, 20).unwrap();
        while let (Some(a), Some(b)) = (ra.next_row(), rb.next_row()) {
            let diff = crate::ops::xor(&a.unwrap(), &b.unwrap());
            out.write_row(&diff).unwrap();
        }
        let mask_bytes = out.finish().unwrap();
        let mask = decode_image(&mask_bytes).unwrap();
        assert_eq!(mask, img_a.xor(&img_b).unwrap());
    }

    #[test]
    fn dense_size() {
        assert_eq!(dense_size_bytes(8, 10), 10);
        assert_eq!(dense_size_bytes(9, 10), 20);
        assert_eq!(dense_size_bytes(0, 10), 0);
    }
}
