//! The `diffd` wire protocol: length-prefixed frames carrying RLE images.
//!
//! The paper's compressed representation survives from client to kernel —
//! image payloads are exactly the `rle::serialize` container (`RLI1`), so
//! the server never densifies at the boundary. Framing is deliberately
//! minimal and hostile-input-first:
//!
//! ```text
//! frame   := magic "DFD1" | kind:u8 | len:u32le | payload[len]
//! ```
//!
//! Hardening rules, mirroring `rle::serialize`'s plausibility caps:
//!
//! * The header is fixed-size ([`FRAME_HEADER_LEN`]) and validated —
//!   magic, known kind, `len <= max_frame_len` — **before** any payload
//!   byte is read or any buffer sized from `len` is allocated.
//! * Payload buffers start at most [`PREALLOC_CAP`] bytes and grow with
//!   *received* bytes, so an attacker's claimed length can never reserve
//!   memory it did not pay for on the wire. A connection may read every
//!   frame into one reused buffer ([`read_frame_into`]).
//! * Image payloads go through [`rle::serialize::decode_image`], which
//!   applies its own pre-allocation plausibility caps per row.
//!
//! Every malformed input maps to a typed [`ProtoError`]; nothing in this
//! module panics on wire data.

use std::io::Read;

use rle::serialize::{self, DecodeError};
use rle::RleImage;

/// Frame magic: protocol "DFD", version 1.
pub const FRAME_MAGIC: [u8; 4] = *b"DFD1";

/// Fixed frame header size: 4-byte magic, 1-byte kind, 4-byte payload
/// length (little endian).
pub const FRAME_HEADER_LEN: usize = 9;

/// Default ceiling on a frame's declared payload length. Large enough for
/// a pair of pathological megapixel RLE images, small enough that one
/// connection cannot claim unbounded memory.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Largest buffer capacity ever reserved from a *claimed* (unreceived)
/// length. Everything beyond this is allocated only as bytes arrive.
pub const PREALLOC_CAP: usize = 64 * 1024;

/// Frame discriminants. Requests live below `0x80`, responses above.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: diff two images (payload: [`DiffRequest`]).
    Diff = 0x01,
    /// Client → server: liveness probe (empty payload).
    Ping = 0x02,
    /// Client → server: fetch the Prometheus exposition (empty payload).
    Metrics = 0x03,
    /// Server → client: successful diff (payload: [`DiffReply`]).
    DiffOk = 0x81,
    /// Server → client: typed failure (payload: [`ErrorReply`]).
    Error = 0x82,
    /// Server → client: answer to [`FrameKind::Ping`] (empty payload).
    Pong = 0x83,
    /// Server → client: Prometheus text (payload: UTF-8).
    MetricsText = 0x84,
}

impl FrameKind {
    /// Decodes a kind byte; unknown values are a protocol error, never a
    /// panic.
    pub fn from_u8(v: u8) -> Result<Self, ProtoError> {
        Ok(match v {
            0x01 => Self::Diff,
            0x02 => Self::Ping,
            0x03 => Self::Metrics,
            0x81 => Self::DiffOk,
            0x82 => Self::Error,
            0x83 => Self::Pong,
            0x84 => Self::MetricsText,
            other => return Err(ProtoError::UnknownKind(other)),
        })
    }

    /// True for the kinds a *client* may send.
    #[must_use]
    pub fn is_request(self) -> bool {
        (self as u8) < 0x80
    }
}

/// Failure classes a [`FrameKind::Error`] reply carries. The code is the
/// contract; the message is advisory detail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request violated the wire protocol; the server closes the
    /// connection after sending this.
    Protocol = 1,
    /// Admission control shed the request (or connection) under load.
    /// Retry later, ideally with backoff.
    Overloaded = 2,
    /// The request's deadline expired before the batch finished; its rows
    /// were abandoned behind the pipeline's ticket watermark.
    DeadlineExceeded = 3,
    /// A row exhausted its retry budget (`SystolicError::RowFailed`).
    RowFailed = 4,
    /// The two images have different widths or heights.
    Mismatch = 5,
    /// Any other server-side failure.
    Internal = 6,
    /// The server is draining for shutdown and admits no new requests.
    ShuttingDown = 7,
}

impl ErrorCode {
    /// Decodes a code byte.
    pub fn from_u8(v: u8) -> Result<Self, ProtoError> {
        Ok(match v {
            1 => Self::Protocol,
            2 => Self::Overloaded,
            3 => Self::DeadlineExceeded,
            4 => Self::RowFailed,
            5 => Self::Mismatch,
            6 => Self::Internal,
            7 => Self::ShuttingDown,
            other => return Err(ProtoError::UnknownErrorCode(other)),
        })
    }
}

/// Every way wire input can be rejected. All variants are produced by
/// validation — adversarial bytes can reach any of them but none panics.
#[derive(Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The first four bytes were not [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// Declared payload length exceeds the negotiated ceiling. Raised
    /// before any allocation or payload read.
    FrameTooLarge {
        /// Length the header claimed.
        declared: u32,
        /// Ceiling the receiver enforces.
        max: u32,
    },
    /// The stream ended (or the slice ran out) before the declared bytes
    /// arrived.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// A structurally invalid payload (bad internal lengths or layout).
    Malformed(&'static str),
    /// The embedded RLE image failed `rle::serialize`'s hardened decoder.
    Image(DecodeError),
    /// An error reply carried an unknown code byte.
    UnknownErrorCode(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            Self::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            Self::FrameTooLarge { declared, max } => {
                write!(f, "declared payload of {declared} bytes exceeds cap {max}")
            }
            Self::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            Self::Malformed(what) => write!(f, "malformed payload: {what}"),
            Self::Image(e) => write!(f, "embedded image rejected: {e}"),
            Self::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> Self {
        Self::Image(e)
    }
}

/// A `Diff` request: a caller-chosen correlation id, a deadline, and the
/// two images still in their wire encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRequest {
    /// Echoed verbatim in the response so clients can pipeline requests.
    pub request_id: u64,
    /// Wall-clock budget in milliseconds; `0` asks for the server default.
    /// The server clamps it to its configured maximum.
    pub deadline_ms: u32,
    /// First operand.
    pub a: RleImage,
    /// Second operand.
    pub b: RleImage,
}

/// A successful diff: the request id it answers, the pipeline ticket range
/// `[ticket_lo, ticket_hi)` the batch occupied (one ticket per row — the
/// connection-to-pipeline mapping made visible), and the diff image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffReply {
    /// The [`DiffRequest::request_id`] this answers.
    pub request_id: u64,
    /// First pipeline ticket of the batch.
    pub ticket_lo: u64,
    /// One past the last pipeline ticket of the batch.
    pub ticket_hi: u64,
    /// Nanoseconds this request's job waited between submission and its
    /// first chunk checkout — executor queueing, not compute. Per-request,
    /// so load tools can split their latency percentiles without scraping
    /// the server-wide histograms.
    pub queue_wait_ns: u64,
    /// Nanoseconds from admission to completion minus the queue wait: the
    /// time the request spent actually being diffed (plus result
    /// collection).
    pub compute_ns: u64,
    /// The XOR difference image, RLE-encoded.
    pub image: RleImage,
}

/// A typed failure reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// The request id this answers (`0` when no request was parsed, e.g. a
    /// protocol error mid-header).
    pub request_id: u64,
    /// Failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

fn u32le(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

fn u64le(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn need(data: &[u8], n: usize) -> Result<(), ProtoError> {
    if data.len() < n {
        return Err(ProtoError::Truncated {
            needed: n,
            have: data.len(),
        });
    }
    Ok(())
}

/// Assembles a full frame (header + payload).
///
/// # Panics
///
/// Panics if `payload` exceeds `u32::MAX` bytes — a programming error on
/// the sending side, unreachable from wire input.
#[must_use]
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    write_frame(&mut out, kind, |out| out.extend_from_slice(payload));
    out
}

/// Appends a full frame to `out`: the header, then the payload that
/// `write_payload` appends in place, then the payload length patched into
/// the header. The one frame writer; [`encode_frame`] wraps it.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes (see [`encode_frame`]).
pub fn write_frame(out: &mut Vec<u8>, kind: FrameKind, write_payload: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(kind as u8);
    out.extend_from_slice(&[0; 4]);
    write_payload(out);
    let len = u32::try_from(out.len() - header - FRAME_HEADER_LEN)
        .expect("payload fits a u32 length prefix");
    out[header + 5..header + FRAME_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

/// Validates a frame header. Called on exactly [`FRAME_HEADER_LEN`] bytes;
/// returns the kind and the declared payload length.
pub fn decode_header(header: &[u8], max_frame_len: u32) -> Result<(FrameKind, u32), ProtoError> {
    need(header, FRAME_HEADER_LEN)?;
    if header[..4] != FRAME_MAGIC {
        return Err(ProtoError::BadMagic(
            header[..4].try_into().expect("4 bytes"),
        ));
    }
    let kind = FrameKind::from_u8(header[4])?;
    let len = u32le(&header[5..9]);
    if len > max_frame_len {
        return Err(ProtoError::FrameTooLarge {
            declared: len,
            max: max_frame_len,
        });
    }
    Ok((kind, len))
}

/// Encodes a [`DiffRequest`] payload:
/// `request_id:u64le | deadline_ms:u32le | a_len:u32le | a | b`.
#[must_use]
pub fn encode_diff_request(req: &DiffRequest) -> Vec<u8> {
    let mut out = Vec::new();
    write_diff_request(&mut out, req.request_id, req.deadline_ms, &req.a, &req.b);
    out
}

/// Appends a [`DiffRequest`] payload built from borrowed images, encoding
/// each straight into `out` and patching `a_len` once `a` is written. The
/// one request writer; [`encode_diff_request`] wraps it.
///
/// # Panics
///
/// Panics if `a` encodes to more than `u32::MAX` bytes.
pub fn write_diff_request(
    out: &mut Vec<u8>,
    request_id: u64,
    deadline_ms: u32,
    a: &RleImage,
    b: &RleImage,
) {
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&deadline_ms.to_le_bytes());
    let a_at = out.len() + 4;
    out.extend_from_slice(&[0; 4]);
    serialize::encode_image_into(a, out);
    let a_len = u32::try_from(out.len() - a_at).expect("image encoding fits a u32");
    out[a_at - 4..a_at].copy_from_slice(&a_len.to_le_bytes());
    serialize::encode_image_into(b, out);
}

/// Decodes a [`DiffRequest`] payload, enforcing the internal length split
/// before touching image bytes. The embedded images inherit every
/// plausibility cap of `rle::serialize::decode_image`.
pub fn decode_diff_request(payload: &[u8]) -> Result<DiffRequest, ProtoError> {
    need(payload, 16)?;
    let request_id = u64le(&payload[0..8]);
    let deadline_ms = u32le(&payload[8..12]);
    let a_len = u32le(&payload[12..16]) as usize;
    let rest = &payload[16..];
    if a_len > rest.len() {
        return Err(ProtoError::Truncated {
            needed: 16 + a_len,
            have: payload.len(),
        });
    }
    let a = serialize::decode_image(&rest[..a_len])?;
    let b = serialize::decode_image(&rest[a_len..])?;
    Ok(DiffRequest {
        request_id,
        deadline_ms,
        a,
        b,
    })
}

/// Encodes a [`DiffReply`] payload:
/// `request_id:u64le | ticket_lo:u64le | ticket_hi:u64le |
/// queue_wait_ns:u64le | compute_ns:u64le | image`.
#[must_use]
pub fn encode_diff_reply(reply: &DiffReply) -> Vec<u8> {
    let mut out = Vec::new();
    write_diff_reply(&mut out, reply);
    out
}

/// Appends a [`DiffReply`] payload, encoding the image straight into
/// `out`. The one reply writer; [`encode_diff_reply`] wraps it.
pub fn write_diff_reply(out: &mut Vec<u8>, reply: &DiffReply) {
    out.extend_from_slice(&reply.request_id.to_le_bytes());
    out.extend_from_slice(&reply.ticket_lo.to_le_bytes());
    out.extend_from_slice(&reply.ticket_hi.to_le_bytes());
    out.extend_from_slice(&reply.queue_wait_ns.to_le_bytes());
    out.extend_from_slice(&reply.compute_ns.to_le_bytes());
    serialize::encode_image_into(&reply.image, out);
}

/// Decodes a [`DiffReply`] payload.
pub fn decode_diff_reply(payload: &[u8]) -> Result<DiffReply, ProtoError> {
    need(payload, 40)?;
    Ok(DiffReply {
        request_id: u64le(&payload[0..8]),
        ticket_lo: u64le(&payload[8..16]),
        ticket_hi: u64le(&payload[16..24]),
        queue_wait_ns: u64le(&payload[24..32]),
        compute_ns: u64le(&payload[32..40]),
        image: serialize::decode_image(&payload[40..])?,
    })
}

/// Encodes an [`ErrorReply`] payload: `request_id:u64le | code:u8 | msg`.
#[must_use]
pub fn encode_error_reply(reply: &ErrorReply) -> Vec<u8> {
    let msg = reply.message.as_bytes();
    let mut out = Vec::with_capacity(9 + msg.len());
    out.extend_from_slice(&reply.request_id.to_le_bytes());
    out.push(reply.code as u8);
    out.extend_from_slice(msg);
    out
}

/// Decodes an [`ErrorReply`] payload. The message is decoded lossily so a
/// mangled reply still surfaces its code.
pub fn decode_error_reply(payload: &[u8]) -> Result<ErrorReply, ProtoError> {
    need(payload, 9)?;
    Ok(ErrorReply {
        request_id: u64le(&payload[0..8]),
        code: ErrorCode::from_u8(payload[8])?,
        message: String::from_utf8_lossy(&payload[9..]).into_owned(),
    })
}

/// Reads one frame from a blocking stream.
///
/// Returns `Ok(None)` on a clean EOF *at a frame boundary* (the peer hung
/// up between frames); EOF anywhere inside a frame is
/// [`ProtoError::Truncated`]. The payload buffer's initial capacity is
/// capped at [`PREALLOC_CAP`] and grows only as bytes actually arrive.
pub fn read_frame(
    stream: &mut impl Read,
    max_frame_len: u32,
) -> Result<Option<(FrameKind, Vec<u8>)>, FrameReadError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(stream, max_frame_len, &mut payload)?.map(|kind| (kind, payload)))
}

/// [`read_frame`] into a caller's buffer: the payload replaces `buf`'s
/// contents, so a connection can read every frame into one buffer. The
/// buffer grows only as bytes arrive.
pub fn read_frame_into(
    stream: &mut impl Read,
    max_frame_len: u32,
    buf: &mut Vec<u8>,
) -> Result<Option<FrameKind>, FrameReadError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < header.len() {
        let n = stream
            .read(&mut header[got..])
            .map_err(FrameReadError::Io)?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(FrameReadError::Proto(ProtoError::Truncated {
                needed: FRAME_HEADER_LEN,
                have: got,
            }));
        }
        got += n;
    }
    let (kind, len) = decode_header(&header, max_frame_len).map_err(FrameReadError::Proto)?;
    let len = len as usize;
    buf.clear();
    while buf.len() < len {
        match read_payload_part(stream, buf, len) {
            Ok(0) => {
                return Err(FrameReadError::Proto(ProtoError::Truncated {
                    needed: len,
                    have: buf.len(),
                }))
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    Ok(Some(kind))
}

/// Reads more of a `len`-byte payload straight into `buf`, which holds the
/// bytes received so far, and returns how many arrived (0 at end of
/// stream). A read error, a socket's read timeout included, keeps the bytes
/// that came before it. The buffer grows only when full, by what it holds
/// (at least [`PREALLOC_CAP`]) and never past `len`: its size follows the
/// bytes received, not the length claimed.
pub(crate) fn read_payload_part(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    len: usize,
) -> std::io::Result<usize> {
    if buf.len() == buf.capacity() {
        buf.reserve_exact((len - buf.len()).min(buf.len().max(PREALLOC_CAP)));
    }
    let room = (buf.capacity() - buf.len()).min(len - buf.len());
    stream.by_ref().take(room as u64).read_to_end(buf)
}

/// I/O-or-protocol failure while reading a frame.
#[derive(Debug)]
pub enum FrameReadError {
    /// Transport failure.
    Io(std::io::Error),
    /// Wire-format violation.
    Proto(ProtoError),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error reading frame: {e}"),
            Self::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rle::RleRow;

    fn image() -> RleImage {
        let rows = vec![
            RleRow::from_pairs(24, &[(0, 3), (10, 5)]).unwrap(),
            RleRow::from_pairs(24, &[(4, 4)]).unwrap(),
        ];
        RleImage::from_rows(24, rows).unwrap()
    }

    #[test]
    fn diff_request_round_trips() {
        let req = DiffRequest {
            request_id: 7,
            deadline_ms: 1500,
            a: image(),
            b: image(),
        };
        let payload = encode_diff_request(&req);
        assert_eq!(decode_diff_request(&payload).unwrap(), req);
    }

    /// The request writer `DiffClient` uses, framed in place behind other
    /// bytes, equals the owned encoder's frame; its `a_len` split holds the
    /// per-image encodings.
    #[test]
    fn borrowing_request_writer_matches_the_owned_frame() {
        use workload::{errors, ErrorModel, GenParams, RowGenerator};
        let mut state = 0xF7A3_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 16
        };
        for i in 0..24 {
            let width = [1, 64, 1_000, 16_384][i % 4];
            let gen = GenParams::for_density(width, 0.05 + (next() % 40) as f64 / 100.0);
            let a = RowGenerator::new(gen, next()).next_image((next() % 9) as usize);
            let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.05), next());
            let req = DiffRequest {
                request_id: next() << i,
                deadline_ms: next() as u32,
                a,
                b,
            };
            let prefix = (next() % 12) as usize;
            let mut out = vec![0xA5; prefix];
            write_frame(&mut out, FrameKind::Diff, |out| {
                write_diff_request(out, req.request_id, req.deadline_ms, &req.a, &req.b);
            });
            let payload = encode_diff_request(&req);
            assert_eq!(
                out[prefix..],
                encode_frame(FrameKind::Diff, &payload),
                "case {i}"
            );
            let a_bytes = serialize::encode_image(&req.a);
            assert_eq!(u32le(&payload[12..16]) as usize, a_bytes.len());
            assert_eq!(payload[16..16 + a_bytes.len()], a_bytes);
            assert_eq!(
                payload[16 + a_bytes.len()..],
                serialize::encode_image(&req.b)
            );
            assert_eq!(decode_diff_request(&payload).unwrap(), req);
        }
    }

    #[test]
    fn diff_reply_and_error_round_trip() {
        let reply = DiffReply {
            request_id: 9,
            ticket_lo: 40,
            ticket_hi: 42,
            queue_wait_ns: 12_345,
            compute_ns: 678_900,
            image: image(),
        };
        let payload = encode_diff_reply(&reply);
        assert_eq!(decode_diff_reply(&payload).unwrap(), reply);

        let err = ErrorReply {
            request_id: 9,
            code: ErrorCode::Overloaded,
            message: "busy".into(),
        };
        assert_eq!(decode_error_reply(&encode_error_reply(&err)).unwrap(), err);
    }

    #[test]
    fn frame_round_trips_through_a_stream() {
        let bytes = encode_frame(FrameKind::Ping, &[]);
        let mut cur = std::io::Cursor::new(bytes);
        let (kind, payload) = read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert_eq!(kind, FrameKind::Ping);
        assert!(payload.is_empty());
        // Clean EOF at the boundary.
        assert!(read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .is_none());
    }

    #[test]
    fn oversize_claim_is_rejected_before_any_payload_read() {
        let mut header = Vec::new();
        header.extend_from_slice(&FRAME_MAGIC);
        header.push(FrameKind::Diff as u8);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_header(&header, DEFAULT_MAX_FRAME_LEN).unwrap_err();
        assert_eq!(
            err,
            ProtoError::FrameTooLarge {
                declared: u32::MAX,
                max: DEFAULT_MAX_FRAME_LEN
            }
        );
    }
}
