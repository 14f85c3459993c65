//! Length-prefixed, CRC-protected binary framing and primitive codecs,
//! over an abstract byte-stream [`Transport`].
//!
//! Frame layout: `u32` big-endian payload length, `u32` big-endian CRC-32
//! (IEEE) of the payload, then the payload. The payload is encoded with the
//! [`Encode`]/[`Decode`] traits below — a small hand-rolled binary format
//! (fixed-width integers big-endian, f64 as IEEE bits, strings and vectors
//! length-prefixed) so the workspace needs no serialization framework
//! beyond `bytes`.
//!
//! The CRC is the fault-injection hardening: a frame whose payload was
//! corrupted or truncated in flight decodes to [`WireError::Corrupt`]
//! instead of mis-parsing into a structurally valid but wrong message (a
//! truncated `f64` rate, say, is otherwise indistinguishable from a real
//! one). Oversized length headers are rejected before any allocation.
//!
//! [`Transport`] abstracts the byte stream ([`TcpStream`] in production)
//! so the fault-injection harness can interpose an in-process proxy or a
//! wrapped stream without the endpoints knowing.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Registry handles for the wire metric family. Frames move on many
/// threads concurrently (controller per-connection handlers, broker
/// reader/writer splits), so these are metrics only — counter adds
/// commute, trace events would interleave nondeterministically.
struct WireMetrics {
    frames_sent: Arc<bate_obs::Counter>,
    frames_received: Arc<bate_obs::Counter>,
    bytes_sent: Arc<bate_obs::Counter>,
    bytes_received: Arc<bate_obs::Counter>,
    corrupt: Arc<bate_obs::Counter>,
    malformed: Arc<bate_obs::Counter>,
}

fn wire_metrics() -> &'static WireMetrics {
    static M: OnceLock<WireMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = bate_obs::Registry::global();
        WireMetrics {
            frames_sent: r.counter("bate_wire_frames_sent_total"),
            frames_received: r.counter("bate_wire_frames_received_total"),
            bytes_sent: r.counter("bate_wire_bytes_sent_total"),
            bytes_received: r.counter("bate_wire_bytes_received_total"),
            corrupt: r.counter("bate_wire_corrupt_frames_total"),
            malformed: r.counter("bate_wire_malformed_frames_total"),
        }
    })
}

/// Maximum accepted frame size; anything larger is a protocol violation.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bit 31 of the length word flags an optional 16-byte trace context
/// between the 8-byte header and the payload. Real payload lengths are
/// bounded by [`MAX_FRAME`] (2²⁴), so the flag bit can never be part of
/// a legitimate length — which is what makes the header extension
/// backward-compatible: frames from pre-context senders never have it
/// set, and new decoders accept both shapes.
pub const CTX_FLAG: u32 = 0x8000_0000;

/// Size of the optional trace-context header extension.
pub const CTX_BYTES: usize = 16;

/// The causal identity a frame carries: the sender's trace and span, so
/// the receiver can parent its own spans on the sender's
/// ([`bate_obs::context::adopt`]). `parent_span_id` never travels — it
/// is derivable on the sender and meaningless to the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameCtx {
    pub trace_id: u64,
    pub span_id: u64,
}

impl FrameCtx {
    /// The calling thread's current span context, if inside a trace —
    /// what senders stamp onto outgoing frames.
    pub fn current() -> Option<FrameCtx> {
        let ctx = bate_obs::context::current();
        if ctx.is_some() {
            Some(FrameCtx {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
            })
        } else {
            None
        }
    }

    fn to_bytes(self) -> [u8; CTX_BYTES] {
        let mut b = [0u8; CTX_BYTES];
        b[..8].copy_from_slice(&self.trace_id.to_be_bytes());
        b[8..].copy_from_slice(&self.span_id.to_be_bytes());
        b
    }

    fn from_bytes(b: &[u8]) -> FrameCtx {
        FrameCtx {
            trace_id: u64::from_be_bytes(b[..8].try_into().unwrap()),
            span_id: u64::from_be_bytes(b[8..CTX_BYTES].try_into().unwrap()),
        }
    }
}

/// Errors surfaced by the codec.
#[derive(Debug)]
pub enum WireError {
    Io(io::Error),
    /// Frame exceeded [`MAX_FRAME`] or was otherwise malformed.
    Malformed(String),
    /// Frame-level CRC mismatch: bytes arrived but were damaged in flight.
    Corrupt { expected: u32, got: u32 },
    /// The peer closed the connection cleanly.
    Closed,
}

impl WireError {
    /// True for errors a bounded-retry caller should treat as transient
    /// (timeouts and interrupted reads), as opposed to protocol
    /// violations.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            )
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Corrupt { expected, got } => {
                write!(f, "corrupt frame: crc {got:#010x}, expected {expected:#010x}")
            }
            WireError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// An abstract bidirectional byte stream: what the control plane actually
/// requires from its connections. [`TcpStream`] is the production
/// implementation; the fault-injection harness provides wrapped streams
/// that drop, delay, corrupt, or sever traffic.
pub trait Transport: Read + Write + Send {
    /// A second, independently usable handle to the same stream (the
    /// reader/writer split both `Broker` and `Controller` rely on).
    fn try_clone_box(&self) -> io::Result<Box<dyn Transport>>;

    /// Tear down both directions; concurrent reads unblock with EOF.
    fn shutdown_both(&self) -> io::Result<()>;

    /// Bound subsequent reads; `None` restores blocking reads.
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn try_clone_box(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, t)
    }
}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Encode a value into a buffer.
pub trait Encode {
    fn encode(&self, buf: &mut BytesMut);
}

/// Decode a value from a buffer.
pub trait Decode: Sized {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;
}

fn need(buf: &Bytes, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Malformed(format!(
            "need {n} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

macro_rules! int_codec {
    ($ty:ty, $put:ident, $get:ident, $n:expr) => {
        impl Encode for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
        }
        impl Decode for $ty {
            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                need(buf, $n)?;
                Ok(buf.$get())
            }
        }
    };
}

int_codec!(u8, put_u8, get_u8, 1);
int_codec!(u32, put_u32, get_u32, 4);
int_codec!(u64, put_u64, get_u64, 8);

impl Encode for f64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f64(*self);
    }
}

impl Decode for f64 {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        need(buf, 8)?;
        Ok(buf.get_f64())
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
}

impl Decode for bool {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed(format!("bad bool byte {b}"))),
        }
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        buf.put_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = u32::decode(buf)? as usize;
        need(buf, len)?;
        let bytes = buf.split_to(len);
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Malformed(format!("bad utf8: {e}")))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = u32::decode(buf)? as usize;
        if len > MAX_FRAME {
            return Err(WireError::Malformed(format!("vector of {len} elements")));
        }
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

/// Encode `msg` into the full frame bytes (header + CRC + payload).
/// Shared by [`write_frame`] and the fault proxy, which needs to
/// re-frame messages it parsed off the wire.
pub fn encode_frame<T: Encode>(msg: &T) -> Result<Vec<u8>, WireError> {
    encode_frame_ctx(msg, None)
}

/// [`encode_frame`] with an optional trace context carried in the
/// header extension (see [`CTX_FLAG`]). The CRC covers the context
/// bytes *and* the payload, so in-flight damage to either is detected.
pub fn encode_frame_ctx<T: Encode>(
    msg: &T,
    ctx: Option<FrameCtx>,
) -> Result<Vec<u8>, WireError> {
    let mut payload = BytesMut::new();
    msg.encode(&mut payload);
    if payload.len() > MAX_FRAME {
        return Err(WireError::Malformed(format!(
            "frame too large: {}",
            payload.len()
        )));
    }
    Ok(match ctx {
        None => encode_raw_frame(None, &payload, crc32(&payload)),
        Some(c) => encode_raw_frame(Some(c), &payload, frame_crc(Some(c), &payload)),
    })
}

/// The CRC a well-formed frame must carry: over the context bytes (when
/// present) followed by the payload. What the fault proxy uses to
/// re-frame forwarded traffic without stripping its trace context.
pub fn frame_crc(ctx: Option<FrameCtx>, payload: &[u8]) -> u32 {
    match ctx {
        None => crc32(payload),
        Some(c) => {
            let mut input = Vec::with_capacity(CTX_BYTES + payload.len());
            input.extend_from_slice(&c.to_bytes());
            input.extend_from_slice(payload);
            crc32(&input)
        }
    }
}

/// Assemble raw frame bytes from pre-computed parts (an explicit CRC so
/// the fault proxy can forward deliberately damaged frames verbatim).
pub fn encode_raw_frame(ctx: Option<FrameCtx>, payload: &[u8], crc: u32) -> Vec<u8> {
    let ctx_len = if ctx.is_some() { CTX_BYTES } else { 0 };
    let mut out = Vec::with_capacity(8 + ctx_len + payload.len());
    let len_word = payload.len() as u32 | if ctx.is_some() { CTX_FLAG } else { 0 };
    out.extend_from_slice(&len_word.to_be_bytes());
    out.extend_from_slice(&crc.to_be_bytes());
    if let Some(c) = ctx {
        out.extend_from_slice(&c.to_bytes());
    }
    out.extend_from_slice(payload);
    out
}

/// Write one frame (blocking).
pub fn write_frame<T: Encode, S: Write + ?Sized>(stream: &mut S, msg: &T) -> Result<(), WireError> {
    write_frame_ctx(stream, msg, None)
}

/// Write one frame stamped with a trace context (blocking). Passing
/// `FrameCtx::current()` propagates the calling thread's span across
/// the connection.
pub fn write_frame_ctx<T: Encode, S: Write + ?Sized>(
    stream: &mut S,
    msg: &T,
    ctx: Option<FrameCtx>,
) -> Result<(), WireError> {
    let frame = encode_frame_ctx(msg, ctx)?;
    stream.write_all(&frame)?;
    stream.flush()?;
    let m = wire_metrics();
    m.frames_sent.inc();
    m.bytes_sent.add(frame.len() as u64);
    Ok(())
}

/// Read one raw frame payload (header-validated, CRC-checked),
/// discarding any trace context. [`WireError::Closed`] on clean EOF at
/// a frame boundary.
pub fn read_frame_bytes<S: Read + ?Sized>(stream: &mut S) -> Result<Bytes, WireError> {
    read_raw_frame(stream).map(|(_, payload)| payload)
}

/// Read one raw frame, preserving its trace context (what the fault
/// proxy uses so re-framed traffic keeps end-to-end causality).
pub fn read_raw_frame<S: Read + ?Sized>(
    stream: &mut S,
) -> Result<(Option<FrameCtx>, Bytes), WireError> {
    let out = read_frame_bytes_inner(stream);
    note_frame_read(out.as_ref());
    out
}

/// Book what a reader made of the stream in the `bate_wire_*` family: a
/// frame received, or a damaged one.
fn note_frame_read(out: Result<&(Option<FrameCtx>, Bytes), &WireError>) {
    let m = wire_metrics();
    match out {
        Ok((ctx, payload)) => {
            m.frames_received.inc();
            // Header + optional ctx + payload, mirroring what the peer
            // counted as sent.
            let ctx_len = if ctx.is_some() { CTX_BYTES as u64 } else { 0 };
            m.bytes_received.add(8 + ctx_len + payload.len() as u64);
        }
        Err(WireError::Corrupt { .. }) => m.corrupt.inc(),
        Err(WireError::Malformed(_)) => m.malformed.inc(),
        // Io and Closed are connection-lifecycle outcomes, not frame
        // damage; the retry layers count those.
        Err(_) => {}
    }
}

/// Decode the 8-byte header — length word (payload length, [`CTX_FLAG`]),
/// CRC word over everything after the header — into `(has_ctx, len, crc)`.
/// A length over [`MAX_FRAME`] is rejected before anything is allocated
/// or buffered for it.
fn parse_header(head: &[u8]) -> Result<(bool, usize, u32), WireError> {
    let len_word = u32::from_be_bytes(head[0..4].try_into().unwrap());
    let len = (len_word & !CTX_FLAG) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Malformed(format!("frame of {len} bytes")));
    }
    let crc = u32::from_be_bytes(head[4..8].try_into().unwrap());
    Ok((len_word & CTX_FLAG != 0, len, crc))
}

/// Check `body` — the context extension, if flagged, then the payload:
/// exactly what the sender's CRC covered — and split the context off,
/// leaving the payload.
fn open_body(has_ctx: bool, crc: u32, body: &mut Bytes) -> Result<Option<FrameCtx>, WireError> {
    let got = crc32(body);
    if got != crc {
        return Err(WireError::Corrupt { expected: crc, got });
    }
    Ok(has_ctx.then(|| FrameCtx::from_bytes(&body.split_to(CTX_BYTES))))
}

fn read_frame_bytes_inner<S: Read + ?Sized>(
    stream: &mut S,
) -> Result<(Option<FrameCtx>, Bytes), WireError> {
    let mut head = [0u8; 8];
    let mut filled = 0usize;
    while filled < head.len() {
        match stream.read(&mut head[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Err(WireError::Closed)
                } else {
                    // Connection died inside the header: a severed frame,
                    // not a clean close.
                    Err(WireError::Malformed(format!(
                        "eof after {filled} header bytes"
                    )))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return if filled == 0 {
                    Err(WireError::Closed)
                } else {
                    Err(WireError::Malformed(format!(
                        "eof after {filled} header bytes"
                    )))
                };
            }
            Err(e) => return Err(e.into()),
        }
    }
    let (has_ctx, len, crc) = parse_header(&head)?;
    let ctx_len = if has_ctx { CTX_BYTES } else { 0 };
    let mut body = vec![0u8; ctx_len + len];
    stream.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Malformed(format!("eof inside {len}-byte payload"))
        } else {
            WireError::Io(e)
        }
    })?;
    let mut body = Bytes::from(body);
    Ok((open_body(has_ctx, crc, &mut body)?, body))
}

/// Read one frame (blocking) and decode it. [`WireError::Closed`] on clean
/// EOF at a frame boundary; typed errors (never a panic or a silent
/// mis-parse) on truncated, oversized, or corrupted frames.
pub fn read_frame<T: Decode, S: Read + ?Sized>(stream: &mut S) -> Result<T, WireError> {
    read_frame_ctx(stream).map(|(_, msg)| msg)
}

/// [`read_frame`] that also surfaces the sender's trace context (if the
/// frame carried one), so receivers can adopt it and parent their spans
/// on the sender's.
pub fn read_frame_ctx<T: Decode, S: Read + ?Sized>(
    stream: &mut S,
) -> Result<(Option<FrameCtx>, T), WireError> {
    let (ctx, bytes) = read_raw_frame(stream)?;
    Ok((ctx, decode_payload(bytes)?))
}

/// Decode a full frame payload into a message, rejecting trailing bytes
/// (a decode that consumes less than the frame carried means the peer
/// and we disagree about the schema — surface it, don't ignore it).
pub fn decode_payload<T: Decode>(mut bytes: Bytes) -> Result<T, WireError> {
    let msg = T::decode(&mut bytes)?;
    if bytes.has_remaining() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes",
            bytes.remaining()
        )));
    }
    Ok(msg)
}

/// Account an outgoing frame that bypassed [`write_frame_ctx`] (the
/// event-driven plane queues pre-encoded frames into connection write
/// buffers), keeping the `bate_wire_*` counters consistent across both
/// planes.
pub(crate) fn note_frame_sent(frame_len: usize) {
    let m = wire_metrics();
    m.frames_sent.inc();
    m.bytes_sent.add(frame_len as u64);
}

/// Incremental frame assembly for nonblocking readers: feed raw byte
/// chunks in with [`FrameAssembler::push`], pull complete frames out with
/// [`FrameAssembler::next_frame`]. This is the same wire grammar as
/// [`read_raw_frame`], decoded by the same two steps, behind a buffer
/// instead of a blocking read, so a connection that delivers one byte per
/// poll wakeup costs buffer space, never a blocked thread. Metric
/// accounting is the blocking reader's: completed frames count as
/// received, damaged ones as corrupt/malformed.
#[derive(Default)]
pub struct FrameAssembler {
    buf: BytesMut,
}

impl FrameAssembler {
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Append freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet assembled into a frame. Nonzero after
    /// [`FrameAssembler::next_frame`] drains means the peer is mid-frame —
    /// the signal the controller's slow-loris reaper keys on.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Extract the next complete frame, `Ok(None)` if more bytes are
    /// needed. Errors (oversized header, CRC mismatch) leave the stream
    /// unsynchronized, exactly like the blocking reader: the caller must
    /// drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<(Option<FrameCtx>, Bytes)>, WireError> {
        if self.buf.len() < 8 {
            return Ok(None);
        }
        let header = parse_header(&self.buf[..8]);
        let (has_ctx, len, crc) = header.inspect_err(|e| note_frame_read(Err(e)))?;
        let total = 8 + len + if has_ctx { CTX_BYTES } else { 0 };
        if self.buf.len() < total {
            return Ok(None);
        }
        let mut body = self.buf.split_to(total).freeze();
        body.advance(8);
        let frame = open_body(has_ctx, crc, &mut body).map(|ctx| (ctx, body));
        note_frame_read(frame.as_ref());
        frame.map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        let mut bytes = buf.freeze();
        let back = T::decode(&mut bytes).unwrap();
        assert_eq!(v, back);
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(std::f64::consts::PI);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(false);
        roundtrip("hello → world".to_string());
        roundtrip(String::new());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = BytesMut::new();
        12345u64.encode(&mut buf);
        let mut short = buf.freeze().slice(0..4);
        assert!(matches!(
            u64::decode(&mut short),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn decode_rejects_bad_bool() {
        let mut bytes = Bytes::from_static(&[7]);
        assert!(matches!(
            bool::decode(&mut bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn corrupted_payload_is_detected() {
        let frame = encode_frame(&0xDEAD_BEEF_0BAD_F00Du64).unwrap();
        // Flip one payload bit.
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let err = read_frame::<u64, _>(&mut &bad[..]).unwrap_err();
        assert!(matches!(err, WireError::Corrupt { .. }), "got {err}");
        // The pristine frame still decodes.
        assert_eq!(read_frame::<u64, _>(&mut &frame[..]).unwrap(), 0xDEAD_BEEF_0BAD_F00Du64);
    }

    #[test]
    fn oversized_length_header_is_rejected_before_allocation() {
        // A header claiming a 2 GiB payload must error out immediately,
        // not hang waiting for bytes or attempt the allocation.
        let mut raw = Vec::new();
        raw.extend_from_slice(&(2u32 << 30).to_be_bytes());
        raw.extend_from_slice(&0u32.to_be_bytes());
        let err = read_frame::<u64, _>(&mut &raw[..]).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "got {err}");
    }

    #[test]
    fn truncated_frame_returns_typed_error_not_hang() {
        // A frame severed mid-payload: the reader sees EOF inside the
        // payload and reports Malformed (pre-hardening this mis-read
        // garbage lengths or propagated a bare Io error).
        let frame = encode_frame(&vec![1u64, 2, 3]).unwrap();
        let cut = &frame[..frame.len() - 5];
        let err = read_frame::<Vec<u64>, _>(&mut &cut[..]).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "got {err}");
        // Severed inside the header (not at a frame boundary) is also
        // distinguished from a clean close.
        let err = read_frame::<Vec<u64>, _>(&mut &frame[..3]).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "got {err}");
        // A clean close at a boundary is Closed.
        let err = read_frame::<Vec<u64>, _>(&mut &frame[..0]).unwrap_err();
        assert!(matches!(err, WireError::Closed), "got {err}");
    }

    #[test]
    fn ctx_frame_roundtrips_and_legacy_frames_read_as_none() {
        let ctx = FrameCtx {
            trace_id: 0x1122_3344_5566_7788,
            span_id: 0x99AA_BBCC_DDEE_FF00,
        };
        let frame = encode_frame_ctx(&vec![7u64, 8, 9], Some(ctx)).unwrap();
        // The flag bit is set in the length word, and the ctx bytes sit
        // between the header and the payload.
        assert_ne!(frame[0] & 0x80, 0);
        let (got_ctx, msg): (_, Vec<u64>) = read_frame_ctx(&mut &frame[..]).unwrap();
        assert_eq!(got_ctx, Some(ctx));
        assert_eq!(msg, vec![7, 8, 9]);
        // Ctx-blind readers still decode the same payload.
        let msg: Vec<u64> = read_frame(&mut &frame[..]).unwrap();
        assert_eq!(msg, vec![7, 8, 9]);
        // Legacy frames (no flag) surface `None`.
        let legacy = encode_frame(&vec![7u64, 8, 9]).unwrap();
        assert_eq!(legacy[0] & 0x80, 0);
        let (got_ctx, msg): (_, Vec<u64>) = read_frame_ctx(&mut &legacy[..]).unwrap();
        assert!(got_ctx.is_none());
        assert_eq!(msg, vec![7, 8, 9]);
    }

    #[test]
    fn ctx_bytes_are_crc_protected() {
        let ctx = FrameCtx {
            trace_id: 42,
            span_id: 43,
        };
        let frame = encode_frame_ctx(&1u64, Some(ctx)).unwrap();
        // Flip a bit inside the ctx extension (bytes 8..24).
        let mut bad = frame.clone();
        bad[10] ^= 0x01;
        let err = read_frame_ctx::<u64, _>(&mut &bad[..]).unwrap_err();
        assert!(matches!(err, WireError::Corrupt { .. }), "got {err}");
    }

    #[test]
    fn frames_over_tcp() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let v: Vec<u64> = read_frame(&mut conn).unwrap();
            write_frame(&mut conn, &v.iter().sum::<u64>()).unwrap();
            // Next read observes the client's clean close.
            assert!(matches!(
                read_frame::<u64, _>(&mut conn),
                Err(WireError::Closed)
            ));
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &vec![1u64, 2, 3]).unwrap();
        let sum: u64 = read_frame(&mut stream).unwrap();
        assert_eq!(sum, 6);
        drop(stream);
        handle.join().unwrap();
    }

    #[test]
    fn assembler_reassembles_byte_by_byte() {
        // The slow-loris shape: frames arriving one byte at a time must
        // assemble into exactly the frames the blocking reader would see.
        let ctx = FrameCtx {
            trace_id: 11,
            span_id: 22,
        };
        let mut stream_bytes = encode_frame_ctx(&vec![1u64, 2, 3], Some(ctx)).unwrap();
        stream_bytes.extend(encode_frame(&"second".to_string()).unwrap());

        let mut asm = FrameAssembler::new();
        let mut got: Vec<(Option<FrameCtx>, Bytes)> = Vec::new();
        for b in stream_bytes {
            asm.push(&[b]);
            while let Some(frame) = asm.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, Some(ctx));
        assert_eq!(
            decode_payload::<Vec<u64>>(got[0].1.clone()).unwrap(),
            vec![1, 2, 3]
        );
        assert!(got[1].0.is_none());
        assert_eq!(
            decode_payload::<String>(got[1].1.clone()).unwrap(),
            "second"
        );
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn transport_object_safety() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let token: u64 = read_frame(&mut conn).unwrap();
            write_frame(&mut conn, &token).unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut boxed: Box<dyn Transport> = Box::new(stream);
        let mut clone = boxed.try_clone_box().unwrap();
        write_frame(&mut *boxed, &99u64).unwrap();
        let echoed: u64 = read_frame(&mut *clone).unwrap();
        assert_eq!(echoed, 99);
        handle.join().unwrap();
    }
}
