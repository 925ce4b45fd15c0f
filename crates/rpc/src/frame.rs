//! The length-prefixed binary wire protocol between PS and workers.
//!
//! Every message is one frame (little-endian):
//!
//! ```text
//! magic   "MAMDRRPC1"            9 bytes
//! version u8   (= WIRE_VERSION)  op-codes are versioned by this byte
//! opcode  u8
//! flags   u8
//! seq     u64                    request id, echoed by the response
//! len     u32                    payload length, <= MAX_PAYLOAD
//! payload len bytes
//! digest  u64                    XXH64 over version..payload (not magic)
//! ```
//!
//! Design points:
//!
//! * **Checksummed.** The trailing [`digest`] covers the header (after the
//!   magic) and the payload, so a flipped bit anywhere in a frame is a
//!   typed [`FrameError::Checksum`] — never a silently corrupted update.
//!   It is XXH64, word-at-a-time: every byte on the wire is hashed twice
//!   (send and receive), so the digest runs at memory speed.
//! * **Length-capped.** `len` is validated against [`MAX_PAYLOAD`] *before*
//!   any payload allocation; attacker-controlled declared lengths cannot
//!   make the decoder over-allocate.
//! * **One payload codec.** Payloads are field lists over
//!   `mamdr_util::codec`'s `Writer` / `Reader`: every count is checked
//!   against the payload bytes left before it sizes a vector, and f32
//!   sections are written as one block copy on little-endian hosts.
//! * **Sequence-numbered.** `seq` pairs responses with requests (a client
//!   discards stale responses after a retry) and makes pushes idempotent:
//!   the server applies each `(client, seq)` push at most once.

use mamdr_ps::ParamKey;
use mamdr_util::codec::{CodecError, Reader, Writer};
use mamdr_util::xxh64;
use std::io::{Read, Write};

/// The 9-byte frame magic.
pub const MAGIC: &[u8; 9] = b"MAMDRRPC1";

/// Wire-protocol version. Bumped whenever op-codes, payload layouts or the
/// frame digest change; a peer rejects frames from a different version
/// with a typed [`FrameError::UnsupportedVersion`] instead of misparsing
/// them. Version 2 is the vectorized `PullMany`/`PushMany` family
/// (multi-row payloads, one frame per key batch instead of one per key).
/// Version 3 keeps version 2's layout, op-codes and lengths byte for byte
/// and changes only the trailing digest, from byte-serial FNV-1a to XXH64
/// ([`digest`]). No frame outlives its process, so there is no dual-digest
/// decoder: a version-2 frame is refused.
pub const WIRE_VERSION: u8 = 3;

/// Hard cap on a frame's declared payload length (16 MiB). Validated
/// before allocation: a malicious or corrupt length field cannot force an
/// absurd allocation.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// Bytes of framing around the payload: 9 magic + 1 version + 1 opcode +
/// 1 flags + 8 seq + 4 len + 8 digest.
pub const FRAME_OVERHEAD: usize = 32;

/// The frame digest: XXH64 of the 15 header bytes after the magic, which
/// seeds XXH64 of the payload. The one definition both directions — and
/// every test that forges a well-formed frame — call.
pub fn digest(head: &[u8; 15], payload: &[u8]) -> u64 {
    xxh64(payload, xxh64(head, 0))
}

/// Trace flag, the one flag a frame may carry (bit 0 belonged to the
/// retired version-only pull probe and is never reused): the payload is
/// prefixed by a [`TraceContext`] extension ([`TRACE_EXT_LEN`] bytes)
/// carrying the sender's trace/span ids, so a server-side span can parent
/// to the worker-side span that caused it.
/// The extension is stripped (and the flag cleared) by
/// [`Frame::take_trace_context`] before any payload codec runs; frames
/// without the flag are byte-identical to the untraced protocol.
pub const FLAG_TRACE: u8 = 0b0000_0010;

/// Version byte of the trace-context extension (independent of
/// [`WIRE_VERSION`] so the extension can evolve without a protocol bump).
pub const TRACE_EXT_VERSION: u8 = 1;

/// Encoded size of the trace-context extension: 1 version + 8 trace id +
/// 8 span id.
pub const TRACE_EXT_LEN: usize = 17;

/// The trace identity a traced request carries across the wire: which
/// trace the request belongs to and which sender-side span is the logical
/// parent of all server-side work it causes. Retries re-send the *same*
/// context (the logical span's), so deduplicated and retried attempts all
/// land under one logical span in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id shared by every causally related span.
    pub trace_id: u64,
    /// The sender-side logical span the receiver parents to.
    pub span_id: u64,
}

impl TraceContext {
    /// Encodes the extension (version byte + ids, little-endian).
    pub fn encode(&self) -> [u8; TRACE_EXT_LEN] {
        let mut out = [0u8; TRACE_EXT_LEN];
        out[0] = TRACE_EXT_VERSION;
        out[1..9].copy_from_slice(&self.trace_id.to_le_bytes());
        out[9..17].copy_from_slice(&self.span_id.to_le_bytes());
        out
    }

    /// Decodes the extension, rejecting unknown extension versions.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(MAGIC, bytes);
        let version = r.u8()?;
        if version != TRACE_EXT_VERSION {
            return Err(r.corrupt(format!("unknown trace extension version {version}")).into());
        }
        let ctx = TraceContext { trace_id: r.u64()?, span_id: r.u64()? };
        r.finish()?;
        Ok(ctx)
    }
}

/// Operation codes, unchanged since wire version 2 but for retirements.
/// Bytes 1–4 belonged to the retired single-row `Pull`/`PullOk`/`Push`/
/// `PushOk`, and bytes 5 and 6 to the retired round barrier
/// (`BarrierSync`/`BarrierOk`, whose rendezvous the driver's supervisor
/// is). They stay unassigned — they decode to [`FrameError::UnknownOpcode`]
/// like any other undefined byte, and the surviving op-codes keep their
/// values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Worker → PS: snapshot the store to the server's checkpoint dir.
    Checkpoint = 7,
    /// PS → worker: checkpoint written (payload carries the path).
    CheckpointOk = 8,
    /// Driver → PS: begin graceful drain.
    Shutdown = 9,
    /// PS → driver: drain acknowledged.
    ShutdownOk = 10,
    /// PS → worker: request-level failure (message payload).
    Error = 11,
    /// Worker → PS: read many rows in one frame.
    PullMany = 12,
    /// PS → worker: versions + concatenated values for a `PullMany`.
    PullManyOk = 13,
    /// Worker → PS: apply many outer-gradient rows atomically (one seq
    /// dedups the whole batch).
    PushMany = 14,
    /// PS → worker: batch push acknowledged (applied or deduplicated).
    PushManyOk = 15,
}

impl OpCode {
    /// Every op-code of the current wire version, in byte order. This is
    /// the single table both wire directions share: encode casts the
    /// variant (`as u8`), decode scans this table — adding a variant here
    /// makes it decodable, and a variant missing from the table fails the
    /// exhaustive roundtrip test, so the two directions cannot drift.
    pub const ALL: [OpCode; 9] = [
        OpCode::Checkpoint,
        OpCode::CheckpointOk,
        OpCode::Shutdown,
        OpCode::ShutdownOk,
        OpCode::Error,
        OpCode::PullMany,
        OpCode::PullManyOk,
        OpCode::PushMany,
        OpCode::PushManyOk,
    ];

    /// Decodes an op-code byte of the current wire version by table
    /// lookup — the inverse of `op as u8`.
    pub fn from_byte(b: u8) -> Result<Self, FrameError> {
        OpCode::ALL.iter().copied().find(|op| *op as u8 == b).ok_or(FrameError::UnknownOpcode(b))
    }
}

/// A decode/transport error. Every way untrusted bytes can be malformed
/// maps to a typed variant — the decoder never panics.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure (includes truncation mid-frame).
    Io(std::io::Error),
    /// The stream does not start with [`MAGIC`].
    BadMagic([u8; 9]),
    /// The frame's version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The op-code byte is not defined in this wire version.
    UnknownOpcode(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// The frame [`digest`] does not match the received bytes.
    Checksum { stored: u64, computed: u64 },
    /// A payload body is shorter/longer than its op-code requires.
    Malformed(String),
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(e) => FrameError::Io(e),
            CodecError::Corrupt(m) => FrameError::Malformed(m),
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::UnknownOpcode(b) => write!(f, "unknown op-code {b}"),
            FrameError::TooLarge(n) => {
                write!(f, "declared payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            FrameError::Checksum { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            FrameError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One wire frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Operation code.
    pub opcode: OpCode,
    /// Frame flags: [`FLAG_TRACE`] or nothing. A server refuses a request
    /// with any other bit set.
    pub flags: u8,
    /// Request id; responses echo the request's `seq`.
    pub seq: u64,
    /// Op-specific payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with no flags.
    pub fn new(opcode: OpCode, seq: u64, payload: Vec<u8>) -> Self {
        Frame { opcode, flags: 0, seq, payload }
    }

    /// Prepends a trace-context extension to the payload and sets
    /// [`FLAG_TRACE`]. The inverse of [`Frame::take_trace_context`].
    pub fn with_trace_context(mut self, ctx: TraceContext) -> Self {
        let mut payload = Vec::with_capacity(TRACE_EXT_LEN + self.payload.len());
        payload.extend_from_slice(&ctx.encode());
        payload.append(&mut self.payload);
        self.payload = payload;
        self.flags |= FLAG_TRACE;
        self
    }

    /// Splits the trace-context extension off the payload when
    /// [`FLAG_TRACE`] is set, clearing the flag — afterwards the frame is
    /// byte-equivalent to its untraced form, so payload codecs and
    /// traffic accounting see identical bytes with tracing on or off.
    pub fn take_trace_context(&mut self) -> Result<Option<TraceContext>, FrameError> {
        if self.flags & FLAG_TRACE == 0 {
            return Ok(None);
        }
        if self.payload.len() < TRACE_EXT_LEN {
            return Err(FrameError::Malformed(format!(
                "FLAG_TRACE set but payload has only {} bytes",
                self.payload.len()
            )));
        }
        let ctx = TraceContext::decode(&self.payload[..TRACE_EXT_LEN])?;
        self.payload.drain(..TRACE_EXT_LEN);
        self.flags &= !FLAG_TRACE;
        Ok(Some(ctx))
    }

    /// Total encoded size in bytes.
    pub fn wire_len(&self) -> usize {
        FRAME_OVERHEAD + self.payload.len()
    }

    /// Encodes the frame into `w`.
    pub fn encode(&self, mut w: impl Write) -> Result<(), FrameError> {
        if self.payload.len() > MAX_PAYLOAD as usize {
            return Err(FrameError::TooLarge(self.payload.len() as u32));
        }
        let mut head = [0u8; 15];
        head[0] = WIRE_VERSION;
        head[1] = self.opcode as u8;
        head[2] = self.flags;
        head[3..11].copy_from_slice(&self.seq.to_le_bytes());
        head[11..15].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        w.write_all(MAGIC)?;
        w.write_all(&head)?;
        w.write_all(&self.payload)?;
        w.write_all(&digest(&head, &self.payload).to_le_bytes())?;
        Ok(())
    }

    /// Encodes into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode(&mut buf).expect("Vec write is infallible");
        buf
    }

    /// Decodes one frame from `r`.
    ///
    /// Validation order matters for robustness against untrusted bytes:
    /// magic, version and the length cap are all checked *before* the
    /// payload allocation, and the digest is verified before the op-code
    /// is read and before the frame is handed to any payload parser.
    pub fn decode(mut r: impl Read) -> Result<Self, FrameError> {
        Self::read_magic(&mut r)?;
        Self::decode_after_magic(&mut r)
    }

    /// Like [`Frame::decode`], but also reports how long decoding took
    /// *after* the frame's first bytes arrived — i.e. header parsing,
    /// payload read, checksum verification — excluding the (potentially
    /// long) wait for the peer to start sending. This is the number the
    /// wire-overhead attribution wants: deserialization cost, not
    /// request/response latency.
    pub fn decode_timed(mut r: impl Read) -> Result<(Self, std::time::Duration), FrameError> {
        Self::read_magic(&mut r)?;
        let start = std::time::Instant::now();
        let frame = Self::decode_after_magic(&mut r)?;
        Ok((frame, start.elapsed()))
    }

    fn read_magic(r: &mut impl Read) -> Result<(), FrameError> {
        let mut magic = [0u8; 9];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        Ok(())
    }

    fn decode_after_magic(r: &mut impl Read) -> Result<Self, FrameError> {
        let mut head = [0u8; 15];
        r.read_exact(&mut head)?;
        if head[0] != WIRE_VERSION {
            return Err(FrameError::UnsupportedVersion(head[0]));
        }
        let opcode_byte = head[1];
        let flags = head[2];
        let seq = u64::from_le_bytes(head[3..11].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(head[11..15].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Err(FrameError::TooLarge(len));
        }
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        let mut digest_bytes = [0u8; 8];
        r.read_exact(&mut digest_bytes)?;
        let stored = u64::from_le_bytes(digest_bytes);
        let computed = digest(&head, &payload);
        if stored != computed {
            return Err(FrameError::Checksum { stored, computed });
        }
        // The op-code is validated *after* the checksum so corruption inside
        // the opcode byte reports as corruption, not as a protocol gap.
        let opcode = OpCode::from_byte(opcode_byte)?;
        Ok(Frame { opcode, flags, seq, payload })
    }
}

// ---------------------------------------------------------------------------
// Payload codecs: field lists over `mamdr_util::codec`. A decode error is
// `FrameError::Malformed` naming the frame magic.
// ---------------------------------------------------------------------------

/// A `u32` key count, then `table ‖ row` per key.
fn read_keys(r: &mut Reader) -> Result<Vec<ParamKey>, CodecError> {
    let n = r.u32()?;
    r.counted(n.into(), 8, ParamKey::read_from)
}

fn write_keys(w: &mut Writer, keys: &[ParamKey]) {
    w.u32(keys.len() as u32);
    for key in keys {
        key.write_to(w);
    }
}

/// A `u32` value count, then the values as one f32 section.
fn read_counted_f32s(r: &mut Reader) -> Result<Vec<f32>, CodecError> {
    let n = r.u32()?;
    r.f32s(n.into())
}

fn write_counted_f32s(w: &mut Writer, values: &[f32]) {
    w.u32(values.len() as u32).f32s(values);
}

/// `PushManyOk` response payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushResp {
    /// False when the push was recognized as a duplicate and skipped —
    /// the retry saw its original already applied.
    pub applied: bool,
}

impl PushResp {
    /// Encodes into a payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        vec![self.applied as u8]
    }

    /// Decodes from a payload buffer.
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(MAGIC, payload);
        let resp = PushResp { applied: r.u8()? != 0 };
        r.finish()?;
        Ok(resp)
    }
}

/// `Checkpoint` request payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReq {
    /// Round label baked into the checkpoint filename.
    pub round: u64,
}

impl CheckpointReq {
    /// Encodes into a payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        self.round.to_le_bytes().to_vec()
    }

    /// Decodes from a payload buffer.
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(MAGIC, payload);
        let req = CheckpointReq { round: r.u64()? };
        r.finish()?;
        Ok(req)
    }
}

/// `PullMany` request payload: a key-sorted batch of rows to read in one
/// round trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PullManyReq {
    /// The rows to read, sorted by `(table, row)` by the caller.
    pub keys: Vec<ParamKey>,
}

impl PullManyReq {
    /// Encodes into a payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_from(&self.keys)
    }

    /// Encodes the payload of a request for `keys` straight from the
    /// caller's slice: the bytes of [`PullManyReq::encode`], no copy of the
    /// keys.
    pub fn encode_from(keys: &[ParamKey]) -> Vec<u8> {
        let mut w = Writer::with_capacity(4 + 8 * keys.len());
        write_keys(&mut w, keys);
        w.into_bytes()
    }

    /// Decodes from a payload buffer.
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(MAGIC, payload);
        let keys = read_keys(&mut r)?;
        r.finish()?;
        Ok(PullManyReq { keys })
    }
}

/// `PullManyOk` response payload: per-key versions in request order, plus
/// one contiguous f32 section holding every row's values back to back — a
/// single zero-copy block on little-endian hosts, not one length-prefixed
/// vector per row.
#[derive(Debug, Clone, PartialEq)]
pub struct PullManyResp {
    /// Per-key push versions, in request-key order.
    pub versions: Vec<u64>,
    /// Concatenated row values in request-key order; the row width is
    /// `values.len() / versions.len()`.
    pub values: Vec<f32>,
}

impl PullManyResp {
    /// Encodes into a payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(8 + 8 * self.versions.len() + 4 * self.values.len());
        w.u32(self.versions.len() as u32);
        for &v in &self.versions {
            w.u64(v);
        }
        write_counted_f32s(&mut w, &self.values);
        w.into_bytes()
    }

    /// Decodes from a payload buffer, rejecting value sections that are
    /// not a non-zero multiple of the key count (an empty response to an
    /// empty request is the one row-less shape).
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(MAGIC, payload);
        let n = r.u32()?;
        let versions = r.counted(n.into(), 8, Reader::u64)?;
        let values = read_counted_f32s(&mut r)?;
        r.finish()?;
        let n = versions.len();
        if values.len() % n.max(1) == 0 && values.is_empty() == (n == 0) {
            return Ok(PullManyResp { versions, values });
        }
        Err(FrameError::Malformed(format!("{} values do not divide across {n} rows", values.len())))
    }
}

/// `PushMany` request payload: a key-sorted batch of outer-gradient row
/// updates applied atomically under one `(client, seq)` — a retry of the
/// frame dedups the whole batch, so pipelined pushes are exactly-once
/// per batch.
#[derive(Debug, Clone, PartialEq)]
pub struct PushManyReq {
    /// The pushing worker (dedup namespace for `seq`).
    pub client_id: u32,
    /// Server-side Adagrad learning rate (shared by every row).
    pub lr: f32,
    /// The rows to update, sorted by `(table, row)` by the caller.
    pub keys: Vec<ParamKey>,
    /// Concatenated outer gradients (Θ̃ − Θ) in key order; the row width
    /// is `grads.len() / keys.len()`.
    pub grads: Vec<f32>,
}

impl PushManyReq {
    /// Encodes into a payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_from(self.client_id, self.lr, &self.keys, &self.grads)
    }

    /// Encodes the payload of a request from its parts, straight from the
    /// caller's slices: the bytes of [`PushManyReq::encode`], no copy of
    /// the keys or gradients.
    pub fn encode_from(client_id: u32, lr: f32, keys: &[ParamKey], grads: &[f32]) -> Vec<u8> {
        let mut w = Writer::with_capacity(16 + 8 * keys.len() + 4 * grads.len());
        w.u32(client_id).f32(lr);
        write_keys(&mut w, keys);
        write_counted_f32s(&mut w, grads);
        w.into_bytes()
    }

    /// Decodes from a payload buffer, rejecting gradient sections that are
    /// not an exact multiple of the key count.
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(MAGIC, payload);
        let client_id = r.u32()?;
        let lr = r.f32()?;
        let keys = read_keys(&mut r)?;
        let grads = read_counted_f32s(&mut r)?;
        r.finish()?;
        if keys.is_empty() || grads.is_empty() || grads.len() % keys.len() != 0 {
            return Err(FrameError::Malformed(format!(
                "{} gradient values do not divide across {} rows",
                grads.len(),
                keys.len()
            )));
        }
        Ok(PushManyReq { client_id, lr, keys, grads })
    }
}

/// Encodes an `Error` frame's message payload.
pub fn encode_error(msg: &str) -> Vec<u8> {
    msg.as_bytes().to_vec()
}

/// Decodes an `Error` frame's message payload.
pub fn decode_error(payload: &[u8]) -> String {
    String::from_utf8_lossy(payload).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        Frame::decode(frame.to_bytes().as_slice()).unwrap()
    }

    fn one_key_pull(table: u32, row: u32) -> Vec<u8> {
        PullManyReq { keys: vec![ParamKey::new(table, row)] }.encode()
    }

    #[test]
    fn frame_roundtrips_bit_exactly() {
        let frame = Frame::new(OpCode::PushMany, 42, vec![1, 2, 3, 255, 0]);
        assert_eq!(roundtrip(&frame), frame);
        let empty = Frame { opcode: OpCode::Shutdown, flags: 3, seq: u64::MAX, payload: vec![] };
        assert_eq!(roundtrip(&empty), empty);
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        // Payload lengths that end the digest in each of its tail branches
        // (bytes, a 4-byte word, 8-byte words, whole 32-byte stripes).
        for len in [0usize, 1, 3, 4, 7, 8, 31, 32, 33, 64, 100] {
            let payload = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let buf = Frame::new(OpCode::PullMany, 7, payload).to_bytes();
            for pos in 0..buf.len() {
                for bit in 0..8 {
                    let mut bad = buf.clone();
                    bad[pos] ^= 1 << bit;
                    assert!(
                        Frame::decode(bad.as_slice()).is_err(),
                        "payload {len}: flip of bit {bit} at byte {pos} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn a_version_2_frame_is_refused_by_its_version_byte() {
        // `Frame::new(OpCode::ShutdownOk, 7, vec![])` as a version-2 peer
        // encodes it: the same layout, sealed with FNV-1a.
        let v2 = [
            0x4d, 0x41, 0x4d, 0x44, 0x52, 0x52, 0x50, 0x43, 0x31, // magic
            0x02, 0x0a, 0x00, // version, op-code, flags
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seq
            0x00, 0x00, 0x00, 0x00, // len
            0xa0, 0xba, 0xc7, 0x1e, 0xfb, 0x7f, 0x11, 0xcc, // FNV-1a of the 15 header bytes
        ];
        assert!(matches!(Frame::decode(v2.as_slice()), Err(FrameError::UnsupportedVersion(2))));
        // The same frame from this version differs only in the version
        // byte and the digest.
        let v3 = Frame::new(OpCode::ShutdownOk, 7, vec![]).to_bytes();
        assert_eq!(v3.len(), v2.len());
        assert_eq!(v3[9], WIRE_VERSION);
        assert_eq!(v3[..9], v2[..9]);
        assert_eq!(v3[10..24], v2[10..24]);
    }

    #[test]
    fn truncation_is_an_io_error() {
        let buf = Frame::new(OpCode::PullMany, 1, vec![0u8; 16]).to_bytes();
        for keep in 0..buf.len() {
            let err = Frame::decode(&buf[..keep]).unwrap_err();
            assert!(
                matches!(err, FrameError::Io(_) | FrameError::BadMagic(_)),
                "keep={keep}: {err:?}"
            );
        }
    }

    #[test]
    fn absurd_declared_length_is_rejected_before_allocation() {
        // Hand-build a header declaring a payload over the cap.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        let mut head = [0u8; 15];
        head[0] = WIRE_VERSION;
        head[1] = OpCode::PullMany as u8;
        head[11..15].copy_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&head);
        assert!(matches!(Frame::decode(buf.as_slice()), Err(FrameError::TooLarge(_))));
    }

    /// `frame`'s bytes with the op-code byte overwritten and the digest
    /// recomputed to match — a well-formed frame of an arbitrary op-code.
    fn with_opcode_byte(frame: &Frame, byte: u8) -> Vec<u8> {
        let mut buf = frame.to_bytes();
        buf[10] = byte;
        let n = buf.len();
        let sealed = digest(buf[9..24].try_into().unwrap(), &buf[24..n - 8]).to_le_bytes();
        buf[n - 8..].copy_from_slice(&sealed);
        buf
    }

    #[test]
    fn wrong_version_and_opcode_are_typed_errors() {
        // A frame from the retired v1 protocol is rejected up front.
        let frame = Frame::new(OpCode::PullMany, 1, vec![]);
        let mut buf = frame.to_bytes();
        buf[9] = 1; // version byte
        assert!(matches!(Frame::decode(buf.as_slice()), Err(FrameError::UnsupportedVersion(1))));

        // A valid checksum over an op-code byte that was never assigned,
        // over each retired single-row op-code (bytes 1–4) and over each
        // retired barrier op-code (bytes 5 and 6).
        for byte in [200u8, 0, 1, 2, 3, 4, 5, 6, 16] {
            let buf = with_opcode_byte(&frame, byte);
            assert!(
                matches!(Frame::decode(buf.as_slice()), Err(FrameError::UnknownOpcode(b)) if b == byte),
                "op-code byte {byte}"
            );
        }
    }

    #[test]
    fn payload_codecs_roundtrip() {
        let ck = CheckpointReq { round: 3 };
        assert_eq!(CheckpointReq::decode(&ck.encode()).unwrap(), ck);
        assert!(PushResp::decode(&PushResp { applied: true }.encode()).unwrap().applied);
        assert_eq!(decode_error(&encode_error("boom")), "boom");
    }

    #[test]
    fn opcode_table_covers_both_directions_for_every_byte() {
        // Encode→decode is the identity for every variant in the table …
        for &op in OpCode::ALL.iter() {
            assert_eq!(OpCode::from_byte(op as u8).unwrap(), op);
        }
        // … and every byte outside the table is a typed error, so the
        // table is the complete decode surface.
        let known: Vec<u8> = OpCode::ALL.iter().map(|&op| op as u8).collect();
        for b in 0..=u8::MAX {
            match OpCode::from_byte(b) {
                Ok(op) => assert!(known.contains(&(op as u8))),
                Err(FrameError::UnknownOpcode(bad)) => {
                    assert_eq!(bad, b);
                    assert!(!known.contains(&b));
                }
                Err(other) => panic!("unexpected error for byte {b}: {other:?}"),
            }
        }
        assert_eq!(known.len(), OpCode::ALL.len());
        assert_eq!(OpCode::ALL.len(), 9);
    }

    #[test]
    fn multi_row_codecs_roundtrip() {
        let pull = PullManyReq { keys: vec![ParamKey::new(0, 1), ParamKey::new(3, 77)] };
        assert_eq!(PullManyReq::decode(&pull.encode()).unwrap(), pull);
        let empty = PullManyReq { keys: vec![] };
        assert_eq!(PullManyReq::decode(&empty.encode()).unwrap(), empty);

        let resp = PullManyResp { versions: vec![4, 9], values: vec![1.5, -2.25, 0.0, 7.0] };
        assert_eq!(PullManyResp::decode(&resp.encode()).unwrap(), resp);
        let none = PullManyResp { versions: vec![], values: vec![] };
        assert_eq!(PullManyResp::decode(&none.encode()).unwrap(), none);

        let push = PushManyReq {
            client_id: 2,
            lr: 0.5,
            keys: vec![ParamKey::new(0, 5), ParamKey::new(1, 6)],
            grads: vec![0.25, -0.125, 1.0, 2.0],
        };
        assert_eq!(PushManyReq::decode(&push.encode()).unwrap(), push);

        // The multi-row encoders size their buffer exactly, once.
        for bytes in [pull.encode(), resp.encode(), none.encode(), push.encode()] {
            assert_eq!(bytes.capacity(), bytes.len());
        }
    }

    #[test]
    fn multi_row_codecs_reject_malformed_payloads() {
        // Declared key count exceeding the remaining bytes errors before
        // any allocation — including u32::MAX, which would be a 32 GiB
        // key vector if the count were trusted.
        let mut lying = PullManyReq { keys: vec![ParamKey::new(0, 1)] }.encode();
        lying[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(PullManyReq::decode(&lying), Err(FrameError::Malformed(_))));

        let mut lying = PullManyResp { versions: vec![1], values: vec![1.0] }.encode();
        lying[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(PullManyResp::decode(&lying), Err(FrameError::Malformed(_))));

        // A value section that does not divide across the declared rows.
        let resp = PullManyResp { versions: vec![1, 2], values: vec![1.0, 2.0, 3.0] };
        assert!(matches!(PullManyResp::decode(&resp.encode()), Err(FrameError::Malformed(_))));
        // Values without any rows to attach them to.
        let resp = PullManyResp { versions: vec![], values: vec![1.0] };
        assert!(matches!(PullManyResp::decode(&resp.encode()), Err(FrameError::Malformed(_))));
        // Rows without values: the retired version-only probe's shape.
        let probe = PullManyResp { versions: vec![4, 9], values: vec![] };
        assert!(matches!(PullManyResp::decode(&probe.encode()), Err(FrameError::Malformed(_))));

        // PushMany: gradient section must divide across the keys, and an
        // empty batch is meaningless on the wire.
        let push = PushManyReq {
            client_id: 0,
            lr: 0.1,
            keys: vec![ParamKey::new(0, 0), ParamKey::new(0, 1)],
            grads: vec![1.0, 2.0, 3.0],
        };
        assert!(matches!(PushManyReq::decode(&push.encode()), Err(FrameError::Malformed(_))));
        let empty = PushManyReq { client_id: 0, lr: 0.1, keys: vec![], grads: vec![] };
        assert!(matches!(PushManyReq::decode(&empty.encode()), Err(FrameError::Malformed(_))));

        // Truncation anywhere inside a multi-row payload is typed.
        let bytes = PushManyReq {
            client_id: 2,
            lr: 0.5,
            keys: vec![ParamKey::new(0, 5)],
            grads: vec![0.25, -0.125],
        }
        .encode();
        for keep in 0..bytes.len() {
            assert!(PushManyReq::decode(&bytes[..keep]).is_err(), "keep={keep}");
        }
    }

    #[test]
    fn oversized_batches_hit_the_frame_cap_not_the_allocator() {
        // A key batch whose encoding crosses MAX_PAYLOAD must be refused
        // at encode time (the sender chunks batches well below the cap).
        let too_many = (MAX_PAYLOAD as usize / 8) + 1;
        let keys: Vec<ParamKey> = (0..too_many as u32).map(|i| ParamKey::new(0, i)).collect();
        let payload = PullManyReq { keys }.encode();
        let frame = Frame::new(OpCode::PullMany, 1, payload);
        let mut sink = Vec::new();
        assert!(matches!(frame.encode(&mut sink), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn trace_context_roundtrips_through_a_frame() {
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF_CAFE, span_id: 42 };
        let inner = one_key_pull(1, 9);
        let traced = Frame::new(OpCode::PullMany, 7, inner.clone()).with_trace_context(ctx);
        assert_eq!(traced.flags & FLAG_TRACE, FLAG_TRACE);
        assert_eq!(traced.wire_len(), FRAME_OVERHEAD + TRACE_EXT_LEN + inner.len());

        let mut decoded = roundtrip(&traced);
        let got = decoded.take_trace_context().unwrap();
        assert_eq!(got, Some(ctx));
        // After stripping, the frame is byte-identical to the untraced one.
        assert_eq!(decoded, Frame::new(OpCode::PullMany, 7, inner.clone()));
        assert_eq!(decoded.take_trace_context().unwrap(), None);
        // Payload codecs see the original bytes.
        assert_eq!(PullManyReq::decode(&decoded.payload).unwrap().keys, [ParamKey::new(1, 9)]);
    }

    #[test]
    fn trace_context_other_flags_survive_strip() {
        let ctx = TraceContext { trace_id: 1, span_id: 2 };
        // Bit 0 (retired; a server refuses it) stands for any other flag:
        // the frame layer carries it through untouched.
        let mut frame = Frame::new(OpCode::PullMany, 1, one_key_pull(0, 0));
        frame.flags |= 0b0000_0001;
        let mut traced = frame.clone().with_trace_context(ctx);
        assert_eq!(traced.flags, 0b0000_0001 | FLAG_TRACE);
        traced.take_trace_context().unwrap();
        assert_eq!(traced.flags, 0b0000_0001);
    }

    #[test]
    fn malformed_trace_extensions_are_typed_errors() {
        // Flag set but payload too short.
        let mut short = Frame::new(OpCode::PullMany, 1, vec![0u8; 4]);
        short.flags |= FLAG_TRACE;
        assert!(matches!(short.take_trace_context(), Err(FrameError::Malformed(_))));
        // Unknown extension version.
        let mut bytes = TraceContext { trace_id: 1, span_id: 2 }.encode();
        bytes[0] = 9;
        assert!(matches!(TraceContext::decode(&bytes), Err(FrameError::Malformed(_))));
        // Wrong length.
        assert!(TraceContext::decode(&bytes[..5]).is_err());
    }

    #[test]
    fn payload_codecs_reject_truncation_and_trailing_garbage() {
        let push = PushManyReq {
            client_id: 2,
            lr: 0.5,
            keys: vec![ParamKey::new(0, 5)],
            grads: vec![0.25, -0.125],
        };
        let bytes = push.encode();
        assert!(PushManyReq::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(PushManyReq::decode(&long).is_err());
        // A counted f32 section whose count exceeds the remaining bytes
        // must error before allocating.
        let mut lying = PullManyResp { versions: vec![1], values: vec![1.0] }.encode();
        lying[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(PullManyResp::decode(&lying).is_err());
    }
}
