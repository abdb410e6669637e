//! Frame layout and handshake records of the SEED wire protocol.
//!
//! Every message travels in one frame:
//!
//! ```text
//! +----------+------+-------------+-------------+-----------+
//! | magic    | kind | payload len | payload crc | payload   |
//! | "SEWP" 4 | u8 1 | u32 LE    4 | u32 LE    4 | len bytes |
//! +----------+------+-------------+-------------+-----------+
//! ```
//!
//! The length prefix delimits frames, the CRC-32 (same polynomial as the storage WAL) protects
//! the payload, and the magic re-anchors the reader: a frame whose header parses but whose
//! checksum or payload is bad is **recoverable** — exactly `len` bytes were consumed, the next
//! frame starts cleanly, and the server answers with a protocol error instead of dropping the
//! connection.  A bad magic or an oversized length means the stream is desynchronized, which is
//! fatal.
//!
//! Connections open with a handshake: the client sends [`Hello`] (the protocol version range it
//! speaks, plus the role it wants — ordinary client or replication subscriber), the server
//! answers [`Welcome`] ([`PROTOCOL_VERSION`] plus the client id this connection is bound to)
//! or a [`FrameKind::Reject`] frame with a reason, then closes.
//!
//! There is one protocol version; new kinds and tags are only ever appended.  The complete
//! wire contract is pinned in `docs/PROTOCOL.md` and enforced byte-exactly by
//! `tests/protocol_contract.rs` — change all three together.

use std::io::{Read, Write};

use seed_storage::codec::crc32;
use seed_storage::{Commit, Decoder, Encoder, Lsn};

use crate::error::{WireError, WireResult};

/// Frame magic: "SEED wire protocol".
pub const MAGIC: [u8; 4] = *b"SEWP";

/// The protocol version this build speaks — the only one.
pub const PROTOCOL_VERSION: u16 = 7;

/// Upper bound on one frame's payload; larger lengths are treated as stream desync.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: handshake opener.
    Hello,
    /// Server → client: handshake acceptance.
    Welcome,
    /// Client → server: one encoded [`seed_server::Request`].
    Request,
    /// Server → client: one encoded [`seed_server::Response`].
    Response,
    /// Server → client: the connection is being refused or abandoned (reason in the payload).
    Reject,
    /// Replica → primary: open a replication stream from an LSN (one [`Subscribe`]).
    Subscribe,
    /// Primary → replica: one batch of shipped WAL records (one [`LogBatch`]).
    LogBatch,
    /// Replica → primary: the batch is durable locally (one [`Ack`]).
    Ack,
}

impl FrameKind {
    /// The kind byte on the wire (pinned in `docs/PROTOCOL.md`).
    pub fn to_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Welcome => 2,
            FrameKind::Request => 3,
            FrameKind::Response => 4,
            FrameKind::Reject => 5,
            FrameKind::Subscribe => 6,
            FrameKind::LogBatch => 7,
            FrameKind::Ack => 8,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => FrameKind::Hello,
            2 => FrameKind::Welcome,
            3 => FrameKind::Request,
            4 => FrameKind::Response,
            5 => FrameKind::Reject,
            6 => FrameKind::Subscribe,
            7 => FrameKind::LogBatch,
            8 => FrameKind::Ack,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// The checked payload bytes.
    pub payload: Vec<u8>,
}

/// Writes one frame (header, checksum, payload) to `w`.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> WireResult<()> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(WireError::Fatal(format!(
            "refusing to send a {} byte frame (max {MAX_FRAME_LEN})",
            payload.len()
        )));
    }
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = kind.to_u8();
    header[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[9..13].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Frame header size on the wire: magic + kind + length + checksum.
const HEADER_LEN: usize = 13;

/// A checked frame header: the payload's kind, length and checksum.
struct Header {
    kind: FrameKind,
    len: usize,
    crc: u32,
}

impl Header {
    /// Parses a frame header.  A bad magic, an unknown kind or an oversized length is fatal:
    /// the stream is desynchronized.
    fn parse(header: &[u8; HEADER_LEN]) -> WireResult<Self> {
        if header[..4] != MAGIC {
            return Err(WireError::Fatal(format!(
                "bad frame magic {:02x?} (stream desynchronized or not a SEED peer)",
                &header[..4]
            )));
        }
        let kind = FrameKind::from_u8(header[4])
            .ok_or_else(|| WireError::Fatal(format!("unknown frame kind {}", header[4])))?;
        let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
        if len > MAX_FRAME_LEN {
            return Err(WireError::Fatal(format!("frame length {len} exceeds {MAX_FRAME_LEN}")));
        }
        let crc = u32::from_le_bytes([header[9], header[10], header[11], header[12]]);
        Ok(Self { kind, len: len as usize, crc })
    }

    /// The frame, once its `len` payload bytes are consumed.  A checksum mismatch is
    /// recoverable: the frame boundary held.
    fn frame(self, payload: Vec<u8>) -> WireResult<Frame> {
        if crc32(&payload) != self.crc {
            return Err(WireError::Recoverable(format!(
                "frame checksum mismatch ({} byte payload)",
                payload.len()
            )));
        }
        Ok(Frame { kind: self.kind, payload })
    }
}

/// Reads one frame from `r`, verifying magic, kind, length and checksum.
///
/// Errors are classified for the session loop: [`WireError::Recoverable`] means the frame
/// boundary was found and consumed (keep the connection), anything else means desync or a dead
/// socket (close it).
pub fn read_frame(r: &mut impl Read) -> WireResult<Frame> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let header = Header::parse(&header)?;
    let mut payload = vec![0u8; header.len];
    r.read_exact(&mut payload)?;
    header.frame(payload)
}

/// An incremental frame decoder for nonblocking (readiness-driven) readers: bytes go in as
/// they arrive off the socket, complete frames come out — as many as one wakeup delivered,
/// which is what makes request pipelining a pure scheduling change on the server.
///
/// Error classification matches [`read_frame`] exactly: a checksum or payload failure consumes
/// the offending frame and is **recoverable** (keep feeding the decoder, the next
/// [`FrameDecoder::next_frame`] call resumes at the following frame boundary); a bad magic, an
/// unknown kind or an oversized length is **fatal** (the stream is desynchronized and the
/// decoder must be discarded with its connection).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix space before growing (amortized O(1) per byte).
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 64 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames (a partial frame, or complete frames not
    /// yet pulled).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pulls the next complete frame, if the buffer holds one.
    ///
    /// * `Ok(Some(frame))` — one frame decoded and consumed;
    /// * `Ok(None)` — the buffer ends mid-frame; feed more bytes;
    /// * `Err(recoverable)` — the frame boundary held and the bad frame was consumed;
    /// * `Err(fatal)` — the stream is desynchronized; close the connection.
    pub fn next_frame(&mut self) -> WireResult<Option<Frame>> {
        let avail = &self.buf[self.start..];
        let Some(header) = avail.get(..HEADER_LEN) else {
            return Ok(None);
        };
        let header = Header::parse(header.try_into().expect("HEADER_LEN bytes"))?;
        let total = HEADER_LEN + header.len;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = avail[HEADER_LEN..total].to_vec();
        self.start += total; // the boundary held either way: consume exactly this frame
        header.frame(payload).map(Some)
    }
}

/// What a connection wants to be after the handshake.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HandshakeRole {
    /// An ordinary request/response client (checkout, check-in, queries).
    #[default]
    Client,
    /// A replication subscriber: after the welcome it sends one [`Subscribe`] and then only
    /// consumes [`LogBatch`] frames and produces [`Ack`] frames.
    Replica,
}

impl HandshakeRole {
    fn to_u8(self) -> u8 {
        match self {
            HandshakeRole::Client => 0,
            HandshakeRole::Replica => 1,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => HandshakeRole::Client,
            1 => HandshakeRole::Replica,
            _ => return None,
        })
    }
}

/// The client's handshake opener.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Oldest protocol version the client speaks.
    pub min_version: u16,
    /// Newest protocol version the client speaks.
    pub max_version: u16,
    /// Free-form client software identification (for server logs).
    pub agent: String,
    /// The role this connection wants.
    pub role: HandshakeRole,
}

impl Hello {
    /// The hello an ordinary client sends.
    pub fn current(agent: impl Into<String>) -> Self {
        Self {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
            agent: agent.into(),
            role: HandshakeRole::Client,
        }
    }

    /// The hello a replication subscriber sends.
    pub fn replica(agent: impl Into<String>) -> Self {
        Self {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
            agent: agent.into(),
            role: HandshakeRole::Replica,
        }
    }

    /// Encodes the hello payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u16(self.min_version)
            .put_u16(self.max_version)
            .put_str(&self.agent)
            .put_u8(self.role.to_u8());
        e.finish()
    }

    /// Decodes a hello payload.
    pub fn decode(bytes: &[u8]) -> WireResult<Self> {
        let mut d = Decoder::new(bytes);
        let min_version = d.get_u16()?;
        let max_version = d.get_u16()?;
        let agent = d.get_str()?.to_string();
        let raw = d.get_u8()?;
        let role = HandshakeRole::from_u8(raw)
            .ok_or_else(|| WireError::Recoverable(format!("unknown handshake role {raw}")))?;
        if !d.is_exhausted() {
            return Err(WireError::Recoverable(format!(
                "{} trailing bytes after hello",
                d.remaining()
            )));
        }
        Ok(Self { min_version, max_version, agent, role })
    }
}

/// The server's handshake acceptance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Welcome {
    /// The protocol version the connection speaks (always [`PROTOCOL_VERSION`]).
    pub version: u16,
    /// The client id this connection is bound to: every request on the connection acts for
    /// it, and the lock table knows the client by it.
    pub client_id: u64,
    /// Free-form server identification.
    pub banner: String,
}

impl Welcome {
    /// Encodes the welcome payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u16(self.version).put_u64(self.client_id).put_str(&self.banner);
        e.finish()
    }

    /// Decodes a welcome payload.
    pub fn decode(bytes: &[u8]) -> WireResult<Self> {
        let mut d = Decoder::new(bytes);
        let version = d.get_u16()?;
        let client_id = d.get_u64()?;
        let banner = d.get_str()?.to_string();
        if !d.is_exhausted() {
            return Err(WireError::Recoverable(format!(
                "{} trailing bytes after welcome",
                d.remaining()
            )));
        }
        Ok(Self { version, client_id, banner })
    }

    /// Checks the server's answer to a hello: a `Welcome` of [`PROTOCOL_VERSION`], or the
    /// reason the session cannot start (a `Reject`'s text, another frame kind, another
    /// version) as [`WireError::Fatal`].  Every handshake a client or replica opens reads its
    /// answer here.
    pub fn from_answer(frame: &Frame) -> WireResult<Self> {
        let welcome = match frame.kind {
            FrameKind::Welcome => Self::decode(&frame.payload)?,
            FrameKind::Reject => {
                return Err(WireError::Fatal(String::from_utf8_lossy(&frame.payload).into_owned()))
            }
            other => {
                return Err(WireError::Fatal(format!(
                    "handshake expected welcome or reject, got {other:?}"
                )))
            }
        };
        if welcome.version != PROTOCOL_VERSION {
            return Err(WireError::Fatal(format!(
                "server welcomed protocol v{}, this side speaks v{PROTOCOL_VERSION}",
                welcome.version
            )));
        }
        Ok(welcome)
    }
}

/// A replica's stream opener: where its log ends, as the LSN after its last commit and the
/// topology epoch in force at that commit.  The primary matches the position against its own log
/// once: when its log holds the replica's last commit under that epoch it streams every commit
/// from `from_lsn` on, and otherwise it sends a reset.  It answers with one [`LogBatch`]
/// immediately (possibly empty — it carries the primary's current end of log either way), then
/// with a batch per news or heartbeat tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscribe {
    /// First LSN the replica still needs (its last LSN + 1; 1 for an empty store).
    pub from_lsn: Lsn,
    /// The epoch in force at the replica's last LSN, by the epoch history its log holds (0
    /// before any promotion, and for an empty store).
    pub epoch: u64,
}

impl Subscribe {
    /// Encodes the subscribe payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(self.from_lsn).put_u64(self.epoch);
        e.finish()
    }

    /// Decodes a subscribe payload.
    pub fn decode(bytes: &[u8]) -> WireResult<Self> {
        let mut d = Decoder::new(bytes);
        let from_lsn = d.get_u64()?;
        let epoch = d.get_u64()?;
        if !d.is_exhausted() {
            return Err(WireError::Recoverable(format!(
                "{} trailing bytes after subscribe",
                d.remaining()
            )));
        }
        Ok(Self { from_lsn, epoch })
    }
}

/// One shipped batch of the primary's WAL.
///
/// Two shapes (see `docs/PROTOCOL.md` §6):
///
/// * **incremental** (`reset == false`): `records` are the primary's WAL commits
///   `first_lsn ..= last_lsn` — the replica appends them to its log at those LSNs and applies
///   their effects, in order, on top of its keys;
/// * **reset** (`reset == true`): `records` are the primary's files from the start — its
///   snapshot's commits, then its WAL commits past the snapshot — and `last_lsn` is the end of
///   its log at the cut (`first_lsn` is 0); the replica builds a fresh store from their
///   effects, in order, and installs it as its whole state at `last_lsn`.  Sent when the
///   primary's log no longer holds the subscriber's next LSN, or does not continue the
///   subscriber's log ([`Subscribe`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogBatch {
    /// Whether the replica must clear its store before applying (a reset from the files).
    pub reset: bool,
    /// LSN of the first shipped commit (0 in reset batches).
    pub first_lsn: Lsn,
    /// LSN the replica's state reaches after applying this batch (its next `Ack` value).
    pub last_lsn: Lsn,
    /// The primary's durable end of log when the batch was cut — what replica lag is measured
    /// against.
    pub primary_lsn: Lsn,
    /// The shipped commits, each in the bytes of its WAL frame payload (empty in heartbeat
    /// batches).
    pub records: Vec<Commit>,
}

impl LogBatch {
    /// Encodes the batch payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_bool(self.reset)
            .put_u64(self.first_lsn)
            .put_u64(self.last_lsn)
            .put_u64(self.primary_lsn)
            .put_varint(self.records.len() as u64);
        for record in &self.records {
            e.put_bytes(&record.encode());
        }
        e.finish()
    }

    /// Decodes a batch payload.
    pub fn decode(bytes: &[u8]) -> WireResult<Self> {
        let mut d = Decoder::new(bytes);
        let reset = d.get_bool()?;
        let first_lsn = d.get_u64()?;
        let last_lsn = d.get_u64()?;
        let primary_lsn = d.get_u64()?;
        let n = d.get_varint()? as usize;
        let mut records = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            records.push(Commit::decode(d.get_bytes()?)?);
        }
        if !d.is_exhausted() {
            return Err(WireError::Recoverable(format!(
                "{} trailing bytes after log batch",
                d.remaining()
            )));
        }
        Ok(Self { reset, first_lsn, last_lsn, primary_lsn, records })
    }
}

/// A replica's durability acknowledgement: everything up to `applied_lsn` is committed in its
/// local store.  Flow control is one outstanding batch — the primary sends the next one only
/// after the ack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    /// The replica's new durable cursor.
    pub applied_lsn: Lsn,
}

impl Ack {
    /// Encodes the ack payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(self.applied_lsn);
        e.finish()
    }

    /// Decodes an ack payload.
    pub fn decode(bytes: &[u8]) -> WireResult<Self> {
        let mut d = Decoder::new(bytes);
        let applied_lsn = d.get_u64()?;
        if !d.is_exhausted() {
            return Err(WireError::Recoverable(format!(
                "{} trailing bytes after ack",
                d.remaining()
            )));
        }
        Ok(Self { applied_lsn })
    }
}

/// Accepts a client's [`Hello`] if its version range covers [`PROTOCOL_VERSION`], or explains
/// why there is no common version.
pub fn negotiate(hello: &Hello) -> Result<u16, String> {
    if (hello.min_version..=hello.max_version).contains(&PROTOCOL_VERSION) {
        Ok(PROTOCOL_VERSION)
    } else {
        Err(format!(
            "no common protocol version: client speaks {}..={}, server speaks {PROTOCOL_VERSION}",
            hello.min_version, hello.max_version
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"hello").unwrap();
        write_frame(&mut buf, FrameKind::Response, b"").unwrap();
        let mut cursor = Cursor::new(buf);
        let first = read_frame(&mut cursor).unwrap();
        assert_eq!(first.kind, FrameKind::Request);
        assert_eq!(first.payload, b"hello");
        let second = read_frame(&mut cursor).unwrap();
        assert_eq!(second.kind, FrameKind::Response);
        assert!(second.payload.is_empty());
        // Clean EOF after the last frame.
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Io(_))));
    }

    #[test]
    fn corrupted_payload_is_recoverable_and_resynchronizes() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"damaged").unwrap();
        write_frame(&mut buf, FrameKind::Request, b"intact").unwrap();
        buf[14] ^= 0xFF; // flip a byte inside the first payload
        let mut cursor = Cursor::new(buf);
        let err = read_frame(&mut cursor).unwrap_err();
        assert!(err.is_recoverable(), "checksum failure must keep the connection: {err}");
        // The reader consumed exactly the damaged frame; the next one parses.
        assert_eq!(read_frame(&mut cursor).unwrap().payload, b"intact");
    }

    #[test]
    fn bad_magic_and_oversize_are_fatal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        buf[0] = b'X';
        assert!(matches!(read_frame(&mut Cursor::new(buf)), Err(WireError::Fatal(_))));

        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        buf[5..9].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(read_frame(&mut Cursor::new(buf)), Err(WireError::Fatal(_))));

        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        buf[4] = 99; // unknown frame kind
        assert!(matches!(read_frame(&mut Cursor::new(buf)), Err(WireError::Fatal(_))));
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"truncate me").unwrap();
        for cut in 0..buf.len() {
            let mut cursor = Cursor::new(buf[..cut].to_vec());
            assert!(read_frame(&mut cursor).is_err(), "cut at {cut} must error, not panic");
        }
    }

    #[test]
    fn incremental_decoder_matches_the_blocking_reader() {
        let mut stream = Vec::new();
        write_frame(&mut stream, FrameKind::Request, b"first").unwrap();
        write_frame(&mut stream, FrameKind::Response, b"").unwrap();
        write_frame(&mut stream, FrameKind::Request, b"third frame payload").unwrap();

        // Fed byte by byte, the decoder produces exactly the three frames, in order.
        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        for byte in &stream {
            decoder.extend(std::slice::from_ref(byte));
            while let Some(frame) = decoder.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].payload, b"first");
        assert_eq!(frames[1].kind, FrameKind::Response);
        assert_eq!(frames[2].payload, b"third frame payload");
        assert_eq!(decoder.buffered(), 0);

        // Fed all at once, one wakeup drains all three — the pipelining read path.
        let mut decoder = FrameDecoder::new();
        decoder.extend(&stream);
        let mut n = 0;
        while decoder.next_frame().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn incremental_decoder_classifies_errors_like_read_frame() {
        // Corrupt payload: recoverable, and the decoder resynchronizes on the next frame.
        let mut stream = Vec::new();
        write_frame(&mut stream, FrameKind::Request, b"damaged").unwrap();
        write_frame(&mut stream, FrameKind::Request, b"intact").unwrap();
        stream[14] ^= 0xFF;
        let mut decoder = FrameDecoder::new();
        decoder.extend(&stream);
        let err = decoder.next_frame().unwrap_err();
        assert!(err.is_recoverable(), "checksum failure must keep the stream: {err}");
        assert_eq!(decoder.next_frame().unwrap().unwrap().payload, b"intact");

        // Bad magic, unknown kind, oversize: all fatal, like the blocking reader.
        let corruptions: [fn(&mut Vec<u8>); 3] = [
            |b| b[0] = b'X',
            |b| b[4] = 99,
            |b| b[5..9].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes()),
        ];
        for corrupt in corruptions {
            let mut stream = Vec::new();
            write_frame(&mut stream, FrameKind::Request, b"x").unwrap();
            corrupt(&mut stream);
            let mut decoder = FrameDecoder::new();
            decoder.extend(&stream);
            assert!(matches!(decoder.next_frame(), Err(WireError::Fatal(_))));
        }
    }

    #[test]
    fn handshake_records_roundtrip() {
        let hello = Hello::current("test-agent");
        assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);
        let replica = Hello::replica("replica-agent");
        assert_eq!(replica.role, HandshakeRole::Replica);
        assert_eq!(Hello::decode(&replica.encode()).unwrap(), replica);
        let welcome = Welcome { version: 3, client_id: 42, banner: "seed-net".into() };
        assert_eq!(Welcome::decode(&welcome.encode()).unwrap(), welcome);
        assert!(Hello::decode(&[1, 2]).is_err());
        // The role byte is required, an unknown role or trailing bytes are malformed
        // (recoverable) payloads, not a desync.
        let mut e = Encoder::new();
        e.put_u16(1).put_u16(3).put_str("no role byte");
        assert!(Hello::decode(&e.finish()).unwrap_err().is_recoverable());
        let mut e = Encoder::new();
        e.put_u16(1).put_u16(3).put_str("x").put_u8(9);
        assert!(Hello::decode(&e.finish()).unwrap_err().is_recoverable());
        let mut bytes = hello.encode();
        bytes.push(0);
        assert!(Hello::decode(&bytes).unwrap_err().is_recoverable());
        let mut bytes = welcome.encode();
        bytes.push(0);
        assert!(Welcome::decode(&bytes).unwrap_err().is_recoverable());
    }

    #[test]
    fn a_client_accepts_only_a_welcome_of_its_own_version() {
        let answer = |kind, payload: Vec<u8>| Welcome::from_answer(&Frame { kind, payload });
        let welcome = |version| Welcome { version, client_id: 7, banner: "b".into() }.encode();
        assert_eq!(answer(FrameKind::Welcome, welcome(PROTOCOL_VERSION)).unwrap().client_id, 7);
        let older = answer(FrameKind::Welcome, welcome(PROTOCOL_VERSION - 1)).unwrap_err();
        assert!(older.to_string().contains("welcomed protocol v6"), "{older}");
        let rejected = answer(FrameKind::Reject, b"no common protocol version".to_vec());
        assert!(rejected.unwrap_err().to_string().contains("no common protocol version"));
        assert!(answer(FrameKind::Response, Vec::new()).is_err());
    }

    #[test]
    fn replication_records_roundtrip() {
        let sub = Subscribe { from_lsn: 17, epoch: 2 };
        assert_eq!(Subscribe::decode(&sub.encode()).unwrap(), sub);
        let ack = Ack { applied_lsn: 99 };
        assert_eq!(Ack::decode(&ack.encode()).unwrap(), ack);
        let batch = LogBatch {
            reset: false,
            first_lsn: 18,
            last_lsn: 19,
            primary_lsn: 25,
            records: vec![
                Commit {
                    effects: vec![
                        (b"o/1".to_vec(), Some(b"data".to_vec())),
                        (b"d/o1".to_vec(), None),
                    ],
                },
                Commit { effects: vec![(b"o/2".to_vec(), Some(Vec::new()))] },
            ],
        };
        assert_eq!(LogBatch::decode(&batch.encode()).unwrap(), batch);
        let heartbeat =
            LogBatch { reset: true, first_lsn: 0, last_lsn: 7, primary_lsn: 7, records: vec![] };
        assert_eq!(LogBatch::decode(&heartbeat.encode()).unwrap(), heartbeat);
        // Trailing bytes are rejected as recoverable, like every other payload.
        let mut bytes = sub.encode();
        bytes.push(0);
        assert!(Subscribe::decode(&bytes).unwrap_err().is_recoverable());
        let mut bytes = batch.encode();
        bytes.push(0);
        assert!(LogBatch::decode(&bytes).unwrap_err().is_recoverable());
        let mut bytes = ack.encode();
        bytes.push(0);
        assert!(Ack::decode(&bytes).unwrap_err().is_recoverable());
    }

    #[test]
    fn version_negotiation() {
        assert_eq!(negotiate(&Hello::current("t")).unwrap(), PROTOCOL_VERSION);
        // A newer client that still speaks our version gets our version.
        let newer = Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION + 5,
            agent: String::new(),
            role: HandshakeRole::Client,
        };
        assert_eq!(negotiate(&newer).unwrap(), PROTOCOL_VERSION);
        // A client that requires only future versions is refused.
        let future = Hello {
            min_version: PROTOCOL_VERSION + 1,
            max_version: PROTOCOL_VERSION + 2,
            agent: String::new(),
            role: HandshakeRole::Client,
        };
        assert!(negotiate(&future).is_err());
        let empty = Hello {
            min_version: 3,
            max_version: 2,
            agent: String::new(),
            role: HandshakeRole::Client,
        };
        assert!(negotiate(&empty).is_err());
    }
}
