//! The Data-CASE wire protocol: length-prefixed binary frames over any
//! byte stream.
//!
//! ## Frame layout
//!
//! Every frame starts with a fixed 8-byte header:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"DC"
//! 2       1     protocol version (currently 1)
//! 3       1     frame type
//! 4       4     payload length, big-endian u32 (<= MAX_FRAME)
//! 8       n     payload
//! ```
//!
//! Because the header carries the exact payload length, a receiver can
//! always consume a frame it cannot *interpret*: header-level garbage
//! (bad magic, bad version, oversized length) is fatal and closes the
//! connection, but a well-framed payload that fails to decode only
//! poisons that frame — the stream stays synchronized and the peer is
//! answered with a [`Frame::ProtocolError`] instead of a panic.
//!
//! ## Frame vocabulary
//!
//! | type | frame | direction |
//! |------|-------|-----------|
//! | 0x01 | `Hello` (tenant, token, actor) | client → server |
//! | 0x02 | `Welcome` (tenant id, shards)  | server → client |
//! | 0x03 | `Batch` (requests)             | client → server |
//! | 0x04 | `Replies` (responses, stamps)  | server → client |
//! | 0x05 | `ProtocolError` (code, detail) | server → client |
//! | 0x06 | `Goodbye`                      | client → server |
//!
//! All integers are big-endian; byte strings and UTF-8 strings carry a
//! u32 length prefix. [`Request`]/[`Reply`]/[`EngineError`] variants are
//! tagged with one leading byte each; the codecs cover the engine's full
//! typed vocabulary and are exercised variant-by-variant in
//! `tests/prop_wire.rs`.

use std::io::{Read, Write};

use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::purpose::PurposeId;
use datacase_engine::concurrent::SubmitStamp;
use datacase_engine::error::EngineError;
use datacase_engine::frontend::{AuditRef, Reply, Request, Response};
use datacase_engine::Actor;
use datacase_sim::time::Ts;
use datacase_workloads::record::GdprMetadata;
use datacase_workloads::{MetaField, MetaSelector};

/// Frame magic: every Data-CASE frame starts with these two bytes.
pub const MAGIC: [u8; 2] = *b"DC";

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Hard ceiling on a frame payload (1 MiB). An honest client never gets
/// close; a length past it is treated as stream corruption, not an
/// allocation request.
pub const MAX_FRAME: u32 = 1 << 20;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 8;

/// Why a wire operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The underlying transport failed (connection reset, EOF mid-frame).
    Io(String),
    /// The frame did not start with [`MAGIC`] — the stream is not (or no
    /// longer) speaking this protocol. Fatal.
    BadMagic,
    /// Unsupported protocol version. Fatal.
    BadVersion(u8),
    /// Unknown frame type byte. Fatal (cannot know the sender's intent).
    UnknownFrame(u8),
    /// Declared payload length exceeds [`MAX_FRAME`]. Fatal.
    Oversized(u32),
    /// The payload ended before the structure it declared was complete.
    Truncated,
    /// The payload decoded fully but left unconsumed trailing bytes.
    Trailing(usize),
    /// An enum tag that names no variant.
    UnknownTag {
        /// Which decoder hit it ("request", "reply", ...).
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A whole frame did not arrive within the receiver's read deadline.
    /// Fatal: the stream may be stalled mid-frame, so synchronization is
    /// no longer known — and a peer that dribbles bytes slower than the
    /// deadline is indistinguishable from a slow-loris hold.
    Timeout,
    /// The peer reported a protocol error (decoded from a
    /// [`Frame::ProtocolError`] frame).
    Protocol(String),
}

impl WireError {
    /// Does this error poison the whole connection? Header-level errors
    /// do — after them the receiver no longer knows where the next frame
    /// starts. Payload-level errors do not: the length prefix already
    /// consumed the bad frame, so the stream stays synchronized.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            WireError::Io(_)
                | WireError::BadMagic
                | WireError::BadVersion(_)
                | WireError::UnknownFrame(_)
                | WireError::Oversized(_)
                | WireError::Timeout
        )
    }

    /// Short stable code for the [`Frame::ProtocolError`] payload.
    pub fn code(&self) -> &'static str {
        match self {
            WireError::Io(_) => "io",
            WireError::BadMagic => "bad-magic",
            WireError::BadVersion(_) => "bad-version",
            WireError::UnknownFrame(_) => "unknown-frame",
            WireError::Oversized(_) => "oversized",
            WireError::Truncated => "truncated",
            WireError::Trailing(_) => "trailing",
            WireError::UnknownTag { .. } => "unknown-tag",
            WireError::BadUtf8 => "bad-utf8",
            WireError::Timeout => "timeout",
            WireError::Protocol(_) => "protocol",
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(detail) => write!(f, "transport failure: {detail}"),
            WireError::BadMagic => write!(f, "frame does not start with the DC magic"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownFrame(t) => write!(f, "unknown frame type 0x{t:02x}"),
            WireError::Oversized(n) => {
                write!(f, "declared payload of {n} bytes exceeds the frame cap")
            }
            WireError::Truncated => write!(f, "payload truncated mid-structure"),
            WireError::Trailing(n) => write!(f, "{n} unconsumed trailing payload bytes"),
            WireError::UnknownTag { what, tag } => {
                write!(f, "unknown {what} tag 0x{tag:02x}")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Timeout => write!(f, "frame did not complete within the read deadline"),
            WireError::Protocol(detail) => write!(f, "peer reported: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e.to_string())
    }
}

/// One protocol frame, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Tenant handshake: the first frame a client sends.
    Hello {
        /// Tenant name as registered with the gateway.
        tenant: String,
        /// The tenant's shared-secret token.
        token: String,
        /// The actor role the connection's sessions run as.
        actor: Actor,
    },
    /// Handshake accepted.
    Welcome {
        /// The tenant's numeric id (its keyspace block).
        tenant_id: u32,
        /// Shard count of the engine behind the gateway.
        shards: u16,
    },
    /// A batch of requests in tenant-local key terms.
    Batch(Vec<Request>),
    /// Answers to one batch, in request order, plus the submit stamps
    /// (the batch's position in each touched shard's serial history).
    Replies {
        /// One response per request.
        responses: Vec<Response>,
        /// Where the batch landed, per touched shard in shard order.
        stamps: Vec<SubmitStamp>,
    },
    /// The peer could not honour a frame; the stream remains usable
    /// unless the underlying error was fatal.
    ProtocolError {
        /// Stable error code (see [`WireError::code`]).
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Orderly half-close: the client is done.
    Goodbye,
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::Welcome { .. } => 0x02,
            Frame::Batch(_) => 0x03,
            Frame::Replies { .. } => 0x04,
            Frame::ProtocolError { .. } => 0x05,
            Frame::Goodbye => 0x06,
        }
    }

    /// Encode the frame (header + payload) into a byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            Frame::Hello {
                tenant,
                token,
                actor,
            } => {
                put_str(&mut payload, tenant);
                put_str(&mut payload, token);
                payload.push(actor_tag(*actor));
            }
            Frame::Welcome { tenant_id, shards } => {
                payload.extend_from_slice(&tenant_id.to_be_bytes());
                payload.extend_from_slice(&shards.to_be_bytes());
            }
            Frame::Batch(requests) => {
                payload.extend_from_slice(&(requests.len() as u32).to_be_bytes());
                for request in requests {
                    put_request(&mut payload, request);
                }
            }
            Frame::Replies { responses, stamps } => {
                payload.extend_from_slice(&(responses.len() as u32).to_be_bytes());
                for response in responses {
                    put_response(&mut payload, response);
                }
                payload.extend_from_slice(&(stamps.len() as u32).to_be_bytes());
                for stamp in stamps {
                    payload.extend_from_slice(&(stamp.shard as u32).to_be_bytes());
                    payload.extend_from_slice(&stamp.seq.to_be_bytes());
                }
            }
            Frame::ProtocolError { code, detail } => {
                put_str(&mut payload, code);
                put_str(&mut payload, detail);
            }
            Frame::Goodbye => {}
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.type_byte());
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decode one frame from a (type byte, payload) pair, as produced by
    /// [`read_frame_raw`]. Payload-level failures here are recoverable:
    /// the frame was already consumed from the stream.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let mut cur = Cursor::new(payload);
        let frame = match frame_type {
            0x01 => {
                let tenant = cur.get_str()?;
                let token = cur.get_str()?;
                let actor = actor_from_tag(cur.get_u8()?)?;
                Frame::Hello {
                    tenant,
                    token,
                    actor,
                }
            }
            0x02 => Frame::Welcome {
                tenant_id: cur.get_u32()?,
                shards: cur.get_u16()?,
            },
            0x03 => {
                let n = cur.get_u32()? as usize;
                let mut requests = Vec::new();
                for _ in 0..n {
                    requests.push(cur.get_request()?);
                }
                Frame::Batch(requests)
            }
            0x04 => {
                let n = cur.get_u32()? as usize;
                let mut responses = Vec::new();
                for _ in 0..n {
                    responses.push(cur.get_response()?);
                }
                let s = cur.get_u32()? as usize;
                let mut stamps = Vec::new();
                for _ in 0..s {
                    let shard = cur.get_u32()? as usize;
                    let seq = cur.get_u64()?;
                    stamps.push(SubmitStamp { shard, seq });
                }
                Frame::Replies { responses, stamps }
            }
            0x05 => Frame::ProtocolError {
                code: cur.get_str()?,
                detail: cur.get_str()?,
            },
            0x06 => Frame::Goodbye,
            other => return Err(WireError::UnknownFrame(other)),
        };
        cur.finish()?;
        Ok(frame)
    }
}

/// Write one frame to a stream.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&frame.encode())?;
    w.flush()?;
    Ok(())
}

/// Read one frame header + payload off a stream without interpreting the
/// payload. Returns `(frame_type, payload)`. Every error from here is
/// fatal — either the transport failed or frame synchronization is lost.
pub fn read_frame_raw<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[0..2] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if header[2] != VERSION {
        return Err(WireError::BadVersion(header[2]));
    }
    let frame_type = header[3];
    let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok((frame_type, payload))
}

/// Read and decode one frame. Payload-level decode failures are returned
/// as non-fatal errors with the stream still synchronized on the next
/// frame boundary.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    let (frame_type, payload) = read_frame_raw(r)?;
    Frame::decode(frame_type, &payload)
}

// ---------------------------------------------------------------------
// Primitive put/get
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_be_bytes());
    out.extend_from_slice(b);
}

fn actor_tag(actor: Actor) -> u8 {
    match actor {
        Actor::Controller => 0,
        Actor::Processor => 1,
        Actor::Subject => 2,
    }
}

fn actor_from_tag(tag: u8) -> Result<Actor, WireError> {
    match tag {
        0 => Ok(Actor::Controller),
        1 => Ok(Actor::Processor),
        2 => Ok(Actor::Subject),
        tag => Err(WireError::UnknownTag { what: "actor", tag }),
    }
}

fn interpretation_tag(i: ErasureInterpretation) -> u8 {
    match i {
        ErasureInterpretation::ReversiblyInaccessible => 0,
        ErasureInterpretation::Deleted => 1,
        ErasureInterpretation::StronglyDeleted => 2,
        ErasureInterpretation::PermanentlyDeleted => 3,
    }
}

fn interpretation_from_tag(tag: u8) -> Result<ErasureInterpretation, WireError> {
    match tag {
        0 => Ok(ErasureInterpretation::ReversiblyInaccessible),
        1 => Ok(ErasureInterpretation::Deleted),
        2 => Ok(ErasureInterpretation::StronglyDeleted),
        3 => Ok(ErasureInterpretation::PermanentlyDeleted),
        tag => Err(WireError::UnknownTag {
            what: "erasure-interpretation",
            tag,
        }),
    }
}

fn put_request(out: &mut Vec<u8>, request: &Request) {
    match request {
        Request::Create {
            key,
            payload,
            metadata,
        } => {
            out.push(0);
            out.extend_from_slice(&key.to_be_bytes());
            put_bytes(out, payload);
            out.extend_from_slice(&metadata.subject.to_be_bytes());
            put_str(out, metadata.purpose.name());
            out.extend_from_slice(&metadata.ttl.0.to_be_bytes());
            out.extend_from_slice(&metadata.origin_device.to_be_bytes());
            out.push(metadata.objects_to_sharing as u8);
        }
        Request::Read { key } => {
            out.push(1);
            out.extend_from_slice(&key.to_be_bytes());
        }
        Request::Update { key, payload } => {
            out.push(2);
            out.extend_from_slice(&key.to_be_bytes());
            put_bytes(out, payload);
        }
        Request::Delete { key } => {
            out.push(3);
            out.extend_from_slice(&key.to_be_bytes());
        }
        Request::ReadMeta { key } => {
            out.push(4);
            out.extend_from_slice(&key.to_be_bytes());
        }
        Request::UpdateMeta { key, field } => {
            out.push(5);
            out.extend_from_slice(&key.to_be_bytes());
            out.push(match field {
                MetaField::Ttl => 0,
                MetaField::Purpose => 1,
                MetaField::Objection => 2,
            });
        }
        Request::ReadByMeta { selector } => {
            out.push(6);
            match selector {
                MetaSelector::ByPurpose(p) => {
                    out.push(0);
                    put_str(out, p.name());
                }
                MetaSelector::BySubject(s) => {
                    out.push(1);
                    out.extend_from_slice(&s.to_be_bytes());
                }
            }
        }
        Request::Erase {
            key,
            interpretation,
        } => {
            out.push(7);
            out.extend_from_slice(&key.to_be_bytes());
            out.push(interpretation_tag(*interpretation));
        }
        Request::Restore { key } => {
            out.push(8);
            out.extend_from_slice(&key.to_be_bytes());
        }
    }
}

fn put_reply(out: &mut Vec<u8>, reply: Reply) {
    match reply {
        Reply::Done => out.push(0),
        Reply::Value(n) => {
            out.push(1);
            out.extend_from_slice(&(n as u64).to_be_bytes());
        }
        Reply::Rows(n) => {
            out.push(2);
            out.extend_from_slice(&(n as u64).to_be_bytes());
        }
        Reply::Erased(i) => {
            out.push(3);
            out.push(interpretation_tag(i));
        }
        Reply::Restored => out.push(4),
    }
}

fn put_error(out: &mut Vec<u8>, error: &EngineError) {
    match error {
        EngineError::Denied { reason } => {
            out.push(0);
            put_str(out, reason);
        }
        EngineError::NotFound { key } => {
            out.push(1);
            out.extend_from_slice(&key.to_be_bytes());
        }
        EngineError::RetentionExpired { key, since } => {
            out.push(2);
            out.extend_from_slice(&key.to_be_bytes());
            out.extend_from_slice(&since.0.to_be_bytes());
        }
        EngineError::Backend { detail } => {
            out.push(3);
            put_str(out, detail);
        }
    }
}

fn put_response(out: &mut Vec<u8>, response: &Response) {
    out.extend_from_slice(&(response.index as u64).to_be_bytes());
    match &response.outcome {
        Ok(reply) => {
            out.push(1);
            put_reply(out, *reply);
        }
        Err(error) => {
            out.push(0);
            put_error(out, error);
        }
    }
    out.extend_from_slice(&response.audit.start.to_be_bytes());
    out.extend_from_slice(&response.audit.records.to_be_bytes());
    out.extend_from_slice(&response.audit.at.0.to_be_bytes());
}

/// A bounds-checked payload reader: every accessor returns
/// [`WireError::Truncated`] instead of slicing past the end.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.get_u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn get_str(&mut self) -> Result<String, WireError> {
        let raw = self.get_bytes()?;
        String::from_utf8(raw).map_err(|_| WireError::BadUtf8)
    }

    fn get_purpose(&mut self) -> Result<PurposeId, WireError> {
        Ok(PurposeId::new(&self.get_str()?))
    }

    fn get_request(&mut self) -> Result<Request, WireError> {
        let tag = self.get_u8()?;
        Ok(match tag {
            0 => {
                let key = self.get_u64()?;
                let payload = self.get_bytes()?;
                let subject = self.get_u32()?;
                let purpose = self.get_purpose()?;
                let ttl = Ts(self.get_u64()?);
                let origin_device = self.get_u32()?;
                let objects_to_sharing = self.get_u8()? != 0;
                Request::Create {
                    key,
                    payload,
                    metadata: GdprMetadata {
                        subject,
                        purpose,
                        ttl,
                        origin_device,
                        objects_to_sharing,
                    },
                }
            }
            1 => Request::Read {
                key: self.get_u64()?,
            },
            2 => Request::Update {
                key: self.get_u64()?,
                payload: self.get_bytes()?,
            },
            3 => Request::Delete {
                key: self.get_u64()?,
            },
            4 => Request::ReadMeta {
                key: self.get_u64()?,
            },
            5 => {
                let key = self.get_u64()?;
                let field = match self.get_u8()? {
                    0 => MetaField::Ttl,
                    1 => MetaField::Purpose,
                    2 => MetaField::Objection,
                    tag => {
                        return Err(WireError::UnknownTag {
                            what: "meta-field",
                            tag,
                        })
                    }
                };
                Request::UpdateMeta { key, field }
            }
            6 => {
                let selector = match self.get_u8()? {
                    0 => MetaSelector::ByPurpose(self.get_purpose()?),
                    1 => MetaSelector::BySubject(self.get_u32()?),
                    tag => {
                        return Err(WireError::UnknownTag {
                            what: "meta-selector",
                            tag,
                        })
                    }
                };
                Request::ReadByMeta { selector }
            }
            7 => {
                let key = self.get_u64()?;
                let interpretation = interpretation_from_tag(self.get_u8()?)?;
                Request::Erase {
                    key,
                    interpretation,
                }
            }
            8 => Request::Restore {
                key: self.get_u64()?,
            },
            tag => {
                return Err(WireError::UnknownTag {
                    what: "request",
                    tag,
                })
            }
        })
    }

    fn get_reply(&mut self) -> Result<Reply, WireError> {
        Ok(match self.get_u8()? {
            0 => Reply::Done,
            1 => Reply::Value(self.get_u64()? as usize),
            2 => Reply::Rows(self.get_u64()? as usize),
            3 => Reply::Erased(interpretation_from_tag(self.get_u8()?)?),
            4 => Reply::Restored,
            tag => return Err(WireError::UnknownTag { what: "reply", tag }),
        })
    }

    fn get_error(&mut self) -> Result<EngineError, WireError> {
        Ok(match self.get_u8()? {
            0 => EngineError::Denied {
                reason: self.get_str()?,
            },
            1 => EngineError::NotFound {
                key: self.get_u64()?,
            },
            2 => EngineError::RetentionExpired {
                key: self.get_u64()?,
                since: Ts(self.get_u64()?),
            },
            3 => EngineError::Backend {
                detail: self.get_str()?,
            },
            tag => {
                return Err(WireError::UnknownTag {
                    what: "engine-error",
                    tag,
                })
            }
        })
    }

    fn get_response(&mut self) -> Result<Response, WireError> {
        let index = self.get_u64()? as usize;
        let outcome = match self.get_u8()? {
            0 => Err(self.get_error()?),
            1 => Ok(self.get_reply()?),
            tag => {
                return Err(WireError::UnknownTag {
                    what: "outcome",
                    tag,
                })
            }
        };
        let audit = AuditRef {
            start: self.get_u64()?,
            records: self.get_u64()?,
            at: Ts(self.get_u64()?),
        };
        Ok(Response {
            index,
            outcome,
            audit,
        })
    }

    /// Assert the payload is fully consumed.
    fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left > 0 {
            return Err(WireError::Trailing(left));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = frame.encode();
        let mut slice = bytes.as_slice();
        let decoded = read_frame(&mut slice).expect("decode");
        assert_eq!(decoded, frame);
        assert!(slice.is_empty(), "frame fully consumed");
    }

    #[test]
    fn control_frames_round_trip() {
        round_trip(Frame::Hello {
            tenant: "acme".into(),
            token: "s3cret".into(),
            actor: Actor::Processor,
        });
        round_trip(Frame::Welcome {
            tenant_id: 7,
            shards: 4,
        });
        round_trip(Frame::ProtocolError {
            code: "truncated".into(),
            detail: "payload truncated mid-structure".into(),
        });
        round_trip(Frame::Goodbye);
    }

    #[test]
    fn batch_and_replies_round_trip() {
        round_trip(Frame::Batch(vec![
            Request::Read { key: 9 },
            Request::Erase {
                key: 2,
                interpretation: ErasureInterpretation::StronglyDeleted,
            },
        ]));
        round_trip(Frame::Replies {
            responses: vec![Response {
                index: 0,
                outcome: Err(EngineError::RetentionExpired {
                    key: 2,
                    since: Ts(99),
                }),
                audit: AuditRef {
                    start: 5,
                    records: 2,
                    at: Ts(100),
                },
            }],
            stamps: vec![SubmitStamp { shard: 1, seq: 42 }],
        });
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut bytes = Frame::Goodbye.encode();
        bytes[0] = b'X';
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err, WireError::BadMagic);
        assert!(err.is_fatal());
    }

    #[test]
    fn truncated_payload_is_recoverable() {
        let bytes = Frame::Hello {
            tenant: "t".into(),
            token: "k".into(),
            actor: Actor::Subject,
        }
        .encode();
        // Re-frame a chopped payload under a correct header.
        let payload = &bytes[HEADER_LEN..bytes.len() - 1];
        let err = Frame::decode(0x01, payload).unwrap_err();
        assert_eq!(err, WireError::Truncated);
        assert!(!err.is_fatal());
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Frame::Goodbye.encode();
        bytes[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err, WireError::Oversized(u32::MAX));
        assert!(err.is_fatal());
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let err = Frame::decode(0x06, &[0u8]).unwrap_err();
        assert_eq!(err, WireError::Trailing(1));
    }

    #[test]
    fn timeout_is_fatal_with_a_stable_code() {
        let err = WireError::Timeout;
        assert!(err.is_fatal());
        assert_eq!(err.code(), "timeout");
        assert!(err.to_string().contains("deadline"));
    }
}
