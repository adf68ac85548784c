//! Property suite for the Data-CASE wire protocol.
//!
//! Three contracts:
//!
//! * **Total round-trip** — every [`Request`], [`Reply`], and
//!   [`EngineError`] variant (and every control frame) survives
//!   encode → decode byte-exactly, for arbitrary field values.
//! * **Malformed input never panics** — seeded corruption of payload
//!   bytes either still decodes or yields a typed [`WireError`]; header
//!   corruption (magic, version, oversized length) yields the matching
//!   *fatal* error before any allocation.
//! * **Payload errors never desynchronize** — after a well-framed but
//!   undecodable payload, the next frame on the stream still parses:
//!   the length prefix alone delimits frames, so one poisoned payload
//!   cannot eat its successors.

use data_case::sim::check::check;

use data_case::core::grounding::erasure::ErasureInterpretation;
use data_case::core::purpose::PurposeId;
use data_case::prelude::*;
use data_case::server::wire::{self, Frame, WireError, HEADER_LEN, MAX_FRAME};
use data_case::workloads::{MetaField, MetaSelector};

fn purpose(i: u8) -> PurposeId {
    let names = ["billing", "retention", "advertising", "analytics"];
    PurposeId::new(names[i as usize % names.len()])
}

fn interpretation(i: u8) -> ErasureInterpretation {
    match i % 4 {
        0 => ErasureInterpretation::ReversiblyInaccessible,
        1 => ErasureInterpretation::Deleted,
        2 => ErasureInterpretation::StronglyDeleted,
        _ => ErasureInterpretation::PermanentlyDeleted,
    }
}

/// One request per wire tag, fields driven by the drawn scalars — so a
/// single case exercises the codec's whole Request vocabulary.
fn all_requests(key: u64, subject: u32, aux: u8, payload_len: usize) -> Vec<Request> {
    let payload: Vec<u8> = (0..payload_len)
        .map(|i| (i as u8).wrapping_mul(aux))
        .collect();
    vec![
        Request::Create {
            key,
            payload: payload.clone(),
            metadata: GdprMetadata {
                subject,
                purpose: purpose(aux),
                ttl: Ts(key.rotate_left(7)),
                origin_device: subject.wrapping_add(3),
                objects_to_sharing: aux & 1 == 1,
            },
        },
        Request::Read { key },
        Request::Update { key, payload },
        Request::Delete { key },
        Request::ReadMeta { key },
        Request::UpdateMeta {
            key,
            field: match aux % 3 {
                0 => MetaField::Ttl,
                1 => MetaField::Purpose,
                _ => MetaField::Objection,
            },
        },
        Request::ReadByMeta {
            selector: if aux & 1 == 0 {
                MetaSelector::ByPurpose(purpose(aux))
            } else {
                MetaSelector::BySubject(subject)
            },
        },
        Request::Erase {
            key,
            interpretation: interpretation(aux),
        },
        Request::Restore { key },
    ]
}

/// One response per (reply | error) variant, so a single Replies frame
/// exercises the codec's whole outcome vocabulary.
fn all_responses(key: u64, n: u64, aux: u8) -> Vec<Response> {
    let outcomes: Vec<Result<Reply, EngineError>> = vec![
        Ok(Reply::Done),
        Ok(Reply::Value(n as usize)),
        Ok(Reply::Rows(n as usize)),
        Ok(Reply::Erased(interpretation(aux))),
        Ok(Reply::Restored),
        Err(EngineError::Denied {
            reason: format!("denied-{aux}"),
        }),
        Err(EngineError::NotFound { key }),
        Err(EngineError::RetentionExpired {
            key,
            since: Ts(n.rotate_left(3)),
        }),
        Err(EngineError::Backend {
            detail: format!("backend-{n}"),
        }),
    ];
    outcomes
        .into_iter()
        .enumerate()
        .map(|(index, outcome)| Response {
            index,
            outcome,
            audit: AuditRef {
                start: n.wrapping_add(index as u64),
                records: u64::from(aux),
                at: Ts(n ^ key),
            },
        })
        .collect()
}

/// Every Request variant round-trips byte-exactly for arbitrary
/// field values, in one Batch frame.
#[test]
fn every_request_variant_round_trips() {
    check("every_request_variant_round_trips", 64, |s| {
        let key = s.u64();
        let subject = s.range::<u32>(..);
        let aux = s.range::<u8>(..);
        let payload_len = s.range(0usize..64);
        let frame = Frame::Batch(all_requests(key, subject, aux, payload_len));
        let bytes = frame.encode();
        let decoded = wire::read_frame(&mut bytes.as_slice()).expect("round trip");
        assert_eq!(decoded, frame);
    });
}

/// Every Reply and EngineError variant round-trips inside a Replies
/// frame, along with the submit stamps.
#[test]
fn every_outcome_variant_round_trips() {
    check("every_outcome_variant_round_trips", 64, |s| {
        let key = s.u64();
        let n = s.range(0u64..(1 << 40));
        let aux = s.range::<u8>(..);
        let shards = s.vec(0..5, |s| (s.range(0usize..16), s.u64()));
        let frame = Frame::Replies {
            responses: all_responses(key, n, aux),
            stamps: shards
                .iter()
                .map(|&(shard, seq)| SubmitStamp { shard, seq })
                .collect(),
        };
        let bytes = frame.encode();
        let decoded = wire::read_frame(&mut bytes.as_slice()).expect("round trip");
        assert_eq!(decoded, frame);
    });
}

/// Control frames (handshake and errors) round-trip for arbitrary
/// string contents and ids.
#[test]
fn control_frames_round_trip() {
    check("control_frames_round_trip", 64, |s| {
        let a = s.u64();
        let b = s.range::<u32>(..);
        let c = s.range::<u16>(..);
        let actor_tag = s.range(0u8..3);
        let actor = [Actor::Controller, Actor::Processor, Actor::Subject][actor_tag as usize];
        for frame in [
            Frame::Hello {
                tenant: format!("tenant-{a}"),
                token: format!("token-{b}"),
                actor,
            },
            Frame::Welcome {
                tenant_id: b,
                shards: c,
            },
            Frame::ProtocolError {
                code: format!("code-{c}"),
                detail: format!("detail-{a}"),
            },
            Frame::Goodbye,
        ] {
            let bytes = frame.encode();
            let decoded = wire::read_frame(&mut bytes.as_slice()).expect("round trip");
            assert_eq!(decoded, frame);
        }
    });
}

/// Seeded payload corruption never panics, and — because the length
/// prefix alone delimits frames — never desynchronizes: whatever the
/// corrupted frame decodes to (or fails to), the next frame on the
/// stream still parses cleanly.
#[test]
fn corrupted_payloads_neither_panic_nor_desync() {
    check("corrupted_payloads_neither_panic_nor_desync", 64, |s| {
        let key = s.u64();
        let subject = s.range::<u32>(..);
        let aux = s.range::<u8>(..);
        let flips = s.vec(1..8, |s| (s.range::<u32>(..), s.range::<u8>(..)));
        let mut bytes = Frame::Batch(all_requests(key, subject, aux, 16)).encode();
        let payload_len = bytes.len() - HEADER_LEN;
        for &(pos, value) in &flips {
            bytes[HEADER_LEN + pos as usize % payload_len] = value;
        }
        bytes.extend_from_slice(&Frame::Goodbye.encode());
        let mut stream = bytes.as_slice();
        match wire::read_frame(&mut stream) {
            Ok(_) => {}
            Err(err) => assert!(
                !err.is_fatal(),
                "payload-level corruption must stay recoverable, got {err:?}"
            ),
        }
        // The stream is still on a frame boundary.
        assert_eq!(
            wire::read_frame(&mut stream).expect("resync"),
            Frame::Goodbye
        );
        assert!(stream.is_empty());
    });
}

/// Truncating a frame at any point yields a clean error, never a
/// panic: header truncation and payload truncation both surface as
/// fatal transport errors.
#[test]
fn truncated_streams_error_cleanly() {
    check("truncated_streams_error_cleanly", 64, |s| {
        let key = s.u64();
        let subject = s.range::<u32>(..);
        let aux = s.range::<u8>(..);
        let cut = s.range::<u32>(..);
        let bytes = Frame::Batch(all_requests(key, subject, aux, 16)).encode();
        let cut = cut as usize % bytes.len();
        let err = wire::read_frame(&mut &bytes[..cut]).expect_err("truncated stream");
        assert!(err.is_fatal(), "mid-frame EOF loses sync, got {err:?}");
    });
}

/// Header-level garbage — bad magic, bad version, oversized declared
/// length — is rejected as fatal before any payload allocation.
#[test]
fn bad_headers_are_fatal() {
    check("bad_headers_are_fatal", 64, |s| {
        let magic = s.range::<u8>(..);
        let version = s.range(2u8..=u8::MAX);
        let oversize = s.range((MAX_FRAME + 1)..=u32::MAX);
        let good = Frame::Goodbye.encode();

        let mut bad_magic = good.clone();
        bad_magic[0] = magic | 0x80; // high bit set, so never b'D'
        let err = wire::read_frame(&mut bad_magic.as_slice()).expect_err("bad magic");
        assert_eq!(&err, &WireError::BadMagic);
        assert!(err.is_fatal());

        let mut bad_version = good.clone();
        bad_version[2] = version;
        let err = wire::read_frame(&mut bad_version.as_slice()).expect_err("bad version");
        assert_eq!(&err, &WireError::BadVersion(version));
        assert!(err.is_fatal());

        let mut oversized = good;
        oversized[4..8].copy_from_slice(&oversize.to_be_bytes());
        let err = wire::read_frame(&mut oversized.as_slice()).expect_err("oversized");
        assert_eq!(&err, &WireError::Oversized(oversize));
        assert!(err.is_fatal());
    });
}

/// Unknown enum tags inside a well-framed payload are typed,
/// recoverable errors.
#[test]
fn unknown_tags_are_recoverable() {
    check("unknown_tags_are_recoverable", 64, |s| {
        let tag = s.range(9u8..=u8::MAX);
        let key = s.u64();
        // A Batch of one request whose leading variant tag is unknown.
        let mut payload = 1u32.to_be_bytes().to_vec();
        payload.push(tag);
        payload.extend_from_slice(&key.to_be_bytes());
        let err = Frame::decode(0x03, &payload).expect_err("unknown tag");
        assert_eq!(
            &err,
            &WireError::UnknownTag {
                what: "request",
                tag
            }
        );
        assert!(!err.is_fatal());
    });
}
