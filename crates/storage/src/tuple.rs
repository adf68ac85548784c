//! Heap tuple encoding: MVCC header + payload.
//!
//! The header carries `xmin`/`xmax` (creating/deleting transaction ids),
//! the Data-CASE unit id, the record key, and flags — including the
//! `HIDDEN` bit that implements the *reversibly inaccessible* erasure
//! grounding ("add new attribute" in Table 1).

/// Tuple flag: hidden from data-subject reads (reversible inaccessibility).
pub const FLAG_HIDDEN: u16 = 1 << 0;
/// Tuple flag: payload is encrypted at rest (per-tuple encryption).
pub const FLAG_ENCRYPTED: u16 = 1 << 1;

/// Size of the fixed tuple header.
pub const TUPLE_HEADER: usize = 8 + 8 + 8 + 8 + 2 + 2;

/// A tuple identifier: (page, slot).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Tid {
    /// Page number within the table.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

impl std::fmt::Display for Tid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.page, self.slot)
    }
}

/// Decoded MVCC tuple header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TupleHeader {
    /// Transaction that created this version.
    pub xmin: u64,
    /// Transaction that deleted it (0 = live).
    pub xmax: u64,
    /// Data-CASE unit id the record belongs to.
    pub unit_id: u64,
    /// Record key.
    pub key: u64,
    /// Flag bits.
    pub flags: u16,
}

impl TupleHeader {
    /// A live header for a new version.
    pub fn new(xmin: u64, unit_id: u64, key: u64) -> TupleHeader {
        TupleHeader {
            xmin,
            xmax: 0,
            unit_id,
            key,
            flags: 0,
        }
    }

    /// Is the HIDDEN flag set?
    pub fn is_hidden(&self) -> bool {
        self.flags & FLAG_HIDDEN != 0
    }

    /// Is the payload encrypted?
    pub fn is_encrypted(&self) -> bool {
        self.flags & FLAG_ENCRYPTED != 0
    }
}

/// Encode header + payload into on-page bytes.
pub fn encode(header: &TupleHeader, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(TUPLE_HEADER + payload.len());
    out.extend_from_slice(&header.xmin.to_le_bytes());
    out.extend_from_slice(&header.xmax.to_le_bytes());
    out.extend_from_slice(&header.unit_id.to_le_bytes());
    out.extend_from_slice(&header.key.to_le_bytes());
    out.extend_from_slice(&header.flags.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decode on-page bytes into (header, payload).
///
/// # Panics
/// Panics if `bytes` is shorter than the fixed header or the declared
/// payload length — pages are trusted storage, such corruption is a bug.
pub fn decode(bytes: &[u8]) -> (TupleHeader, &[u8]) {
    assert!(bytes.len() >= TUPLE_HEADER, "truncated tuple");
    let xmin = u64::from_le_bytes(bytes[0..8].try_into().expect("8"));
    let xmax = u64::from_le_bytes(bytes[8..16].try_into().expect("8"));
    let unit_id = u64::from_le_bytes(bytes[16..24].try_into().expect("8"));
    let key = u64::from_le_bytes(bytes[24..32].try_into().expect("8"));
    let flags = u16::from_le_bytes(bytes[32..34].try_into().expect("2"));
    let len = u16::from_le_bytes(bytes[34..36].try_into().expect("2")) as usize;
    assert!(bytes.len() >= TUPLE_HEADER + len, "truncated payload");
    (
        TupleHeader {
            xmin,
            xmax,
            unit_id,
            key,
            flags,
        },
        &bytes[TUPLE_HEADER..TUPLE_HEADER + len],
    )
}

/// Re-encode only the header fields over existing tuple bytes (in-place
/// xmax stamping / flag flips without touching the payload).
pub fn patch_header(bytes: &mut [u8], header: &TupleHeader) {
    bytes[0..8].copy_from_slice(&header.xmin.to_le_bytes());
    bytes[8..16].copy_from_slice(&header.xmax.to_le_bytes());
    bytes[16..24].copy_from_slice(&header.unit_id.to_le_bytes());
    bytes[24..32].copy_from_slice(&header.key.to_le_bytes());
    bytes[32..34].copy_from_slice(&header.flags.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_sim::check::check;

    #[test]
    fn encode_decode_roundtrip() {
        let h = TupleHeader {
            xmin: 42,
            xmax: 0,
            unit_id: 7,
            key: 1234,
            flags: FLAG_HIDDEN,
        };
        let bytes = encode(&h, b"payload-bytes");
        let (h2, p) = decode(&bytes);
        assert_eq!(h, h2);
        assert_eq!(p, b"payload-bytes");
        assert!(h2.is_hidden());
        assert!(!h2.is_encrypted());
    }

    #[test]
    fn patch_header_keeps_payload() {
        let h = TupleHeader::new(1, 9, 55);
        let mut bytes = encode(&h, b"data");
        let mut h2 = h;
        h2.xmax = 77;
        h2.flags |= FLAG_ENCRYPTED;
        patch_header(&mut bytes, &h2);
        let (h3, p) = decode(&bytes);
        assert_eq!(h3.xmax, 77);
        assert!(h3.is_encrypted());
        assert_eq!(p, b"data");
    }

    #[test]
    fn empty_payload_ok() {
        let h = TupleHeader::new(1, 2, 3);
        let bytes = encode(&h, b"");
        let (_, p) = decode(&bytes);
        assert!(p.is_empty());
        assert_eq!(bytes.len(), TUPLE_HEADER);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_decode_panics() {
        let _ = decode(&[0u8; 10]);
    }

    #[test]
    fn tid_display() {
        assert_eq!(format!("{}", Tid { page: 3, slot: 9 }), "(3,9)");
    }

    #[test]
    fn roundtrip_any_payload() {
        check("roundtrip_any_payload", 64, |s| {
            let xmin = s.u64();
            let key = s.u64();
            let payload = s.vec(0..1000, |s| s.range(0u8..=255));
            let h = TupleHeader::new(xmin, key ^ 1, key);
            let bytes = encode(&h, &payload);
            let (h2, p2) = decode(&bytes);
            assert_eq!(h, h2);
            assert_eq!(p2, payload.as_slice());
        });
    }
}
