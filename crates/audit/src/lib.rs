#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # datacase-audit
//!
//! Record keeping and accountability substrates (paper Figure 1's
//! invariants VII "keep records of all data-operations" and IX
//! "demonstrate compliance"): one [`AuditLog`], in the [`LogFormat`] of
//! each compliance profile (§4.2) — P_Base's CSV rows, P_GBench's full
//! queries and responses, P_SYS's per-shard AES-128 ciphertext.
//!
//! Every log maintains an HMAC hash chain ([`record::HmacChain`]) making
//! it tamper-evident — the evidence invariant IX asks for — and redacts a
//! unit's records on erasure. A link MACs a record's facts and a keyed
//! commitment to its payload, so redaction, which swaps a payload for its
//! commitment, never rewrites the chain: a record altered before or after
//! an erase still fails verification, and a head taken before an erase
//! still heads the same records after it.
//!
//! [`loggers`] keeps the former logger names as bridges to [`AuditLog`].

pub mod loggers;
pub mod record;

pub use loggers::{AuditLog, LogFormat};
pub use record::{HmacChain, LogRecord};
