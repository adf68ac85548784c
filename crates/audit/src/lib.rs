#![warn(missing_docs)]
//! # datacase-audit
//!
//! Record keeping and accountability substrates (paper Figure 1's
//! invariants VII "keep records of all data-operations" and IX
//! "demonstrate compliance"), in the three flavours the compliance
//! profiles use (§4.2):
//!
//! * [`loggers::CsvRowLogger`] — P_Base: native CSV row-level logging of
//!   query responses;
//! * [`loggers::FullQueryLogger`] — P_GBench: logs *all queries and
//!   responses* (more bytes per operation);
//! * [`loggers::EncryptedLogger`] — P_SYS: AES-128-encrypted records, and
//!   support for deleting a unit's log records on erasure.
//!
//! All three maintain an HMAC hash chain ([`record::HmacChain`]) making the
//! log tamper-evident — the evidence invariant IX asks for.

pub mod loggers;
pub mod record;

pub use loggers::{AuditLogger, CsvRowLogger, EncryptedLogger, FullQueryLogger};
pub use record::{HmacChain, LogRecord};
