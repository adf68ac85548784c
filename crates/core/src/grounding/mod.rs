//! Grounding: mapping an ambiguous concept to a unique, formally stated
//! interpretation, then to system-actions (paper §3, Figure 2).
//!
//! The paper works erasure end to end; this module does the same:
//! * [`erasure`] — the four interpretations and their restrictiveness order;
//! * [`properties`] — the three characterising properties (IR, II, Inv) and
//!   the expected matrix of Table 1.
//!
//! The last step, interpretation → system-actions (Table 1's last column),
//! is system dependent, so it lives with the system: the engine's
//! `datacase_engine::erasure::plan` maps each interpretation to the steps
//! a configured engine executes on its backend.

pub mod erasure;
pub mod properties;

pub use erasure::ErasureInterpretation;
pub use properties::{ErasureProperties, PropertyProbe};
