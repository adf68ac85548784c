//! Sieve FGAC's former names, kept as bridges to the [`PolicyTable`]
//! with [`Mechanism::Sieve`]; ROADMAP item 25 deletes them.

use std::sync::Arc;

use datacase_sim::{Meter, SimClock};

use crate::table::{Mechanism, PolicyTable};

/// FGAC middleware configuration.
#[derive(Clone, Copy, Debug)]
pub struct FgacConfig {
    /// Use the (entity, purpose) policy index (Sieve). Disabling it is the
    /// ablation: linear scans over per-unit policies.
    pub use_index: bool,
}

impl Default for FgacConfig {
    fn default() -> Self {
        FgacConfig { use_index: true }
    }
}

/// The former FGAC enforcer's name.
pub struct FgacEnforcer;

#[allow(clippy::new_ret_no_self)] // A bridge: `new` builds the table.
impl FgacEnforcer {
    /// A Sieve table, indexed as `config` says.
    pub fn new(config: FgacConfig, clock: SimClock, meter: Arc<Meter>) -> PolicyTable {
        let mechanism = Mechanism::Sieve {
            indexed: config.use_index,
        };
        PolicyTable::new(mechanism, clock, meter)
    }
}
