//! The metadata-table enforcer's former name, kept as a bridge to the
//! [`PolicyTable`] with [`Mechanism::MetaTable`]; ROADMAP item 25
//! deletes it.

use std::sync::Arc;

use datacase_sim::{Meter, SimClock};

use crate::table::{Mechanism, PolicyTable};

/// The former metadata-table enforcer's name.
pub struct MetaTableEnforcer;

#[allow(clippy::new_ret_no_self)] // A bridge: `new` builds the table.
impl MetaTableEnforcer {
    /// A metadata table.
    pub fn new(clock: SimClock, meter: Arc<Meter>) -> PolicyTable {
        PolicyTable::new(Mechanism::MetaTable, clock, meter)
    }
}
