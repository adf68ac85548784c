//! Invariants: data regulations stated formally over Data-CASE concepts
//! (paper §2.2 and Figure 1).
//!
//! Figure 1 groups the GDPR's system-relevant articles into nine informal
//! invariants (I Disclosure … IX Demonstrate compliance); §2.2 formalises
//! two of them — G6 (lawful processing = policy consistency, Figure 1's
//! IV) and G17 (timely erasure, Figure 1's V). [`CATALOG`] is that list
//! as one table, with the formal ids in IV's and V's places: each row is an
//! id, a statement, the articles it covers and the *grounding* we chose
//! for its informal text — what exactly is checked against the model
//! state and history. Different groundings are possible — that is the
//! paper's point — and each grounding function's docs state ours
//! precisely. A regulation selects the rows it enforces by id.

pub mod catalog;
pub mod g17;
pub mod g6;

use datacase_sim::time::Ts;

use crate::history::History;
use crate::purpose::PurposeRegistry;
use crate::regulation::Regulation;
use crate::state::DatabaseState;
use crate::tenant::TenantDirectory;
use crate::violation::Violation;

/// Externally supplied evidence the model cannot derive by itself
/// (produced by the audit and engine layers).
#[derive(Clone, Copy, Debug, Default)]
pub struct EvidenceFlags {
    /// The audit log chain verified as tamper-evident (HMAC chain intact).
    pub audit_log_tamper_evident: bool,
    /// The deployment encrypts personal data at rest by default.
    pub encryption_at_rest_default: bool,
}

/// Everything an invariant may inspect.
#[derive(Clone, Copy)]
pub struct CheckContext<'a> {
    /// The abstract database state.
    pub state: &'a DatabaseState,
    /// The full action history (the engine's: a view of its chained
    /// audit log).
    pub history: &'a dyn History,
    /// Grounded purposes.
    pub purposes: &'a PurposeRegistry,
    /// The regulation being checked against.
    pub regulation: &'a Regulation,
    /// The instant of the check.
    pub now: Ts,
    /// External evidence flags.
    pub evidence: EvidenceFlags,
    /// Entity → tenant assignments for served multi-tenant deployments
    /// (empty for single-tenant, in-process deployments, which makes X
    /// vacuous).
    pub tenants: &'a TenantDirectory,
}

/// One row of the catalog: a checkable invariant and its grounding.
#[derive(Clone, Copy, Debug)]
pub struct Invariant {
    /// Stable identifier ("I".."X", with "G6" and "G17" for IV and V).
    pub id: &'static str,
    /// Short human-readable statement.
    pub statement: &'static str,
    /// GDPR articles the invariant covers (Figure 1's bracketed lists).
    pub articles: &'static [u8],
    /// The grounding: evaluates the context and reports each violation
    /// under the row's [`id`](Invariant::id); an empty result means the
    /// invariant holds.
    pub check: fn(&CheckContext<'_>) -> Vec<Violation>,
}

/// Figure 1's invariants plus the deployment invariant X, in display
/// order. Rows IV (sharing and processing) and V (erasure) are the ones
/// §2.2 formalises, so they carry the formal ids G6 and G17.
pub const CATALOG: [Invariant; 10] = [
    Invariant {
        id: "I",
        statement: "Keep data subjects informed when collecting data.",
        articles: &[13, 14],
        check: catalog::disclosure,
    },
    Invariant {
        id: "II",
        statement: "Store data such that data subjects can exercise their rights.",
        articles: &[12, 15, 16, 17, 18, 20, 21, 23],
        check: catalog::storage,
    },
    Invariant {
        id: "III",
        statement: "Consult and assess prior to processing data.",
        articles: &[35, 36],
        check: catalog::pre_processing,
    },
    Invariant {
        id: "G6",
        statement: "Do not process data indiscriminately (all actions policy-consistent).",
        articles: &[5, 6, 7, 8, 9, 10, 11, 22, 26, 27, 28, 29, 44, 45],
        check: g6::policy_consistency,
    },
    Invariant {
        id: "G17",
        statement: "Do not store data eternally (erase-by policies honoured).",
        articles: &[17],
        check: g17::timely_erasure,
    },
    Invariant {
        id: "VI",
        statement: "Build and design data-protective systems (encryption at rest).",
        articles: &[25, 32],
        check: catalog::design_security,
    },
    Invariant {
        id: "VII",
        statement: "Keep records of all data-operations.",
        articles: &[30],
        check: catalog::record_keeping,
    },
    Invariant {
        id: "VIII",
        statement: "Inform the user of changes and unauthorised access to their data.",
        articles: &[19, 33, 34],
        check: catalog::obligations,
    },
    Invariant {
        id: "IX",
        statement: "Demonstrate compliance (auditable, tamper-evident records).",
        articles: &[24, 31],
        check: catalog::demonstrate,
    },
    Invariant {
        id: "X",
        statement: "Isolate tenants: no probe surfaces another tenant's data or records.",
        articles: &[28, 32],
        check: catalog::tenant_isolation,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_unique_and_complete() {
        let ids: Vec<&str> = CATALOG.iter().map(|i| i.id).collect();
        let expected = [
            "I", "II", "III", "G6", "G17", "VI", "VII", "VIII", "IX", "X",
        ];
        assert_eq!(ids, expected);
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn every_invariant_names_articles_and_statement() {
        for inv in CATALOG {
            assert!(!inv.statement.is_empty(), "{}", inv.id);
            assert!(!inv.articles.is_empty(), "{}", inv.id);
        }
    }

    #[test]
    fn every_regulation_enforces_only_catalog_rows() {
        // A misspelt id would silently disable the invariant it meant.
        for reg in [
            Regulation::gdpr(),
            Regulation::gdpr_strict_member_state(),
            Regulation::pipeda(),
            Regulation::ccpa(),
        ] {
            for id in &reg.invariants {
                assert!(
                    CATALOG.iter().any(|i| i.id == *id),
                    "{} enforces {id}, which names no catalog row",
                    reg.name
                );
            }
        }
    }
}
