//! The three properties that ground erasure interpretations (paper §3.1):
//!
//! * **Erasure-inconsistent read (IR)** — a read of `X` at a time when
//!   `P(t) = ∅` (no policy authorised it).
//! * **Erasure-inconsistent inference (II)** — `X` was erased but can still
//!   be inferred: from dependent/provenance data, or from physical
//!   residuals (dead tuples, old SSTable runs, logs).
//! * **Transformation invertibility (Inv)** — the transformation applied to
//!   prevent reads (hiding, encryption, zeroing) is reversible.
//!
//! Table 1's characterisation is encoded in [`ErasureProperties::expected`],
//! the paper's expected matrix. The measured side lives with the engine
//! (`datacase_engine::erasure::probe_on`), which reads II off the forensic
//! scanner's residuals and the provenance graph of a live engine, so the
//! `repro table1` harness can print expected vs measured.

use super::erasure::ErasureInterpretation;

/// The (IR, II, Inv) feasibility triple for one interpretation.
/// `true` = the phenomenon is feasible/possible under that interpretation
/// (the paper's ✓).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ErasureProperties {
    /// Can an erasure-inconsistent read occur?
    pub illegal_read: bool,
    /// Can the erased data still be inferred?
    pub illegal_inference: bool,
    /// Is the transformation invertible (data recoverable by design)?
    pub invertible: bool,
}

impl ErasureProperties {
    /// Table 1's expected matrix.
    ///
    /// | erasure                | IR | II | Inv |
    /// |------------------------|----|----|-----|
    /// | reversibly inaccessible| ×  | ✓  | ✓   |
    /// | delete                 | ×  | ✓  | ×   |
    /// | strong delete          | ×  | ×  | ×   |
    /// | permanently delete     | ×  | ×  | ×   |
    ///
    /// IR is infeasible under every interpretation *provided the system
    /// enforces policies on every read path* — which is exactly what the
    /// engine's policy middleware guarantees and the probe verifies.
    /// Plain delete leaves II feasible because dependent/derived data (and
    /// physical residuals) survive; strong/permanent deletion remove them.
    pub fn expected(interp: ErasureInterpretation) -> ErasureProperties {
        match interp {
            ErasureInterpretation::ReversiblyInaccessible => ErasureProperties {
                illegal_read: false,
                illegal_inference: true,
                invertible: true,
            },
            ErasureInterpretation::Deleted => ErasureProperties {
                illegal_read: false,
                illegal_inference: true,
                invertible: false,
            },
            ErasureInterpretation::StronglyDeleted | ErasureInterpretation::PermanentlyDeleted => {
                ErasureProperties {
                    illegal_read: false,
                    illegal_inference: false,
                    invertible: false,
                }
            }
        }
    }

    /// Render as the paper's ✓/× cells, in (IR, II, Inv) order.
    pub fn cells(&self) -> [&'static str; 3] {
        let mark = |b: bool| if b { "✓" } else { "×" };
        [
            mark(self.illegal_read),
            mark(self.illegal_inference),
            mark(self.invertible),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_table_1() {
        use ErasureInterpretation::*;
        let ri = ErasureProperties::expected(ReversiblyInaccessible);
        assert!(!ri.illegal_read && ri.illegal_inference && ri.invertible);
        let del = ErasureProperties::expected(Deleted);
        assert!(!del.illegal_read && del.illegal_inference && !del.invertible);
        let sd = ErasureProperties::expected(StronglyDeleted);
        assert!(!sd.illegal_read && !sd.illegal_inference && !sd.invertible);
        let pd = ErasureProperties::expected(PermanentlyDeleted);
        assert_eq!(sd, pd, "strong and permanent share the property triple");
    }

    #[test]
    fn stricter_interpretations_never_add_feasibility() {
        // Monotonicity: as restrictiveness grows, each property can only go
        // from feasible to infeasible.
        let all: Vec<_> = ErasureInterpretation::ALL
            .iter()
            .map(|&i| ErasureProperties::expected(i))
            .collect();
        for w in all.windows(2) {
            assert!(w[0].illegal_read || !w[1].illegal_read);
            assert!(w[0].illegal_inference || !w[1].illegal_inference);
            assert!(w[0].invertible || !w[1].invertible);
        }
    }

    #[test]
    fn cells_render_checkmarks() {
        let p = ErasureProperties::expected(ErasureInterpretation::ReversiblyInaccessible);
        assert_eq!(p.cells(), ["×", "✓", "✓"]);
    }
}
