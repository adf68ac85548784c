//! The data-erasure timeline of Figure 3: a unit is collected, lives for
//! "time-to-live", then passes (some prefix of) reversible inaccessibility
//! → deletion → strong deletion → permanent deletion.

use datacase_sim::time::{Dur, Ts};

use crate::action::Action;
use crate::grounding::erasure::ErasureInterpretation;
use crate::history::History;
use crate::ids::UnitId;

/// The reconstructed erasure timeline of one unit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ErasureTimeline {
    /// The unit traced.
    pub unit: UnitId,
    /// Collection/creation time.
    pub collected: Option<Ts>,
    /// When the unit became reversibly inaccessible.
    pub reversibly_inaccessible: Option<Ts>,
    /// When it was deleted.
    pub deleted: Option<Ts>,
    /// When it was strongly deleted.
    pub strongly_deleted: Option<Ts>,
    /// When it was permanently deleted.
    pub permanently_deleted: Option<Ts>,
}

impl ErasureTimeline {
    /// Reconstruct the timeline from the action history of `unit`.
    ///
    /// Each erase interpretation's first occurrence is taken; a stricter
    /// erase also stamps the weaker stages if they were skipped (deleting
    /// directly implies the data also became inaccessible then).
    pub fn from_history(history: &dyn History, unit: UnitId) -> ErasureTimeline {
        let mut tl = ErasureTimeline {
            unit,
            ..ErasureTimeline::default()
        };
        for t in history.of_unit(unit) {
            match t.action {
                Action::Create => {
                    tl.collected.get_or_insert(t.at);
                }
                Action::Erase(interp) => tl.stamp(interp, t.at),
                Action::Sanitize => {
                    tl.stamp(ErasureInterpretation::PermanentlyDeleted, t.at);
                }
                _ => {}
            }
        }
        tl
    }

    fn stamp(&mut self, interp: ErasureInterpretation, at: Ts) {
        use ErasureInterpretation::*;
        if interp.implies(ReversiblyInaccessible) {
            self.reversibly_inaccessible.get_or_insert(at);
        }
        if interp.implies(Deleted) {
            self.deleted.get_or_insert(at);
        }
        if interp.implies(StronglyDeleted) {
            self.strongly_deleted.get_or_insert(at);
        }
        if interp.implies(PermanentlyDeleted) {
            self.permanently_deleted.get_or_insert(at);
        }
    }

    /// Time-to-live: collection → first inaccessibility (Figure 3 "TT Live").
    pub fn tt_live(&self) -> Option<Dur> {
        Some(self.reversibly_inaccessible?.since(self.collected?))
    }

    /// Inaccessibility → physical deletion ("TT Delete").
    pub fn tt_delete(&self) -> Option<Dur> {
        Some(self.deleted?.since(self.reversibly_inaccessible?))
    }

    /// Deletion → strong deletion ("TT Strong Delete").
    pub fn tt_strong_delete(&self) -> Option<Dur> {
        Some(self.strongly_deleted?.since(self.deleted?))
    }

    /// Strong deletion → permanent deletion ("TT Permanent Delete").
    pub fn tt_permanent_delete(&self) -> Option<Dur> {
        Some(self.permanently_deleted?.since(self.strongly_deleted?))
    }

    /// Whether the stages that occurred did so in the figure's order.
    pub fn is_monotone(&self) -> bool {
        let stages = [
            self.collected,
            self.reversibly_inaccessible,
            self.deleted,
            self.strongly_deleted,
            self.permanently_deleted,
        ];
        let present: Vec<Ts> = stages.iter().filter_map(|s| *s).collect();
        present.windows(2).all(|w| w[0] <= w[1])
    }

    /// Render an ASCII version of Figure 3.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Erasure timeline for unit {}\n", self.unit));
        let mut stage = |label: &str, at: Option<Ts>, dur: Option<Dur>, dur_label: &str| match at {
            Some(ts) => {
                out.push_str(&format!("  ├─ {label:<28} @ {ts}"));
                if let Some(d) = dur {
                    out.push_str(&format!("   [{dur_label}: {d}]"));
                }
                out.push('\n');
            }
            None => out.push_str(&format!("  ├─ {label:<28} (not reached)\n")),
        };
        stage("collection and storage", self.collected, None, "");
        stage(
            "reversibly inaccessible",
            self.reversibly_inaccessible,
            self.tt_live(),
            "TT Live",
        );
        stage("deleted", self.deleted, self.tt_delete(), "TT Delete");
        stage(
            "strongly deleted",
            self.strongly_deleted,
            self.tt_strong_delete(),
            "TT Strong Delete",
        );
        stage(
            "permanently deleted",
            self.permanently_deleted,
            self.tt_permanent_delete(),
            "TT Permanent Delete",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::history::HistoryTuple;
    use crate::ids::EntityId;
    use crate::purpose::well_known as wk;

    fn t(s: u64) -> Ts {
        Ts::from_secs(s)
    }

    fn record(h: &mut Vec<HistoryTuple>, unit: UnitId, action: Action, at: Ts) {
        h.push(HistoryTuple {
            unit,
            purpose: wk::compliance_erase(),
            entity: EntityId(1),
            action,
            at,
        });
    }

    #[test]
    fn staged_erasure_reconstructs_figure3() {
        let u = UnitId(1);
        let mut h = Vec::new();
        record(&mut h, u, Action::Create, t(0));
        record(
            &mut h,
            u,
            Action::Erase(ErasureInterpretation::ReversiblyInaccessible),
            t(100),
        );
        record(
            &mut h,
            u,
            Action::Erase(ErasureInterpretation::Deleted),
            t(150),
        );
        record(
            &mut h,
            u,
            Action::Erase(ErasureInterpretation::StronglyDeleted),
            t(170),
        );
        record(&mut h, u, Action::Sanitize, t(200));
        let tl = ErasureTimeline::from_history(&h, u);
        assert_eq!(tl.collected, Some(t(0)));
        assert_eq!(tl.tt_live(), Some(Dur::from_secs(100)));
        assert_eq!(tl.tt_delete(), Some(Dur::from_secs(50)));
        assert_eq!(tl.tt_strong_delete(), Some(Dur::from_secs(20)));
        assert_eq!(tl.tt_permanent_delete(), Some(Dur::from_secs(30)));
        assert!(tl.is_monotone());
    }

    #[test]
    fn direct_strong_delete_stamps_weaker_stages() {
        let u = UnitId(2);
        let mut h = Vec::new();
        record(&mut h, u, Action::Create, t(0));
        record(
            &mut h,
            u,
            Action::Erase(ErasureInterpretation::StronglyDeleted),
            t(50),
        );
        let tl = ErasureTimeline::from_history(&h, u);
        assert_eq!(tl.reversibly_inaccessible, Some(t(50)));
        assert_eq!(tl.deleted, Some(t(50)));
        assert_eq!(tl.strongly_deleted, Some(t(50)));
        assert_eq!(tl.permanently_deleted, None);
        assert!(tl.is_monotone());
    }

    #[test]
    fn unreached_stages_render_as_such() {
        let u = UnitId(3);
        let mut h = Vec::new();
        record(&mut h, u, Action::Create, t(0));
        let tl = ErasureTimeline::from_history(&h, u);
        let s = tl.render();
        assert!(s.contains("(not reached)"));
        assert!(s.contains("collection and storage"));
        assert_eq!(tl.tt_live(), None);
    }

    #[test]
    fn empty_history_gives_empty_timeline() {
        let h: Vec<HistoryTuple> = Vec::new();
        let tl = ErasureTimeline::from_history(&h, UnitId(9));
        assert_eq!(tl.collected, None);
        assert!(tl.is_monotone());
    }
}
