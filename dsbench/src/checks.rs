//! Output checks: every query resolves exactly once, and an outcome
//! fingerprint that must repeat wherever the engine is deterministic.

use std::collections::HashMap;

use diffserve_core::{QueryOutcome, RunReport};

/// How one session's tickets resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resolution {
    /// Queries submitted.
    pub submitted: u64,
    /// Polled completions.
    pub completed: u64,
    /// Polled drops.
    pub dropped: u64,
    /// Tickets with no polled outcome, which `finish()` accounts as drops.
    pub unresolved: u64,
}

/// Checks conservation for one session: every polled outcome belongs to a
/// ticket and no ticket resolves twice; the report's totals agree with
/// what was polled (completed + dropped = submitted = `total_queries`,
/// with unresolved tickets counted among the report's drops).
pub fn conservation(
    tickets: &[u64],
    outcomes: &[QueryOutcome],
    report: &RunReport,
) -> Result<Resolution, String> {
    let mut seen: HashMap<u64, bool> = tickets.iter().map(|&id| (id, false)).collect();
    if seen.len() != tickets.len() {
        return Err("two tickets share an id".into());
    }
    let mut r = Resolution {
        submitted: tickets.len() as u64,
        ..Default::default()
    };
    for o in outcomes {
        let id = o.id().0;
        match seen.get_mut(&id) {
            None => return Err(format!("outcome for unknown query {id}")),
            Some(true) => return Err(format!("query {id} resolved twice")),
            Some(done) => *done = true,
        }
        if o.is_completed() {
            r.completed += 1;
        } else {
            r.dropped += 1;
        }
    }
    r.unresolved = r.submitted - r.completed - r.dropped;
    if report.total_queries != r.submitted {
        return Err(format!(
            "report counts {} queries, {} were submitted",
            report.total_queries, r.submitted
        ));
    }
    if report.completed != r.completed || report.dropped != r.dropped + r.unresolved {
        return Err(format!(
            "report says {} completed + {} dropped; polled {} + {} with {} unresolved",
            report.completed, report.dropped, r.completed, r.dropped, r.unresolved
        ));
    }
    Ok(r)
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds in one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Folds one session's outcome stream and report aggregates into `h`.
pub fn fingerprint(h: &mut Fnv, outcomes: &[QueryOutcome], report: &RunReport) {
    for o in outcomes {
        match o {
            QueryOutcome::Completed(r) => {
                h.word(r.id.0);
                h.word(r.completion.as_micros());
                h.word(r.tier_index as u64);
                h.word(r.quality.to_bits());
                h.word(r.gpu_time.to_bits());
            }
            QueryOutcome::Dropped { id, at, .. } => {
                h.word(id.0 | 1 << 63);
                h.word(at.as_micros());
            }
        }
    }
    for w in [
        report.total_queries,
        report.completed,
        report.dropped,
        report.late,
        report.fid.to_bits(),
        report.gpu_time_per_query.to_bits(),
        report.addon_stats.total_lookups(),
        report.addon_stats.hits[0] + report.addon_stats.hits[1],
    ] {
        h.word(w);
    }
    for t in &report.tier_breakdown {
        h.word(t.completions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffserve_core::{CompletedResponse, ModelTier, Policy, QueryId};
    use diffserve_simkit::time::SimTime;

    fn done(id: u64) -> QueryOutcome {
        QueryOutcome::Completed(CompletedResponse {
            id: QueryId(id),
            arrival: SimTime::ZERO,
            completion: SimTime::from_secs(1),
            features: vec![0.0; 2],
            quality: 0.5,
            tier: ModelTier::Light,
            tier_index: 0,
            confidence: None,
            gpu_time: 0.1,
            reused_steps: 0,
        })
    }

    fn dropped(id: u64) -> QueryOutcome {
        QueryOutcome::Dropped {
            id: QueryId(id),
            arrival: SimTime::ZERO,
            at: SimTime::from_secs(2),
        }
    }

    fn report(total: u64, completed: u64, dropped: u64) -> RunReport {
        let mut r = RunReport::empty(Policy::DiffServe);
        r.total_queries = total;
        r.completed = completed;
        r.dropped = dropped;
        r
    }

    #[test]
    fn conservation_accepts_a_consistent_session() {
        let outcomes = vec![done(0), dropped(1), done(2)];
        // Query 3 never resolved before finish(), which counted it dropped.
        let r = conservation(&[0, 1, 2, 3], &outcomes, &report(4, 2, 2)).unwrap();
        assert_eq!((r.completed, r.dropped, r.unresolved), (2, 1, 1));
    }

    #[test]
    fn conservation_rejects_a_duplicated_outcome() {
        let outcomes = vec![done(0), done(1), done(1)];
        let err = conservation(&[0, 1], &outcomes, &report(2, 3, 0)).unwrap_err();
        assert!(err.contains("resolved twice"), "{err}");
    }

    #[test]
    fn conservation_rejects_a_missing_outcome() {
        // Query 2 has no outcome, yet the report claims nothing was
        // dropped: one query vanished.
        let outcomes = vec![done(0), done(1)];
        let err = conservation(&[0, 1, 2], &outcomes, &report(3, 2, 0)).unwrap_err();
        assert!(err.contains("unresolved"), "{err}");
    }

    #[test]
    fn conservation_rejects_unknown_ids_and_miscounted_totals() {
        assert!(conservation(&[0], &[done(5)], &report(1, 1, 0)).is_err());
        assert!(conservation(&[0, 1], &[done(0), done(1)], &report(3, 2, 0)).is_err());
    }

    #[test]
    fn fingerprint_sees_every_outcome() {
        let r = report(2, 2, 0);
        let mut a = Fnv::default();
        fingerprint(&mut a, &[done(0), done(1)], &r);
        let mut b = Fnv::default();
        fingerprint(&mut b, &[done(0), done(1)], &r);
        assert_eq!(a.value(), b.value());
        let mut c = Fnv::default();
        fingerprint(&mut c, &[done(0), dropped(1)], &r);
        assert_ne!(a.value(), c.value());
    }
}
