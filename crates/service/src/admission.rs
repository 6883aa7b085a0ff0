//! Admission control on aggregate machine memory.
//!
//! Every admitted job reserves its full cluster footprint — `M × S`
//! words, where `S = n^φ` comes from the job's own space budget — for
//! its whole queued-to-completed lifetime. The controller caps the sum
//! of those reservations and applies the shedding ladder *before* the
//! hard wall: past a watermark, low-priority jobs are admitted in
//! degraded (supervised partial-output) mode; only when the cap itself
//! would be exceeded is a job refused, and then always with a reason
//! naming the numbers.
//!
//! Decisions are made at submission time, in submission order, from
//! booked state only — never from wall-clock or worker state — so a
//! fixed submission sequence admits, sheds, and rejects identically on
//! every run.

use crate::job::Priority;

/// The controller's verdict for one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admitted at full service: footprint booked.
    Admit,
    /// Admitted, but downgraded to supervised partial-output mode —
    /// the overload-shedding rung. Footprint booked.
    AdmitShed,
    /// Refused; nothing booked. The reason names the budget arithmetic.
    Reject {
        /// Human-readable budget arithmetic (`needs … booked … capacity …`).
        reason: String,
    },
}

/// Books aggregate space reservations against a fixed capacity.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    capacity_words: usize,
    shed_watermark: usize,
    booked_words: usize,
}

impl AdmissionController {
    /// A controller over `capacity_words` total words; bookings beyond
    /// `shed_fraction × capacity` push low-priority work onto the
    /// shedding rung. `shed_fraction` is clamped to `[0, 1]`.
    #[must_use]
    pub fn new(capacity_words: usize, shed_fraction: f64) -> Self {
        let frac = shed_fraction.clamp(0.0, 1.0);
        let watermark = (capacity_words as f64 * frac).floor() as usize;
        AdmissionController {
            capacity_words,
            shed_watermark: watermark,
            booked_words: 0,
        }
    }

    /// The verdict on a submission with footprint `footprint_words`
    /// against the current bookings, booking nothing.
    pub(crate) fn judge(&self, footprint_words: usize, priority: Priority) -> AdmissionDecision {
        let after = self.booked_words.saturating_add(footprint_words);
        if after > self.capacity_words {
            AdmissionDecision::Reject {
                reason: format!(
                    "aggregate space budget exceeded: job needs {footprint_words} words, \
                     {booked} already booked, capacity {cap}",
                    booked = self.booked_words,
                    cap = self.capacity_words,
                ),
            }
        } else if after > self.shed_watermark && priority == Priority::Low {
            AdmissionDecision::AdmitShed
        } else {
            AdmissionDecision::Admit
        }
    }

    /// Decides one submission with footprint `footprint_words`, booking
    /// it on any admit.
    pub fn decide(&mut self, footprint_words: usize, priority: Priority) -> AdmissionDecision {
        let decision = self.judge(footprint_words, priority);
        if !matches!(decision, AdmissionDecision::Reject { .. }) {
            self.rebook(footprint_words);
        }
        decision
    }

    /// Returns a completed (or quarantined) job's reservation.
    pub fn release(&mut self, footprint_words: usize) {
        self.booked_words = self.booked_words.saturating_sub(footprint_words);
    }

    /// Books a reservation whose admission was already decided, without
    /// re-judging it against capacity: the decision is durable, so
    /// re-judging could only diverge from history. The service books
    /// here when it applies an `Admitted` or `Shed` journal record —
    /// live, right after judging and appending it, and on replay
    /// ([`crate::recovery`]) for every such record in the log.
    pub fn rebook(&mut self, footprint_words: usize) {
        self.booked_words = self.booked_words.saturating_add(footprint_words);
    }

    /// Currently booked words.
    #[must_use]
    pub fn booked_words(&self) -> usize {
        self.booked_words
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity_words(&self) -> usize {
        self.capacity_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn books_admits_and_rejects_with_arithmetic_in_the_reason() {
        let mut ac = AdmissionController::new(100, 1.0);
        assert_eq!(ac.decide(60, Priority::Normal), AdmissionDecision::Admit);
        assert_eq!(ac.booked_words(), 60);
        match ac.decide(50, Priority::High) {
            AdmissionDecision::Reject { reason } => {
                assert!(reason.contains("needs 50"), "{reason}");
                assert!(reason.contains("60 already booked"), "{reason}");
                assert!(reason.contains("capacity 100"), "{reason}");
            }
            other => panic!("expected reject, got {other:?}"),
        }
        // A rejection books nothing.
        assert_eq!(ac.booked_words(), 60);
        assert_eq!(ac.decide(40, Priority::Low), AdmissionDecision::Admit);
    }

    #[test]
    fn sheds_low_priority_past_the_watermark_but_not_normal() {
        let mut ac = AdmissionController::new(100, 0.5);
        assert_eq!(ac.decide(40, Priority::Low), AdmissionDecision::Admit);
        // 40 booked; +20 crosses the watermark (50).
        assert_eq!(ac.decide(20, Priority::Low), AdmissionDecision::AdmitShed);
        assert_eq!(ac.decide(20, Priority::Normal), AdmissionDecision::Admit);
        assert_eq!(ac.decide(10, Priority::High), AdmissionDecision::Admit);
    }

    #[test]
    fn rebook_restores_reservations_without_rejudging() {
        let mut ac = AdmissionController::new(100, 1.0);
        ac.rebook(80);
        assert_eq!(ac.booked_words(), 80);
        // Even past capacity: the historical decide already admitted it.
        ac.rebook(80);
        assert_eq!(ac.booked_words(), 160);
        assert!(matches!(
            ac.decide(1, Priority::Normal),
            AdmissionDecision::Reject { .. }
        ));
    }

    #[test]
    fn release_reopens_capacity() {
        let mut ac = AdmissionController::new(100, 1.0);
        assert_eq!(ac.decide(100, Priority::Normal), AdmissionDecision::Admit);
        assert!(matches!(
            ac.decide(1, Priority::Normal),
            AdmissionDecision::Reject { .. }
        ));
        ac.release(100);
        assert_eq!(ac.decide(1, Priority::Normal), AdmissionDecision::Admit);
        // Releasing more than booked saturates at zero.
        ac.release(usize::MAX);
        assert_eq!(ac.booked_words(), 0);
    }
}
