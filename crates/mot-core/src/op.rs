//! Operation identities and the exactly-once ledger for service-mode
//! delivery (DESIGN.md §15).
//!
//! Service mode delivers whole *operations* (publish / move / query)
//! at-least-once to sharded trackers. This module is the discipline
//! that keeps that exact:
//!
//! * every operation carries an [`OpId`] and an attempt number,
//! * an [`OpLedger`] admits each id exactly once — a redundant or stale
//!   retry is *fenced* (counted, refused) instead of re-applied, so a
//!   late duplicate can never clobber newer state,
//! * an operation whose delivery budget is exhausted is *recorded lost*
//!   in the ledger rather than silently dropped, preserving the
//!   zero-silent-loss invariant
//!   `sent == applied + recorded-lost + shed`.
//!
//! Admission is one probe of an [`IdMap`] per arrival: ids are the
//! sender's own sequence numbers, so the table hashes them with one
//! multiply ([`mot_net::IdHasher`]) rather than a keyed SipHash.

use mot_net::IdMap;
use std::collections::hash_map::Entry;

/// Identity of one operation (or message) delivered at-least-once.
///
/// Ids are dense sequence numbers assigned by the sender; the ledger
/// only requires them to be unique per ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// Exactly-once admission ledger with attempt fencing and recorded-loss
/// accounting.
///
/// The ledger is the durable part of a shard: it survives a worker
/// crash, so recovery can tell which operations already took effect
/// (their redelivery is fenced) and which were never admitted (their
/// redelivery applies normally).
///
/// ```
/// use mot_core::{OpId, OpLedger};
///
/// let mut ledger = OpLedger::new();
/// assert!(ledger.admit(OpId(7), 0)); // first arrival: apply effects
/// assert!(!ledger.admit(OpId(7), 2)); // retry of an applied op: fenced
/// assert_eq!(ledger.fenced, 1);
/// assert_eq!(ledger.applied_attempt(OpId(7)), Some(0));
///
/// ledger.record_lost(OpId(8)); // budget exhausted: surfaced, not silent
/// assert_eq!(ledger.lost(), &[8]);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpLedger {
    /// id → attempt number that first applied.
    applied: IdMap<u64, u32>,
    /// Ids whose delivery budget was exhausted, in record order.
    lost: Vec<u64>,
    /// Redundant arrivals refused after the first apply (duplicates and
    /// stale retries).
    pub fenced: u64,
}

impl OpLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits one arrival of `op` at `attempt`. Returns `true` exactly
    /// once per id — the arrival whose effects should be applied; every
    /// later arrival (duplicate delivery or stale retry) is fenced.
    pub fn admit(&mut self, op: OpId, attempt: u32) -> bool {
        match self.applied.entry(op.0) {
            Entry::Occupied(_) => {
                self.fenced += 1;
                false
            }
            Entry::Vacant(e) => {
                e.insert(attempt);
                true
            }
        }
    }

    /// Whether `op` was already admitted.
    pub fn is_applied(&self, op: OpId) -> bool {
        self.applied.contains_key(&op.0)
    }

    /// The attempt number that first applied `op`, if any.
    pub fn applied_attempt(&self, op: OpId) -> Option<u32> {
        self.applied.get(&op.0).copied()
    }

    /// Number of distinct operations admitted.
    pub fn applied_count(&self) -> usize {
        self.applied.len()
    }

    /// Records `op` as lost: its delivery budget is exhausted and the
    /// sender gave up. Never silent — the id stays visible here.
    pub fn record_lost(&mut self, op: OpId) {
        self.lost.push(op.0);
    }

    /// Ids recorded lost, in record order.
    pub fn lost(&self) -> &[u64] {
        &self.lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_arrival_applies_then_every_retry_is_fenced() {
        let mut l = OpLedger::new();
        assert!(l.admit(OpId(0), 0));
        assert!(!l.admit(OpId(0), 0), "duplicate delivery");
        assert!(!l.admit(OpId(0), 3), "stale retry");
        assert_eq!(l.fenced, 2);
        assert_eq!(l.applied_count(), 1);
    }

    #[test]
    fn a_late_first_arrival_still_applies_with_its_attempt_recorded() {
        // The attempt number that lands first wins — even if it is a
        // retry — and the original, arriving later, is fenced.
        let mut l = OpLedger::new();
        assert!(l.admit(OpId(9), 4), "retry arrives first");
        assert!(!l.admit(OpId(9), 0), "the delayed original is stale");
        assert_eq!(l.applied_attempt(OpId(9)), Some(4));
    }

    #[test]
    fn lost_ops_are_recorded_not_silent() {
        let mut l = OpLedger::new();
        l.record_lost(OpId(3));
        l.record_lost(OpId(11));
        assert_eq!(l.lost(), &[3, 11]);
        assert!(!l.is_applied(OpId(3)));
    }
}
