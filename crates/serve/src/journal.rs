//! The write-ahead session journal: every committed dialogue turn is
//! recorded here *before* its reply is released, so a session whose
//! worker dies can be rebuilt anywhere by exact replay.
//!
//! The journal is deliberately minimal — per session, an ordered list
//! of (request id, logical tick, utterance, outcome digest). Replay
//! needs only the utterance sequence; the digests let the recovering
//! worker prove the rebuilt state matches what was answered before the
//! crash (`replay_divergence` stays zero in every experiment).
//!
//! What is journaled: every turn the dialogue manager *executed*,
//! accepted or rejected — both mutate `DialogueState::history`, so
//! both are part of the state a replay must reproduce. What is not:
//! turns refused by injected faults before reaching the manager (no
//! state was touched), single-shot questions (stateless), and degraded
//! answers (never authoritative, per the fault-injection invariants).

use std::collections::BTreeMap;
use std::sync::Mutex;

/// One committed dialogue turn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The request that carried the turn.
    pub request_id: u64,
    /// Logical tick at which the turn was admitted.
    pub tick: u64,
    /// What the user said.
    pub utterance: String,
    /// Digest of the turn's visible outcome (`TurnResult::digest`).
    pub outcome_digest: u64,
}

/// Append-only journal of committed turns, keyed by session id.
///
/// Shared between the submitter and every worker; the `BTreeMap` keeps
/// enumeration order deterministic. Appends happen worker-side before
/// the turn's completion is sent, so by the time a crashed session's
/// next turn is re-admitted anywhere, every prior committed turn is
/// already visible.
#[derive(Debug, Default)]
pub struct SessionJournal {
    inner: Mutex<BTreeMap<u64, Vec<JournalEntry>>>,
}

impl SessionJournal {
    /// An empty journal.
    pub fn new() -> SessionJournal {
        SessionJournal::default()
    }

    /// Commit one turn for `session`.
    pub fn append(&self, session: u64, entry: JournalEntry) {
        self.inner
            .lock()
            .expect("journal lock")
            .entry(session)
            .or_default()
            .push(entry);
    }

    /// The committed turns of `session`, in commit order.
    pub fn turns(&self, session: u64) -> Vec<JournalEntry> {
        self.inner
            .lock()
            .expect("journal lock")
            .get(&session)
            .cloned()
            .unwrap_or_default()
    }

    /// How many turns `session` has committed.
    pub fn turn_count(&self, session: u64) -> usize {
        self.inner
            .lock()
            .expect("journal lock")
            .get(&session)
            .map_or(0, Vec::len)
    }

    /// Every session with at least one committed turn, ascending.
    pub fn sessions(&self) -> Vec<u64> {
        self.inner
            .lock()
            .expect("journal lock")
            .keys()
            .copied()
            .collect()
    }

    /// Total committed turns across all sessions.
    pub fn total_turns(&self) -> usize {
        self.inner
            .lock()
            .expect("journal lock")
            .values()
            .map(Vec::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, utterance: &str) -> JournalEntry {
        JournalEntry {
            request_id: id,
            tick: id / 16,
            utterance: utterance.to_string(),
            outcome_digest: 0xd1_9e57 ^ id,
        }
    }

    #[test]
    fn appends_preserve_commit_order() {
        let j = SessionJournal::new();
        j.append(7, entry(1, "show orders"));
        j.append(7, entry(9, "only shipped ones"));
        j.append(3, entry(4, "show customers"));
        let turns = j.turns(7);
        assert_eq!(turns.len(), 2);
        assert_eq!(turns[0].utterance, "show orders");
        assert_eq!(turns[1].utterance, "only shipped ones");
        assert_eq!(j.turn_count(7), 2);
        assert_eq!(j.turn_count(3), 1);
        assert_eq!(j.total_turns(), 3);
    }

    #[test]
    fn sessions_enumerate_deterministically() {
        let j = SessionJournal::new();
        for s in [9, 2, 5, 2] {
            j.append(s, entry(s, "hi"));
        }
        assert_eq!(j.sessions(), vec![2, 5, 9]);
    }

    #[test]
    fn unknown_session_is_empty() {
        let j = SessionJournal::new();
        assert!(j.turns(42).is_empty());
        assert_eq!(j.turn_count(42), 0);
        assert_eq!(j.total_turns(), 0);
    }
}
