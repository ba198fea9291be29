//! Graceful degradation down the §4 family ladder.
//!
//! The survey's central qualitative claim is that interpretation
//! families *fail differently*: the hybrid and entity-based readings
//! are the most capable but depend on the most machinery, while the
//! pattern and keyword families are progressively simpler and harder
//! to break. That ordering is exactly a degradation ladder — when the
//! preferred interpreter errors (an infrastructure fault, not a
//! semantic refusal), a production front-end can fall to the next
//! family down and still answer the subset of questions inside that
//! family's [`Capabilities`](crate::entity::Capabilities) mask, as
//! long as the answer is *marked* as degraded.
//!
//! Two invariants keep this paper-faithful:
//!
//! * The ladder only ever descends. A fallback family is strictly less
//!   capable, so a degraded answer can never exceed the ceiling E1
//!   measures for the family that produced it.
//! * Degradation is for *faults*, not refusals. If the preferred
//!   family is healthy and simply cannot interpret the question, the
//!   refusal stands — silently substituting a weaker family's reading
//!   for a healthy refusal would trade precision for coverage, the
//!   opposite of the survey's enterprise-adaption guidance.

use crate::interpretation::InterpreterKind;

/// The §4 degradation ladder: the order a serving layer tries families
/// when the rungs above are faulted. Hybrid → entity → pattern →
/// keyword is the paper's capability ordering.
pub const DEGRADATION_LADDER: [InterpreterKind; 4] = [
    InterpreterKind::Hybrid,
    InterpreterKind::Entity,
    InterpreterKind::Pattern,
    InterpreterKind::Keyword,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Capabilities;

    #[test]
    fn ladder_descends_strictly() {
        for w in DEGRADATION_LADDER.windows(2) {
            // Each step down must not gain capability anywhere.
            let (hi, lo) = (Capabilities::of(w[0]), Capabilities::of(w[1]));
            assert!(!lo.aggregation || hi.aggregation, "{w:?}");
            assert!(!lo.joins || hi.joins, "{w:?}");
            assert!(!lo.nested || hi.nested, "{w:?}");
        }
    }
}
