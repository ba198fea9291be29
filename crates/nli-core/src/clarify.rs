//! Multi-choice clarification — the NaLIR / DialSQL interaction.
//!
//! NaLIR resolves ambiguous parse-tree mappings by asking the user;
//! DialSQL "is capable of identifying potential errors in a generated
//! SQL query and asking users for validation via simple multi-choice
//! questions". This module decides *when* to ask (close top-2
//! confidences), renders the choices, and applies the answer —
//! including a simulated-oracle mode the E9 experiment uses.

use crate::interpretation::Interpretation;

/// A rendered clarification request.
#[derive(Debug, Clone)]
pub struct Clarification {
    /// The prompt shown to the user.
    pub prompt: String,
    /// The candidate readings offered (2–3).
    pub options: Vec<Interpretation>,
}

/// Should the system ask instead of answering? True when at least two
/// candidates exist and the top two confidences are within `margin`.
pub fn needs_clarification(candidates: &[Interpretation], margin: f64) -> bool {
    match candidates {
        [first, second, ..] => (first.confidence - second.confidence).abs() <= margin,
        _ => false,
    }
}

/// Indices of the non-top candidates that sit within `margin` of the
/// top confidence — the readings a clarification would have offered.
/// The approved path (`NliPipeline::ask_approved`) uses this to
/// surface "a clarification would have been asked here" as a
/// structured annotation on the losing candidates instead of dropping
/// the ambiguity silently.
pub fn close_competitors(candidates: &[Interpretation], margin: f64) -> Vec<usize> {
    let Some(top) = candidates.first() else {
        return Vec::new();
    };
    candidates
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, c)| (top.confidence - c.confidence).abs() <= margin)
        .map(|(i, _)| i)
        .collect()
}

/// Build a multi-choice question from ranked candidates (up to 3
/// options). Returns `None` when there is nothing to disambiguate.
pub fn build_clarification(candidates: &[Interpretation]) -> Option<Clarification> {
    if candidates.len() < 2 {
        return None;
    }
    let options: Vec<Interpretation> = candidates.iter().take(3).cloned().collect();
    let mut prompt = String::from("Did you mean:\n");
    for (i, opt) in options.iter().enumerate() {
        let gloss = opt
            .explanation
            .last()
            .cloned()
            .unwrap_or_else(|| opt.sql.to_string());
        prompt.push_str(&format!("  ({}) {}\n", i + 1, gloss));
    }
    Some(Clarification { prompt, options })
}

/// Resolve with a simulated user: the oracle returns true for the
/// reading the user intended. Falls back to the top candidate when the
/// oracle rejects everything (the user gives up and takes the default).
pub fn resolve_with_oracle(
    candidates: &[Interpretation],
    margin: f64,
    oracle: impl Fn(&Interpretation) -> bool,
) -> Option<Interpretation> {
    if candidates.is_empty() {
        return None;
    }
    if !needs_clarification(candidates, margin) {
        return candidates.first().cloned();
    }
    let clar = build_clarification(candidates)?;
    clar.options
        .iter()
        .find(|o| oracle(o))
        .cloned()
        .or_else(|| candidates.first().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpretation::InterpreterKind;
    use nlidb_sqlir::QueryBuilder;

    fn interp(table: &str, conf: f64) -> Interpretation {
        Interpretation::new(
            QueryBuilder::from_table(table).build(),
            conf,
            InterpreterKind::Entity,
        )
    }

    #[test]
    fn asks_only_when_close() {
        let close = vec![interp("a", 0.8), interp("b", 0.78)];
        let far = vec![interp("a", 0.9), interp("b", 0.5)];
        let single = vec![interp("a", 0.9)];
        assert!(needs_clarification(&close, 0.1));
        assert!(!needs_clarification(&far, 0.1));
        assert!(!needs_clarification(&single, 0.1));
        assert!(!needs_clarification(&[], 0.1));
    }

    #[test]
    fn close_competitors_finds_margin_peers_only() {
        let cands = vec![
            interp("lead", 0.80),
            interp("peer", 0.78),
            interp("also", 0.71),
            interp("far", 0.40),
        ];
        assert_eq!(close_competitors(&cands, 0.1), vec![1, 2]);
        assert_eq!(close_competitors(&cands, 0.01), Vec::<usize>::new());
        assert_eq!(close_competitors(&[], 0.1), Vec::<usize>::new());
        assert_eq!(
            close_competitors(&cands[..1], 0.1),
            Vec::<usize>::new(),
            "a single candidate has no competitors"
        );
    }

    #[test]
    fn builds_numbered_options() {
        let c = build_clarification(&[interp("a", 0.8), interp("b", 0.78)]).unwrap();
        assert_eq!(c.options.len(), 2);
        assert!(c.prompt.contains("(1)"));
        assert!(c.prompt.contains("(2)"));
        assert!(build_clarification(&[interp("a", 0.8)]).is_none());
    }

    #[test]
    fn caps_at_three_options() {
        let cands: Vec<_> = (0..5).map(|i| interp(&format!("t{i}"), 0.8)).collect();
        let c = build_clarification(&cands).unwrap();
        assert_eq!(c.options.len(), 3);
    }

    #[test]
    fn oracle_picks_intended_reading() {
        let cands = vec![interp("wrong", 0.8), interp("right", 0.79)];
        let resolved =
            resolve_with_oracle(&cands, 0.1, |i| i.sql.to_string().contains("right")).unwrap();
        assert!(resolved.sql.to_string().contains("right"));
    }

    #[test]
    fn oracle_not_consulted_when_confident() {
        let cands = vec![interp("lead", 0.95), interp("other", 0.3)];
        let resolved = resolve_with_oracle(&cands, 0.1, |_| false).unwrap();
        assert!(resolved.sql.to_string().contains("lead"));
    }

    #[test]
    fn oracle_rejects_all_falls_back() {
        let cands = vec![interp("a", 0.8), interp("b", 0.79)];
        let resolved = resolve_with_oracle(&cands, 0.1, |_| false).unwrap();
        assert!(resolved.sql.to_string().contains('a'));
        assert!(resolve_with_oracle(&[], 0.1, |_| true).is_none());
    }
}
