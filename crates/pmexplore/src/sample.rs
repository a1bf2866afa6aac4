//! The budgeted, prioritized crash-candidate sampler.
//!
//! Small dirty sets are enumerated exhaustively (all `2^n` subsets); large
//! ones are sampled: the empty set (the adversarial crash pmemcheck
//! assumes), the full set, every singleton and co-singleton, plus
//! seeded-random extras. Candidates are then ranked so the states most
//! likely to expose *ordering* bugs — partial persists at frontiers with
//! two or more dirty lines — survive budget truncation first, and the
//! classic adversarial states come next. Everything is deterministic in
//! `(trace, seed, budget)`; thread count never changes the candidate list.

use crate::frontier::Frontier;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Exhaustively enumerate subsets when the dirty set has at most this many
/// lines (`2^6 = 64` states per frontier at worst).
const EXHAUSTIVE_LINES: usize = 6;

/// Random extra subsets sampled per large frontier.
const RANDOM_EXTRAS: usize = 8;

/// How a candidate was generated — doubles as its priority (lower = keep
/// first under budget truncation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// A strict partial persist (neither none nor all of the dirty lines):
    /// only these can expose reordering between unfenced lines.
    Partial = 0,
    /// Nothing persisted — the adversarial crash.
    Adversarial = 1,
    /// Everything persisted — the most optimistic crash.
    Full = 2,
    /// A random extra subset from the seeded generator.
    Random = 3,
}

/// One crash state to evaluate: crash after `after_seq` with exactly
/// `lines` of the frontier's dirty set persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Index into the frontier list this candidate crashes at.
    pub frontier: usize,
    /// Sequence number of the event the crash follows (denormalized from
    /// the frontier for convenience).
    pub after_seq: u64,
    /// The persisted dirty lines, ascending.
    pub lines: Vec<u64>,
    /// Generation class / truncation priority.
    pub priority: Priority,
}

/// Generates the candidate list for `frontiers`, prioritized and truncated
/// to `budget` states. Deterministic in its arguments.
pub fn sample(frontiers: &[Frontier], budget: usize, seed: u64) -> Vec<Candidate> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Sized up front from the per-frontier counts (random extras at most):
    // growing by doubling would hold the old and the new buffer at once.
    let most = |n: usize| match n {
        0 => 1,
        1..=EXHAUSTIVE_LINES => 1 << n,
        _ => 2 + 2 * n + RANDOM_EXTRAS,
    };
    let mut all: Vec<Candidate> =
        Vec::with_capacity(frontiers.iter().map(|f| most(f.dirty.len())).sum());
    for (fi, f) in frontiers.iter().enumerate() {
        let n = f.dirty.len();
        let mk = |lines: Vec<u64>, priority: Priority| Candidate {
            frontier: fi,
            after_seq: f.after_seq,
            lines,
            priority,
        };
        all.push(mk(vec![], Priority::Adversarial));
        if n == 0 {
            continue;
        }
        all.push(mk(f.dirty.clone(), Priority::Full));
        if n <= EXHAUSTIVE_LINES {
            // ∅, the full set, and the proper-subset masks below are
            // pairwise distinct by construction — no dedup bookkeeping.
            for mask in 1..(1u64 << n) - 1 {
                let lines: Vec<u64> = f
                    .dirty
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &l)| l)
                    .collect();
                all.push(mk(lines, Priority::Partial));
            }
        } else {
            // Only random extras can collide (with ∅/full/singletons/
            // co-singletons or each other), so the dedup set is seeded
            // with everything pushed so far and consulted from here on.
            let mut seen: BTreeSet<Vec<u64>> = BTreeSet::new();
            seen.insert(vec![]);
            seen.insert(f.dirty.clone());
            for i in 0..n {
                all.push(mk(vec![f.dirty[i]], Priority::Partial));
                seen.insert(vec![f.dirty[i]]);
                let mut co: Vec<u64> = f.dirty.clone();
                co.remove(i);
                seen.insert(co.clone());
                all.push(mk(co, Priority::Partial));
            }
            for _ in 0..RANDOM_EXTRAS {
                let lines: Vec<u64> = f
                    .dirty
                    .iter()
                    .copied()
                    .filter(|_| rng.random::<u64>() & 1 == 1)
                    .collect();
                if seen.insert(lines.clone()) {
                    let priority = if lines.is_empty() {
                        Priority::Adversarial
                    } else if lines.len() == n {
                        Priority::Full
                    } else {
                        Priority::Partial
                    };
                    all.push(mk(lines, priority));
                }
            }
        }
    }
    // Stable sort: priority class first, then original (frontier, subset)
    // generation order — so truncation keeps the best classes and stays
    // deterministic. Sorted in place, and the dropped tail's memory given
    // back: the untruncated list is the largest allocation of a call.
    all.sort_by_key(|c| c.priority);
    all.truncate(budget);
    all.shrink_to_fit();
    // Workers replay forward; hand them the kept candidates in trace order.
    all.sort_by(|a, b| a.after_seq.cmp(&b.after_seq).then(a.lines.cmp(&b.lines)));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frontier(after_seq: u64, dirty: Vec<u64>) -> Frontier {
        Frontier {
            after_seq,
            pending: vec![],
            dirty,
        }
    }

    #[test]
    fn small_sets_enumerated_exhaustively() {
        let f = [frontier(0, vec![0, 64])];
        let c = sample(&f, usize::MAX, 1);
        // ∅, {0}, {64}, {0,64}
        assert_eq!(c.len(), 4);
        assert!(c.iter().any(|c| c.lines == vec![0]));
        assert!(c.iter().any(|c| c.lines == vec![64]));
    }

    #[test]
    fn budget_keeps_partial_persists_first() {
        let f = [
            frontier(0, vec![]),
            frontier(1, vec![0, 64, 128]),
            frontier(2, vec![0]),
        ];
        let c = sample(&f, 6, 1);
        assert_eq!(c.len(), 6);
        let partials = c.iter().filter(|c| c.priority == Priority::Partial).count();
        assert_eq!(partials, 6, "partial persists outrank ∅/full under budget");
    }

    #[test]
    fn deterministic_in_seed() {
        let f = [frontier(0, (0..10).map(|i| i * 64).collect())];
        let a = sample(&f, 40, 7);
        let b = sample(&f, 40, 7);
        assert_eq!(a, b);
        let c = sample(&f, 40, 8);
        assert_ne!(a, c, "different seed, different random extras");
    }

    #[test]
    fn large_sets_get_singletons_and_cosingletons() {
        let dirty: Vec<u64> = (0..10).map(|i| i * 64).collect();
        let f = [frontier(3, dirty.clone())];
        let c = sample(&f, usize::MAX, 1);
        for &l in &dirty {
            assert!(c.iter().any(|c| c.lines == vec![l]));
            assert!(c
                .iter()
                .any(|c| c.lines.len() == 9 && !c.lines.contains(&l)));
        }
    }
}
