//! `pmexplore` — parallel crash-state exploration that stress-verifies
//! repairs.
//!
//! The dynamic checker (`pmcheck`) audits durability at the checkpoints a
//! program declares: explicit `crashpoint`s and the program end. That
//! catches *durability* bugs — a store not persisted by the time it must
//! be — but under the x86 persistency model a crash can strike anywhere,
//! and the durable state it leaves is the medium plus **any subset** of
//! the dirty cache lines. Orderings the checkpoints never sample (the
//! classic "flag persists before its data" reordering between unfenced
//! flushed lines) therefore escape checkpoint-based detection entirely.
//!
//! This crate closes that gap:
//!
//! 1. [`frontier`] derives a crash *frontier* after every PM event of a
//!    traced execution, with the dirty and pending line sets there.
//! 2. [`mod@sample`] enumerates persisted-line subsets per frontier —
//!    exhaustively for small dirty sets, prioritized sampling for large
//!    ones — under a global state budget, deterministic in the seed.
//! 3. [`replay`] materializes each candidate as a
//!    [`pmem_sim::CrashImage`] by forward-replaying the trace plus the
//!    captured [`pmtrace::DataLog`] — no interpreter re-runs.
//! 4. [`oracle`] boots the app's `recover()` entry (or re-runs the main
//!    entry) on each image via `pmvm` and judges consistency.
//! 5. [`mod@explore`] drives it all over a thread pool whose workers claim
//!    chunks of candidates from one shared cursor, dedups states by content
//!    hash, skips the boot of any state that agrees with an already booted
//!    one on every PM line that boot read (the read-path memo), blames every
//!    inconsistency back onto the stores whose lost lines caused it, and
//!    exports a `pmcheck`-shaped report
//!    ([`pmcheck::Provenance::Exploration`]) that the repair engine's
//!    `repair_until_clean` consumes like any other bug report.
//!
//! Results are deterministic in `(trace, seed, budget)` — `--jobs 4`
//! finds exactly what `--jobs 1` finds.

pub mod explore;
pub mod frontier;
pub mod oracle;
mod readpath;
pub mod replay;
pub mod sample;

pub use explore::{
    explore, run_and_explore, Exploration, ExploreOptions, ExploreReport, ExploreStats, Finding,
    LostStore,
};
pub use frontier::{frontiers, Frontier};
pub use oracle::{Expectation, Failure, Oracle, Verdict};
pub use replay::Replayer;
pub use sample::{sample, Candidate, Priority};
