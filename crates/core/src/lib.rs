//! `hippocrates` — automated repair of persistent-memory durability bugs,
//! guaranteed to "do no harm" (ASPLOS '21).
//!
//! Given a bug-finder trace ([`pmtrace::Trace`]) and a durability report
//! ([`pmcheck::CheckReport`]), the engine:
//!
//! 1. **locates** the IR store behind every bug (paper Fig. 2, step 2);
//! 2. computes the simplest safe **intraprocedural fixes** — flush
//!    insertion, fence insertion, or both (§4.2);
//! 3. performs **fix reduction**, merging fixes that would create redundant
//!    flushes or fences (§4.3, phase 2);
//! 4. runs the **hoisting heuristic**: an alias-analysis score decides
//!    whether a fix should become an interprocedural *persistent subprogram
//!    transformation* (§4.2.4, §4.3, phase 3);
//! 5. **applies** the fixes and re-verifies by re-running the bug finder,
//!    iterating until the report is clean.
//!
//! All fixes only add flushes, fences, and duplicated subprograms — the
//! operations proved safe by the paper's Lemmas 1–2 and Theorems 1–4. The
//! do-no-harm property (program output is unchanged; no new bugs appear) is
//! enforced by this repository's property-based tests.
//!
//! # Example
//!
//! ```
//! use hippocrates::{Hippocrates, RepairOptions};
//!
//! let src = r#"
//!     fn main() {
//!         var p: ptr = pmem_map(0, 4096);
//!         store8(p, 0, 7); // never flushed: a missing-flush&fence bug
//!     }
//! "#;
//! let mut module = pmlang::compile_one("buggy.pmc", src).unwrap();
//! let outcome = Hippocrates::new(RepairOptions::default())
//!     .repair_until_clean(&mut module, "main")
//!     .unwrap();
//! assert!(outcome.clean);
//! assert_eq!(outcome.fixes.len(), 1);
//! ```

pub mod cache;
pub mod engine;
pub mod heuristic;
pub mod locate;
pub mod options;
pub mod plan;
pub mod summary;

pub use cache::WarmCache;
pub use engine::{provide_durability, Hippocrates, RepairError};
pub use options::{BugSource, MarkingMode, RepairOptions};
pub use summary::{
    AppliedFix, Degradation, FixKind, OptimizeStats, QuarantinedFix, RepairOutcome, RepairSummary,
};
