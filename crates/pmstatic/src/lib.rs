//! `pmstatic` — a flow-sensitive static persistency checker.
//!
//! Where [`pmcheck`] replays a trace of one concrete execution, `pmstatic`
//! abstractly interprets the [`pmir`] control-flow graph and reports on
//! *every* path — including branches no test input exercises. It produces
//! the same [`pmcheck::CheckReport`] shape (tagged
//! [`Provenance::Static`](pmcheck::Provenance)), so the Hippocrates repair
//! engine can consume static reports interchangeably with dynamic ones.
//!
//! # How it works
//!
//! Each PM store becomes a *fact* tracked through the persistence lattice
//! (see [`fact::PState`]): `Dirty` until a flush covers it, `Pending` until
//! a fence retires the flush, `Durable` after, with `MaybeDirty` as the
//! join of disagreeing paths. Flushes are matched against stores
//! *structurally* ([`loc::Loc`]: symbolic base + byte offset, line-rounded
//! intervals) with a points-to fallback from [`pmalias`]. Interprocedural
//! behaviour comes from bottom-up [`summary::FnSummary`]s: the flushes a
//! callee performs on every flushing return path, whether it fences on all
//! paths, and the stores it leaves non-durable (inherited and rebased into
//! the caller). Facts are audited at every `crashpoint` (own or in a
//! callee) and at the entry function's returns, and classified exactly as
//! the dynamic checker does: missing-flush, missing-fence, or
//! missing-flush&fence.
//!
//! The checker is deliberately *optimistic* where it cannot prove a bug
//! (unknown offsets, unrebasable addresses, may-alias fallback): a static
//! report is meant to be a superset of any single execution's dynamic
//! report on covered code, without drowning the repair engine in false
//! alarms. Statically *provable* redundant flushes (clean-line or
//! volatile-memory flushes) are reported as performance diagnostics.
//!
//! # Example
//!
//! ```
//! use pmstatic::check_module;
//!
//! // The store is only flushed on a branch no input may ever take — a
//! // dynamic checker that doesn't happen to execute it reports nothing.
//! let m = pmlang::compile_one(
//!     "demo.pmc",
//!     r#"
//!     fn main() {
//!         var p: ptr = pmem_map(0, 4096);
//!         var mode: int = load8(p, 128);
//!         if (mode) { store8(p, 0, 7); }
//!     }
//!     "#,
//! )
//! .unwrap();
//! let report = check_module(&m, "main").unwrap();
//! assert_eq!(report.bugs.len(), 1);
//! assert_eq!(report.bugs[0].kind, pmcheck::BugKind::MissingFlushFence);
//! ```

pub mod analyze;
pub mod fact;
pub mod loc;
pub mod summary;

pub use analyze::{
    check_module, check_module_budgeted, check_module_obs, StaticChecker, StaticError,
};
pub use fact::{Fact, FactKey, PState, State};
pub use loc::{Base, Loc, Resolver};
pub use summary::{Extent, FlushEff, FnSummary, ResidualFact};

#[cfg(test)]
mod tests {
    use super::*;
    use pmcheck::{BugKind, CheckReport, Checkpoint, Provenance};

    fn check(src: &str) -> CheckReport {
        let m = pmlang::compile_one("t.pmc", src).unwrap();
        check_module(&m, "main").unwrap()
    }

    #[test]
    fn clean_store_flush_fence() {
        let r = check(
            "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); clwb(p); sfence(); }",
        );
        assert!(r.is_clean(), "{:?}", r.bugs);
        assert_eq!(r.provenance, Provenance::Static);
        assert_eq!(r.stores_checked, 1);
        assert_eq!(r.flushes_seen, 1);
        assert_eq!(r.fences_seen, 1);
    }

    #[test]
    fn missing_fence_when_never_fenced() {
        let r = check("fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); clwb(p); }");
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFence);
        assert_eq!(r.bugs[0].checkpoint, Checkpoint::ProgramEnd);
    }

    #[test]
    fn missing_flush_when_only_fenced() {
        let r = check("fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); sfence(); }");
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlush);
    }

    #[test]
    fn clflush_is_strongly_ordered() {
        let r = check("fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); clflush(p); }");
        assert!(r.is_clean(), "{:?}", r.bugs);
    }

    #[test]
    fn unexecuted_branch_store_is_found() {
        // The dynamic checker only sees the path its one input takes; the
        // static checker audits the untaken branch too.
        let r = check(
            r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                var mode: int = load8(p, 128);
                if (mode) { store8(p, 0, 7); }
            }
            "#,
        );
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlushFence);
        assert!(r.bugs[0].store_loc.is_some(), "srcloc must be attached");
    }

    #[test]
    fn conditional_flush_joins_to_maybe_dirty() {
        let r = check(
            r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                var c: int = load8(p, 512);
                store8(p, 0, 1);
                if (c) { clwb(p); }
                sfence();
            }
            "#,
        );
        assert_eq!(r.bugs.len(), 1);
        // A fence follows on every path, so the repair only needs a flush.
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlush);
    }

    #[test]
    fn interprocedural_persist_helper_covers() {
        // The libpmem idiom: a range-flush loop (statically zero-or-more
        // iterations) plus the unconditional trailing line flush, behind an
        // empty-range guard, then a fence helper — composed two deep.
        let r = check(
            r#"
            fn flushr(p: ptr, n: int) {
                if (n <= 0) { return; }
                var i: int = 0;
                while (i < n) { clwb(p + i); i = i + 64; }
                clwb(p + n - 1);
            }
            fn persist(p: ptr, n: int) { flushr(p, n); sfence(); }
            fn main() {
                var pool: ptr = pmem_map(0, 4096);
                store8(pool, 64, 9);
                persist(pool + 64, 8);
            }
            "#,
        );
        assert!(r.is_clean(), "{:?}", r.bugs);
    }

    #[test]
    fn bounded_persist_does_not_cover_other_lines() {
        // Same helper, but persisting a *different* line than was stored.
        let r = check(
            r#"
            fn flushr(p: ptr, n: int) {
                if (n <= 0) { return; }
                var i: int = 0;
                while (i < n) { clwb(p + i); i = i + 64; }
                clwb(p + n - 1);
            }
            fn persist(p: ptr, n: int) { flushr(p, n); sfence(); }
            fn main() {
                var pool: ptr = pmem_map(0, 4096);
                store8(pool, 64, 9);
                persist(pool + 256, 8);
            }
            "#,
        );
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlush);
    }

    #[test]
    fn residual_fact_names_the_callee_store() {
        let r = check(
            r#"
            fn set(p: ptr) { store8(p, 8, 5); }
            fn main() { var pool: ptr = pmem_map(0, 4096); set(pool); }
            "#,
        );
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlushFence);
        let at = r.bugs[0].store_at.as_ref().unwrap();
        assert_eq!(&*at.function, "set", "repair must anchor at the real store");
    }

    #[test]
    fn checkpoint_in_callee_audits_the_caller() {
        let r = check(
            r#"
            fn log() { crashpoint(); }
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
                log();
                clwb(p);
                sfence();
            }
            "#,
        );
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlushFence);
        assert!(matches!(r.bugs[0].checkpoint, Checkpoint::CrashPoint(_)));
    }

    #[test]
    fn provably_redundant_flushes_are_reported() {
        let r = check(
            r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                var h: ptr = alloc(64);
                store8(p, 0, 1);
                store8(h, 0, 2);
                clwb(p);
                clwb(p);
                clwb(h);
                sfence();
            }
            "#,
        );
        assert!(r.is_clean(), "{:?}", r.bugs);
        // The second clwb(p) hits a provably-clean line; clwb(h) flushes
        // volatile memory. The first clwb(p) is load-bearing.
        assert_eq!(r.redundant_flushes.len(), 2);
    }

    #[test]
    fn unknown_entry_is_an_error() {
        let m = pmlang::compile_one("t.pmc", "fn main() { }").unwrap();
        let err = check_module(&m, "nope").unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn recursive_unflushed_store_is_found() {
        // A self-recursive helper that never flushes: the summary fixpoint
        // must not bottom out optimistically and hide the store from the
        // caller's audit.
        let r = check(
            r#"
            fn fill(p: ptr, n: int) {
                if (n <= 0) { return; }
                store8(p, 0, n);
                fill(p + 64, n - 1);
            }
            fn main() {
                var pool: ptr = pmem_map(0, 4096);
                fill(pool, 3);
            }
            "#,
        );
        assert!(!r.is_clean(), "recursive dirty store must be reported");
        assert!(r.bugs.iter().any(|b| b.kind == BugKind::MissingFlushFence));
    }

    #[test]
    fn recursive_persist_helper_converges_clean() {
        // The recursive dual of the counter.pmc idiom: every frame stores,
        // flushes, and fences its own line. The sorted/deduplicated summary
        // export lets the cyclic group reach a true fixpoint instead of
        // accumulating duplicated effects until the round cap.
        let m = pmlang::compile_one(
            "t.pmc",
            r#"
            fn persist(p: ptr, n: int) {
                if (n <= 0) { return; }
                store8(p, 0, n);
                clwb(p);
                sfence();
                persist(p + 64, n - 1);
            }
            fn main() {
                var pool: ptr = pmem_map(0, 4096);
                persist(pool, 3);
            }
            "#,
        )
        .unwrap();
        let checker = StaticChecker::new(&m);
        let r = checker.check("main").unwrap();
        assert!(r.is_clean(), "{:?}", r.bugs);
    }

    #[test]
    fn mutual_recursion_reaches_a_sound_fixpoint() {
        // `even`/`odd` hand the pointer back and forth; only `odd` stores,
        // and nothing flushes. Both orders of the pair within the SCC must
        // converge (or widen) to a summary that surfaces the dirty store.
        let m = pmlang::compile_one(
            "t.pmc",
            r#"
            fn even(p: ptr, n: int) {
                if (n <= 0) { return; }
                odd(p, n - 1);
            }
            fn odd(p: ptr, n: int) {
                if (n <= 0) { return; }
                store8(p, 8, n);
                even(p + 64, n - 1);
            }
            fn main() {
                var pool: ptr = pmem_map(0, 4096);
                even(pool, 4);
            }
            "#,
        )
        .unwrap();
        let checker = StaticChecker::new(&m);
        let r = checker.check("main").unwrap();
        assert!(
            r.bugs.iter().any(|b| b.kind == BugKind::MissingFlushFence),
            "mutually-recursive dirty store must be reported: {:?}",
            r.bugs
        );
    }

    #[test]
    fn widened_groups_are_counted_not_silent() {
        // `persist` recurses on `p + 64`, so its exported flush effects
        // drift one line per round and the group can never syntactically
        // converge: the cap fires and the group is widened (counted), yet
        // the result stays sound — and clean, because every frame fences
        // its own store before recursing.
        let m = pmlang::compile_one(
            "t.pmc",
            r#"
            fn persist(p: ptr, n: int) {
                if (n <= 0) { return; }
                store8(p, 0, n);
                clwb(p);
                sfence();
                persist(p + 64, n - 1);
            }
            fn main() { var pool: ptr = pmem_map(0, 4096); persist(pool, 2); }
            "#,
        )
        .unwrap();
        let checker = StaticChecker::new(&m);
        assert_eq!(checker.sccs_widened(), 1, "drifting group must widen");

        // A recursive group without flush drift converges to a true
        // fixpoint: the keyed residual joins collapse the rebased
        // addresses, and no widening is needed.
        let m2 = pmlang::compile_one(
            "t.pmc",
            r#"
            fn fill(p: ptr, n: int) {
                if (n <= 0) { return; }
                store8(p, 0, n);
                fill(p + 64, n - 1);
            }
            fn main() { var pool: ptr = pmem_map(0, 4096); fill(pool, 3); }
            "#,
        )
        .unwrap();
        let checker2 = StaticChecker::new(&m2);
        assert_eq!(checker2.sccs_widened(), 0, "non-drifting group converges");
    }
}
