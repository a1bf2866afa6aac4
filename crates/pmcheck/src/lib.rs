//! `pmcheck` — a pmemcheck-style durability-bug detector for simulated PM
//! programs.
//!
//! The checker consumes the [`pmtrace::Trace`] emitted by `pmvm` and runs
//! the classic store-state machine: every PM store is *dirty* until a flush
//! covers each of its cache lines, *pending* until a fence drains the weak
//! flushes, and only then *durable*. At every durability checkpoint (an
//! explicit `crashpoint` or orderly program end) all non-durable stores are
//! reported, classified exactly as in the paper (§2.1):
//!
//! * **missing-flush** — no flush covers the store, but a later fence exists;
//! * **missing-fence** — flushed, but no fence orders the flush;
//! * **missing-flush&fence** — neither.
//!
//! It also reports *redundant flushes* (flushes of clean lines) as
//! performance diagnostics — which Hippocrates deliberately does **not** fix
//! (paper §7).
//!
//! # Cost
//!
//! The checker keeps only the stores that are not yet durable, and each
//! event touches only the stores it can change, so a check is linear in
//! the trace and the cache lines its stores cover (plus the bugs it
//! reports):
//!
//! * A store's cache lines are one contiguous run, kept as its first line,
//!   a count, and unflushed/pending bitmasks: one inline word for stores of
//!   up to 64 lines (4 KiB). [`check_trace`] borrows the store's event from
//!   the trace; the streaming [`OnlineChecker`] clones it, which copies
//!   pointers (names and stacks are shared `Arc`s in `pmtrace`).
//! * Live stores are kept in store order, so audits report them in that
//!   order; a durable store leaves a tombstone, compacted away once
//!   tombstones outnumber live stores.
//! * Two indexes map each cache line to the stores that have it unflushed,
//!   or flushed weakly and awaiting a fence. A weak flush moves its line's
//!   unflushed entries to the pending index, a strong flush drops both,
//!   and a fence drops the pending entries of the stores it drains. So
//!   each line of a store, however wide the store, is indexed once, moved
//!   at most once and dropped once, and no event walks past an entry it
//!   does not change.
//! * A fence visits only the stores with pending lines.
//!
//! A flush train of N stores before one fence — the common PM idiom — thus
//! costs O(N), not O(N²). The indexes reuse their links, so a steady-state
//! store allocates nothing. A store or flush's names and call stack are
//! cloned (as `Arc`s) only into the bugs and redundant-flush diagnostics
//! the report emits.
//!
//! # Example
//!
//! ```
//! use pmir::{Module, FunctionBuilder, Type};
//! use pmcheck::{check_trace, BugKind};
//!
//! let mut m = Module::new();
//! let f = m.declare_function("main", vec![], Type::Void);
//! let mut b = FunctionBuilder::new(&mut m, f);
//! let e = b.entry_block();
//! b.switch_to(e);
//! let pool = b.pmem_map(4096i64, 0);
//! b.store(Type::int(8), pool, 7i64); // never flushed!
//! b.ret(None);
//! b.finish();
//!
//! let run = pmvm::Vm::new(pmvm::VmOptions::default()).run(&m, "main").unwrap();
//! let report = check_trace(run.trace.as_ref().unwrap());
//! assert_eq!(report.bugs.len(), 1);
//! assert_eq!(report.bugs[0].kind, BugKind::MissingFlushFence);
//! ```

pub mod bug;
pub mod checker;
pub mod runner;

pub use bug::{Bug, BugKind, CheckReport, Checkpoint, Provenance};
pub use checker::{check_trace, OnlineChecker};
pub use runner::{run_and_check, CheckedRun};
