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
//! The checker keeps only the stores that are not yet durable. A store's
//! cache lines are one contiguous run, kept as its first line, a count,
//! and unflushed/pending bitmasks: one inline word for stores of up to 64
//! lines (4 KiB), so tracking such a store allocates nothing
//! ([`check_trace`] borrows its event from the trace; the streaming
//! [`OnlineChecker`] clones it). A flush costs one range test per live
//! store, and a flush or fence compacts the live set only when some store
//! became durable. A store or flush's strings and call stack are cloned
//! only into the bugs and redundant-flush diagnostics the report emits.
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
