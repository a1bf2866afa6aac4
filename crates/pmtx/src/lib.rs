//! `pmtx` — the repair-transaction layer.
//!
//! Hippocrates repairs crash-consistency bugs, so its own repair pipeline is
//! held to the same standard the paper holds its target programs to: every
//! mutation is transactional. This crate provides the primitives the
//! engine builds rounds out of:
//!
//! - [`Budget`] — a cooperative wall-clock deadline plus step quota threaded
//!   through the detect/explore/static/repair stages, so a run degrades to a
//!   partial-but-committed outcome instead of hanging.
//! - [`log::Log`] — the one checksummed append-only log under every
//!   journal: the on-disk line format, the recovery rule (drop a torn tail,
//!   refuse interior corruption, never lose a durable record), the flock,
//!   the epoch fence, and the crash-atomic rewrite used by compaction.
//! - [`Journal`] — the versioned (`hippo.journal.v1`) write-ahead repair
//!   journal, one record schema over the log. Committed rounds are durable
//!   before the engine moves on; after a SIGKILL, `--resume` replays them
//!   idempotently and continues where the run left off. `hippod`'s job
//!   journal (`hippo.jobs.v1`) is the other schema over the same log.
//! - [`LeaseTable`] — epoch-numbered, heartbeat-renewed shard leases with
//!   expiry reclaim, bounded retries, poison-shard quarantine, and epoch
//!   fencing; the pure state machine behind `hippod`'s self-healing
//!   campaign scheduler and primary election.
//!
//! The crate is deliberately ignorant of `pmir` and the engine's fix types:
//! journal records carry opaque pre-serialized payloads (module text,
//! fix JSON) so that the dependency arrow points from the engine *down* into
//! `pmtx`, never back up.

pub mod budget;
pub mod journal;
pub mod lease;
pub mod lock;
pub mod log;

pub use budget::{Budget, BudgetExceeded};
pub use journal::{Journal, JournalHeader, Resumed, RoundRecord, JOURNAL_SCHEMA};
pub use lease::{Lease, LeaseError, LeaseTable, Reclaimed};
pub use lock::{FileLock, LockError};
pub use log::JournalError;
