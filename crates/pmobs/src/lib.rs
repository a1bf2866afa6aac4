//! `pmobs` — the pipeline-wide observability layer: hierarchical spans,
//! typed counters/gauges/histograms, and the stable `hippo.metrics.v1`
//! JSON schema that `hippoctl --metrics`, CI bench artifacts, and the
//! bench-regression gate all speak.
//!
//! # Zero disabled cost
//!
//! A disabled [`Obs`] handle — the `Default` — reduces every recording
//! call to a single `Option` branch. The schema is read and written with
//! the workspace's one JSON codec, `serde_json`.
//! Pipeline crates thread an `Obs` through their options structs
//! (`VmOptions::obs`, `ExploreOptions::obs`, `RepairOptions::obs`, …) and
//! never pay for instrumentation unless a registry is attached.
//!
//! # Naming conventions
//!
//! Metric and span names are dot-separated, rooted at the pipeline stage:
//!
//! | prefix     | stage |
//! |------------|-------|
//! | `trace.`   | `pmtrace` ingest (events parsed, bytes, parse errors) |
//! | `static.`  | `pmstatic` (fixpoint iterations, summaries) |
//! | `vm.`      | `pmvm`/`pmem-sim` (instructions, flushes, fences, fuel) |
//! | `explore.` | `pmexplore` (frontiers, candidates, dedup, workers) |
//! | `fault.`   | `pmfault` (injections by site and kind) |
//! | `check.`   | `pmcheck` trace audits |
//! | `repair.`  | `core::engine` (attempts, retries, fixes by kind) |
//! | `cli.`     | `hippoctl` (source loading, per-command wall time) |
//! | `bench.`   | `bench` binaries (headline numbers the CI gate reads) |
//!
//! # Example
//!
//! ```
//! let obs = pmobs::Obs::enabled();
//! {
//!     let _detect = obs.span("repair.detect");
//!     obs.add("vm.instructions", 1024);
//! }
//! obs.gauge("bench.pass_rate", 1.0);
//! let json = obs.snapshot().to_json();
//! let back = pmobs::Snapshot::from_json(&json).unwrap();
//! assert_eq!(back.counters["vm.instructions"], 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod snapshot;

pub use registry::{Obs, Registry, Span};
pub use snapshot::{Hist, SchemaError, Snapshot, SpanRec, HIST_BUCKETS, SCHEMA};
