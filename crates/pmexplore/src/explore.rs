//! The parallel exploration driver.
//!
//! Pipeline: derive frontiers → sample candidates under the budget →
//! workers claim chunks of candidate indices from one shared cursor →
//! each worker replays to the candidate's position, dedups by the
//! replayer's rolling content hash (no image bytes are copied for states
//! seen before), then asks its read-path memo (`readpath.rs`) whether an
//! earlier boot read only lines this image holds at the same versions, and
//! boots the recovery oracle when neither knows the verdict →
//! inconsistencies are blamed back onto the stores whose lost lines broke
//! recovery and exported as a `pmcheck`-shaped report.
//!
//! Results are deterministic in `(trace, seed, budget)`: the candidate
//! list is generated up front, a verdict is a pure function of the image
//! (so memoization races between workers are benign), a read-path hit is
//! entered in the image memo exactly as a boot would have been (so the
//! distinct-state count does not depend on which images were booted), and
//! findings are re-sorted into candidate order before deduplication.
//!
//! Workers share only the chunk cursor and the image memo. The cursor only
//! grows, so each worker meets its candidates in ascending `after_seq`
//! order and its replayer only moves forward; each worker returns its
//! findings and counts, merged once the pool has joined.

use crate::frontier::frontiers;
use crate::oracle::{Failure, Oracle, Verdict};
use crate::readpath::ReadPathMemo;
use crate::replay::Replayer;
use crate::sample::{sample, Candidate};
use pmcheck::{Bug, BugKind, CheckReport, Checkpoint, Provenance};
use pmir::Module;
use pmtrace::{DataLog, EventKind, Trace};
use pmvm::{Vm, VmError, VmOptions};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Candidate indices a worker claims from the cursor at a time.
const CHUNK: usize = 8;

/// Claims the next chunk of `0..total` from `cursor`; `None` once the
/// cursor has passed `total`. The cursor only grows, so one worker's
/// chunks come in ascending order and no index is claimed twice.
fn claim(cursor: &AtomicUsize, total: usize) -> Option<std::ops::Range<usize>> {
    let lo = cursor.fetch_add(CHUNK, Ordering::Relaxed);
    (lo < total).then(|| lo..(lo + CHUNK).min(total))
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Maximum crash states evaluated (after prioritized truncation).
    pub budget: usize,
    /// Seed for the candidate sampler's random extras.
    pub seed: u64,
    /// Worker threads. Results are identical for any value.
    pub jobs: usize,
    /// The recovery oracle; `None` derives one from the module (its
    /// `recover()` function when present, else re-running the entry).
    pub oracle: Option<Oracle>,
    /// Step budget per recovery boot.
    pub max_recovery_steps: u64,
    /// Fault plan armed on the exploration machinery: worker panics and
    /// oracle panics are keyed by candidate index (deterministic whichever
    /// worker claims the candidate); a planned divergence makes the
    /// matching candidate's recovery run stick until the watchdog fires.
    pub fault: Option<pmfault::FaultPlan>,
    /// Wall-clock budget per recovery boot. Defaults to 250ms whenever the
    /// fault plan contains a stuck loop, so a diverging oracle can never
    /// hang a worker.
    pub recovery_watchdog_ms: Option<u64>,
    /// Observability handle: when attached, the explorer records
    /// `explore.*` spans (run, frontiers, sample, per-worker) and counters
    /// (candidates, distinct states, dedup hits, per-worker utilization).
    pub obs: pmobs::Obs,
    /// Cooperative cancellation ([`pmtx::Budget`]): workers stop taking new
    /// candidate chunks once the budget is exhausted, and the report notes
    /// the partial coverage. The unlimited default never cancels. (Named
    /// `cancel` because `budget` is the crash-state cap above.)
    pub cancel: pmtx::Budget,
    /// Ignored: every run goes through the VM's one engine. Kept only for
    /// the benchmark harness, which still passes it to
    /// [`Oracle::check_opts`]; to be deleted when that harness is refreshed.
    pub tier: pmvm::ExecTier,
    /// Restrict exploration to one shard of the frontier set:
    /// `Some((i, n))` keeps only frontiers whose index `% n == i`. The
    /// shard split is by deterministic frontier index — *before* sampling
    /// — so the union of the `n` shard reports covers exactly the same
    /// frontier set as an unsharded run, and each shard's report is
    /// byte-stable regardless of which worker (or how many retries) ran
    /// it. `None` (the default) explores everything.
    pub shard: Option<(u64, u64)>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            budget: 256,
            seed: 0,
            jobs: 1,
            oracle: None,
            max_recovery_steps: 50_000_000,
            fault: None,
            recovery_watchdog_ms: None,
            obs: pmobs::Obs::default(),
            cancel: pmtx::Budget::default(),
            tier: pmvm::ExecTier::default(),
            shard: None,
        }
    }
}

/// A store whose lost line(s) broke recovery in one crash state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LostStore {
    /// Trace sequence number of the blamed store event.
    pub store_seq: u64,
    /// Durability-bug classification of the loss.
    pub kind: BugKind,
    /// The store's cache lines that were dirty and not persisted.
    pub lost_lines: Vec<u64>,
    /// The subset of `lost_lines` that was never even flushed.
    pub unflushed_lines: Vec<u64>,
}

/// One inconsistent crash state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// The crash position (trace event the crash follows).
    pub after_seq: u64,
    /// Dirty lines that were persisted in this state.
    pub persisted: Vec<u64>,
    /// Dirty lines that were lost in this state.
    pub lost: Vec<u64>,
    /// Content hash of the crash image (dedup key).
    pub image_hash: u64,
    /// What the oracle observed.
    pub failure: Failure,
    /// Stores blamed for the loss; empty when even the fully-persisted
    /// prefix fails (an atomicity violation no flush/fence can repair).
    pub blamed: Vec<LostStore>,
}

/// Exploration counters. All fields are deterministic in
/// `(trace, seed, budget)` — thread count never changes them.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreStats {
    /// Crash positions derived from the trace.
    pub frontiers: usize,
    /// Candidate states evaluated (post-truncation).
    pub candidates: usize,
    /// Distinct crash images among them (recovery boots needed).
    pub distinct_states: usize,
    /// Inconsistent states found (after image-level dedup).
    pub inconsistent: usize,
    /// Candidates whose oracle crashed (panic, divergence) instead of
    /// judging the state.
    pub oracle_crashes: usize,
    /// Candidates skipped because their worker panicked mid-enumeration;
    /// the pool drains the remaining frontier and reports the rest.
    pub worker_panics: usize,
}

/// The exploration outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreReport {
    /// Inconsistent crash states, one per distinct failing image, in
    /// candidate order.
    pub findings: Vec<Finding>,
    /// Counters.
    pub stats: ExploreStats,
    /// The oracle that judged the states.
    pub oracle: Option<Oracle>,
    /// Structured one-line diagnostics for every faulted candidate (oracle
    /// crashes, worker panics), in candidate order. Empty on a healthy run.
    pub diagnostics: Vec<String>,
}

impl ExploreReport {
    /// Whether every explored state recovered cleanly.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Converts the findings into a `pmcheck`-shaped report
    /// ([`Provenance::Exploration`]) the repair engine consumes directly:
    /// one [`Bug`] per blamed store and kind, anchored at the crash
    /// state's trace position. Findings with no blamable store (atomicity
    /// failures) are not representable as durability bugs and are skipped.
    pub fn to_check_report(&self, trace: &Trace) -> CheckReport {
        let mut bugs: Vec<Bug> = vec![];
        let mut seen: std::collections::HashSet<(u64, BugKind)> = std::collections::HashSet::new();
        for f in &self.findings {
            for ls in &f.blamed {
                if !seen.insert((ls.store_seq, ls.kind)) {
                    continue;
                }
                let Ok(at) = trace.events.binary_search_by_key(&ls.store_seq, |e| e.seq) else {
                    continue;
                };
                let e = &trace.events[at];
                let EventKind::Store { addr, len } = e.kind else {
                    continue;
                };
                bugs.push(Bug {
                    kind: ls.kind,
                    addr,
                    len,
                    store_at: e.at.clone(),
                    store_loc: e.loc.clone(),
                    stack: e.stack.clone(),
                    store_seq: ls.store_seq,
                    checkpoint: Checkpoint::Event(f.after_seq),
                    unflushed_lines: ls.unflushed_lines.clone(),
                });
            }
        }
        CheckReport {
            bugs,
            redundant_flushes: vec![],
            stores_checked: trace.count(|k| matches!(k, EventKind::Store { .. })) as u64,
            flushes_seen: trace.count(|k| matches!(k, EventKind::Flush { .. })) as u64,
            fences_seen: trace.count(|k| matches!(k, EventKind::Fence { .. })) as u64,
            provenance: Provenance::Exploration,
        }
    }

    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let s = &self.stats;
        let _ = writeln!(
            out,
            "pmexplore: {} frontier(s), {} candidate state(s), {} distinct image(s)",
            s.frontiers, s.candidates, s.distinct_states
        );
        if self.is_clean() {
            let _ = writeln!(out, "every explored crash state recovered cleanly");
        } else {
            let _ = writeln!(out, "{} inconsistent crash state(s):", self.findings.len());
            for f in &self.findings {
                let _ = writeln!(
                    out,
                    "  after event #{}: {} ({} line(s) persisted, {} lost)",
                    f.after_seq,
                    f.failure.what,
                    f.persisted.len(),
                    f.lost.len()
                );
                for ls in &f.blamed {
                    let _ = writeln!(
                        out,
                        "      {} blamed on store at event #{}",
                        ls.kind, ls.store_seq
                    );
                }
            }
        }
        if !self.diagnostics.is_empty() {
            let _ = writeln!(
                out,
                "{} faulted candidate(s) ({} oracle crash(es), {} worker panic(s)):",
                self.diagnostics.len(),
                self.stats.oracle_crashes,
                self.stats.worker_panics
            );
            for d in &self.diagnostics {
                let _ = writeln!(out, "  {d}");
            }
        }
        out
    }
}

/// Explores the crash states of one traced execution of `module`.
/// `entry` is only used to derive the fallback oracle; the trace and data
/// log drive everything else.
pub fn explore(
    module: &Module,
    entry: &str,
    trace: &Trace,
    data: &DataLog,
    opts: &ExploreOptions,
) -> ExploreReport {
    use pmfault::{FaultKind, FaultPlan, FaultSite, Injector, Trigger};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let run_span = opts.obs.span("explore.run");
    let oracle = opts
        .oracle
        .clone()
        .unwrap_or_else(|| Oracle::default_for(module, entry));
    let fronts = {
        let _span = opts.obs.span("explore.frontiers");
        let all = frontiers(trace, data, None);
        match opts.shard {
            Some((i, n)) if n > 1 => all
                .into_iter()
                .enumerate()
                .filter(|(idx, _)| (*idx as u64) % n == i % n)
                .map(|(_, f)| f)
                .collect(),
            _ => all,
        }
    };
    let candidates = {
        let _span = opts.obs.span("explore.sample");
        sample(&fronts, opts.budget, opts.seed)
    };
    // A finding reads its dirty and pending lines off the replayer, so the
    // frontier list need not stay beside every recovery boot.
    let frontier_count = fronts.len();
    drop(fronts);
    // No thread starts that has no chunk to take.
    let jobs = opts
        .jobs
        .max(1)
        .min(candidates.len().div_ceil(CHUNK).max(1));
    // Workers share two objects: the cursor they claim chunks from and the
    // image memo. Everything else a worker finds it returns.
    let cursor = AtomicUsize::new(0);
    let memo: Mutex<HashMap<u64, Verdict>> = Mutex::new(HashMap::new());
    // Fence positions, for blame: is a store followed by a fence?
    let fences: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Fence { .. }))
        .map(|e| e.seq)
        .collect();
    // Explore-level faults are keyed by the *candidate index* via the
    // stateless `fires_at`, so results do not depend on which worker
    // claims which chunk.
    let injector = opts
        .fault
        .clone()
        .map(|p| Injector::with_obs(p, opts.obs.clone()));

    // One decode of the program under test, shared by every worker's
    // recovery boots (the VM would otherwise re-decode per boot).
    let decoded = pmvm::DecodedModule::decode(module);
    // One worker's loop over the cursor. A single worker runs on the
    // calling thread, so a `jobs == 1` call starts no thread.
    let work = || {
        let obs = opts.obs.clone();
        let _worker_span = obs.span("explore.worker");
        let mut out = WorkerOut::default();
        let mut replayer: Option<Replayer<'_>> = None;
        // This worker's read-path memo, for this call.
        let mut paths = ReadPathMemo::default();
        // Cooperative cancellation: stop claiming chunks once the caller's
        // budget is exhausted; partial coverage is reported below, never
        // silently.
        while !opts.cancel.is_exhausted() {
            let Some(chunk) = claim(&cursor, candidates.len()) else {
                break;
            };
            for (idx, c) in chunk.clone().zip(&candidates[chunk]) {
                out.evaluated += 1;
                // Worker-panic isolation: a panic anywhere in one
                // candidate's processing (injected or real) skips that
                // candidate only, and the worker keeps claiming chunks.
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(inj) = injector.as_ref() {
                        if let Some(FaultKind::WorkerPanic) =
                            inj.fires_at(FaultSite::ExploreWorker, idx as u64)
                        {
                            panic!("pmfault: injected worker panic at candidate {idx}");
                        }
                    }
                    // The cursor only grows and candidates are sorted by
                    // `after_seq`, so the forward-only replayer never has
                    // to go back.
                    let r = replayer.get_or_insert_with(|| Replayer::new(trace, data, None));
                    r.advance_to(c.after_seq);
                    // Hash the candidate from the rolling replayer
                    // hash — O(persisted lines). The image (a clone of
                    // every pool's pages) is materialized only when the
                    // memo misses and a recovery boot actually needs it.
                    let h = r.hash_with(&c.lines);

                    let oracle_panic = injector.as_ref().is_some_and(|i| {
                        matches!(
                            i.fires_at(FaultSite::ExploreOracle, idx as u64),
                            Some(FaultKind::OraclePanic)
                        )
                    });
                    let diverge = injector.as_ref().is_some_and(|i| {
                        matches!(
                            i.fires_at(FaultSite::VmDiverge, idx as u64),
                            Some(FaultKind::StuckLoop)
                        )
                    });
                    let injected = oracle_panic || diverge;
                    // Faulted candidates bypass both memos in both
                    // directions: the fault must manifest, and its
                    // verdict must not leak to other candidates
                    // that happen to share the image.
                    let version = |line| r.line_version(line, &c.lines);
                    // Where the image left the read-path memo, if it was
                    // asked and missed: the boot's path goes in there.
                    let mut miss = None;
                    let known = if injected {
                        None
                    } else {
                        let known = memo.lock().expect("memo lock").get(&h).cloned();
                        // The image memo missed: an earlier boot that read
                        // only lines this image holds at the same versions
                        // decides, and its verdict counts as this image's.
                        known.or_else(|| match paths.lookup(r.pool_set(), version) {
                            Ok(v) => {
                                out.path_hits += 1;
                                memo.lock().expect("memo lock").insert(h, v.clone());
                                Some(v.clone())
                            }
                            Err(m) => {
                                miss = Some(m);
                                None
                            }
                        })
                    };
                    let verdict = match known {
                        Some(v) => v,
                        None => {
                            // Boot wall time (image plus recovery
                            // run), split out from replay.
                            let boot_started = obs.is_enabled().then(std::time::Instant::now);
                            out.boots += 1;
                            let img = r.image_with(&c.lines);
                            let watchdog = if diverge {
                                Some(opts.recovery_watchdog_ms.unwrap_or(250))
                            } else {
                                opts.recovery_watchdog_ms
                            };
                            let fault = diverge.then(|| {
                                FaultPlan::single(
                                    FaultSite::VmDiverge,
                                    Trigger::Always,
                                    FaultKind::StuckLoop,
                                )
                            });
                            // Oracle-panic isolation: the pool
                            // classifies the panic as an
                            // OracleCrash verdict and keeps going.
                            let (v, path) = catch_unwind(AssertUnwindSafe(|| {
                                if oracle_panic {
                                    panic!("pmfault: injected oracle panic at candidate {idx}");
                                }
                                oracle.check_reading(
                                    module,
                                    img,
                                    opts.max_recovery_steps,
                                    watchdog,
                                    fault,
                                    Some(&decoded),
                                    miss.is_some(),
                                )
                            }))
                            .unwrap_or_else(|p| {
                                let what =
                                    format!("recovery oracle panicked: {}", panic_text(p.as_ref()));
                                (Verdict::OracleCrash { what }, None)
                            });
                            if let Some(t) = boot_started {
                                obs.observe(
                                    "explore.oracle_boot_us",
                                    t.elapsed().as_secs_f64() * 1e6,
                                );
                            }
                            // Only stable verdicts of un-faulted
                            // candidates are memoizable.
                            if !injected && !matches!(v, Verdict::OracleCrash { .. }) {
                                memo.lock().expect("memo lock").insert(h, v.clone());
                                if let (Some(miss), Some(path)) = (miss, path) {
                                    paths.insert(miss, r.pool_set(), &path, version, v.clone());
                                }
                            }
                            v
                        }
                    };
                    match verdict {
                        Verdict::Inconsistent(failure) => {
                            let f = finding(r, &fences, c, h, failure);
                            out.found.push((idx, f));
                        }
                        Verdict::OracleCrash { what } => {
                            out.faulted.push((
                                idx,
                                format!("candidate {idx} (after event {}): {what}", c.after_seq),
                                false,
                            ));
                        }
                        Verdict::Consistent => {}
                    }
                }));
                if caught.is_err() {
                    // The replayer may have been mid-advance, and the
                    // read-path memo mid-insert; discard both so the next
                    // candidate starts from a clean slate.
                    replayer = None;
                    paths = ReadPathMemo::default();
                    out.faulted.push((
                        idx,
                        format!(
                            "candidate {idx}: worker panicked mid-enumeration; \
                             candidate skipped, queue drained"
                        ),
                        true,
                    ));
                }
            }
        }
        // Per-worker utilization: how evenly the cursor spread the
        // candidates across the pool.
        obs.observe("explore.worker.candidates", out.evaluated as f64);
        out
    };
    let outs: Vec<WorkerOut> = if jobs == 1 {
        vec![work()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs).map(|_| s.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };

    let (mut raw, mut fault_log) = (vec![], vec![]);
    let (mut done, mut boots, mut path_hits) = (0, 0, 0);
    for o in outs {
        raw.extend(o.found);
        fault_log.extend(o.faulted);
        done += o.evaluated;
        boots += o.boots;
        path_hits += o.path_hits;
    }
    raw.sort_by_key(|(idx, _)| *idx);
    let mut findings = vec![];
    let mut failing_images = BTreeSet::new();
    for (_, f) in raw {
        if failing_images.insert(f.image_hash) {
            findings.push(f);
        }
    }
    fault_log.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let worker_panics = fault_log.iter().filter(|(_, _, wp)| *wp).count();
    let stats = ExploreStats {
        frontiers: frontier_count,
        candidates: candidates.len(),
        distinct_states: memo.into_inner().expect("memo lock").len(),
        inconsistent: findings.len(),
        oracle_crashes: fault_log.len() - worker_panics,
        worker_panics,
    };
    if opts.obs.is_enabled() {
        let obs = &opts.obs;
        obs.add("explore.frontiers", stats.frontiers as u64);
        obs.add("explore.candidates", stats.candidates as u64);
        obs.add("explore.distinct_states", stats.distinct_states as u64);
        obs.add("explore.crash_images", stats.candidates as u64);
        obs.add(
            "explore.dedup_hits",
            stats.candidates.saturating_sub(stats.distinct_states) as u64,
        );
        obs.add("explore.inconsistent", stats.inconsistent as u64);
        obs.add("explore.oracle_crashes", stats.oracle_crashes as u64);
        obs.add("explore.worker_panics", stats.worker_panics as u64);
        obs.add("explore.recovery_boots", boots as u64);
        obs.add("explore.read_path_hits", path_hits as u64);
    }
    drop(run_span);
    let mut diagnostics: Vec<String> = fault_log.into_iter().map(|(_, d, _)| d).collect();
    if opts.cancel.is_exhausted() && done < stats.candidates {
        diagnostics.push(format!(
            "exploration cancelled by budget: {done} of {} candidate(s) evaluated; \
             findings cover the evaluated candidates only",
            stats.candidates
        ));
        opts.obs.add(
            "explore.cancelled_candidates",
            (stats.candidates - done) as u64,
        );
    }
    ExploreReport {
        findings,
        stats,
        oracle: Some(oracle),
        diagnostics,
    }
}

/// What one worker found, merged after the pool joins.
#[derive(Default)]
struct WorkerOut {
    /// Inconsistent candidates, by candidate index.
    found: Vec<(usize, Finding)>,
    /// Faulted candidates: (index, one-line diagnostic, was a worker panic).
    faulted: Vec<(usize, String, bool)>,
    /// Candidates taken, for the partial-coverage diagnostic when the
    /// caller's cancellation budget trips mid-run.
    evaluated: usize,
    /// Recovery boots run.
    boots: usize,
    /// Boots skipped by a read-path memo hit.
    path_hits: usize,
}

/// Best-effort rendering of a caught panic payload.
fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Builds the finding for an inconsistent candidate: what was lost and
/// which stores to blame, classified the same way the dynamic checker
/// classifies (pending line → missing fence; otherwise missing flush when
/// a later fence exists, else missing flush&fence). `r` is positioned at
/// the crash; `fences` holds the trace's fence sequence numbers, ascending.
fn finding(
    r: &Replayer<'_>,
    fences: &[u64],
    c: &Candidate,
    image_hash: u64,
    failure: Failure,
) -> Finding {
    let pending = r.pending_lines();
    let lost: Vec<u64> = r
        .dirty_lines()
        .into_iter()
        .filter(|l| c.lines.binary_search(l).is_err())
        .collect();

    // Blame each lost line on the last store at or before the crash that
    // wrote it.
    let mut by_store: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &line in &lost {
        if let Some(e) = r.last_store(line) {
            by_store.entry(e.seq).or_default().push(line);
        }
    }

    let blamed = by_store
        .into_iter()
        .map(|(store_seq, lines)| {
            let unflushed: Vec<u64> = lines
                .iter()
                .copied()
                .filter(|l| pending.binary_search(l).is_err())
                .collect();
            let kind = if unflushed.is_empty() {
                BugKind::MissingFence
            } else {
                let next_fence = fences.get(fences.partition_point(|&f| f <= store_seq));
                if next_fence.is_some_and(|&f| f <= c.after_seq) {
                    BugKind::MissingFlush
                } else {
                    BugKind::MissingFlushFence
                }
            };
            LostStore {
                store_seq,
                kind,
                lost_lines: lines,
                unflushed_lines: unflushed,
            }
        })
        .collect();

    Finding {
        after_seq: c.after_seq,
        persisted: c.lines.clone(),
        lost,
        image_hash,
        failure,
        blamed,
    }
}

/// The result of [`run_and_explore`]: the traced run plus the exploration
/// of its crash states.
#[derive(Debug)]
pub struct Exploration {
    /// The exploration outcome.
    pub report: ExploreReport,
    /// The traced execution the exploration covered.
    pub trace: Trace,
    /// The PM write-data log of that execution.
    pub data: DataLog,
}

/// Runs `entry` once with tracing and PM data capture, then explores the
/// crash states of that execution.
///
/// # Errors
///
/// Propagates a [`VmError`] if the traced run itself traps.
pub fn run_and_explore(
    module: &Module,
    entry: &str,
    opts: &ExploreOptions,
) -> Result<Exploration, VmError> {
    let vm_opts = VmOptions {
        capture_pm_data: true,
        obs: opts.obs.clone(),
        ..VmOptions::default()
    };
    let res = {
        let _span = opts.obs.span("explore.traced_run");
        Vm::new(vm_opts).run(module, entry)?
    };
    let trace = res.trace.expect("tracing was on");
    let data = res.pm_data.expect("capture was on");
    let report = explore(module, entry, &trace, &data, opts);
    Ok(Exploration {
        trace,
        data,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_drains_in_order() {
        let cursor = AtomicUsize::new(0);
        let total = 2 * CHUNK + 3;
        assert_eq!(claim(&cursor, total), Some(0..CHUNK));
        assert_eq!(claim(&cursor, total), Some(CHUNK..2 * CHUNK));
        assert_eq!(claim(&cursor, total), Some(2 * CHUNK..total));
        assert_eq!(claim(&cursor, total), None);
    }

    #[test]
    fn every_index_claimed_exactly_once() {
        let cursor = AtomicUsize::new(0);
        let mut seen = [false; 103];
        while let Some(r) = claim(&cursor, seen.len()) {
            for i in r {
                assert!(!seen[i], "index {i} claimed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all indices claimed");
    }

    #[test]
    fn parallel_claims_are_disjoint_and_complete() {
        let cursor = AtomicUsize::new(0);
        let claimed: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let (cursor, claimed) = (&cursor, &claimed);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    while let Some(r) = claim(cursor, claimed.len()) {
                        for i in r {
                            claimed[i].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(claimed.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    /// The canonical escape from checkpoint-based checking: `data` is
    /// flushed but not fenced before the `flag` store, so a crash can
    /// persist the flag (plain cache eviction) while the data write-back
    /// is still in flight. Every line is durable by the `crashpoint`, so
    /// the dynamic checker — and crash-point sampling — see nothing.
    const ORDERING_BUG: &str = r#"
        fn main() {
            var p: ptr = pmem_map(11, 4096);
            store8(p, 64, 4242);
            clwb(p + 64);
            store8(p, 0, 1);
            clwb(p);
            sfence();
            crashpoint();
        }
        fn recover() -> int {
            var p: ptr = pmem_map(11, 4096);
            if (load8(p, 0) == 1) {
                if (load8(p, 64) != 4242) { return 1; }
            }
            return 0;
        }
    "#;

    #[test]
    fn finds_reordering_the_dynamic_checker_misses() {
        let m = pmlang::compile_one("t.pmc", ORDERING_BUG).unwrap();
        let x = run_and_explore(&m, "main", &ExploreOptions::default()).unwrap();
        // The checkpoint-based dynamic checker is blind to this bug.
        assert!(
            pmcheck::check_trace(&x.trace).is_clean(),
            "program must be lint-clean for the test to mean anything"
        );
        assert!(
            !x.report.is_clean(),
            "exploration must catch the reordering"
        );
        let check = x.report.to_check_report(&x.trace);
        assert_eq!(check.provenance, Provenance::Exploration);
        // The first Store in the trace is the data store at `p + 64`.
        let data_store_seq = x
            .trace
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Store { .. }))
            .unwrap()
            .seq;
        assert!(
            check
                .bugs
                .iter()
                .any(|b| b.kind == BugKind::MissingFence && b.store_seq == data_store_seq),
            "the data store is blamed for a missing fence: {}",
            check.render()
        );
        assert!(check
            .bugs
            .iter()
            .all(|b| matches!(b.checkpoint, Checkpoint::Event(_))));
    }

    #[test]
    fn jobs_do_not_change_results() {
        let m = pmlang::compile_one("t.pmc", ORDERING_BUG).unwrap();
        let serial = run_and_explore(&m, "main", &ExploreOptions::default()).unwrap();
        let parallel = run_and_explore(
            &m,
            "main",
            &ExploreOptions {
                jobs: 4,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(serial.report, parallel.report);
    }

    #[test]
    fn every_candidate_is_evaluated_once_for_any_jobs() {
        // Three lines never flushed on top of the ordering bug give enough
        // crash states that the budget, not the program, sets the candidate
        // count: one that leaves a short last chunk.
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(11, 4096);
                store8(p, 64, 4242);
                store8(p, 128, 1);
                store8(p, 192, 2);
                store8(p, 256, 3);
                clwb(p + 64);
                store8(p, 0, 1);
                clwb(p);
                sfence();
                crashpoint();
            }
            fn recover() -> int {
                var p: ptr = pmem_map(11, 4096);
                if (load8(p, 0) == 1) {
                    if (load8(p, 64) != 4242) { return 1; }
                }
                return 0;
            }
        "#;
        let m = pmlang::compile_one("t.pmc", src).unwrap();
        let budget = 5 * CHUNK + 3;
        let run = |jobs| {
            let obs = pmobs::Obs::enabled();
            let opts = ExploreOptions {
                budget,
                jobs,
                obs: obs.clone(),
                ..ExploreOptions::default()
            };
            let report = run_and_explore(&m, "main", &opts).unwrap().report;
            let workers = obs.snapshot().histograms["explore.worker.candidates"].clone();
            (report, workers)
        };
        let (serial, _) = run(1);
        assert_eq!(serial.stats.candidates, budget);
        assert!(!serial.is_clean(), "{}", serial.render());
        for jobs in [1, 2, 3, 4, 7] {
            let (report, workers) = run(jobs);
            assert_eq!(report, serial, "jobs={jobs}");
            // One observation per worker, and the workers' counts sum to
            // the candidate count: no candidate skipped or taken twice.
            assert_eq!(workers.count as usize, jobs.min(budget.div_ceil(CHUNK)));
            assert_eq!(workers.sum as usize, budget, "jobs={jobs}");
        }
    }

    #[test]
    fn exhausted_cancellation_budget_evaluates_nothing() {
        let m = pmlang::compile_one("t.pmc", ORDERING_BUG).unwrap();
        let cancel = pmtx::Budget::new(None, Some(1));
        assert!(cancel.charge(2).is_err());
        let run = |jobs| {
            let opts = ExploreOptions {
                jobs,
                cancel: cancel.clone(),
                ..ExploreOptions::default()
            };
            run_and_explore(&m, "main", &opts).unwrap().report
        };
        let serial = run(1);
        let n = serial.stats.candidates;
        assert!(n > 0);
        assert!(serial.findings.is_empty());
        assert_eq!(
            serial.diagnostics,
            vec![format!(
                "exploration cancelled by budget: 0 of {n} candidate(s) evaluated; \
                 findings cover the evaluated candidates only"
            )]
        );
        assert_eq!(serial, run(4));
    }

    #[test]
    fn writing_oracle_boots_see_only_their_own_image() {
        // A recovery that stores, flushes and fences into the page it
        // shares with the replayer before it judges: a boot counter (each
        // boot must see 0, so a write that leaked into the replayer's pages
        // fails every later boot) and a scratch sum it then reads back.
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(11, 4096);
                store8(p, 64, 4242);
                clwb(p + 64);
                store8(p, 0, 1);
                clwb(p);
                sfence();
                crashpoint();
            }
            fn recover() -> int {
                var p: ptr = pmem_map(11, 4096);
                var boots: int = load8(p, 128);
                store8(p, 128, boots + 1);
                clwb(p + 128);
                sfence();
                store8(p, 192, load8(p, 0) + load8(p, 64));
                clwb(p + 192);
                sfence();
                if (load8(p, 128) != 1) { return 2; }
                if (load8(p, 0) == 1) {
                    if (load8(p, 192) != 4243) { return 1; }
                }
                return 0;
            }
        "#;
        let m = pmlang::compile_one("t.pmc", src).unwrap();
        let opts = ExploreOptions::default();
        let x = run_and_explore(&m, "main", &opts).unwrap();
        let parallel = ExploreOptions {
            jobs: 4,
            ..ExploreOptions::default()
        };
        assert_eq!(
            x.report,
            run_and_explore(&m, "main", &parallel).unwrap().report
        );

        let oracle = Oracle::default_for(&m, "main");
        let fronts = frontiers(&x.trace, &x.data, None);
        let mut r = Replayer::new(&x.trace, &x.data, None);
        let mut failing = BTreeSet::new();
        let mut verdicts = vec![];
        for c in sample(&fronts, opts.budget, opts.seed) {
            r.advance_to(c.after_seq);
            let before = r.image_with(&[]);
            let replayed = oracle.check(&m, r.image_with(&c.lines), opts.max_recovery_steps);
            assert_eq!(r.image_with(&[]), before, "a boot changed the replayer");
            let vm = Vm::new(VmOptions::default().stop_at_event(c.after_seq))
                .run(&m, "main")
                .unwrap();
            let truth = oracle.check(
                &m,
                vm.machine.crash_image_with_lines(&c.lines),
                opts.max_recovery_steps,
            );
            assert_eq!(
                replayed, truth,
                "after event {} with {:?}",
                c.after_seq, c.lines
            );
            if !matches!(truth, Verdict::Consistent) {
                failing.insert(r.hash_with(&c.lines));
            }
            verdicts.push(truth);
        }
        assert!(verdicts.contains(&Verdict::Consistent));
        assert!(
            verdicts.iter().all(|v| !matches!(
                v,
                Verdict::Inconsistent(Failure {
                    return_value: Some(2),
                    ..
                })
            )),
            "a boot saw another boot's writes"
        );
        let found: BTreeSet<u64> = x.report.findings.iter().map(|f| f.image_hash).collect();
        assert!(!found.is_empty());
        assert_eq!(found, failing);
    }

    #[test]
    fn clean_program_explores_clean() {
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(2, 4096);
                store8(p, 64, 7);
                clwb(p + 64);
                sfence();
                store8(p, 0, 1);
                clwb(p);
                sfence();
            }
            fn recover() -> int {
                var p: ptr = pmem_map(2, 4096);
                if (load8(p, 0) == 1) {
                    if (load8(p, 64) != 7) { return 1; }
                }
                return 0;
            }
        "#;
        let m = pmlang::compile_one("t.pmc", src).unwrap();
        let x = run_and_explore(&m, "main", &ExploreOptions::default()).unwrap();
        assert!(x.report.is_clean(), "{}", x.report.render());
        assert!(x.report.stats.candidates > 0);
        assert!(x.report.stats.distinct_states > 0);
    }

    #[test]
    fn injected_worker_panic_reports_partial_results_deterministically() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let m = pmlang::compile_one("t.pmc", ORDERING_BUG).unwrap();
        let with_fault = |jobs| {
            run_and_explore(
                &m,
                "main",
                &ExploreOptions {
                    jobs,
                    fault: Some(FaultPlan::single(
                        FaultSite::ExploreWorker,
                        Trigger::Nth(1),
                        FaultKind::WorkerPanic,
                    )),
                    ..ExploreOptions::default()
                },
            )
            .unwrap()
        };
        let serial = with_fault(1);
        assert_eq!(serial.report.stats.worker_panics, 1);
        assert_eq!(serial.report.diagnostics.len(), 1);
        assert!(serial.report.diagnostics[0].contains("worker panicked"));
        // The rest of the frontier was drained: all other candidates ran.
        let clean = run_and_explore(&m, "main", &ExploreOptions::default()).unwrap();
        assert_eq!(
            serial.report.stats.candidates,
            clean.report.stats.candidates
        );
        assert!(
            !serial.report.is_clean(),
            "surviving candidates still find the bug"
        );
        // And the outcome is identical with four workers.
        let parallel = with_fault(4);
        assert_eq!(serial.report, parallel.report);
    }

    #[test]
    fn injected_oracle_panic_is_an_oracle_crash_not_a_bug() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let m = pmlang::compile_one("t.pmc", ORDERING_BUG).unwrap();
        let x = run_and_explore(
            &m,
            "main",
            &ExploreOptions {
                jobs: 2,
                fault: Some(FaultPlan::single(
                    FaultSite::ExploreOracle,
                    Trigger::Nth(0),
                    FaultKind::OraclePanic,
                )),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(x.report.stats.oracle_crashes, 1);
        assert!(
            x.report.diagnostics[0].contains("oracle panicked"),
            "{:?}",
            x.report.diagnostics
        );
        // An oracle crash is never blamed on a store.
        let check = x.report.to_check_report(&x.trace);
        assert!(check.bugs.iter().all(|b| b.kind != BugKind::MissingFence
            || x.report
                .findings
                .iter()
                .any(|f| f.blamed.iter().any(|l| l.store_seq == b.store_seq))));
    }

    #[test]
    fn injected_divergence_hits_watchdog_and_pool_survives() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let m = pmlang::compile_one("t.pmc", ORDERING_BUG).unwrap();
        let t0 = std::time::Instant::now();
        let x = run_and_explore(
            &m,
            "main",
            &ExploreOptions {
                recovery_watchdog_ms: Some(30),
                fault: Some(FaultPlan::single(
                    FaultSite::VmDiverge,
                    Trigger::Nth(2),
                    FaultKind::StuckLoop,
                )),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(t0.elapsed().as_secs() < 30, "watchdog must bound the hang");
        assert_eq!(x.report.stats.oracle_crashes, 1);
        assert!(
            x.report.diagnostics[0].contains("watchdog"),
            "{:?}",
            x.report.diagnostics
        );
    }

    #[test]
    fn budget_caps_candidates() {
        let m = pmlang::compile_one("t.pmc", ORDERING_BUG).unwrap();
        let x = run_and_explore(
            &m,
            "main",
            &ExploreOptions {
                budget: 3,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(x.report.stats.candidates <= 3);
    }
}
