//! The repair engine: one pass (`repair_once`) and the detect→fix→verify
//! loop (`repair_until_clean`).

use crate::heuristic::{apply_hoist, choose_fix_site, CloneState};
use crate::locate::{locate, BugSite, LocateError};
use crate::options::{BugSource, MarkingMode, RepairOptions};
use crate::plan::{apply_intra_fix, plan_intra_fixes, pm_store_refs};
use crate::summary::{
    AppliedFix, Degradation, FixKind, QuarantinedFix, RepairOutcome, RepairSummary,
};
use pmalias::PmMarking;
use pmcheck::{run_and_check, Bug, CheckReport, CheckedRun, Checkpoint};
use pmir::snapshot::ModuleSnapshot;
use pmir::Module;
use pmtrace::{EventKind, Trace};
use pmvm::{VmError, VmOptions};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Base delay and cap, in milliseconds, of the seeded exponential backoff
/// between retries. The cap is small so degraded runs stay fast.
const RETRY_BASE_MS: u64 = 1;
const RETRY_CAP_MS: u64 = 8;

/// Sleeps the backoff before `attempt`, seeded so a degraded run's
/// schedule is reproducible. The first attempt (0) does not wait.
fn retry_pause(seed: u64, attempt: u32) {
    if attempt == 0 {
        return;
    }
    let ms = pmfault::backoff_ms(seed, attempt - 1, RETRY_BASE_MS, RETRY_CAP_MS);
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

/// The Hippocrates repair engine. See the [crate docs](crate) for the
/// pipeline description.
#[derive(Debug, Clone)]
pub struct Hippocrates {
    opts: RepairOptions,
}

/// A repair failure.
#[derive(Debug)]
pub enum RepairError {
    /// A bug could not be mapped back to the IR.
    Locate(LocateError),
    /// The program trapped during a verification run.
    Vm(VmError),
    /// The static checker failed (e.g. an unknown entry function).
    Static(pmstatic::StaticError),
    /// The module failed verification after a rewrite (an engine bug).
    Verify(pmir::verify::VerifyError),
    /// A repair pass applied no fixes while bugs remain (possibly because
    /// every remaining planned fix is quarantined).
    NoProgress {
        /// Bugs still outstanding.
        remaining: usize,
        /// What the run had committed before stalling.
        partial: Box<RepairOutcome>,
    },
    /// The iteration budget was exhausted before the report came back clean.
    IterationBudget {
        /// The configured maximum.
        max: u32,
        /// What the run had committed before stopping.
        partial: Box<RepairOutcome>,
    },
    /// The cooperative deadline/step budget tripped; everything committed so
    /// far is durable and carried in `partial`.
    BudgetExceeded {
        /// Which budget axis tripped.
        exceeded: pmtx::BudgetExceeded,
        /// What the run had committed before stopping.
        partial: Box<RepairOutcome>,
    },
    /// The options were rejected by [`RepairOptions::validate`].
    BadOptions {
        /// The human-readable reason.
        reason: String,
    },
    /// The write-ahead repair journal failed or refused to resume.
    Journal(pmtx::JournalError),
    /// Every configured bug source failed detection even after retries —
    /// there is nothing left to degrade to.
    AllSourcesFailed {
        /// Per-source failures, in configuration order.
        failures: Vec<Degradation>,
    },
}

impl RepairError {
    /// The partial [`RepairOutcome`] carried by progress/budget failures:
    /// what was committed (and quarantined) before the run stopped. Rounds
    /// already committed — including journaled ones — are never lost to
    /// these errors.
    pub fn partial_outcome(&self) -> Option<&RepairOutcome> {
        match self {
            RepairError::NoProgress { partial, .. }
            | RepairError::IterationBudget { partial, .. }
            | RepairError::BudgetExceeded { partial, .. } => Some(partial),
            _ => None,
        }
    }
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Locate(e) => write!(f, "{e}"),
            RepairError::Vm(e) => write!(f, "verification run failed: {e}"),
            RepairError::Static(e) => write!(f, "static check failed: {e}"),
            RepairError::Verify(e) => write!(f, "rewritten module is malformed: {e}"),
            RepairError::NoProgress { remaining, partial } => {
                write!(f, "no fixes applied with {remaining} bug(s) remaining")?;
                if !partial.quarantined.is_empty() {
                    write!(f, " ({} fix(es) quarantined)", partial.quarantined.len())?;
                }
                Ok(())
            }
            RepairError::IterationBudget { max, .. } => {
                write!(f, "not clean after {max} repair iteration(s)")
            }
            RepairError::BudgetExceeded { exceeded, partial } => write!(
                f,
                "repair budget exhausted ({exceeded}); {} round(s) committed before stopping",
                partial.committed_rounds
            ),
            RepairError::BadOptions { reason } => write!(f, "invalid repair options: {reason}"),
            RepairError::Journal(e) => write!(f, "{e}"),
            RepairError::AllSourcesFailed { failures } => {
                let parts: Vec<String> = failures.iter().map(|d| d.to_string()).collect();
                write!(f, "every bug source failed: {}", parts.join("; "))
            }
        }
    }
}

impl std::error::Error for RepairError {}

impl From<LocateError> for RepairError {
    fn from(e: LocateError) -> Self {
        RepairError::Locate(e)
    }
}

impl From<VmError> for RepairError {
    fn from(e: VmError) -> Self {
        RepairError::Vm(e)
    }
}

impl From<pmtx::JournalError> for RepairError {
    fn from(e: pmtx::JournalError) -> Self {
        RepairError::Journal(e)
    }
}

/// One round's application: the fixes applied plus, parallel to them, the
/// `function#inst` site keys they target (the quarantine exclusion keys).
struct RoundApplication {
    summary: RepairSummary,
    fix_targets: Vec<Vec<String>>,
    skipped_quarantined: usize,
}

/// The quarantine/planning key of a bug site: the store instruction, named
/// stably across rounds as `function#inst`.
fn site_key(m: &Module, s: &BugSite) -> String {
    format!("{}#{}", m.function(s.func).name(), s.store.0)
}

impl Hippocrates {
    /// Creates an engine.
    pub fn new(opts: RepairOptions) -> Self {
        Hippocrates { opts }
    }

    /// The options in effect.
    pub fn options(&self) -> &RepairOptions {
        &self.opts
    }

    /// One repair pass over an existing bug report: locate → plan intra →
    /// reduce → hoist → apply. The module is modified in place and
    /// re-verified structurally. This is the non-transactional primitive —
    /// [`Hippocrates::repair_until_clean`] wraps it in snapshot/rollback
    /// rounds with quarantine filtering.
    ///
    /// # Errors
    ///
    /// Fails if localization fails or (which would indicate an engine bug)
    /// the rewritten module does not verify.
    pub fn repair_once(
        &self,
        m: &mut Module,
        trace: &Trace,
        report: &CheckReport,
    ) -> Result<RepairSummary, RepairError> {
        Ok(self.apply_round(m, trace, report, &HashSet::new())?.summary)
    }

    /// [`Hippocrates::repair_once`] with a quarantine filter: a planned fix
    /// any of whose target sites is quarantined is skipped (counted, never
    /// applied), and each applied fix reports its target site keys so a
    /// failed round can quarantine them.
    fn apply_round(
        &self,
        m: &mut Module,
        trace: &Trace,
        report: &CheckReport,
        quarantine: &HashSet<String>,
    ) -> Result<RoundApplication, RepairError> {
        let obs = &self.opts.obs;
        // Locate deduped bugs, tagging each site with I's function.
        let mut located: Vec<(Bug, BugSite)> = vec![];
        {
            let _span = obs.span("repair.locate");
            for bug in report.deduped_bugs() {
                let mut site = locate(m, bug)?;
                site.i_func = i_function(m, trace, bug);
                located.push((bug.clone(), site));
            }
        }

        // Phase 1+2: plan intraprocedural fixes with reduction, dropping
        // fixes whose targets a previously rolled-back round quarantined.
        let plan_span = obs.span("repair.plan");
        let mut skipped_quarantined = 0usize;
        let fixes: Vec<_> = plan_intra_fixes(m, trace, &located)
            .into_iter()
            .filter(|fix| {
                let hit = fix
                    .sites
                    .iter()
                    .any(|s| quarantine.contains(&site_key(m, s)));
                if hit {
                    skipped_quarantined += 1;
                }
                !hit
            })
            .collect();

        // Phase 3: hoisting decisions (only for flush-bearing fixes).
        let analysis = self.opts.hoisting.then(|| {
            let aa = self.opts.cache.alias(m, &self.opts.obs);
            let marking = match self.opts.marking {
                MarkingMode::FullAa => PmMarking::full(&aa),
                MarkingMode::TraceAa => PmMarking::from_trace(m, &aa, trace),
            };
            (aa, marking)
        });
        let pm_stores = pm_store_refs(m, trace);
        // Reuse persistent clones created by earlier iterations (§4.2.4).
        let mut state = if self.opts.reuse_subprograms {
            CloneState::discover(m)
        } else {
            CloneState::default()
        };
        let mut summary = RepairSummary::default();
        let mut fix_targets = Vec::with_capacity(fixes.len());
        drop(plan_span);

        let apply_span = obs.span("repair.apply");
        for fix in &fixes {
            fix_targets.push(fix.sites.iter().map(|s| site_key(m, s)).collect());
            let store_function = m.function(fix.func).name().to_string();
            let store_loc = fix
                .sites
                .first()
                .and_then(|s| m.function(s.func).inst(s.store).loc)
                .map(|l| pmtrace::TraceLoc {
                    file: m.file_name(l.file).into(),
                    line: l.line,
                    col: l.col,
                });
            let bug_kinds: Vec<String> = fix.kinds.iter().map(|k| k.to_string()).collect();

            // A fix is hoistable when it inserts a flush and has a caller.
            let decision = match (&analysis, fix.insert_flush) {
                (Some((aa, marking)), true) => fix
                    .sites
                    .iter()
                    .find(|s| !s.call_path.is_empty())
                    .map(|site| (site, choose_fix_site(m, aa, marking, site))),
                _ => None,
            };

            match decision {
                Some((site, d)) if d.depth > 0 => {
                    let site = site.clone();
                    let applied =
                        apply_hoist(m, &site, d.depth, &pm_stores, &mut state, &self.opts);
                    summary.clones_created += applied.clones_created;
                    obs.add("repair.fixes.subprogram", 1);
                    obs.add("repair.inserted.flushes", 1);
                    obs.add("repair.clones_created", applied.clones_created as u64);
                    summary.fixes.push(AppliedFix {
                        kind: FixKind::Interproc {
                            levels: applied.levels,
                            root_clone: applied.root_clone,
                        },
                        store_function,
                        store_loc,
                        bug_kinds,
                    });
                }
                _ => {
                    apply_intra_fix(m, fix, &self.opts);
                    if fix.insert_flush {
                        obs.add("repair.inserted.flushes", 1);
                    }
                    if fix.insert_fence {
                        obs.add("repair.inserted.fences", 1);
                    }
                    let kind = match (fix.insert_flush, fix.insert_fence) {
                        (true, true) => FixKind::IntraFlushFence,
                        (true, false) => FixKind::IntraFlush,
                        _ => FixKind::IntraFence,
                    };
                    obs.add(
                        match kind {
                            FixKind::IntraFlushFence => "repair.fixes.flush_fence",
                            FixKind::IntraFlush => "repair.fixes.flush",
                            _ => "repair.fixes.fence",
                        },
                        1,
                    );
                    summary.fixes.push(AppliedFix {
                        kind,
                        store_function,
                        store_loc,
                        bug_kinds,
                    });
                }
            }
        }
        drop(apply_span);

        {
            let _span = obs.span("repair.verify_module");
            pmir::verify::verify_module(m).map_err(RepairError::Verify)?;
        }
        Ok(RoundApplication {
            summary,
            fix_targets,
            skipped_quarantined,
        })
    }

    /// The watchdog armed on detection/verification runs: the configured
    /// one, or an automatic 250ms default when the fault plan injects a
    /// diverging loop (which the VM refuses to run unguarded) — clamped to
    /// the budget's remaining wall-clock time so a deadline cuts off even a
    /// run that would otherwise go unguarded.
    fn effective_watchdog(&self, budget: &pmtx::Budget) -> Option<u64> {
        let base = self.opts.watchdog_ms.or_else(|| {
            self.opts
                .fault
                .as_ref()
                .and_then(|p| p.targets(pmfault::FaultSite::VmDiverge).then_some(250))
        });
        match (base, budget.remaining_ms()) {
            (Some(w), Some(rem)) => Some(w.min(rem.max(1))),
            (None, Some(rem)) => Some(rem.max(1)),
            (w, None) => w,
        }
    }

    /// The [`VmOptions`] for one detection/verification run, with the
    /// watchdog re-clamped to the budget's remaining time.
    fn vm_opts_for(&self, budget: &pmtx::Budget) -> VmOptions {
        VmOptions {
            max_steps: self.opts.max_steps,
            watchdog_ms: self.effective_watchdog(budget),
            fault: self.opts.fault.clone(),
            obs: self.opts.obs.clone(),
            ..VmOptions::default()
        }
    }

    /// Runs `attempt_fn` up to `1 + source_retries` times with seeded,
    /// capped exponential backoff between attempts. Returns the value plus
    /// the number of retries spent, or the [`Degradation`] to stamp when
    /// every attempt failed.
    fn with_retries<T>(
        &self,
        source: &str,
        mut attempt_fn: impl FnMut() -> Result<T, String>,
    ) -> Result<(T, u32), Degradation> {
        let obs = &self.opts.obs;
        let _span = obs.span(&format!("repair.detect.{source}"));
        let seed = self
            .opts
            .fault
            .as_ref()
            .map_or(self.opts.explore_seed, |p| p.seed);
        let mut last = String::new();
        for attempt in 0..=self.opts.source_retries {
            retry_pause(seed, attempt);
            obs.add(&format!("repair.attempts.{source}"), 1);
            match attempt_fn() {
                Ok(v) => {
                    obs.add(&format!("repair.retries.{source}"), attempt as u64);
                    return Ok((v, attempt));
                }
                Err(e) => last = e,
            }
        }
        obs.add(
            &format!("repair.retries.{source}"),
            self.opts.source_retries as u64,
        );
        obs.add(&format!("repair.source_failed.{source}"), 1);
        Err(Degradation {
            source: source.to_string(),
            reason: last,
            retries: self.opts.source_retries,
        })
    }

    /// The dynamic checker with retries. Injected simulator faults observed
    /// by the run are copied into `diagnostics`.
    fn dynamic_with_retries(
        &self,
        m: &Module,
        entry: &str,
        vm_opts: &VmOptions,
        diagnostics: &mut Vec<String>,
    ) -> Result<CheckedRun, Degradation> {
        let (c, retries) = self.with_retries("dynamic", || {
            run_and_check(m, entry, vm_opts.clone())
                .map_err(|e| format!("verification run failed: {e}"))
        })?;
        if retries > 0 {
            note(
                diagnostics,
                format!("dynamic source recovered after {retries} retry(ies)"),
            );
        }
        for f in c.run.machine.injected_faults() {
            note(diagnostics, format!("injected: {f}"));
        }
        Ok(c)
    }

    /// The static checker with retries, cancellable via the budget.
    fn static_with_retries(
        &self,
        m: &Module,
        entry: &str,
        budget: &pmtx::Budget,
        diagnostics: &mut Vec<String>,
    ) -> Result<CheckReport, Degradation> {
        let (report, retries) = self.with_retries("static", || {
            // Cache hits reproduce the budgeted check's success result
            // exactly; failures (budget trips, faults) are never cached, so
            // retries always reach the real checker.
            self.opts.cache.static_report(m, entry, &self.opts.obs, || {
                pmstatic::check_module_budgeted(m, entry, &self.opts.obs, budget)
                    .map_err(|e| format!("static check failed: {e}"))
            })
        })?;
        if retries > 0 {
            note(
                diagnostics,
                format!("static source recovered after {retries} retry(ies)"),
            );
        }
        Ok(report)
    }

    /// Exercises the trace serialize→parse path that a persisted trace
    /// would travel, with the plan's trace faults applied to the bytes in
    /// between. A corrupted roundtrip is retried (the injector's hit
    /// counters persist, so `Nth` faults clear on retry); when every
    /// attempt stays corrupt the engine falls back to the in-memory trace
    /// it already holds and stamps the outcome degraded. The repair itself
    /// always proceeds from the in-memory trace — do no harm.
    fn harden_trace(
        &self,
        trace: &Trace,
        injector: &mut Option<pmfault::Injector>,
        degraded: &mut Vec<Degradation>,
        diagnostics: &mut Vec<String>,
    ) {
        let Some(inj) = injector.as_mut() else { return };
        let plan_hits_trace = inj.plan().targets(pmfault::FaultSite::TraceParse)
            || inj.plan().targets(pmfault::FaultSite::TraceAppend);
        if !plan_hits_trace || trace.is_empty() {
            return;
        }
        let _span = self.opts.obs.span("repair.trace_harden");
        let seed = inj.plan().seed;
        let mut last = String::new();
        for attempt in 0..=self.opts.source_retries {
            retry_pause(seed, attempt);
            let mut text = pmtrace::log::to_log(trace);
            if let Some(kind) = inj.fire(pmfault::FaultSite::TraceAppend) {
                text = pmfault::duplicate_line(&text, seed);
                inj.record(format!("trace.append: {kind} in serialized log"));
            }
            if let Some(kind) = inj.fire(pmfault::FaultSite::TraceParse) {
                text = match kind {
                    pmfault::FaultKind::TraceTruncate => pmfault::truncate_text(&text, seed),
                    _ => pmfault::bitflip_text(&text, seed),
                };
                inj.record(format!("trace.parse: {kind} in serialized log"));
            }
            match pmtrace::log::from_log_obs(&text, &self.opts.obs) {
                Err(e) => last = format!("trace ingest failed: {e}"),
                Ok(parsed) => {
                    let warnings = parsed.validate();
                    if warnings.is_empty() {
                        if attempt > 0 {
                            note(
                                diagnostics,
                                format!("trace roundtrip recovered after {attempt} retry(ies)"),
                            );
                        }
                        return;
                    }
                    let parts: Vec<String> = warnings.iter().map(|w| w.to_string()).collect();
                    last = format!("trace validation failed: {}", parts.join("; "));
                }
            }
        }
        note(
            diagnostics,
            "trace ingest corrupted; proceeding with the in-memory trace".to_string(),
        );
        note_degraded(
            degraded,
            Degradation {
                source: "trace".to_string(),
                reason: last,
                retries: self.opts.source_retries,
            },
        );
    }

    /// Crash-state exploration with retries. Faulted candidates reported
    /// by the pool (contained worker panics, oracle crashes) become
    /// diagnostics plus a partial-coverage degradation — the surviving
    /// candidates' findings still feed the repair.
    fn exploration_with_retries(
        &self,
        m: &Module,
        entry: &str,
        budget: &pmtx::Budget,
        degraded: &mut Vec<Degradation>,
        diagnostics: &mut Vec<String>,
    ) -> Result<(CheckReport, Trace), Degradation> {
        let x_opts = pmexplore::ExploreOptions {
            budget: self.opts.explore_budget,
            seed: self.opts.explore_seed,
            jobs: self.opts.explore_jobs,
            max_recovery_steps: self.opts.max_steps,
            fault: self.opts.fault.clone(),
            recovery_watchdog_ms: self.effective_watchdog(budget),
            obs: self.opts.obs.clone(),
            cancel: budget.clone(),
            ..pmexplore::ExploreOptions::default()
        };
        let (x, retries) = self.with_retries("exploration", || {
            pmexplore::run_and_explore(m, entry, &x_opts)
                .map_err(|e| format!("exploration replay failed: {e}"))
        })?;
        if retries > 0 {
            note(
                diagnostics,
                format!("exploration source recovered after {retries} retry(ies)"),
            );
        }
        if !x.report.diagnostics.is_empty() {
            for d in &x.report.diagnostics {
                note(diagnostics, format!("explore: {d}"));
            }
            note_degraded(
                degraded,
                Degradation {
                    source: "exploration".to_string(),
                    reason: format!(
                        "{} candidate(s) faulted ({} oracle crash(es), {} worker panic(s)); \
                         partial coverage",
                        x.report.diagnostics.len(),
                        x.report.stats.oracle_crashes,
                        x.report.stats.worker_panics
                    ),
                    retries: 0,
                },
            );
        }
        let dynamic = {
            let _span = self.opts.obs.span("check.trace");
            pmcheck::check_trace(&x.trace)
        };
        let explored = x.report.to_check_report(&x.trace);
        let mut merged = merge_reports(dynamic, explored);
        merged.provenance = pmcheck::Provenance::Exploration;
        Ok((merged, x.trace))
    }

    /// Runs the configured bug finder(s) once: the dynamic checker, the
    /// static checker, both, or the dynamic checker plus crash-state
    /// exploration (the union of their reports, deduplicated by store). The
    /// trace is empty when only the static checker ran —
    /// downstream consumers (fence anchoring, `I`-function lookup, trace
    /// PM-marking) all degrade gracefully to their conservative fallbacks.
    ///
    /// Each source gets `1 + source_retries` attempts with seeded backoff;
    /// a source that never succeeds is abandoned for the run (stamped in
    /// `degraded`) as long as another source survives. Only when *every*
    /// configured source fails does detection error out, with
    /// [`RepairError::AllSourcesFailed`] naming each failure.
    #[allow(clippy::too_many_arguments)]
    fn detect(
        &self,
        m: &Module,
        entry: &str,
        vm_opts: &VmOptions,
        budget: &pmtx::Budget,
        injector: &mut Option<pmfault::Injector>,
        degraded: &mut Vec<Degradation>,
        diagnostics: &mut Vec<String>,
    ) -> Result<(CheckReport, Trace), RepairError> {
        let _span = self.opts.obs.span("repair.detect");
        match self.opts.bug_source {
            BugSource::Dynamic => {
                let c = self
                    .dynamic_with_retries(m, entry, vm_opts, diagnostics)
                    .map_err(|d| RepairError::AllSourcesFailed { failures: vec![d] })?;
                self.harden_trace(&c.trace, injector, degraded, diagnostics);
                Ok((c.report, c.trace))
            }
            BugSource::Static => {
                let report = self
                    .static_with_retries(m, entry, budget, diagnostics)
                    .map_err(|d| RepairError::AllSourcesFailed { failures: vec![d] })?;
                Ok((report, Trace::default()))
            }
            BugSource::Both => {
                let dynamic = self.dynamic_with_retries(m, entry, vm_opts, diagnostics);
                let stat = self.static_with_retries(m, entry, budget, diagnostics);
                match (dynamic, stat) {
                    (Ok(c), Ok(s)) => {
                        self.harden_trace(&c.trace, injector, degraded, diagnostics);
                        Ok((merge_reports(c.report, s), c.trace))
                    }
                    (Ok(c), Err(d)) => {
                        note(
                            diagnostics,
                            format!("proceeding on the dynamic checker alone: {d}"),
                        );
                        note_degraded(degraded, d);
                        self.harden_trace(&c.trace, injector, degraded, diagnostics);
                        Ok((c.report, c.trace))
                    }
                    (Err(d), Ok(s)) => {
                        note(
                            diagnostics,
                            format!("proceeding on the static checker alone: {d}"),
                        );
                        note_degraded(degraded, d);
                        Ok((s, Trace::default()))
                    }
                    (Err(d1), Err(d2)) => Err(RepairError::AllSourcesFailed {
                        failures: vec![d1, d2],
                    }),
                }
            }
            BugSource::Exploration => {
                let (report, trace) = self
                    .exploration_with_retries(m, entry, budget, degraded, diagnostics)
                    .map_err(|d| RepairError::AllSourcesFailed { failures: vec![d] })?;
                self.harden_trace(&trace, injector, degraded, diagnostics);
                Ok((report, trace))
            }
        }
    }

    /// The inverse pass: after a clean repair, strip provably-redundant
    /// flushes and sinkable fences with the `pmredund` optimizer. Every
    /// transactional round is re-verified (dynamic checker + crash-state
    /// exploration, byte-identical output) and rolls back byte-identically
    /// on any regression, so this can never undo the repair. An optimizer
    /// failure is a diagnostic, never a repair failure — the healed module
    /// is already correct.
    fn optimize_after_clean(
        &self,
        m: &mut Module,
        entry: &str,
        diagnostics: &mut Vec<String>,
    ) -> Option<crate::summary::OptimizeStats> {
        if !self.opts.optimize_after {
            return None;
        }
        let _span = self.opts.obs.span("repair.optimize");
        let o = pmredund::OptimizeOptions {
            entry: entry.to_string(),
            explore_budget: self.opts.explore_budget,
            explore_seed: self.opts.explore_seed,
            explore_jobs: self.opts.explore_jobs,
            obs: self.opts.obs.clone(),
        };
        match pmredund::optimize_module(m, &o) {
            Ok(out) => {
                if !out.applied.is_empty() || !out.quarantined.is_empty() {
                    note(diagnostics, format!("optimizer: {out}"));
                }
                Some(crate::summary::OptimizeStats::from_outcome(&out))
            }
            Err(e) => {
                note(diagnostics, format!("optimizer skipped: {e}"));
                None
            }
        }
    }

    /// The full loop: run the bug finder, repair, and re-verify until the
    /// report is clean (paper Fig. 2 plus the §6.1 validation step). With
    /// [`BugSource::Static`] the loop converges against the static verdict
    /// without ever executing the program; with [`BugSource::Both`] it is
    /// only done when both checkers come back clean.
    ///
    /// Every round is a *transaction*: fixes are applied against a module
    /// snapshot and the round commits only when re-verification shows the
    /// deduped bug set strictly shrank with no new members. A failed round
    /// rolls back byte-identically and its fixes land in the quarantine
    /// ledger, excluded from later planning. With a journal configured,
    /// committed rounds are made durable (write-ahead) before the loop moves
    /// on, and `resume` replays them idempotently.
    ///
    /// # Errors
    ///
    /// Propagates [`RepairError`]; notably [`RepairError::IterationBudget`]
    /// when the program is still buggy after `max_iterations`, and
    /// [`RepairError::BudgetExceeded`] when the deadline/step budget trips —
    /// both carry the partial-but-committed outcome.
    pub fn repair_until_clean(
        &self,
        m: &mut Module,
        entry: &str,
    ) -> Result<RepairOutcome, RepairError> {
        if let Err(reason) = self.opts.validate() {
            return Err(RepairError::BadOptions { reason });
        }
        let obs = self.opts.obs.clone();
        let budget = pmtx::Budget::new(self.opts.deadline_ms, self.opts.step_quota);
        // The engine-level injector owns the trace-fault and commit-veto hit
        // counters so `Nth` faults clear across retries; VM-level faults
        // travel inside the per-run `VmOptions` with a fresh injector each.
        let mut injector = self
            .opts
            .fault
            .clone()
            .map(|p| pmfault::Injector::with_obs(p, obs.clone()));
        let mut degraded = vec![];
        let mut diagnostics = vec![];
        let mut fixes: Vec<AppliedFix> = vec![];
        let mut clones = 0usize;
        let mut quarantined: Vec<QuarantinedFix> = vec![];
        let mut quarantine_keys: HashSet<String> = HashSet::new();
        let mut committed_rounds = 0u32;
        let mut replayed_rounds = 0u32;
        let mut attempts = 0u32; // rounds executed in this process
        let mut new_commits = 0u32; // rounds committed in this process
                                    // Worst severity ever observed per store site across the campaign's
                                    // kept states — the harm baseline. Sampled detection (exploration in
                                    // particular) is not monotone: a bug a later pass resurfaces is only
                                    // *harm* if no earlier pass ever saw that site at that severity.
        let mut seen_sev: HashMap<String, u32> = HashMap::new();
        // Every exit builds its outcome here: the injector's faults are
        // drained into the diagnostics first, and `$optimized` is evaluated
        // after that, so the optimizer's notes follow them.
        macro_rules! outcome {
            ($clean:expr, $final_report:expr, $optimized:expr) => {{
                drain_injected(&injector, &mut diagnostics);
                let optimized = $optimized;
                RepairOutcome {
                    clean: $clean,
                    fixes,
                    iterations: replayed_rounds + attempts,
                    final_report: $final_report,
                    clones_created: clones,
                    degraded,
                    diagnostics,
                    quarantined,
                    committed_rounds,
                    replayed_rounds,
                    optimized,
                }
            }};
        }

        // Write-ahead journal: resume replays committed rounds idempotently;
        // otherwise an existing file is truncated and started fresh.
        let mut journal: Option<pmtx::Journal> = None;
        if let Some(path) = &self.opts.journal_path {
            let header =
                pmtx::JournalHeader::new(pmir::snapshot::digest_hex(m), self.opts.digest_hex());
            if self.opts.resume && path.exists() {
                let resumed = pmtx::Journal::resume(path, &header)?;
                for d in resumed.diagnostics {
                    note(&mut diagnostics, format!("journal: {d}"));
                }
                let j = resumed.journal;
                for rec in j.rounds() {
                    let patch = pmir::ModulePatch {
                        base_digest: rec.base_digest.clone(),
                        after_digest: rec.after_digest.clone(),
                        after_text: rec.patch.clone(),
                    };
                    patch.apply(m).map_err(|e| {
                        RepairError::Journal(pmtx::JournalError::Corrupted {
                            line: rec.round as usize + 1,
                            reason: format!("round {} does not replay: {e}", rec.round),
                        })
                    })?;
                    for payload in &rec.fixes {
                        let fix: AppliedFix = serde_json::from_str(payload).map_err(|e| {
                            RepairError::Journal(pmtx::JournalError::Corrupted {
                                line: rec.round as usize + 1,
                                reason: format!(
                                    "round {} fix record does not parse: {e}",
                                    rec.round
                                ),
                            })
                        })?;
                        fixes.push(fix);
                    }
                    clones += rec.clones as usize;
                }
                replayed_rounds = j.rounds().len() as u32;
                committed_rounds = replayed_rounds;
                if replayed_rounds > 0 {
                    obs.add("journal.replayed_rounds", u64::from(replayed_rounds));
                    note(
                        &mut diagnostics,
                        format!(
                            "resumed from journal: replayed {replayed_rounds} committed round(s)"
                        ),
                    );
                }
                journal = Some(j);
            } else {
                if self.opts.resume {
                    note(
                        &mut diagnostics,
                        format!(
                            "journal: nothing to resume at {}; starting fresh",
                            path.display()
                        ),
                    );
                }
                journal = Some(pmtx::Journal::create(path, header)?);
            }
        }

        // Initial detection (one budget step).
        if let Err(exceeded) = budget.charge(1) {
            return Err(RepairError::BudgetExceeded {
                exceeded,
                partial: Box::new(outcome!(false, CheckReport::default(), None)),
            });
        }
        obs.add("repair.iterations", 1);
        let first = self.detect(
            m,
            entry,
            &self.vm_opts_for(&budget),
            &budget,
            &mut injector,
            &mut degraded,
            &mut diagnostics,
        );
        let (mut report, mut trace) = match first {
            Ok(v) => v,
            Err(e) => {
                let exceeded = aborted_by_budget(&budget, e, "detection", &mut diagnostics)?;
                return Err(RepairError::BudgetExceeded {
                    exceeded,
                    partial: Box::new(outcome!(false, CheckReport::default(), None)),
                });
            }
        };

        loop {
            if report.is_clean() {
                return Ok(outcome!(
                    true,
                    report,
                    self.optimize_after_clean(m, entry, &mut diagnostics)
                ));
            }
            if let Err(exceeded) = budget.check() {
                return Err(RepairError::BudgetExceeded {
                    exceeded,
                    partial: Box::new(outcome!(false, report, None)),
                });
            }
            if attempts >= self.opts.max_iterations {
                return Err(RepairError::IterationBudget {
                    max: self.opts.max_iterations,
                    partial: Box::new(outcome!(false, report, None)),
                });
            }
            attempts += 1;
            let _round_span = obs.span("tx.round");

            // Apply this round's fixes against a snapshot.
            let snapshot = ModuleSnapshot::capture(m);
            let app = match self.apply_round(m, &trace, &report, &quarantine_keys) {
                Ok(a) => a,
                Err(e) => {
                    // Do no harm even on engine failure: never leave a
                    // half-applied round in the module.
                    snapshot.restore(m);
                    return Err(e);
                }
            };
            if app.skipped_quarantined > 0 {
                note(
                    &mut diagnostics,
                    format!(
                        "{} planned fix(es) skipped: their target sites are quarantined",
                        app.skipped_quarantined
                    ),
                );
            }
            if app.summary.fixes.is_empty() {
                return Err(RepairError::NoProgress {
                    remaining: report.deduped_bugs().len(),
                    partial: Box::new(outcome!(false, report, None)),
                });
            }

            // Re-verify: the round commits only if it did no harm (no bug at
            // a previously-clean store site, no site moved up the repair
            // ladder) and made progress (the per-site severity sum fell, or
            // held while the call-path-refined bug set strictly shrank).
            let _ = budget.charge(1);
            obs.add("repair.iterations", 1);
            let reverify_started = std::time::Instant::now();
            let reverified = self.detect(
                m,
                entry,
                &self.vm_opts_for(&budget),
                &budget,
                &mut injector,
                &mut degraded,
                &mut diagnostics,
            );
            obs.gauge_add(
                "repair.reverify_ms",
                reverify_started.elapsed().as_secs_f64() * 1e3,
            );
            let (report2, trace2) = match reverified {
                Ok(v) => v,
                Err(e) => {
                    snapshot.restore(m);
                    obs.add("tx.rolled_back", 1);
                    let exceeded =
                        aborted_by_budget(&budget, e, "re-verification", &mut diagnostics)?;
                    return Err(RepairError::BudgetExceeded {
                        exceeded,
                        partial: Box::new(outcome!(false, report, None)),
                    });
                }
            };

            // Harm is judged per store site on the repair ladder
            // (`BugKind::repair_rank`): a site never observed buggy must
            // stay clean, and no site's worst bug may climb above anything
            // the campaign has seen for it. Site identity is the store's
            // source location, which survives both the instruction
            // renumbering that inserted flushes/fences cause and the cloning
            // an interprocedural fix causes.
            let before_sev = report.site_severities();
            let after_sev = report2.site_severities();
            for (site, &rank) in &before_sev {
                let e = seen_sev.entry(site.clone()).or_insert(0);
                if rank > *e {
                    *e = rank;
                }
            }
            let new_bugs = after_sev
                .iter()
                .filter(|(site, &rank)| seen_sev.get(*site).is_none_or(|&b| rank > b))
                .count();
            // Progress is the same ladder read downward — the severity sum
            // strictly falls (a flush landed, a fence landed, a site healed)
            // — with one refinement: an interprocedural fix heals one *call
            // path* into a buggy store at a time, so a round that holds the
            // severity sum while strictly shrinking the call-path-refined
            // bug set (`path_key_set`) also counts. The pair (severity sum,
            // path count) falls lexicographically on every commit, so a
            // committing campaign terminates.
            let sev_before: u32 = before_sev.values().sum();
            let sev_after: u32 = after_sev.values().sum();
            let delta_ok = new_bugs == 0
                && (sev_after < sev_before
                    || (sev_after == sev_before
                        && report2.path_key_set().len() < report.path_key_set().len()));

            // The commit itself can be vetoed by fault injection (modeling a
            // failed journal append); a vetoed commit is retried with the
            // usual seeded backoff before the round is given up on.
            let mut veto = false;
            if delta_ok {
                if let Some(inj) = injector.as_mut() {
                    if inj.plan().targets(pmfault::FaultSite::TxCommit) {
                        let seed = inj.plan().seed;
                        for attempt in 0..=self.opts.source_retries {
                            retry_pause(seed, attempt);
                            match inj.fire(pmfault::FaultSite::TxCommit) {
                                Some(kind) => {
                                    inj.record(format!("tx.commit: {kind}"));
                                    veto = true;
                                }
                                None => {
                                    if attempt > 0 {
                                        note(
                                            &mut diagnostics,
                                            format!(
                                                "commit succeeded after {attempt} vetoed attempt(s)"
                                            ),
                                        );
                                    }
                                    veto = false;
                                    break;
                                }
                            }
                        }
                    }
                }
            }

            if delta_ok && !veto {
                let commit_started = std::time::Instant::now();
                let _commit_span = obs.span("tx.commit");
                if let Some(j) = journal.as_mut() {
                    let patch = pmir::ModulePatch::between(&snapshot, m);
                    let mut fix_payloads = Vec::with_capacity(app.summary.fixes.len());
                    for f in &app.summary.fixes {
                        let payload = serde_json::to_string(f).map_err(|e| {
                            RepairError::Journal(pmtx::JournalError::Io {
                                path: j.path().to_path_buf(),
                                error: std::io::Error::other(format!(
                                    "fix record serialization failed: {e}"
                                )),
                            })
                        })?;
                        fix_payloads.push(payload);
                    }
                    j.append(pmtx::RoundRecord {
                        round: j.next_round(),
                        base_digest: patch.base_digest,
                        after_digest: patch.after_digest,
                        report_digest: report2.digest_hex(),
                        clones: app.summary.clones_created as u64,
                        fixes: fix_payloads,
                        patch: patch.after_text,
                    })?;
                }
                obs.add("tx.committed", 1);
                obs.gauge_add("tx.commit_ms", commit_started.elapsed().as_secs_f64() * 1e3);
                committed_rounds += 1;
                new_commits += 1;
                fixes.extend(app.summary.fixes);
                clones += app.summary.clones_created;
                if self.opts.crash_after_commit == Some(new_commits) {
                    // Deterministic SIGKILL stand-in for the kill-and-resume
                    // machinery: die without unwinding, right after the
                    // journal append became durable.
                    std::process::abort();
                }
                report = report2;
                trace = trace2;
            } else {
                let rollback_started = std::time::Instant::now();
                let _rb_span = obs.span("tx.rollback");
                snapshot.restore(m);
                obs.add("tx.rolled_back", 1);
                obs.gauge_add(
                    "tx.rollback_ms",
                    rollback_started.elapsed().as_secs_f64() * 1e3,
                );
                let reason = if veto {
                    format!(
                        "commit vetoed by fault injection after {} retry(ies)",
                        self.opts.source_retries
                    )
                } else if new_bugs > 0 {
                    format!(
                        "re-verification found {new_bugs} new or worsened bug site(s) — the round did harm"
                    )
                } else {
                    "re-verification did not reduce bug severity or unfixed call paths".to_string()
                };
                note(
                    &mut diagnostics,
                    format!(
                        "round rolled back ({reason}); {} fix(es) quarantined",
                        app.summary.fixes.len()
                    ),
                );
                let (bugs_before, bugs_after) =
                    (report.deduped_bugs().len(), report2.deduped_bugs().len());
                for (fix, targets) in app.summary.fixes.into_iter().zip(app.fix_targets) {
                    for k in &targets {
                        quarantine_keys.insert(k.clone());
                    }
                    obs.add("tx.quarantined", 1);
                    quarantined.push(QuarantinedFix {
                        fix,
                        targets,
                        reason: reason.clone(),
                        bugs_before,
                        bugs_after,
                        new_bugs,
                    });
                }
                // `report`/`trace` stay the pre-round pair: the module is
                // byte-identical to what produced them.
            }
        }
    }
}

/// Tells a detection pass that failed because the budget tripped from one
/// that failed on its own: the first is noted as aborted by budget and
/// yields what was exceeded, the second passes `e` on unchanged.
fn aborted_by_budget(
    budget: &pmtx::Budget,
    e: RepairError,
    stage: &str,
    diagnostics: &mut Vec<String>,
) -> Result<pmtx::BudgetExceeded, RepairError> {
    let Err(exceeded) = budget.check() else {
        return Err(e);
    };
    note(diagnostics, format!("{stage} aborted by budget: {e}"));
    Ok(exceeded)
}

/// Surfaces every fault the engine-level injector recorded into the
/// diagnostics (outcome- and error-path alike).
fn drain_injected(injector: &Option<pmfault::Injector>, diagnostics: &mut Vec<String>) {
    if let Some(inj) = injector {
        for f in inj.injected() {
            note(diagnostics, format!("injected: {f}"));
        }
    }
}

/// Appends `msg` to the diagnostics unless an identical line is already
/// present — detection re-runs every iteration, and a persistent injected
/// fault would otherwise repeat its line once per pass.
fn note(diagnostics: &mut Vec<String>, msg: String) {
    if !diagnostics.contains(&msg) {
        diagnostics.push(msg);
    }
}

/// Stamps a degradation unless the same source already degraded for the
/// same reason (a source that is down stays down across iterations).
fn note_degraded(degraded: &mut Vec<Degradation>, d: Degradation) {
    if !degraded
        .iter()
        .any(|e| e.source == d.source && e.reason == d.reason)
    {
        degraded.push(d);
    }
}

/// Unions a dynamic and a static report for [`BugSource::Both`]: static
/// bugs at stores the dynamic checker already flagged are dropped (the
/// dynamic entry carries the richer trace context), and the rest — the
/// static checker's unexecuted-path findings — are appended. Counters stay
/// the dynamic run's.
fn merge_reports(mut dynamic: CheckReport, stat: CheckReport) -> CheckReport {
    let seen: std::collections::HashSet<_> = dynamic
        .bugs
        .iter()
        .filter_map(|b| b.store_at.clone())
        .collect();
    for b in stat.bugs {
        if b.store_at.as_ref().is_none_or(|at| !seen.contains(at)) {
            dynamic.bugs.push(b);
        }
    }
    dynamic
}

/// The paper's §7 "automatically providing durability": given a program in
/// which the developer wrote *only* the ordering points (memory fences) and
/// no flushes at all, Hippocrates regenerates every flush — this is exactly
/// how the §6.3 Redis port was produced. A thin, intention-revealing
/// wrapper over [`Hippocrates::repair_until_clean`].
///
/// # Errors
///
/// Propagates [`RepairError`] from the underlying loop.
pub fn provide_durability(module: &mut Module, entry: &str) -> Result<RepairOutcome, RepairError> {
    Hippocrates::new(RepairOptions::default()).repair_until_clean(module, entry)
}

/// Determines the function containing the durability requirement `I` for a
/// bug: the innermost frame of the matching crash point, or the outermost
/// frame of the store's stack for program-end checkpoints.
fn i_function(m: &Module, trace: &Trace, bug: &Bug) -> Option<pmir::FuncId> {
    match bug.checkpoint {
        Checkpoint::CrashPoint(n) => {
            let mut seen = 0u64;
            for e in &trace.events {
                if matches!(e.kind, EventKind::CrashPoint) {
                    seen += 1;
                    if seen == n {
                        return e
                            .stack
                            .first()
                            .and_then(|f| m.function_by_name(&f.function));
                    }
                }
            }
            None
        }
        Checkpoint::ProgramEnd => bug
            .stack
            .last()
            .and_then(|f| m.function_by_name(&f.function)),
        // Exploration checkpoints are hypothetical crashes at a trace
        // position; the durability requirement is rooted where that event
        // executed.
        Checkpoint::Event(seq) => trace
            .events
            .iter()
            .find(|e| e.seq == seq)
            .and_then(|e| e.stack.first())
            .and_then(|f| m.function_by_name(&f.function))
            .or_else(|| {
                bug.stack
                    .last()
                    .and_then(|f| m.function_by_name(&f.function))
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repair(src: &str) -> (Module, RepairOutcome) {
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions::default())
            .repair_until_clean(&mut m, "main")
            .unwrap();
        (m, outcome)
    }

    #[test]
    fn fixes_missing_flush_fence() {
        let (_, outcome) = repair("fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); }");
        assert!(outcome.clean);
        assert_eq!(outcome.fixes.len(), 1);
        assert_eq!(outcome.fixes[0].kind, FixKind::IntraFlushFence);
    }

    #[test]
    fn fixes_missing_fence_at_flush() {
        let (_, outcome) =
            repair("fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); clwb(p); }");
        assert!(outcome.clean);
        assert_eq!(outcome.fixes.len(), 1);
        assert_eq!(outcome.fixes[0].kind, FixKind::IntraFence);
    }

    #[test]
    fn fixes_missing_flush_before_existing_fence() {
        let (_, outcome) =
            repair("fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); sfence(); }");
        assert!(outcome.clean);
        // An intra flush suffices: the downstream fence orders it. The
        // engine may still add its own fence if the checker classifies the
        // final store state conservatively; what matters is cleanliness and
        // that a flush was added.
        assert!(outcome
            .fixes
            .iter()
            .any(|f| matches!(f.kind, FixKind::IntraFlush | FixKind::IntraFlushFence)));
    }

    #[test]
    fn hoists_shared_helper() {
        let src = r#"
            fn update(addr: ptr, idx: int, val: int) { store1(addr, idx, val); }
            fn modify(addr: ptr) { update(addr, 0, 1); }
            fn main() {
                var vol: ptr = alloc(4096);
                var pm: ptr = pmem_map(0, 4096);
                var i: int = 0;
                while (i < 20) { modify(vol); i = i + 1; }
                modify(pm);
            }
        "#;
        let (m, outcome) = repair(src);
        assert!(outcome.clean);
        assert_eq!(outcome.interprocedural_count(), 1);
        assert!(m.function_by_name("modify_PM").is_some());
        assert!(m.function_by_name("update_PM").is_some());
        assert_eq!(outcome.hoist_level_histogram().get(&2), Some(&1));
    }

    #[test]
    fn intra_only_mode_never_hoists() {
        let src = r#"
            fn update(addr: ptr, idx: int, val: int) { store1(addr, idx, val); }
            fn main() {
                var pm: ptr = pmem_map(0, 4096);
                update(pm, 0, 1);
            }
        "#;
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions::intraprocedural_only())
            .repair_until_clean(&mut m, "main")
            .unwrap();
        assert!(outcome.clean);
        assert_eq!(outcome.interprocedural_count(), 0);
        assert!(m.function_by_name("update_PM").is_none());
    }

    #[test]
    fn trace_aa_gives_same_fixes_as_full_aa() {
        let src = r#"
            fn update(addr: ptr, idx: int, val: int) { store1(addr, idx, val); }
            fn modify(addr: ptr) { update(addr, 0, 1); }
            fn main() {
                var vol: ptr = alloc(4096);
                var pm: ptr = pmem_map(0, 4096);
                modify(vol);
                modify(pm);
            }
        "#;
        let mut m1 = pmlang::compile_one("t.pmc", src).unwrap();
        let o1 = Hippocrates::new(RepairOptions::default())
            .repair_until_clean(&mut m1, "main")
            .unwrap();
        let mut m2 = pmlang::compile_one("t.pmc", src).unwrap();
        let o2 = Hippocrates::new(RepairOptions {
            marking: MarkingMode::TraceAa,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m2, "main")
        .unwrap();
        assert!(o1.clean && o2.clean);
        let kinds1: Vec<_> = o1.fixes.iter().map(|f| f.kind.clone()).collect();
        let kinds2: Vec<_> = o2.fixes.iter().map(|f| f.kind.clone()).collect();
        assert_eq!(kinds1, kinds2);
        assert_eq!(
            pmir::display::print_module(&m1),
            pmir::display::print_module(&m2),
            "identical end binaries (§6.1)"
        );
    }

    #[test]
    fn do_no_harm_output_equivalence() {
        let src = r#"
            fn update(addr: ptr, idx: int, val: int) { store1(addr, idx, val); }
            fn main() {
                var vol: ptr = alloc(64);
                var pm: ptr = pmem_map(0, 4096);
                update(vol, 0, 3);
                update(pm, 0, 5);
                print(load1(vol, 0));
                print(load1(pm, 0));
            }
        "#;
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let before = pmvm::Vm::new(VmOptions::default()).run(&m, "main").unwrap();
        Hippocrates::new(RepairOptions::default())
            .repair_until_clean(&mut m, "main")
            .unwrap();
        let after = pmvm::Vm::new(VmOptions::default()).run(&m, "main").unwrap();
        assert_eq!(before.output, after.output, "fixes do not change behavior");
    }

    #[test]
    fn already_clean_program_untouched() {
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
                clwb(p);
                sfence();
            }
        "#;
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let text_before = pmir::display::print_module(&m);
        let outcome = Hippocrates::new(RepairOptions::default())
            .repair_until_clean(&mut m, "main")
            .unwrap();
        assert!(outcome.clean);
        assert!(outcome.fixes.is_empty());
        assert_eq!(outcome.iterations, 0);
        assert_eq!(pmir::display::print_module(&m), text_before);
    }

    #[test]
    fn optimize_after_strips_redundant_barriers_and_keeps_behavior() {
        // Already-clean module with a duplicated flush+fence pair: the
        // repair loop has nothing to do, then the inverse pass strips the
        // redundancy without changing observable behavior.
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
                clwb(p);
                sfence();
                clwb(p);
                sfence();
                print(load8(p, 0));
            }
        "#;
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let before = pmvm::Vm::new(VmOptions::default()).run(&m, "main").unwrap();
        let outcome = Hippocrates::new(RepairOptions {
            optimize_after: true,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap();
        assert!(outcome.clean);
        let stats = outcome
            .optimized
            .expect("optimizer ran on the clean module");
        assert!(stats.flushes_removed >= 1, "{stats}");
        assert!(stats.fences_sunk >= 1, "{stats}");
        let after = pmvm::Vm::new(VmOptions::default()).run(&m, "main").unwrap();
        assert_eq!(before.output, after.output, "behavior preserved");
        assert!(
            after.stats.pm_flushes < before.stats.pm_flushes
                && after.stats.fences < before.stats.fences,
            "fewer barriers execute after optimization"
        );
    }

    #[test]
    fn crash_point_bugs_fixed() {
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
                crashpoint();
                store8(p, 8, 2);
            }
        "#;
        let (_, outcome) = repair(src);
        assert!(outcome.clean);
        assert!(outcome.fixes.len() >= 2);
    }

    #[test]
    fn provide_durability_regenerates_all_flushes() {
        // Fences only — the developer marked ordering points; Hippocrates
        // supplies every flush (§7).
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
                store8(p, 64, 2);
                sfence();
                store8(p, 128, 3);
                sfence();
            }
        "#;
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = crate::engine::provide_durability(&mut m, "main").unwrap();
        assert!(outcome.clean);
        let run = pmvm::Vm::new(VmOptions::default()).run(&m, "main").unwrap();
        assert_eq!(run.stats.pm_flushes, 3);
        // No extra fences were needed: the developer's ordering points
        // suffice.
        assert_eq!(run.stats.fences, 2);
    }

    #[test]
    fn static_source_heals_unexecuted_branch() {
        // The acceptance scenario: the store sits on a branch the input
        // never takes, so the dynamic checker reports clean — only the
        // static checker sees the bug, and repair must converge against the
        // static verdict without ever needing an execution that reaches it.
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                var mode: int = load8(p, 128);
                if (mode) { store8(p, 0, 7); }
            }
        "#;
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let dynamic = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert!(dynamic.report.is_clean(), "dynamic misses the branch");
        assert_eq!(
            pmstatic::check_module(&m, "main").unwrap().bugs[0].kind,
            pmcheck::BugKind::MissingFlushFence
        );

        let outcome = Hippocrates::new(RepairOptions {
            bug_source: BugSource::Static,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap();
        assert!(outcome.clean);
        assert!(!outcome.fixes.is_empty());
        assert_eq!(outcome.final_report.provenance, pmcheck::Provenance::Static);

        // Verified by re-running both checkers on the healed module.
        assert!(pmstatic::check_module(&m, "main").unwrap().is_clean());
        let redo = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert!(redo.report.is_clean());
    }

    #[test]
    fn both_sources_fix_executed_and_unexecuted_bugs() {
        // One bug on the executed path, one on the untaken branch: with
        // `BugSource::Both` a single loop heals them all, and the result
        // satisfies both checkers.
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                var mode: int = load8(p, 128);
                store8(p, 64, 1);
                if (mode) { store8(p, 0, 7); }
            }
        "#;
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions {
            bug_source: BugSource::Both,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap();
        assert!(outcome.clean);
        assert!(outcome.fixes.len() >= 2, "{:?}", outcome.fixes);
        assert!(pmstatic::check_module(&m, "main").unwrap().is_clean());
        assert!(run_and_check(&m, "main", VmOptions::default())
            .unwrap()
            .report
            .is_clean());
    }

    #[test]
    fn static_source_never_executes_the_program() {
        // `print` output is observable: a static-only repair must not run
        // the program at all (detection is the only phase that could).
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
                print(7);
            }
        "#;
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions {
            bug_source: BugSource::Static,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap();
        assert!(outcome.clean);
        // The only evidence of execution the engine could leave is in the
        // outcome's final report: a static report carries no addresses.
        assert_eq!(outcome.final_report.provenance, pmcheck::Provenance::Static);
    }

    #[test]
    fn exploration_source_heals_unfenced_flush_reordering() {
        // The acceptance scenario for crash-state exploration: `data` is
        // flushed but not fenced before the `flag` store. Every line is
        // durable by the crashpoint, so the dynamic checker — including
        // crash-point sampling — reports clean. Only exploring partial
        // crash states (flag persisted via eviction, data write-back still
        // in flight) exposes the reordering; repair must fence the data
        // flush and re-exploration must come back clean.
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
                if (load8(p, 0) == 1) {
                    if (load8(p, 64) != 4242) { return 1; }
                }
                return 0;
            }
        "#;
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();

        // Blind spot: the checkpoint-based dynamic checker sees nothing,
        // and booting recovery at the declared crashpoint is consistent.
        let dynamic = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert!(dynamic.report.is_clean(), "lint-clean by construction");
        let at_crashpoint = pmvm::Vm::new(VmOptions::default().stop_at(1))
            .run(&m, "main")
            .unwrap();
        let img = at_crashpoint.machine.crash_image();
        let recov = pmvm::Vm::new(VmOptions::default().with_media(img.into_media()))
            .run(&m, "recover")
            .unwrap();
        assert_eq!(
            recov.return_value,
            Some(0),
            "crash-point sampling misses it"
        );

        // Exploration-driven repair finds and heals it.
        let outcome = Hippocrates::new(RepairOptions {
            bug_source: BugSource::Exploration,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap();
        assert!(outcome.clean);
        assert!(!outcome.fixes.is_empty());
        assert_eq!(
            outcome.final_report.provenance,
            pmcheck::Provenance::Exploration
        );

        // Re-exploration of the healed module is clean.
        let x =
            pmexplore::run_and_explore(&m, "main", &pmexplore::ExploreOptions::default()).unwrap();
        assert!(x.report.is_clean(), "{}", x.report.render());
    }

    #[test]
    fn exploration_matches_dynamic_on_plain_durability_bugs() {
        // Exploration subsumes, not replaces, the dynamic checker: a plain
        // missing-flush&fence bug is still found and healed under
        // `BugSource::Exploration`.
        let src = "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); }";
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions {
            bug_source: BugSource::Exploration,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap();
        assert!(outcome.clean);
        assert!(!outcome.fixes.is_empty());
    }

    #[test]
    fn torn_store_fault_is_diagnosed_not_fatal() {
        // A torn store in the simulated medium never derails detection: the
        // checker works from the trace, the repair lands, and the injected
        // fault surfaces as a structured diagnostic.
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let src = "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); }";
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions {
            fault: Some(FaultPlan::single(
                FaultSite::SimStore,
                Trigger::Nth(0),
                FaultKind::TornStore,
            )),
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap();
        assert!(outcome.clean);
        assert!(!outcome.is_degraded(), "{:?}", outcome.degraded);
        assert!(
            outcome.diagnostics.iter().any(|d| d.contains("torn store")),
            "{:?}",
            outcome.diagnostics
        );
    }

    #[test]
    fn media_read_fault_degrades_dynamic_and_static_survives() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
                var x: int = load8(p, 0);
            }
        "#;
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions {
            bug_source: BugSource::Both,
            fault: Some(FaultPlan::single(
                FaultSite::SimMediaRead,
                Trigger::Always,
                FaultKind::MediaReadError,
            )),
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap();
        assert!(outcome.clean, "static source still converges");
        assert!(outcome.is_degraded());
        let d = &outcome.degraded[0];
        assert_eq!(d.source, "dynamic");
        assert_eq!(d.retries, 2, "default retry budget spent");
        assert!(d.reason.contains("read error"), "{}", d.reason);
        assert!(!outcome.fixes.is_empty());
    }

    #[test]
    fn dynamic_only_with_permanent_fault_fails_structurally() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
                var x: int = load8(p, 0);
            }
        "#;
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let err = Hippocrates::new(RepairOptions {
            fault: Some(FaultPlan::single(
                FaultSite::SimMediaRead,
                Trigger::Always,
                FaultKind::MediaReadError,
            )),
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap_err();
        match &err {
            RepairError::AllSourcesFailed { failures } => {
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].source, "dynamic");
            }
            other => panic!("expected AllSourcesFailed, got {other:?}"),
        }
        assert!(err.to_string().contains("every bug source failed"), "{err}");
    }

    #[test]
    fn trace_fault_falls_back_to_in_memory_trace() {
        // A permanently corrupted serialize→parse path degrades the trace
        // ingest but never the repair: the engine proceeds from the
        // in-memory trace and produces the exact same module as a
        // fault-free run.
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let src = "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); }";
        let mut faulted = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions {
            fault: Some(FaultPlan::single(
                FaultSite::TraceParse,
                Trigger::Always,
                FaultKind::TraceTruncate,
            )),
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut faulted, "main")
        .unwrap();
        assert!(outcome.clean);
        assert!(
            outcome.degraded.iter().any(|d| d.source == "trace"),
            "{:?}",
            outcome.degraded
        );
        assert!(
            outcome
                .diagnostics
                .iter()
                .any(|d| d.contains("in-memory trace")),
            "{:?}",
            outcome.diagnostics
        );

        let mut clean = pmlang::compile_one("t.pmc", src).unwrap();
        Hippocrates::new(RepairOptions::default())
            .repair_until_clean(&mut clean, "main")
            .unwrap();
        assert_eq!(
            pmir::display::print_module(&faulted),
            pmir::display::print_module(&clean),
            "trace-fault fallback repairs identically"
        );
    }

    #[test]
    fn nth_trace_fault_recovers_on_retry() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let src = "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); }";
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions {
            fault: Some(FaultPlan::single(
                FaultSite::TraceParse,
                Trigger::Nth(0),
                FaultKind::TraceBitflip,
            )),
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap();
        assert!(outcome.clean);
        assert!(!outcome.is_degraded(), "{:?}", outcome.degraded);
        assert!(
            outcome
                .diagnostics
                .iter()
                .any(|d| d.contains("trace roundtrip recovered")),
            "{:?}",
            outcome.diagnostics
        );
    }

    #[test]
    fn stuck_loop_fault_hits_watchdog_and_degrades() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
            }
        "#;
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions {
            bug_source: BugSource::Both,
            fault: Some(FaultPlan::single(
                FaultSite::VmDiverge,
                Trigger::Nth(0),
                FaultKind::StuckLoop,
            )),
            watchdog_ms: Some(30),
            source_retries: 1,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap();
        assert!(outcome.clean);
        let d = outcome
            .degraded
            .iter()
            .find(|d| d.source == "dynamic")
            .expect("dynamic degraded");
        assert!(d.reason.contains("watchdog fired"), "{}", d.reason);
        assert_eq!(d.retries, 1);
    }

    #[test]
    fn fuel_fault_degrades_dynamic_with_structured_reason() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let src = "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); }";
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions {
            bug_source: BugSource::Both,
            fault: Some(FaultPlan::single(
                FaultSite::VmFuel,
                Trigger::Always,
                FaultKind::FuelExhaustion { max_steps: 4 },
            )),
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap();
        assert!(outcome.clean);
        let d = outcome
            .degraded
            .iter()
            .find(|d| d.source == "dynamic")
            .expect("dynamic degraded");
        assert!(d.reason.contains("fuel exhausted"), "{}", d.reason);
    }

    #[test]
    fn multiple_paths_fixed_over_iterations() {
        // The same helper reached from two call sites on PM paths: the
        // engine may need more than one iteration to cover both.
        let src = r#"
            fn update(addr: ptr, v: int) { store8(addr, 0, v); }
            fn path_a(p: ptr) { update(p, 1); }
            fn path_b(p: ptr) { update(p + 64, 2); }
            fn main() {
                var pm: ptr = pmem_map(0, 4096);
                path_a(pm);
                path_b(pm);
            }
        "#;
        let (m, outcome) = repair(src);
        assert!(outcome.clean, "{}", outcome.final_report.render());
        let run = pmvm::Vm::new(VmOptions::default()).run(&m, "main").unwrap();
        assert_eq!(run.stats.pm_stores, 2);
    }

    #[test]
    fn zero_max_iterations_is_rejected_up_front() {
        let mut m =
            pmlang::compile_one("t.pmc", "fn main() { var p: ptr = pmem_map(0, 4096); }").unwrap();
        let err = Hippocrates::new(RepairOptions {
            max_iterations: 0,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap_err();
        match &err {
            RepairError::BadOptions { reason } => {
                assert!(reason.contains("max_iterations"), "{reason}")
            }
            other => panic!("expected BadOptions, got {other:?}"),
        }
        assert!(err.to_string().contains("invalid repair options"), "{err}");
    }

    #[test]
    fn commit_veto_retries_and_converges() {
        // A transient commit veto (Nth(0)) models one failed journal append:
        // the engine retries the commit and the campaign still converges to
        // the exact module a fault-free run produces.
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let src = "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); }";
        let mut vetoed = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions {
            fault: Some(FaultPlan::single(
                FaultSite::TxCommit,
                Trigger::Nth(0),
                FaultKind::CommitVeto,
            )),
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut vetoed, "main")
        .unwrap();
        assert!(outcome.clean);
        assert!(outcome.quarantined.is_empty(), "{:?}", outcome.quarantined);
        assert_eq!(outcome.committed_rounds, 1);
        assert!(
            outcome
                .diagnostics
                .iter()
                .any(|d| d.contains("vetoed attempt")),
            "{:?}",
            outcome.diagnostics
        );

        let mut clean = pmlang::compile_one("t.pmc", src).unwrap();
        Hippocrates::new(RepairOptions::default())
            .repair_until_clean(&mut clean, "main")
            .unwrap();
        assert_eq!(
            pmir::display::print_module(&vetoed),
            pmir::display::print_module(&clean),
            "a vetoed-then-retried commit repairs identically"
        );
    }

    #[test]
    fn permanent_commit_veto_quarantines_and_rolls_back_byte_identically() {
        // Every commit vetoed: the round's fixes are quarantined, the module
        // rolls back byte-identically, and the next round (all planned fixes
        // quarantined) stalls with NoProgress carrying the partial outcome.
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let src = "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); }";
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let text_before = pmir::display::print_module(&m);
        let err = Hippocrates::new(RepairOptions {
            fault: Some(FaultPlan::single(
                FaultSite::TxCommit,
                Trigger::Always,
                FaultKind::CommitVeto,
            )),
            source_retries: 1,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap_err();
        assert_eq!(
            pmir::display::print_module(&m),
            text_before,
            "rollback must be byte-identical"
        );
        match &err {
            RepairError::NoProgress { remaining, partial } => {
                assert_eq!(*remaining, 1);
                assert!(!partial.clean);
                assert_eq!(partial.committed_rounds, 0);
                assert_eq!(partial.quarantined.len(), 1);
                assert!(partial.fixes.is_empty(), "{:?}", partial.fixes);
                let q = &partial.quarantined[0];
                assert!(q.reason.contains("vetoed"), "{}", q.reason);
                assert!(!q.targets.is_empty());
                assert!(
                    partial
                        .diagnostics
                        .iter()
                        .any(|d| d.contains("quarantined")),
                    "{:?}",
                    partial.diagnostics
                );
            }
            other => panic!("expected NoProgress, got {other:?}"),
        }
        assert!(err.to_string().contains("quarantined"), "{err}");
    }

    #[test]
    fn journal_commits_rounds_and_resume_replays_them() {
        let dir = std::env::temp_dir().join(format!("hippo-engine-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.journal");
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
                crashpoint();
                store8(p, 8, 2);
            }
        "#;
        let opts = || RepairOptions {
            journal_path: Some(path.clone()),
            ..RepairOptions::default()
        };

        let mut m1 = pmlang::compile_one("t.pmc", src).unwrap();
        let first = Hippocrates::new(opts())
            .repair_until_clean(&mut m1, "main")
            .unwrap();
        assert!(first.clean);
        assert!(first.committed_rounds >= 1);
        assert_eq!(first.replayed_rounds, 0);
        let healed = pmir::display::print_module(&m1);

        // Resume on a fresh copy of the input replays every committed round
        // and converges to the byte-identical module.
        let mut m2 = pmlang::compile_one("t.pmc", src).unwrap();
        let second = Hippocrates::new(RepairOptions {
            resume: true,
            ..opts()
        })
        .repair_until_clean(&mut m2, "main")
        .unwrap();
        assert!(second.clean);
        assert_eq!(second.replayed_rounds, first.committed_rounds);
        assert_eq!(second.committed_rounds, first.committed_rounds);
        assert_eq!(second.fixes.len(), first.fixes.len());
        assert_eq!(pmir::display::print_module(&m2), healed);
        assert!(
            second
                .diagnostics
                .iter()
                .any(|d| d.contains("resumed from journal")),
            "{:?}",
            second.diagnostics
        );

        // A different input module refuses to resume with a clear state
        // mismatch instead of replaying foreign fixes.
        let mut other = pmlang::compile_one(
            "t.pmc",
            "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 64, 3); }",
        )
        .unwrap();
        let err = Hippocrates::new(RepairOptions {
            resume: true,
            ..opts()
        })
        .repair_until_clean(&mut other, "main")
        .unwrap_err();
        match &err {
            RepairError::Journal(pmtx::JournalError::StateMismatch { what, .. }) => {
                assert_eq!(*what, "module")
            }
            other => panic!("expected StateMismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("refusing to resume"), "{err}");
    }

    #[test]
    fn step_quota_returns_partial_outcome_instead_of_hanging() {
        // Quota of 1: the initial detection spends it, the first round's
        // re-verification trips it, the permanently-vetoed round rolls back,
        // and the loop stops with a partial outcome instead of iterating.
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let src = "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); }";
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let text_before = pmir::display::print_module(&m);
        let err = Hippocrates::new(RepairOptions {
            fault: Some(FaultPlan::single(
                FaultSite::TxCommit,
                Trigger::Always,
                FaultKind::CommitVeto,
            )),
            source_retries: 0,
            step_quota: Some(1),
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap_err();
        match &err {
            RepairError::BudgetExceeded { exceeded, partial } => {
                assert_eq!(*exceeded, pmtx::BudgetExceeded::Steps { quota: 1 });
                assert_eq!(partial.quarantined.len(), 1);
                assert_eq!(partial.committed_rounds, 0);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert_eq!(pmir::display::print_module(&m), text_before);
        assert!(err.to_string().contains("budget exhausted"), "{err}");
    }
}
