//! The transactional optimizer: applies redundancy findings as
//! [`ModulePatch`]-backed rounds, committing only when re-verification with
//! the dynamic checker **and** the crash-state explorer shows no new bug
//! and byte-identical program output — the inverse of the Hippocrates
//! repair loop, under the same do-no-harm contract.
//!
//! A round that fails re-verification rolls back byte-identically (the
//! snapshot restore is asserted against the captured text) and is bisected:
//! halves retry independently, and a single finding that cannot survive
//! verification lands in quarantine, keyed by its instruction, so later
//! analysis rounds never retry it.

use crate::analyze::{analyze_module, RedundError};
use crate::finding::{Finding, FindingKind};
use pmcheck::CheckReport;
use pmir::snapshot::{ModulePatch, ModuleSnapshot};
use pmir::verify::verify_module;
use pmir::{rewrite, Module, Op};
use pmvm::VmOptions;
use std::collections::{BTreeMap, HashSet};

/// Knobs for [`optimize_module`].
#[derive(Debug, Clone)]
pub struct OptimizeOptions {
    /// Entry function executed for re-verification.
    pub entry: String,
    /// Crash-state budget per exploration re-verify.
    pub explore_budget: usize,
    /// Exploration seed.
    pub explore_seed: u64,
    /// Exploration worker threads.
    pub explore_jobs: usize,
    /// Observability handle for `opt.*` counters and spans.
    pub obs: pmobs::Obs,
}

/// Analysis rounds: removals cascade (a sunk fence exposes the next), so the
/// module is re-analyzed after each committed batch until no fresh finding
/// remains or this cap is hit.
const MAX_ROUNDS: u64 = 4;

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            entry: "main".to_string(),
            explore_budget: 128,
            explore_seed: 0,
            explore_jobs: 1,
            obs: pmobs::Obs::default(),
        }
    }
}

/// A failure to optimize. Per-finding verification failures are *not*
/// errors — they roll back and quarantine; this covers the baseline run
/// itself failing or an invalid entry.
#[derive(Debug)]
pub enum OptimizeError {
    /// The redundancy analysis could not run.
    Analyze(RedundError),
    /// The baseline execution of the unmodified module failed.
    Baseline(String),
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Analyze(e) => write!(f, "optimize: {e}"),
            OptimizeError::Baseline(e) => {
                write!(f, "optimize: baseline run failed: {e}")
            }
        }
    }
}

impl std::error::Error for OptimizeError {}

/// One committed optimization.
#[derive(Debug, Clone)]
pub struct AppliedOpt {
    /// The finding that was applied (with its witness).
    pub finding: Finding,
    /// Which analysis round committed it (1-based).
    pub round: u64,
}

/// One optimization that failed re-verification and was rolled back.
#[derive(Debug, Clone)]
pub struct QuarantinedOpt {
    /// The finding that could not ship.
    pub finding: Finding,
    /// Why verification rejected it.
    pub reason: String,
}

/// What [`optimize_module`] did.
#[derive(Debug, Clone, Default)]
pub struct OptimizeOutcome {
    /// Every committed removal, with its witness, in commit order.
    pub applied: Vec<AppliedOpt>,
    /// Findings that failed re-verification and were rolled back.
    pub quarantined: Vec<QuarantinedOpt>,
    /// Transactional rounds committed.
    pub rounds_committed: u64,
    /// Transactional rounds rolled back (including bisection steps).
    pub rounds_rolled_back: u64,
    /// Total findings the analysis produced across all rounds.
    pub findings_seen: u64,
    /// Estimated cycles saved per pass over the removed instructions,
    /// under the calibrated cost model.
    pub est_cycles_saved: u64,
    /// The committed patches, in order (replayable via
    /// [`ModulePatch::apply`]).
    pub patches: Vec<ModulePatch>,
}

impl OptimizeOutcome {
    /// Committed flush removals (redundant + coalescable).
    pub fn flushes_removed(&self) -> u64 {
        self.applied
            .iter()
            .filter(|a| {
                matches!(
                    a.finding.kind,
                    FindingKind::RedundantFlush | FindingKind::CoalescableFlush
                )
            })
            .count() as u64
    }

    /// Committed fence sinks.
    pub fn fences_sunk(&self) -> u64 {
        self.applied
            .iter()
            .filter(|a| a.finding.kind == FindingKind::SinkableFence)
            .count() as u64
    }
}

impl std::fmt::Display for OptimizeOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "removed {} flushes, sank {} fences (~{} cycles/pass saved), \
             {} committed / {} rolled back, {} quarantined",
            self.flushes_removed(),
            self.fences_sunk(),
            self.est_cycles_saved,
            self.rounds_committed,
            self.rounds_rolled_back,
            self.quarantined.len(),
        )
    }
}

/// The do-no-harm reference the optimizer verifies every round against.
struct Baseline {
    /// Observable output of the unmodified module.
    output: Vec<i64>,
    /// Worst bug severity per store site (dynamic check + exploration),
    /// `pmcheck::BugKind::repair_rank` ranked. Optimizing a still-buggy
    /// module is allowed — it just must not add or worsen a site.
    site_sevs: BTreeMap<String, u32>,
}

fn site_sevs(reports: &[&CheckReport]) -> BTreeMap<String, u32> {
    let mut sevs = BTreeMap::new();
    for report in reports {
        for bug in &report.bugs {
            let key = match &bug.store_at {
                Some(r) => format!("{}#{}", r.function, r.inst),
                None => format!("@addr:{:#x}", bug.addr),
            };
            let rank = bug.kind.repair_rank();
            let e = sevs.entry(key).or_insert(0);
            if rank > *e {
                *e = rank;
            }
        }
    }
    sevs
}

/// Runs check + exploration on the current module and returns the
/// (output, site-severity) pair, or the failure reason.
fn observe(
    m: &Module,
    opts: &OptimizeOptions,
) -> Result<(Vec<i64>, BTreeMap<String, u32>), String> {
    let checked = pmcheck::run_and_check(m, &opts.entry, VmOptions::default())
        .map_err(|e| format!("run failed: {e}"))?;
    let x_opts = pmexplore::ExploreOptions {
        budget: opts.explore_budget,
        seed: opts.explore_seed,
        jobs: opts.explore_jobs,
        obs: opts.obs.clone(),
        ..Default::default()
    };
    let x = pmexplore::run_and_explore(m, &opts.entry, &x_opts)
        .map_err(|e| format!("exploration run failed: {e}"))?;
    let x_report = x.report.to_check_report(&x.trace);
    Ok((checked.run.output, site_sevs(&[&checked.report, &x_report])))
}

/// Whether the post-removal observation harms the baseline: any new or
/// worsened bug site, or any change in observable output.
fn harms(base: &Baseline, output: &[i64], sevs: &BTreeMap<String, u32>) -> Option<String> {
    if output != base.output {
        return Some("observable output changed".to_string());
    }
    for (site, &rank) in sevs {
        let before = base.site_sevs.get(site).copied().unwrap_or(0);
        if rank > before {
            return Some(format!("new or worsened bug at {site}"));
        }
    }
    None
}

/// Whether `finding` still names a removable (linked, value-free,
/// non-terminator flush/fence) instruction in `m`.
fn removable(m: &Module, finding: &Finding) -> Result<(), String> {
    if finding.func.0 as usize >= m.func_ids().count() {
        return Err("function out of range".to_string());
    }
    let func = m.function(finding.func);
    if func.find_inst_pos(finding.inst).is_none() {
        return Err("instruction is not linked".to_string());
    }
    match &func.inst(finding.inst).op {
        Op::Flush { .. } | Op::Fence { .. } => Ok(()),
        op => Err(format!("not a flush or fence: {op:?}")),
    }
}

/// Applies `findings` to `m` in transactional rounds against `base`:
/// batch-apply, re-verify, commit or roll back byte-identically and bisect.
/// Returns what happened; `m` holds every committed removal.
#[allow(clippy::too_many_arguments)]
fn apply_group(
    m: &mut Module,
    findings: Vec<Finding>,
    base: &Baseline,
    opts: &OptimizeOptions,
    round: u64,
    out: &mut OptimizeOutcome,
) {
    let mut stack = vec![findings];
    while let Some(group) = stack.pop() {
        if group.is_empty() {
            continue;
        }
        // A finding that no longer names a removable instruction (the
        // forced path can hand us anything) is quarantined up front.
        let (group, bad): (Vec<_>, Vec<_>) =
            group.into_iter().partition(|f| removable(m, f).is_ok());
        for f in bad {
            let reason = removable(m, &f).unwrap_err();
            opts.obs.add("opt.quarantined", 1);
            out.quarantined.push(QuarantinedOpt { finding: f, reason });
        }
        if group.is_empty() {
            continue;
        }
        let snapshot = ModuleSnapshot::capture(m);
        for f in &group {
            rewrite::unlink(m.function_mut(f.func), f.inst);
        }
        let failure = verify_module(m)
            .map_err(|e| format!("module verification failed: {e}"))
            .and_then(|()| {
                let (output, sevs) = observe(m, opts)?;
                match harms(base, &output, &sevs) {
                    Some(h) => Err(h),
                    None => Ok(()),
                }
            })
            .err();
        match failure {
            None => {
                out.patches.push(ModulePatch::between(&snapshot, m));
                out.rounds_committed += 1;
                opts.obs.add("opt.rounds_committed", 1);
                for f in group {
                    match f.kind {
                        FindingKind::SinkableFence => opts.obs.add("opt.fences_sunk", 1),
                        _ => opts.obs.add("opt.flushes_removed", 1),
                    }
                    out.est_cycles_saved += f.est_cycles_saved;
                    out.applied.push(AppliedOpt { finding: f, round });
                }
            }
            Some(reason) => {
                snapshot.restore(m);
                assert!(
                    snapshot.matches(m),
                    "rollback must restore the module byte-identically"
                );
                out.rounds_rolled_back += 1;
                opts.obs.add("opt.rounds_rolled_back", 1);
                if group.len() == 1 {
                    let f = group.into_iter().next().expect("len checked");
                    opts.obs.add("opt.quarantined", 1);
                    out.quarantined.push(QuarantinedOpt { finding: f, reason });
                } else {
                    // Bisect: some member of the batch is the harm; retry
                    // the halves independently.
                    let mid = group.len() / 2;
                    let mut group = group;
                    let tail = group.split_off(mid);
                    stack.push(tail);
                    stack.push(group);
                }
            }
        }
    }
}

/// Applies a caller-supplied finding list through the same transactional
/// verify/rollback/quarantine machinery as [`optimize_module`] — one
/// analysis round's worth. This is the building block the do-no-harm tests
/// drive with deliberately-unsound findings.
///
/// # Errors
///
/// Fails when the baseline run of the unmodified module fails.
pub fn apply_findings(
    m: &mut Module,
    findings: Vec<Finding>,
    opts: &OptimizeOptions,
) -> Result<OptimizeOutcome, OptimizeError> {
    let (output, sevs) = observe(m, opts).map_err(OptimizeError::Baseline)?;
    let base = Baseline {
        output,
        site_sevs: sevs,
    };
    let mut out = OptimizeOutcome {
        findings_seen: findings.len() as u64,
        ..Default::default()
    };
    apply_group(m, findings, &base, opts, 1, &mut out);
    opts.obs
        .gauge("opt.est_cycles_saved", out.est_cycles_saved as f64);
    Ok(out)
}

/// Analyzes `m`, removes every redundancy finding that survives
/// re-verification (dynamic check + crash-state exploration, byte-identical
/// output), and re-analyzes until no fresh finding remains. Every committed
/// removal carries its happens-before witness in the outcome; a finding
/// that fails verification is rolled back byte-identically and quarantined.
///
/// # Errors
///
/// Fails when `entry` is unknown or the baseline run fails. Verification
/// failures of candidate removals are not errors (see
/// [`OptimizeOutcome::quarantined`]).
pub fn optimize_module(
    m: &mut Module,
    opts: &OptimizeOptions,
) -> Result<OptimizeOutcome, OptimizeError> {
    let _span = opts.obs.span("opt.optimize");
    let (output, sevs) = observe(m, opts).map_err(OptimizeError::Baseline)?;
    let base = Baseline {
        output,
        site_sevs: sevs,
    };
    let mut out = OptimizeOutcome::default();
    let mut quarantined_sites: HashSet<(pmir::FuncId, pmir::InstId)> = HashSet::new();
    for round in 1..=MAX_ROUNDS {
        let findings = analyze_module(m, &opts.entry).map_err(OptimizeError::Analyze)?;
        let fresh: Vec<Finding> = findings
            .into_iter()
            .filter(|f| !quarantined_sites.contains(&(f.func, f.inst)))
            .collect();
        if fresh.is_empty() {
            break;
        }
        out.findings_seen += fresh.len() as u64;
        opts.obs.add("opt.findings", fresh.len() as u64);
        let committed_before = out.rounds_committed;
        let quarantined_before = out.quarantined.len();
        apply_group(m, fresh, &base, opts, round, &mut out);
        for q in &out.quarantined[quarantined_before..] {
            quarantined_sites.insert((q.finding.func, q.finding.inst));
        }
        if out.rounds_committed == committed_before {
            // Nothing shipped this round: re-analysis would reproduce the
            // same quarantined set.
            break;
        }
    }
    opts.obs
        .gauge("opt.est_cycles_saved", out.est_cycles_saved as f64);
    Ok(out)
}
