//! Repair-engine configuration.

use pmir::{FenceKind, FlushKind};

/// Which PM-marking mode feeds the hoisting heuristic (paper §6.1 compares
/// the two and finds they produce identical fixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MarkingMode {
    /// Whole-program alias analysis: every static `pmemmap` site is PM.
    #[default]
    FullAa,
    /// Trace-seeded: only pools observed by the bug finder are PM.
    TraceAa,
}

/// Which bug finder drives the detect→fix→verify loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BugSource {
    /// The dynamic checker: replay the program and check the trace. Finds
    /// only bugs on the executed path, with exact addresses.
    #[default]
    Dynamic,
    /// The static checker (`pmstatic`): abstract interpretation over the
    /// CFG, covering every path — no execution required. Repair converges
    /// against the *static* verdict.
    Static,
    /// Both: the union of the two reports each iteration, and the loop is
    /// only done when *both* checkers come back clean.
    Both,
    /// The crash-state exploration engine (`pmexplore`) *plus* the dynamic
    /// checker: every iteration replays the program, unions the checkpoint
    /// report with the bugs blamed by recovery-oracle failures on explored
    /// crash states, and the loop is only done when both come back clean.
    /// Catches ordering bugs (flushed-but-unfenced reordering) that no
    /// checkpoint ever samples.
    Exploration,
}

/// Options for [`crate::Hippocrates`].
#[derive(Debug, Clone)]
pub struct RepairOptions {
    /// Enable the interprocedural hoisting heuristic. Disabling it yields
    /// intraprocedural-only repair — the paper's RedisH-intra ablation.
    pub hoisting: bool,
    /// PM-marking mode for the heuristic.
    pub marking: MarkingMode,
    /// Reuse persistent subprograms across fixes (§4.2.4). Disabling this is
    /// the code-bloat ablation for §6.4.
    pub reuse_subprograms: bool,
    /// Insert machine-portable range-flush *calls* instead of raw `CLWB`
    /// instructions — the §6.2 extension the paper suggests ("Hippocrates
    /// could be modified to insert more generic fixes"), matching the PMDK
    /// developers' runtime-dispatched flush style.
    pub portable_fixes: bool,
    /// Which bug finder drives [`crate::Hippocrates::repair_until_clean`].
    pub bug_source: BugSource,
    /// Maximum detect→fix→re-verify iterations in
    /// [`crate::Hippocrates::repair_until_clean`].
    pub max_iterations: u32,
    /// VM step budget per verification run.
    pub max_steps: u64,
    /// Crash-state budget per exploration pass ([`BugSource::Exploration`]).
    pub explore_budget: usize,
    /// Sampler seed for exploration (results are deterministic in it).
    pub explore_seed: u64,
    /// Worker threads for exploration. Never changes the findings.
    pub explore_jobs: usize,
    /// Fault plan armed on every detection/verification run (`pmfault`).
    /// `None` (the default) leaves the injection layer disabled at zero
    /// cost. When set, sim/vm faults reach the interpreter via `VmOptions`,
    /// explore faults reach `pmexplore`, and trace faults corrupt the
    /// serialize→parse roundtrip inside detection.
    pub fault: Option<pmfault::FaultPlan>,
    /// Wall-clock watchdog for detection/verification runs, in
    /// milliseconds. `None` arms no watchdog — unless the fault plan
    /// injects a diverging loop, in which case a 250ms default is armed
    /// automatically (a stuck-loop plan without a watchdog is rejected by
    /// the VM up front).
    pub watchdog_ms: Option<u64>,
    /// Retries per failed bug source before the engine degrades (proceeds
    /// on the surviving sources and stamps the outcome).
    pub source_retries: u32,
    /// Observability handle ([`pmobs::Obs`]). When attached to a registry
    /// the engine records `repair.*` spans and counters for every stage of
    /// the detect→fix→re-verify loop and threads the handle into the VM,
    /// the checkers, exploration, and fault injection. The disabled default
    /// costs one branch per recording site.
    pub obs: pmobs::Obs,
    /// Write-ahead repair journal (`hippo.journal.v1`). When set, every
    /// committed round is made durable at this path before the loop moves
    /// on, so a SIGKILLed run can be resumed.
    pub journal_path: Option<std::path::PathBuf>,
    /// Replay committed rounds from an existing journal at
    /// [`RepairOptions::journal_path`] before detecting. Refuses (with a
    /// clear diagnostic) when the journal's module or options digest does
    /// not match the current run. Without this flag an existing journal is
    /// truncated and started fresh.
    pub resume: bool,
    /// Wall-clock deadline for the whole repair run, in milliseconds. The
    /// cooperative [`pmtx::Budget`] built from this is threaded through the
    /// detect/explore/static/repair stages; when it trips, the run returns a
    /// partial-but-committed outcome instead of hanging.
    pub deadline_ms: Option<u64>,
    /// Step quota for the cooperative budget: each repair round (and each
    /// detection attempt) costs one step. `None` is unlimited.
    pub step_quota: Option<u64>,
    /// After the loop converges clean, run the `pmredund` optimizer: strip
    /// provably-redundant flushes and sinkable fences in transactional
    /// rounds, each re-verified (dynamic checker + crash-state exploration,
    /// byte-identical output) and rolled back on any regression. The
    /// inverse pass can therefore never undo the repair. Off by default.
    pub optimize_after: bool,
    /// Shared warm cache ([`crate::WarmCache`]) for the pure per-module
    /// work: alias-analysis fixpoints and static check reports keyed by
    /// module snapshot digest. The disabled default computes everything
    /// directly; a long-running server attaches one shared cache across
    /// jobs. Hits reproduce the cold path's results exactly, so this is a
    /// presentation knob (excluded from [`RepairOptions::digest_hex`]).
    pub cache: crate::WarmCache,
    /// Crash-injection hook for the kill-and-resume machinery: abort the
    /// process (as a deterministic stand-in for SIGKILL) immediately after
    /// the n-th round committed *in this process*. Only ever set by tests
    /// and the CI kill-and-resume gate.
    pub crash_after_commit: Option<u32>,
}

/// Flush instruction inserted by fixes (the paper's artifact inserts
/// `CLWB`).
pub(crate) const FIX_FLUSH: FlushKind = FlushKind::Clwb;
/// Fence instruction inserted by fixes.
pub(crate) const FIX_FENCE: FenceKind = FenceKind::Sfence;

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            hoisting: true,
            marking: MarkingMode::FullAa,
            reuse_subprograms: true,
            portable_fixes: false,
            bug_source: BugSource::Dynamic,
            max_iterations: 8,
            max_steps: 200_000_000,
            explore_budget: 256,
            explore_seed: 0,
            explore_jobs: 1,
            fault: None,
            watchdog_ms: None,
            source_retries: 2,
            obs: pmobs::Obs::default(),
            journal_path: None,
            resume: false,
            deadline_ms: None,
            step_quota: None,
            cache: crate::WarmCache::default(),
            crash_after_commit: None,
            optimize_after: false,
        }
    }
}

impl RepairOptions {
    /// The intraprocedural-only configuration (RedisH-intra).
    pub fn intraprocedural_only() -> Self {
        RepairOptions {
            hoisting: false,
            ..RepairOptions::default()
        }
    }

    /// Validates the configuration before the engine runs. Each rejected
    /// combination comes with an actionable message.
    ///
    /// # Errors
    ///
    /// Returns the human-readable reason the options are unusable.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_iterations == 0 {
            return Err(
                "max_iterations is 0: the repair loop would never detect or fix anything; \
                 set it to at least 1 (the default is 8)"
                    .to_string(),
            );
        }
        if self.resume && self.journal_path.is_none() {
            return Err(
                "resume is set but no journal path is configured: resuming replays committed \
                 rounds from a journal, so pass one (e.g. `--journal repair.journal --resume`)"
                    .to_string(),
            );
        }
        if self.deadline_ms == Some(0) {
            return Err(
                "deadline_ms is 0: the budget would trip before the first detection; \
                 use a positive deadline or leave it unset"
                    .to_string(),
            );
        }
        if self.step_quota == Some(0) {
            return Err(
                "step_quota is 0: the budget would trip before the first detection; \
                 use a positive quota or leave it unset"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Digest (16 hex digits) of the options that shape fix planning and
    /// detection — the `options_digest` recorded in journal headers. Two
    /// runs with equal digests plan identical fixes for identical modules;
    /// presentation-only knobs (observability, retries, deadlines, the
    /// journal itself) are deliberately excluded so they never block a
    /// resume. `optimize_after` is excluded too: it runs only after the
    /// loop converges, so journaled repair rounds replay unchanged.
    pub fn digest_hex(&self) -> String {
        // The fix kinds are constants; they stay in the digest so that
        // journals already written keep matching.
        let canon = format!(
            "hoisting={} marking={:?} flush={:?} fence={:?} reuse={} portable={} \
             source={:?} max_steps={} explore_budget={} explore_seed={} fault={:?}",
            self.hoisting,
            self.marking,
            FIX_FLUSH,
            FIX_FENCE,
            self.reuse_subprograms,
            self.portable_fixes,
            self.bug_source,
            self.max_steps,
            self.explore_budget,
            self.explore_seed,
            self.fault,
        );
        format!("{:016x}", pmir::snapshot::fnv1a(canon.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = RepairOptions::default();
        assert!(o.hoisting);
        assert!(!o.portable_fixes);
        assert_eq!(o.marking, MarkingMode::FullAa);
        assert!(!RepairOptions::intraprocedural_only().hoisting);
        assert!(o.journal_path.is_none() && !o.resume);
        assert!(!o.optimize_after);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn zero_iteration_budget_is_rejected_with_actionable_message() {
        let o = RepairOptions {
            max_iterations: 0,
            ..RepairOptions::default()
        };
        let msg = o.validate().unwrap_err();
        assert!(msg.contains("max_iterations"), "{msg}");
        assert!(msg.contains("at least 1"), "{msg}");
    }

    #[test]
    fn resume_without_journal_is_rejected() {
        let o = RepairOptions {
            resume: true,
            ..RepairOptions::default()
        };
        let msg = o.validate().unwrap_err();
        assert!(msg.contains("--journal"), "{msg}");
    }

    #[test]
    fn zero_budgets_are_rejected() {
        for o in [
            RepairOptions {
                deadline_ms: Some(0),
                ..RepairOptions::default()
            },
            RepairOptions {
                step_quota: Some(0),
                ..RepairOptions::default()
            },
        ] {
            assert!(o.validate().is_err());
        }
    }

    #[test]
    fn options_digest_tracks_planning_knobs_only() {
        let base = RepairOptions::default();
        let planning = RepairOptions {
            hoisting: false,
            ..RepairOptions::default()
        };
        assert_ne!(base.digest_hex(), planning.digest_hex());
        let presentation = RepairOptions {
            source_retries: 9,
            deadline_ms: Some(1234),
            journal_path: Some("x.journal".into()),
            resume: true,
            cache: crate::WarmCache::enabled(),
            ..RepairOptions::default()
        };
        assert_eq!(
            base.digest_hex(),
            presentation.digest_hex(),
            "presentation knobs never block a resume"
        );
        // Pinned so that existing journals keep resuming.
        assert_eq!(base.digest_hex(), "fcd0ca451c6274af");
    }
}
