//! VM configuration.

use pmem_sim::{CostModel, PmMedia};

/// The execution engine. It has one variant: every [`crate::Vm::run`]
/// goes through the decoded engine, and [`crate::Vm::run_reference`] is
/// the reference that tests compare it against. The type is kept only
/// because `pmexplore::ExploreOptions::tier` and `Oracle::check_opts` still
/// carry one for the benchmark harness; both ignore it, and all three are
/// to be deleted when that harness is refreshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// Pre-decoded direct-threaded dispatch.
    #[default]
    Fast,
}

/// Configuration for a [`crate::Vm`] run.
#[derive(Debug, Clone)]
pub struct VmOptions {
    /// Cycle-cost model for the simulated machine.
    pub cost: CostModel,
    /// Whether to record a [`pmtrace::Trace`] (bug finding needs it; pure
    /// performance runs turn it off).
    pub trace: bool,
    /// Abort execution after this many executed instructions (runaway
    /// guard).
    pub max_steps: u64,
    /// Boot against an existing persistent medium (crash-recovery runs).
    pub media: Option<PmMedia>,
    /// Stop execution at the n-th `crashpoint` instruction, simulating a
    /// crash there. Crash points are numbered **from 1**: `Some(1)` stops
    /// at the first `crashpoint` executed. `Some(0)` is rejected with
    /// [`crate::VmError::BadOptions`] — it can never match and used to
    /// silently behave like "never crash". `None` runs to completion.
    pub stop_at_crash_point: Option<u64>,
    /// Stop execution right after the trace event with this sequence
    /// number has been emitted (the instruction that produced it completes
    /// first). Lets crash-state exploration re-run a program to an exact
    /// trace position and inspect the machine there. Requires `trace`.
    pub stop_at_event: Option<u64>,
    /// Capture the bytes of every PM write into a [`pmtrace::DataLog`]
    /// (returned in [`crate::RunResult::pm_data`]), keyed by the store
    /// event's sequence number. Requires `trace`; used by crash-state
    /// exploration to replay durable contents without re-running the VM.
    pub capture_pm_data: bool,
    /// Log the PM lines the run reads, in first-read order
    /// ([`pmem_sim::Machine::arm_read_log`]; read them from
    /// [`crate::RunResult::machine`]). An analysis flag like
    /// `capture_pm_data`, but it needs no trace: crash-state exploration
    /// sets it on untraced recovery boots to learn which lines decided the
    /// verdict. Observation only: it changes no result, counter or cycle.
    pub log_pm_reads: bool,
    /// If set, spontaneously evict the stored-to line after every k-th PM
    /// store — models cache pressure (used by do-no-harm property tests).
    pub evict_period: Option<u64>,
    /// Wall-clock watchdog: abort with [`crate::VmError::Watchdog`] if the
    /// run has not finished within this many milliseconds. Fuel
    /// (`max_steps`) bounds *progress*; the watchdog bounds *time*, so a
    /// run that stops making progress (a diverging `recover()` oracle)
    /// cannot hang its worker. Validated up front: requires fuel > 0 and a
    /// non-zero budget.
    pub watchdog_ms: Option<u64>,
    /// Deterministic fault plan ([`pmfault::FaultPlan`]) armed for this run:
    /// sim-level faults are forwarded to the machine, VM-level faults
    /// (fuel tightening, stuck loops) are applied by the VM.
    /// `None` (production) costs one branch per step.
    pub fault: Option<pmfault::FaultPlan>,
    /// Observability handle: when attached to a [`pmobs::Registry`], the VM
    /// records a `vm.run` span and `vm.*` counters (instructions retired,
    /// PM stores/flushes/fences, cycles, remaining fuel). The disabled
    /// default costs a single branch per run.
    pub obs: pmobs::Obs,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            cost: CostModel::default(),
            trace: true,
            max_steps: 200_000_000,
            media: None,
            stop_at_crash_point: None,
            stop_at_event: None,
            capture_pm_data: false,
            log_pm_reads: false,
            evict_period: None,
            watchdog_ms: None,
            fault: None,
            obs: pmobs::Obs::default(),
        }
    }
}

impl VmOptions {
    /// Options tuned for benchmarking: no trace collection.
    pub fn bench() -> Self {
        VmOptions {
            trace: false,
            ..VmOptions::default()
        }
    }

    /// Replaces the persistent medium (builder-style).
    pub fn with_media(mut self, media: PmMedia) -> Self {
        self.media = Some(media);
        self
    }

    /// Sets the crash-point stop (builder-style). 1-based: `stop_at(1)`
    /// crashes at the first `crashpoint`.
    pub fn stop_at(mut self, nth_crash_point: u64) -> Self {
        self.stop_at_crash_point = Some(nth_crash_point);
        self
    }

    /// Stops right after trace event `seq` (builder-style).
    pub fn stop_at_event(mut self, seq: u64) -> Self {
        self.stop_at_event = Some(seq);
        self
    }

    /// Enables PM write-data capture (builder-style).
    pub fn capture_pm_data(mut self) -> Self {
        self.capture_pm_data = true;
        self
    }

    /// Enables the PM read log (builder-style).
    pub fn log_pm_reads(mut self) -> Self {
        self.log_pm_reads = true;
        self
    }

    /// Arms the wall-clock watchdog (builder-style).
    pub fn watchdog(mut self, ms: u64) -> Self {
        self.watchdog_ms = Some(ms);
        self
    }

    /// Arms a fault plan (builder-style).
    pub fn with_fault(mut self, plan: pmfault::FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Attaches an observability handle (builder-style).
    pub fn with_obs(mut self, obs: pmobs::Obs) -> Self {
        self.obs = obs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let o = VmOptions::bench();
        assert!(!o.trace);
        let o = VmOptions::default().stop_at(2);
        assert_eq!(o.stop_at_crash_point, Some(2));
        let o = VmOptions::default().with_media(PmMedia::new());
        assert!(o.media.is_some());
        let o = VmOptions::default().stop_at_event(7).capture_pm_data();
        assert_eq!(o.stop_at_event, Some(7));
        assert!(o.capture_pm_data);
        assert!(!o.log_pm_reads);
        assert!(VmOptions::bench().log_pm_reads().log_pm_reads);
    }
}
