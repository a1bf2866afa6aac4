//! The [`Vm`] entry point: validates options, boots the machine, arms fault
//! injection, and runs the program on the decoded engine.

use crate::options::VmOptions;
use crate::result::{RunResult, VmError};
use pmem_sim::Machine;
use pmir::{FuncId, Module};

/// The virtual machine. Cheap to construct; one [`Vm::run`] call executes a
/// program from `main` (or any other zero-argument entry point) to
/// completion.
#[derive(Debug, Clone)]
pub struct Vm {
    pub(crate) opts: VmOptions,
}

/// A validated, booted run, ready for an engine's loop.
pub(crate) struct Boot {
    pub(crate) entry: FuncId,
    pub(crate) machine: Machine,
    pub(crate) injector: Option<pmfault::Injector>,
    pub(crate) fuel: u64,
    pub(crate) deadline: Option<std::time::Instant>,
}

impl Vm {
    /// Creates a VM with the given options.
    pub fn new(opts: VmOptions) -> Self {
        Vm { opts }
    }

    /// Runs `entry` (a zero-parameter function) in `module`.
    ///
    /// Takes `&mut self` so a boot medium in the options is *moved* into
    /// the machine, not copied — recovery boots are the explorer's hot
    /// path, and pool buffers are hundreds of kilobytes. A second `run` on
    /// the same `Vm` therefore boots factory-fresh; every call site
    /// constructs `Vm::new(opts).run(..)` per run.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if the program traps (memory fault, division by
    /// zero, step limit) or the entry point is unsuitable.
    pub fn run(&mut self, module: &Module, entry: &str) -> Result<RunResult, VmError> {
        self.run_prepared(module, entry, None)
    }

    /// [`Vm::run`], reusing a pre-decoded program. `decoded` must be
    /// `DecodedModule::decode(module)` for this exact `module` — callers
    /// that boot the same program many times (the exploration oracle) pay
    /// the decode once. `None` decodes on demand, which is what [`Vm::run`]
    /// does.
    pub fn run_prepared(
        &mut self,
        module: &Module,
        entry: &str,
        decoded: Option<&crate::DecodedModule>,
    ) -> Result<RunResult, VmError> {
        let _span = self.opts.obs.span("vm.run");
        let boot = self.boot(module, entry)?;
        crate::fastvm::run(module, &self.opts, boot, decoded)
    }

    /// Validates the options and the entry point, then boots the machine
    /// (on the configured medium, if any) and arms fault injection. Shared
    /// by the decoded engine and the reference interpreter.
    pub(crate) fn boot(&mut self, module: &Module, entry: &str) -> Result<Boot, VmError> {
        let o = &self.opts;
        let bad = |reason: &str| {
            Err(VmError::BadOptions {
                reason: reason.to_string(),
            })
        };
        if o.stop_at_crash_point == Some(0) {
            return bad("stop_at_crash_point is 1-based; 0 never matches any crash point");
        }
        if (o.capture_pm_data || o.stop_at_event.is_some()) && !o.trace {
            return bad("capture_pm_data / stop_at_event require tracing");
        }
        if o.max_steps == 0 && o.watchdog_ms.is_some() {
            return bad("watchdog requires fuel > 0 (max_steps = 0 can never run)");
        }
        if o.max_steps == 0 {
            return bad("max_steps must be > 0");
        }
        if o.watchdog_ms == Some(0) {
            return bad("watchdog_ms must be > 0");
        }
        let stuck_planned = o
            .fault
            .as_ref()
            .is_some_and(|p| p.targets(pmfault::FaultSite::VmDiverge));
        if stuck_planned && o.watchdog_ms.is_none() {
            return bad("a stuck-loop fault plan requires a wall-clock watchdog (watchdog_ms)");
        }
        let entry_id = module
            .function_by_name(entry)
            .ok_or_else(|| VmError::NoSuchFunction {
                name: entry.to_string(),
            })?;
        if !module.function(entry_id).params().is_empty() {
            return Err(VmError::EntryHasParams {
                name: entry.to_string(),
            });
        }
        let mut machine = match self.opts.media.take() {
            Some(media) => Machine::with_media(media, self.opts.cost),
            None => Machine::new(self.opts.cost),
        };
        if self.opts.log_pm_reads {
            machine.arm_read_log();
        }
        // Arm fault injection: the machine gets its own injector clone for
        // the sim-level sites (store/flush/media-read); the engine keeps one
        // for the VM-level sites. Counters are per-site, so the split never
        // double-counts.
        let mut injector = self.opts.fault.clone().map(pmfault::Injector::new);
        let mut fuel = self.opts.max_steps;
        if let Some(inj) = injector.as_mut() {
            machine.set_injector(Some(inj.clone()));
            if let Some(pmfault::FaultKind::FuelExhaustion { max_steps }) =
                inj.fire(pmfault::FaultSite::VmFuel)
            {
                fuel = fuel.min(max_steps.max(1));
            }
        }
        let deadline = self
            .opts
            .watchdog_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        Ok(Boot {
            entry: entry_id,
            machine,
            injector,
            fuel,
            deadline,
        })
    }
}

/// Records the per-run `vm.*` observability counters (shared by the engine
/// and the reference, so the two stay metric-identical).
pub(crate) fn record_run_obs(
    opts: &VmOptions,
    steps: u64,
    stats: &pmem_sim::MachineStats,
    fuel: u64,
    injector: &Option<pmfault::Injector>,
) {
    if !opts.obs.is_enabled() {
        return;
    }
    opts.obs.add("vm.instructions", steps);
    opts.obs.add("vm.pm_stores", stats.pm_stores);
    opts.obs.add("vm.flushes", stats.total_flushes());
    opts.obs.add("vm.fences", stats.fences);
    opts.obs.add("vm.cycles", stats.cycles);
    opts.obs.add("vm.fuel_left", fuel);
    if let Some(inj) = injector {
        opts.obs
            .add("vm.injected_faults", inj.injected().len() as u64);
    }
}
