//! Recovery oracles: how a booted crash state is judged consistent.
//!
//! An oracle names a zero-argument entry point in the module under test —
//! by convention a `recover()` function that walks the durable structures,
//! checks the application's invariants, and returns 0 when the store is
//! consistent — plus the expectation applied to the run. Programs without
//! a dedicated recovery entry fall back to re-running the main entry and
//! demanding it complete without trapping.

use pmem_sim::CrashImage;
use pmir::Module;
use pmvm::{Ended, ExecTier, Vm, VmError, VmOptions};
use serde::{Deserialize, Serialize};

/// What a recovery run must do for the crash state to count as consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Expectation {
    /// The entry must return exactly this value (conventionally 0 = clean).
    Returns(i64),
    /// The entry must merely run to completion — no trap, no `abort`.
    Completes,
}

/// An app-registered recovery check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Oracle {
    /// The zero-argument entry function booted on each crash image.
    pub entry: String,
    /// The pass criterion.
    pub expect: Expectation,
}

impl Oracle {
    /// The conventional oracle: `entry` returns 0 on a consistent store.
    pub fn returns_zero(entry: impl Into<String>) -> Self {
        Oracle {
            entry: entry.into(),
            expect: Expectation::Returns(0),
        }
    }

    /// Picks the oracle for `module`: its `recover` function when it has
    /// one (expected to return 0), otherwise re-running `fallback_entry`
    /// and requiring completion.
    pub fn default_for(module: &Module, fallback_entry: &str) -> Self {
        if module.function_by_name("recover").is_some() {
            Oracle::returns_zero("recover")
        } else {
            Oracle {
                entry: fallback_entry.to_string(),
                expect: Expectation::Completes,
            }
        }
    }

    /// Boots `image` and judges the recovery run.
    pub fn check(&self, module: &Module, image: CrashImage, max_steps: u64) -> Verdict {
        self.check_opts(
            module,
            image,
            max_steps,
            None,
            None,
            ExecTier::default(),
            None,
        )
    }

    /// [`Oracle::check`] with a wall-clock watchdog and/or a fault plan for
    /// the recovery run. A watchdog firing (a diverging oracle) or an
    /// invalid configuration is an [`Verdict::OracleCrash`] — the oracle
    /// failed, which says nothing about the crash state's consistency.
    ///
    /// `decoded` optionally reuses a pre-decoded `module` across boots
    /// (see [`Vm::run_prepared`]); exploration checks thousands of crash
    /// states against one program, so decoding per boot is pure waste.
    ///
    /// `_tier` is ignored (the VM has one engine); it is kept only for the
    /// benchmark harness and is to be deleted when that harness is
    /// refreshed.
    #[allow(clippy::too_many_arguments)]
    pub fn check_opts(
        &self,
        module: &Module,
        image: CrashImage,
        max_steps: u64,
        watchdog_ms: Option<u64>,
        fault: Option<pmfault::FaultPlan>,
        _tier: ExecTier,
        decoded: Option<&pmvm::DecodedModule>,
    ) -> Verdict {
        self.check_reading(module, image, max_steps, watchdog_ms, fault, decoded, false)
            .0
    }

    /// [`Oracle::check_opts`] that, when `read_path` is set, also returns
    /// the recovery run's read path: the PM lines it read, in first-read
    /// order ([`pmem_sim::Machine::arm_read_log`]). The path is returned
    /// only for a run that completed (returned or aborted): a run is a
    /// deterministic function of its pools and the bytes of the lines on
    /// its path, so every image that agrees with this one on both gets
    /// the same verdict. A trapped run, whose machine is gone, returns
    /// none.
    #[allow(clippy::too_many_arguments)]
    pub fn check_reading(
        &self,
        module: &Module,
        image: CrashImage,
        max_steps: u64,
        watchdog_ms: Option<u64>,
        fault: Option<pmfault::FaultPlan>,
        decoded: Option<&pmvm::DecodedModule>,
        read_path: bool,
    ) -> (Verdict, Option<Vec<u64>>) {
        let opts = VmOptions {
            trace: false,
            max_steps,
            watchdog_ms,
            fault,
            log_pm_reads: read_path,
            ..VmOptions::default()
        }
        .with_media(image.into_media());
        let run = Vm::new(opts).run_prepared(module, &self.entry, decoded);
        let path = run
            .as_ref()
            .ok()
            .and_then(|res| res.machine.read_log())
            .map(<[u64]>::to_vec);
        let verdict = match run {
            Err(VmError::Watchdog { limit_ms }) => Verdict::OracleCrash {
                what: format!("recovery watchdog fired after {limit_ms}ms (diverging oracle)"),
            },
            Err(VmError::BadOptions { reason }) => Verdict::OracleCrash {
                what: format!("recovery run misconfigured: {reason}"),
            },
            Err(e) => Verdict::Inconsistent(Failure {
                what: failure_text(&e),
                return_value: None,
            }),
            Ok(res) => {
                if let Ended::Aborted(code) = res.ended {
                    return (
                        Verdict::Inconsistent(Failure {
                            what: format!("recovery aborted with code {code}"),
                            return_value: res.return_value,
                        }),
                        path,
                    );
                }
                match self.expect {
                    Expectation::Completes => Verdict::Consistent,
                    Expectation::Returns(want) => {
                        if res.return_value == Some(want) {
                            Verdict::Consistent
                        } else {
                            Verdict::Inconsistent(Failure {
                                what: format!(
                                    "recovery returned {:?}, expected {want}",
                                    res.return_value
                                ),
                                return_value: res.return_value,
                            })
                        }
                    }
                }
            }
        };
        (verdict, path)
    }
}

/// A stable rendering of a recovery trap. `VmError` itself is not
/// `Serialize`; findings carry text.
fn failure_text(e: &VmError) -> String {
    format!("recovery trapped: {e}")
}

/// The oracle's judgement of one crash state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Recovery accepted the state.
    Consistent,
    /// Recovery rejected (or crashed on) the state.
    Inconsistent(Failure),
    /// The *oracle itself* failed — it panicked, diverged until the
    /// watchdog fired, or was misconfigured. Unlike
    /// [`Verdict::Inconsistent`], this is not evidence about the crash
    /// state: it is reported as a diagnostic and never blamed on a store.
    OracleCrash {
        /// What happened to the oracle.
        what: String,
    },
}

impl Verdict {
    /// Whether this is [`Verdict::Inconsistent`].
    pub fn is_inconsistent(&self) -> bool {
        matches!(self, Verdict::Inconsistent(_))
    }
}

/// Why a crash state failed recovery.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Failure {
    /// Human-readable cause (trap text, wrong return value, abort code).
    pub what: String,
    /// The recovery entry's return value, when it produced one.
    pub return_value: Option<i64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{FenceKind, FlushKind, Machine};

    fn image_with_flag(v: i64) -> CrashImage {
        let mut m = Machine::default();
        let p = m.map_pool(7, 4096).unwrap();
        m.store_int(p, 8, v).unwrap();
        m.flush(FlushKind::Clwb, p).unwrap();
        m.fence(FenceKind::Sfence);
        m.crash_image()
    }

    const SRC: &str = r#"
        fn recover() -> int {
            var p: ptr = pmem_map(7, 4096);
            if (load8(p, 0) == 1) { return 1; }
            return 0;
        }
    "#;

    #[test]
    fn returns_zero_oracle_judges() {
        let m = pmlang::compile_one("t.pmc", SRC).unwrap();
        let o = Oracle::returns_zero("recover");
        assert_eq!(
            o.check(&m, image_with_flag(0), 1_000_000),
            Verdict::Consistent
        );
        let v = o.check(&m, image_with_flag(1), 1_000_000);
        assert!(v.is_inconsistent());
    }

    #[test]
    fn default_prefers_recover_entry() {
        let m = pmlang::compile_one("t.pmc", SRC).unwrap();
        let o = Oracle::default_for(&m, "main");
        assert_eq!(o.entry, "recover");
        assert_eq!(o.expect, Expectation::Returns(0));
        let m2 = pmlang::compile_one("t.pmc", "fn main() { }").unwrap();
        let o2 = Oracle::default_for(&m2, "main");
        assert_eq!(o2.entry, "main");
        assert_eq!(o2.expect, Expectation::Completes);
    }

    #[test]
    fn check_reading_returns_the_lines_a_completed_boot_read() {
        let m = pmlang::compile_one("t.pmc", SRC).unwrap();
        let o = Oracle::returns_zero("recover");
        let read =
            |image, read_path| o.check_reading(&m, image, 1_000_000, None, None, None, read_path);
        let line = pmem_sim::layout::PM_BASE;
        assert_eq!(
            read(image_with_flag(0), true),
            (Verdict::Consistent, Some(vec![line]))
        );
        let (v, path) = read(image_with_flag(1), true);
        assert!(v.is_inconsistent());
        assert_eq!(
            path,
            Some(vec![line]),
            "an inconsistent verdict has a path too"
        );
        assert_eq!(read(image_with_flag(1), false).1, None, "not asked");
        // A trapped run has no path: its machine is gone.
        let trap = pmlang::compile_one(
            "t.pmc",
            "fn recover() -> int { var p: ptr = pmem_map(7, 4096); return load8(p, 4096); }",
        )
        .unwrap();
        let (v, path) = o.check_reading(&trap, image_with_flag(0), 1000, None, None, None, true);
        assert!(v.is_inconsistent());
        assert_eq!(path, None);
    }

    #[test]
    fn missing_entry_is_a_failure_not_a_panic() {
        let m = pmlang::compile_one("t.pmc", "fn main() { }").unwrap();
        let o = Oracle::returns_zero("no_such");
        assert!(o.check(&m, image_with_flag(0), 1000).is_inconsistent());
    }

    #[test]
    fn diverging_oracle_is_a_crash_not_an_inconsistency() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let m = pmlang::compile_one("t.pmc", SRC).unwrap();
        let o = Oracle::returns_zero("recover");
        let v = o.check_opts(
            &m,
            image_with_flag(0),
            1_000_000,
            Some(20),
            Some(FaultPlan::single(
                FaultSite::VmDiverge,
                Trigger::Nth(0),
                FaultKind::StuckLoop,
            )),
            ExecTier::default(),
            None,
        );
        match v {
            Verdict::OracleCrash { what } => assert!(what.contains("watchdog"), "{what}"),
            other => panic!("expected OracleCrash, got {other:?}"),
        }
    }
}
