//! Convenience driver: execute a module under the VM and check its trace in
//! one call (the "run it under pmemcheck" step of the pipeline).

use crate::bug::CheckReport;
use crate::checker::check_trace;
use pmir::Module;
use pmtrace::Trace;
use pmvm::{RunResult, Vm, VmError, VmOptions};

/// A completed checked execution.
#[derive(Debug)]
pub struct CheckedRun {
    /// The VM run (output, stats, final machine state).
    pub run: RunResult,
    /// The recorded trace.
    pub trace: Trace,
    /// The durability report.
    pub report: CheckReport,
}

/// Runs `entry` in `module` with tracing forced on, then checks the trace.
/// The check is timed as a `check.trace` span on `opts.obs`.
///
/// # Errors
///
/// Propagates any [`VmError`] trap from execution.
pub fn run_and_check(
    module: &Module,
    entry: &str,
    mut opts: VmOptions,
) -> Result<CheckedRun, VmError> {
    opts.trace = true;
    let obs = opts.obs.clone();
    let mut run = Vm::new(opts).run(module, entry)?;
    let trace = run.trace.take().expect("tracing was enabled");
    let report = {
        let _span = obs.span("check.trace");
        check_trace(&trace)
    };
    Ok(CheckedRun { run, trace, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bug::BugKind;
    use pmir::{FenceKind, FlushKind, FunctionBuilder, Type};

    #[test]
    fn buggy_then_fixed() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let pool = b.pmem_map(4096i64, 0);
        let st = b.store(Type::int(8), pool, 7i64);
        b.ret(None);
        b.finish();

        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert_eq!(checked.report.bugs.len(), 1);
        assert_eq!(checked.report.bugs[0].kind, BugKind::MissingFlushFence);
        // The report's IrRef points at the exact store instruction.
        assert_eq!(checked.report.bugs[0].store_at.as_ref().unwrap().inst, st.0);

        // Insert the fix by hand; the report comes back clean.
        let func = m.function_mut(f);
        let pool_val = func.inst(pmir::InstId(0)).result.unwrap();
        let fl = pmir::rewrite::insert_after(
            func,
            st,
            pmir::Op::Flush {
                kind: FlushKind::Clwb,
                addr: pmir::Operand::Value(pool_val),
            },
            None,
        );
        pmir::rewrite::insert_after(
            func,
            fl,
            pmir::Op::Fence {
                kind: FenceKind::Sfence,
            },
            None,
        );
        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert!(checked.report.is_clean(), "{}", checked.report.render());
    }
}
