//! Bug localization: mapping trace/report entries back to IR instructions
//! (paper Fig. 2, step 2).

use pmcheck::Bug;
use pmir::{FuncId, InstId, Module, Op};
use pmtrace::{Frame, IrRef, TraceLoc};
use std::fmt;

/// A localized bug: the offending store and the observed call path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BugSite {
    /// Function containing the store.
    pub func: FuncId,
    /// The store-like instruction.
    pub store: InstId,
    /// The call path from the store outward: `path[k]` is the call site (in
    /// its containing function) that entered the `k`-th inner frame;
    /// `path[0]` sits in the store's direct caller.
    pub call_path: Vec<(FuncId, InstId)>,
    /// The function containing the durability requirement `I` (innermost
    /// frame of the checkpoint), when known.
    pub i_func: Option<FuncId>,
}

/// A localization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocateError {
    /// Description of what could not be resolved.
    pub message: String,
}

impl fmt::Display for LocateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bug localization failed: {}", self.message)
    }
}

impl std::error::Error for LocateError {}

/// Resolves an [`IrRef`] against the module, checking that it names a real
/// instruction.
pub fn resolve_ir_ref(m: &Module, at: &IrRef) -> Option<(FuncId, InstId)> {
    let f = m.function_by_name(&at.function)?;
    let func = m.function(f);
    ((at.inst as usize) < func.inst_count()).then_some((f, InstId(at.inst)))
}

/// Finds a store-like instruction in `function` at the given source
/// location — the fallback path used when a trace lacks structural refs
/// (e.g. traces from foreign bug finders carrying only source lines).
pub fn find_store_by_loc(m: &Module, function: &str, loc: &TraceLoc) -> Option<(FuncId, InstId)> {
    let fid = m.function_by_name(function)?;
    let f = m.function(fid);
    let file_id = (0..m.files().len() as u32)
        .map(pmir::FileId)
        .find(|&fi| m.file_name(fi) == &*loc.file)?;
    for (_, i) in f.linked_insts() {
        let inst = f.inst(i);
        if !inst.op.is_pm_storeish() {
            continue;
        }
        if let Some(l) = inst.loc {
            if l.file == file_id && l.line == loc.line {
                return Some((fid, i));
            }
        }
    }
    None
}

/// Localizes one bug: resolves the store (preferring the structural
/// [`IrRef`], falling back to the source location) and the call path from
/// the recorded stack.
///
/// # Errors
///
/// Fails when neither the structural reference nor the source location
/// resolves, or the stack is inconsistent with the module.
pub fn locate(m: &Module, bug: &Bug) -> Result<BugSite, LocateError> {
    let (func, store) = bug
        .store_at
        .as_ref()
        .and_then(|at| resolve_ir_ref(m, at))
        .or_else(|| {
            let loc = bug.store_loc.as_ref()?;
            let f = bug.stack.first().map(|f| &*f.function)?;
            find_store_by_loc(m, f, loc)
        })
        .ok_or_else(|| LocateError {
            message: format!(
                "cannot resolve store for bug at {:?} / {:?}",
                bug.store_at, bug.store_loc
            ),
        })?;
    // Validate the resolved instruction is store-like.
    if !m.function(func).inst(store).op.is_pm_storeish() {
        return Err(LocateError {
            message: format!(
                "resolved instruction {:?} in `{}` is not a store",
                store,
                m.function(func).name()
            ),
        });
    }
    let call_path = call_path_of(m, &bug.stack)?;
    Ok(BugSite {
        func,
        store,
        call_path,
        i_func: None,
    })
}

/// Extracts the call path `(caller function, call instruction)` for each
/// non-innermost frame of a stack.
///
/// # Errors
///
/// Fails if a frame references an unknown function or instruction.
pub fn call_path_of(m: &Module, stack: &[Frame]) -> Result<Vec<(FuncId, InstId)>, LocateError> {
    let mut path = vec![];
    for fr in stack.iter().skip(1) {
        let f = m
            .function_by_name(&fr.function)
            .ok_or_else(|| LocateError {
                message: format!("stack frame names unknown function `{}`", fr.function),
            })?;
        let Some(ci) = fr.call_inst else {
            return Err(LocateError {
                message: format!("frame `{}` lacks a call instruction", fr.function),
            });
        };
        if ci as usize >= m.function(f).inst_count() {
            return Err(LocateError {
                message: format!("frame `{}` call inst {ci} out of range", fr.function),
            });
        }
        if !matches!(m.function(f).inst(InstId(ci)).op, Op::Call { .. }) {
            return Err(LocateError {
                message: format!("frame `{}` inst {ci} is not a call", fr.function),
            });
        }
        path.push((f, InstId(ci)));
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcheck::run_and_check;
    use pmvm::VmOptions;

    fn buggy_module() -> Module {
        let src = r#"
            fn write(p: ptr) {
                store8(p, 0, 1);
            }
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                write(p);
            }
        "#;
        pmlang::compile_one("t.pmc", src).unwrap()
    }

    #[test]
    fn locates_via_ir_ref() {
        let m = buggy_module();
        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert_eq!(checked.report.bugs.len(), 1);
        let site = locate(&m, &checked.report.bugs[0]).unwrap();
        assert_eq!(m.function(site.func).name(), "write");
        assert!(m.function(site.func).inst(site.store).op.is_pm_storeish());
        assert_eq!(site.call_path.len(), 1);
        assert_eq!(m.function(site.call_path[0].0).name(), "main");
    }

    #[test]
    fn locates_via_source_loc_fallback() {
        let m = buggy_module();
        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        let mut bug = checked.report.bugs[0].clone();
        bug.store_at = None; // wipe the structural ref: force the fallback
        let site = locate(&m, &bug).unwrap();
        assert_eq!(m.function(site.func).name(), "write");
    }

    #[test]
    fn unresolvable_bug_errors() {
        let m = buggy_module();
        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        let mut bug = checked.report.bugs[0].clone();
        bug.store_at = Some(IrRef {
            function: "nonexistent".into(),
            inst: 0,
        });
        bug.store_loc = None;
        assert!(locate(&m, &bug).is_err());
    }

    #[test]
    fn non_store_ref_rejected() {
        let m = buggy_module();
        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        let mut bug = checked.report.bugs[0].clone();
        // Point the ref at instruction 0 of main (the pmem_map, not a store).
        let pm_inst = {
            let f = m.function_by_name("main").unwrap();
            let func = m.function(f);
            func.linked_insts()
                .find(|&(_, i)| matches!(func.inst(i).op, Op::PmemMap { .. }))
                .unwrap()
                .1
        };
        bug.store_at = Some(IrRef {
            function: "main".into(),
            inst: pm_inst.0,
        });
        bug.store_loc = None;
        let err = locate(&m, &bug).unwrap_err();
        assert!(err.message.contains("not a store"), "{err}");
    }
}
