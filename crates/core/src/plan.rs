//! Intraprocedural fix planning, fix reduction, and fix application
//! (paper §4.2.1–§4.2.3 and §4.3 phase 2).

use crate::locate::BugSite;
use crate::options::{RepairOptions, FIX_FENCE, FIX_FLUSH};
use pmcheck::{Bug, BugKind};
use pmir::{rewrite, FuncId, FunctionBuilder, InstId, Module, Op, Type};
use pmtrace::{EventKind, Trace};
use std::collections::HashMap;

/// Name of the synthesized range-flush helper (the analog of the
/// `pmem_flush` loop PMDK fixes call; the engine inserts calls to it after
/// `memcpy`/`memset`-shaped stores whose length is dynamic).
pub const FLUSH_RANGE_HELPER: &str = "__hippocrates_flush_range";

/// One reduced intraprocedural fix, anchored at an instruction.
#[derive(Debug, Clone)]
pub struct IntraFix {
    /// Containing function.
    pub func: FuncId,
    /// The anchor: the store to flush, or (for pure fence fixes) the flush
    /// instruction to fence.
    pub anchor: InstId,
    /// Insert a flush covering the anchor store.
    pub insert_flush: bool,
    /// Insert a fence ordering the flush.
    pub insert_fence: bool,
    /// The bug sites merged into this fix (fix reduction can merge several).
    pub sites: Vec<BugSite>,
    /// The bug kinds merged in (for reporting).
    pub kinds: Vec<BugKind>,
}

/// Plans intraprocedural fixes for the located bugs, applying fix reduction:
/// fixes sharing an anchor are merged (redundant flushes/fences collapse,
/// §4.3 phase 2).
pub fn plan_intra_fixes(m: &Module, trace: &Trace, bugs: &[(Bug, BugSite)]) -> Vec<IntraFix> {
    let mut by_anchor: HashMap<(FuncId, InstId), IntraFix> = HashMap::new();
    let mut order: Vec<(FuncId, InstId)> = vec![];
    for (bug, site) in bugs {
        let (func, anchor, insert_flush, insert_fence) = match bug.kind {
            BugKind::MissingFlush => (site.func, site.store, true, false),
            BugKind::MissingFlushFence => (site.func, site.store, true, true),
            BugKind::MissingFence => {
                // Anchor the fence at the flush that covered the store, so
                // the inserted fence orders exactly that flush
                // (X -> F(X) -> M). Falls back to a full flush+fence at the
                // store when the flush cannot be identified.
                match find_covering_flush(m, trace, bug) {
                    Some((f, fl)) => (f, fl, false, true),
                    None => (site.func, site.store, true, true),
                }
            }
        };
        let key = (func, anchor);
        match by_anchor.get_mut(&key) {
            Some(fix) => {
                fix.insert_flush |= insert_flush;
                fix.insert_fence |= insert_fence;
                fix.sites.push(site.clone());
                fix.kinds.push(bug.kind);
            }
            None => {
                order.push(key);
                by_anchor.insert(
                    key,
                    IntraFix {
                        func,
                        anchor,
                        insert_flush,
                        insert_fence,
                        sites: vec![site.clone()],
                        kinds: vec![bug.kind],
                    },
                );
            }
        }
    }
    order
        .into_iter()
        .map(|k| by_anchor.remove(&k).expect("keyed"))
        .collect()
}

/// Finds the flush instruction that covered `bug`'s store in the trace (the
/// first flush after the store whose line intersects the store's range).
fn find_covering_flush(m: &Module, trace: &Trace, bug: &Bug) -> Option<(FuncId, InstId)> {
    const LINE: u64 = 64;
    let lo = bug.addr & !(LINE - 1);
    let hi = bug.addr + bug.len.max(1);
    for e in &trace.events {
        if e.seq <= bug.store_seq {
            continue;
        }
        if let EventKind::Flush { addr, .. } = e.kind {
            let line = addr & !(LINE - 1);
            if line >= lo && line < hi {
                let at = e.at.as_ref()?;
                let f = m.function_by_name(&at.function)?;
                if (at.inst as usize) < m.function(f).inst_count()
                    && matches!(m.function(f).inst(InstId(at.inst)).op, Op::Flush { .. })
                {
                    return Some((f, InstId(at.inst)));
                }
            }
        }
    }
    None
}

/// Ensures the range-flush helper exists in the module; returns its id.
///
/// The helper flushes every cache line in `[p, p+len)` by issuing a flush at
/// `p`, `p+64`, …, and at `p+len-1` (the endpoint covers a trailing
/// unaligned line).
pub fn ensure_flush_range_helper(m: &mut Module) -> FuncId {
    if let Some(f) = m.function_by_name(FLUSH_RANGE_HELPER) {
        return f;
    }
    let f = m.declare_function(
        FLUSH_RANGE_HELPER,
        vec![Type::Ptr, Type::int(8)],
        Type::Void,
    );
    // Synthesized code still carries a (pseudo-file) source location so
    // downstream diagnostics never go blind inside an inserted fix.
    let file = m.intern_file(format!("<{FLUSH_RANGE_HELPER}>"));
    let mut b = FunctionBuilder::new(m, f);
    b.set_loc(pmir::SrcLoc {
        file,
        line: 1,
        col: 1,
    });
    let entry = b.entry_block();
    let init = b.new_block("init");
    let header = b.new_block("header");
    let body = b.new_block("body");
    let tail = b.new_block("tail");
    let exit = b.new_block("exit");

    b.switch_to(entry);
    let p = b.arg(0);
    let len = b.arg(1);
    let empty = b.cmp(pmir::CmpPred::SLe, len, 0i64);
    b.cond_br(empty, exit, init);

    b.switch_to(init);
    let islot = b.alloca(8);
    b.store(Type::int(8), islot, 0i64);
    b.br(header);

    b.switch_to(header);
    let i = b.load(Type::int(8), islot);
    let more = b.cmp(pmir::CmpPred::SLt, i, len);
    b.cond_br(more, body, tail);

    b.switch_to(body);
    let i2 = b.load(Type::int(8), islot);
    let addr = b.gep(p, i2);
    b.flush(FIX_FLUSH, addr);
    let next = b.bin(pmir::BinOp::Add, i2, 64i64);
    b.store(Type::int(8), islot, next);
    b.br(header);

    b.switch_to(tail);
    let last = b.bin(pmir::BinOp::Sub, len, 1i64);
    let addr2 = b.gep(p, last);
    b.flush(FIX_FLUSH, addr2);
    b.br(exit);

    b.switch_to(exit);
    b.ret(None);
    b.finish();
    f
}

/// Inserts a flush covering the store-like instruction `store` in function
/// `func`, immediately after it. Returns the instruction to anchor a
/// following fence at.
///
/// Plain stores get a single flush of their address; `memcpy`/`memset` get a
/// call to the range-flush helper (their extent is dynamic).
///
/// # Panics
///
/// Panics if `store` is not a store-like instruction.
pub fn insert_flush_after_store(
    m: &mut Module,
    func: FuncId,
    store: InstId,
    opts: &RepairOptions,
) -> InstId {
    let op = m.function(func).inst(store).op.clone();
    let loc = m.function(func).inst(store).loc;
    match op {
        Op::Store { addr, ty, .. } if opts.portable_fixes => {
            // §6.2 extension: a runtime-dispatched flush call instead of a
            // raw CLWB, like the PMDK developers' portable fixes.
            let helper = ensure_flush_range_helper(m);
            rewrite::insert_after(
                m.function_mut(func),
                store,
                Op::Call {
                    callee: helper,
                    args: vec![addr, pmir::Operand::Const(ty.size() as i64)],
                },
                loc,
            )
        }
        Op::Store { addr, .. } => rewrite::insert_after(
            m.function_mut(func),
            store,
            Op::Flush {
                kind: FIX_FLUSH,
                addr,
            },
            loc,
        ),
        Op::Memcpy { dst, len, .. } | Op::Memset { dst, len, .. } => {
            let helper = ensure_flush_range_helper(m);
            rewrite::insert_after(
                m.function_mut(func),
                store,
                Op::Call {
                    callee: helper,
                    args: vec![dst, len],
                },
                loc,
            )
        }
        other => panic!("insert_flush_after_store: not a store: {other:?}"),
    }
}

/// Applies one reduced intraprocedural fix. Returns `(flush_inst,
/// fence_inst)` for reporting.
pub fn apply_intra_fix(
    m: &mut Module,
    fix: &IntraFix,
    opts: &RepairOptions,
) -> (Option<InstId>, Option<InstId>) {
    let mut fence_anchor = fix.anchor;
    let mut flush_inst = None;
    if fix.insert_flush {
        let fl = insert_flush_after_store(m, fix.func, fix.anchor, opts);
        fence_anchor = fl;
        flush_inst = Some(fl);
    }
    let mut fence_inst = None;
    if fix.insert_fence {
        let loc = m.function(fix.func).inst(fence_anchor).loc;
        let fe = rewrite::insert_after(
            m.function_mut(fix.func),
            fence_anchor,
            Op::Fence { kind: FIX_FENCE },
            loc,
        );
        fence_inst = Some(fe);
    }
    (flush_inst, fence_inst)
}

/// Collects the set of store instructions observed modifying PM in the
/// trace, per function — the "stores that modify persistent memory" the
/// persistent-subprogram transformation must flush (§4.2.4).
pub fn pm_store_refs(m: &Module, trace: &Trace) -> std::collections::HashSet<(FuncId, InstId)> {
    let mut out = std::collections::HashSet::new();
    for e in &trace.events {
        if matches!(e.kind, EventKind::Store { .. }) {
            if let Some(at) = &e.at {
                if let Some(f) = m.function_by_name(&at.function) {
                    if (at.inst as usize) < m.function(f).inst_count() {
                        out.insert((f, InstId(at.inst)));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locate::locate;
    use pmcheck::run_and_check;
    use pmvm::VmOptions;

    fn check(src: &str) -> (Module, Trace, pmcheck::CheckReport) {
        let m = pmlang::compile_one("t.pmc", src).unwrap();
        let c = run_and_check(&m, "main", VmOptions::default()).unwrap();
        (m, c.trace, c.report)
    }

    #[test]
    fn plans_flush_fence_for_missing_both() {
        let (m, trace, report) =
            check("fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); }");
        let located: Vec<_> = report
            .deduped_bugs()
            .into_iter()
            .map(|b| (b.clone(), locate(&m, b).unwrap()))
            .collect();
        let fixes = plan_intra_fixes(&m, &trace, &located);
        assert_eq!(fixes.len(), 1);
        assert!(fixes[0].insert_flush && fixes[0].insert_fence);
    }

    #[test]
    fn plans_fence_at_existing_flush() {
        let (m, trace, report) =
            check("fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); clwb(p); }");
        let located: Vec<_> = report
            .deduped_bugs()
            .into_iter()
            .map(|b| (b.clone(), locate(&m, b).unwrap()))
            .collect();
        let fixes = plan_intra_fixes(&m, &trace, &located);
        assert_eq!(fixes.len(), 1);
        let fix = &fixes[0];
        assert!(!fix.insert_flush && fix.insert_fence);
        // Anchored at the existing clwb.
        assert!(matches!(
            m.function(fix.func).inst(fix.anchor).op,
            Op::Flush { .. }
        ));
    }

    #[test]
    fn reduction_merges_same_anchor() {
        // Two crash points report the same unflushed store twice (distinct
        // Bug entries before dedup); reduction yields one fix.
        let (m, trace, report) = check(
            "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); crashpoint(); crashpoint(); }",
        );
        let located: Vec<_> = report
            .bugs
            .iter()
            .map(|b| (b.clone(), locate(&m, b).unwrap()))
            .collect();
        assert!(located.len() >= 2);
        let fixes = plan_intra_fixes(&m, &trace, &located);
        assert_eq!(fixes.len(), 1, "fix reduction merges duplicates");
        assert!(fixes[0].sites.len() >= 2);
    }

    #[test]
    fn apply_fix_produces_clean_module() {
        let (mut m, trace, report) =
            check("fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); }");
        let located: Vec<_> = report
            .deduped_bugs()
            .into_iter()
            .map(|b| (b.clone(), locate(&m, b).unwrap()))
            .collect();
        let fixes = plan_intra_fixes(&m, &trace, &located);
        let opts = RepairOptions::default();
        for fix in &fixes {
            apply_intra_fix(&mut m, fix, &opts);
        }
        pmir::verify::verify_module(&m).unwrap();
        let c = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert!(c.report.is_clean(), "{}", c.report.render());
    }

    #[test]
    fn memcpy_fix_uses_range_helper_and_cleans() {
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                var src: ptr = alloc(256);
                memcpy(p, src, 200); // spans 4 cache lines
            }
        "#;
        let (mut m, trace, report) = check(src);
        assert_eq!(report.deduped_bugs().len(), 1);
        let located: Vec<_> = report
            .deduped_bugs()
            .into_iter()
            .map(|b| (b.clone(), locate(&m, b).unwrap()))
            .collect();
        let fixes = plan_intra_fixes(&m, &trace, &located);
        let opts = RepairOptions::default();
        for fix in &fixes {
            apply_intra_fix(&mut m, fix, &opts);
        }
        pmir::verify::verify_module(&m).unwrap();
        assert!(m.function_by_name(FLUSH_RANGE_HELPER).is_some());
        let c = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert!(c.report.is_clean(), "{}", c.report.render());
    }

    #[test]
    fn helper_flushes_unaligned_trailing_line() {
        // Start the copy at an unaligned PM offset so the endpoint flush
        // matters.
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                var src: ptr = alloc(64);
                memcpy(p + 60, src, 8); // spans the line boundary at 64
            }
        "#;
        let (mut m, trace, report) = check(src);
        let located: Vec<_> = report
            .deduped_bugs()
            .into_iter()
            .map(|b| (b.clone(), locate(&m, b).unwrap()))
            .collect();
        let fixes = plan_intra_fixes(&m, &trace, &located);
        let opts = RepairOptions::default();
        for fix in &fixes {
            apply_intra_fix(&mut m, fix, &opts);
        }
        let c = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert!(c.report.is_clean(), "{}", c.report.render());
    }

    #[test]
    fn pm_store_refs_collects_trace_stores() {
        let (m, trace, _) = check(
            "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); store8(p, 64, 2); }",
        );
        let refs = pm_store_refs(&m, &trace);
        assert_eq!(refs.len(), 2);
    }
}

#[cfg(test)]
mod portable_tests {
    use super::*;
    use crate::{Hippocrates, RepairOptions};
    use pmcheck::run_and_check;
    use pmvm::VmOptions;

    #[test]
    fn portable_fixes_insert_helper_calls() {
        let src = "fn main() { var p: ptr = pmem_map(0, 4096); store8(p, 0, 1); }";
        let mut m = pmlang::compile_one("t.pmc", src).unwrap();
        let outcome = Hippocrates::new(RepairOptions {
            portable_fixes: true,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main")
        .unwrap();
        assert!(outcome.clean);
        // The fix is a call to the range-flush helper, not a raw clwb.
        let helper = m
            .function_by_name(FLUSH_RANGE_HELPER)
            .expect("helper exists");
        let main = m.function_by_name("main").unwrap();
        let f = m.function(main);
        let calls_helper = f
            .linked_insts()
            .any(|(_, i)| matches!(f.inst(i).op, Op::Call { callee, .. } if callee == helper));
        let raw_clwb = f
            .linked_insts()
            .any(|(_, i)| matches!(f.inst(i).op, Op::Flush { .. }));
        assert!(calls_helper && !raw_clwb);
        let c = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert!(c.report.is_clean(), "{}", c.report.render());
    }

    #[test]
    fn portable_and_direct_fixes_behave_identically() {
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 5);
                print(load8(p, 0));
            }
        "#;
        let run = |portable: bool| {
            let mut m = pmlang::compile_one("t.pmc", src).unwrap();
            Hippocrates::new(RepairOptions {
                portable_fixes: portable,
                ..RepairOptions::default()
            })
            .repair_until_clean(&mut m, "main")
            .unwrap();
            pmvm::Vm::new(VmOptions::default())
                .run(&m, "main")
                .unwrap()
                .output
        };
        assert_eq!(run(false), run(true));
    }
}
