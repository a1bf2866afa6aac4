//! The hoisting heuristic and the persistent-subprogram transformation
//! (paper §4.2.4 and §4.3 phase 3).

use crate::locate::BugSite;
use crate::options::{RepairOptions, FIX_FENCE};
use crate::plan::insert_flush_after_store;
use pmalias::{AliasAnalysis, PmMarking};
use pmir::{rewrite, FuncId, InstId, Module, Op, Operand};
use std::collections::{HashMap, HashSet};

/// The score assigned to candidate sites that must never be chosen (call
/// sites without pointer arguments, and everything above them).
pub const NEG_INF: i64 = i64::MIN;

/// The outcome of scoring one bug's candidate fix locations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoistDecision {
    /// Chosen depth: `0` keeps the intraprocedural fix; `k > 0` roots the
    /// persistent subprogram at the `k`-th function up the call path and
    /// retargets the call site in the `k`-th caller.
    pub depth: usize,
    /// `(depth, score)` for every candidate considered, in depth order.
    pub scores: Vec<(usize, i64)>,
}

/// The chain of functions on a bug's call path: `chain[0]` contains the
/// store; `chain[i]` is the `i`-th caller.
pub fn func_chain(site: &BugSite) -> Vec<FuncId> {
    let mut chain = vec![site.func];
    chain.extend(site.call_path.iter().map(|&(f, _)| f));
    chain
}

/// Scores every candidate fix location for `site` and picks the best
/// (highest score; ties break toward the innermost candidate, i.e. the
/// intraprocedural fix).
///
/// Candidates stop below the function containing the durability requirement
/// `I` (`site.i_func`): the subprogram may not be rooted at `I`'s function
/// or its callers (§4.2.4). A call site that passes no pointer arguments
/// scores −∞, as do all of its parents (§4.3).
pub fn choose_fix_site(
    m: &Module,
    aa: &AliasAnalysis,
    marking: &PmMarking,
    site: &BugSite,
) -> HoistDecision {
    let chain = func_chain(site);
    // Highest legal subprogram root: strictly below I's function.
    let limit = match site.i_func {
        Some(i_func) => chain
            .iter()
            .position(|&f| f == i_func)
            .unwrap_or(chain.len() - 1),
        None => site.call_path.len(),
    }
    .min(site.call_path.len());

    let mut scores = vec![(0usize, score_store(m, aa, marking, site))];
    let mut poisoned = false;
    for k in 1..=limit {
        let (cf, ci) = site.call_path[k - 1];
        let s = if poisoned {
            NEG_INF
        } else {
            match score_call_site(m, aa, marking, cf, ci) {
                Some(s) => s,
                None => {
                    poisoned = true;
                    NEG_INF
                }
            }
        };
        scores.push((k, s));
    }

    let mut best = scores[0];
    for &(k, s) in &scores[1..] {
        if s > best.1 {
            best = (k, s);
        }
    }
    HoistDecision {
        depth: best.0,
        scores,
    }
}

/// Scores the intraprocedural candidate: the store's pointer operand.
fn score_store(m: &Module, aa: &AliasAnalysis, marking: &PmMarking, site: &BugSite) -> i64 {
    let f = m.function(site.func);
    let ptr = match &f.inst(site.store).op {
        Op::Store { addr, .. } => *addr,
        Op::Memcpy { dst, .. } | Op::Memset { dst, .. } => *dst,
        _ => return 0,
    };
    match ptr {
        Operand::Value(v) => marking.score(aa, site.func, v),
        _ => 0,
    }
}

/// Scores a call-site candidate: the sum over its pointer arguments;
/// `None` when the call passes no pointer arguments (the −∞ rule).
fn score_call_site(
    m: &Module,
    aa: &AliasAnalysis,
    marking: &PmMarking,
    cf: FuncId,
    ci: InstId,
) -> Option<i64> {
    let f = m.function(cf);
    let Op::Call { args, .. } = &f.inst(ci).op else {
        return None;
    };
    let ptr_args: Vec<pmir::ValueId> = args
        .iter()
        .filter_map(|a| a.as_value())
        .filter(|&v| f.value(v).ty.is_ptr())
        .collect();
    if ptr_args.is_empty() {
        return None;
    }
    Some(ptr_args.iter().map(|&v| marking.score(aa, cf, v)).sum())
}

/// Mutable state shared across persistent-subprogram transformations, so
/// clones are reused (§4.2.4: `update_PM` is created once and shared).
#[derive(Debug, Default)]
pub struct CloneState {
    /// original function -> its persistent clone.
    pub clones: HashMap<FuncId, FuncId>,
    /// `(clone, store)` pairs already flushed.
    flushed: HashSet<(FuncId, InstId)>,
    /// call sites already retargeted and fenced.
    retargeted: HashSet<(FuncId, InstId)>,
    fresh_counter: u32,
}

/// The result of one persistent-subprogram transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoistApplied {
    /// Name of the subprogram root's persistent clone.
    pub root_clone: String,
    /// How many frames above the store the fix landed.
    pub levels: usize,
    /// Number of new function clones created (0 when fully reused).
    pub clones_created: usize,
}

impl CloneState {
    /// Seeds the state from clones already present in the module (created
    /// by earlier repair iterations), so subprogram reuse spans the whole
    /// detect→fix→verify loop as in §4.2.4.
    pub fn discover(m: &Module) -> Self {
        let mut state = CloneState::default();
        for (id, f) in m.functions() {
            if let Some(orig) = &f.persistent_clone_of {
                if let Some(orig_id) = m.function_by_name(orig) {
                    // Keep the first (canonical) clone per original.
                    state.clones.entry(orig_id).or_insert(id);
                }
            }
        }
        state
    }

    fn clone_of(
        &mut self,
        m: &mut Module,
        orig: FuncId,
        opts: &RepairOptions,
        created: &mut usize,
    ) -> FuncId {
        if opts.reuse_subprograms {
            if let Some(&c) = self.clones.get(&orig) {
                return c;
            }
        }
        let base = format!("{}_PM", m.function(orig).name());
        let name = if m.function_by_name(&base).is_none() {
            base
        } else {
            loop {
                self.fresh_counter += 1;
                let candidate = format!("{base}.{}", self.fresh_counter);
                if m.function_by_name(&candidate).is_none() {
                    break candidate;
                }
            }
        };
        let c = rewrite::clone_function(m, orig, &name);
        *created += 1;
        if opts.reuse_subprograms {
            self.clones.insert(orig, c);
        }
        c
    }
}

/// Applies the persistent-subprogram transformation for `site` at `depth`
/// (which must be ≥ 1 and ≤ `site.call_path.len()`).
///
/// Clones the functions `chain[0..depth]` (reusing existing clones), inserts
/// a flush after every trace-observed PM store inside the clones, retargets
/// the internal calls along the path, retargets the chosen call site to the
/// cloned root, and places a single fence after that call site (§4.2.4).
///
/// # Panics
///
/// Panics if `depth` is out of range.
pub fn apply_hoist(
    m: &mut Module,
    site: &BugSite,
    depth: usize,
    pm_stores: &HashSet<(FuncId, InstId)>,
    state: &mut CloneState,
    opts: &RepairOptions,
) -> HoistApplied {
    assert!(
        depth >= 1 && depth <= site.call_path.len(),
        "depth out of range"
    );
    let chain = func_chain(site);
    let mut created = 0usize;

    // Clone the subprogram chain.
    let clones: Vec<FuncId> = chain[..depth]
        .iter()
        .map(|&f| state.clone_of(m, f, opts, &mut created))
        .collect();

    // Flush every observed PM store inside each cloned function.
    for (i, &orig) in chain[..depth].iter().enumerate() {
        let clone = clones[i];
        let stores: Vec<InstId> = pm_stores
            .iter()
            .filter(|&&(f, _)| f == orig)
            .map(|&(_, st)| st)
            .collect();
        for st in stores {
            if state.flushed.insert((clone, st)) && !has_flush_after(m, clone, st) {
                insert_flush_after_store(m, clone, st, opts);
            }
        }
    }

    // Retarget the internal calls along the path: in clone[i], the call that
    // entered chain[i-1] must now enter clones[i-1].
    for i in 1..depth {
        let (_, call_inst) = site.call_path[i - 1];
        rewrite::retarget_call(m.function_mut(clones[i]), call_inst, clones[i - 1]);
    }

    // Retarget the chosen call site and fence it.
    let (cf, ci) = site.call_path[depth - 1];
    let root = clones[depth - 1];
    rewrite::retarget_call(m.function_mut(cf), ci, root);
    if state.retargeted.insert((cf, ci)) && !has_fence_after(m, cf, ci) {
        let loc = m.function(cf).inst(ci).loc;
        rewrite::insert_after(m.function_mut(cf), ci, Op::Fence { kind: FIX_FENCE }, loc);
    }

    HoistApplied {
        root_clone: m.function(root).name().to_string(),
        levels: depth,
        clones_created: created,
    }
}

/// Whether the instruction right after `store` in its block already flushes
/// it (a raw flush or a call to the range-flush helper) — makes repeated
/// hoists through a reused clone idempotent across repair iterations.
fn has_flush_after(m: &Module, func: FuncId, store: InstId) -> bool {
    let f = m.function(func);
    let Some((block, idx)) = f.find_inst_pos(store) else {
        return false;
    };
    let Some(&next) = f.block(block).insts.get(idx + 1) else {
        return false;
    };
    match &f.inst(next).op {
        Op::Flush { .. } => true,
        Op::Call { callee, .. } => m.function(*callee).name() == crate::plan::FLUSH_RANGE_HELPER,
        _ => false,
    }
}

/// Whether the instruction right after `call` is already a fence.
fn has_fence_after(m: &Module, func: FuncId, call: InstId) -> bool {
    let f = m.function(func);
    let Some((block, idx)) = f.find_inst_pos(call) else {
        return false;
    };
    f.block(block)
        .insts
        .get(idx + 1)
        .is_some_and(|&next| matches!(f.inst(next).op, Op::Fence { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locate::locate;
    use crate::plan::pm_store_refs;
    use pmcheck::run_and_check;
    use pmvm::VmOptions;

    /// The paper's Listing 5/6 program: `update` is shared between a hot
    /// volatile path and a PM path.
    const LISTING: &str = r#"
        fn update(addr: ptr, idx: int, val: int) {
            store1(addr, idx, val);
        }
        fn modify(addr: ptr) {
            update(addr, 0, 1);
        }
        fn main() {
            var vol_addr: ptr = alloc(4096);
            var pm_addr: ptr = pmem_map(0, 4096);
            var i: int = 0;
            while (i < 50) {
                modify(vol_addr);
                i = i + 1;
            }
            modify(pm_addr);
        }
    "#;

    #[test]
    fn chooses_the_modify_call_site() {
        let m = pmlang::compile_one("l5.pmc", LISTING).unwrap();
        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert_eq!(checked.report.deduped_bugs().len(), 1);
        let bug = checked.report.deduped_bugs()[0].clone();
        let mut site = locate(&m, &bug).unwrap();
        // ProgramEnd: I lives in main (outermost frame).
        site.i_func = m.function_by_name("main");
        let aa = AliasAnalysis::analyze(&m);
        let marking = PmMarking::full(&aa);
        let d = choose_fix_site(&m, &aa, &marking, &site);
        // Candidates: store (0), call update in modify (0), call modify in
        // main (+1) -> hoist two levels.
        assert_eq!(
            d.scores.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
            vec![0, 0, 1]
        );
        assert_eq!(d.depth, 2);
    }

    #[test]
    fn hoist_transform_produces_clean_fast_module() {
        let mut m = pmlang::compile_one("l5.pmc", LISTING).unwrap();
        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        let bug = checked.report.deduped_bugs()[0].clone();
        let mut site = locate(&m, &bug).unwrap();
        site.i_func = m.function_by_name("main");
        let pm_stores = pm_store_refs(&m, &checked.trace);
        let opts = RepairOptions::default();
        let mut state = CloneState::default();
        let applied = apply_hoist(&mut m, &site, 2, &pm_stores, &mut state, &opts);
        assert_eq!(applied.levels, 2);
        assert_eq!(applied.clones_created, 2); // update_PM and modify_PM
        assert_eq!(applied.root_clone, "modify_PM");
        pmir::verify::verify_module(&m).unwrap();

        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert!(checked.report.is_clean(), "{}", checked.report.render());
        // Only the PM path flushes: exactly 1 flush, 1 fence.
        assert_eq!(checked.run.stats.pm_flushes, 1);
        assert_eq!(checked.run.stats.volatile_flushes, 0);
        assert_eq!(checked.run.stats.fences, 1);
    }

    #[test]
    fn clone_reuse_across_bugs() {
        // Two distinct PM paths through the same helper: the second hoist
        // reuses update_PM.
        let src = r#"
            fn update(addr: ptr, idx: int, val: int) {
                store1(addr, idx, val);
            }
            fn main() {
                var a: ptr = pmem_map(0, 4096);
                var b: ptr = pmem_map(1, 4096);
                update(a, 0, 1);
                update(b, 0, 2);
            }
        "#;
        let mut m = pmlang::compile_one("r.pmc", src).unwrap();
        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        let bugs: Vec<_> = checked.report.deduped_bugs().into_iter().cloned().collect();
        assert_eq!(bugs.len(), 1, "one store, reported once after dedup");
        // Two *sites* exist (two stacks); fix both paths explicitly.
        let pm_stores = pm_store_refs(&m, &checked.trace);
        let opts = RepairOptions::default();
        let mut state = CloneState::default();
        // Collect per-event sites (the same store via two call sites).
        let mut sites = vec![];
        for e in &checked.trace.events {
            if matches!(e.kind, pmtrace::EventKind::Store { .. }) {
                let fake_bug = pmcheck::Bug {
                    kind: pmcheck::BugKind::MissingFlushFence,
                    addr: 0,
                    len: 8,
                    store_at: e.at.clone(),
                    store_loc: e.loc.clone(),
                    stack: e.stack.clone(),
                    store_seq: e.seq,
                    checkpoint: pmcheck::Checkpoint::ProgramEnd,
                    unflushed_lines: vec![],
                };
                sites.push(locate(&m, &fake_bug).unwrap());
            }
        }
        assert_eq!(sites.len(), 2);
        let a1 = apply_hoist(&mut m, &sites[0], 1, &pm_stores, &mut state, &opts);
        let a2 = apply_hoist(&mut m, &sites[1], 1, &pm_stores, &mut state, &opts);
        assert_eq!(a1.clones_created, 1);
        assert_eq!(a2.clones_created, 0, "second hoist reuses update_PM");
        pmir::verify::verify_module(&m).unwrap();
        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert!(checked.report.is_clean(), "{}", checked.report.render());
    }

    #[test]
    fn no_pointer_arg_call_site_poisons_parents() {
        let src = r#"
            fn leaf() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
            }
            fn mid() { leaf(); }
            fn main() { mid(); }
        "#;
        let m = pmlang::compile_one("n.pmc", src).unwrap();
        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        let bug = checked.report.deduped_bugs()[0].clone();
        let mut site = locate(&m, &bug).unwrap();
        site.i_func = m.function_by_name("main");
        let aa = AliasAnalysis::analyze(&m);
        let marking = PmMarking::full(&aa);
        let d = choose_fix_site(&m, &aa, &marking, &site);
        assert_eq!(d.depth, 0, "no-arg call sites force the intraproc fix");
        assert!(d.scores[1..].iter().all(|&(_, s)| s == NEG_INF));
    }

    #[test]
    fn i_func_limits_candidates() {
        // The crash point is inside `mid`, so the subprogram cannot be
        // rooted at `mid` or `main` — only the leaf store or the call to
        // `leaf` inside `mid` qualify... rooting at leaf means retargeting
        // the call site in mid (depth 1); depth 2 would root at mid itself
        // which is I's function, so it is excluded.
        let src = r#"
            fn leaf(p: ptr) { store8(p, 0, 1); }
            fn mid(p: ptr) {
                leaf(p);
                crashpoint();
            }
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                mid(p);
            }
        "#;
        let m = pmlang::compile_one("i.pmc", src).unwrap();
        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        let bug = checked
            .report
            .bugs
            .iter()
            .find(|b| matches!(b.checkpoint, pmcheck::Checkpoint::CrashPoint(_)))
            .unwrap()
            .clone();
        let mut site = locate(&m, &bug).unwrap();
        site.i_func = m.function_by_name("mid");
        let aa = AliasAnalysis::analyze(&m);
        let marking = PmMarking::full(&aa);
        let d = choose_fix_site(&m, &aa, &marking, &site);
        // Depths considered: 0 (store) and 1 (call in mid). Never 2.
        assert_eq!(d.scores.len(), 2);
    }
}
