//! The forward abstract interpretation: per-function fixpoint over the CFG,
//! bottom-up summary computation, and report emission.

use crate::fact::{Fact, FactKey, PState, State};
use crate::loc::{const_of, rebase, Loc, Resolver};
use crate::summary::{cover_interval, Extent, FlushEff, FnSummary, ResidualFact};
use pmalias::{AliasAnalysis, ObjKind};
use pmcheck::{Bug, BugKind, CheckReport, Checkpoint, Provenance};
use pmir::cfg::{Cfg, Dominators};
use pmir::{BlockId, FuncId, InstId, Module, Op, Operand};
use pmtrace::{IrRef, TraceLoc};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// How strongly a flush effect covers a tracked store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cover {
    /// Provably not covered (structural bases match and the line ranges are
    /// disjoint, or no aliasing at all).
    No,
    /// Possibly covered; the checker optimistically treats the store as
    /// flushed (matching the dynamic checker on the executions it sees).
    May,
    /// Provably covered: same structural base, constant offsets, and the
    /// store's range lies inside the flush's line-rounded range.
    Must,
}

/// The static persistency checker: alias facts plus converged bottom-up
/// function summaries over a module.
pub struct StaticChecker<'m> {
    m: &'m Module,
    alias: AliasAnalysis,
    summaries: HashMap<FuncId, FnSummary>,
    fixpoint_rounds: u64,
    summaries_computed: u64,
    sccs_widened: u64,
}

/// A failure to run the static checker (currently: unknown entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for StaticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "static check failed: {}", self.message)
    }
}

impl std::error::Error for StaticError {}

/// Collects diagnostics during the emission pass.
#[derive(Default)]
struct Sink {
    bugs: Vec<Bug>,
    redundant: Vec<pmcheck::bug::RedundantFlush>,
    next_checkpoint: u64,
    emitted: HashSet<((FuncId, InstId), BugKind, Checkpoint)>,
}

/// One function's flush-effect table: all effects the function's linked
/// instructions can apply, in block order, with per-instruction ranges.
struct EffTable {
    effs: Vec<FlushEff>,
    by_inst: HashMap<InstId, (usize, usize)>,
}

impl<'m> StaticChecker<'m> {
    /// Analyzes the module: points-to facts, then function summaries to a
    /// fixpoint, bottom-up over the strongly connected components of the
    /// call graph. Acyclic components need exactly one pass; (mutually)
    /// recursive groups iterate to a local fixpoint, and a group that fails
    /// to converge within the cap is *widened* to a sound pessimistic
    /// summary (no guaranteed flushes, no guaranteed fence, every residual
    /// store kept) instead of silently keeping an optimistic iterate.
    pub fn new(m: &'m Module) -> Self {
        let alias = AliasAnalysis::analyze(m);
        let mut checker = StaticChecker {
            m,
            alias,
            summaries: m.func_ids().map(|f| (f, FnSummary::default())).collect(),
            fixpoint_rounds: 0,
            summaries_computed: 0,
            sccs_widened: 0,
        };
        // Rounds a cyclic group may iterate before being widened. Recursive
        // groups whose rebased addresses drift each round (a helper that
        // recurses on `p + stride`) never syntactically converge; widening
        // cuts them off soundly.
        const SCC_ROUNDS_CAP: usize = 12;
        for scc in checker.call_sccs() {
            let cyclic = scc.len() > 1 || scc.iter().any(|&f| checker.callees(f).contains(&f));
            if !cyclic {
                let f = scc[0];
                checker.fixpoint_rounds += 1;
                let s = checker.summarize(f);
                checker.summaries_computed += 1;
                checker.summaries.insert(f, s);
                continue;
            }
            if !checker.iterate_scc(&scc, SCC_ROUNDS_CAP, false) {
                // Did not converge: widen every member to the pessimistic
                // form and re-iterate so residual facts settle against the
                // widened (flush-free) summaries. The widened form collapses
                // per-round address drift (locs drop to `None`), so this
                // inner fixpoint converges in a couple of passes.
                checker.sccs_widened += 1;
                for &f in &scc {
                    let widened = Self::widen(&checker.summaries[&f]);
                    checker.summaries.insert(f, widened);
                }
                checker.iterate_scc(&scc, SCC_ROUNDS_CAP, true);
            }
        }
        checker
    }

    /// Iterates one cyclic call-graph component to a local fixpoint.
    /// Returns whether it converged within `cap` rounds. With `widen` set,
    /// every computed summary is pessimized through [`Self::widen`] before
    /// being compared and stored.
    fn iterate_scc(&mut self, scc: &[FuncId], cap: usize, widen: bool) -> bool {
        for _ in 0..cap {
            self.fixpoint_rounds += 1;
            let mut changed = false;
            for &f in scc {
                let mut s = self.summarize(f);
                self.summaries_computed += 1;
                if widen {
                    s = Self::widen(&s);
                }
                if self.summaries[&f] != s {
                    self.summaries.insert(f, s);
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
        }
        false
    }

    /// The sound pessimistic form of a summary: callers may not rely on any
    /// flush or fence the group performs, and every residual store is kept
    /// with its per-origin facts collapsed (addresses and lengths dropped,
    /// states joined), so re-summarizing against widened callees cannot
    /// oscillate on rebased offsets.
    fn widen(s: &FnSummary) -> FnSummary {
        let mut by_origin: std::collections::BTreeMap<(FuncId, InstId), ResidualFact> =
            Default::default();
        for r in &s.residual {
            match by_origin.get_mut(&r.origin) {
                Some(w) => {
                    w.pts.extend(r.pts.iter().copied());
                    w.state = w.state.join(r.state);
                    w.fence_seen &= r.fence_seen;
                }
                None => {
                    by_origin.insert(
                        r.origin,
                        ResidualFact {
                            origin: r.origin,
                            loc: None,
                            pts: r.pts.clone(),
                            len: None,
                            state: r.state,
                            fence_seen: r.fence_seen,
                        },
                    );
                }
            }
        }
        FnSummary {
            flushes: vec![],
            fences_all_paths: false,
            has_checkpoint: s.has_checkpoint,
            residual: by_origin.into_values().collect(),
        }
    }

    /// How many rounds the bottom-up summary fixpoint ran before converging.
    pub fn fixpoint_rounds(&self) -> u64 {
        self.fixpoint_rounds
    }

    /// How many per-function summaries were (re)computed across all rounds.
    pub fn summaries_computed(&self) -> u64 {
        self.summaries_computed
    }

    /// How many recursive call-graph components failed to converge within
    /// the round cap and were widened to the sound pessimistic summary.
    /// Zero means every summary is a true fixpoint.
    pub fn sccs_widened(&self) -> u64 {
        self.sccs_widened
    }

    /// The converged summary of a function.
    pub fn summary(&self, f: FuncId) -> &FnSummary {
        &self.summaries[&f]
    }

    /// The underlying points-to analysis.
    pub fn alias(&self) -> &AliasAnalysis {
        &self.alias
    }

    /// Checks the program rooted at `entry`: every function reachable
    /// through calls is analyzed, live stores are audited at each
    /// `crashpoint` (own or in a callee) and at the entry function's
    /// returns (`ProgramEnd`).
    ///
    /// # Errors
    ///
    /// Fails when `entry` names no function.
    pub fn check(&self, entry: &str) -> Result<CheckReport, StaticError> {
        let entry_id = self.m.function_by_name(entry).ok_or_else(|| StaticError {
            message: format!("entry function `{entry}` not found"),
        })?;
        let mut reachable = self.reachable_from(entry_id);
        reachable.sort();
        let mut sink = Sink {
            next_checkpoint: 1,
            ..Default::default()
        };
        let mut report = CheckReport {
            provenance: Provenance::Static,
            ..Default::default()
        };
        for &f in &reachable {
            self.emit_function(f, f == entry_id, &mut sink);
            let func = self.m.function(f);
            for (_, i) in func.linked_insts() {
                match &func.inst(i).op {
                    Op::Flush { .. } => report.flushes_seen += 1,
                    Op::Fence { .. } => report.fences_seen += 1,
                    op if op.is_pm_storeish() && self.is_pm_target(f, store_addr_of(op)) => {
                        report.stores_checked += 1;
                    }
                    _ => {}
                }
            }
        }
        report.bugs = sink.bugs;
        report.redundant_flushes = sink.redundant;
        Ok(report)
    }

    // ---- call graph -------------------------------------------------------

    fn callees(&self, f: FuncId) -> BTreeSet<FuncId> {
        let func = self.m.function(f);
        func.linked_insts()
            .filter_map(|(_, i)| match func.inst(i).op {
                Op::Call { callee, .. } => Some(callee),
                _ => None,
            })
            .collect()
    }

    /// Strongly connected components of the call graph, in callee-first
    /// order: every component is emitted after all components it calls
    /// into (Tarjan emits sinks of the condensation first).
    fn call_sccs(&self) -> Vec<Vec<FuncId>> {
        struct Tarjan<'c, 'm> {
            checker: &'c StaticChecker<'m>,
            index: HashMap<FuncId, u32>,
            low: HashMap<FuncId, u32>,
            on_stack: HashSet<FuncId>,
            stack: Vec<FuncId>,
            next: u32,
            sccs: Vec<Vec<FuncId>>,
        }
        impl Tarjan<'_, '_> {
            fn visit(&mut self, f: FuncId) {
                self.index.insert(f, self.next);
                self.low.insert(f, self.next);
                self.next += 1;
                self.stack.push(f);
                self.on_stack.insert(f);
                for c in self.checker.callees(f) {
                    if !self.index.contains_key(&c) {
                        self.visit(c);
                        let cl = self.low[&c];
                        let fl = self.low.get_mut(&f).expect("visited");
                        *fl = (*fl).min(cl);
                    } else if self.on_stack.contains(&c) {
                        let ci = self.index[&c];
                        let fl = self.low.get_mut(&f).expect("visited");
                        *fl = (*fl).min(ci);
                    }
                }
                if self.low[&f] == self.index[&f] {
                    let mut scc = vec![];
                    loop {
                        let v = self.stack.pop().expect("root still on stack");
                        self.on_stack.remove(&v);
                        scc.push(v);
                        if v == f {
                            break;
                        }
                    }
                    scc.sort();
                    self.sccs.push(scc);
                }
            }
        }
        let mut t = Tarjan {
            checker: self,
            index: HashMap::new(),
            low: HashMap::new(),
            on_stack: HashSet::new(),
            stack: [].into(),
            next: 0,
            sccs: vec![],
        };
        for root in self.m.func_ids() {
            if !t.index.contains_key(&root) {
                t.visit(root);
            }
        }
        t.sccs
    }

    fn reachable_from(&self, entry: FuncId) -> Vec<FuncId> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([entry]);
        seen.insert(entry);
        while let Some(f) = queue.pop_front() {
            for c in self.callees(f) {
                if seen.insert(c) {
                    queue.push_back(c);
                }
            }
        }
        seen.into_iter().collect()
    }

    // ---- points-to helpers ------------------------------------------------

    fn pts_of(&self, f: FuncId, op: Option<Operand>) -> BTreeSet<pmalias::ObjId> {
        op.and_then(Operand::as_value)
            .map(|v| self.alias.points_to(f, v).iter().copied().collect())
            .unwrap_or_default()
    }

    fn is_pm_target(&self, f: FuncId, addr: Option<Operand>) -> bool {
        self.pts_of(f, addr)
            .iter()
            .any(|&o| self.alias.object(o).kind == ObjKind::Pm)
    }

    // ---- flush effects ----------------------------------------------------

    fn eff_table(&self, f: FuncId, res: &mut Resolver<'_>) -> EffTable {
        let func = self.m.function(f);
        let mut effs = vec![];
        let mut by_inst = HashMap::new();
        for (_, i) in func.linked_insts() {
            let start = effs.len();
            match &func.inst(i).op {
                Op::Flush { kind, addr } => {
                    effs.push(FlushEff {
                        loc: Some(res.resolve(*addr)),
                        pts: self.pts_of(f, Some(*addr)),
                        extent: Extent::Line,
                        durable: !kind.is_weakly_ordered(),
                    });
                }
                Op::Call { callee, args } => {
                    let ret = func.inst(i).result;
                    for ce in &self.summaries[callee].flushes {
                        effs.push(FlushEff {
                            loc: ce.loc.as_ref().and_then(|l| rebase(l, args, ret, res)),
                            pts: ce.pts.clone(),
                            extent: FnSummary::map_extent(ce.extent, args, res),
                            durable: ce.durable,
                        });
                    }
                }
                _ => {}
            }
            if effs.len() > start {
                by_inst.insert(i, (start, effs.len()));
            }
        }
        EffTable { effs, by_inst }
    }

    fn cover_of(&self, eff: &FlushEff, fact: &Fact) -> Cover {
        if let (Some(el), Some(fl)) = (&eff.loc, &fact.loc) {
            if el.base == fl.base {
                return match (el.offset, fl.offset) {
                    (Some(eo), Some(fo)) => {
                        let len = fact.len.unwrap_or(1).max(1) as i64;
                        match cover_interval(eo, eff.extent) {
                            Some((lo, hi)) => {
                                if fo >= lo && fo + len <= hi {
                                    Cover::Must
                                } else {
                                    Cover::No
                                }
                            }
                            // Unbounded range-flush from a known start.
                            None => {
                                if fo >= eo.div_euclid(64) * 64 {
                                    Cover::May
                                } else {
                                    Cover::No
                                }
                            }
                        }
                    }
                    // Unknown-start flush over the same base: optimistic.
                    (None, _) => Cover::May,
                    // A line- or byte-bounded flush at a known offset says
                    // nothing about a store at an unknown offset; an
                    // unbounded one optimistically covers it.
                    (Some(_), None) => match cover_interval(0, eff.extent) {
                        Some(_) => Cover::No,
                        None => Cover::May,
                    },
                };
            }
            // Two distinct structural bases: trust the structure.
            return Cover::No;
        }
        // No structure on one side: fall back to may-alias on objects — but
        // a line- or byte-bounded flush at a known structural offset is
        // about one specific range, and cannot retire a fact whose address
        // was lost (same reasoning as the `(Some, None)` arm above).
        let eff_bounded = eff
            .loc
            .as_ref()
            .is_some_and(|l| l.offset.is_some() && cover_interval(0, eff.extent).is_some());
        if !eff_bounded && !eff.pts.is_empty() && !fact.pts.is_disjoint(&eff.pts) {
            Cover::May
        } else {
            Cover::No
        }
    }

    fn apply_eff(&self, eff: &FlushEff, state: &mut State) {
        for fact in state.facts.values_mut() {
            if self.cover_of(eff, fact) != Cover::No {
                fact.state = match (eff.durable, fact.state) {
                    (true, _) => PState::Durable,
                    (false, PState::Durable) => PState::Durable,
                    (false, _) => PState::Pending,
                };
            }
        }
    }

    fn apply_fence(state: &mut State) {
        for fact in state.facts.values_mut() {
            if fact.state == PState::Pending {
                fact.state = PState::Durable;
            }
            fact.fence_seen = true;
        }
        state.fenced = true;
    }

    // ---- transfer ---------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn transfer_inst(
        &self,
        f: FuncId,
        i: InstId,
        state: &mut State,
        res: &mut Resolver<'_>,
        effs: &EffTable,
        is_entry: bool,
        doms: &Dominators,
        block: BlockId,
        sink: Option<&mut Sink>,
    ) {
        let func = self.m.function(f);
        let op = &func.inst(i).op;
        match op {
            Op::Store { ty, addr, .. } if self.is_pm_target(f, Some(*addr)) => {
                self.new_fact(f, i, *addr, Some(ty.size()), state, res);
            }
            Op::Memcpy { dst, len, .. } | Op::Memset { dst, len, .. }
                if self.is_pm_target(f, Some(*dst)) =>
            {
                let n = const_of(*len).and_then(|c| u64::try_from(c).ok());
                self.new_fact(f, i, *dst, n, state, res);
            }
            Op::Flush { .. } => {
                let (lo, hi) = effs.by_inst[&i];
                if let Some(sink) = sink {
                    self.check_redundant(f, i, &effs.effs[lo], state, doms, block, sink);
                }
                for k in lo..hi {
                    self.apply_eff(&effs.effs[k], state);
                    state.applied.insert(k);
                }
            }
            Op::Fence { .. } => Self::apply_fence(state),
            Op::Call { callee, args } => {
                let summary = &self.summaries[callee];
                if summary.has_checkpoint {
                    if let Some(sink) = sink {
                        let cp = Checkpoint::CrashPoint(sink.next_checkpoint);
                        sink.next_checkpoint += 1;
                        self.audit(state, cp, sink);
                    }
                }
                if let Some(&(lo, hi)) = effs.by_inst.get(&i) {
                    for k in lo..hi {
                        self.apply_eff(&effs.effs[k], state);
                        state.applied.insert(k);
                    }
                }
                if summary.fences_all_paths {
                    Self::apply_fence(state);
                }
                let ret = func.inst(i).result;
                for r in &summary.residual {
                    // Narrow by call site: a residual rooted directly at a
                    // parameter only matters here if the *actual* argument
                    // can reach PM (shared volatile/persistent helpers like
                    // a common copy routine otherwise leak phantom facts
                    // into their volatile call sites).
                    let mut pts = r.pts.clone();
                    if let Some(crate::loc::Base::Arg(j)) = r.loc.as_ref().map(|l| &l.base) {
                        let apts = self.pts_of(f, args.get(*j as usize).copied());
                        if !apts.is_empty() {
                            if !apts
                                .iter()
                                .any(|&o| self.alias.object(o).kind == ObjKind::Pm)
                            {
                                continue;
                            }
                            pts = apts;
                        }
                    }
                    let key = FactKey {
                        origin: r.origin,
                        via: Some(i),
                    };
                    let fact = Fact {
                        loc: r.loc.as_ref().and_then(|l| rebase(l, args, ret, res)),
                        pts,
                        len: r.len,
                        state: r.state,
                        fence_seen: r.fence_seen,
                    };
                    match state.facts.get_mut(&key) {
                        Some(mine) => mine.join(&fact),
                        None => {
                            state.facts.insert(key, fact);
                        }
                    }
                }
            }
            Op::CrashPoint => {
                if let Some(sink) = sink {
                    let cp = Checkpoint::CrashPoint(sink.next_checkpoint);
                    sink.next_checkpoint += 1;
                    self.audit(state, cp, sink);
                }
            }
            Op::Ret { .. } if is_entry => {
                if let Some(sink) = sink {
                    self.audit(state, Checkpoint::ProgramEnd, sink);
                }
            }
            _ => {}
        }
    }

    fn new_fact(
        &self,
        f: FuncId,
        i: InstId,
        addr: Operand,
        len: Option<u64>,
        state: &mut State,
        res: &mut Resolver<'_>,
    ) {
        let key = FactKey {
            origin: (f, i),
            via: None,
        };
        state.facts.insert(
            key,
            Fact {
                loc: Some(res.resolve(addr)),
                pts: self.pts_of(f, Some(addr)),
                len,
                state: PState::Dirty,
                fence_seen: false,
            },
        );
    }

    // ---- dataflow ---------------------------------------------------------

    /// Runs the block fixpoint for `f` and returns the converged block-entry
    /// states (unreachable blocks stay `reached: false`).
    fn block_states(&self, f: FuncId, effs: &EffTable, doms: &Dominators, cfg: &Cfg) -> Vec<State> {
        let func = self.m.function(f);
        let mut input: Vec<State> = vec![State::default(); func.block_count()];
        input[func.entry().0 as usize] = State::entry();
        let rpo: Vec<BlockId> = cfg.reverse_postorder().to_vec();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                if !input[b.0 as usize].reached {
                    continue;
                }
                let mut state = input[b.0 as usize].clone();
                let mut res = Resolver::new(func);
                for &i in &func.block(b).insts {
                    self.transfer_inst(f, i, &mut state, &mut res, effs, false, doms, b, None);
                }
                for &s in cfg.succs(b) {
                    changed |= input[s.0 as usize].join(&state);
                }
            }
        }
        input
    }

    /// Computes one function's summary against the current summary table.
    fn summarize(&self, f: FuncId) -> FnSummary {
        let func = self.m.function(f);
        let cfg = Cfg::of(func);
        let doms = Dominators::compute(&cfg, func.entry());
        let mut res = Resolver::new(func);
        let effs = self.eff_table(f, &mut res);
        let input = self.block_states(f, &effs, &doms, &cfg);

        let mut has_checkpoint = false;
        for (_, i) in func.linked_insts() {
            match &func.inst(i).op {
                Op::CrashPoint => has_checkpoint = true,
                Op::Call { callee, .. } if self.summaries[callee].has_checkpoint => {
                    has_checkpoint = true
                }
                _ => {}
            }
        }

        // Walk each block once more to the returns, collecting the state
        // right before every `ret`.
        let mut ret_states: Vec<State> = vec![];
        for b in func.block_ids() {
            if !input[b.0 as usize].reached {
                continue;
            }
            let mut state = input[b.0 as usize].clone();
            let mut res = Resolver::new(func);
            for &i in &func.block(b).insts {
                if let Op::Ret { value } = &func.inst(i).op {
                    let mut at_ret = state.clone();
                    if let Some(v) = value {
                        reroot_to_ret(&mut at_ret, res.resolve(*v));
                    }
                    ret_states.push(at_ret);
                }
                self.transfer_inst(f, i, &mut state, &mut res, &effs, false, &doms, b, None);
            }
        }

        let fences_all_paths = !ret_states.is_empty() && ret_states.iter().all(|s| s.fenced);
        // Must-flushes modulo empty-range guards: intersect the applied sets
        // of the return paths that flushed anything at all.
        let mut applied: Option<BTreeSet<usize>> = None;
        for s in ret_states.iter().filter(|s| !s.applied.is_empty()) {
            applied = Some(match applied {
                None => s.applied.clone(),
                Some(a) => a.intersection(&s.applied).copied().collect(),
            });
        }
        // Sort and deduplicate: a recursive callee's effects re-imported
        // each round would otherwise accumulate syntactic duplicates
        // (`[e]` vs `[e, e]`) and keep the fixpoint from ever comparing
        // equal.
        let mut flushes: Vec<FlushEff> = applied
            .unwrap_or_default()
            .into_iter()
            .map(|k| export_eff(&effs.effs[k], func))
            .collect();
        flushes.sort();
        flushes.dedup();

        // Residual: the join of all return states, minus durable facts.
        let mut joined = State::default();
        for s in &ret_states {
            joined.join(s);
        }
        let mut residual: Vec<ResidualFact> = joined
            .facts
            .into_iter()
            .filter(|(_, fact)| !fact.state.is_durable())
            .map(|(key, fact)| ResidualFact {
                origin: key.origin,
                loc: fact.loc,
                pts: fact.pts,
                len: fact.len,
                state: fact.state,
                fence_seen: fact.fence_seen,
            })
            .collect();
        residual.sort();
        residual.dedup();

        FnSummary {
            flushes,
            fences_all_paths,
            has_checkpoint,
            residual,
        }
    }

    // ---- emission ---------------------------------------------------------

    fn emit_function(&self, f: FuncId, is_entry: bool, sink: &mut Sink) {
        let func = self.m.function(f);
        let cfg = Cfg::of(func);
        let doms = Dominators::compute(&cfg, func.entry());
        let mut res = Resolver::new(func);
        let effs = self.eff_table(f, &mut res);
        let input = self.block_states(f, &effs, &doms, &cfg);
        for &b in cfg.reverse_postorder() {
            if !input[b.0 as usize].reached {
                continue;
            }
            let mut state = input[b.0 as usize].clone();
            let mut res = Resolver::new(func);
            for &i in &func.block(b).insts {
                self.transfer_inst(
                    f,
                    i,
                    &mut state,
                    &mut res,
                    &effs,
                    is_entry,
                    &doms,
                    b,
                    Some(sink),
                );
            }
        }
    }

    fn audit(&self, state: &State, checkpoint: Checkpoint, sink: &mut Sink) {
        for (key, fact) in &state.facts {
            let kind = match fact.state {
                PState::Durable => continue,
                PState::Pending => BugKind::MissingFence,
                PState::Dirty | PState::MaybeDirty => {
                    if fact.fence_seen {
                        BugKind::MissingFlush
                    } else {
                        BugKind::MissingFlushFence
                    }
                }
            };
            if !sink.emitted.insert((key.origin, kind, checkpoint)) {
                continue;
            }
            let (of, oi) = key.origin;
            let ofunc = self.m.function(of);
            sink.bugs.push(Bug {
                kind,
                addr: 0,
                len: fact.len.unwrap_or(0),
                store_at: Some(IrRef {
                    function: ofunc.name().into(),
                    inst: oi.0,
                }),
                store_loc: ofunc.inst(oi).loc.map(|l| TraceLoc {
                    file: self.m.file_name(l.file).into(),
                    line: l.line,
                    col: l.col,
                }),
                stack: [].into(),
                store_seq: 0,
                checkpoint,
                unflushed_lines: vec![],
            });
        }
    }

    /// Reports a flush as redundant when that is statically provable: the
    /// flushed pointer cannot reach PM at all, or every store it may cover
    /// is already flushed and at least one provably-covered store dominates
    /// the flush (so on *every* execution reaching it, the flush hits only
    /// clean lines).
    #[allow(clippy::too_many_arguments)]
    fn check_redundant(
        &self,
        f: FuncId,
        i: InstId,
        eff: &FlushEff,
        state: &State,
        doms: &Dominators,
        block: BlockId,
        sink: &mut Sink,
    ) {
        let func = self.m.function(f);
        let non_pm = !eff.pts.is_empty()
            && !eff
                .pts
                .iter()
                .any(|&o| self.alias.object(o).kind == ObjKind::Pm);
        let redundant = non_pm || {
            let mut must_dominated = false;
            let mut all_clean = true;
            for (key, fact) in &state.facts {
                match self.cover_of(eff, fact) {
                    Cover::No => {}
                    cover => {
                        if !matches!(fact.state, PState::Pending | PState::Durable) {
                            all_clean = false;
                            break;
                        }
                        if cover == Cover::Must {
                            let origin_block = match key.via {
                                Some(call) => func.find_inst_pos(call).map(|(b, _)| b),
                                None if key.origin.0 == f => {
                                    func.find_inst_pos(key.origin.1).map(|(b, _)| b)
                                }
                                None => None,
                            };
                            if origin_block.is_some_and(|ob| doms.dominates(ob, block)) {
                                must_dominated = true;
                            }
                        }
                    }
                }
            }
            must_dominated && all_clean
        };
        if redundant {
            sink.redundant.push(pmcheck::bug::RedundantFlush {
                addr: 0,
                at: Some(IrRef {
                    function: func.name().into(),
                    inst: i.0,
                }),
                loc: func.inst(i).loc.map(|l| TraceLoc {
                    file: self.m.file_name(l.file).into(),
                    line: l.line,
                    col: l.col,
                }),
                seq: 0,
            });
        }
    }
}

/// Prepares a flush effect for export into the function's summary: an
/// unknown-offset flush is the range-flush-loop idiom (`clwb(p + i)`),
/// assumed to start at the pointer it is rooted in and extend for the
/// helper's single integer parameter when there is exactly one.
fn export_eff(eff: &FlushEff, func: &pmir::Function) -> FlushEff {
    let mut out = eff.clone();
    if let Some(l) = &out.loc {
        if l.offset.is_none() {
            out.loc = Some(Loc {
                base: l.base.clone(),
                offset: Some(0),
            });
            let int_params: Vec<u32> = func
                .params()
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t, pmir::Type::Int(_)))
                .map(|(j, _)| j as u32)
                .collect();
            out.extent = match int_params.as_slice() {
                [j] => Extent::Param(*j),
                _ => Extent::Unknown,
            };
        }
    }
    out
}

/// Re-expresses facts rooted at the returned pointer's base against
/// [`Base::Ret`](crate::loc::Base), so the `it = item_alloc(...)` idiom —
/// stores into a freshly produced pointer handed back to the caller — stays
/// structural across the call boundary instead of degrading to the
/// points-to fallback (where any same-object flush would spuriously retire
/// it).
fn reroot_to_ret(state: &mut State, retloc: Loc) {
    let Some(ro) = retloc.offset else { return };
    for fact in state.facts.values_mut() {
        if let Some(l) = &fact.loc {
            if l.base == retloc.base {
                if let Some(fo) = l.offset {
                    fact.loc = Some(Loc {
                        base: crate::loc::Base::Ret,
                        offset: Some(fo - ro),
                    });
                }
            }
        }
    }
}

fn store_addr_of(op: &Op) -> Option<Operand> {
    match op {
        Op::Store { addr, .. } => Some(*addr),
        Op::Memcpy { dst, .. } | Op::Memset { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// Convenience wrapper: analyze `m` and check it from `entry`.
///
/// # Errors
///
/// Fails when `entry` names no function.
pub fn check_module(m: &Module, entry: &str) -> Result<CheckReport, StaticError> {
    check_module_obs(m, entry, &pmobs::Obs::default())
}

/// [`check_module`] with telemetry: records the `static.check` span plus
/// `static.fixpoint_iterations`, `static.summaries_computed`,
/// `static.functions_checked`, and `static.bugs` counters into `obs`.
///
/// # Errors
///
/// Fails when `entry` names no function.
pub fn check_module_obs(
    m: &Module,
    entry: &str,
    obs: &pmobs::Obs,
) -> Result<CheckReport, StaticError> {
    check_module_budgeted(m, entry, obs, &pmtx::Budget::unlimited())
}

/// [`check_module_obs`] under a cooperative [`pmtx::Budget`]: the budget is
/// checked at the stage boundaries (before the alias/summary fixpoint and
/// before report emission), so an exhausted budget stops the checker between
/// stages rather than mid-fixpoint.
///
/// # Errors
///
/// Fails when `entry` names no function or the budget is exhausted (the
/// error message then starts with `cancelled:`, letting callers degrade the
/// static source instead of treating it as a checker defect).
pub fn check_module_budgeted(
    m: &Module,
    entry: &str,
    obs: &pmobs::Obs,
    budget: &pmtx::Budget,
) -> Result<CheckReport, StaticError> {
    let _span = obs.span("static.check");
    let cancelled = |e: pmtx::BudgetExceeded| StaticError {
        message: format!("cancelled: {e}"),
    };
    budget.check().map_err(cancelled)?;
    let checker = StaticChecker::new(m);
    obs.add("static.fixpoint_iterations", checker.fixpoint_rounds());
    obs.add("static.summaries_computed", checker.summaries_computed());
    obs.add("static.sccs_widened", checker.sccs_widened());
    budget.check().map_err(cancelled)?;
    let report = checker.check(entry)?;
    obs.add("static.functions_checked", m.func_ids().count() as u64);
    obs.add("static.bugs", report.bugs.len() as u64);
    Ok(report)
}
