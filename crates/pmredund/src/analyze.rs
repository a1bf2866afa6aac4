//! The redundancy analysis: a forward *must*-durability dataflow over pmir
//! CFGs, dual to `pmstatic`'s missing-flush lattice.
//!
//! Where `pmstatic` tracks stores that might still be dirty (a *may*
//! analysis whose sound direction is reporting too much), this pass tracks
//! cache lines that are provably already flushed — so its sound direction
//! is claiming too *little*. Per program point it keeps the set of
//! structural cache lines flushed on **every** incoming path (key
//! intersection at joins), each at one of two levels: `Flushed` (a
//! weakly-ordered flush covered it, no fence yet) or `Durable` (fenced, or
//! strongly flushed). A persistent store kills every line it may overlap;
//! only provable disjointness (same structural base with disjoint
//! line-rounded intervals, or disjoint points-to sets) lets a line
//! survive. Calls kill through a transitive may-write set and re-introduce
//! the callee's guaranteed (must) flush effects from the converged
//! `pmstatic` summaries.
//!
//! A separate *may* bit (`unordered`) drives fence findings: it is set by
//! any potentially-persistent store or flush on any path since the last
//! fence, and only a fence clears it. A fence reached with the bit clear
//! orders nothing and is sinkable.
//!
//! A second, *backward* must pass catches the dual shape the repair engine
//! itself produces (one flush per store of the same line): a weak flush is
//! *dead* when its line is provably flushed again before the next fence,
//! call, crashpoint, or return on every outgoing path — a weakly-ordered
//! flush only matters at the next fence, and there the later flush covers
//! the line. Intervening stores do not block this direction (the later
//! flush persists them too; removing the earlier flush only *shrinks* the
//! set of possible crash states). Line identity here uses a symbolic
//! address (`SymLine`) that keeps non-constant `gep` hops distinct, so
//! `pool + k + 0/8/16` trains coalesce while `pool + k` and `pool + j`
//! never alias. As everywhere in this crate, line rounding follows the
//! repo's structural convention (bases are treated as line-aligned); the
//! transactional optimizer re-verifies every applied round dynamically, so
//! an alignment-confounded claim cannot ship.

use crate::finding::{Finding, FindingKind, Witness, WitnessEvent, WitnessRole};
use pmalias::{ObjId, ObjKind, PmMarking};
use pmem_sim::CostModel;
use pmir::cfg::Cfg;
use pmir::{FenceKind, FuncId, Function, InstId, Module, Op, Operand, ValueId, ValueKind};
use pmstatic::loc::{const_of, rebase, Base};
use pmstatic::{Loc, Resolver, StaticChecker};
use pmtrace::TraceLoc;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Cap on witness events kept per tracked line: enough to show the
/// store/flush/fence chain without ballooning join states.
const WITNESS_CAP: usize = 6;

/// Cap on distinct lines a bounded callee flush effect may introduce; a
/// wider effect is ignored (sound: fewer tracked lines).
const CALLEE_EFFECT_LINES: i64 = 8;

/// A failure to run the redundancy analysis (currently: unknown entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedundError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for RedundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "redundancy analysis failed: {}", self.message)
    }
}

impl std::error::Error for RedundError {}

/// How durable a tracked line provably is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    /// Covered by a weakly-ordered flush on every path; durable at the
    /// next fence.
    Flushed,
    /// Flushed and fenced (or strongly flushed) on every path.
    Durable,
}

/// One provably-flushed cache line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LineFact {
    level: Level,
    /// Points-to set of the pointer(s) the covering flushes used — the
    /// fallback evidence for store-kill disjointness.
    pts: BTreeSet<ObjId>,
    /// Witness events (capped, deduplicated, sorted at merges).
    events: Vec<WitnessEvent>,
}

impl LineFact {
    fn push_event(&mut self, ev: WitnessEvent) {
        if !self.events.contains(&ev) {
            self.events.push(ev);
            if self.events.len() > WITNESS_CAP {
                self.events.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
                self.events.truncate(WITNESS_CAP);
            }
        }
    }
}

/// The abstract state at a program point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct RState {
    /// Lines flushed on every incoming path, keyed by line-rounded
    /// structural address.
    lines: BTreeMap<Loc, LineFact>,
    /// May-bit: some path performed a potentially-persistent store or a
    /// weakly-ordered flush with possible effect since the last fence.
    /// Function entry starts `true`: callers may have pending work a
    /// leading fence is ordering.
    unordered: bool,
    /// Events witnessing the most recent fence(s) on the incoming paths.
    last_fences: Vec<WitnessEvent>,
    /// Whether a predecessor initialized this state.
    reached: bool,
}

impl RState {
    fn entry() -> RState {
        RState {
            lines: BTreeMap::new(),
            unordered: true,
            last_fences: vec![],
            reached: true,
        }
    }

    /// Joins `other` into `self`; returns whether `self` changed. Lines
    /// intersect (levels meet toward `Flushed`), the may-bit ORs.
    fn join(&mut self, other: &RState) -> bool {
        if !other.reached {
            return false;
        }
        if !self.reached {
            *self = other.clone();
            return true;
        }
        let before = self.clone();
        self.lines.retain(|k, _| other.lines.contains_key(k));
        for (k, mine) in self.lines.iter_mut() {
            let theirs = &other.lines[k];
            mine.level = mine.level.min(theirs.level);
            mine.pts.extend(theirs.pts.iter().copied());
            for ev in &theirs.events {
                if !mine.events.contains(ev) {
                    mine.events.push(ev.clone());
                }
            }
            if mine.events.len() > WITNESS_CAP {
                mine.events.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
                mine.events.truncate(WITNESS_CAP);
            }
        }
        self.unordered |= other.unordered;
        for ev in &other.last_fences {
            if !self.last_fences.contains(ev) {
                self.last_fences.push(ev.clone());
            }
        }
        if self.last_fences.len() > WITNESS_CAP {
            self.last_fences
                .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
            self.last_fences.truncate(WITNESS_CAP);
        }
        *self != before
    }
}

/// Symbolic cache-line identity for the backward dead-flush pass. Unlike
/// [`Loc`], which drops non-constant `gep` offsets entirely, this keeps
/// each runtime hop as `(offset value, constant displacement below it)` —
/// so two addresses are the same line only when they share the root, the
/// exact chain of runtime offsets, and the line-rounded final
/// displacement.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SymLine {
    /// Root of the chain, in [`Loc`] base terms.
    base: Base,
    /// Non-constant `gep` hops, outermost last.
    steps: Vec<(ValueId, i64)>,
    /// Line-rounded constant displacement above the last hop.
    line: i64,
}

impl SymLine {
    /// The plain structural form, when one exists (no runtime hops).
    fn as_loc(&self) -> Option<Loc> {
        self.steps.is_empty().then(|| Loc {
            base: self.base.clone(),
            offset: Some(self.line),
        })
    }
}

/// The backward must-reflush state: lines provably flushed again before
/// the next fence/call/crashpoint/return, with the covering flush events.
type ReflushMap = BTreeMap<SymLine, Vec<WitnessEvent>>;

/// Syntactic store map for single-store slot forwarding (the same rule
/// [`Resolver`] applies internally).
fn syntactic_slot_stores(func: &Function) -> HashMap<ValueId, Vec<Operand>> {
    let mut map: HashMap<ValueId, Vec<Operand>> = HashMap::new();
    for (_, i) in func.linked_insts() {
        if let Op::Store { addr, value, .. } = func.inst(i).op {
            if let Some(v) = addr.as_value() {
                map.entry(v).or_default().push(value);
            }
        }
    }
    map
}

/// Resolves an operand to its symbolic line, chasing constant `gep`s,
/// recording runtime `gep` hops, and forwarding loads from single-store
/// slots. `None` when the chain hits a forwarding cycle or a runtime
/// offset that is not a value (nothing to key on) — such flushes neither
/// die nor cover.
fn sym_line(
    func: &Function,
    slot_stores: &HashMap<ValueId, Vec<Operand>>,
    res: &mut Resolver<'_>,
    seen: &mut HashSet<ValueId>,
    op: Operand,
) -> Option<SymLine> {
    let (base, steps, delta) = sym_addr(func, slot_stores, res, seen, op)?;
    Some(SymLine {
        base,
        steps,
        line: delta.div_euclid(64) * 64,
    })
}

#[allow(clippy::type_complexity)]
fn sym_addr(
    func: &Function,
    slot_stores: &HashMap<ValueId, Vec<Operand>>,
    res: &mut Resolver<'_>,
    seen: &mut HashSet<ValueId>,
    op: Operand,
) -> Option<(Base, Vec<(ValueId, i64)>, i64)> {
    let v = match op {
        Operand::Const(c) => return Some((Base::Abs, vec![], c)),
        Operand::Null => return Some((Base::Abs, vec![], 0)),
        Operand::Value(v) => v,
    };
    if !seen.insert(v) {
        return None; // forwarding cycle: opaque
    }
    let r =
        match func.value(v).kind {
            ValueKind::Arg(i) => Some((Base::Arg(i), vec![], 0)),
            ValueKind::Inst(i) => match &func.inst(i).op {
                Op::Gep { base, offset } => sym_addr(func, slot_stores, res, seen, *base).and_then(
                    |(b, mut steps, delta)| match const_of(*offset) {
                        Some(c) => Some((b, steps, delta + c)),
                        None => {
                            steps.push((offset.as_value()?, delta));
                            Some((b, steps, 0))
                        }
                    },
                ),
                Op::Load { addr, .. } => {
                    let forwarded = addr.as_value().and_then(|slot| {
                        match slot_stores.get(&slot).map(Vec::as_slice) {
                            Some(&[w]) => Some(w),
                            _ => None,
                        }
                    });
                    match forwarded {
                        Some(w) => sym_addr(func, slot_stores, res, seen, w),
                        None => Some((Base::Slot(Box::new(res.resolve(*addr))), vec![], 0)),
                    }
                }
                _ => Some((Base::Anchor(i), vec![], 0)),
            },
        };
    seen.remove(&v);
    r
}

/// Transitive may-effects of calling a function, for the kill rules.
#[derive(Debug, Clone, Default)]
struct MayEffects {
    /// Points-to union of every store target in the function and its
    /// transitive callees; `None` when some target is unresolvable
    /// (clobbers everything).
    writes: Option<BTreeSet<ObjId>>,
    /// The function (transitively) stores to or flushes possibly-persistent
    /// memory: a call sets the fence may-bit.
    touches_pm: bool,
}

/// The redundancy analysis over one module: converged `pmstatic` summaries
/// plus the per-function must-durability dataflow.
pub struct RedundAnalysis<'m> {
    m: &'m Module,
    checker: StaticChecker<'m>,
    marking: PmMarking,
    may: HashMap<FuncId, MayEffects>,
    /// Per-function exit state: the join of this analysis' state at every
    /// `ret`, computed bottom-up (callee-first; in-cycle callees fall back
    /// to no effect, which is sound for a must analysis).
    exit: HashMap<FuncId, RState>,
    cost: CostModel,
}

impl<'m> RedundAnalysis<'m> {
    /// Analyzes the module: alias facts and function summaries (via
    /// [`StaticChecker`]), then the per-call transitive may-write sets.
    pub fn new(m: &'m Module) -> Self {
        let checker = StaticChecker::new(m);
        let marking = PmMarking::full(checker.alias());
        let mut analysis = RedundAnalysis {
            m,
            checker,
            marking,
            may: HashMap::new(),
            exit: HashMap::new(),
            cost: CostModel::optane_like(),
        };
        analysis.may = analysis.may_effects();
        for f in analysis.postorder() {
            let e = analysis.compute_exit(f);
            analysis.exit.insert(f, e);
        }
        analysis
    }

    /// Callee-first traversal order over the whole module (cycle-safe:
    /// back edges are skipped, so recursive groups see no effect for the
    /// in-cycle call, an under-approximation).
    fn postorder(&self) -> Vec<FuncId> {
        let mut order = vec![];
        let mut seen = HashSet::new();
        let mut roots: Vec<FuncId> = self.m.func_ids().collect();
        roots.sort();
        for root in roots {
            if seen.contains(&root) {
                continue;
            }
            // (func, next-callee-index) DFS without recursion.
            let mut stack = vec![(root, self.callees(root).into_iter().collect::<Vec<_>>(), 0)];
            seen.insert(root);
            while let Some((f, cs, idx)) = stack.last_mut() {
                if let Some(&c) = cs.get(*idx) {
                    *idx += 1;
                    if seen.insert(c) {
                        let f = c;
                        stack.push((f, self.callees(f).into_iter().collect(), 0));
                    }
                } else {
                    order.push(*f);
                    stack.pop();
                }
            }
        }
        order
    }

    /// The join of the analysis state at every `ret` of `f`: the lines the
    /// function provably leaves flushed or durable, in its own frame.
    fn compute_exit(&self, f: FuncId) -> RState {
        let func = self.m.function(f);
        let cfg = Cfg::of(func);
        let input = self.block_states(f, &cfg);
        let mut exit = RState::default();
        for &b in cfg.reverse_postorder() {
            if !input[b.0 as usize].reached {
                continue;
            }
            let mut state = input[b.0 as usize].clone();
            let mut res = Resolver::new(func);
            for &i in &func.block(b).insts {
                if matches!(func.inst(i).op, Op::Ret { .. }) {
                    exit.join(&state);
                }
                self.transfer_inst(f, i, &mut state, &mut res, None);
            }
        }
        exit
    }

    /// The underlying static checker (converged summaries + alias facts).
    pub fn checker(&self) -> &StaticChecker<'m> {
        &self.checker
    }

    /// Whether an operand may point into persistent memory. Unresolvable
    /// pointers (empty points-to) count as persistent.
    fn may_be_pm(&self, f: FuncId, op: Operand) -> bool {
        match op.as_value() {
            None => true, // constant address: no alias facts, assume the worst
            Some(v) => {
                let pts = self.checker.alias().points_to(f, v);
                pts.is_empty()
                    || pts
                        .iter()
                        .any(|&o| self.checker.alias().object(o).kind == ObjKind::Pm)
            }
        }
    }

    fn pts_of(&self, f: FuncId, op: Operand) -> BTreeSet<ObjId> {
        op.as_value()
            .map(|v| {
                self.checker
                    .alias()
                    .points_to(f, v)
                    .iter()
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    fn callees(&self, f: FuncId) -> BTreeSet<FuncId> {
        let func = self.m.function(f);
        func.linked_insts()
            .filter_map(|(_, i)| match func.inst(i).op {
                Op::Call { callee, .. } => Some(callee),
                _ => None,
            })
            .collect()
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
        let mut v: Vec<FuncId> = seen.into_iter().collect();
        v.sort();
        v
    }

    /// Per-function transitive may-effects: what calling it can clobber.
    fn may_effects(&self) -> HashMap<FuncId, MayEffects> {
        let mut out = HashMap::new();
        for f in self.m.func_ids() {
            let mut writes: Option<BTreeSet<ObjId>> = Some(BTreeSet::new());
            let mut touches_pm = false;
            for g in self.reachable_from(f) {
                let func = self.m.function(g);
                for (_, i) in func.linked_insts() {
                    match &func.inst(i).op {
                        op if op.is_pm_storeish() => {
                            let addr = match op {
                                Op::Store { addr, .. } => *addr,
                                Op::Memcpy { dst, .. } | Op::Memset { dst, .. } => *dst,
                                _ => unreachable!("is_pm_storeish covers these"),
                            };
                            let pts = self.pts_of(g, addr);
                            if pts.is_empty() {
                                writes = None;
                            } else if let Some(w) = &mut writes {
                                w.extend(pts.iter().copied());
                            }
                            touches_pm |= self.may_be_pm(g, addr);
                        }
                        Op::Flush { addr, .. } => {
                            touches_pm |= self.may_be_pm(g, *addr);
                        }
                        _ => {}
                    }
                }
            }
            out.insert(f, MayEffects { writes, touches_pm });
        }
        out
    }

    /// All findings in the functions reachable from `entry`, sorted by
    /// descending estimated payoff.
    ///
    /// # Errors
    ///
    /// Fails when `entry` names no function.
    pub fn findings(&self, entry: &str) -> Result<Vec<Finding>, RedundError> {
        let entry_id = self.m.function_by_name(entry).ok_or_else(|| RedundError {
            message: format!("entry function `{entry}` not found"),
        })?;
        let mut out = vec![];
        let mut dead = vec![];
        for f in self.reachable_from(entry_id) {
            self.emit_function(f, &mut out);
            self.emit_dead_flushes(f, &mut dead);
        }
        // A site can be flagged by both directions (forward coalescing and
        // the backward dead-flush pass): the forward claim wins. A dead
        // flush whose covering flushes are all themselves flagged for
        // removal is dropped too — applying the whole set at once would
        // leave the line uncovered (`clwb; clwb; sfence` must keep one).
        // The per-round dynamic re-verification remains the final word.
        let forward: HashSet<(FuncId, u32)> = out.iter().map(|fi| (fi.func, fi.inst.0)).collect();
        let dead_sites: HashSet<(FuncId, u32)> =
            dead.iter().map(|fi| (fi.func, fi.inst.0)).collect();
        dead.retain(|fi| {
            !forward.contains(&(fi.func, fi.inst.0))
                && fi.witness.events.iter().any(|ev| {
                    !forward.contains(&(fi.func, ev.inst))
                        && !dead_sites.contains(&(fi.func, ev.inst))
                })
        });
        out.extend(dead);
        out.sort_by(|a, b| {
            b.est_cycles_saved
                .cmp(&a.est_cycles_saved)
                .then_with(|| a.function.cmp(&b.function))
                .then_with(|| a.inst.cmp(&b.inst))
        });
        Ok(out)
    }

    // ---- dataflow ---------------------------------------------------------

    fn block_states(&self, f: FuncId, cfg: &Cfg) -> Vec<RState> {
        let func = self.m.function(f);
        let mut input: Vec<RState> = vec![RState::default(); func.block_count()];
        input[func.entry().0 as usize] = RState::entry();
        let rpo: Vec<pmir::BlockId> = cfg.reverse_postorder().to_vec();
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
                    self.transfer_inst(f, i, &mut state, &mut res, None);
                }
                for &s in cfg.succs(b) {
                    changed |= input[s.0 as usize].join(&state);
                }
            }
        }
        input
    }

    fn emit_function(&self, f: FuncId, out: &mut Vec<Finding>) {
        let func = self.m.function(f);
        let cfg = Cfg::of(func);
        let input = self.block_states(f, &cfg);
        for &b in cfg.reverse_postorder() {
            if !input[b.0 as usize].reached {
                continue;
            }
            let mut state = input[b.0 as usize].clone();
            let mut res = Resolver::new(func);
            for &i in &func.block(b).insts {
                self.transfer_inst(f, i, &mut state, &mut res, Some(out));
            }
        }
    }

    // ---- transfer ---------------------------------------------------------

    fn transfer_inst(
        &self,
        f: FuncId,
        i: InstId,
        state: &mut RState,
        res: &mut Resolver<'_>,
        mut sink: Option<&mut Vec<Finding>>,
    ) {
        let func = self.m.function(f);
        match &func.inst(i).op {
            op if op.is_pm_storeish() => {
                let (addr, len) = match op {
                    Op::Store { ty, addr, .. } => (*addr, Some(ty.size())),
                    Op::Memcpy { dst, len, .. } | Op::Memset { dst, len, .. } => {
                        (*dst, const_of(*len).and_then(|c| u64::try_from(c).ok()))
                    }
                    _ => unreachable!("is_pm_storeish covers these"),
                };
                self.kill_for_store(f, addr, len, state, res);
                if self.may_be_pm(f, addr) {
                    state.unordered = true;
                }
            }
            Op::Flush { kind, addr } => {
                let loc = res.resolve(*addr);
                let pts = self.pts_of(f, *addr);
                let weak = kind.is_weakly_ordered();
                let line = loc.offset.map(|o| Loc {
                    base: loc.base.clone(),
                    offset: Some(o.div_euclid(64) * 64),
                });
                if let (Some(line), Some(sink)) = (&line, sink.as_deref_mut()) {
                    self.check_flush(f, i, *addr, line, weak, state, sink);
                }
                match line {
                    Some(line) => {
                        let ev = self.event(WitnessRole::Flush, f, i);
                        let level = if weak { Level::Flushed } else { Level::Durable };
                        match state.lines.get_mut(&line) {
                            Some(fact) => {
                                fact.level = fact.level.max(level);
                                fact.pts.extend(pts.iter().copied());
                                fact.push_event(ev);
                                if weak && fact.level == Level::Durable {
                                    // A weak flush of an already-durable
                                    // line is a no-op: the next fence has
                                    // nothing new to order.
                                } else if weak {
                                    state.unordered = true;
                                }
                            }
                            None => {
                                state.lines.insert(
                                    line,
                                    LineFact {
                                        level,
                                        pts,
                                        events: vec![ev],
                                    },
                                );
                                if weak {
                                    state.unordered = true;
                                }
                            }
                        }
                    }
                    None => {
                        // Unknown offset (range-flush loop): tracked lines
                        // only get *more* durable, nothing to kill; but the
                        // fence may-bit must rise if the target may be PM.
                        if weak && self.may_be_pm(f, *addr) {
                            state.unordered = true;
                        }
                    }
                }
            }
            Op::Fence { .. } => {
                if let Some(sink) = sink.as_mut() {
                    self.check_fence(f, i, state, sink);
                }
                let ev = self.event(WitnessRole::Fence, f, i);
                for fact in state.lines.values_mut() {
                    if fact.level == Level::Flushed {
                        fact.level = Level::Durable;
                        fact.push_event(ev.clone());
                    }
                }
                state.unordered = false;
                state.last_fences = vec![ev];
            }
            Op::Call { callee, args } => {
                self.apply_call(f, i, *callee, args, state, res);
            }
            _ => {}
        }
    }

    /// Kills every tracked line a store may overlap. A line survives only
    /// with a *proof* of disjointness: same structural base with disjoint
    /// line-rounded intervals, or disjoint non-empty points-to sets.
    fn kill_for_store(
        &self,
        f: FuncId,
        addr: Operand,
        len: Option<u64>,
        state: &mut RState,
        res: &mut Resolver<'_>,
    ) {
        let sl = res.resolve(addr);
        let sp = self.pts_of(f, addr);
        state.lines.retain(|line, fact| {
            if line.base == sl.base {
                if let (Some(lo), Some(so)) = (line.offset, sl.offset) {
                    let n = len.unwrap_or(0).max(1) as i64;
                    // Store interval [so, so+n) vs line [lo, lo+64), only
                    // when the store length is known.
                    if len.is_some() && (so + n <= lo || so >= lo + 64) {
                        return true;
                    }
                }
                return false;
            }
            // Distinct bases prove nothing by themselves (unlike the
            // optimistic direction in pmstatic): require points-to
            // disjointness.
            !sp.is_empty() && !fact.pts.is_empty() && sp.is_disjoint(&fact.pts)
        });
    }

    fn apply_call(
        &self,
        f: FuncId,
        i: InstId,
        callee: FuncId,
        args: &[Operand],
        state: &mut RState,
        res: &mut Resolver<'_>,
    ) {
        let me = &self.may[&callee];
        // 1. Kill what the callee may overwrite.
        match &me.writes {
            None => state.lines.clear(),
            Some(w) if !w.is_empty() => {
                state
                    .lines
                    .retain(|_, fact| !fact.pts.is_empty() && fact.pts.is_disjoint(w));
            }
            Some(_) => {}
        }
        // 2. A guaranteed fence inside the callee orders every flush that
        //    preceded the call.
        let summary = self.checker.summary(callee);
        if summary.fences_all_paths {
            let ev = self.event(WitnessRole::CalleeEffect, f, i);
            for fact in state.lines.values_mut() {
                if fact.level == Level::Flushed {
                    fact.level = Level::Durable;
                    fact.push_event(ev.clone());
                }
            }
        }
        // 3. Re-introduce the lines the callee provably leaves flushed or
        //    durable at return — its own exit state, rebased into this
        //    frame (bounded; callee-local anchors fail to rebase and drop
        //    out, which is the sound direction).
        if let Some(exit) = self.exit.get(&callee) {
            let ret = self.m.function(f).inst(i).result;
            let ev = self.event(WitnessRole::CalleeEffect, f, i);
            let mut inserted: i64 = 0;
            for (loc, eff) in &exit.lines {
                if inserted >= CALLEE_EFFECT_LINES {
                    break;
                }
                let Some(rb) = rebase(loc, args, ret, res) else {
                    continue;
                };
                let Some(off) = rb.offset else { continue };
                let line = Loc {
                    base: rb.base,
                    offset: Some(off.div_euclid(64) * 64),
                };
                inserted += 1;
                match state.lines.get_mut(&line) {
                    Some(fact) => {
                        fact.level = fact.level.max(eff.level);
                        fact.pts.extend(eff.pts.iter().copied());
                        fact.push_event(ev.clone());
                    }
                    None => {
                        let mut fact = eff.clone();
                        fact.push_event(ev.clone());
                        state.lines.insert(line, fact);
                    }
                }
            }
        }
        // 4. The fence may-bit rises whenever the callee may do PM work.
        if me.touches_pm {
            state.unordered = true;
        }
    }

    // ---- backward dead-flush pass -----------------------------------------

    /// Emits the dead flushes of `f`: weak flushes whose line is provably
    /// flushed again before the next fence, call, crashpoint, or return on
    /// every outgoing path. Computed as a backward must fixpoint from ⊥
    /// (loop-carried coverage is dropped — the sound direction).
    fn emit_dead_flushes(&self, f: FuncId, out: &mut Vec<Finding>) {
        let func = self.m.function(f);
        let cfg = Cfg::of(func);
        let slot_stores = syntactic_slot_stores(func);
        let mut input: Vec<ReflushMap> = vec![ReflushMap::new(); func.block_count()];
        // Postorder so most successors are computed before their
        // predecessors; iterate to a fixpoint for loops.
        let po: Vec<pmir::BlockId> = cfg.reverse_postorder().iter().rev().copied().collect();
        loop {
            let mut changed = false;
            for &b in &po {
                let s = self.dead_flow_block(f, func, b, &cfg, &slot_stores, &input, None);
                if s != input[b.0 as usize] {
                    input[b.0 as usize] = s;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for &b in cfg.reverse_postorder() {
            self.dead_flow_block(f, func, b, &cfg, &slot_stores, &input, Some(out));
        }
    }

    /// One backward transfer of block `b`: meet (key intersection) over
    /// the successors' in-states, then the instructions in reverse.
    #[allow(clippy::too_many_arguments)]
    fn dead_flow_block(
        &self,
        f: FuncId,
        func: &Function,
        b: pmir::BlockId,
        cfg: &Cfg,
        slot_stores: &HashMap<ValueId, Vec<Operand>>,
        input: &[ReflushMap],
        mut sink: Option<&mut Vec<Finding>>,
    ) -> ReflushMap {
        let mut state = ReflushMap::new();
        for (k, &s) in cfg.succs(b).iter().enumerate() {
            let succ = &input[s.0 as usize];
            if k == 0 {
                state = succ.clone();
                continue;
            }
            state.retain(|key, _| succ.contains_key(key));
            for (key, evs) in state.iter_mut() {
                for ev in &succ[key] {
                    if !evs.contains(ev) {
                        evs.push(ev.clone());
                    }
                }
                if evs.len() > WITNESS_CAP {
                    evs.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
                    evs.truncate(WITNESS_CAP);
                }
            }
        }
        let mut res = Resolver::new(func);
        for &i in func.block(b).insts.iter().rev() {
            match &func.inst(i).op {
                Op::Flush { kind, addr } => {
                    let mut seen = HashSet::new();
                    let Some(line) = sym_line(func, slot_stores, &mut res, &mut seen, *addr) else {
                        continue;
                    };
                    if kind.is_weakly_ordered() {
                        if let (Some(evs), Some(sink)) = (state.get(&line), sink.as_deref_mut()) {
                            let score = addr
                                .as_value()
                                .map(|v| self.marking.score(self.checker.alias(), f, v))
                                .unwrap_or(0);
                            sink.push(Finding {
                                kind: FindingKind::CoalescableFlush,
                                function: func.name().to_string(),
                                func: f,
                                inst: i,
                                loc: self.trace_loc(f, i),
                                line: line.as_loc(),
                                witness: Witness {
                                    claim: "the line is flushed again before the next fence \
                                            on every path; the flushes coalesce into the later one"
                                        .to_string(),
                                    events: evs.clone(),
                                },
                                est_cycles_saved: self.cost.flush_issue,
                                score,
                            });
                        }
                    }
                    // Any flush (weak or strong) covers the line for
                    // everything earlier.
                    let ev = self.event(WitnessRole::Flush, f, i);
                    let evs = state.entry(line).or_default();
                    if !evs.contains(&ev) {
                        evs.push(ev);
                        if evs.len() > WITNESS_CAP {
                            evs.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
                            evs.truncate(WITNESS_CAP);
                        }
                    }
                }
                // A fence makes earlier flushes observable; a call may
                // fence or crash inside; a crashpoint or return is an
                // observation point of its own.
                Op::Fence { .. } | Op::Call { .. } | Op::CrashPoint | Op::Ret { .. } => {
                    state.clear();
                }
                _ => {}
            }
        }
        state
    }

    // ---- findings ---------------------------------------------------------

    fn event(&self, role: WitnessRole, f: FuncId, i: InstId) -> WitnessEvent {
        let func = self.m.function(f);
        WitnessEvent {
            role,
            function: func.name().to_string(),
            inst: i.0,
            loc: self.trace_loc(f, i),
        }
    }

    fn trace_loc(&self, f: FuncId, i: InstId) -> Option<TraceLoc> {
        let func = self.m.function(f);
        func.inst(i).loc.map(|l| TraceLoc {
            file: self.m.file_name(l.file).into(),
            line: l.line,
            col: l.col,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn check_flush(
        &self,
        f: FuncId,
        i: InstId,
        addr: Operand,
        line: &Loc,
        weak: bool,
        state: &RState,
        sink: &mut Vec<Finding>,
    ) {
        let Some(fact) = state.lines.get(line) else {
            return;
        };
        let (kind, claim) = match fact.level {
            Level::Durable => (
                FindingKind::RedundantFlush,
                "the flushed line is durable on every path reaching this flush",
            ),
            // Only a *weak* re-flush of a pending line coalesces; a strong
            // flush of a pending line still forces the write-back
            // synchronously and must stay.
            Level::Flushed if weak => (
                FindingKind::CoalescableFlush,
                "the line is already flushed on every path and no store intervenes",
            ),
            Level::Flushed => return,
        };
        let score = addr
            .as_value()
            .map(|v| self.marking.score(self.checker.alias(), f, v))
            .unwrap_or(0);
        sink.push(Finding {
            kind,
            function: self.m.function(f).name().to_string(),
            func: f,
            inst: i,
            loc: self.trace_loc(f, i),
            line: Some(line.clone()),
            witness: Witness {
                claim: claim.to_string(),
                events: fact.events.clone(),
            },
            est_cycles_saved: self.cost.flush_issue,
            score,
        });
    }

    fn check_fence(&self, f: FuncId, i: InstId, state: &RState, sink: &mut Vec<Finding>) {
        if state.unordered {
            return;
        }
        let func = self.m.function(f);
        let est = match &func.inst(i).op {
            Op::Fence {
                kind: FenceKind::Mfence,
            } => self.cost.mfence_base,
            _ => self.cost.sfence_base,
        };
        sink.push(Finding {
            kind: FindingKind::SinkableFence,
            function: func.name().to_string(),
            func: f,
            inst: i,
            loc: self.trace_loc(f, i),
            line: None,
            witness: Witness {
                claim: "no persistent store or flush since the previous fence on any path"
                    .to_string(),
                events: state.last_fences.clone(),
            },
            est_cycles_saved: est,
            score: 0,
        });
    }
}

/// Convenience wrapper: analyze `m` and report the findings reachable from
/// `entry`.
///
/// # Errors
///
/// Fails when `entry` names no function.
pub fn analyze_module(m: &Module, entry: &str) -> Result<Vec<Finding>, RedundError> {
    RedundAnalysis::new(m).findings(entry)
}
