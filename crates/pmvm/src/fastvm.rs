//! The VM's engine: direct-threaded dispatch over a [`DecodedModule`].
//!
//! Semantics are **identical** to the reference interpreter
//! ([`crate::Vm::run_reference`]) — same traces, same machine state, same errors and
//! stats — but the per-step work is a pc-indexed fetch from a flat op array
//! with pre-resolved operands: no block/inst arena walks, no operand
//! `match` on IR enums, no `HashMap` probes, and no allocation on the
//! untraced path.
//!
//! Tracing is abstracted behind [`EventSink`], a compile-time switch: the
//! run loop is monomorphized once over [`TraceSink`] (tracing on) and once
//! over [`NullSink`]. With the null sink, event emission — including the
//! stack capture — compiles away entirely, which is what makes
//! recovery-oracle boots during crash-state exploration nearly free. With
//! the trace sink, an event costs its own slot in the trace and nothing
//! more: names are interned once per run, and each activation's call stack
//! is built on its first event and shared by every later one.

use crate::decode::{DecOp, DecodedFunc, DecodedModule, OpMeta, Src, NO_DST};
use crate::options::VmOptions;
use crate::result::{Ended, RunResult, VmError};
use crate::vm::Boot;
use pmem_sim::{layout, Machine};
use pmir::Module;
use pmtrace::{DataLog, Event, EventKind, Frame, IrRef, Trace, TraceLoc};
use std::sync::Arc;

/// Compile-time tracing switch for the engine's run loop.
pub(crate) trait EventSink {
    /// Whether events are recorded at all. `false` makes every emission
    /// site compile away.
    const ENABLED: bool;
    /// Records event `seq`, raised by the op `at` of the innermost of
    /// `frames`.
    fn record(
        &mut self,
        seq: u64,
        kind: EventKind,
        at: Option<&OpMeta>,
        frames: &[FastFrame],
        decoded: &DecodedModule,
    );
    /// An activation was pushed: the call stack changed.
    fn call(&mut self);
    /// The innermost activation returned: the call stack changed.
    fn ret(&mut self);
    fn into_trace(self) -> Option<Trace>;
}

/// Tracing disabled: all event work is dead code.
pub(crate) struct NullSink;

impl EventSink for NullSink {
    const ENABLED: bool = false;
    fn record(
        &mut self,
        _: u64,
        _: EventKind,
        _: Option<&OpMeta>,
        _: &[FastFrame],
        _: &DecodedModule,
    ) {
    }
    fn call(&mut self) {}
    fn ret(&mut self) {}
    fn into_trace(self) -> Option<Trace> {
        None
    }
}

/// Tracing enabled: events accumulate into a [`Trace`].
///
/// Every name an event carries is cloned from a per-run table, so an event
/// copies pointers, not strings. A call stack does not change while its
/// innermost activation runs (every outer frame is suspended at its call),
/// so the sink keeps one stack per live activation, built on that
/// activation's first event: the events of one activation share one
/// allocation, and a caller's stack survives its callees.
pub(crate) struct TraceSink {
    trace: Trace,
    /// Function names, indexed like [`DecodedModule::funcs`].
    funcs: Vec<Arc<str>>,
    /// File names, indexed by `pmir::FileId`, then `"<unknown>"` for any id
    /// past the module's table (as `Module::file_name` renders it).
    files: Vec<Arc<str>>,
    /// One entry per live activation, outermost first: its stack, once an
    /// event inside it has needed one.
    stacks: Vec<Option<Arc<[Frame]>>>,
}

impl TraceSink {
    fn new(module: &Module, decoded: &DecodedModule) -> Self {
        let mut trace = Trace::new();
        // Traces run to thousands of events; growing from empty pays a
        // dozen reallocations that each memmove the whole log.
        trace.events.reserve(1024);
        let files = module.files().iter().map(String::as_str);
        TraceSink {
            trace,
            funcs: decoded
                .funcs
                .iter()
                .map(|f| Arc::from(f.name.as_str()))
                .collect(),
            files: files.chain(["<unknown>"]).map(Arc::from).collect(),
            stacks: Vec::with_capacity(16),
        }
    }

    fn trace_loc(&self, loc: Option<pmir::SrcLoc>) -> Option<TraceLoc> {
        loc.map(|l| TraceLoc {
            // Ids past the module's table land on the trailing "<unknown>".
            file: Arc::clone(&self.files[(l.file.0 as usize).min(self.files.len() - 1)]),
            line: l.line,
            col: l.col,
        })
    }

    /// The current call stack, innermost first: built once per activation.
    fn stack(&mut self, frames: &[FastFrame], decoded: &DecodedModule) -> Arc<[Frame]> {
        if let Some(Some(stack)) = self.stacks.last() {
            return Arc::clone(stack);
        }
        let stack: Arc<[Frame]> = frames
            .iter()
            .rev()
            .enumerate()
            .map(|(depth, fr)| {
                // Every frame but the innermost is suspended at its call op.
                let (call_inst, loc) = if depth == 0 {
                    (None, None)
                } else {
                    let m = &decoded.funcs[fr.func as usize].meta[fr.pc as usize];
                    (Some(m.inst), self.trace_loc(m.loc))
                };
                Frame {
                    function: Arc::clone(&self.funcs[fr.func as usize]),
                    call_inst,
                    loc,
                }
            })
            .collect();
        if let Some(slot) = self.stacks.last_mut() {
            *slot = Some(Arc::clone(&stack));
        }
        stack
    }
}

impl EventSink for TraceSink {
    const ENABLED: bool = true;
    fn record(
        &mut self,
        seq: u64,
        kind: EventKind,
        at: Option<&OpMeta>,
        frames: &[FastFrame],
        decoded: &DecodedModule,
    ) {
        let stack = self.stack(frames, decoded);
        let (at, loc) = match (at, frames.last()) {
            (Some(m), Some(fr)) => (
                Some(IrRef {
                    function: Arc::clone(&self.funcs[fr.func as usize]),
                    inst: m.inst,
                }),
                self.trace_loc(m.loc),
            ),
            _ => (None, None),
        };
        self.trace.push(Event {
            seq,
            kind,
            at,
            loc,
            stack,
        });
    }
    fn call(&mut self) {
        self.stacks.push(None);
    }
    fn ret(&mut self) {
        self.stacks.pop();
    }
    fn into_trace(self) -> Option<Trace> {
        Some(self.trace)
    }
}

/// Runs a booted program on the engine. Called by [`crate::Vm::run`] after
/// option validation and machine/injector setup.
pub(crate) fn run(
    module: &Module,
    opts: &VmOptions,
    boot: Boot,
    decoded: Option<&DecodedModule>,
) -> Result<RunResult, VmError> {
    let owned;
    let decoded = match decoded {
        Some(d) => d,
        None => {
            owned = DecodedModule::decode(module);
            &owned
        }
    };
    if opts.trace {
        let sink = TraceSink::new(module, decoded);
        go(module, decoded, opts, boot, sink)
    } else {
        go(module, decoded, opts, boot, NullSink)
    }
}

fn go<S: EventSink>(
    module: &Module,
    decoded: &DecodedModule,
    opts: &VmOptions,
    boot: Boot,
    sink: S,
) -> Result<RunResult, VmError> {
    let mut exec = FastExec {
        module,
        decoded,
        machine: boot.machine,
        frames: Vec::with_capacity(16),
        vals: Vec::with_capacity(256),
        globals: Vec::new(),
        output: vec![],
        sink,
        pm_data: opts.capture_pm_data.then(|| {
            let mut d = DataLog::new();
            d.records.reserve(256);
            d
        }),
        steps: 0,
        seq: 0,
        crash_points: 0,
        pm_stores_seen: 0,
        fuel: boot.fuel,
        deadline: boot.deadline,
        injector: boot.injector,
        opts,
    };
    exec.install_globals()?;
    exec.push_call(boot.entry.0);
    let (ended, return_value) = exec.run_loop()?;
    if ended == Ended::Returned {
        exec.emit(EventKind::ProgramEnd, None);
    }
    crate::vm::record_run_obs(
        opts,
        exec.steps,
        exec.machine.stats(),
        exec.fuel,
        &exec.injector,
    );
    Ok(RunResult {
        output: exec.output,
        return_value,
        ended,
        stats: *exec.machine.stats(),
        trace: exec.sink.into_trace(),
        pm_data: exec.pm_data,
        machine: exec.machine,
        steps: exec.steps,
    })
}

/// One activation record: the function, its pc, and the base of its value
/// window in the shared slot stack.
pub(crate) struct FastFrame {
    func: u32,
    pc: u32,
    base: u32,
}

struct FastExec<'m, 'o, S: EventSink> {
    module: &'m Module,
    decoded: &'m DecodedModule,
    machine: Machine,
    frames: Vec<FastFrame>,
    /// Value slots for every live frame, contiguously — a call extends it,
    /// a return truncates it. No per-call allocation once warm.
    vals: Vec<Option<i64>>,
    /// Dense global address table, indexed by `GlobalId.0`.
    globals: Vec<u64>,
    output: Vec<i64>,
    sink: S,
    pm_data: Option<DataLog>,
    steps: u64,
    seq: u64,
    crash_points: u64,
    pm_stores_seen: u64,
    fuel: u64,
    deadline: Option<std::time::Instant>,
    injector: Option<pmfault::Injector>,
    opts: &'o VmOptions,
}

impl<S: EventSink> FastExec<'_, '_, S> {
    fn install_globals(&mut self) -> Result<(), VmError> {
        for (_, g) in self.module.globals() {
            let addr = self.machine.add_global(g.size, &g.init)?;
            self.globals.push(addr);
        }
        Ok(())
    }

    fn push_call(&mut self, func: u32) {
        let df = &self.decoded.funcs[func as usize];
        let base = self.vals.len() as u32;
        self.vals
            .resize(self.vals.len() + df.n_values as usize, None);
        for slot in &mut self.vals[base as usize..(base + df.n_params) as usize] {
            *slot = Some(0);
        }
        self.machine.push_frame();
        self.frames.push(FastFrame {
            func,
            pc: df.entry_pc,
            base,
        });
        self.sink.call();
    }

    fn cur_func_name(&self) -> String {
        self.frames
            .last()
            .map(|f| self.decoded.funcs[f.func as usize].name.clone())
            .unwrap_or_default()
    }

    #[inline(always)]
    fn read(&self, base: u32, s: Src) -> Result<i64, VmError> {
        match s {
            Src::Const(c) => Ok(c),
            Src::Slot(n) => self.vals[(base + n) as usize].ok_or_else(|| VmError::UndefinedValue {
                function: self.cur_func_name(),
            }),
        }
    }

    #[inline(always)]
    fn write(&mut self, base: u32, dst: u32, v: i64) {
        if dst != NO_DST {
            self.vals[(base + dst) as usize] = Some(v);
        }
    }

    fn emit(&mut self, kind: EventKind, at: Option<&OpMeta>) -> Option<u64> {
        if !S::ENABLED {
            return None;
        }
        let seq = self.seq;
        self.seq += 1;
        self.sink.record(seq, kind, at, &self.frames, self.decoded);
        Some(seq)
    }

    /// Records the post-store cache bytes of a PM write into the data log.
    fn capture_pm_write(&mut self, seq: Option<u64>, addr: u64, len: u64) {
        if !S::ENABLED {
            return;
        }
        let (Some(seq), Some(_)) = (seq, self.pm_data.as_ref()) else {
            return;
        };
        let bytes = self.machine.peek(addr, len).unwrap_or_default();
        self.pm_data
            .as_mut()
            .expect("checked")
            .push(seq, addr, bytes);
    }

    fn after_pm_store(&mut self, addr: u64) {
        self.pm_stores_seen += 1;
        if let Some(k) = self.opts.evict_period {
            if k > 0 && self.pm_stores_seen.is_multiple_of(k) {
                self.machine.evict(addr);
            }
        }
    }

    fn check_watchdog(&self) -> Result<(), VmError> {
        if let Some(d) = self.deadline {
            if std::time::Instant::now() >= d {
                return Err(VmError::Watchdog {
                    limit_ms: self.opts.watchdog_ms.unwrap_or(0),
                });
            }
        }
        Ok(())
    }

    /// An injected divergence: spin until the watchdog fires (validated
    /// armed whenever a stuck-loop fault is planned).
    fn stuck_loop(&self) -> Result<(Ended, Option<i64>), VmError> {
        loop {
            self.check_watchdog()?;
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    /// The first step after `steps` that needs a look outside the op it
    /// runs: the step past the fuel, or the next one on the watchdog's
    /// stride (a multiple of 1024: no clock syscalls in the hot loop).
    fn next_check(&self, steps: u64) -> u64 {
        self.fuel.saturating_add(1).min((steps | 0x3FF) + 1)
    }

    fn run_loop(&mut self) -> Result<(Ended, Option<i64>), VmError> {
        // Copy the decoded-module reference out of `self` so op borrows are
        // tied to 'm rather than to `self`: the dispatch below calls
        // &mut self methods while holding `op`.
        let decoded = self.decoded;
        // The running activation lives in locals. Its frame's `pc` is
        // written back only at a call, because only a suspended caller's
        // `pc` is ever read again: by the matching return, and by the trace
        // stacks of events raised below it.
        let top = self.frames.last().expect("the entry activation is pushed");
        let (mut pc, mut base) = (top.pc, top.base);
        let mut df: &DecodedFunc = &decoded.funcs[top.func as usize];
        let stop_at_event = self.opts.stop_at_event;
        let diverge_armed = self.injector.is_some();
        let mut steps = self.steps;
        let mut check_at = self.next_check(steps);
        let ended = loop {
            // `stop_at_event`: the previous op emitted event `n` and
            // completed; crash here, before the next op runs.
            if let Some(n) = stop_at_event {
                if self.seq > n {
                    break (Ended::AtEvent(n), None);
                }
            }
            steps += 1;
            if steps >= check_at {
                if steps > self.fuel {
                    return Err(VmError::FuelExhausted { limit: self.fuel });
                }
                self.check_watchdog()?;
                check_at = self.next_check(steps);
            }
            if diverge_armed {
                if let Some(pmfault::FaultKind::StuckLoop) = self
                    .injector
                    .as_mut()
                    .and_then(|i| i.fire(pmfault::FaultSite::VmDiverge))
                {
                    return self.stuck_loop();
                }
            }
            self.machine.charge_inst();

            let op: &DecOp = &df.ops[pc as usize];
            match op {
                DecOp::Bin { op, a, b, dst } => {
                    let (a, b) = (self.read(base, *a)?, self.read(base, *b)?);
                    let r = op.eval(a, b).ok_or_else(|| VmError::DivisionByZero {
                        function: self.cur_func_name(),
                    })?;
                    self.write(base, *dst, r);
                    pc += 1;
                }
                DecOp::Cmp { pred, a, b, dst } => {
                    let r = pred.eval(self.read(base, *a)?, self.read(base, *b)?);
                    self.write(base, *dst, r);
                    pc += 1;
                }
                DecOp::Alloca { size, dst } => {
                    let addr = self.machine.stack_alloc(*size)?;
                    self.write(base, *dst, addr as i64);
                    pc += 1;
                }
                DecOp::HeapAlloc { size, dst } => {
                    let size = self.read(base, *size)? as u64;
                    let addr = self.machine.heap_alloc(size)?;
                    self.write(base, *dst, addr as i64);
                    pc += 1;
                }
                DecOp::HeapFree { ptr } => {
                    let addr = self.read(base, *ptr)? as u64;
                    self.machine.heap_free(addr)?;
                    pc += 1;
                }
                DecOp::PmemMap {
                    size,
                    pool_hint,
                    dst,
                } => {
                    let pool_hint = *pool_hint;
                    let dst = *dst;
                    let size = self.read(base, *size)? as u64;
                    let pm_base = self.machine.map_pool(pool_hint, size)?;
                    self.write(base, dst, pm_base as i64);
                    let meta = &df.meta[pc as usize];
                    self.emit(
                        EventKind::RegisterPool {
                            hint: pool_hint,
                            base: pm_base,
                            size,
                        },
                        Some(meta),
                    );
                    pc += 1;
                }
                DecOp::Gep {
                    base: b0,
                    offset,
                    dst,
                } => {
                    let r = (self.read(base, *b0)? as u64)
                        .wrapping_add(self.read(base, *offset)? as u64);
                    self.write(base, *dst, r as i64);
                    pc += 1;
                }
                DecOp::Load { width, addr, dst } => {
                    let a = self.read(base, *addr)? as u64;
                    let v = self.machine.load_int(a, *width)?;
                    self.write(base, *dst, v);
                    pc += 1;
                }
                DecOp::Store { width, addr, value } => {
                    let width = *width;
                    let a = self.read(base, *addr)? as u64;
                    let v = self.read(base, *value)?;
                    self.machine.store_int(a, width, v)?;
                    if layout::is_pm_addr(a) {
                        let seq = self.emit(
                            EventKind::Store {
                                addr: a,
                                len: width as u64,
                            },
                            Some(&df.meta[pc as usize]),
                        );
                        self.capture_pm_write(seq, a, width as u64);
                        self.after_pm_store(a);
                    }
                    pc += 1;
                }
                DecOp::Memcpy { dst_addr, src, len } => {
                    let d = self.read(base, *dst_addr)? as u64;
                    let s = self.read(base, *src)? as u64;
                    let n = self.read(base, *len)? as u64;
                    self.machine.memcpy(d, s, n)?;
                    if n > 0 && layout::is_pm_addr(d) {
                        let seq = self.emit(
                            EventKind::Store { addr: d, len: n },
                            Some(&df.meta[pc as usize]),
                        );
                        self.capture_pm_write(seq, d, n);
                        self.after_pm_store(d);
                    }
                    pc += 1;
                }
                DecOp::Memset { dst_addr, val, len } => {
                    let d = self.read(base, *dst_addr)? as u64;
                    let v = self.read(base, *val)? as u8;
                    let n = self.read(base, *len)? as u64;
                    self.machine.memset(d, v, n)?;
                    if n > 0 && layout::is_pm_addr(d) {
                        let seq = self.emit(
                            EventKind::Store { addr: d, len: n },
                            Some(&df.meta[pc as usize]),
                        );
                        self.capture_pm_write(seq, d, n);
                        self.after_pm_store(d);
                    }
                    pc += 1;
                }
                DecOp::Flush { sim, trace, addr } => {
                    let (sim, trace) = (*sim, *trace);
                    let a = self.read(base, *addr)? as u64;
                    self.machine.flush(sim, a)?;
                    if layout::is_pm_addr(a) {
                        self.emit(
                            EventKind::Flush {
                                kind: trace,
                                addr: a,
                            },
                            Some(&df.meta[pc as usize]),
                        );
                    }
                    pc += 1;
                }
                DecOp::Fence { sim, trace } => {
                    let (sim, trace) = (*sim, *trace);
                    self.machine.fence(sim);
                    self.emit(
                        EventKind::Fence { kind: trace },
                        Some(&df.meta[pc as usize]),
                    );
                    pc += 1;
                }
                DecOp::Call {
                    callee,
                    args,
                    dst: _,
                } => {
                    let callee = *callee;
                    // Arguments are read from the caller's window *before*
                    // the callee's window is pushed (the push may
                    // reallocate `vals`).
                    let argc = args.len();
                    let mut argv = [0i64; 8];
                    let mut spill: Vec<i64> = Vec::new();
                    if argc <= 8 {
                        for (i, &a) in args.iter().enumerate() {
                            argv[i] = self.read(base, a)?;
                        }
                    } else {
                        spill.reserve(argc);
                        for &a in args.iter() {
                            spill.push(self.read(base, a)?);
                        }
                    }
                    self.machine.charge_call();
                    self.frames.last_mut().expect("active frame").pc = pc;
                    self.push_call(callee);
                    let top = self.frames.last().expect("just pushed");
                    (pc, base) = (top.pc, top.base);
                    df = &decoded.funcs[callee as usize];
                    let src: &[i64] = if argc <= 8 { &argv[..argc] } else { &spill };
                    for (i, &v) in src.iter().enumerate() {
                        self.vals[base as usize + i] = Some(v);
                    }
                }
                DecOp::Ret { value } => {
                    let v = match value {
                        Some(v) => Some(self.read(base, *v)?),
                        None => None,
                    };
                    self.machine.pop_frame();
                    let done = self.frames.pop().expect("active frame");
                    self.sink.ret();
                    self.vals.truncate(done.base as usize);
                    let Some(caller) = self.frames.last() else {
                        break (Ended::Returned, v);
                    };
                    (pc, base) = (caller.pc, caller.base);
                    df = &decoded.funcs[caller.func as usize];
                    if let DecOp::Call { dst, .. } = &df.ops[pc as usize] {
                        if let Some(v) = v {
                            self.write(base, *dst, v);
                        }
                    }
                    pc += 1;
                }
                DecOp::Br { target } => {
                    pc = *target;
                }
                DecOp::CondBr {
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    let c = self.read(base, *cond)?;
                    pc = if c != 0 { *then_pc } else { *else_pc };
                }
                DecOp::GlobalAddr { global, dst } => {
                    let addr = self.globals[*global as usize];
                    self.write(base, *dst, addr as i64);
                    pc += 1;
                }
                DecOp::Print { value } => {
                    let v = self.read(base, *value)?;
                    self.output.push(v);
                    pc += 1;
                }
                DecOp::CrashPoint => {
                    self.crash_points += 1;
                    self.emit(EventKind::CrashPoint, Some(&df.meta[pc as usize]));
                    if self.opts.stop_at_crash_point == Some(self.crash_points) {
                        break (Ended::CrashPoint(self.crash_points), None);
                    }
                    pc += 1;
                }
                DecOp::Abort { code } => {
                    break (Ended::Aborted(*code), None);
                }
                DecOp::TrapFallthrough => {
                    // Matches the interpreter's behavior on malformed IR: it
                    // panics indexing past the block's instruction list.
                    panic!(
                        "control fell off the end of a block in `{}` (malformed IR)",
                        df.name
                    );
                }
            }
        };
        self.steps = steps;
        Ok(ended)
    }
}

#[cfg(test)]
mod tests {
    use crate::interp::tests::{run_both, run_both_from};
    use crate::VmOptions;
    use pmir::{BinOp, CmpPred, FenceKind, FlushKind, FunctionBuilder, Module, Operand, Type};

    /// A module exercising every op family: arithmetic, control flow,
    /// calls/recursion, globals, heap, PM stores/memops/flushes/fences,
    /// crash points, and source locations. Its `recover` entry maps the
    /// same pool and loads back what `main` made durable before its crash
    /// point.
    fn kitchen_sink() -> Module {
        let mut m = Module::new();
        let file = m.intern_file("sink.pmc");
        let g = m.add_global("seed", 16, b"abcdefgh".to_vec());
        let fib = m.declare_function("fib", vec![Type::int(8)], Type::int(8));
        {
            let mut b = FunctionBuilder::new(&mut m, fib);
            let e = b.entry_block();
            let rec = b.new_block("rec");
            let base = b.new_block("base");
            b.switch_to(e);
            let n = b.arg(0);
            let c = b.cmp(CmpPred::SLt, n, 2i64);
            b.cond_br(c, base, rec);
            b.switch_to(base);
            b.ret(Some(Operand::Value(n)));
            b.switch_to(rec);
            let n1 = b.bin(BinOp::Sub, n, 1i64);
            let n2 = b.bin(BinOp::Sub, n, 2i64);
            let a = b.call(fib, vec![Operand::Value(n1)]).unwrap();
            let bb = b.call(fib, vec![Operand::Value(n2)]).unwrap();
            let s = b.bin(BinOp::Add, a, bb);
            b.ret(Some(Operand::Value(s)));
            b.finish();
        }
        let touch = m.declare_function("touch", vec![Type::Ptr], Type::Void);
        {
            let mut b = FunctionBuilder::new(&mut m, touch);
            let e = b.entry_block();
            b.switch_to(e);
            b.set_loc(pmir::SrcLoc::line(file, 7));
            let p = b.arg(0);
            b.store(Type::int(8), p, 0x1122334455667788i64);
            b.flush(FlushKind::Clwb, p);
            b.fence(FenceKind::Sfence);
            b.ret(None);
            b.finish();
        }
        let f = m.declare_function("main", vec![], Type::int(8));
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        b.set_loc(pmir::SrcLoc::line(file, 30));
        let pool = b.pmem_map(4096i64, 0);
        let ga = b.global_addr(g);
        b.memcpy(pool, ga, 8i64);
        let off = b.gep(pool, 64i64);
        b.call(touch, vec![Operand::Value(off)]);
        b.memset(pool, 0x5ai64, 4i64);
        b.flush(FlushKind::Clflush, pool);
        let flag = b.gep(pool, 128i64);
        b.store(Type::int(1), flag, 1i64);
        b.flush(FlushKind::Clflush, flag);
        b.crash_point();
        let h = b.heap_alloc(64i64);
        b.store(Type::int(8), h, 7i64);
        let hv = b.load(Type::int(8), h);
        b.heap_free(h);
        let slot = b.alloca(8);
        b.store(Type::int(8), slot, 0i64);
        let fv = b.call(fib, vec![Operand::Const(9)]).unwrap();
        b.print(fv);
        b.print(hv);
        let r = b.bin(BinOp::Add, fv, hv);
        b.fence(FenceKind::Mfence);
        b.ret(Some(Operand::Value(r)));
        b.finish();
        let rec = m.declare_function("recover", vec![], Type::int(8));
        let mut b = FunctionBuilder::new(&mut m, rec);
        let e = b.entry_block();
        b.switch_to(e);
        let pool = b.pmem_map(4096i64, 0);
        let head = b.load(Type::int(8), pool);
        let off = b.gep(pool, 64i64);
        let touched = b.load(Type::int(8), off);
        let off = b.gep(pool, 128i64);
        let flag = b.load(Type::int(1), off);
        for v in [head, touched, flag] {
            b.print(v);
        }
        let r = b.bin(BinOp::Add, head, flag);
        b.ret(Some(Operand::Value(r)));
        b.finish();
        m
    }

    #[test]
    fn tiers_agree_on_kitchen_sink() {
        run_both(&kitchen_sink(), VmOptions::default().capture_pm_data()).unwrap();
    }

    #[test]
    fn tiers_agree_untraced() {
        run_both(&kitchen_sink(), VmOptions::bench()).unwrap();
    }

    #[test]
    fn tiers_agree_on_untraced_recovery_loads() {
        // Crash at the crash point, then boot `recover` untraced on that
        // image: its PM loads read what was durable, on both engines.
        let m = kitchen_sink();
        let crashed = run_both(&m, VmOptions::default().stop_at(1)).unwrap();
        let opts = VmOptions::bench().with_media(crashed.machine.into_media());
        let rec = run_both_from(&m, "recover", opts).unwrap();
        let head = i64::from_le_bytes(*b"ZZZZefgh");
        assert_eq!(rec.output, vec![head, 0x1122334455667788, 1]);
    }

    #[test]
    fn tiers_agree_at_crash_point_stop() {
        run_both(&kitchen_sink(), VmOptions::default().stop_at(1)).unwrap();
    }

    #[test]
    fn tiers_agree_at_every_event_stop() {
        let m = kitchen_sink();
        let full = run_both(&m, VmOptions::default()).unwrap();
        let n_events = full.trace.as_ref().unwrap().len() as u64;
        assert!(n_events > 5, "sink module must emit a real trace");
        for seq in 0..n_events {
            run_both(&m, VmOptions::default().stop_at_event(seq)).unwrap();
        }
    }

    #[test]
    fn tiers_agree_with_eviction_pressure() {
        let opts = VmOptions {
            evict_period: Some(2),
            ..VmOptions::default()
        };
        run_both(&kitchen_sink(), opts).unwrap();
    }

    #[test]
    fn tiers_agree_on_errors() {
        // Division by zero carries the trapping function's name.
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let v = b.bin(BinOp::SDiv, 1i64, 0i64);
        b.print(v);
        b.ret(None);
        b.finish();
        run_both(&m, VmOptions::default()).unwrap_err();

        // Fuel exhaustion reports the same limit.
        let spin = {
            let mut m = Module::new();
            let f = m.declare_function("main", vec![], Type::Void);
            let mut b = FunctionBuilder::new(&mut m, f);
            let e = b.entry_block();
            let s = b.new_block("s");
            b.switch_to(e);
            b.br(s);
            b.switch_to(s);
            b.br(s);
            b.finish();
            m
        };
        let opts = VmOptions {
            max_steps: 100,
            ..VmOptions::default()
        };
        run_both(&spin, opts).unwrap_err();
    }

    #[test]
    fn tiers_agree_at_every_fuel_limit() {
        // Every `max_steps` from 1 to the full run: the fuel check and the
        // watchdog stride share one compare, so each limit must stop the
        // engine at the same step, with the same error, as the reference.
        let m = kitchen_sink();
        for opts in [VmOptions::default().capture_pm_data(), VmOptions::bench()] {
            let steps = run_both(&m, opts.clone()).unwrap().steps;
            assert!(steps > 100, "the sink module must run a real loop");
            for max_steps in 1..=steps {
                let r = run_both(
                    &m,
                    VmOptions {
                        max_steps,
                        ..opts.clone()
                    },
                );
                assert_eq!(r.is_ok(), max_steps == steps, "max_steps {max_steps}");
            }
        }
    }

    #[test]
    fn tiers_agree_when_fuel_ends_on_the_watchdog_stride() {
        // Runs of exactly 1024 and 2048 steps: their last step is also a
        // watchdog step, where the fuel must still allow it.
        for n in [1024, 2048] {
            let mut m = Module::new();
            let f = m.declare_function("main", vec![], Type::Void);
            let mut b = FunctionBuilder::new(&mut m, f);
            let e = b.entry_block();
            b.switch_to(e);
            for _ in 1..n {
                b.bin(BinOp::Add, 1i64, 2i64);
            }
            b.ret(None);
            b.finish();
            for max_steps in [n - 1, n, n + 1] {
                let r = run_both(
                    &m,
                    VmOptions {
                        max_steps,
                        ..VmOptions::bench()
                    },
                );
                assert_eq!(r.map(|r| r.steps).ok(), (max_steps >= n).then_some(n));
            }
        }
    }

    #[test]
    fn tiers_agree_on_abort_and_restart() {
        // Run to a crash (the two media agree), then compare a reboot of
        // that medium too.
        let m = kitchen_sink();
        let crashed = run_both(&m, VmOptions::default().stop_at(1)).unwrap();
        let media = crashed.machine.into_media();
        run_both(&m, VmOptions::default().with_media(media)).unwrap();
    }
}
