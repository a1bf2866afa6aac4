//! The reference interpreter: [`Vm::run_reference`] walks the pmir arenas
//! directly, one instruction at a time. It is slow and plain on purpose:
//! tests compare the decoded engine ([`Vm::run`]) against it, and the
//! pipeline never calls it.

use crate::decode::{to_sim_fence, to_sim_flush, to_trace_fence, to_trace_flush};
use crate::options::VmOptions;
use crate::result::{Ended, RunResult, VmError};
use crate::vm::{record_run_obs, Vm};
use pmem_sim::{layout, Machine};
use pmir::{BlockId, FuncId, GlobalId, InstId, Module, Op, Operand};
use pmtrace::{DataLog, Event, EventKind, IrRef, Trace, TraceLoc};
use std::collections::HashMap;

impl Vm {
    /// Runs `entry` on the reference interpreter: the same boot as
    /// [`Vm::run`], then an arena-walking loop instead of the decoded
    /// engine. Tests hold every [`RunResult`] field and every error of the
    /// two equal; nothing else calls this.
    ///
    /// # Errors
    ///
    /// The same [`VmError`]s as [`Vm::run`].
    pub fn run_reference(&mut self, module: &Module, entry: &str) -> Result<RunResult, VmError> {
        let _span = self.opts.obs.span("vm.run");
        let boot = self.boot(module, entry)?;
        let mut exec = Exec {
            module,
            machine: boot.machine,
            frames: vec![],
            globals: HashMap::new(),
            output: vec![],
            trace: self.opts.trace.then(Trace::new),
            pm_data: self.opts.capture_pm_data.then(DataLog::new),
            steps: 0,
            seq: 0,
            crash_points: 0,
            pm_stores_seen: 0,
            fuel: boot.fuel,
            deadline: boot.deadline,
            injector: boot.injector,
            opts: &self.opts,
        };
        exec.install_globals()?;
        exec.push_call(boot.entry);
        let (ended, return_value) = exec.run_loop()?;
        if ended == Ended::Returned {
            exec.emit(EventKind::ProgramEnd, None);
        }
        record_run_obs(
            &self.opts,
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
            trace: exec.trace,
            pm_data: exec.pm_data,
            machine: exec.machine,
            steps: exec.steps,
        })
    }
}

/// One activation record.
struct Frame {
    func: FuncId,
    vals: Vec<Option<i64>>,
    block: BlockId,
    idx: usize,
}

struct Exec<'m, 'o> {
    module: &'m Module,
    machine: Machine,
    frames: Vec<Frame>,
    globals: HashMap<GlobalId, u64>,
    output: Vec<i64>,
    trace: Option<Trace>,
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

impl Exec<'_, '_> {
    fn install_globals(&mut self) -> Result<(), VmError> {
        for (id, g) in self.module.globals() {
            let addr = self.machine.add_global(g.size, &g.init)?;
            self.globals.insert(id, addr);
        }
        Ok(())
    }

    fn push_call(&mut self, func: FuncId) {
        let f = self.module.function(func);
        let mut vals = vec![None; f.value_count()];
        // Argument values are filled by the caller before push for non-entry
        // frames; the entry has none.
        for slot in vals.iter_mut().take(f.params().len()) {
            *slot = Some(0);
        }
        self.machine.push_frame();
        self.frames.push(Frame {
            func,
            vals,
            block: f.entry(),
            idx: 0,
        });
    }

    fn cur_func_name(&self) -> String {
        self.frames
            .last()
            .map(|f| self.module.function(f.func).name().to_string())
            .unwrap_or_default()
    }

    fn eval(&self, op: Operand) -> Result<i64, VmError> {
        match op {
            Operand::Const(c) => Ok(c),
            Operand::Null => Ok(0),
            Operand::Value(v) => {
                let frame = self.frames.last().expect("active frame");
                frame.vals[v.0 as usize].ok_or_else(|| VmError::UndefinedValue {
                    function: self.cur_func_name(),
                })
            }
        }
    }

    fn set_result(&mut self, inst: InstId, value: i64) {
        let frame = self.frames.last_mut().expect("active frame");
        let f = self.module.function(frame.func);
        if let Some(r) = f.inst(inst).result {
            frame.vals[r.0 as usize] = Some(value);
        }
    }

    fn trace_loc(&self, loc: Option<pmir::SrcLoc>) -> Option<TraceLoc> {
        loc.map(|l| TraceLoc {
            file: self.module.file_name(l.file).into(),
            line: l.line,
            col: l.col,
        })
    }

    /// Captures the current call stack, innermost first.
    fn capture_stack(&self) -> std::sync::Arc<[pmtrace::Frame]> {
        let mut out = Vec::with_capacity(self.frames.len());
        for (depth, fr) in self.frames.iter().enumerate().rev() {
            let f = self.module.function(fr.func);
            let innermost = depth == self.frames.len() - 1;
            let (call_inst, loc) = if innermost {
                (None, None)
            } else {
                // This frame is suspended at its call instruction.
                let inst = f.block(fr.block).insts[fr.idx];
                (Some(inst.0), self.trace_loc(f.inst(inst).loc))
            };
            out.push(pmtrace::Frame {
                function: f.name().into(),
                call_inst,
                loc,
            });
        }
        out.into()
    }

    fn emit(&mut self, kind: EventKind, at: Option<(InstId, Option<pmir::SrcLoc>)>) -> Option<u64> {
        self.trace.as_ref()?;
        let stack = self.capture_stack();
        let (at, loc) = match at {
            Some((inst, loc)) => (
                Some(IrRef {
                    function: self.cur_func_name().into(),
                    inst: inst.0,
                }),
                self.trace_loc(loc),
            ),
            None => (None, None),
        };
        let seq = self.seq;
        self.seq += 1;
        self.trace.as_mut().expect("checked").push(Event {
            seq,
            kind,
            at,
            loc,
            stack,
        });
        Some(seq)
    }

    /// Records the post-store cache bytes of a PM write into the data log,
    /// keyed by the store event's sequence number.
    fn capture_pm_write(&mut self, seq: Option<u64>, addr: u64, len: u64) {
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

    /// An injected divergence: spin (politely) until the watchdog fires.
    /// `Vm::run` validated that a watchdog is armed whenever a stuck-loop
    /// fault is planned, so this always terminates.
    fn stuck_loop(&self) -> Result<(Ended, Option<i64>), VmError> {
        loop {
            self.check_watchdog()?;
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    fn run_loop(&mut self) -> Result<(Ended, Option<i64>), VmError> {
        let mut last_ret: Option<i64> = None;
        while let Some(frame) = self.frames.last() {
            // `stop_at_event`: the previous iteration's instruction emitted
            // event `n` (and finished executing); crash here, before the
            // next instruction runs.
            if let Some(n) = self.opts.stop_at_event {
                if self.seq > n {
                    return Ok((Ended::AtEvent(n), None));
                }
            }
            self.steps += 1;
            if self.steps > self.fuel {
                return Err(VmError::FuelExhausted { limit: self.fuel });
            }
            // The wall-clock watchdog is checked on a coarse step stride so
            // the hot loop stays free of syscalls.
            if self.steps & 0x3FF == 0 {
                self.check_watchdog()?;
            }
            if self.injector.is_some() {
                if let Some(pmfault::FaultKind::StuckLoop) = self
                    .injector
                    .as_mut()
                    .and_then(|i| i.fire(pmfault::FaultSite::VmDiverge))
                {
                    // The interpreter stops making progress: only the
                    // wall-clock watchdog (validated present up front) can
                    // end this run.
                    return self.stuck_loop();
                }
            }
            let func_id = frame.func;
            // Copy the module reference out of `self` so instruction borrows
            // are tied to 'm rather than to `self` — the hot loop must not
            // clone ops (call argument vectors would allocate per step).
            let module = self.module;
            let f = module.function(func_id);
            let inst_id = f.block(frame.block).insts[frame.idx];
            let inst = f.inst(inst_id);
            let loc = inst.loc;
            self.machine.charge_inst();

            match &inst.op {
                Op::Bin { op, a, b } => {
                    let (a, b) = (self.eval(*a)?, self.eval(*b)?);
                    let r = op.eval(a, b).ok_or_else(|| VmError::DivisionByZero {
                        function: self.cur_func_name(),
                    })?;
                    self.set_result(inst_id, r);
                    self.advance();
                }
                Op::Cmp { pred, a, b } => {
                    let r = pred.eval(self.eval(*a)?, self.eval(*b)?);
                    self.set_result(inst_id, r);
                    self.advance();
                }
                Op::Alloca { size } => {
                    let addr = self.machine.stack_alloc(*size)?;
                    self.set_result(inst_id, addr as i64);
                    self.advance();
                }
                Op::HeapAlloc { size } => {
                    let size = self.eval(*size)? as u64;
                    let addr = self.machine.heap_alloc(size)?;
                    self.set_result(inst_id, addr as i64);
                    self.advance();
                }
                Op::HeapFree { ptr } => {
                    let addr = self.eval(*ptr)? as u64;
                    self.machine.heap_free(addr)?;
                    self.advance();
                }
                Op::PmemMap { size, pool_hint } => {
                    let pool_hint = *pool_hint;
                    let size = self.eval(*size)? as u64;
                    let base = self.machine.map_pool(pool_hint, size)?;
                    self.set_result(inst_id, base as i64);
                    self.emit(
                        EventKind::RegisterPool {
                            hint: pool_hint,
                            base,
                            size,
                        },
                        Some((inst_id, loc)),
                    );
                    self.advance();
                }
                Op::Gep { base, offset } => {
                    let r = (self.eval(*base)? as u64).wrapping_add(self.eval(*offset)? as u64);
                    self.set_result(inst_id, r as i64);
                    self.advance();
                }
                Op::Load { ty, addr } => {
                    let a = self.eval(*addr)? as u64;
                    // The general `load`, not the engine's fixed-width
                    // `load_int`: every differential run then checks one
                    // machine path against the other.
                    let mut buf = [0u8; 8];
                    self.machine.load(a, &mut buf[..ty.size() as usize])?;
                    self.set_result(inst_id, i64::from_le_bytes(buf));
                    self.advance();
                }
                Op::Store { ty, addr, value } => {
                    let a = self.eval(*addr)? as u64;
                    let v = self.eval(*value)?;
                    self.machine
                        .store(a, &v.to_le_bytes()[..ty.size() as usize])?;
                    if layout::is_pm_addr(a) {
                        let seq = self.emit(
                            EventKind::Store {
                                addr: a,
                                len: ty.size(),
                            },
                            Some((inst_id, loc)),
                        );
                        self.capture_pm_write(seq, a, ty.size());
                        self.after_pm_store(a);
                    }
                    self.advance();
                }
                Op::Memcpy { dst, src, len } => {
                    let d = self.eval(*dst)? as u64;
                    let s = self.eval(*src)? as u64;
                    let n = self.eval(*len)? as u64;
                    self.machine.memcpy(d, s, n)?;
                    if n > 0 && layout::is_pm_addr(d) {
                        let seq =
                            self.emit(EventKind::Store { addr: d, len: n }, Some((inst_id, loc)));
                        self.capture_pm_write(seq, d, n);
                        self.after_pm_store(d);
                    }
                    self.advance();
                }
                Op::Memset { dst, val, len } => {
                    let d = self.eval(*dst)? as u64;
                    let v = self.eval(*val)? as u8;
                    let n = self.eval(*len)? as u64;
                    self.machine.memset(d, v, n)?;
                    if n > 0 && layout::is_pm_addr(d) {
                        let seq =
                            self.emit(EventKind::Store { addr: d, len: n }, Some((inst_id, loc)));
                        self.capture_pm_write(seq, d, n);
                        self.after_pm_store(d);
                    }
                    self.advance();
                }
                Op::Flush { kind, addr } => {
                    let kind = *kind;
                    let a = self.eval(*addr)? as u64;
                    self.machine.flush(to_sim_flush(kind), a)?;
                    if layout::is_pm_addr(a) {
                        self.emit(
                            EventKind::Flush {
                                kind: to_trace_flush(kind),
                                addr: a,
                            },
                            Some((inst_id, loc)),
                        );
                    }
                    self.advance();
                }
                Op::Fence { kind } => {
                    let kind = *kind;
                    self.machine.fence(to_sim_fence(kind));
                    self.emit(
                        EventKind::Fence {
                            kind: to_trace_fence(kind),
                        },
                        Some((inst_id, loc)),
                    );
                    self.advance();
                }
                Op::Call { callee, args } => {
                    let callee = *callee;
                    let argv: Vec<i64> = args
                        .iter()
                        .map(|&a| self.eval(a))
                        .collect::<Result<_, _>>()?;
                    self.machine.charge_call();
                    self.push_call(callee);
                    let frame = self.frames.last_mut().expect("just pushed");
                    for (i, v) in argv.into_iter().enumerate() {
                        frame.vals[i] = Some(v);
                    }
                }
                Op::Ret { value } => {
                    let v = match value {
                        Some(v) => Some(self.eval(*v)?),
                        None => None,
                    };
                    self.machine.pop_frame();
                    self.frames.pop();
                    last_ret = v;
                    if let Some(caller) = self.frames.last() {
                        let cf = self.module.function(caller.func);
                        let call_inst = cf.block(caller.block).insts[caller.idx];
                        if let Some(v) = v {
                            self.set_result(call_inst, v);
                        }
                        self.advance();
                    }
                }
                Op::Br { target } => {
                    let target = *target;
                    let frame = self.frames.last_mut().expect("active");
                    frame.block = target;
                    frame.idx = 0;
                }
                Op::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let (then_bb, else_bb) = (*then_bb, *else_bb);
                    let c = self.eval(*cond)?;
                    let frame = self.frames.last_mut().expect("active");
                    frame.block = if c != 0 { then_bb } else { else_bb };
                    frame.idx = 0;
                }
                Op::GlobalAddr { global } => {
                    let addr = self.globals[global];
                    self.set_result(inst_id, addr as i64);
                    self.advance();
                }
                Op::Print { value } => {
                    let v = self.eval(*value)?;
                    self.output.push(v);
                    self.advance();
                }
                Op::CrashPoint => {
                    self.crash_points += 1;
                    self.emit(EventKind::CrashPoint, Some((inst_id, loc)));
                    if self.opts.stop_at_crash_point == Some(self.crash_points) {
                        return Ok((Ended::CrashPoint(self.crash_points), None));
                    }
                    self.advance();
                }
                Op::Abort { code } => {
                    return Ok((Ended::Aborted(*code), None));
                }
            }
        }
        Ok((Ended::Returned, last_ret))
    }

    fn advance(&mut self) {
        let frame = self.frames.last_mut().expect("active frame");
        frame.idx += 1;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pmir::{BinOp, CmpPred, FenceKind, FunctionBuilder, Type};

    fn run(m: &Module) -> RunResult {
        run_both(m, VmOptions::default()).unwrap()
    }

    /// Runs `main` under `opts` on the reference and on the engine, asserts
    /// that they agree on every [`RunResult`] field (down to the machine's
    /// crash image and dirty and pending lines) or on the error, and
    /// returns the engine's outcome.
    pub(crate) fn run_both(m: &Module, opts: VmOptions) -> Result<RunResult, VmError> {
        run_both_from(m, "main", opts)
    }

    /// [`run_both`] from `entry`.
    pub(crate) fn run_both_from(
        m: &Module,
        entry: &str,
        opts: VmOptions,
    ) -> Result<RunResult, VmError> {
        let reference = Vm::new(opts.clone()).run_reference(m, entry);
        let engine = Vm::new(opts).run(m, entry);
        let (Ok(a), Ok(b)) = (&reference, &engine) else {
            assert_eq!(reference.as_ref().err(), engine.as_ref().err());
            return engine;
        };
        assert_eq!(a.output, b.output, "output");
        assert_eq!(a.return_value, b.return_value, "return value");
        assert_eq!(a.ended, b.ended, "ended");
        assert_eq!(a.steps, b.steps, "steps");
        assert_eq!(a.stats, b.stats, "machine stats");
        assert_eq!(a.trace, b.trace, "trace");
        assert_eq!(a.pm_data, b.pm_data, "pm data");
        let machine = |r: &RunResult| {
            let m = &r.machine;
            (m.crash_image(), m.dirty_pm_lines(), m.pending_pm_lines())
        };
        assert_eq!(machine(a), machine(b), "machine state");
        engine
    }

    /// Builds `main` computing 10 iterations of a counting loop.
    #[test]
    fn loop_and_arithmetic() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::int(8));
        let mut b = FunctionBuilder::new(&mut m, f);
        let entry = b.entry_block();
        let header = b.new_block("h");
        let body = b.new_block("b");
        let exit = b.new_block("x");
        b.switch_to(entry);
        let slot = b.alloca(8);
        b.store(Type::int(8), slot, 0i64);
        b.br(header);
        b.switch_to(header);
        let i = b.load(Type::int(8), slot);
        let c = b.cmp(CmpPred::SLt, i, 10i64);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.load(Type::int(8), slot);
        let i3 = b.bin(BinOp::Add, i2, 3i64);
        b.store(Type::int(8), slot, i3);
        b.br(header);
        b.switch_to(exit);
        let r = b.load(Type::int(8), slot);
        b.print(r);
        b.ret(Some(Operand::Value(r)));
        b.finish();

        let res = run(&m);
        assert_eq!(res.output, vec![12]);
        assert_eq!(res.return_value, Some(12));
        assert_eq!(res.ended, Ended::Returned);
    }

    #[test]
    fn calls_pass_args_and_return() {
        let mut m = Module::new();
        let add = m.declare_function("add2", vec![Type::int(8), Type::int(8)], Type::int(8));
        {
            let mut b = FunctionBuilder::new(&mut m, add);
            let e = b.entry_block();
            b.switch_to(e);
            let x = b.arg(0);
            let y = b.arg(1);
            let s = b.bin(BinOp::Add, x, y);
            b.ret(Some(Operand::Value(s)));
            b.finish();
        }
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let r = b
            .call(add, vec![Operand::Const(20), Operand::Const(22)])
            .unwrap();
        b.print(r);
        b.ret(None);
        b.finish();
        assert_eq!(run(&m).output, vec![42]);
    }

    #[test]
    fn recursion_works() {
        // fib(10) = 55 via naive recursion, exercising frame handling.
        let mut m = Module::new();
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
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let r = b.call(fib, vec![Operand::Const(10)]).unwrap();
        b.print(r);
        b.ret(None);
        b.finish();
        assert_eq!(run(&m).output, vec![55]);
    }

    #[test]
    fn trace_records_pm_ops_with_stacks() {
        let mut m = Module::new();
        let file = m.intern_file("t.pmc");
        let store_fn = m.declare_function("do_store", vec![Type::Ptr], Type::Void);
        {
            let mut b = FunctionBuilder::new(&mut m, store_fn);
            let e = b.entry_block();
            b.switch_to(e);
            b.set_loc(pmir::SrcLoc::line(file, 5));
            let p = b.arg(0);
            b.store(Type::int(8), p, 1i64);
            b.ret(None);
            b.finish();
        }
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        b.set_loc(pmir::SrcLoc::line(file, 20));
        let pool = b.pmem_map(4096i64, 0);
        b.call(store_fn, vec![Operand::Value(pool)]);
        b.flush(pmir::FlushKind::Clwb, pool);
        b.fence(FenceKind::Sfence);
        b.ret(None);
        b.finish();

        let res = run(&m);
        let trace = res.trace.unwrap();
        let store = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Store { .. }))
            .unwrap();
        assert_eq!(&*store.at.as_ref().unwrap().function, "do_store");
        assert_eq!(store.loc.as_ref().unwrap().line, 5);
        assert_eq!(store.stack.len(), 2);
        assert_eq!(&*store.stack[0].function, "do_store");
        assert_eq!(&*store.stack[1].function, "main");
        assert!(store.stack[1].call_inst.is_some());
        assert_eq!(store.stack[1].loc.as_ref().unwrap().line, 20);
        assert_eq!(trace.count(|k| matches!(k, EventKind::Fence { .. })), 1);
        assert_eq!(
            trace.count(|k| matches!(k, EventKind::RegisterPool { .. })),
            1
        );
        assert_eq!(trace.count(|k| matches!(k, EventKind::ProgramEnd)), 1);
    }

    #[test]
    fn volatile_stores_not_traced() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let h = b.heap_alloc(64i64);
        b.store(Type::int(8), h, 9i64);
        b.ret(None);
        b.finish();
        let res = run(&m);
        assert_eq!(
            res.trace
                .unwrap()
                .count(|k| matches!(k, EventKind::Store { .. })),
            0
        );
        assert_eq!(res.stats.volatile_stores, 1);
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let v = b.bin(BinOp::SDiv, 1i64, 0i64);
        b.print(v);
        b.ret(None);
        b.finish();
        let err = run_both(&m, VmOptions::default()).unwrap_err();
        assert!(matches!(err, VmError::DivisionByZero { .. }));
    }

    #[test]
    fn null_store_traps() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        b.store(Type::int(8), Operand::Null, 1i64);
        b.ret(None);
        b.finish();
        let err = run_both(&m, VmOptions::default()).unwrap_err();
        assert!(matches!(err, VmError::Mem(_)));
    }

    #[test]
    fn step_limit_enforced() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        let spin = b.new_block("spin");
        b.switch_to(e);
        b.br(spin);
        b.switch_to(spin);
        b.br(spin);
        b.finish();
        let opts = VmOptions {
            max_steps: 1000,
            ..VmOptions::default()
        };
        let err = run_both(&m, opts).unwrap_err();
        assert!(matches!(err, VmError::FuelExhausted { limit: 1000 }));
    }

    /// A spinning `main` module for watchdog/fuel tests.
    fn spin_module() -> Module {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        let spin = b.new_block("spin");
        b.switch_to(e);
        b.br(spin);
        b.switch_to(spin);
        b.br(spin);
        b.finish();
        m
    }

    #[test]
    fn watchdog_fires_on_runaway_loop() {
        let m = spin_module();
        let opts = VmOptions::default().watchdog(20);
        let err = run_both(&m, opts).unwrap_err();
        assert!(matches!(err, VmError::Watchdog { limit_ms: 20 }));
    }

    #[test]
    fn watchdog_fires_on_injected_stuck_loop() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        // Fuel is effectively unlimited: only the wall clock can end this.
        let m = spin_module();
        let opts = VmOptions::default()
            .watchdog(20)
            .with_fault(FaultPlan::single(
                FaultSite::VmDiverge,
                Trigger::Nth(2),
                FaultKind::StuckLoop,
            ));
        let t0 = std::time::Instant::now();
        let err = run_both(&m, opts).unwrap_err();
        assert!(matches!(err, VmError::Watchdog { limit_ms: 20 }), "{err}");
        assert!(t0.elapsed().as_millis() < 5_000, "watchdog must not hang");
    }

    #[test]
    fn stuck_loop_plan_without_watchdog_is_rejected_up_front() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let m = spin_module();
        let opts = VmOptions::default().with_fault(FaultPlan::single(
            FaultSite::VmDiverge,
            Trigger::Nth(0),
            FaultKind::StuckLoop,
        ));
        let err = run_both(&m, opts).unwrap_err();
        assert!(matches!(err, VmError::BadOptions { .. }), "{err}");
    }

    #[test]
    fn zero_fuel_is_rejected_up_front() {
        let m = spin_module();
        let opts = VmOptions {
            max_steps: 0,
            ..VmOptions::default()
        };
        let err = run_both(&m, opts).unwrap_err();
        assert!(matches!(err, VmError::BadOptions { .. }));
        // With a watchdog armed the message names the fuel requirement.
        let opts = VmOptions {
            max_steps: 0,
            ..VmOptions::default()
        }
        .watchdog(50);
        let err = run_both(&m, opts).unwrap_err();
        match err {
            VmError::BadOptions { reason } => {
                assert!(reason.contains("watchdog requires fuel"), "{reason}")
            }
            other => panic!("expected BadOptions, got {other}"),
        }
    }

    #[test]
    fn injected_fuel_exhaustion_tightens_limit() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
        let m = spin_module();
        let opts = VmOptions::default().with_fault(FaultPlan::single(
            FaultSite::VmFuel,
            Trigger::Always,
            FaultKind::FuelExhaustion { max_steps: 17 },
        ));
        let err = run_both(&m, opts).unwrap_err();
        assert!(matches!(err, VmError::FuelExhausted { limit: 17 }), "{err}");
    }

    #[test]
    fn crash_point_stop() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let pool = b.pmem_map(4096i64, 0);
        b.store(Type::int(8), pool, 5i64);
        b.crash_point();
        b.print(99i64); // never reached when stopping at crash point 1
        b.ret(None);
        b.finish();
        let res = run_both(&m, VmOptions::default().stop_at(1)).unwrap();
        assert_eq!(res.ended, Ended::CrashPoint(1));
        assert!(res.output.is_empty());
        // The store never became durable.
        assert_eq!(res.machine.crash_image().pool_bytes(0).unwrap()[0], 0);
    }

    #[test]
    fn crash_point_zero_is_rejected() {
        // Crash points are 1-based; `stop_at(0)` used to silently behave
        // like "never crash", so the caller's "crash immediately" intent
        // quietly ran the whole program. Now it traps up front.
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        b.crash_point();
        b.ret(None);
        b.finish();
        let err = run_both(&m, VmOptions::default().stop_at(0)).unwrap_err();
        assert!(matches!(err, VmError::BadOptions { .. }));
        // And 1 still means "the first crashpoint".
        let res = run_both(&m, VmOptions::default().stop_at(1)).unwrap();
        assert_eq!(res.ended, Ended::CrashPoint(1));
    }

    #[test]
    fn stop_at_event_halts_after_that_event() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let pool = b.pmem_map(4096i64, 0); // event 0
        b.store(Type::int(8), pool, 5i64); // event 1
        b.store(Type::int(8), pool, 7i64); // event 2 (never runs)
        b.ret(None);
        b.finish();
        let res = run_both(&m, VmOptions::default().stop_at_event(1)).unwrap();
        assert_eq!(res.ended, Ended::AtEvent(1));
        assert_eq!(res.trace.as_ref().unwrap().len(), 2);
        // The first store executed (cache sees 5), the second did not.
        assert_eq!(
            res.machine.peek(pmem_sim::layout::PM_BASE, 1).unwrap()[0],
            5
        );
    }

    #[test]
    fn capture_pm_data_records_store_bytes() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let pool = b.pmem_map(4096i64, 0);
        b.store(Type::int(8), pool, 0x0807060504030201i64);
        b.memset(pool, 0xabi64, 4i64);
        b.ret(None);
        b.finish();
        let res = run_both(&m, VmOptions::default().capture_pm_data()).unwrap();
        let data = res.pm_data.unwrap();
        assert_eq!(data.len(), 2, "one record per PM-mutating event");
        assert_eq!(data.records[0].bytes, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(data.records[1].bytes, vec![0xab; 4]);
        // Records share the trace's sequence numbers.
        let store_seq = res
            .trace
            .unwrap()
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Store { .. }))
            .unwrap()
            .seq;
        assert_eq!(data.records[0].seq, store_seq);
    }

    #[test]
    fn data_capture_without_trace_is_rejected() {
        let m = Module::new();
        let mut opts = VmOptions::bench();
        opts.capture_pm_data = true;
        let err = run_both(&m, opts).unwrap_err();
        assert!(matches!(err, VmError::BadOptions { .. }));
    }

    #[test]
    fn abort_ends_run() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        b.print(1i64);
        b.abort(3);
        b.finish();
        let res = run(&m);
        assert_eq!(res.ended, Ended::Aborted(3));
        assert_eq!(res.output, vec![1]);
    }

    #[test]
    fn globals_and_memops() {
        let mut m = Module::new();
        let g = m.add_global("msg", 16, b"abcdefgh".to_vec());
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let ga = b.global_addr(g);
        let pool = b.pmem_map(4096i64, 0);
        b.memcpy(pool, ga, 8i64);
        let v = b.load(Type::int(1), pool);
        b.print(v);
        b.memset(pool, 0i64, 8i64);
        let v2 = b.load(Type::int(1), pool);
        b.print(v2);
        b.ret(None);
        b.finish();
        let res = run(&m);
        assert_eq!(res.output, vec![i64::from(b'a'), 0]);
        // Both the memcpy and the memset traced as PM stores.
        assert_eq!(
            res.trace
                .unwrap()
                .count(|k| matches!(k, EventKind::Store { .. })),
            2
        );
    }

    #[test]
    fn eviction_period_applies() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let pool = b.pmem_map(4096i64, 0);
        b.store(Type::int(8), pool, 1i64);
        b.ret(None);
        b.finish();
        let opts = VmOptions {
            evict_period: Some(1),
            ..VmOptions::default()
        };
        let res = run_both(&m, opts).unwrap();
        // Every store evicted: the data is durable without any flush.
        assert_eq!(res.machine.crash_image().pool_bytes(0).unwrap()[0], 1);
    }

    #[test]
    fn missing_entry_reported() {
        let m = Module::new();
        let err = run_both(&m, VmOptions::default()).unwrap_err();
        assert!(matches!(err, VmError::NoSuchFunction { .. }));
    }
}
