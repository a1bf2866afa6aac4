//! A convenience builder for emitting function bodies.

use crate::function::{BlockId, InstId, ValueId};
use crate::inst::{Inst, Op, Operand};
use crate::module::{FuncId, GlobalId, Module};
use crate::ops::{BinOp, CmpPred, FenceKind, FlushKind};
use crate::srcloc::SrcLoc;
use crate::types::Type;

/// Emits instructions into one function of a [`Module`].
///
/// The builder keeps a *current block* and an optional *current source
/// location* that is attached to every emitted instruction until changed.
///
/// # Example
///
/// ```
/// use pmir::{Module, FunctionBuilder, Type, Operand};
///
/// let mut m = Module::new();
/// let f = m.declare_function("id", vec![Type::int(8)], Type::int(8));
/// let mut b = FunctionBuilder::new(&mut m, f);
/// let entry = b.entry_block();
/// b.switch_to(entry);
/// let x = b.arg(0);
/// b.ret(Some(Operand::Value(x)));
/// b.finish();
/// ```
pub struct FunctionBuilder<'m> {
    module: &'m mut Module,
    func: FuncId,
    cur_block: Option<BlockId>,
    cur_loc: Option<SrcLoc>,
}

impl<'m> FunctionBuilder<'m> {
    /// Starts building the body of `func`.
    pub fn new(module: &'m mut Module, func: FuncId) -> Self {
        FunctionBuilder {
            module,
            func,
            cur_block: None,
            cur_loc: None,
        }
    }

    /// The function being built.
    pub fn func_id(&self) -> FuncId {
        self.func
    }

    /// The module being built into.
    pub fn module(&mut self) -> &mut Module {
        self.module
    }

    /// The function's entry block.
    pub fn entry_block(&self) -> BlockId {
        self.module.function(self.func).entry()
    }

    /// Creates a new basic block.
    pub fn new_block(&mut self, name: &str) -> BlockId {
        self.module
            .function_mut(self.func)
            .add_block(Some(name.to_string()))
    }

    /// Makes `block` the insertion point.
    pub fn switch_to(&mut self, block: BlockId) {
        self.cur_block = Some(block);
    }

    /// The current insertion block, if one is selected.
    pub fn current_block(&self) -> Option<BlockId> {
        self.cur_block
    }

    /// Sets the source location attached to subsequently emitted
    /// instructions.
    pub fn set_loc(&mut self, loc: SrcLoc) {
        self.cur_loc = Some(loc);
    }

    /// The [`ValueId`] of argument `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn arg(&self, n: usize) -> ValueId {
        self.module.function(self.func).arg(n)
    }

    /// Emits `op` into the current block; returns the instruction id and the
    /// result value if the op produces one.
    ///
    /// # Panics
    ///
    /// Panics if no block is selected or the current block is already
    /// terminated.
    pub fn emit(&mut self, op: Op) -> (InstId, Option<ValueId>) {
        let block = self.cur_block.expect("no insertion block selected");
        let ty = match &op {
            Op::Call { callee, .. } => {
                let rt = self.module.function(*callee).ret_type();
                (rt != Type::Void).then_some(rt)
            }
            other => other.result_type(),
        };
        let f = self.module.function_mut(self.func);
        if let Some(&last) = f.block(block).insts.last() {
            assert!(
                !f.inst(last).op.is_terminator(),
                "emitting into a terminated block"
            );
        }
        let id = f.alloc_inst(Inst {
            op,
            loc: self.cur_loc,
            result: None,
        });
        let result = ty.map(|ty| f.alloc_value(id, ty, None));
        f.inst_mut(id).result = result;
        f.block_mut(block).insts.push(id);
        (id, result)
    }

    fn emit_val(&mut self, op: Op) -> ValueId {
        self.emit(op).1.expect("operation produces no value")
    }

    /// Emits a binary operation.
    pub fn bin(&mut self, op: BinOp, a: impl Into<Operand>, b: impl Into<Operand>) -> ValueId {
        self.emit_val(Op::Bin {
            op,
            a: a.into(),
            b: b.into(),
        })
    }

    /// Emits a comparison.
    pub fn cmp(&mut self, pred: CmpPred, a: impl Into<Operand>, b: impl Into<Operand>) -> ValueId {
        self.emit_val(Op::Cmp {
            pred,
            a: a.into(),
            b: b.into(),
        })
    }

    /// Emits a stack allocation of `size` bytes.
    pub fn alloca(&mut self, size: u64) -> ValueId {
        self.emit_val(Op::Alloca { size })
    }

    /// Emits a volatile-heap allocation.
    pub fn heap_alloc(&mut self, size: impl Into<Operand>) -> ValueId {
        self.emit_val(Op::HeapAlloc { size: size.into() })
    }

    /// Emits a heap free.
    pub fn heap_free(&mut self, ptr: impl Into<Operand>) {
        self.emit(Op::HeapFree { ptr: ptr.into() });
    }

    /// Emits a persistent-memory pool mapping.
    pub fn pmem_map(&mut self, size: impl Into<Operand>, pool_hint: u64) -> ValueId {
        self.emit_val(Op::PmemMap {
            size: size.into(),
            pool_hint,
        })
    }

    /// Emits pointer arithmetic `base + offset`.
    pub fn gep(&mut self, base: impl Into<Operand>, offset: impl Into<Operand>) -> ValueId {
        self.emit_val(Op::Gep {
            base: base.into(),
            offset: offset.into(),
        })
    }

    /// Emits a typed load.
    pub fn load(&mut self, ty: Type, addr: impl Into<Operand>) -> ValueId {
        self.emit_val(Op::Load {
            ty,
            addr: addr.into(),
        })
    }

    /// Emits a typed store; returns the instruction id (used by tests that
    /// need to point Hippocrates at a specific store).
    pub fn store(
        &mut self,
        ty: Type,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
    ) -> InstId {
        self.emit(Op::Store {
            ty,
            addr: addr.into(),
            value: value.into(),
        })
        .0
    }

    /// Emits a memcpy.
    pub fn memcpy(
        &mut self,
        dst: impl Into<Operand>,
        src: impl Into<Operand>,
        len: impl Into<Operand>,
    ) -> InstId {
        self.emit(Op::Memcpy {
            dst: dst.into(),
            src: src.into(),
            len: len.into(),
        })
        .0
    }

    /// Emits a memset.
    pub fn memset(
        &mut self,
        dst: impl Into<Operand>,
        val: impl Into<Operand>,
        len: impl Into<Operand>,
    ) -> InstId {
        self.emit(Op::Memset {
            dst: dst.into(),
            val: val.into(),
            len: len.into(),
        })
        .0
    }

    /// Emits a cache-line flush.
    pub fn flush(&mut self, kind: FlushKind, addr: impl Into<Operand>) -> InstId {
        self.emit(Op::Flush {
            kind,
            addr: addr.into(),
        })
        .0
    }

    /// Emits a memory fence.
    pub fn fence(&mut self, kind: FenceKind) -> InstId {
        self.emit(Op::Fence { kind }).0
    }

    /// Emits a direct call; returns the result value for non-void callees.
    pub fn call(&mut self, callee: FuncId, args: Vec<Operand>) -> Option<ValueId> {
        self.emit(Op::Call { callee, args }).1
    }

    /// Emits a call by function name.
    ///
    /// # Panics
    ///
    /// Panics if the function is not declared.
    pub fn call_named(&mut self, name: &str, args: Vec<Operand>) -> Option<ValueId> {
        let callee = self
            .module
            .function_by_name(name)
            .unwrap_or_else(|| panic!("call to undeclared function: {name}"));
        self.call(callee, args)
    }

    /// Emits the address of a global.
    pub fn global_addr(&mut self, global: GlobalId) -> ValueId {
        self.emit_val(Op::GlobalAddr { global })
    }

    /// Emits a `print`.
    pub fn print(&mut self, value: impl Into<Operand>) {
        self.emit(Op::Print {
            value: value.into(),
        });
    }

    /// Emits a crash-point marker.
    pub fn crash_point(&mut self) -> InstId {
        self.emit(Op::CrashPoint).0
    }

    /// Emits a return and deselects the block.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.emit(Op::Ret { value });
        self.cur_block = None;
    }

    /// Emits an unconditional branch and deselects the block.
    pub fn br(&mut self, target: BlockId) {
        self.emit(Op::Br { target });
        self.cur_block = None;
    }

    /// Emits a conditional branch and deselects the block.
    pub fn cond_br(&mut self, cond: impl Into<Operand>, then_bb: BlockId, else_bb: BlockId) {
        self.emit(Op::CondBr {
            cond: cond.into(),
            then_bb,
            else_bb,
        });
        self.cur_block = None;
    }

    /// Emits an abort and deselects the block.
    pub fn abort(&mut self, code: i64) {
        self.emit(Op::Abort { code });
        self.cur_block = None;
    }

    /// Finishes the function.
    ///
    /// # Panics
    ///
    /// Panics if any block lacks a terminator — an unterminated body is
    /// always a front-end bug.
    pub fn finish(self) {
        let f = self.module.function(self.func);
        assert!(
            f.blocks_well_formed(),
            "function `{}` has an unterminated or malformed block",
            f.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_loop() {
        // while (i < 10) i++;
        let mut m = Module::new();
        let f = m.declare_function("count", vec![], Type::int(8));
        let mut b = FunctionBuilder::new(&mut m, f);
        let entry = b.entry_block();
        let header = b.new_block("header");
        let body = b.new_block("body");
        let exit = b.new_block("exit");

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
        let i3 = b.bin(BinOp::Add, i2, 1i64);
        b.store(Type::int(8), slot, i3);
        b.br(header);

        b.switch_to(exit);
        let fin = b.load(Type::int(8), slot);
        b.ret(Some(Operand::Value(fin)));
        b.finish();

        assert_eq!(m.function(f).block_count(), 4);
        assert!(m.function(f).blocks_well_formed());
    }

    #[test]
    #[should_panic(expected = "terminated block")]
    fn emitting_after_terminator_panics() {
        let mut m = Module::new();
        let f = m.declare_function("f", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let entry = b.entry_block();
        b.switch_to(entry);
        b.emit(Op::Ret { value: None });
        b.emit(Op::Fence {
            kind: FenceKind::Sfence,
        });
    }

    #[test]
    #[should_panic(expected = "unterminated")]
    fn finish_checks_termination() {
        let mut m = Module::new();
        let f = m.declare_function("f", vec![], Type::Void);
        let b = FunctionBuilder::new(&mut m, f);
        b.finish();
    }

    #[test]
    fn call_result_types() {
        let mut m = Module::new();
        let callee = m.declare_function("g", vec![], Type::int(8));
        {
            let mut b = FunctionBuilder::new(&mut m, callee);
            let e = b.entry_block();
            b.switch_to(e);
            b.ret(Some(Operand::Const(7)));
            b.finish();
        }
        let f = m.declare_function("f", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let r = b.call_named("g", vec![]);
        assert!(r.is_some());
        b.ret(None);
        b.finish();
    }
}
