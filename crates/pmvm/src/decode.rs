//! Pre-decoding: lowers a [`pmir::Module`] into flat, register-indexed op
//! arrays for the VM's engine (the crate-private `fastvm` module).
//!
//! The reference interpreter ([`crate::Vm::run_reference`]) walks the pmir arenas on every step: block
//! lookup, instruction lookup, operand `match`, and a `HashMap` probe per
//! `global_addr`. [`DecodedModule`] pays all of that exactly once per run:
//!
//! * every function becomes one contiguous `Vec<DecOp>` indexed by a
//!   program counter, blocks laid out in id order with branch targets
//!   resolved to pc indices;
//! * operands are pre-resolved to [`Src::Slot`] (a register index into the
//!   frame's value array) or [`Src::Const`] — `Operand::Null` folds to
//!   `Const(0)`, exactly the interpreter's evaluation;
//! * callees are table offsets into [`DecodedModule::funcs`], globals are
//!   offsets into a dense address table, flush/fence kinds are pre-split
//!   into their simulator and trace spellings;
//! * everything the hot loop does **not** need — instruction ids and source
//!   locations, used only when emitting trace events — lives in a parallel
//!   cold array ([`DecodedFunc::meta`]) so the dispatch path never touches
//!   it untraced.
//!
//! Decoding is semantics-free: each `DecOp` corresponds 1:1 to a pmir
//! instruction, and the differential tests hold the decoded execution
//! byte-identical to the reference interpreter.

use pmir::{BinOp, CmpPred, FenceKind, FlushKind, FuncId, Module, Op, Operand, SrcLoc};

/// Sentinel for "this op produces no result value".
pub const NO_DST: u32 = u32::MAX;

/// A pre-resolved operand.
#[derive(Debug, Clone, Copy)]
pub enum Src {
    /// Read frame value slot `n`.
    Slot(u32),
    /// An immediate (`Operand::Null` decodes to `Const(0)`).
    Const(i64),
}

impl Src {
    fn of(op: Operand) -> Src {
        match op {
            Operand::Value(v) => Src::Slot(v.0),
            Operand::Const(c) => Src::Const(c),
            Operand::Null => Src::Const(0),
        }
    }
}

/// One decoded instruction. Fields mirror [`pmir::Op`] with all lookups
/// pre-resolved; `dst` is the result slot or [`NO_DST`].
#[derive(Debug, Clone)]
pub enum DecOp {
    Bin {
        op: BinOp,
        a: Src,
        b: Src,
        dst: u32,
    },
    Cmp {
        pred: CmpPred,
        a: Src,
        b: Src,
        dst: u32,
    },
    Alloca {
        size: u64,
        dst: u32,
    },
    HeapAlloc {
        size: Src,
        dst: u32,
    },
    HeapFree {
        ptr: Src,
    },
    PmemMap {
        size: Src,
        pool_hint: u64,
        dst: u32,
    },
    Gep {
        base: Src,
        offset: Src,
        dst: u32,
    },
    Load {
        width: u8,
        addr: Src,
        dst: u32,
    },
    Store {
        width: u8,
        addr: Src,
        value: Src,
    },
    Memcpy {
        dst_addr: Src,
        src: Src,
        len: Src,
    },
    Memset {
        dst_addr: Src,
        val: Src,
        len: Src,
    },
    Flush {
        sim: pmem_sim::FlushKind,
        trace: pmtrace::FlushKind,
        addr: Src,
    },
    Fence {
        sim: pmem_sim::FenceKind,
        trace: pmtrace::FenceKind,
    },
    Call {
        callee: u32,
        args: Box<[Src]>,
        dst: u32,
    },
    Ret {
        value: Option<Src>,
    },
    Br {
        target: u32,
    },
    CondBr {
        cond: Src,
        then_pc: u32,
        else_pc: u32,
    },
    GlobalAddr {
        global: u32,
        dst: u32,
    },
    Print {
        value: Src,
    },
    CrashPoint,
    Abort {
        code: i64,
    },
    /// A block ended without a terminator. The interpreter panics on such
    /// (malformed) IR when control falls off the block; in a flat op array
    /// control would silently run into the next block instead, so decoding
    /// plants an explicit trap to keep the tiers behaviorally identical.
    TrapFallthrough,
}

/// Cold per-op metadata, only touched when emitting trace events.
#[derive(Debug, Clone, Copy)]
pub struct OpMeta {
    /// The originating instruction id (`pmir::InstId.0`).
    pub inst: u32,
    /// Its source location, if any.
    pub loc: Option<SrcLoc>,
}

/// One decoded function.
#[derive(Debug, Clone)]
pub struct DecodedFunc {
    /// Function name (cold: cloned into trace events).
    pub name: String,
    /// Total value slots a frame needs.
    pub n_values: u32,
    /// Leading slots that are parameters.
    pub n_params: u32,
    /// pc of the entry block's first op.
    pub entry_pc: u32,
    /// The flat op array, blocks laid out in id order.
    pub ops: Vec<DecOp>,
    /// Parallel cold array: `meta[pc]` describes `ops[pc]`.
    pub meta: Vec<OpMeta>,
}

/// A fully decoded module. Indexed by `FuncId.0` / `GlobalId.0`.
#[derive(Debug, Clone)]
pub struct DecodedModule {
    pub funcs: Vec<DecodedFunc>,
}

impl DecodedModule {
    /// Decodes every function of `module`.
    pub fn decode(module: &Module) -> DecodedModule {
        let funcs = module
            .functions()
            .map(|(_, f)| decode_function(f))
            .collect();
        DecodedModule { funcs }
    }
}

fn decode_function(f: &pmir::Function) -> DecodedFunc {
    // Pass 1: lay blocks out in id order and record each block's start pc.
    // A block missing a terminator gets one extra trap slot.
    let mut starts = Vec::with_capacity(f.block_count());
    let mut pc = 0u32;
    for b in f.block_ids() {
        starts.push(pc);
        let insts = &f.block(b).insts;
        pc += insts.len() as u32;
        if !block_terminated(f, b) {
            pc += 1;
        }
    }
    let total = pc as usize;

    // Pass 2: lower each instruction with targets resolved to pcs.
    let mut ops = Vec::with_capacity(total);
    let mut meta = Vec::with_capacity(total);
    for b in f.block_ids() {
        for &inst_id in &f.block(b).insts {
            let inst = f.inst(inst_id);
            let dst = inst.result.map_or(NO_DST, |r| r.0);
            ops.push(lower(&inst.op, dst, &starts));
            meta.push(OpMeta {
                inst: inst_id.0,
                loc: inst.loc,
            });
        }
        if !block_terminated(f, b) {
            ops.push(DecOp::TrapFallthrough);
            meta.push(OpMeta {
                inst: u32::MAX,
                loc: None,
            });
        }
    }
    debug_assert_eq!(ops.len(), total);

    DecodedFunc {
        name: f.name().to_string(),
        n_values: f.value_count() as u32,
        n_params: f.params().len() as u32,
        entry_pc: starts[f.entry().0 as usize],
        ops,
        meta,
    }
}

fn block_terminated(f: &pmir::Function, b: pmir::BlockId) -> bool {
    f.block(b)
        .insts
        .last()
        .is_some_and(|&i| f.inst(i).op.is_terminator())
}

fn lower(op: &Op, dst: u32, starts: &[u32]) -> DecOp {
    match op {
        Op::Bin { op, a, b } => DecOp::Bin {
            op: *op,
            a: Src::of(*a),
            b: Src::of(*b),
            dst,
        },
        Op::Cmp { pred, a, b } => DecOp::Cmp {
            pred: *pred,
            a: Src::of(*a),
            b: Src::of(*b),
            dst,
        },
        Op::Alloca { size } => DecOp::Alloca { size: *size, dst },
        Op::HeapAlloc { size } => DecOp::HeapAlloc {
            size: Src::of(*size),
            dst,
        },
        Op::HeapFree { ptr } => DecOp::HeapFree { ptr: Src::of(*ptr) },
        Op::PmemMap { size, pool_hint } => DecOp::PmemMap {
            size: Src::of(*size),
            pool_hint: *pool_hint,
            dst,
        },
        Op::Gep { base, offset } => DecOp::Gep {
            base: Src::of(*base),
            offset: Src::of(*offset),
            dst,
        },
        Op::Load { ty, addr } => DecOp::Load {
            width: ty.size() as u8,
            addr: Src::of(*addr),
            dst,
        },
        Op::Store { ty, addr, value } => DecOp::Store {
            width: ty.size() as u8,
            addr: Src::of(*addr),
            value: Src::of(*value),
        },
        Op::Memcpy { dst: d, src, len } => DecOp::Memcpy {
            dst_addr: Src::of(*d),
            src: Src::of(*src),
            len: Src::of(*len),
        },
        Op::Memset { dst: d, val, len } => DecOp::Memset {
            dst_addr: Src::of(*d),
            val: Src::of(*val),
            len: Src::of(*len),
        },
        Op::Flush { kind, addr } => DecOp::Flush {
            sim: to_sim_flush(*kind),
            trace: to_trace_flush(*kind),
            addr: Src::of(*addr),
        },
        Op::Fence { kind } => DecOp::Fence {
            sim: to_sim_fence(*kind),
            trace: to_trace_fence(*kind),
        },
        Op::Call { callee, args } => DecOp::Call {
            callee: fid(*callee),
            args: args.iter().map(|&a| Src::of(a)).collect(),
            dst,
        },
        Op::Ret { value } => DecOp::Ret {
            value: value.map(Src::of),
        },
        Op::Br { target } => DecOp::Br {
            target: starts[target.0 as usize],
        },
        Op::CondBr {
            cond,
            then_bb,
            else_bb,
        } => DecOp::CondBr {
            cond: Src::of(*cond),
            then_pc: starts[then_bb.0 as usize],
            else_pc: starts[else_bb.0 as usize],
        },
        Op::GlobalAddr { global } => DecOp::GlobalAddr {
            global: global.0,
            dst,
        },
        Op::Print { value } => DecOp::Print {
            value: Src::of(*value),
        },
        Op::CrashPoint => DecOp::CrashPoint,
        Op::Abort { code } => DecOp::Abort { code: *code },
    }
}

fn fid(id: FuncId) -> u32 {
    id.0
}

pub(crate) fn to_sim_flush(k: FlushKind) -> pmem_sim::FlushKind {
    match k {
        FlushKind::Clwb => pmem_sim::FlushKind::Clwb,
        FlushKind::ClflushOpt => pmem_sim::FlushKind::ClflushOpt,
        FlushKind::Clflush => pmem_sim::FlushKind::Clflush,
    }
}

pub(crate) fn to_trace_flush(k: FlushKind) -> pmtrace::FlushKind {
    match k {
        FlushKind::Clwb => pmtrace::FlushKind::Clwb,
        FlushKind::ClflushOpt => pmtrace::FlushKind::ClflushOpt,
        FlushKind::Clflush => pmtrace::FlushKind::Clflush,
    }
}

pub(crate) fn to_sim_fence(k: FenceKind) -> pmem_sim::FenceKind {
    match k {
        FenceKind::Sfence => pmem_sim::FenceKind::Sfence,
        FenceKind::Mfence => pmem_sim::FenceKind::Mfence,
    }
}

pub(crate) fn to_trace_fence(k: FenceKind) -> pmtrace::FenceKind {
    match k {
        FenceKind::Sfence => pmtrace::FenceKind::Sfence,
        FenceKind::Mfence => pmtrace::FenceKind::Mfence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmir::{FunctionBuilder, Type};

    #[test]
    fn lays_blocks_out_flat_with_pc_targets() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        let t = b.new_block("t");
        let x = b.new_block("x");
        b.switch_to(e);
        let c = b.cmp(pmir::CmpPred::Eq, 1i64, 1i64);
        b.cond_br(c, t, x);
        b.switch_to(t);
        b.br(x);
        b.switch_to(x);
        b.ret(None);
        b.finish();

        let d = DecodedModule::decode(&m);
        let df = &d.funcs[0];
        assert_eq!(df.name, "main");
        assert_eq!(df.entry_pc, 0);
        assert_eq!(df.ops.len(), 4, "cmp, cond_br, br, ret");
        assert_eq!(df.meta.len(), df.ops.len());
        match &df.ops[1] {
            DecOp::CondBr {
                then_pc, else_pc, ..
            } => {
                assert_eq!(*then_pc, 2, "block t starts after entry's 2 ops");
                assert_eq!(*else_pc, 3, "block x starts after t's 1 op");
            }
            other => panic!("expected CondBr, got {other:?}"),
        }
        match &df.ops[2] {
            DecOp::Br { target } => assert_eq!(*target, 3),
            other => panic!("expected Br, got {other:?}"),
        }
    }

    #[test]
    fn operands_resolve_to_slots_and_consts() {
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let v = b.bin(pmir::BinOp::Add, 1i64, 2i64);
        b.store(Type::int(8), Operand::Null, Operand::Value(v));
        b.ret(None);
        b.finish();

        let d = DecodedModule::decode(&m);
        let df = &d.funcs[0];
        match &df.ops[0] {
            DecOp::Bin { a, b, dst, .. } => {
                assert!(matches!(a, Src::Const(1)));
                assert!(matches!(b, Src::Const(2)));
                assert_ne!(*dst, NO_DST);
            }
            other => panic!("expected Bin, got {other:?}"),
        }
        match &df.ops[1] {
            DecOp::Store { addr, value, .. } => {
                assert!(matches!(addr, Src::Const(0)), "Null folds to Const(0)");
                assert!(matches!(value, Src::Slot(_)));
            }
            other => panic!("expected Store, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_block_gets_a_trap() {
        // Built by hand: FunctionBuilder::finish rejects unterminated
        // blocks, but decode must stay total on malformed IR.
        let mut m = Module::new();
        let f = m.declare_function("main", vec![], Type::Void);
        let fun = m.function_mut(f);
        let entry = fun.entry();
        let inst = fun.alloc_inst(pmir::Inst {
            op: Op::Print {
                value: Operand::Const(1),
            },
            loc: None,
            result: None,
        });
        fun.block_mut(entry).insts.push(inst);
        let d = DecodedModule::decode(&m);
        assert!(matches!(
            d.funcs[0].ops.last(),
            Some(DecOp::TrapFallthrough)
        ));
    }
}
