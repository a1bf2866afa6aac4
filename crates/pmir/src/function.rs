//! Functions, basic blocks, and virtual values.

use crate::inst::Inst;
use crate::types::Type;
use serde::{Deserialize, Serialize};

/// Identifies a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub u32);

/// Identifies an instruction within a function's instruction arena. Ids are
/// stable across fix insertion (instructions are only ever appended).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstId(pub u32);

/// Identifies a virtual value (argument or instruction result) within a
/// function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ValueId(pub u32);

/// How a virtual value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// The `n`-th function argument.
    Arg(u32),
    /// The result of an instruction.
    Inst(InstId),
}

/// A virtual value definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueDef {
    /// How the value is produced.
    pub kind: ValueKind,
    /// The value's type.
    pub ty: Type,
    /// An optional human-readable name (used by the printer).
    pub name: Option<String>,
}

/// A basic block: an ordered list of instructions ending in a terminator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Optional label for printing.
    pub name: Option<String>,
    /// Instruction ids in execution order.
    pub insts: Vec<InstId>,
}

/// A function definition.
///
/// Blocks, instructions, and values live in per-function arenas indexed by
/// [`BlockId`], [`InstId`], and [`ValueId`]. The Hippocrates rewriter only
/// appends to the arenas, so ids recorded in traces stay valid across repair.
#[derive(Debug, Clone)]
pub struct Function {
    name: String,
    params: Vec<Type>,
    ret: Type,
    pub(crate) blocks: Vec<Block>,
    pub(crate) insts: Vec<Inst>,
    pub(crate) values: Vec<ValueDef>,
    entry: BlockId,
    /// Set when this function was produced by the persistent-subprogram
    /// transformation; holds the original function's name.
    pub persistent_clone_of: Option<String>,
}

impl Function {
    /// Creates an empty function with an entry block and one value per
    /// parameter.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret: Type) -> Self {
        let values = params
            .iter()
            .enumerate()
            .map(|(i, &ty)| ValueDef {
                kind: ValueKind::Arg(i as u32),
                ty,
                name: None,
            })
            .collect();
        Function {
            name: name.into(),
            params,
            ret,
            blocks: vec![Block {
                name: Some("entry".to_string()),
                insts: vec![],
            }],
            insts: vec![],
            values,
            entry: BlockId(0),
            persistent_clone_of: None,
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the function. The module's name index must be refreshed by the
    /// caller; prefer [`crate::Module::rename_function`].
    pub(crate) fn set_name(&mut self, name: String) {
        self.name = name;
    }

    /// Parameter types.
    pub fn params(&self) -> &[Type] {
        &self.params
    }

    /// Return type.
    pub fn ret_type(&self) -> Type {
        self.ret
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The [`ValueId`] of the `n`-th argument.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn arg(&self, n: usize) -> ValueId {
        assert!(n < self.params.len(), "argument index out of range");
        ValueId(n as u32)
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over block ids in creation order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Accesses a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is invalid.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable block access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is invalid.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// Appends a new empty block and returns its id.
    pub fn add_block(&mut self, name: Option<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            name,
            insts: vec![],
        });
        id
    }

    /// Number of instructions in the arena (including any that were unlinked
    /// by rewrites).
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Accesses an instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is invalid.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.0 as usize]
    }

    /// Mutable instruction access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is invalid.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.0 as usize]
    }

    /// Iterates over all instruction ids currently linked into blocks, in
    /// block order.
    pub fn linked_insts(&self) -> impl Iterator<Item = (BlockId, InstId)> + '_ {
        self.block_ids()
            .flat_map(move |b| self.block(b).insts.iter().map(move |&i| (b, i)))
    }

    /// Allocates an instruction in the arena *without* linking it into a
    /// block; returns its id. Used by the builder and the rewriter.
    pub fn alloc_inst(&mut self, inst: Inst) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(inst);
        id
    }

    /// Allocates a fresh value defined by `inst` with type `ty`.
    pub fn alloc_value(&mut self, inst: InstId, ty: Type, name: Option<String>) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueDef {
            kind: ValueKind::Inst(inst),
            ty,
            name,
        });
        id
    }

    /// Accesses a value definition.
    ///
    /// # Panics
    ///
    /// Panics if `id` is invalid.
    pub fn value(&self, id: ValueId) -> &ValueDef {
        &self.values[id.0 as usize]
    }

    /// Number of virtual values.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Iterates over all value ids.
    pub fn value_ids(&self) -> impl Iterator<Item = ValueId> {
        (0..self.values.len() as u32).map(ValueId)
    }

    /// Finds the block and intra-block index of a linked instruction.
    ///
    /// Returns `None` if the instruction is not linked into any block.
    pub fn find_inst_pos(&self, id: InstId) -> Option<(BlockId, usize)> {
        for b in self.block_ids() {
            if let Some(idx) = self.block(b).insts.iter().position(|&i| i == id) {
                return Some((b, idx));
            }
        }
        None
    }

    /// Whether every block ends in a terminator and contains no interior
    /// terminators. (The full check lives in [`crate::verify`].)
    pub fn blocks_well_formed(&self) -> bool {
        self.block_ids().all(|b| {
            let insts = &self.block(b).insts;
            match insts.split_last() {
                None => false,
                Some((last, rest)) => {
                    self.inst(*last).op.is_terminator()
                        && rest.iter().all(|&i| !self.inst(i).op.is_terminator())
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Op, Operand};

    #[test]
    fn new_function_has_entry_and_args() {
        let f = Function::new("f", vec![Type::Ptr, Type::Int(8)], Type::Void);
        assert_eq!(f.name(), "f");
        assert_eq!(f.block_count(), 1);
        assert_eq!(f.value_count(), 2);
        assert_eq!(f.value(f.arg(0)).ty, Type::Ptr);
        assert_eq!(f.value(f.arg(1)).ty, Type::Int(8));
    }

    #[test]
    #[should_panic(expected = "argument index out of range")]
    fn arg_out_of_range_panics() {
        let f = Function::new("f", vec![], Type::Void);
        let _ = f.arg(0);
    }

    #[test]
    fn alloc_and_find() {
        let mut f = Function::new("f", vec![], Type::Void);
        let ret = f.alloc_inst(Inst {
            op: Op::Ret { value: None },
            loc: None,
            result: None,
        });
        let entry = f.entry();
        f.block_mut(entry).insts.push(ret);
        assert_eq!(f.find_inst_pos(ret), Some((entry, 0)));
        assert!(f.blocks_well_formed());
    }

    #[test]
    fn unterminated_block_is_ill_formed() {
        let mut f = Function::new("f", vec![], Type::Void);
        let fence = f.alloc_inst(Inst {
            op: Op::Print {
                value: Operand::Const(1),
            },
            loc: None,
            result: None,
        });
        let entry = f.entry();
        f.block_mut(entry).insts.push(fence);
        assert!(!f.blocks_well_formed());
    }
}
