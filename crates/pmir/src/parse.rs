//! Parser for the textual IR format produced by [`crate::display`].
//!
//! The parser accepts exactly the printer's output (plus arbitrary blank
//! lines and `;` comments), which is enough for IR-level tests, golden files,
//! and hand-written fixtures.

use crate::function::{Block, InstId, ValueDef, ValueId, ValueKind};
use crate::inst::{Inst, Op, Operand};
use crate::module::Module;
use crate::ops::{BinOp, CmpPred, FenceKind, FlushKind};
use crate::srcloc::{FileId, SrcLoc};
use crate::types::Type;
use std::fmt;

/// A parse failure with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

fn perr<T>(line: usize, msg: impl Into<String>) -> PResult<T> {
    Err(ParseError {
        line,
        message: msg.into(),
    })
}

/// Parses a module from the textual format.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line.
pub fn parse_module(text: &str) -> PResult<Module> {
    let mut m = Module::new();
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            let l = match l.find(';') {
                Some(p) => &l[..p],
                None => l,
            };
            (i + 1, l.trim())
        })
        .filter(|(_, l)| !l.is_empty())
        .collect();

    // Pass 1: declare all functions so calls can resolve.
    for &(ln, l) in &lines {
        if let Some(rest) = l.strip_prefix("func @") {
            let (name, params, ret) = parse_signature(ln, rest)?;
            m.declare_function(name, params, ret);
        }
    }

    // Pass 2: files, globals, bodies.
    let mut i = 0;
    while i < lines.len() {
        let (ln, l) = lines[i];
        if let Some(rest) = l.strip_prefix("file ") {
            let mut c = Cursor::new(ln, rest);
            let _idx = c.number()?;
            let name = c.quoted_string()?;
            m.intern_file(name);
            i += 1;
        } else if let Some(rest) = l.strip_prefix("global @") {
            parse_global(&mut m, ln, rest)?;
            i += 1;
        } else if let Some(rest) = l.strip_prefix("func @") {
            let (name, _, _) = parse_signature(ln, rest)?;
            let end = parse_body(&mut m, &name, &lines, i + 1)?;
            i = end;
        } else {
            return perr(ln, format!("unexpected top-level line: {l}"));
        }
    }
    Ok(m)
}

fn parse_global(m: &mut Module, ln: usize, rest: &str) -> PResult<()> {
    // `<name> size <n> init [a, b, c]`
    let Some((name, tail)) = rest.split_once(" size ") else {
        return perr(ln, "malformed global");
    };
    let Some((size, init)) = tail.split_once(" init ") else {
        return perr(ln, "malformed global");
    };
    let size: u64 = size.trim().parse().map_err(|_| ParseError {
        line: ln,
        message: "bad global size".into(),
    })?;
    let init = init.trim();
    let inner = init
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| ParseError {
            line: ln,
            message: "bad global init".into(),
        })?;
    let bytes: Vec<u8> = if inner.trim().is_empty() {
        vec![]
    } else {
        inner
            .split(',')
            .map(|b| b.trim().parse::<u8>())
            .collect::<Result<_, _>>()
            .map_err(|_| ParseError {
                line: ln,
                message: "bad global init byte".into(),
            })?
    };
    m.add_global(name.trim(), size, bytes);
    Ok(())
}

fn parse_signature(ln: usize, rest: &str) -> PResult<(String, Vec<Type>, Type)> {
    // `<name>(<params>) -> <ty> {`
    let Some(open) = rest.find('(') else {
        return perr(ln, "missing ( in signature");
    };
    let name = rest[..open].to_string();
    let Some(close) = rest.find(')') else {
        return perr(ln, "missing ) in signature");
    };
    let params_text = &rest[open + 1..close];
    let mut params = vec![];
    if !params_text.trim().is_empty() {
        for p in params_text.split(',') {
            let Some((_, ty)) = p.split_once(':') else {
                return perr(ln, "malformed parameter");
            };
            params.push(parse_type(ln, ty.trim())?);
        }
    }
    let tail = rest[close + 1..].trim();
    let Some(ret) = tail.strip_prefix("->") else {
        return perr(ln, "missing -> in signature");
    };
    let ret = ret.trim().trim_end_matches('{').trim();
    Ok((name, params, parse_type(ln, ret)?))
}

fn parse_type(ln: usize, s: &str) -> PResult<Type> {
    match s {
        "void" => Ok(Type::Void),
        "ptr" => Ok(Type::Ptr),
        "i8" => Ok(Type::Int(1)),
        "i16" => Ok(Type::Int(2)),
        "i32" => Ok(Type::Int(4)),
        "i64" => Ok(Type::Int(8)),
        _ => perr(ln, format!("unknown type: {s}")),
    }
}

/// A parsed instruction before value/type resolution.
struct RawInst {
    line: usize,
    result: Option<u32>,
    op: Op,
    loc: Option<SrcLoc>,
}

fn parse_body(m: &mut Module, name: &str, lines: &[(usize, &str)], mut i: usize) -> PResult<usize> {
    let fid = m.function_by_name(name).expect("declared in pass 1");
    let mut blocks: Vec<Vec<RawInst>> = vec![];
    loop {
        if i >= lines.len() {
            return perr(
                lines.last().map(|l| l.0).unwrap_or(0),
                "unterminated function body",
            );
        }
        let (ln, l) = lines[i];
        if l == "}" {
            i += 1;
            break;
        }
        if let Some(label) = l.strip_suffix(':') {
            let Some(n) = label.strip_prefix("bb") else {
                return perr(ln, format!("bad block label: {label}"));
            };
            let n: usize = n.parse().map_err(|_| ParseError {
                line: ln,
                message: "bad block number".into(),
            })?;
            if n != blocks.len() {
                return perr(ln, "block labels must be dense and in order");
            }
            blocks.push(vec![]);
            i += 1;
            continue;
        }
        let Some(block) = blocks.last_mut() else {
            return perr(ln, "instruction before first block label");
        };
        block.push(parse_inst(m, ln, l)?);
        i += 1;
    }

    // Materialize the function body.
    let nparams = m.function(fid).params().len();
    let mut max_val = nparams as i64 - 1;
    for b in &blocks {
        for r in b {
            if let Some(v) = r.result {
                max_val = max_val.max(i64::from(v));
            }
        }
    }
    // Compute result types (calls need module access).
    let mut defs: Vec<Option<(InstId, Type)>> = vec![None; (max_val + 1).max(0) as usize];
    let f = m.function(fid);
    let param_tys: Vec<Type> = f.params().to_vec();
    let _ = f;

    let mut insts: Vec<Inst> = vec![];
    let mut block_lists: Vec<Block> = vec![];
    for b in &blocks {
        let mut list = vec![];
        for r in b {
            let id = InstId(insts.len() as u32);
            let ty = match &r.op {
                Op::Call { callee, .. } => {
                    let rt = m.function(*callee).ret_type();
                    (rt != Type::Void).then_some(rt)
                }
                other => other.result_type(),
            };
            match (r.result, ty) {
                (Some(v), Some(t)) => {
                    let slot = v as usize;
                    if slot < param_tys.len() {
                        return perr(r.line, "instruction result clashes with a parameter value");
                    }
                    if defs[slot].is_some() {
                        return perr(r.line, format!("value %v{v} defined twice"));
                    }
                    defs[slot] = Some((id, t));
                }
                (Some(_), None) => return perr(r.line, "operation produces no result"),
                (None, Some(_)) if matches!(r.op, Op::Call { .. }) => {
                    // Void-context call to a non-void function: tolerated by
                    // allocating an unnamed result so types stay consistent.
                }
                (None, Some(_)) => return perr(r.line, "missing result binding"),
                (None, None) => {}
            }
            insts.push(Inst {
                op: r.op.clone(),
                loc: r.loc,
                result: None,
            });
            list.push(id);
        }
        block_lists.push(Block {
            name: None,
            insts: list,
        });
    }

    // Build the value table: params then instruction results in id order.
    let mut values: Vec<ValueDef> = param_tys
        .iter()
        .enumerate()
        .map(|(i, &ty)| ValueDef {
            kind: ValueKind::Arg(i as u32),
            ty,
            name: None,
        })
        .collect();
    for (slot, d) in defs.iter().enumerate().skip(param_tys.len()) {
        match d {
            Some((inst, ty)) => {
                values.push(ValueDef {
                    kind: ValueKind::Inst(*inst),
                    ty: *ty,
                    name: None,
                });
                insts[inst.0 as usize].result = Some(ValueId(slot as u32));
            }
            None => {
                return perr(
                    0,
                    format!("value %v{slot} used or numbered but never defined"),
                )
            }
        }
    }

    let f = m.function_mut(fid);
    f.insts = insts;
    f.values = values;
    f.blocks = if block_lists.is_empty() {
        vec![Block::default()]
    } else {
        block_lists
    };
    Ok(i)
}

fn parse_inst(m: &Module, ln: usize, l: &str) -> PResult<RawInst> {
    // Split off the `!loc f:l:c` suffix.
    let (body, loc) = match l.rfind("!loc ") {
        Some(p) => {
            let loc_text = l[p + 5..].trim();
            let parts: Vec<&str> = loc_text.split(':').collect();
            if parts.len() != 3 {
                return perr(ln, "malformed !loc");
            }
            let parse = |s: &str| -> PResult<u32> {
                s.parse().map_err(|_| ParseError {
                    line: ln,
                    message: "bad !loc number".into(),
                })
            };
            (
                l[..p].trim(),
                Some(SrcLoc {
                    file: FileId(parse(parts[0])?),
                    line: parse(parts[1])?,
                    col: parse(parts[2])?,
                }),
            )
        }
        None => (l, None),
    };

    // Split off `%vN = `.
    let (result, rest) = match body.split_once('=') {
        Some((lhs, rhs)) if lhs.trim_start().starts_with("%v") => {
            let v: u32 = lhs
                .trim()
                .trim_start_matches("%v")
                .parse()
                .map_err(|_| ParseError {
                    line: ln,
                    message: "bad result value".into(),
                })?;
            (Some(v), rhs.trim())
        }
        _ => (None, body),
    };

    let mut c = Cursor::new(ln, rest);
    let mnemonic = c.word()?;
    let op = parse_op(m, &mut c, &mnemonic)?;
    c.expect_end()?;
    Ok(RawInst {
        line: ln,
        result,
        op,
        loc,
    })
}

fn parse_op(m: &Module, c: &mut Cursor, mnemonic: &str) -> PResult<Op> {
    if let Some(op) = BinOp::from_mnemonic(mnemonic) {
        let a = c.operand()?;
        c.comma()?;
        let b = c.operand()?;
        return Ok(Op::Bin { op, a, b });
    }
    if let Some(kind) = FlushKind::from_mnemonic(mnemonic) {
        let addr = c.operand()?;
        return Ok(Op::Flush { kind, addr });
    }
    if let Some(kind) = FenceKind::from_mnemonic(mnemonic) {
        return Ok(Op::Fence { kind });
    }
    match mnemonic {
        "cmp" => {
            let pred_w = c.word()?;
            let pred = CmpPred::from_mnemonic(&pred_w)
                .ok_or_else(|| c.err(format!("unknown predicate {pred_w}")))?;
            let a = c.operand()?;
            c.comma()?;
            let b = c.operand()?;
            Ok(Op::Cmp { pred, a, b })
        }
        "alloca" => Ok(Op::Alloca {
            size: c.number()? as u64,
        }),
        "heapalloc" => Ok(Op::HeapAlloc { size: c.operand()? }),
        "heapfree" => Ok(Op::HeapFree { ptr: c.operand()? }),
        "pmemmap" => {
            let size = c.operand()?;
            c.comma()?;
            let kw = c.word()?;
            if kw != "pool" {
                return Err(c.err("expected `pool`"));
            }
            let pool_hint = c.number()? as u64;
            Ok(Op::PmemMap { size, pool_hint })
        }
        "gep" => {
            let base = c.operand()?;
            c.comma()?;
            let offset = c.operand()?;
            Ok(Op::Gep { base, offset })
        }
        m2 if m2.starts_with("load.") => {
            let ty = parse_type(c.line, &m2[5..])?;
            Ok(Op::Load {
                ty,
                addr: c.operand()?,
            })
        }
        m2 if m2.starts_with("store.") => {
            let ty = parse_type(c.line, &m2[6..])?;
            let addr = c.operand()?;
            c.comma()?;
            let value = c.operand()?;
            Ok(Op::Store { ty, addr, value })
        }
        "memcpy" => {
            let dst = c.operand()?;
            c.comma()?;
            let src = c.operand()?;
            c.comma()?;
            let len = c.operand()?;
            Ok(Op::Memcpy { dst, src, len })
        }
        "memset" => {
            let dst = c.operand()?;
            c.comma()?;
            let val = c.operand()?;
            c.comma()?;
            let len = c.operand()?;
            Ok(Op::Memset { dst, val, len })
        }
        "call" => {
            let name = c.func_name()?;
            let callee = m
                .function_by_name(&name)
                .ok_or_else(|| c.err(format!("call to unknown function @{name}")))?;
            let args = c.call_args()?;
            Ok(Op::Call { callee, args })
        }
        "ret" => {
            if c.at_end() {
                Ok(Op::Ret { value: None })
            } else {
                Ok(Op::Ret {
                    value: Some(c.operand()?),
                })
            }
        }
        "br" => Ok(Op::Br {
            target: c.block_label()?,
        }),
        "condbr" => {
            let cond = c.operand()?;
            c.comma()?;
            let then_bb = c.block_label()?;
            c.comma()?;
            let else_bb = c.block_label()?;
            Ok(Op::CondBr {
                cond,
                then_bb,
                else_bb,
            })
        }
        "globaladdr" => {
            let name = c.func_name()?; // same `@name` syntax
            let id = m
                .globals()
                .find(|(_, g)| g.name == name)
                .map(|(id, _)| id)
                .ok_or_else(|| c.err(format!("unknown global @{name}")))?;
            Ok(Op::GlobalAddr { global: id })
        }
        "print" => Ok(Op::Print {
            value: c.operand()?,
        }),
        "crashpoint" => Ok(Op::CrashPoint),
        "abort" => Ok(Op::Abort { code: c.number()? }),
        other => Err(c.err(format!("unknown mnemonic: {other}"))),
    }
}

/// A tiny within-line token cursor.
struct Cursor<'a> {
    line: usize,
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(line: usize, text: &'a str) -> Self {
        Cursor {
            line,
            rest: text.trim(),
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.rest.is_empty()
    }

    fn expect_end(&mut self) -> PResult<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.err(format!("trailing tokens: {}", self.rest)))
        }
    }

    fn word(&mut self) -> PResult<String> {
        self.skip_ws();
        let end = self
            .rest
            .find(|ch: char| ch.is_whitespace() || ch == ',')
            .unwrap_or(self.rest.len());
        if end == 0 {
            return Err(self.err("expected a word"));
        }
        let w = self.rest[..end].to_string();
        self.rest = &self.rest[end..];
        Ok(w)
    }

    fn comma(&mut self) -> PResult<()> {
        self.skip_ws();
        if let Some(r) = self.rest.strip_prefix(',') {
            self.rest = r;
            Ok(())
        } else {
            Err(self.err("expected `,`"))
        }
    }

    fn number(&mut self) -> PResult<i64> {
        let w = self.word()?;
        w.parse().map_err(|_| self.err(format!("bad number: {w}")))
    }

    fn operand(&mut self) -> PResult<Operand> {
        let w = self.word()?;
        if w == "null" {
            Ok(Operand::Null)
        } else if let Some(v) = w.strip_prefix("%v") {
            let v: u32 = v.parse().map_err(|_| self.err("bad value id"))?;
            Ok(Operand::Value(ValueId(v)))
        } else {
            w.parse::<i64>()
                .map(Operand::Const)
                .map_err(|_| self.err(format!("bad operand: {w}")))
        }
    }

    fn block_label(&mut self) -> PResult<crate::function::BlockId> {
        let w = self.word()?;
        let n = w
            .strip_prefix("bb")
            .and_then(|n| n.parse::<u32>().ok())
            .ok_or_else(|| self.err(format!("bad block label: {w}")))?;
        Ok(crate::function::BlockId(n))
    }

    fn quoted_string(&mut self) -> PResult<String> {
        self.skip_ws();
        let r = self
            .rest
            .strip_prefix('"')
            .ok_or_else(|| self.err("expected quoted string"))?;
        let end = r.find('"').ok_or_else(|| self.err("unterminated string"))?;
        let s = r[..end].to_string();
        self.rest = &r[end + 1..];
        Ok(s)
    }

    /// Parses `@name` up to `(` or whitespace.
    fn func_name(&mut self) -> PResult<String> {
        self.skip_ws();
        let r = self
            .rest
            .strip_prefix('@')
            .ok_or_else(|| self.err("expected @name"))?;
        let end = r
            .find(|ch: char| ch == '(' || ch.is_whitespace())
            .unwrap_or(r.len());
        let name = r[..end].to_string();
        self.rest = &r[end..];
        Ok(name)
    }

    fn call_args(&mut self) -> PResult<Vec<Operand>> {
        self.skip_ws();
        let r = self
            .rest
            .strip_prefix('(')
            .ok_or_else(|| self.err("expected ("))?;
        let close = r.find(')').ok_or_else(|| self.err("unterminated call"))?;
        let inner = &r[..close];
        self.rest = &r[close + 1..];
        let mut args = vec![];
        if !inner.trim().is_empty() {
            for part in inner.split(',') {
                let mut sub = Cursor::new(self.line, part);
                args.push(sub.operand()?);
                sub.expect_end()?;
            }
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::display::print_module;
    use crate::verify::verify_module;

    fn roundtrip(m: &Module) -> Module {
        let text = print_module(m);
        let m2 = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n--\n{text}"));
        let text2 = print_module(&m2);
        assert_eq!(text, text2, "print→parse→print not a fixed point");
        m2
    }

    #[test]
    fn roundtrip_simple() {
        let mut m = Module::new();
        let file = m.intern_file("t.pmc");
        let f = m.declare_function("f", vec![Type::Ptr, Type::int(8)], Type::int(8));
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        let t = b.new_block("t");
        b.switch_to(e);
        b.set_loc(SrcLoc::line(file, 2));
        let p = b.arg(0);
        let n = b.arg(1);
        b.store(Type::int(8), p, n);
        b.flush(FlushKind::Clwb, p);
        b.fence(FenceKind::Sfence);
        let c = b.cmp(CmpPred::SGt, n, 0i64);
        b.cond_br(c, t, t);
        b.switch_to(t);
        b.ret(Some(Operand::Const(0)));
        b.finish();
        let m2 = roundtrip(&m);
        verify_module(&m2).unwrap();
    }

    #[test]
    fn roundtrip_calls_and_globals() {
        let mut m = Module::new();
        m.add_global("g", 8, vec![1, 2]);
        let g_fn = m.declare_function("callee", vec![Type::Ptr], Type::Void);
        {
            let mut b = FunctionBuilder::new(&mut m, g_fn);
            let e = b.entry_block();
            b.switch_to(e);
            b.ret(None);
            b.finish();
        }
        let f = m.declare_function("main", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.entry_block();
        b.switch_to(e);
        let gid = b.module().globals().next().unwrap().0;
        let ga = b.global_addr(gid);
        b.call(g_fn, vec![Operand::Value(ga)]);
        b.ret(None);
        b.finish();
        let m2 = roundtrip(&m);
        verify_module(&m2).unwrap();
        assert_eq!(m2.global_count(), 1);
    }

    #[test]
    fn parse_error_reports_line() {
        let text = "func @f() -> void {\nbb0:\n  bogus 1, 2\n}\n";
        let err = parse_module(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn forward_calls_resolve() {
        // `main` calls `helper`, declared later in the file.
        let text = "\
func @main() -> void {
bb0:
  call @helper()
  ret
}

func @helper() -> void {
bb0:
  ret
}
";
        let m = parse_module(text).unwrap();
        verify_module(&m).unwrap();
        assert_eq!(m.function_count(), 2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\
; a comment
func @f() -> i64 { ; trailing
bb0: ; entry

  %v0 = add 1, 2
  ret %v0
}
";
        let m = parse_module(text).unwrap();
        verify_module(&m).unwrap();
    }

    #[test]
    fn double_definition_rejected() {
        let text = "\
func @f() -> void {
bb0:
  %v0 = add 1, 2
  %v0 = add 3, 4
  ret
}
";
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("defined twice"));
    }
}
