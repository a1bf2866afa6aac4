//! The compiler driver: multi-source "linking", attribute filtering, and the
//! public entry points.

use crate::ast::{Block, FnDecl, StmtKind};
use crate::error::LangError;
use crate::lexer::tokenize;
use crate::lower::{lower_fn, signatures, Signature};
use crate::parser::parse;
use pmir::Module;
use std::collections::{HashMap, HashSet};

/// Compiles several sources into one [`Module`], with bug-corpus attribute
/// handling.
///
/// * [`Compiler::elide_tag`] drops every statement carrying the matching
///   `#[tag("…")]` — used to *remove* a flush or fence and seed a durability
///   bug.
/// * [`Compiler::feature`] enables statements gated with `#[when("…")]` —
///   used to express developer-fix variants.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    sources: Vec<(String, String)>,
    elide: HashSet<String>,
    features: HashSet<String>,
}

impl Compiler {
    /// A compiler with no sources.
    pub fn new() -> Self {
        Compiler::default()
    }

    /// Adds a source file (builder-style).
    pub fn source(mut self, name: impl Into<String>, text: impl Into<String>) -> Self {
        self.sources.push((name.into(), text.into()));
        self
    }

    /// Drops statements tagged `#[tag(name)]`.
    pub fn elide_tag(mut self, name: impl Into<String>) -> Self {
        self.elide.insert(name.into());
        self
    }

    /// Drops every statement tagged with any of `names`.
    pub fn elide_tags<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.elide.extend(names.into_iter().map(Into::into));
        self
    }

    /// Enables statements gated `#[when(name)]`.
    pub fn feature(mut self, name: impl Into<String>) -> Self {
        self.features.insert(name.into());
        self
    }

    /// Compiles and links all sources.
    ///
    /// # Errors
    ///
    /// Returns the first lexing/parsing/semantic error.
    pub fn compile(&self) -> Result<Module, LangError> {
        let mut module = Module::new();
        let mut per_file: Vec<(String, Vec<FnDecl>)> = vec![];
        for (name, text) in &self.sources {
            let toks = tokenize(name, text)?;
            let mut fns = parse(name, toks)?;
            for f in &mut fns {
                filter_block(&mut f.body, &self.elide, &self.features);
            }
            per_file.push((name.clone(), fns));
        }

        // Build the cross-file signature table, rejecting duplicates.
        let mut sigs: HashMap<String, Signature> = HashMap::new();
        for (file, fns) in &per_file {
            let file_sigs = signatures(file, fns)?;
            for (name, sig) in file_sigs {
                if sigs.insert(name.clone(), sig).is_some() {
                    let line = fns
                        .iter()
                        .find(|f| f.name == name)
                        .map(|f| f.line)
                        .unwrap_or(1);
                    return Err(LangError::new(
                        file,
                        line,
                        format!("function `{name}` defined in more than one source"),
                    ));
                }
            }
        }

        // Declare everything, then lower bodies (forward calls resolve).
        for (_, fns) in &per_file {
            for f in fns {
                module.declare_function(
                    &f.name,
                    f.params.iter().map(|p| crate::lower_ty(p.ty)).collect(),
                    crate::lower_ty(f.ret),
                );
            }
        }
        for (file, fns) in &per_file {
            for f in fns {
                lower_fn(&mut module, file, &sigs, f)?;
            }
        }
        pmir::verify::verify_module(&module).map_err(|e| {
            LangError::new(
                "<lowering>",
                0,
                format!("internal error: lowered module failed verification: {e}"),
            )
        })?;
        Ok(module)
    }
}

/// Compiles a single source with default options.
///
/// # Errors
///
/// Returns the first lexing/parsing/semantic error.
pub fn compile_one(name: &str, text: &str) -> Result<Module, LangError> {
    Compiler::new().source(name, text).compile()
}

fn filter_block(block: &mut Block, elide: &HashSet<String>, features: &HashSet<String>) {
    block.stmts.retain(|s| {
        if s.tags.iter().any(|t| elide.contains(t)) {
            return false;
        }
        match &s.when {
            Some(feature) => features.contains(feature),
            None => true,
        }
    });
    for s in &mut block.stmts {
        match &mut s.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                filter_block(then_blk, elide, features);
                if let Some(e) = else_blk {
                    filter_block(e, elide, features);
                }
            }
            StmtKind::While { body, .. } => filter_block(body, elide, features),
            _ => {}
        }
    }
}

/// Recursively collects tags declared anywhere in a source (useful for
/// corpus sanity checks: every bug id must exist in the source it claims to
/// mutate).
pub fn collect_tags(fns: &[FnDecl]) -> HashSet<String> {
    fn walk(b: &Block, out: &mut HashSet<String>) {
        for s in &b.stmts {
            out.extend(s.tags.iter().cloned());
            match &s.kind {
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    walk(then_blk, out);
                    if let Some(e) = else_blk {
                        walk(e, out);
                    }
                }
                StmtKind::While { body, .. } => walk(body, out),
                _ => {}
            }
        }
    }
    let mut out = HashSet::new();
    for f in fns {
        walk(&f.body, &mut out);
    }
    out
}

/// Parses a source and returns the set of `#[tag(…)]` names it declares.
///
/// # Errors
///
/// Returns lexing/parsing errors.
pub fn tags_in_source(name: &str, text: &str) -> Result<HashSet<String>, LangError> {
    let toks = tokenize(name, text)?;
    let fns = parse(name, toks)?;
    Ok(collect_tags(&fns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_across_sources_rejected() {
        let err = Compiler::new()
            .source("a.pmc", "fn f() {}")
            .source("b.pmc", "fn f() {}")
            .compile()
            .unwrap_err();
        assert!(err.message.contains("more than one source"), "{err}");
    }

    #[test]
    fn reserved_names_rejected() {
        let err = compile_one("a.pmc", "fn memcpy() {}").unwrap_err();
        assert!(err.message.contains("reserved"), "{err}");
    }

    #[test]
    fn tags_collected() {
        let tags = tags_in_source(
            "a.pmc",
            "fn f() { #[tag(\"x\")] sfence(); if (1) { #[tag(\"y\")] sfence(); } }",
        )
        .unwrap();
        assert!(tags.contains("x") && tags.contains("y"));
    }

    #[test]
    fn nested_filtering() {
        let src = r#"
            fn main() {
                if (1) {
                    #[tag("inner")] print(1);
                    print(2);
                }
            }
        "#;
        let m = Compiler::new()
            .source("t.pmc", src)
            .elide_tag("inner")
            .compile()
            .unwrap();
        let out = pmvm::Vm::new(pmvm::VmOptions::default())
            .run(&m, "main")
            .unwrap()
            .output;
        assert_eq!(out, vec![2]);
    }
}
