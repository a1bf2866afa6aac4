//! `pmvm` — the virtual machine that executes `pmir` programs on the
//! `pmem-sim` machine.
//!
//! The VM plays the role of the instrumented native execution in the
//! original Hippocrates toolchain: it runs the program, routes every memory
//! operation through the simulated cache/PM model, and (optionally) emits
//! the pmemcheck-style [`pmtrace::Trace`] the repair pipeline starts from.
//!
//! Every [`Vm::run`] executes on one engine: the program is decoded once
//! into flat op arrays ([`DecodedModule`]) and run by direct-threaded
//! dispatch. [`Vm::run_reference`] is an arena-walking reference
//! interpreter, kept so tests can compare the engine against it.
//!
//! # Example
//!
//! ```
//! use pmir::{Module, FunctionBuilder, Type, Operand, FlushKind, FenceKind};
//! use pmvm::{Vm, VmOptions};
//!
//! let mut m = Module::new();
//! let f = m.declare_function("main", vec![], Type::Void);
//! let mut b = FunctionBuilder::new(&mut m, f);
//! let e = b.entry_block();
//! b.switch_to(e);
//! let pool = b.pmem_map(4096i64, 0);
//! b.store(Type::int(8), pool, 41i64);
//! b.flush(FlushKind::Clwb, pool);
//! b.fence(FenceKind::Sfence);
//! let v = b.load(Type::int(8), pool);
//! b.print(v);
//! b.ret(None);
//! b.finish();
//!
//! let result = Vm::new(VmOptions::default()).run(&m, "main").unwrap();
//! assert_eq!(result.output, vec![41]);
//! assert_eq!(result.trace.as_ref().unwrap().count(
//!     |k| matches!(k, pmtrace::EventKind::Store { .. })), 1);
//! ```

pub mod decode;
mod fastvm;
mod interp;
pub mod options;
pub mod result;
mod vm;

pub use decode::DecodedModule;
pub use options::{ExecTier, VmOptions};
pub use result::{Ended, RunResult, VmError};
pub use vm::Vm;
