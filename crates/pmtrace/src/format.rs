//! Human-readable (pmemcheck-style) rendering of traces.

use crate::event::{Event, EventKind, Trace};
use std::fmt::Write as _;

/// Renders a trace in a pmemcheck-log-like text form, one event per line
/// with indented stack frames. Intended for humans and golden tests; the
/// machine-readable format is [`Trace::to_json`].
pub fn render_text(trace: &Trace) -> String {
    let mut out = String::new();
    for e in &trace.events {
        let _ = writeln!(out, "{}", render_event(e));
        for f in e.stack.iter().skip(1) {
            let loc = f
                .loc
                .as_ref()
                .map(|l| format!(" at {l}"))
                .unwrap_or_default();
            let _ = writeln!(out, "    by {}{}", f.function, loc);
        }
    }
    out
}

fn render_event(e: &Event) -> String {
    let head = match &e.kind {
        EventKind::Store { addr, len } => format!("[{:>6}] STORE  {addr:#x}+{len}", e.seq),
        EventKind::Flush { kind, addr } => {
            format!("[{:>6}] FLUSH  {addr:#x} ({kind:?})", e.seq)
        }
        EventKind::Fence { kind } => format!("[{:>6}] FENCE  ({kind:?})", e.seq),
        EventKind::RegisterPool { hint, base, size } => {
            format!("[{:>6}] REGISTER pool {hint} at {base:#x}+{size}", e.seq)
        }
        EventKind::CrashPoint => format!("[{:>6}] CRASHPOINT", e.seq),
        EventKind::ProgramEnd => format!("[{:>6}] END", e.seq),
    };
    let mut s = head;
    if let Some(loc) = &e.loc {
        let _ = write!(s, "  at {loc}");
    }
    if let Some(at) = &e.at {
        let _ = write!(s, "  in @{}#{}", at.function, at.inst);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FenceKind, FlushKind};

    #[test]
    fn renders_each_kind() {
        let mk = |kind| Event {
            seq: 1,
            kind,
            at: None,
            loc: None,
            stack: [].into(),
        };
        let t: Trace = [
            mk(EventKind::Store { addr: 0x30, len: 8 }),
            mk(EventKind::Flush {
                kind: FlushKind::Clwb,
                addr: 0x30,
            }),
            mk(EventKind::Fence {
                kind: FenceKind::Sfence,
            }),
            mk(EventKind::CrashPoint),
            mk(EventKind::ProgramEnd),
        ]
        .into_iter()
        .collect();
        let text = render_text(&t);
        for needle in ["STORE", "FLUSH", "FENCE", "CRASHPOINT", "END"] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }
}
