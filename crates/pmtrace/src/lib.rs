//! `pmtrace` — the PM-operation trace schema shared by the bug finder and
//! the repair engine.
//!
//! The Hippocrates pipeline (paper Fig. 2) starts from "a PM-specific
//! execution trace where each event includes the source line where the event
//! occurred, the stack trace at the time of the event, and PM-specific
//! information" (§4.1). This crate is that interchange format: the `pmvm`
//! interpreter emits it, the `pmcheck` durability checker consumes and
//! annotates it, and the `hippocrates` repair engine reads it to locate the
//! store behind every bug.
//!
//! Like pmemcheck's log, the trace records *persistent-memory* operations
//! only — PM stores, flushes, fences, pool registrations, crash points, and
//! program end — not every volatile access.

pub mod data;
pub mod error;
pub mod event;
pub mod format;
pub mod log;

pub use data::{DataLog, DataRecord};
pub use error::{TraceError, TraceWarning};
pub use event::{Event, EventKind, FenceKind, FlushKind, Frame, IrRef, Trace, TraceLoc};
pub use log::LogError;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(Event {
            seq: 0,
            kind: EventKind::RegisterPool {
                hint: 0,
                base: 0x3000_0000_0000,
                size: 4096,
            },
            at: Some(IrRef {
                function: "main".into(),
                inst: 0,
            }),
            loc: Some(TraceLoc {
                file: "main.pmc".into(),
                line: 3,
                col: 1,
            }),
            stack: vec![Frame {
                function: "main".into(),
                call_inst: None,
                loc: None,
            }]
            .into(),
        });
        t.push(Event {
            seq: 1,
            kind: EventKind::Store {
                addr: 0x3000_0000_0000,
                len: 8,
            },
            at: Some(IrRef {
                function: "update".into(),
                inst: 4,
            }),
            loc: Some(TraceLoc {
                file: "main.pmc".into(),
                line: 12,
                col: 5,
            }),
            stack: vec![
                Frame {
                    function: "update".into(),
                    call_inst: None,
                    loc: None,
                },
                Frame {
                    function: "main".into(),
                    call_inst: Some(9),
                    loc: Some(TraceLoc {
                        file: "main.pmc".into(),
                        line: 30,
                        col: 3,
                    }),
                },
            ]
            .into(),
        });
        t.push(Event {
            seq: 2,
            kind: EventKind::ProgramEnd,
            at: None,
            loc: None,
            stack: [].into(),
        });
        t
    }

    #[test]
    fn json_roundtrip() {
        let t = sample();
        let json = t.to_json().unwrap();
        let t2 = Trace::from_json(&json).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn text_rendering_mentions_ops() {
        let t = sample();
        let text = format::render_text(&t);
        assert!(text.contains("REGISTER"), "{text}");
        assert!(text.contains("STORE"), "{text}");
        assert!(text.contains("main.pmc:12"), "{text}");
        assert!(text.contains("END"), "{text}");
    }

    #[test]
    fn counts() {
        let t = sample();
        assert_eq!(t.count(|k| matches!(k, EventKind::Store { .. })), 1);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }
}
