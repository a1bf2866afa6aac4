//! Trace events.
//!
//! Names and call stacks are shared, not owned: [`Frame::function`],
//! [`IrRef::function`] and [`TraceLoc::file`] are `Arc<str>`, and
//! [`Event::stack`] is an `Arc<[Frame]>`. The VM interns each function and
//! file name once per run and builds one stack per activation, so every
//! event emitted inside that activation points at the same allocation, and
//! cloning an event (or a bug that quotes it) copies pointers, not strings.
//! The wire formats do not see the difference: an `Arc<str>` serializes as
//! the string it holds.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A flush instruction kind as recorded in traces (tool-neutral mirror of
/// `pmir::FlushKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlushKind {
    /// `CLWB`.
    Clwb,
    /// `CLFLUSHOPT`.
    ClflushOpt,
    /// `CLFLUSH` (strongly ordered).
    Clflush,
}

impl FlushKind {
    /// Whether this flush needs a following fence for durability ordering.
    pub fn is_weakly_ordered(self) -> bool {
        !matches!(self, FlushKind::Clflush)
    }
}

/// A fence instruction kind as recorded in traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FenceKind {
    /// `SFENCE`.
    Sfence,
    /// `MFENCE`.
    Mfence,
}

/// A resolved source position (file names are resolved strings so the trace
/// stands alone, independent of any module's file table).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceLoc {
    /// Source file name.
    pub file: Arc<str>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column, 0 when unknown.
    pub col: u32,
}

impl std::fmt::Display for TraceLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// A structural reference to the IR instruction that produced an event:
/// function name plus instruction index in that function's arena. Instruction
/// ids are append-only in `pmir`, so references stay valid across repair.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IrRef {
    /// Containing function name.
    pub function: Arc<str>,
    /// `pmir::InstId` index within the function.
    pub inst: u32,
}

/// One call-stack frame at the time of an event. `stack[0]` is the innermost
/// frame (where the event executed); the last frame is `main`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Frame {
    /// The frame's function name.
    pub function: Arc<str>,
    /// For non-innermost frames: the call instruction (in *this* frame's
    /// function) that entered the next-inner frame. `None` for the innermost
    /// frame.
    pub call_inst: Option<u32>,
    /// Source location of that call, if known.
    pub loc: Option<TraceLoc>,
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A store (or memcpy/memset) that modified persistent memory.
    Store {
        /// Start address of the modified PM range.
        addr: u64,
        /// Length in bytes.
        len: u64,
    },
    /// A cache-line flush whose target line is in persistent memory.
    Flush {
        /// Flush instruction family.
        kind: FlushKind,
        /// The requested address (the affected line is `addr & !63`).
        addr: u64,
    },
    /// A memory fence.
    Fence {
        /// Fence instruction family.
        kind: FenceKind,
    },
    /// A PM pool was mapped.
    RegisterPool {
        /// The program-chosen pool id.
        hint: u64,
        /// Base address the pool was mapped at.
        base: u64,
        /// Pool size in bytes.
        size: u64,
    },
    /// An explicit crash point (`crashpoint` in the IR): durability of all
    /// earlier PM updates is required here.
    CrashPoint,
    /// Orderly program end; pmemcheck audits outstanding stores here.
    ProgramEnd,
}

/// One trace event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Monotonic sequence number.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// The IR instruction behind the event, when known.
    pub at: Option<IrRef>,
    /// Source location of that instruction, when known.
    pub loc: Option<TraceLoc>,
    /// Call stack, innermost first. Shared: the VM gives every event of
    /// one activation the same stack.
    pub stack: Arc<[Frame]>,
}

/// An ordered list of events — the bug-finder's execution log.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Events in execution order.
    pub events: Vec<Event>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Counts events whose kind matches `pred`.
    pub fn count(&self, pred: impl Fn(&EventKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` failures (effectively unreachable for this
    /// schema).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a trace from JSON, with the same range checks as
    /// [`crate::log::from_log`]: pools inside the PM window, stores inside a
    /// pool registered before them.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TraceError::Json`] on malformed input or an
    /// out-of-range event.
    pub fn from_json(s: &str) -> Result<Self, crate::TraceError> {
        let json = |message| crate::TraceError::Json { message };
        let trace: Trace = serde_json::from_str(s).map_err(|e| json(e.to_string()))?;
        crate::log::check_ranges(&trace.events)
            .map_err(|(i, msg)| json(format!("event {}: {msg}", trace.events[i].seq)))?;
        Ok(trace)
    }

    /// Structural sanity check: reports oddities a parse cannot reject but
    /// a consumer should not silently trust — duplicated records, events
    /// after the program ended. An empty result means the trace is
    /// well-formed.
    pub fn validate(&self) -> Vec<crate::TraceWarning> {
        let mut warnings = vec![];
        let mut ended_at: Option<u64> = None;
        for (i, e) in self.events.iter().enumerate() {
            if let Some(end_seq) = ended_at {
                warnings.push(crate::TraceWarning {
                    seq: e.seq,
                    message: format!("event after program end (END at event {end_seq})"),
                });
            }
            if e.kind == EventKind::ProgramEnd && ended_at.is_none() {
                ended_at = Some(e.seq);
            }
            // A byte-identical neighbor (ignoring seq) is a duplicated
            // record: no real execution emits the same store/flush twice
            // from the same instruction back to back without the sequence
            // advancing through other events.
            if i > 0 {
                let p = &self.events[i - 1];
                if p.kind == e.kind
                    && p.at == e.at
                    && p.loc == e.loc
                    && p.stack == e.stack
                    && !matches!(e.kind, EventKind::CrashPoint)
                {
                    warnings.push(crate::TraceWarning {
                        seq: e.seq,
                        message: format!("duplicated record (identical to event {})", p.seq),
                    });
                }
            }
        }
        warnings
    }
}

impl FromIterator<Event> for Trace {
    fn from_iter<T: IntoIterator<Item = Event>>(iter: T) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<Event> for Trace {
    fn extend<T: IntoIterator<Item = Event>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_ordering() {
        assert!(FlushKind::Clwb.is_weakly_ordered());
        assert!(!FlushKind::Clflush.is_weakly_ordered());
    }

    #[test]
    fn collect_and_extend() {
        let e = Event {
            seq: 0,
            kind: EventKind::ProgramEnd,
            at: None,
            loc: None,
            stack: [].into(),
        };
        let mut t: Trace = std::iter::once(e.clone()).collect();
        t.extend(std::iter::once(e));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn traceloc_display() {
        let l = TraceLoc {
            file: "a.pmc".into(),
            line: 7,
            col: 0,
        };
        assert_eq!(l.to_string(), "a.pmc:7");
    }

    #[test]
    fn from_json_diagnostic_maps_errors() {
        let err = Trace::from_json("{\"events\": [").unwrap_err();
        assert!(matches!(err, crate::TraceError::Json { .. }), "{err}");
        let t = Trace::new();
        let json = t.to_json().expect("serializes");
        assert_eq!(Trace::from_json(&json).expect("parses"), t);
    }

    #[test]
    fn validate_flags_duplicates_and_post_end_events() {
        let store = Event {
            seq: 0,
            kind: EventKind::Store { addr: 64, len: 8 },
            at: None,
            loc: None,
            stack: [].into(),
        };
        let end = Event {
            seq: 0,
            kind: EventKind::ProgramEnd,
            at: None,
            loc: None,
            stack: [].into(),
        };
        let mut t = Trace::new();
        for (i, mut e) in [store.clone(), store, end.clone(), end]
            .into_iter()
            .enumerate()
        {
            e.seq = i as u64;
            t.push(e);
        }
        let w = t.validate();
        assert!(w.iter().any(|w| w.message.contains("duplicated")), "{w:?}");
        assert!(
            w.iter().any(|w| w.message.contains("after program end")),
            "{w:?}"
        );
    }

    #[test]
    fn validate_accepts_clean_trace() {
        let mut t = Trace::new();
        t.push(Event {
            seq: 0,
            kind: EventKind::Store { addr: 64, len: 8 },
            at: None,
            loc: None,
            stack: [].into(),
        });
        t.push(Event {
            seq: 1,
            kind: EventKind::ProgramEnd,
            at: None,
            loc: None,
            stack: [].into(),
        });
        assert!(t.validate().is_empty());
    }
}
