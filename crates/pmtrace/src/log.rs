//! The portable line-based trace format — the adapter surface for foreign
//! bug finders.
//!
//! The paper's Hippocrates accepts traces from pmemcheck and PMTest (§5.1):
//! any tool that can report *operation kind, location, and call stack* can
//! drive the repair engine. This module defines that minimal interchange:
//! one event per line, `KEY=VALUE` fields, `<-`-separated stacks:
//!
//! ```text
//! REGISTER pool=0 base=0x300000000000 size=4096 at=main#2 loc=main.pmc:3
//! STORE addr=0x300000000000 len=8 at=update#4 loc=main.pmc:12 stack=update<-modify@9(main.pmc:30)<-main@17(main.pmc:41)
//! FLUSH kind=CLWB addr=0x300000000000 at=main#9
//! FENCE kind=SFENCE at=main#10
//! CRASHPOINT
//! END
//! ```
//!
//! `at=function#inst` is the structural reference; `loc=file:line[:col]`
//! the source position; both are optional (Hippocrates falls back from one
//! to the other). Stack frames after the first carry
//! `function@call_inst(loc)`.
//!
//! Ranges are bounded at ingest, because checkers and explorers size
//! buffers by them: a `REGISTER` must lie inside [`PM_WINDOW`], and a
//! `STORE` inside a pool registered on an earlier line (the VM registers a
//! pool at every `pmem_map`, before any store into it). JSON traces
//! ([`Trace::from_json`]) get the same checks.

use crate::event::{Event, EventKind, FenceKind, FlushKind, Frame, IrRef, Trace, TraceLoc};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The simulated PM address window, `pmem_sim::layout::PM_BASE` plus one
/// `REGION_SPAN`: every pool a machine maps lies inside it.
pub const PM_WINDOW: std::ops::Range<u64> = 0x3000_0000_0000..0x4000_0000_0000;

/// The end of the extent a machine gives a pool registered at `base` with
/// `size` (rounded up to whole cache lines), if it lies inside
/// [`PM_WINDOW`].
fn pool_end(base: u64, size: u64) -> Option<u64> {
    let end = base.checked_add(size.max(1).checked_next_multiple_of(64)?)?;
    (base >= PM_WINDOW.start && end <= PM_WINDOW.end).then_some(end)
}

/// A parse failure with its 1-based line number and the byte offset of that
/// line's start in the input — enough for a caller holding the raw bytes to
/// point a cursor at the corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogError {
    /// 1-based line.
    pub line: usize,
    /// Byte offset of the line's first byte in the input.
    pub byte_offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace log line {} (byte {}): {}",
            self.line, self.byte_offset, self.message
        )
    }
}

impl std::error::Error for LogError {}

/// Serializes a trace to the portable log format.
pub fn to_log(trace: &Trace) -> String {
    let mut out = String::new();
    for e in &trace.events {
        let mut line = match &e.kind {
            EventKind::Store { addr, len } => format!("STORE addr={addr:#x} len={len}"),
            EventKind::Flush { kind, addr } => {
                format!("FLUSH kind={} addr={addr:#x}", flush_name(*kind))
            }
            EventKind::Fence { kind } => format!("FENCE kind={}", fence_name(*kind)),
            EventKind::RegisterPool { hint, base, size } => {
                format!("REGISTER pool={hint} base={base:#x} size={size}")
            }
            EventKind::CrashPoint => "CRASHPOINT".to_string(),
            EventKind::ProgramEnd => "END".to_string(),
        };
        if let Some(at) = &e.at {
            let _ = write!(line, " at={}#{}", at.function, at.inst);
        }
        if let Some(loc) = &e.loc {
            let _ = write!(line, " loc={}:{}:{}", loc.file, loc.line, loc.col);
        }
        if !e.stack.is_empty() {
            let frames: Vec<String> = e
                .stack
                .iter()
                .map(|f| {
                    let mut s = f.function.to_string();
                    if let Some(ci) = f.call_inst {
                        let _ = write!(s, "@{ci}");
                    }
                    if let Some(loc) = &f.loc {
                        let _ = write!(s, "({}:{}:{})", loc.file, loc.line, loc.col);
                    }
                    s
                })
                .collect();
            let _ = write!(line, " stack={}", frames.join("<-"));
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Parses the portable log format; sequence numbers are assigned in order.
///
/// # Errors
///
/// Returns a [`LogError`] naming the offending line.
pub fn from_log(text: &str) -> Result<Trace, LogError> {
    from_log_obs(text, &pmobs::Obs::default())
}

/// [`from_log`] with ingest telemetry: records the `trace.ingest` span and
/// the `trace.ingest.bytes` / `trace.ingest.events` /
/// `trace.ingest.parse_errors` counters into `obs`.
///
/// # Errors
///
/// Returns a [`LogError`] naming the offending line.
pub fn from_log_obs(text: &str, obs: &pmobs::Obs) -> Result<Trace, LogError> {
    let _span = obs.span("trace.ingest");
    obs.add("trace.ingest.bytes", text.len() as u64);
    let parsed = from_log_inner(text);
    match &parsed {
        Ok(trace) => obs.add("trace.ingest.events", trace.events.len() as u64),
        Err(_) => obs.add("trace.ingest.parse_errors", 1),
    }
    parsed
}

fn from_log_inner(text: &str) -> Result<Trace, LogError> {
    let mut trace = Trace::new();
    // (line, byte offset) of each event, for range errors.
    let mut origins = vec![];
    let mut seq = 0u64;
    let mut offset = 0usize;
    for (ln, full) in text.split_inclusive('\n').enumerate() {
        let line_no = ln + 1;
        let line_offset = offset;
        offset += full.len();
        let raw = full.trim();
        if raw.is_empty() || raw.starts_with('#') {
            continue;
        }
        let err = |msg: String| LogError {
            line: line_no,
            byte_offset: line_offset,
            message: msg,
        };
        let mut parts = raw.split_whitespace();
        let Some(head) = parts.next() else { continue };
        let mut fields: Vec<(&str, &str)> = vec![];
        for p in parts {
            let (k, v) = p
                .split_once('=')
                .ok_or_else(|| err(format!("malformed field `{p}`")))?;
            fields.push((k, v));
        }
        let get = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        let need = |key: &str| get(key).ok_or_else(|| err(format!("missing field `{key}`")));
        let num = |v: &str| -> Result<u64, LogError> {
            let parsed = if let Some(hex) = v.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                v.parse()
            };
            parsed.map_err(|_| err(format!("bad number `{v}`")))
        };

        let kind = match head {
            "STORE" => EventKind::Store {
                addr: num(need("addr")?)?,
                len: num(need("len")?)?,
            },
            "FLUSH" => EventKind::Flush {
                kind: parse_flush(need("kind")?).ok_or_else(|| err("bad flush kind".into()))?,
                addr: num(need("addr")?)?,
            },
            "FENCE" => EventKind::Fence {
                kind: parse_fence(need("kind")?).ok_or_else(|| err("bad fence kind".into()))?,
            },
            "REGISTER" => EventKind::RegisterPool {
                hint: num(need("pool")?)?,
                base: num(need("base")?)?,
                size: num(need("size")?)?,
            },
            "CRASHPOINT" => EventKind::CrashPoint,
            "END" => EventKind::ProgramEnd,
            other => return Err(err(format!("unknown event `{other}`"))),
        };

        let at = match get("at") {
            Some(v) => Some(parse_at(v).ok_or_else(|| err(format!("bad at `{v}`")))?),
            None => None,
        };
        let loc = match get("loc") {
            Some(v) => Some(parse_loc(v).ok_or_else(|| err(format!("bad loc `{v}`")))?),
            None => None,
        };
        let stack = match get("stack") {
            Some(v) => parse_stack(v)
                .ok_or_else(|| err(format!("bad stack `{v}`")))?
                .into(),
            None => [].into(),
        };

        trace.push(Event {
            seq,
            kind,
            at,
            loc,
            stack,
        });
        origins.push((line_no, line_offset));
        seq += 1;
    }
    check_ranges(&trace.events).map_err(|(i, message)| LogError {
        line: origins[i].0,
        byte_offset: origins[i].1,
        message,
    })?;
    Ok(trace)
}

/// Checks the ranges consumers size buffers by: every `RegisterPool` must
/// lie inside [`PM_WINDOW`], and every `Store` inside a pool registered
/// before it. Returns the index of the first offending event and what is
/// wrong with it. Both trace readers call this.
pub(crate) fn check_ranges(events: &[Event]) -> Result<(), (usize, String)> {
    // Registered pools so far: base -> end.
    let mut pools = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let bad = match e.kind {
            EventKind::Store { addr, len } => {
                let inside = addr.checked_add(len.max(1)).is_some_and(|end| {
                    let pool = pools.range(..=addr).next_back();
                    pool.is_some_and(|(_, &pool_end)| end <= pool_end)
                });
                (!inside).then(|| format!("store of {len} byte(s) at {addr:#x} lies outside every pool registered before it"))
            }
            EventKind::RegisterPool { base, size, .. } => match pool_end(base, size) {
                Some(end) => {
                    pools.insert(base, end);
                    None
                }
                None => Some(format!(
                    "pool of {size} byte(s) at {base:#x} leaves the PM window {PM_WINDOW:#x?}"
                )),
            },
            _ => None,
        };
        if let Some(message) = bad {
            return Err((i, message));
        }
    }
    Ok(())
}

fn flush_name(k: FlushKind) -> &'static str {
    match k {
        FlushKind::Clwb => "CLWB",
        FlushKind::ClflushOpt => "CLFLUSHOPT",
        FlushKind::Clflush => "CLFLUSH",
    }
}

fn parse_flush(s: &str) -> Option<FlushKind> {
    Some(match s {
        "CLWB" => FlushKind::Clwb,
        "CLFLUSHOPT" => FlushKind::ClflushOpt,
        "CLFLUSH" => FlushKind::Clflush,
        _ => return None,
    })
}

fn fence_name(k: FenceKind) -> &'static str {
    match k {
        FenceKind::Sfence => "SFENCE",
        FenceKind::Mfence => "MFENCE",
    }
}

fn parse_fence(s: &str) -> Option<FenceKind> {
    Some(match s {
        "SFENCE" => FenceKind::Sfence,
        "MFENCE" => FenceKind::Mfence,
        _ => return None,
    })
}

fn parse_at(s: &str) -> Option<IrRef> {
    let (f, i) = s.rsplit_once('#')?;
    Some(IrRef {
        function: f.into(),
        inst: i.parse().ok()?,
    })
}

fn parse_loc(s: &str) -> Option<TraceLoc> {
    let mut it = s.rsplitn(3, ':');
    let col: u32 = it.next()?.parse().ok()?;
    let line: u32 = it.next()?.parse().ok()?;
    let file = it.next()?.into();
    Some(TraceLoc { file, line, col })
}

fn parse_stack(s: &str) -> Option<Vec<Frame>> {
    let mut frames = vec![];
    for part in s.split("<-") {
        // function[@call_inst][(loc)]
        let (head, loc) = match part.split_once('(') {
            Some((h, rest)) => {
                let loc = rest.strip_suffix(')')?;
                (h, Some(parse_loc(loc)?))
            }
            None => (part, None),
        };
        let (function, call_inst) = match head.split_once('@') {
            Some((f, ci)) => (f.into(), Some(ci.parse().ok()?)),
            None => (head.into(), None),
        };
        frames.push(Frame {
            function,
            call_inst,
            loc,
        });
    }
    Some(frames)
}

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
                inst: 2,
            }),
            loc: Some(TraceLoc {
                file: "a.pmc".into(),
                line: 3,
                col: 0,
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
            loc: None,
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
                        file: "a.pmc".into(),
                        line: 30,
                        col: 5,
                    }),
                },
            ]
            .into(),
        });
        t.push(Event {
            seq: 2,
            kind: EventKind::Flush {
                kind: FlushKind::Clwb,
                addr: 0x3000_0000_0000,
            },
            at: None,
            loc: None,
            stack: [].into(),
        });
        t.push(Event {
            seq: 3,
            kind: EventKind::Fence {
                kind: FenceKind::Sfence,
            },
            at: None,
            loc: None,
            stack: [].into(),
        });
        t.push(Event {
            seq: 4,
            kind: EventKind::ProgramEnd,
            at: None,
            loc: None,
            stack: [].into(),
        });
        t
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let log = to_log(&t);
        let t2 = from_log(&log).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn ingest_reports_its_span_and_counters() {
        let obs = pmobs::Obs::enabled();
        let log = to_log(&sample());
        assert_eq!(from_log_obs(&log, &obs).unwrap(), sample());
        assert!(from_log_obs("END\nBOGUS\n", &obs).is_err());
        let snap = obs.snapshot();
        let ingests = snap.spans.iter().filter(|s| s.name == "trace.ingest");
        assert_eq!(ingests.count(), 2, "{:?}", snap.spans);
        let bytes = (log.len() + "END\nBOGUS\n".len()) as u64;
        assert_eq!(snap.counters["trace.ingest.bytes"], bytes);
        assert_eq!(snap.counters["trace.ingest.events"], sample().len() as u64);
        assert_eq!(snap.counters["trace.ingest.parse_errors"], 1);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let log = "# a foreign tool's header\n\nCRASHPOINT\nEND\n";
        let t = from_log(log).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.events[0].kind, EventKind::CrashPoint);
    }

    #[test]
    fn errors_report_lines() {
        let err = from_log("STORE addr=0x10\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("len"));
        let err = from_log("END\nBOGUS\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = from_log("FLUSH kind=NOPE addr=0x10\n").unwrap_err();
        assert!(err.message.contains("flush"));
    }

    #[test]
    fn errors_report_byte_offsets() {
        let err = from_log("END\nBOGUS\n").unwrap_err();
        assert_eq!(err.byte_offset, 4, "offset of the offending line's start");
        let err = from_log("# header\nCRASHPOINT\nSTORE addr=zz len=8\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.byte_offset, "# header\nCRASHPOINT\n".len());
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn truncated_input_yields_structured_error() {
        // A record cut mid-field (no trailing newline) must parse-fail with
        // position context, not panic.
        let whole = to_log(&sample());
        let cut = &whole[..whole.len() - 7];
        match from_log(cut) {
            // Cutting inside the final line usually mangles a field…
            Err(e) => assert!(e.line >= 1 && e.byte_offset < whole.len()),
            // …but a cut can also land between fields, leaving valid lines.
            Ok(t) => assert!(t.len() <= sample().len()),
        }
    }

    #[test]
    fn hex_and_decimal_numbers() {
        let t = from_log(
            "REGISTER pool=0 base=0x300000000000 size=4096\n\
             STORE addr=0x300000000040 len=8\nSTORE addr=52776558133312 len=8\n",
        )
        .unwrap();
        let addrs: Vec<u64> = t
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Store { addr, .. } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(addrs, vec![0x3000_0000_0040, 0x3000_0000_0040]);
    }

    /// The JSON encoding of a trace of `kinds`, numbered in order.
    fn json_of(kinds: Vec<EventKind>) -> String {
        let events = kinds.into_iter().enumerate().map(|(i, kind)| Event {
            seq: i as u64,
            kind,
            at: None,
            loc: None,
            stack: [].into(),
        });
        events.collect::<Trace>().to_json().expect("serializes")
    }

    #[test]
    fn stores_outside_registered_pools_are_rejected() {
        const REG: &str = "REGISTER pool=0 base=0x300000000000 size=100\n";
        let pool = EventKind::RegisterPool {
            hint: 0,
            base: 0x3000_0000_0000,
            size: 100,
        };
        // The pool spans 128 bytes: its size rounds up to whole lines.
        assert!(from_log(&format!("{REG}STORE addr=0x30000000007f len=1\n")).is_ok());
        for (addr, len) in [
            // A forged length the checker would size a line mask by.
            (0x3000_0000_0000, 1 << 60),
            // One byte past the pool's last line.
            (0x3000_0000_0078, 9),
            // Below the pool, and a range that wraps the address space.
            (0x2fff_ffff_ffff, 1),
            (u64::MAX, 2),
        ] {
            let store = format!("STORE addr={addr:#x} len={len}");
            let err = from_log(&format!("# tool header\n{REG}{store}\n")).unwrap_err();
            assert_eq!(err.line, 3, "{store}: {err}");
            assert!(err.message.contains("outside every pool"), "{err}");
            // JSON traces get the same check.
            let json = json_of(vec![pool.clone(), EventKind::Store { addr, len }]);
            let err = Trace::from_json(&json).unwrap_err();
            assert!(err.to_string().contains("event 1: store of"), "{err}");
        }
        // A store before its pool is registered is rejected too.
        let err = from_log(&format!("STORE addr=0x300000000000 len=8\n{REG}")).unwrap_err();
        assert_eq!(err.line, 1);
        let store = EventKind::Store {
            addr: 0x3000_0000_0000,
            len: 8,
        };
        assert!(Trace::from_json(&json_of(vec![store, pool])).is_err());
    }

    #[test]
    fn registers_outside_the_pm_window_are_rejected() {
        for (base, size) in [
            // A pool the explorer would otherwise allocate 2^60 bytes for.
            (0x3000_0000_0000, 1 << 60),
            (0x3fff_ffff_ffc0, 65),
            (0x2000_0000_0000, 64),
            (0xffff_ffff_ffff_ffc0, 64),
            (0x3000_0000_0000, u64::MAX),
        ] {
            let reg = format!("REGISTER pool=0 base={base:#x} size={size}");
            let err = from_log(&format!("END\n{reg}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{reg}: {err}");
            assert!(err.message.contains("PM window"), "{err}");
            // JSON traces get the same check.
            let pool = EventKind::RegisterPool {
                hint: 0,
                base,
                size,
            };
            let err = Trace::from_json(&json_of(vec![EventKind::ProgramEnd, pool])).unwrap_err();
            assert!(err.to_string().contains("PM window"), "{err}");
        }
        assert!(from_log("REGISTER pool=0 base=0x3fffffffffc0 size=64\n").is_ok());
    }
}
