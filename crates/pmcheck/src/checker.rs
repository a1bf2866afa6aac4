//! The store-state machine over traces.

use crate::bug::{Bug, BugKind, CheckReport, Checkpoint, RedundantFlush};
use pmtrace::{Event, EventKind, Trace};
use std::borrow::Cow;

const CACHE_LINE: u64 = 64;

/// A subset of one store's cache lines, by index from the store's first
/// line: one inline word for stores of up to 64 lines (4 KiB), spilled to
/// one word per 64 lines above that.
#[derive(Debug)]
enum LineMask {
    Inline(u64),
    Spilled(Box<[u64]>),
}

impl LineMask {
    /// The mask of all `lines` lines (`full`) or of none of them.
    fn new(lines: u64, full: bool) -> Self {
        let tail = |n: u64| if full { u64::MAX >> (64 - n) } else { 0 };
        if lines <= 64 {
            return LineMask::Inline(tail(lines));
        }
        let mut words = vec![if full { u64::MAX } else { 0 }; lines.div_ceil(64) as usize];
        if let Some(last) = words.last_mut() {
            *last = tail((lines - 1) % 64 + 1);
        }
        LineMask::Spilled(words.into_boxed_slice())
    }

    fn words(&self) -> &[u64] {
        match self {
            LineMask::Inline(w) => std::slice::from_ref(w),
            LineMask::Spilled(ws) => ws,
        }
    }

    /// The word holding line `i`, and `i`'s bit in it.
    fn word_mut(&mut self, i: u64) -> (&mut u64, u64) {
        match self {
            LineMask::Inline(w) => (w, 1 << i),
            LineMask::Spilled(ws) => (&mut ws[(i / 64) as usize], 1 << (i % 64)),
        }
    }

    fn contains(&self, i: u64) -> bool {
        self.words()[(i / 64) as usize] & (1 << (i % 64)) != 0
    }

    fn insert(&mut self, i: u64) {
        let (w, bit) = self.word_mut(i);
        *w |= bit;
    }

    /// Removes line `i`; returns whether it was present.
    fn remove(&mut self, i: u64) -> bool {
        let (w, bit) = self.word_mut(i);
        let had = *w & bit != 0;
        *w &= !bit;
        had
    }

    fn clear(&mut self) {
        match self {
            LineMask::Inline(w) => *w = 0,
            LineMask::Spilled(ws) => ws.fill(0),
        }
    }

    fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// The indices of the lines present, ascending.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words().iter().enumerate().flat_map(|(k, &w)| {
            std::iter::successors(Some(w), |&w| Some(w & w.wrapping_sub(1)))
                .take_while(|&w| w != 0)
                .map(move |w| k as u64 * 64 + u64::from(w.trailing_zeros()))
        })
    }
}

/// One tracked (not yet durable) store. Its lines are the contiguous run
/// of `lines` cache lines from `first_line`.
#[derive(Debug)]
struct StoreRecord<'a> {
    /// The store event: borrowed from the trace by [`check_trace`], owned
    /// by the streaming [`OnlineChecker`].
    event: Cow<'a, Event>,
    addr: u64,
    len: u64,
    first_line: u64,
    lines: u64,
    /// Lines not yet covered by any flush.
    unflushed: LineMask,
    /// Lines flushed weakly, awaiting a fence.
    pending: LineMask,
}

impl StoreRecord<'_> {
    fn is_durable(&self) -> bool {
        self.unflushed.is_empty() && self.pending.is_empty()
    }

    /// The index of `line` among this store's lines, if it is one of them.
    fn line_index(&self, line: u64) -> Option<u64> {
        let i = line.checked_sub(self.first_line)? / CACHE_LINE;
        (i < self.lines).then_some(i)
    }
}

/// Runs the durability state machine over a complete trace and reports
/// every non-durable store at every checkpoint. See the
/// [crate docs](crate) for the classification rules.
///
/// Equivalent to feeding every event into an [`OnlineChecker`] and calling
/// [`OnlineChecker::finish`], except that tracked stores borrow their
/// events from `trace` instead of cloning them.
pub fn check_trace(trace: &Trace) -> CheckReport {
    let mut m = Machine::default();
    for e in &trace.events {
        m.feed(e, Cow::Borrowed);
    }
    m.report
}

/// The streaming form of the checker: feed events as they happen (e.g.
/// attached live to a VM run), keeping memory proportional to the number of
/// *non-durable* stores rather than the trace length — how the real
/// pmemcheck instrumentations operate.
///
/// # Example
///
/// ```
/// use pmcheck::OnlineChecker;
/// use pmtrace::{Event, EventKind};
///
/// let mut checker = OnlineChecker::new();
/// checker.feed(&Event {
///     seq: 0,
///     kind: EventKind::Store { addr: 0x3000_0000_0000, len: 8 },
///     at: None,
///     loc: None,
///     stack: vec![],
/// });
/// checker.feed(&Event {
///     seq: 1, kind: EventKind::ProgramEnd, at: None, loc: None, stack: vec![],
/// });
/// let report = checker.finish();
/// assert_eq!(report.bugs.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct OnlineChecker {
    machine: Machine<'static>,
}

impl OnlineChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        OnlineChecker::default()
    }

    /// Number of stores currently tracked as non-durable (the checker's
    /// working-set size).
    pub fn live_stores(&self) -> usize {
        self.machine.live.len()
    }

    /// Processes one event.
    pub fn feed(&mut self, e: &Event) {
        self.machine.feed(e, |e| Cow::Owned(e.clone()));
    }

    /// Consumes the checker and returns the accumulated report.
    pub fn finish(self) -> CheckReport {
        self.machine.report
    }
}

/// The state machine behind both forms; tracked stores hold their events
/// for `'a`.
#[derive(Debug, Default)]
struct Machine<'a> {
    report: CheckReport,
    live: Vec<StoreRecord<'a>>,
    last_fence_seq: Option<u64>,
    crash_points: u64,
}

impl<'a> Machine<'a> {
    /// Processes one event; `keep` turns a store's event into the handle
    /// its record holds.
    fn feed<'e>(&mut self, e: &'e Event, keep: impl FnOnce(&'e Event) -> Cow<'a, Event>) {
        match e.kind {
            EventKind::Store { addr, len } => {
                self.report.stores_checked += 1;
                let first_line = addr & !(CACHE_LINE - 1);
                // The last byte written, clamped at the end of the address
                // space.
                let last = addr.saturating_add(len.max(1) - 1);
                let lines = last / CACHE_LINE - first_line / CACHE_LINE + 1;
                self.live.push(StoreRecord {
                    event: keep(e),
                    addr,
                    len,
                    first_line,
                    lines,
                    unflushed: LineMask::new(lines, true),
                    pending: LineMask::new(lines, false),
                });
            }
            EventKind::Flush { kind, addr } => {
                self.report.flushes_seen += 1;
                let line = addr & !(CACHE_LINE - 1);
                let weak = kind.is_weakly_ordered();
                let (mut hit, mut retired) = (false, false);
                for rec in self.live.iter_mut() {
                    let Some(i) = rec.line_index(line) else {
                        continue;
                    };
                    if rec.unflushed.remove(i) {
                        hit = true;
                        // A strong flush (CLFLUSH) makes the line durable
                        // immediately: nothing is added to `pending`.
                        if weak {
                            rec.pending.insert(i);
                        } else {
                            retired |= rec.is_durable();
                        }
                    } else if rec.pending.contains(i) {
                        // Re-flushing a pending line is allowed; a strong
                        // flush upgrades it to durable.
                        hit = true;
                        if !weak {
                            rec.pending.remove(i);
                            retired |= rec.is_durable();
                        }
                    }
                }
                if !hit {
                    self.report.redundant_flushes.push(RedundantFlush {
                        addr,
                        at: e.at.clone(),
                        loc: e.loc.clone(),
                        seq: e.seq,
                    });
                }
                if retired {
                    self.live.retain(|r| !r.is_durable());
                }
            }
            EventKind::Fence { .. } => {
                self.report.fences_seen += 1;
                self.last_fence_seq = Some(e.seq);
                let mut retired = false;
                for rec in self.live.iter_mut() {
                    rec.pending.clear();
                    retired |= rec.unflushed.is_empty();
                }
                if retired {
                    self.live.retain(|r| !r.is_durable());
                }
            }
            EventKind::CrashPoint => {
                self.crash_points += 1;
                self.audit(Checkpoint::CrashPoint(self.crash_points));
            }
            EventKind::ProgramEnd => self.audit(Checkpoint::ProgramEnd),
            EventKind::RegisterPool { .. } => {}
        }
    }

    /// Reports every live store as a bug at `checkpoint`.
    fn audit(&mut self, checkpoint: Checkpoint) {
        for rec in &self.live {
            debug_assert!(!rec.is_durable());
            let event = &*rec.event;
            let fence_after_store = self.last_fence_seq.is_some_and(|f| f > event.seq);
            let kind = if rec.unflushed.is_empty() {
                // Fully flushed, but some lines still awaiting a fence.
                BugKind::MissingFence
            } else if fence_after_store {
                // A fence exists downstream of the store; only flushes are
                // missing (inserting flushes before that fence would have
                // sufficed). This mirrors pmemcheck's "not flushed" report.
                BugKind::MissingFlush
            } else {
                BugKind::MissingFlushFence
            };
            self.report.bugs.push(Bug {
                kind,
                addr: rec.addr,
                len: rec.len,
                store_at: event.at.clone(),
                store_loc: event.loc.clone(),
                stack: event.stack.clone(),
                store_seq: event.seq,
                checkpoint,
                unflushed_lines: rec
                    .unflushed
                    .iter()
                    .map(|i| rec.first_line + i * CACHE_LINE)
                    .collect(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtrace::{FenceKind, FlushKind};

    const PM: u64 = 0x3000_0000_0000;

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event {
            seq,
            kind,
            at: None,
            loc: None,
            stack: vec![],
        }
    }

    fn store(seq: u64, addr: u64, len: u64) -> Event {
        ev(seq, EventKind::Store { addr, len })
    }

    fn flush(seq: u64, addr: u64) -> Event {
        ev(
            seq,
            EventKind::Flush {
                kind: FlushKind::Clwb,
                addr,
            },
        )
    }

    fn fence(seq: u64) -> Event {
        ev(
            seq,
            EventKind::Fence {
                kind: FenceKind::Sfence,
            },
        )
    }

    fn end(seq: u64) -> Event {
        ev(seq, EventKind::ProgramEnd)
    }

    #[test]
    fn clean_program() {
        let t: Trace = vec![store(0, PM, 8), flush(1, PM), fence(2), end(3)]
            .into_iter()
            .collect();
        let r = check_trace(&t);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn missing_flush_and_fence() {
        let t: Trace = vec![store(0, PM, 8), end(1)].into_iter().collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlushFence);
        assert_eq!(r.bugs[0].unflushed_lines, vec![PM]);
    }

    #[test]
    fn missing_fence_only() {
        let t: Trace = vec![store(0, PM, 8), flush(1, PM), end(2)]
            .into_iter()
            .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFence);
        assert!(r.bugs[0].unflushed_lines.is_empty());
    }

    #[test]
    fn missing_flush_with_downstream_fence() {
        let t: Trace = vec![store(0, PM, 8), fence(1), end(2)]
            .into_iter()
            .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlush);
    }

    #[test]
    fn clflush_is_durable_without_fence() {
        let t: Trace = vec![
            store(0, PM, 8),
            ev(
                1,
                EventKind::Flush {
                    kind: FlushKind::Clflush,
                    addr: PM,
                },
            ),
            end(2),
        ]
        .into_iter()
        .collect();
        let r = check_trace(&t);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn multi_line_store_needs_every_line_flushed() {
        // A 100-byte store spans two lines; only the first is flushed.
        let t: Trace = vec![store(0, PM, 100), flush(1, PM), fence(2), end(3)]
            .into_iter()
            .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlush);
        assert_eq!(r.bugs[0].unflushed_lines, vec![PM + 64]);

        // Flushing both lines fixes it.
        let t: Trace = vec![
            store(0, PM, 100),
            flush(1, PM),
            flush(2, PM + 64),
            fence(3),
            end(4),
        ]
        .into_iter()
        .collect();
        assert!(check_trace(&t).is_clean());
    }

    #[test]
    fn fence_before_flush_does_not_help() {
        let t: Trace = vec![store(0, PM, 8), fence(1), flush(2, PM), end(3)]
            .into_iter()
            .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFence);
    }

    #[test]
    fn crash_point_audits_midway() {
        // Store is durable by the end, but not by the crash point.
        let t: Trace = vec![
            store(0, PM, 8),
            ev(1, EventKind::CrashPoint),
            flush(2, PM),
            fence(3),
            end(4),
        ]
        .into_iter()
        .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].checkpoint, Checkpoint::CrashPoint(1));
    }

    #[test]
    fn same_bug_at_two_checkpoints_dedupes() {
        let t: Trace = vec![
            store(0, PM, 8),
            ev(1, EventKind::CrashPoint),
            ev(2, EventKind::CrashPoint),
            end(3),
        ]
        .into_iter()
        .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 3);
        // Each checkpoint is a distinct durability requirement, so all three
        // reports survive dedup; they still reduce to a single fix because
        // they share an anchor.
        assert_eq!(r.deduped_bugs().len(), 3);
    }

    #[test]
    fn redundant_flush_detected() {
        let t: Trace = vec![
            store(0, PM, 8),
            flush(1, PM),
            fence(2),
            flush(3, PM), // line already durable
            end(4),
        ]
        .into_iter()
        .collect();
        let r = check_trace(&t);
        assert!(r.is_clean());
        assert_eq!(r.redundant_flushes.len(), 1);
        assert_eq!(r.redundant_flushes[0].seq, 3);
    }

    #[test]
    fn two_stores_same_line_one_flush() {
        // Both stores' line is covered by one flush; both become durable.
        let t: Trace = vec![
            store(0, PM, 8),
            store(1, PM + 8, 8),
            flush(2, PM + 4),
            fence(3),
            end(4),
        ]
        .into_iter()
        .collect();
        assert!(check_trace(&t).is_clean());
    }

    #[test]
    fn store_wrapping_past_the_address_space_is_clamped() {
        // `addr + len` overflows u64: the range ends at the last line of
        // the address space instead of panicking or coming out empty.
        let t: Trace = vec![store(0, u64::MAX - 10, 100), end(1)]
            .into_iter()
            .collect();
        let mut online = OnlineChecker::new();
        for e in &t.events {
            online.feed(e);
        }
        for r in [check_trace(&t), online.finish()] {
            assert_eq!(r.bugs.len(), 1);
            assert_eq!(r.bugs[0].kind, BugKind::MissingFlushFence);
            // The last line of the address space, `u64::MAX & !63`.
            assert_eq!(r.bugs[0].unflushed_lines, vec![u64::MAX - 63]);
        }
    }

    #[test]
    fn store_past_64_lines_tracks_every_line() {
        // 65 lines, one more than the inline mask holds; flush the first
        // `n` of them at their last byte, then fence.
        let check = |n: u64| {
            let mut events = vec![store(0, PM, 65 * 64)];
            events.extend((0..n).map(|i| flush(1 + i, PM + i * 64 + 63)));
            events.push(fence(n + 1));
            events.push(end(n + 2));
            check_trace(&events.into_iter().collect())
        };
        let r = check(64);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlush);
        assert_eq!(r.bugs[0].unflushed_lines, vec![PM + 64 * 64]);
        assert!(check(65).is_clean());
    }

    #[test]
    fn flush_before_store_does_not_cover_it() {
        let t: Trace = vec![flush(0, PM), store(1, PM, 8), fence(2), end(3)]
            .into_iter()
            .collect();
        let r = check_trace(&t);
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::MissingFlush);
        // And the early flush was redundant.
        assert_eq!(r.redundant_flushes.len(), 1);
    }
}

#[cfg(test)]
mod online_tests {
    use super::*;
    use pmtrace::{FenceKind, FlushKind};

    const PM: u64 = 0x3000_0000_0000;

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event {
            seq,
            kind,
            at: None,
            loc: None,
            stack: vec![],
        }
    }

    #[test]
    fn working_set_shrinks_as_stores_become_durable() {
        let mut c = OnlineChecker::new();
        for i in 0..16u64 {
            c.feed(&ev(
                i,
                EventKind::Store {
                    addr: PM + i * 64,
                    len: 8,
                },
            ));
        }
        assert_eq!(c.live_stores(), 16);
        for i in 0..16u64 {
            c.feed(&ev(
                100 + i,
                EventKind::Flush {
                    kind: FlushKind::Clwb,
                    addr: PM + i * 64,
                },
            ));
        }
        assert_eq!(c.live_stores(), 16, "weak flushes keep stores pending");
        c.feed(&ev(
            200,
            EventKind::Fence {
                kind: FenceKind::Sfence,
            },
        ));
        assert_eq!(c.live_stores(), 0, "the fence retires everything");
        c.feed(&ev(201, EventKind::ProgramEnd));
        assert!(c.finish().is_clean());
    }

    #[test]
    fn online_matches_batch_on_real_trace() {
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
                clwb(p);
                store8(p, 64, 2);
                crashpoint();
                sfence();
            }
        "#;
        let m = pmlang::compile_one("t.pmc", src).unwrap();
        let trace = pmvm::Vm::new(pmvm::VmOptions::default())
            .run(&m, "main")
            .unwrap()
            .trace
            .unwrap();
        let batch = check_trace(&trace);
        let mut online = OnlineChecker::new();
        for e in &trace.events {
            online.feed(e);
        }
        assert_eq!(batch, online.finish());
    }
}
