//! The store-state machine over traces.

use crate::bug::{Bug, BugKind, CheckReport, Checkpoint, RedundantFlush};
use pmtrace::{Event, EventKind, Trace};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

    fn insert(&mut self, i: u64) {
        let (w, bit) = self.word_mut(i);
        *w |= bit;
    }

    fn remove(&mut self, i: u64) {
        let (w, bit) = self.word_mut(i);
        *w &= !bit;
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
    /// Whether the record is on [`Live::queued`].
    queued: bool,
    /// The record's place in [`Live::order`], set by [`Live::insert`].
    pos: usize,
}

impl StoreRecord<'_> {
    fn is_durable(&self) -> bool {
        self.unflushed.is_empty() && self.pending.is_empty()
    }

    /// The index of `line`, one of this store's lines, among them.
    fn line_index(&self, line: u64) -> u64 {
        (line - self.first_line) / CACHE_LINE
    }
}

/// End of a chain in [`Links`], and a durable record's tombstone in
/// [`Live::order`].
const NIL: u32 = u32::MAX;

/// One link of a line's chain: a live store with that line unflushed (or
/// pending).
#[derive(Debug, Clone, Copy)]
struct Node {
    store: u32,
    next: u32,
}

/// The links of every line chain, reused through a free list.
#[derive(Debug, Default)]
struct Links {
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Nodes visited by chain walks, so tests can pin what a walk costs.
    #[cfg(test)]
    walked: usize,
}

impl Links {
    /// A new link for `store` in front of `next`.
    fn push(&mut self, store: u32, next: u32) -> u32 {
        let node = Node { store, next };
        match self.free.pop() {
            Some(n) => {
                self.nodes[n as usize] = node;
                n
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
        }
    }

    /// Link `n`, as one step of a walk.
    fn get(&mut self, n: u32) -> Node {
        #[cfg(test)]
        {
            self.walked += 1;
        }
        self.nodes[n as usize]
    }

    /// Frees link `n`, as one step of a walk, and returns it.
    fn release(&mut self, n: u32) -> Node {
        self.free.push(n);
        self.get(n)
    }
}

/// Hashes cache-line addresses for [`LineMap`]: the line number times the
/// golden ratio, enough to spread line-aligned keys.
#[derive(Default)]
struct LineHasher(u64);

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are hashed; fold anything else in byte by byte.
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(GOLDEN);
        }
    }

    fn write_u64(&mut self, line: u64) {
        self.0 = (line / CACHE_LINE).wrapping_mul(GOLDEN);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Cache line → head of its chain in [`Links`].
type LineMap = HashMap<u64, u32, BuildHasherDefault<LineHasher>>;

/// The live (non-durable) stores, indexed so that each event touches only
/// the store lines it changes:
///
/// * `recs` holds the records by handle; a durable record's handle is
///   reused;
/// * `order` lists the handles in store order, so an audit reports the
///   records in that order; a durable record leaves a tombstone, and
///   `order` is compacted once tombstones outnumber live records;
/// * `unflushed` and `pending` map each cache line to a chain of the
///   stores that have the line unflushed, or flushed weakly and awaiting a
///   fence. A weak flush moves its line's unflushed chain onto the pending
///   chain; a strong flush frees both, and a fence frees every pending
///   chain. A flush or fence only walks the chains it takes out of the
///   map, so each line of a store, whatever the store's width, is linked
///   once, moved at most once and freed once;
/// * `queued` lists the records with pending lines, so a fence visits only
///   those.
#[derive(Debug, Default)]
struct Live<'a> {
    recs: Vec<Option<StoreRecord<'a>>>,
    /// Handles free for reuse.
    vacant: Vec<u32>,
    order: Vec<u32>,
    /// Records in `recs`.
    count: usize,
    unflushed: LineMap,
    pending: LineMap,
    links: Links,
    queued: Vec<u32>,
}

impl<'a> Live<'a> {
    fn insert(&mut self, mut rec: StoreRecord<'a>) {
        let h = self.vacant.pop().unwrap_or_else(|| {
            self.recs.push(None);
            self.recs.len() as u32 - 1
        });
        for i in 0..rec.lines {
            let head = self
                .unflushed
                .entry(rec.first_line + i * CACHE_LINE)
                .or_insert(NIL);
            *head = self.links.push(h, *head);
        }
        rec.pos = self.order.len();
        self.order.push(h);
        self.recs[h as usize] = Some(rec);
        self.count += 1;
    }

    /// The live records in store order.
    fn iter(&self) -> impl Iterator<Item = &StoreRecord<'a>> {
        self.order.iter().filter(|&&h| h != NIL).map(|&h| {
            self.recs[h as usize]
                .as_ref()
                .expect("ordered records are live")
        })
    }

    /// Applies a flush of `line` to every store covering it; returns
    /// whether any store had the line unflushed or pending.
    fn flush(&mut self, line: u64, weak: bool) -> bool {
        let unflushed = self.unflushed.remove(&line).unwrap_or(NIL);
        let pending = if weak {
            self.pending.get(&line).copied()
        } else {
            self.pending.remove(&line)
        }
        .unwrap_or(NIL);
        if weak {
            // An unflushed line becomes pending, its links moving onto the
            // pending chain; re-flushing a pending line changes nothing.
            let (mut n, mut head) = (unflushed, pending);
            while n != NIL {
                let Node { store, next } = self.links.get(n);
                self.links.nodes[n as usize].next = head;
                (head, n) = (n, next);
                let rec = self.recs[store as usize]
                    .as_mut()
                    .expect("chained records are live");
                let i = rec.line_index(line);
                rec.unflushed.remove(i);
                rec.pending.insert(i);
                if !std::mem::replace(&mut rec.queued, true) {
                    self.queued.push(store);
                }
            }
            if unflushed != NIL {
                self.pending.insert(line, head);
            }
        } else {
            // A strong flush (CLFLUSH) makes the line durable immediately,
            // pending or not.
            for mut n in [unflushed, pending] {
                while n != NIL {
                    let Node { store, next } = self.links.release(n);
                    n = next;
                    let rec = self.recs[store as usize]
                        .as_mut()
                        .expect("chained records are live");
                    let i = rec.line_index(line);
                    rec.unflushed.remove(i);
                    rec.pending.remove(i);
                    if rec.is_durable() {
                        self.retire(store);
                    }
                }
            }
            self.tidy();
        }
        unflushed != NIL || pending != NIL
    }

    /// Drains every pending line: stores with no unflushed line left become
    /// durable.
    fn fence(&mut self) {
        for k in 0..self.queued.len() {
            let h = self.queued[k];
            // A strong flush may have retired a queued record, and a later
            // store reused its handle.
            let Some(rec) = self.recs[h as usize].as_mut().filter(|r| r.queued) else {
                continue;
            };
            for i in rec.pending.iter() {
                let line = rec.first_line + i * CACHE_LINE;
                let mut n = self.pending.remove(&line).unwrap_or(NIL);
                while n != NIL {
                    n = self.links.release(n).next;
                }
            }
            rec.pending.clear();
            rec.queued = false;
            if rec.unflushed.is_empty() {
                self.retire(h);
            }
        }
        self.queued.clear();
        self.tidy();
    }

    /// Drops durable record `h`, whose lines are on no chain.
    fn retire(&mut self, h: u32) {
        let rec = self.recs[h as usize].take().expect("retired once");
        self.order[rec.pos] = NIL;
        self.vacant.push(h);
        self.count -= 1;
    }

    /// Resets the live set once it is empty, or compacts `order` once
    /// tombstones outnumber live records.
    fn tidy(&mut self) {
        if self.count == 0 {
            // The common case after a fence: every chain is empty.
            debug_assert!(self.unflushed.is_empty() && self.pending.is_empty());
            self.recs.clear();
            self.vacant.clear();
            self.order.clear();
            self.queued.clear();
            self.links.nodes.clear();
            self.links.free.clear();
        } else if self.order.len() >= 64 && self.count * 2 < self.order.len() {
            self.order.retain(|&h| h != NIL);
            for (pos, &h) in self.order.iter().enumerate() {
                self.recs[h as usize]
                    .as_mut()
                    .expect("ordered records are live")
                    .pos = pos;
            }
        }
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
///     stack: [].into(),
/// });
/// checker.feed(&Event {
///     seq: 1, kind: EventKind::ProgramEnd, at: None, loc: None, stack: [].into(),
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
        self.machine.live.count
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
    live: Live<'a>,
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
                self.live.insert(StoreRecord {
                    event: keep(e),
                    addr,
                    len,
                    first_line,
                    lines,
                    unflushed: LineMask::new(lines, true),
                    pending: LineMask::new(lines, false),
                    queued: false,
                    pos: 0,
                });
            }
            EventKind::Flush { kind, addr } => {
                self.report.flushes_seen += 1;
                let line = addr & !(CACHE_LINE - 1);
                if !self.live.flush(line, kind.is_weakly_ordered()) {
                    self.report.redundant_flushes.push(RedundantFlush {
                        addr,
                        at: e.at.clone(),
                        loc: e.loc.clone(),
                        seq: e.seq,
                    });
                }
            }
            EventKind::Fence { .. } => {
                self.report.fences_seen += 1;
                self.last_fence_seq = Some(e.seq);
                self.live.fence();
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
        // Bugs come out in store order.
        for rec in self.live.iter() {
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
            stack: [].into(),
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

    /// Checks `events` and counts the chain links the check walked.
    fn check_counting(events: &[Event]) -> (CheckReport, usize) {
        let mut m = Machine::default();
        for e in events {
            m.feed(e, Cow::Borrowed);
        }
        (m.report, m.live.links.walked)
    }

    fn clflush(seq: u64, addr: u64) -> Event {
        ev(
            seq,
            EventKind::Flush {
                kind: FlushKind::Clflush,
                addr,
            },
        )
    }

    #[test]
    fn stores_on_one_line_cost_two_steps_each() {
        // One field updated n times before one CLWB and one fence: each
        // store's link is moved once by the flush and freed once by the
        // fence, never walked past.
        let n = 4096;
        let mut events: Vec<Event> = (0..n).map(|i| store(i, PM + i % 8 * 8, 8)).collect();
        events.extend([flush(n, PM), fence(n + 1), end(n + 2)]);
        let (r, walked) = check_counting(&events);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(walked, 2 * n as usize);

        // The same with a CLWB after every store: each flush walks only
        // the one store it makes pending.
        let mut events = Vec::new();
        for i in 0..n {
            events.extend([store(2 * i, PM, 8), flush(2 * i + 1, PM)]);
        }
        events.extend([fence(2 * n), end(2 * n + 1)]);
        let (r, walked) = check_counting(&events);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(walked, 2 * n as usize);

        // One CLFLUSH retires them all at one step each.
        let mut events: Vec<Event> = (0..n).map(|i| store(i, PM, 8)).collect();
        events.extend([clflush(n, PM), end(n + 1)]);
        let (r, walked) = check_counting(&events);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(walked, n as usize);
    }

    #[test]
    fn wide_store_costs_two_steps_per_line() {
        // A 256 KiB store, 4096 lines, flushed line by line: no flush or
        // fence walks any line but its own.
        let lines = 4096;
        let mut events = vec![store(0, PM, lines * 64)];
        events.extend((0..lines).map(|i| flush(1 + i, PM + i * 64)));
        events.extend([fence(lines + 1), end(lines + 2)]);
        let (r, walked) = check_counting(&events);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(walked, 2 * lines as usize);

        let mut events = vec![store(0, PM, lines * 64)];
        events.extend((0..lines).map(|i| clflush(1 + i, PM + i * 64)));
        events.push(end(lines + 1));
        let (r, walked) = check_counting(&events);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(walked, lines as usize);
    }

    #[test]
    fn compaction_keeps_pending_stores_queued() {
        // 100 one-line stores; the last is flushed weakly, then strong
        // flushes retire the other 99, which compacts the live set while
        // the last store still awaits the fence that makes it durable.
        let n = 100;
        let mut events: Vec<Event> = (0..n).map(|i| store(i, PM + i * 64, 8)).collect();
        events.push(flush(n, PM + (n - 1) * 64));
        for i in 0..n - 1 {
            events.push(clflush(n + 1 + i, PM + i * 64));
        }
        events.push(fence(2 * n));
        events.push(end(2 * n + 1));
        let r = check_trace(&events.into_iter().collect());
        assert!(r.is_clean(), "{}", r.render());
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
            stack: [].into(),
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
