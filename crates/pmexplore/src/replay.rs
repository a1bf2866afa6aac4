//! The PM-event replayer: rebuilds durable-vs-cached state at any trace
//! position without re-running the interpreter.
//!
//! A [`Replayer`] walks the PM events of one execution forward, maintaining
//! for every pool both the *durable* bytes (what the medium holds) and the
//! *cache* bytes (what the CPU sees), plus the dirty and pending line sets —
//! the same state machine as [`pmem_sim::Machine`], but driven from the
//! trace and the captured [`pmtrace::DataLog`] instead of from executing
//! instructions. Materializing a crash candidate `(position, persisted
//! lines)` is then a clone of the durable pages with the chosen dirty lines
//! overlaid from the cache: only the pages holding those lines are copied.

use pmem_sim::{layout::line_of, CrashImage, LineSet, Pages, PmMedia, CACHE_LINE};
use pmtrace::{DataLog, Event, EventKind, Trace};
use std::collections::BTreeMap;

/// `splitmix64` finalizer: a cheap full-avalanche bijection.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The hash term of one pool's identity (hint, base, byte length).
#[inline]
fn header_term(hint: u64, base: u64, len: u64) -> u64 {
    mix64(mix64(hint ^ 0xa076_1d64_78bd_642f) ^ mix64(base).wrapping_add(mix64(len)))
}

/// The hash term of one cache line's content at `(hint, off)`.
///
/// Terms are XOR-combined into a commutative image hash, so each term must
/// entangle position and content non-linearly: the content words are folded
/// *multiplicatively* into a position-seeded state (FNV-style chaining).
/// A plain `seed ^ content_hash` split would make swapping two lines'
/// contents a guaranteed hash collision.
#[inline]
fn line_term(hint: u64, off: u64, bytes: &[u8]) -> u64 {
    let mut h =
        0x243f_6a88_85a3_08d3u64 ^ mix64(hint) ^ mix64(off.wrapping_add(0x9e37_79b9_7f4a_7c15));
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut w = [0u8; 8];
        w[..rest.len()].copy_from_slice(rest);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

/// [`line_term`] of the line at byte `off` of `bytes` (clipped to the pool).
fn line_term_at(hint: u64, bytes: &Pages, off: usize) -> u64 {
    let len = (bytes.len() - off).min(CACHE_LINE as usize);
    if let Some(line) = bytes.slice(off, len) {
        return line_term(hint, off as u64, line);
    }
    // Only a pool at a base that is not line-aligned has lines that
    // straddle two pages.
    let mut buf = [0u8; CACHE_LINE as usize];
    bytes.read(off, &mut buf[..len]);
    line_term(hint, off as u64, &buf[..len])
}

/// One pool's replayed state.
#[derive(Debug, Clone)]
struct PoolState {
    base: u64,
    durable: Pages,
    cache: Pages,
}

/// Forward-only PM state reconstruction over a trace.
#[derive(Debug, Clone)]
pub struct Replayer<'t> {
    events: &'t [Event],
    data: &'t DataLog,
    /// Index of the next event to apply.
    pos: usize,
    pools: BTreeMap<u64, PoolState>,
    /// Pool bases for address→pool lookup (base → hint).
    bases: BTreeMap<u64, u64>,
    dirty: LineSet,
    pending: LineSet,
    /// Rolling commutative hash of the *durable* image: the XOR of one
    /// [`header_term`] per pool and one [`line_term`] per durable cache
    /// line. Maintained incrementally at pool registration and line
    /// write-back, so [`Replayer::hash_with`] prices a crash candidate in
    /// O(|persisted|) line terms instead of re-hashing every pool byte.
    acc: u64,
}

impl<'t> Replayer<'t> {
    /// A replayer positioned before the first event. `initial` seeds pool
    /// contents for traces of runs booted from an existing medium.
    pub fn new(trace: &'t Trace, data: &'t DataLog, initial: Option<&PmMedia>) -> Self {
        let mut r = Replayer {
            events: &trace.events,
            data,
            pos: 0,
            pools: BTreeMap::new(),
            bases: BTreeMap::new(),
            dirty: LineSet::new(),
            pending: LineSet::new(),
            acc: 0,
        };
        if let Some(media) = initial {
            for (hint, p) in media.iter() {
                r.insert_pool(hint, p.base, p.bytes.clone());
            }
        }
        r
    }

    fn insert_pool(&mut self, hint: u64, base: u64, durable: Pages) {
        self.acc ^= header_term(hint, base, durable.len() as u64);
        for off in (0..durable.len()).step_by(CACHE_LINE as usize) {
            self.acc ^= line_term_at(hint, &durable, off);
        }
        let cache = durable.clone();
        self.bases.insert(base, hint);
        self.pools.insert(
            hint,
            PoolState {
                base,
                durable,
                cache,
            },
        );
    }

    /// The `(hint, byte offset)` of the line starting at `line`, if mapped.
    fn locate(&self, line: u64) -> Option<(u64, usize)> {
        let (&base, &hint) = self.bases.range(..=line).next_back()?;
        let p = &self.pools[&hint];
        if line < base + p.cache.len() as u64 {
            Some((hint, (line - base) as usize))
        } else {
            None
        }
    }

    /// Copies a line's cache bytes to the durable bytes and clears its
    /// dirty bit — exactly [`pmem_sim::Machine`]'s `write_back_line`
    /// (which, like the hardware, does *not* touch the pending set).
    fn write_back_line(&mut self, line: u64) {
        if let Some((hint, off)) = self.locate(line) {
            let p = self.pools.get_mut(&hint).expect("located");
            let len = (CACHE_LINE as usize).min(p.cache.len() - off);
            self.acc ^= line_term_at(hint, &p.durable, off);
            p.durable.copy_from(&p.cache, off, len);
            self.acc ^= line_term_at(hint, &p.durable, off);
        }
        self.dirty.remove(line);
    }

    fn apply(&mut self, i: usize) {
        let (events, data) = (self.events, self.data);
        let e = &events[i];
        match &e.kind {
            EventKind::RegisterPool { hint, base, size } => {
                if !self.pools.contains_key(hint) {
                    // Pool sizes are line-aligned by the machine; mirror it.
                    let size = (*size).max(1).div_ceil(CACHE_LINE) * CACHE_LINE;
                    self.insert_pool(*hint, *base, Pages::zeroed(size as usize));
                }
            }
            EventKind::Store { addr, len } => {
                if let Some(rec) = data.for_seq(e.seq) {
                    self.write_cache(rec.addr, &rec.bytes);
                } else {
                    // No captured bytes (data log disabled or partial):
                    // still track dirtiness so frontiers stay correct.
                    self.mark_dirty(*addr, *len);
                }
            }
            EventKind::Flush { kind, addr } => {
                let line = line_of(*addr);
                if !self.dirty.contains(line) {
                    return;
                }
                if kind.is_weakly_ordered() {
                    self.pending.insert(line);
                } else {
                    self.write_back_line(line);
                }
            }
            EventKind::Fence { .. } => {
                for line in self.pending.take_sorted() {
                    self.write_back_line(line);
                }
            }
            EventKind::CrashPoint | EventKind::ProgramEnd => {}
        }
    }

    fn mark_dirty(&mut self, addr: u64, len: u64) {
        self.dirty.insert_range(addr, len.max(1));
    }

    fn write_cache(&mut self, addr: u64, bytes: &[u8]) {
        if let Some((hint, off)) = self.locate(line_of(addr)) {
            let line_delta = (addr - line_of(addr)) as usize;
            let p = self.pools.get_mut(&hint).expect("located");
            let off = off + line_delta;
            let end = (off + bytes.len()).min(p.cache.len());
            p.cache.write(off, &bytes[..end - off]);
        }
        self.mark_dirty(addr, bytes.len() as u64);
    }

    /// Applies events up to and including sequence number `after_seq`.
    /// Sequence numbers only move forward; earlier positions need a fresh
    /// replayer.
    pub fn advance_to(&mut self, after_seq: u64) {
        while self.pos < self.events.len() && self.events[self.pos].seq <= after_seq {
            self.apply(self.pos);
            self.pos += 1;
        }
    }

    /// Dirty (not-yet-durable) PM lines at the current position, ascending.
    pub fn dirty_lines(&self) -> Vec<u64> {
        self.dirty.sorted()
    }

    /// Pending (flushed-but-unfenced) PM lines at the current position.
    pub fn pending_lines(&self) -> Vec<u64> {
        self.pending.sorted()
    }

    /// Generation counter of the dirty set — advances exactly when
    /// [`Replayer::dirty_lines`] would change. See [`LineSet::generation`].
    pub fn dirty_generation(&self) -> u64 {
        self.dirty.generation()
    }

    /// Generation counter of the pending set.
    pub fn pending_generation(&self) -> u64 {
        self.pending.generation()
    }

    /// The content hash of the crash image [`Replayer::image_with`] would
    /// build for `persisted` — computed in O(|persisted|) line terms from
    /// the rolling durable hash, **without materializing the image**. Equal
    /// images always hash equal, so this is a sound memoization/dedup key;
    /// exploration only pays for the byte copy on a memo miss. `persisted`
    /// must be ascending (candidate line lists are); duplicates are
    /// ignored, as are non-dirty and unmapped entries, mirroring
    /// [`Replayer::image_with`].
    pub fn hash_with(&self, persisted: &[u64]) -> u64 {
        let mut h = self.acc;
        let mut prev = None;
        for &line in persisted {
            if prev == Some(line) || !self.dirty.contains(line) {
                continue;
            }
            prev = Some(line);
            if let Some((hint, off)) = self.locate(line) {
                let p = &self.pools[&hint];
                // Persisting the line replaces its durable bytes with the
                // cache bytes: swap the line's term in the XOR accumulator.
                h ^= line_term_at(hint, &p.durable, off);
                h ^= line_term_at(hint, &p.cache, off);
            }
        }
        h
    }

    /// Materializes the crash image for "the machine died here and exactly
    /// the dirty lines in `persisted` raced to the medium first". Non-dirty
    /// entries are ignored.
    pub fn image_with(&self, persisted: &[u64]) -> CrashImage {
        let mut parts: BTreeMap<u64, (u64, Pages)> = self
            .pools
            .iter()
            .map(|(&hint, p)| (hint, (p.base, p.durable.clone())))
            .collect();
        for &line in persisted {
            if !self.dirty.contains(line) {
                continue;
            }
            if let Some((hint, off)) = self.locate(line) {
                let p = &self.pools[&hint];
                let len = (CACHE_LINE as usize).min(p.cache.len() - off);
                parts
                    .get_mut(&hint)
                    .expect("located")
                    .1
                    .copy_from(&p.cache, off, len);
            }
        }
        CrashImage::from_parts(parts.into_iter().map(|(h, (b, bytes))| (h, b, bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmvm::{Vm, VmOptions};

    fn run(src: &str) -> (pmir::Module, pmvm::RunResult) {
        let m = pmlang::compile_one("t.pmc", src).unwrap();
        let res = Vm::new(VmOptions::default().capture_pm_data())
            .run(&m, "main")
            .unwrap();
        (m, res)
    }

    #[test]
    fn replay_matches_vm_ground_truth_at_every_event() {
        // Cross-validate the replayer against the interpreter: for every
        // event position, the replayed adversarial image and the replayed
        // all-dirty image must equal what a real VM run stopped at that
        // event reports.
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(5, 4096);
                store8(p, 0, 17);
                clwb(p);
                store8(p, 64, 29);
                sfence();
                store8(p, 128, 43);
                clflush(p + 128);
                store8(p, 192, 51);
            }
        "#;
        let (m, res) = run(src);
        let trace = res.trace.as_ref().unwrap();
        let data = res.pm_data.as_ref().unwrap();
        for e in &trace.events {
            if matches!(e.kind, EventKind::ProgramEnd) {
                continue;
            }
            let vm = Vm::new(VmOptions::default().stop_at_event(e.seq))
                .run(&m, "main")
                .unwrap();
            assert_eq!(vm.ended, pmvm::Ended::AtEvent(e.seq));
            let mut r = Replayer::new(trace, data, None);
            r.advance_to(e.seq);
            assert_eq!(
                r.dirty_lines(),
                vm.machine.dirty_pm_lines(),
                "dirty sets diverge after event {}",
                e.seq
            );
            assert_eq!(
                r.pending_lines(),
                vm.machine.pending_pm_lines(),
                "pending sets diverge after event {}",
                e.seq
            );
            assert_eq!(
                r.image_with(&[]),
                vm.machine.crash_image(),
                "adversarial image diverges after event {}",
                e.seq
            );
            let all = r.dirty_lines();
            assert_eq!(
                r.image_with(&all),
                vm.machine.crash_image_with_lines(&all),
                "full-persist image diverges after event {}",
                e.seq
            );
        }
    }

    #[test]
    fn hash_with_agrees_with_materialized_images() {
        // The rolling hash must be a pure function of image content: at
        // every position and for every tried subset, equal materialized
        // images hash equal — and (for this data) distinct images hash
        // distinct, so dedup neither merges real states nor splits one.
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(5, 4096);
                var q: ptr = pmem_map(9, 4096);
                store8(p, 0, 17);
                clwb(p);
                store8(q, 64, 29);
                sfence();
                store8(p, 128, 43);
                clflush(p + 128);
                store8(q, 192, 51);
            }
        "#;
        let (_, res) = run(src);
        let trace = res.trace.as_ref().unwrap();
        let data = res.pm_data.as_ref().unwrap();
        let mut seen: Vec<(CrashImage, u64)> = vec![];
        let mut r = Replayer::new(trace, data, None);
        for e in &trace.events {
            r.advance_to(e.seq);
            let dirty = r.dirty_lines();
            let mut subsets: Vec<Vec<u64>> = vec![vec![], dirty.clone()];
            subsets.extend(dirty.iter().map(|&l| vec![l]));
            for sub in subsets {
                let img = r.image_with(&sub);
                let h = r.hash_with(&sub);
                for (other, oh) in &seen {
                    assert_eq!(
                        *other == img,
                        *oh == h,
                        "hash/image disagreement after event {} with {sub:?}",
                        e.seq
                    );
                }
                seen.push((img, h));
            }
        }
        assert!(seen.len() > 20, "the sweep must actually cover states");
    }

    #[test]
    fn swapped_line_contents_hash_differently() {
        // Commutative XOR accumulation must not cancel when two lines trade
        // contents — the classic weakness of position⊕content term splits.
        let img_for = |a: i64, b: i64| {
            let src = format!(
                "fn main() {{
                    var p: ptr = pmem_map(3, 4096);
                    store8(p, 0, {a});
                    store8(p, 64, {b});
                }}"
            );
            let (_, res) = run(&src);
            let trace = res.trace.as_ref().unwrap();
            let data = res.pm_data.as_ref().unwrap();
            let mut r = Replayer::new(trace, data, None);
            r.advance_to(u64::MAX);
            let all = r.dirty_lines();
            (r.image_with(&all), r.hash_with(&all))
        };
        let (i1, h1) = img_for(7, 11);
        let (i2, h2) = img_for(11, 7);
        assert_ne!(i1, i2);
        assert_ne!(h1, h2, "swapped line contents must not collide");
    }

    #[test]
    fn partial_subsets_overlay_only_chosen_lines() {
        let src = r#"
            fn main() {
                var p: ptr = pmem_map(0, 4096);
                store8(p, 0, 1);
                store8(p, 64, 2);
            }
        "#;
        let (_, res) = run(src);
        let trace = res.trace.as_ref().unwrap();
        let data = res.pm_data.as_ref().unwrap();
        let mut r = Replayer::new(trace, data, None);
        let last_store = trace
            .events
            .iter()
            .rev()
            .find(|e| matches!(e.kind, EventKind::Store { .. }))
            .unwrap()
            .seq;
        r.advance_to(last_store);
        let dirty = r.dirty_lines();
        assert_eq!(dirty.len(), 2);
        let only_second = r.image_with(&[dirty[1]]);
        assert_eq!(only_second.read_int(dirty[0], 8), Some(0));
        assert_eq!(only_second.read_int(dirty[1], 8), Some(2));
    }
}
