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

/// The version of the bytes the event at `index` leaves in the lines it
/// stores to: one plus the index (0 is the content a pool was registered
/// with).
fn version_at(index: usize) -> u32 {
    u32::try_from(index + 1).expect("a trace has fewer than 2^32 - 1 events")
}

/// Lines per page of [`Versions`]: a 4 KiB page of PM.
const VERSION_PAGE: usize = 64;

/// The versions of one pool's lines, `[cache, durable]` per line.
///
/// A line's cache version is [`version_at`] of the last store event that
/// wrote it, or 0. The cache bytes of a line are a function of the stores
/// to it so far, so two positions with equal versions hold equal bytes.
/// Its durable version is its cache version at its last write-back.
///
/// A dense array per pool, allocated a page of lines at a time on the
/// first store into the page: programs store to few of their pools' pages.
#[derive(Debug, Clone)]
struct Versions {
    pages: Vec<Option<Box<[[u32; 2]; VERSION_PAGE]>>>,
}

impl Versions {
    fn new(lines: usize) -> Self {
        Versions {
            pages: vec![None; lines.div_ceil(VERSION_PAGE)],
        }
    }

    /// `[cache, durable]` versions of line `k`.
    fn get(&self, k: usize) -> [u32; 2] {
        self.pages[k / VERSION_PAGE]
            .as_ref()
            .map_or([0; 2], |p| p[k % VERSION_PAGE])
    }

    fn get_mut(&mut self, k: usize) -> &mut [u32; 2] {
        let page =
            self.pages[k / VERSION_PAGE].get_or_insert_with(|| Box::new([[0; 2]; VERSION_PAGE]));
        &mut page[k % VERSION_PAGE]
    }
}

/// One pool's replayed state.
#[derive(Debug, Clone)]
struct PoolState {
    hint: u64,
    base: u64,
    durable: Pages,
    cache: Pages,
    versions: Versions,
}

/// Forward-only PM state reconstruction over a trace.
#[derive(Debug, Clone)]
pub struct Replayer<'t> {
    events: &'t [Event],
    data: &'t DataLog,
    /// Index of the next event to apply.
    pos: usize,
    /// The pools registered so far, by ascending base.
    pools: Vec<PoolState>,
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
            pools: vec![],
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
        let lines = durable.len().div_ceil(CACHE_LINE as usize);
        let at = self.pools.partition_point(|p| p.base < base);
        self.pools.insert(
            at,
            PoolState {
                hint,
                base,
                cache: durable.clone(),
                durable,
                versions: Versions::new(lines),
            },
        );
    }

    /// The index in `pools` and the byte offset of the line starting at
    /// `line`, if mapped.
    fn locate(&self, line: u64) -> Option<(usize, usize)> {
        let i = self
            .pools
            .partition_point(|p| p.base <= line)
            .checked_sub(1)?;
        let p = &self.pools[i];
        (line < p.base + p.cache.len() as u64).then(|| (i, (line - p.base) as usize))
    }

    /// Copies a line's cache bytes to the durable bytes and clears its
    /// dirty bit — exactly [`pmem_sim::Machine`]'s `write_back_line`
    /// (which, like the hardware, does *not* touch the pending set).
    fn write_back_line(&mut self, line: u64) {
        if let Some((i, off)) = self.locate(line) {
            let p = &mut self.pools[i];
            let len = (CACHE_LINE as usize).min(p.cache.len() - off);
            self.acc ^= line_term_at(p.hint, &p.durable, off);
            p.durable.copy_from(&p.cache, off, len);
            self.acc ^= line_term_at(p.hint, &p.durable, off);
            let k = off / CACHE_LINE as usize;
            let [cache, durable] = p.versions.get(k);
            if cache != durable {
                p.versions.get_mut(k)[1] = cache;
            }
        }
        self.dirty.remove(line);
    }

    fn apply(&mut self, i: usize) {
        let (events, data) = (self.events, self.data);
        let e = &events[i];
        match &e.kind {
            EventKind::RegisterPool { hint, base, size } => {
                if !self.pools.iter().any(|p| p.hint == *hint) {
                    // Pool sizes are line-aligned by the machine; mirror it.
                    let size = (*size).max(1).div_ceil(CACHE_LINE) * CACHE_LINE;
                    self.insert_pool(*hint, *base, Pages::zeroed(size as usize));
                }
            }
            EventKind::Store { addr, len } => {
                let ver = version_at(i);
                self.stamp(*addr, *len, ver);
                if let Some(rec) = data.for_seq(e.seq) {
                    if rec.addr != *addr || rec.bytes.len() as u64 > *len {
                        self.stamp(rec.addr, rec.bytes.len() as u64, ver);
                    }
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

    /// Sets the cache version of every mapped line `[addr, addr + len)`
    /// touches (at least the line of `addr`) to `ver`.
    fn stamp(&mut self, addr: u64, len: u64, ver: u32) {
        let mut line = line_of(addr);
        while line < addr.saturating_add(len.max(1)) {
            if let Some((i, off)) = self.locate(line) {
                self.pools[i].versions.get_mut(off / CACHE_LINE as usize)[0] = ver;
            }
            line += CACHE_LINE;
        }
    }

    fn write_cache(&mut self, addr: u64, bytes: &[u8]) {
        if let Some((i, off)) = self.locate(line_of(addr)) {
            let line_delta = (addr - line_of(addr)) as usize;
            let p = &mut self.pools[i];
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

    /// The pools registered at the current position as `(hint, base, byte
    /// length)`, by ascending base: the pool set of every crash image here.
    pub fn pool_set(&self) -> impl Iterator<Item = (u64, u64, u64)> + Clone + '_ {
        self.pools
            .iter()
            .map(|p| (p.hint, p.base, p.cache.len() as u64))
    }

    /// The version of line `line` in the image [`Replayer::image_with`]
    /// would build for `persisted` (ascending): the cache version if the
    /// line is dirty and persisted, else the durable version; 0 for a line
    /// in no pool. At one position and pool set, equal versions mean equal
    /// line bytes, so versions key crash images by the lines a recovery
    /// read. (Unequal versions may still hold equal bytes: a key can miss
    /// a match, never invent one.)
    pub fn line_version(&self, line: u64, persisted: &[u64]) -> u32 {
        let Some((i, off)) = self.locate(line) else {
            return 0;
        };
        let [cache, durable] = self.pools[i].versions.get(off / CACHE_LINE as usize);
        if persisted.binary_search(&line).is_ok() && self.dirty.contains(line) {
            cache
        } else {
            durable
        }
    }

    /// The last store event at or before the current position that wrote
    /// the mapped line `line`, if any.
    pub fn last_store(&self, line: u64) -> Option<&'t Event> {
        let (i, off) = self.locate(line)?;
        let [ver, _] = self.pools[i].versions.get(off / CACHE_LINE as usize);
        let events: &'t [Event] = self.events;
        ver.checked_sub(1).map(|v| &events[v as usize])
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
            if let Some((i, off)) = self.locate(line) {
                let p = &self.pools[i];
                // Persisting the line replaces its durable bytes with the
                // cache bytes: swap the line's term in the XOR accumulator.
                h ^= line_term_at(p.hint, &p.durable, off);
                h ^= line_term_at(p.hint, &p.cache, off);
            }
        }
        h
    }

    /// Materializes the crash image for "the machine died here and exactly
    /// the dirty lines in `persisted` raced to the medium first". Non-dirty
    /// entries are ignored.
    pub fn image_with(&self, persisted: &[u64]) -> CrashImage {
        let mut parts: Vec<Pages> = self.pools.iter().map(|p| p.durable.clone()).collect();
        for &line in persisted {
            if !self.dirty.contains(line) {
                continue;
            }
            if let Some((i, off)) = self.locate(line) {
                let p = &self.pools[i];
                let len = (CACHE_LINE as usize).min(p.cache.len() - off);
                parts[i].copy_from(&p.cache, off, len);
            }
        }
        CrashImage::from_parts(
            self.pools
                .iter()
                .zip(parts)
                .map(|(p, bytes)| (p.hint, p.base, bytes)),
        )
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
