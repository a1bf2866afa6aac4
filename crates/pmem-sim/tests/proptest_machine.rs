//! Property tests of the machine model: the §4 event algebra holds on
//! random operation sequences.
//!
//! Pools are a whole number of cache lines but not of 4 KiB pages, and
//! stores, `memcpy` and `memset` land across page boundaries, so every
//! access path of the copy-on-write pool pages is exercised. Snapshots (a
//! machine clone, a crash image, a crash image with persisted lines) are
//! taken mid-run and must keep their bytes while the machine runs on.

use pmem_sim::{layout, FenceKind, FlushKind, Machine, PmMedia};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum MOp {
    Store {
        off: u32,
        bytes: Vec<u8>,
    },
    Memcpy {
        dst: u32,
        src: u32,
        len: u16,
    },
    Memset {
        off: u32,
        val: u8,
        len: u16,
    },
    Flush {
        off: u32,
        kind: u8,
    },
    Fence {
        strong: bool,
    },
    Evict {
        off: u32,
    },
    /// Snapshot the machine; `pick` selects dirty lines to persist.
    Snapshot {
        pick: Vec<u32>,
    },
}

const POOL: u64 = 0;
const PAGE: u32 = 4096;

/// Pool sizes: 65 to 199 cache lines, never a whole number of pages.
fn pool_size_strategy() -> impl Strategy<Value = u64> {
    (65u64..200).prop_map(|lines| if lines % 64 == 0 { lines + 1 } else { lines } * 64)
}

/// Raw offsets, half of them within 96 bytes below a page boundary.
fn off_strategy() -> BoxedStrategy<u32> {
    prop_oneof![
        1 => any::<u32>(),
        1 => (1u32..4, 1u32..96).prop_map(|(page, back)| page * PAGE - back),
    ]
    .boxed()
}

fn op_strategy() -> impl Strategy<Value = MOp> {
    prop_oneof![
        4 => (off_strategy(), proptest::collection::vec(any::<u8>(), 1..80))
            .prop_map(|(off, bytes)| MOp::Store { off, bytes }),
        1 => (off_strategy(), off_strategy(), 1u16..300)
            .prop_map(|(dst, src, len)| MOp::Memcpy { dst, src, len }),
        1 => (off_strategy(), any::<u8>(), 1u16..300)
            .prop_map(|(off, val, len)| MOp::Memset { off, val, len }),
        3 => (off_strategy(), 0u8..3).prop_map(|(off, kind)| MOp::Flush { off, kind }),
        2 => any::<bool>().prop_map(|strong| MOp::Fence { strong }),
        1 => off_strategy().prop_map(|off| MOp::Evict { off }),
        1 => proptest::collection::vec(any::<u32>(), 0..4).prop_map(|pick| MOp::Snapshot { pick }),
    ]
}

/// The operations that never snapshot.
fn plain_op_strategy() -> impl Strategy<Value = MOp> {
    op_strategy().prop_map(|op| match op {
        MOp::Snapshot { .. } => MOp::Fence { strong: false },
        op => op,
    })
}

fn flush_kind(k: u8) -> FlushKind {
    [FlushKind::Clwb, FlushKind::ClflushOpt, FlushKind::Clflush][k as usize % 3]
}

/// `raw` reduced to an offset where `len` bytes fit in a pool of `size`.
fn place(raw: u32, len: u64, size: u64) -> u64 {
    u64::from(raw) % (size - len + 1)
}

/// A byte-level reference model of the durability semantics: the medium
/// view tracks, per byte, the value guaranteed durable.
#[derive(Clone)]
struct Reference {
    size: u64,
    cache: Vec<u8>,
    media: Vec<u8>,
    dirty: std::collections::BTreeSet<u64>,
    pending: std::collections::BTreeSet<u64>,
}

impl Reference {
    fn new(size: u64) -> Self {
        Reference {
            size,
            cache: vec![0; size as usize],
            media: vec![0; size as usize],
            dirty: Default::default(),
            pending: Default::default(),
        }
    }

    fn line(off: u64) -> u64 {
        off & !63
    }

    fn write(&mut self, off: u64, bytes: &[u8]) {
        self.cache[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        let mut line = Self::line(off);
        while line < off + bytes.len() as u64 {
            self.dirty.insert(line);
            line += 64;
        }
    }

    /// Like the hardware, a write-back leaves a scheduled one pending: a
    /// `CLWB` then `CLFLUSH` of the same line still drains at the fence.
    fn writeback(&mut self, line: u64) {
        let s = line as usize;
        let e = (line + 64).min(self.size) as usize;
        self.media[s..e].copy_from_slice(&self.cache[s..e]);
        self.dirty.remove(&line);
    }

    /// The media with the dirty lines among `lines` persisted.
    fn media_with(&self, lines: &[u64]) -> Vec<u8> {
        let mut r = self.clone();
        for &line in lines {
            if r.dirty.contains(&line) {
                r.writeback(line);
            }
        }
        r.media
    }
}

/// A snapshot taken mid-run, with the reference bytes it must keep.
struct Snap {
    clone: Machine,
    clone_cache: Vec<u8>,
    clone_media: Vec<u8>,
    image: pmem_sim::CrashImage,
    persisted: pmem_sim::CrashImage,
    persisted_media: Vec<u8>,
}

/// A machine with one pool, driven in lockstep with the reference.
struct Sim {
    m: Machine,
    base: u64,
    r: Reference,
    snaps: Vec<Snap>,
}

impl Sim {
    fn new(size: u64) -> Self {
        let mut m = Machine::default();
        let base = m.map_pool(POOL, size).unwrap();
        Sim {
            m,
            base,
            r: Reference::new(size),
            snaps: vec![],
        }
    }

    fn apply(&mut self, op: &MOp) {
        let (base, size) = (self.base, self.r.size);
        match op {
            MOp::Store { off, bytes } => {
                let off = place(*off, bytes.len() as u64, size);
                self.m.store(base + off, bytes).unwrap();
                self.r.write(off, bytes);
            }
            MOp::Memcpy { dst, src, len } => {
                let len = u64::from(*len);
                let (dst, src) = (place(*dst, len, size), place(*src, len, size));
                self.m.memcpy(base + dst, base + src, len).unwrap();
                let tmp = self.r.cache[src as usize..(src + len) as usize].to_vec();
                self.r.write(dst, &tmp);
            }
            MOp::Memset { off, val, len } => {
                let len = u64::from(*len);
                let off = place(*off, len, size);
                self.m.memset(base + off, *val, len).unwrap();
                self.r.write(off, &vec![*val; len as usize]);
            }
            MOp::Flush { off, kind } => {
                let off = place(*off, 1, size);
                self.m.flush(flush_kind(*kind), base + off).unwrap();
                let line = Reference::line(off);
                if self.r.dirty.contains(&line) {
                    if flush_kind(*kind).is_weakly_ordered() {
                        self.r.pending.insert(line);
                    } else {
                        self.r.writeback(line);
                    }
                }
            }
            MOp::Fence { strong } => {
                self.m.fence(if *strong {
                    FenceKind::Mfence
                } else {
                    FenceKind::Sfence
                });
                for line in std::mem::take(&mut self.r.pending) {
                    self.r.writeback(line);
                }
            }
            MOp::Evict { off } => {
                let off = place(*off, 1, size);
                self.m.evict(base + off);
                let line = Reference::line(off);
                if self.r.dirty.contains(&line) {
                    self.r.writeback(line);
                    self.r.pending.remove(&line);
                }
            }
            MOp::Snapshot { pick } => {
                let dirty: Vec<u64> = self.r.dirty.iter().copied().collect();
                // Picked dirty lines, plus one arbitrary line (ignored unless dirty).
                let mut lines: Vec<u64> = pick
                    .iter()
                    .filter(|_| !dirty.is_empty())
                    .map(|&i| dirty[i as usize % dirty.len()])
                    .collect();
                lines.push(place(pick.len() as u32 * 64, 1, size) & !63);
                let abs: Vec<u64> = lines.iter().map(|l| base + l).collect();
                self.snaps.push(Snap {
                    clone: self.m.clone(),
                    clone_cache: self.r.cache.clone(),
                    clone_media: self.r.media.clone(),
                    image: self.m.crash_image(),
                    persisted: self.m.crash_image_with_lines(&abs),
                    persisted_media: self.r.media_with(&lines),
                });
            }
        }
    }

    /// Every snapshot still shows the bytes of its snapshot point; then
    /// each clone is overwritten and made durable, which must not leak
    /// into the machine it was cloned from.
    fn check_snapshots(&mut self) {
        let (base, size) = (self.base, self.r.size);
        for s in &mut self.snaps {
            prop_assert_eq!(s.clone.peek(base, size).unwrap(), s.clone_cache.clone());
            prop_assert_eq!(
                s.clone.crash_image().pool_bytes(POOL).unwrap(),
                s.clone_media.clone()
            );
            prop_assert_eq!(s.image.pool_bytes(POOL).unwrap(), s.clone_media.clone());
            prop_assert_eq!(
                s.persisted.pool_bytes(POOL).unwrap(),
                s.persisted_media.clone()
            );
            s.clone.memset(base, 0xa5, size).unwrap();
            persist_all(&mut s.clone, base, size);
        }
        prop_assert_eq!(self.m.peek(base, size).unwrap(), self.r.cache.clone());
        prop_assert_eq!(
            self.m.crash_image().pool_bytes(POOL).unwrap(),
            self.r.media.clone()
        );
    }
}

/// Flushes every line of the pool and fences.
fn persist_all(m: &mut Machine, base: u64, size: u64) {
    let mut line = base;
    while line < base + size {
        m.flush(FlushKind::Clwb, line).unwrap();
        line += layout::CACHE_LINE;
    }
    m.fence(FenceKind::Sfence);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The machine's crash image matches a byte-level reference model after
    /// any operation sequence, and snapshots taken on the way keep theirs.
    #[test]
    fn crash_image_matches_reference(
        size in pool_size_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..120),
    ) {
        let mut sim = Sim::new(size);
        for op in &ops {
            sim.apply(op);
        }
        let img = sim.m.crash_image();
        prop_assert_eq!(img.pool_bytes(POOL).unwrap(), sim.r.media.clone());
        // The cache view matches too.
        prop_assert_eq!(sim.m.peek(sim.base, size).unwrap(), sim.r.cache.clone());
        // Dirty/pending bookkeeping agrees.
        let machine_dirty: Vec<u64> =
            sim.m.dirty_pm_lines().iter().map(|l| l - sim.base).collect();
        let ref_dirty: Vec<u64> = sim.r.dirty.iter().copied().collect();
        prop_assert_eq!(machine_dirty, ref_dirty);
        sim.check_snapshots();
    }

    /// Restart semantics: re-attaching the medium shows exactly the crash
    /// image, and all cache state is gone.
    #[test]
    fn restart_equals_crash_image(
        size in pool_size_strategy(),
        ops in proptest::collection::vec(plain_op_strategy(), 0..60),
    ) {
        let mut sim = Sim::new(size);
        for op in &ops {
            sim.apply(op);
        }
        let img = sim.m.crash_image();
        let media: PmMedia = sim.m.into_media();
        let mut m2 = Machine::with_media(media, Default::default());
        let base2 = m2.map_pool(POOL, size).unwrap();
        prop_assert_eq!(base2, sim.base);
        prop_assert_eq!(m2.peek(base2, size).unwrap(), img.pool_bytes(POOL).unwrap());
        prop_assert!(m2.dirty_pm_lines().is_empty());
    }

    /// Monotonicity of durability: adding a trailing flush+fence to any
    /// sequence makes every line's durable content equal the cache content
    /// (full drain), and never changes the *cache* view.
    #[test]
    fn trailing_persist_drains_everything(
        size in pool_size_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..80),
    ) {
        let mut sim = Sim::new(size);
        for op in &ops {
            sim.apply(op);
        }
        let cache_before = sim.m.peek(sim.base, size).unwrap();
        persist_all(&mut sim.m, sim.base, size);
        prop_assert_eq!(&sim.m.peek(sim.base, size).unwrap(), &cache_before);
        let img = sim.m.crash_image();
        prop_assert_eq!(img.pool_bytes(POOL).unwrap(), cache_before.clone());
        prop_assert!(sim.m.dirty_pm_lines().is_empty());
        // Snapshots taken before the drain still show their own bytes.
        sim.r.cache = cache_before.clone();
        sim.r.media = cache_before;
        sim.check_snapshots();
    }

    /// Volatile memory is never captured by crash images.
    #[test]
    fn volatile_state_never_durable(
        size in pool_size_strategy(),
        vals in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let mut m = Machine::default();
        m.map_pool(POOL, size).unwrap();
        let buf = m.heap_alloc(64).unwrap();
        for (i, v) in vals.iter().enumerate() {
            m.store(buf + (i as u64 % 56), &[*v]).unwrap();
            m.flush(FlushKind::Clwb, buf).unwrap();
        }
        m.fence(FenceKind::Sfence);
        let img = m.crash_image();
        prop_assert_eq!(img.pool_count(), 1);
        prop_assert!(img.pool_bytes(POOL).unwrap().iter().all(|&b| b == 0));
    }
}
