//! The simulated machine: all address spaces, the PM cache model, and cycle
//! accounting.

use crate::cost::CostModel;
use crate::crash::CrashImage;
use crate::error::MemError;
use crate::layout::{
    line_of, Region, CACHE_LINE, GLOBAL_BASE, HEAP_BASE, PM_BASE, REGION_SPAN, STACK_BASE,
};
use crate::lineset::LineSet;
use crate::media::PmMedia;
use crate::pages::Pages;
use crate::stats::MachineStats;
use crate::{FenceKind, FlushKind};
use std::collections::BTreeMap;

/// A heap allocation record.
#[derive(Debug, Clone, Copy)]
struct HeapAlloc {
    size: u64,
    live: bool,
}

/// One mapped PM pool's volatile view (the cache-visible bytes). It shares
/// pages with the medium until a store lands in them.
#[derive(Debug, Clone)]
struct PoolCache {
    hint: u64,
    base: u64,
    bytes: Pages,
    /// One bit per line: already in the read log. Empty while the log is
    /// disarmed.
    read: Vec<u64>,
}

/// Where a checked access lands: a volatile region's buffer, or the PM pool
/// at this index of the machine's `pools`.
#[derive(Clone, Copy)]
enum Home {
    Volatile(Region),
    Pool(usize),
}

impl Home {
    fn is_pm(self) -> bool {
        matches!(self, Home::Pool(_))
    }
}

/// The machine. See the [crate docs](crate) for the model.
#[derive(Debug, Clone)]
pub struct Machine {
    cost: CostModel,
    stats: MachineStats,

    // Volatile regions.
    stack: Vec<u8>,
    stack_top: u64, // offset from STACK_BASE of the next free byte
    frames: Vec<u64>,
    heap: Vec<u8>,
    heap_top: u64,
    heap_allocs: BTreeMap<u64, HeapAlloc>, // keyed by absolute base address
    globals: Vec<u8>,
    globals_top: u64,

    // Persistent region.
    media: PmMedia,
    pools: Vec<PoolCache>, // sorted by base
    dirty_lines: LineSet,
    pending_pm_lines: LineSet,
    pending_volatile_lines: LineSet,

    // Fault injection (None in production: one branch per PM access).
    injector: Option<pmfault::Injector>,

    // The PM lines loads have read, in first-read order (None: disarmed).
    read_log: Option<Vec<u64>>,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new(CostModel::default())
    }
}

impl Machine {
    /// A fresh machine (empty medium) with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        Machine::with_media(PmMedia::new(), cost)
    }

    /// A machine booted against an existing persistent medium (a "restart").
    pub fn with_media(media: PmMedia, cost: CostModel) -> Self {
        Machine {
            cost,
            stats: MachineStats::default(),
            stack: vec![],
            stack_top: 0,
            frames: vec![],
            heap: vec![],
            heap_top: 0,
            heap_allocs: BTreeMap::new(),
            globals: vec![],
            globals_top: 0,
            media,
            pools: vec![],
            dirty_lines: LineSet::new(),
            pending_pm_lines: LineSet::new(),
            pending_volatile_lines: LineSet::new(),
            injector: None,
            read_log: None,
        }
    }

    /// Arms (or disarms) fault injection on this machine's PM access paths.
    ///
    /// The injector's counters are owned by value: cloning the machine forks
    /// them, so crash-image replicas keep counting deterministically from
    /// the clone point.
    pub fn set_injector(&mut self, injector: Option<pmfault::Injector>) {
        self.injector = injector;
    }

    /// The injection log: one line per fault actually injected (empty when
    /// no injector is armed). Each line is the structured diagnostic the
    /// fault campaign asserts on.
    pub fn injected_faults(&self) -> &[String] {
        self.injector.as_ref().map_or(&[], |i| i.injected())
    }

    /// Arms the read log: from now on, every PM line a [`Machine::load`]
    /// (so also an off-stack [`Machine::load_int`]) or the source of a
    /// [`Machine::memcpy`] touches is logged once, in first-read order.
    /// [`Machine::peek`] stays silent. The log changes nothing else: no
    /// result, error, counter or cycle.
    ///
    /// A run that reads only from the medium is a deterministic function of
    /// the bytes of the logged lines (given its pools): this is what lets
    /// crash-state exploration reuse one recovery boot's verdict for every
    /// crash image that agrees with it on those lines.
    pub fn arm_read_log(&mut self) {
        if self.read_log.is_none() {
            self.read_log = Some(vec![]);
            for p in &mut self.pools {
                p.read = line_bitmap(p.bytes.len());
            }
        }
    }

    /// The PM lines read since [`Machine::arm_read_log`], in first-read
    /// order; `None` while the log is disarmed.
    pub fn read_log(&self) -> Option<&[u64]> {
        self.read_log.as_deref()
    }

    /// Logs the lines of `[addr, addr + len)`, a checked range in pool `i`.
    fn log_read(&mut self, i: usize, addr: u64, len: u64) {
        let Some(log) = self.read_log.as_mut() else {
            return;
        };
        let p = &mut self.pools[i];
        let mut line = line_of(addr);
        while line < addr + len {
            let k = ((line - p.base) / CACHE_LINE) as usize;
            let (word, bit) = (k / 64, 1u64 << (k % 64));
            if p.read[word] & bit == 0 {
                p.read[word] |= bit;
                log.push(line);
            }
            line += CACHE_LINE;
        }
    }

    /// Execution counters so far.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Charges `c` cycles (used by the interpreter for instruction dispatch).
    pub fn charge(&mut self, c: u64) {
        self.stats.cycles += c;
    }

    /// Charges the fixed per-instruction dispatch cost.
    #[inline]
    pub fn charge_inst(&mut self) {
        self.stats.cycles += self.cost.inst_base;
    }

    /// Charges a call/return pair.
    #[inline]
    pub fn charge_call(&mut self) {
        self.stats.cycles += self.cost.call;
    }

    // ----- volatile allocators ---------------------------------------------

    /// Pushes a stack frame; pair with [`Machine::pop_frame`].
    #[inline]
    pub fn push_frame(&mut self) {
        self.frames.push(self.stack_top);
    }

    /// Pops the current frame, releasing its allocations.
    ///
    /// # Panics
    ///
    /// Panics if no frame is active.
    #[inline]
    pub fn pop_frame(&mut self) {
        self.stack_top = self.frames.pop().expect("pop_frame with no active frame");
    }

    /// Allocates `size` bytes (8-aligned) in the current stack frame.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfMemory`] if the stack window is exhausted.
    pub fn stack_alloc(&mut self, size: u64) -> Result<u64, MemError> {
        let size = align8(size);
        if self.stack_top + size > REGION_SPAN {
            return Err(MemError::OutOfMemory { what: "stack" });
        }
        let addr = STACK_BASE + self.stack_top;
        self.stack_top += size;
        if self.stack.len() < self.stack_top as usize {
            self.stack.resize(self.stack_top as usize, 0);
        }
        Ok(addr)
    }

    /// Allocates `size` bytes of heap ("DRAM").
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfMemory`] if the heap window is exhausted.
    pub fn heap_alloc(&mut self, size: u64) -> Result<u64, MemError> {
        let size = align8(size.max(1));
        if self.heap_top + size > REGION_SPAN {
            return Err(MemError::OutOfMemory { what: "heap" });
        }
        let addr = HEAP_BASE + self.heap_top;
        self.heap_top += size;
        if self.heap.len() < self.heap_top as usize {
            self.heap.resize(self.heap_top as usize, 0);
        }
        self.heap_allocs
            .insert(addr, HeapAlloc { size, live: true });
        self.stats.heap_live_bytes += size;
        self.stats.heap_peak_bytes = self.stats.heap_peak_bytes.max(self.stats.heap_live_bytes);
        Ok(addr)
    }

    /// Frees a heap allocation.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::InvalidFree`] if `addr` is not the base of a
    /// live allocation.
    pub fn heap_free(&mut self, addr: u64) -> Result<(), MemError> {
        match self.heap_allocs.get_mut(&addr) {
            Some(a) if a.live => {
                a.live = false;
                self.stats.heap_live_bytes -= a.size;
                Ok(())
            }
            _ => Err(MemError::InvalidFree { addr }),
        }
    }

    /// Installs a global of `size` bytes with initial contents `init`
    /// (zero-extended); returns its address.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfMemory`] if the globals window is
    /// exhausted.
    pub fn add_global(&mut self, size: u64, init: &[u8]) -> Result<u64, MemError> {
        let size = align8(size.max(init.len() as u64));
        if self.globals_top + size > REGION_SPAN {
            return Err(MemError::OutOfMemory { what: "globals" });
        }
        let addr = GLOBAL_BASE + self.globals_top;
        self.globals_top += size;
        self.globals.resize(self.globals_top as usize, 0);
        let off = (addr - GLOBAL_BASE) as usize;
        self.globals[off..off + init.len()].copy_from_slice(init);
        Ok(addr)
    }

    // ----- PM pools ---------------------------------------------------------

    /// Maps the pool identified by `hint`, creating it on the medium if it
    /// does not exist. Remapping an existing pool returns the same base and
    /// *reads the cache view back from the durable medium* — exactly what a
    /// process restart observes.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::PoolSizeMismatch`] if the pool exists with a
    /// different size, or [`MemError::OutOfMemory`] if the PM window is full.
    pub fn map_pool(&mut self, hint: u64, size: u64) -> Result<u64, MemError> {
        if let Some(p) = self.pools.iter().find(|p| p.hint == hint) {
            let have = p.bytes.len() as u64;
            if have != size {
                return Err(MemError::PoolSizeMismatch {
                    pool: hint,
                    have,
                    want: size,
                });
            }
            return Ok(p.base);
        }
        let size = align_up(size.max(1), CACHE_LINE);
        let (base, fresh) = match self.media.pool(hint) {
            Some(pm) => {
                let have = pm.bytes.len() as u64;
                if have != size {
                    return Err(MemError::PoolSizeMismatch {
                        pool: hint,
                        have,
                        want: size,
                    });
                }
                (pm.base, false)
            }
            None => {
                let base = align_up(self.media.high_water().unwrap_or(PM_BASE), 4096);
                if base + size > PM_BASE + REGION_SPAN {
                    return Err(MemError::OutOfMemory { what: "pm" });
                }
                self.media.insert(hint, base, size);
                (base, true)
            }
        };
        let bytes = if fresh {
            Pages::zeroed(size as usize)
        } else {
            self.media.pool(hint).expect("pool exists").bytes.clone()
        };
        let read = if self.read_log.is_some() {
            line_bitmap(bytes.len())
        } else {
            vec![]
        };
        self.pools.push(PoolCache {
            hint,
            base,
            bytes,
            read,
        });
        self.pools.sort_by_key(|p| p.base);
        Ok(base)
    }

    fn pool_index_of(&self, addr: u64) -> Option<usize> {
        self.pools
            .iter()
            .position(|p| addr >= p.base && addr < p.base + p.bytes.len() as u64)
    }

    // ----- access checking ---------------------------------------------------

    /// Checks `[addr, addr + len)` and finds its home, so the access that
    /// follows needs no second region dispatch or pool search.
    fn check_range(&self, addr: u64, len: u64) -> Result<Home, MemError> {
        let region = Region::of(addr).ok_or(MemError::Unmapped { addr })?;
        if len == 0 {
            return match region {
                Region::Pm => self
                    .pool_index_of(addr)
                    .map(Home::Pool)
                    .ok_or(MemError::Unmapped { addr }),
                _ => Ok(Home::Volatile(region)),
            };
        }
        let end = addr
            .checked_add(len)
            .ok_or(MemError::OutOfBounds { addr, len })?;
        let oob = MemError::OutOfBounds { addr, len };
        let limit = match region {
            Region::Stack => STACK_BASE + self.stack_top,
            Region::Heap => {
                let (base, alloc) = self
                    .heap_allocs
                    .range(..=addr)
                    .next_back()
                    .ok_or(MemError::Unmapped { addr })?;
                if !alloc.live {
                    return Err(MemError::UseAfterFree { addr });
                }
                base + alloc.size
            }
            Region::Global => GLOBAL_BASE + self.globals_top,
            Region::Pm => {
                let i = self
                    .pool_index_of(addr)
                    .ok_or(MemError::Unmapped { addr })?;
                let p = &self.pools[i];
                return if end <= p.base + p.bytes.len() as u64 {
                    Ok(Home::Pool(i))
                } else {
                    Err(oob)
                };
            }
        };
        if end <= limit {
            Ok(Home::Volatile(region))
        } else {
            Err(oob)
        }
    }

    /// The bytes of a checked volatile range.
    fn volatile_slice_mut(&mut self, region: Region, addr: u64, len: u64) -> &mut [u8] {
        let (buf, base) = match region {
            Region::Stack => (&mut self.stack, STACK_BASE),
            Region::Heap => (&mut self.heap, HEAP_BASE),
            Region::Global => (&mut self.globals, GLOBAL_BASE),
            Region::Pm => unreachable!("PM bytes live in pages"),
        };
        let off = (addr - base) as usize;
        &mut buf[off..off + len as usize]
    }

    /// Writes `bytes` to a checked range.
    fn write_raw(&mut self, home: Home, addr: u64, bytes: &[u8]) {
        match home {
            Home::Pool(i) => {
                let p = &mut self.pools[i];
                p.bytes.write((addr - p.base) as usize, bytes);
            }
            Home::Volatile(r) => self
                .volatile_slice_mut(r, addr, bytes.len() as u64)
                .copy_from_slice(bytes),
        }
    }

    /// Reads a checked range into `out`.
    fn read_raw(&self, home: Home, addr: u64, out: &mut [u8]) {
        let (buf, base) = match home {
            Home::Volatile(Region::Stack) => (&self.stack, STACK_BASE),
            Home::Volatile(Region::Heap) => (&self.heap, HEAP_BASE),
            Home::Volatile(Region::Global) => (&self.globals, GLOBAL_BASE),
            Home::Volatile(Region::Pm) => unreachable!("PM bytes live in pages"),
            Home::Pool(i) => {
                let p = &self.pools[i];
                return p.bytes.read((addr - p.base) as usize, out);
            }
        };
        let off = (addr - base) as usize;
        out.copy_from_slice(&buf[off..off + out.len()]);
    }

    /// The offset in `stack` of `[addr, addr + len)` when it lies wholly in
    /// the live stack segment, where [`Machine::check_range`] would accept
    /// it as [`Region::Stack`].
    #[inline]
    fn live_stack_offset(&self, addr: u64, len: usize) -> Option<usize> {
        let off = addr.checked_sub(STACK_BASE)?;
        (off < self.stack_top && self.stack_top - off >= len as u64).then_some(off as usize)
    }

    #[inline]
    fn account_load(&mut self, home: Home) {
        if home.is_pm() {
            self.stats.pm_loads += 1;
            self.stats.cycles += self.cost.pm_load;
        } else {
            self.stats.volatile_loads += 1;
            self.stats.cycles += self.cost.dram_access;
        }
    }

    #[inline]
    fn account_store(&mut self, home: Home, addr: u64, len: u64) {
        if home.is_pm() {
            self.stats.pm_stores += 1;
            self.stats.cycles += self.cost.pm_store;
            self.dirty_lines.insert_range(addr, len);
        } else {
            self.stats.volatile_stores += 1;
            self.stats.cycles += self.cost.dram_access;
        }
    }

    // ----- loads and stores ---------------------------------------------------

    /// Stores `bytes` at `addr`, dirtying the covered PM cache lines.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid access.
    pub fn store(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        let len = bytes.len() as u64;
        let home = self.check_range(addr, len)?;
        let mut write_len = len;
        if home.is_pm() {
            if let Some(inj) = self.injector.as_mut() {
                if let Some(pmfault::FaultKind::TornStore) = inj.fire(pmfault::FaultSite::SimStore)
                {
                    if len >= 2 {
                        // Only the low half of the store lands; the upper
                        // bytes keep their stale contents (a torn store
                        // within the cache line).
                        write_len = len / 2;
                        inj.record(format!(
                            "sim.store: torn store at {addr:#x} ({write_len}/{len} bytes persisted)"
                        ));
                    }
                }
            }
        }
        self.write_raw(home, addr, &bytes[..write_len as usize]);
        self.account_store(home, addr, len);
        Ok(())
    }

    /// Loads `out.len()` bytes from `addr`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid access.
    pub fn load(&mut self, addr: u64, out: &mut [u8]) -> Result<(), MemError> {
        let len = out.len() as u64;
        let home = self.check_range(addr, len)?;
        if let Home::Pool(i) = home {
            if let Some(inj) = self.injector.as_mut() {
                if let Some(pmfault::FaultKind::MediaReadError) =
                    inj.fire(pmfault::FaultSite::SimMediaRead)
                {
                    inj.record(format!(
                        "sim.media-read: read error at {addr:#x} ({len} bytes)"
                    ));
                    return Err(MemError::MediaRead { addr });
                }
            }
            self.log_read(i, addr, len);
        }
        self.read_raw(home, addr, out);
        self.account_load(home);
        Ok(())
    }

    /// Loads a little-endian zero-extended integer of `len` bytes (1/2/4/8).
    ///
    /// Same result, errors and accounting as [`Machine::load`] of `len`
    /// bytes. Most of a program's accesses are stack slots: `#[inline]`
    /// compiles this into the calling crate, where such an access costs one
    /// range check and one fixed-width move, with no further call.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid access.
    #[inline]
    pub fn load_int(&mut self, addr: u64, len: u8) -> Result<i64, MemError> {
        if let Some(off) = self.live_stack_offset(addr, usize::from(len)) {
            if let Some(v) = get_le(&self.stack, off, len) {
                self.account_load(Home::Volatile(Region::Stack));
                return Ok(v);
            }
        }
        self.load_int_checked(addr, len)
    }

    /// Stores the low `len` bytes of `value` little-endian: [`Machine::store`]
    /// with the stack in line, like [`Machine::load_int`].
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid access.
    #[inline]
    pub fn store_int(&mut self, addr: u64, len: u8, value: i64) -> Result<(), MemError> {
        if let Some(off) = self.live_stack_offset(addr, usize::from(len)) {
            if put_le(&mut self.stack, off, len, value) {
                self.account_store(Home::Volatile(Region::Stack), addr, u64::from(len));
                return Ok(());
            }
        }
        self.store_int_checked(addr, len, value)
    }

    /// [`Machine::load_int`] off the live stack: the general [`Machine::load`].
    /// Kept out of line so that only the stack path is compiled into callers.
    #[inline(never)]
    fn load_int_checked(&mut self, addr: u64, len: u8) -> Result<i64, MemError> {
        let mut buf = [0u8; 8];
        self.load(addr, &mut buf[..usize::from(len)])?;
        Ok(i64::from_le_bytes(buf))
    }

    /// [`Machine::store_int`] off the live stack: the general
    /// [`Machine::store`], out of line like [`Machine::load_int_checked`].
    #[inline(never)]
    fn store_int_checked(&mut self, addr: u64, len: u8, value: i64) -> Result<(), MemError> {
        self.store(addr, &value.to_le_bytes()[..usize::from(len)])
    }

    /// `memcpy(dst, src, len)`. Regions may differ; overlapping ranges copy
    /// the source as it was before the call (`memmove` semantics).
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid access.
    pub fn memcpy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let src_home = self.check_range(src, len)?;
        let dst_home = self.check_range(dst, len)?;
        if let Home::Pool(i) = src_home {
            self.log_read(i, src, len);
        }
        // Through a fixed buffer, chunk by chunk: front to back when the
        // destination lies below the source, back to front otherwise, so
        // no chunk overwrites a source byte that a later chunk still reads.
        const CHUNK: u64 = 512;
        let mut buf = [0u8; CHUNK as usize];
        let chunks = len.div_ceil(CHUNK);
        for k in 0..chunks {
            let at = CHUNK * if dst > src { chunks - 1 - k } else { k };
            let n = CHUNK.min(len - at) as usize;
            self.read_raw(src_home, src + at, &mut buf[..n]);
            self.write_raw(dst_home, dst + at, &buf[..n]);
        }
        self.account_bulk_write(dst_home, dst, len);
        self.stats.cycles += self.cost.bulk_byte * len.div_ceil(16);
        if src_home.is_pm() {
            self.stats.pm_loads += len.div_ceil(8);
        } else {
            self.stats.volatile_loads += len.div_ceil(8);
        }
        Ok(())
    }

    /// `memset(dst, val, len)`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid access.
    pub fn memset(&mut self, dst: u64, val: u8, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let home = self.check_range(dst, len)?;
        match home {
            Home::Pool(i) => {
                let p = &mut self.pools[i];
                p.bytes.fill((dst - p.base) as usize, len as usize, val);
            }
            Home::Volatile(r) => self.volatile_slice_mut(r, dst, len).fill(val),
        }
        self.account_bulk_write(home, dst, len);
        self.stats.cycles += self.cost.bulk_byte * len.div_ceil(16);
        Ok(())
    }

    fn account_bulk_write(&mut self, home: Home, dst: u64, len: u64) {
        let words = len.div_ceil(16);
        if home.is_pm() {
            self.stats.pm_stores += words;
            self.stats.cycles += self.cost.pm_store * words;
            self.dirty_lines.insert_range(dst, len);
        } else {
            self.stats.volatile_stores += words;
            self.stats.cycles += self.cost.dram_access * words;
        }
    }

    // ----- persistence operations ----------------------------------------------

    /// Executes a cache-line flush of the line containing `addr`.
    ///
    /// Weak flushes only schedule the write-back (completed at the next
    /// fence); `CLFLUSH` writes back synchronously. Flushing a volatile line
    /// is legal and costs real time — this is the waste the paper's
    /// interprocedural fixes avoid.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if `addr` is not a mapped address.
    pub fn flush(&mut self, kind: FlushKind, addr: u64) -> Result<(), MemError> {
        let home = self.check_range(addr, 1)?;
        self.stats.cycles += self.cost.flush_issue;
        let line = line_of(addr);
        if home.is_pm() {
            self.stats.pm_flushes += 1;
            if let Some(inj) = self.injector.as_mut() {
                if let Some(pmfault::FaultKind::DroppedFlush) =
                    inj.fire(pmfault::FaultSite::SimFlush)
                {
                    // Silently dropped: the line stays dirty and no
                    // write-back is ever scheduled.
                    inj.record(format!("sim.flush: dropped flush of line {line:#x}"));
                    return Ok(());
                }
            }
            if !self.dirty_lines.contains(line) {
                self.stats.redundant_flushes += 1;
                return Ok(());
            }
            if kind.is_weakly_ordered() {
                self.pending_pm_lines.insert(line);
            } else {
                self.write_back_line(line);
                self.stats.pm_lines_drained += 1;
                self.stats.cycles += self.cost.pm_writeback;
            }
        } else {
            // A flush of volatile data starts its DRAM write-back
            // immediately (the bandwidth is consumed whether or not a fence
            // ever waits on it) — this is the §3.2 cost of intraprocedural
            // fixes landing in helpers that also run on DRAM.
            self.stats.volatile_flushes += 1;
            self.stats.volatile_lines_drained += 1;
            self.stats.cycles += self.cost.dram_writeback;
        }
        Ok(())
    }

    /// Executes a memory fence, draining all pending write-backs.
    pub fn fence(&mut self, kind: FenceKind) {
        self.stats.fences += 1;
        self.stats.cycles += match kind {
            FenceKind::Sfence => self.cost.sfence_base,
            FenceKind::Mfence => self.cost.mfence_base,
        };
        for line in self.pending_pm_lines.take_sorted() {
            self.write_back_line(line);
            self.stats.pm_lines_drained += 1;
            self.stats.cycles += self.cost.pm_writeback;
        }
        // Volatile write-backs were charged at issue; the fence only
        // orders them.
        self.pending_volatile_lines.clear();
    }

    /// Spontaneously evicts the (PM) cache line containing `addr`, writing it
    /// back if dirty. Models cache pressure; used by the do-no-harm property
    /// tests, which rely on eviction being *possible* at any time (paper
    /// Lemma 2).
    pub fn evict(&mut self, addr: u64) {
        let line = line_of(addr);
        if self.dirty_lines.contains(line) {
            self.write_back_line(line);
            self.pending_pm_lines.remove(line);
        }
    }

    fn write_back_line(&mut self, line: u64) {
        let Some(i) = self.pool_index_of(line) else {
            return;
        };
        persist_line(&mut self.media, &self.pools[i], line);
        self.dirty_lines.remove(line);
    }

    // ----- crash simulation -----------------------------------------------------

    /// The durable state if the machine crashed right now (cache contents
    /// lost, pending write-backs *not* completed — the adversarial case).
    pub fn crash_image(&self) -> CrashImage {
        CrashImage::of_media(&self.media)
    }

    /// The durable state if the machine crashed right now *and* the pending
    /// write-backs in `completed` raced to the medium first. Line addresses
    /// not actually pending are ignored.
    pub fn crash_image_flushing(&self, completed: &[u64]) -> CrashImage {
        let mut media = self.media.clone();
        for &line in completed {
            if !self.pending_pm_lines.contains(line) {
                continue;
            }
            if let Some(i) = self.pool_index_of(line) {
                persist_line(&mut media, &self.pools[i], line);
            }
        }
        CrashImage::of_media(&media)
    }

    /// The durable state if the machine crashed right now and exactly the
    /// cache lines in `persisted` made it to the medium first. Unlike
    /// [`Machine::crash_image_flushing`], *any* dirty line qualifies —
    /// cache eviction can persist a line that was never flushed (paper
    /// Lemma 2), so exploration must be able to pick arbitrary dirty
    /// subsets. Line addresses that are not dirty are ignored.
    pub fn crash_image_with_lines(&self, persisted: &[u64]) -> CrashImage {
        let mut media = self.media.clone();
        for &line in persisted {
            if !self.dirty_lines.contains(line) {
                continue;
            }
            if let Some(i) = self.pool_index_of(line) {
                persist_line(&mut media, &self.pools[i], line);
            }
        }
        CrashImage::of_media(&media)
    }

    /// Lines with a scheduled-but-undrained write-back, in address order.
    pub fn pending_pm_lines(&self) -> Vec<u64> {
        self.pending_pm_lines.sorted()
    }

    /// Dirty (unflushed or undrained) PM lines, in address order.
    pub fn dirty_pm_lines(&self) -> Vec<u64> {
        self.dirty_lines.sorted()
    }

    /// Whether the PM line containing `addr` is dirty.
    pub fn is_line_dirty(&self, addr: u64) -> bool {
        self.dirty_lines.contains(line_of(addr))
    }

    /// Consumes the machine, returning the durable medium (for restart
    /// simulations). Equivalent to an orderly power-off *without* extra
    /// flushing: whatever was not drained is lost.
    pub fn into_media(self) -> PmMedia {
        self.media
    }

    /// Reads bytes without cost accounting or cache effects (debugger view).
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] on an invalid range.
    pub fn peek(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemError> {
        let home = self.check_range(addr, len)?;
        let mut out = vec![0; len as usize];
        self.read_raw(home, addr, &mut out);
        Ok(out)
    }
}

/// Copies the cache line starting at `line` from pool `p`'s cache view to
/// its durable bytes in `media`.
fn persist_line(media: &mut PmMedia, p: &PoolCache, line: u64) {
    let off = (line - p.base) as usize;
    let len = (CACHE_LINE as usize).min(p.bytes.len() - off);
    let pm = media.pool_mut(p.hint).expect("mapped pool has media");
    pm.bytes.copy_from(&p.bytes, off, len);
}

/// An all-clear bitmap with one bit per line of a `len`-byte pool.
fn line_bitmap(len: usize) -> Vec<u64> {
    vec![0; len.div_ceil(CACHE_LINE as usize).div_ceil(64)]
}

/// The zero-extended little-endian integer of `len` (1/2/4/8) bytes of
/// `buf` at `off`, read at a fixed width; `None` for any other width.
#[inline]
fn get_le(buf: &[u8], off: usize, len: u8) -> Option<i64> {
    let mut bytes = [0u8; 8];
    match len {
        8 => bytes.copy_from_slice(&buf[off..off + 8]),
        4 => bytes[..4].copy_from_slice(&buf[off..off + 4]),
        2 => bytes[..2].copy_from_slice(&buf[off..off + 2]),
        1 => bytes[0] = buf[off],
        _ => return None,
    }
    Some(i64::from_le_bytes(bytes))
}

/// Writes the low `len` (1/2/4/8) bytes of `value` little-endian to `buf` at
/// `off`, at a fixed width; `false`, writing nothing, for any other width.
#[inline]
fn put_le(buf: &mut [u8], off: usize, len: u8, value: i64) -> bool {
    let bytes = value.to_le_bytes();
    match len {
        8 => buf[off..off + 8].copy_from_slice(&bytes),
        4 => buf[off..off + 4].copy_from_slice(&bytes[..4]),
        2 => buf[off..off + 2].copy_from_slice(&bytes[..2]),
        1 => buf[off] = bytes[0],
        _ => return false,
    }
    true
}

fn align8(n: u64) -> u64 {
    align_up(n, 8)
}

fn align_up(n: u64, to: u64) -> u64 {
    n.div_ceil(to) * to
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_frames_release() {
        let mut m = Machine::default();
        m.push_frame();
        let a = m.stack_alloc(16).unwrap();
        m.push_frame();
        let b = m.stack_alloc(16).unwrap();
        assert!(b > a);
        m.pop_frame();
        let c = m.stack_alloc(16).unwrap();
        assert_eq!(b, c, "frame memory is reused after pop");
        m.pop_frame();
    }

    #[test]
    fn heap_use_after_free_detected() {
        let mut m = Machine::default();
        let p = m.heap_alloc(32).unwrap();
        m.store(p, &[1, 2, 3]).unwrap();
        m.heap_free(p).unwrap();
        assert_eq!(m.store(p, &[4]), Err(MemError::UseAfterFree { addr: p }));
        assert_eq!(m.heap_free(p), Err(MemError::InvalidFree { addr: p }));
    }

    #[test]
    fn heap_out_of_bounds_detected() {
        let mut m = Machine::default();
        let p = m.heap_alloc(8).unwrap();
        assert!(m.store(p, &[0; 8]).is_ok());
        assert!(matches!(
            m.store(p + 4, &[0; 8]),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn null_deref_is_unmapped() {
        let mut m = Machine::default();
        assert_eq!(m.load_int(0, 8), Err(MemError::Unmapped { addr: 0 }));
    }

    #[test]
    fn store_without_flush_is_not_durable() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 128).unwrap();
        m.store_int(p, 8, 7).unwrap();
        assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 0);
        assert!(m.is_line_dirty(p));
    }

    #[test]
    fn weak_flush_needs_fence() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 128).unwrap();
        m.store_int(p, 8, 7).unwrap();
        m.flush(FlushKind::Clwb, p).unwrap();
        // Still racing: the adversarial crash image lacks the update.
        assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 0);
        // But the optimistic image (write-back won the race) has it.
        let img = m.crash_image_flushing(&m.pending_pm_lines());
        assert_eq!(img.pool_bytes(0).unwrap()[0], 7);
        m.fence(FenceKind::Sfence);
        assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 7);
        assert!(!m.is_line_dirty(p));
    }

    #[test]
    fn clflush_is_synchronous() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 128).unwrap();
        m.store_int(p, 8, 9).unwrap();
        m.flush(FlushKind::Clflush, p).unwrap();
        assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 9);
    }

    #[test]
    fn redundant_flush_counted() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 128).unwrap();
        m.store_int(p, 8, 1).unwrap();
        m.flush(FlushKind::Clwb, p).unwrap();
        m.fence(FenceKind::Sfence);
        m.flush(FlushKind::Clwb, p).unwrap();
        assert_eq!(m.stats().redundant_flushes, 1);
    }

    #[test]
    fn volatile_flush_costs_drain_time() {
        let mut m = Machine::default();
        let p = m.heap_alloc(64).unwrap();
        m.store_int(p, 8, 1).unwrap();
        let before = m.stats().cycles;
        m.flush(FlushKind::Clwb, p).unwrap();
        m.fence(FenceKind::Sfence);
        let spent = m.stats().cycles - before;
        let c = m.cost_model();
        assert_eq!(
            spent,
            c.flush_issue + c.sfence_base + c.dram_writeback,
            "volatile flush pays issue + drain"
        );
        assert_eq!(m.stats().volatile_flushes, 1);
    }

    #[test]
    fn eviction_writes_back() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 128).unwrap();
        m.store_int(p, 8, 3).unwrap();
        m.evict(p);
        assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 3);
        assert!(!m.is_line_dirty(p));
    }

    #[test]
    fn restart_reattaches_pool() {
        let mut m = Machine::default();
        let p = m.map_pool(42, 256).unwrap();
        m.store_int(p + 8, 8, 77).unwrap();
        m.flush(FlushKind::Clwb, p + 8).unwrap();
        m.fence(FenceKind::Sfence);
        let media = m.into_media();
        let mut m2 = Machine::with_media(media, CostModel::default());
        let p2 = m2.map_pool(42, 256).unwrap();
        assert_eq!(p, p2);
        assert_eq!(m2.load_int(p2 + 8, 8).unwrap(), 77);
    }

    #[test]
    fn restart_loses_undrained_stores() {
        let mut m = Machine::default();
        let p = m.map_pool(42, 256).unwrap();
        m.store_int(p, 8, 1).unwrap();
        m.flush(FlushKind::Clwb, p).unwrap(); // no fence!
        let media = m.into_media();
        let mut m2 = Machine::with_media(media, CostModel::default());
        let p2 = m2.map_pool(42, 256).unwrap();
        assert_eq!(m2.load_int(p2, 8).unwrap(), 0);
    }

    #[test]
    fn crash_image_with_lines_honors_any_dirty_line() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 256).unwrap();
        m.store_int(p, 8, 1).unwrap(); // dirty, never flushed
        m.store_int(p + 64, 8, 2).unwrap();
        m.flush(FlushKind::Clwb, p + 64).unwrap(); // pending
                                                   // Unflushed lines can still persist via eviction.
        let img = m.crash_image_with_lines(&[p]);
        assert_eq!(img.read_int(p, 8), Some(1));
        assert_eq!(img.read_int(p + 64, 8), Some(0));
        // crash_image_flushing only honors *pending* lines.
        let img = m.crash_image_flushing(&[p, p + 64]);
        assert_eq!(img.read_int(p, 8), Some(0));
        assert_eq!(img.read_int(p + 64, 8), Some(2));
        // Clean lines are ignored.
        m.fence(FenceKind::Sfence);
        let img = m.crash_image_with_lines(&[p + 64]);
        assert_eq!(img.read_int(p + 64, 8), Some(2));
    }

    #[test]
    fn pool_size_mismatch_rejected() {
        let mut m = Machine::default();
        m.map_pool(0, 128).unwrap();
        assert!(matches!(
            m.map_pool(0, 256),
            Err(MemError::PoolSizeMismatch { .. })
        ));
    }

    #[test]
    fn memcpy_across_regions_dirties_pm() {
        let mut m = Machine::default();
        let pm = m.map_pool(0, 256).unwrap();
        let heap = m.heap_alloc(256).unwrap();
        m.store(heap, b"abcdefgh").unwrap();
        m.memcpy(pm, heap, 8).unwrap();
        assert!(m.is_line_dirty(pm));
        assert_eq!(m.peek(pm, 8).unwrap(), b"abcdefgh");
        // Crash image lacks it until flushed+fenced.
        assert_eq!(&m.crash_image().pool_bytes(0).unwrap()[..8], &[0; 8]);
    }

    #[test]
    fn multi_line_store_dirties_every_line() {
        let mut m = Machine::default();
        let p = m.map_pool(0, 256).unwrap();
        m.memset(p + 60, 0xaa, 10).unwrap(); // spans two lines
        assert_eq!(m.dirty_pm_lines().len(), 2);
    }

    #[test]
    fn load_int_zero_extends() {
        let mut m = Machine::default();
        let p = m.heap_alloc(8).unwrap();
        m.store(p, &[0xff]).unwrap();
        assert_eq!(m.load_int(p, 1).unwrap(), 0xff);
    }

    #[test]
    fn global_init_visible() {
        let mut m = Machine::default();
        let g = m.add_global(16, b"hi").unwrap();
        assert_eq!(m.load_int(g, 1).unwrap(), i64::from(b'h'));
        assert_eq!(m.load_int(g + 2, 1).unwrap(), 0);
    }

    #[test]
    fn stack_oob_detected() {
        let mut m = Machine::default();
        m.push_frame();
        let a = m.stack_alloc(8).unwrap();
        assert!(matches!(
            m.store(a + 8, &[1]),
            Err(MemError::OutOfBounds { .. })
        ));
        m.pop_frame();
    }

    /// Runs each access of `len` bytes at each of `addrs` through
    /// `load_int`/`store_int` on one machine and through `load`/`store` on
    /// a twin, and asserts equal results, bytes and stats.
    fn assert_fixed_width_matches_general(
        setup: impl Fn() -> Machine,
        addrs: &[u64],
        check: (u64, u64),
    ) {
        for len in [1u8, 2, 4, 8] {
            let (mut fixed, mut general) = (setup(), setup());
            for &addr in addrs {
                let mut buf = [0u8; 8];
                let want = general
                    .load(addr, &mut buf[..usize::from(len)])
                    .map(|()| i64::from_le_bytes(buf));
                assert_eq!(fixed.load_int(addr, len), want, "load {len} at {addr:#x}");
                let v = (addr as i64).wrapping_mul(0x0101_0101_0101_0101);
                let want = general.store(addr, &v.to_le_bytes()[..usize::from(len)]);
                assert_eq!(
                    fixed.store_int(addr, len, v),
                    want,
                    "store {len} at {addr:#x}"
                );
                assert_eq!(
                    fixed.stats(),
                    general.stats(),
                    "stats after {len} at {addr:#x}"
                );
                assert_eq!(fixed.dirty_pm_lines(), general.dirty_pm_lines());
            }
            assert_eq!(fixed.peek(check.0, check.1), general.peek(check.0, check.1));
        }
    }

    #[test]
    fn fixed_width_stack_access_matches_the_general_path() {
        // The live frame ends at `top`, but the stack buffer runs 32 bytes
        // past it (a popped frame's), so only the `stack_top` check stands
        // between an access and stale bytes.
        let setup = || {
            let mut m = Machine::default();
            m.push_frame();
            m.stack_alloc(56).unwrap();
            m.pop_frame();
            m.push_frame();
            let base = m.stack_alloc(24).unwrap();
            m.store(base, &(1..=56).collect::<Vec<u8>>()[..24]).unwrap();
            m
        };
        let top = STACK_BASE + 24;
        // From 9 bytes below `top` to `top` itself: every width ends exactly
        // at `top` once and straddles it after.
        let mut addrs: Vec<u64> = (top - 9..=top).collect();
        addrs.extend([
            STACK_BASE - 1,
            0,
            u64::MAX - 3,
            STACK_BASE + REGION_SPAN - 1,
        ]);
        for &addr in &addrs {
            for len in [1u8, 2, 4, 8] {
                let fits = addr >= STACK_BASE
                    && addr.checked_add(u64::from(len)).is_some_and(|e| e <= top);
                assert_eq!(setup().load_int(addr, len).is_ok(), fits);
                if (STACK_BASE..=top).contains(&addr) && !fits {
                    assert!(matches!(
                        setup().store_int(addr, len, -1),
                        Err(MemError::OutOfBounds { .. })
                    ));
                }
            }
        }
        assert_fixed_width_matches_general(setup, &addrs, (STACK_BASE, 24));
    }

    #[test]
    fn int_access_off_the_stack_matches_the_general_path() {
        let setup = || {
            let mut m = Machine::default();
            let pool = m.map_pool(0, 8192).unwrap();
            m.store(pool + 4090, &[9; 12]).unwrap();
            // Clean again, so each path's stores must dirty every line
            // they touch themselves.
            m.flush(FlushKind::Clflush, pool + 4090).unwrap();
            m.flush(FlushKind::Clflush, pool + 4096).unwrap();
            m.add_global(16, b"0123456789abcdef").unwrap();
            m
        };
        let pool = setup().map_pool(0, 8192).unwrap();
        // Accesses inside one page, across the page boundary at 4096, up to
        // and past the pool's end, and up to and past the globals' end.
        let mut addrs: Vec<u64> = (pool + 4086..pool + 4097).collect();
        addrs.extend(pool + 8184..=pool + 8192);
        addrs.extend(GLOBAL_BASE + 8..=GLOBAL_BASE + 16);
        assert_fixed_width_matches_general(setup, &addrs, (pool, 8192));
        assert_fixed_width_matches_general(setup, &addrs, (GLOBAL_BASE, 16));
    }

    #[test]
    fn overlapping_memcpy_copies_the_source_as_it_was() {
        // Longer than the copy buffer, both directions, in a pool and on
        // the heap; the pool's copies cross its page boundary.
        let len = 1500;
        for (dst, src) in [(3000u64, 2700u64), (2700, 3000), (2700, 2700), (5, 4)] {
            let mut m = Machine::default();
            let pool = m.map_pool(0, 8192).unwrap();
            let heap = m.heap_alloc(8192).unwrap();
            let init: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 251) as u8).collect();
            let mut want = init.clone();
            want.copy_within(src as usize..(src + len) as usize, dst as usize);
            for base in [pool, heap] {
                m.store(base, &init).unwrap();
                m.memcpy(base + dst, base + src, len).unwrap();
                assert_eq!(m.peek(base, 8192).unwrap(), want, "{dst} <- {src}");
            }
        }
    }

    #[test]
    fn injected_torn_store_persists_half() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Injector, Trigger};
        let mut m = Machine::default();
        let p = m.map_pool(0, 64).unwrap();
        m.set_injector(Some(Injector::new(FaultPlan::single(
            FaultSite::SimStore,
            Trigger::Nth(0),
            FaultKind::TornStore,
        ))));
        m.store_int(p, 8, 0x1122_3344_5566_7788).unwrap();
        // Low 4 bytes landed; high 4 kept their stale zeroes.
        assert_eq!(m.load_int(p, 8).unwrap(), 0x5566_7788);
        assert_eq!(m.injected_faults().len(), 1);
        assert!(m.injected_faults()[0].contains("torn store"));
        // The next store is whole again (Nth trigger fired once).
        m.store_int(p + 8, 8, -1).unwrap();
        assert_eq!(m.load_int(p + 8, 8).unwrap(), -1);
    }

    #[test]
    fn injected_dropped_flush_leaves_line_dirty() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Injector, Trigger};
        let mut m = Machine::default();
        let p = m.map_pool(0, 64).unwrap();
        m.set_injector(Some(Injector::new(FaultPlan::single(
            FaultSite::SimFlush,
            Trigger::Nth(0),
            FaultKind::DroppedFlush,
        ))));
        m.store_int(p, 8, 7).unwrap();
        m.flush(FlushKind::Clwb, p).unwrap();
        m.fence(FenceKind::Sfence);
        // The flush was dropped: nothing reached the medium.
        assert_eq!(&m.crash_image().pool_bytes(0).unwrap()[..8], &[0; 8]);
        assert!(m.injected_faults()[0].contains("dropped flush"));
        // A second flush goes through.
        m.flush(FlushKind::Clwb, p).unwrap();
        m.fence(FenceKind::Sfence);
        assert_eq!(m.crash_image().pool_bytes(0).unwrap()[0], 7);
    }

    #[test]
    fn injected_media_read_error_is_structured() {
        use pmfault::{FaultKind, FaultPlan, FaultSite, Injector, Trigger};
        let mut m = Machine::default();
        let p = m.map_pool(0, 64).unwrap();
        m.store_int(p, 8, 7).unwrap();
        m.set_injector(Some(Injector::new(FaultPlan::single(
            FaultSite::SimMediaRead,
            Trigger::Nth(0),
            FaultKind::MediaReadError,
        ))));
        assert!(matches!(m.load_int(p, 8), Err(MemError::MediaRead { addr }) if addr == p));
        // Volatile loads are not PM media reads and never fault here.
        let h = m.heap_alloc(8).unwrap();
        m.store_int(h, 8, 1).unwrap();
        assert_eq!(m.load_int(h, 8).unwrap(), 1);
    }

    /// Two pools, a global, a heap block and a stack slot, each written
    /// once, on a machine whose read log is armed (or not) before it maps
    /// anything.
    fn read_log_machine(armed: bool) -> (Machine, [u64; 5]) {
        let mut m = Machine::default();
        if armed {
            m.arm_read_log();
        }
        let p = m.map_pool(1, 4096).unwrap();
        let q = m.map_pool(2, 256).unwrap();
        let g = m.add_global(16, b"global").unwrap();
        let h = m.heap_alloc(256).unwrap();
        m.push_frame();
        let s = m.stack_alloc(16).unwrap();
        for (i, &a) in [p, q, g, h, s].iter().enumerate() {
            m.store_int(a, 8, i as i64 + 1).unwrap();
        }
        (m, [p, q, g, h, s])
    }

    /// The same reads, on either machine: PM through every reading path,
    /// and volatile memory and `peek`, which must log nothing.
    fn read_everything(m: &mut Machine, [p, q, g, h, s]: [u64; 5]) -> Vec<i64> {
        let mut got = vec![];
        for a in [p + 130, q, p, p + 128 + 8, s, g, h] {
            got.push(m.load_int(a, 8).unwrap());
        }
        // 8 bytes across the boundary of lines 0 and 1: line 1 is new.
        let mut buf = [0u8; 8];
        m.load(p + 60, &mut buf).unwrap();
        got.push(i64::from_le_bytes(buf));
        // A `memcpy` source spanning lines 3..=5; the PM destination is
        // written, not read.
        m.memcpy(h, p + 3 * 64 + 8, 140).unwrap();
        m.memcpy(q + 64, h, 8).unwrap();
        // Silent: `peek`, and a load that traps before reading.
        m.peek(p + 640, 64).unwrap();
        assert!(m.load_int(p + 4096 - 4, 8).is_err());
        got.push(m.load_int(h + 8, 8).unwrap());
        got
    }

    #[test]
    fn read_log_lists_pm_lines_once_in_first_read_order() {
        let (mut m, addrs) = read_log_machine(true);
        let [p, q, ..] = addrs;
        assert_eq!(m.read_log(), Some(&[][..]), "stores read nothing");
        read_everything(&mut m, addrs);
        assert_eq!(
            m.read_log().unwrap(),
            [p + 128, q, p, p + 64, p + 192, p + 256, p + 320],
        );
    }

    #[test]
    fn read_log_covers_pools_mapped_before_arming() {
        let mut m = Machine::default();
        let p = m.map_pool(1, 4096).unwrap();
        m.load_int(p, 8).unwrap();
        assert_eq!(m.read_log(), None, "disarmed");
        m.arm_read_log();
        m.load_int(p + 64, 8).unwrap();
        m.arm_read_log();
        m.load_int(p + 64, 8).unwrap();
        assert_eq!(m.read_log().unwrap(), [p + 64], "re-arming keeps the log");
    }

    #[test]
    fn arming_the_read_log_changes_nothing_it_observes() {
        let (mut plain, addrs) = read_log_machine(false);
        let (mut armed, _) = read_log_machine(true);
        assert_eq!(
            read_everything(&mut plain, addrs),
            read_everything(&mut armed, addrs)
        );
        assert_eq!(plain.stats(), armed.stats());
        assert_eq!(plain.crash_image(), armed.crash_image());
        assert_eq!(plain.dirty_pm_lines(), armed.dirty_pm_lines());
        assert_eq!(plain.read_log(), None);
    }
}
