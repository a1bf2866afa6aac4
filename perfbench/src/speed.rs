//! The host's speed, measured with a fixed reference kernel.
//!
//! On a shared host the same program runs at different speeds from minute
//! to minute: neighbours on the same physical cores, memory bandwidth and
//! clock changes slow every instruction alike, for seconds at a time.
//! The end-to-end runs therefore time, between operations, a small piece
//! of reference work that is part of this benchmark and never of the
//! program under test, and report each latency at the speed of a host that
//! runs the reference kernel in [`NOMINAL_MS`]. A change to the program
//! moves the scaled figures as much as the raw ones; a slow spell of the
//! host moves the kernel too and cancels out.
//!
//! The kernel is a small stack-machine interpreter over a fixed program,
//! doing what the program's hot loops do — dispatch on an instruction
//! enum, loads and stores into a flat memory, a hash map of keys and short
//! heap allocations — so it slows with the host as the program does. It is
//! timed in wall-clock time less the time the calling thread waited for a
//! CPU of this machine (its run delay), so the workload's own threads that
//! hold the CPUs meanwhile do not count, while time the hypervisor takes
//! from the machine does, as it does in the operations' latencies.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The reference kernel's time on the nominal host.
pub const NOMINAL_MS: f64 = 1.0;
/// Loop iterations of one kernel run: about [`NOMINAL_MS`] on an idle
/// 2-vCPU Xeon VM.
const ITERS: u64 = 4000;
/// Least time between two kernel runs of a measuring thread, which keeps
/// the kernel to a few percent of a run's time.
const INTERVAL: Duration = Duration::from_millis(20);
/// What one kernel run of [`ITERS`] iterations returns.
const CHECKSUM: u64 = 0x5a2a_d0b9_c22e_a35c;

#[derive(Clone, Copy)]
enum Op {
    Push(u64),
    Load(usize),
    Store(usize),
    Add,
    Mul,
    Xor,
    Shr(u32),
    MemLoad,
    MemStore,
    MapPut,
    MapGet,
    Alloc,
    /// Pops a value and jumps to the target when it is not zero.
    JumpIfNz(usize),
}

const MEM: usize = 1 << 16;
const KEYS: u64 = 1 << 14;
const BOXES: usize = 64;

/// The kernel's memory. Each thread keeps its own from run to run, so a
/// run's time does not depend on whether the allocator had to map fresh
/// pages for it, which varies with the workload's heap.
struct Scratch {
    mem: Vec<u64>,
    map: HashMap<u64, u64>,
    boxes: Vec<Box<[u64]>>,
    stack: Vec<u64>,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            mem: vec![0; MEM],
            map: HashMap::with_capacity(4096),
            boxes: Vec::with_capacity(BOXES),
            stack: Vec::with_capacity(16),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Runs the reference program for `iters` loop iterations from a cleared
/// `scratch`; returns a checksum of its state.
fn kernel(iters: u64, scratch: &mut Scratch) -> u64 {
    use Op::*;
    // r0 counter, r1 hash state, r2 memory value, r3 sum, r4 iterations left.
    #[rustfmt::skip]
    const PROGRAM: [Op; 41] = [
        Load(0), Push(0x9E37_79B9_7F4A_7C15), Mul, Load(1), Xor, Store(1),
        Load(1), Shr(17), MemLoad, Load(1), Add, Store(2),
        Load(2), Load(1), MemStore,
        Load(1), Shr(9), Load(2), MapPut,
        Load(2), Shr(11), MapGet, Load(3), Add, Store(3),
        Load(1), Shr(40), Alloc, Load(3), Add, Store(3),
        Load(0), Push(1), Add, Store(0),
        Load(4), Push(u64::MAX), Add, Store(4), Load(4), JumpIfNz(0),
    ];
    let Scratch {
        mem,
        map,
        boxes,
        stack,
    } = scratch;
    mem.fill(0);
    map.clear();
    boxes.clear();
    stack.clear();
    let mut regs = [0u64, 1, 0, 0, iters];
    let pop = |stack: &mut Vec<u64>| stack.pop().expect("the program keeps its stack balanced");
    let mut pc = 0;
    while let Some(&op) = PROGRAM.get(pc) {
        pc += 1;
        match op {
            Push(v) => stack.push(v),
            Load(r) => stack.push(regs[r]),
            Store(r) => regs[r] = pop(stack),
            Add | Mul | Xor => {
                let b = pop(stack);
                let a = pop(stack);
                stack.push(match op {
                    Add => a.wrapping_add(b),
                    Mul => a.wrapping_mul(b),
                    _ => a ^ b,
                });
            }
            Shr(n) => {
                let a = pop(stack);
                stack.push(a >> n);
            }
            MemLoad => {
                let a = pop(stack) as usize;
                stack.push(mem[a % MEM]);
            }
            MemStore => {
                let a = pop(stack) as usize;
                mem[a % MEM] = pop(stack);
            }
            MapPut => {
                let v = pop(stack);
                let k = pop(stack);
                if map.len() >= 4096 {
                    map.clear();
                }
                map.insert(k % KEYS, v);
            }
            MapGet => {
                let k = pop(stack);
                stack.push(map.get(&(k % KEYS)).copied().unwrap_or(k));
            }
            Alloc => {
                let n = (pop(stack) % 64) as usize + 1;
                if boxes.len() == BOXES {
                    boxes.clear();
                }
                boxes.push(vec![n as u64; n].into_boxed_slice());
                stack.push(boxes.len() as u64);
            }
            JumpIfNz(target) => {
                if pop(stack) != 0 {
                    pc = target;
                }
            }
        }
    }
    regs[3] ^ mem.iter().fold(0, |a, &b| a ^ b)
}

/// Total ms the calling thread has waited on a run queue: the second
/// field of `/proc/thread-self/schedstat`.
fn run_delay_ms() -> f64 {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let ns: u64 = text
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("schedstat holds a run delay");
    ns as f64 / 1e6
}

/// One timed kernel run: its ms on a CPU, whether or not the hypervisor
/// ran the CPU meanwhile.
fn sample_once() -> f64 {
    let (sum, ms) = SCRATCH.with(|scratch| {
        let scratch = &mut scratch.borrow_mut();
        let delay = run_delay_ms();
        let t = Instant::now();
        let sum = kernel(black_box(ITERS), scratch);
        let ms = t.elapsed().as_secs_f64() * 1e3 - (run_delay_ms() - delay);
        (sum, ms)
    });
    assert_eq!(
        sum, CHECKSUM,
        "the reference kernel must compute the same every run"
    );
    ms
}

static ON: AtomicBool = AtomicBool::new(false);
/// Kernel times so far, and when the last run ended.
static SAMPLES: Mutex<(Vec<f64>, Option<Instant>)> = Mutex::new((Vec::new(), None));

fn samples() -> std::sync::MutexGuard<'static, (Vec<f64>, Option<Instant>)> {
    SAMPLES.lock().unwrap_or_else(|p| p.into_inner())
}

/// Starts sampling in this process: from now on [`sample_if_due`] times
/// the kernel. One run is made at once, so a phase has a sample however
/// short it is.
pub fn start() {
    ON.store(true, Ordering::Relaxed);
    let ms = sample_once();
    let mut s = samples();
    s.0.push(ms);
    s.1 = Some(Instant::now());
}

/// Times one kernel run if sampling is on and the last run ended
/// [`INTERVAL`] ago or more. Measuring threads call this between timed
/// operations, never inside one.
pub fn sample_if_due() {
    if !ON.load(Ordering::Relaxed) {
        return;
    }
    {
        let mut s = samples();
        if s.1.is_some_and(|t| t.elapsed() < INTERVAL) {
            return;
        }
        // Claims the slot, so two threads do not both run the kernel.
        s.1 = Some(Instant::now());
    }
    let ms = sample_once();
    let mut s = samples();
    s.0.push(ms);
    s.1 = Some(Instant::now());
}

/// Stops sampling; returns the median kernel time since [`start`].
pub fn stop() -> f64 {
    ON.store(false, Ordering::Relaxed);
    let mut s = samples();
    let median = crate::stats::median(&s.0);
    *s = (Vec::new(), None);
    median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_not_optimised_away() {
        let mut scratch = Scratch::new();
        assert_eq!(kernel(ITERS, &mut scratch), CHECKSUM);
        assert_ne!(kernel(ITERS + 1, &mut scratch), CHECKSUM);
        // A reused scratch is cleared first.
        assert_eq!(kernel(ITERS, &mut scratch), CHECKSUM);
        assert!(sample_once() > 0.0);
    }
}
