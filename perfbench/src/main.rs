//! `perfbench` — the repository's benchmark of the heal pipeline.
//!
//! One process runs one workload closed-loop for `--seconds`, checks every
//! output, and prints its metrics; the last line of standard output is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`). `--trace 0`
//! reports the end-to-end metrics with `pmobs` disabled and no spans;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. See `perfbench/README.md`.

mod explore;
mod fix;
mod gen;
mod serve;
mod speed;
mod stats;
mod trace;
mod ycsb;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{Spans, Tracer};

/// End-to-end metrics, reported by every workload: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ref-ms"),
    ("op_ms_p95", "ref-ms"),
    ("ops_per_s", "1/ref-s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer that a
/// workload bypasses reports 0 there.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("pmlang.compile_ms", "ms"),
    ("pmir.verify_ms", "ms"),
    ("pmir.digest_ms", "ms"),
    ("pmir.insts_out", "count"),
    ("pmvm.traced_run_ms", "ms"),
    ("pmvm.trace_events", "count"),
    ("pmvm.run_ms", "ms"),
    ("pmvm.minsn_per_s", "Minsn/s"),
    ("pmem_sim.cycles_per_op", "cycles"),
    ("pmem_sim.flushes_per_op", "count"),
    ("pmem_sim.fences_per_op", "count"),
    ("pmem_sim.kops_per_sim_s", "kops/s"),
    ("pmcheck.check_ms", "ms"),
    ("pmcheck.events_per_s", "1/s"),
    ("pmcheck.bugs_deduped", "count"),
    ("pmstatic.check_ms", "ms"),
    ("pmstatic.fixpoint_rounds", "count"),
    ("pmalias.analyze_ms", "ms"),
    ("pmalias.objects", "count"),
    ("core.repair_once_ms", "ms"),
    ("core.rounds_per_fix", "count"),
    ("core.fixes_per_request", "count"),
    ("core.rounds_committed_ratio", "ratio"),
    ("core.interproc_fixes", "count"),
    ("core.ir_growth_pct", "%"),
    ("pmexplore.frontiers_ms", "ms"),
    ("pmexplore.sample_ms", "ms"),
    ("pmexplore.explore_ms", "ms"),
    ("pmexplore.oracle_boot_us", "us"),
    ("pmexplore.candidates", "count"),
    ("pmexplore.distinct_ratio", "ratio"),
    ("pmexplore.j1_call_ms", "ms"),
    ("pmexplore.j2_over_j1", "ratio"),
    ("pmexplore.j1_states_per_s", "1/s"),
    ("pmexplore.j2_states_per_s", "1/s"),
    ("hippod.submit_ms", "ms"),
    ("hippod.busy_retries", "count"),
    ("hippod.cache_hit_ratio", "ratio"),
    ("hippod.result_bytes", "bytes"),
    ("hippod.journal_bytes_per_job", "bytes"),
    ("hippod.status_polls_per_job", "count"),
    ("hippod.overhead_ms", "ms"),
    ("trace.uncovered_share", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: [&str; 4] = ["fix_dynamic", "explore_clean", "serve_mixed", "ycsb_healed"];

/// Latency samples a phase reserves room for up front.
pub const SAMPLES: usize = 1 << 16;

/// Scratch directory for sockets, journals and span dumps, relative to the
/// directory the benchmark runs from.
pub const RUN_DIR: &str = ".bench_run";

/// How long a measured phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Seconds(f64),
    Ops(u64),
}

impl Until {
    /// Whether a loop that has run `ops` operations stops; a timed loop
    /// runs at least `min_ops`, so a short or slow run still fills a
    /// window.
    pub fn done(self, started: Instant, ops: u64, min_ops: u64) -> bool {
        match self {
            Until::Seconds(s) => ops >= min_ops && started.elapsed().as_secs_f64() >= s,
            Until::Ops(n) => ops >= n,
        }
    }
}

/// What one measured phase produced.
///
/// Operations are grouped into windows: one pass over a workload's cycle
/// of inputs, or a fixed count of operations where the inputs do not
/// repeat. The median latency and the rate average each window's own
/// figure over the windows, the fastest and slowest fifth of them left
/// out, so a slow spell on a shared machine that covers a few windows
/// does not move them, and a run whose processes differ in speed lands
/// between their speeds rather than on one of them. The tail
/// latency pools every operation of the run, since a window holds too few
/// operations for a p95 of its own.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub failures: Vec<String>,
    /// Seconds the set-up took, and the peak RSS in MB of the process
    /// that ran this phase (end-to-end segments only).
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    /// Per end-to-end segment, the reference kernel's median ms while it
    /// measured, by which its latencies were scaled (see [`speed`]).
    pub kernel_ms: Vec<f64>,
    /// Every operation's latency, failed ones included.
    pub lat_ms: Vec<f64>,
    /// Completed windows: their operations' indices in `lat_ms` and the
    /// seconds they took. Windows index into one preallocated list rather
    /// than own their samples, so the harness's bookkeeping keeps no new
    /// allocation alive per window that could pin the top of the heap.
    pub windows: Vec<(std::ops::Range<usize>, f64)>,
    /// Start in `lat_ms` and seconds so far of the open window.
    open: (usize, f64),
    /// Exact counts and digests, which must repeat for a seed.
    pub exact: BTreeMap<String, String>,
    /// Shares to report, as (part, whole) counts summed over phases, such
    /// as `serve_mixed`'s cache hits per job kind.
    pub shares: BTreeMap<String, (u64, u64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Latencies of the checked operations inside each timed one, where
    /// they differ (`serve_mixed`: single jobs of a session).
    pub inner_ms: Vec<f64>,
}

impl Measured {
    /// Records one operation into the open window: `Err` is a failed
    /// operation, whose latency still counts as a sample.
    pub fn record(&mut self, ms: f64, outcome: Result<(), String>) {
        if self.lat_ms.capacity() == 0 {
            self.lat_ms.reserve(SAMPLES);
            self.windows.reserve(SAMPLES / 4);
        }
        self.lat_ms.push(ms);
        self.open.1 += ms / 1e3;
        self.count(outcome);
        speed::sample_if_due();
    }

    /// Counts one attempted operation without a latency sample, for
    /// workloads whose timed operation spans several checked ones.
    pub fn count(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(e);
            }
        }
    }

    pub fn fail(&mut self, e: String) {
        self.count(Err(e));
    }

    /// Closes the open window; an unfinished one at the end of a run is
    /// never closed, so every window holds the same mix.
    pub fn close_window(&mut self) {
        let end = self.lat_ms.len();
        if self.open.0 < end {
            self.windows.push((self.open.0..end, self.open.1));
        }
        self.open = (end, 0.0);
    }

    /// Adds a window whose operations were recorded apart.
    pub fn push_window(&mut self, lat_ms: &[f64], busy_s: f64) {
        let start = self.lat_ms.len();
        self.lat_ms.extend_from_slice(lat_ms);
        self.windows.push((start..self.lat_ms.len(), busy_s));
        self.open = (self.lat_ms.len(), 0.0);
    }

    /// Restates every latency and set-up time at the nominal host's
    /// speed, given the reference kernel's median `kernel_ms` while they
    /// were measured.
    pub fn scale_to_nominal(&mut self, kernel_ms: f64) {
        let f = speed::NOMINAL_MS / kernel_ms;
        self.setup_s.iter_mut().for_each(|s| *s *= f);
        self.lat_ms.iter_mut().for_each(|l| *l *= f);
        self.inner_ms.iter_mut().for_each(|l| *l *= f);
        self.windows.iter_mut().for_each(|(_, busy)| *busy *= f);
        self.open.1 *= f;
        self.kernel_ms.push(kernel_ms);
    }

    /// Adds another phase's operations and windows.
    pub fn merge(&mut self, other: Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        let base = self.lat_ms.len();
        self.lat_ms.extend(other.lat_ms);
        self.windows.extend(
            other
                .windows
                .into_iter()
                .map(|(r, busy)| (r.start + base..r.end + base, busy)),
        );
        self.open = (self.lat_ms.len(), 0.0);
        self.inner_ms.extend(other.inner_ms);
        self.setup_s.extend(other.setup_s);
        self.peak_rss_mb.extend(other.peak_rss_mb);
        self.kernel_ms.extend(other.kernel_ms);
        for (k, (part, whole)) in other.shares {
            let s = self.shares.entry(k).or_default();
            *s = (s.0 + part, s.1 + whole);
        }
        if self.exact.is_empty() {
            self.exact = other.exact;
        }
    }

    /// Line-based text form, for handing a segment's results from the
    /// process that ran it to the one that reports them. Floats print in
    /// Rust's shortest round-trip form, so [`Measured::decode`] gives back
    /// exactly these numbers. Per-layer metrics are not carried.
    pub fn encode(&self) -> String {
        let floats = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
        let mut out = format!(
            "counts {} {}\nsetup {}\nrss {}\nkernel {}\nlat {}\ninner {}\n",
            self.attempted,
            self.failed,
            floats(&self.setup_s),
            floats(&self.peak_rss_mb),
            floats(&self.kernel_ms),
            floats(&self.lat_ms),
            floats(&self.inner_ms)
        );
        for (r, busy) in &self.windows {
            out += &format!("window {} {} {busy}\n", r.start, r.end);
        }
        for f in &self.failures {
            out += &format!("fail {}\n", f.replace('\n', " "));
        }
        for (k, v) in &self.exact {
            out += &format!("exact {k}\t{v}\n");
        }
        for (k, (part, whole)) in &self.shares {
            out += &format!("share {part} {whole}\t{k}\n");
        }
        out
    }

    /// Parses what [`Measured::encode`] wrote.
    pub fn decode(text: &str) -> Result<Measured, String> {
        fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("bad number `{s}`"))
        }
        fn nums<T: std::str::FromStr>(s: &str) -> Result<Vec<T>, String> {
            s.split_whitespace().map(num).collect()
        }
        let mut m = Measured::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "counts" => {
                    let c: Vec<u64> = nums(rest)?;
                    let [a, f] = c[..] else {
                        return Err(format!("bad line `{line}`"));
                    };
                    (m.attempted, m.failed) = (a, f);
                }
                "setup" => m.setup_s = nums(rest)?,
                "rss" => m.peak_rss_mb = nums(rest)?,
                "kernel" => m.kernel_ms = nums(rest)?,
                "lat" => m.lat_ms = nums(rest)?,
                "inner" => m.inner_ms = nums(rest)?,
                "window" => {
                    let w: Vec<f64> = nums(rest)?;
                    let [start, end, busy] = w[..] else {
                        return Err(format!("bad line `{line}`"));
                    };
                    m.windows.push((start as usize..end as usize, busy));
                }
                "fail" => m.failures.push(rest.to_string()),
                "exact" => {
                    let (k, v) = rest.split_once('\t').ok_or(format!("bad line `{line}`"))?;
                    m.exact.insert(k.to_string(), v.to_string());
                }
                "share" => {
                    let (counts, k) = rest.split_once('\t').ok_or(format!("bad line `{line}`"))?;
                    let c: Vec<u64> = nums(counts)?;
                    let [part, whole] = c[..] else {
                        return Err(format!("bad line `{line}`"));
                    };
                    m.shares.insert(k.to_string(), (part, whole));
                }
                _ => return Err(format!("unknown line `{line}`")),
            }
        }
        if m.windows.iter().any(|(r, _)| r.end > m.lat_ms.len()) {
            return Err("window past the end of the samples".to_string());
        }
        m.open = (m.lat_ms.len(), 0.0);
        Ok(m)
    }

    /// Share of windows left out at each end when averaging over them.
    const TRIM: f64 = 0.2;

    /// `f` of each window's latencies and seconds, averaged over windows.
    fn over_windows(&self, f: impl Fn(&[f64], f64) -> f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|(r, busy)| f(&self.lat_ms[r.clone()], *busy))
            .collect();
        stats::trimmed_mean(&per_window, Self::TRIM)
    }

    /// The window's median latency, averaged over windows.
    pub fn p50_ms(&self) -> f64 {
        self.over_windows(|lat, _| stats::median(lat))
    }

    /// The 95th-percentile latency over all the run's operations.
    pub fn p95_ms(&self) -> f64 {
        stats::quantile(&self.lat_ms, 0.95)
    }

    /// The window's operations per second, averaged over windows: its
    /// operations over the time in which at least one of them ran. With
    /// one client that is the inverse of the window's mean latency, the
    /// harness's checks between operations left out.
    pub fn ops_per_s(&self) -> f64 {
        self.over_windows(|lat, busy| {
            if busy > 0.0 {
                lat.len() as f64 / busy
            } else {
                0.0
            }
        })
    }
}

/// A workload: set-up builds everything the timed loop needs (including
/// warm-up), `measure` runs the closed loop, `finish` stops what set-up
/// started.
pub trait Workload: Sized {
    /// Name of the span around one operation in the traced run.
    const ROOT: &'static str;
    /// An end-to-end run is this many set-up + measure segments, each in
    /// a process of its own, so set-ups are spread over the run
    /// (`setup_s` is their median) and each segment starts from a fresh
    /// heap. A process's speed on a shared host is not that of the next
    /// one: on the 2-vCPU VM this was tuned on, processes running the same
    /// YCSB passes, with identical inputs and outputs, differed by up to
    /// 2x. Pooling the windows of several processes keeps one process's
    /// luck out of the result.
    const SEGMENTS: usize = 8;
    /// Builds segment `segment` of a run at `seed`. Segments of one run
    /// see the same inputs unless a workload's inputs do not repeat.
    fn setup(seed: u64, segment: usize) -> Result<Self, String>;
    fn measure(&mut self, until: Until, tracer: &Tracer) -> Measured;
    fn finish(self) -> Result<(), String> {
        Ok(())
    }
}

/// The end-to-end run must never time the telemetry path: with `pmobs`
/// enabled the repair engine re-serializes the whole trace at the end of
/// every clean repair, work a user's `hippoctl fix` does not pay for.
pub fn assert_obs_disabled(obs: &pmobs::Obs) {
    assert!(
        !obs.is_enabled(),
        "pmobs must stay disabled inside timed operations"
    );
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child process that runs one end-to-end segment.
    segment: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        segment: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--segment" => args.segment = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(RUN_DIR) {
        eprintln!("perfbench: cannot create {RUN_DIR}: {e}");
        std::process::exit(2);
    }
    let ok = if args.workload == "all" {
        run_all(&args)
    } else {
        match args.workload.as_str() {
            "fix_dynamic" => run::<fix::FixDynamic>(&args),
            "explore_clean" => run::<explore::ExploreClean>(&args),
            "serve_mixed" => run::<serve::ServeMixed>(&args),
            "ycsb_healed" => run::<ycsb::YcsbHealed>(&args),
            _ => unreachable!("validated by parse_args"),
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// Runs each workload in a process of its own, so each reports its own
/// peak RSS.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    ok
}

fn run<W: Workload>(args: &Args) -> bool {
    match if args.trace {
        traced::<W>(args)
    } else if let Some(k) = args.segment {
        segment::<W>(args, k)
    } else {
        end_to_end::<W>(args)
    } {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            false
        }
    }
}

/// Child process: sets up and measures segment `k` of an end-to-end run,
/// then prints its results for the parent.
fn segment<W: Workload>(args: &Args, k: usize) -> Result<bool, String> {
    let t = Instant::now();
    let mut state = W::setup(args.seed, k)?;
    let setup_s = t.elapsed().as_secs_f64();
    speed::start();
    let mut m = state.measure(
        Until::Seconds(args.seconds / W::SEGMENTS as f64),
        &Tracer::new(false),
    );
    m.setup_s = vec![setup_s];
    m.scale_to_nominal(speed::stop());
    state.finish()?;
    // A workload whose footprint grows with the operations served reads
    // its peak at a fixed point itself.
    if m.peak_rss_mb.is_empty() {
        m.peak_rss_mb = vec![stats::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?];
    }
    print!("{}", m.encode());
    Ok(true)
}

/// Runs the segments one after another, each in a child process, and
/// pools their results.
fn segments<W: Workload>(args: &Args) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut m = Measured::default();
    for k in 0..W::SEGMENTS {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .args(["--segment", &k.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("segment {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("segment {k} exited with {}", out.status));
        }
        let text = String::from_utf8(out.stdout).map_err(|e| format!("segment {k}: {e}"))?;
        let part = Measured::decode(&text).map_err(|e| format!("segment {k}: {e}"))?;
        eprintln!(
            "perfbench: segment {k}: {} operations, median {:.4} ref-ms, kernel {:.4} ms",
            part.lat_ms.len(),
            stats::median(&part.lat_ms),
            stats::median(&part.kernel_ms)
        );
        m.merge(part);
    }
    Ok(m)
}

fn end_to_end<W: Workload>(args: &Args) -> Result<bool, String> {
    let m = segments::<W>(args)?;
    let setups = &m.setup_s;
    let values = [
        stats::median(setups),
        // The largest: a process's peak is bimodal (see the README).
        m.peak_rss_mb.iter().copied().fold(0.0, f64::max),
        m.p50_ms(),
        m.p95_ms(),
        m.ops_per_s(),
    ];
    println!(
        "{} seed={} seconds={} (end to end, pmobs disabled)",
        args.workload, args.seed, args.seconds
    );
    let tail = m.lat_ms.iter().filter(|&&l| l > values[3]).count();
    let samples = [
        format!("{} set-ups", setups.len()),
        format!("largest of {} processes", m.peak_rss_mb.len()),
        format!("{} windows, {} operations", m.windows.len(), m.lat_ms.len()),
        format!("{} operations, {tail} beyond p95", m.lat_ms.len()),
        format!("{} windows, {} operations", m.windows.len(), m.lat_ms.len()),
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect();
    for ((name, unit, v), n) in metrics.iter().zip(samples) {
        println!("  {name:<12} {v:>14.4} {unit:<4} ({n})");
    }
    let kernel = &m.kernel_ms;
    println!(
        "  latencies at the speed of a host that runs the reference kernel in {} ms; \
         kernel median per segment {:.4}..{:.4} ms, median {:.4} ms",
        speed::NOMINAL_MS,
        kernel.iter().copied().fold(f64::INFINITY, f64::min),
        kernel.iter().copied().fold(0.0, f64::max),
        stats::median(kernel)
    );
    if !m.inner_ms.is_empty() {
        println!(
            "  inner operations: p50 {:.4} ms, p95 {:.4} ms ({} samples)",
            stats::quantile(&m.inner_ms, 0.5),
            stats::quantile(&m.inner_ms, 0.95),
            m.inner_ms.len()
        );
    }
    finish_report(args, &m, &metrics)
}

fn traced<W: Workload>(args: &Args) -> Result<bool, String> {
    // An untraced, a traced and an untraced third, each from a fresh
    // set-up of the same seed, so all see the same inputs and a linear
    // drift of the machine's speed cancels out of the tracing overhead:
    // the traced median minus the mean of the untraced ones.
    let third = Until::Seconds(args.seconds / 3.0);
    let tracer = Tracer::new(true);
    let mut untraced = Vec::with_capacity(2);
    let mut m = Measured::default();
    for part in 0..3 {
        let mut state = W::setup(args.seed, 0)?;
        if part == 1 {
            m = state.measure(third, &tracer);
        } else {
            untraced.push(state.measure(third, &Tracer::new(false)));
        }
        state.finish()?;
    }
    let p50_off = untraced.iter().map(Measured::p50_ms).sum::<f64>() / 2.0;
    let p50_on = m.p50_ms();
    m.layers.insert("trace.overhead_ms", p50_on - p50_off);
    m.layers.insert(
        "trace.overhead_pct",
        if p50_off > 0.0 {
            (p50_on - p50_off) / p50_off * 100.0
        } else {
            0.0
        },
    );
    for u in untraced {
        m.attempted += u.attempted;
        m.failed += u.failed;
        m.failures.extend(u.failures);
    }

    let spans = Spans::new(tracer.spans());
    m.layers
        .entry("trace.uncovered_share")
        .or_insert_with(|| spans.uncovered_share(W::ROOT));
    let path = format!("{RUN_DIR}/spans-{}-seed{}.jsonl", args.workload, args.seed);
    std::fs::write(&path, spans.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "{} seed={} seconds={} (traced; spans in {path})",
        args.workload, args.seed, args.seconds
    );
    println!("  self time by layer:");
    for (layer, (self_ms, n)) in spans.layer_self() {
        println!("    {layer:<10} {self_ms:>12.3} ms  spans={n}");
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, m.layers.get(n).copied().unwrap_or(0.0)))
        .collect();
    for (name, unit, v) in &metrics {
        println!("  {name:<30} {v:>14.4} {unit}");
    }
    finish_report(args, &m, &metrics)
}

fn finish_report(args: &Args, m: &Measured, metrics: &[(&str, &str, f64)]) -> Result<bool, String> {
    for (k, v) in &m.exact {
        println!("  exact {k} = {v}");
    }
    for (k, (part, whole)) in &m.shares {
        println!(
            "  {k}: {part} of {whole} ({:.1}%)",
            *part as f64 / (*whole).max(1) as f64 * 100.0
        );
    }
    let failed_frac = if m.attempted > 0 {
        m.failed as f64 / m.attempted as f64
    } else {
        1.0
    };
    println!(
        "  failed_frac = {failed_frac} ({} of {} operations)",
        m.failed, m.attempted
    );
    for f in &m.failures {
        println!("  FAILED: {f}");
    }
    if let Some((name, _, _)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("{}: metric {name} is not finite", args.workload));
    }
    let correct = m.failed == 0 && m.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        m.failed,
        body.join(", ")
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A segment's results cross the process boundary unchanged.
    #[test]
    fn measured_round_trips_through_its_text_form() {
        let mut m = Measured::default();
        m.record(1.25, Ok(()));
        m.record(0.1 + 0.2, Err("mismatch\non two lines".to_string()));
        m.close_window();
        m.record(7.0, Ok(()));
        m.setup_s = vec![0.5];
        m.peak_rss_mb = vec![12.75];
        m.scale_to_nominal(0.5);
        assert_eq!((m.lat_ms[0], m.setup_s[0]), (2.5, 1.0));
        m.inner_ms = vec![3.0, 4.5];
        m.exact.insert("digest".into(), "00ff".into());
        m.shares.insert("cache hits, resubmit jobs".into(), (3, 4));
        let back = Measured::decode(&m.encode()).expect("decodes");
        assert_eq!((back.attempted, back.failed), (3, 1));
        assert_eq!(back.lat_ms, m.lat_ms);
        assert_eq!(back.windows, m.windows);
        assert_eq!(back.failures, vec!["mismatch on two lines".to_string()]);
        assert_eq!(
            (
                back.setup_s,
                back.peak_rss_mb,
                back.kernel_ms,
                back.inner_ms
            ),
            (m.setup_s, m.peak_rss_mb, m.kernel_ms, m.inner_ms)
        );
        assert_eq!((back.exact, back.shares), (m.exact, m.shares));
        assert!(Measured::decode("window 0 5 1.0\n").is_err());
    }

    /// `BENCHMARK.json` and the metric tables here must agree, name for
    /// name and unit for unit.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let flat: String = text.split_whitespace().collect();
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = flat.find(&format!("\"{section}\":[")).expect(section);
            let body = &flat[start..];
            let body = &body[..body.find(']').expect("closing bracket")];
            body.split("{\"name\":\"")
                .skip(1)
                .map(|entry| {
                    let name = entry[..entry.find('"').expect("name")].to_string();
                    let u = entry.find("\"unit\":\"").expect("unit") + 8;
                    let unit = entry[u..u + entry[u..].find('"').expect("unit end")].to_string();
                    (name, unit)
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        for w in WORKLOADS {
            assert!(flat.contains(&format!("{{\"name\":\"{w}\"")), "{w}");
        }
    }
}
