//! `serve_mixed`: an in-process `hippod` daemon (2 workers, Unix socket,
//! job journal on) under 2 closed-loop client connections that call
//! `Client::submit_retry` then `Client::wait`, as `hippoctl submit --wait`
//! callers do. The seeded job mix puts cold repairs that write the journal
//! and fill the cache beside warm resubmits that read it.
//!
//! One operation is a session: [`SESSION`] consecutive jobs of the
//! stream, all submitted, then each waited for in turn, as a script that
//! runs `hippoctl submit` on a batch and then waits for it does. A single
//! job's latency is quantized by `Client::wait`'s 10 ms poll, so its median
//! jumps a whole poll between runs when it sits near a step. Waiting for
//! the jobs one at a time made a session the sum of eight such steps: a
//! few percent of host slowdown moved many jobs past a poll at once, and
//! session medians of one seed ranged from 120 ms to 205 ms within an
//! hour. Submitting the batch first leaves about one poll per session on
//! the critical path. Job latencies, from submit to the view that shows
//! the job finished, are still reported.

use crate::gen::{Publish, Rng};
use crate::trace::Tracer;
use crate::{assert_obs_disabled, ms, stats, Measured, Until, Workload, RUN_DIR};
use hippocrates::WarmCache;
use hippod::{Client, JobKind, JobSpec, JobState, JobView, ServeReport, ServerConfig};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections, each a closed loop.
const CLIENTS: usize = 2;
/// Jobs per session (one operation).
pub const SESSION: usize = 8;
/// Sessions per window, in order of completion.
const WINDOW: usize = 8;
/// Jobs at the head of the stream whose artifacts make the exact digest;
/// every run serves them, however far it gets.
const EXACT_JOBS: usize = 2 * SESSION;
/// Two workers, as many as the VM has CPUs. With one, the daemon's single
/// busy thread handed each job to and from sleeping threads, and session
/// medians of five seeds spread 55–82 ms against a steady reference
/// kernel ([`crate::speed`]); with two, the interquartile range of ten
/// seeds' medians stayed within 0.04–0.06 of their median.
const WORKERS: usize = 2;
/// Jobs per seeded stream.
const STREAM: usize = 20_000;
/// Crash-state budget of the explore jobs.
const EXPLORE_BUDGET: u64 = 1024;
/// Jobs served untimed in set-up.
const WARMUP: usize = 32;
/// Sessions a resubmit may reach back over: it repeats a job of one of
/// the [`RECENT_SESSIONS`] sessions before the previous one. The other
/// client may still be running the previous session; older sessions have
/// normally finished, so a resubmit reads a result that is already cached,
/// as a user resubmitting a recent job does.
const RECENT_SESSIONS: usize = 4;
/// Stream jobs per segment: segment `k` starts at job `k * SEGMENT_JOBS`,
/// so the segments of a run serve different parts of the stream.
const SEGMENT_JOBS: usize = 2_000;
/// Distinct specs per kind driven stage by stage in the traced run.
const STAGE_DRIVES: usize = 24;
const TIMEOUT: Duration = Duration::from_secs(60);

/// One job of the seeded mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Job {
    /// A repair of a program the daemon has never seen.
    ColdFix(Publish),
    /// A repair with pmstatic in place of the traced run.
    StaticFix(Publish),
    /// Crash-state exploration of the correct P-CLHT.
    Explore(u64),
    /// A verbatim resubmit of an earlier job of the stream.
    Resubmit(usize),
}

impl Job {
    pub fn kind(&self) -> &'static str {
        match self {
            Job::ColdFix(_) => "cold_fix",
            Job::StaticFix(_) => "static_fix",
            Job::Explore(_) => "explore",
            Job::Resubmit(_) => "resubmit",
        }
    }
}

/// The seeded job stream: each job is one of the four kinds with equal
/// probability, so every path a job can take through the daemon — the
/// traced run, pmstatic, pmexplore and the result cache — gets the same
/// share of jobs. Pools, and so sources, are unique per job, and an
/// explore job's seed is its pool, so every job but a resubmit is new to
/// the daemon. A resubmit repeats a job of the [`RECENT_SESSIONS`]
/// sessions before the previous one (that job's original, if it is a
/// resubmit itself), within the same segment, since each segment has a
/// fresh daemon; where a segment has no such session yet, a resubmit roll
/// becomes a cold fix.
pub fn stream(seed: u64, len: usize, first_pool: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed, 0x5E);
    let mut jobs = Vec::with_capacity(len);
    for i in 0..len {
        let pool = first_pool + i as u64;
        let session = (i % SEGMENT_JOBS) / SESSION;
        let reach = (session.saturating_sub(1) * SESSION).min(RECENT_SESSIONS * SESSION);
        jobs.push(match rng.range(0, 3) {
            1 => Job::StaticFix(Publish::draw(&mut rng, pool)),
            2 => Job::Explore(pool),
            3 if reach > 0 => {
                let newest = i - i % SESSION - SESSION;
                let mut j = rng.range((newest - reach) as u64, newest as u64 - 1) as usize;
                while let Job::Resubmit(k) = jobs[j] {
                    j = k;
                }
                Job::Resubmit(j)
            }
            _ => Job::ColdFix(Publish::draw(&mut rng, pool)),
        });
    }
    jobs
}

/// The spec of job `i` of `jobs`, and the index of its original.
pub fn spec(jobs: &[Job], i: usize) -> (JobSpec, usize) {
    let fix = |p: &Publish, source: &str| JobSpec {
        bug_source: source.to_string(),
        ..JobSpec::new(JobKind::Fix, vec![(p.file_name(), p.source())])
    };
    match &jobs[i] {
        Job::ColdFix(p) => (fix(p, "dynamic"), i),
        Job::StaticFix(p) => (fix(p, "static"), i),
        Job::Explore(seed) => (
            JobSpec {
                entry: pmapps::pclht::ENTRY.to_string(),
                budget: EXPLORE_BUDGET,
                seed: *seed,
                ..JobSpec::new(
                    JobKind::Explore,
                    vec![
                        ("libpmem.pmc".to_string(), minipmdk::LIBPMEM_SRC.to_string()),
                        ("pobj.pmc".to_string(), minipmdk::POBJ_SRC.to_string()),
                        ("pclht.pmc".to_string(), pmapps::pclht::SRC.to_string()),
                    ],
                )
            },
            i,
        ),
        Job::Resubmit(j) => spec(jobs, *j),
    }
}

/// One session on one connection, the timed operation: submits jobs
/// `first..first + SESSION`, then waits for each in turn. Returns each
/// job as the client saw it, its latency running from its submit to the
/// view that showed it finished.
fn session(c: &mut Client, jobs: &[Job], first: usize, tracer: &Tracer, req: u64) -> Vec<Done> {
    let submitted: Vec<(usize, Instant, Result<String, String>)> = (first..first + SESSION)
        .map(|i| {
            let t = Instant::now();
            let spec = spec(jobs, i).0;
            let id = tracer.span("hippod.submit", req, || c.submit_retry(spec, TIMEOUT));
            (i, t, id)
        })
        .collect();
    submitted
        .into_iter()
        .map(|(index, t, id)| {
            let view = id.and_then(|id| tracer.span("hippod.wait", req, || c.wait(&id, TIMEOUT)));
            Done {
                index,
                lat_ms: ms(t.elapsed()),
                served: Served::from_view(view),
            }
        })
        .collect()
}

pub struct ServeMixed {
    dir: PathBuf,
    socket: PathBuf,
    journal: PathBuf,
    jobs: Vec<Job>,
    /// Index of this segment's first job.
    first: usize,
    daemon: JoinHandle<Result<ServeReport, String>>,
}

static SETUPS: AtomicU64 = AtomicU64::new(0);

/// Each session's end (s since the clients started) and time (ms).
type Sessions = Vec<(f64, f64)>;

/// What the clients saw: every job, every session, and the process's
/// peak RSS in MB when the first [`WINDOW`] sessions had ended.
type ClientRun = (Vec<Done>, Sessions, Option<f64>);

/// One finished job as a client saw it.
struct Done {
    index: usize,
    lat_ms: f64,
    served: Result<Served, String>,
}

/// A served artifact, reduced to what the checks need.
struct Served {
    digest: u64,
    bytes: usize,
    cached: bool,
}

impl Served {
    fn from_view(v: Result<JobView, String>) -> Result<Served, String> {
        let v = v?;
        match (v.state, v.result) {
            (JobState::Done, Some(r)) if r.clean => Ok(Served {
                digest: pmir::snapshot::fnv1a(r.output.as_bytes()),
                bytes: r.output.len(),
                cached: r.cached,
            }),
            (JobState::Done, Some(_)) => Err("served result is not clean".to_string()),
            (state, _) => Err(format!("ended {state}: {:?}", v.error)),
        }
    }
}

/// The standalone library result of `spec`: digest, length and ms.
fn library(spec: &JobSpec) -> Result<(u64, usize, f64), String> {
    let t = Instant::now();
    let r = hippod::execute(spec, &WarmCache::default(), &pmobs::Obs::default())?;
    Ok((
        pmir::snapshot::fnv1a(r.output.as_bytes()),
        r.output.len(),
        ms(t.elapsed()),
    ))
}

/// Frames a counting relay saw from the clients.
#[derive(Default)]
struct Frames {
    submits: AtomicU64,
    statuses: AtomicU64,
}

/// Forwards client frames to the daemon, counting submits and status
/// polls, until the client hangs up.
fn relay_requests(
    mut from: UnixStream,
    mut to: UnixStream,
    frames: &Frames,
) -> std::io::Result<()> {
    let mut len = [0u8; 4];
    let mut payload = Vec::new();
    while from.read_exact(&mut len).is_ok() {
        payload.resize(u32::from_be_bytes(len) as usize, 0);
        from.read_exact(&mut payload)?;
        let head = &payload[..payload.len().min(64)];
        let has = |tag: &[u8]| head.windows(tag.len()).any(|w| w == tag);
        if has(b"\"request\":{\"Submit\"") {
            frames.submits.fetch_add(1, Ordering::Relaxed);
        } else if has(b"\"request\":{\"Status\"") {
            frames.statuses.fetch_add(1, Ordering::Relaxed);
        }
        to.write_all(&len)?;
        to.write_all(&payload)?;
    }
    to.shutdown(std::net::Shutdown::Write)
}

impl ServeMixed {
    /// Runs the two closed-loop clients against `endpoint` until `until`
    /// counts sessions; returns every job, and every session's end (s since
    /// the start) and time (ms).
    fn clients(&self, endpoint: &Path, until: Until, tracer: &Tracer) -> Result<ClientRun, String> {
        let next = AtomicU64::new(0);
        let done = Mutex::new((Vec::new(), Vec::new(), None));
        let started = Instant::now();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| -> Result<(), String> {
                        let mut c = Client::connect(endpoint)?;
                        // A dead daemon or relay turns into an error, not a hang.
                        c.set_io_timeout(Some(TIMEOUT))?;
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let first = self.first + k as usize * SESSION;
                            if until.done(started, k, WINDOW as u64)
                                || first + SESSION > self.jobs.len()
                            {
                                return Ok(());
                            }
                            let t = Instant::now();
                            let jobs = tracer.span("serve.session", k, || {
                                session(&mut c, &self.jobs, first, tracer, k)
                            });
                            let session_ms = ms(t.elapsed());
                            let mut d = done
                                .lock()
                                .expect("result list poisoned by a panicking client");
                            d.0.extend(jobs);
                            d.1.push((started.elapsed().as_secs_f64(), session_ms));
                            if d.1.len() == WINDOW {
                                d.2 = stats::peak_rss_mb();
                            }
                            drop(d);
                            crate::speed::sample_if_due();
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|w| w.join().map_err(|_| "client thread panicked".to_string())?)
        })?;
        let (mut jobs, sessions, rss) = done.into_inner().map_err(|_| "result list poisoned")?;
        jobs.sort_by_key(|d| d.index);
        Ok((jobs, sessions, rss))
    }

    /// [`ServeMixed::clients`] through a relay that counts request frames.
    fn clients_relayed(
        &self,
        until: Until,
        tracer: &Tracer,
    ) -> Result<(ClientRun, Frames), String> {
        let relay = self.dir.join("relay.sock");
        let _ = std::fs::remove_file(&relay);
        let listener = UnixListener::bind(&relay).map_err(|e| format!("relay bind: {e}"))?;
        let frames = Frames::default();
        let done = std::thread::scope(|s| {
            let accept = s.spawn(|| -> std::io::Result<()> {
                for _ in 0..CLIENTS {
                    let (client, _) = listener.accept()?;
                    let daemon = UnixStream::connect(&self.socket)?;
                    let (mut back_from, mut back_to) = (daemon.try_clone()?, client.try_clone()?);
                    let frames = &frames;
                    s.spawn(move || relay_requests(client, daemon, frames));
                    s.spawn(move || {
                        let r = std::io::copy(&mut back_from, &mut back_to);
                        let _ = back_to.shutdown(std::net::Shutdown::Write);
                        r
                    });
                }
                Ok(())
            });
            let done = self.clients(&relay, until, tracer);
            accept
                .join()
                .map_err(|_| "relay panicked".to_string())?
                .map_err(|e| format!("relay: {e}"))?;
            done
        })?;
        Ok((done, frames))
    }
}

impl Workload for ServeMixed {
    const ROOT: &'static str = "serve.session";

    fn setup(seed: u64, segment: usize) -> Result<Self, String> {
        let n = SETUPS.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(RUN_DIR).join(format!("serve-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let journal = dir.join("jobs.journal");
        let cfg = ServerConfig {
            socket: socket.clone(),
            journal: Some(journal.clone()),
            workers: WORKERS,
            ..ServerConfig::default()
        };
        assert_obs_disabled(&cfg.obs);
        let daemon = std::thread::spawn(move || hippod::serve(cfg));
        let mut c = Client::connect_retry(&socket, Duration::from_secs(10))?;
        // Warm-up jobs come from another stream whose pools and explore
        // seeds the timed stream never uses, so they warm the daemon, not
        // its caches. All
        // are queued before any is waited for, so set-up time is the
        // daemon's work, not a sum of 10 ms polls.
        let warm = stream(seed ^ 0x5EED, WARMUP, 1_000_000);
        let ids = (0..WARMUP)
            .map(|i| c.submit_retry(spec(&warm, i).0, TIMEOUT))
            .collect::<Result<Vec<_>, _>>()?;
        for id in ids {
            let v = c.wait(&id, TIMEOUT)?;
            if v.state != JobState::Done {
                return Err(format!("warm-up job {id} ended {}: {:?}", v.state, v.error));
            }
        }
        Ok(ServeMixed {
            dir,
            socket,
            journal,
            jobs: stream(seed, STREAM, 1000),
            first: (segment * SEGMENT_JOBS) % STREAM,
            daemon,
        })
    }

    fn measure(&mut self, until: Until, tracer: &Tracer) -> Measured {
        let mut out = Measured::default();
        let journal_before = std::fs::metadata(&self.journal).map_or(0, |m| m.len());
        let run = if tracer.is_on() {
            self.clients_relayed(until, tracer)
                .map(|(c, f)| (c, Some(f)))
        } else {
            self.clients(&self.socket, until, tracer).map(|c| (c, None))
        };
        let ((done, mut sessions, rss), frames) = match run {
            Ok(v) => v,
            Err(e) => {
                out.fail(e);
                return out;
            }
        };
        // The daemon keeps every job it served, so its footprint grows
        // with the jobs a segment gets through, which a faster host makes
        // more; the peak is read at a fixed point of the stream instead.
        out.peak_rss_mb.extend(rss);
        let journal_bytes =
            std::fs::metadata(&self.journal).map_or(0, |m| m.len()) - journal_before;

        // Untimed: every served artifact against the standalone library
        // result for the same spec. The traced run computes them on one
        // thread, so their times are fit to subtract from job latencies.
        let originals: Vec<usize> = done
            .iter()
            .map(|d| spec(&self.jobs, d.index).1)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let threads = if tracer.is_on() { 1 } else { CLIENTS };
        let jobs = &self.jobs;
        let references: std::collections::BTreeMap<usize, Result<(u64, usize, f64), String>> =
            std::thread::scope(|s| {
                let parts: Vec<_> = (0..threads)
                    .map(|t| {
                        let mine: Vec<usize> =
                            originals.iter().copied().skip(t).step_by(threads).collect();
                        s.spawn(move || {
                            mine.into_iter()
                                .map(|o| (o, library(&spec(jobs, o).0)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                parts
                    .into_iter()
                    .flat_map(|p| p.join().unwrap_or_default())
                    .collect()
            });
        let (mut cached, mut result_bytes, mut served_digest) = (0u64, 0u64, 0u64);
        // Jobs and cache hits per kind, by the kind of the job as drawn.
        let mut by_kind: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
        let mut overhead = Vec::new();
        for d in &done {
            let original = spec(&self.jobs, d.index).1;
            let checked = match (&d.served, references.get(&original)) {
                (Err(e), _) => Err(e.clone()),
                (_, None) => Err("no library reference".to_string()),
                (_, Some(Err(e))) => Err(format!("library run failed: {e}")),
                (Ok(s), Some(Ok((digest, len, lib_ms)))) => {
                    if (s.digest, s.bytes) == (*digest, *len) {
                        cached += u64::from(s.cached);
                        let k = by_kind.entry(self.jobs[d.index].kind()).or_default();
                        *k = (k.0 + 1, k.1 + u64::from(s.cached));
                        result_bytes += s.bytes as u64;
                        // Cold jobs only: a cache hit skips the library work.
                        if !s.cached {
                            overhead.push(d.lat_ms - lib_ms);
                        }
                        if d.index < self.first + EXACT_JOBS {
                            served_digest = served_digest.rotate_left(5) ^ s.digest;
                        }
                        Ok(())
                    } else {
                        Err("served artifact differs from the library result".to_string())
                    }
                }
            };
            out.count(
                checked
                    .map_err(|e| format!("job {} ({}): {e}", d.index, self.jobs[d.index].kind())),
            );
        }
        // A window is WINDOW sessions in order of completion; its time is
        // the wall-clock time during which at least one of them ran, so
        // ops_per_s is sessions completed per second with both clients.
        sessions.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in sessions.chunks_exact(WINDOW) {
            let spans: Vec<(f64, f64)> = w.iter().map(|&(end, ms)| (end - ms / 1e3, end)).collect();
            let lat: Vec<f64> = w.iter().map(|s| s.1).collect();
            out.push_window(&lat, stats::union_s(spans));
        }
        for (kind, (n, hits)) in by_kind {
            out.shares
                .insert(format!("cache hits, {kind} jobs"), (hits, n));
        }
        out.inner_ms = done.iter().map(|d| d.lat_ms).collect();
        let n = done.len().max(1) as f64;
        out.exact.insert(
            format!("served_digest.first_{EXACT_JOBS}_jobs"),
            format!("{served_digest:016x}"),
        );
        if let Some(frames) = frames {
            let l = &mut out.layers;
            l.insert(
                "hippod.submit_ms",
                crate::trace::Spans::new(tracer.spans()).mean_ms("hippod.submit"),
            );
            l.insert(
                "hippod.busy_retries",
                (frames.submits.load(Ordering::Relaxed) as f64 - n).max(0.0) / n,
            );
            l.insert(
                "hippod.status_polls_per_job",
                frames.statuses.load(Ordering::Relaxed) as f64 / n,
            );
            l.insert("hippod.cache_hit_ratio", cached as f64 / n);
            l.insert("hippod.result_bytes", result_bytes as f64 / n);
            l.insert("hippod.journal_bytes_per_job", journal_bytes as f64 / n);
            l.insert("hippod.overhead_ms", stats::mean(&overhead));
            if let Err(e) = self.drive_stages(&done, tracer, &mut out) {
                out.fail(e);
            }
        }
        out
    }

    fn finish(self) -> Result<(), String> {
        let shutdown = Client::connect(&self.socket).and_then(|mut c| c.shutdown());
        let report = self
            .daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        shutdown?;
        let report = report?;
        let _ = std::fs::remove_dir_all(&self.dir);
        if report.failed > 0 {
            return Err(format!("daemon finished {} failed job(s)", report.failed));
        }
        Ok(())
    }
}

impl ServeMixed {
    /// Traced run only: drives the layers of up to [`STAGE_DRIVES`]
    /// distinct specs of each kind the run served, stage by stage.
    fn drive_stages(
        &self,
        done: &[Done],
        tracer: &Tracer,
        out: &mut Measured,
    ) -> Result<(), String> {
        let mut fixes = Vec::new();
        let mut explores = Vec::new();
        let (mut static_ms, mut rounds, mut compile_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut seen = std::collections::BTreeSet::new();
        for d in done {
            let (spec, original) = spec(&self.jobs, d.index);
            if !seen.insert(original) {
                continue;
            }
            let req = d.index as u64;
            let t = Instant::now();
            let m = tracer.span("pmlang.compile", req, || {
                spec.sources
                    .iter()
                    .fold(pmlang::Compiler::new(), |c, (n, t)| {
                        c.source(n.clone(), t.clone())
                    })
                    .compile()
            });
            compile_ms.push(ms(t.elapsed()));
            let m = m.map_err(|e| e.to_string())?;
            match self.jobs[original] {
                Job::ColdFix(_) if fixes.len() < STAGE_DRIVES => {
                    fixes.push(crate::fix::drive_stages(m, &spec.entry, tracer, req)?);
                }
                Job::StaticFix(_) if static_ms.len() < STAGE_DRIVES => {
                    let t = Instant::now();
                    let r = tracer.span("pmstatic.check", req, || {
                        let checker = pmstatic::StaticChecker::new(&m);
                        checker
                            .check(&spec.entry)
                            .map(|_| checker.fixpoint_rounds())
                    });
                    static_ms.push(ms(t.elapsed()));
                    rounds.push(r.map_err(|e| e.message)? as f64);
                }
                Job::Explore(_) if explores.len() < STAGE_DRIVES => {
                    let opts = pmexplore::ExploreOptions {
                        budget: spec.budget as usize,
                        seed: spec.seed,
                        ..pmexplore::ExploreOptions::default()
                    };
                    let (s, report) =
                        crate::explore::drive_stages(&m, &spec.entry, &opts, tracer, req)?;
                    explores.push(s);
                    out.layers
                        .insert("pmexplore.candidates", report.stats.candidates as f64);
                    out.layers.insert(
                        "pmexplore.distinct_ratio",
                        report.stats.distinct_states as f64 / report.stats.candidates.max(1) as f64,
                    );
                }
                _ => {}
            }
        }
        let l = &mut out.layers;
        l.insert("pmlang.compile_ms", stats::mean(&compile_ms));
        crate::explore::stage_layers(l, &explores);
        crate::fix::stage_layers(l, &fixes);
        l.insert("pmstatic.check_ms", stats::mean(&static_ms));
        l.insert("pmstatic.fixpoint_rounds", stats::mean(&rounds));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_mixes_every_kind() {
        let a = stream(9, 400, 0);
        assert_eq!(a, stream(9, 400, 0));
        assert_ne!(a, stream(10, 400, 0));
        for kind in ["cold_fix", "static_fix", "explore", "resubmit"] {
            assert!(a.iter().any(|j| j.kind() == kind), "{kind}");
        }
    }

    #[test]
    fn only_resubmits_repeat_and_they_reach_finished_sessions() {
        let jobs = stream(3, 2 * SEGMENT_JOBS, 0);
        let mut explore_seeds = std::collections::BTreeSet::new();
        for (i, job) in jobs.iter().enumerate() {
            match job {
                Job::Explore(seed) => assert!(explore_seeds.insert(*seed), "seed {seed} repeats"),
                Job::Resubmit(j) => {
                    let session_start = i - i % SESSION;
                    assert!(
                        *j < session_start - SESSION,
                        "job {i} repeats a running session"
                    );
                    assert_eq!(
                        j / SEGMENT_JOBS,
                        i / SEGMENT_JOBS,
                        "job {i} leaves its segment"
                    );
                    assert_ne!(jobs[*j].kind(), "resubmit");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn two_runs_at_one_seed_serve_identical_artifacts() {
        let run = |seed| {
            let mut w = ServeMixed::setup(seed, 0).expect("setup");
            let m = w.measure(Until::Ops(2), &Tracer::new(false));
            w.finish().expect("daemon stops cleanly");
            assert_eq!(m.failed, 0, "{:?}", m.failures);
            m.exact
        };
        let a = run(4);
        assert_eq!(a, run(4));
        assert_ne!(a, run(5));
    }
}
