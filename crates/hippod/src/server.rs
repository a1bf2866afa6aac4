//! The daemon: accept loop, worker pool, job registry, hostile-network
//! posture, and graceful shutdown.
//!
//! # Operational posture
//!
//! - **A failed job never takes down the daemon or its siblings.** The
//!   worker body runs under `catch_unwind`; a panic (including one injected
//!   at the [`pmfault::FaultSite::DaemonWorker`] boundary) marks *that* job
//!   `Failed` with a structured error and the worker moves on.
//! - **A broken connection never takes down the daemon either.** Torn,
//!   oversized, or garbage frames get a structured error and a close; a
//!   peer idle past the idle timeout is closed quietly; a peer stalling
//!   mid-frame trips the read deadline; a stalled *reader* trips the write
//!   deadline. Each connection owns one handler thread, so none of this
//!   blocks anyone else. Past `max_conns`, new connections are shed with
//!   `Busy` instead of accepted.
//! - **Acknowledged means durable.** `Submitted` is journaled and synced
//!   before the client sees `Accepted`; terminal states are journaled with
//!   their full result. `kill -9` at any point loses at most unacknowledged
//!   work; a restart — or a hot standby that wins the journal flock — re-
//!   queues every in-flight job and serves every finished one from the
//!   journal, byte-identically.
//! - **Backpressure is explicit.** A full queue answers `Busy` with a
//!   retry-after hint; nothing blocks.
//! - **Memory is bounded.** Chunked uploads are capped by `upload_budget`;
//!   warm caches evict LRU under `cache_budget`.
//! - **Graceful shutdown drains.** `Shutdown` stops new submissions,
//!   queued and running jobs run to their journaled conclusion, then the
//!   daemon removes its socket and exits.

use crate::jobs::{
    execute, execute_shard, job_digest, JobResult, JobSpec, JobState, JobView, ShardDone,
};
use crate::journal::{is_fenced, replay, JobEvent, JobJournal, Replayed};
use crate::proto::{
    read_frame_idle, write_frame, FrameIn, Health, Request, RequestFrame, Response, ResponseFrame,
    JOBS_SCHEMA, JOBS_SCHEMA_V1,
};
use crate::queue::JobQueue;
use crate::shard::{self, Campaign, Degradation};
use crate::transport::{Conn, Endpoint, Listener};
use hippocrates::WarmCache;
use pmfault::{FaultKind, FaultSite, Injector};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Daemon configuration.
pub struct ServerConfig {
    /// The Unix domain socket to listen on (when `listen` is unset).
    pub socket: PathBuf,
    /// A TCP address (`host:port`) to listen on instead of the Unix
    /// socket. `host:0` picks an ephemeral port, reported via `ready`.
    pub listen: Option<String>,
    /// Write-ahead job journal; `None` runs without crash resumability.
    pub journal: Option<PathBuf>,
    /// Start as a hot standby: bind the endpoint, answer health/ping, and
    /// poll for the journal flock; take over (replay + re-queue) the
    /// moment the primary dies. Requires `journal`.
    pub standby: bool,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Live-connection cap; connections past it are shed with `Busy`.
    pub max_conns: usize,
    /// Warm-cache byte budget; `None` is unbounded.
    pub cache_budget: Option<u64>,
    /// Ceiling on bytes staged by chunked uploads, per connection.
    pub upload_budget: u64,
    /// Per-read/per-write socket deadline: a peer stalling mid-frame (or
    /// never draining its responses) errors out instead of wedging a
    /// handler.
    pub io_timeout: Duration,
    /// A connection quiet for this long between frames is closed.
    pub idle_timeout: Duration,
    /// Fault plan armed at the queue/worker boundary
    /// ([`FaultSite::DaemonWorker`], keyed by submission index) and at the
    /// connection boundary (the `net.*` sites, keyed by accept index).
    pub fault: Option<pmfault::FaultPlan>,
    /// Observability; `serve.*` counters and per-job spans record here.
    pub obs: pmobs::Obs,
    /// Reports the bound address once listening — how callers learn the
    /// real port behind `--listen host:0`.
    pub ready: Option<std::sync::mpsc::Sender<String>>,
    /// Campaign shard lease TTL: a worker that stops heartbeating for this
    /// long loses its shard to the reaper.
    pub lease_ttl_ms: u64,
    /// Per-shard wall-clock watchdog: a shard still executing past this is
    /// abandoned (its lease expires; the reaper reassigns it).
    pub shard_watchdog_ms: u64,
    /// Reassignments per shard after the first attempt; past the budget
    /// the shard is quarantined (poison-shard detection).
    pub lease_retries: u32,
    /// Journal event count above which startup (and takeover) compacts the
    /// journal before replaying onward.
    pub compact_threshold: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            socket: PathBuf::from("hippod.sock"),
            listen: None,
            journal: None,
            standby: false,
            workers: 4,
            queue_capacity: 64,
            max_conns: 64,
            cache_budget: None,
            upload_budget: 256 * 1024 * 1024,
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            fault: None,
            obs: pmobs::Obs::default(),
            ready: None,
            lease_ttl_ms: 2_000,
            shard_watchdog_ms: 30_000,
            lease_retries: 3,
            compact_threshold: 4_096,
        }
    }
}

/// What `serve` reports once the daemon exits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Jobs re-queued from the journal at startup (or standby takeover).
    pub resumed: u64,
    /// Terminal jobs at exit, by state.
    pub done: u64,
    pub failed: u64,
    pub canceled: u64,
}

struct State {
    jobs: Mutex<BTreeMap<String, JobView>>,
    specs: Mutex<HashMap<String, JobSpec>>,
    /// In-flight sharded campaigns, keyed by job id. Lock order: campaigns
    /// before journal, never the reverse.
    campaigns: Mutex<HashMap<String, Campaign>>,
    queue: JobQueue,
    journal: Mutex<Option<JobJournal>>,
    cache: WarmCache,
    /// Serializes the check-capacity → journal → enqueue sequence so the
    /// bounded queue can never overfill between check and push.
    submit_gate: Mutex<()>,
    next_id: AtomicU64,
    submit_index: AtomicU64,
    draining: AtomicBool,
    standby: AtomicBool,
    /// Set once the accept loop exits: background threads (reaper,
    /// election) wind down.
    stopping: AtomicBool,
    /// The election epoch this daemon serves at (0 journal-less).
    epoch: AtomicU64,
    resumed: AtomicU64,
    connections: AtomicU64,
    /// One-shot latch for the injected rival-primary fault
    /// ([`FaultSite::ShardElection`]): `fires_at` is stateless, and a
    /// deposed primary that later re-wins the election would otherwise
    /// re-inject the same rival forever.
    election_fault_fired: AtomicBool,
    /// The scheduler's monotonic clock origin; `now_ms` is elapsed since.
    started: std::time::Instant,
    workers: usize,
    queue_capacity: usize,
    max_conns: usize,
    upload_budget: u64,
    io_timeout: Duration,
    idle_timeout: Duration,
    lease_ttl_ms: u64,
    shard_watchdog_ms: u64,
    lease_retries: u32,
    fault: Option<Injector>,
    obs: pmobs::Obs,
}

impl State {
    /// Milliseconds on the scheduler's monotonic clock — the `now_ms` every
    /// lease-table call uses.
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn journal_event(&self, ev: &JobEvent) -> Result<(), String> {
        let result = match &mut *self.journal.lock().unwrap_or_else(|e| e.into_inner()) {
            None => Ok(()),
            Some(j) => j.append(ev),
        };
        if let Err(e) = &result {
            if is_fenced(e) {
                self.demote(e);
            }
        }
        result
    }

    /// A fenced append means a rival primary holds the journal: stop
    /// serving, release the flock, drop in-flight campaign state (the
    /// successor re-runs it from the journal), and go contend in the
    /// election loop like any other standby.
    fn demote(&self, why: &str) {
        if self.standby.swap(true, Ordering::SeqCst) {
            return; // already demoted
        }
        *self.journal.lock().unwrap_or_else(|e| e.into_inner()) = None;
        self.campaigns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.obs.add("serve.demotions", 1);
        eprintln!("hippod: deposed primary demoting to standby: {why}");
    }

    fn view(&self, id: &str) -> Option<JobView> {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(id)
            .cloned()
    }

    fn set_state(
        &self,
        id: &str,
        state: JobState,
        error: Option<String>,
        result: Option<JobResult>,
    ) {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(v) = jobs.get_mut(id) {
            v.state = state;
            v.error = error;
            v.result = result;
        }
    }

    /// Journals a terminal transition with its full view.
    fn finish(&self, id: &str, state: JobState, error: Option<String>, result: Option<JobResult>) {
        self.set_state(id, state, error.clone(), result.clone());
        if let Some(view) = self.view(id) {
            if let Err(e) = self.journal_event(&JobEvent::Finished { view }) {
                eprintln!("hippod: journal append failed for {id}: {e}");
            }
        }
        self.obs.add(&format!("serve.jobs.{state}"), 1);
    }

    fn counts(&self) -> (u64, u64, u64, u64, u64) {
        let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let mut c = (0, 0, 0, 0, 0);
        for v in jobs.values() {
            match v.state {
                JobState::Queued => c.0 += 1,
                JobState::Running => c.1 += 1,
                JobState::Done => c.2 += 1,
                JobState::Failed => c.3 += 1,
                JobState::Canceled => c.4 += 1,
            }
        }
        c
    }

    fn health(&self) -> Health {
        let (queued, running, done, failed, canceled) = self.counts();
        let (cache_hits, cache_misses) = self.cache.stats();
        let result_hits = self
            .obs
            .snapshot()
            .counters
            .get("serve.results.hit")
            .copied()
            .unwrap_or(0);
        Health {
            ok: true,
            draining: self.draining.load(Ordering::SeqCst),
            queued,
            running,
            done,
            failed,
            canceled,
            queue_capacity: self.queue_capacity as u64,
            workers: self.workers as u64,
            cache_hits: cache_hits + result_hits,
            cache_misses,
            resumed: self.resumed.load(Ordering::SeqCst),
            connections: self.connections.load(Ordering::SeqCst),
            cache_bytes: self.cache.bytes(),
            cache_evictions: self.cache.evictions(),
            standby: self.standby.load(Ordering::SeqCst),
            epoch: self.epoch.load(Ordering::SeqCst),
        }
    }

    /// Looks up a finished result in the bounded blob cache.
    fn cached_result(&self, digest: u64) -> Option<JobResult> {
        self.cache
            .blob(digest)
            .and_then(|s| serde_json::from_str(&s).ok())
    }

    fn store_result(&self, digest: u64, result: &JobResult) {
        if let Ok(s) = serde_json::to_string(result) {
            self.cache.store_blob(digest, s, &self.obs);
        }
    }
}

/// Seeds the whole-result blob cache from replayed terminal jobs: a
/// finished campaign stays warm across daemon restarts and failovers.
fn seed_results(state: &State, jobs: &BTreeMap<String, JobView>, specs: &HashMap<String, JobSpec>) {
    for view in jobs.values() {
        if let (JobState::Done, Some(result), Some(spec)) =
            (view.state, view.result.as_ref(), specs.get(&view.id))
        {
            state.store_result(job_digest(spec), result);
        }
    }
}

/// Runs the daemon until a graceful `Shutdown` request completes its
/// drain.
///
/// # Errors
///
/// Fails on a held journal lock (naming the holder's pid) unless
/// `standby`, a live Unix socket, bind errors, and a standby without a
/// journal.
pub fn serve(config: ServerConfig) -> Result<ServeReport, String> {
    let obs = config.obs.clone();
    let _span = obs.span("serve.lifetime");

    let endpoint = match &config.listen {
        Some(addr) => Endpoint::Tcp(addr.clone()),
        None => Endpoint::Unix(config.socket.clone()),
    };

    // Open + replay the journal first: a held lock must refuse a primary
    // before it touches the socket. A standby *expects* the lock to be
    // held — it binds immediately and contends in the election loop
    // instead.
    let mut replayed = Replayed::default();
    let mut initial_epoch = 0u64;
    let journal = if config.standby {
        if config.journal.is_none() {
            return Err("--standby requires a journal to watch".to_string());
        }
        None
    } else {
        match &config.journal {
            None => None,
            Some(path) => {
                let (mut journal, events) = JobJournal::open(path)?;
                if events.len() >= config.compact_threshold {
                    let dropped = journal.compact(&events)?;
                    obs.add("serve.journal.compacted", dropped);
                }
                // Claim the primaryship: the epoch record fences any
                // deposed predecessor that still believes it holds the
                // journal.
                initial_epoch = journal.elect()?;
                replayed = replay(events);
                Some(journal)
            }
        }
    };
    let resumed = replayed.pending.len() as u64;
    obs.add("serve.jobs.resumed", resumed);

    let listener = Listener::bind(&endpoint)?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("socket: {e}"))?;
    if let Some(ready) = &config.ready {
        let _ = ready.send(listener.local_addr());
    }

    let cache = match config.cache_budget {
        Some(budget) => WarmCache::with_budget(budget),
        None => WarmCache::enabled(),
    };
    let state = Arc::new(State {
        jobs: Mutex::new(std::mem::take(&mut replayed.jobs)),
        specs: Mutex::new(std::mem::take(&mut replayed.specs)),
        campaigns: Mutex::new(HashMap::new()),
        queue: JobQueue::new(config.queue_capacity),
        journal: Mutex::new(journal),
        cache,
        submit_gate: Mutex::new(()),
        next_id: AtomicU64::new(replayed.max_id + 1),
        submit_index: AtomicU64::new(0),
        draining: AtomicBool::new(false),
        standby: AtomicBool::new(config.standby),
        stopping: AtomicBool::new(false),
        epoch: AtomicU64::new(initial_epoch),
        resumed: AtomicU64::new(resumed),
        connections: AtomicU64::new(0),
        election_fault_fired: AtomicBool::new(false),
        started: std::time::Instant::now(),
        workers: config.workers.max(1),
        queue_capacity: config.queue_capacity,
        max_conns: config.max_conns.max(1),
        upload_budget: config.upload_budget,
        io_timeout: config.io_timeout,
        idle_timeout: config.idle_timeout,
        lease_ttl_ms: config.lease_ttl_ms.max(1),
        shard_watchdog_ms: config.shard_watchdog_ms.max(1),
        lease_retries: config.lease_retries,
        fault: config.fault.map(|p| Injector::with_obs(p, obs.clone())),
        obs: obs.clone(),
    });
    {
        let jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let specs = state.specs.lock().unwrap_or_else(|e| e.into_inner());
        seed_results(&state, &jobs, &specs);
    }

    // In-flight jobs resume before any new submission, in submission
    // order; sharded campaigns resume with their journaled shard results
    // pre-seeded.
    resume_pending(&state, &mut replayed);

    let workers: Vec<_> = (0..state.workers)
        .map(|w| {
            let state = state.clone();
            std::thread::spawn(move || worker_loop(&state, w))
        })
        .collect();

    let reaper = {
        let state = state.clone();
        std::thread::spawn(move || reaper_loop(&state))
    };

    // The election loop runs for the daemon's whole life whenever a
    // journal is configured: a standby contends for the primaryship, and
    // a deposed primary (epoch-fenced by a rival) re-enters standby and
    // contends again.
    let election = config.journal.clone().map(|path| {
        let state = state.clone();
        let threshold = config.compact_threshold;
        std::thread::spawn(move || election_loop(&state, &path, threshold))
    });

    // Accept loop. Nonblocking + sleep keeps it responsive to the drain
    // flag without platform-specific polling.
    let mut conn_index = 0u64;
    loop {
        match listener.accept() {
            Ok(conn) => {
                let index = conn_index;
                conn_index += 1;
                let live = state.connections.fetch_add(1, Ordering::SeqCst) + 1;
                state.obs.add("serve.conns.accepted", 1);
                let state = state.clone();
                std::thread::spawn(move || {
                    let _guard = ConnGuard(state.clone());
                    let _ = conn.set_read_timeout(Some(state.io_timeout));
                    let _ = conn.set_write_timeout(Some(state.io_timeout));
                    if live > state.max_conns as u64 {
                        // Shed: the daemon is at its connection cap.
                        state.obs.add("serve.conns.shed", 1);
                        let mut conn = conn;
                        let _ = write_frame(
                            &mut conn,
                            &ResponseFrame::new(Response::Busy {
                                retry_after_ms: 100,
                            }),
                        );
                        conn.shutdown();
                        return;
                    }
                    handle_connection(conn, &state, index);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if state.draining.load(Ordering::SeqCst) {
                    // A standby (including a deposed primary) has nothing
                    // to drain — its journaled pending work belongs to
                    // whoever holds the journal now.
                    if state.standby.load(Ordering::SeqCst) {
                        break;
                    }
                    let (queued, running, ..) = state.counts();
                    if queued == 0 && running == 0 && state.queue.is_empty() {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                // A transient accept failure must not kill the daemon.
                state.obs.add("serve.accept.errors", 1);
                let _ = e;
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    state.stopping.store(true, Ordering::SeqCst);
    state.queue.close();
    for w in workers {
        let _ = w.join();
    }
    let _ = reaper.join();
    if let Some(t) = election {
        let _ = t.join();
    }
    // Release the journal (and its flock) before returning: detached
    // connection handlers may keep the state alive past this point, and a
    // successor must not lose the election to a ghost of this daemon.
    drop(
        state
            .journal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take(),
    );
    if let Endpoint::Unix(path) = &endpoint {
        let _ = std::fs::remove_file(path);
    }
    let (_, _, done, failed, canceled) = state.counts();
    Ok(ServeReport {
        resumed: state.resumed.load(Ordering::SeqCst),
        done,
        failed,
        canceled,
    })
}

/// Decrements the live-connection gauge when a handler exits, however it
/// exits.
struct ConnGuard(Arc<State>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The election: any number of standbys (and deposed primaries) poll for
/// the journal flock. The flock acquisition *is* the election primitive —
/// exactly one contender's `JobJournal::open` succeeds — and the appended
/// `Epoch` record makes the win durable and fences the loser's stale
/// writes. Winners replay, re-queue unfinished jobs (campaigns resume
/// with journaled shard results pre-seeded), and start serving; losers
/// keep polling. The loop never exits on a win: if this primary is later
/// deposed, it demotes and contends again.
fn election_loop(state: &State, path: &std::path::Path, compact_threshold: usize) {
    loop {
        if state.stopping.load(Ordering::SeqCst) || state.draining.load(Ordering::SeqCst) {
            return;
        }
        if !state.standby.load(Ordering::SeqCst) {
            // Currently the primary; nothing to contend for.
            std::thread::sleep(Duration::from_millis(25));
            continue;
        }
        match JobJournal::open(path) {
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
            Ok((mut journal, events)) => {
                if events.len() >= compact_threshold {
                    if let Ok(dropped) = journal.compact(&events) {
                        state.obs.add("serve.journal.compacted", dropped);
                    }
                }
                let Ok(epoch) = journal.elect() else {
                    // Fenced in the open→elect window; drop the handle and
                    // re-poll.
                    continue;
                };
                let mut replayed = replay(events);
                {
                    let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
                    for (id, view) in &replayed.jobs {
                        jobs.insert(id.clone(), view.clone());
                    }
                }
                {
                    let mut specs = state.specs.lock().unwrap_or_else(|e| e.into_inner());
                    for (id, spec) in &replayed.specs {
                        specs.insert(id.clone(), spec.clone());
                    }
                }
                seed_results(state, &replayed.jobs, &replayed.specs);
                let floor = state.next_id.load(Ordering::SeqCst);
                state
                    .next_id
                    .store((replayed.max_id + 1).max(floor), Ordering::SeqCst);
                state
                    .resumed
                    .store(replayed.pending.len() as u64, Ordering::SeqCst);
                state.epoch.store(epoch, Ordering::SeqCst);
                *state.journal.lock().unwrap_or_else(|e| e.into_inner()) = Some(journal);
                // Open for business *before* re-queueing, so the worker
                // pool picks the resumed work up instead of skipping it.
                state.standby.store(false, Ordering::SeqCst);
                resume_pending(state, &mut replayed);
                state.obs.add("serve.standby.takeovers", 1);
                state.obs.add("serve.elections.won", 1);
                state
                    .obs
                    .add("serve.jobs.resumed", state.resumed.load(Ordering::SeqCst));
            }
        }
    }
}

/// Re-enters every pending job from a replay: whole jobs go back on the
/// queue; sharded campaigns are reconstructed around their journaled
/// shard results and fan their remaining shards out.
fn resume_pending(state: &State, replayed: &mut Replayed) {
    let pending = std::mem::take(&mut replayed.pending);
    for id in pending {
        let spec = state
            .specs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .cloned();
        let Some(spec) = spec else {
            state.finish(&id, JobState::Failed, Some("spec lost".to_string()), None);
            continue;
        };
        if spec.shards > 1 {
            let results = replayed.shard_results.remove(&id).unwrap_or_default();
            let quarantined = replayed.shard_quarantined.remove(&id).unwrap_or_default();
            start_campaign(state, &id, &spec, results, quarantined);
        } else if state.queue.push_internal(id.clone()).is_err() {
            // The queue is closed: the daemon is exiting. The job stays
            // journaled pending for the next primary.
            return;
        }
    }
}

/// Fans a campaign out: builds the lease table (pre-seeded with any
/// journaled shard results/quarantines), registers it, and queues the
/// outstanding shard units. A campaign whose digest is already in the
/// whole-result cache — or whose replayed shards already settle it —
/// finishes immediately.
fn start_campaign(
    state: &State,
    id: &str,
    spec: &JobSpec,
    results: BTreeMap<u64, ShardDone>,
    quarantined: BTreeMap<u64, (u32, String)>,
) {
    if results.is_empty() && quarantined.is_empty() {
        if let Some(mut r) = state.cached_result(job_digest(spec)) {
            state.obs.add("serve.results.hit", 1);
            r.cached = true;
            state.finish(id, JobState::Done, None, Some(r));
            return;
        }
        state.obs.add("serve.results.miss", 1);
    }
    let epoch = state.epoch.load(Ordering::SeqCst);
    let mut c = Campaign::new(spec.clone(), epoch, state.lease_ttl_ms, state.lease_retries);
    for (s, r) in results {
        c.seed_result(s, r);
    }
    for (s, (attempts, reason)) in quarantined {
        c.seed_quarantine(s, attempts, reason);
    }
    state.set_state(id, JobState::Running, None, None);
    if c.is_settled() {
        finalize_campaign(state, id, c);
        return;
    }
    let todo = c.unassigned(state.now_ms());
    state
        .campaigns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(id.to_string(), c);
    for s in todo {
        let _ = state.queue.push_internal(shard::shard_work_id(id, s));
    }
    state.obs.add("serve.campaigns.started", 1);
}

/// Merges and journals a settled campaign. The merged artifact is cached
/// only when undegraded — a quarantined shard's placeholder is not the
/// canonical bytes for this digest.
fn finalize_campaign(state: &State, id: &str, c: Campaign) {
    let degraded = !c.quarantined.is_empty();
    let r = c.merged_result();
    if degraded {
        state.obs.add("serve.campaigns.degraded", 1);
    } else {
        state.store_result(job_digest(&c.spec), &r);
    }
    state.obs.add("serve.campaigns.finished", 1);
    state.finish(id, JobState::Done, None, Some(r));
}

/// Finalizes the campaign iff it just settled (all shards committed or
/// quarantined).
fn try_finalize(state: &State, job: &str) {
    let settled = {
        let mut campaigns = state.campaigns.lock().unwrap_or_else(|e| e.into_inner());
        match campaigns.get(job) {
            Some(c) if c.is_settled() => campaigns.remove(job),
            _ => None,
        }
    };
    if let Some(c) = settled {
        finalize_campaign(state, job, c);
    }
}

/// The reaper: harvests expired leases (dead or hung workers), journals
/// the reclaim, schedules the retry behind a seeded backoff (or
/// quarantines the shard past its budget), and requeues shards whose
/// backoff elapsed.
fn reaper_loop(state: &State) {
    let tick = Duration::from_millis((state.lease_ttl_ms / 4).clamp(5, 250));
    while !state.stopping.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        reaper_pass(state);
    }
}

fn reaper_pass(state: &State) {
    let now = state.now_ms();
    let mut events: Vec<JobEvent> = vec![];
    let mut requeue: Vec<String> = vec![];
    let mut settled: Vec<String> = vec![];
    {
        let mut campaigns = state.campaigns.lock().unwrap_or_else(|e| e.into_inner());
        for (job, c) in campaigns.iter_mut() {
            for r in c.table.reclaim_expired(now) {
                let reason = "lease expired (holder died or hung)".to_string();
                c.trail.push(Degradation {
                    shard: r.shard,
                    attempt: r.attempt,
                    reason: reason.clone(),
                    quarantined: r.quarantined,
                });
                events.push(JobEvent::LeaseReclaimed {
                    job: job.clone(),
                    shard: r.shard,
                    epoch: r.epoch,
                    owner: r.owner.clone(),
                    attempt: r.attempt,
                    reason: reason.clone(),
                });
                if r.quarantined {
                    c.quarantined.insert(r.shard, reason.clone());
                    events.push(JobEvent::ShardQuarantined {
                        job: job.clone(),
                        shard: r.shard,
                        attempts: r.attempt + 1,
                        reason,
                    });
                    state.obs.add("serve.shards.quarantined", 1);
                } else {
                    let backoff = pmfault::backoff_ms(c.spec.seed ^ r.shard, r.attempt, 10, 200);
                    c.ready_at.insert(r.shard, now + backoff);
                    state.obs.add("serve.shards.reclaimed", 1);
                }
            }
            let due: Vec<u64> = c
                .ready_at
                .iter()
                .filter(|&(_, &t)| t <= now)
                .map(|(&s, _)| s)
                .collect();
            for s in due {
                c.ready_at.remove(&s);
                requeue.push(shard::shard_work_id(job, s));
            }
            if c.is_settled() {
                settled.push(job.clone());
            }
        }
    }
    for ev in &events {
        if state.journal_event(ev).is_err() {
            return; // fenced → demoted; campaign state is gone
        }
    }
    for id in requeue {
        let _ = state.queue.push_internal(id);
    }
    for job in settled {
        try_finalize(state, &job);
    }
}

/// Runs one leased shard unit: acquire → heartbeat while a helper thread
/// executes → commit (first-commit-wins). Injected chaos hits every edge
/// of this path; see the `FaultSite::Shard*` contracts.
fn run_shard(state: &State, job: &str, shard_idx: u64, owner: &str) {
    let (spec, lease) = {
        let mut campaigns = state.campaigns.lock().unwrap_or_else(|e| e.into_inner());
        let Some(c) = campaigns.get_mut(job) else {
            return; // campaign finalized, canceled, or demoted away
        };
        match c.table.acquire(shard_idx, owner, state.now_ms()) {
            Ok(l) => (c.spec.clone(), l),
            Err(_) => return, // done, quarantined, or raced a live holder
        }
    };
    if state
        .journal_event(&JobEvent::LeaseAcquired {
            job: job.to_string(),
            shard: shard_idx,
            epoch: lease.epoch,
            owner: owner.to_string(),
            attempt: lease.attempt,
        })
        .is_err()
    {
        return;
    }

    let occurrence = pmfault::shard_occurrence(shard_idx, lease.attempt);
    if let Some(inj) = &state.fault {
        // Chaos: the worker dies right after taking the lease. It simply
        // stops heartbeating; the reaper reclaims and reassigns.
        if inj.fires_at(FaultSite::ShardWorker, occurrence).is_some() {
            state.obs.add("serve.shards.killed", 1);
            return;
        }
    }
    // Chaos: the lease-expiry storm — this attempt never heartbeats, and
    // parks past the TTL so expiry is guaranteed before its commit.
    let storm = state.fault.as_ref().is_some_and(|inj| {
        inj.fires_at(FaultSite::ShardRenew, u64::from(lease.attempt))
            .is_some()
    });
    if storm {
        state.obs.add("serve.shards.storm_stalled", 1);
        std::thread::sleep(Duration::from_millis(
            state.lease_ttl_ms + state.lease_ttl_ms / 2,
        ));
    }

    // The shard body runs on a helper thread so this worker can heartbeat
    // the lease during execution — and abandon a hung shard to the reaper
    // instead of wedging.
    let (tx, rx) = std::sync::mpsc::channel();
    {
        let spec = spec.clone();
        let cache = state.cache.clone();
        let obs = state.obs.clone();
        std::thread::spawn(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute_shard(&spec, shard_idx, &cache, &obs)
            }));
            let _ = tx.send(match out {
                Ok(r) => r,
                Err(_) => Err("shard panicked".to_string()),
            });
        });
    }
    let renew_every = Duration::from_millis((state.lease_ttl_ms / 4).max(1));
    let deadline = state.now_ms() + state.shard_watchdog_ms;
    let mut journaled_renewal = false;
    loop {
        match rx.recv_timeout(renew_every) {
            Ok(outcome) => {
                commit_shard(state, job, shard_idx, owner, &lease, outcome);
                return;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if state.now_ms() >= deadline {
                    // Hung shard: abandon it. Renewals stop, the lease
                    // expires, the reaper reassigns; the helper's eventual
                    // late commit is fenced off by the lease table.
                    state.obs.add("serve.shards.abandoned", 1);
                    return;
                }
                if storm {
                    continue; // suppressed heartbeat
                }
                let renewed = {
                    let mut campaigns = state.campaigns.lock().unwrap_or_else(|e| e.into_inner());
                    match campaigns.get_mut(job) {
                        None => return, // campaign finalized or demoted away
                        Some(c) => c
                            .table
                            .renew(shard_idx, owner, lease.epoch, state.now_ms())
                            .is_ok(),
                    }
                };
                if !renewed {
                    return; // reclaimed out from under us; retry recomputes
                }
                if !journaled_renewal {
                    journaled_renewal = true;
                    let _ = state.journal_event(&JobEvent::LeaseRenewed {
                        job: job.to_string(),
                        shard: shard_idx,
                        epoch: lease.epoch,
                        owner: owner.to_string(),
                    });
                }
            }
        }
    }
}

/// Commits (or fails) one executed shard under first-commit-wins.
fn commit_shard(
    state: &State,
    job: &str,
    shard_idx: u64,
    owner: &str,
    lease: &pmtx::Lease,
    outcome: Result<ShardDone, String>,
) {
    let result = match outcome {
        Ok(r) => r,
        Err(reason) => {
            fail_shard(
                state,
                job,
                shard_idx,
                owner,
                &format!("shard failed: {reason}"),
            );
            return;
        }
    };
    let occurrence = pmfault::shard_occurrence(shard_idx, lease.attempt);
    if let Some(inj) = &state.fault {
        // Chaos: the reaper-vs-finisher race — the lease is revoked (as an
        // expiry would) at the worst moment, right before the commit. The
        // computed result is discarded; the retry recomputes it.
        if inj.fires_at(FaultSite::ShardCommit, occurrence).is_some() {
            fail_shard(
                state,
                job,
                shard_idx,
                owner,
                "injected reaper-vs-finisher commit race",
            );
            return;
        }
        // Chaos: a rival primary claims the journal between compute and
        // commit; our ShardFinished append below fences, and we demote.
        if inj.fires_at(FaultSite::ShardElection, occurrence).is_some()
            && !state.election_fault_fired.swap(true, Ordering::SeqCst)
        {
            let path = state
                .journal
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
                .map(|j| j.path().to_path_buf());
            if let Some(path) = path {
                let _ = crate::journal::append_rival_epoch(
                    &path,
                    state.epoch.load(Ordering::SeqCst) + 1,
                );
            }
        }
    }
    let committed = {
        let mut campaigns = state.campaigns.lock().unwrap_or_else(|e| e.into_inner());
        let Some(c) = campaigns.get_mut(job) else {
            return;
        };
        match c.table.complete(shard_idx, owner, lease.epoch) {
            Ok(()) => {
                c.results.insert(shard_idx, result.clone());
                true
            }
            Err(_) => false, // reclaimed, fenced, or already committed
        }
    };
    if !committed {
        state.obs.add("serve.shards.discarded", 1);
        return;
    }
    if state
        .journal_event(&JobEvent::ShardFinished {
            job: job.to_string(),
            shard: shard_idx,
            result,
        })
        .is_err()
    {
        return; // fenced → demoted; the successor re-runs this shard
    }
    state.obs.add("serve.shards.done", 1);
    try_finalize(state, job);
}

/// Books a failed attempt: revoke the lease, journal the reclaim, and
/// either schedule the retry behind a seeded backoff or quarantine the
/// shard past its budget.
fn fail_shard(state: &State, job: &str, shard_idx: u64, owner: &str, reason: &str) {
    let reclaimed = {
        let mut campaigns = state.campaigns.lock().unwrap_or_else(|e| e.into_inner());
        let Some(c) = campaigns.get_mut(job) else {
            return;
        };
        match c.table.revoke(shard_idx, owner) {
            Err(_) => None, // already reclaimed by the reaper
            Ok(r) => {
                c.trail.push(Degradation {
                    shard: shard_idx,
                    attempt: r.attempt,
                    reason: reason.to_string(),
                    quarantined: r.quarantined,
                });
                if r.quarantined {
                    c.quarantined.insert(shard_idx, reason.to_string());
                } else {
                    let backoff = pmfault::backoff_ms(c.spec.seed ^ shard_idx, r.attempt, 10, 200);
                    c.ready_at.insert(shard_idx, state.now_ms() + backoff);
                }
                Some(r)
            }
        }
    };
    let Some(r) = reclaimed else { return };
    let _ = state.journal_event(&JobEvent::LeaseReclaimed {
        job: job.to_string(),
        shard: shard_idx,
        epoch: r.epoch,
        owner: owner.to_string(),
        attempt: r.attempt,
        reason: reason.to_string(),
    });
    if r.quarantined {
        let _ = state.journal_event(&JobEvent::ShardQuarantined {
            job: job.to_string(),
            shard: shard_idx,
            attempts: r.attempt + 1,
            reason: reason.to_string(),
        });
        state.obs.add("serve.shards.quarantined", 1);
        try_finalize(state, job);
    } else {
        state.obs.add("serve.shards.reclaimed", 1);
    }
}

fn worker_loop(state: &State, worker: usize) {
    let owner = format!("{}:w{worker}", std::process::id());
    while let Some(id) = state.queue.pop() {
        // Shard units dispatch through the lease scheduler; the campaign
        // map is authoritative (a cleared campaign makes the unit a
        // no-op), so these never consult the standby flag.
        if let Some((job, shard_idx)) = shard::parse_work_id(&id) {
            let job = job.to_string();
            run_shard(state, &job, shard_idx, &owner);
            continue;
        }
        // Whole jobs: a standby (deposed primary) drops them — they are
        // journaled pending, and the journal holder re-runs them.
        if state.standby.load(Ordering::SeqCst) {
            continue;
        }
        // A canceled job was already journaled terminal; skip it.
        match state.view(&id).map(|v| v.state) {
            Some(JobState::Queued) => {}
            _ => continue,
        }
        state.set_state(&id, JobState::Running, None, None);
        let spec = state
            .specs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .cloned();
        let Some(spec) = spec else {
            state.finish(&id, JobState::Failed, Some("spec lost".to_string()), None);
            continue;
        };

        // The queue/worker boundary is an injection site: occurrence index
        // is the stable submission counter, so firing is deterministic
        // regardless of worker scheduling.
        let index = state.submit_index.fetch_add(1, Ordering::SeqCst);
        if let Some(inj) = &state.fault {
            if let Some(kind) = inj.fires_at(FaultSite::DaemonWorker, index) {
                let injected = matches!(kind, FaultKind::WorkerPanic)
                    .then(|| "injected worker panic".to_string())
                    .unwrap_or_else(|| format!("injected fault: {}", kind.slug()));
                state.finish(&id, JobState::Failed, Some(injected), None);
                continue;
            }
        }

        let digest = job_digest(&spec);
        let outcome = match state.cached_result(digest) {
            Some(mut r) => {
                state.obs.add("serve.results.hit", 1);
                r.cached = true;
                Ok(r)
            }
            None => {
                state.obs.add("serve.results.miss", 1);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    execute(&spec, &state.cache, &state.obs)
                }));
                match run {
                    Ok(Ok(r)) => {
                        state.store_result(digest, &r);
                        Ok(r)
                    }
                    Ok(Err(e)) => Err(e),
                    Err(_) => Err("job panicked; the daemon and its siblings carry on".to_string()),
                }
            }
        };
        match outcome {
            Ok(r) => state.finish(&id, JobState::Done, None, Some(r)),
            Err(e) => state.finish(&id, JobState::Failed, Some(e), None),
        }
    }
}

/// Per-connection fault shaping, decided once from the armed plan and the
/// stable accept index.
#[derive(Default, Clone, Copy)]
struct Shaping {
    /// Write half a response frame, then close: the peer sees a torn frame.
    torn: bool,
    /// Dribble responses `chunk` bytes at a time, `delay_ms` apart — the
    /// slow-client archetype, exercised from the daemon side.
    slow: Option<(u64, u64)>,
    /// Close the connection instead of responding at all.
    drop: bool,
}

impl Shaping {
    fn at(inj: Option<&Injector>, index: u64) -> Shaping {
        let Some(inj) = inj else {
            return Shaping::default();
        };
        Shaping {
            torn: inj.fires_at(FaultSite::NetTornFrame, index).is_some(),
            slow: match inj.fires_at(FaultSite::NetSlowClient, index) {
                Some(FaultKind::SlowWrites { chunk, delay_ms }) => Some((chunk, delay_ms)),
                _ => None,
            },
            drop: inj.fires_at(FaultSite::NetConnDrop, index).is_some(),
        }
    }
}

/// Writes one response under the connection's shaping. An `Err` means the
/// connection is done (injected teardown or a real write failure).
fn send(conn: &mut Conn, frame: &ResponseFrame, shaping: Shaping) -> Result<(), String> {
    if shaping.drop {
        conn.shutdown();
        return Err("injected connection drop".to_string());
    }
    let mut buf: Vec<u8> = vec![];
    write_frame(&mut buf, frame)?;
    if shaping.torn {
        // Half a frame, then gone: the peer must surface a torn-frame
        // error, never hang.
        let half = (buf.len() / 2).max(1);
        let _ = conn.write_all(&buf[..half]);
        let _ = conn.flush();
        conn.shutdown();
        return Err("injected torn response frame".to_string());
    }
    if let Some((chunk, delay_ms)) = shaping.slow {
        for piece in buf.chunks(chunk.max(1) as usize) {
            conn.write_all(piece)
                .map_err(|e| format!("write frame: {e}"))?;
            conn.flush().map_err(|e| format!("write frame: {e}"))?;
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        return Ok(());
    }
    conn.write_all(&buf)
        .map_err(|e| format!("write frame: {e}"))?;
    conn.flush().map_err(|e| format!("write frame: {e}"))
}

/// Chunked-upload staging, per connection: one file reassembles at a
/// time; completed files wait in arrival order for the adopting `Submit`.
#[derive(Default)]
struct Staging {
    files: Vec<(String, String)>,
    current: Option<(String, u64, String)>,
    total: u64,
}

impl Staging {
    /// Verifies and stages one chunk; answers `ChunkAccepted` or a fatal
    /// `Error` (the caller closes the connection on `Err`).
    fn chunk(
        &mut self,
        name: String,
        seq: u64,
        data: String,
        checksum: u64,
        last: bool,
        budget: u64,
    ) -> Result<Response, String> {
        if pmir::snapshot::fnv1a(data.as_bytes()) != checksum {
            return Err(format!("chunk {seq} of `{name}`: checksum mismatch"));
        }
        self.total = self.total.saturating_add(data.len() as u64);
        if self.total > budget {
            return Err(format!(
                "upload exceeds the {budget}-byte budget; split the campaign or raise --upload-budget-mb"
            ));
        }
        let (cur_name, expected, mut buf) = match self.current.take() {
            None => {
                if seq != 0 {
                    return Err(format!("chunk {seq} of `{name}` arrived before chunk 0"));
                }
                (name.clone(), 0, String::new())
            }
            Some(cur) => cur,
        };
        if cur_name != name {
            return Err(format!(
                "chunk of `{name}` interleaved with unfinished `{cur_name}`"
            ));
        }
        if seq != expected {
            return Err(format!(
                "chunk {seq} of `{name}` out of order (expected {expected})"
            ));
        }
        buf.push_str(&data);
        if last {
            let digest = pmir::snapshot::fnv1a(buf.as_bytes());
            self.files.push((name.clone(), buf));
            Ok(Response::ChunkAccepted {
                name,
                seq,
                digest: Some(digest),
            })
        } else {
            self.current = Some((cur_name, seq + 1, buf));
            Ok(Response::ChunkAccepted {
                name,
                seq,
                digest: None,
            })
        }
    }
}

fn handle_connection(conn: Conn, state: &State, index: u64) {
    let mut reader = match conn.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = conn;
    let shaping = Shaping::at(state.fault.as_ref(), index);
    let mut staging = Staging::default();
    let mut idle = Duration::ZERO;
    loop {
        let frame: RequestFrame = match read_frame_idle(&mut reader) {
            Ok(FrameIn::Frame(f)) => {
                idle = Duration::ZERO;
                f
            }
            Ok(FrameIn::Eof) => return, // clean EOF
            Ok(FrameIn::Idle) => {
                idle += state.io_timeout;
                if idle >= state.idle_timeout {
                    state.obs.add("serve.conns.idle_closed", 1);
                    writer.shutdown();
                    return;
                }
                continue;
            }
            Err(e) => {
                // Torn, oversized, or garbage frame: answer a structured
                // error and close — never panic, never hang a worker.
                state.obs.add("serve.conns.bad_frames", 1);
                let _ = send(
                    &mut writer,
                    &ResponseFrame::new(Response::Error { message: e }),
                    shaping,
                );
                writer.shutdown();
                return;
            }
        };
        let schema = frame.schema;
        let response = if schema == JOBS_SCHEMA || schema == JOBS_SCHEMA_V1 {
            match frame.request {
                Request::SourceChunk {
                    name,
                    seq,
                    data,
                    checksum,
                    last,
                } => {
                    if state.standby.load(Ordering::SeqCst) {
                        Response::Error {
                            message: "standby daemon: waiting for the journal lock; not accepting uploads".to_string(),
                        }
                    } else {
                        match staging.chunk(name, seq, data, checksum, last, state.upload_budget) {
                            Ok(r) => r,
                            Err(message) => {
                                // A bad chunk poisons the whole staged
                                // upload: error and close.
                                state.obs.add("serve.chunks.rejected", 1);
                                let _ = send(
                                    &mut writer,
                                    &ResponseFrame {
                                        schema,
                                        response: Response::Error { message },
                                    },
                                    shaping,
                                );
                                writer.shutdown();
                                return;
                            }
                        }
                    }
                }
                Request::Submit { mut spec } => {
                    if staging.files.is_empty() {
                        respond(Request::Submit { spec }, state)
                    } else {
                        // The staged files come first, in arrival order,
                        // exactly as an inline submission would carry
                        // them — digests (and artifacts) match.
                        let mut sources = staging.files.clone();
                        sources.append(&mut spec.sources);
                        spec.sources = sources;
                        let response = respond(Request::Submit { spec }, state);
                        if !matches!(response, Response::Busy { .. }) {
                            // Adopted (or refused outright); a Busy keeps
                            // the staged upload for the cheap retry.
                            staging = Staging::default();
                        }
                        response
                    }
                }
                other => respond(other, state),
            }
        } else {
            Response::Error {
                message: format!(
                    "unsupported schema `{schema}`; this daemon speaks `{JOBS_SCHEMA}` (and `{JOBS_SCHEMA_V1}`)"
                ),
            }
        };
        let frame = ResponseFrame {
            schema: if schema == JOBS_SCHEMA_V1 {
                JOBS_SCHEMA_V1.to_string()
            } else {
                JOBS_SCHEMA.to_string()
            },
            response,
        };
        if send(&mut writer, &frame, shaping).is_err() {
            return;
        }
    }
}

fn respond(request: Request, state: &State) -> Response {
    if state.standby.load(Ordering::SeqCst) {
        match &request {
            Request::Health => {
                return Response::Health {
                    health: state.health(),
                }
            }
            Request::Ping => return Response::Pong,
            Request::Metrics => {}
            Request::Shutdown => {}
            _ => {
                return Response::Error {
                    message: "standby daemon: waiting for the journal lock; not serving jobs yet"
                        .to_string(),
                }
            }
        }
    }
    match request {
        Request::Submit { spec } => submit(spec, state),
        Request::Status { id } => match state.view(&id) {
            Some(view) => Response::Job { view },
            None => Response::Error {
                message: format!("unknown job `{id}`"),
            },
        },
        Request::Cancel { id } => cancel(&id, state),
        Request::Health => Response::Health {
            health: state.health(),
        },
        Request::Ping => Response::Pong,
        Request::Metrics => Response::Metrics {
            json: state
                .obs
                .registry()
                .map(pmobs::Registry::snapshot_json)
                .unwrap_or_else(|| state.obs.snapshot().to_json()),
        },
        Request::SourceChunk { .. } => Response::Error {
            message: "SourceChunk is handled per-connection".to_string(),
        },
        Request::Shutdown => {
            // Only raise the drain flag — the queue must stay open so
            // campaign shard units (and reaper requeues) already in flight
            // can finish. `serve` closes the queue after the accept loop
            // observes quiescence.
            state.draining.store(true, Ordering::SeqCst);
            state.obs.add("serve.shutdowns", 1);
            Response::ShuttingDown
        }
    }
}

fn submit(spec: JobSpec, state: &State) -> Response {
    if state.draining.load(Ordering::SeqCst) {
        return Response::Error {
            message: "daemon is draining (shutdown in progress); submission refused".to_string(),
        };
    }
    if let Err(e) = spec.validate() {
        return Response::Error { message: e };
    }
    let _gate = state.submit_gate.lock().unwrap_or_else(|e| e.into_inner());
    if state.queue.len() >= state.queue_capacity {
        state.obs.add("serve.jobs.rejected", 1);
        return Response::Busy {
            retry_after_ms: 25 * (state.queue.len().max(1) as u64),
        };
    }
    let id = format!("job-{}", state.next_id.fetch_add(1, Ordering::SeqCst));
    // Write-ahead: the journal entry lands (synced) before the client ever
    // sees the id. A crash after this point re-runs the job on resume; a
    // crash before it means the client was never told `Accepted`.
    if let Err(e) = state.journal_event(&JobEvent::Submitted {
        id: id.clone(),
        spec: spec.clone(),
    }) {
        // A fenced append means this primary was deposed mid-submit. The
        // job was NOT durably accepted — answer retryable `Busy` (never a
        // silent drop): the client's retry lands on whoever won.
        if is_fenced(&e) {
            return Response::Busy {
                retry_after_ms: 100,
            };
        }
        return Response::Error {
            message: format!("journal append failed: {e}"),
        };
    }
    state.jobs.lock().unwrap_or_else(|e| e.into_inner()).insert(
        id.clone(),
        JobView {
            id: id.clone(),
            kind: spec.kind,
            state: JobState::Queued,
            error: None,
            result: None,
        },
    );
    state
        .specs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(id.clone(), spec.clone());
    if spec.shards > 1 {
        // Sharded campaign: fan the shard units out under the lease
        // scheduler instead of queueing the job whole.
        start_campaign(state, &id, &spec, BTreeMap::new(), BTreeMap::new());
        state.obs.add("serve.jobs.submitted", 1);
        return Response::Accepted { id };
    }
    match state.queue.push(id.clone()) {
        Ok(()) => {
            state.obs.add("serve.jobs.submitted", 1);
            Response::Accepted { id }
        }
        Err(retry_after_ms) => {
            // The gate makes this unreachable, but degrade structurally
            // (the journaled entry becomes a canceled job) if it ever
            // happens.
            state.finish(
                &id,
                JobState::Canceled,
                Some("queue full".to_string()),
                None,
            );
            Response::Busy { retry_after_ms }
        }
    }
}

fn cancel(id: &str, state: &State) -> Response {
    let Some(view) = state.view(id) else {
        return Response::Error {
            message: format!("unknown job `{id}`"),
        };
    };
    match view.state {
        JobState::Queued => {
            state.finish(id, JobState::Canceled, None, None);
            state.obs.add("serve.jobs.cancel_requests", 1);
            Response::Job {
                view: state.view(id).unwrap_or(view),
            }
        }
        JobState::Running => Response::Error {
            message: format!("job `{id}` is already running; running jobs are not interrupted"),
        },
        _ => Response::Job { view },
    }
}
