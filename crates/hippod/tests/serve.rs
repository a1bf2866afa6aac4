//! In-process end-to-end tests: a real daemon on a real socket.

use hippod::proto::{read_frame, ResponseFrame};
use hippod::{Client, JobKind, JobSpec, JobState, Response, ServerConfig, Submitted};
use std::io::Read as _;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const BUGGY: &str = "fn main() {\n    var p: ptr = pmem_map(0, 4096);\n    store8(p, 0, 7);\n    print(load8(p, 0));\n}\n";

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hippod-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The same missing-flush bug behind a million-iteration volatile loop, so
/// one job keeps a worker busy for far longer than a client round trip.
const SLOW: &str = "fn main() {\n    var p: ptr = pmem_map(0, 4096);\n    var i: int = 0;\n    while (i < 1000000) { i = i + 1; }\n    store8(p, 0, i);\n    print(load8(p, 0));\n}\n";

fn spec(kind: JobKind) -> JobSpec {
    JobSpec::new(kind, vec![("buggy.pmc".to_string(), BUGGY.to_string())])
}

fn start(config: ServerConfig) -> std::thread::JoinHandle<Result<hippod::ServeReport, String>> {
    std::thread::spawn(move || hippod::serve(config))
}

#[test]
fn daemon_serves_jobs_health_metrics_and_drains_on_shutdown() {
    let dir = tmp("basic");
    let socket = dir.join("hippod.sock");
    let server = start(ServerConfig {
        socket: socket.clone(),
        journal: Some(dir.join("jobs.journal")),
        workers: 2,
        obs: pmobs::Obs::enabled(),
        ..ServerConfig::default()
    });
    let mut c = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();

    // Submit a fix and a lint; both settle.
    let fix_id = c
        .submit_retry(spec(JobKind::Fix), Duration::from_secs(5))
        .unwrap();
    let lint_id = c
        .submit_retry(spec(JobKind::Lint), Duration::from_secs(5))
        .unwrap();
    let fix = c.wait(&fix_id, Duration::from_secs(30)).unwrap();
    assert_eq!(fix.state, JobState::Done);
    let fix_result = fix.result.expect("done job carries its result");
    assert!(fix_result.clean);
    assert!(fix_result.output.contains("clwb"), "fix inserts a flush");
    let lint = c.wait(&lint_id, Duration::from_secs(30)).unwrap();
    assert_eq!(lint.state, JobState::Done);
    assert!(!lint.result.unwrap().clean, "unflushed store lints dirty");

    // A resubmission of the same spec is served warm and byte-identical.
    let again_id = c
        .submit_retry(spec(JobKind::Fix), Duration::from_secs(5))
        .unwrap();
    let again = c.wait(&again_id, Duration::from_secs(30)).unwrap();
    let again_result = again.result.unwrap();
    assert!(
        again_result.cached,
        "identical spec must hit the result cache"
    );
    assert_eq!(again_result.output, fix_result.output);

    // Health and live metrics answer mid-flight.
    let h = c.health().unwrap();
    assert!(h.ok && !h.draining);
    assert_eq!(h.done, 3);
    assert!(h.cache_hits > 0);
    let metrics = c.metrics().unwrap();
    assert!(metrics.contains("serve.jobs.submitted"), "{metrics}");

    // Unknown ids are structured errors, not hangs.
    let err = c.status("job-999").unwrap_err();
    assert!(err.contains("unknown job"), "{err}");

    // Graceful shutdown: drain, then the socket disappears.
    c.shutdown().unwrap();
    let report = server.join().unwrap().unwrap();
    assert_eq!(report.done, 3);
    assert_eq!(report.failed, 0);
    assert!(!socket.exists(), "a drained daemon removes its socket");
}

#[test]
fn full_queue_answers_busy_and_canceled_jobs_never_run() {
    let dir = tmp("backpressure");
    let socket = dir.join("hippod.sock");
    let server = start(ServerConfig {
        socket: socket.clone(),
        journal: None,
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let mut c = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();

    // One slow job occupies the worker; the queue holds one more; the
    // third gets explicit backpressure.
    let slow = JobSpec::new(
        JobKind::Fix,
        vec![("slow.pmc".to_string(), SLOW.to_string())],
    );
    let first = c.submit_retry(slow, Duration::from_secs(5)).unwrap();
    let mut queued = None;
    let mut saw_busy = false;
    for _ in 0..200 {
        match c.submit(spec(JobKind::Explore)).unwrap() {
            Submitted::Accepted(id) if queued.is_none() => queued = Some(id),
            Submitted::Accepted(id) => {
                // Worker already drained the queue; cancel and keep probing.
                let _ = c.cancel(&id);
            }
            Submitted::Busy(ms) => {
                assert!(ms > 0, "retry hint must be positive");
                saw_busy = true;
                break;
            }
        }
    }
    assert!(saw_busy, "a full queue must answer Busy with a retry hint");

    // Cancel the queued job: it goes terminal without running.
    let canceled = queued.as_ref().and_then(|id| match c.cancel(id) {
        Ok(view) if view.state == JobState::Canceled => {
            assert!(view.result.is_none());
            Some(id.clone())
        }
        // The worker won the race and already ran it — also legal.
        Ok(_) => None,
        Err(e) => {
            assert!(e.contains("already running"), "{e}");
            None
        }
    });
    c.wait(&first, Duration::from_secs(30)).unwrap();
    // Once the worker is free again, the canceled job still never ran.
    if let Some(id) = &canceled {
        let view = c.status(id).unwrap();
        assert_eq!(view.state, JobState::Canceled);
        assert!(view.result.is_none());
    }
    c.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn injected_worker_fault_fails_one_job_and_spares_its_siblings() {
    let dir = tmp("fault");
    let socket = dir.join("hippod.sock");
    let server = start(ServerConfig {
        socket: socket.clone(),
        journal: Some(dir.join("jobs.journal")),
        workers: 2,
        fault: Some(pmfault::FaultPlan::single(
            pmfault::FaultSite::DaemonWorker,
            pmfault::Trigger::Nth(0),
            pmfault::FaultKind::WorkerPanic,
        )),
        ..ServerConfig::default()
    });
    let mut c = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();
    let ids: Vec<String> = (0..3)
        .map(|i| {
            let mut s = spec(JobKind::Fix);
            s.seed = i; // distinct specs so results are not cache-shared
            c.submit_retry(s, Duration::from_secs(5)).unwrap()
        })
        .collect();
    let views: Vec<_> = ids
        .iter()
        .map(|id| c.wait(id, Duration::from_secs(60)).unwrap())
        .collect();
    let failed: Vec<_> = views
        .iter()
        .filter(|v| v.state == JobState::Failed)
        .collect();
    let done: Vec<_> = views.iter().filter(|v| v.state == JobState::Done).collect();
    assert_eq!(failed.len(), 1, "exactly the injected occurrence fails");
    assert!(
        failed[0]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("injected"),
        "{:?}",
        failed[0].error
    );
    assert_eq!(done.len(), 2, "sibling jobs are unharmed");
    let h = c.health().unwrap();
    assert!(h.ok, "the daemon itself stays healthy");
    c.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn second_daemon_on_the_same_journal_is_refused_with_the_holder_pid() {
    let dir = tmp("second");
    let socket = dir.join("hippod.sock");
    let journal = dir.join("jobs.journal");
    let server = start(ServerConfig {
        socket: socket.clone(),
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    });
    let mut c = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();
    let err = hippod::serve(ServerConfig {
        socket: dir.join("other.sock"),
        journal: Some(journal),
        ..ServerConfig::default()
    })
    .unwrap_err();
    assert!(err.contains("held by pid"), "{err}");
    assert!(err.contains(&std::process::id().to_string()), "{err}");
    c.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn draining_daemon_refuses_new_submissions_but_finishes_queued_work() {
    let dir = tmp("drain");
    let socket = dir.join("hippod.sock");
    let server = start(ServerConfig {
        socket: socket.clone(),
        journal: Some(dir.join("jobs.journal")),
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();
    let id = c
        .submit_retry(spec(JobKind::Fix), Duration::from_secs(5))
        .unwrap();
    c.shutdown().unwrap();
    let err = c.submit(spec(JobKind::Lint)).unwrap_err();
    assert!(err.contains("draining"), "{err}");
    // The in-flight job still runs to its journaled conclusion.
    let view = c.wait(&id, Duration::from_secs(30));
    // The daemon may exit between polls once the job settles; both a clean
    // wait and a dropped connection after Done are acceptable here. The
    // authoritative check is the server's exit report.
    drop(view);
    let report = server.join().unwrap().unwrap();
    assert_eq!(report.done, 1);
    assert_eq!(report.failed, 0);
}

#[test]
fn tcp_endpoint_serves_jobs_end_to_end() {
    let dir = tmp("tcp");
    let (tx, rx) = std::sync::mpsc::channel();
    let server = start(ServerConfig {
        socket: dir.join("unused.sock"),
        listen: Some("127.0.0.1:0".to_string()),
        journal: Some(dir.join("jobs.journal")),
        workers: 2,
        ready: Some(tx),
        ..ServerConfig::default()
    });
    // `host:0` picks an ephemeral port; the ready channel reports it.
    let addr = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    let mut c = Client::dial_retry(&addr, Duration::from_secs(5)).unwrap();
    c.set_io_timeout(Some(Duration::from_secs(10))).unwrap();
    c.ping().unwrap();
    let id = c
        .submit_retry(spec(JobKind::Fix), Duration::from_secs(5))
        .unwrap();
    let view = c.wait(&id, Duration::from_secs(30)).unwrap();
    assert_eq!(view.state, JobState::Done);
    assert!(view.result.unwrap().clean);
    let h = c.health().unwrap();
    assert!(h.ok && !h.standby);
    c.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn connections_past_the_cap_are_shed_with_busy() {
    let dir = tmp("shed");
    let socket = dir.join("hippod.sock");
    let server = start(ServerConfig {
        socket: socket.clone(),
        journal: None,
        max_conns: 1,
        ..ServerConfig::default()
    });
    let mut keeper = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();
    keeper.ping().unwrap();
    // The connection past the cap is told Busy and closed before it sends
    // a single byte.
    let mut raw = UnixStream::connect(&socket).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frame: ResponseFrame = read_frame(&mut raw).unwrap().expect("shed sends a frame");
    match frame.response {
        Response::Busy { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("expected Busy, got {other:?}"),
    }
    let mut buf = [0u8; 16];
    assert_eq!(raw.read(&mut buf).unwrap_or(0), 0, "shed then close");
    drop(raw);
    // The connection inside the cap is unaffected.
    keeper.ping().unwrap();
    keeper.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn idle_connections_are_closed_quietly() {
    let dir = tmp("idle");
    let socket = dir.join("hippod.sock");
    let server = start(ServerConfig {
        socket: socket.clone(),
        journal: None,
        io_timeout: Duration::from_millis(100),
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut c = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();
    c.ping().unwrap();
    // A connection that never speaks is closed after the idle window —
    // with silence, not an error frame.
    let mut raw = UnixStream::connect(&socket).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let started = Instant::now();
    let mut buf = [0u8; 16];
    let n = raw.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "an idle close carries no bytes");
    assert!(
        started.elapsed() >= Duration::from_millis(250),
        "closed before the idle window elapsed"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "idle close took too long"
    );
    // `c` sat out the same window and was idle-closed too; a fresh
    // connection shows the daemon is still serving.
    let mut fresh = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();
    fresh.ping().unwrap();
    fresh.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn standby_takes_over_and_serves_journaled_results_byte_identically() {
    let dir = tmp("standby");
    let journal = dir.join("jobs.journal");
    let primary_sock = dir.join("primary.sock");
    let standby_sock = dir.join("standby.sock");
    let primary = start(ServerConfig {
        socket: primary_sock.clone(),
        journal: Some(journal.clone()),
        workers: 2,
        io_timeout: Duration::from_millis(200),
        idle_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    // The primary holds the journal lock before it binds its socket, so
    // once it answers, the standby cannot win the first election.
    let mut c = Client::connect_retry(&primary_sock, Duration::from_secs(5)).unwrap();
    let standby = start(ServerConfig {
        socket: standby_sock.clone(),
        journal: Some(journal.clone()),
        standby: true,
        workers: 2,
        ..ServerConfig::default()
    });
    let id = c
        .submit_retry(spec(JobKind::Fix), Duration::from_secs(5))
        .unwrap();
    let reference = c
        .wait(&id, Duration::from_secs(30))
        .unwrap()
        .result
        .expect("primary finishes the job");

    assert_eq!(
        c.health().unwrap().epoch,
        1,
        "the first primary serves at election epoch 1"
    );

    // While the primary holds the flock, the standby answers health but
    // refuses job traffic.
    let mut s = Client::connect_retry(&standby_sock, Duration::from_secs(5)).unwrap();
    let h = s.health().unwrap();
    assert!(h.ok && h.standby);
    assert_eq!(h.epoch, 0, "a standby has won no election yet");
    let err = s.submit(spec(JobKind::Fix)).unwrap_err();
    assert!(err.contains("standby"), "{err}");

    // The primary exits; the standby wins the flock, replays the journal,
    // and starts serving.
    c.shutdown().unwrap();
    drop(c);
    primary.join().unwrap().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let h = s.health().unwrap();
        if !h.standby {
            assert_eq!(h.epoch, 2, "the takeover wins the next monotonic epoch");
            break;
        }
        assert!(Instant::now() < deadline, "standby never took over");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The journaled result is served warm and byte-identical.
    let id2 = s
        .submit_retry(spec(JobKind::Fix), Duration::from_secs(5))
        .unwrap();
    let view = s.wait(&id2, Duration::from_secs(30)).unwrap();
    assert_eq!(view.state, JobState::Done);
    let result = view.result.unwrap();
    assert!(result.cached, "takeover must seed the result cache");
    assert_eq!(result.output, reference.output);
    s.shutdown().unwrap();
    standby.join().unwrap().unwrap();
}

#[test]
fn cache_budget_bounds_warm_memory_and_reports_evictions() {
    let dir = tmp("budget");
    let socket = dir.join("hippod.sock");
    let budget = 4 * 1024u64;
    let server = start(ServerConfig {
        socket: socket.clone(),
        journal: None,
        workers: 1,
        cache_budget: Some(budget),
        obs: pmobs::Obs::enabled(),
        ..ServerConfig::default()
    });
    let mut c = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();
    for i in 0..12 {
        let mut s = spec(JobKind::Fix);
        s.seed = i; // distinct digests: every job caches a fresh result
        let id = c.submit_retry(s, Duration::from_secs(5)).unwrap();
        c.wait(&id, Duration::from_secs(30)).unwrap();
        let h = c.health().unwrap();
        assert!(
            h.cache_bytes <= budget,
            "accounted bytes {} exceed the {budget}-byte budget",
            h.cache_bytes
        );
    }
    let h = c.health().unwrap();
    assert!(
        h.cache_evictions > 0,
        "12 distinct results must overflow a 4 KiB budget"
    );
    c.shutdown().unwrap();
    server.join().unwrap().unwrap();
}
