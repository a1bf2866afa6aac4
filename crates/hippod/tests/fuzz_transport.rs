//! Transport fuzzing against a live daemon.
//!
//! The contract under fuzz: a connection feeding the daemon torn,
//! oversized, or garbage frames gets a structured error reply or a clean
//! close — never a panic, a wedged handler, or a poisoned daemon — and
//! chunked uploads reassemble byte-identically at every chunk size and
//! every UTF-8 boundary.

use hippod::proto::{write_frame, RequestFrame};
use hippod::{Client, JobKind, JobSpec, JobState, Request, ServerConfig, MAX_FRAME};
use proptest::prelude::*;
use std::io::{Read, Write as _};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// One shared daemon for every fuzz case. Short I/O and idle deadlines so
/// hostile connections resolve fast; a generous connection cap so cases
/// are never shed.
fn daemon() -> &'static PathBuf {
    static SOCKET: OnceLock<PathBuf> = OnceLock::new();
    SOCKET.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("hippod-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("hippod.sock");
        let config = ServerConfig {
            socket: socket.clone(),
            workers: 2,
            max_conns: 256,
            io_timeout: Duration::from_millis(250),
            idle_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        };
        std::thread::spawn(move || hippod::serve(config));
        let mut c = Client::connect_retry(&socket, Duration::from_secs(10)).unwrap();
        c.ping().unwrap();
        socket
    })
}

/// A hostile byte stream: what a broken or adversarial peer might write.
#[derive(Debug, Clone)]
enum Attack {
    /// Raw random bytes — whatever length prefix they happen to spell.
    Garbage(Vec<u8>),
    /// A length prefix past `MAX_FRAME`, then some bytes.
    Oversized(u32, Vec<u8>),
    /// An honest prefix declaring more payload than is ever sent.
    Torn(u32, Vec<u8>),
    /// A well-formed `Ping`, then garbage on the same connection.
    ValidThenGarbage(Vec<u8>),
}

fn attack_strategy() -> impl Strategy<Value = Attack> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..128).prop_map(Attack::Garbage),
        (
            (MAX_FRAME + 1)..u32::MAX,
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(len, body)| Attack::Oversized(len, body)),
        (1u32..4096, proptest::collection::vec(any::<u8>(), 0..32)).prop_map(
            |(declared, mut body)| {
                body.truncate(declared as usize - 1);
                Attack::Torn(declared, body)
            }
        ),
        proptest::collection::vec(any::<u8>(), 1..64).prop_map(Attack::ValidThenGarbage),
    ]
}

/// Feeds one attack to the daemon raw and insists the connection resolves:
/// the daemon may reply (an error frame, or `Pong` then an error) and must
/// then close. A read timeout here is a wedged handler — the exact failure
/// this suite exists to catch.
fn run_attack(attack: &Attack) -> Result<(), String> {
    let mut s = UnixStream::connect(daemon()).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    // The daemon may error-and-close mid-write; a clean close surfaces as
    // a write error here, which is exactly the contract — ignore it.
    let write = (|| -> std::io::Result<()> {
        match attack {
            Attack::Garbage(bytes) => s.write_all(bytes),
            Attack::Oversized(len, body) => {
                s.write_all(&len.to_be_bytes())?;
                s.write_all(body)
            }
            Attack::Torn(declared, body) => {
                s.write_all(&declared.to_be_bytes())?;
                s.write_all(body)
            }
            Attack::ValidThenGarbage(bytes) => {
                let mut frame = vec![];
                write_frame(&mut frame, &RequestFrame::new(Request::Ping)).unwrap();
                s.write_all(&frame)?;
                s.write_all(bytes)
            }
        }
    })();
    let _ = write;
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut total = 0usize;
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                total += n;
                if total > MAX_FRAME as usize {
                    return Err("daemon streamed absurd bytes at an attacker".to_string());
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err("handler wedged: no reply and no close within 10s".to_string());
            }
            // A reset is still a close.
            Err(_) => break,
        }
    }
    Ok(())
}

/// A valid module padded with a line comment of arbitrary (multi-byte)
/// UTF-8, so chunk splits land on every kind of character boundary.
fn padded_source(pad: &str) -> String {
    format!(
        "fn main() {{\n    var p: ptr = pmem_map(0, 4096);\n    store8(p, 0, 7);\n    print(load8(p, 0));\n}}\n// {pad}\n"
    )
}

const PALETTE: [char; 8] = ['a', 'é', 'ß', '→', '中', '𝛼', ' ', '~'];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Torn, oversized, and garbage byte streams never panic the daemon,
    /// never wedge a handler, and never poison service for the next
    /// well-formed connection.
    #[test]
    fn hostile_byte_streams_never_break_the_daemon(attack in attack_strategy()) {
        run_attack(&attack).unwrap_or_else(|why| panic!("{why} (attack: {attack:?})"));
        // The daemon still serves a fresh, polite connection.
        let mut c = Client::connect_retry(daemon(), Duration::from_secs(5)).unwrap();
        c.set_io_timeout(Some(Duration::from_secs(10))).unwrap();
        c.ping().unwrap();
        let h = c.health().unwrap();
        prop_assert!(h.ok, "daemon unhealthy after {attack:?}");
    }
}

/// One well-formed `SourceChunk` frame, checksummed the way an honest
/// client would.
fn chunk_frame(name: &str, seq: u64, data: &str, last: bool) -> Vec<u8> {
    let mut frame = vec![];
    write_frame(
        &mut frame,
        &RequestFrame::new(Request::SourceChunk {
            name: name.to_string(),
            seq,
            data: data.to_string(),
            checksum: pmir::snapshot::fnv1a(data.as_bytes()),
            last,
        }),
    )
    .unwrap();
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A peer that starts an honest chunked upload and dies mid-stream —
    /// after any number of staged chunks, optionally mid-frame — leaks
    /// neither its connection slot nor its staged upload budget: the
    /// daemon still serves a polite chunked upload afterwards.
    #[test]
    fn mid_chunk_connection_drops_leak_no_budget_or_slots(
        staged in 1u64..6,
        torn_tail in proptest::option::of(1usize..32),
    ) {
        {
            let mut s = UnixStream::connect(daemon()).unwrap();
            s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
            for seq in 0..staged {
                // Never `last`: the file stays staged, charged against the
                // connection's upload budget, when the peer dies.
                let _ = s.write_all(&chunk_frame("doomed.pmc", seq, "store8(p, 0, 7);\n", false));
            }
            if let Some(cut) = torn_tail {
                // Die mid-frame: a declared length with `cut` bytes missing.
                let frame = chunk_frame("doomed.pmc", staged, "store8(p, 8, 9);\n", false);
                let _ = s.write_all(&frame[..frame.len().saturating_sub(cut)]);
            }
            // Dropped without Submit: the daemon must discard the staging.
        }

        // The staged-but-abandoned bytes are freed with the connection: a
        // fresh chunked submission still fits the budget and completes.
        let timeout = Duration::from_secs(30);
        let mut c = Client::connect_retry(daemon(), Duration::from_secs(5)).unwrap();
        c.set_io_timeout(Some(timeout)).unwrap();
        c.set_chunk_threshold(16);
        let spec = JobSpec::new(
            JobKind::Lint,
            vec![("fine.pmc".to_string(), padded_source("after a mid-chunk death"))],
        );
        let id = c.submit_retry(spec, timeout).unwrap();
        let view = c.wait(&id, timeout).unwrap();
        prop_assert_eq!(view.state, JobState::Done, "daemon degraded after a mid-chunk drop");
        prop_assert!(c.health().unwrap().ok);
    }
}

/// Heartbeat loss: connections that go silent mid-frame are reaped by the
/// I/O deadline and give their slots back — the live-connection gauge
/// returns to its baseline instead of ratcheting up.
#[test]
fn silent_connections_are_reaped_and_free_their_slots() {
    let mut c = Client::connect_retry(daemon(), Duration::from_secs(5)).unwrap();
    c.set_io_timeout(Some(Duration::from_secs(10))).unwrap();
    let baseline = c.health().unwrap().connections;

    let silent: Vec<UnixStream> = (0..8)
        .map(|_| {
            let mut s = UnixStream::connect(daemon()).unwrap();
            // Half a length prefix, then silence: the handler is stuck
            // mid-read until its I/O deadline fires.
            s.write_all(&[0x00, 0x00]).unwrap();
            s
        })
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let live = c.health().unwrap().connections;
        if live <= baseline {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "silent connections still hold {live} slot(s) (baseline {baseline})"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    drop(silent);
    c.ping().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chunked upload round-trip: at any chunk size and any UTF-8 padding,
    /// the reassembled server-side spec is byte-identical to the sender's —
    /// proven end-to-end by the follow-up inline submission of the same
    /// spec hitting the result cache with identical output.
    #[test]
    fn chunked_upload_reassembles_byte_identically(
        picks in proptest::collection::vec(0usize..PALETTE.len(), 1..512),
        threshold in 1usize..96,
    ) {
        let pad: String = picks.iter().map(|&i| PALETTE[i]).collect();
        let spec = JobSpec::new(
            JobKind::Lint,
            vec![("padded.pmc".to_string(), padded_source(&pad))],
        );
        let timeout = Duration::from_secs(30);

        let mut chunked = Client::connect_retry(daemon(), Duration::from_secs(5)).unwrap();
        chunked.set_io_timeout(Some(timeout)).unwrap();
        chunked.set_chunk_threshold(threshold);
        let id = chunked.submit_retry(spec.clone(), timeout).unwrap();
        let first = chunked.wait(&id, timeout).unwrap();
        prop_assert_eq!(first.state, JobState::Done, "chunked job failed");
        let first = first.result.unwrap();

        let mut inline = Client::connect_retry(daemon(), Duration::from_secs(5)).unwrap();
        inline.set_io_timeout(Some(timeout)).unwrap();
        let id2 = inline.submit_retry(spec, timeout).unwrap();
        let second = inline.wait(&id2, timeout).unwrap();
        prop_assert_eq!(second.state, JobState::Done, "inline job failed");
        let second = second.result.unwrap();
        prop_assert!(
            second.cached,
            "inline resubmission missed the cache: the reassembled sources differ"
        );
        prop_assert_eq!(&first.output, &second.output);
    }
}
