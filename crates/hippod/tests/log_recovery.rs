//! One crash-recovery property over the checksummed log ([`pmtx::log`]),
//! run with both record types that live on it: the repair journal's
//! rounds and the daemon's job events.
//!
//! - Truncated at every byte offset, a log opens to exactly the records
//!   whose lines survive whole, is left at that boundary, and accepts
//!   appends after it.
//! - With any one byte flipped, a log never opens to an altered record: it
//!   is refused naming a line no later than the damaged one, or — damage in
//!   the final line only — opens to exactly the records before it.
//! - With any one record line duplicated in place, in every prefix of the
//!   log, a journal opens to the same state as without the copy, or is
//!   refused naming the copy's line.
//! - The checked-in fixtures were written by the previous journal
//!   implementations. Both replay unchanged, and the same appends today
//!   reproduce their bytes exactly.

use hippod::jobs::ShardDone;
use hippod::journal::{replay, JobEvent, JobJournal, JobJournalHeader, JOBS_JOURNAL_SCHEMA};
use hippod::{JobKind, JobResult, JobSpec, JobState, JobView};
use pmtx::log::{Header, Log};
use pmtx::{Journal, JournalError, JournalHeader, RoundRecord};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::path::{Path, PathBuf};

const REPAIR_FIXTURE: &str = "tests/fixtures/repair.journal";
const JOBS_FIXTURE: &str = "tests/fixtures/jobs.journal";

fn repair_header() -> JournalHeader {
    JournalHeader::new("0123456789abcdef", "fedcba9876543210")
}

fn repair_rounds() -> Vec<RoundRecord> {
    (1..=3u32)
        .map(|round| RoundRecord {
            round,
            base_digest: format!("{:016x}", u64::from(round) * 0x1111),
            after_digest: format!("{:016x}", u64::from(round) * 0x1111 + 1),
            report_digest: format!("{:016x}", u64::from(round) * 0xabcd),
            clones: u64::from(round) - 1,
            fixes: vec![format!(r#"{{"kind":"flush","site":"main#{round}"}}"#)],
            patch: format!("fn @main() {{\n\t; round {round} \"healed\" # é\n}}\n"),
        })
        .collect()
}

fn job_events() -> Vec<JobEvent> {
    let mut spec = JobSpec::new(
        JobKind::Explore,
        vec![(
            "app.pmc".to_string(),
            "fn main() {\n    var p: ptr = pmem_map(9, 4096); // é # \"q\"\n}\n".to_string(),
        )],
    );
    spec.shards = 2;
    let lint = JobSpec::new(
        JobKind::Lint,
        vec![("b.pmc".to_string(), "fn main() {}".to_string())],
    );
    let lease = |kind: u8| match kind {
        0 => JobEvent::LeaseAcquired {
            job: "job-1".to_string(),
            shard: 1,
            epoch: 1,
            owner: "worker-0".to_string(),
            attempt: 0,
        },
        1 => JobEvent::LeaseRenewed {
            job: "job-1".to_string(),
            shard: 1,
            epoch: 1,
            owner: "worker-0".to_string(),
        },
        _ => JobEvent::LeaseReclaimed {
            job: "job-1".to_string(),
            shard: 1,
            epoch: 1,
            owner: "worker-0".to_string(),
            attempt: 1,
            reason: "lease expired".to_string(),
        },
    };
    vec![
        JobEvent::Epoch {
            epoch: 1,
            pid: 4242,
        },
        JobEvent::Submitted {
            id: "job-1".to_string(),
            spec,
        },
        lease(0),
        lease(1),
        lease(2),
        JobEvent::ShardQuarantined {
            job: "job-1".to_string(),
            shard: 1,
            attempts: 4,
            reason: "injected worker kill".to_string(),
        },
        JobEvent::ShardFinished {
            job: "job-1".to_string(),
            shard: 0,
            result: ShardDone {
                output: "== shard 0/2 ==\nclean\n".to_string(),
                summary: "shard 0/2: clean".to_string(),
                clean: true,
            },
        },
        JobEvent::Finished {
            view: JobView {
                id: "job-1".to_string(),
                kind: JobKind::Explore,
                state: JobState::Done,
                error: None,
                result: Some(JobResult {
                    output: "merged report\n".to_string(),
                    summary: "2 shard(s) merged".to_string(),
                    clean: true,
                    cached: false,
                    duration_ms: 12,
                }),
            },
        },
        JobEvent::Submitted {
            id: "job-2".to_string(),
            spec: lint,
        },
        JobEvent::Finished {
            view: JobView {
                id: "job-2".to_string(),
                kind: JobKind::Lint,
                state: JobState::Failed,
                error: Some("boom".to_string()),
                result: None,
            },
        },
        JobEvent::Compacted { dropped: 3 },
        JobEvent::Epoch {
            epoch: 2,
            pid: 4243,
        },
    ]
}

fn jobs_header() -> JobJournalHeader {
    JobJournalHeader {
        schema: JOBS_JOURNAL_SCHEMA.to_string(),
    }
}

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join(name)).unwrap()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("log-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("test.journal")
}

/// The byte offset just past each line's newline.
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len())
        .filter(|&i| bytes[i] == b'\n')
        .map(|i| i + 1)
        .collect()
}

fn truncation_property<H, R>(tag: &str, bytes: &[u8], header: &H, records: &[R])
where
    H: Header + PartialEq + Debug,
    R: Serialize + Deserialize + Clone + PartialEq + Debug,
{
    let path = scratch(tag);
    let ends = line_ends(bytes);
    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let opened =
            Log::open::<H, R>(&path, header).unwrap_or_else(|e| panic!("{tag}: cut at {cut}: {e}"));
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        let survivors = &records[..whole.saturating_sub(1)];
        assert_eq!(opened.records, survivors, "{tag}: cut at {cut}");
        assert_eq!(&opened.header, header, "{tag}: cut at {cut}");
        // No whole header line: the log started fresh with the same header.
        let boundary = ends[whole.max(1) - 1];
        assert_eq!(
            std::fs::read(&path).unwrap(),
            &bytes[..boundary],
            "{tag}: cut at {cut} must leave the file at the last whole line"
        );
        let mut log = opened.log;
        log.append(&records[0]).unwrap();
        drop(log);
        let again = Log::open::<H, R>(&path, header).unwrap();
        let mut expected = survivors.to_vec();
        expected.push(records[0].clone());
        assert_eq!(again.records, expected, "{tag}: append after cut at {cut}");
        assert!(
            again.diagnostics.is_empty(),
            "{tag}: {:?}",
            again.diagnostics
        );
    }
}

/// Lines are numbered in the damaged file. A flipped newline merges its
/// line into the next; merged into the final line, the pair reads as one
/// torn tail (a damaged newline and a torn append look alike), so the
/// record before it is dropped with it, never altered.
fn flip_property<H, R>(tag: &str, bytes: &[u8], header: &H, records: &[R])
where
    H: Header + PartialEq + Debug,
    R: Serialize + Deserialize + Clone + PartialEq + Debug,
{
    let path = scratch(tag);
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x80] {
            let mut damaged = bytes.to_vec();
            damaged[at] ^= mask;
            let ends = line_ends(&damaged);
            let damaged_line = ends.iter().filter(|&&end| end <= at).count() + 1;
            let last_line = ends.len() + usize::from(damaged.last() != Some(&b'\n'));
            std::fs::write(&path, &damaged).unwrap();
            let what = format!("{tag}: byte {at} ^ {mask:#04x} (line {damaged_line})");
            match Log::open::<H, R>(&path, header) {
                Err(JournalError::Corrupted { line, .. }) => {
                    assert!(line <= damaged_line, "{what}: refused at line {line}");
                    assert_eq!(
                        std::fs::read(&path).unwrap(),
                        damaged,
                        "{what}: a refused log is left as it is"
                    );
                }
                Ok(opened) => {
                    assert_eq!(damaged_line, last_line, "{what}: opened");
                    assert_eq!(opened.records, &records[..damaged_line - 2], "{what}");
                    assert_eq!(
                        std::fs::read(&path).unwrap(),
                        &bytes[..ends[damaged_line - 2]],
                        "{what}: the torn tail is truncated away"
                    );
                }
                Err(other) => panic!("{what}: unexpected {other}"),
            }
        }
    }
}

/// A duplicated line is checksum-valid, so only the journal's own rules
/// can see it. Line `i + 1` holds record `i` (line 1 is the header); the
/// copy is inserted right after it, as line `i + 2`, in every prefix of
/// `bytes` that holds the record.
fn duplication_property<S: PartialEq + Debug>(
    tag: &str,
    bytes: &[u8],
    open: impl Fn(&Path) -> Result<S, usize>,
) {
    let path = scratch(tag);
    let ends = line_ends(bytes);
    for kept in 1..ends.len() {
        std::fs::write(&path, &bytes[..ends[kept]]).unwrap();
        let want = open(&path).unwrap_or_else(|line| panic!("{tag}: prefix refused at {line}"));
        for record in 1..=kept {
            let line = &bytes[ends[record - 1]..ends[record]];
            let mut doubled = bytes[..ends[record]].to_vec();
            doubled.extend_from_slice(line);
            doubled.extend_from_slice(&bytes[ends[record]..ends[kept]]);
            std::fs::write(&path, &doubled).unwrap();
            let what = format!("{tag}: record {record} of {kept} duplicated");
            match open(&path) {
                Ok(state) => assert_eq!(state, want, "{what}"),
                Err(refused) => assert_eq!(refused, record + 2, "{what}: refused line"),
            }
        }
    }
}

#[test]
fn repair_rounds_survive_every_truncation() {
    let bytes = fixture(REPAIR_FIXTURE);
    truncation_property("repair-cut", &bytes, &repair_header(), &repair_rounds());
}

#[test]
fn job_events_survive_every_truncation() {
    let bytes = fixture(JOBS_FIXTURE);
    truncation_property("jobs-cut", &bytes, &jobs_header(), &job_events());
}

#[test]
fn repair_rounds_are_never_altered_by_a_flipped_byte() {
    let bytes = fixture(REPAIR_FIXTURE);
    flip_property("repair-flip", &bytes, &repair_header(), &repair_rounds());
}

#[test]
fn job_events_are_never_altered_by_a_flipped_byte() {
    let bytes = fixture(JOBS_FIXTURE);
    flip_property("jobs-flip", &bytes, &jobs_header(), &job_events());
}

#[test]
fn a_duplicated_repair_round_is_refused_naming_its_line() {
    let bytes = fixture(REPAIR_FIXTURE);
    duplication_property("repair-dup", &bytes, |path| {
        match Journal::resume(path, &repair_header()) {
            Ok(resumed) => Ok(resumed.journal.rounds().to_vec()),
            Err(JournalError::Corrupted { line, .. }) => Err(line),
            Err(other) => panic!("{}: unexpected {other}", path.display()),
        }
    });
}

#[test]
fn a_duplicated_job_event_replays_to_the_same_state() {
    let bytes = fixture(JOBS_FIXTURE);
    duplication_property("jobs-dup", &bytes, |path| {
        let (journal, events) = JobJournal::open(path).unwrap();
        Ok::<_, usize>((journal.epoch(), replay(events)))
    });
}

#[test]
fn repair_fixture_replays_and_its_appends_reproduce_its_bytes() {
    let bytes = fixture(REPAIR_FIXTURE);
    let path = scratch("repair-fixture");
    std::fs::write(&path, &bytes).unwrap();
    let resumed = Journal::resume(&path, &repair_header()).unwrap();
    assert!(resumed.diagnostics.is_empty(), "{:?}", resumed.diagnostics);
    assert_eq!(resumed.journal.header(), &repair_header());
    assert_eq!(resumed.journal.rounds(), repair_rounds());
    drop(resumed);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "replay changed the file"
    );

    let fresh = scratch("repair-rewrite");
    let mut journal = Journal::create(&fresh, repair_header()).unwrap();
    for round in repair_rounds() {
        journal.append(round).unwrap();
    }
    assert_eq!(std::fs::read(&fresh).unwrap(), bytes);
}

#[test]
fn jobs_fixture_replays_and_its_appends_reproduce_its_bytes() {
    let bytes = fixture(JOBS_FIXTURE);
    let path = scratch("jobs-fixture");
    std::fs::write(&path, &bytes).unwrap();
    let (journal, events) = JobJournal::open(&path).unwrap();
    assert_eq!(events, job_events());
    assert_eq!(journal.epoch(), 2);
    drop(journal);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "replay changed the file"
    );

    let fresh = scratch("jobs-rewrite");
    let (mut journal, replayed) = JobJournal::open(&fresh).unwrap();
    assert!(replayed.is_empty());
    for event in job_events() {
        journal.append(&event).unwrap();
    }
    assert_eq!(std::fs::read(&fresh).unwrap(), bytes);
}
