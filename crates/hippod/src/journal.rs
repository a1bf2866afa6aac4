//! The daemon's write-ahead job journal — and, since PR 10, the campaign
//! scheduler's lease ledger and the primary-election epoch record.
//!
//! One record schema (`hippo.jobs.v1`) over [`pmtx::log`], the same
//! checksummed log as the repair journal: the log owns the on-disk format,
//! the recovery rule, the flock and the fence; this module owns the events.
//! Every append is synced before the daemon acknowledges. The event kinds:
//!
//! - `Submitted { id, spec }` — written *before* the client sees
//!   `Accepted`. An acknowledged job is therefore always durable.
//! - `Finished { view }` — written when the job reaches a terminal state
//!   (`Done`/`Failed`/`Canceled`), carrying the full result.
//! - `Epoch { epoch, pid }` — a primary won the election at this
//!   monotonic epoch. Written by [`JobJournal::elect`] under the journal
//!   flock; the highest epoch in the journal names the legitimate primary.
//! - `LeaseAcquired` / `LeaseRenewed` / `LeaseReclaimed` /
//!   `ShardQuarantined` — the campaign scheduler's lease ledger (see
//!   [`pmtx::LeaseTable`]): who ran which shard, which leases expired, and
//!   which shards were quarantined after exhausting their retry budget.
//!   Together they are the campaign's structured degradation trail.
//! - `ShardFinished { job, shard, result }` — one shard's committed
//!   result. On resume, committed shards are *not* re-run: the successor
//!   merges the journaled shard results with its own.
//! - `Compacted { dropped }` — a compaction checkpoint: this journal was
//!   rewritten with `dropped` superseded records removed. Compaction
//!   preserves resume byte-identity (see [`compact_events`]).
//!
//! **Resume rule:** on restart, every `Submitted` without a matching
//! `Finished` re-enters the queue in submission order (sharded campaigns
//! re-enter with their journaled `ShardFinished` results pre-seeded);
//! every `Finished` job serves its journaled result directly ([`replay`]).
//! A `Submitted` for an id already seen is a duplicated line and is
//! ignored. Job and shard execution are deterministic in the spec, so a
//! re-run of an interrupted job commits the same result the killed run
//! would have.
//!
//! **Epoch fencing.** A deposed primary must never corrupt its
//! successor's journal. The log refuses any append through a handle whose
//! file another writer advanced or replaced (a rival primary's `Epoch`
//! record, a successor's compaction); the refusal is a fenced error
//! ([`is_fenced`]) naming the rival's epoch, and the caller demotes.
//! Combined with the flock this closes the standby takeover race window:
//! even a writer that somehow bypasses the lock cannot make a deposed
//! primary's stale write land silently.
//!
//! A torn final line (the daemon was SIGKILLed mid-append) is dropped and
//! truncated away; any other damage, and any checksummed line that does
//! not parse as an event, is refused. A second daemon on the same journal
//! is refused with the holder's pid instead of interleaving appends.

use crate::jobs::{JobSpec, JobState, JobView, ShardDone};
use pmtx::log::{Header, Log};
use pmtx::JournalError;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// The journal's schema tag, checked on resume.
pub const JOBS_JOURNAL_SCHEMA: &str = "hippo.jobs.v1";

/// Whether a journal append error is an epoch-fencing refusal — the
/// signal that this primary was deposed and must demote instead of retry.
pub fn is_fenced(err: &str) -> bool {
    err.starts_with("epoch fenced")
}

/// The first journal line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobJournalHeader {
    pub schema: String,
}

impl Header for JobJournalHeader {
    fn schema(&self) -> &str {
        &self.schema
    }
}

fn header() -> JobJournalHeader {
    JobJournalHeader {
        schema: JOBS_JOURNAL_SCHEMA.to_string(),
    }
}

/// One journaled lifecycle event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobEvent {
    Submitted {
        id: String,
        spec: JobSpec,
    },
    Finished {
        view: JobView,
    },
    /// A primary won the election at this monotonic epoch.
    Epoch {
        epoch: u64,
        pid: u32,
    },
    /// A worker acquired the lease on one campaign shard.
    LeaseAcquired {
        job: String,
        shard: u64,
        epoch: u64,
        owner: String,
        attempt: u32,
    },
    /// The holder heartbeat-renewed its lease (journaled coarsely: the
    /// first renewal of each attempt, so the ledger shows liveness without
    /// growing per heartbeat).
    LeaseRenewed {
        job: String,
        shard: u64,
        epoch: u64,
        owner: String,
    },
    /// The reaper reclaimed an expired (or revoked) lease; the shard goes
    /// back to the scheduler with its attempt counter advanced.
    LeaseReclaimed {
        job: String,
        shard: u64,
        epoch: u64,
        owner: String,
        attempt: u32,
        reason: String,
    },
    /// The shard exhausted its retry budget: poison-shard quarantine.
    ShardQuarantined {
        job: String,
        shard: u64,
        attempts: u32,
        reason: String,
    },
    /// One shard's committed (first-commit-wins) result.
    ShardFinished {
        job: String,
        shard: u64,
        result: ShardDone,
    },
    /// Compaction checkpoint: `dropped` superseded records were removed
    /// when this journal was rewritten.
    Compacted {
        dropped: u64,
    },
}

/// An open, exclusively locked job journal.
#[derive(Debug)]
pub struct JobJournal {
    log: Log,
    /// The highest election epoch seen or written through this handle.
    epoch: u64,
}

impl JobJournal {
    /// Opens (creating if absent) the journal, replaying every committed
    /// event. A torn final line is truncated away; the replayed events are
    /// returned in append order.
    ///
    /// # Errors
    ///
    /// Fails when another process holds the journal (the message names the
    /// holder's pid), on corruption, on a schema mismatch, and on I/O
    /// errors.
    pub fn open(path: impl AsRef<Path>) -> Result<(JobJournal, Vec<JobEvent>), String> {
        let opened = Log::open(path, &header()).map_err(|e| e.to_string())?;
        let journal = JobJournal {
            log: opened.log,
            epoch: max_epoch(&opened.records),
        };
        Ok((journal, opened.records))
    }

    /// Appends one event, durable (synced) before returning.
    ///
    /// # Errors
    ///
    /// Refuses with a fenced error ([`is_fenced`]) when another writer
    /// advanced or replaced the journal since this handle's last append —
    /// the caller must demote, not retry. Also propagates serialization
    /// and I/O failures.
    pub fn append(&mut self, event: &JobEvent) -> Result<(), String> {
        self.log.append(event).map_err(|e| self.refusal(e))?;
        if let JobEvent::Epoch { epoch, .. } = event {
            self.epoch = (*epoch).max(self.epoch);
        }
        Ok(())
    }

    /// Claims the primaryship: appends an `Epoch` record one past the
    /// highest epoch this journal has seen, returning the new epoch.
    ///
    /// The flock held by this handle makes the claim atomic; the record
    /// makes it durable, so a deposed predecessor's fence check (and any
    /// auditor) can see who the legitimate primary is.
    ///
    /// # Errors
    ///
    /// Propagates [`JobJournal::append`] failures, including fencing.
    pub fn elect(&mut self) -> Result<u64, String> {
        let epoch = self.epoch + 1;
        self.append(&JobEvent::Epoch {
            epoch,
            pid: std::process::id(),
        })?;
        Ok(epoch)
    }

    /// The highest election epoch seen or written through this handle.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rewrites the journal with superseded records removed (see
    /// [`compact_events`]) behind a `Compacted` checkpoint, preserving
    /// resume semantics exactly; crash-atomic (see
    /// [`pmtx::log::Log::rewrite`]). `events` must be this journal's full
    /// replayed event list. Returns the number of records dropped.
    ///
    /// # Errors
    ///
    /// Refuses with a fenced error when a rival writer advanced the
    /// journal; propagates I/O failures.
    pub fn compact(&mut self, events: &[JobEvent]) -> Result<u64, String> {
        let (kept, dropped) = compact_events(events);
        let records: Vec<JobEvent> = std::iter::once(JobEvent::Compacted { dropped })
            .chain(kept)
            .collect();
        self.log.rewrite(&records).map_err(|e| self.refusal(e))?;
        Ok(dropped)
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Renders a log error; a fenced one also names the rival's epoch, when
    /// the journal is still readable enough to find it.
    fn refusal(&self, err: JournalError) -> String {
        let mut msg = err.to_string();
        if let JournalError::Fenced { .. } = err {
            let newest = read_events(self.path()).map_or(0, |events| max_epoch(&events));
            if newest > self.epoch {
                msg.push_str(&format!(
                    " — a rival primary holds epoch {newest} (ours: {}); demoting",
                    self.epoch
                ));
            }
        }
        msg
    }
}

fn max_epoch(events: &[JobEvent]) -> u64 {
    events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Epoch { epoch, .. } => Some(*epoch),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// Compacts a replayed event list, dropping every record that no longer
/// affects resume:
///
/// - all `Epoch` records collapse into the single latest one, emitted
///   first so a resuming primary knows the fence floor before anything
///   else;
/// - terminal jobs keep `Submitted` + `Finished` (the cached result);
/// - pending jobs keep `Submitted` plus their committed `ShardFinished`
///   (first commit per shard — later duplicates lost the
///   first-commit-wins race) and `ShardQuarantined` records;
/// - lease acquire/renew/reclaim history and prior `Compacted`
///   checkpoints are dropped — they describe the past, not the resume
///   state.
///
/// Replaying the compacted list reconstructs exactly the same scheduler
/// state (and therefore byte-identical campaign output) as the original.
/// Returns `(kept, dropped_count)`.
pub fn compact_events(events: &[JobEvent]) -> (Vec<JobEvent>, u64) {
    use std::collections::HashSet;
    let finished: HashSet<&str> = events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Finished { view } => Some(view.id.as_str()),
            _ => None,
        })
        .collect();
    let newest_epoch = max_epoch(events);
    let mut kept = Vec::new();
    if newest_epoch > 0 {
        kept.push(JobEvent::Epoch {
            epoch: newest_epoch,
            pid: std::process::id(),
        });
    }
    let mut committed: HashSet<(String, u64)> = HashSet::new();
    for event in events {
        match event {
            JobEvent::Submitted { .. } | JobEvent::Finished { .. } => kept.push(event.clone()),
            JobEvent::ShardFinished { job, shard, .. }
                if !finished.contains(job.as_str()) && committed.insert((job.clone(), *shard)) =>
            {
                kept.push(event.clone());
            }
            JobEvent::ShardQuarantined { job, .. } if !finished.contains(job.as_str()) => {
                kept.push(event.clone());
            }
            JobEvent::Epoch { .. }
            | JobEvent::LeaseAcquired { .. }
            | JobEvent::LeaseRenewed { .. }
            | JobEvent::LeaseReclaimed { .. }
            | JobEvent::ShardFinished { .. }
            | JobEvent::ShardQuarantined { .. }
            | JobEvent::Compacted { .. } => {}
        }
    }
    let dropped = events.len().saturating_sub(kept.len()) as u64;
    (kept, dropped)
}

/// The resume state a journal's events reconstruct.
#[derive(Debug, Default, PartialEq)]
pub struct Replayed {
    /// Every submitted job: queued until its `Finished`, then terminal.
    pub(crate) jobs: BTreeMap<String, JobView>,
    /// The spec of every submitted job.
    pub(crate) specs: HashMap<String, JobSpec>,
    /// Unfinished jobs, in submission order.
    pub(crate) pending: Vec<String>,
    /// The highest `job-N` id submitted.
    pub(crate) max_id: u64,
    /// Pending campaigns' committed shard results (first commit wins).
    pub(crate) shard_results: HashMap<String, BTreeMap<u64, ShardDone>>,
    /// Pending campaigns' quarantined shards: shard → (attempts, reason).
    pub(crate) shard_quarantined: HashMap<String, BTreeMap<u64, (u32, String)>>,
}

/// Replays events into the resume state. A `Submitted` counts only for an
/// id not seen before: a duplicated line is checksum-valid, and taking it
/// again would queue (or re-open) the job twice.
pub fn replay(events: Vec<JobEvent>) -> Replayed {
    let mut r = Replayed::default();
    for ev in events {
        match ev {
            JobEvent::Submitted { id, spec } => {
                if r.jobs.contains_key(&id) {
                    continue;
                }
                if let Some(n) = id.strip_prefix("job-").and_then(|n| n.parse().ok()) {
                    r.max_id = r.max_id.max(n);
                }
                r.jobs.insert(
                    id.clone(),
                    JobView {
                        id: id.clone(),
                        kind: spec.kind,
                        state: JobState::Queued,
                        error: None,
                        result: None,
                    },
                );
                r.specs.insert(id.clone(), spec);
                r.pending.push(id);
            }
            JobEvent::Finished { view } => {
                r.pending.retain(|p| p != &view.id);
                r.shard_results.remove(&view.id);
                r.shard_quarantined.remove(&view.id);
                r.jobs.insert(view.id.clone(), view);
            }
            JobEvent::ShardFinished { job, shard, result } => {
                r.shard_results
                    .entry(job)
                    .or_default()
                    .entry(shard)
                    .or_insert(result);
            }
            JobEvent::ShardQuarantined {
                job,
                shard,
                attempts,
                reason,
            } => {
                r.shard_quarantined
                    .entry(job)
                    .or_default()
                    .insert(shard, (attempts, reason));
            }
            // The epoch is tracked by the journal handle itself; lease
            // grant/renew/reclaim history and compaction checkpoints do
            // not affect the resume state.
            JobEvent::Epoch { .. }
            | JobEvent::LeaseAcquired { .. }
            | JobEvent::LeaseRenewed { .. }
            | JobEvent::LeaseReclaimed { .. }
            | JobEvent::Compacted { .. } => {}
        }
    }
    r
}

/// Reads a journal's events without taking the lock — the audit path used
/// by tests, the chaos gate, and post-mortem tooling while (or after) a
/// daemon holds the journal (see [`pmtx::log::read`]).
///
/// # Errors
///
/// Fails on I/O errors, a schema mismatch, and corruption.
pub fn read_events(path: impl AsRef<Path>) -> Result<Vec<JobEvent>, String> {
    pmtx::log::read(path, &header()).map_err(|e| e.to_string())
}

/// Chaos/test helper: appends an `Epoch` record to a journal *without*
/// taking the flock or checking the fence — simulating a rival primary
/// that claimed the journal behind the holder's back. The holder's next
/// [`JobJournal::append`] is then refused with a fenced error, which is
/// exactly the property the double-primary chaos archetype exercises.
pub fn append_rival_epoch(path: impl AsRef<Path>, epoch: u64) -> Result<(), String> {
    let rival = JobEvent::Epoch {
        epoch,
        pid: std::process::id(),
    };
    pmtx::log::append_unlocked(path, &rival).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{JobKind, JobState};
    use std::path::PathBuf;

    fn spec() -> JobSpec {
        JobSpec::new(
            JobKind::Lint,
            vec![("a.pmc".to_string(), "fn main() {}".to_string())],
        )
    }

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hippod-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("jobs.journal")
    }

    fn submitted(id: &str) -> JobEvent {
        JobEvent::Submitted {
            id: id.to_string(),
            spec: spec(),
        }
    }

    fn finished(id: &str) -> JobEvent {
        JobEvent::Finished {
            view: JobView {
                id: id.to_string(),
                kind: JobKind::Lint,
                state: JobState::Done,
                error: None,
                result: None,
            },
        }
    }

    #[test]
    fn events_replay_in_append_order() {
        let path = tmp("replay");
        {
            let (mut j, replayed) = JobJournal::open(&path).unwrap();
            assert!(replayed.is_empty());
            j.append(&submitted("job-1")).unwrap();
            j.append(&submitted("job-2")).unwrap();
            j.append(&finished("job-1")).unwrap();
        }
        let (_j, replayed) = JobJournal::open(&path).unwrap();
        assert_eq!(
            replayed,
            vec![submitted("job-1"), submitted("job-2"), finished("job-1")]
        );
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let path = tmp("torn");
        {
            let (mut j, _) = JobJournal::open(&path).unwrap();
            j.append(&submitted("job-1")).unwrap();
        }
        // Simulate a SIGKILL mid-append: half a line, no newline.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        std::io::Write::write_all(&mut f, b"{\"Finished\":{\"view\":{\"id\":\"job").unwrap();
        drop(f);
        let before = std::fs::metadata(&path).unwrap().len();
        let (_j, replayed) = JobJournal::open(&path).unwrap();
        assert_eq!(replayed, vec![submitted("job-1")]);
        assert!(
            std::fs::metadata(&path).unwrap().len() < before,
            "the torn tail must be truncated away"
        );
    }

    #[test]
    fn interior_corruption_is_refused() {
        let path = tmp("interior");
        {
            let (mut j, _) = JobJournal::open(&path).unwrap();
            j.append(&submitted("job-1")).unwrap();
            j.append(&finished("job-1")).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let flipped = text.replacen("job-1", "job-X", 1);
        std::fs::write(&path, flipped).unwrap();
        let err = JobJournal::open(&path).unwrap_err();
        assert!(err.contains("corrupted at line 2"), "{err}");
    }

    #[test]
    fn a_durable_tail_that_does_not_parse_is_refused_not_dropped() {
        // An event kind this build does not know (say, one written by a
        // newer build): its line is checksummed and synced, so it may have
        // been acknowledged. Dropping it as a torn tail would lose it.
        #[derive(Serialize)]
        enum FutureEvent {
            Rebalanced { job: String },
        }
        let path = tmp("durable-tail");
        {
            let (mut j, _) = JobJournal::open(&path).unwrap();
            j.append(&submitted("job-1")).unwrap();
        }
        let future = FutureEvent::Rebalanced {
            job: "job-1".to_string(),
        };
        pmtx::log::append_unlocked(&path, &future).unwrap();
        let before = std::fs::read(&path).unwrap();
        let err = JobJournal::open(&path).unwrap_err();
        assert!(err.contains("corrupted at line 3"), "{err}");
        assert!(err.contains("refusing to resume"), "{err}");
        assert!(read_events(&path).unwrap_err().contains("line 3"));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "a refused journal is never truncated"
        );
    }

    fn shard_finished(id: &str, shard: u64) -> JobEvent {
        JobEvent::ShardFinished {
            job: id.to_string(),
            shard,
            result: ShardDone {
                output: format!("report for {id} shard {shard}\n"),
                summary: format!("shard {shard}/4: clean"),
                clean: true,
            },
        }
    }

    #[test]
    fn election_epochs_are_monotonic_across_reopens() {
        let path = tmp("elect");
        {
            let (mut j, _) = JobJournal::open(&path).unwrap();
            assert_eq!(j.epoch(), 0);
            assert_eq!(j.elect().unwrap(), 1);
            assert_eq!(j.elect().unwrap(), 2);
        }
        let (mut j, events) = JobJournal::open(&path).unwrap();
        assert_eq!(j.epoch(), 2, "replay must recover the highest epoch");
        assert_eq!(j.elect().unwrap(), 3);
        assert!(events
            .iter()
            .any(|e| matches!(e, JobEvent::Epoch { epoch: 2, .. })));
    }

    #[test]
    fn rival_epoch_append_fences_the_holder() {
        let path = tmp("fence");
        let (mut j, _) = JobJournal::open(&path).unwrap();
        j.elect().unwrap();
        j.append(&submitted("job-1")).unwrap();
        // A rival primary sneaks an epoch record past the flock.
        append_rival_epoch(&path, 7).unwrap();
        let err = j.append(&finished("job-1")).unwrap_err();
        assert!(is_fenced(&err), "{err}");
        assert!(err.contains("epoch 7"), "the fence names the rival: {err}");
        // The stale write was refused, not performed: the journal holds the
        // rival's record and nothing after it.
        let events = read_events(&path).unwrap();
        assert_eq!(
            events.last(),
            Some(&JobEvent::Epoch {
                epoch: 7,
                pid: std::process::id()
            })
        );
        assert!(!events.iter().any(|e| e == &finished("job-1")));
        // Fencing is sticky: the deposed handle stays fenced.
        assert!(is_fenced(&j.append(&submitted("job-2")).unwrap_err()));
    }

    #[test]
    fn compaction_preserves_replay_state_and_accepts_new_appends() {
        let path = tmp("compact");
        let before;
        {
            let (mut j, _) = JobJournal::open(&path).unwrap();
            j.elect().unwrap();
            j.append(&submitted("job-1")).unwrap();
            j.append(&finished("job-1")).unwrap();
            j.append(&submitted("job-2")).unwrap();
            j.append(&JobEvent::LeaseAcquired {
                job: "job-2".to_string(),
                shard: 0,
                epoch: 1,
                owner: "worker-0".to_string(),
                attempt: 0,
            })
            .unwrap();
            j.append(&shard_finished("job-2", 0)).unwrap();
            j.append(&JobEvent::LeaseReclaimed {
                job: "job-2".to_string(),
                shard: 1,
                epoch: 1,
                owner: "worker-1".to_string(),
                attempt: 1,
                reason: "lease expired".to_string(),
            })
            .unwrap();
            j.elect().unwrap();
            before = std::fs::metadata(&path).unwrap().len();
        }
        // Reopen cleanly, compact, then verify the replayed state matches.
        let dropped = {
            let (mut j, events) = JobJournal::open(&path).unwrap();
            let dropped = j.compact(&events).unwrap();
            // The compacted journal still accepts appends (fence re-armed at
            // the new length).
            j.append(&submitted("job-3")).unwrap();
            dropped
        };
        assert!(dropped >= 3, "epochs + lease records collapse: {dropped}");
        assert!(
            std::fs::metadata(&path).unwrap().len() < before,
            "compaction must shrink the journal"
        );
        let (j, events) = JobJournal::open(&path).unwrap();
        assert_eq!(j.epoch(), 2, "the latest epoch survives compaction");
        assert!(events.iter().any(|e| e == &submitted("job-1")));
        assert!(events.iter().any(|e| e == &finished("job-1")));
        assert!(events.iter().any(|e| e == &submitted("job-2")));
        assert!(events.iter().any(|e| e == &shard_finished("job-2", 0)));
        assert!(events.iter().any(|e| e == &submitted("job-3")));
        assert!(
            !events.iter().any(|e| matches!(
                e,
                JobEvent::LeaseAcquired { .. } | JobEvent::LeaseReclaimed { .. }
            )),
            "lease history is dropped"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, JobEvent::Compacted { .. })));
    }

    #[test]
    fn compact_events_keeps_first_commit_and_drops_terminal_shards() {
        let mut second = shard_finished("job-2", 0);
        if let JobEvent::ShardFinished { result, .. } = &mut second {
            result.output = "a LOSING duplicate commit".to_string();
        }
        let events = vec![
            JobEvent::Epoch { epoch: 1, pid: 1 },
            submitted("job-1"),
            shard_finished("job-1", 0),
            finished("job-1"),
            submitted("job-2"),
            shard_finished("job-2", 0),
            second,
            JobEvent::ShardQuarantined {
                job: "job-2".to_string(),
                shard: 3,
                attempts: 4,
                reason: "injected worker kill".to_string(),
            },
            JobEvent::Epoch { epoch: 2, pid: 2 },
        ];
        let (kept, dropped) = compact_events(&events);
        assert_eq!(
            kept[0],
            JobEvent::Epoch {
                epoch: 2,
                pid: std::process::id()
            },
            "the latest epoch leads"
        );
        // job-1 is terminal: its shard commits are superseded by Finished.
        assert!(!kept.iter().any(|e| e == &shard_finished("job-1", 0)));
        // job-2 is pending: its FIRST shard-0 commit survives, not the dup.
        assert!(kept.iter().any(|e| e == &shard_finished("job-2", 0)));
        assert_eq!(
            kept.iter()
                .filter(|e| matches!(e, JobEvent::ShardFinished { job, shard, .. } if job == "job-2" && *shard == 0))
                .count(),
            1
        );
        assert!(kept.iter().any(
            |e| matches!(e, JobEvent::ShardQuarantined { job, shard: 3, .. } if job == "job-2")
        ));
        // Dropped: the two epochs collapse into one, job-1's superseded
        // shard commit goes, and so does the losing duplicate.
        assert_eq!(dropped, 3);
    }

    #[test]
    fn read_events_audits_without_taking_the_lock() {
        let path = tmp("audit");
        let (mut j, _) = JobJournal::open(&path).unwrap();
        j.elect().unwrap();
        j.append(&submitted("job-1")).unwrap();
        // The holder is still alive and locked; the audit reads anyway.
        let events = read_events(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1], submitted("job-1"));
    }

    #[test]
    fn second_open_is_refused_with_holder_pid() {
        let path = tmp("locked");
        let (_j, _) = JobJournal::open(&path).unwrap();
        let err = JobJournal::open(&path).unwrap_err();
        assert!(err.contains("held by pid"), "{err}");
        assert!(
            err.contains(&std::process::id().to_string()),
            "the message must name the holder: {err}"
        );
    }
}
