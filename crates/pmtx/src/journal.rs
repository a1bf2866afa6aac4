//! The write-ahead repair journal (`hippo.journal.v1`).
//!
//! One record schema over the checksummed log ([`crate::log`], which owns
//! the on-disk format, the torn-tail/corruption recovery rule, the lock and
//! the fence). Line 1 is a [`JournalHeader`] naming the schema and the
//! digests of the input module and repair options; every later line is one
//! committed [`RoundRecord`].
//!
//! On top of the log's rules, a resume refuses:
//!
//! - round records not numbered 1, 2, 3, … in file order: a gap or reorder
//!   is corruption ([`JournalError::Corrupted`]);
//! - a journal whose recorded module or options digest differs from the
//!   current run's ([`JournalError::StateMismatch`]): replaying fixes
//!   computed for a different input would be exactly the kind of harm
//!   Hippocrates exists to prevent.

use crate::log::{Header, JournalError, Log};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The schema identifier written into (and required of) every journal.
pub const JOURNAL_SCHEMA: &str = "hippo.journal.v1";

/// First line of every journal: what run this journal belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Always [`JOURNAL_SCHEMA`].
    pub schema: String,
    /// Digest (hex) of the input module's canonical printed text.
    pub module_digest: String,
    /// Digest (hex) of the repair options that shape fix planning.
    pub options_digest: String,
}

impl JournalHeader {
    /// A v1 header for the given module/options digests.
    pub fn new(module_digest: impl Into<String>, options_digest: impl Into<String>) -> Self {
        JournalHeader {
            schema: JOURNAL_SCHEMA.to_string(),
            module_digest: module_digest.into(),
            options_digest: options_digest.into(),
        }
    }
}

impl Header for JournalHeader {
    fn schema(&self) -> &str {
        &self.schema
    }
}

/// One committed repair round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// 1-based committed-round number; file order must match.
    pub round: u32,
    /// Module digest (hex) the round started from.
    pub base_digest: String,
    /// Module digest (hex) the round committed.
    pub after_digest: String,
    /// Digest (hex) of the post-round durability report.
    pub report_digest: String,
    /// Persistent clones created by this round.
    pub clones: u64,
    /// The round's applied fixes, each pre-serialized by the engine (opaque
    /// to `pmtx`).
    pub fixes: Vec<String>,
    /// Canonical printed text of the module after the round — the replay
    /// payload.
    pub patch: String,
}

/// An open journal: the parsed committed rounds plus an append handle.
#[derive(Debug)]
pub struct Journal {
    log: Log,
    header: JournalHeader,
    rounds: Vec<RoundRecord>,
}

/// The result of resuming an existing journal.
#[derive(Debug)]
pub struct Resumed {
    /// The opened journal, positioned to append the next round.
    pub journal: Journal,
    /// Human-readable notes: a dropped torn tail, a fresh file, etc.
    pub diagnostics: Vec<String>,
}

impl Journal {
    /// Creates (or truncates) a fresh journal for `header` and makes the
    /// header durable.
    pub fn create(path: impl AsRef<Path>, header: JournalHeader) -> Result<Journal, JournalError> {
        Ok(Journal {
            log: Log::create(path, &header)?,
            header,
            rounds: Vec::new(),
        })
    }

    /// Opens an existing journal for `expected`, replay-ready.
    ///
    /// Tolerates exactly one torn final line (see [`crate::log`]); any other
    /// damage is an error. A file with no committed state starts fresh.
    /// Refuses journals whose module or options digest differs from
    /// `expected`.
    pub fn resume(
        path: impl AsRef<Path>,
        expected: &JournalHeader,
    ) -> Result<Resumed, JournalError> {
        let opened = Log::open::<JournalHeader, RoundRecord>(path, expected)?;
        let header = opened.header;
        for (what, journal, current) in [
            ("module", &header.module_digest, &expected.module_digest),
            ("options", &header.options_digest, &expected.options_digest),
        ] {
            if journal != current {
                return Err(JournalError::StateMismatch {
                    what,
                    journal: journal.clone(),
                    current: current.clone(),
                });
            }
        }
        for (i, rec) in opened.records.iter().enumerate() {
            if rec.round as usize != i + 1 {
                return Err(JournalError::Corrupted {
                    line: i + 2,
                    reason: format!(
                        "round {} out of order (expected round {})",
                        rec.round,
                        i + 1
                    ),
                });
            }
        }
        Ok(Resumed {
            journal: Journal {
                log: opened.log,
                header,
                rounds: opened.records,
            },
            diagnostics: opened.diagnostics,
        })
    }

    /// Appends a committed round and makes it durable before returning.
    pub fn append(&mut self, record: RoundRecord) -> Result<(), JournalError> {
        if record.round != self.next_round() {
            return Err(JournalError::Corrupted {
                line: self.rounds.len() + 2,
                reason: format!(
                    "attempted to append round {} after round {}",
                    record.round,
                    self.rounds.len()
                ),
            });
        }
        self.log.append(&record)?;
        self.rounds.push(record);
        Ok(())
    }

    /// The journal's header.
    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// Committed rounds, in commit order.
    pub fn rounds(&self) -> &[RoundRecord] {
        &self.rounds
    }

    /// The round number the next [`Journal::append`] must carry.
    pub fn next_round(&self) -> u32 {
        self.rounds.len() as u32 + 1
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pmtx-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn rec(round: u32) -> RoundRecord {
        RoundRecord {
            round,
            base_digest: format!("{:016x}", u64::from(round)),
            after_digest: format!("{:016x}", u64::from(round) + 1),
            report_digest: "00000000000000aa".to_string(),
            clones: 0,
            fixes: vec![format!("{{\"fix\":{round}}}")],
            patch: format!("module text\nfor round {round}\n"),
        }
    }

    #[test]
    fn create_append_resume_roundtrip() {
        let path = tmpdir("roundtrip").join("j.journal");
        let header = JournalHeader::new("aa", "bb");
        let mut j = Journal::create(&path, header.clone()).unwrap();
        j.append(rec(1)).unwrap();
        j.append(rec(2)).unwrap();
        drop(j);

        let resumed = Journal::resume(&path, &header).unwrap();
        assert!(resumed.diagnostics.is_empty(), "{:?}", resumed.diagnostics);
        assert_eq!(resumed.journal.rounds(), &[rec(1), rec(2)]);
        assert_eq!(resumed.journal.next_round(), 3);
    }

    #[test]
    fn resume_continues_the_sequence() {
        let path = tmpdir("continue").join("j.journal");
        let header = JournalHeader::new("aa", "bb");
        let mut j = Journal::create(&path, header.clone()).unwrap();
        j.append(rec(1)).unwrap();
        drop(j);

        let mut j = Journal::resume(&path, &header).unwrap().journal;
        j.append(rec(2)).unwrap();
        drop(j);
        let j = Journal::resume(&path, &header).unwrap().journal;
        assert_eq!(j.rounds().len(), 2);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let path = tmpdir("torn").join("j.journal");
        let header = JournalHeader::new("aa", "bb");
        let mut j = Journal::create(&path, header.clone()).unwrap();
        j.append(rec(1)).unwrap();
        drop(j);
        // Simulate a crash mid-append: half a record, no checksum/newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"round\":2,\"base").unwrap();
        drop(f);

        let resumed = Journal::resume(&path, &header).unwrap();
        assert_eq!(resumed.journal.rounds(), &[rec(1)]);
        assert_eq!(resumed.diagnostics.len(), 1);
        assert!(
            resumed.diagnostics[0].contains("torn"),
            "{:?}",
            resumed.diagnostics
        );

        // The torn bytes are gone: a further resume is clean.
        drop(resumed);
        let again = Journal::resume(&path, &header).unwrap();
        assert!(again.diagnostics.is_empty(), "{:?}", again.diagnostics);
    }

    #[test]
    fn append_after_torn_tail_recovery_is_well_formed() {
        let path = tmpdir("torn-append").join("j.journal");
        let header = JournalHeader::new("aa", "bb");
        let mut j = Journal::create(&path, header.clone()).unwrap();
        j.append(rec(1)).unwrap();
        drop(j);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"partial garbage").unwrap();
        drop(f);

        let mut j = Journal::resume(&path, &header).unwrap().journal;
        j.append(rec(2)).unwrap();
        drop(j);
        let j = Journal::resume(&path, &header).unwrap().journal;
        assert_eq!(j.rounds(), &[rec(1), rec(2)]);
    }

    #[test]
    fn interior_corruption_is_rejected() {
        let path = tmpdir("interior").join("j.journal");
        let header = JournalHeader::new("aa", "bb");
        let mut j = Journal::create(&path, header.clone()).unwrap();
        j.append(rec(1)).unwrap();
        j.append(rec(2)).unwrap();
        drop(j);
        // Flip one byte in the middle of the file (round 1's line).
        let mut bytes = std::fs::read(&path).unwrap();
        let line1_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[line1_end + 5] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        match Journal::resume(&path, &header) {
            Err(JournalError::Corrupted { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupted, got {other:?}"),
        }
    }

    #[test]
    fn header_digest_mismatch_refuses_resume() {
        let path = tmpdir("mismatch").join("j.journal");
        let header = JournalHeader::new("aa", "bb");
        Journal::create(&path, header.clone()).unwrap();

        let other_module = JournalHeader::new("cc", "bb");
        match Journal::resume(&path, &other_module) {
            Err(JournalError::StateMismatch { what: "module", .. }) => {}
            other => panic!("expected module StateMismatch, got {other:?}"),
        }
        let other_opts = JournalHeader::new("aa", "dd");
        match Journal::resume(&path, &other_opts) {
            Err(JournalError::StateMismatch {
                what: "options", ..
            }) => {}
            other => panic!("expected options StateMismatch, got {other:?}"),
        }
        let msg = Journal::resume(&path, &other_opts).unwrap_err().to_string();
        assert!(msg.contains("refusing to resume"), "{msg}");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let path = tmpdir("schema").join("j.journal");
        let header = JournalHeader {
            schema: "hippo.journal.v0".to_string(),
            module_digest: "aa".to_string(),
            options_digest: "bb".to_string(),
        };
        Journal::create(&path, header).unwrap();
        match Journal::resume(&path, &JournalHeader::new("aa", "bb")) {
            Err(JournalError::SchemaMismatch { found, .. }) => {
                assert_eq!(found, "hippo.journal.v0")
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_file_resumes_fresh() {
        let path = tmpdir("empty").join("j.journal");
        std::fs::write(&path, b"").unwrap();
        let header = JournalHeader::new("aa", "bb");
        let resumed = Journal::resume(&path, &header).unwrap();
        assert!(resumed.journal.rounds().is_empty());
        assert!(
            resumed.diagnostics.iter().any(|d| d.contains("fresh")),
            "{:?}",
            resumed.diagnostics
        );
    }

    #[test]
    fn concurrent_open_is_refused_with_holder_pid() {
        let path = tmpdir("flock").join("j.journal");
        let header = JournalHeader::new("aa", "bb");
        let held = Journal::create(&path, header.clone()).unwrap();
        // A second open — create or resume — must refuse while the first
        // handle lives; this is the "second daemon on one journal" case.
        match Journal::resume(&path, &header) {
            Err(JournalError::Locked(_)) => {}
            other => panic!("expected Locked, got {other:?}"),
        }
        let msg = Journal::create(&path, header.clone())
            .unwrap_err()
            .to_string();
        assert!(msg.contains("held by pid"), "{msg}");
        assert!(msg.contains(&std::process::id().to_string()), "{msg}");
        drop(held);
        Journal::resume(&path, &header).unwrap();
    }

    #[test]
    fn out_of_order_append_is_refused() {
        let path = tmpdir("order").join("j.journal");
        let mut j = Journal::create(&path, JournalHeader::new("aa", "bb")).unwrap();
        assert!(j.append(rec(2)).is_err());
        assert!(j.append(rec(1)).is_ok());
    }

    #[test]
    fn round_gap_on_disk_is_corruption() {
        let path = tmpdir("gap").join("j.journal");
        let header = JournalHeader::new("aa", "bb");
        let mut j = Journal::create(&path, header.clone()).unwrap();
        j.append(rec(1)).unwrap();
        drop(j);
        // Hand-forge a well-checksummed record with the wrong round number.
        crate::log::append_unlocked(&path, &rec(5)).unwrap();
        match Journal::resume(&path, &header) {
            Err(JournalError::Corrupted { reason, .. }) => {
                assert!(reason.contains("out of order"), "{reason}")
            }
            other => panic!("expected Corrupted, got {other:?}"),
        }
    }
}
