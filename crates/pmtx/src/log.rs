//! The checksummed append-only log under every `hippo.*` journal.
//!
//! The repair journal ([`crate::Journal`], schema `hippo.journal.v1`) and
//! the daemon's job journal (`hippod::JobJournal`, schema `hippo.jobs.v1`)
//! are two record schemas over this one log. It is the only code that
//! knows the on-disk format and the recovery rule, so the two journals
//! cannot drift apart.
//!
//! # On-disk format
//!
//! A log is a line-oriented text file. Every line is
//!
//! ```text
//! <payload>#<checksum>\n
//! ```
//!
//! where `<payload>` is a single-line JSON document and `<checksum>` is the
//! FNV-1a 64 hash of the payload bytes as 16 lowercase hex digits. Line 1
//! is the [`Header`], whose `schema` names the record format; every later
//! line is one record.
//!
//! # Recovery rule
//!
//! Every append is one `write` and one `sync_data`, so a line in the file
//! is durable and may already have been acknowledged. On open:
//!
//! - A **torn final line** (bad checksum or missing newline, on the last
//!   line only) is the residue of a crash mid-append: that record was never
//!   acknowledged. It is dropped, the file is truncated back to the last
//!   whole line, and a diagnostic says so.
//! - **Any other damaged line** is refused with [`JournalError::Corrupted`]
//!   naming the line, and the file is left as it is.
//! - A line whose checksum holds but whose payload does not parse is
//!   refused too, even at the tail. It is durable, so it may be an
//!   acknowledged record (say, one written by a newer build); dropping it
//!   would lose it.
//! - A file without a whole header line holds no committed state and
//!   starts fresh.
//!
//! # Locking and fencing
//!
//! An open [`Log`] holds an exclusive advisory lock on a `<log>.lock`
//! sidecar (see [`crate::lock`]): a second writer is refused with a
//! "held by pid N" diagnostic. Every append and rewrite first checks the
//! fence: the file at the log's path must still be the inode this handle
//! opened, exactly as long as its own writes left it. A writer that got
//! past the lock (a rival primary's epoch record, a successor's
//! compaction) fails that check, and the write is refused with an
//! `epoch fenced` error ([`JournalError::Fenced`]) instead of landing
//! behind the rival's back.

use crate::lock::{FileLock, LockError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, Metadata, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// A log's first record.
pub trait Header: Serialize + Deserialize + Clone {
    /// The schema this header names; an existing log is opened only when
    /// its header names the same schema as the caller's.
    fn schema(&self) -> &str;
}

/// Why a journal could not be created, read, or appended to.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A line failed its checksum or does not parse, or a record breaks
    /// its journal's structural rules.
    Corrupted {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The file's header names a schema this build does not speak.
    SchemaMismatch {
        /// The schema string found in the file.
        found: String,
        /// The schema this build speaks.
        expected: String,
    },
    /// The repair journal belongs to a different module or options
    /// configuration.
    StateMismatch {
        /// `"module"` or `"options"`.
        what: &'static str,
        /// Digest recorded in the journal (hex).
        journal: String,
        /// Digest of the current run (hex).
        current: String,
    },
    /// Another live process holds the journal's advisory lock.
    Locked(LockError),
    /// Another writer advanced or replaced the file behind this handle.
    Fenced {
        /// The journal path.
        path: PathBuf,
        /// What the fence saw.
        why: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, error } => {
                write!(f, "journal {}: {error}", path.display())
            }
            JournalError::Corrupted { line, reason } => write!(
                f,
                "journal corrupted at line {line}: {reason}; refusing to resume \
                 (delete the journal to start over)"
            ),
            JournalError::SchemaMismatch { found, expected } => write!(
                f,
                "journal schema `{found}` is not `{expected}`; refusing to resume"
            ),
            JournalError::StateMismatch {
                what,
                journal,
                current,
            } => write!(
                f,
                "journal was recorded for {what} digest {journal} but the current \
                 {what} digest is {current}; refusing to resume (re-run without \
                 --resume to start a fresh journal)"
            ),
            JournalError::Locked(e) => e.fmt(f),
            JournalError::Fenced { path, why } => write!(
                f,
                "epoch fenced: journal {} {why}; refusing the stale write",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// An open, exclusively locked log, positioned to append.
#[derive(Debug)]
pub struct Log {
    path: PathBuf,
    file: File,
    /// The framed header line, written first again by [`Log::rewrite`].
    header: String,
    /// Device and inode of `file`: the identity half of the fence.
    id: (u64, u64),
    /// The file length this handle's own writes left: the length half of
    /// the fence.
    len: u64,
    _lock: FileLock,
}

/// A log opened by [`Log::open`], with everything it held.
#[derive(Debug)]
pub struct Opened<H, R> {
    /// The log, positioned to append.
    pub log: Log,
    /// The header on disk (the caller's own when the log started fresh).
    pub header: H,
    /// Every committed record, in append order.
    pub records: Vec<R>,
    /// Human-readable notes: a dropped torn tail, a fresh start.
    pub diagnostics: Vec<String>,
}

impl Log {
    /// Creates (or truncates) the log at `path` holding only `header`,
    /// durable before returning.
    ///
    /// # Errors
    ///
    /// [`JournalError::Locked`] when another handle holds the log;
    /// [`JournalError::Io`] on filesystem failure.
    pub fn create(path: impl AsRef<Path>, header: &impl Header) -> Result<Log, JournalError> {
        let path = path.as_ref();
        let lock = FileLock::acquire(path).map_err(JournalError::Locked)?;
        Log::start(path, open_append(path)?, lock, header)
    }

    /// Opens the log at `path`, creating it with `fresh` as its header when
    /// it holds no committed state, and replays every committed record
    /// under the recovery rule in the module docs.
    ///
    /// # Errors
    ///
    /// [`JournalError::Locked`] when another handle holds the log,
    /// [`JournalError::Corrupted`] on a damaged interior line or a record
    /// that does not parse, [`JournalError::SchemaMismatch`] when the
    /// header names another schema than `fresh`, and
    /// [`JournalError::Io`] on filesystem failure.
    pub fn open<H: Header, R: Deserialize>(
        path: impl AsRef<Path>,
        fresh: &H,
    ) -> Result<Opened<H, R>, JournalError> {
        let path = path.as_ref();
        let lock = FileLock::acquire(path).map_err(JournalError::Locked)?;
        let mut file = open_append(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io(path))?;
        let scan = scan(&bytes)?;
        let mut diagnostics = Vec::new();
        if let Some((line, reason)) = &scan.torn {
            diagnostics.push(format!(
                "dropped torn journal tail at line {line} ({reason}): the in-flight \
                 record never committed"
            ));
        }
        let Some((header_payload, record_payloads)) = scan.payloads.split_first() else {
            diagnostics.push("journal file held no committed state; starting fresh".to_string());
            return Ok(Opened {
                log: Log::start(path, file, lock, fresh)?,
                header: fresh.clone(),
                records: Vec::new(),
                diagnostics,
            });
        };
        let (header, records) = decode(header_payload, record_payloads, fresh.schema())?;
        if scan.torn.is_some() {
            file.set_len(scan.end as u64).map_err(io(path))?;
            file.sync_data().map_err(io(path))?;
        }
        let log = Log {
            path: path.to_path_buf(),
            id: file_id(&file.metadata().map_err(io(path))?),
            file,
            header: encode_line(header_payload),
            len: scan.end as u64,
            _lock: lock,
        };
        Ok(Opened {
            log,
            header,
            records,
            diagnostics,
        })
    }

    /// Truncates `file` to hold only `header`, durably.
    fn start(
        path: &Path,
        mut file: File,
        lock: FileLock,
        header: &impl Header,
    ) -> Result<Log, JournalError> {
        let header = encode_line(&payload(path, header)?);
        file.set_len(0).map_err(io(path))?;
        file.write_all(header.as_bytes()).map_err(io(path))?;
        file.sync_data().map_err(io(path))?;
        sync_dir(path)?;
        Ok(Log {
            path: path.to_path_buf(),
            id: file_id(&file.metadata().map_err(io(path))?),
            file,
            len: header.len() as u64,
            header,
            _lock: lock,
        })
    }

    /// Appends one record, durable (synced) before returning.
    ///
    /// # Errors
    ///
    /// [`JournalError::Fenced`] when another writer advanced or replaced
    /// the file since this handle's last write; [`JournalError::Io`] on
    /// filesystem failure.
    pub fn append(&mut self, record: &impl Serialize) -> Result<(), JournalError> {
        self.check_fence()?;
        let line = encode_line(&payload(&self.path, record)?);
        self.file
            .write_all(line.as_bytes())
            .map_err(io(&self.path))?;
        self.file.sync_data().map_err(io(&self.path))?;
        self.len += line.len() as u64;
        Ok(())
    }

    /// Replaces the log's records with `records`, keeping its header.
    ///
    /// The new log goes to a `.compact` sibling, which is synced and then
    /// renamed over the log: a crash leaves either the old log or the new
    /// one. The flock survives because it lives on a sidecar whose inode
    /// the rename does not touch.
    ///
    /// # Errors
    ///
    /// [`JournalError::Fenced`] when another writer advanced or replaced
    /// the file; [`JournalError::Io`] on filesystem failure (the old log is
    /// intact unless the rename itself succeeded).
    pub fn rewrite<R: Serialize>(&mut self, records: &[R]) -> Result<(), JournalError> {
        self.check_fence()?;
        let mut text = self.header.clone();
        for record in records {
            text.push_str(&encode_line(&payload(&self.path, record)?));
        }
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".compact");
        let tmp = PathBuf::from(tmp);
        {
            let mut f = File::create(&tmp).map_err(io(&tmp))?;
            f.write_all(text.as_bytes()).map_err(io(&tmp))?;
            f.sync_all().map_err(io(&tmp))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(io(&self.path))?;
        sync_dir(&self.path)?;
        self.file = open_append(&self.path)?;
        self.id = file_id(&self.file.metadata().map_err(io(&self.path))?);
        self.len = text.len() as u64;
        Ok(())
    }

    /// Verifies that the file at the log's path is the inode this handle
    /// writes, exactly as long as its own writes left it.
    fn check_fence(&self) -> Result<(), JournalError> {
        let fenced = |why: String| JournalError::Fenced {
            path: self.path.clone(),
            why,
        };
        let on_disk = std::fs::metadata(&self.path)
            .map_err(|e| fenced(format!("vanished from under this writer ({e})")))?;
        if file_id(&on_disk) != self.id {
            return Err(fenced(
                "was replaced out from under this writer".to_string(),
            ));
        }
        if on_disk.len() != self.len {
            return Err(fenced(format!(
                "advanced behind this writer ({} bytes on disk, {} expected)",
                on_disk.len(),
                self.len
            )));
        }
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Reads a log's records without taking its lock or truncating it: the
/// audit path for tests, chaos gates and post-mortem tooling, usable while
/// a writer holds the log. A torn final line is skipped; everything else
/// is refused exactly as by [`Log::open`]. A log without a whole header
/// line reads as empty.
///
/// # Errors
///
/// As [`Log::open`], except that the lock is never contended.
pub fn read<H: Header, R: Deserialize>(
    path: impl AsRef<Path>,
    expected: &H,
) -> Result<Vec<R>, JournalError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(io(path))?;
    let scan = scan(&bytes)?;
    match scan.payloads.split_first() {
        None => Ok(Vec::new()),
        Some((header, records)) => Ok(decode::<H, R>(header, records, expected.schema())?.1),
    }
}

/// Appends one record with neither the lock nor the fence: a writer that
/// got past the lock, for chaos tests of the fence. Every later write
/// through a handle open on `path` is then refused as fenced.
///
/// # Errors
///
/// [`JournalError::Io`] on filesystem failure.
pub fn append_unlocked(
    path: impl AsRef<Path>,
    record: &impl Serialize,
) -> Result<(), JournalError> {
    let path = path.as_ref();
    let line = encode_line(&payload(path, record)?);
    let mut file = OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(io(path))?;
    file.write_all(line.as_bytes()).map_err(io(path))?;
    file.sync_data().map_err(io(path))
}

fn io(path: &Path) -> impl Fn(std::io::Error) -> JournalError + '_ {
    move |error| JournalError::Io {
        path: path.to_path_buf(),
        error,
    }
}

fn open_append(path: &Path) -> Result<File, JournalError> {
    OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
        .map_err(io(path))
}

/// Makes the directory entry of a created or renamed log durable: until
/// its directory is synced, a crash can lose the file's name even though
/// its data was synced.
#[cfg(unix)]
fn sync_dir(path: &Path) -> Result<(), JournalError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir).and_then(|d| d.sync_all()).map_err(io(dir))
}

#[cfg(not(unix))]
fn sync_dir(_: &Path) -> Result<(), JournalError> {
    Ok(())
}

#[cfg(unix)]
fn file_id(m: &Metadata) -> (u64, u64) {
    use std::os::unix::fs::MetadataExt;
    (m.dev(), m.ino())
}

#[cfg(not(unix))]
fn file_id(_: &Metadata) -> (u64, u64) {
    (0, 0)
}

fn payload(path: &Path, value: &impl Serialize) -> Result<String, JournalError> {
    serde_json::to_string(value).map_err(|e| JournalError::Io {
        path: path.to_path_buf(),
        error: std::io::Error::other(e.to_string()),
    })
}

/// Parses the header (which must name `schema`) and the records.
fn decode<H: Header, R: Deserialize>(
    header: &str,
    records: &[&str],
    schema: &str,
) -> Result<(H, Vec<R>), JournalError> {
    let header: H = serde_json::from_str(header).map_err(|e| JournalError::Corrupted {
        line: 1,
        reason: format!("header does not parse: {e}"),
    })?;
    if header.schema() != schema {
        return Err(JournalError::SchemaMismatch {
            found: header.schema().to_string(),
            expected: schema.to_string(),
        });
    }
    let records = records
        .iter()
        .enumerate()
        .map(|(i, p)| {
            serde_json::from_str(p).map_err(|e| JournalError::Corrupted {
                line: i + 2,
                reason: format!("record does not parse: {e}"),
            })
        })
        .collect::<Result<_, _>>()?;
    Ok((header, records))
}

/// What [`scan`] found: the payloads of the whole lines, where they end,
/// and the torn final line dropped after them, if any.
struct Scan<'a> {
    payloads: Vec<&'a str>,
    end: usize,
    torn: Option<(usize, String)>,
}

/// Splits a log into checksummed lines. A damaged line is tolerated only as
/// the very last one (a torn tail); anywhere else it is refused.
fn scan(bytes: &[u8]) -> Result<Scan<'_>, JournalError> {
    let mut payloads = Vec::new();
    let mut start = 0;
    while start < bytes.len() {
        let line = payloads.len() + 1;
        let (next, verdict) = match bytes[start..].iter().position(|&b| b == b'\n') {
            Some(rel) => (start + rel + 1, decode_line(&bytes[start..start + rel])),
            None => (bytes.len(), Err("unterminated line".to_string())),
        };
        match verdict {
            Ok(payload) => payloads.push(payload),
            Err(reason) if next == bytes.len() => {
                return Ok(Scan {
                    payloads,
                    end: start,
                    torn: Some((line, reason)),
                })
            }
            Err(reason) => return Err(JournalError::Corrupted { line, reason }),
        }
        start = next;
    }
    Ok(Scan {
        payloads,
        end: bytes.len(),
        torn: None,
    })
}

/// FNV-1a 64 over arbitrary bytes: the line checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Frames `payload` as one log line (checksum and newline).
fn encode_line(payload: &str) -> String {
    format!("{payload}#{:016x}\n", fnv1a(payload.as_bytes()))
}

/// Verifies a line's checksum (newline already stripped) and returns its
/// payload, or why the line is damaged.
fn decode_line(raw: &[u8]) -> Result<&str, String> {
    let raw = std::str::from_utf8(raw).map_err(|_| "line is not UTF-8".to_string())?;
    // Only the last `#` separates the checksum; payloads may contain more.
    let Some((payload, sum)) = raw.rsplit_once('#') else {
        return Err("missing checksum field".to_string());
    };
    if sum.len() != 16 || !sum.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err("malformed checksum field".to_string());
    }
    let expect = format!("{:016x}", fnv1a(payload.as_bytes()));
    if sum != expect {
        return Err(format!("checksum mismatch (line hashes to {expect})"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_and_payload_hashes_survive() {
        // Only the last `#` is the checksum separator.
        let line = encode_line(r##"{"s":"a#b#c"}"##);
        assert!(line.ends_with('\n'));
        let body = line.trim_end_matches('\n').as_bytes();
        assert_eq!(decode_line(body).unwrap(), r##"{"s":"a#b#c"}"##);
    }

    #[test]
    fn damaged_lines_are_detected() {
        let mut line = encode_line("payload").trim_end_matches('\n').to_string();
        line.replace_range(0..1, "X");
        assert!(decode_line(line.as_bytes())
            .unwrap_err()
            .contains("checksum"));
        assert!(decode_line(b"no-checksum-here").is_err());
        assert!(decode_line(b"short#abc").is_err());
        assert!(decode_line(b"\xff#0000000000000000")
            .unwrap_err()
            .contains("UTF-8"));
    }
}
