//! The blocking `hippo.jobs.v2` client used by `hippoctl` subcommands and
//! the system tests.
//!
//! Dials either carrier ([`Client::dial`] parses `host:port` vs. socket
//! path), heartbeats with [`Client::ping`], and streams oversized source
//! sets transparently: a `submit` whose sources exceed the chunk threshold
//! ships them as checksummed [`Request::SourceChunk`] frames first, then
//! sends a `Submit` that adopts them server-side — the job digest (and so
//! the artifact, and the warm-cache hit) is byte-identical to an inline
//! submission of the same sources.

use crate::jobs::{JobSpec, JobView};
use crate::proto::{
    read_frame, write_frame, Health, Request, RequestFrame, Response, ResponseFrame,
};
use crate::transport::{Conn, Endpoint};
use std::path::Path;
use std::time::{Duration, Instant};

/// Sources above this total stream as chunks instead of riding inline in
/// the `Submit` frame — comfortably under [`crate::proto::MAX_FRAME`]
/// even after JSON escaping.
pub const CHUNK_THRESHOLD: usize = 4 * 1024 * 1024;

/// Bytes of source text per `SourceChunk` frame. Worst-case JSON escaping
/// (6 bytes per byte) keeps the frame under `MAX_FRAME`.
pub const CHUNK_BYTES: usize = 2 * 1024 * 1024;

/// What a submission came back with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submitted {
    /// Journaled and queued under this id.
    Accepted(String),
    /// Backpressure: the queue is full, retry after this many ms.
    Busy(u64),
}

/// A connected client. One request/response exchange at a time.
pub struct Client {
    stream: Conn,
    chunk_threshold: usize,
}

impl Client {
    /// Connects to a daemon on a Unix socket path — the PR 7 spelling,
    /// retained for callers that hold a path.
    ///
    /// # Errors
    ///
    /// Fails when nothing listens on `socket`.
    pub fn connect(socket: impl AsRef<Path>) -> Result<Client, String> {
        Client::dial_endpoint(&Endpoint::Unix(socket.as_ref().to_path_buf()))
    }

    /// Connects to either carrier: `host:port` is TCP, anything else a
    /// Unix socket path.
    ///
    /// # Errors
    ///
    /// Fails when nothing listens there.
    pub fn dial(spec: &str) -> Result<Client, String> {
        Client::dial_endpoint(&Endpoint::parse(spec))
    }

    /// Connects to a parsed endpoint.
    ///
    /// # Errors
    ///
    /// Fails when nothing listens there.
    pub fn dial_endpoint(endpoint: &Endpoint) -> Result<Client, String> {
        Ok(Client {
            stream: Conn::dial(endpoint)?,
            chunk_threshold: CHUNK_THRESHOLD,
        })
    }

    /// Connects, retrying until the daemon answers or `timeout` elapses —
    /// for scripts that just started the daemon.
    ///
    /// # Errors
    ///
    /// Fails when the daemon does not come up in time.
    pub fn connect_retry(socket: impl AsRef<Path>, timeout: Duration) -> Result<Client, String> {
        let spec = socket.as_ref().display().to_string();
        Client::dial_retry(&spec, timeout)
    }

    /// [`Client::dial`], retried until the daemon answers or `timeout`
    /// elapses.
    ///
    /// # Errors
    ///
    /// Fails when the daemon does not come up in time.
    pub fn dial_retry(spec: &str, timeout: Duration) -> Result<Client, String> {
        let endpoint = Endpoint::parse(spec);
        let deadline = Instant::now() + timeout;
        loop {
            match Client::dial_endpoint(&endpoint) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("daemon did not come up within {timeout:?}: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Applies read/write deadlines to this connection, so a dead daemon
    /// turns into an error instead of a hung client.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), String> {
        self.stream
            .set_read_timeout(timeout)
            .and_then(|()| self.stream.set_write_timeout(timeout))
            .map_err(|e| format!("set timeout: {e}"))
    }

    /// Lowers (or raises) the total-source-bytes threshold above which
    /// `submit` streams sources as chunks. Tests use a tiny threshold to
    /// exercise chunking without megabyte fixtures.
    pub fn set_chunk_threshold(&mut self, bytes: usize) {
        self.chunk_threshold = bytes;
    }

    /// One request → one response.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, a hung-up daemon, and protocol-level
    /// `Error` responses surfaced by the typed helpers (not here).
    pub fn request(&mut self, request: Request) -> Result<Response, String> {
        write_frame(&mut self.stream, &RequestFrame::new(request))?;
        let frame: Option<ResponseFrame> = read_frame(&mut self.stream)?;
        frame
            .map(|f| f.response)
            .ok_or_else(|| "daemon hung up mid-request".to_string())
    }

    /// Heartbeat: `Ping` → `Pong`. Answers even on a draining or standby
    /// daemon.
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn ping(&mut self) -> Result<(), String> {
        match self.request(Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected response to Ping: {other:?}")),
        }
    }

    /// Streams `spec`'s sources as checksummed chunks when they exceed the
    /// chunk threshold, returning the spec with its sources moved
    /// server-side. A spec under the threshold is returned unchanged.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, chunk rejections, and a reassembled
    /// digest that does not match the sender's.
    fn stage_if_large(&mut self, mut spec: JobSpec) -> Result<JobSpec, String> {
        let total: usize = spec.sources.iter().map(|(n, b)| n.len() + b.len()).sum();
        if total <= self.chunk_threshold {
            return Ok(spec);
        }
        // All sources stream, in order, so the server-side merge rebuilds
        // the source list exactly as an inline submission would carry it.
        for (name, body) in std::mem::take(&mut spec.sources) {
            let sent_digest = pmir::snapshot::fnv1a(body.as_bytes());
            // Pieces shrink with the threshold so a lowered test threshold
            // exercises real multi-chunk reassembly on small sources.
            let pieces = split_utf8(&body, CHUNK_BYTES.min(self.chunk_threshold.max(1)));
            let n = pieces.len();
            for (seq, piece) in pieces.into_iter().enumerate() {
                let last = seq + 1 == n;
                let response = self.request(Request::SourceChunk {
                    name: name.clone(),
                    seq: seq as u64,
                    checksum: pmir::snapshot::fnv1a(piece.as_bytes()),
                    data: piece.to_string(),
                    last,
                })?;
                match response {
                    Response::ChunkAccepted { digest, .. } => {
                        if last && digest != Some(sent_digest) {
                            return Err(format!(
                                "`{name}`: reassembled digest {digest:?} does not match sent {sent_digest}"
                            ));
                        }
                    }
                    Response::Error { message } => return Err(message),
                    other => return Err(format!("unexpected response to SourceChunk: {other:?}")),
                }
            }
        }
        Ok(spec)
    }

    /// Submits a job, streaming oversized source sets as chunks.
    ///
    /// # Errors
    ///
    /// Fails on transport errors and daemon-side rejections (invalid spec,
    /// draining or standby daemon, rejected chunk).
    pub fn submit(&mut self, spec: JobSpec) -> Result<Submitted, String> {
        let spec = self.stage_if_large(spec)?;
        self.submit_inline(spec)
    }

    fn submit_inline(&mut self, spec: JobSpec) -> Result<Submitted, String> {
        match self.request(Request::Submit { spec })? {
            Response::Accepted { id } => Ok(Submitted::Accepted(id)),
            Response::Busy { retry_after_ms } => Ok(Submitted::Busy(retry_after_ms)),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected response to Submit: {other:?}")),
        }
    }

    /// Submits, honoring `Busy` backpressure by sleeping the hinted
    /// backoff, until accepted or `timeout` elapses. Oversized sources
    /// stream once; only the cheap adopting `Submit` retries.
    ///
    /// # Errors
    ///
    /// Fails on rejections and when the queue never frees up in time.
    pub fn submit_retry(&mut self, spec: JobSpec, timeout: Duration) -> Result<String, String> {
        let spec = self.stage_if_large(spec)?;
        let deadline = Instant::now() + timeout;
        loop {
            match self.submit_inline(spec.clone())? {
                Submitted::Accepted(id) => return Ok(id),
                Submitted::Busy(ms) => {
                    if Instant::now() >= deadline {
                        return Err(format!(
                            "queue stayed full for {timeout:?}; last retry hint was {ms}ms"
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(ms.min(250)));
                }
            }
        }
    }

    /// A job's current view.
    ///
    /// # Errors
    ///
    /// Fails on transport errors and unknown ids.
    pub fn status(&mut self, id: &str) -> Result<JobView, String> {
        match self.request(Request::Status { id: id.to_string() })? {
            Response::Job { view } => Ok(view),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected response to Status: {other:?}")),
        }
    }

    /// Polls until the job reaches a terminal state.
    ///
    /// # Errors
    ///
    /// Fails on transport errors and when `timeout` elapses first.
    pub fn wait(&mut self, id: &str, timeout: Duration) -> Result<JobView, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let view = self.status(id)?;
            if view.state.is_terminal() {
                return Ok(view);
            }
            if Instant::now() >= deadline {
                return Err(format!("job `{id}` still {} after {timeout:?}", view.state));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Cancels a queued job; returns its (terminal) view.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, unknown ids, and running jobs.
    pub fn cancel(&mut self, id: &str) -> Result<JobView, String> {
        match self.request(Request::Cancel { id: id.to_string() })? {
            Response::Job { view } => Ok(view),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected response to Cancel: {other:?}")),
        }
    }

    /// The daemon's health report.
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn health(&mut self) -> Result<Health, String> {
        match self.request(Request::Health)? {
            Response::Health { health } => Ok(health),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected response to Health: {other:?}")),
        }
    }

    /// The live `hippo.metrics.v1` snapshot.
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn metrics(&mut self) -> Result<String, String> {
        match self.request(Request::Metrics)? {
            Response::Metrics { json } => Ok(json),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected response to Metrics: {other:?}")),
        }
    }

    /// Requests a graceful shutdown (drain, journal, exit).
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.request(Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected response to Shutdown: {other:?}")),
        }
    }
}

/// Splits `s` into pieces of at most `max` bytes, never inside a UTF-8
/// code point.
fn split_utf8(s: &str, max: usize) -> Vec<&str> {
    let max = max.max(4);
    let mut pieces = vec![];
    let mut rest = s;
    while rest.len() > max {
        let mut end = max;
        while !rest.is_char_boundary(end) {
            end -= 1;
        }
        let (head, tail) = rest.split_at(end);
        pieces.push(head);
        rest = tail;
    }
    pieces.push(rest);
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_utf8_respects_char_boundaries_and_reassembles() {
        let s = "héllo wörld ✓".repeat(10);
        for max in [4, 5, 7, 64] {
            let pieces = split_utf8(&s, max);
            assert!(pieces.iter().all(|p| p.len() <= max.max(4)));
            assert_eq!(pieces.concat(), s);
        }
        // An empty source still yields one (empty) chunk, so `last` fires.
        assert_eq!(split_utf8("", 8), vec![""]);
    }
}
