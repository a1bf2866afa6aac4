//! Transport abstraction: one daemon, two wire carriers.
//!
//! `hippo.jobs.v2` frames are carrier-agnostic; this module hides whether
//! they travel over a Unix domain socket (the PR 7 default, retained) or a
//! TCP socket (`hippoctl serve --listen 127.0.0.1:PORT`). Everything the
//! server's hostile-network posture needs is surfaced uniformly:
//!
//! - **deadlines** — [`Conn::set_read_timeout`] / [`Conn::set_write_timeout`]
//!   map onto both carriers, so a stalled peer turns into a timeout error
//!   instead of a wedged handler thread;
//! - **half-close** — [`Conn::shutdown`] lets fault injection tear a
//!   connection mid-frame deterministically;
//! - **nonblocking accept** — the server's drain-aware accept loop works
//!   identically over both listeners.
//!
//! [`Endpoint::parse`] keeps the CLI surface small: `host:port` with a
//! numeric port is TCP, anything else is a Unix socket path.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a daemon listens or a client dials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket path.
    Unix(PathBuf),
    /// A TCP address, `host:port`.
    Tcp(String),
}

impl Endpoint {
    /// Parses an endpoint spec. A spec of the form `host:port` whose final
    /// segment is all digits is TCP; everything else is a Unix socket
    /// path (so `./sockets/job:queue.sock` still works — its last segment
    /// is not numeric).
    pub fn parse(spec: &str) -> Endpoint {
        if let Some((host, port)) = spec.rsplit_once(':') {
            if !host.is_empty() && !port.is_empty() && port.bytes().all(|b| b.is_ascii_digit()) {
                return Endpoint::Tcp(spec.to_string());
            }
        }
        Endpoint::Unix(PathBuf::from(spec))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "{a}"),
        }
    }
}

/// A bound listener on either carrier.
pub enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Binds the endpoint. For Unix sockets a *stale* socket file (left by
    /// a killed daemon) is replaced; a *live* one is refused.
    ///
    /// # Errors
    ///
    /// Fails on a live Unix socket and on bind errors from either carrier.
    pub fn bind(endpoint: &Endpoint) -> Result<Listener, String> {
        match endpoint {
            Endpoint::Unix(path) => {
                if path.exists() {
                    if UnixStream::connect(path).is_ok() {
                        return Err(format!(
                            "{}: a daemon is already serving on this socket",
                            path.display()
                        ));
                    }
                    std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
                }
                UnixListener::bind(path)
                    .map(Listener::Unix)
                    .map_err(|e| format!("{}: bind: {e}", path.display()))
            }
            Endpoint::Tcp(addr) => TcpListener::bind(addr)
                .map(Listener::Tcp)
                .map_err(|e| format!("{addr}: bind: {e}")),
        }
    }

    /// # Errors
    ///
    /// Propagates the carrier's error.
    pub fn set_nonblocking(&self, v: bool) -> std::io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(v),
            Listener::Tcp(l) => l.set_nonblocking(v),
        }
    }

    /// Accepts one connection.
    ///
    /// # Errors
    ///
    /// Propagates the carrier's error (including `WouldBlock` when
    /// nonblocking).
    pub fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| tcp(s)),
        }
    }

    /// The bound address, printable — for TCP this carries the actual
    /// port when the endpoint asked for `:0`.
    pub fn local_addr(&self) -> String {
        match self {
            Listener::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_default(),
            Listener::Tcp(l) => l.local_addr().map(|a| a.to_string()).unwrap_or_default(),
        }
    }
}

/// Frames are small request/response exchanges written as a length
/// prefix and a payload: with Nagle's algorithm on, the payload waits for
/// the peer's delayed ACK of the prefix (about 40 ms per frame on Linux).
fn tcp(s: TcpStream) -> std::io::Result<Conn> {
    s.set_nodelay(true)?;
    Ok(Conn::Tcp(s))
}

/// One accepted or dialed connection on either carrier.
pub enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    /// Dials the endpoint.
    ///
    /// # Errors
    ///
    /// Fails when nothing listens there.
    pub fn dial(endpoint: &Endpoint) -> Result<Conn, String> {
        match endpoint {
            Endpoint::Unix(path) => UnixStream::connect(path)
                .map(Conn::Unix)
                .map_err(|e| format!("{}: connect: {e} (is the daemon serving?)", path.display())),
            Endpoint::Tcp(addr) => TcpStream::connect(addr)
                .and_then(tcp)
                .map_err(|e| format!("{addr}: connect: {e} (is the daemon serving?)")),
        }
    }

    /// # Errors
    ///
    /// Propagates the carrier's error.
    pub fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    /// # Errors
    ///
    /// Propagates the carrier's error.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(d),
            Conn::Tcp(s) => s.set_read_timeout(d),
        }
    }

    /// # Errors
    ///
    /// Propagates the carrier's error.
    pub fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_write_timeout(d),
            Conn::Tcp(s) => s.set_write_timeout(d),
        }
    }

    /// Half-closes both directions; errors are deliberately swallowed
    /// (the peer may already be gone).
    pub fn shutdown(&self) {
        match self {
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_distinguishes_tcp_from_paths() {
        assert_eq!(
            Endpoint::parse("127.0.0.1:4401"),
            Endpoint::Tcp("127.0.0.1:4401".to_string())
        );
        assert_eq!(
            Endpoint::parse("localhost:80"),
            Endpoint::Tcp("localhost:80".to_string())
        );
        assert_eq!(
            Endpoint::parse("/tmp/hippod.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/hippod.sock"))
        );
        // A path whose last `:`-segment is not numeric stays a path.
        assert_eq!(
            Endpoint::parse("./sockets/job:queue.sock"),
            Endpoint::Unix(PathBuf::from("./sockets/job:queue.sock"))
        );
        // A bare `:port` is not a dialable TCP spec.
        assert_eq!(
            Endpoint::parse(":4401"),
            Endpoint::Unix(PathBuf::from(":4401"))
        );
    }

    #[test]
    fn tcp_listener_reports_its_ephemeral_port() {
        let l = Listener::bind(&Endpoint::parse("127.0.0.1:0")).unwrap();
        let addr = l.local_addr();
        assert!(addr.starts_with("127.0.0.1:"), "{addr}");
        assert_ne!(addr, "127.0.0.1:0", "the real port replaces :0");
        let c = Conn::dial(&Endpoint::parse(&addr)).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        drop(c);
    }

    #[test]
    fn tcp_connections_send_without_nagle_delay() {
        let l = Listener::bind(&Endpoint::parse("127.0.0.1:0")).unwrap();
        let dialed = Conn::dial(&Endpoint::parse(&l.local_addr())).unwrap();
        let accepted = l.accept().unwrap();
        for c in [dialed, accepted] {
            let Conn::Tcp(s) = c else {
                panic!("a TCP endpoint yields a TCP connection")
            };
            assert!(s.nodelay().unwrap());
        }
    }
}
