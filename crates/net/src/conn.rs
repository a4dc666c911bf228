//! Transport abstraction: one connection type over TCP or Unix sockets.
//!
//! Address specs are plain strings: `host:port` binds/dials TCP,
//! `unix:/path/to.sock` a Unix-domain socket. TCP is what a real
//! multi-node deployment uses; Unix sockets keep single-host test
//! clusters off the loopback port space.

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// Prefix selecting the Unix-domain transport in an address spec.
pub const UNIX_PREFIX: &str = "unix:";

/// A connected driver↔agent byte stream.
pub enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    /// Dial an address spec.
    pub fn connect(spec: &str) -> io::Result<Conn> {
        match spec.strip_prefix(UNIX_PREFIX) {
            Some(path) => UnixStream::connect(path).map(Conn::Unix),
            None => TcpStream::connect(spec).map(Conn::Tcp),
        }
    }

    /// Bound a blocking read; `None` blocks indefinitely.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Disable Nagle on TCP (tiny frames — `DoneBatch`, `Heartbeat` —
    /// dominate this protocol; 40 ms delayed-ACK stalls would cap the
    /// task rate). No-op for Unix sockets.
    pub fn set_nodelay(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nodelay(true),
            Conn::Unix(_) => Ok(()),
        }
    }

    /// Switch between blocking and non-blocking mode. Both ends
    /// handshake blocking, then flip the socket non-blocking before
    /// registering it with the poll loop.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nonblocking),
            Conn::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Shut down both halves, so the peer reads EOF.
    pub fn shutdown(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl AsRawFd for Conn {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    /// Forward to the socket's real `writev` (the `Write` default would
    /// silently degrade to one buffer per syscall).
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write_vectored(bufs),
            Conn::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound listening socket accepting driver connections.
pub enum Listener {
    Tcp(TcpListener),
    Unix {
        listener: UnixListener,
        path: String,
    },
}

impl Listener {
    /// Bind an address spec. `host:0` asks the OS for a free TCP port;
    /// the actual address is reported by [`Listener::local_spec`].
    pub fn bind(spec: &str) -> io::Result<Listener> {
        match spec.strip_prefix(UNIX_PREFIX) {
            Some(path) => {
                // A dead agent leaves its socket file behind; rebinding
                // the same path must work.
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix {
                    listener: UnixListener::bind(path)?,
                    path: path.to_string(),
                })
            }
            None => TcpListener::bind(spec).map(Listener::Tcp),
        }
    }

    /// The spec a driver should dial to reach this listener.
    pub fn local_spec(&self) -> io::Result<String> {
        match self {
            Listener::Tcp(l) => Ok(l.local_addr()?.to_string()),
            Listener::Unix { path, .. } => Ok(format!("{UNIX_PREFIX}{path}")),
        }
    }

    /// Block until a driver connects.
    pub fn accept(&self) -> io::Result<Conn> {
        let conn = match self {
            Listener::Tcp(l) => Conn::Tcp(l.accept()?.0),
            Listener::Unix { listener, .. } => Conn::Unix(listener.accept()?.0),
        };
        conn.set_nodelay()?;
        Ok(conn)
    }

    /// Switch the listening socket between blocking and non-blocking
    /// accept. The pilot service registers the listener fd with its
    /// reactor and accepts from readiness events.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            Listener::Unix { listener, .. } => listener.set_nonblocking(nonblocking),
        }
    }

    /// Accept without blocking: `None` when no connection is pending.
    /// Accepted connections inherit blocking mode from the caller's
    /// follow-up `set_nonblocking`, not the listener's.
    pub fn accept_nonblocking(&self) -> io::Result<Option<Conn>> {
        match self.accept() {
            Ok(conn) => Ok(Some(conn)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix { listener, .. } => listener.as_raw_fd(),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_round_trip() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let spec = listener.local_spec().unwrap();
        let join = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).unwrap();
            conn.write_all(&buf).unwrap();
        });
        let mut conn = Conn::connect(&spec).unwrap();
        conn.write_all(b"hello").unwrap();
        let mut echo = [0u8; 5];
        conn.read_exact(&mut echo).unwrap();
        assert_eq!(&echo, b"hello");
        join.join().unwrap();
    }

    #[test]
    fn unix_round_trip_and_cleanup() {
        let path = std::env::temp_dir().join(format!("htpar-net-test-{}.sock", std::process::id()));
        let spec = format!("{UNIX_PREFIX}{}", path.display());
        let listener = Listener::bind(&spec).unwrap();
        assert_eq!(listener.local_spec().unwrap(), spec);
        let spec2 = spec.clone();
        let join = std::thread::spawn(move || {
            let mut conn = Conn::connect(&spec2).unwrap();
            conn.write_all(b"ping").unwrap();
        });
        let mut conn = listener.accept().unwrap();
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        join.join().unwrap();
        drop(conn);
        drop(listener);
        assert!(!path.exists(), "socket file removed on drop");
    }

    #[test]
    fn read_timeout_applies() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let spec = listener.local_spec().unwrap();
        let conn = Conn::connect(&spec).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = conn;
        let mut buf = [0u8; 1];
        let err = conn.read(&mut buf).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
    }
}
