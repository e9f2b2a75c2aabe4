//! The TCP transport: a [`Server`] accepting concurrent sessions over one
//! shared [`Catalog`] — a single release is a one-release catalog.
//!
//! Thread-per-connection over `std::net` — no async runtime, no unsafe.
//! Every accepted connection runs the exact same session loop as the
//! stdio surface ([`crate::serve::serve`]), so the two transports cannot
//! drift apart: a request stream answers byte-identically over either.
//!
//! The listener enforces a connection cap (excess connections receive a
//! single `error code=busy` line and are closed before the `HELLO`
//! banner) and shuts down gracefully: [`ShutdownHandle::signal`] stops
//! the accept loop, then [`Server::run`] joins the in-flight sessions —
//! which end at `quit` or when their client disconnects.
//!
//! The accept loop is resilient: a failed `accept` (fd exhaustion, a
//! connection reset before accept) is logged and retried with an
//! escalating backoff — only shutdown (or the listener being torn down
//! by the OS) ends the loop. Per-connection read/write deadlines
//! ([`ServerConfig::read_timeout`] / [`ServerConfig::write_timeout`])
//! reap idle or wedged sessions so stuck clients cannot pin connection
//! slots forever.
//!
//! Accepted sessions turn Nagle's algorithm off (`TCP_NODELAY`): the
//! session loop already writes one segment per ready batch of requests
//! (see [`crate::serve::serve`]), so holding a lone answer back until the
//! client's ACK of the previous one only adds latency.

use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::catalog::Catalog;
use crate::protocol::{ErrorCode, Response};
use crate::serve::serve;
use crate::service::QueryService;

/// Default connection cap of [`ServerConfig`].
pub const DEFAULT_MAX_CONNS: usize = 64;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum concurrent sessions; further connections are refused with
    /// an `error code=busy` line.
    pub max_conns: usize,
    /// Per-connection socket read deadline. A session whose client sends
    /// nothing for this long is reaped — its connection closes and the
    /// slot frees — so idle or wedged clients cannot pin the cap.
    /// `None` (the default) waits indefinitely.
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write deadline: a client that stops
    /// draining its responses for this long is disconnected. `None`
    /// (the default) blocks indefinitely.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_conns: DEFAULT_MAX_CONNS,
            read_timeout: None,
            write_timeout: None,
        }
    }
}

/// Signals a running [`Server`] to stop accepting and drain.
///
/// Cloneable and cheap; obtained from [`Server::shutdown_handle`].
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    addr: SocketAddr,
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Requests shutdown: the accept loop exits at its next wakeup (a
    /// no-op connection is made so a blocked `accept` returns promptly).
    pub fn signal(&self) {
        self.flag.store(true, Ordering::Release);
        // Wake a blocked accept; failure just means the listener is gone.
        // A wildcard bind address (0.0.0.0 / ::) is not connectable on
        // every platform — dial loopback on the same port instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
    }
}

/// A bound TCP query server over one shared [`Catalog`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    catalog: Arc<Catalog>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (use port 0 to pick a free port) over one `service`,
    /// served as a one-release catalog ([`Catalog::single`]).
    ///
    /// # Errors
    ///
    /// Returns the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<QueryService>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Self::bind_catalog(addr, Arc::new(Catalog::single(service)), config)
    }

    /// Binds `addr` over `catalog`: every session starts on the catalog's
    /// default release.
    ///
    /// # Errors
    ///
    /// Returns the bind failure.
    pub fn bind_catalog(
        addr: impl ToSocketAddrs,
        catalog: Arc<Catalog>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            catalog,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Returns the socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    ///
    /// # Errors
    ///
    /// Returns the socket introspection failure.
    pub fn shutdown_handle(&self) -> io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            addr: self.local_addr()?,
            flag: Arc::clone(&self.shutdown),
        })
    }

    /// Runs the accept loop until shutdown is signalled, then joins the
    /// in-flight sessions. Each connection gets its own thread running
    /// the shared session loop.
    ///
    /// # Errors
    ///
    /// Returns only listener-level failures; per-connection I/O errors
    /// end that session silently (the client went away).
    pub fn run(self) -> io::Result<()> {
        const BACKOFF_FLOOR: Duration = Duration::from_millis(10);
        const BACKOFF_CEIL: Duration = Duration::from_millis(500);
        let active = Arc::new(AtomicUsize::new(0));
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        let mut backoff = BACKOFF_FLOOR;
        for conn in self.listener.incoming() {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let stream = match conn {
                Ok(stream) => {
                    backoff = BACKOFF_FLOOR;
                    stream
                }
                Err(e) => {
                    // A failed accept is never fatal: transient errors
                    // (ECONNABORTED, EINTR) and resource exhaustion
                    // (EMFILE) both clear with time, so log, back off
                    // with escalation, and keep serving. Only shutdown
                    // ends the loop.
                    eprintln!("rp-server: accept failed ({e}); retrying in {backoff:?}");
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_CEIL);
                    continue;
                }
            };
            workers.retain(|w| !w.is_finished());
            if active.load(Ordering::Acquire) >= self.config.max_conns {
                refuse_busy(stream, self.config.max_conns);
                continue;
            }
            active.fetch_add(1, Ordering::AcqRel);
            let catalog = Arc::clone(&self.catalog);
            let config = self.config;
            // The guard releases the slot even if the session panics; a
            // failed session just means the client disconnected mid-line.
            let slot = SlotGuard(Arc::clone(&active));
            workers.push(std::thread::spawn(move || {
                let _slot = slot;
                let _ = handle_connection(&catalog, stream, &config);
            }));
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Spawns [`Server::run`] on a background thread, returning a handle
    /// for address introspection and graceful shutdown.
    ///
    /// # Errors
    ///
    /// Returns the socket introspection failure.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = self.shutdown_handle()?;
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            shutdown,
            thread,
        })
    }
}

/// A running background server: address + shutdown + join.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clonable handle that can signal shutdown without consuming this
    /// handle.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Signals shutdown and joins the server thread.
    ///
    /// # Errors
    ///
    /// Returns the accept-loop failure, or [`io::ErrorKind::Other`] if
    /// the server thread panicked.
    pub fn shutdown(self) -> io::Result<()> {
        self.shutdown.signal();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Releases one connection slot on drop — unwind-safe, so a panicking
/// session can never leak its slot and wedge the cap into refusing
/// everything.
struct SlotGuard(Arc<AtomicUsize>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One session: the shared loop reads the socket directly (it buffers
/// its own input) and writes through a `BufWriter` over the same socket,
/// with Nagle off. A session that trips its read/write deadline is
/// *reaped* — reported as a clean end, its connection closed — rather
/// than treated as an I/O failure.
fn handle_connection(
    catalog: &Catalog,
    stream: TcpStream,
    config: &ServerConfig,
) -> io::Result<()> {
    stream.set_read_timeout(config.read_timeout)?;
    stream.set_write_timeout(config.write_timeout)?;
    stream.set_nodelay(true)?;
    match serve(catalog, &stream, BufWriter::new(&stream)) {
        // Platform-dependent: a timed-out socket read reports
        // WouldBlock (Unix) or TimedOut (Windows).
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Ok(())
        }
        other => other.map(|_| ()),
    }
}

/// Answers one `busy` error line and closes (no `HELLO`, no session).
fn refuse_busy(stream: TcpStream, cap: usize) {
    let obs = crate::obs::global();
    obs.inc(&obs.counters.server_busy_refused);
    let response = Response::Error {
        code: ErrorCode::Busy,
        message: format!("server at its {cap}-connection cap; retry later"),
    };
    let mut writer = BufWriter::new(stream);
    let _ = writeln!(writer, "{}", response.encode());
    let _ = writer.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publisher::Publisher;
    use crate::service::ServiceConfig;
    use rp_table::{Attribute, Schema, TableBuilder};
    use std::io::{BufRead, BufReader};

    fn fixture_service() -> Arc<QueryService> {
        let schema = Schema::new(vec![
            Attribute::new("Job", ["eng", "doc"]),
            Attribute::new("Disease", ["flu", "none"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..400u32 {
            b.push_codes(&[i % 2, (i / 2) % 2]).unwrap();
        }
        let publication = Publisher::new(b.build()).sa(1).seed(3).publish().unwrap();
        Arc::new(QueryService::from_publication(
            &publication,
            ServiceConfig::default(),
        ))
    }

    fn start(max_conns: usize) -> (ServerHandle, Arc<QueryService>) {
        start_with(ServerConfig {
            max_conns,
            ..ServerConfig::default()
        })
    }

    fn start_with(config: ServerConfig) -> (ServerHandle, Arc<QueryService>) {
        let service = fixture_service();
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), config).unwrap();
        (server.spawn().unwrap(), service)
    }

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            Self {
                reader: BufReader::new(stream.try_clone().unwrap()),
                writer: stream,
            }
        }

        fn read_line(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        }

        fn send(&mut self, line: &str) {
            writeln!(self.writer, "{line}").unwrap();
            self.writer.flush().unwrap();
        }
    }

    #[test]
    fn tcp_session_speaks_the_protocol() {
        let (handle, service) = start(4);
        let mut client = Client::connect(handle.addr());
        let banner = client.read_line();
        assert!(
            matches!(
                Response::parse(&banner).unwrap(),
                Response::Hello {
                    version: crate::protocol::PROTOCOL_VERSION,
                    ..
                }
            ),
            "{banner}"
        );
        client.send("count Job=eng Disease=flu");
        let answer = client.read_line();
        assert!(answer.starts_with("est="), "{answer}");
        client.send("quit");
        assert_eq!(client.read_line(), "bye");
        handle.shutdown().unwrap();
        assert_eq!(service.stats().sessions, 1);
        assert_eq!(service.stats().answered, 2);
    }

    #[test]
    fn connection_cap_refuses_with_busy() {
        let (handle, _service) = start(1);
        let mut first = Client::connect(handle.addr());
        let _banner = first.read_line(); // session is live; the slot is taken
        let mut second = Client::connect(handle.addr());
        let refusal = second.read_line();
        let parsed = Response::parse(&refusal).unwrap();
        assert!(
            matches!(
                parsed,
                Response::Error {
                    code: ErrorCode::Busy,
                    ..
                }
            ),
            "{refusal}"
        );
        first.send("quit");
        assert_eq!(first.read_line(), "bye");
        handle.shutdown().unwrap();
    }

    #[test]
    fn idle_sessions_are_reaped_and_free_their_slot() {
        let (handle, _service) = start_with(ServerConfig {
            max_conns: 1,
            read_timeout: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        });
        let mut idle = Client::connect(handle.addr());
        let _banner = idle.read_line();
        // Send nothing: the read deadline passes and the server reaps
        // the session — observable as EOF on our side.
        let mut eof = String::new();
        let n = idle.reader.read_line(&mut eof).unwrap();
        assert_eq!(n, 0, "server closed the idle connection, got `{eof}`");
        // The freed slot admits a fresh session on a max_conns=1 server
        // (retrying over the tiny window between socket close and slot
        // release).
        let admitted = (0..50).any(|_| {
            let mut next = Client::connect(handle.addr());
            let line = next.read_line();
            if line.starts_with("HELLO") {
                next.send("quit");
                assert_eq!(next.read_line(), "bye");
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
            false
        });
        assert!(admitted, "reaped slot never freed");
        handle.shutdown().unwrap();
    }

    #[test]
    fn shutdown_is_graceful_and_sessions_drain() {
        let (handle, service) = start(4);
        let mut client = Client::connect(handle.addr());
        let _banner = client.read_line();
        // Signal shutdown while the session is still open: the accept
        // loop stops, but the live session keeps answering until quit.
        let signal = handle.shutdown_handle();
        signal.signal();
        client.send("ping");
        assert_eq!(client.read_line(), "pong");
        client.send("quit");
        assert_eq!(client.read_line(), "bye");
        handle.shutdown().unwrap();
        assert_eq!(service.stats().answered, 2);
    }
}
