//! A forwarding client for remote ring members speaking the existing
//! HTTP/1.1 protocol.
//!
//! Each exchange is a non-blocking `TcpStream` registered with a
//! [`viewseeker_net::sys::Poller`], the request hand-formatted (request
//! line, `Host`, `X-Request-Id`, `Content-Length`, body), and the
//! response lifted incrementally with
//! [`viewseeker_net::http1::parse_response`]. Each exchange runs under a
//! hard deadline so a dead peer costs one bounded wait, not a hung
//! worker.
//!
//! Connections are kept alive between requests in a small fixed pool of
//! slots (round-robin), so concurrent forwards from different reactor
//! workers do not serialize on a single socket. A cached connection the
//! peer quietly closed is detected on the next exchange (write failure
//! or EOF before any response byte) and retried exactly once on a fresh
//! connection — safe because no response bytes were seen.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use viewseeker_net::http1::parse_response;
use viewseeker_net::sys::{Event, Interest, Poller};

/// Connections kept per peer. Bounded parallelism for forwards without
/// one socket per reactor worker.
const POOL_SLOTS: usize = 8;

/// Why a forward failed. All variants map to `503 Service Unavailable`
/// with `Retry-After` at the routing layer — from the client's point of
/// view a down peer looks exactly like admission-control shedding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerError {
    /// Connecting, writing, or reading the peer socket failed.
    Io(String),
    /// The exchange exceeded its deadline.
    Timeout,
    /// The peer sent bytes that do not parse as an HTTP/1.1 response.
    Protocol(String),
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Io(m) => write!(f, "peer i/o error: {m}"),
            PeerError::Timeout => write!(f, "peer exchange timed out"),
            PeerError::Protocol(m) => write!(f, "peer protocol error: {m}"),
        }
    }
}

impl std::error::Error for PeerError {}

/// A complete response from the peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerResponse {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Parsed `Retry-After` seconds, when the peer sent one.
    pub retry_after: Option<u32>,
}

/// One cached keep-alive connection.
struct Conn {
    stream: TcpStream,
    poller: Poller,
    /// Unconsumed bytes read past the previous response (the protocol is
    /// strictly request/response per slot, so this is normally empty).
    carry: Vec<u8>,
}

impl Conn {
    fn open(addr: &str, deadline: Instant) -> Result<Conn, PeerError> {
        // A blocking connect bounded by the remaining deadline: connect
        // readiness is the one phase where std's own timeout plumbing is
        // simpler than registering a half-open socket with the poller.
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or(PeerError::Timeout)?;
        let sockaddr: std::net::SocketAddr = addr
            .parse()
            .map_err(|e| PeerError::Io(format!("bad peer address {addr:?}: {e}")))?;
        let stream = TcpStream::connect_timeout(&sockaddr, remaining)
            .map_err(|e| PeerError::Io(format!("connect {addr}: {e}")))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| PeerError::Io(format!("socket setup: {e}")))?;
        let poller = Poller::new().map_err(|e| PeerError::Io(format!("poller: {e}")))?;
        poller
            .add(stream.as_raw_fd(), 0, Interest::READ_WRITE)
            .map_err(|e| PeerError::Io(format!("poller add: {e}")))?;
        Ok(Conn {
            stream,
            poller,
            carry: Vec::new(),
        })
    }

    /// Blocks (via the poller) until the socket reports readiness or the
    /// deadline passes.
    fn wait_ready(&mut self, deadline: Instant) -> Result<(), PeerError> {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or(PeerError::Timeout)?;
        let timeout_ms = i32::try_from(remaining.as_millis().max(1)).unwrap_or(i32::MAX);
        let mut events: Vec<Event> = Vec::new();
        let n = self
            .poller
            .wait(timeout_ms, &mut events)
            .map_err(|e| PeerError::Io(format!("poll: {e}")))?;
        if n == 0 {
            return Err(PeerError::Timeout);
        }
        Ok(())
    }

    /// Writes all of `bytes`, waiting on readiness as needed.
    fn write_all_deadline(&mut self, bytes: &[u8], deadline: Instant) -> Result<(), PeerError> {
        let mut written = 0usize;
        while written < bytes.len() {
            let rest = bytes.get(written..).unwrap_or_default();
            match self.stream.write(rest) {
                Ok(0) => return Err(PeerError::Io("peer closed while writing".into())),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.wait_ready(deadline)?,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(PeerError::Io(format!("write: {e}"))),
            }
        }
        Ok(())
    }

    /// Reads until one complete response parses, waiting on readiness as
    /// needed. Returns the response and whether the connection survives.
    fn read_response_deadline(
        &mut self,
        deadline: Instant,
    ) -> Result<(PeerResponse, bool), PeerError> {
        let mut buf = std::mem::take(&mut self.carry);
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match parse_response(&buf) {
                Ok(Some(parsed)) => {
                    self.carry = buf.get(parsed.consumed..).unwrap_or_default().to_vec();
                    return Ok((
                        PeerResponse {
                            status: parsed.status,
                            body: parsed.body,
                            retry_after: parsed.retry_after,
                        },
                        parsed.keep_alive,
                    ));
                }
                Ok(None) => {}
                Err(e) => return Err(PeerError::Protocol(e.message())),
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(PeerError::Io(format!(
                        "peer closed after {} response bytes",
                        buf.len()
                    )))
                }
                Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or_default()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.wait_ready(deadline)?,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(PeerError::Io(format!("read: {e}"))),
            }
        }
    }
}

/// A remote ring member: an address plus a small pool of cached
/// keep-alive connections.
pub struct Peer {
    addr: String,
    slots: Vec<Mutex<Option<Conn>>>,
    next_slot: AtomicU64,
    requests: AtomicU64,
}

impl Peer {
    /// A peer at `addr` (`host:port`). No connection is made until the
    /// first request.
    #[must_use]
    pub fn new(addr: String) -> Self {
        Self {
            addr,
            slots: (0..POOL_SLOTS).map(|_| Mutex::new(None)).collect(),
            next_slot: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }

    /// The peer's address as configured.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Hand-formats one request: request line, `Host`, `X-Request-Id`
    /// (the caller's, else a generated `fwd-<seq>`), `Content-Length`,
    /// then the body.
    fn encode(&self, method: &str, target: &str, body: &[u8], request_id: Option<&str>) -> Vec<u8> {
        let seq = self.requests.fetch_add(1, Ordering::Relaxed);
        let mut head = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nX-Request-Id: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            request_id.map_or_else(|| format!("fwd-{seq:x}"), str::to_owned),
            body.len(),
        )
        .into_bytes();
        head.extend_from_slice(body);
        head
    }

    /// Sends one request and waits for the full response, all within
    /// `timeout`.
    ///
    /// # Errors
    ///
    /// [`PeerError`] when the peer is unreachable, breaks protocol, or
    /// the deadline passes — the caller answers `503` + `Retry-After`.
    pub fn request(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
        request_id: Option<&str>,
        timeout: Duration,
    ) -> Result<PeerResponse, PeerError> {
        let deadline = Instant::now() + timeout;
        let bytes = self.encode(method, target, body, request_id);
        let slot_index = self.next_slot.fetch_add(1, Ordering::Relaxed) as usize % POOL_SLOTS;
        let mut slot = self
            .slots
            .get(slot_index)
            .ok_or_else(|| PeerError::Io("no connection slot".into()))?
            .lock()
            .unwrap_or_else(PoisonError::into_inner);

        let reused = slot.is_some();
        let mut conn = match slot.take() {
            Some(conn) => conn,
            None => Conn::open(&self.addr, deadline)?,
        };
        match Self::exchange(&mut conn, &bytes, deadline) {
            Ok((response, keep_alive)) => {
                if keep_alive {
                    *slot = Some(conn);
                }
                Ok(response)
            }
            Err(PeerError::Io(_)) if reused => {
                // The cached connection went stale (peer closed it
                // between requests). No response bytes were delivered to
                // the caller, so one retry on a fresh socket is safe.
                let mut fresh = Conn::open(&self.addr, deadline)?;
                let (response, keep_alive) = Self::exchange(&mut fresh, &bytes, deadline)?;
                if keep_alive {
                    *slot = Some(fresh);
                }
                Ok(response)
            }
            Err(e) => Err(e),
        }
    }

    fn exchange(
        conn: &mut Conn,
        bytes: &[u8],
        deadline: Instant,
    ) -> Result<(PeerResponse, bool), PeerError> {
        conn.write_all_deadline(bytes, deadline)?;
        conn.read_response_deadline(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A scripted server thread: accepts connections one after another
    /// (the client's pool round-robins sockets), answering every parsed
    /// request on each with `response` until the client hangs up.
    fn serve_script(listener: TcpListener, response: &'static str) {
        std::thread::spawn(move || loop {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            // One thread per connection: the client pool keeps earlier
            // sockets open while opening new ones.
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                'conn: loop {
                    while viewseeker_net::http1::parse_request(&buf)
                        .expect("request parses")
                        .is_none()
                    {
                        let Ok(n) = stream.read(&mut chunk) else {
                            break 'conn;
                        };
                        if n == 0 {
                            break 'conn;
                        }
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    let consumed = viewseeker_net::http1::parse_request(&buf)
                        .expect("request parses")
                        .expect("complete")
                        .consumed;
                    buf.drain(..consumed);
                    stream.write_all(response.as_bytes()).expect("write");
                }
            });
        });
    }

    #[test]
    fn round_trips_a_request() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        serve_script(
            listener,
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
        );
        let peer = Peer::new(addr);
        for _ in 0..2 {
            let got = peer
                .request(
                    "GET",
                    "/healthz",
                    b"",
                    Some("rid-1"),
                    Duration::from_secs(5),
                )
                .expect("forward");
            assert_eq!(got.status, 200);
            assert_eq!(got.body, b"ok");
        }
    }

    #[test]
    fn propagates_retry_after() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        serve_script(
            listener,
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nRetry-After: 3\r\nConnection: close\r\n\r\n",
        );
        let peer = Peer::new(addr);
        let got = peer
            .request("POST", "/sessions", b"{}", None, Duration::from_secs(5))
            .expect("forward");
        assert_eq!((got.status, got.retry_after), (503, Some(3)));
    }

    #[test]
    fn unreachable_peer_is_an_io_error() {
        // A bound-then-dropped listener leaves a port nothing accepts on.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        drop(listener);
        let peer = Peer::new(addr);
        let err = peer
            .request("GET", "/healthz", b"", None, Duration::from_millis(500))
            .expect_err("must fail");
        assert!(
            matches!(err, PeerError::Io(_) | PeerError::Timeout),
            "{err:?}"
        );
    }

    #[test]
    fn requests_carry_request_line_host_request_id_and_content_length() {
        let peer = Peer::new("127.0.0.1:1".into());
        let bytes = peer.encode("POST", "/sessions?x=1", b"{\"a\":2}", None);
        let text = String::from_utf8(bytes).expect("utf8");
        assert!(
            text.starts_with("POST /sessions?x=1 HTTP/1.1\r\n"),
            "{text}"
        );
        assert!(text.contains("\r\nHost: 127.0.0.1:1\r\n"), "{text}");
        assert!(text.contains("\r\nX-Request-Id: fwd-0\r\n"), "{text}");
        assert!(
            text.contains("\r\nContent-Length: 7\r\n\r\n{\"a\":2}"),
            "{text}"
        );
    }
}
