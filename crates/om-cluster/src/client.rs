//! Minimal blocking HTTP/1.1 client for shard fan-out.
//!
//! One request per connection (`Connection: close`), with the per-shard
//! timeout bounding the **whole request**: connect, write, and every
//! read share one deadline. A socket-level read timeout alone is not
//! enough — a replica trickling one byte at a time keeps every
//! individual `read` under the timeout while holding the caller
//! indefinitely. Here each I/O step is clamped to the time remaining on
//! the request deadline, so a dead *or merely stalled* shard turns into
//! a typed error within the budget. That bounded failure is what the
//! coordinator turns into retries, failover, or a `503` partial-failure
//! envelope naming the shard.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use om_api::ErrorEnvelope;

/// Why a shard call did not yield a `200` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The shard could not be resolved or connected to.
    Connect(String),
    /// The whole-request deadline ran out.
    Timeout(String),
    /// The exchange broke or its reply could not be read: a failed
    /// write or read, a malformed or truncated reply, an error status
    /// without an error envelope, or a `200` body that does not decode.
    Io(String),
    /// The shard answered an error status with an error envelope.
    Status {
        status: u16,
        envelope: ErrorEnvelope,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Connect(why) | Self::Timeout(why) | Self::Io(why) => f.write_str(why),
            Self::Status { status, envelope } => write!(
                f,
                "HTTP {status} {}: {}",
                envelope.code.as_str(),
                envelope.message
            ),
        }
    }
}

/// One shard's HTTP endpoint.
#[derive(Debug, Clone)]
pub struct ShardClient {
    addr: String,
    timeout: Duration,
}

impl ShardClient {
    #[must_use]
    pub fn new(addr: impl Into<String>, timeout: Duration) -> Self {
        Self {
            addr: addr.into(),
            timeout,
        }
    }

    /// The shard's `host:port`, for error messages naming the shard.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The whole-request deadline applied to every call.
    #[must_use]
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// `GET path` → `(status, body)`, whatever the status.
    ///
    /// # Errors
    /// A transport-level failure ([`ShardError`] other than `Status`),
    /// as its message.
    pub fn get(&self, path: &str) -> Result<(u16, String), String> {
        self.exchange("GET", path, None).map_err(|e| e.to_string())
    }

    /// `POST path` with a JSON body → `(status, body)`, whatever the
    /// status.
    ///
    /// # Errors
    /// A transport-level failure, as its message.
    pub fn post(&self, path: &str, body: &str) -> Result<(u16, String), String> {
        self.exchange("POST", path, Some(body))
            .map_err(|e| e.to_string())
    }

    /// `method path` (with a JSON body when given) that must answer
    /// `200`: its body, or exactly one typed failure.
    ///
    /// # Errors
    /// [`ShardError::Status`] for an error status carrying an error
    /// envelope; every other failure is `Connect`, `Timeout` or `Io`.
    pub fn call(&self, method: &str, path: &str, body: Option<&str>) -> Result<String, ShardError> {
        let (status, reply) = self.exchange(method, path, body)?;
        if status == 200 {
            return Ok(reply);
        }
        let envelope = ErrorEnvelope::parse(&reply).map_err(|_| {
            ShardError::Io(format!(
                "HTTP {status} without an error envelope from {}",
                self.addr
            ))
        })?;
        Err(ShardError::Status { status, envelope })
    }

    fn exchange(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ShardError> {
        let deadline = Instant::now() + self.timeout;
        let remaining = |stage: &str| -> Result<Duration, ShardError> {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                Err(ShardError::Timeout(format!(
                    "request to {} exceeded the {:?} deadline during {stage}",
                    self.addr, self.timeout
                )))
            } else {
                Ok(left)
            }
        };
        // A read or write that outwaits its clamped socket timeout has
        // run out the deadline.
        let io = |what: &str, e: std::io::Error| {
            let why = format!("{what} {} failed: {e}", self.addr);
            match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut => ShardError::Timeout(why),
                _ => ShardError::Io(why),
            }
        };
        let target = self
            .addr
            .to_socket_addrs()
            .map_err(|e| ShardError::Connect(format!("cannot resolve {}: {e}", self.addr)))?
            .next()
            .ok_or_else(|| {
                ShardError::Connect(format!("cannot resolve {}: no addresses", self.addr))
            })?;
        let mut stream = TcpStream::connect_timeout(&target, remaining("connect")?)
            .map_err(|e| ShardError::Connect(format!("cannot reach {}: {e}", self.addr)))?;
        let request = match body {
            Some(body) => format!(
                "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                self.addr,
                body.len()
            ),
            None => format!(
                "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
                self.addr
            ),
        };
        stream
            .set_write_timeout(Some(remaining("write")?))
            .map_err(|e| io("configure socket to", e))?;
        stream
            .write_all(request.as_bytes())
            .map_err(|e| io("write to", e))?;
        // Read in chunks, re-clamping the socket timeout to the time
        // left before each read: steady trickles cannot outlive the
        // deadline.
        let mut response = Vec::new();
        let mut buf = [0u8; 16 * 1024];
        loop {
            stream
                .set_read_timeout(Some(remaining("read")?))
                .map_err(|e| io("configure socket to", e))?;
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => response.extend_from_slice(buf.get(..n).unwrap_or_default()),
                Err(e) => return Err(io("read from", e)),
            }
        }
        let response = String::from_utf8(response)
            .map_err(|_| ShardError::Io(format!("non-UTF-8 response from {}", self.addr)))?;
        let malformed = || ShardError::Io(format!("malformed response from {}", self.addr));
        let (head, body) = response.split_once("\r\n\r\n").ok_or_else(malformed)?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.strip_prefix("HTTP/1."))
            .and_then(|rest| rest.split(' ').nth(1))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(malformed)?;
        // The peer closed early, or framed its body wrong.
        let declared = lines.find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim())
        });
        if declared.is_some_and(|length| length.parse() != Ok(body.len())) {
            return Err(malformed());
        }
        Ok((status, body.to_owned()))
    }
}
