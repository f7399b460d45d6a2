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

use std::io::Read;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

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

    /// `GET path` → `(status, body)`.
    ///
    /// # Errors
    /// A transport-level failure (unreachable, deadline exceeded,
    /// malformed response), as a human-readable message.
    pub fn get(&self, path: &str) -> Result<(u16, String), String> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body → `(status, body)`.
    ///
    /// # Errors
    /// A transport-level failure, as a human-readable message.
    pub fn post(&self, path: &str, body: &str) -> Result<(u16, String), String> {
        self.request("POST", path, Some(body))
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        let deadline = Instant::now() + self.timeout;
        let remaining = |stage: &str| -> Result<Duration, String> {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                Err(format!(
                    "request to {} exceeded the {:?} deadline during {stage}",
                    self.addr, self.timeout
                ))
            } else {
                Ok(left)
            }
        };
        let target = self
            .addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {}: {e}", self.addr))?
            .next()
            .ok_or_else(|| format!("cannot resolve {}: no addresses", self.addr))?;
        let mut stream = TcpStream::connect_timeout(&target, remaining("connect")?)
            .map_err(|e| format!("cannot reach {}: {e}", self.addr))?;
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
            .map_err(|e| format!("cannot configure socket to {}: {e}", self.addr))?;
        stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("write to {} failed: {e}", self.addr))?;
        // Read in chunks, re-clamping the socket timeout to the time
        // left before each read: steady trickles cannot outlive the
        // deadline.
        let mut response = Vec::new();
        let mut buf = [0u8; 16 * 1024];
        loop {
            stream
                .set_read_timeout(Some(remaining("read")?))
                .map_err(|e| format!("cannot configure socket to {}: {e}", self.addr))?;
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => response.extend_from_slice(buf.get(..n).unwrap_or_default()),
                Err(e) => return Err(format!("read from {} failed: {e}", self.addr)),
            }
        }
        let response = String::from_utf8(response)
            .map_err(|_| format!("non-UTF-8 response from {}", self.addr))?;
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("malformed response from {}", self.addr))?;
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        Ok((status, body))
    }

    /// A request that must succeed with `200`: non-200 statuses become
    /// errors carrying the (trimmed) response body.
    ///
    /// # Errors
    /// Transport failures and non-200 responses.
    pub fn expect_ok(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<String, String> {
        let (status, body) = self.request(method, path, body)?;
        if status == 200 {
            Ok(body)
        } else {
            Err(format!("HTTP {status}: {}", body.trim()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Regression for the deadline audit: a shard that keeps the
    /// connection alive and trickles bytes slower than the per-read
    /// timeout used to hold the caller indefinitely (every individual
    /// `read` made progress). The whole-request deadline must cut it
    /// off near the configured timeout.
    #[test]
    fn trickling_shard_cannot_outlive_the_request_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            // Drain the request head, then trickle a "response" one
            // byte every 30ms — forever, from the client's viewpoint.
            let mut buf = [0u8; 1024];
            let _ = sock.read(&mut buf);
            let head = b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n";
            let _ = sock.write_all(head);
            for _ in 0..100 {
                if sock.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(30));
            }
        });

        let timeout = Duration::from_millis(300);
        let client = ShardClient::new(addr, timeout);
        let started = Instant::now();
        let result = client.get("/internal/generation");
        let elapsed = started.elapsed();

        assert!(
            result.is_err(),
            "trickled response must not parse as success"
        );
        assert!(
            elapsed < Duration::from_secs(2),
            "request ran {elapsed:?}, far past the {timeout:?} whole-request deadline"
        );
        server.join().expect("server thread");
    }

    /// A shard that connects but never responds at all is also bounded
    /// by the same deadline (the pure read-timeout case).
    #[test]
    fn silent_shard_is_bounded_by_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 1024];
            let _ = sock.read(&mut buf);
            std::thread::sleep(Duration::from_millis(900));
        });
        let client = ShardClient::new(addr, Duration::from_millis(200));
        let started = Instant::now();
        assert!(client.get("/internal/generation").is_err());
        assert!(started.elapsed() < Duration::from_millis(800));
        server.join().expect("server thread");
    }
}
