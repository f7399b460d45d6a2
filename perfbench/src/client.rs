//! The closed-loop client: one blocking HTTP/1.1 request per connection
//! (the server answers `Connection: close`), timed connect → last byte.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longer than any request the schedule makes; a hang fails the run
/// instead of blocking it past the driver's cap.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Where one request's time went on the wire, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireTiming {
    pub connect_us: f64,
    pub write_us: f64,
    /// First wait through last byte: server work plus the response body.
    pub read_us: f64,
}

impl WireTiming {
    pub fn total_us(&self) -> f64 {
        self.connect_us + self.write_us + self.read_us
    }
}

pub struct Reply {
    pub status: u16,
    pub body: String,
    pub timing: WireTiming,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One request. `body: None` sends a GET.
pub fn request(addr: SocketAddr, path: &str, body: Option<&str>) -> io::Result<Reply> {
    let head = match body {
        Some(b) => format!(
            "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            b.len()
        ),
        None => format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
    };
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let t1 = Instant::now();
    stream.write_all(head.as_bytes())?;
    if let Some(b) = body {
        stream.write_all(b.as_bytes())?;
    }
    let t2 = Instant::now();
    let mut raw = Vec::with_capacity(16 * 1024);
    stream.read_to_end(&mut raw)?;
    let t3 = Instant::now();

    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let text = String::from_utf8(raw).map_err(|_| bad("non-UTF-8 response"))?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    // A body shorter than its Content-Length is a torn response, not an
    // answer: the byte-equality oracle must never see it as one.
    let declared = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse::<usize>().ok())
        .ok_or_else(|| bad("response has no Content-Length"))?;
    if declared != payload.len() {
        return Err(bad("response body shorter than its Content-Length"));
    }
    Ok(Reply {
        status,
        body: payload.to_owned(),
        timing: WireTiming {
            connect_us: us(t1 - t0),
            write_us: us(t2 - t1),
            read_us: us(t3 - t2),
        },
    })
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<Reply> {
    request(addr, path, Some(body))
}
