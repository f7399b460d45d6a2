//! Minimal, bounded HTTP/1.1 request parsing and response writing.
//!
//! The parser is deliberately strict and size-bounded: every limit
//! violation or syntax error becomes a clean `400` instead of a panic
//! or an unbounded allocation.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};

use om_api::ErrorEnvelope;

/// Upper bound on the request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 4096;
/// Upper bound on one header line.
pub const MAX_HEADER_LINE: usize = 1024;
/// Upper bound on the number of headers.
pub const MAX_HEADERS: usize = 64;
/// Default upper bound on a request body (`POST /v1/ingest` uploads).
pub const DEFAULT_MAX_BODY_BYTES: usize = 1 << 20;

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed the connection before sending anything.
    Empty,
    /// The peer stalled past the read timeout mid-request.
    TimedOut,
    /// Anything malformed or over a bound; the string names the offense.
    Malformed(String),
    /// A genuine I/O failure.
    Io(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty request"),
            ParseError::TimedOut => write!(f, "request timed out"),
            ParseError::Malformed(why) => write!(f, "malformed request: {why}"),
            ParseError::Io(why) => write!(f, "i/o error: {why}"),
        }
    }
}

/// A parsed request: method, decoded path, decoded query parameters,
/// and (for `POST`) the UTF-8 body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    /// Query parameters, percent-decoded, in sorted key order.
    pub params: BTreeMap<String, String>,
    /// The request body (empty without a `Content-Length` header).
    pub body: String,
}

/// Read one line terminated by `\n`, enforcing `limit` bytes.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    limit: usize,
    got_any: &mut bool,
) -> Result<String, ParseError> {
    let mut line = Vec::with_capacity(128);
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() && !*got_any {
                    return Err(ParseError::Empty);
                }
                return Err(ParseError::Malformed("truncated line".into()));
            }
            Ok(_) => {
                *got_any = true;
                let [b] = byte;
                if b == b'\n' {
                    break;
                }
                line.push(b);
                if line.len() > limit {
                    return Err(ParseError::Malformed(format!("line exceeds {limit} bytes")));
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(if *got_any {
                    ParseError::TimedOut
                } else {
                    ParseError::Empty
                });
            }
            Err(e) => return Err(ParseError::Io(e.to_string())),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| ParseError::Malformed("non-UTF-8 bytes".into()))
}

/// Percent-decode one query component; `+` decodes to space.
fn percent_decode(raw: &str) -> Result<String, String> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let &[h, l] = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| "truncated percent escape".to_owned())?
                else {
                    return Err("truncated percent escape".to_owned());
                };
                let hi = (h as char)
                    .to_digit(16)
                    .ok_or_else(|| format!("invalid percent escape in {raw:?}"))?;
                let lo = (l as char)
                    .to_digit(16)
                    .ok_or_else(|| format!("invalid percent escape in {raw:?}"))?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| "percent escape decodes to invalid UTF-8".to_owned())
}

/// Split and decode a query string into sorted key/value pairs.
fn parse_query(raw: &str) -> Result<BTreeMap<String, String>, String> {
    let mut params = BTreeMap::new();
    for piece in raw.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = piece.split_once('=').unwrap_or((piece, ""));
        let key = percent_decode(k)?;
        if params.insert(key.clone(), percent_decode(v)?).is_some() {
            return Err(format!("duplicate query parameter {key:?}"));
        }
    }
    Ok(params)
}

/// How much of a request's declared body was read off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BodyRead {
    /// The full declared body is in [`Request::body`].
    Full,
    /// The body was left unread: the declared `Content-Length` exceeded
    /// the unroutable-target cap, so the caller should answer (a `404`)
    /// and close without draining the upload.
    Skipped {
        /// The declared `Content-Length` that was never read.
        declared: usize,
    },
}

/// Parse one request from `stream` with all bounds enforced, allowing a
/// body of at most [`DEFAULT_MAX_BODY_BYTES`].
///
/// # Errors
/// See [`ParseError`]; `Malformed` maps to `400`, `TimedOut` to `408`.
pub fn parse_request<S: Read>(stream: S) -> Result<Request, ParseError> {
    parse_request_bounded(stream, DEFAULT_MAX_BODY_BYTES)
}

/// [`parse_request`] with an explicit body bound: a `Content-Length`
/// above `max_body_bytes` is rejected before a single body byte is read.
///
/// # Errors
/// See [`ParseError`].
pub fn parse_request_bounded<S: Read>(
    stream: S,
    max_body_bytes: usize,
) -> Result<Request, ParseError> {
    parse_request_routed(stream, max_body_bytes, |_| true).map(|(req, _)| req)
}

/// [`parse_request_bounded`] with route-aware body admission: once the
/// head is parsed, `routable(path)` says whether the target exists. A
/// routable target keeps the full `max_body_bytes` allowance (an
/// oversize `Content-Length` is a `Malformed` reject, as ever). An
/// unroutable target is capped at [`DEFAULT_MAX_BODY_BYTES`] — the same
/// 1 MiB bound `/v1/ingest` enforces — so a misaddressed client
/// streaming a bulk upload can't hold a worker just to hear a `404`:
/// past the cap the body is left unread ([`BodyRead::Skipped`]) and the
/// request surfaces with an empty body, which no 404 path ever reads.
///
/// # Errors
/// See [`ParseError`].
pub fn parse_request_routed<S: Read>(
    stream: S,
    max_body_bytes: usize,
    routable: impl FnOnce(&str) -> bool,
) -> Result<(Request, BodyRead), ParseError> {
    let mut reader = BufReader::new(stream);
    let mut got_any = false;
    let request_line = read_line_bounded(&mut reader, MAX_REQUEST_LINE, &mut got_any)?;

    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ParseError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    if !target.starts_with('/') {
        return Err(ParseError::Malformed(format!("bad target {target:?}")));
    }

    // Headers: bounded count and length; only `Content-Length` matters
    // (the daemon is stateless per request and always closes).
    let mut n_headers = 0;
    let mut declared_length: Option<usize> = None;
    loop {
        let line = read_line_bounded(&mut reader, MAX_HEADER_LINE, &mut got_any)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header {line:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            // Digits only (`parse` alone would take `+5`), and a repeated
            // header must agree: two lengths is how a request gets
            // framed differently by two parsers.
            let value = value.trim();
            let length = value
                .parse::<usize>()
                .ok()
                .filter(|_| value.bytes().all(|b| b.is_ascii_digit()))
                .ok_or_else(|| ParseError::Malformed(format!("bad Content-Length {value:?}")))?;
            if declared_length.is_some_and(|earlier| earlier != length) {
                return Err(ParseError::Malformed(format!(
                    "conflicting Content-Length headers ({value:?} after a different value)"
                )));
            }
            declared_length = Some(length);
        }
        n_headers += 1;
        if n_headers > MAX_HEADERS {
            return Err(ParseError::Malformed(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
    }
    let content_length = declared_length.unwrap_or(0);
    // Decode the target before touching the body: the body allowance
    // depends on whether the path routes anywhere at all.
    let (raw_path, raw_query) = target.split_once('?').unwrap_or((target, ""));
    let path = percent_decode(raw_path).map_err(ParseError::Malformed)?;
    let params = parse_query(raw_query).map_err(ParseError::Malformed)?;

    let cap = if routable(&path) {
        max_body_bytes
    } else {
        max_body_bytes.min(DEFAULT_MAX_BODY_BYTES)
    };
    if content_length > cap {
        if cap == max_body_bytes {
            return Err(ParseError::Malformed(format!(
                "body of {content_length} bytes exceeds the {max_body_bytes}-byte limit"
            )));
        }
        // Unroutable target over the cap: don't read the upload — the
        // 404 never looks at the body.
        return Ok((
            Request {
                method: method.to_owned(),
                path,
                params,
                body: String::new(),
            },
            BodyRead::Skipped {
                declared: content_length,
            },
        ));
    }
    let mut body_bytes = vec![0u8; content_length];
    let mut read = 0;
    while read < content_length {
        #[expect(
            clippy::indexing_slicing,
            reason = "read < content_length == body_bytes.len() by the loop guard"
        )]
        match reader.read(&mut body_bytes[read..]) {
            Ok(0) => return Err(ParseError::Malformed("truncated body".into())),
            Ok(n) => read += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(ParseError::TimedOut);
            }
            Err(e) => return Err(ParseError::Io(e.to_string())),
        }
    }
    let body = String::from_utf8(body_bytes)
        .map_err(|_| ParseError::Malformed("non-UTF-8 body".into()))?;

    Ok((
        Request {
            method: method.to_owned(),
            path,
            params,
            body,
        },
        BodyRead::Full,
    ))
}

/// An HTTP response ready to be written. Every non-2xx response is
/// built from an [`ErrorEnvelope`] (see its `From` impl), so a failure
/// has one body shape on every route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
    /// When set, a `Retry-After: <secs>` header is emitted — used by
    /// overload (`503`) responses to tell clients when to come back.
    pub retry_after: Option<u64>,
}

impl From<ErrorEnvelope> for Response {
    /// The status comes from the envelope's code, and `Retry-After` from
    /// its `retry_after_ms`, rounded up to whole seconds (at least 1).
    fn from(env: ErrorEnvelope) -> Self {
        Self {
            status: env.code.http_status(),
            content_type: "application/json",
            body: env.encode(),
            retry_after: env.retry_after_ms.map(|ms| ms.div_ceil(1000).max(1)),
        }
    }
}

impl Response {
    /// A JSON `200`.
    #[must_use]
    pub fn json(body: String) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    /// A plain-text `200`.
    #[must_use]
    pub fn text(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            retry_after: None,
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            422 => "Unprocessable Entity",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize with `Connection: close` framing.
    ///
    /// # Errors
    /// Propagates write failures (the peer may have gone away).
    pub fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        if let Some(secs) = self.retry_after {
            write!(out, "Retry-After: {secs}\r\n")?;
        }
        out.write_all(b"Connection: close\r\n\r\n")?;
        out.write_all(self.body.as_bytes())?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_api::ErrorCode;

    fn parse_str(raw: &str) -> Result<Request, ParseError> {
        parse_request(raw.as_bytes())
    }

    #[test]
    fn parses_simple_get() {
        let r = parse_str("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.params.is_empty());
    }

    #[test]
    fn parses_query_in_sorted_key_order() {
        let r =
            parse_str("GET /internal/store?expect=3&attr=Phone%20Model HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/internal/store");
        assert_eq!(r.params.keys().collect::<Vec<_>>(), ["attr", "expect"]);
        assert_eq!(r.params["attr"], "Phone Model");
        assert_eq!(r.params["expect"], "3");
    }

    #[test]
    fn decodes_plus_and_percent() {
        let r = parse_str("GET /x?a=one+two&b=%C3%A9 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.params["a"], "one two");
        assert_eq!(r.params["b"], "é");
    }

    #[test]
    fn rejects_malformed_inputs() {
        for raw in [
            "NOT-A-REQUEST\r\n\r\n",
            "GET /x HTTP/9.9\r\n\r\n",
            "GET nopath HTTP/1.1\r\n\r\n",
            "GET /x?a=%zz HTTP/1.1\r\n\r\n",
            "GET /x?a=%f HTTP/1.1\r\n\r\n",
            "GET /x?dup=1&dup=2 HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad header line\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
        ] {
            assert!(
                matches!(parse_str(raw), Err(ParseError::Malformed(_))),
                "{raw:?} should be malformed"
            );
        }
    }

    #[test]
    fn rejects_oversized_request_line() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE + 1));
        assert!(matches!(parse_str(&raw), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn rejects_too_many_headers() {
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("H{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(parse_str(&raw), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn reads_posted_body_to_content_length() {
        let r = parse_str(
            "POST /ingest HTTP/1.1\r\nContent-Length: 12\r\n\r\na,b,c\nd,e,f\nignored tail",
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, "a,b,c\nd,e,f\n");
    }

    #[test]
    fn get_without_content_length_has_empty_body() {
        let r = parse_str("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.body, "");
    }

    #[test]
    fn oversized_body_rejected_before_reading_it() {
        let raw = format!(
            "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            DEFAULT_MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse_str(&raw), Err(ParseError::Malformed(_))));
        let tight = parse_request_bounded(
            "POST /i HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd".as_bytes(),
            3,
        );
        assert!(matches!(tight, Err(ParseError::Malformed(_))));
    }

    #[test]
    fn truncated_or_bad_bodies_rejected() {
        assert!(matches!(
            parse_str("POST /i HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_str("POST /i HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        // A sign is not a digit, and the last of two lengths does not win.
        assert!(matches!(
            parse_str("POST /i HTTP/1.1\r\nContent-Length: +5\r\n\r\nabcde"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_str("POST /i HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\nabcde"),
            Err(ParseError::Malformed(_))
        ));
        // A repeated identical header stays legal.
        let r =
            parse_str("POST /i HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nabcde")
                .unwrap();
        assert_eq!(r.body, "abcde");
        let mut raw = b"POST /i HTTP/1.1\r\nContent-Length: 2\r\n\r\n".to_vec();
        raw.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            parse_request(raw.as_slice()),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn unroutable_target_body_is_capped_not_drained() {
        // A server with a raised body allowance (say for bulk ingest):
        // a misaddressed upload above the 1 MiB unroutable cap is left
        // unread — the parser answers with the head only.
        let raw = format!(
            "POST /v1/nope HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            DEFAULT_MAX_BODY_BYTES + 1
        );
        let (req, body_read) =
            parse_request_routed(raw.as_bytes(), 64 << 20, |path| path == "/v1/ingest").unwrap();
        assert_eq!(req.path, "/v1/nope");
        assert_eq!(req.body, "");
        assert_eq!(
            body_read,
            BodyRead::Skipped {
                declared: DEFAULT_MAX_BODY_BYTES + 1
            }
        );

        // The same declared length on a routable target still reads in
        // full under the raised allowance.
        let mut raw = format!(
            "POST /v1/ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            DEFAULT_MAX_BODY_BYTES + 1
        )
        .into_bytes();
        raw.extend(std::iter::repeat_n(b'x', DEFAULT_MAX_BODY_BYTES + 1));
        let (req, body_read) =
            parse_request_routed(raw.as_slice(), 64 << 20, |path| path == "/v1/ingest").unwrap();
        assert_eq!(body_read, BodyRead::Full);
        assert_eq!(req.body.len(), DEFAULT_MAX_BODY_BYTES + 1);
    }

    #[test]
    fn unroutable_target_small_body_still_reads() {
        let raw = "POST /v1/nope HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let (req, body_read) = parse_request_routed(raw.as_bytes(), 64 << 20, |_| false).unwrap();
        assert_eq!(body_read, BodyRead::Full);
        assert_eq!(req.body, "abcd");
    }

    #[test]
    fn default_allowance_keeps_oversize_reject_on_any_target() {
        // With the stock 1 MiB allowance the caps coincide, so an
        // oversize body is a 400 reject whether or not the path routes —
        // exactly the pre-existing contract.
        let raw = format!(
            "POST /v1/nope HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            DEFAULT_MAX_BODY_BYTES + 1
        );
        let r = parse_request_routed(raw.as_bytes(), DEFAULT_MAX_BODY_BYTES, |_| false);
        assert!(matches!(r, Err(ParseError::Malformed(_))));
    }

    #[test]
    fn empty_connection_reports_empty() {
        assert_eq!(parse_str(""), Err(ParseError::Empty));
    }

    #[test]
    fn truncated_request_is_malformed() {
        assert!(matches!(
            parse_str("GET /x HTT"),
            Err(ParseError::Malformed(_))
        ));
    }

    /// `response` as written on the wire.
    fn written(response: &Response) -> String {
        let mut out = Vec::new();
        response.write_to(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn response_wire_format() {
        let s = written(&Response::text("ok\n"));
        assert_eq!(s.lines().next(), Some("HTTP/1.1 200 OK"));
        assert!(s.contains("Content-Length: 3\r\n"));
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.ends_with("\r\n\r\nok\n"));
    }

    #[test]
    fn retry_after_header_is_emitted() {
        let env = ErrorEnvelope {
            retry_after_ms: Some(1500),
            ..ErrorEnvelope::new(ErrorCode::Overloaded, "overloaded")
        };
        let s = written(&Response::from(env.clone()));
        assert_eq!(s.lines().next(), Some("HTTP/1.1 503 Service Unavailable"));
        assert!(s.contains("Retry-After: 2\r\n"), "{s}");
        assert!(s.ends_with(&format!("Connection: close\r\n\r\n{}", env.encode())));
    }

    #[test]
    fn error_body_is_json_escaped() {
        let env = ErrorEnvelope::new(ErrorCode::BadRequest, "bad \"thing\"\n");
        let r = Response::from(env.clone());
        assert_eq!((r.status, r.retry_after), (400, None));
        let want = r#"{"error":{"code":"bad_request","message":"bad \"thing\"\n"}}"#;
        assert_eq!(r.body, want);
        assert_eq!(ErrorEnvelope::parse(&r.body), Ok(env));
    }

    #[test]
    fn every_code_writes_a_known_status_line() {
        for &code in ErrorCode::ALL {
            let s = written(&Response::from(ErrorEnvelope::new(code, "m")));
            let (status, reason) = s.lines().next().unwrap().split_at(13);
            assert_eq!(status, format!("HTTP/1.1 {} ", code.http_status()));
            assert_ne!(reason, "Unknown", "{code:?}");
        }
        let stale = written(&ErrorEnvelope::new(ErrorCode::StaleGeneration, "m").into());
        assert_eq!(stale.lines().next(), Some("HTTP/1.1 409 Conflict"));
    }
}
