//! Hostile bytes on the server's socket. Whatever arrives — random
//! garbage, a valid request with one field replaced, one byte flipped —
//! the request parser answers `Ok` or a typed [`ParseError`] and never
//! panics, and an `Ok` is framed the way the head said: one agreed,
//! digits-only `Content-Length`, and exactly that many body bytes. The
//! shard-internal router answers any `(method, path, params, body)`
//! under `/internal/` with a documented status (`docs/cluster.md`),
//! never a `500` and never a caught panic.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use om_api::{ConditionWire, ErrorCode, ErrorEnvelope, InternalCountRequest, InternalLevelRequest};
use om_engine::{EngineConfig, OpportunityMap};
use om_server::http::{parse_request_routed, BodyRead, ParseError};
use om_server::{Server, ServerConfig};
use om_synth::paper_scenario;
use proptest::prelude::*;

/// Body allowance for the parser properties: above the 1 MiB cap an
/// unroutable target gets, so both ways of refusing an upload are hit.
const CAP: usize = 2 << 20;

const COMPARE: &str = r#"{"attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped"}"#;

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    collection::vec(0u8..=255, 0..max)
}

fn arb_text(max: usize) -> impl Strategy<Value = String> {
    arb_bytes(max).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// Strings a field could be replaced with: arbitrary text, and the
/// values a length, target or version check is most likely to get wrong.
fn arb_junk() -> impl Strategy<Value = String> {
    #[rustfmt::skip]
    const HOSTILE: &[&str] = &[
        "", " ", "0", "5", "+5", "-1", " 62 ", "062", "0x3e", "1e3", "٦٢",
        "18446744073709551615", "18446744073709551616", "99999999999999999999999",
        "/", "/%", "/%zz", "/%ff", "/a?b=%", "HTTP/1.1", "HTTP/2", "\r\n", "\n\n",
        "x\r\nContent-Length: 3", "\0", ":", "a:b:c",
    ];
    prop_oneof![
        arb_text(64),
        (0..HOSTILE.len()).prop_map(|i| HOSTILE[i].to_owned()),
    ]
}

/// A well-formed `POST /v1/compare`, field by field.
#[derive(Debug, Clone)]
struct Parts {
    method: String,
    target: String,
    version: String,
    headers: Vec<(String, String)>,
    body: String,
}

impl Parts {
    fn valid(target: &str) -> Self {
        Self {
            method: "POST".into(),
            target: target.into(),
            version: "HTTP/1.1".into(),
            headers: vec![
                ("Host".into(), "localhost".into()),
                ("Content-Type".into(), "application/json".into()),
                ("Content-Length".into(), COMPARE.len().to_string()),
            ],
            body: COMPARE.into(),
        }
    }

    fn wire(&self) -> Vec<u8> {
        let mut out = format!("{} {} {}\r\n", self.method, self.target, self.version);
        for (name, value) in &self.headers {
            out.push_str(&format!("{name}: {value}\r\n"));
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        out.into_bytes()
    }
}

/// Every `Content-Length` value in `raw`'s head, read the way any
/// line-based HTTP reader frames it: lines end at `\n`, a trailing `\r`
/// is dropped, the head ends at the first empty line.
fn declared_lengths(raw: &[u8]) -> Vec<String> {
    raw.split(|&b| b == b'\n')
        .skip(1)
        .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
        .take_while(|line| !line.is_empty())
        .filter_map(|line| {
            let line = String::from_utf8_lossy(line);
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().to_owned())
        })
        .collect()
}

/// Parse `raw` from memory and check the outcome against the contract.
fn check(raw: &[u8]) {
    match parse_request_routed(raw, CAP, |path| path.starts_with("/v1/")) {
        Ok((req, body_read)) => {
            assert!(req.path.starts_with('/'), "{req:?}");
            let declared = declared_lengths(raw);
            let lengths: Vec<usize> = declared
                .iter()
                .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                .filter_map(|v| v.parse().ok())
                .collect();
            assert_eq!(
                lengths.len(),
                declared.len(),
                "accepted a non-numeric length: {declared:?}"
            );
            let length = lengths.first().copied().unwrap_or(0);
            assert!(
                lengths.iter().all(|&l| l == length),
                "accepted conflicting lengths: {declared:?}"
            );
            match body_read {
                BodyRead::Full => {
                    assert_eq!(req.body.len(), length);
                    assert!(length <= CAP);
                }
                BodyRead::Skipped { declared } => {
                    assert_eq!((declared, req.body.as_str()), (length, ""));
                }
            }
        }
        Err(ParseError::Empty) => assert!(raw.is_empty(), "Empty for {} byte(s)", raw.len()),
        Err(ParseError::Malformed(_)) => {}
        Err(e) => panic!("bytes in memory cannot stall or fail, got {e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_or_fail_typed(raw in arb_bytes(512)) {
        check(&raw);
    }

    #[test]
    fn one_replaced_field_parses_or_fails_typed(
        target in prop_oneof![Just("/v1/compare?debug=1"), Just("/nope")],
        field in 0usize..7,
        header in 0usize..3,
        junk in arb_junk(),
    ) {
        let mut parts = Parts::valid(target);
        match field {
            0 => parts.method = junk,
            1 => parts.target = junk,
            2 => parts.version = junk,
            3 => parts.headers[header].0 = junk,
            4 => parts.headers[header].1 = junk,
            5 => parts.body = junk,
            _ => parts.headers.push(("Content-Length".into(), junk)),
        }
        check(&parts.wire());
    }

    #[test]
    fn one_changed_byte_parses_or_fails_typed(
        at in 0usize..1 << 16,
        byte in 0u8..=255,
        edit in 0u8..4,
    ) {
        let mut raw = Parts::valid("/v1/compare?debug=1").wire();
        let at = at % raw.len();
        match edit {
            0 => raw[at] = byte,
            1 => raw.insert(at, byte),
            2 => { raw.remove(at); }
            _ => raw.truncate(at),
        }
        check(&raw);
    }
}

fn engine() -> Arc<OpportunityMap> {
    static OM: OnceLock<Arc<OpportunityMap>> = OnceLock::new();
    Arc::clone(OM.get_or_init(|| {
        let (ds, _) = paper_scenario(2_000, 33);
        Arc::new(OpportunityMap::build(ds, EngineConfig::default()).unwrap())
    }))
}

/// Percent-encode everything but ASCII alphanumerics.
fn escape(raw: &str) -> String {
    raw.bytes()
        .map(|b| match b {
            b if b.is_ascii_alphanumeric() => char::from(b).to_string(),
            b => format!("%{b:02X}"),
        })
        .collect()
}

fn arb_method() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => Just("GET".to_owned()),
        3 => Just("POST".to_owned()),
        1 => collection::vec(b'A'..=b'Z', 1..8).prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
    ]
}

fn arb_internal_path() -> impl Strategy<Value = String> {
    const KNOWN: &[&str] = &["schema", "generation", "store", "level", "count", "flush"];
    prop_oneof![
        4 => (0..KNOWN.len()).prop_map(|i| format!("/internal/{}", KNOWN[i])),
        1 => arb_text(16).prop_map(|s| format!("/internal/{}", escape(&s))),
    ]
}

/// Numbers an index check is most likely to get wrong.
fn arb_index() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..12,
        1 => prop_oneof![Just(u64::from(u32::MAX)), Just(1 << 32), Just(1 << 53), Just(u64::MAX)],
    ]
}

fn arb_params() -> impl Strategy<Value = String> {
    const EXPECT: &[&str] = &["0", "1", "-1", "+0", "18446744073709551616", "abc", ""];
    let pair = prop_oneof![
        (0..EXPECT.len()).prop_map(|i| format!("expect={}", escape(EXPECT[i]))),
        // A level's anchor: not a number, past the schema, the class
        // index, or simply not one of the attrs the body lists.
        (0..EXPECT.len()).prop_map(|i| format!("anchor={}", escape(EXPECT[i]))),
        arb_index().prop_map(|a| format!("anchor={a}")),
        (arb_text(8), arb_text(8)).prop_map(|(k, v)| format!("{}={}", escape(&k), escape(&v))),
    ];
    collection::vec(pair, 0..3).prop_map(|pairs| pairs.join("&"))
}

fn arb_internal_body() -> impl Strategy<Value = String> {
    let conditions = || {
        let condition =
            (arb_index(), arb_index()).prop_map(|(attr, value)| ConditionWire { attr, value });
        collection::vec(condition, 0..3)
    };
    prop_oneof![
        arb_junk(),
        conditions().prop_map(|conditions| InternalCountRequest { conditions }.encode()),
        (conditions(), collection::vec(arb_index(), 0..4))
            .prop_map(|(conditions, attrs)| InternalLevelRequest { conditions, attrs }.encode()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn internal_router_answers_a_documented_status(
        method in arb_method(),
        path in arb_internal_path(),
        params in arb_params(),
        body in arb_internal_body(),
    ) {
        let server = Server::start(
            engine(),
            ServerConfig {
                n_workers: 1,
                request_timeout: Duration::from_millis(500),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let raw = format!(
            "{method} {path}?{params} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        // Done sending: a refused request is answered without the
        // server waiting out its read timeout for more.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no status in {response:?} for {raw:?}"));
        let panics = server.metrics().panics_caught();
        server.shutdown();
        prop_assert_eq!(panics, 0, "{:?} panicked the handler", raw);
        // Every failure is an envelope with the code docs/cluster.md
        // names for its status.
        let documented = match status {
            200 => None,
            400 => Some(ErrorCode::BadRequest),
            404 => Some(ErrorCode::NotFound),
            405 => Some(ErrorCode::MethodNotAllowed),
            409 => Some(ErrorCode::StaleGeneration),
            422 => Some(ErrorCode::Invalid),
            _ => return Err(format!("{raw:?} answered {response}")),
        };
        if let Some(code) = documented {
            let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
            let env = ErrorEnvelope::parse(body).map_err(|e| format!("{e}: {response}"))?;
            prop_assert_eq!(env.code, code, "{:?} answered {}", raw, response);
        }
    }
}
