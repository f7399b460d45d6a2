//! End-to-end tests: a real server on an ephemeral port, exercised by
//! real TCP clients.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use om_api::{ErrorCode, ErrorEnvelope};
use om_engine::{EngineConfig, OpportunityMap};
use om_server::metrics::Endpoint;
use om_server::{Server, ServerConfig};
use om_synth::paper_scenario;

/// One engine shared by every test in the binary (building cubes over
/// 20k records once keeps the suite fast).
fn engine() -> Arc<OpportunityMap> {
    use std::sync::OnceLock;
    static OM: OnceLock<Arc<OpportunityMap>> = OnceLock::new();
    Arc::clone(OM.get_or_init(|| {
        let (ds, _) = paper_scenario(20_000, 33);
        Arc::new(OpportunityMap::build(ds, EngineConfig::default()).unwrap())
    }))
}

fn start_server() -> Server {
    Server::start(
        engine(),
        ServerConfig {
            request_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Issue one raw request and return (status, headers, body).
fn raw_request_full(addr: std::net::SocketAddr, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {response:?}"));
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    (status, head.to_owned(), body.to_owned())
}

/// Issue one raw request and return (status, body).
fn raw_request(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
    let (status, _, body) = raw_request_full(addr, raw);
    (status, body)
}

fn get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    raw_request(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n"),
    )
}

fn post_request(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    raw_request(addr, &post_request(path, body))
}

/// The code of an error body, which must be an [`ErrorEnvelope`] whose
/// code carries `status`.
fn error_code((status, body): (u16, String)) -> ErrorCode {
    let env = ErrorEnvelope::parse(&body).unwrap_or_else(|e| panic!("{e}: {body:?}"));
    assert_eq!(env.code.http_status(), status, "{body}");
    env.code
}

const COMPARE: &str = r#"{"attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped"}"#;

/// The `/v1/compare` body the engine itself would produce for [`COMPARE`].
fn direct_compare() -> String {
    let direct = engine()
        .run_compare_by_name(
            "PhoneModel",
            "ph1",
            "ph2",
            "dropped",
            engine().exec_ctx(None),
        )
        .unwrap();
    om_server::v1::compare_wire(&direct).encode()
}

#[test]
fn unknown_path_upload_gets_404_without_draining_the_body() {
    // A server with a raised upload allowance: POSTing a body declared
    // far beyond the stock 1 MiB cap at a path nothing serves must be
    // answered (404) from the head alone — the server never waits for
    // the body a 404 would not read.
    let server = Server::start(
        engine(),
        ServerConfig {
            request_timeout: Duration::from_secs(5),
            max_body_bytes: 64 << 20,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // A path that never existed and the retired bare `/ingest` are
    // equally unrouted.
    for (path, why) in [("/v1/nope", "no v1 route"), ("/ingest", "no route for")] {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(
                format!(
                    "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                    48 << 20
                )
                .as_bytes(),
            )
            .unwrap();
        // Send nothing further and read the response directly (the
        // server keeps the socket open briefly for its politeness drain,
        // so don't wait for close). A server that waited for the body
        // would sit in the read until its 5 s timeout and this 2 s
        // client read would expire empty-handed.
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut response = String::new();
        let mut buf = [0u8; 4096];
        while !response.contains("\r\n\r\n") || !response.ends_with('}') {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => response.push_str(std::str::from_utf8(&buf[..n]).unwrap()),
            }
        }
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert_eq!(
            head.lines().next(),
            Some("HTTP/1.1 404 Not Found"),
            "{path}: expected a head-only 404: {response:?}"
        );
        assert_eq!(error_code((404, body.to_owned())), ErrorCode::NotFound);
        assert!(body.contains(why), "{path}: {response:?}");
    }
    // Small uploads to the retired path are read and still 404.
    assert_eq!(post(server.local_addr(), "/ingest", "a,b\n").0, 404);
    assert_eq!(server.metrics().requests(Endpoint::Other), 3);
    assert_eq!(server.metrics().requests(Endpoint::Ingest), 0);
    server.shutdown();
}

#[test]
fn healthz_answers() {
    let server = start_server();
    let (status, body) = get(server.local_addr(), "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    server.shutdown();
}

#[test]
fn compare_matches_direct_engine_call() {
    let server = start_server();
    let (status, body) = post(server.local_addr(), "/v1/compare", COMPARE);
    assert_eq!(status, 200);
    assert_eq!(body, direct_compare());
    server.shutdown();
}

#[test]
fn gi_and_cube_slice_match_direct_calls() {
    let server = start_server();
    let addr = server.local_addr();

    let (status, gi_body) = post(addr, "/v1/gi", r#"{"top":5}"#);
    assert_eq!(status, 200);
    let report = engine()
        .run_general_impressions(engine().exec_ctx(None))
        .unwrap();
    // Spot-check against the direct engine report: the top influence
    // attribute's name must appear in the JSON.
    assert!(gi_body.contains(&format!("\"attr\":\"{}\"", report.influence[0].attr_name)));
    assert!(gi_body.contains("\"trends\":["));

    let (status, slice_body) = post(addr, "/v1/cube/slice", r#"{"attr":"PhoneModel"}"#);
    assert_eq!(status, 200);
    let cube = engine()
        .store()
        .one_dim(engine().attr_index("PhoneModel").unwrap())
        .unwrap();
    let view = om_cube::CubeView::from_cube(&cube).unwrap();
    assert!(slice_body.contains(&format!("\"total\":{}", view.total())));
    for label in view.value_labels() {
        assert!(slice_body.contains(&format!("\"label\":\"{label}\"")));
    }
    server.shutdown();
}

#[test]
fn drill_answers_with_levels() {
    let server = start_server();
    let (status, body) = post(
        server.local_addr(),
        "/v1/drill",
        r#"{"attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped","depth":1}"#,
    );
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"levels\":["));
    server.shutdown();
}

#[test]
fn drill_refuses_a_non_finite_min_score() {
    let server = start_server();
    for min_score in ["null", "1e999", "-1e999"] {
        let (status, body) = post(
            server.local_addr(),
            "/v1/drill",
            &format!(
                r#"{{"attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped","min_score":{min_score}}}"#
            ),
        );
        assert_eq!(status, 422, "min_score {min_score}: {body}");
        assert!(body.contains("\"code\":\"invalid\""), "{body}");
        assert!(body.contains("min_score"), "{body}");
    }
    server.shutdown();
}

#[test]
fn malformed_requests_get_400_and_server_survives() {
    let server = start_server();
    let addr = server.local_addr();

    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
    for raw in [
        "BLARGH\r\n\r\n",
        "GET /x HTTP/9.9\r\n\r\n",
        "GET /healthz?a=%zz HTTP/1.1\r\n\r\n",
        &long,
    ] {
        assert_eq!(error_code(raw_request(addr, raw)), ErrorCode::BadRequest);
    }
    let reply = post(addr, "/v1/compare", "not json");
    assert_eq!(error_code(reply), ErrorCode::BadRequest);

    let reply = post(addr, "/healthz", "");
    assert_eq!(error_code(reply), ErrorCode::MethodNotAllowed);
    let reply = get(addr, "/v1/compare");
    assert_eq!(error_code(reply), ErrorCode::MethodNotAllowed);

    // The process is still alive and serving.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    server.shutdown();
}

#[test]
fn unknown_names_and_unknown_routes_are_404() {
    let server = start_server();
    let addr = server.local_addr();
    let reply = post(
        addr,
        "/v1/compare",
        r#"{"attr":"Nope","v1":"a","v2":"b","class":"dropped"}"#,
    );
    assert_eq!(error_code(reply), ErrorCode::UnknownName);
    assert_eq!(error_code(get(addr, "/no/such/route")), ErrorCode::NotFound);
    // The retired pre-/v1 GET surface is as unknown as any other path.
    for target in [
        "/compare?attr=PhoneModel&v1=ph1&v2=ph2&class=dropped",
        "/drill?attr=PhoneModel&v1=ph1&v2=ph2&class=dropped",
        "/gi",
        "/cube/slice?attr=PhoneModel",
    ] {
        assert_eq!(
            error_code(get(addr, target)),
            ErrorCode::NotFound,
            "{target}"
        );
    }
    assert_eq!(server.metrics().requests(Endpoint::Other), 5);
    server.shutdown();
}

#[test]
fn metrics_reflect_requests() {
    let server = start_server();
    let addr = server.local_addr();

    let (_, first) = post(addr, "/v1/compare", COMPARE);
    let (_, second) = post(addr, "/v1/compare", COMPARE);
    assert_eq!(first, second);
    let _ = get(addr, "/healthz");
    let _ = get(addr, "/no/such/route");

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("om_requests_total{endpoint=\"compare\"} 2"),
        "{metrics}"
    );
    assert!(metrics.contains("om_requests_total{endpoint=\"healthz\"} 1"));
    assert!(metrics.contains("om_requests_total{endpoint=\"other\"} 1"));
    assert!(metrics.contains("om_errors_total 1"), "{metrics}");
    // 4 requests recorded by the time /metrics renders itself.
    assert!(metrics.contains("om_latency_samples_total 4"), "{metrics}");
    assert!(metrics.contains("om_latency_us{quantile=\"0.99\"}"));
    server.shutdown();
}

#[test]
fn a_stale_generation_409_is_not_counted_as_an_error() {
    let server = start_server();
    let addr = server.local_addr();
    let errors = || {
        let (_, metrics) = get(addr, "/metrics");
        let line = metrics.lines().find(|l| l.starts_with("om_errors_total "));
        line.expect("om_errors_total is exposed").to_owned()
    };
    // The engine serves generation 0, so a pin on 7 is stale.
    let stale = get(addr, "/internal/store?expect=7");
    assert_eq!(error_code(stale), ErrorCode::StaleGeneration);
    assert_eq!(errors(), "om_errors_total 0");
    let malformed = get(addr, "/internal/store?expect=seven");
    assert_eq!(error_code(malformed), ErrorCode::BadRequest);
    assert_eq!(errors(), "om_errors_total 1");
    server.shutdown();
}

#[test]
fn stalled_request_times_out_with_408() {
    let server = Server::start(
        engine(),
        ServerConfig {
            request_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Send half a request line and stall.
    stream.write_all(b"GET /healthz HT").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert_eq!(
        head.lines().next(),
        Some("HTTP/1.1 408 Request Timeout"),
        "{response:?}"
    );
    assert_eq!(
        error_code((408, body.to_owned())),
        ErrorCode::RequestTimeout
    );
    server.shutdown();
}

#[test]
fn eight_concurrent_clients_get_correct_answers() {
    let server = start_server();
    let addr = server.local_addr();
    let expected = direct_compare();

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                for round in 0..5 {
                    // Every thread alternates endpoints so the engine
                    // and the cheap path both see concurrency.
                    if (i + round) % 2 == 0 {
                        let (status, body) = post(addr, "/v1/compare", COMPARE);
                        assert_eq!(status, 200);
                        assert_eq!(body, expected);
                    } else {
                        let (status, body) = get(addr, "/healthz");
                        assert_eq!(status, 200);
                        assert_eq!(body, "ok\n");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let metrics = server.metrics();
    assert_eq!(
        metrics.requests(Endpoint::Compare) + metrics.requests(Endpoint::Healthz),
        40
    );
    assert_eq!(metrics.errors(), 0);
    server.shutdown();
}

#[test]
fn exhausted_engine_budget_is_503_with_retry_after() {
    // A zero budget expires before any engine work: every engine-backed
    // endpoint must answer 503 + Retry-After while cheap liveness
    // endpoints keep working.
    let server = Server::start(
        engine(),
        ServerConfig {
            engine_budget: Some(Duration::ZERO),
            retry_after_secs: 3,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let (status, head, body) = raw_request_full(addr, &post_request("/v1/compare", COMPARE));
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("Retry-After: 3\r\n"), "{head}");
    assert!(body.contains("deadline exceeded"), "{body}");

    assert_eq!(post(addr, "/v1/gi", "{}").0, 503);
    assert_eq!(get(addr, "/healthz").0, 200);

    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("om_deadline_exceeded_total 2"),
        "{metrics}"
    );
    assert!(metrics.contains("om_shed_total 0"), "{metrics}");
    server.shutdown();
}

#[test]
fn generous_budget_does_not_change_answers() {
    let server = Server::start(
        engine(),
        ServerConfig {
            engine_budget: Some(Duration::from_secs(30)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let (status, body) = post(server.local_addr(), "/v1/compare", COMPARE);
    assert_eq!(status, 200);
    assert_eq!(body, direct_compare());
    server.shutdown();
}

#[test]
fn live_ingestion_end_to_end() {
    use om_engine::IngestConfig;

    // A private engine: these rows must not leak into the shared one.
    let (ds, _) = paper_scenario(5_000, 11);
    let om = Arc::new(OpportunityMap::build(ds, EngineConfig::default()).unwrap());
    let wal_dir = std::env::temp_dir().join(format!("om-server-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let handle = om
        .start_ingest(&IngestConfig {
            seal_rows: 64,
            sync_writes: false,
            ..IngestConfig::new(&wal_dir)
        })
        .unwrap();
    let server = Server::start_with_ingest(
        Arc::clone(&om),
        ServerConfig {
            request_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
        Some(handle.clone()),
    )
    .unwrap();
    let addr = server.local_addr();

    const SLICE: &str = r#"{"attr":"PhoneModel"}"#;
    let (status, before) = post(addr, "/v1/cube/slice", SLICE);
    assert_eq!(status, 200);
    assert!(before.contains("\"total\":5000"), "{before}");

    // Row 0 of the discretized dataset, as the labels a client would POST.
    let dataset = om.dataset();
    let row: Vec<String> = (0..dataset.schema().n_attributes())
        .map(|i| {
            let id = dataset.column(i).as_categorical().unwrap()[0];
            dataset
                .schema()
                .attribute(i)
                .domain()
                .label(id)
                .unwrap()
                .to_owned()
        })
        .collect();
    let body = om_api::IngestRequest {
        rows: vec![row.clone(), row.clone(), row],
    }
    .encode();
    let (status, reply) = post(addr, "/v1/ingest", &body);
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"accepted\":3"), "{reply}");

    // A malformed batch is a 400 naming the row, and commits nothing.
    let bad = om_api::IngestRequest {
        rows: vec![vec!["such".into(), "garbage".into()]],
    }
    .encode();
    let (status, reply) = post(addr, "/v1/ingest", &bad);
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("row 1"), "{reply}");

    // GET on /v1/ingest is a 405 even with ingestion enabled.
    assert_eq!(get(addr, "/v1/ingest").0, 405);

    // Force the pipeline through seal + merge + publish, then the served
    // counts must include the rows.
    handle.flush().unwrap();
    let (status, after) = post(addr, "/v1/cube/slice", SLICE);
    assert_eq!(status, 200);
    assert!(after.contains("\"total\":5003"), "{after}");

    let (_, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("om_ingest_rows_total 3"), "{metrics}");
    assert!(
        metrics.contains("om_ingest_segments_sealed_total 1"),
        "{metrics}"
    );
    assert!(metrics.contains("om_compactions_total 1"), "{metrics}");
    assert!(metrics.contains("om_store_generation 1"), "{metrics}");
    assert!(metrics.contains("om_wal_bytes"), "{metrics}");
    assert!(
        metrics.contains("om_requests_total{endpoint=\"ingest\"} 3"),
        "{metrics}"
    );
    // The server's 13 families and ingest's 6, each typed once.
    let families = om_server::metrics::families(&metrics).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(families.len(), 19, "{metrics}");

    server.shutdown();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// `/internal/level?anchor=A` is the anchor-free level minus the pair
/// cubes a comparison on `A` never reads: the same 1-D cubes, the same
/// anchor pair cubes, and exactly `attrs.len() − 1` pairs on the wire.
#[test]
fn anchored_level_is_the_anchors_part_of_the_whole_level() {
    let server = start_server();
    let addr = server.local_addr();
    let om = engine();
    let schema = om.dataset().schema();
    let morning = om.condition_by_name("TimeOfCall", "morning").unwrap();
    let anchor = schema.attr_index("PhoneModel").unwrap();
    let attrs: Vec<usize> = schema
        .non_class_indices()
        .into_iter()
        .filter(|&a| a != morning.attr)
        .collect();
    let body = om_api::InternalLevelRequest {
        conditions: vec![om_api::ConditionWire {
            attr: morning.attr as u64,
            value: u64::from(morning.value),
        }],
        attrs: attrs.iter().map(|&a| a as u64).collect(),
    }
    .encode();
    let level = |target: &str| {
        let (status, reply) = post(addr, target, &body);
        assert_eq!(status, 200, "{reply}");
        let frame = om_api::InternalLevelResponse::parse(&reply)
            .unwrap()
            .store_b64;
        om_cube::persist::decode_store(om_api::b64_decode(&frame).unwrap().into()).unwrap()
    };
    let whole = level("/internal/level");
    let part = level(&format!("/internal/level?anchor={anchor}"));

    assert_eq!(part.attrs(), whole.attrs());
    assert_eq!(part.class_counts(), whole.class_counts());
    assert_eq!(part.total_records(), whole.total_records());
    for &a in &attrs {
        assert_eq!(*part.one_dim(a).unwrap(), *whole.one_dim(a).unwrap());
    }
    assert_eq!(whole.n_pair_cubes(), attrs.len() * (attrs.len() - 1) / 2);
    let held = part.held_pairs();
    assert_eq!(held.len(), attrs.len() - 1);
    for ((a, b), cube) in held {
        assert!(
            a == anchor || b == anchor,
            "pair ({a}, {b}) is not the anchor's"
        );
        assert_eq!(*cube, *whole.pair(a, b).unwrap());
    }

    // An anchor the level cannot be built around is refused here, not
    // answered with a store that fails later on the coordinator.
    for (value, want) in [
        ("abc".to_owned(), 400),
        ("-1".to_owned(), 400),
        (schema.n_attributes().to_string(), 422),
        (schema.class_index().to_string(), 422),
        (morning.attr.to_string(), 422),
    ] {
        let (status, reply) = post(addr, &format!("/internal/level?anchor={value}"), &body);
        assert_eq!(status, want, "anchor={value}: {reply}");
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_request() {
    let server = start_server();
    let addr = server.local_addr();

    // Open a connection and send only half the request, so a worker is
    // parked inside the read when shutdown begins.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\nHo").unwrap();
    // Give the accept loop time to hand the socket to a worker.
    std::thread::sleep(Duration::from_millis(100));

    let shutdown_thread = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(100));

    // Finish the request *after* shutdown started: the worker must still
    // answer it before exiting.
    stream.write_all(b"st: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert_eq!(
        response.lines().next(),
        Some("HTTP/1.1 200 OK"),
        "in-flight request was dropped: {response:?}"
    );
    assert!(response.ends_with("ok\n"));

    shutdown_thread.join().unwrap();

    // And afterwards the port is really closed.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // The OS may accept briefly on some platforms; a request on
            // such a zombie connection must at least go unanswered.
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap_or(0);
            out.is_empty()
        },
        "server still answering after shutdown"
    );
}
