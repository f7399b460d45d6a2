//! Deterministic chaos tests: failpoints inject delays, errors and
//! panics into the request path, and the suite asserts the server sheds,
//! times out, isolates and drains exactly as designed.
//!
//! The failpoint registry is process-global, so every test in this
//! binary serializes on one mutex and disarms its failpoints on exit
//! (even when the assertion panics).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use om_api::{ErrorCode, ErrorEnvelope};
use om_engine::{EngineConfig, OpportunityMap};
use om_fault::fail::{self, Action, Seam};
use om_server::{Server, ServerConfig};
use om_synth::paper_scenario;

/// Serializes chaos tests and resets the failpoint registry when the
/// test ends, panicking or not.
struct ChaosGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        fail::reset();
    }
}

fn chaos() -> ChaosGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed assertion in a previous test poisons the mutex; the
    // guarded state is unit, so recovery is always safe.
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fail::reset();
    ChaosGuard(guard)
}

fn engine() -> Arc<OpportunityMap> {
    static OM: OnceLock<Arc<OpportunityMap>> = OnceLock::new();
    Arc::clone(OM.get_or_init(|| {
        let (ds, _) = paper_scenario(20_000, 33);
        Arc::new(OpportunityMap::build(ds, EngineConfig::default()).unwrap())
    }))
}

/// One raw request; returns (status, full head, body).
fn request(addr: std::net::SocketAddr, raw: &str) -> (u16, String, String) {
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

fn get(addr: std::net::SocketAddr, target: &str) -> (u16, String, String) {
    request(addr, &format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// An error body, which must be an [`ErrorEnvelope`] whose code carries
/// `status`.
fn envelope(status: u16, body: &str) -> ErrorEnvelope {
    let env = ErrorEnvelope::parse(body).unwrap_or_else(|e| panic!("{e}: {body:?}"));
    assert_eq!(env.code.http_status(), status, "{body}");
    env
}

fn compare(addr: std::net::SocketAddr) -> (u16, String, String) {
    post(
        addr,
        "/v1/compare",
        r#"{"attr":"PhoneModel","v1":"ph1","v2":"ph2","class":"dropped"}"#,
    )
}

#[test]
fn expensive_query_times_out_while_cheap_queries_succeed() {
    let _chaos = chaos();
    // Every per-attribute step of a comparison stalls 30ms; with a 150ms
    // budget the deadline trips after ~5 attributes.
    fail::configure(Seam::CompareAttr, Action::Delay(Duration::from_millis(30)));
    let budget = Duration::from_millis(150);
    let server = Server::start(
        engine(),
        ServerConfig {
            engine_budget: Some(budget),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Cheap queries on other workers stay fast throughout.
    let cheap: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let (status, _, body) = get(addr, "/healthz");
                    assert_eq!(status, 200, "{body}");
                    let (status, _, _) = post(addr, "/v1/cube/slice", r#"{"attr":"PhoneModel"}"#);
                    assert_eq!(status, 200);
                }
            })
        })
        .collect();

    let started = Instant::now();
    let (status, head, body) = compare(addr);
    let elapsed = started.elapsed();
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("Retry-After:"), "{head}");
    assert!(body.contains("deadline exceeded"), "{body}");
    assert!(
        elapsed < 2 * budget,
        "503 took {elapsed:?}, over twice the {budget:?} budget"
    );

    for h in cheap {
        h.join().unwrap();
    }
    assert!(server.metrics().deadline_exceeded() >= 1);
    server.shutdown();
}

#[test]
fn injected_panic_is_500_and_the_worker_pool_survives() {
    let _chaos = chaos();
    let server = Server::start(
        engine(),
        ServerConfig {
            n_workers: 1, // one worker: a lost thread would hang the test
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    fail::configure(Seam::ServerRespond, Action::Panic("chaos".into()));
    for _ in 0..3 {
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!(status, 500, "{body}");
        let env = envelope(status, &body);
        assert_eq!(env.code, ErrorCode::Internal);
        assert!(env.message.contains("panicked"), "{body}");
    }

    // Disarmed, the same (sole) worker keeps serving.
    fail::remove(Seam::ServerRespond);
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert_eq!(server.metrics().panics_caught(), 3);
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("om_panics_caught_total 3"), "{metrics}");
    server.shutdown();
}

#[test]
fn injected_error_is_500_with_the_injected_message() {
    let _chaos = chaos();
    fail::configure(
        Seam::EngineCompare,
        Action::Error("chaos wire fault".into()),
    );
    let server = Server::start(engine(), ServerConfig::default()).unwrap();
    let (status, _, body) = compare(server.local_addr());
    assert_eq!(status, 500, "{body}");
    let env = envelope(status, &body);
    assert_eq!(env.code, ErrorCode::Internal);
    assert!(env.message.contains("chaos wire fault"), "{body}");
    server.shutdown();
}

#[test]
fn full_admission_queue_sheds_overflow_with_503() {
    let _chaos = chaos();
    // One worker stalled 400ms per request and a single queue slot: of
    // six concurrent comparisons, at most two can be served promptly and
    // the rest must be shed at admission.
    fail::configure(
        Seam::EngineCompare,
        Action::Delay(Duration::from_millis(400)),
    );
    let server = Server::start(
        engine(),
        ServerConfig {
            n_workers: 1,
            queue_capacity: 1,
            retry_after_secs: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let clients: Vec<_> = (0..6)
        .map(|_| std::thread::spawn(move || compare(addr)))
        .collect();
    let results: Vec<_> = clients.into_iter().map(|h| h.join().unwrap()).collect();

    let served = results.iter().filter(|(s, _, _)| *s == 200).count();
    let shed: Vec<_> = results.iter().filter(|(s, _, _)| *s == 503).collect();
    assert!(served >= 1, "at least one comparison must be served");
    assert!(
        shed.len() >= 3,
        "expected most of 6 clients shed, got {} (statuses: {:?})",
        shed.len(),
        results.iter().map(|(s, _, _)| s).collect::<Vec<_>>()
    );
    for (status, head, body) in &shed {
        assert!(head.contains("Retry-After: 2\r\n"), "{head}");
        let env = envelope(*status, body);
        assert_eq!(env.code, ErrorCode::Overloaded);
        assert_eq!(env.retry_after_ms, Some(2000));
        assert!(env.message.contains("admission queue full"), "{body}");
    }
    assert_eq!(served + shed.len(), 6, "no other statuses expected");
    assert_eq!(server.metrics().shed(), shed.len() as u64);
    assert_eq!(server.metrics().queue_depth(), 0);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_queued_requests() {
    let _chaos = chaos();
    fail::configure(
        Seam::EngineCompare,
        Action::Delay(Duration::from_millis(200)),
    );
    let server = Server::start(
        engine(),
        ServerConfig {
            n_workers: 1,
            queue_capacity: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // One request being served, one parked in the admission queue.
    let clients: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(move || compare(addr)))
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    // Shutdown starts while both are in flight; the drain must answer
    // the queued one too, not drop it.
    server.shutdown();
    for h in clients {
        let (status, _, body) = h.join().unwrap();
        assert_eq!(status, 200, "in-flight request dropped at shutdown: {body}");
    }
}

#[test]
fn injected_decode_faults_surface_as_typed_errors() {
    let _chaos = chaos();
    let (ds, _) = paper_scenario(500, 7);
    let store = om_cube::CubeStore::build(&ds, &om_cube::StoreBuildOptions::default()).unwrap();
    let blob = om_cube::persist::encode_store(&store).unwrap();

    fail::configure(Seam::StoreDecode, Action::Error("disk bit rot".into()));
    let err = match om_cube::persist::decode_store(blob.clone()) {
        Err(e) => e,
        Ok(_) => panic!("armed store.decode failpoint did not fire"),
    };
    assert!(matches!(err, om_data::DataError::Decode(_)), "{err}");
    assert!(err.to_string().contains("disk bit rot"));

    // Disarmed, the same bytes decode fine — the fault was injected, not
    // a real corruption.
    fail::remove(Seam::StoreDecode);
    let roundtrip = om_cube::persist::decode_store(blob).unwrap();
    assert_eq!(roundtrip.attrs(), store.attrs());
}
