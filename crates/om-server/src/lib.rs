//! om-server: a concurrent HTTP/1.1 query daemon over a resident
//! Opportunity Map engine.
//!
//! The paper's workflow is offline: build rule cubes once, then answer
//! many cheap comparisons interactively. This crate makes the second
//! half a service: the engine (with its cube store) is built once, held
//! behind an [`Arc`], and a pool of worker threads answers read-only
//! queries over plain HTTP — no external dependencies, just
//! `std::net::TcpListener` plus the workspace's `crossbeam` channel and
//! `parking_lot` locks.
//!
//! Architecture:
//!
//! ```text
//! accept thread ── crossbeam::channel ──▶ worker 0..n
//!                                         │  parse → router
//!                                         ▼
//!                                 Arc<OpportunityMap> (read-only)
//! ```
//!
//! Shutdown is cooperative: a flag flips, a self-connection wakes the
//! accept loop, the channel disconnects, and every worker finishes the
//! request it holds before exiting — in-flight requests always drain.

// Request-path crate: a panic here is a 500 or a dead worker, so every
// panicking construct is denied outside unit tests. A site that cannot
// fire says why in `#[expect(clippy::indexing_slicing, reason = ...)]`;
// om-lint's tier-1 clippy test enforces both (docs/lint.md).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::string_slice
    )
)]

pub mod http;
mod internal;
pub mod metrics;
pub mod ops;
pub mod router;
pub mod v1;

use std::io::{self, Read as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::TrySendError;
use om_api::ErrorCode::{Internal, Overloaded, RequestTimeout};
use om_api::ErrorEnvelope;
use om_engine::{IngestHandle, OpportunityMap};
use om_fault::fail::{self, Seam};
use om_fault::{Budget, CancelToken};

use crate::http::{ParseError, Response};
use crate::internal::StoreWireCache;
use crate::metrics::{Endpoint, Exposition, Metrics};
use crate::ops::{EngineBackend, EngineOps};
use crate::router::{bad_request, RouteOptions};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads answering requests.
    pub n_workers: usize,
    /// Per-request socket read timeout; a stalled request gets `408`.
    pub request_timeout: Duration,
    /// Admission queue depth: connections beyond what the workers hold
    /// plus this many waiting are shed with an immediate `503`.
    pub queue_capacity: usize,
    /// Per-request engine budget; `None` disables deadlines. A request
    /// that exhausts it gets `503` with `Retry-After`.
    pub engine_budget: Option<Duration>,
    /// `Retry-After` seconds on overload (`503`) responses.
    pub retry_after_secs: u64,
    /// Upper bound on a request body (`POST /v1/ingest` uploads); larger
    /// uploads get `400` before a single body byte is read.
    pub max_body_bytes: usize,
    /// Log one line per request to stderr.
    pub verbose: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            n_workers: 4,
            request_timeout: Duration::from_secs(5),
            queue_capacity: 64,
            engine_budget: Some(Duration::from_secs(2)),
            retry_after_secs: 1,
            max_body_bytes: http::DEFAULT_MAX_BODY_BYTES,
            verbose: false,
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`Server::shutdown`].
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<Metrics>,
}

/// What the workers answer queries from: a resident engine (the
/// single-node server and every cluster shard) or a custom [`EngineOps`]
/// backend (the om-cluster coordinator).
enum Backend {
    Engine {
        om: Arc<OpportunityMap>,
        /// `Some` when live ingestion is enabled; `POST /v1/ingest`
        /// appends through it and `/metrics` includes its counters.
        ingest: Option<IngestHandle>,
        /// Encoded-store body for `/internal/store`, cached per generation.
        store_wire: StoreWireCache,
    },
    /// Health, metrics and `/v1` only: no `/internal/*`.
    Custom(Arc<dyn EngineOps>),
}

/// Everything a worker needs, shared across the pool.
struct Shared {
    backend: Backend,
    metrics: Arc<Metrics>,
    request_timeout: Duration,
    engine_budget: Option<Duration>,
    retry_after_secs: u64,
    max_body_bytes: usize,
    verbose: bool,
}

impl Server {
    /// Bind, spawn the accept loop and `n_workers` workers, and return
    /// immediately.
    ///
    /// # Errors
    /// Fails if the address cannot be bound or a thread cannot be spawned.
    pub fn start(om: Arc<OpportunityMap>, config: ServerConfig) -> io::Result<Self> {
        Self::start_with_ingest(om, config, None)
    }

    /// [`start`](Self::start) with live ingestion enabled: `POST
    /// /v1/ingest` appends through `ingest`, and `/metrics` includes its
    /// counters.
    ///
    /// # Errors
    /// Fails if the address cannot be bound or a thread cannot be spawned.
    pub fn start_with_ingest(
        om: Arc<OpportunityMap>,
        config: ServerConfig,
        ingest: Option<IngestHandle>,
    ) -> io::Result<Self> {
        Self::start_backend(
            Backend::Engine {
                om,
                ingest,
                store_wire: StoreWireCache::default(),
            },
            config,
        )
    }

    /// Serve a custom [`EngineOps`] backend — the om-cluster
    /// coordinator's entry point. Only `/healthz`, `/metrics` and the
    /// typed `/v1` API are routed; `/internal/*` answers `404`.
    ///
    /// # Errors
    /// Fails if the address cannot be bound or a thread cannot be spawned.
    pub fn start_custom(ops: Arc<dyn EngineOps>, config: ServerConfig) -> io::Result<Self> {
        Self::start_backend(Backend::Custom(ops), config)
    }

    fn start_backend(backend: Backend, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Bounded admission queue: connections beyond its capacity are
        // shed with an immediate `503` instead of piling up unboundedly
        // behind slow engine work.
        let (tx, rx) = crossbeam::channel::bounded::<TcpStream>(config.queue_capacity.max(1));

        let shared = Arc::new(Shared {
            backend,
            metrics: Arc::new(Metrics::default()),
            request_timeout: config.request_timeout,
            engine_budget: config.engine_budget,
            retry_after_secs: config.retry_after_secs,
            max_body_bytes: config.max_body_bytes,
            verbose: config.verbose,
        });
        let metrics = Arc::clone(&shared.metrics);

        let workers = (0..config.n_workers.max(1))
            .map(|i| {
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("om-server-worker-{i}"))
                    .spawn(move || {
                        // Drains the channel, then exits when every
                        // sender is gone — the graceful-shutdown drain.
                        while let Ok(stream) = rx.recv() {
                            shared.metrics.queue_leave();
                            handle_connection(stream, &shared);
                        }
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_metrics = Arc::clone(&shared.metrics);
        let retry_after_secs = config.retry_after_secs;
        let accept_handle = std::thread::Builder::new()
            .name("om-server-accept".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(s) = stream else { continue };
                    // Count the entry before sending so a worker's
                    // matching `queue_leave` can never race ahead of it.
                    accept_metrics.queue_enter();
                    match tx.try_send(s) {
                        Ok(()) => {}
                        Err(TrySendError::Full(s)) => {
                            accept_metrics.queue_leave();
                            accept_metrics.record_shed();
                            shed(s, retry_after_secs);
                        }
                        // All workers are gone; nothing left to serve.
                        Err(TrySendError::Disconnected(_)) => {
                            accept_metrics.queue_leave();
                            break;
                        }
                    }
                }
                // `tx` drops here; workers drain and exit.
            })?;

        Ok(Self {
            local_addr,
            shutdown,
            accept_handle: Some(accept_handle),
            workers,
            metrics,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's live counters.
    #[must_use]
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Stop accepting, drain in-flight requests, and join every thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the flag even with no
        // traffic; the throwaway connection is dropped unanswered.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Reject a connection at admission: answer `503` without reading the
/// request, then drain briefly so the peer gets to read the response
/// before the socket closes (an unread send buffer would RST it away).
fn shed(mut stream: TcpStream, retry_after_secs: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let response = Response::from(ErrorEnvelope {
        retry_after_ms: Some(retry_after_secs.saturating_mul(1000)),
        ..ErrorEnvelope::new(Overloaded, "server overloaded: admission queue full")
    });
    if response.write_to(&mut stream).is_err() {
        return;
    }
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 16 * 1024 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Serve one connection: parse, route, respond.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(shared.request_timeout));
    let _ = stream.set_nodelay(true);

    // Route-aware body admission: a target nothing serves only ever
    // earns a 404, so its upload allowance is capped at the stock
    // 1 MiB `/v1/ingest` bound even when the server's own allowance was
    // raised for bulk ingest — a misaddressed client can't hold a
    // worker by streaming a body the handler will never read.
    let parsed = http::parse_request_routed(&stream, shared.max_body_bytes, |path| {
        Endpoint::classify(path) != Endpoint::Other || path.starts_with("/internal/")
    });
    let (endpoint, response) = match &parsed {
        Ok((req, _)) => {
            let endpoint = Endpoint::classify(&req.path);
            // A panicking handler must not take the worker thread (and
            // with it a slot of the pool) down; the engine is read-only,
            // so no shared state can be left torn mid-update.
            let outcome = catch_unwind(AssertUnwindSafe(|| respond(req, shared)));
            let response = outcome.unwrap_or_else(|_| {
                shared.metrics.record_panic_caught();
                ErrorEnvelope::new(Internal, "internal error: request handler panicked").into()
            });
            (endpoint, response)
        }
        // A connect-and-close probe (including the shutdown wakeup):
        // nothing to answer, nothing to count.
        Err(ParseError::Empty) => return,
        Err(ParseError::TimedOut) => (
            Endpoint::Other,
            ErrorEnvelope::new(RequestTimeout, "timed out reading request").into(),
        ),
        Err(ParseError::Malformed(why)) => (Endpoint::Other, bad_request(why.as_str()).into()),
        Err(ParseError::Io(_)) => return,
    };

    shared.metrics.record_request(endpoint);
    if response.status >= 400 {
        shared.metrics.record_error();
    }
    let mut out = stream;
    let _ = response.write_to(&mut out);
    if matches!(parsed, Err(ParseError::Malformed(_)))
        || matches!(parsed, Ok((_, http::BodyRead::Skipped { .. })))
    {
        // The peer may still be mid-send (e.g. an oversized request
        // line, or a skipped unroutable upload). Closing now would RST
        // the connection before the client reads the 400/404, so drain
        // what it has queued, bounded by the read timeout and a byte
        // cap.
        let mut sink = [0u8; 4096];
        let mut drained = 0usize;
        while drained < 256 * 1024 {
            match out.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(n) => drained += n,
            }
        }
    }
    let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.metrics.record_latency_us(elapsed_us);
    if shared.verbose {
        let target = parsed
            .as_ref()
            .map(|(r, _)| format!("{} {}", r.method, r.path))
            .unwrap_or_else(|e| format!("<{e}>"));
        eprintln!("om-server: {} {} {}us", response.status, target, elapsed_us);
    }
}

/// Compute the response for a well-formed request.
fn respond(req: &http::Request, shared: &Shared) -> Response {
    // Chaos seam: a configured failpoint here injects an error (-> 500)
    // or a panic (caught by the worker's isolation barrier) before any
    // real work happens.
    if let Err(e) = fail::inject(Seam::ServerRespond) {
        return ErrorEnvelope::new(Internal, e.to_string()).into();
    }
    let opts = RouteOptions {
        budget: Budget::with_token(shared.engine_budget, CancelToken::new()),
        retry_after_secs: shared.retry_after_secs,
        metrics: Some(Arc::clone(&shared.metrics)),
    };
    let route = |ops: &dyn EngineOps| {
        router::route(req, ops, &opts, || {
            let mut out = Exposition::default();
            shared.metrics.write(&mut out);
            ops.write_metrics(&mut out);
            out.finish()
        })
    };
    let response = match &shared.backend {
        Backend::Custom(ops) => route(ops.as_ref()),
        Backend::Engine {
            om,
            ingest,
            store_wire,
        } => {
            // The shard-internal cluster protocol has its own dispatch.
            if req.path.starts_with("/internal/") {
                return internal::route_internal(req, om, ingest.as_ref(), store_wire);
            }
            route(&EngineBackend {
                om,
                ingest: ingest.as_ref(),
            })
        }
    };
    if response.status == 503 {
        // Shed connections never reach here, so this counts exactly the
        // requests whose engine budget ran out.
        shared.metrics.record_deadline_exceeded();
    }
    response
}
