//! The served topology: one om-server, or two shards behind a
//! coordinator — started in-process on loopback from the crates' public
//! API, with `ServerConfig`/`IngestConfig` at their defaults (fsync on)
//! except `n_workers = nproc`.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use om_cluster::{partition_dataset, ClusterConfig, Coordinator};
use om_data::Dataset;
use om_engine::{EngineConfig, IngestConfig, IngestHandle, OpportunityMap};
use om_server::http::Request;
use om_server::ops::{EngineBackend, EngineOps};
use om_server::router::RouteOptions;
use om_server::v1::route_v1;
use om_server::{Server, ServerConfig};

use crate::client;
use crate::workload::Op;

pub type Res<T> = Result<T, String>;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        n_workers: nproc(),
        ..ServerConfig::default()
    }
}

/// An engine with live ingestion into a WAL of its own.
pub struct Engine {
    pub om: Arc<OpportunityMap>,
    pub ingest: IngestHandle,
    /// `OpportunityMap::build` alone, in milliseconds.
    pub build_ms: f64,
}

impl Engine {
    pub fn build(ds: Dataset, wal: PathBuf) -> Res<Engine> {
        let t = Instant::now();
        let om = OpportunityMap::build(ds, EngineConfig::default())
            .map_err(|e| format!("engine build failed: {e}"))?;
        let build_ms = ms_since(t);
        let ingest = om
            .start_ingest(&IngestConfig::new(wal))
            .map_err(|e| format!("cannot start ingestion: {e}"))?;
        Ok(Engine {
            om: Arc::new(om),
            ingest,
            build_ms,
        })
    }

    pub fn backend(&self) -> EngineBackend<'_> {
        EngineBackend {
            om: &self.om,
            ingest: Some(&self.ingest),
        }
    }
}

/// One engine-backed om-server (the single node, or a cluster shard).
pub struct Node {
    pub engine: Engine,
    pub server: Server,
}

impl Node {
    fn start(ds: Dataset, wal: PathBuf) -> Res<Node> {
        let engine = Engine::build(ds, wal)?;
        let server = Server::start_with_ingest(
            Arc::clone(&engine.om),
            server_config(),
            Some(engine.ingest.clone()),
        )
        .map_err(|e| format!("cannot start om-server: {e}"))?;
        Ok(Node { engine, server })
    }
}

pub struct Front {
    pub coordinator: Arc<Coordinator>,
    pub server: Server,
}

pub struct Stack {
    /// Where the client sends `/v1`.
    pub addr: SocketAddr,
    pub nodes: Vec<Node>,
    /// `Some` in `tall_cluster`.
    pub front: Option<Front>,
    /// Set-up steps worth their own per-layer metric, in milliseconds.
    pub partition_ms: f64,
    pub connect_ms: f64,
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Stack {
    /// One om-server over `ds` (discretized by the engine build).
    pub fn single(ds: Dataset, out: &Path) -> Res<Stack> {
        let node = Node::start(ds, out.join("wal-0"))?;
        Ok(Stack {
            addr: node.server.local_addr(),
            nodes: vec![node],
            front: None,
            partition_ms: 0.0,
            connect_ms: 0.0,
        })
    }

    /// Two partitions x one replica of the discretized union behind a
    /// coordinator served with `Server::start_custom`.
    pub fn cluster(prepared: &Dataset, partitions: usize, out: &Path) -> Res<Stack> {
        let t = Instant::now();
        let parts = partition_dataset(prepared, partitions)
            .map_err(|e| format!("partitioning failed: {e}"))?;
        let partition_ms = ms_since(t);
        let nodes = parts
            .into_iter()
            .enumerate()
            .map(|(i, part)| Node::start(part, out.join(format!("wal-{i}"))))
            .collect::<Res<Vec<_>>>()?;
        let t = Instant::now();
        let coordinator = Arc::new(Coordinator::connect(ClusterConfig {
            shard_addrs: nodes
                .iter()
                .map(|n| n.server.local_addr().to_string())
                .collect(),
            ingest: true,
            ..ClusterConfig::default()
        })?);
        let connect_ms = ms_since(t);
        let ops: Arc<dyn EngineOps> = Arc::clone(&coordinator) as _;
        let server = Server::start_custom(ops, server_config())
            .map_err(|e| format!("cannot start the coordinator's om-server: {e}"))?;
        Ok(Stack {
            addr: server.local_addr(),
            nodes,
            front: Some(Front {
                coordinator,
                server,
            }),
            partition_ms,
            connect_ms,
        })
    }

    /// The flush barrier: `POST /internal/flush` on every engine-backed
    /// server, so the next read sees every acknowledged row. Generation
    /// bumps happen here, by operation count — never on a timer.
    pub fn flush(&self) -> Res<()> {
        for node in &self.nodes {
            let reply = client::post(node.server.local_addr(), "/internal/flush", "{}")
                .map_err(|e| format!("flush barrier failed: {e}"))?;
            if reply.status != 200 {
                return Err(format!(
                    "flush barrier answered {}: {}",
                    reply.status, reply.body
                ));
            }
        }
        Ok(())
    }

    /// Run `f` against the backend `/v1` is served from (the engine, or
    /// the coordinator), for in-process replays.
    pub fn with_ops<T>(&self, f: impl FnOnce(&dyn EngineOps) -> T) -> T {
        match &self.front {
            Some(front) => f(front.coordinator.as_ref()),
            None => f(&self.nodes[0].engine.backend()),
        }
    }

    /// Every om-server of the stack, front first.
    pub fn servers(&self) -> Vec<&Server> {
        self.front
            .iter()
            .map(|f| &f.server)
            .chain(self.nodes.iter().map(|n| &n.server))
            .collect()
    }

    pub fn shutdown(self) {
        if let Some(front) = self.front {
            front.server.shutdown();
        }
        for node in self.nodes {
            node.server.shutdown();
            node.engine.ingest.shutdown();
        }
    }
}

/// Answer a `/v1` request in-process: the same parse → `EngineOps` →
/// om-api encoding the server runs, without the wire.
pub fn replay(ops: &dyn EngineOps, op: Op, body: &str) -> (u16, String) {
    let req = Request {
        method: "POST".to_owned(),
        path: op.path().to_owned(),
        params: BTreeMap::new(),
        body: body.to_owned(),
    };
    let response = route_v1(&req, ops, &RouteOptions::default());
    (response.status, response.body)
}
