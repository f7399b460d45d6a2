//! Labels that travel escaped, end to end.
//!
//! A schema whose labels hold `"`, `\`, a tab and `é` puts escapes in
//! every ingest body. The same rows ingested through a 2-partition
//! coordinator and through one node must leave both answering the same
//! bytes, and each shard must hold exactly the rows the router assigns
//! it by the *decoded* labels: the coordinator routes on what a label
//! is, never on how the body spelled it.

use std::sync::Arc;
use std::time::Duration;

use om_api::{CompareRequest, IngestRequest, IngestResponse, SliceRequest};
use om_cluster::{partition_dataset, route_fields, ClusterConfig, Coordinator, ShardClient};
use om_data::{Cell, Dataset, DatasetBuilder};
use om_engine::{EngineConfig, IngestConfig, OpportunityMap};
use om_server::{Server, ServerConfig};

const PHONE: [&str; 3] = ["ph\"1", "ph\\2", "ph\t3"];
const TIME: [&str; 3] = ["matin", "soirée", "nuit \"tard\""];
const PLACE: [&str; 2] = ["ville", "route\\n"];
const OUTCOME: [&str; 2] = ["ok", "coupé"];

/// Row `r` of a deterministic mix over the four attributes, with the
/// `ph\2` × `soirée` cell dropping more often.
fn row(r: usize) -> [&'static str; 4] {
    let phone = PHONE[r % 3];
    let time = TIME[(r / 3) % 3];
    let place = PLACE[(r / 9) % 2];
    let dropped = (r * 7) % 10
        < if phone == PHONE[1] && time == TIME[1] {
            6
        } else {
            2
        };
    [phone, time, place, OUTCOME[usize::from(dropped)]]
}

fn dataset(rows: std::ops::Range<usize>) -> Dataset {
    let mut b = DatasetBuilder::new()
        .categorical("Phone")
        .categorical("Time")
        .categorical("Place")
        .class("Outcome");
    for r in rows {
        let cells = row(r).map(Cell::Str);
        b.push_row(&cells).unwrap();
    }
    b.finish().unwrap()
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        engine_budget: None,
        verbose: false,
        ..ServerConfig::default()
    }
}

fn client(server: &Server) -> ShardClient {
    ShardClient::new(server.local_addr().to_string(), Duration::from_secs(30))
}

/// A replica's durable row count: an empty batch is a pure read.
fn rows_total(node: &ShardClient) -> u64 {
    let (status, body) = node.post("/v1/ingest", "{\"rows\":[]}").unwrap();
    assert_eq!(status, 200, "{body}");
    IngestResponse::parse(&body).unwrap().rows_total
}

#[test]
fn escaped_labels_ingest_identically_and_route_by_their_decoded_text() {
    let root = std::env::temp_dir().join(format!("om-escaped-labels-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let ingest = |om: &OpportunityMap, name: &str| {
        om.start_ingest(&IngestConfig {
            sync_writes: false,
            ..IngestConfig::new(root.join(name))
        })
        .unwrap()
    };

    let twin = Arc::new(OpportunityMap::build(dataset(0..600), EngineConfig::default()).unwrap());
    let mut shards = Vec::new();
    for (i, part) in partition_dataset(twin.dataset(), 2)
        .unwrap()
        .into_iter()
        .enumerate()
    {
        let om = Arc::new(OpportunityMap::build(part, EngineConfig::default()).unwrap());
        let handle = ingest(&om, &format!("shard-{i}"));
        shards.push(Server::start_with_ingest(om, server_config(), Some(handle)).unwrap());
    }
    let handle = ingest(&twin, "single");
    let single =
        Server::start_with_ingest(Arc::clone(&twin), server_config(), Some(handle)).unwrap();
    let coordinator = Arc::new(
        Coordinator::connect(ClusterConfig {
            shard_addrs: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            ingest: true,
            ..ClusterConfig::default()
        })
        .unwrap(),
    );
    let front = Server::start_custom(Arc::clone(&coordinator) as _, server_config()).unwrap();
    let (coord, single_client) = (client(&front), client(&single));

    // Every label of every row is in the body escaped (or, for `é`,
    // as UTF-8 bytes), so no row decodes to what the body spelled.
    let rows: Vec<Vec<String>> = (600..900)
        .map(|r| row(r).map(str::to_owned).into())
        .collect();
    let body = IngestRequest { rows: rows.clone() }.encode();
    assert!(body.contains("ph\\\"1") && body.contains("\\t") && body.contains("\\\\"));
    let (cs, cb) = coord.post("/v1/ingest", &body).unwrap();
    let (ss, sb) = single_client.post("/v1/ingest", &body).unwrap();
    assert_eq!((cs, ss), (200, 200), "{cb} / {sb}");
    let (cack, sack) = (
        IngestResponse::parse(&cb).unwrap(),
        IngestResponse::parse(&sb).unwrap(),
    );
    assert_eq!(
        (cack.accepted, cack.rows_total),
        (sack.accepted, sack.rows_total)
    );

    // Each shard holds exactly the rows the router gives it by label.
    for (i, shard) in shards.iter().enumerate() {
        let routed = rows.iter().filter(|r| route_fields(r, 2) == i).count() as u64;
        assert!(routed > 0, "shard {i} is routed no row");
        assert_eq!(rows_total(&client(shard)), routed, "shard {i}");
    }

    // An unknown escaped label is refused with the same envelope.
    let mut bad = rows[..3].to_vec();
    bad[2][1] = "soir\u{e9}e\\".to_owned();
    let bad = IngestRequest { rows: bad }.encode();
    let (cs, cb) = coord.post("/v1/ingest", &bad).unwrap();
    let (ss, sb) = single_client.post("/v1/ingest", &bad).unwrap();
    assert_eq!((cs, cb.as_str()), (ss, sb.as_str()));
    assert_eq!(cs, 400);

    // Read your writes: the answers over base ∪ ingested agree.
    for shard in &shards {
        client(shard)
            .call("POST", "/internal/flush", Some("{}"))
            .unwrap();
    }
    single_client
        .call("POST", "/internal/flush", Some("{}"))
        .unwrap();
    let reads = [
        (
            "/v1/compare",
            CompareRequest {
                attr: "Phone".into(),
                v1: PHONE[0].into(),
                v2: PHONE[1].into(),
                class: OUTCOME[1].into(),
                allow_partial: None,
            }
            .encode(),
        ),
        (
            "/v1/cube/slice",
            SliceRequest {
                attr: "Phone".into(),
                by: Some("Time".into()),
            }
            .encode(),
        ),
    ];
    for (path, req) in reads {
        let (cs, cb) = coord.post(path, &req).unwrap();
        let (ss, sb) = single_client.post(path, &req).unwrap();
        assert_eq!((cs, cb.as_str()), (ss, sb.as_str()), "{path}");
        assert_eq!(cs, 200, "{cb}");
    }

    front.shutdown();
    single.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(root);
}
