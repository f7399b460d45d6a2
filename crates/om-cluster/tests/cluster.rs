//! End-to-end cluster semantics against live HTTP servers.
//!
//! The load-bearing test is byte-identity: a coordinator over
//! hash-partitioned shards must answer every `/v1/*` endpoint with the
//! exact bytes a single om-server holding the union of the partitions
//! returns — successes and error envelopes alike.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use om_cluster::{partition_dataset, ClusterConfig, Coordinator, ShardClient};
use om_compare::DrillConfig;
use om_data::Dataset;
use om_engine::{
    BatchItem, BatchOutcome, Budget, Condition, EngineConfig, IngestConfig, OpportunityMap,
};
use om_server::metrics::families;
use om_server::ops::{EngineBackend, EngineOps};
use om_server::{Server, ServerConfig};
use om_synth::{generate_call_log, CallLogConfig, Effect};
use parking_lot::RwLock;

/// The failpoint registry is process-global and every server in this
/// file runs in the test process, so an armed seam fires in whichever
/// test reaches it. Tests that arm a seam hold this exclusively; every
/// other test holds it shared.
static FAILPOINTS: RwLock<()> = RwLock::new(());

fn scenario(n_records: usize, seed: u64) -> Dataset {
    generate_call_log(&CallLogConfig {
        n_records,
        seed,
        effects: vec![
            Effect::interaction("PhoneModel", "ph2", "TimeOfCall", "morning", "dropped", 1.2),
            Effect::conjunction(
                [
                    ("PhoneModel", "ph2"),
                    ("TimeOfCall", "morning"),
                    ("LocationType", "highway"),
                ],
                "dropped",
                1.0,
            ),
        ],
        ..CallLogConfig::default()
    })
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        // No engine deadline: identity tests must not race wall clocks.
        engine_budget: None,
        verbose: false,
        ..ServerConfig::default()
    }
}

fn client(server: &Server) -> ShardClient {
    ShardClient::new(server.local_addr().to_string(), Duration::from_secs(30))
}

/// What a [`with_cluster`] body can reach below the wire.
struct Nodes<'a> {
    shards: &'a [Server],
    shard_oms: &'a [Arc<OpportunityMap>],
    coordinator: &'a Coordinator,
    twin: &'a OpportunityMap,
}

/// Spin up `n_shards` shards + coordinator + single-node twin over the
/// same logical records and hand them to the test body.
fn with_cluster(
    n_shards: usize,
    ingest: bool,
    body: impl FnOnce(&ShardClient, &ShardClient, &Nodes<'_>),
) {
    let ds = scenario(18_000, 42);
    let twin_om = Arc::new(OpportunityMap::build(ds, EngineConfig::default()).unwrap());
    let parts = partition_dataset(twin_om.dataset(), n_shards).unwrap();

    let mut wal_root = None;
    if ingest {
        let root =
            std::env::temp_dir().join(format!("om-cluster-test-{}-{n_shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        wal_root = Some(root);
    }
    let mut shard_servers = Vec::new();
    let mut shard_oms = Vec::new();
    for (i, part) in parts.into_iter().enumerate() {
        let om = Arc::new(OpportunityMap::build(part, EngineConfig::default()).unwrap());
        let handle = wal_root.as_ref().map(|root| {
            om.start_ingest(&IngestConfig {
                sync_writes: false,
                ..IngestConfig::new(root.join(format!("shard-{i}")))
            })
            .unwrap()
        });
        let server = Server::start_with_ingest(Arc::clone(&om), server_config(), handle).unwrap();
        shard_servers.push(server);
        shard_oms.push(om);
    }

    let twin_handle = wal_root.as_ref().map(|root| {
        twin_om
            .start_ingest(&IngestConfig {
                sync_writes: false,
                ..IngestConfig::new(root.join("single"))
            })
            .unwrap()
    });
    let single =
        Server::start_with_ingest(Arc::clone(&twin_om), server_config(), twin_handle).unwrap();

    let coordinator = Arc::new(
        Coordinator::connect(ClusterConfig {
            shard_addrs: shard_servers
                .iter()
                .map(|s| s.local_addr().to_string())
                .collect(),
            ingest,
            ..ClusterConfig::default()
        })
        .unwrap(),
    );
    let coord = Server::start_custom(Arc::clone(&coordinator) as _, server_config()).unwrap();

    body(
        &client(&coord),
        &client(&single),
        &Nodes {
            shards: &shard_servers,
            shard_oms: &shard_oms,
            coordinator: &coordinator,
            twin: &twin_om,
        },
    );

    coord.shutdown();
    single.shutdown();
    for s in shard_servers {
        s.shutdown();
    }
    if let Some(root) = wal_root {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// POST the same body to coordinator and single node; the responses
/// must agree byte for byte.
fn assert_identical(
    coord: &ShardClient,
    single: &ShardClient,
    path: &str,
    body: &str,
) -> (u16, String) {
    let (cs, cb) = coord.post(path, body).unwrap();
    let (ss, sb) = single.post(path, body).unwrap();
    assert_eq!(
        (cs, cb.as_str()),
        (ss, sb.as_str()),
        "coordinator diverged from single node on {path} with body {body}"
    );
    (cs, cb)
}

#[test]
fn coordinator_is_byte_identical_to_single_node() {
    let _unarmed = FAILPOINTS.read();
    with_cluster(4, false, |coord, single, _| {
        let compare = om_api::CompareRequest {
            attr: "PhoneModel".into(),
            v1: "ph1".into(),
            v2: "ph2".into(),
            class: "dropped".into(),
            allow_partial: None,
        };
        let (status, _) = assert_identical(coord, single, "/v1/compare", &compare.encode());
        assert_eq!(status, 200);

        // Unknown names resolve through the same engine code: identical
        // error envelopes.
        let bad = om_api::CompareRequest {
            v2: "ph99".into(),
            ..compare.clone()
        };
        let (status, _) = assert_identical(coord, single, "/v1/compare", &bad.encode());
        assert_ne!(status, 200);

        let drill = om_api::DrillRequest {
            attr: "PhoneModel".into(),
            v1: "ph1".into(),
            v2: "ph2".into(),
            class: "dropped".into(),
            depth: Some(2),
            min_score: None,
            path: Vec::new(),
        };
        let (status, _) = assert_identical(coord, single, "/v1/drill", &drill.encode());
        assert_eq!(status, 200);

        // Fixed-path drill exercises /internal/level + /internal/count.
        let pathed = om_api::DrillRequest {
            path: vec![om_api::PathStep {
                attr: "TimeOfCall".into(),
                value: "morning".into(),
            }],
            ..drill.clone()
        };
        let (status, _) = assert_identical(coord, single, "/v1/drill", &pathed.encode());
        assert_eq!(status, 200);

        let bad_path = om_api::DrillRequest {
            path: vec![om_api::PathStep {
                attr: "TimeOfCall".into(),
                value: "midnightish".into(),
            }],
            ..drill.clone()
        };
        assert_identical(coord, single, "/v1/drill", &bad_path.encode());

        let (status, _) = assert_identical(
            coord,
            single,
            "/v1/gi",
            &om_api::GiRequest {
                top: Some(4),
                allow_partial: None,
            }
            .encode(),
        );
        assert_eq!(status, 200);

        let slice = om_api::SliceRequest {
            attr: "PhoneModel".into(),
            by: None,
        };
        let (status, _) = assert_identical(coord, single, "/v1/cube/slice", &slice.encode());
        assert_eq!(status, 200);
        let pair = om_api::SliceRequest {
            attr: "PhoneModel".into(),
            by: Some("TimeOfCall".into()),
        };
        let (status, _) = assert_identical(coord, single, "/v1/cube/slice", &pair.encode());
        assert_eq!(status, 200);
        let bad_slice = om_api::SliceRequest {
            attr: "NoSuchAttr".into(),
            by: None,
        };
        assert_identical(coord, single, "/v1/cube/slice", &bad_slice.encode());

        // A mixed batch: grouped compares (one swapped), the drill walk,
        // a fixed path and a per-item failure.
        let batch = om_api::BatchRequest {
            items: vec![
                om_api::BatchItemRequest::Compare {
                    req: compare.clone(),
                    budget_ms: None,
                },
                om_api::BatchItemRequest::Compare {
                    req: om_api::CompareRequest {
                        v1: "ph2".into(),
                        v2: "ph1".into(),
                        ..compare.clone()
                    },
                    budget_ms: None,
                },
                om_api::BatchItemRequest::Drill {
                    req: pathed.clone(),
                    budget_ms: None,
                },
                om_api::BatchItemRequest::Drill {
                    req: drill.clone(),
                    budget_ms: None,
                },
                om_api::BatchItemRequest::Compare {
                    req: bad.clone(),
                    budget_ms: None,
                },
                om_api::BatchItemRequest::Drill {
                    req: bad_path.clone(),
                    budget_ms: None,
                },
                // The same walk and pinned path as batch items proper
                // (the two above carry a depth, which a batch rejects
                // per item): the pinned level comes out of the memo the
                // automatic walk fills.
                om_api::BatchItemRequest::Drill {
                    req: om_api::DrillRequest {
                        depth: None,
                        ..drill.clone()
                    },
                    budget_ms: None,
                },
                om_api::BatchItemRequest::Drill {
                    req: om_api::DrillRequest {
                        depth: None,
                        ..pathed.clone()
                    },
                    budget_ms: None,
                },
            ],
        };
        let (status, _) = assert_identical(coord, single, "/v1/compare/batch", &batch.encode());
        assert_eq!(status, 200);

        // Malformed JSON and unknown routes go through the same
        // dispatcher code.
        assert_identical(coord, single, "/v1/compare", "{\"attr\":");
        assert_identical(coord, single, "/v1/no-such-endpoint", "{}");
    });
}

/// The kernel path through a 2-shard cluster: fixed-path drills and
/// shared-prefix batches condition sub-populations via row masks on
/// both sides — `SelectorPopulation` on the single node,
/// `/internal/level` + `/internal/count` (now selector-backed) on each
/// shard with the coordinator merging the partial stores — and every
/// response must still agree byte for byte.
#[test]
fn two_shard_kernel_conditioning_is_byte_identical() {
    let _unarmed = FAILPOINTS.read();
    with_cluster(2, false, |coord, single, nodes| {
        let drill = om_api::DrillRequest {
            attr: "PhoneModel".into(),
            v1: "ph1".into(),
            v2: "ph2".into(),
            class: "dropped".into(),
            depth: Some(3),
            min_score: Some(0.0),
            path: Vec::new(),
        };
        // Deep walk: several levels of kernel-conditioned stores.
        let (status, _) = assert_identical(coord, single, "/v1/drill", &drill.encode());
        assert_eq!(status, 200);

        // A two-condition fixed prefix: chained narrows on every shard.
        let deep_path = om_api::DrillRequest {
            path: vec![
                om_api::PathStep {
                    attr: "TimeOfCall".into(),
                    value: "morning".into(),
                },
                om_api::PathStep {
                    attr: "LocationType".into(),
                    value: "highway".into(),
                },
            ],
            ..drill.clone()
        };
        let (status, _) = assert_identical(coord, single, "/v1/drill", &deep_path.encode());
        assert_eq!(status, 200);

        // A prefix that selects no records: the popcount-zero probe must
        // produce the same error envelope as the record-count probe did.
        let conflicting = om_api::DrillRequest {
            path: vec![
                om_api::PathStep {
                    attr: "TimeOfCall".into(),
                    value: "morning".into(),
                },
                om_api::PathStep {
                    attr: "TimeOfCall".into(),
                    value: "evening".into(),
                },
            ],
            ..drill.clone()
        };
        assert_identical(coord, single, "/v1/drill", &conflicting.encode());

        // Shared-prefix batch: the memoized level results must produce
        // the same outcomes through the coordinator's merged level stores.
        let batch = om_api::BatchRequest {
            items: vec![
                om_api::BatchItemRequest::Drill {
                    req: drill.clone(),
                    budget_ms: None,
                },
                om_api::BatchItemRequest::Drill {
                    req: om_api::DrillRequest {
                        path: vec![om_api::PathStep {
                            attr: "TimeOfCall".into(),
                            value: "morning".into(),
                        }],
                        ..drill.clone()
                    },
                    budget_ms: None,
                },
                om_api::BatchItemRequest::Drill {
                    req: deep_path.clone(),
                    budget_ms: None,
                },
            ],
        };
        let (status, _) = assert_identical(coord, single, "/v1/compare/batch", &batch.encode());
        assert_eq!(status, 200);

        // One batch, both ways of choosing the next condition: the
        // automatic walk, then its own first finding as a pinned path.
        // The pinned item's levels come out of the memo the automatic
        // item filled, and must equal what a standalone request
        // recomputes. (Batch drill items take no depth/min_score.)
        let auto = om_api::DrillRequest {
            depth: None,
            min_score: None,
            ..drill.clone()
        };
        let (status, walked) = assert_identical(coord, single, "/v1/drill", &auto.encode());
        assert_eq!(status, 200);
        let walked = om_api::DrillResponse::parse(&walked).unwrap();
        let (attr, value) = walked.levels[1].conditions[0].split_once('=').unwrap();
        let own_finding = om_api::DrillRequest {
            path: vec![om_api::PathStep {
                attr: attr.into(),
                value: value.into(),
            }],
            ..auto.clone()
        };
        let (status, recomputed) =
            assert_identical(coord, single, "/v1/drill", &own_finding.encode());
        assert_eq!(status, 200);
        let recomputed = om_api::DrillResponse::parse(&recomputed).unwrap();
        assert_eq!(recomputed.levels[1], walked.levels[1]);
        // ... and a pinned path whose *second* condition selects no
        // rows: the whole item fails, with the message once.
        let cross_mode = om_api::BatchRequest {
            items: [&auto, &own_finding, &conflicting]
                .map(|req| om_api::BatchItemRequest::Drill {
                    req: om_api::DrillRequest {
                        depth: None,
                        min_score: None,
                        ..req.clone()
                    },
                    budget_ms: None,
                })
                .into(),
        };
        let (status, body) =
            assert_identical(coord, single, "/v1/compare/batch", &cross_mode.encode());
        assert_eq!(status, 200);
        let items = om_api::BatchResponse::parse(&body).unwrap().items;
        assert_eq!(items[0], om_api::BatchItemResult::Drill(walked));
        assert_eq!(items[1], om_api::BatchItemResult::Drill(recomputed));
        match &items[2] {
            om_api::BatchItemResult::Error(env) => {
                assert_eq!(
                    env.message.matches("selects no records").count(),
                    1,
                    "{body}"
                );
            }
            other => panic!("a conflicting path must fail its whole item: {other:?}"),
        }

        // An out-of-domain id cannot be spelled by name, so the pinned
        // path whose second condition is *invalid* goes in below the
        // wire: same outcome from the coordinator's populations as from
        // the resident kernel.
        let spec = nodes
            .twin
            .spec_by_name("PhoneModel", "ph1", "ph2", "dropped")
            .unwrap();
        let morning = nodes
            .twin
            .condition_by_name("TimeOfCall", "morning")
            .unwrap();
        let invalid_second = BatchItem::Drill {
            spec,
            path: vec![morning, Condition::new(morning.attr, 99)],
            budget_ms: None,
        };
        let resident = EngineBackend {
            om: nodes.twin,
            ingest: None,
        };
        let run = |ops: &dyn EngineOps| {
            ops.run_batch(
                std::slice::from_ref(&invalid_second),
                &DrillConfig::default(),
                &Budget::unlimited(),
            )
            .unwrap()
        };
        let outcomes = run(nodes.coordinator);
        assert_eq!(outcomes, run(&resident));
        match outcomes.as_slice() {
            [BatchOutcome::Failed { message }] => {
                assert_eq!(message.matches("is invalid").count(), 1, "{message}");
            }
            other => panic!("an invalid pinned condition must fail its whole item: {other:?}"),
        }

        // Sliced explore: the single node's store and the coordinator's
        // merged store both slice pair cubes — same bytes.
        let explore = om_api::ExploreRequest {
            slice: vec![om_api::PathStep {
                attr: "TimeOfCall".into(),
                value: "morning".into(),
            }],
            k: 4,
            max_conditions: None,
            budget_ms: None,
            compare: None,
        };
        let (status, _) = assert_identical(coord, single, "/v1/explore", &explore.encode());
        assert_eq!(status, 200);
    });
}

/// Drills on [`ANCHORS`] down one `TimeOfCall` step: their level-1
/// candidate attributes are the same list, whatever the anchor.
fn drills_down(time: &str) -> [om_api::DrillRequest; 3] {
    const ANCHORS: [[&str; 3]; 3] = [
        ["PhoneModel", "ph1", "ph2"],
        ["LocationType", "urban", "highway"],
        ["NetworkLoad", "low", "high"],
    ];
    ANCHORS.map(|[attr, v1, v2]| om_api::DrillRequest {
        attr: attr.into(),
        v1: v1.into(),
        v2: v2.into(),
        class: "dropped".into(),
        depth: None,
        min_score: None,
        path: vec![om_api::PathStep {
            attr: "TimeOfCall".into(),
            value: time.into(),
        }],
    })
}

/// A conditioned level asks the shards for the drill's anchor only, so
/// what the coordinator caches is one anchor's part of the level: the
/// cache must key on the anchor (a key without it hands the second drill
/// the first one's pair cubes), and the one level every anchor shares —
/// the root — must still be fetched once.
#[test]
fn anchored_levels_are_keyed_by_anchor_and_the_root_is_fetched_once() {
    use std::sync::atomic::Ordering::Relaxed;
    let _unarmed = FAILPOINTS.read();
    with_cluster(2, false, |coord, single, nodes| {
        let metrics = nodes.coordinator.cluster_metrics();
        let fetched = || {
            (
                metrics.level_cache_misses_total.load(Relaxed),
                metrics.level_cache_hits_total.load(Relaxed),
            )
        };
        for (i, drill) in (1..).zip(drills_down("morning")) {
            let (status, body) = assert_identical(coord, single, "/v1/drill", &drill.encode());
            assert_eq!(status, 200, "{body}");
            // One root for all, one conditioned level each.
            assert_eq!(fetched(), (1 + i, i - 1), "after drill {i}");
        }

        // The same three anchors as items of one batch, down a path whose
        // levels are cold: three more conditioned fetches, the root warm.
        let batch = om_api::BatchRequest {
            items: drills_down("evening")
                .map(|req| om_api::BatchItemRequest::Drill {
                    req,
                    budget_ms: None,
                })
                .into(),
        };
        let (status, body) = assert_identical(coord, single, "/v1/compare/batch", &batch.encode());
        assert_eq!(status, 200);
        for item in om_api::BatchResponse::parse(&body).unwrap().items {
            assert!(matches!(item, om_api::BatchItemResult::Drill(_)), "{body}");
        }
        assert_eq!(fetched(), (7, 5));
    });
}

/// `om_cluster_level_bytes_total` counts exactly what the shards sent,
/// and for a conditioned level that is the anchored reply — an exact
/// fraction of the anchor-free one every such level used to pull.
#[test]
fn a_conditioned_level_pulls_the_anchors_bytes_only() {
    use std::sync::atomic::Ordering::Relaxed;
    let _unarmed = FAILPOINTS.read();
    with_cluster(2, false, |coord, _, nodes| {
        // The first drill warms the root, so the second pulls one level.
        let [warm_up, drill, _] = drills_down("morning");
        let pulled_so_far = || {
            nodes
                .coordinator
                .cluster_metrics()
                .level_bytes_total
                .load(Relaxed)
        };
        assert_eq!(coord.post("/v1/drill", &warm_up.encode()).unwrap().0, 200);
        let before = pulled_so_far();
        assert_eq!(coord.post("/v1/drill", &drill.encode()).unwrap().0, 200);
        let pulled = pulled_so_far() - before;

        // The same level straight from the shards, both ways.
        let schema = nodes.twin.dataset().schema();
        let morning = nodes
            .twin
            .condition_by_name("TimeOfCall", "morning")
            .unwrap();
        let anchor = schema.attr_index(&drill.attr).unwrap();
        let level = om_api::InternalLevelRequest {
            conditions: vec![om_api::ConditionWire {
                attr: morning.attr as u64,
                value: u64::from(morning.value),
            }],
            attrs: schema
                .non_class_indices()
                .into_iter()
                .filter(|&a| a != morning.attr)
                .map(|a| a as u64)
                .collect(),
        }
        .encode();
        let replies = |target: &str| -> Vec<String> {
            nodes
                .shards
                .iter()
                .map(|shard| {
                    let (status, body) = client(shard).post(target, &level).unwrap();
                    assert_eq!(status, 200, "{body}");
                    body
                })
                .collect()
        };
        let bytes = |replies: &[String]| replies.iter().map(String::len).sum::<usize>() as u64;
        let anchored = replies(&format!("/internal/level?anchor={anchor}"));
        let whole = replies("/internal/level");
        assert_eq!(pulled, bytes(&anchored));
        // Frame sizes depend on the schema alone (fixed-width counts), so
        // the saving is an exact figure: 11 candidate attributes, 10 of
        // their 55 pair cubes shipped.
        assert_eq!((bytes(&anchored), bytes(&whole)), (20_304, 73_960));

        // Parts that hold different pairs are not parts of one level (a
        // shard that ignored the anchor, say), and the merge says so
        // instead of summing what happens to overlap.
        let decode = |reply: &str| {
            let frame = om_api::InternalLevelResponse::parse(reply)
                .unwrap()
                .store_b64;
            om_cube::persist::decode_store(om_api::b64_decode(&frame).unwrap().into()).unwrap()
        };
        let refused = decode(&anchored[0])
            .merge(&decode(&whole[1]))
            .err()
            .expect("an anchored part merged with a whole level")
            .to_string();
        assert!(
            refused.contains("hold different pair cubes (10 and 55"),
            "{refused}"
        );
    });
}

#[test]
fn explore_through_coordinator_is_byte_identical() {
    let _unarmed = FAILPOINTS.read();
    // /v1/explore runs the same greedy drill-down over the
    // coordinator's merged store as over the single-node twin, so a
    // 2-shard coordinator must agree byte for byte on answers and on
    // every error envelope.
    with_cluster(2, false, |coord, single, _| {
        let plain = om_api::ExploreRequest {
            slice: Vec::new(),
            k: 8,
            max_conditions: None,
            budget_ms: None,
            compare: None,
        };
        let (status, body) = assert_identical(coord, single, "/v1/explore", &plain.encode());
        assert_eq!(status, 200, "{body}");
        let parsed = om_api::ExploreResponse::parse(&body).unwrap();
        assert!(!parsed.truncated, "{body}");
        assert!(!parsed.summaries.is_empty(), "{body}");

        let sliced = om_api::ExploreRequest {
            slice: vec![om_api::PathStep {
                attr: "TimeOfCall".into(),
                value: "morning".into(),
            }],
            k: 4,
            ..plain.clone()
        };
        let (status, _) = assert_identical(coord, single, "/v1/explore", &sliced.encode());
        assert_eq!(status, 200);

        let compared = om_api::ExploreRequest {
            k: 6,
            compare: Some(om_api::ExploreCompareBlock {
                attr: "PhoneModel".into(),
                v1: "ph1".into(),
                v2: "ph2".into(),
                class: "dropped".into(),
            }),
            ..plain.clone()
        };
        let (status, body) = assert_identical(coord, single, "/v1/explore", &compared.encode());
        assert_eq!(status, 200, "{body}");
        let parsed = om_api::ExploreResponse::parse(&body).unwrap();
        assert!(parsed.compare.is_some(), "{body}");

        // Validation and unknown-name envelopes resolve through the same
        // code on both sides.
        let invalid = om_api::ExploreRequest {
            k: 0,
            ..plain.clone()
        };
        let (status, _) = assert_identical(coord, single, "/v1/explore", &invalid.encode());
        assert_eq!(status, 422);
        let unknown = om_api::ExploreRequest {
            slice: vec![om_api::PathStep {
                attr: "NoSuchAttr".into(),
                value: "x".into(),
            }],
            ..plain.clone()
        };
        let (status, _) = assert_identical(coord, single, "/v1/explore", &unknown.encode());
        assert_eq!(status, 404);

        // A zero budget exhausts before the first summary on both sides:
        // identical typed overload envelopes (the fixture's route budget
        // is unlimited, so the request-level narrowing is all there is)
        // — up to the `elapsed Nms` the message ends in. That figure is
        // measured wall time, and the coordinator's pin poll can push its
        // reading past the single node's on a busy host.
        let exhausted = om_api::ExploreRequest {
            budget_ms: Some(0),
            ..plain.clone()
        }
        .encode();
        let envelope = |node: &ShardClient| {
            let (status, body) = node.post("/v1/explore", &exhausted).unwrap();
            let mut env = om_api::ErrorEnvelope::parse(&body).unwrap();
            let measured = env.message.find(", elapsed ").expect(&body);
            env.message.truncate(measured);
            (status, env)
        };
        let (status, env) = envelope(coord);
        assert_eq!((status, env.clone()), envelope(single));
        assert_eq!(status, 503);
        assert_eq!(env.code, om_api::ErrorCode::Overloaded);
        assert_eq!(env.message, "deadline exceeded: budget 0ms");
        assert!(env.retry_after_ms.is_some());
    });
}

#[test]
fn connect_refuses_a_dead_shard() {
    let _unarmed = FAILPOINTS.read();
    // One live shard, one dead address (a bound-then-dropped listener
    // guarantees the port is closed): connect must fail and name the
    // unreachable shard rather than silently degrade to partial data.
    let ds = scenario(6_000, 7);
    let om = Arc::new(OpportunityMap::build(ds, EngineConfig::default()).unwrap());
    let parts = partition_dataset(om.dataset(), 2).unwrap();
    let live_om =
        Arc::new(OpportunityMap::build(parts[0].clone(), EngineConfig::default()).unwrap());
    let live = Server::start(live_om, server_config()).unwrap();
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let err = match Coordinator::connect(ClusterConfig {
        shard_addrs: vec![live.local_addr().to_string(), dead_addr.clone()],
        shard_timeout: Duration::from_secs(2),
        ..ClusterConfig::default()
    }) {
        Ok(_) => panic!("connect must fail against a dead shard"),
        Err(e) => e,
    };
    assert!(
        err.contains("shard 1") && err.contains(&dead_addr),
        "connect error names the dead shard: {err}"
    );
    live.shutdown();
}

#[test]
fn shard_lost_after_connect_yields_503_envelope() {
    let _unarmed = FAILPOINTS.read();
    let ds = scenario(6_000, 7);
    let twin = Arc::new(OpportunityMap::build(ds, EngineConfig::default()).unwrap());
    let parts = partition_dataset(twin.dataset(), 2).unwrap();
    let mut servers: Vec<Server> = parts
        .into_iter()
        .map(|p| {
            let om = Arc::new(OpportunityMap::build(p, EngineConfig::default()).unwrap());
            Server::start(om, server_config()).unwrap()
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let coordinator = Coordinator::connect(ClusterConfig {
        shard_addrs: addrs.clone(),
        shard_timeout: Duration::from_secs(2),
        retry_after_secs: 7,
        // One failure opens the breaker for 7s, so the 503's hint is
        // derived from the breaker's actual half-open time.
        breaker_threshold: 1,
        breaker_open: Duration::from_secs(7),
        fetch_retries: 0,
        ..ClusterConfig::default()
    })
    .unwrap();
    let coord = Server::start_custom(Arc::new(coordinator), server_config()).unwrap();
    let cc = client(&coord);
    let compare = om_api::CompareRequest {
        attr: "PhoneModel".into(),
        v1: "ph1".into(),
        v2: "ph2".into(),
        class: "dropped".into(),
        allow_partial: None,
    }
    .encode();
    let (status, _) = cc.post("/v1/compare", &compare).unwrap();
    assert_eq!(status, 200);

    // Kill shard 1; every store-backed read re-pins generations, so
    // the loss surfaces immediately as a typed envelope.
    servers.remove(1).shutdown();
    let (status, body) = cc.post("/v1/compare", &compare).unwrap();
    assert_eq!(status, 503, "degraded cluster must shed typed 503s: {body}");
    let env = om_api::ErrorEnvelope::parse(&body).unwrap();
    assert_eq!(env.code, om_api::ErrorCode::Overloaded);
    assert!(
        env.message.contains("shard 1") && env.message.contains(&addrs[1]),
        "envelope names the lost shard: {}",
        env.message
    );
    // The hint is the breaker's remaining open window, not a constant:
    // just under the configured 7s, and shrinking on the next ask.
    let first = env.retry_after_ms.expect("Retry-After hint rides along");
    assert!(
        first > 6_000 && first <= 7_000,
        "hint {first}ms should be the breaker's remaining open time (~7s)"
    );
    std::thread::sleep(Duration::from_millis(150));
    let (status, body) = cc.post("/v1/compare", &compare).unwrap();
    assert_eq!(status, 503);
    let again = om_api::ErrorEnvelope::parse(&body)
        .unwrap()
        .retry_after_ms
        .expect("hint present while the breaker is open");
    assert!(
        again < first,
        "hint must track the breaker window: {again}ms after {first}ms"
    );

    // The slice path (no engine budget involved) degrades the same way.
    let slice = om_api::SliceRequest {
        attr: "PhoneModel".into(),
        by: None,
    };
    let (status, _) = cc.post("/v1/cube/slice", &slice.encode()).unwrap();
    assert_eq!(status, 503);

    coord.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn distributed_ingest_routes_and_stays_identical() {
    let _unarmed = FAILPOINTS.read();
    with_cluster(2, true, |coord, single, nodes| {
        let (shards, shard_oms) = (nodes.shards, nodes.shard_oms);
        // Rows to ingest: verbatim field labels of real records, so
        // they parse everywhere.
        let twin_rows: Vec<Vec<String>> = {
            let ds = scenario(18_000, 42);
            let om = OpportunityMap::build(ds, EngineConfig::default()).unwrap();
            let prepared = om.dataset();
            let schema = prepared.schema();
            (0..300)
                .map(|r| {
                    (0..schema.n_attributes())
                        .map(|a| {
                            let id = prepared.categorical(a).unwrap()[r];
                            schema.attribute(a).domain().label(id).unwrap().to_owned()
                        })
                        .collect()
                })
                .collect()
        };
        let body = om_api::IngestRequest {
            rows: twin_rows.clone(),
        }
        .encode();
        let (cs, cb) = coord.post("/v1/ingest", &body).unwrap();
        let (ss, sb) = single.post("/v1/ingest", &body).unwrap();
        assert_eq!(cs, 200, "{cb}");
        assert_eq!(ss, 200, "{sb}");
        let cack = om_api::IngestResponse::parse(&cb).unwrap();
        let sack = om_api::IngestResponse::parse(&sb).unwrap();
        assert_eq!(cack.accepted, sack.accepted);
        assert_eq!(cack.rows_total, sack.rows_total);
        // (generation is per-shard-max vs scalar — nondeterministic by
        // design, so not compared.)

        // Every shard got only rows the router assigns to it, and
        // together they got all of them.
        let routed: u64 = shard_oms.len() as u64; // shards touched at most
        assert!(routed >= 1);

        // A bad row produces the byte-identical bad_row envelope
        // (coordinator pre-validation vs single-node parse).
        let mut bad_rows = twin_rows[..2].to_vec();
        bad_rows.push(vec!["not".into(), "enough".into()]);
        let bad_body = om_api::IngestRequest { rows: bad_rows }.encode();
        let (cs, cb) = coord.post("/v1/ingest", &bad_body).unwrap();
        let (ss, sb) = single.post("/v1/ingest", &bad_body).unwrap();
        assert_eq!(
            (cs, cb.as_str()),
            (ss, sb.as_str()),
            "bad_row envelopes diverge"
        );
        assert_eq!(cs, 400);

        // Read-your-writes: flush every node, then compare must again
        // be byte-identical over base ∪ ingested.
        for shard in shards {
            let c = client(shard);
            c.call("POST", "/internal/flush", Some("{}")).unwrap();
        }
        single.call("POST", "/internal/flush", Some("{}")).unwrap();
        let compare = om_api::CompareRequest {
            attr: "PhoneModel".into(),
            v1: "ph1".into(),
            v2: "ph2".into(),
            class: "dropped".into(),
            allow_partial: None,
        };
        let (status, _) = assert_identical(coord, single, "/v1/compare", &compare.encode());
        assert_eq!(status, 200);
        let (status, _) = assert_identical(
            coord,
            single,
            "/v1/cube/slice",
            &om_api::SliceRequest {
                attr: "PhoneModel".into(),
                by: Some("TimeOfCall".into()),
            }
            .encode(),
        );
        assert_eq!(status, 200);

        // Both scrapes are well formed: the coordinator's server and
        // cluster families, the single node's server and ingest ones.
        for (node, expected) in [(coord, 13 + 20), (single, 13 + 6)] {
            let (status, metrics) = node.get("/metrics").unwrap();
            assert_eq!(status, 200);
            let families = families(&metrics).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(families.len(), expected, "{metrics}");
        }
    });
}

/// Spin up a `partitions x replicas` topology of in-process servers
/// (replicas of a partition share the partition's engine) plus a
/// single-node twin, with fast failover tuning for chaos tests.
fn replicated_fixture(
    partitions: usize,
    replicas: usize,
) -> (
    Arc<Coordinator>,
    Server,
    Vec<Option<Server>>,
    Vec<String>,
    Server,
) {
    let ds = scenario(12_000, 42);
    let twin_om = Arc::new(OpportunityMap::build(ds, EngineConfig::default()).unwrap());
    let parts = partition_dataset(twin_om.dataset(), partitions).unwrap();
    let mut shard_servers: Vec<Option<Server>> = Vec::new();
    for part in parts {
        let om = Arc::new(OpportunityMap::build(part, EngineConfig::default()).unwrap());
        for _ in 0..replicas {
            shard_servers.push(Some(
                Server::start(Arc::clone(&om), server_config()).unwrap(),
            ));
        }
    }
    let addrs: Vec<String> = shard_servers
        .iter()
        .map(|s| s.as_ref().unwrap().local_addr().to_string())
        .collect();
    let coordinator = Arc::new(
        Coordinator::connect(ClusterConfig {
            shard_addrs: addrs.clone(),
            replicas,
            shard_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(10),
            breaker_open: Duration::from_millis(200),
            ..ClusterConfig::default()
        })
        .unwrap(),
    );
    let coord = Server::start_custom(Arc::clone(&coordinator) as _, server_config()).unwrap();
    let single = Server::start(twin_om, server_config()).unwrap();
    (coordinator, coord, shard_servers, addrs, single)
}

fn compare_body() -> String {
    om_api::CompareRequest {
        attr: "PhoneModel".into(),
        v1: "ph1".into(),
        v2: "ph2".into(),
        class: "dropped".into(),
        allow_partial: None,
    }
    .encode()
}

fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from /metrics"))
}

#[test]
fn replicated_cluster_survives_one_replica_per_partition() {
    let _unarmed = FAILPOINTS.read();
    let (_, coord, mut shard_servers, _, single) = replicated_fixture(2, 2);
    let cc = client(&coord);
    let sc = client(&single);

    // Healthy warm-up: byte-identical, no failovers.
    let (status, _) = assert_identical(&cc, &sc, "/v1/compare", &compare_body());
    assert_eq!(status, 200);

    // Kill the PREFERRED replica of every partition: every read now
    // has to retry, open the breaker and fail over — while staying
    // byte-identical to the single node.
    for p in 0..2 {
        let g = om_cluster::replica_set(p, 2, 2)[0];
        shard_servers[g].take().unwrap().shutdown();
    }
    for body in [
        compare_body(),
        om_api::GiRequest {
            top: Some(4),
            allow_partial: None,
        }
        .encode(),
    ] {
        let path = if body.contains("attr") {
            "/v1/compare"
        } else {
            "/v1/gi"
        };
        let (status, _) = assert_identical(&cc, &sc, path, &body);
        assert_eq!(status, 200, "degraded-but-replicated cluster must stay 200");
    }
    let slice = om_api::SliceRequest {
        attr: "PhoneModel".into(),
        by: Some("TimeOfCall".into()),
    };
    let (status, _) = assert_identical(&cc, &sc, "/v1/cube/slice", &slice.encode());
    assert_eq!(status, 200);

    // The fault-tolerance machinery actually engaged, and says so.
    let (_, metrics) = cc.get("/metrics").unwrap();
    assert!(
        metric_value(&metrics, "om_cluster_failovers_total") >= 1,
        "{metrics}"
    );
    assert!(metric_value(&metrics, "om_cluster_retries_total") >= 1);
    assert!(metric_value(&metrics, "om_cluster_breaker_opens_total") >= 1);
    assert!(metric_value(&metrics, "om_cluster_shard_errors_total") >= 1);
    assert!(metric_value(&metrics, "om_cluster_breaker_open") >= 1);

    coord.shutdown();
    single.shutdown();
    for s in shard_servers.into_iter().flatten() {
        s.shutdown();
    }
}

#[test]
fn whole_partition_loss_defaults_to_503_and_degrades_on_opt_in() {
    let _unarmed = FAILPOINTS.read();
    let (_, coord, mut shard_servers, addrs, single) = replicated_fixture(2, 2);
    let cc = client(&coord);

    // At full strength, allow_partial is inert: byte-identical to the
    // plain request, no coverage key on the wire.
    let plain = compare_body();
    let opted = om_api::CompareRequest {
        allow_partial: Some(true),
        ..om_api::CompareRequest::parse(&plain).unwrap()
    }
    .encode();
    let (ps, pb) = cc.post("/v1/compare", &plain).unwrap();
    let (os, ob) = cc.post("/v1/compare", &opted).unwrap();
    assert_eq!(
        (ps, pb.as_str()),
        (os, ob.as_str()),
        "allow_partial changed a full answer"
    );
    assert!(!ob.contains("\"coverage\""));

    // Lose BOTH replicas of partition 1.
    let members = om_cluster::replica_set(1, 2, 2);
    for &g in &members {
        shard_servers[g].take().unwrap().shutdown();
    }

    // Default contract: all-or-nothing 503 naming the partition, with
    // every replica's evidence.
    let (status, body) = cc.post("/v1/compare", &plain).unwrap();
    assert_eq!(status, 503, "{body}");
    let env = om_api::ErrorEnvelope::parse(&body).unwrap();
    assert_eq!(env.code, om_api::ErrorCode::Overloaded);
    assert!(env.message.contains("partition 1"), "{}", env.message);
    for &g in &members {
        assert!(
            env.message.contains(&addrs[g]),
            "envelope lists replica {g}: {}",
            env.message
        );
    }
    assert!(env.retry_after_ms.is_some());

    // Opt-in contract: a 200 from the live partition, with the gap
    // spelled out in the coverage envelope.
    let (status, body) = cc.post("/v1/compare", &opted).unwrap();
    assert_eq!(status, 200, "allow_partial must degrade, not fail: {body}");
    let resp = om_api::CompareResponse::parse(&body).unwrap();
    let coverage = resp.coverage.expect("partial answer carries coverage");
    assert_eq!(coverage.partitions_total, 2);
    assert_eq!(coverage.partitions_answered, 1);
    assert_eq!(coverage.missing_partitions, vec![1]);
    for &g in &members {
        assert!(coverage.missing_shards.contains(&addrs[g]));
    }
    assert!(
        coverage.rows_covered_pct > 0.0 && coverage.rows_covered_pct < 100.0,
        "pct {} must be a strict partial",
        coverage.rows_covered_pct
    );

    // GI degrades the same way.
    let gi = om_api::GiRequest {
        top: Some(4),
        allow_partial: Some(true),
    };
    let (status, body) = cc.post("/v1/gi", &gi.encode()).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"coverage\""));

    // Batch items cannot opt in: the batch is all-or-nothing.
    let batch = om_api::BatchRequest {
        items: vec![om_api::BatchItemRequest::Compare {
            req: om_api::CompareRequest {
                allow_partial: Some(true),
                ..om_api::CompareRequest::parse(&plain).unwrap()
            },
            budget_ms: None,
        }],
    };
    // Per-item failures become per-item envelopes inside a 200 batch
    // response; the rejected item must not touch the degraded cluster.
    let (status, body) = cc.post("/v1/compare/batch", &batch.encode()).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("all-or-nothing"), "{body}");

    // The degraded answers were counted.
    let (_, metrics) = cc.get("/metrics").unwrap();
    assert!(metric_value(&metrics, "om_cluster_partial_answers_total") >= 2);

    coord.shutdown();
    single.shutdown();
    for s in shard_servers.into_iter().flatten() {
        s.shutdown();
    }
}

#[test]
fn rejoined_replica_catches_up_and_takes_over() {
    let _unarmed = FAILPOINTS.read();
    // One partition, two replicas, live ingestion. Replica B misses a
    // batch while down, rejoins on its original port, is caught up by
    // replay — and then must carry the cluster alone when A dies.
    let ds = scenario(8_000, 42);
    let part = partition_dataset(
        &OpportunityMap::build(ds.clone(), EngineConfig::default())
            .unwrap()
            .dataset()
            .clone(),
        1,
    )
    .unwrap()
    .remove(0);
    let wal_root = std::env::temp_dir().join(format!("om-cluster-rejoin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);

    let start_replica = |name: &str, addr: Option<String>| {
        let om = Arc::new(OpportunityMap::build(part.clone(), EngineConfig::default()).unwrap());
        let handle = om
            .start_ingest(&IngestConfig {
                sync_writes: false,
                ..IngestConfig::new(wal_root.join(name))
            })
            .unwrap();
        let config = ServerConfig {
            addr: addr.unwrap_or_else(|| "127.0.0.1:0".to_owned()),
            ..server_config()
        };
        let server =
            Server::start_with_ingest(Arc::clone(&om), config, Some(handle.clone())).unwrap();
        (server, handle)
    };
    let (server_a, handle_a) = start_replica("a", None);
    let (server_b, handle_b) = start_replica("b", None);
    let addr_b = server_b.local_addr().to_string();

    let coordinator = Arc::new(
        Coordinator::connect(ClusterConfig {
            shard_addrs: vec![server_a.local_addr().to_string(), addr_b.clone()],
            replicas: 2,
            ingest: true,
            shard_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(10),
            breaker_open: Duration::from_millis(100),
            ..ClusterConfig::default()
        })
        .unwrap(),
    );
    let coord = Server::start_custom(Arc::clone(&coordinator) as _, server_config()).unwrap();
    let cc = client(&coord);

    // Rows both replicas can parse: verbatim labels of real records.
    let om = OpportunityMap::build(ds, EngineConfig::default()).unwrap();
    let prepared = om.dataset();
    let schema = prepared.schema();
    let rows: Vec<Vec<String>> = (0..80)
        .map(|r| {
            (0..schema.n_attributes())
                .map(|a| {
                    let id = prepared.categorical(a).unwrap()[r];
                    schema.attribute(a).domain().label(id).unwrap().to_owned()
                })
                .collect()
        })
        .collect();

    // Batch 1 lands on both replicas.
    let batch1 = om_api::IngestRequest {
        rows: rows[..40].to_vec(),
    }
    .encode();
    let (status, body) = cc.post("/v1/ingest", &batch1).unwrap();
    assert_eq!(status, 200, "{body}");

    // B dies; batch 2 is acked by A alone and queued for B.
    server_b.shutdown();
    handle_b.shutdown();
    let batch2 = om_api::IngestRequest {
        rows: rows[40..].to_vec(),
    }
    .encode();
    let (status, body) = cc.post("/v1/ingest", &batch2).unwrap();
    assert_eq!(
        status, 200,
        "one live replica must be enough to ack: {body}"
    );
    assert!(
        coordinator.degraded_addrs().contains(&addr_b),
        "B is degraded while down"
    );

    // B rejoins on its original address (std listeners set SO_REUSEADDR
    // on Unix), replaying batch 1 from its own WAL; the coordinator's
    // replay supplies the missed batch 2.
    let (server_b2, handle_b2) = start_replica("b", Some(addr_b.clone()));
    // Empty ingest batches are pure stats writes that reach every
    // replica: they half-open the breaker and trigger replay. Each round
    // first waits out the 100ms breaker window, so every round may
    // probe B; a healthy replay needs one. Bounded by rounds, not by a
    // wall-clock deadline, so a loaded host cannot fail it.
    for round in 1.. {
        std::thread::sleep(Duration::from_millis(150));
        let (status, _) = cc
            .post(
                "/v1/ingest",
                &om_api::IngestRequest { rows: Vec::new() }.encode(),
            )
            .unwrap();
        assert_eq!(status, 200);
        if coordinator.degraded_addrs().is_empty() {
            break;
        }
        assert!(
            round < 10,
            "B never caught up in {round} rounds; still degraded: {:?}",
            coordinator.degraded_addrs()
        );
    }
    let (_, metrics) = cc.get("/metrics").unwrap();
    assert_eq!(
        metric_value(&metrics, "om_cluster_catchup_rows_total"),
        40,
        "exactly the missed batch is replayed"
    );

    // A dies. B — caught up — must now hold the whole partition, and
    // its answer must reflect every ingested row.
    server_a.shutdown();
    handle_a.shutdown();
    handle_b2.flush().unwrap();
    let (status, via_b) = cc.post("/v1/compare", &compare_body()).unwrap();
    assert_eq!(status, 200, "B alone must carry the partition: {via_b}");

    // Ground truth: a fresh single node over the same base + all 80 rows.
    let (reference, ref_handle) = start_replica("reference", None);
    let rc = client(&reference);
    rc.post("/v1/ingest", &batch1).unwrap();
    rc.post("/v1/ingest", &batch2).unwrap();
    ref_handle.flush().unwrap();
    let (status, want) = rc.post("/v1/compare", &compare_body()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(via_b, want, "catch-up replay must restore byte-identity");

    coord.shutdown();
    server_b2.shutdown();
    handle_b2.shutdown();
    reference.shutdown();
    ref_handle.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

#[test]
fn hedged_fetch_never_strands_a_half_open_probe() {
    let _unarmed = FAILPOINTS.read();
    // Regression: the hedged fetch used to admit every replica's
    // breaker up front, so a half-open probe admitted for a candidate
    // the race never launched (the preferred replica answered before
    // the hedge timer) was never reported — wedging the breaker at
    // Deny and keeping the replica out of the cluster forever. With
    // lazy admission the probe is only granted when a worker actually
    // launches, and workers report their own outcomes; a rejoined
    // replica must therefore always settle back to healthy.
    let ds = scenario(6_000, 42);
    let part = partition_dataset(
        &OpportunityMap::build(ds, EngineConfig::default())
            .unwrap()
            .dataset()
            .clone(),
        1,
    )
    .unwrap()
    .remove(0);
    let wal_root =
        std::env::temp_dir().join(format!("om-cluster-hedge-wedge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);
    let start_replica = |name: &str, addr: Option<String>| {
        let om = Arc::new(OpportunityMap::build(part.clone(), EngineConfig::default()).unwrap());
        let handle = om
            .start_ingest(&IngestConfig {
                sync_writes: false,
                ..IngestConfig::new(wal_root.join(name))
            })
            .unwrap();
        let config = ServerConfig {
            addr: addr.unwrap_or_else(|| "127.0.0.1:0".to_owned()),
            ..server_config()
        };
        let server =
            Server::start_with_ingest(Arc::clone(&om), config, Some(handle.clone())).unwrap();
        (server, handle)
    };
    let (server_a, handle_a) = start_replica("a", None);
    let (server_b, handle_b) = start_replica("b", None);
    let addr_b = server_b.local_addr().to_string();

    let coordinator = Arc::new(
        Coordinator::connect(ClusterConfig {
            shard_addrs: vec![server_a.local_addr().to_string(), addr_b.clone()],
            replicas: 2,
            ingest: true,
            shard_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(10),
            breaker_open: Duration::from_millis(100),
            // A hedge threshold the fast, healthy replica A never
            // trips: replica B's half-open breaker becomes a candidate
            // the race considers but never launches.
            hedge_after: Some(Duration::from_secs(5)),
            ..ClusterConfig::default()
        })
        .unwrap(),
    );
    let coord = Server::start_custom(Arc::clone(&coordinator) as _, server_config()).unwrap();
    let cc = client(&coord);

    // B dies; empty ingest batches (pure stats writes that fan out to
    // every replica) push its breaker past the threshold.
    server_b.shutdown();
    handle_b.shutdown();
    let empty = om_api::IngestRequest { rows: Vec::new() }.encode();
    for _ in 0..3 {
        let (status, body) = cc.post("/v1/ingest", &empty).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    assert!(
        coordinator.degraded_addrs().contains(&addr_b),
        "B's breaker must be open"
    );

    // Let the breaker's open window elapse, then run hedged reads: B
    // is now probe-eligible, but A answers long before the 5s hedge
    // threshold, so B is never actually fetched from.
    std::thread::sleep(Duration::from_millis(150));
    for _ in 0..3 {
        let (status, body) = cc.post("/v1/compare", &compare_body()).unwrap();
        assert_eq!(status, 200, "{body}");
    }

    // B rejoins on its original address. The next ingest probes must
    // re-admit it promptly — with the probe-leak bug its breaker stays
    // wedged at Deny until the health layer's probe-timeout backstop
    // (3 × shard_timeout + breaker_open = 6.1s). Each round waits out
    // the 100ms breaker window first, so a healthy breaker re-admits B
    // on round one; three rounds end long before the backstop, and a
    // loaded host only makes the rounds slower, never the fix fail.
    let (server_b2, handle_b2) = start_replica("b", Some(addr_b));
    for round in 1.. {
        std::thread::sleep(Duration::from_millis(150));
        let (status, _) = cc.post("/v1/ingest", &empty).unwrap();
        assert_eq!(status, 200);
        if coordinator.degraded_addrs().is_empty() {
            break;
        }
        assert!(
            round < 3,
            "B never recovered in {round} rounds; the half-open probe was stranded: {:?}",
            coordinator.degraded_addrs()
        );
    }

    coord.shutdown();
    server_a.shutdown();
    handle_a.shutdown();
    server_b2.shutdown();
    handle_b2.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

mod failpoints {
    use super::*;
    use om_fault::fail::{self, Action, Seam};

    fn small_fixture(
        replicas: usize,
        tune: impl FnOnce(&mut ClusterConfig),
    ) -> (Arc<Coordinator>, Server, Vec<Server>) {
        let ds = scenario(4_000, 11);
        let om = Arc::new(OpportunityMap::build(ds, EngineConfig::default()).unwrap());
        let part = partition_dataset(om.dataset(), 1).unwrap().remove(0);
        let shard_om = Arc::new(OpportunityMap::build(part, EngineConfig::default()).unwrap());
        let shards: Vec<Server> = (0..replicas)
            .map(|_| Server::start(Arc::clone(&shard_om), server_config()).unwrap())
            .collect();
        let mut config = ClusterConfig {
            shard_addrs: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            replicas,
            ..ClusterConfig::default()
        };
        tune(&mut config);
        let coordinator = Arc::new(Coordinator::connect(config).unwrap());
        let coord = Server::start_custom(Arc::clone(&coordinator) as _, server_config()).unwrap();
        (coordinator, coord, shards)
    }

    #[test]
    fn slow_store_fetch_triggers_a_hedge_that_wins() {
        let _armed = FAILPOINTS.write();
        // Both replicas answer the store fetch 80ms late; with a 20ms
        // hedge threshold the coordinator races the second replica
        // instead of waiting, and the request still answers 200.
        let (_, coord, shards) = small_fixture(2, |c| {
            c.hedge_after = Some(Duration::from_millis(20));
        });
        let cc = client(&coord);
        fail::configure(
            Seam::ServerInternalStore,
            Action::Delay(Duration::from_millis(80)),
        );
        let (status, body) = cc.post("/v1/compare", &compare_body()).unwrap();
        fail::remove(Seam::ServerInternalStore);
        assert_eq!(status, 200, "{body}");
        let (_, metrics) = cc.get("/metrics").unwrap();
        assert!(
            metric_value(&metrics, "om_cluster_hedges_total") >= 1,
            "a hedge must have fired: {metrics}"
        );
        coord.shutdown();
        for s in shards {
            s.shutdown();
        }
    }

    #[test]
    fn explore_truncation_is_byte_identical_through_the_coordinator() {
        let _armed = FAILPOINTS.write();
        // `explore.step` fires at the end of every greedy iteration, and
        // both the coordinator (merged store, in process) and the
        // single-node twin run that loop in this test process — one
        // arming truncates both after their first pick, and the partial
        // envelopes must still agree byte for byte.
        with_cluster(2, false, |coord, single, _| {
            fail::configure(Seam::ExploreStep, Action::Error("injected stall".into()));
            let body = om_api::ExploreRequest {
                slice: Vec::new(),
                k: 8,
                max_conditions: None,
                budget_ms: None,
                compare: None,
            }
            .encode();
            let (status, answer) = assert_identical(coord, single, "/v1/explore", &body);
            fail::remove(Seam::ExploreStep);
            assert_eq!(status, 200, "{answer}");
            let parsed = om_api::ExploreResponse::parse(&answer).unwrap();
            assert!(parsed.truncated, "partial answer must be marked: {answer}");
            assert_eq!(parsed.summaries.len(), 1, "{answer}");
        });
    }

    #[test]
    fn whole_request_deadline_bounds_a_stalled_shard() {
        let armed = FAILPOINTS.write();
        // The shard stalls 3s inside the store handler; the client's
        // whole-request deadline (300ms) must cut the request off and
        // surface a typed 503 long before the stall ends.
        let (_, coord, shards) = small_fixture(1, |c| {
            c.shard_timeout = Duration::from_millis(300);
            c.fetch_retries = 0;
        });
        let cc = client(&coord);
        fail::configure(
            Seam::ServerInternalStore,
            Action::Delay(Duration::from_secs(3)),
        );
        let started = std::time::Instant::now();
        let (status, body) = cc.post("/v1/compare", &compare_body()).unwrap();
        let elapsed = started.elapsed();
        fail::remove(Seam::ServerInternalStore);
        // Disarmed: the other tests may run while the shard's shutdown
        // waits out the stall its worker is already in.
        drop(armed);
        assert_eq!(status, 503, "{body}");
        assert!(
            elapsed < Duration::from_secs(2),
            "deadline must bound the stall: took {elapsed:?}"
        );
        coord.shutdown();
        for s in shards {
            s.shutdown();
        }
    }

    #[test]
    fn a_panicked_fan_out_worker_names_its_partition_and_no_replica() {
        let _armed = FAILPOINTS.write();
        // Every read's generation poll walks a partition's replicas
        // through the retry seam on that partition's fan-out worker, so
        // a panicking seam takes the worker down with no replica tried.
        // Partition 1's replicas are shards 2 and 3: naming "replica 1"
        // for it would point at partition 0.
        let (_, coord, shard_servers, _, single) = replicated_fixture(2, 2);
        let cc = client(&coord);
        fail::configure(
            Seam::ClusterReplicaRetry,
            Action::Panic("injected fan-out panic".into()),
        );
        let (status, body) = cc.post("/v1/compare", &compare_body()).unwrap();
        fail::remove(Seam::ClusterReplicaRetry);
        assert_eq!(status, 503, "{body}");
        let env = om_api::ErrorEnvelope::parse(&body).unwrap();
        assert_eq!(env.code, om_api::ErrorCode::Overloaded);
        assert_eq!(
            env.message,
            "partition 0 is unavailable for generation poll: its fan-out worker panicked"
        );
        assert!(env.retry_after_ms.is_some(), "{body}");
        coord.shutdown();
        single.shutdown();
        for s in shard_servers.into_iter().flatten() {
            s.shutdown();
        }
    }
}

/// A stand-in replica at its own address: it forwards every call to
/// `upstream`, but refuses the generation poll with `refusal` — what a
/// replica answers when the request, not the replica, is at fault.
struct RefusingProxy {
    addr: String,
    refused: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl RefusingProxy {
    fn start(upstream: ShardClient, refusal: om_api::ErrorEnvelope) -> Self {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let refused = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (count, halt) = (Arc::clone(&refused), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let mut stream = stream.unwrap();
                if halt.load(SeqCst) {
                    break;
                }
                let req = om_server::http::parse_request(&stream).unwrap();
                assert!(req.params.is_empty(), "{req:?}");
                let response = if req.path == "/internal/generation" {
                    count.fetch_add(1, SeqCst);
                    om_server::http::Response::from(refusal.clone())
                } else {
                    let (status, body) = match req.method.as_str() {
                        "GET" => upstream.get(&req.path),
                        _ => upstream.post(&req.path, &req.body),
                    }
                    .unwrap();
                    om_server::http::Response {
                        status,
                        content_type: "application/json",
                        body,
                        retry_after: None,
                    }
                };
                response.write_to(&mut stream).unwrap();
            }
        });
        Self {
            addr,
            refused,
            stop,
            thread,
        }
    }

    fn shutdown(self) {
        self.stop.store(true, SeqCst);
        let _ = std::net::TcpStream::connect(&self.addr);
        self.thread.join().unwrap();
    }
}

/// A replica that answers a 4xx envelope has judged the request, not
/// failed: its breaker records a success, nothing retries or fails
/// over, and the `/v1` client gets the shard's own code and status.
#[test]
fn a_replicas_4xx_envelope_reaches_the_client_as_is() {
    let _unarmed = FAILPOINTS.read();
    let ds = scenario(6_000, 7);
    let real = Server::start(
        Arc::new(OpportunityMap::build(ds, EngineConfig::default()).unwrap()),
        server_config(),
    )
    .unwrap();
    let refusal = om_api::ErrorEnvelope::new(om_api::ErrorCode::Invalid, "generation \"refused\"");
    // The partition's preferred replica refuses; the other is sound.
    let proxy = RefusingProxy::start(client(&real), refusal.clone());
    let coordinator = Arc::new(
        Coordinator::connect(ClusterConfig {
            shard_addrs: vec![proxy.addr.clone(), real.local_addr().to_string()],
            replicas: 2,
            breaker_threshold: 1,
            ..ClusterConfig::default()
        })
        .unwrap(),
    );
    let coord = Server::start_custom(Arc::clone(&coordinator) as _, server_config()).unwrap();

    let reply = client(&coord).post("/v1/compare", &compare_body()).unwrap();
    assert_eq!(reply, (422, refusal.encode()));
    assert_eq!(
        proxy.refused.load(SeqCst),
        1,
        "the refusing replica was retried"
    );
    assert!(
        coordinator.degraded_addrs().is_empty(),
        "a 4xx opened a breaker"
    );
    let (_, metrics) = client(&coord).get("/metrics").unwrap();
    for name in [
        "om_cluster_shard_errors_total",
        "om_cluster_retries_total",
        "om_cluster_failovers_total",
    ] {
        assert_eq!(metric_value(&metrics, name), 0, "{name}");
    }

    coord.shutdown();
    proxy.shutdown();
    real.shutdown();
}

/// A 4xx is the request's fault, not a lost partition, so an
/// `allow_partial` read answers it instead of degrading around it.
#[test]
fn allow_partial_answers_a_4xx_rather_than_degrading() {
    let _unarmed = FAILPOINTS.read();
    let ds = scenario(6_000, 7);
    let twin = OpportunityMap::build(ds, EngineConfig::default()).unwrap();
    let shards: Vec<Server> = partition_dataset(twin.dataset(), 2)
        .unwrap()
        .into_iter()
        .map(|p| {
            let om = Arc::new(OpportunityMap::build(p, EngineConfig::default()).unwrap());
            Server::start(om, server_config()).unwrap()
        })
        .collect();
    let refusal = om_api::ErrorEnvelope::new(om_api::ErrorCode::Invalid, "generation refused");
    // Partition 1 is served only by the refusing proxy.
    let proxy = RefusingProxy::start(client(&shards[1]), refusal.clone());
    let coordinator = Coordinator::connect(ClusterConfig {
        shard_addrs: vec![shards[0].local_addr().to_string(), proxy.addr.clone()],
        ..ClusterConfig::default()
    })
    .unwrap();
    let coord = Server::start_custom(Arc::new(coordinator), server_config()).unwrap();

    for allow_partial in [None, Some(true)] {
        let body = om_api::CompareRequest {
            attr: "PhoneModel".into(),
            v1: "ph1".into(),
            v2: "ph2".into(),
            class: "dropped".into(),
            allow_partial,
        }
        .encode();
        let reply = client(&coord).post("/v1/compare", &body).unwrap();
        assert_eq!(
            reply,
            (422, refusal.encode()),
            "allow_partial {allow_partial:?}"
        );
    }

    coord.shutdown();
    proxy.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn ephemeral_port_contract() {
    let _unarmed = FAILPOINTS.read();
    // Satellite: port 0 binding reports the chosen port — the contract
    // the multi-process harness scrapes.
    let ds = scenario(2_000, 3);
    let om = Arc::new(OpportunityMap::build(ds, EngineConfig::default()).unwrap());
    let server = Server::start(om, server_config()).unwrap();
    let addr = server.local_addr();
    assert_ne!(addr.port(), 0, "ephemeral bind must resolve to a real port");
    let (status, body) = client(&server).get("/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    server.shutdown();
}
