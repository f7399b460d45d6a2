//! batch_drill: one `/v1/compare/batch` request carrying 32 fixed-path
//! drill items versus 32 sequential `/v1/drill` requests.
//!
//! All 32 items drill one level below the same parent comparison, so the
//! batch plan computes the shared root ranking once and reuses it, while
//! the sequential client pays it 32 times (plus 32 TCP round-trips).
//! The batch must win even on one core — the saving is shared work, not
//! parallelism.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use om_bench::scaleup_dataset;
use om_engine::{EngineConfig, OpportunityMap};
use om_server::{Server, ServerConfig};

const N_ITEMS: usize = 32;

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(
        response.starts_with("HTTP/1.1 200 "),
        "unexpected response: {}",
        response.lines().next().unwrap_or("<empty>")
    );
    response.split_once("\r\n\r\n").map_or(String::new(), |(_, b)| b.to_owned())
}

fn main() {
    let smoke = std::env::var("OM_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (n_attrs, n_records) = if smoke { (36usize, 4_000usize) } else { (40, 20_000) };
    println!("building {n_attrs}-attribute engine ({n_records} records)…");
    let ds = scaleup_dataset(n_attrs, n_records, 7);
    let om = Arc::new(OpportunityMap::build(ds, EngineConfig::default()).expect("build"));

    // The shared parent comparison: attribute 0, first two values, class 1
    // (om_bench::scaleup_spec by name).
    let schema = om.dataset().schema();
    let attr = schema.attribute(0).name().to_owned();
    let v1 = schema.attribute(0).domain().label(0).expect("value 0").to_owned();
    let v2 = schema.attribute(0).domain().label(1).expect("value 1").to_owned();
    let class = schema.class().domain().label(1).expect("class 1").to_owned();

    // 32 children of that parent: condition on the first value of 32
    // other attributes, one level each.
    let conditions: Vec<(String, String)> = (1..schema.n_attributes())
        .take(N_ITEMS)
        .map(|i| {
            let a = schema.attribute(i);
            (
                a.name().to_owned(),
                a.domain().label(0).expect("first value").to_owned(),
            )
        })
        .collect();
    assert_eq!(conditions.len(), N_ITEMS, "dataset too narrow for {N_ITEMS} children");

    let drill_body = |cond: &(String, String)| {
        format!(
            r#"{{"attr":"{attr}","v1":"{v1}","v2":"{v2}","class":"{class}","path":[{{"attr":"{}","value":"{}"}}]}}"#,
            cond.0, cond.1
        )
    };
    let batch_body = format!(
        r#"{{"items":[{}]}}"#,
        conditions
            .iter()
            .map(|c| {
                let d = drill_body(c);
                format!(r#"{{"kind":"drill",{}"#, &d[1..])
            })
            .collect::<Vec<_>>()
            .join(",")
    );

    let server = Server::start(
        Arc::clone(&om),
        ServerConfig {
            n_workers: 2,
            engine_budget: None,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // Warm up connections and code paths once, untimed.
    let _ = post(addr, "/v1/drill", &drill_body(&conditions[0]));
    let _ = post(addr, "/v1/compare/batch", &batch_body);

    let start = Instant::now();
    for cond in &conditions {
        let _ = post(addr, "/v1/drill", &drill_body(cond));
    }
    let sequential = start.elapsed();

    let start = Instant::now();
    let reply = post(addr, "/v1/compare/batch", &batch_body);
    let batched = start.elapsed();
    server.shutdown();

    let parsed = om_api::BatchResponse::parse(&reply).expect("batch reply decodes");
    assert_eq!(parsed.items.len(), N_ITEMS);
    assert!(
        parsed
            .items
            .iter()
            .all(|i| matches!(i, om_api::BatchItemResult::Drill(_))),
        "every batch item should come back as a drill result"
    );

    let speedup = sequential.as_secs_f64() / batched.as_secs_f64();
    println!(
        "batch_drill/sequential  {:>10.1} ms ({N_ITEMS} × POST /v1/drill)",
        sequential.as_secs_f64() * 1e3
    );
    println!(
        "batch_drill/batched     {:>10.1} ms (1 × POST /v1/compare/batch)",
        batched.as_secs_f64() * 1e3
    );
    println!("batch_drill/speedup     {speedup:>10.2}x");
    assert!(
        batched < sequential,
        "batched {N_ITEMS}-drill request ({batched:?}) should beat {N_ITEMS} sequential \
         drills ({sequential:?})"
    );
}
