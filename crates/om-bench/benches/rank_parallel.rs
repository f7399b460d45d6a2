//! rank_parallel: sharded attribute ranking vs the serial comparator.
//!
//! The sharded path must be byte-identical to serial (asserted here via
//! the canonical JSON encoding) and, on a ≥200-attribute dataset with 8
//! workers, at least 3× faster. The speedup floor is only enforced when
//! the machine actually has 8 cores to run the shards on and the bench
//! is not in `OM_BENCH_SMOKE=1` mode.

use std::sync::Arc;

use om_bench::{build_store, scaleup_dataset, scaleup_spec, time_median};
use om_compare::{CompareConfig, Comparator};
use om_engine::Budget;
use om_exec::{rank_parallel, ExecConfig, Executor};

fn main() {
    let smoke = std::env::var("OM_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (n_attrs, n_records, reps) = if smoke {
        (24usize, 4_000usize, 3usize)
    } else {
        (200, 20_000, 5)
    };
    println!("building {n_attrs}-attribute store ({n_records} records)…");
    let ds = scaleup_dataset(n_attrs, n_records, 11);
    let store = Arc::new(build_store(&ds, 0));
    let spec = scaleup_spec(&ds);
    let config = CompareConfig::default();
    let budget = Budget::unlimited();

    let comparator = Comparator::new(&store);
    let (serial, serial_time) =
        time_median(reps, || comparator.compare(&spec).expect("serial rank"));

    let pool = Executor::new(&ExecConfig { workers: 8 });
    let (parallel, parallel_time) = time_median(reps, || {
        rank_parallel(&pool, &store, &config, &spec, &budget).expect("parallel rank")
    });

    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "sharded ranking must be identical to serial"
    );

    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    println!(
        "rank_parallel/serial    {:>10.2} ms",
        serial_time.as_secs_f64() * 1e3
    );
    println!(
        "rank_parallel/8-shard   {:>10.2} ms",
        parallel_time.as_secs_f64() * 1e3
    );
    println!("rank_parallel/speedup   {speedup:>10.2}x (byte-identical output)");

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if !smoke && cores >= 8 {
        assert!(
            speedup >= 3.0,
            "8-shard ranking speedup {speedup:.2}x below the 3x floor on {cores} cores"
        );
    } else {
        println!(
            "rank_parallel/note      speedup floor not enforced (smoke={smoke}, cores={cores})"
        );
    }
}
