//! kernel_counting: the columnar bitmap kernel vs the record-walk
//! baseline on the drill-level workload.
//!
//! The workload is a full drill level: condition the population on each
//! value of an attribute and rank every candidate attribute for the
//! canonical comparison. The baseline is the pre-kernel path — copy the
//! sub-population out of the dataset (`Dataset::sub_population`) and
//! rebuild an eager cube store over it per condition. The kernel path is
//! one bitmap AND (`PopulationSelector::narrow`) plus one masked scan
//! anchored on the compared attribute per condition; the `ColumnIndex`
//! is built once outside the loop, as an engine builds it once per store
//! generation. Ranked output must be byte-identical, and on a
//! ≥200-attribute dataset the kernel must be at least 3× faster. The
//! speedup floor is only enforced on ≥8-core machines outside
//! `OM_BENCH_SMOKE=1` mode (matching `rank_parallel`), because the
//! baseline's eager rebuild is itself parallel.

use std::sync::Arc;

use om_bench::{scaleup_dataset, scaleup_spec, time_median};
use om_compare::{candidate_attrs_in, CompareConfig, Comparator};
use om_cube::{ColumnIndex, CubeStore, StoreBuildOptions};

const COND_ATTR: usize = 1;

fn main() {
    let smoke = std::env::var("OM_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (n_attrs, n_records, reps) = if smoke {
        (24usize, 4_000usize, 3usize)
    } else {
        (200, 20_000, 5)
    };
    println!("building {n_attrs}-attribute dataset ({n_records} records)…");
    let ds = scaleup_dataset(n_attrs, n_records, 11);
    let spec = scaleup_spec(&ds);
    let config = CompareConfig::default();
    let attrs = candidate_attrs_in(ds.schema(), spec.attr, &[COND_ATTR]);
    let n_values = ds.schema().attribute(COND_ATTR).cardinality();

    let (walk, walk_time) = time_median(reps, || {
        (0..n_values)
            .map(|v| {
                let sub = ds
                    .sub_population(COND_ATTR, u32::try_from(v).expect("small domain"))
                    .expect("in-domain value");
                let store = CubeStore::build(
                    &sub,
                    &StoreBuildOptions {
                        attrs: Some(attrs.clone()),
                        n_threads: 0,
                        index: false,
                    },
                )
                .expect("record-walk store");
                Comparator::with_config(&store, config.clone())
                    .compare(&spec)
                    .expect("record-walk rank")
            })
            .collect::<Vec<_>>()
    });

    let index = Arc::new(ColumnIndex::build(&ds).expect("column index"));
    let (kernel, kernel_time) = time_median(reps, || {
        (0..n_values)
            .map(|v| {
                let sel = index
                    .selector()
                    .narrow(COND_ATTR, u32::try_from(v).expect("small domain"))
                    .expect("in-domain value");
                let store = sel
                    .build_store_anchored(Some(attrs.clone()), spec.attr)
                    .expect("kernel store");
                Comparator::with_config(&store, config.clone())
                    .compare(&spec)
                    .expect("kernel rank")
            })
            .collect::<Vec<_>>()
    });

    assert_eq!(walk.len(), kernel.len());
    for (w, k) in walk.iter().zip(&kernel) {
        assert_eq!(
            format!("{w:?}"),
            format!("{k:?}"),
            "kernel counting must be identical to the record walk"
        );
    }

    let speedup = walk_time.as_secs_f64() / kernel_time.as_secs_f64();
    println!(
        "kernel_counting/record-walk {:>10.2} ms ({n_values} conditions)",
        walk_time.as_secs_f64() * 1e3
    );
    println!(
        "kernel_counting/kernel      {:>10.2} ms ({n_values} conditions)",
        kernel_time.as_secs_f64() * 1e3
    );
    println!("kernel_counting/speedup     {speedup:>10.2}x (byte-identical output)");

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if !smoke && cores >= 8 {
        assert!(
            speedup >= 3.0,
            "kernel counting speedup {speedup:.2}x below the 3x floor on {cores} cores"
        );
    } else {
        println!(
            "kernel_counting/note        speedup floor not enforced (smoke={smoke}, cores={cores})"
        );
    }
}
