//! Concurrent-read correctness: om-server slices and queries cubes from
//! a worker pool, so 8 threads hammering one cube (and one store) must
//! see exactly what a serial reader sees.

use std::sync::Arc;

use om_cube::{CubeStore, CubeView, StoreBuildOptions};
use om_synth::paper_scenario;

#[test]
fn eight_threads_slice_one_cube_identically_to_serial() {
    let (ds, _) = paper_scenario(30_000, 77);
    let store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
    let attr = store.attrs()[0];
    let cube = store.one_dim(attr).unwrap();

    // Serial baseline: the full materialized view plus a rule listing.
    let serial_view = CubeView::from_cube(&cube).unwrap();
    let serial_rules = om_cube::top_k_by_confidence(&cube, 0, 5, 1).unwrap();

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let cube = Arc::clone(&cube);
            let serial_view = serial_view.clone();
            let serial_rules = serial_rules.clone();
            std::thread::spawn(move || {
                for round in 0..50 {
                    // Alternate the two read paths so different threads
                    // interleave differently every round.
                    if (t + round) % 2 == 0 {
                        let view = CubeView::from_cube(&cube).unwrap();
                        assert_eq!(view, serial_view);
                    } else {
                        let rules = om_cube::top_k_by_confidence(&cube, 0, 5, 1).unwrap();
                        assert_eq!(rules, serial_rules);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn eight_threads_query_the_store_identically_to_serial() {
    let (ds, _) = paper_scenario(30_000, 78);
    let store = Arc::new(CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap());
    let attrs = store.attrs().to_vec();

    // Serial baselines: every 1-D total and one pair cube's total.
    let serial_totals: Vec<u64> = attrs
        .iter()
        .map(|&a| store.one_dim(a).unwrap().total())
        .collect();
    let pair_total = store.pair(attrs[0], attrs[1]).unwrap().total();

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let store = Arc::clone(&store);
            let attrs = attrs.clone();
            let serial_totals = serial_totals.clone();
            std::thread::spawn(move || {
                for round in 0..25 {
                    let i = (t + round) % attrs.len();
                    let cube = store.one_dim(attrs[i]).unwrap();
                    assert_eq!(cube.total(), serial_totals[i]);
                    assert_eq!(store.pair(attrs[0], attrs[1]).unwrap().total(), pair_total);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
