//! Property-based tests: rule cubes must agree with direct counting over
//! the data, and OLAP operations must preserve mass.

use om_cube::olap::{dice, rollup, slice};
use om_cube::{build_cube, CubeDim, CubeStore, RuleCube, StoreBuildOptions};
use om_data::{Cell, Dataset, DatasetBuilder, ValueId};
use proptest::prelude::*;

/// A random 3-attribute categorical dataset.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((0u8..3, 0u8..4, 0u8..2, 0u8..3), 1..120).prop_map(|rows| {
        let mut b = DatasetBuilder::new()
            .categorical("A")
            .categorical("B")
            .categorical("D")
            .class("C");
        let al = ["a0", "a1", "a2"];
        let bl = ["b0", "b1", "b2", "b3"];
        let dl = ["d0", "d1"];
        let cl = ["c0", "c1", "c2"];
        for (a, bb, d, c) in rows {
            b.push_row(&[
                Cell::Str(al[a as usize]),
                Cell::Str(bl[bb as usize]),
                Cell::Str(dl[d as usize]),
                Cell::Str(cl[c as usize]),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    })
}

/// A random cube of arity 0–3 (cardinality 1–4 per dimension, 1–3
/// classes) with random counts, zeros included.
fn arb_cube() -> impl Strategy<Value = RuleCube> {
    (
        proptest::collection::vec(1usize..=4, 0..=3),
        1usize..=3,
        proptest::collection::vec(0u64..4, 192),
    )
        .prop_map(|(cards, n_classes, counts)| {
            let dims = cards
                .iter()
                .enumerate()
                .map(|(i, &card)| CubeDim {
                    attr_index: i,
                    name: format!("A{i}").into(),
                    labels: (0..card).map(|v| format!("a{i}_{v}")).collect(),
                })
                .collect();
            let classes: Vec<String> = (0..n_classes).map(|c| format!("c{c}")).collect();
            let mut cube = RuleCube::new(dims, classes);
            let cells: Vec<_> = cube
                .iter_cells()
                .map(|(coords, class, _)| (coords, class))
                .collect();
            for ((coords, class), inc) in cells.iter().zip(counts) {
                cube.add(coords, *class, inc).unwrap();
            }
            cube
        })
}

/// The slice of `cube` by a walk over its cells: the reference the
/// row-major slice must equal.
fn slice_by_walk(cube: &RuleCube, dim: usize, value: ValueId) -> RuleCube {
    let mut dims = cube.dims().to_vec();
    dims.remove(dim);
    let mut out = RuleCube::new(dims, cube.class_labels().to_vec());
    for (mut coords, class, count) in cube.iter_cells() {
        if coords[dim] == value {
            coords.remove(dim);
            out.add(&coords, class, count).unwrap();
        }
    }
    out
}

proptest! {
    #[test]
    fn slice_equals_the_cell_walk_for_every_dim_and_value(cube in arb_cube()) {
        for (dim, d) in cube.dims().iter().enumerate() {
            for value in 0..d.cardinality() as ValueId {
                prop_assert_eq!(slice(&cube, dim, value).unwrap(), slice_by_walk(&cube, dim, value));
            }
            prop_assert!(slice(&cube, dim, d.cardinality() as ValueId).is_err());
        }
        prop_assert!(slice(&cube, cube.n_attr_dims(), 0).is_err());
    }

    #[test]
    fn cube_counts_equal_direct_counts(ds in arb_dataset()) {
        let cube = build_cube(&ds, &[0, 1]).unwrap();
        let a = ds.column(0).as_categorical().unwrap();
        let b = ds.column(1).as_categorical().unwrap();
        let c = ds.class_values();
        for (coords, class, count) in cube.iter_cells() {
            let manual = (0..ds.n_rows())
                .filter(|&r| a[r] == coords[0] && b[r] == coords[1] && c[r] == class)
                .count() as u64;
            prop_assert_eq!(count, manual);
        }
        prop_assert_eq!(cube.total(), ds.n_rows() as u64);
    }

    #[test]
    fn rollup_preserves_mass_and_matches_lower_cube(ds in arb_dataset()) {
        let big = build_cube(&ds, &[0, 1]).unwrap();
        let rolled = rollup(&big, 0).unwrap();
        let direct = build_cube(&ds, &[1]).unwrap();
        prop_assert_eq!(&rolled, &direct);
        prop_assert_eq!(rolled.total(), big.total());
    }

    #[test]
    fn slices_partition_the_cube(ds in arb_dataset()) {
        let cube = build_cube(&ds, &[0, 1]).unwrap();
        let card = cube.dims()[0].cardinality();
        let mut total = 0u64;
        for v in 0..card as u32 {
            total += slice(&cube, 0, v).unwrap().total();
        }
        prop_assert_eq!(total, cube.total());
    }

    #[test]
    fn dice_full_selection_is_identity_up_to_order(ds in arb_dataset()) {
        let cube = build_cube(&ds, &[0, 1]).unwrap();
        let card = cube.dims()[1].cardinality() as u32;
        let all: Vec<u32> = (0..card).collect();
        let diced = dice(&cube, 1, &all).unwrap();
        prop_assert_eq!(diced, cube);
    }

    #[test]
    fn confidences_sum_to_one_on_nonempty_cells(ds in arb_dataset()) {
        let cube = build_cube(&ds, &[0]).unwrap();
        for v in 0..cube.dims()[0].cardinality() as u32 {
            if cube.cell_total(&[v]).unwrap() == 0 { continue; }
            let s: f64 = (0..cube.n_classes() as u32)
                .map(|c| cube.confidence(&[v], c).unwrap().unwrap())
                .sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn store_pair_consistent_with_one_dim(ds in arb_dataset()) {
        let store = CubeStore::build(&ds, &StoreBuildOptions { n_threads: 2, ..Default::default() }).unwrap();
        let pair = store.pair(0, 2).unwrap();
        // Roll up the dim whose attr_index is 2 → must equal one_dim(0).
        let drop_dim = pair.dims().iter().position(|d| d.attr_index == 2).unwrap();
        let rolled = rollup(&pair, drop_dim).unwrap();
        prop_assert_eq!(rolled, (*store.one_dim(0).unwrap()).clone());
    }

    #[test]
    fn persist_round_trip(ds in arb_dataset()) {
        let cube = build_cube(&ds, &[0, 2]).unwrap();
        let back = om_cube::persist::decode_cube(om_cube::persist::encode_cube(&cube).unwrap()).unwrap();
        prop_assert_eq!(back, cube);
    }
}
