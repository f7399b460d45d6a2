//! Property tests for cube algebra: merge must be exactly additive,
//! commutative and associative, and must equal building from concatenated
//! data.

use om_cube::merge::merge_cubes;
use om_cube::{build_cube, ColumnIndex, CubeStore, RuleCube, StoreBuildOptions};
use om_data::{Attribute, Cell, Column, Dataset, DatasetBuilder, Domain, Schema};
use proptest::prelude::*;

fn dataset_from(rows: &[(u8, u8, u8)]) -> Dataset {
    let mut b = DatasetBuilder::new()
        .categorical("A")
        .categorical("B")
        .class("C");
    let al = ["a0", "a1", "a2"];
    let bl = ["b0", "b1"];
    let cl = ["c0", "c1"];
    // Intern every label up front so all batches share identical domains.
    b.push_row(&[Cell::Str("a0"), Cell::Str("b0"), Cell::Str("c0")])
        .unwrap();
    b.push_row(&[Cell::Str("a1"), Cell::Str("b1"), Cell::Str("c1")])
        .unwrap();
    b.push_row(&[Cell::Str("a2"), Cell::Str("b0"), Cell::Str("c0")])
        .unwrap();
    for &(a, bb, c) in rows {
        b.push_row(&[
            Cell::Str(al[a as usize % 3]),
            Cell::Str(bl[bb as usize % 2]),
            Cell::Str(cl[c as usize % 2]),
        ])
        .unwrap();
    }
    b.finish().unwrap()
}

fn cube_of(rows: &[(u8, u8, u8)]) -> RuleCube {
    build_cube(&dataset_from(rows), &[0, 1]).unwrap()
}

/// Fixed-domain dataset (no seed rows): every batch shares identical
/// domains however its rows are distributed, so arbitrary partitions can
/// be compared without compensation.
fn dataset_fixed(rows: &[(u8, u8, u8)]) -> Dataset {
    let schema = Schema::new(
        vec![
            Attribute::categorical("A", Domain::from_labels(["a0", "a1", "a2"])),
            Attribute::categorical("B", Domain::from_labels(["b0", "b1"])),
            Attribute::categorical("C", Domain::from_labels(["c0", "c1"])),
        ],
        2,
    )
    .unwrap();
    Dataset::from_columns(
        schema,
        vec![
            Column::Categorical(rows.iter().map(|r| u32::from(r.0 % 3)).collect()),
            Column::Categorical(rows.iter().map(|r| u32::from(r.1 % 2)).collect()),
            Column::Categorical(rows.iter().map(|r| u32::from(r.2 % 2)).collect()),
        ],
    )
    .unwrap()
}

/// Four analysis attributes and the class.
type Row4 = (u8, u8, u8, u8, u8);

/// Four analysis attributes over fixed domains, so a store anchored on
/// one of them holds three of the six pairs — a strict part of the whole.
fn dataset_of_four(rows: &[Row4]) -> Dataset {
    let attr = |name: &str, n: usize| {
        Attribute::categorical(
            name,
            Domain::from_labels((0..n).map(|v| format!("{name}{v}"))),
        )
    };
    let schema = Schema::new(
        vec![
            attr("A", 3),
            attr("B", 2),
            attr("D", 2),
            attr("E", 3),
            attr("C", 2),
        ],
        4,
    )
    .unwrap();
    let column = |f: fn(&Row4) -> u8, n: u8| {
        Column::Categorical(rows.iter().map(|r| u32::from(f(r) % n)).collect())
    };
    Dataset::from_columns(
        schema,
        vec![
            column(|r| r.0, 3),
            column(|r| r.1, 2),
            column(|r| r.2, 2),
            column(|r| r.3, 3),
            column(|r| r.4, 2),
        ],
    )
    .unwrap()
}

fn anchored(rows: &[Row4], anchor: usize) -> CubeStore {
    std::sync::Arc::new(ColumnIndex::build(&dataset_of_four(rows)).unwrap())
        .selector()
        .build_store_anchored(None, anchor)
        .unwrap()
}

/// Two full stores hold the same counts: every cube, the class counts
/// and the record total.
fn assert_same_counts(got: &CubeStore, want: &CubeStore) {
    prop_assert_eq!(got.total_records(), want.total_records());
    prop_assert_eq!(got.class_counts(), want.class_counts());
    for &a in want.attrs() {
        prop_assert_eq!(&*got.one_dim(a).unwrap(), &*want.one_dim(a).unwrap());
    }
    let (got, want) = (got.held_pairs(), want.held_pairs());
    prop_assert_eq!(got.len(), want.len());
    for ((got_key, got_cube), (want_key, want_cube)) in got.iter().zip(&want) {
        prop_assert_eq!(got_key, want_key);
        prop_assert_eq!(&**got_cube, &**want_cube);
    }
}

/// Every order of the three segments after the first.
const ORDERS: [[usize; 3]; 6] = [
    [1, 2, 3],
    [1, 3, 2],
    [2, 1, 3],
    [2, 3, 1],
    [3, 1, 2],
    [3, 2, 1],
];

proptest! {
    #[test]
    fn merge_equals_concatenated_build(
        x in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 0..60),
        y in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 0..60)
    ) {
        let cx = cube_of(&x);
        let cy = cube_of(&y);
        let merged = merge_cubes(&cx, &cy).unwrap();
        let mut both = x.clone();
        both.extend_from_slice(&y);
        // Concatenated data carries the 3 seed rows twice — add the seed
        // cube once to compensate.
        let concatenated = cube_of(&both);
        let seeded = merge_cubes(&concatenated, &cube_of(&[])).unwrap();
        prop_assert_eq!(merged, seeded);
    }

    #[test]
    fn merge_commutes(
        x in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 0..40),
        y in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 0..40)
    ) {
        let cx = cube_of(&x);
        let cy = cube_of(&y);
        prop_assert_eq!(
            merge_cubes(&cx, &cy).unwrap(),
            merge_cubes(&cy, &cx).unwrap()
        );
    }

    #[test]
    fn merge_associates(
        x in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 0..30),
        y in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 0..30),
        z in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 0..30)
    ) {
        let (cx, cy, cz) = (cube_of(&x), cube_of(&y), cube_of(&z));
        let left = merge_cubes(&merge_cubes(&cx, &cy).unwrap(), &cz).unwrap();
        let right = merge_cubes(&cx, &merge_cubes(&cy, &cz).unwrap()).unwrap();
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_totals_add(
        x in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 0..50),
        y in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 0..50)
    ) {
        let cx = cube_of(&x);
        let cy = cube_of(&y);
        let merged = merge_cubes(&cx, &cy).unwrap();
        prop_assert_eq!(merged.total(), cx.total() + cy.total());
        prop_assert_eq!(
            merged.class_margin(),
            cx.class_margin()
                .iter()
                .zip(cy.class_margin())
                .map(|(a, b)| a + b)
                .collect::<Vec<_>>()
        );
    }

    /// In-place accumulation is the same function as the pure merge.
    #[test]
    fn merge_into_equals_pure_merge(
        x in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 0..40),
        y in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 0..40)
    ) {
        let cx = cube_of(&x);
        let cy = cube_of(&y);
        let pure = merge_cubes(&cx, &cy).unwrap();
        let mut acc = cx;
        acc.merge_into(&cy).unwrap();
        prop_assert_eq!(acc, pure);
    }

    /// The whole-store invariant live ingestion rests on: a store built
    /// over all records equals the per-part stores of ANY partition,
    /// folded together with `merge_from` in ANY order.
    #[test]
    fn store_over_any_random_partition_merges_to_the_whole(
        rows in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 1..80),
        assignment in proptest::collection::vec(0usize..4, 80),
        reversed in 0u8..2
    ) {
        let opts = StoreBuildOptions::default();
        let whole = CubeStore::build(&dataset_fixed(&rows), &opts).unwrap();

        let mut parts: [Vec<(u8, u8, u8)>; 4] = Default::default();
        for (row, part) in rows.iter().zip(&assignment) {
            parts[*part].push(*row);
        }
        let mut stores: Vec<CubeStore> = parts
            .iter()
            .map(|p| CubeStore::build(&dataset_fixed(p), &opts).unwrap())
            .collect();
        if reversed == 1 {
            stores.reverse();
        }
        let mut acc = stores.remove(0);
        for part in &stores {
            acc.merge_from(part).unwrap();
        }

        prop_assert_eq!(acc.total_records(), whole.total_records());
        prop_assert_eq!(acc.class_counts(), whole.class_counts());
        for &a in whole.attrs() {
            prop_assert_eq!(&*acc.one_dim(a).unwrap(), &*whole.one_dim(a).unwrap());
        }
        for (i, &a) in whole.attrs().iter().enumerate() {
            for &b in &whole.attrs()[i + 1..] {
                prop_assert_eq!(&*acc.pair(a, b).unwrap(), &*whole.pair(a, b).unwrap());
            }
        }
    }

    /// Additivity for partial stores, the law a coordinator's anchored
    /// drill level rests on: the stores two shards scan for one anchor
    /// merge to the store one node scans over both shards' rows — the
    /// same held pairs, the same counts.
    #[test]
    fn anchored_parts_merge_to_the_anchored_whole(
        rows in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2, 0u8..3, 0u8..2), 0..80),
        assignment in proptest::collection::vec(0usize..2, 80),
        anchor in 0usize..4
    ) {
        let mut parts: [Vec<Row4>; 2] = Default::default();
        for (row, part) in rows.iter().zip(&assignment) {
            parts[*part].push(*row);
        }
        let (a, b) = (anchored(&parts[0], anchor), anchored(&parts[1], anchor));
        let merged = a.merge(&b).unwrap();
        let whole = anchored(&rows, anchor);

        prop_assert_eq!(merged.total_records(), whole.total_records());
        prop_assert_eq!(merged.class_counts(), whole.class_counts());
        for &x in whole.attrs() {
            prop_assert_eq!(&*merged.one_dim(x).unwrap(), &*whole.one_dim(x).unwrap());
        }
        let (got, want) = (merged.held_pairs(), whole.held_pairs());
        prop_assert_eq!(want.len(), 3);
        prop_assert_eq!(got.len(), 3);
        for ((got_key, got_cube), (want_key, want_cube)) in got.iter().zip(&want) {
            prop_assert!(got_key.0 == anchor || got_key.1 == anchor);
            prop_assert_eq!(got_key, want_key);
            prop_assert_eq!(&**got_cube, &**want_cube);
        }
        // A differently anchored part is not a part of this whole.
        let other = anchored(&parts[1], (anchor + 1) % 4);
        prop_assert!(a.merge(&other).is_err());
    }

    /// What a live compaction does with sealed segments: count each one
    /// straight into the store. However the rows are cut into 1–4
    /// segments, and in whatever order the later ones arrive, the result
    /// is the build of their union, and every fold is exactly the merge
    /// of that segment's own store.
    #[test]
    fn folded_segments_equal_the_build_of_their_union(
        rows in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2, 0u8..3, 0u8..2), 0..80),
        n_segments in 1usize..=4,
        assignment in proptest::collection::vec(0usize..4, 80),
        order in 0usize..6
    ) {
        let opts = StoreBuildOptions::default();
        let mut segments: Vec<Vec<Row4>> = vec![Vec::new(); n_segments];
        for (row, segment) in rows.iter().zip(&assignment) {
            segments[segment % n_segments].push(*row);
        }
        let mut folded = CubeStore::build(&dataset_of_four(&segments[0]), &opts).unwrap();
        let mut merged = folded.clone();
        for &s in ORDERS[order].iter().filter(|&&s| s < n_segments) {
            let batch = dataset_of_four(&segments[s]);
            folded.fold(&batch).unwrap();
            merged.merge_from(&CubeStore::build(&batch, &opts).unwrap()).unwrap();
            assert_same_counts(&folded, &merged);
        }
        let union = CubeStore::build(&dataset_of_four(&rows), &opts).unwrap();
        assert_same_counts(&folded, &union);
    }
}
