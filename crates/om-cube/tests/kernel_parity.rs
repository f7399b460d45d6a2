//! Property tests for the row-block counting kernel behind
//! `CubeStore::build` and `CubeStore::fold`: every cube it fills equals
//! the one-cube reference `build_cube`, whatever the schema, the row count
//! relative to the block size, the thread count or the attribute order;
//! and every store it fills obeys the cube algebra's laws.

use om_cube::build::BLOCK;
use om_cube::olap::rollup;
use om_cube::persist::{decode_store, encode_store};
use om_cube::{build_cube, ColumnIndex, CubeStore, StoreBuildOptions};
use om_data::{Attribute, Column, Dataset, Domain, Schema, ValueId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Row counts on both sides of every block edge, and none.
const ROW_COUNTS: [usize; 6] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7];

/// A schema of `cards.len()` categorical attributes (cardinality 1–9)
/// with the class, of `n_classes` labels, at position `class_at`, and
/// `n_rows` uniformly random rows.
fn dataset(
    cards: &[usize],
    n_classes: usize,
    class_at: usize,
    n_rows: usize,
    seed: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut domains: Vec<(String, usize)> = cards
        .iter()
        .enumerate()
        .map(|(i, &card)| (format!("A{i}"), card))
        .collect();
    let class_at = class_at % (domains.len() + 1);
    domains.insert(class_at, ("Class".into(), n_classes));
    let attrs = domains
        .iter()
        .map(|(name, card)| {
            Attribute::categorical(
                name.as_str(),
                Domain::from_labels((0..*card).map(|v| format!("{name}_{v}"))),
            )
        })
        .collect();
    let schema = Schema::new(attrs, class_at).unwrap();
    let columns = domains
        .iter()
        .map(|&(_, card)| {
            Column::Categorical(
                (0..n_rows)
                    .map(|_| rng.gen_range(0..card) as ValueId)
                    .collect(),
            )
        })
        .collect();
    Dataset::from_columns(schema, columns).unwrap()
}

/// A generated dataset: 1–5 attributes (one is the single-attribute
/// schema), 2–4 classes, one of [`ROW_COUNTS`].
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (
        proptest::collection::vec(1usize..=9, 1..=5),
        2usize..=4,
        0usize..6,
        0usize..ROW_COUNTS.len(),
        0u64..u64::MAX,
    )
        .prop_map(|(cards, n_classes, class_at, rows, seed)| {
            dataset(&cards, n_classes, class_at, ROW_COUNTS[rows], seed)
        })
}

fn build(ds: &Dataset, attrs: Option<Vec<usize>>, n_threads: usize) -> CubeStore {
    CubeStore::build(
        ds,
        &StoreBuildOptions {
            attrs,
            n_threads,
            index: false,
        },
    )
    .unwrap()
}

/// Every cube `store` holds equals `build_cube` over `ds`'s rows, and the
/// class counts and total are `ds`'s.
fn assert_matches_reference(store: &CubeStore, ds: &Dataset) {
    assert_eq!(store.total_records(), ds.n_rows() as u64);
    assert_eq!(store.class_counts(), ds.class_counts().as_slice());
    for &a in store.attrs() {
        assert_eq!(*store.one_dim(a).unwrap(), build_cube(ds, &[a]).unwrap());
    }
    for ((a, b), cube) in store.held_pairs() {
        assert!(a < b, "pair key ({a}, {b}) out of schema order");
        assert_eq!(*cube, build_cube(ds, &[a, b]).unwrap(), "pair ({a}, {b})");
    }
}

/// The cube algebra's laws, over the cubes `store` holds: a pair cube
/// rolled up over either attribute is the other attribute's 1-D cube,
/// every 1-D cube's class margin is `class_counts`, and every cube sums to
/// `total_records`.
fn assert_laws(store: &CubeStore) {
    for &a in store.attrs() {
        let one_d = store.one_dim(a).unwrap();
        assert_eq!(
            one_d.class_margin(),
            store.class_counts(),
            "class margin of {a}"
        );
        assert_eq!(one_d.total(), store.total_records(), "total of {a}");
    }
    for ((a, b), pair) in store.held_pairs() {
        assert_eq!(pair.total(), store.total_records(), "total of ({a}, {b})");
        assert_eq!(rollup(&pair, 1).unwrap(), *store.one_dim(a).unwrap());
        assert_eq!(rollup(&pair, 0).unwrap(), *store.one_dim(b).unwrap());
    }
}

/// `ds`'s rows cut at `cuts` (sorted, clamped to the row count) into
/// consecutive segments.
fn segments(ds: &Dataset, cuts: &[usize]) -> Vec<Dataset> {
    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(ds.n_rows())).collect();
    cuts.sort_unstable();
    let mut bounds = vec![0];
    bounds.extend(cuts);
    bounds.push(ds.n_rows());
    bounds
        .windows(2)
        .map(|w| ds.take_rows(&(w[0]..w[1]).collect::<Vec<_>>()).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_built_cube_equals_the_reference_at_any_thread_count(ds in arb_dataset()) {
        let n_attrs = ds.schema().n_attributes() - 1;
        let serial = build(&ds, None, 1);
        assert_matches_reference(&serial, &ds);
        assert_laws(&serial);
        prop_assert_eq!(serial.n_pair_cubes(), n_attrs * (n_attrs - 1) / 2);
        let bytes = encode_store(&serial).unwrap();
        for n_threads in [2, 3, n_attrs + 2] {
            let parallel = build(&ds, None, n_threads);
            assert_matches_reference(&parallel, &ds);
            prop_assert_eq!(&encode_store(&parallel).unwrap(), &bytes);
        }
    }

    #[test]
    fn an_unsorted_subset_builds_the_reference_cubes_in_its_order(
        ds in arb_dataset(),
        pick in proptest::collection::vec(0usize..2, 5),
        n_threads in 1usize..=3
    ) {
        let mut attrs = ds.schema().non_class_indices();
        attrs.reverse();
        let mut subset: Vec<usize> = attrs
            .iter()
            .zip(&pick)
            .filter(|&(_, &keep)| keep == 1)
            .map(|(&a, _)| a)
            .collect();
        if subset.is_empty() {
            subset.push(attrs[0]);
        }
        let store = build(&ds, Some(subset.clone()), n_threads);
        prop_assert_eq!(store.attrs(), subset.as_slice());
        prop_assert_eq!(store.n_pair_cubes(), subset.len() * (subset.len() - 1) / 2);
        assert_matches_reference(&store, &ds);
        assert_laws(&store);
        let serial = build(&ds, Some(subset), 1);
        prop_assert_eq!(encode_store(&store).unwrap(), encode_store(&serial).unwrap());
    }

    #[test]
    fn a_duplicated_attribute_fails_as_its_pair_cube_does(
        ds in arb_dataset(),
        n_threads in 1usize..=3
    ) {
        let attrs = ds.schema().non_class_indices();
        let last = *attrs.last().unwrap();
        let mut listed = attrs.clone();
        listed.push(attrs[0]);
        listed.push(last);
        let refused = CubeStore::build(
            &ds,
            &StoreBuildOptions {
                attrs: Some(listed),
                n_threads,
                index: false,
            },
        )
        .err()
        .expect("a duplicated attribute must fail");
        let want = build_cube(&ds, &[attrs[0], attrs[0]]).unwrap_err();
        prop_assert_eq!(refused.to_string(), want.to_string());
    }

    /// However the rows are cut into segments, folding the later ones
    /// into the store of the first is the build of their union.
    #[test]
    fn folded_segments_equal_the_build_of_their_union(
        ds in arb_dataset(),
        cuts in proptest::collection::vec(0usize..3 * BLOCK + 8, 1..4)
    ) {
        let parts = segments(&ds, &cuts);
        let mut folded = build(&parts[0], None, 1);
        for part in &parts[1..] {
            folded.fold(part).unwrap();
            assert_laws(&folded);
        }
        assert_matches_reference(&folded, &ds);
        prop_assert_eq!(encode_store(&folded).unwrap(), encode_store(&build(&ds, None, 2)).unwrap());
    }

    /// A partial store — the pairs of one anchor — is one value whether
    /// the kernel built it or a coordinator decoded it: both hold the
    /// same pairs, refuse an unheld pair alike, and a fold counts
    /// exactly the cubes held.
    #[test]
    fn folding_into_a_partial_store_counts_its_held_pairs(
        ds in arb_dataset(),
        anchor in 0usize..5,
        cuts in proptest::collection::vec(0usize..3 * BLOCK + 8, 1..4)
    ) {
        let attrs = ds.schema().non_class_indices();
        let anchor = attrs[anchor % attrs.len()];
        let parts = segments(&ds, &cuts);
        let anchored = |part: &Dataset| {
            Arc::new(ColumnIndex::build(part).unwrap())
                .selector()
                .build_store_anchored(None, anchor)
                .unwrap()
        };
        let mut folded = anchored(&parts[0]);
        let decoded = decode_store(encode_store(&folded).unwrap()).unwrap();
        prop_assert_eq!(folded.held_pairs(), decoded.held_pairs());
        if let [a, b, ..] = *attrs.iter().filter(|&&x| x != anchor).collect::<Vec<_>>() {
            let refusal = |store: &CubeStore| store.pair(*a, *b).unwrap_err().to_string();
            prop_assert_eq!(refusal(&folded), refusal(&decoded));
        }
        for part in &parts[1..] {
            folded.fold(part).unwrap();
            assert_laws(&folded);
        }
        prop_assert_eq!(folded.n_pair_cubes(), attrs.len() - 1);
        for ((a, b), _) in folded.held_pairs() {
            prop_assert!(a == anchor || b == anchor);
        }
        assert_matches_reference(&folded, &ds);
        prop_assert_eq!(encode_store(&folded).unwrap(), encode_store(&anchored(&ds)).unwrap());
    }
}
