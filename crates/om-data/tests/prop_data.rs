//! Property-based tests for the data substrate.

use om_data::csv::{read_csv, write_csv, CsvOptions};
use om_data::persist::{decode_dataset, encode_dataset};
use om_data::{Cell, Column, DataError, Dataset, DatasetBuilder};
use proptest::prelude::*;
use std::io::BufReader;

/// Strategy: a small random categorical dataset with 1 feature + class.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((0u8..4, 0u8..3), 0..60).prop_map(|rows| {
        let mut b = DatasetBuilder::new().categorical("A").class("C");
        let a_labels = ["a0", "a1", "a2", "a3"];
        let c_labels = ["c0", "c1", "c2"];
        for (a, c) in rows {
            b.push_row(&[
                Cell::Str(a_labels[a as usize]),
                Cell::Str(c_labels[c as usize]),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    })
}

/// `(offset, width)` of every count or length field in `ds`'s encoded
/// form, following the layout `persist` documents: attribute count,
/// class index, each name / domain / label length, the row count.
fn length_fields(ds: &Dataset) -> Vec<(usize, usize)> {
    let mut fields = vec![(5, 4), (9, 4)];
    let mut off = 13;
    for attr in ds.schema().attributes() {
        fields.push((off, 4));
        off += 4 + attr.name().len() + 1;
        fields.push((off, 4));
        off += 4;
        for (_, label) in attr.domain().iter() {
            fields.push((off, 4));
            off += 4 + label.len();
        }
    }
    fields.push((off, 8));
    fields
}

/// Strategy: values a hostile peer would put in a length field.
fn arb_hostile_length() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..8,
        Just(1 << 30),
        Just(u64::from(u32::MAX)),
        Just(1 << 61),
        Just(1 << 62),
        Just(u64::MAX),
        0u64..=u64::MAX,
    ]
}

proptest! {
    #[test]
    fn persist_round_trip(ds in arb_dataset()) {
        let back = decode_dataset(encode_dataset(&ds)).unwrap();
        prop_assert_eq!(back, ds);
    }

    #[test]
    fn mutated_length_fields_never_panic(
        ds in arb_dataset(),
        pick in 0usize..1 << 16,
        value in arb_hostile_length(),
    ) {
        let mut raw = encode_dataset(&ds).to_vec();
        let fields = length_fields(&ds);
        let (at, width) = fields[pick % fields.len()];
        raw[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        // Some mutations are still a valid payload (the same value, another
        // in-range class index); every other one is a typed decode error.
        if let Err(e) = decode_dataset(raw.into()) {
            prop_assert!(matches!(e, DataError::Decode(_)), "{:?}", e);
        }
    }

    #[test]
    fn csv_round_trip_preserves_structure(ds in arb_dataset()) {
        let mut out = Vec::new();
        write_csv(&ds, &mut out, ',').unwrap();
        let back = read_csv(BufReader::new(out.as_slice()), &CsvOptions::new("C")).unwrap();
        prop_assert_eq!(back.n_rows(), ds.n_rows());
        // Class distribution must be identical up to relabeling; compare via sorted counts.
        let mut a = back.class_counts();
        let mut b = ds.class_counts();
        a.retain(|&c| c > 0);
        b.retain(|&c| c > 0);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn class_counts_sum_to_rows(ds in arb_dataset()) {
        let total: u64 = ds.class_counts().iter().sum();
        prop_assert_eq!(total as usize, ds.n_rows());
    }

    #[test]
    fn sub_population_partition(ds in arb_dataset()) {
        // Sub-populations over all values of attribute 0 partition the rows.
        let card = ds.schema().attribute(0).cardinality();
        let mut total = 0usize;
        for v in 0..card as u32 {
            total += ds.sub_population(0, v).unwrap().n_rows();
        }
        prop_assert_eq!(total, ds.n_rows());
    }

    #[test]
    fn take_rows_preserves_values(ds in arb_dataset(), seed in 0u64..1000) {
        if ds.n_rows() == 0 { return Ok(()); }
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<usize> = (0..10).map(|_| rng.gen_range(0..ds.n_rows())).collect();
        let t = ds.take_rows(&rows).unwrap();
        let orig = ds.column(0).as_categorical().unwrap();
        let picked = t.column(0).as_categorical().unwrap();
        for (i, &r) in rows.iter().enumerate() {
            prop_assert_eq!(picked[i], orig[r]);
        }
    }

    #[test]
    fn duplicate_scales_class_counts(ds in arb_dataset(), k in 1usize..5) {
        let out = om_data::sample::duplicate(&ds, k).unwrap();
        let base = ds.class_counts();
        let scaled = out.class_counts();
        for (b, s) in base.iter().zip(&scaled) {
            prop_assert_eq!(b * k as u64, *s);
        }
    }

    #[test]
    fn unbalanced_sample_respects_ratio(ds in arb_dataset(), ratio in 1u64..4) {
        if ds.is_empty() { return Ok(()); }
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let out = om_data::sample::unbalanced_sample(&ds, ratio, &mut rng).unwrap();
        let counts = out.class_counts();
        let min_nonzero = counts.iter().copied().filter(|&c| c > 0).min().unwrap_or(0);
        for &c in &counts {
            prop_assert!(c <= min_nonzero * ratio,
                "class count {} exceeds {} * ratio {}", c, min_nonzero, ratio);
        }
    }

    #[test]
    fn column_take_rows_length(ids in proptest::collection::vec(0u32..3, 0..50)) {
        let col = Column::Categorical(ids.clone());
        let take: Vec<usize> = (0..ids.len()).step_by(2).collect();
        prop_assert_eq!(col.take_rows(&take).len(), take.len());
    }
}
