//! One copy of every label: every cube a store holds over attribute `a`
//! shares the store's 1-D cube of `a`'s name and value labels, and every
//! cube shares the store's class labels, whichever way the store was
//! made (built, kernel-built, decoded, folded into, merged). Sharing is
//! invisible to readers: each store equals, cube for cube, the cubes
//! `build_cube` counts one at a time with their own copies of the labels.

use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use om_cube::persist::{crc32, decode_store, encode_cube, encode_store};
use om_cube::{build_cube, ColumnIndex, CubeDim, CubeStore, RuleCube, StoreBuildOptions};
use om_data::{Attribute, Column, Dataset, Domain, Schema, ValueId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Four attributes of cardinality 3, 2, 4 and 5, with a three-label
/// class between the second and the third, over 3 000 random rows.
fn dataset() -> Dataset {
    let domains = [("A", 3), ("B", 2), ("Class", 3), ("D", 4), ("E", 5)];
    let attrs = domains
        .iter()
        .map(|&(name, card)| {
            Attribute::categorical(
                name,
                Domain::from_labels((0..card).map(|v| format!("{name}_{v}"))),
            )
        })
        .collect();
    let schema = Schema::new(attrs, 2).unwrap();
    let mut rng = StdRng::seed_from_u64(48);
    let columns = domains
        .iter()
        .map(|&(_, card)| {
            Column::Categorical(
                (0..3_000)
                    .map(|_| rng.gen_range(0..card) as ValueId)
                    .collect(),
            )
        })
        .collect();
    Dataset::from_columns(schema, columns).unwrap()
}

/// The rows `range` of `ds`, as a dataset of their own.
fn rows(ds: &Dataset, range: Range<usize>) -> Dataset {
    let columns = ds
        .columns()
        .map(|c| Column::Categorical(c.as_categorical().unwrap()[range.clone()].to_vec()))
        .collect();
    Dataset::from_columns(ds.schema().clone(), columns).unwrap()
}

fn build(ds: &Dataset, n_threads: usize) -> CubeStore {
    let opts = StoreBuildOptions {
        n_threads,
        ..StoreBuildOptions::default()
    };
    CubeStore::build(ds, &opts).unwrap()
}

/// Every cube `store` holds, keyed by its attributes: the 1-D cubes,
/// then the held pairs.
fn held(store: &CubeStore) -> Vec<(Vec<usize>, Arc<RuleCube>)> {
    let one_d = store
        .attrs()
        .iter()
        .map(|&a| (vec![a], store.one_dim(a).unwrap()));
    let pairs = store
        .held_pairs()
        .into_iter()
        .map(|((a, b), cube)| (vec![a, b], cube));
    one_d.chain(pairs).collect()
}

/// The 1-D cube of `attr`'s one dimension.
fn own_dim(store: &CubeStore, attr: usize) -> CubeDim {
    store.one_dim(attr).unwrap().dims()[0].clone()
}

/// Every cube's dimension of `a` is `Arc` for `Arc` the store's 1-D cube
/// of `a`'s, and every cube holds the store's own class-label `Arc`.
fn assert_shared(store: &CubeStore) {
    let class_labels = store.class_labels().as_ptr();
    for (key, cube) in held(store) {
        assert!(
            std::ptr::eq(cube.class_labels().as_ptr(), class_labels),
            "cube {key:?} holds its own class labels"
        );
        for dim in cube.dims() {
            let own = own_dim(store, dim.attr_index);
            assert!(
                Arc::ptr_eq(&dim.name, &own.name) && Arc::ptr_eq(&dim.labels, &own.labels),
                "cube {key:?} holds its own labels of attribute {}",
                dim.attr_index
            );
        }
    }
}

/// `store` counts `ds` and holds `n_pairs` pair cubes, each cube equal
/// to the one `build_cube` counts over `ds` with its own labels.
fn assert_same(store: &CubeStore, ds: &Dataset, n_pairs: usize) {
    assert_eq!(store.class_labels(), ds.schema().class().domain().labels());
    assert_eq!(store.class_counts(), ds.class_counts().as_slice());
    assert_eq!(store.total_records(), ds.n_rows() as u64);
    assert_eq!(store.n_pair_cubes(), n_pairs);
    for (key, cube) in held(store) {
        assert_eq!(*cube, build_cube(ds, &key).unwrap(), "cube {key:?}");
    }
}

#[test]
fn a_built_store_shares_its_labels() {
    let ds = dataset();
    for n_threads in [1, 3] {
        let store = build(&ds, n_threads);
        assert_shared(&store);
        assert_same(&store, &ds, 6);
    }
}

#[test]
fn kernel_levels_share_their_labels() {
    let ds = dataset();
    let index = Arc::new(ColumnIndex::build(&ds).unwrap());
    let anchored = index
        .selector()
        .narrow(0, 1)
        .unwrap()
        .build_store_anchored(None, 3)
        .unwrap();
    assert_shared(&anchored);
    assert_same(&anchored, &ds.sub_population(0, 1).unwrap(), 3);
    let eager = index.selector().build_store_eager(None).unwrap();
    assert_shared(&eager);
    assert_same(&eager, &ds, 6);
}

#[test]
fn a_decoded_store_shares_its_labels() {
    let ds = dataset();
    let anchored = Arc::new(ColumnIndex::build(&ds).unwrap())
        .selector()
        .build_store_anchored(None, 1)
        .unwrap();
    for (store, n_pairs) in [(build(&ds, 2), 6), (anchored, 3)] {
        let back = decode_store(encode_store(&store).unwrap()).unwrap();
        assert_shared(&back);
        assert_same(&back, &ds, n_pairs);
    }
}

#[test]
fn folded_and_merged_stores_share_their_labels() {
    let ds = dataset();
    let (head, tail) = (rows(&ds, 0..1_100), rows(&ds, 1_100..3_000));

    // A snapshot pins the cubes, so the fold copies each one first.
    let mut folded = build(&head, 2);
    let pinned = folded.clone();
    folded.fold(&tail).unwrap();
    assert_shared(&folded);
    assert_same(&folded, &ds, 6);
    assert_same(&pinned, &head, 6);

    let merged = build(&head, 2).merge(&build(&tail, 2)).unwrap();
    assert_shared(&merged);
    assert_same(&merged, &ds, 6);

    let mut merged_from = build(&head, 2);
    merged_from.merge_from(&build(&tail, 2)).unwrap();
    assert_shared(&merged_from);
    assert_same(&merged_from, &ds, 6);
}

/// A cube over the attributes `over` of a three-attribute schema (`X`,
/// `Y`, `Z`), each given with its two value labels, holding one row per
/// cell.
fn hand_cube(over: &[(usize, [&str; 2])], class_labels: [&str; 2]) -> RuleCube {
    let dims = over
        .iter()
        .map(|&(a, labels)| CubeDim {
            attr_index: a,
            name: ["X", "Y", "Z"][a].into(),
            labels: labels.map(String::from).to_vec().into(),
        })
        .collect();
    let mut cube = RuleCube::new(dims, class_labels.map(String::from).to_vec());
    let cells: Vec<_> = cube.iter_cells().collect();
    for (coords, class, _) in cells {
        cube.add(&coords, class, 1).unwrap();
    }
    cube
}

/// A store payload in `encode_store`'s layout, framed as it frames one,
/// so its cubes can disagree in ways no builder writes.
fn store_bytes(class_labels: [&str; 2], one_d: &[RuleCube], pairs: &[RuleCube]) -> Bytes {
    let mut payload = Vec::new();
    let put_cube = |payload: &mut Vec<u8>, cube: &RuleCube| {
        let blob = encode_cube(cube).unwrap();
        payload.extend((blob.len() as u64).to_le_bytes());
        payload.extend_from_slice(&blob);
    };
    payload.extend((one_d.len() as u32).to_le_bytes());
    for cube in one_d {
        payload.extend((cube.dims()[0].attr_index as u32).to_le_bytes());
    }
    payload.extend((class_labels.len() as u32).to_le_bytes());
    for label in class_labels {
        payload.extend((label.len() as u32).to_le_bytes());
        payload.extend(label.as_bytes());
    }
    for count in one_d[0].class_margin() {
        payload.extend(count.to_le_bytes());
    }
    payload.extend(one_d[0].total().to_le_bytes());
    for cube in one_d {
        put_cube(&mut payload, cube);
    }
    payload.extend((pairs.len() as u32).to_le_bytes());
    for cube in pairs {
        for dim in cube.dims() {
            payload.extend((dim.attr_index as u32).to_le_bytes());
        }
        put_cube(&mut payload, cube);
    }
    let mut framed = b"OMCS\x02".to_vec();
    framed.extend((payload.len() as u64).to_le_bytes());
    framed.extend(&payload);
    framed.extend(crc32(&payload).to_le_bytes());
    Bytes::from(framed)
}

/// The codec accepts a store whose cubes disagree on an attribute's or
/// the class's labels, and reads each cube as it was written: a
/// disagreeing dimension or class-label list keeps its own copy, and
/// only an equal one is shared.
#[test]
fn a_store_whose_cubes_disagree_on_labels_decodes_as_written() {
    let classes = ["yes", "no"];
    let (x, y, z) = ((0, ["x0", "x1"]), (1, ["y0", "y1"]), (2, ["z0", "z1"]));
    let one_d = [x, y, z].map(|dim| hand_cube(&[dim], classes));
    let pairs = [
        // X relabelled.
        hand_cube(&[(0, ["x0", "other"]), y], classes),
        // The class relabelled.
        hand_cube(&[x, z], ["yes", "maybe"]),
        // Agreeing throughout.
        hand_cube(&[y, z], classes),
    ];
    let store = decode_store(store_bytes(classes, &one_d, &pairs)).unwrap();
    assert_eq!(store.attrs(), [0, 1, 2]);
    assert_eq!(store.class_labels(), classes);
    for (cube, want) in held(&store)
        .iter()
        .map(|(_, c)| c)
        .zip(one_d.iter().chain(&pairs))
    {
        assert_eq!(**cube, *want);
    }

    let shared = |dim: &CubeDim| Arc::ptr_eq(&dim.labels, &own_dim(&store, dim.attr_index).labels);
    let shares_classes =
        |cube: &RuleCube| std::ptr::eq(cube.class_labels().as_ptr(), store.class_labels().as_ptr());
    let xy = store.pair(0, 1).unwrap();
    assert!(!shared(&xy.dims()[0]) && shared(&xy.dims()[1]));
    assert!(shares_classes(&xy));
    let xz = store.pair(0, 2).unwrap();
    assert!(xz.dims().iter().all(shared) && !shares_classes(&xz));
    let yz = store.pair(1, 2).unwrap();
    assert!(yz.dims().iter().all(shared) && shares_classes(&yz));
}
