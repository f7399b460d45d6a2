//! Property-based robustness tests for the persistence codecs: whatever
//! bytes arrive — random garbage, truncations of real artifacts, single
//! bit flips — the decoders must return a typed error, never panic, and
//! V2 framing must catch every corruption of a valid blob.

use bytes::Bytes;
use om_cube::persist::{decode_cube, decode_store, encode_cube, encode_store};
use om_cube::{build_cube, CubeStore, RuleCube, StoreBuildOptions};
use om_data::{Cell, DataError, DatasetBuilder};
use proptest::prelude::*;

fn small_cube() -> RuleCube {
    let mut b = DatasetBuilder::new()
        .categorical("A")
        .categorical("B")
        .class("C");
    for i in 0..40u32 {
        let a = if i % 2 == 0 { "a0" } else { "a1" };
        let bb = match i % 3 {
            0 => "b0",
            1 => "b1",
            _ => "b2",
        };
        let c = if i % 5 == 0 { "y" } else { "n" };
        b.push_row(&[Cell::Str(a), Cell::Str(bb), Cell::Str(c)])
            .unwrap();
    }
    let ds = b.finish().unwrap();
    build_cube(&ds, &[0, 1]).unwrap()
}

fn small_store() -> CubeStore {
    let mut b = DatasetBuilder::new()
        .categorical("A")
        .categorical("B")
        .class("C");
    for i in 0..40u32 {
        let a = if i % 2 == 0 { "a0" } else { "a1" };
        let bb = if i % 3 == 0 { "b0" } else { "b1" };
        let c = if i % 5 == 0 { "y" } else { "n" };
        b.push_row(&[Cell::Str(a), Cell::Str(bb), Cell::Str(c)])
            .unwrap();
    }
    let ds = b.finish().unwrap();
    CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap()
}

proptest! {
    /// Fully arbitrary bytes: both decoders must answer with `Err`, not
    /// a panic or an abort, no matter what arrives off the wire.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(raw in proptest::collection::vec(0u8..=255, 0usize..512)) {
        let _ = decode_cube(Bytes::from(raw.clone()));
        let _ = decode_store(Bytes::from(raw));
    }

    /// Arbitrary bytes behind a valid magic exercise the frame and body
    /// parsers rather than bouncing off the magic check. Version 2 is
    /// the one frame; any other version byte — 1 included — is the same
    /// typed error.
    #[test]
    fn garbage_behind_valid_prefixes_never_panics(
        body in proptest::collection::vec(0u8..=255, 0usize..256),
        version in 0u8..=3,
    ) {
        let mut cube_blob = b"OMRC".to_vec();
        cube_blob.push(version);
        cube_blob.extend_from_slice(&body);
        let cube = decode_cube(Bytes::from(cube_blob));

        let mut store_blob = b"OMCS".to_vec();
        store_blob.push(version);
        store_blob.extend_from_slice(&body);
        let store = decode_store(Bytes::from(store_blob));

        if version != 2 {
            let expected = format!("unsupported version {version}");
            prop_assert!(matches!(cube, Err(DataError::Decode(why)) if why == expected));
            prop_assert!(matches!(store, Err(DataError::Decode(why)) if why == expected));
        }
    }

    /// Every proper prefix of a real V2 artifact is rejected cleanly.
    #[test]
    fn truncations_of_real_artifacts_error(cut in 0usize..1000) {
        let blob = encode_cube(&small_cube()).unwrap();
        let cube_cut = cut % blob.len();
        prop_assert!(decode_cube(blob.slice(0..cube_cut)).is_err());

        let store_blob = encode_store(&small_store()).unwrap();
        let store_cut = cut % store_blob.len();
        prop_assert!(decode_store(store_blob.slice(0..store_cut)).is_err());
    }

    /// Any single bit flip anywhere in a V2 cube blob is detected.
    #[test]
    fn v2_bit_flips_are_always_detected(pos in 0usize..4096, bit in 0u8..8) {
        let blob = encode_cube(&small_cube()).unwrap();
        let mut bytes = blob.to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode_cube(Bytes::from(bytes)).is_err(),
            "flip of bit {bit} at byte {pos} went undetected"
        );
    }
}
