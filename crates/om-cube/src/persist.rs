//! Binary persistence for rule cubes, matching the offline-generation
//! workflow: cubes are built overnight (Fig. 10/11 cost) and reloaded for
//! interactive analysis.
//!
//! # Frame format
//!
//! Every encoded artifact is wrapped in an integrity frame:
//!
//! ```text
//! [magic: 4][version: 1][payload_len: u64 le][payload][crc32: u32 le]
//! ```
//!
//! The decoder requires the buffer to hold *exactly*
//! `payload_len + 4` bytes past the header and verifies the IEEE CRC32
//! of the payload, so truncation, trailing garbage, and any single-bit
//! flip (including in the length field) is rejected with a typed error —
//! never a panic and never a silently-wrong cube.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use om_data::DataError;
use om_fault::fail;

use crate::cube::{CubeDim, RuleCube};

const MAGIC: &[u8; 4] = b"OMRC";
const STORE_MAGIC: &[u8; 4] = b"OMCS";
/// The one frame version: length-prefixed payload followed by CRC32.
const VERSION: u8 = 2;

/// IEEE CRC32 (the ubiquitous zip/PNG polynomial), table-driven.
/// Hand-rolled because the build environment vendors no compression or
/// hashing crates. Public so `om-ingest` can frame its write-ahead log
/// with the same checksum discipline.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

fn put_str(buf: &mut BytesMut, s: &str) -> Result<(), DataError> {
    let len = u32::try_from(s.len()).map_err(|_| {
        DataError::Invalid(format!(
            "string of {} bytes exceeds the u32 length prefix",
            s.len()
        ))
    })?;
    buf.put_u32_le(len);
    buf.put_slice(s.as_bytes());
    Ok(())
}

fn get_str(buf: &mut Bytes) -> Result<String, DataError> {
    if buf.remaining() < 4 {
        return Err(DataError::Decode("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(DataError::Decode("truncated string payload".into()));
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|e| DataError::Decode(format!("invalid UTF-8: {e}")))
}

/// Wrap `payload` in the integrity frame.
fn frame(magic: &[u8; 4], payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload.len() + 17);
    buf.put_slice(magic);
    buf.put_u8(VERSION);
    buf.put_u64_le(payload.len() as u64);
    buf.put_slice(payload);
    buf.put_u32_le(crc32(payload));
    buf.freeze()
}

/// Strip and verify a frame, returning the raw payload.
fn open_frame(mut buf: Bytes, magic: &[u8; 4], what: &str) -> Result<Bytes, DataError> {
    if buf.remaining() < 5 {
        return Err(DataError::Decode(format!("{what} payload too short")));
    }
    let mut m = [0u8; 4];
    buf.copy_to_slice(&mut m);
    if &m != magic {
        let tag = String::from_utf8_lossy(magic).into_owned();
        return Err(DataError::Decode(format!(
            "bad magic (not an {tag} payload)"
        )));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(DataError::Decode(format!("unsupported version {version}")));
    }
    if buf.remaining() < 8 {
        return Err(DataError::Decode(format!("truncated {what} frame header")));
    }
    let len = buf.get_u64_le();
    // Exact-length check: a flipped bit in the length field (or
    // truncation, or trailing garbage) can never line up with the bytes
    // actually present.
    let expected_remaining = len
        .checked_add(4)
        .ok_or_else(|| DataError::Decode(format!("{what} frame length overflows")))?;
    if buf.remaining() as u64 != expected_remaining {
        return Err(DataError::Decode(format!(
            "{what} frame length mismatch: header says {len} payload bytes, {} present",
            (buf.remaining() as u64).saturating_sub(4)
        )));
    }
    let payload = buf.copy_to_bytes(len as usize);
    let expected = buf.get_u32_le();
    let found = crc32(&payload);
    if expected != found {
        return Err(DataError::ChecksumMismatch { expected, found });
    }
    Ok(payload)
}

fn encode_cube_body(cube: &RuleCube) -> Result<BytesMut, DataError> {
    let mut buf = BytesMut::with_capacity(64 + cube.n_cells() * 8);
    buf.put_u32_le(cube.n_attr_dims() as u32);
    for d in cube.dims() {
        buf.put_u32_le(d.attr_index as u32);
        put_str(&mut buf, &d.name)?;
        buf.put_u32_le(d.labels.len() as u32);
        for l in &d.labels {
            put_str(&mut buf, l)?;
        }
    }
    buf.put_u32_le(cube.n_classes() as u32);
    for l in cube.class_labels() {
        put_str(&mut buf, l)?;
    }
    for (_, _, count) in cube.iter_cells() {
        buf.put_u64_le(count);
    }
    Ok(buf)
}

fn decode_cube_body(mut buf: Bytes) -> Result<RuleCube, DataError> {
    if buf.remaining() < 4 {
        return Err(DataError::Decode("truncated dim count".into()));
    }
    let n_dims = buf.get_u32_le() as usize;
    let mut dims = Vec::with_capacity(n_dims);
    for _ in 0..n_dims {
        if buf.remaining() < 4 {
            return Err(DataError::Decode("truncated dim header".into()));
        }
        let attr_index = buf.get_u32_le() as usize;
        let name = get_str(&mut buf)?;
        if buf.remaining() < 4 {
            return Err(DataError::Decode("truncated label count".into()));
        }
        let n_labels = buf.get_u32_le() as usize;
        let mut labels = Vec::with_capacity(n_labels);
        for _ in 0..n_labels {
            labels.push(get_str(&mut buf)?);
        }
        if labels.is_empty() {
            return Err(DataError::Decode(format!(
                "dimension {name:?} has no labels"
            )));
        }
        dims.push(CubeDim {
            attr_index,
            name,
            labels,
        });
    }
    if buf.remaining() < 4 {
        return Err(DataError::Decode("truncated class count".into()));
    }
    let n_classes = buf.get_u32_le() as usize;
    if n_classes == 0 {
        return Err(DataError::Decode("cube has no classes".into()));
    }
    let mut class_labels = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        class_labels.push(get_str(&mut buf)?);
    }
    let mut cube = RuleCube::new(dims, class_labels);
    let n_cells = cube.n_cells();
    if buf.remaining() < n_cells * 8 {
        return Err(DataError::Decode("truncated count tensor".into()));
    }
    let mut total = 0u64;
    for slot in cube.counts_mut() {
        let v = buf.get_u64_le();
        *slot = v;
        total = total
            .checked_add(v)
            .ok_or_else(|| DataError::Decode("count tensor overflows u64 total".into()))?;
    }
    cube.set_total(total);
    Ok(cube)
}

/// Serialize a rule cube in the checksummed frame format.
///
/// # Errors
/// Fails if any label is too large for its length prefix.
pub fn encode_cube(cube: &RuleCube) -> Result<Bytes, DataError> {
    Ok(frame(MAGIC, &encode_cube_body(cube)?))
}

/// Deserialize a rule cube produced by [`encode_cube`].
///
/// # Errors
/// Fails on bad magic/version, truncation, or checksum mismatch.
pub fn decode_cube(buf: Bytes) -> Result<RuleCube, DataError> {
    fail::inject("cube.decode").map_err(|e| DataError::Decode(e.to_string()))?;
    decode_cube_body(open_frame(buf, MAGIC, "cube")?)
}

fn encode_store_body(store: &crate::store::CubeStore) -> Result<BytesMut, DataError> {
    let mut buf = BytesMut::with_capacity(1024);
    buf.put_u32_le(store.attrs().len() as u32);
    for &a in store.attrs() {
        buf.put_u32_le(a as u32);
    }
    buf.put_u32_le(store.class_labels().len() as u32);
    for l in store.class_labels() {
        put_str(&mut buf, l)?;
    }
    for &c in store.class_counts() {
        buf.put_u64_le(c);
    }
    buf.put_u64_le(store.total_records());

    let put_cube = |buf: &mut BytesMut, cube: &RuleCube| -> Result<(), DataError> {
        let blob = encode_cube(cube)?;
        buf.put_u64_le(blob.len() as u64);
        buf.put_slice(&blob);
        Ok(())
    };
    for &a in store.attrs() {
        put_cube(&mut buf, &store.one_dim(a).expect("attr present"))?;
    }
    let attrs = store.attrs().to_vec();
    let mut n_pairs: u32 = 0;
    let mut pair_buf = BytesMut::new();
    for (i, &a) in attrs.iter().enumerate() {
        for &b in &attrs[i + 1..] {
            if let Ok(cube) = store.pair(a, b) {
                pair_buf.put_u32_le(a as u32);
                pair_buf.put_u32_le(b as u32);
                put_cube(&mut pair_buf, &cube)?;
                n_pairs += 1;
            }
        }
    }
    buf.put_u32_le(n_pairs);
    buf.put_slice(&pair_buf);
    Ok(buf)
}

/// Serialize an entire cube store (the paper's overnight artifact): the
/// attribute list, class metadata, every 2-D cube, and every materialized
/// 3-D cube. Each nested cube keeps its own integrity frame, so
/// corruption is localized to a cube when reported.
///
/// # Errors
/// Fails if any label is too large for its length prefix.
pub fn encode_store(store: &crate::store::CubeStore) -> Result<Bytes, DataError> {
    Ok(frame(STORE_MAGIC, &encode_store_body(store)?))
}

fn decode_store_body(mut buf: Bytes) -> Result<crate::store::CubeStore, DataError> {
    use std::collections::HashMap;
    use std::sync::Arc;

    let need = |buf: &Bytes, n: usize, what: &str| -> Result<(), DataError> {
        if buf.remaining() < n {
            Err(DataError::Decode(format!("truncated {what}")))
        } else {
            Ok(())
        }
    };
    need(&buf, 4, "attr count")?;
    let n_attrs = buf.get_u32_le() as usize;
    let mut attrs = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        need(&buf, 4, "attr index")?;
        attrs.push(buf.get_u32_le() as usize);
    }
    need(&buf, 4, "class count")?;
    let n_classes = buf.get_u32_le() as usize;
    let mut class_labels = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        class_labels.push(get_str(&mut buf)?);
    }
    let mut class_counts = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        need(&buf, 8, "class counts")?;
        class_counts.push(buf.get_u64_le());
    }
    need(&buf, 8, "total records")?;
    let total_records = buf.get_u64_le();

    let get_cube = |buf: &mut Bytes| -> Result<RuleCube, DataError> {
        if buf.remaining() < 8 {
            return Err(DataError::Decode("truncated cube length".into()));
        }
        let len = buf.get_u64_le() as usize;
        if buf.remaining() < len {
            return Err(DataError::Decode("truncated cube blob".into()));
        }
        decode_cube(buf.copy_to_bytes(len))
    };
    let mut one_d = HashMap::with_capacity(n_attrs);
    for &a in &attrs {
        one_d.insert(a, Arc::new(get_cube(&mut buf)?));
    }
    need(&buf, 4, "pair count")?;
    let n_pairs = buf.get_u32_le() as usize;
    let mut pairs = HashMap::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        need(&buf, 8, "pair key")?;
        let a = buf.get_u32_le() as usize;
        let b = buf.get_u32_le() as usize;
        pairs.insert((a.min(b), a.max(b)), Arc::new(get_cube(&mut buf)?));
    }
    Ok(crate::store::CubeStore::assemble(
        attrs,
        class_labels,
        class_counts,
        total_records,
        one_d,
        pairs,
    ))
}

/// Deserialize a cube store written by [`encode_store`]. The result is
/// always an eager store.
///
/// # Errors
/// Fails on bad magic/version, truncation, checksum mismatch, or
/// inconsistent cube blobs.
pub fn decode_store(buf: Bytes) -> Result<crate::store::CubeStore, DataError> {
    fail::inject("store.decode").map_err(|e| DataError::Decode(e.to_string()))?;
    decode_store_body(open_frame(buf, STORE_MAGIC, "store")?)
}

#[cfg(test)]
mod store_tests {
    use super::*;
    use crate::store::{CubeStore, StoreBuildOptions};
    use om_synth::{generate_scaleup, ScaleUpConfig};

    fn store() -> CubeStore {
        let ds = generate_scaleup(&ScaleUpConfig {
            n_attrs: 5,
            n_records: 2_000,
            seed: 77,
            ..ScaleUpConfig::default()
        });
        CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap()
    }

    fn assert_stores_equal(back: &CubeStore, original: &CubeStore) {
        assert_eq!(back.attrs(), original.attrs());
        assert_eq!(back.class_labels(), original.class_labels());
        assert_eq!(back.class_counts(), original.class_counts());
        assert_eq!(back.total_records(), original.total_records());
        assert_eq!(back.n_pair_cubes(), original.n_pair_cubes());
        for &a in original.attrs() {
            assert_eq!(*back.one_dim(a).unwrap(), *original.one_dim(a).unwrap());
        }
        for (i, &a) in original.attrs().iter().enumerate() {
            for &b in &original.attrs()[i + 1..] {
                assert_eq!(*back.pair(a, b).unwrap(), *original.pair(a, b).unwrap());
            }
        }
    }

    #[test]
    fn store_round_trip() {
        let original = store();
        let back = decode_store(encode_store(&original).unwrap()).unwrap();
        assert_stores_equal(&back, &original);
    }

    #[test]
    fn store_truncation_rejected() {
        let full = encode_store(&store()).unwrap();
        // Sampled cuts (full scan is slow on a multi-KB payload).
        for cut in [0usize, 3, 4, 5, 9, 40, full.len() / 2, full.len() - 1] {
            assert!(decode_store(full.slice(0..cut)).is_err(), "cut {cut}");
        }
        assert!(decode_store(full).is_ok());
    }

    #[test]
    fn store_bit_flips_rejected() {
        let full = encode_store(&store()).unwrap();
        let stride = (full.len() / 64).max(1);
        for byte in (0..full.len()).step_by(stride) {
            for bit in 0..8 {
                let mut corrupt = full.to_vec();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    decode_store(Bytes::from(corrupt)).is_err(),
                    "flip of byte {byte} bit {bit} silently accepted"
                );
            }
        }
    }

    #[test]
    fn store_bad_magic() {
        assert!(decode_store(Bytes::from_static(b"XXXX\x01")).is_err());
    }

    #[test]
    fn reloaded_store_supports_comparison_workloads() {
        // The reloaded artifact must behave identically for reads.
        let original = store();
        let back = decode_store(encode_store(&original).unwrap()).unwrap();
        let pair = back.pair(0, 1).unwrap();
        assert!(pair.total() > 0);
        assert_eq!(
            pair.class_margin(),
            original.pair(0, 1).unwrap().class_margin()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RuleCube {
        let dims = vec![
            CubeDim {
                attr_index: 2,
                name: "Phone".into(),
                labels: vec!["ph1".into(), "ph2".into()],
            },
            CubeDim {
                attr_index: 5,
                name: "Time".into(),
                labels: vec!["am".into(), "pm".into(), "eve".into()],
            },
        ];
        let mut c = RuleCube::new(dims, vec!["ok".into(), "drop".into()]);
        for (i, (coords, class)) in [([0, 0], 0), ([0, 1], 1), ([1, 2], 0), ([1, 0], 1)]
            .iter()
            .enumerate()
        {
            c.add(&coords[..], *class, (i as u64 + 1) * 10).unwrap();
        }
        c
    }

    #[test]
    fn crc32_known_vectors() {
        // Check-value from the CRC catalogue: CRC-32/ISO-HDLC("123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn round_trip_identity() {
        let cube = sample();
        let back = decode_cube(encode_cube(&cube).unwrap()).unwrap();
        assert_eq!(back, cube);
        assert_eq!(back.total(), cube.total());
        assert_eq!(back.dims()[1].attr_index, 5);
    }

    #[test]
    fn truncation_always_errors() {
        let full = encode_cube(&sample()).unwrap();
        for cut in 0..full.len() {
            assert!(
                decode_cube(full.slice(0..cut)).is_err(),
                "truncation at {cut} silently accepted"
            );
        }
        assert!(decode_cube(full).is_ok());
    }

    #[test]
    fn every_single_bit_flip_errors() {
        let full = encode_cube(&sample()).unwrap();
        for byte in 0..full.len() {
            for bit in 0..8 {
                let mut corrupt = full.to_vec();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    decode_cube(Bytes::from(corrupt)).is_err(),
                    "flip of byte {byte} bit {bit} silently accepted"
                );
            }
        }
    }

    #[test]
    fn checksum_mismatch_is_typed() {
        let full = encode_cube(&sample()).unwrap();
        let mut corrupt = full.to_vec();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01; // flip a CRC bit: payload parses, checksum differs
        match decode_cube(Bytes::from(corrupt)) {
            Err(DataError::ChecksumMismatch { expected, found }) => assert_ne!(expected, found),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let full = encode_cube(&sample()).unwrap();
        let mut padded = full.to_vec();
        padded.push(0);
        assert!(decode_cube(Bytes::from(padded)).is_err());
    }

    #[test]
    fn bad_magic_and_version() {
        assert!(decode_cube(Bytes::from_static(b"NOPE\x01")).is_err());
        assert!(decode_cube(Bytes::from_static(b"OMRC\x09")).is_err());
    }

    #[test]
    fn empty_cube_round_trips() {
        let dims = vec![CubeDim {
            attr_index: 0,
            name: "X".into(),
            labels: vec!["a".into()],
        }];
        let cube = RuleCube::new(dims, vec!["c".into()]);
        let back = decode_cube(encode_cube(&cube).unwrap()).unwrap();
        assert_eq!(back, cube);
        assert_eq!(back.total(), 0);
    }
}
