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

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use om_data::DataError;
use om_fault::fail::{self, Seam};

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

/// One length-prefixed string's bytes, not yet checked as UTF-8: a
/// view into `buf`, not a copy.
fn get_raw_str(buf: &mut Bytes) -> Result<Bytes, DataError> {
    if buf.remaining() < 4 {
        return Err(DataError::Decode("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(DataError::Decode("truncated string payload".into()));
    }
    Ok(buf.copy_to_bytes(len))
}

fn utf8(raw: &[u8]) -> Result<&str, DataError> {
    std::str::from_utf8(raw).map_err(|e| DataError::Decode(format!("invalid UTF-8: {e}")))
}

/// `n` length-prefixed labels: `seen` itself when they equal it byte
/// for byte, else a new copy. Nothing is allocated while every label
/// read so far matches `seen`.
fn get_labels(
    buf: &mut Bytes,
    n: usize,
    seen: Option<&Arc<[String]>>,
) -> Result<Arc<[String]>, DataError> {
    let seen = seen.filter(|s| s.len() == n);
    // `None` while every label so far equals `seen`'s.
    let mut own: Option<Vec<String>> = None;
    for i in 0..n {
        let raw = get_raw_str(buf)?;
        let matches = own.is_none()
            && seen
                .and_then(|s| s.get(i))
                .is_some_and(|l| *l.as_bytes() == *raw);
        if !matches {
            let labels = own.get_or_insert_with(|| {
                // Every label takes at least its 4-byte length prefix.
                let mut v = Vec::with_capacity(n.min(1 + buf.remaining() / 4));
                v.extend(seen.iter().flat_map(|s| s.iter().take(i)).cloned());
                v
            });
            labels.push(utf8(&raw)?.to_owned());
        }
    }
    Ok(match (own, seen) {
        (None, Some(s)) => Arc::clone(s),
        (own, _) => own.unwrap_or_default().into(),
    })
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
        for l in d.labels.iter() {
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

/// The labels one store's decoded cubes share: the first dimension
/// decoded for each attribute, and the store's class labels. A cube
/// whose dimension or class labels equal these takes their `Arc`s; one
/// that differs keeps its own copy, so sharing changes no decode verdict.
/// The encoded bytes are compared with the shared labels before any
/// string is allocated, so a shared dimension costs no allocation.
#[derive(Default)]
struct SharedLabels {
    dims: HashMap<usize, CubeDim>,
    class_labels: Option<Arc<[String]>>,
}

impl SharedLabels {
    /// The dimension over `attr_index` that `buf` encodes next (its name,
    /// label count and labels).
    fn get_dim(&mut self, attr_index: usize, buf: &mut Bytes) -> Result<CubeDim, DataError> {
        let seen = self.dims.get(&attr_index).cloned();
        let raw = get_raw_str(buf)?;
        let name: Arc<str> = match &seen {
            Some(d) if *d.name.as_bytes() == *raw => Arc::clone(&d.name),
            _ => utf8(&raw)?.into(),
        };
        if buf.remaining() < 4 {
            return Err(DataError::Decode("truncated label count".into()));
        }
        let n_labels = buf.get_u32_le() as usize;
        if n_labels == 0 {
            return Err(DataError::Decode(format!(
                "dimension {name:?} has no labels"
            )));
        }
        let same_name = seen.as_ref().filter(|d| Arc::ptr_eq(&d.name, &name));
        let labels = get_labels(buf, n_labels, same_name.map(|d| &d.labels))?;
        let dim = CubeDim {
            attr_index,
            name,
            labels,
        };
        if seen.is_none() {
            self.dims.insert(attr_index, dim.clone());
        }
        Ok(dim)
    }

    /// The `n` class labels that `buf` encodes next.
    fn get_class_labels(&mut self, buf: &mut Bytes, n: usize) -> Result<Arc<[String]>, DataError> {
        let labels = get_labels(buf, n, self.class_labels.as_ref())?;
        if self.class_labels.is_none() {
            self.class_labels = Some(Arc::clone(&labels));
        }
        Ok(labels)
    }
}

fn decode_cube_body(mut buf: Bytes, shared: &mut SharedLabels) -> Result<RuleCube, DataError> {
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
        dims.push(shared.get_dim(attr_index, &mut buf)?);
    }
    if buf.remaining() < 4 {
        return Err(DataError::Decode("truncated class count".into()));
    }
    let n_classes = buf.get_u32_le() as usize;
    if n_classes == 0 {
        return Err(DataError::Decode("cube has no classes".into()));
    }
    let class_labels = shared.get_class_labels(&mut buf, n_classes)?;
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
    decode_shared_cube(buf, &mut SharedLabels::default())
}

/// [`decode_cube`], sharing labels with the cubes decoded before it.
fn decode_shared_cube(buf: Bytes, shared: &mut SharedLabels) -> Result<RuleCube, DataError> {
    fail::inject(Seam::CubeDecode).map_err(|e| DataError::Decode(e.to_string()))?;
    decode_cube_body(open_frame(buf, MAGIC, "cube")?, shared)
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
    // The held pairs only, in key order: a partial store writes the pairs
    // it holds, not every key of its attribute set.
    let held = store.held_pairs();
    buf.put_u32_le(held.len() as u32);
    for ((a, b), cube) in &held {
        buf.put_u32_le(*a as u32);
        buf.put_u32_le(*b as u32);
        put_cube(&mut buf, cube)?;
    }
    Ok(buf)
}

/// Serialize an entire cube store (the paper's overnight artifact): the
/// attribute list, class metadata, every 2-D cube, and the 3-D cubes the
/// store holds ([`CubeStore::held_pairs`](crate::store::CubeStore::held_pairs)
/// — a partial store round-trips as the same partial store). Each
/// nested cube keeps its own integrity frame, so corruption is
/// localized to a cube when reported.
///
/// # Errors
/// Fails if any label is too large for its length prefix.
pub fn encode_store(store: &crate::store::CubeStore) -> Result<Bytes, DataError> {
    Ok(frame(STORE_MAGIC, &encode_store_body(store)?))
}

fn decode_store_body(mut buf: Bytes) -> Result<crate::store::CubeStore, DataError> {
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
    // The 1-D cubes come first, so each attribute's shared dimension is
    // its 1-D cube's, and every pair cube that agrees with it takes it.
    let mut shared = SharedLabels::default();
    let class_labels = shared.get_class_labels(&mut buf, n_classes)?;
    let mut class_counts = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        need(&buf, 8, "class counts")?;
        class_counts.push(buf.get_u64_le());
    }
    need(&buf, 8, "total records")?;
    let total_records = buf.get_u64_le();

    let mut get_cube = |buf: &mut Bytes| -> Result<RuleCube, DataError> {
        if buf.remaining() < 8 {
            return Err(DataError::Decode("truncated cube length".into()));
        }
        let len = buf.get_u64_le() as usize;
        if buf.remaining() < len {
            return Err(DataError::Decode("truncated cube blob".into()));
        }
        decode_shared_cube(buf.copy_to_bytes(len), &mut shared)
    };
    // Every cube is filed under the key it arrived with; a key that
    // disagrees with the cube's own dimensions, names an attribute the
    // store does not list, or repeats would let a later merge add counts
    // into the wrong cube.
    let filed_as = |cube: &RuleCube, key: &[usize]| {
        cube.dims()
            .iter()
            .map(|d| d.attr_index)
            .eq(key.iter().copied())
    };
    let mut one_d = HashMap::with_capacity(n_attrs);
    for &a in &attrs {
        let cube = get_cube(&mut buf)?;
        if !filed_as(&cube, &[a]) {
            return Err(DataError::Decode(format!(
                "1-D cube filed under attribute {a} has other dimensions"
            )));
        }
        if one_d.insert(a, Arc::new(cube)).is_some() {
            return Err(DataError::Decode(format!("attribute {a} listed twice")));
        }
    }
    need(&buf, 4, "pair count")?;
    let n_pairs = buf.get_u32_le() as usize;
    let mut pairs = HashMap::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        need(&buf, 8, "pair key")?;
        let (x, y) = (buf.get_u32_le() as usize, buf.get_u32_le() as usize);
        let (a, b) = (x.min(y), x.max(y));
        if a == b || !one_d.contains_key(&a) || !one_d.contains_key(&b) {
            return Err(DataError::Decode(format!(
                "pair key ({x}, {y}) is not two of the store's attributes"
            )));
        }
        let cube = get_cube(&mut buf)?;
        if !filed_as(&cube, &[a, b]) {
            return Err(DataError::Decode(format!(
                "pair cube filed under ({a}, {b}) has other dimensions"
            )));
        }
        if pairs.insert((a, b), Arc::new(cube)).is_some() {
            return Err(DataError::Decode(format!("pair key ({a}, {b}) repeated")));
        }
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

/// Deserialize a cube store written by [`encode_store`]. The result
/// holds exactly the cubes the bytes carry.
///
/// # Errors
/// Fails on bad magic/version, truncation, checksum mismatch, or
/// inconsistent cube blobs.
pub fn decode_store(buf: Bytes) -> Result<crate::store::CubeStore, DataError> {
    fail::inject(Seam::StoreDecode).map_err(|e| DataError::Decode(e.to_string()))?;
    decode_store_body(open_frame(buf, STORE_MAGIC, "store")?)
}

#[cfg(test)]
mod store_tests {
    use super::*;
    use crate::kernel::ColumnIndex;
    use crate::store::{CubeStore, StoreBuildOptions};
    use om_synth::{generate_scaleup, ScaleUpConfig};

    fn dataset() -> om_data::Dataset {
        generate_scaleup(&ScaleUpConfig {
            n_attrs: 5,
            n_records: 2_000,
            seed: 77,
            ..ScaleUpConfig::default()
        })
    }

    fn store() -> CubeStore {
        CubeStore::build(&dataset(), &StoreBuildOptions::default()).unwrap()
    }

    /// A kernel-built store anchored on attribute 2: four of the ten
    /// pairs held, the other six cold.
    fn anchored_store() -> CubeStore {
        std::sync::Arc::new(ColumnIndex::build(&dataset()).unwrap())
            .selector()
            .build_store_anchored(None, 2)
            .unwrap()
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
    fn anchored_store_round_trips_without_building_a_pair() {
        let original = anchored_store();
        let back = decode_store(encode_store(&original).unwrap()).unwrap();
        let (held, sent) = (back.held_pairs(), original.held_pairs());
        let keys: Vec<_> = held.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [(0, 2), (1, 2), (2, 3), (2, 4)]);
        for ((_, got), (_, want)) in held.iter().zip(&sent) {
            assert_eq!(**got, **want);
        }
        for &a in original.attrs() {
            assert_eq!(*back.one_dim(a).unwrap(), *original.one_dim(a).unwrap());
        }
        assert_eq!(back.class_counts(), original.class_counts());
        // Decoded stores keep no selector: a pair that was not sent is
        // absent, not rebuilt.
        assert!(back.pair(0, 1).is_err());
    }

    /// Where a store payload keeps its pair count and each pair entry
    /// (8 key bytes, then the length-prefixed cube).
    fn pair_layout(payload: &[u8]) -> (usize, Vec<usize>) {
        let u32_at =
            |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
        let u64_at =
            |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
        let n_attrs = u32_at(0);
        let mut at = 4 + 4 * n_attrs;
        let n_classes = u32_at(at);
        at += 4;
        for _ in 0..n_classes {
            at += 4 + u32_at(at);
        }
        at += 8 * n_classes + 8;
        for _ in 0..n_attrs {
            at += 8 + u64_at(at);
        }
        let count_at = at;
        at += 4;
        let mut entries = Vec::new();
        for _ in 0..u32_at(count_at) {
            entries.push(at);
            at += 16 + u64_at(at + 8);
        }
        assert_eq!(at, payload.len(), "layout walk out of step with the codec");
        (count_at, entries)
    }

    /// The CRC only guards against accidents: a peer that re-seals the
    /// frame after editing a key must still not get a cube filed where a
    /// merge would add its counts into another pair's.
    #[test]
    fn rewritten_keys_are_decode_errors() {
        let sealed = encode_store(&anchored_store()).unwrap();
        let payload = open_frame(sealed, STORE_MAGIC, "store").unwrap().to_vec();
        let (count_at, entries) = pair_layout(&payload);
        let reseal = |payload: &[u8]| decode_store(frame(STORE_MAGIC, payload));
        let original = [(0, 2), (1, 2), (2, 3), (2, 4)];
        // Every pair key against every small replacement: a == b, an
        // attribute outside the list (5, 6), another held pair's key, a
        // pair nobody sent.
        for (&at, want) in entries.iter().zip(original) {
            for x in 0..7u32 {
                for y in 0..7u32 {
                    let mut edited = payload.clone();
                    edited[at..at + 4].copy_from_slice(&x.to_le_bytes());
                    edited[at + 4..at + 8].copy_from_slice(&y.to_le_bytes());
                    match reseal(&edited) {
                        Ok(store) => {
                            assert_eq!((x.min(y) as usize, x.max(y) as usize), want);
                            for ((a, b), cube) in store.held_pairs() {
                                let dims: Vec<_> =
                                    cube.dims().iter().map(|d| d.attr_index).collect();
                                assert_eq!(dims, [a, b]);
                            }
                        }
                        Err(DataError::Decode(_)) => {}
                        Err(other) => panic!("key {want:?} -> ({x}, {y}): {other:?}"),
                    }
                }
            }
        }
        // The first pair sent twice (its dimensions do match its key).
        let mut twice = payload.clone();
        twice.extend_from_slice(&payload[entries[0]..entries[1]]);
        twice[count_at..count_at + 4].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(reseal(&twice), Err(DataError::Decode(m)) if m.contains("repeated")));
        // The attribute list naming attribute 1 twice: the first 1-D cube
        // is attribute 0's.
        let mut renamed = payload.clone();
        renamed[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(reseal(&renamed), Err(DataError::Decode(_))));
        assert!(reseal(&payload).is_ok());
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
                labels: vec!["ph1".into(), "ph2".into()].into(),
            },
            CubeDim {
                attr_index: 5,
                name: "Time".into(),
                labels: vec!["am".into(), "pm".into(), "eve".into()].into(),
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
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
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
            labels: vec!["a".into()].into(),
        }];
        let cube = RuleCube::new(dims, vec!["c".into()]);
        let back = decode_cube(encode_cube(&cube).unwrap()).unwrap();
        assert_eq!(back, cube);
        assert_eq!(back.total(), 0);
    }
}
