//! Compact binary persistence for datasets, built on the `bytes` crate.
//!
//! The Opportunity Map system generates rule cubes "off-line, e.g., in the
//! evening" (Section V-C) and analysts work on the prepared artifacts; this
//! module provides the serialization layer for that workflow. The format is
//! a little-endian tagged layout with a magic header and version byte.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::column::Column;
use crate::dataset::Dataset;
use crate::error::{DataError, Result};
use crate::schema::{AttrKind, Attribute, Domain, Schema};

const MAGIC: &[u8; 4] = b"OMDS";
const VERSION: u8 = 1;

/// Write a length-prefixed UTF-8 string.
pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub(crate) fn get_str(buf: &mut Bytes) -> Result<String> {
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

fn put_schema(buf: &mut BytesMut, schema: &Schema) {
    buf.put_u32_le(schema.n_attributes() as u32);
    buf.put_u32_le(schema.class_index() as u32);
    for attr in schema.attributes() {
        put_str(buf, attr.name());
        buf.put_u8(match attr.kind() {
            AttrKind::Categorical => 0,
            AttrKind::Continuous => 1,
        });
        buf.put_u32_le(attr.domain().len() as u32);
        for (_, label) in attr.domain().iter() {
            put_str(buf, label);
        }
    }
}

fn get_schema(buf: &mut Bytes) -> Result<Schema> {
    if buf.remaining() < 8 {
        return Err(DataError::Decode("truncated schema header".into()));
    }
    let n_attrs = buf.get_u32_le() as usize;
    let class_idx = buf.get_u32_le() as usize;
    // An attribute is at least 9 bytes on the wire (two lengths and a kind),
    // so a hostile count reserves no more than the payload could hold.
    let mut attrs = Vec::with_capacity(n_attrs.min(buf.remaining() / 9));
    for _ in 0..n_attrs {
        let name = get_str(buf)?;
        if !buf.has_remaining() {
            return Err(DataError::Decode("truncated attribute kind".into()));
        }
        let kind = buf.get_u8();
        if buf.remaining() < 4 {
            return Err(DataError::Decode("truncated domain size".into()));
        }
        let n_labels = buf.get_u32_le() as usize;
        let mut domain = Domain::new();
        for _ in 0..n_labels {
            let label = get_str(buf)?;
            domain.intern(&label);
        }
        let attr = match kind {
            0 => Attribute::categorical(name, domain),
            1 => Attribute::continuous(name),
            k => return Err(DataError::Decode(format!("unknown attribute kind {k}"))),
        };
        attrs.push(attr);
    }
    Schema::new(attrs, class_idx).map_err(|e| DataError::Decode(format!("invalid schema: {e}")))
}

/// Serialize a dataset to bytes.
pub fn encode_dataset(ds: &Dataset) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + ds.n_rows() * ds.schema().n_attributes() * 4);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    put_schema(&mut buf, ds.schema());
    buf.put_u64_le(ds.n_rows() as u64);
    for col in ds.columns() {
        match col {
            Column::Categorical(ids) => {
                buf.put_u8(0);
                for &v in ids {
                    buf.put_u32_le(v);
                }
            }
            Column::Continuous(vals) => {
                buf.put_u8(1);
                for &v in vals {
                    buf.put_f64_le(v);
                }
            }
        }
    }
    buf.freeze()
}

/// Deserialize a dataset previously produced by [`encode_dataset`].
///
/// # Errors
/// Fails on a bad magic/version or any truncation or inconsistency.
pub fn decode_dataset(mut buf: Bytes) -> Result<Dataset> {
    if buf.remaining() < 5 {
        return Err(DataError::Decode("payload too short".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DataError::Decode("bad magic (not an OMDS payload)".into()));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(DataError::Decode(format!("unsupported version {version}")));
    }
    let schema = get_schema(&mut buf)?;
    if buf.remaining() < 8 {
        return Err(DataError::Decode("truncated row count".into()));
    }
    let n_rows = usize::try_from(buf.get_u64_le())
        .map_err(|_| DataError::Decode("row count exceeds the address space".into()))?;
    let mut columns = Vec::with_capacity(schema.n_attributes());
    for _ in 0..schema.n_attributes() {
        if !buf.has_remaining() {
            return Err(DataError::Decode("truncated column tag".into()));
        }
        match buf.get_u8() {
            0 => {
                // The row count comes off the wire and `n_rows * 4` can wrap;
                // dividing what is left cannot.
                if buf.remaining() / 4 < n_rows {
                    return Err(DataError::Decode("truncated categorical column".into()));
                }
                let mut ids = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    ids.push(buf.get_u32_le());
                }
                columns.push(Column::Categorical(ids));
            }
            1 => {
                if buf.remaining() / 8 < n_rows {
                    return Err(DataError::Decode("truncated continuous column".into()));
                }
                let mut vals = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    vals.push(buf.get_f64_le());
                }
                columns.push(Column::Continuous(vals));
            }
            t => return Err(DataError::Decode(format!("unknown column tag {t}"))),
        }
    }
    Dataset::from_columns(schema, columns)
        .map_err(|e| DataError::Decode(format!("inconsistent payload: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Cell, DatasetBuilder};

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new()
            .categorical("Phone")
            .continuous("Signal")
            .class("Outcome");
        for (p, s, o) in [
            ("ph1", -70.0, "ok"),
            ("ph2", -90.5, "drop"),
            ("ph1", -60.0, "ok"),
        ] {
            b.push_row(&[Cell::Str(p), Cell::Num(s), Cell::Str(o)])
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn round_trip_identity() {
        let ds = sample();
        let bytes = encode_dataset(&ds);
        let back = decode_dataset(bytes).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn empty_dataset_round_trips() {
        let ds = DatasetBuilder::new()
            .categorical("A")
            .class("C")
            .finish()
            .unwrap();
        let back = decode_dataset(encode_dataset(&ds)).unwrap();
        assert_eq!(back.n_rows(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode_dataset(Bytes::from_static(b"XXXX\x01rest")).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn bad_version_rejected() {
        let err = decode_dataset(Bytes::from_static(b"OMDS\x63")).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let full = encode_dataset(&sample());
        // Chop the payload at every length and ensure we never panic and
        // (except for the full length) always error.
        for cut in 0..full.len() {
            let r = decode_dataset(full.slice(0..cut));
            assert!(r.is_err(), "truncation at {cut} silently accepted");
        }
        assert!(decode_dataset(full).is_ok());
    }

    #[test]
    fn hostile_row_count_is_a_decode_error() {
        // A zero-row payload ends with the 8 row-count bytes and one tag
        // byte per column. `1 << 62` rows wrap `n_rows * 4` to 0, which
        // used to pass the length check and die in `Vec::with_capacity`.
        let ds = DatasetBuilder::new()
            .categorical("A")
            .class("C")
            .finish()
            .unwrap();
        let mut raw = encode_dataset(&ds).to_vec();
        let at = raw.len() - ds.schema().n_attributes() - 8;
        raw[at..at + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        let err = decode_dataset(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, DataError::Decode(_)), "{err:?}");
    }

    #[test]
    fn hostile_attribute_count_is_a_decode_error() {
        let mut raw = encode_dataset(&sample()).to_vec();
        raw[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_dataset(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, DataError::Decode(_)), "{err:?}");
    }

    #[test]
    fn special_floats_survive() {
        let mut b = DatasetBuilder::new().continuous("X").class("C");
        b.push_row(&[Cell::Num(f64::INFINITY), Cell::Str("a")])
            .unwrap();
        b.push_row(&[Cell::Num(-0.0), Cell::Str("b")]).unwrap();
        let ds = b.finish().unwrap();
        let back = decode_dataset(encode_dataset(&ds)).unwrap();
        let xs = back.column(0).as_continuous().unwrap();
        assert_eq!(xs[0], f64::INFINITY);
        assert_eq!(xs[1].to_bits(), (-0.0f64).to_bits());
    }
}
