//! Wire types for the shard-internal `/internal/*` endpoints.
//!
//! A cluster coordinator drives its shards over plain HTTP, and the
//! payloads it moves — encoded cube stores, encoded (zero-row) schema
//! datasets — are binary. JSON carries them as standard base64 strings,
//! encoded and decoded here so both sides of the protocol share one
//! implementation. These endpoints are *not* part of the public `/v1`
//! contract: they are versioned implicitly by the store/dataset codecs
//! (whose magic headers reject foreign bytes) and served only by engine
//! shards, never by a coordinator.

use crate::wire::wire;

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 (RFC 4648, with padding) of `bytes`.
#[must_use]
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        #[expect(
            clippy::indexing_slicing,
            reason = "chunks(3) never yields an empty slice"
        )]
        let b0 = u32::from(chunk[0]);
        let b1 = chunk.get(1).copied().map(u32::from);
        let b2 = chunk.get(2).copied().map(u32::from);
        let word = (b0 << 16) | (b1.unwrap_or(0) << 8) | b2.unwrap_or(0);
        #[expect(
            clippy::indexing_slicing,
            reason = "& 0x3f keeps the index < 64 == alphabet length"
        )]
        let sextet = |shift: u32| B64_ALPHABET[((word >> shift) & 0x3f) as usize] as char;
        out.push(sextet(18));
        out.push(sextet(12));
        out.push(if b1.is_some() { sextet(6) } else { '=' });
        out.push(if b2.is_some() { sextet(0) } else { '=' });
    }
    out
}

/// Decode standard base64 (RFC 4648; padding required, no whitespace).
///
/// # Errors
/// A message naming the first offending byte or length problem.
pub fn b64_decode(text: &str) -> Result<Vec<u8>, String> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of 4",
            bytes.len()
        ));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (group_idx, group) in bytes.chunks(4).enumerate() {
        let last_group = (group_idx + 1) * 4 == bytes.len();
        let mut word: u32 = 0;
        let mut pad = 0usize;
        for (i, &b) in group.iter().enumerate() {
            let value = if b == b'=' {
                if !last_group || i < 2 {
                    return Err("unexpected '=' padding inside base64".to_owned());
                }
                pad += 1;
                0
            } else {
                if pad > 0 {
                    return Err("base64 data after '=' padding".to_owned());
                }
                match B64_ALPHABET.iter().position(|&a| a == b) {
                    Some(v) => v as u32,
                    None => return Err(format!("invalid base64 byte 0x{b:02x}")),
                }
            };
            word = (word << 6) | value;
        }
        out.push((word >> 16) as u8);
        if pad < 2 {
            out.push((word >> 8) as u8);
        }
        if pad < 1 {
            out.push(word as u8);
        }
    }
    Ok(out)
}

wire! {
    /// One resolved drill condition on the internal wire: `attr = value` by
    /// schema index and value id (names were resolved at the coordinator).
    #[derive(Debug, Clone, Copy, Eq)]
    pub struct ConditionWire: strict {
        pub attr: u64,
        pub value: u64,
    }

    /// `GET /internal/schema` — the shard's schema as an encoded zero-row
    /// dataset (schema + domains, no records), base64 of the om-data codec.
    #[derive(Debug, Clone, Eq)]
    pub struct InternalSchemaResponse: strict, encode, parse {
        pub dataset_b64: String as "dataset",
    }

    /// `GET /internal/generation` (and `POST /internal/flush`) — the shard's
    /// currently published store generation.
    #[derive(Debug, Clone, Copy, Eq)]
    pub struct InternalGenerationResponse: strict, encode, parse {
        pub generation: u64,
    }

    /// `GET /internal/store?expect=G` — the shard's full cube store at the
    /// pinned generation `G` (base64 of the om-cube store codec). A shard
    /// whose published generation moved past `G` answers `409` instead, and
    /// the coordinator re-pins.
    #[derive(Debug, Clone, Eq)]
    pub struct InternalStoreResponse: strict, encode, parse {
        pub generation: u64,
        pub store_b64: String as "store",
    }

    /// `POST /internal/level` — build the restricted drill-level store over
    /// the shard's *base* partition narrowed by `conditions`, counting only
    /// `attrs`.
    #[derive(Debug, Clone, Eq)]
    pub struct InternalLevelRequest: strict, encode, parse {
        pub conditions: Vec<ConditionWire>,
        pub attrs: Vec<u64>,
    }

    /// Response to [`InternalLevelRequest`]: the restricted store (base64).
    #[derive(Debug, Clone, Eq)]
    pub struct InternalLevelResponse: strict, encode, parse {
        pub store_b64: String as "store",
    }

    /// `POST /internal/count` — how many base-partition records satisfy all
    /// of `conditions` (the coordinator's sub-population emptiness probe).
    #[derive(Debug, Clone, Eq)]
    pub struct InternalCountRequest: strict, encode, parse {
        pub conditions: Vec<ConditionWire>,
    }

    /// Response to [`InternalCountRequest`].
    #[derive(Debug, Clone, Copy, Eq)]
    pub struct InternalCountResponse: strict, encode, parse {
        pub count: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_round_trips() {
        for len in 0..64usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let text = b64_encode(&bytes);
            assert_eq!(b64_decode(&text).unwrap(), bytes, "len={len}");
        }
    }

    #[test]
    fn base64_known_vectors() {
        // RFC 4648 test vectors.
        assert_eq!(b64_encode(b""), "");
        assert_eq!(b64_encode(b"f"), "Zg==");
        assert_eq!(b64_encode(b"fo"), "Zm8=");
        assert_eq!(b64_encode(b"foo"), "Zm9v");
        assert_eq!(b64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(b64_decode("Zm9vYmE=").unwrap(), b"fooba");
    }

    #[test]
    fn base64_rejects_garbage() {
        assert!(b64_decode("abc").is_err()); // bad length
        assert!(b64_decode("ab!=").is_err()); // bad byte
        assert!(b64_decode("a=bc").is_err()); // data after padding
        assert!(b64_decode("=abc").is_err()); // padding up front
    }

    /// Every `/internal/*` type, byte for byte, and back.
    #[test]
    fn wire_types_round_trip() {
        macro_rules! pin {
            ($ty:ident $fields:tt, $want:expr) => {{
                let x = $ty $fields;
                let want: &str = &$want;
                assert_eq!(x.encode(), want);
                assert_eq!($ty::parse(want).unwrap(), x);
            }};
        }
        let conditions = vec![
            ConditionWire { attr: 3, value: 1 },
            ConditionWire { attr: 0, value: 9 },
        ];
        let conds = r#"[{"attr":3,"value":1},{"attr":0,"value":9}]"#;
        pin!(
            InternalLevelRequest {
                conditions: conditions.clone(),
                attrs: vec![0, 2, 5],
            },
            format!(r#"{{"conditions":{conds},"attrs":[0,2,5]}}"#)
        );
        pin!(
            InternalCountRequest { conditions },
            format!(r#"{{"conditions":{conds}}}"#)
        );
        pin!(
            InternalStoreResponse {
                generation: 7,
                store_b64: b64_encode(b"store bytes"),
            },
            r#"{"generation":7,"store":"c3RvcmUgYnl0ZXM="}"#
        );
        pin!(
            InternalGenerationResponse { generation: 12 },
            r#"{"generation":12}"#
        );
        pin!(
            InternalSchemaResponse {
                dataset_b64: b64_encode(b"dataset"),
            },
            r#"{"dataset":"ZGF0YXNldA=="}"#
        );
        pin!(
            InternalLevelResponse {
                store_b64: b64_encode(b"level"),
            },
            r#"{"store":"bGV2ZWw="}"#
        );
        pin!(InternalCountResponse { count: 41 }, r#"{"count":41}"#);
    }

    #[test]
    fn strict_parsing_rejects_unknown_fields() {
        assert!(InternalCountResponse::parse("{\"count\":1,\"x\":2}").is_err());
        assert!(InternalGenerationResponse::parse("{}").is_err());
    }
}
