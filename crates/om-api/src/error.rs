//! The uniform error envelope every non-2xx response carries:
//! `{"error":{"code":"...","message":"...","retry_after_ms":N,"row":N}}`
//! (`retry_after_ms` only on overload, `row` only on per-row ingest
//! rejections).

use crate::json::{write_str, Json};
use crate::wire::{wire, Wire};

/// Declares [`ErrorCode`] from one list: each variant once, with its wire
/// spelling and HTTP status. The enum, [`ErrorCode::ALL`],
/// [`ErrorCode::as_str`] and [`ErrorCode::http_status`] are all generated
/// from it, so a new code cannot be left out of any of them.
macro_rules! error_codes {
    ($($(#[$doc:meta])* $variant:ident => $wire:literal, $status:literal,)*) => {
        /// Machine-readable error class; the HTTP status is derived from it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum ErrorCode {
            $($(#[$doc])* $variant,)*
        }

        impl ErrorCode {
            /// Every code, in declaration order.
            pub const ALL: &'static [ErrorCode] = &[$(ErrorCode::$variant,)*];

            /// The wire spelling of the code.
            #[must_use]
            pub fn as_str(self) -> &'static str {
                match self {
                    $(ErrorCode::$variant => $wire,)*
                }
            }

            /// The HTTP status a response carries for this code.
            #[must_use]
            pub fn http_status(self) -> u16 {
                match self {
                    $(ErrorCode::$variant => $status,)*
                }
            }
        }
    };
}

error_codes! {
    /// The request body or parameters could not be understood.
    BadRequest => "bad_request", 400,
    /// One uploaded row failed validation (`row` names it, 1-based).
    BadRow => "bad_row", 400,
    /// A name lookup failed (attribute, value or class label).
    UnknownName => "unknown_name", 404,
    /// The request was well-formed but semantically invalid.
    Invalid => "invalid", 422,
    /// No such route.
    NotFound => "not_found", 404,
    /// Wrong HTTP method for the route.
    MethodNotAllowed => "method_not_allowed", 405,
    /// The client stalled past the server's read timeout mid-request.
    RequestTimeout => "request_timeout", 408,
    /// A shard's store moved past the generation the caller pinned.
    StaleGeneration => "stale_generation", 409,
    /// Out of budget / shedding — retry after `retry_after_ms`.
    Overloaded => "overloaded", 503,
    /// An internal failure.
    Internal => "internal", 500,
}

impl ErrorCode {
    /// Parse the wire spelling (inverse of [`Self::as_str`]).
    #[must_use]
    pub fn from_wire(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|code| code.as_str() == s)
    }
}

impl Wire for ErrorCode {
    fn write(&self, out: &mut String) {
        write_str(out, self.as_str());
    }

    fn read(v: &Json) -> Result<Self, String> {
        let code = v.as_str().ok_or("expected a string")?;
        Self::from_wire(code).ok_or_else(|| format!("unknown error code {code:?}"))
    }
}

wire! {
    /// The structured error every route answers a failure with.
    #[derive(Debug, Clone, Eq)]
    pub struct ErrorEnvelope: encode, parse, from_json {
        pub code: ErrorCode as "error.code",
        pub message: String as "error.message",
        /// On [`ErrorCode::Overloaded`]: when to retry, in milliseconds.
        pub retry_after_ms: Option<u64> as "error.retry_after_ms",
        /// On [`ErrorCode::BadRow`]: the 1-based index of the offending row.
        pub row: Option<u64> as "error.row",
    }
}

impl ErrorEnvelope {
    /// A minimal envelope with just a code and a message.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            retry_after_ms: None,
            row: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let e = ErrorEnvelope {
            code: ErrorCode::Overloaded,
            message: "deadline exceeded".to_owned(),
            retry_after_ms: Some(1000),
            row: None,
        };
        let text = e.encode();
        assert_eq!(
            text,
            "{\"error\":{\"code\":\"overloaded\",\"message\":\"deadline exceeded\",\
             \"retry_after_ms\":1000}}"
        );
        assert_eq!(ErrorEnvelope::parse(&text).unwrap(), e);
    }

    #[test]
    fn bad_row_carries_the_row() {
        let e = ErrorEnvelope {
            row: Some(7),
            ..ErrorEnvelope::new(ErrorCode::BadRow, "unknown label \"x\"")
        };
        let parsed = ErrorEnvelope::parse(&e.encode()).unwrap();
        assert_eq!(parsed.row, Some(7));
        assert_eq!(parsed.code.http_status(), 400);
    }

    #[test]
    fn codes_round_trip_and_map_to_statuses() {
        for (code, status) in [
            (ErrorCode::BadRequest, 400),
            (ErrorCode::BadRow, 400),
            (ErrorCode::UnknownName, 404),
            (ErrorCode::NotFound, 404),
            (ErrorCode::MethodNotAllowed, 405),
            (ErrorCode::RequestTimeout, 408),
            (ErrorCode::StaleGeneration, 409),
            (ErrorCode::Invalid, 422),
            (ErrorCode::Overloaded, 503),
            (ErrorCode::Internal, 500),
        ] {
            assert_eq!(ErrorCode::from_wire(code.as_str()), Some(code));
            assert_eq!(code.http_status(), status);
        }
        assert_eq!(ErrorCode::from_wire("nope"), None);
    }

    /// The `(code, status)` rows of the code table in an api.md text,
    /// sorted.
    fn code_table(doc: &str) -> Vec<(String, u16)> {
        let mut rows: Vec<(String, u16)> = doc
            .lines()
            .skip_while(|line| !line.starts_with("| `code` | HTTP status |"))
            .skip(2) // the header and its `|---|` rule
            .take_while(|line| line.starts_with('|'))
            .map(|row| {
                let cells: Vec<&str> = row.split('|').map(str::trim).collect();
                let status = cells[2]
                    .parse()
                    .unwrap_or_else(|_| panic!("status in {row:?}"));
                (cells[1].trim_matches('`').to_owned(), status)
            })
            .collect();
        rows.sort();
        rows
    }

    /// [`ErrorCode::ALL`] as `(code, status)` rows, sorted.
    fn all_rows() -> Vec<(String, u16)> {
        let mut rows: Vec<(String, u16)> = ErrorCode::ALL
            .iter()
            .map(|c| (c.as_str().to_owned(), c.http_status()))
            .collect();
        rows.sort();
        rows
    }

    /// A code table with `rows`, set in prose like `docs/api.md`.
    fn doc_with(rows: &[(String, u16)]) -> String {
        let mut doc =
            String::from("Errors:\n\n| `code` | HTTP status | meaning |\n|---|---|---|\n");
        for (code, status) in rows {
            doc.push_str(&format!("| `{code}` | {status} | x |\n"));
        }
        doc.push_str("\n| not | the | table |\n");
        doc
    }

    /// The code table in `docs/api.md` lists exactly [`ErrorCode::ALL`]
    /// with their statuses: no code missing, no ghost code, no drift.
    #[test]
    fn docs_code_table_is_exactly_all_codes() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/api.md"))
                .unwrap();
        assert_eq!(code_table(&doc), all_rows());
    }

    #[test]
    fn matching_table_is_clean() {
        assert_eq!(code_table(&doc_with(&all_rows())), all_rows());
    }

    #[test]
    fn missing_and_unknown_and_mismatch() {
        let mut rows: Vec<(String, u16)> = all_rows()
            .into_iter()
            .filter(|(code, _)| code != "overloaded")
            .map(|(code, status)| match code.as_str() {
                "bad_request" => (code, 418),
                _ => (code, status),
            })
            .collect();
        rows.push(("gone".to_owned(), 410));
        let table = code_table(&doc_with(&rows));
        assert_ne!(table, all_rows());
        assert!(!table.iter().any(|(code, _)| code == "overloaded"));
        assert!(table.contains(&("gone".to_owned(), 410)));
        assert!(table.contains(&("bad_request".to_owned(), 418)));
    }

    #[test]
    fn rejects_malformed_envelopes() {
        assert!(ErrorEnvelope::parse("{}").is_err());
        assert!(
            ErrorEnvelope::parse("{\"error\":{\"code\":\"weird\",\"message\":\"m\"}}").is_err()
        );
        assert!(ErrorEnvelope::parse("not json").is_err());
    }
}
