//! The uniform `/v1` error envelope:
//! `{"error":{"code":"...","message":"...","retry_after_ms":N,"row":N}}`
//! (`retry_after_ms` only on overload, `row` only on per-row ingest
//! rejections).

use crate::json::{write_str, Json};
use crate::wire::{wire, Wire};

/// Machine-readable error class; the HTTP status is derived from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request body or parameters could not be understood.
    BadRequest,
    /// One uploaded row failed validation (`row` names it, 1-based).
    BadRow,
    /// A name lookup failed (attribute, value or class label).
    UnknownName,
    /// The request was well-formed but semantically invalid.
    Invalid,
    /// No such route.
    NotFound,
    /// Wrong HTTP method for the route.
    MethodNotAllowed,
    /// Out of budget / shedding — retry after `retry_after_ms`.
    Overloaded,
    /// An internal failure.
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::BadRow => "bad_row",
            ErrorCode::UnknownName => "unknown_name",
            ErrorCode::Invalid => "invalid",
            ErrorCode::NotFound => "not_found",
            ErrorCode::MethodNotAllowed => "method_not_allowed",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parse the wire spelling (inverse of [`Self::as_str`]).
    #[must_use]
    pub fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "bad_row" => ErrorCode::BadRow,
            "unknown_name" => ErrorCode::UnknownName,
            "invalid" => ErrorCode::Invalid,
            "not_found" => ErrorCode::NotFound,
            "method_not_allowed" => ErrorCode::MethodNotAllowed,
            "overloaded" => ErrorCode::Overloaded,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// The HTTP status a `/v1` response carries for this code.
    #[must_use]
    pub fn http_status(self) -> u16 {
        match self {
            ErrorCode::BadRequest | ErrorCode::BadRow => 400,
            ErrorCode::UnknownName | ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::Invalid => 422,
            ErrorCode::Overloaded => 503,
            ErrorCode::Internal => 500,
        }
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
    /// The structured error every `/v1` endpoint answers with.
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
            (ErrorCode::Invalid, 422),
            (ErrorCode::Overloaded, 503),
            (ErrorCode::Internal, 500),
        ] {
            assert_eq!(ErrorCode::from_wire(code.as_str()), Some(code));
            assert_eq!(code.http_status(), status);
        }
        assert_eq!(ErrorCode::from_wire("nope"), None);
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
