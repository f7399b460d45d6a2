//! Typed `/v1` request bodies.
//!
//! Every body is a flat JSON object of named fields (`attr`, `v1`,
//! `v2`, `class`, `depth`, `min_score`, `top`, `by`, ...); unknown
//! keys are rejected.

use crate::json::{write_str, Json};
use crate::rows::{encode_rows, LabelRows};
use crate::wire::{field, wire, Fields, Obj, Wire};

wire! {
    /// `POST /v1/compare` — one comparison by names.
    #[derive(Debug, Clone, Eq)]
    pub struct CompareRequest: strict, encode, parse, from_json {
        pub attr: String,
        pub v1: String,
        pub v2: String,
        pub class: String,
        /// Opt in to a degraded partial answer when part of a cluster is
        /// unreachable: instead of a blanket `503`, the response covers the
        /// live partitions and carries a `coverage` envelope. Absent (the
        /// default) keeps today's all-or-nothing semantics; single-node
        /// servers always answer with full coverage either way.
        pub allow_partial: Option<bool>,
    }

    /// One fixed drill condition: `attr = value`, both by label.
    #[derive(Debug, Clone, Eq)]
    pub struct PathStep: strict {
        pub attr: String,
        pub value: String,
    }

    /// `POST /v1/drill` — drill-down from a named comparison.
    ///
    /// With an empty `path` the walk is automated (condition on each
    /// level's top finding); a non-empty `path` fixes the conditions
    /// instead: level *i* is the comparison conditioned on `path[..i]`.
    #[derive(Debug, Clone)]
    pub struct DrillRequest: strict, encode, parse, from_json {
        pub attr: String,
        pub v1: String,
        pub v2: String,
        pub class: String,
        /// Maximum automated depth; server default when absent.
        pub depth: Option<u64>,
        /// Minimum normalized score to keep descending; server default
        /// when absent.
        pub min_score: Option<f64>,
        pub path: Vec<PathStep> => OrEmpty,
    }

    /// `POST /v1/gi` — the general-impressions report.
    #[derive(Debug, Clone, Eq, Default)]
    pub struct GiRequest: strict, encode, from_json {
        /// Entries per section (exceptions, influence); server default when
        /// absent.
        pub top: Option<u64>,
        /// Opt in to a degraded partial report when part of a cluster is
        /// unreachable (see [`CompareRequest::allow_partial`]).
        pub allow_partial: Option<bool>,
    }

    /// `POST /v1/cube/slice` — a one-dimensional cube slice, or a pair
    /// slice when `by` is given.
    #[derive(Debug, Clone, Eq)]
    pub struct SliceRequest: strict, encode, parse, from_json {
        pub attr: String,
        pub by: Option<String>,
    }

    /// `POST /v1/ingest` — typed live rows: each row is every attribute's
    /// value label (class included) in schema order. The server reads
    /// the body as a [`LabelRows`] table; this is its owned form.
    #[derive(Debug, Clone, Eq)]
    pub struct IngestRequest: strict, from_json {
        pub rows: Vec<Vec<String>>,
    }

    /// `POST /v1/compare/batch` — many comparison/drill items answered in
    /// one request, with shared-scan batching server-side.
    #[derive(Debug, Clone)]
    pub struct BatchRequest: strict, encode, parse, from_json {
        pub items: Vec<BatchItemRequest>,
    }

    /// The comparison block of an [`ExploreRequest`]: anchors
    /// `explore_compare` mode. Field names match `/v1/compare`.
    #[derive(Debug, Clone, Eq)]
    pub struct ExploreCompareBlock: strict {
        pub attr: String,
        pub v1: String,
        pub v2: String,
        pub class: String,
    }

    /// `POST /v1/explore` — smart drill-down: top-k rule summaries by
    /// weighted coverage over an optional slice, or — with `compare` —
    /// over both compared sub-populations, interleaved by distinguishing
    /// mass. `slice` and `compare` are mutually exclusive.
    #[derive(Debug, Clone, Eq)]
    pub struct ExploreRequest: strict, encode, parse, from_json {
        /// Conditions restricting the explored population (at most one —
        /// the store answers one- and two-dimensional conjunctions
        /// exactly). Empty = whole population.
        pub slice: Vec<PathStep> => OrEmpty,
        /// Number of summaries to return.
        pub k: u64,
        /// Widest conjunction per summary, slice included; server default
        /// (2) when absent.
        pub max_conditions: Option<u64>,
        /// Per-request budget; the server narrows its own deadline to this,
        /// returning a `truncated` partial when it expires mid-run.
        pub budget_ms: Option<u64>,
        /// Switch to `explore_compare` mode.
        pub compare: Option<ExploreCompareBlock>,
    }
}

impl IngestRequest {
    /// The wire body, written by [`encode_rows`].
    #[must_use]
    pub fn encode(&self) -> String {
        encode_rows(self.rows.iter().map(Vec::as_slice))
    }

    /// Parse a wire body: [`LabelRows::decode`], then an owned copy.
    ///
    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        LabelRows::decode(text).map(|rows| Self {
            rows: rows.to_rows(),
        })
    }
}

impl GiRequest {
    /// Parse, accepting an empty body as the default request.
    ///
    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text.trim().is_empty() {
            return Ok(Self::default());
        }
        crate::wire::parse(text)
    }
}

/// One item of a `/v1/compare/batch` request.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItemRequest {
    /// `{"kind":"compare", ...CompareRequest, "budget_ms":N?}`
    Compare {
        req: CompareRequest,
        budget_ms: Option<u64>,
    },
    /// `{"kind":"drill", ...DrillRequest, "budget_ms":N?}`
    Drill {
        req: DrillRequest,
        budget_ms: Option<u64>,
    },
}

impl Wire for BatchItemRequest {
    fn write(&self, out: &mut String) {
        let mut o = Obj::new(out);
        let budget_ms = match self {
            BatchItemRequest::Compare { req, budget_ms } => {
                write_str(o.key("kind"), "compare");
                req.write_fields(&mut o);
                budget_ms
            }
            BatchItemRequest::Drill { req, budget_ms } => {
                write_str(o.key("kind"), "drill");
                req.write_fields(&mut o);
                budget_ms
            }
        };
        o.field("budget_ms", budget_ms);
        o.close();
    }

    fn read(v: &Json) -> Result<Self, String> {
        let kind: String = field(v, "kind")?;
        let budget_ms = field(v, "budget_ms")?;
        // Strip the batch-only fields, then decode as the plain request.
        let pairs = v.as_obj().ok_or("expected a JSON object")?;
        let stripped = Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "kind" && k != "budget_ms")
                .cloned()
                .collect(),
        );
        match kind.as_str() {
            "compare" => Ok(BatchItemRequest::Compare {
                req: CompareRequest::read(&stripped)?,
                budget_ms,
            }),
            "drill" => Ok(BatchItemRequest::Drill {
                req: DrillRequest::read(&stripped)?,
                budget_ms,
            }),
            other => Err(format!(
                "unknown item kind {other:?} (expected \"compare\" or \"drill\")"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_round_trips() {
        let r = CompareRequest {
            attr: "PhoneModel".into(),
            v1: "ph1".into(),
            v2: "ph2".into(),
            class: "dropped".into(),
            allow_partial: None,
        };
        assert_eq!(
            r.encode(),
            "{\"attr\":\"PhoneModel\",\"v1\":\"ph1\",\"v2\":\"ph2\",\"class\":\"dropped\"}"
        );
        assert_eq!(CompareRequest::parse(&r.encode()).unwrap(), r);

        let partial = CompareRequest {
            allow_partial: Some(true),
            ..r
        };
        assert!(partial.encode().ends_with("\"allow_partial\":true}"));
        assert_eq!(CompareRequest::parse(&partial.encode()).unwrap(), partial);
        assert!(CompareRequest::parse(
            "{\"attr\":\"a\",\"v1\":\"1\",\"v2\":\"2\",\"class\":\"c\",\"allow_partial\":1}"
        )
        .unwrap_err()
        .contains("boolean"));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        assert!(CompareRequest::parse(
            "{\"attr\":\"a\",\"v1\":\"1\",\"v2\":\"2\",\"class\":\"c\",\"oops\":1}"
        )
        .unwrap_err()
        .contains("oops"));
    }

    #[test]
    fn drill_round_trips_with_and_without_extras() {
        let bare = DrillRequest {
            attr: "A".into(),
            v1: "x".into(),
            v2: "y".into(),
            class: "c".into(),
            depth: None,
            min_score: None,
            path: Vec::new(),
        };
        assert_eq!(DrillRequest::parse(&bare.encode()).unwrap(), bare);
        let full = DrillRequest {
            depth: Some(3),
            min_score: Some(0.05),
            path: vec![PathStep {
                attr: "B".into(),
                value: "v".into(),
            }],
            ..bare
        };
        assert_eq!(DrillRequest::parse(&full.encode()).unwrap(), full);
    }

    #[test]
    fn gi_accepts_empty_body() {
        let bare = GiRequest {
            top: None,
            allow_partial: None,
        };
        assert_eq!(GiRequest::parse("").unwrap(), bare);
        assert_eq!(GiRequest::parse("{}").unwrap(), bare);
        let r = GiRequest {
            top: Some(5),
            allow_partial: Some(true),
        };
        assert_eq!(GiRequest::parse(&r.encode()).unwrap(), r);
    }

    #[test]
    fn slice_round_trips() {
        for by in [None, Some("Other".to_owned())] {
            let r = SliceRequest {
                attr: "A".into(),
                by,
            };
            assert_eq!(SliceRequest::parse(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn ingest_rows_round_trip() {
        let r = IngestRequest {
            rows: vec![
                vec!["red".into(), "lo, hi".into(), "yes".into()],
                vec!["blue".into(), "1.5".into(), "no".into()],
            ],
        };
        assert_eq!(IngestRequest::parse(&r.encode()).unwrap(), r);
        assert!(IngestRequest::parse("{\"rows\":[[1]]}").is_err());
        assert!(IngestRequest::parse("{\"rows\":[\"flat\"]}")
            .unwrap_err()
            .contains("row 1"));
    }

    #[test]
    fn batch_round_trips_both_kinds() {
        let r = BatchRequest {
            items: vec![
                BatchItemRequest::Compare {
                    req: CompareRequest {
                        attr: "A".into(),
                        v1: "x".into(),
                        v2: "y".into(),
                        class: "c".into(),
                        allow_partial: None,
                    },
                    budget_ms: Some(250),
                },
                BatchItemRequest::Drill {
                    req: DrillRequest {
                        attr: "A".into(),
                        v1: "x".into(),
                        v2: "y".into(),
                        class: "c".into(),
                        depth: Some(2),
                        min_score: None,
                        path: vec![PathStep {
                            attr: "B".into(),
                            value: "v".into(),
                        }],
                    },
                    budget_ms: None,
                },
            ],
        };
        assert_eq!(BatchRequest::parse(&r.encode()).unwrap(), r);
    }

    #[test]
    fn explore_round_trips_every_shape() {
        let bare = ExploreRequest {
            slice: Vec::new(),
            k: 5,
            max_conditions: None,
            budget_ms: None,
            compare: None,
        };
        assert_eq!(bare.encode(), "{\"k\":5}");
        assert_eq!(ExploreRequest::parse(&bare.encode()).unwrap(), bare);

        let sliced = ExploreRequest {
            slice: vec![PathStep {
                attr: "PhoneModel".into(),
                value: "ph2".into(),
            }],
            max_conditions: Some(2),
            budget_ms: Some(250),
            ..bare.clone()
        };
        assert_eq!(ExploreRequest::parse(&sliced.encode()).unwrap(), sliced);

        let compare = ExploreRequest {
            compare: Some(ExploreCompareBlock {
                attr: "PhoneModel".into(),
                v1: "ph1".into(),
                v2: "ph2".into(),
                class: "dropped".into(),
            }),
            ..bare
        };
        assert_eq!(ExploreRequest::parse(&compare.encode()).unwrap(), compare);
    }

    #[test]
    fn explore_rejects_malformed_fields() {
        assert!(ExploreRequest::parse("{}").unwrap_err().contains('k'));
        assert!(ExploreRequest::parse("{\"k\":5,\"oops\":1}")
            .unwrap_err()
            .contains("oops"));
        assert!(ExploreRequest::parse("{\"k\":5,\"slice\":\"x\"}")
            .unwrap_err()
            .contains("slice"));
        assert!(ExploreRequest::parse("{\"k\":5,\"compare\":{\"attr\":\"a\"}}").is_err());
    }

    #[test]
    fn batch_names_the_offending_item() {
        let bad = "{\"items\":[{\"kind\":\"compare\",\"attr\":\"a\",\"v1\":\"1\",\
                   \"v2\":\"2\",\"class\":\"c\"},{\"kind\":\"teleport\"}]}";
        assert!(BatchRequest::parse(bad).unwrap_err().contains("item 2"));
    }

    /// Every request type fully populated, byte for byte: the goldens pin
    /// responses only, and clients build every request with these.
    #[test]
    fn fully_populated_requests_encode_literally() {
        let (a, x, y, c) = (
            "A".to_owned(),
            "x".to_owned(),
            "y".to_owned(),
            "c".to_owned(),
        );
        let step = PathStep {
            attr: "B".into(),
            value: "v\"\n".into(),
        };
        let compare = CompareRequest {
            attr: a.clone(),
            v1: x.clone(),
            v2: y.clone(),
            class: c.clone(),
            allow_partial: Some(true),
        };
        let drill = DrillRequest {
            attr: a.clone(),
            v1: x.clone(),
            v2: y.clone(),
            class: c.clone(),
            depth: Some(3),
            min_score: Some(0.05),
            path: vec![step.clone()],
        };
        let batch = BatchRequest {
            items: vec![
                BatchItemRequest::Compare {
                    req: compare.clone(),
                    budget_ms: Some(250),
                },
                BatchItemRequest::Drill {
                    req: drill.clone(),
                    budget_ms: Some(9),
                },
            ],
        };
        let explore = ExploreRequest {
            slice: vec![step],
            k: 5,
            max_conditions: Some(2),
            budget_ms: Some(250),
            compare: Some(ExploreCompareBlock {
                attr: a.clone(),
                v1: x,
                v2: y,
                class: c,
            }),
        };
        let gi = GiRequest {
            top: Some(5),
            allow_partial: Some(false),
        };
        let slice = SliceRequest {
            attr: a,
            by: Some("B".into()),
        };
        let ingest = IngestRequest {
            rows: vec![vec!["a".into(), "\u{1}é".into()], vec![]],
        };
        let c4 = r#""attr":"A","v1":"x","v2":"y","class":"c""#;
        let path = r#""path":[{"attr":"B","value":"v\"\n"}]"#;
        for (body, want) in [
            (
                compare.encode(),
                format!(r#"{{{c4},"allow_partial":true}}"#),
            ),
            (
                drill.encode(),
                format!(r#"{{{c4},"depth":3,"min_score":0.05,{path}}}"#),
            ),
            (
                batch.encode(),
                format!(
                    r#"{{"items":[{{"kind":"compare",{c4},"allow_partial":true,"budget_ms":250}},{{"kind":"drill",{c4},"depth":3,"min_score":0.05,{path},"budget_ms":9}}]}}"#
                ),
            ),
            (
                explore.encode(),
                format!(
                    r#"{{"slice":[{{"attr":"B","value":"v\"\n"}}],"k":5,"max_conditions":2,"budget_ms":250,"compare":{{{c4}}}}}"#
                ),
            ),
            (gi.encode(), r#"{"top":5,"allow_partial":false}"#.to_owned()),
            (slice.encode(), r#"{"attr":"A","by":"B"}"#.to_owned()),
            (
                ingest.encode(),
                "{\"rows\":[[\"a\",\"\\u0001é\"],[]]}".to_owned(),
            ),
        ] {
            assert_eq!(body, want);
        }
    }
}
