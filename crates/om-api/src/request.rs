//! Typed `/v1` request bodies.
//!
//! Every body is a flat JSON object of named fields (`attr`, `v1`,
//! `v2`, `class`, `depth`, `min_score`, `top`, `by`, ...); unknown
//! keys are rejected.

use crate::de::{check_keys, opt_bool, opt_f64, opt_str, opt_u64, req_arr, req_str, req_u64};
use crate::json::Json;

#[allow(clippy::cast_precision_loss)]
fn num_u64(x: u64) -> Json {
    Json::Num(x as f64)
}

/// `POST /v1/compare` — one comparison by names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareRequest {
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

impl CompareRequest {
    fn fields(&self) -> Vec<(String, Json)> {
        let mut fields = vec![
            ("attr".to_owned(), Json::Str(self.attr.clone())),
            ("v1".to_owned(), Json::Str(self.v1.clone())),
            ("v2".to_owned(), Json::Str(self.v2.clone())),
            ("class".to_owned(), Json::Str(self.class.clone())),
        ];
        if let Some(allow) = self.allow_partial {
            fields.push(("allow_partial".to_owned(), Json::Bool(allow)));
        }
        fields
    }

    #[must_use]
    pub fn encode(&self) -> String {
        Json::Obj(self.fields()).encode()
    }

    /// # Errors
    /// A message naming the malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        check_keys(v, &["attr", "v1", "v2", "class", "allow_partial"])?;
        Ok(Self {
            attr: req_str(v, "attr")?,
            v1: req_str(v, "v1")?,
            v2: req_str(v, "v2")?,
            class: req_str(v, "class")?,
            allow_partial: opt_bool(v, "allow_partial")?,
        })
    }

    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }
}

/// One fixed drill condition: `attr = value`, both by label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    pub attr: String,
    pub value: String,
}

impl PathStep {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("attr".to_owned(), Json::Str(self.attr.clone())),
            ("value".to_owned(), Json::Str(self.value.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        check_keys(v, &["attr", "value"])?;
        Ok(Self {
            attr: req_str(v, "attr")?,
            value: req_str(v, "value")?,
        })
    }
}

/// `POST /v1/drill` — drill-down from a named comparison.
///
/// With an empty `path` the walk is automated (condition on each
/// level's top finding); a non-empty `path` fixes the conditions
/// instead: level *i* is the comparison conditioned on `path[..i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillRequest {
    pub attr: String,
    pub v1: String,
    pub v2: String,
    pub class: String,
    /// Maximum automated depth; server default when absent.
    pub depth: Option<u64>,
    /// Minimum normalized score to keep descending; server default
    /// when absent.
    pub min_score: Option<f64>,
    pub path: Vec<PathStep>,
}

impl DrillRequest {
    /// The request's fields in canonical encode order, reused by the
    /// batch encoder to inline a drill item without a re-parse.
    fn fields(&self) -> Vec<(String, Json)> {
        let mut fields = vec![
            ("attr".to_owned(), Json::Str(self.attr.clone())),
            ("v1".to_owned(), Json::Str(self.v1.clone())),
            ("v2".to_owned(), Json::Str(self.v2.clone())),
            ("class".to_owned(), Json::Str(self.class.clone())),
        ];
        if let Some(depth) = self.depth {
            fields.push(("depth".to_owned(), num_u64(depth)));
        }
        if let Some(min_score) = self.min_score {
            fields.push(("min_score".to_owned(), Json::Num(min_score)));
        }
        if !self.path.is_empty() {
            fields.push((
                "path".to_owned(),
                Json::Arr(self.path.iter().map(PathStep::to_json).collect()),
            ));
        }
        fields
    }

    #[must_use]
    pub fn encode(&self) -> String {
        Json::Obj(self.fields()).encode()
    }

    /// # Errors
    /// A message naming the malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        check_keys(
            v,
            &["attr", "v1", "v2", "class", "depth", "min_score", "path"],
        )?;
        let path = match v.get("path") {
            None | Some(Json::Null) => Vec::new(),
            Some(p) => p
                .as_arr()
                .ok_or("field \"path\" must be an array")?
                .iter()
                .map(PathStep::from_json)
                .collect::<Result<_, _>>()?,
        };
        Ok(Self {
            attr: req_str(v, "attr")?,
            v1: req_str(v, "v1")?,
            v2: req_str(v, "v2")?,
            class: req_str(v, "class")?,
            depth: opt_u64(v, "depth")?,
            min_score: opt_f64(v, "min_score")?,
            path,
        })
    }

    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }
}

/// `POST /v1/gi` — the general-impressions report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GiRequest {
    /// Entries per section (exceptions, influence); server default when
    /// absent.
    pub top: Option<u64>,
    /// Opt in to a degraded partial report when part of a cluster is
    /// unreachable (see [`CompareRequest::allow_partial`]).
    pub allow_partial: Option<bool>,
}

impl GiRequest {
    #[must_use]
    pub fn encode(&self) -> String {
        let mut fields = Vec::new();
        if let Some(top) = self.top {
            fields.push(("top".to_owned(), num_u64(top)));
        }
        if let Some(allow) = self.allow_partial {
            fields.push(("allow_partial".to_owned(), Json::Bool(allow)));
        }
        Json::Obj(fields).encode()
    }

    /// # Errors
    /// A message naming the malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        check_keys(v, &["top", "allow_partial"])?;
        Ok(Self {
            top: opt_u64(v, "top")?,
            allow_partial: opt_bool(v, "allow_partial")?,
        })
    }

    /// Parse, accepting an empty body as the default request.
    ///
    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text.trim().is_empty() {
            return Ok(Self::default());
        }
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }
}

/// `POST /v1/cube/slice` — a one-dimensional cube slice, or a pair
/// slice when `by` is given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceRequest {
    pub attr: String,
    pub by: Option<String>,
}

impl SliceRequest {
    #[must_use]
    pub fn encode(&self) -> String {
        let mut fields = vec![("attr".to_owned(), Json::Str(self.attr.clone()))];
        if let Some(by) = &self.by {
            fields.push(("by".to_owned(), Json::Str(by.clone())));
        }
        Json::Obj(fields).encode()
    }

    /// # Errors
    /// A message naming the malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        check_keys(v, &["attr", "by"])?;
        Ok(Self {
            attr: req_str(v, "attr")?,
            by: opt_str(v, "by")?,
        })
    }

    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }
}

/// `POST /v1/ingest` — typed live rows: each row is every attribute's
/// value label (class included) in schema order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestRequest {
    pub rows: Vec<Vec<String>>,
}

impl IngestRequest {
    #[must_use]
    pub fn encode(&self) -> String {
        Json::Obj(vec![(
            "rows".to_owned(),
            Json::Arr(
                self.rows
                    .iter()
                    .map(|row| {
                        Json::Arr(row.iter().map(|f| Json::Str(f.clone())).collect())
                    })
                    .collect(),
            ),
        )])
        .encode()
    }

    /// # Errors
    /// A message naming the malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        check_keys(v, &["rows"])?;
        let rows = req_arr(v, "rows")?
            .iter()
            .enumerate()
            .map(|(i, row)| {
                row.as_arr()
                    .ok_or_else(|| format!("row {} must be an array of strings", i + 1))?
                    .iter()
                    .map(|f| {
                        f.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| format!("row {} has a non-string field", i + 1))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { rows })
    }

    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
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

impl BatchItemRequest {
    fn to_json(&self) -> Json {
        match self {
            BatchItemRequest::Compare { req, budget_ms } => {
                let mut fields =
                    vec![("kind".to_owned(), Json::Str("compare".to_owned()))];
                fields.extend(req.fields());
                if let Some(ms) = budget_ms {
                    fields.push(("budget_ms".to_owned(), num_u64(*ms)));
                }
                Json::Obj(fields)
            }
            BatchItemRequest::Drill { req, budget_ms } => {
                // Reuse DrillRequest's canonical field order, with the
                // kind tag prepended and the budget appended.
                let mut fields = vec![("kind".to_owned(), Json::Str("drill".to_owned()))];
                fields.extend(req.fields());
                if let Some(ms) = budget_ms {
                    fields.push(("budget_ms".to_owned(), num_u64(*ms)));
                }
                Json::Obj(fields)
            }
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let kind = req_str(v, "kind")?;
        let budget_ms = opt_u64(v, "budget_ms")?;
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
                req: CompareRequest::from_json(&stripped)?,
                budget_ms,
            }),
            "drill" => Ok(BatchItemRequest::Drill {
                req: DrillRequest::from_json(&stripped)?,
                budget_ms,
            }),
            other => Err(format!(
                "unknown item kind {other:?} (expected \"compare\" or \"drill\")"
            )),
        }
    }
}

/// `POST /v1/compare/batch` — many comparison/drill items answered in
/// one request, with shared-scan batching server-side.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    pub items: Vec<BatchItemRequest>,
}

impl BatchRequest {
    #[must_use]
    pub fn encode(&self) -> String {
        Json::Obj(vec![(
            "items".to_owned(),
            Json::Arr(self.items.iter().map(BatchItemRequest::to_json).collect()),
        )])
        .encode()
    }

    /// # Errors
    /// A message naming the malformed item or field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        check_keys(v, &["items"])?;
        let items = req_arr(v, "items")?
            .iter()
            .enumerate()
            .map(|(i, item)| {
                BatchItemRequest::from_json(item).map_err(|e| format!("item {}: {e}", i + 1))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { items })
    }

    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }
}

/// The comparison block of an [`ExploreRequest`]: anchors
/// `explore_compare` mode. Field names match `/v1/compare`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreCompareBlock {
    pub attr: String,
    pub v1: String,
    pub v2: String,
    pub class: String,
}

impl ExploreCompareBlock {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("attr".to_owned(), Json::Str(self.attr.clone())),
            ("v1".to_owned(), Json::Str(self.v1.clone())),
            ("v2".to_owned(), Json::Str(self.v2.clone())),
            ("class".to_owned(), Json::Str(self.class.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        check_keys(v, &["attr", "v1", "v2", "class"])?;
        Ok(Self {
            attr: req_str(v, "attr")?,
            v1: req_str(v, "v1")?,
            v2: req_str(v, "v2")?,
            class: req_str(v, "class")?,
        })
    }
}

/// `POST /v1/explore` — smart drill-down: top-k rule summaries by
/// weighted coverage over an optional slice, or — with `compare` —
/// over both compared sub-populations, interleaved by distinguishing
/// mass. `slice` and `compare` are mutually exclusive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreRequest {
    /// Conditions restricting the explored population (at most one —
    /// the store answers one- and two-dimensional conjunctions
    /// exactly). Empty = whole population.
    pub slice: Vec<PathStep>,
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

impl ExploreRequest {
    fn fields(&self) -> Vec<(String, Json)> {
        let mut fields = Vec::new();
        if !self.slice.is_empty() {
            fields.push((
                "slice".to_owned(),
                Json::Arr(self.slice.iter().map(PathStep::to_json).collect()),
            ));
        }
        fields.push(("k".to_owned(), num_u64(self.k)));
        if let Some(mc) = self.max_conditions {
            fields.push(("max_conditions".to_owned(), num_u64(mc)));
        }
        if let Some(ms) = self.budget_ms {
            fields.push(("budget_ms".to_owned(), num_u64(ms)));
        }
        if let Some(cmp) = &self.compare {
            fields.push(("compare".to_owned(), cmp.to_json()));
        }
        fields
    }

    #[must_use]
    pub fn encode(&self) -> String {
        Json::Obj(self.fields()).encode()
    }

    /// # Errors
    /// A message naming the malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        check_keys(v, &["slice", "k", "max_conditions", "budget_ms", "compare"])?;
        let slice = match v.get("slice") {
            None | Some(Json::Null) => Vec::new(),
            Some(s) => s
                .as_arr()
                .ok_or("field \"slice\" must be an array")?
                .iter()
                .map(PathStep::from_json)
                .collect::<Result<_, _>>()?,
        };
        let compare = match v.get("compare") {
            None | Some(Json::Null) => None,
            Some(c) => Some(ExploreCompareBlock::from_json(c)?),
        };
        Ok(Self {
            slice,
            k: req_u64(v, "k")?,
            max_conditions: opt_u64(v, "max_conditions")?,
            budget_ms: opt_u64(v, "budget_ms")?,
            compare,
        })
    }

    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
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
        assert!(
            CompareRequest::parse("{\"attr\":\"a\",\"v1\":\"1\",\"v2\":\"2\",\"class\":\"c\",\"allow_partial\":1}")
                .unwrap_err()
                .contains("boolean")
        );
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
}
