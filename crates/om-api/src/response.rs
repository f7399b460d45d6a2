//! Typed response bodies for every `/v1` endpoint.
//!
//! These are *wire* mirrors: they hold exactly what the JSON carries,
//! and their encoders write fields in declaration order with the
//! [`crate::json`] float and escape rules, pinned byte-for-byte by
//! om-server's golden files. Non-finite floats encode as `null` and
//! decode as NaN — the wire cannot distinguish NaN from ±Inf, so
//! equality on wire types treats all non-finite values as equal.

use crate::error::ErrorEnvelope;
use crate::json::Json;
use crate::wire::{field, wire, Obj, Wire};

wire! {
    /// One value's contribution inside an [`AttrScoreWire`] (the paper's
    /// per-value W_k terms).
    #[derive(Debug, Clone)]
    pub struct ValueContributionWire {
        pub value: String,
        pub n1: u64,
        pub n2: u64,
        pub x1: u64,
        pub x2: u64,
        /// `None` encodes `null` (confidence undefined on an empty slice).
        pub cf1: Option<f64> => Nullable,
        pub cf2: Option<f64> => Nullable,
        pub rcf1: f64,
        pub rcf2: f64,
        pub f: f64,
        pub w: f64,
    }

    /// One candidate attribute's score (ranked or property).
    #[derive(Debug, Clone)]
    pub struct AttrScoreWire {
        pub attr: u64,
        pub name: String,
        pub score: f64,
        pub normalized: f64,
        pub property_p: u64 as "property.p",
        pub property_t: u64 as "property.t",
        pub property_ratio: f64 as "property.ratio",
        pub values: Vec<ValueContributionWire>,
    }

    /// Which part of a cluster answered a degraded (`allow_partial`)
    /// request: the coverage envelope attached to partial results. A
    /// response without one covers the full record set.
    #[derive(Debug, Clone)]
    pub struct CoverageWire: from_json {
        pub partitions_total: u64,
        pub partitions_answered: u64,
        /// Share of the cluster's rows inside the answered partitions, in
        /// percent (base rows plus acknowledged live-ingested rows).
        pub rows_covered_pct: f64,
        /// Partition indices that contributed nothing.
        pub missing_partitions: Vec<u64>,
        /// The unreachable shard addresses behind the missing partitions.
        pub missing_shards: Vec<String>,
    }

    /// The full comparison body (`/v1/compare`, and each drill level).
    #[derive(Debug, Clone)]
    pub struct CompareResponse: encode, parse, from_json {
        pub attribute: String,
        pub value_1: String,
        pub value_2: String,
        pub swapped: bool,
        pub class: String,
        pub cf1: f64,
        pub cf2: f64,
        pub n1: u64,
        pub n2: u64,
        pub ranked: Vec<AttrScoreWire>,
        pub property_attributes: Vec<AttrScoreWire>,
        /// Present only on degraded partial answers (`allow_partial`); a
        /// full-coverage body omits the field entirely, keeping it
        /// byte-identical to the pre-coverage wire format.
        pub coverage: Option<CoverageWire>,
    }

    /// One drill level: the conditions in force and its comparison.
    #[derive(Debug, Clone)]
    pub struct DrillLevelWire {
        /// Human-readable `"Attr=value"` labels, outermost first.
        pub conditions: Vec<String>,
        pub result: CompareResponse,
    }

    /// The drill body (`/v1/drill`).
    #[derive(Debug, Clone)]
    pub struct DrillResponse: encode, parse, from_json {
        pub levels: Vec<DrillLevelWire>,
    }

    /// One condition of an explore summary, by label.
    #[derive(Debug, Clone, Eq)]
    pub struct ExploreCondWire {
        pub attr: String,
        pub value: String,
    }

    /// One ranked summary of an `/v1/explore` body.
    #[derive(Debug, Clone)]
    pub struct ExploreSummaryWire {
        /// The summary's non-⋆ conditions (slice conditions excluded).
        pub conditions: Vec<ExploreCondWire>,
        pub support: u64,
        /// Marginal weighted coverage the summary earned when selected.
        pub coverage: u64,
        /// Per-class rule confidence, in `classes` order.
        pub confidences: Vec<f64>,
        /// Compare mode only: 1 = the normalized `value_1` side, 2 = the
        /// `value_2` side. Absent otherwise.
        pub side: Option<u64>,
        /// Compare mode only: distinguishing mass of the condition.
        pub mass: Option<f64>,
    }

    /// The comparison block echoed back by an `explore_compare` body, with
    /// the comparator's normalization (`swapped`) applied.
    #[derive(Debug, Clone, Eq)]
    pub struct ExploreCompareWire {
        pub attribute: String,
        pub value_1: String,
        pub value_2: String,
        pub swapped: bool,
        pub class: String,
    }

    /// The smart drill-down body (`/v1/explore`).
    ///
    /// `truncated: true` marks a budget-degraded partial: the summaries
    /// present are a valid prefix of the full answer. The `compare` block
    /// (and per-summary `side`/`mass`) appear only in compare mode, keeping
    /// plain exploration bodies free of the fields entirely.
    #[derive(Debug, Clone)]
    pub struct ExploreResponse: encode, parse, from_json {
        pub universe: u64,
        pub covered: u64,
        pub steps: u64,
        pub truncated: bool,
        /// Class labels indexing each summary's `confidences`.
        pub classes: Vec<String>,
        pub summaries: Vec<ExploreSummaryWire>,
        pub compare: Option<ExploreCompareWire>,
    }

    /// One trend entry of the GI report (`trend` is `"increasing"`,
    /// `"decreasing"` or `"stable"`; flat/none trends are not emitted).
    #[derive(Debug, Clone)]
    pub struct TrendWire {
        pub attr: String,
        pub class: String,
        pub trend: String,
        pub slope: f64,
        pub r_squared: f64,
    }

    /// One exception entry (`kind` is `"high"` or `"low"`).
    #[derive(Debug, Clone)]
    pub struct ExceptionWire {
        pub attr: String,
        pub value: String,
        pub class: String,
        pub kind: String,
        pub confidence: f64,
        pub rest_confidence: f64,
        pub z: f64,
    }

    /// One influence entry.
    #[derive(Debug, Clone)]
    pub struct InfluenceWire {
        pub attr: String,
        pub chi2: f64,
        pub p_value: f64,
        pub info_gain: f64,
    }

    /// The general-impressions body (`/v1/gi`).
    #[derive(Debug, Clone)]
    pub struct GiResponse: encode, parse, from_json {
        pub trends: Vec<TrendWire>,
        pub exceptions: Vec<ExceptionWire>,
        pub influence: Vec<InfluenceWire>,
        /// Present only on degraded partial answers (`allow_partial`); a
        /// full-coverage body omits the field entirely, keeping it
        /// byte-identical to the pre-coverage wire format.
        pub coverage: Option<CoverageWire>,
    }

    /// One value row of a one-dimensional slice.
    #[derive(Debug, Clone)]
    pub struct SliceValueWire {
        pub label: String,
        pub total: u64,
        /// Per-class counts, in `classes` order.
        pub counts: Vec<u64>,
        /// Per-class confidences; NaN encodes `null` (undefined on an empty
        /// value).
        pub confidences: Vec<f64>,
    }

    /// One dimension header of a pair slice.
    #[derive(Debug, Clone, Eq)]
    pub struct PairDimWire {
        pub attr: String,
        pub labels: Vec<String>,
    }

    /// One non-zero cell of a pair slice.
    #[derive(Debug, Clone, Eq)]
    pub struct PairCellWire {
        pub coords: [u64; 2],
        pub class: u64,
        pub count: u64,
    }

    /// The ingest acknowledgement (`/v1/ingest`).
    #[derive(Debug, Clone, Eq)]
    pub struct IngestResponse: encode, parse, from_json {
        pub accepted: u64,
        pub rows_total: u64,
        pub generation: u64,
    }

    /// The `/v1/compare/batch` body: item outcomes in request order.
    #[derive(Debug, Clone)]
    pub struct BatchResponse: encode, parse, from_json {
        pub items: Vec<BatchItemResult>,
    }
}

/// The cube-slice body (`/v1/cube/slice`): one-dimensional, or a pair
/// heatmap when `by` was given.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceResponse {
    OneDim {
        attr: String,
        total: u64,
        classes: Vec<String>,
        values: Vec<SliceValueWire>,
    },
    Pair {
        dims: Vec<PairDimWire>,
        classes: Vec<String>,
        total: u64,
        cells: Vec<PairCellWire>,
    },
}

wire!(@api SliceResponse encode);
wire!(@api SliceResponse parse);
wire!(@api SliceResponse from_json);

impl Wire for SliceResponse {
    fn write(&self, out: &mut String) {
        let mut o = Obj::new(out);
        match self {
            SliceResponse::OneDim {
                attr,
                total,
                classes,
                values,
            } => {
                o.field("attr", attr);
                o.field("total", total);
                o.field("classes", classes);
                o.field("values", values);
            }
            SliceResponse::Pair {
                dims,
                classes,
                total,
                cells,
            } => {
                o.field("dims", dims);
                o.field("classes", classes);
                o.field("total", total);
                o.field("cells", cells);
            }
        }
        o.close();
    }

    /// Either shape, told apart by whether `cells` is present.
    fn read(v: &Json) -> Result<Self, String> {
        if v.get("cells").is_some() {
            return Ok(SliceResponse::Pair {
                dims: field(v, "dims")?,
                classes: field(v, "classes")?,
                total: field(v, "total")?,
                cells: field(v, "cells")?,
            });
        }
        Ok(SliceResponse::OneDim {
            attr: field(v, "attr")?,
            total: field(v, "total")?,
            classes: field(v, "classes")?,
            values: field(v, "values")?,
        })
    }
}

/// One item's outcome in a `/v1/compare/batch` response. The batch is
/// partial by design: per-item failures are enveloped in place, never
/// failing the sibling items.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItemResult {
    Compare(CompareResponse),
    Drill(DrillResponse),
    Error(ErrorEnvelope),
}

impl Wire for BatchItemResult {
    fn write(&self, out: &mut String) {
        match self {
            BatchItemResult::Compare(r) => {
                let mut o = Obj::new(out);
                o.field("compare", r);
                o.close();
            }
            BatchItemResult::Drill(r) => {
                let mut o = Obj::new(out);
                o.field("drill", r);
                o.close();
            }
            BatchItemResult::Error(e) => e.write(out),
        }
    }

    fn read(v: &Json) -> Result<Self, String> {
        if let Some(c) = v.get("compare") {
            Ok(BatchItemResult::Compare(CompareResponse::read(c)?))
        } else if let Some(d) = v.get("drill") {
            Ok(BatchItemResult::Drill(DrillResponse::read(d)?))
        } else if v.get("error").is_some() {
            Ok(BatchItemResult::Error(ErrorEnvelope::read(v)?))
        } else {
            Err("expected \"compare\", \"drill\" or \"error\"".to_owned())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorCode;

    fn sample_explore() -> ExploreResponse {
        ExploreResponse {
            universe: 18_000,
            covered: 15_200,
            steps: 5,
            truncated: false,
            classes: vec!["ok".into(), "dropped".into()],
            summaries: vec![ExploreSummaryWire {
                conditions: vec![ExploreCondWire {
                    attr: "TimeOfCall".into(),
                    value: "morning".into(),
                }],
                support: 6_100,
                coverage: 6_100,
                confidences: vec![0.94, 0.06],
                side: None,
                mass: None,
            }],
            compare: None,
        }
    }

    #[test]
    fn explore_round_trips_plain() {
        let r = sample_explore();
        assert_eq!(
            r.encode(),
            "{\"universe\":18000,\"covered\":15200,\"steps\":5,\"truncated\":false,\
             \"classes\":[\"ok\",\"dropped\"],\"summaries\":[{\"conditions\":\
             [{\"attr\":\"TimeOfCall\",\"value\":\"morning\"}],\"support\":6100,\
             \"coverage\":6100,\"confidences\":[0.94,0.06]}]}"
        );
        assert_eq!(ExploreResponse::parse(&r.encode()).unwrap(), r);
    }

    #[test]
    fn explore_round_trips_compare_mode_and_truncation() {
        let mut r = sample_explore();
        r.truncated = true;
        r.summaries[0].side = Some(2);
        r.summaries[0].mass = Some(31.5);
        r.compare = Some(ExploreCompareWire {
            attribute: "PhoneModel".into(),
            value_1: "ph1".into(),
            value_2: "ph2".into(),
            swapped: true,
            class: "dropped".into(),
        });
        let body = r.encode();
        assert!(body.contains("\"truncated\":true"));
        assert!(body.contains("\"side\":2,\"mass\":31.5"));
        assert!(body.ends_with(
            "\"compare\":{\"attribute\":\"PhoneModel\",\"value_1\":\"ph1\",\
             \"value_2\":\"ph2\",\"swapped\":true,\"class\":\"dropped\"}}"
        ));
        assert_eq!(ExploreResponse::parse(&body).unwrap(), r);
    }

    fn sample_compare() -> CompareResponse {
        CompareResponse {
            attribute: "PhoneModel".into(),
            value_1: "ph1".into(),
            value_2: "ph2".into(),
            swapped: false,
            class: "dropped".into(),
            cf1: 0.02,
            cf2: 0.08,
            n1: 1000,
            n2: 900,
            ranked: vec![AttrScoreWire {
                attr: 3,
                name: "TimeOfCall".into(),
                score: 12.5,
                normalized: 0.9,
                property_p: 0,
                property_t: 3,
                property_ratio: 0.0,
                values: vec![ValueContributionWire {
                    value: "morning".into(),
                    n1: 300,
                    n2: 310,
                    x1: 5,
                    x2: 40,
                    cf1: Some(0.016_666_666_666_666_666),
                    cf2: None,
                    rcf1: 0.25,
                    rcf2: f64::NAN,
                    f: 0.1,
                    w: 31.0,
                }],
            }],
            property_attributes: vec![],
            coverage: None,
        }
    }

    #[test]
    fn compare_round_trips() {
        let r = sample_compare();
        assert_eq!(CompareResponse::parse(&r.encode()).unwrap(), r);
    }

    #[test]
    fn non_finite_floats_encode_null_and_compare_equal() {
        let mut r = sample_compare();
        r.cf1 = f64::INFINITY;
        let text = r.encode();
        assert!(text.contains("\"cf1\":null"));
        let back = CompareResponse::parse(&text).unwrap();
        assert!(back.cf1.is_nan());
        assert_eq!(back, r, "Inf and NaN are the same wire value");
    }

    #[test]
    fn drill_round_trips() {
        let r = DrillResponse {
            levels: vec![DrillLevelWire {
                conditions: vec!["TimeOfCall=morning".into()],
                result: sample_compare(),
            }],
        };
        assert_eq!(DrillResponse::parse(&r.encode()).unwrap(), r);
        assert!(r.encode().starts_with("{\"levels\":[{\"conditions\":["));
    }

    #[test]
    fn gi_round_trips() {
        let r = GiResponse {
            trends: vec![TrendWire {
                attr: "A".into(),
                class: "c".into(),
                trend: "increasing".into(),
                slope: 0.01,
                r_squared: 0.95,
            }],
            exceptions: vec![ExceptionWire {
                attr: "A".into(),
                value: "v".into(),
                class: "c".into(),
                kind: "high".into(),
                confidence: 0.3,
                rest_confidence: 0.1,
                z: 4.2,
            }],
            influence: vec![InfluenceWire {
                attr: "A".into(),
                chi2: 101.5,
                p_value: 0.0001,
                info_gain: 0.2,
            }],
            coverage: None,
        };
        assert_eq!(GiResponse::parse(&r.encode()).unwrap(), r);
    }

    #[test]
    fn coverage_round_trips_and_stays_off_full_answers() {
        let full = sample_compare();
        assert!(
            !full.encode().contains("coverage"),
            "full-coverage bodies carry no coverage key"
        );
        let mut partial = sample_compare();
        partial.coverage = Some(CoverageWire {
            partitions_total: 4,
            partitions_answered: 3,
            rows_covered_pct: 74.5,
            missing_partitions: vec![2],
            missing_shards: vec!["127.0.0.1:9102".into(), "127.0.0.1:9103".into()],
        });
        let text = partial.encode();
        assert!(text.contains("\"coverage\":{\"partitions_total\":4,\"partitions_answered\":3"));
        assert!(text.contains("\"missing_partitions\":[2]"));
        let back = CompareResponse::parse(&text).unwrap();
        assert_eq!(back, partial);
        assert_ne!(back, full);
    }

    #[test]
    fn slices_round_trip_both_shapes() {
        let one = SliceResponse::OneDim {
            attr: "A".into(),
            total: 10,
            classes: vec!["yes".into(), "no".into()],
            values: vec![SliceValueWire {
                label: "x".into(),
                total: 4,
                counts: vec![1, 3],
                confidences: vec![0.25, f64::NAN],
            }],
        };
        assert_eq!(SliceResponse::parse(&one.encode()).unwrap(), one);
        let pair = SliceResponse::Pair {
            dims: vec![
                PairDimWire {
                    attr: "A".into(),
                    labels: vec!["x".into()],
                },
                PairDimWire {
                    attr: "B".into(),
                    labels: vec!["y".into(), "z".into()],
                },
            ],
            classes: vec!["yes".into()],
            total: 7,
            cells: vec![PairCellWire {
                coords: [0, 1],
                class: 0,
                count: 7,
            }],
        };
        assert_eq!(SliceResponse::parse(&pair.encode()).unwrap(), pair);
    }

    #[test]
    fn ingest_round_trips() {
        let r = IngestResponse {
            accepted: 12,
            rows_total: 340,
            generation: 7,
        };
        assert_eq!(
            r.encode(),
            "{\"accepted\":12,\"rows_total\":340,\"generation\":7}"
        );
        assert_eq!(IngestResponse::parse(&r.encode()).unwrap(), r);
    }

    #[test]
    fn batch_round_trips_every_arm() {
        let r = BatchResponse {
            items: vec![
                BatchItemResult::Compare(sample_compare()),
                BatchItemResult::Drill(DrillResponse { levels: vec![] }),
                BatchItemResult::Error(ErrorEnvelope {
                    retry_after_ms: Some(1000),
                    ..ErrorEnvelope::new(ErrorCode::Overloaded, "out of budget")
                }),
            ],
        };
        assert_eq!(BatchResponse::parse(&r.encode()).unwrap(), r);
    }
}
