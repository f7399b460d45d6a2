//! Typed response bodies for every `/v1` endpoint.
//!
//! These are *wire* mirrors: they hold exactly what the JSON carries,
//! and their encoders write fields in declaration order with the
//! [`crate::json`] float and escape rules, pinned byte-for-byte by
//! om-server's golden files. Non-finite floats encode as `null` and
//! decode as NaN — the wire cannot distinguish NaN from ±Inf, so
//! equality on wire types treats all non-finite values as equal.

use std::fmt::Write as _;

use crate::de::{req_arr, req_bool, req_f64, req_str, req_u64};
use crate::error::ErrorEnvelope;
use crate::json::{esc, num, Json};

/// Wire float equality: exact for finite values; all non-finite values
/// are indistinguishable on the wire (`null`), hence equal.
fn feq(a: f64, b: f64) -> bool {
    a == b || (!a.is_finite() && !b.is_finite())
}

fn opt_feq(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => feq(a, b),
        (None, None) => true,
        // `Some(non-finite)` and `None` both encode as `null`.
        (Some(x), None) | (None, Some(x)) => !x.is_finite(),
    }
}

fn decode_f64_arr(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    req_arr(v, key)?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| format!("{key:?} holds a non-number")))
        .collect()
}

fn decode_u64_arr(v: &Json, key: &str) -> Result<Vec<u64>, String> {
    req_arr(v, key)?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("{key:?} holds a non-integer")))
        .collect()
}

fn decode_str_arr(v: &Json, key: &str) -> Result<Vec<String>, String> {
    req_arr(v, key)?
        .iter()
        .map(|x| {
            x.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("{key:?} holds a non-string"))
        })
        .collect()
}

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
    pub cf1: Option<f64>,
    pub cf2: Option<f64>,
    pub rcf1: f64,
    pub rcf2: f64,
    pub f: f64,
    pub w: f64,
}

impl PartialEq for ValueContributionWire {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
            && self.n1 == other.n1
            && self.n2 == other.n2
            && self.x1 == other.x1
            && self.x2 == other.x2
            && opt_feq(self.cf1, other.cf1)
            && opt_feq(self.cf2, other.cf2)
            && feq(self.rcf1, other.rcf1)
            && feq(self.rcf2, other.rcf2)
            && feq(self.f, other.f)
            && feq(self.w, other.w)
    }
}

impl ValueContributionWire {
    fn encode_into(&self, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"value":"{}","n1":{},"n2":{},"x1":{},"x2":{},"cf1":{},"cf2":{},"rcf1":{},"rcf2":{},"f":{},"w":{}}}"#,
            esc(&self.value),
            self.n1,
            self.n2,
            self.x1,
            self.x2,
            self.cf1.map_or("null".to_owned(), num),
            self.cf2.map_or("null".to_owned(), num),
            num(self.rcf1),
            num(self.rcf2),
            num(self.f),
            num(self.w)
        );
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let opt = |key: &str| -> Result<Option<f64>, String> {
            // `null` is a first-class value here (undefined confidence),
            // so it decodes to None rather than NaN.
            match v.get(key) {
                None => Err(format!("missing field {key:?}")),
                Some(Json::Null) => Ok(None),
                Some(x) => x
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("field {key:?} must be a number or null")),
            }
        };
        Ok(Self {
            value: req_str(v, "value")?,
            n1: req_u64(v, "n1")?,
            n2: req_u64(v, "n2")?,
            x1: req_u64(v, "x1")?,
            x2: req_u64(v, "x2")?,
            cf1: opt("cf1")?,
            cf2: opt("cf2")?,
            rcf1: req_f64(v, "rcf1")?,
            rcf2: req_f64(v, "rcf2")?,
            f: req_f64(v, "f")?,
            w: req_f64(v, "w")?,
        })
    }
}

/// One candidate attribute's score (ranked or property).
#[derive(Debug, Clone)]
pub struct AttrScoreWire {
    pub attr: u64,
    pub name: String,
    pub score: f64,
    pub normalized: f64,
    pub property_p: u64,
    pub property_t: u64,
    pub property_ratio: f64,
    pub values: Vec<ValueContributionWire>,
}

impl PartialEq for AttrScoreWire {
    fn eq(&self, other: &Self) -> bool {
        self.attr == other.attr
            && self.name == other.name
            && feq(self.score, other.score)
            && feq(self.normalized, other.normalized)
            && self.property_p == other.property_p
            && self.property_t == other.property_t
            && feq(self.property_ratio, other.property_ratio)
            && self.values == other.values
    }
}

impl AttrScoreWire {
    fn encode_into(&self, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"attr":{},"name":"{}","score":{},"normalized":{},"property":{{"p":{},"t":{},"ratio":{}}},"values":["#,
            self.attr,
            esc(&self.name),
            num(self.score),
            num(self.normalized),
            self.property_p,
            self.property_t,
            num(self.property_ratio)
        );
        for (i, c) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.encode_into(out);
        }
        out.push_str("]}");
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let property = v.get("property").ok_or("missing \"property\" object")?;
        Ok(Self {
            attr: req_u64(v, "attr")?,
            name: req_str(v, "name")?,
            score: req_f64(v, "score")?,
            normalized: req_f64(v, "normalized")?,
            property_p: req_u64(property, "p")?,
            property_t: req_u64(property, "t")?,
            property_ratio: req_f64(property, "ratio")?,
            values: req_arr(v, "values")?
                .iter()
                .map(ValueContributionWire::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Which part of a cluster answered a degraded (`allow_partial`)
/// request: the coverage envelope attached to partial results. A
/// response without one covers the full record set.
#[derive(Debug, Clone)]
pub struct CoverageWire {
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

impl PartialEq for CoverageWire {
    fn eq(&self, other: &Self) -> bool {
        self.partitions_total == other.partitions_total
            && self.partitions_answered == other.partitions_answered
            && feq(self.rows_covered_pct, other.rows_covered_pct)
            && self.missing_partitions == other.missing_partitions
            && self.missing_shards == other.missing_shards
    }
}

impl CoverageWire {
    fn encode_into(&self, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"partitions_total":{},"partitions_answered":{},"rows_covered_pct":{},"missing_partitions":["#,
            self.partitions_total,
            self.partitions_answered,
            num(self.rows_covered_pct)
        );
        for (i, p) in self.missing_partitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{p}");
        }
        out.push_str(r#"],"missing_shards":["#);
        for (i, s) in self.missing_shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", esc(s));
        }
        out.push_str("]}");
    }

    /// # Errors
    /// A message describing the shape mismatch.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            partitions_total: req_u64(v, "partitions_total")?,
            partitions_answered: req_u64(v, "partitions_answered")?,
            rows_covered_pct: req_f64(v, "rows_covered_pct")?,
            missing_partitions: decode_u64_arr(v, "missing_partitions")?,
            missing_shards: decode_str_arr(v, "missing_shards")?,
        })
    }
}

fn opt_coverage(v: &Json) -> Result<Option<CoverageWire>, String> {
    match v.get("coverage") {
        None | Some(Json::Null) => Ok(None),
        Some(c) => CoverageWire::from_json(c).map(Some),
    }
}

/// The full comparison body (`/v1/compare`, and each drill level).
#[derive(Debug, Clone)]
pub struct CompareResponse {
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

impl PartialEq for CompareResponse {
    fn eq(&self, other: &Self) -> bool {
        self.attribute == other.attribute
            && self.value_1 == other.value_1
            && self.value_2 == other.value_2
            && self.swapped == other.swapped
            && self.class == other.class
            && feq(self.cf1, other.cf1)
            && feq(self.cf2, other.cf2)
            && self.n1 == other.n1
            && self.n2 == other.n2
            && self.ranked == other.ranked
            && self.property_attributes == other.property_attributes
            && self.coverage == other.coverage
    }
}

impl CompareResponse {
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"attribute":"{}","value_1":"{}","value_2":"{}","swapped":{},"class":"{}","cf1":{},"cf2":{},"n1":{},"n2":{},"ranked":["#,
            esc(&self.attribute),
            esc(&self.value_1),
            esc(&self.value_2),
            self.swapped,
            esc(&self.class),
            num(self.cf1),
            num(self.cf2),
            self.n1,
            self.n2
        );
        for (i, s) in self.ranked.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            s.encode_into(out);
        }
        out.push_str(r#"],"property_attributes":["#);
        for (i, s) in self.property_attributes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            s.encode_into(out);
        }
        out.push(']');
        if let Some(cov) = &self.coverage {
            out.push_str(",\"coverage\":");
            cov.encode_into(out);
        }
        out.push('}');
    }

    /// # Errors
    /// A message describing the shape mismatch.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            attribute: req_str(v, "attribute")?,
            value_1: req_str(v, "value_1")?,
            value_2: req_str(v, "value_2")?,
            swapped: req_bool(v, "swapped")?,
            class: req_str(v, "class")?,
            cf1: req_f64(v, "cf1")?,
            cf2: req_f64(v, "cf2")?,
            n1: req_u64(v, "n1")?,
            n2: req_u64(v, "n2")?,
            ranked: req_arr(v, "ranked")?
                .iter()
                .map(AttrScoreWire::from_json)
                .collect::<Result<_, _>>()?,
            property_attributes: req_arr(v, "property_attributes")?
                .iter()
                .map(AttrScoreWire::from_json)
                .collect::<Result<_, _>>()?,
            coverage: opt_coverage(v)?,
        })
    }

    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }
}

/// One drill level: the conditions in force and its comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillLevelWire {
    /// Human-readable `"Attr=value"` labels, outermost first.
    pub conditions: Vec<String>,
    pub result: CompareResponse,
}

/// The drill body (`/v1/drill`).
#[derive(Debug, Clone, PartialEq)]
pub struct DrillResponse {
    pub levels: Vec<DrillLevelWire>,
}

impl DrillResponse {
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        out.push_str("{\"levels\":[");
        for (i, level) in self.levels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"conditions\":[");
            for (j, label) in level.conditions.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", esc(label));
            }
            out.push_str("],\"result\":");
            level.result.encode_into(out);
            out.push('}');
        }
        out.push_str("]}");
    }

    /// # Errors
    /// A message describing the shape mismatch.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let levels = req_arr(v, "levels")?
            .iter()
            .map(|level| {
                Ok(DrillLevelWire {
                    conditions: decode_str_arr(level, "conditions")?,
                    result: CompareResponse::from_json(
                        level.get("result").ok_or("missing \"result\"")?,
                    )?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { levels })
    }

    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }
}

/// One condition of an explore summary, by label.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl PartialEq for ExploreSummaryWire {
    fn eq(&self, other: &Self) -> bool {
        self.conditions == other.conditions
            && self.support == other.support
            && self.coverage == other.coverage
            && self.confidences.len() == other.confidences.len()
            && self
                .confidences
                .iter()
                .zip(&other.confidences)
                .all(|(&a, &b)| feq(a, b))
            && self.side == other.side
            && opt_feq(self.mass, other.mass)
    }
}

impl ExploreSummaryWire {
    fn encode_into(&self, out: &mut String) {
        out.push_str("{\"conditions\":[");
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#"{{"attr":"{}","value":"{}"}}"#,
                esc(&c.attr),
                esc(&c.value)
            );
        }
        let _ = write!(
            out,
            r#"],"support":{},"coverage":{},"confidences":["#,
            self.support, self.coverage
        );
        for (i, cf) in self.confidences.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&num(*cf));
        }
        out.push(']');
        if let Some(side) = self.side {
            let _ = write!(out, r#","side":{side}"#);
        }
        if let Some(mass) = self.mass {
            let _ = write!(out, r#","mass":{}"#, num(mass));
        }
        out.push('}');
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let conditions = req_arr(v, "conditions")?
            .iter()
            .map(|c| {
                Ok(ExploreCondWire {
                    attr: req_str(c, "attr")?,
                    value: req_str(c, "value")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let mass = match v.get("mass") {
            None => None,
            Some(Json::Null) => Some(f64::NAN),
            Some(x) => Some(x.as_f64().ok_or("field \"mass\" must be a number")?),
        };
        Ok(Self {
            conditions,
            support: req_u64(v, "support")?,
            coverage: req_u64(v, "coverage")?,
            confidences: decode_f64_arr(v, "confidences")?,
            side: match v.get("side") {
                None | Some(Json::Null) => None,
                Some(x) => Some(x.as_u64().ok_or("field \"side\" must be an integer")?),
            },
            mass,
        })
    }
}

/// The comparison block echoed back by an `explore_compare` body, with
/// the comparator's normalization (`swapped`) applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreCompareWire {
    pub attribute: String,
    pub value_1: String,
    pub value_2: String,
    pub swapped: bool,
    pub class: String,
}

impl ExploreCompareWire {
    fn encode_into(&self, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"attribute":"{}","value_1":"{}","value_2":"{}","swapped":{},"class":"{}"}}"#,
            esc(&self.attribute),
            esc(&self.value_1),
            esc(&self.value_2),
            self.swapped,
            esc(&self.class)
        );
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            attribute: req_str(v, "attribute")?,
            value_1: req_str(v, "value_1")?,
            value_2: req_str(v, "value_2")?,
            swapped: req_bool(v, "swapped")?,
            class: req_str(v, "class")?,
        })
    }
}

/// The smart drill-down body (`/v1/explore`).
///
/// `truncated: true` marks a budget-degraded partial: the summaries
/// present are a valid prefix of the full answer. The `compare` block
/// (and per-summary `side`/`mass`) appear only in compare mode, keeping
/// plain exploration bodies free of the fields entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreResponse {
    pub universe: u64,
    pub covered: u64,
    pub steps: u64,
    pub truncated: bool,
    /// Class labels indexing each summary's `confidences`.
    pub classes: Vec<String>,
    pub summaries: Vec<ExploreSummaryWire>,
    pub compare: Option<ExploreCompareWire>,
}

impl ExploreResponse {
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"universe":{},"covered":{},"steps":{},"truncated":{},"classes":["#,
            self.universe, self.covered, self.steps, self.truncated
        );
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", esc(c));
        }
        out.push_str("],\"summaries\":[");
        for (i, s) in self.summaries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            s.encode_into(out);
        }
        out.push(']');
        if let Some(cmp) = &self.compare {
            out.push_str(",\"compare\":");
            cmp.encode_into(out);
        }
        out.push('}');
    }

    /// # Errors
    /// A message describing the shape mismatch.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            universe: req_u64(v, "universe")?,
            covered: req_u64(v, "covered")?,
            steps: req_u64(v, "steps")?,
            truncated: req_bool(v, "truncated")?,
            classes: decode_str_arr(v, "classes")?,
            summaries: req_arr(v, "summaries")?
                .iter()
                .map(ExploreSummaryWire::from_json)
                .collect::<Result<_, _>>()?,
            compare: match v.get("compare") {
                None | Some(Json::Null) => None,
                Some(c) => Some(ExploreCompareWire::from_json(c)?),
            },
        })
    }

    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }
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

impl PartialEq for TrendWire {
    fn eq(&self, other: &Self) -> bool {
        self.attr == other.attr
            && self.class == other.class
            && self.trend == other.trend
            && feq(self.slope, other.slope)
            && feq(self.r_squared, other.r_squared)
    }
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

impl PartialEq for ExceptionWire {
    fn eq(&self, other: &Self) -> bool {
        self.attr == other.attr
            && self.value == other.value
            && self.class == other.class
            && self.kind == other.kind
            && feq(self.confidence, other.confidence)
            && feq(self.rest_confidence, other.rest_confidence)
            && feq(self.z, other.z)
    }
}

/// One influence entry.
#[derive(Debug, Clone)]
pub struct InfluenceWire {
    pub attr: String,
    pub chi2: f64,
    pub p_value: f64,
    pub info_gain: f64,
}

impl PartialEq for InfluenceWire {
    fn eq(&self, other: &Self) -> bool {
        self.attr == other.attr
            && feq(self.chi2, other.chi2)
            && feq(self.p_value, other.p_value)
            && feq(self.info_gain, other.info_gain)
    }
}

/// The general-impressions body (`/v1/gi`).
#[derive(Debug, Clone, PartialEq)]
pub struct GiResponse {
    pub trends: Vec<TrendWire>,
    pub exceptions: Vec<ExceptionWire>,
    pub influence: Vec<InfluenceWire>,
    /// Present only on degraded partial answers (`allow_partial`); a
    /// full-coverage body omits the field entirely, keeping it
    /// byte-identical to the pre-coverage wire format.
    pub coverage: Option<CoverageWire>,
}

impl GiResponse {
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\"trends\":[");
        for (i, t) in self.trends.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"attr\":\"{}\",\"class\":\"{}\",\"trend\":\"{}\",\"slope\":{},\"r_squared\":{}}}",
                esc(&t.attr),
                esc(&t.class),
                esc(&t.trend),
                num(t.slope),
                num(t.r_squared)
            );
        }
        out.push_str("],\"exceptions\":[");
        for (i, e) in self.exceptions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"attr\":\"{}\",\"value\":\"{}\",\"class\":\"{}\",\"kind\":\"{}\",\"confidence\":{},\"rest_confidence\":{},\"z\":{}}}",
                esc(&e.attr),
                esc(&e.value),
                esc(&e.class),
                esc(&e.kind),
                num(e.confidence),
                num(e.rest_confidence),
                num(e.z)
            );
        }
        out.push_str("],\"influence\":[");
        for (i, r) in self.influence.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"attr\":\"{}\",\"chi2\":{},\"p_value\":{},\"info_gain\":{}}}",
                esc(&r.attr),
                num(r.chi2),
                num(r.p_value),
                num(r.info_gain)
            );
        }
        out.push(']');
        if let Some(cov) = &self.coverage {
            out.push_str(",\"coverage\":");
            cov.encode_into(&mut out);
        }
        out.push('}');
        out
    }

    /// # Errors
    /// A message describing the shape mismatch.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let trends = req_arr(v, "trends")?
            .iter()
            .map(|t| {
                Ok(TrendWire {
                    attr: req_str(t, "attr")?,
                    class: req_str(t, "class")?,
                    trend: req_str(t, "trend")?,
                    slope: req_f64(t, "slope")?,
                    r_squared: req_f64(t, "r_squared")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let exceptions = req_arr(v, "exceptions")?
            .iter()
            .map(|e| {
                Ok(ExceptionWire {
                    attr: req_str(e, "attr")?,
                    value: req_str(e, "value")?,
                    class: req_str(e, "class")?,
                    kind: req_str(e, "kind")?,
                    confidence: req_f64(e, "confidence")?,
                    rest_confidence: req_f64(e, "rest_confidence")?,
                    z: req_f64(e, "z")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let influence = req_arr(v, "influence")?
            .iter()
            .map(|r| {
                Ok(InfluenceWire {
                    attr: req_str(r, "attr")?,
                    chi2: req_f64(r, "chi2")?,
                    p_value: req_f64(r, "p_value")?,
                    info_gain: req_f64(r, "info_gain")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            trends,
            exceptions,
            influence,
            coverage: opt_coverage(v)?,
        })
    }

    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }
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

impl PartialEq for SliceValueWire {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.total == other.total
            && self.counts == other.counts
            && self.confidences.len() == other.confidences.len()
            && self
                .confidences
                .iter()
                .zip(&other.confidences)
                .all(|(a, b)| feq(*a, *b))
    }
}

/// One dimension header of a pair slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairDimWire {
    pub attr: String,
    pub labels: Vec<String>,
}

/// One non-zero cell of a pair slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairCellWire {
    pub coords: [u64; 2],
    pub class: u64,
    pub count: u64,
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

impl SliceResponse {
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(1024);
        match self {
            SliceResponse::OneDim {
                attr,
                total,
                classes,
                values,
            } => {
                let _ = write!(
                    out,
                    "{{\"attr\":\"{}\",\"total\":{total},\"classes\":[",
                    esc(attr)
                );
                for (i, c) in classes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\"", esc(c));
                }
                out.push_str("],\"values\":[");
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"label\":\"{}\",\"total\":{},\"counts\":[",
                        esc(&v.label),
                        v.total
                    );
                    for (j, n) in v.counts.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{n}");
                    }
                    out.push_str("],\"confidences\":[");
                    for (j, cf) in v.confidences.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&num(*cf));
                    }
                    out.push_str("]}");
                }
                out.push_str("]}");
            }
            SliceResponse::Pair {
                dims,
                classes,
                total,
                cells,
            } => {
                out.push_str("{\"dims\":[");
                for (i, dim) in dims.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{{\"attr\":\"{}\",\"labels\":[", esc(&dim.attr));
                    for (j, label) in dim.labels.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{}\"", esc(label));
                    }
                    out.push_str("]}");
                }
                out.push_str("],\"classes\":[");
                for (i, c) in classes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\"", esc(c));
                }
                let _ = write!(out, "],\"total\":{total},\"cells\":[");
                for (i, cell) in cells.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"coords\":[{},{}],\"class\":{},\"count\":{}}}",
                        // om-lint: allow(panic-path) — coords is a fixed [u64; 2]
                        cell.coords[0], cell.coords[1], cell.class, cell.count
                    );
                }
                out.push_str("]}");
            }
        }
        out
    }

    /// Decode either shape, dispatching on which fields are present.
    ///
    /// # Errors
    /// A message describing the shape mismatch.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        if v.get("cells").is_some() {
            let dims = req_arr(v, "dims")?
                .iter()
                .map(|d| {
                    Ok(PairDimWire {
                        attr: req_str(d, "attr")?,
                        labels: decode_str_arr(d, "labels")?,
                    })
                })
                .collect::<Result<_, String>>()?;
            let cells = req_arr(v, "cells")?
                .iter()
                .map(|cell| {
                    let coords = decode_u64_arr(cell, "coords")?;
                    let [a, b] = coords[..] else {
                        return Err("\"coords\" must hold exactly 2 entries".to_owned());
                    };
                    Ok(PairCellWire {
                        coords: [a, b],
                        class: req_u64(cell, "class")?,
                        count: req_u64(cell, "count")?,
                    })
                })
                .collect::<Result<_, String>>()?;
            return Ok(SliceResponse::Pair {
                dims,
                classes: decode_str_arr(v, "classes")?,
                total: req_u64(v, "total")?,
                cells,
            });
        }
        let values = req_arr(v, "values")?
            .iter()
            .map(|value| {
                Ok(SliceValueWire {
                    label: req_str(value, "label")?,
                    total: req_u64(value, "total")?,
                    counts: decode_u64_arr(value, "counts")?,
                    confidences: decode_f64_arr(value, "confidences")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(SliceResponse::OneDim {
            attr: req_str(v, "attr")?,
            total: req_u64(v, "total")?,
            classes: decode_str_arr(v, "classes")?,
            values,
        })
    }

    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }
}

/// The ingest acknowledgement (`/v1/ingest`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestResponse {
    pub accepted: u64,
    pub rows_total: u64,
    pub generation: u64,
}

impl IngestResponse {
    #[must_use]
    pub fn encode(&self) -> String {
        format!(
            "{{\"accepted\":{},\"rows_total\":{},\"generation\":{}}}",
            self.accepted, self.rows_total, self.generation
        )
    }

    /// # Errors
    /// A message describing the shape mismatch.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            accepted: req_u64(v, "accepted")?,
            rows_total: req_u64(v, "rows_total")?,
            generation: req_u64(v, "generation")?,
        })
    }

    /// # Errors
    /// A message describing the parse or shape failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
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

/// The `/v1/compare/batch` body: item outcomes in request order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResponse {
    pub items: Vec<BatchItemResult>,
}

impl BatchResponse {
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"items\":[");
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match item {
                BatchItemResult::Compare(r) => {
                    out.push_str("{\"compare\":");
                    r.encode_into(&mut out);
                    out.push('}');
                }
                BatchItemResult::Drill(r) => {
                    out.push_str("{\"drill\":");
                    r.encode_into(&mut out);
                    out.push('}');
                }
                BatchItemResult::Error(e) => out.push_str(&e.encode()),
            }
        }
        out.push_str("]}");
        out
    }

    /// # Errors
    /// A message describing the shape mismatch.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let items = req_arr(v, "items")?
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let decoded = if let Some(c) = item.get("compare") {
                    BatchItemResult::Compare(CompareResponse::from_json(c)?)
                } else if let Some(d) = item.get("drill") {
                    BatchItemResult::Drill(DrillResponse::from_json(d)?)
                } else if item.get("error").is_some() {
                    BatchItemResult::Error(ErrorEnvelope::from_json(item)?)
                } else {
                    return Err(format!(
                        "item {}: expected \"compare\", \"drill\" or \"error\"",
                        i + 1
                    ));
                };
                Ok(decoded)
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { items })
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
