//! The versioned `/v1` API: typed JSON bodies in, typed JSON bodies out.
//!
//! Every endpoint is `POST`-only, decodes its request through the
//! [`om_api`] request types, runs its backend through the
//! [`EngineOps`] seam — the resident engine on a single node, the
//! om-cluster coordinator in cluster mode — and encodes its response
//! through the [`om_api`] wire types. Failures always answer with the
//! uniform envelope
//! `{"error":{"code","message","retry_after_ms"?,"row"?}}`; the HTTP
//! status is derived from the code.

use om_api::{
    AttrScoreWire, BatchItemRequest, BatchItemResult, BatchRequest, BatchResponse, CompareRequest,
    CompareResponse, DrillLevelWire, DrillRequest, DrillResponse, ErrorCode, ErrorEnvelope,
    ExceptionWire, ExploreCompareWire, ExploreCondWire, ExploreRequest, ExploreResponse,
    ExploreSummaryWire, GiRequest, GiResponse, InfluenceWire, IngestResponse, LabelRows,
    PairCellWire, PairDimWire, SliceRequest, SliceResponse, SliceValueWire, TrendWire,
    ValueContributionWire,
};
use om_compare::{AttrScore, ComparisonResult, DrillConfig, DrillLevel};
use om_cube::CubeView;
use om_engine::{
    BatchItem, BatchOutcome, CompareNames, EngineError, ExploreQuery, ExploreReport, GiReport,
};
use om_gi::Trend;

use crate::http::{Request, Response};
use crate::ops::EngineOps;
use crate::ops::OpsError;
use crate::router::{bad_request, wrong_method, RouteOptions};

// ---------------------------------------------------------------------
// engine results -> om-api wire types
// ---------------------------------------------------------------------

fn attr_score_wire(s: &AttrScore) -> AttrScoreWire {
    AttrScoreWire {
        attr: s.attr as u64,
        name: s.attr_name.clone(),
        score: s.score,
        normalized: s.normalized,
        property_p: s.property.p as u64,
        property_t: s.property.t as u64,
        property_ratio: s.property.ratio(),
        values: s
            .contributions
            .iter()
            .map(|c| ValueContributionWire {
                value: c.label.clone(),
                n1: c.n1,
                n2: c.n2,
                x1: c.x1,
                x2: c.x2,
                cf1: c.cf1,
                cf2: c.cf2,
                rcf1: c.rcf1,
                rcf2: c.rcf2,
                f: c.f,
                w: c.w,
            })
            .collect(),
    }
}

/// The wire form of one comparison — the body of `POST /v1/compare`
/// and of `opmap compare --format json`.
#[must_use]
pub fn compare_wire(r: &ComparisonResult) -> CompareResponse {
    CompareResponse {
        attribute: r.attr_name.clone(),
        value_1: r.value_1_label.clone(),
        value_2: r.value_2_label.clone(),
        swapped: r.swapped,
        class: r.class_label.clone(),
        cf1: r.cf1,
        cf2: r.cf2,
        n1: r.n1,
        n2: r.n2,
        ranked: r.ranked.iter().map(attr_score_wire).collect(),
        property_attributes: r.property_attrs.iter().map(attr_score_wire).collect(),
        coverage: None,
    }
}

pub(crate) fn drill_wire(levels: &[DrillLevel]) -> DrillResponse {
    DrillResponse {
        levels: levels
            .iter()
            .map(|level| DrillLevelWire {
                conditions: level.condition_labels.clone(),
                result: compare_wire(&level.result),
            })
            .collect(),
    }
}

pub(crate) fn gi_wire(report: &GiReport, top: usize) -> GiResponse {
    GiResponse {
        trends: report
            .trends
            .iter()
            .filter_map(|t| {
                let trend = match t.trend {
                    Trend::Increasing => "increasing",
                    Trend::Decreasing => "decreasing",
                    Trend::Stable => "stable",
                    Trend::None => return None,
                };
                Some(TrendWire {
                    attr: t.attr_name.clone(),
                    class: t.class_label.clone(),
                    trend: trend.to_owned(),
                    slope: t.slope,
                    r_squared: t.r_squared,
                })
            })
            .collect(),
        exceptions: report
            .exceptions
            .iter()
            .take(top)
            .map(|e| ExceptionWire {
                attr: e.attr_name.clone(),
                value: e.value_label.clone(),
                class: e.class_label.clone(),
                kind: match e.kind {
                    om_gi::ExceptionKind::High => "high",
                    om_gi::ExceptionKind::Low => "low",
                }
                .to_owned(),
                confidence: e.confidence,
                rest_confidence: e.rest_confidence,
                z: e.z,
            })
            .collect(),
        influence: report
            .influence
            .iter()
            .take(top)
            .map(|r| InfluenceWire {
                attr: r.attr_name.clone(),
                chi2: r.chi2,
                p_value: r.p_value,
                info_gain: r.info_gain,
            })
            .collect(),
        coverage: None,
    }
}

pub(crate) fn explore_wire(report: &ExploreReport) -> ExploreResponse {
    ExploreResponse {
        universe: report.universe,
        covered: report.covered,
        steps: report.steps,
        truncated: report.truncated,
        classes: report.classes.clone(),
        summaries: report
            .summaries
            .iter()
            .map(|s| ExploreSummaryWire {
                conditions: s
                    .conds
                    .iter()
                    .map(|c| ExploreCondWire {
                        attr: c.attr.clone(),
                        value: c.value.clone(),
                    })
                    .collect(),
                support: s.support,
                coverage: s.coverage,
                confidences: s.confidences.clone(),
                side: s.side.map(u64::from),
                mass: s.mass,
            })
            .collect(),
        compare: report.compare.as_ref().map(|c| ExploreCompareWire {
            attribute: c.attr.clone(),
            value_1: c.value_1.clone(),
            value_2: c.value_2.clone(),
            swapped: c.swapped,
            class: c.class.clone(),
        }),
    }
}

// ---------------------------------------------------------------------
// error mapping
// ---------------------------------------------------------------------

fn overloaded(message: String, opts: &RouteOptions) -> ErrorEnvelope {
    ErrorEnvelope {
        retry_after_ms: Some(opts.retry_after_secs.saturating_mul(1000)),
        ..ErrorEnvelope::new(ErrorCode::Overloaded, message)
    }
}

/// Map engine failures onto envelope codes: unknown names are lookup
/// errors (`404`), overload faults (deadline, cancellation) are `503`
/// with a retry hint, injected faults are `500`, anything else is a
/// valid request the engine could not satisfy (`422`).
fn engine_envelope(e: &EngineError, opts: &RouteOptions) -> ErrorEnvelope {
    if e.is_overload() {
        return overloaded(e.to_string(), opts);
    }
    let code = match e {
        EngineError::Unknown(_) => ErrorCode::UnknownName,
        EngineError::Fault(_) => ErrorCode::Internal,
        _ => ErrorCode::Invalid,
    };
    ErrorEnvelope::new(code, e.to_string())
}

/// Collapse a backend failure to its envelope: engine errors go
/// through [`engine_envelope`], coordinator envelopes pass through
/// verbatim (they arrive with code and retry hint decided).
fn ops_envelope(e: &OpsError, opts: &RouteOptions) -> ErrorEnvelope {
    match e {
        OpsError::Engine(e) => engine_envelope(e, opts),
        OpsError::Envelope(env) => env.clone(),
    }
}

// ---------------------------------------------------------------------
// handlers
// ---------------------------------------------------------------------

fn compare(
    req: &Request,
    ops: &dyn EngineOps,
    opts: &RouteOptions,
) -> Result<Response, ErrorEnvelope> {
    let body = CompareRequest::parse(&req.body).map_err(bad_request)?;
    if body.allow_partial == Some(true) {
        let (result, coverage) = ops
            .run_compare_by_name_partial(&body.attr, &body.v1, &body.v2, &body.class, &opts.budget)
            .map_err(|e| ops_envelope(&e, opts))?;
        let mut wire = compare_wire(&result);
        wire.coverage = coverage;
        return Ok(Response::json(wire.encode()));
    }
    let result = ops
        .run_compare_by_name(&body.attr, &body.v1, &body.v2, &body.class, &opts.budget)
        .map_err(|e| ops_envelope(&e, opts))?;
    Ok(Response::json(compare_wire(&result).encode()))
}

fn drill_config_for(
    ops: &dyn EngineOps,
    depth: Option<u64>,
    min_score: Option<f64>,
) -> DrillConfig {
    let defaults = DrillConfig::default();
    DrillConfig {
        compare: ops.compare_config(),
        max_depth: depth.map_or(defaults.max_depth, |d| {
            usize::try_from(d).unwrap_or(usize::MAX)
        }),
        min_normalized_score: min_score.unwrap_or(defaults.min_normalized_score),
    }
}

fn drill(
    req: &Request,
    ops: &dyn EngineOps,
    opts: &RouteOptions,
) -> Result<Response, ErrorEnvelope> {
    let body = DrillRequest::parse(&req.body).map_err(bad_request)?;
    // `null` decodes as NaN, and no score is below NaN: a non-finite
    // floor would silently walk to the maximum depth.
    if body.min_score.is_some_and(|s| !s.is_finite()) {
        return Err(ErrorEnvelope::new(
            ErrorCode::Invalid,
            "\"min_score\" must be a finite number",
        ));
    }
    let config = drill_config_for(ops, body.depth, body.min_score);
    if body.path.is_empty() {
        let levels = ops
            .run_drill_down_by_name(
                &body.attr,
                &body.v1,
                &body.v2,
                &body.class,
                &config,
                &opts.budget,
            )
            .map_err(|e| ops_envelope(&e, opts))?;
        return Ok(Response::json(drill_wire(&levels).encode()));
    }
    // A fixed path: resolve the conditions by name and walk them through
    // the batch executor (a one-item batch), which owns path semantics.
    let spec = ops
        .spec_by_name(&body.attr, &body.v1, &body.v2, &body.class)
        .map_err(|e| ops_envelope(&e, opts))?;
    let path = body
        .path
        .iter()
        .map(|step| ops.condition_by_name(&step.attr, &step.value))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| ops_envelope(&e, opts))?;
    let item = BatchItem::Drill {
        spec,
        path,
        budget_ms: None,
    };
    let outcomes = ops
        .run_batch(std::slice::from_ref(&item), &config, &opts.budget)
        .map_err(|e| ops_envelope(&e, opts))?;
    match outcomes.into_iter().next() {
        Some(BatchOutcome::Drill(levels)) => Ok(Response::json(drill_wire(&levels).encode())),
        Some(BatchOutcome::Overloaded { message }) => Err(overloaded(message, opts)),
        Some(BatchOutcome::Failed { message }) => {
            Err(ErrorEnvelope::new(ErrorCode::Invalid, message))
        }
        // One item in, one drill outcome out is the engine contract;
        // a missing or mismatched outcome is an internal fault the
        // client should see as a 500, not a worker panic.
        Some(BatchOutcome::Compare(_)) | None => Err(ErrorEnvelope::new(
            ErrorCode::Internal,
            "engine answered the drill item with a mismatched outcome",
        )),
    }
}

fn gi(req: &Request, ops: &dyn EngineOps, opts: &RouteOptions) -> Result<Response, ErrorEnvelope> {
    let body = GiRequest::parse(&req.body).map_err(bad_request)?;
    let top = body
        .top
        .map_or(10, |t| usize::try_from(t).unwrap_or(usize::MAX));
    if body.allow_partial == Some(true) {
        let (report, coverage) = ops
            .run_general_impressions_partial(&opts.budget)
            .map_err(|e| ops_envelope(&e, opts))?;
        let mut wire = gi_wire(&report, top);
        wire.coverage = coverage;
        return Ok(Response::json(wire.encode()));
    }
    let report = ops
        .run_general_impressions(&opts.budget)
        .map_err(|e| ops_envelope(&e, opts))?;
    Ok(Response::json(gi_wire(&report, top).encode()))
}

fn cube_slice(
    req: &Request,
    ops: &dyn EngineOps,
    opts: &RouteOptions,
) -> Result<Response, ErrorEnvelope> {
    let body = SliceRequest::parse(&req.body).map_err(bad_request)?;
    let attr = ops
        .attr_index(&body.attr)
        .map_err(|e| ops_envelope(&e, opts))?;
    let store = ops
        .query_store(&opts.budget)
        .map_err(|e| ops_envelope(&e, opts))?;
    let response = match &body.by {
        None => {
            let cube = store.one_dim(attr).map_err(|e| {
                ErrorEnvelope::new(ErrorCode::UnknownName, format!("cube error: {e}"))
            })?;
            let view = CubeView::from_cube(&cube)
                .map_err(|e| ErrorEnvelope::new(ErrorCode::Invalid, format!("cube error: {e}")))?;
            let values = (0u32..)
                .zip(view.value_labels())
                .map(|(v, label)| SliceValueWire {
                    label: label.clone(),
                    total: view.value_total(v),
                    counts: (0..view.n_classes() as u32)
                        .map(|c| view.count(v, c))
                        .collect(),
                    // NaN is the wire's spelling of "empty value": it
                    // encodes as `null`.
                    confidences: (0..view.n_classes() as u32)
                        .map(|c| view.confidence(v, c).unwrap_or(f64::NAN))
                        .collect(),
                })
                .collect();
            SliceResponse::OneDim {
                attr: view.attr_name().to_owned(),
                total: view.total(),
                classes: view.class_labels().to_vec(),
                values,
            }
        }
        Some(by_name) => {
            let by = ops
                .attr_index(by_name)
                .map_err(|e| ops_envelope(&e, opts))?;
            let cube = store
                .pair(attr, by)
                .map_err(|e| ErrorEnvelope::new(ErrorCode::NotFound, format!("cube error: {e}")))?;
            let cells = cube
                .iter_cells()
                .filter(|(_, _, count)| *count > 0)
                .map(|(coords, class, count)| PairCellWire {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "pair-cube cells are 2-D by construction"
                    )]
                    coords: [u64::from(coords[0]), u64::from(coords[1])],
                    class: u64::from(class),
                    count,
                })
                .collect();
            SliceResponse::Pair {
                dims: cube
                    .dims()
                    .iter()
                    .map(|dim| PairDimWire {
                        attr: dim.name.to_string(),
                        labels: dim.labels.to_vec(),
                    })
                    .collect(),
                classes: cube.class_labels().to_vec(),
                total: cube.total(),
                cells,
            }
        }
    };
    Ok(Response::json(response.encode()))
}

fn explore(
    req: &Request,
    ops: &dyn EngineOps,
    opts: &RouteOptions,
) -> Result<Response, ErrorEnvelope> {
    let body = ExploreRequest::parse(&req.body).map_err(bad_request)?;
    let query = ExploreQuery {
        slice: body
            .slice
            .iter()
            .map(|step| (step.attr.clone(), step.value.clone()))
            .collect(),
        k: usize::try_from(body.k).unwrap_or(usize::MAX),
        max_conditions: body
            .max_conditions
            .map(|m| usize::try_from(m).unwrap_or(usize::MAX)),
        compare: body.compare.as_ref().map(|c| CompareNames {
            attr: c.attr.clone(),
            value_1: c.v1.clone(),
            value_2: c.v2.clone(),
            class: c.class.clone(),
        }),
    };
    // A request-level budget can only narrow the route budget — the
    // server deadline still caps the whole request.
    let budget = body.budget_ms.map_or_else(
        || opts.budget.clone(),
        |ms| opts.budget.narrowed(std::time::Duration::from_millis(ms)),
    );
    let started = std::time::Instant::now();
    let report = match ops.run_explore(&query, &budget) {
        Ok(report) => {
            if let Some(metrics) = &opts.metrics {
                let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                metrics.record_explore(
                    report.steps,
                    report.summaries.len() as u64,
                    report.truncated,
                    us,
                );
            }
            report
        }
        Err(e) => {
            let env = ops_envelope(&e, opts);
            // An exhausted budget with zero finished summaries is still a
            // budget exhaustion — count it alongside truncated answers.
            if env.code == ErrorCode::Overloaded {
                if let Some(metrics) = &opts.metrics {
                    metrics.record_explore_exhausted();
                }
            }
            return Err(env);
        }
    };
    Ok(Response::json(explore_wire(&report).encode()))
}

fn ingest(
    req: &Request,
    ops: &dyn EngineOps,
    opts: &RouteOptions,
) -> Result<Response, ErrorEnvelope> {
    if !ops.ingest_enabled() {
        return Err(ErrorEnvelope::new(
            ErrorCode::NotFound,
            "live ingestion is not enabled (start the server with an ingest WAL)",
        ));
    }
    opts.budget
        .check()
        .map_err(|e| overloaded(e.to_string(), opts))?;
    let rows = LabelRows::decode(&req.body).map_err(bad_request)?;
    let ack = ops
        .ingest_table(&rows)
        .map_err(|e| ops_envelope(&e, opts))?;
    Ok(Response::json(
        IngestResponse {
            accepted: ack.accepted,
            rows_total: ack.rows_total,
            generation: ack.generation,
        }
        .encode(),
    ))
}

/// Resolve one batch item's names into an engine [`BatchItem`]; per-item
/// failures become per-item envelopes, never batch failures.
fn resolve_batch_item(
    ops: &dyn EngineOps,
    item: &BatchItemRequest,
    opts: &RouteOptions,
) -> Result<BatchItem, ErrorEnvelope> {
    match item {
        BatchItemRequest::Compare { req, budget_ms } => {
            if req.allow_partial.is_some() {
                return Err(ErrorEnvelope::new(
                    ErrorCode::Invalid,
                    "batch compare items are always all-or-nothing; \
                     \"allow_partial\" is only accepted on /v1/compare",
                ));
            }
            let spec = ops
                .spec_by_name(&req.attr, &req.v1, &req.v2, &req.class)
                .map_err(|e| ops_envelope(&e, opts))?;
            Ok(BatchItem::Compare {
                spec,
                budget_ms: *budget_ms,
            })
        }
        BatchItemRequest::Drill { req, budget_ms } => {
            if req.depth.is_some() || req.min_score.is_some() {
                return Err(ErrorEnvelope::new(
                    ErrorCode::Invalid,
                    "batch drill items run under the server's drill configuration; \
                     \"depth\" and \"min_score\" are only accepted on /v1/drill",
                ));
            }
            let spec = ops
                .spec_by_name(&req.attr, &req.v1, &req.v2, &req.class)
                .map_err(|e| ops_envelope(&e, opts))?;
            let path = req
                .path
                .iter()
                .map(|step| ops.condition_by_name(&step.attr, &step.value))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| ops_envelope(&e, opts))?;
            Ok(BatchItem::Drill {
                spec,
                path,
                budget_ms: *budget_ms,
            })
        }
    }
}

fn batch(
    req: &Request,
    ops: &dyn EngineOps,
    opts: &RouteOptions,
) -> Result<Response, ErrorEnvelope> {
    let body = BatchRequest::parse(&req.body).map_err(bad_request)?;
    let resolved: Vec<Result<BatchItem, ErrorEnvelope>> = body
        .items
        .iter()
        .map(|item| resolve_batch_item(ops, item, opts))
        .collect();
    let runnable: Vec<BatchItem> = resolved.iter().filter_map(|r| r.clone().ok()).collect();
    let drill_config = drill_config_for(ops, None, None);
    // Nothing runnable means nothing to execute: don't touch the engine
    // (a clustered backend would needlessly pin a store generation) —
    // the per-item envelopes already tell the whole story.
    let outcomes = if runnable.is_empty() {
        Vec::new()
    } else {
        ops.run_batch(&runnable, &drill_config, &opts.budget)
            .map_err(|e| ops_envelope(&e, opts))?
    };
    let mut outcomes = outcomes.into_iter();
    let items = resolved
        .into_iter()
        .map(|r| match r {
            Err(env) => BatchItemResult::Error(env),
            Ok(_) => match outcomes.next() {
                Some(BatchOutcome::Compare(result)) => {
                    BatchItemResult::Compare(compare_wire(&result))
                }
                Some(BatchOutcome::Drill(levels)) => BatchItemResult::Drill(drill_wire(&levels)),
                Some(BatchOutcome::Overloaded { message }) => {
                    BatchItemResult::Error(overloaded(message, opts))
                }
                Some(BatchOutcome::Failed { message }) => {
                    BatchItemResult::Error(ErrorEnvelope::new(ErrorCode::Invalid, message))
                }
                // The engine yields one outcome per runnable item;
                // running dry is an internal fault reported per-item.
                None => BatchItemResult::Error(ErrorEnvelope::new(
                    ErrorCode::Internal,
                    "engine returned fewer batch outcomes than runnable items".to_owned(),
                )),
            },
        })
        .collect();
    Ok(Response::json(BatchResponse { items }.encode()))
}

/// Route one `/v1/*` request. Every endpoint is `POST`; anything else
/// gets a `method_not_allowed` envelope, unknown paths a `not_found`.
#[must_use]
pub fn route_v1(req: &Request, ops: &dyn EngineOps, opts: &RouteOptions) -> Response {
    if req.method != "POST" {
        return wrong_method(req, "POST").into();
    }
    let outcome = match req.path.as_str() {
        "/v1/compare" => compare(req, ops, opts),
        "/v1/drill" => drill(req, ops, opts),
        "/v1/gi" => gi(req, ops, opts),
        "/v1/cube/slice" => cube_slice(req, ops, opts),
        "/v1/explore" => explore(req, ops, opts),
        "/v1/ingest" => ingest(req, ops, opts),
        "/v1/compare/batch" => batch(req, ops, opts),
        other => Err(ErrorEnvelope::new(
            ErrorCode::NotFound,
            format!("no v1 route for {other:?}"),
        )),
    };
    outcome.unwrap_or_else(Response::from)
}
