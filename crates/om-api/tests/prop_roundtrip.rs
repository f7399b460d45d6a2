//! Property tests: every om-api wire type satisfies
//! `parse(encode(x)) == x`, including non-finite floats (which all
//! collapse to the single wire value `null`) and arbitrary Unicode in
//! every string position, and its bytes are a fixed point:
//! `encode(parse(encode(x))) == encode(x)`.

use om_api::{
    AttrScoreWire, BatchItemRequest, BatchItemResult, BatchRequest, BatchResponse, CompareRequest,
    CompareResponse, ConditionWire, CoverageWire, DrillLevelWire, DrillRequest, DrillResponse,
    ErrorCode, ErrorEnvelope, ExceptionWire, ExploreCompareBlock, ExploreCompareWire,
    ExploreCondWire, ExploreRequest, ExploreResponse, ExploreSummaryWire, GiRequest, GiResponse,
    InfluenceWire, IngestRequest, IngestResponse, InternalCountRequest, InternalCountResponse,
    InternalGenerationResponse, InternalLevelRequest, InternalLevelResponse,
    InternalSchemaResponse, InternalStoreResponse, PairCellWire, PairDimWire, PathStep,
    SliceRequest, SliceResponse, SliceValueWire, TrendWire, ValueContributionWire,
};
use proptest::prelude::*;

/// Both halves of the contract for one value of a wire type.
macro_rules! round_trip {
    ($ty:ident, $x:expr) => {{
        let x = $x;
        let text = x.encode();
        let back = $ty::parse(&text).unwrap();
        prop_assert_eq!(back.encode(), text);
        prop_assert_eq!(back, x);
    }};
}

/// Arbitrary Unicode (quotes, backslashes, control and astral-plane
/// chars included), kept short so the cases stay fast.
fn label() -> impl Strategy<Value = String> {
    collection::vec(0u32..0x11_0000, 0..12)
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

/// Finite or non-finite; the wire encodes every non-finite as `null`.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -1.0e12..1.0e12f64,
        1 => Just(f64::NAN),
        1 => prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
    ]
}

/// Counts: u64 on the wire, but JSON numbers are only exact to 2^53,
/// and real counts fit comfortably in u32.
fn count() -> impl Strategy<Value = u64> {
    0..u64::from(u32::MAX)
}

fn coin() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

fn value_contribution() -> impl Strategy<Value = ValueContributionWire> {
    (
        label(),
        (count(), count(), count(), count()),
        proptest::option::of(float()),
        proptest::option::of(float()),
        (float(), float(), float(), float()),
    )
        .prop_map(|(value, (n1, n2, x1, x2), cf1, cf2, (rcf1, rcf2, f, w))| {
            ValueContributionWire {
                value,
                n1,
                n2,
                x1,
                x2,
                cf1,
                cf2,
                rcf1,
                rcf2,
                f,
                w,
            }
        })
}

fn attr_score() -> impl Strategy<Value = AttrScoreWire> {
    (
        count(),
        label(),
        (float(), float(), float()),
        count(),
        count(),
        collection::vec(value_contribution(), 0..3),
    )
        .prop_map(
            |(attr, name, (score, normalized, property_ratio), property_p, property_t, values)| {
                AttrScoreWire {
                    attr,
                    name,
                    score,
                    normalized,
                    property_p,
                    property_t,
                    property_ratio,
                    values,
                }
            },
        )
}

fn coverage() -> impl Strategy<Value = CoverageWire> {
    (
        (count(), count()),
        float(),
        collection::vec(count(), 0..4),
        collection::vec(label(), 0..4),
    )
        .prop_map(
            |(
                (partitions_total, partitions_answered),
                rows_covered_pct,
                missing_partitions,
                missing_shards,
            )| CoverageWire {
                partitions_total,
                partitions_answered,
                rows_covered_pct,
                missing_partitions,
                missing_shards,
            },
        )
}

fn compare_response() -> impl Strategy<Value = CompareResponse> {
    (
        (label(), label(), label(), label()),
        coin(),
        (float(), float()),
        (count(), count()),
        (
            collection::vec(attr_score(), 0..3),
            collection::vec(attr_score(), 0..2),
        ),
        proptest::option::of(coverage()),
    )
        .prop_map(
            |(
                (attribute, value_1, value_2, class),
                swapped,
                (cf1, cf2),
                (n1, n2),
                (ranked, property_attributes),
                coverage,
            )| CompareResponse {
                attribute,
                value_1,
                value_2,
                swapped,
                class,
                cf1,
                cf2,
                n1,
                n2,
                ranked,
                property_attributes,
                coverage,
            },
        )
}

fn drill_response() -> impl Strategy<Value = DrillResponse> {
    collection::vec(
        (collection::vec(label(), 0..3), compare_response())
            .prop_map(|(conditions, result)| DrillLevelWire { conditions, result }),
        0..3,
    )
    .prop_map(|levels| DrillResponse { levels })
}

fn error_envelope() -> impl Strategy<Value = ErrorEnvelope> {
    (
        prop_oneof![
            Just(ErrorCode::BadRequest),
            Just(ErrorCode::BadRow),
            Just(ErrorCode::UnknownName),
            Just(ErrorCode::Invalid),
            Just(ErrorCode::NotFound),
            Just(ErrorCode::MethodNotAllowed),
            Just(ErrorCode::Overloaded),
            Just(ErrorCode::Internal),
        ],
        label(),
        proptest::option::of(count()),
        proptest::option::of(count()),
    )
        .prop_map(|(code, message, retry_after_ms, row)| ErrorEnvelope {
            code,
            message,
            retry_after_ms,
            row,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compare_request_round_trips(
        attr in label(), v1 in label(), v2 in label(), class in label(),
        allow_partial in proptest::option::of(coin()),
    ) {
        let r = CompareRequest { attr, v1, v2, class, allow_partial };
        round_trip!(CompareRequest, r);
    }

    #[test]
    fn drill_request_round_trips(
        attr in label(), v1 in label(), v2 in label(), class in label(),
        depth in proptest::option::of(0..32u64),
        min_score in proptest::option::of(-100.0..100.0f64),
        path in collection::vec(
            (label(), label()).prop_map(|(attr, value)| PathStep { attr, value }),
            0..3,
        ),
    ) {
        let r = DrillRequest { attr, v1, v2, class, depth, min_score, path };
        round_trip!(DrillRequest, r);
    }

    #[test]
    fn gi_and_slice_requests_round_trip(
        top in proptest::option::of(count()),
        allow_partial in proptest::option::of(coin()),
        attr in label(),
        by in proptest::option::of(label()),
    ) {
        let g = GiRequest { top, allow_partial };
        round_trip!(GiRequest, g);
        let s = SliceRequest { attr, by };
        round_trip!(SliceRequest, s);
    }

    #[test]
    fn ingest_request_round_trips(
        rows in collection::vec(collection::vec(label(), 0..4), 0..4),
    ) {
        let r = IngestRequest { rows };
        round_trip!(IngestRequest, r);
    }

    #[test]
    fn batch_request_round_trips(
        items in collection::vec(
            prop_oneof![
                ((label(), label(), label(), label()), proptest::option::of(count()))
                    .prop_map(|((attr, v1, v2, class), budget_ms)| BatchItemRequest::Compare {
                        req: CompareRequest { attr, v1, v2, class, allow_partial: None },
                        budget_ms,
                    }),
                ((label(), label(), label(), label()), proptest::option::of(0..8u64),
                 proptest::option::of(count()))
                    .prop_map(|((attr, v1, v2, class), depth, budget_ms)| BatchItemRequest::Drill {
                        req: DrillRequest {
                            attr, v1, v2, class, depth, min_score: None, path: vec![],
                        },
                        budget_ms,
                    }),
            ],
            0..4,
        ),
    ) {
        let r = BatchRequest { items };
        round_trip!(BatchRequest, r);
    }

    #[test]
    fn compare_response_round_trips(r in compare_response()) {
        round_trip!(CompareResponse, r);
    }

    #[test]
    fn drill_response_round_trips(r in drill_response()) {
        round_trip!(DrillResponse, r);
    }

    #[test]
    fn gi_response_round_trips(
        trends in collection::vec(
            ((label(), label()), prop_oneof![
                Just("increasing".to_owned()),
                Just("decreasing".to_owned()),
                Just("stable".to_owned()),
            ], (float(), float()))
                .prop_map(|((attr, class), trend, (slope, r_squared))| TrendWire {
                    attr, class, trend, slope, r_squared,
                }),
            0..3,
        ),
        exceptions in collection::vec(
            ((label(), label(), label()),
             prop_oneof![Just("high".to_owned()), Just("low".to_owned())],
             (float(), float(), float()))
                .prop_map(|((attr, value, class), kind, (confidence, rest_confidence, z))| {
                    ExceptionWire { attr, value, class, kind, confidence, rest_confidence, z }
                }),
            0..3,
        ),
        influence in collection::vec(
            (label(), (float(), float(), float()))
                .prop_map(|(attr, (chi2, p_value, info_gain))| InfluenceWire {
                    attr, chi2, p_value, info_gain,
                }),
            0..3,
        ),
        coverage in proptest::option::of(coverage()),
    ) {
        let r = GiResponse { trends, exceptions, influence, coverage };
        round_trip!(GiResponse, r);
    }

    #[test]
    fn one_dim_slice_round_trips(
        attr in label(),
        total in count(),
        classes in collection::vec(label(), 0..3),
        values in collection::vec(
            (label(), count(),
             collection::vec(count(), 0..3),
             collection::vec(float(), 0..3))
                .prop_map(|(label, total, counts, confidences)| SliceValueWire {
                    label, total, counts, confidences,
                }),
            0..3,
        ),
    ) {
        let r = SliceResponse::OneDim { attr, total, classes, values };
        round_trip!(SliceResponse, r);
    }

    #[test]
    fn pair_slice_round_trips(
        dims in collection::vec(
            (label(), collection::vec(label(), 0..3))
                .prop_map(|(attr, labels)| PairDimWire { attr, labels }),
            0..3,
        ),
        classes in collection::vec(label(), 0..3),
        total in count(),
        cells in collection::vec(
            ((count(), count()), count(), count())
                .prop_map(|((a, b), class, count)| PairCellWire {
                    coords: [a, b], class, count,
                }),
            0..4,
        ),
    ) {
        let r = SliceResponse::Pair { dims, classes, total, cells };
        round_trip!(SliceResponse, r);
    }

    #[test]
    fn ingest_response_round_trips(
        accepted in count(), rows_total in count(), generation in count()
    ) {
        let r = IngestResponse { accepted, rows_total, generation };
        round_trip!(IngestResponse, r);
    }

    #[test]
    fn error_envelope_round_trips(e in error_envelope()) {
        round_trip!(ErrorEnvelope, e);
    }

    #[test]
    fn batch_response_round_trips(
        items in collection::vec(
            prop_oneof![
                compare_response().prop_map(BatchItemResult::Compare),
                drill_response().prop_map(BatchItemResult::Drill),
                error_envelope().prop_map(BatchItemResult::Error),
            ],
            0..3,
        ),
    ) {
        let r = BatchResponse { items };
        round_trip!(BatchResponse, r);
    }
}

fn path_step() -> impl Strategy<Value = PathStep> {
    (label(), label()).prop_map(|(attr, value)| PathStep { attr, value })
}

/// Plain, truncated and compare-mode bodies: `compare` and the
/// per-summary `side`/`mass` come and go together, as the server
/// writes them.
fn explore_response() -> impl Strategy<Value = ExploreResponse> {
    let summary = (
        collection::vec(
            (label(), label()).prop_map(|(attr, value)| ExploreCondWire { attr, value }),
            0..3,
        ),
        (count(), count()),
        collection::vec(float(), 0..3),
        (1u64..3, float()),
    );
    (
        (count(), count(), count()),
        coin(),
        collection::vec(label(), 0..3),
        collection::vec(summary, 0..3),
        proptest::option::of(((label(), label(), label(), label()), coin())),
    )
        .prop_map(
            |((universe, covered, steps), truncated, classes, summaries, compare)| {
                let compare_mode = compare.is_some();
                ExploreResponse {
                    universe,
                    covered,
                    steps,
                    truncated,
                    classes,
                    summaries: summaries
                        .into_iter()
                        .map(
                            |(conditions, (support, coverage), confidences, (side, mass))| {
                                ExploreSummaryWire {
                                    conditions,
                                    support,
                                    coverage,
                                    confidences,
                                    side: compare_mode.then_some(side),
                                    mass: compare_mode.then_some(mass),
                                }
                            },
                        )
                        .collect(),
                    compare: compare.map(|((attribute, value_1, value_2, class), swapped)| {
                        ExploreCompareWire {
                            attribute,
                            value_1,
                            value_2,
                            swapped,
                            class,
                        }
                    }),
                }
            },
        )
}

fn conditions() -> impl Strategy<Value = Vec<ConditionWire>> {
    collection::vec(
        (count(), count()).prop_map(|(attr, value)| ConditionWire { attr, value }),
        0..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn explore_request_round_trips(
        slice in collection::vec(path_step(), 0..2),
        k in count(),
        max_conditions in proptest::option::of(count()),
        budget_ms in proptest::option::of(count()),
        compare in proptest::option::of((label(), label(), label(), label()).prop_map(
            |(attr, v1, v2, class)| ExploreCompareBlock { attr, v1, v2, class },
        )),
    ) {
        let r = ExploreRequest { slice, k, max_conditions, budget_ms, compare };
        round_trip!(ExploreRequest, r);
    }

    #[test]
    fn explore_response_round_trips(r in explore_response()) {
        round_trip!(ExploreResponse, r);
    }

    #[test]
    fn internal_types_round_trip(
        conditions in conditions(),
        attrs in collection::vec(count(), 0..4),
        (generation, n) in (count(), count()),
        (a, b, c) in (label(), label(), label()),
    ) {
        round_trip!(InternalLevelRequest, InternalLevelRequest { conditions: conditions.clone(), attrs });
        round_trip!(InternalCountRequest, InternalCountRequest { conditions });
        round_trip!(InternalCountResponse, InternalCountResponse { count: n });
        round_trip!(InternalGenerationResponse, InternalGenerationResponse { generation });
        round_trip!(InternalStoreResponse, InternalStoreResponse { generation, store_b64: a });
        round_trip!(InternalLevelResponse, InternalLevelResponse { store_b64: b });
        round_trip!(InternalSchemaResponse, InternalSchemaResponse { dataset_b64: c });
    }
}
