//! What counts as a failed operation.
//!
//! A timed response passes when it is byte-equal to an answer already
//! verified for that request at that generation; an answer is verified
//! by [`verify`] (status and shape) plus byte-equality with the
//! in-process reference. A 200 is not enough: a batch item can carry an
//! error envelope, an explore can be truncated, a cluster can answer
//! from part of its partitions — all inside a 200.

use om_api::{
    BatchItemResult, BatchResponse, CompareResponse, DrillResponse, ExploreResponse, GiResponse,
    IngestResponse, SliceResponse,
};

use crate::workload::Op;

/// Status and shape: 200, parses as the kind's response type, carries no
/// error item, no `"truncated":true`, no coverage envelope.
pub fn verify(op: Op, status: u16, body: &str) -> Result<(), String> {
    if status != 200 {
        let head: String = body.chars().take(200).collect();
        return Err(format!("{} answered {status}: {head}", op.path()));
    }
    let full = |coverage: bool| {
        if coverage {
            Err("answer carries a coverage envelope (partial)".to_owned())
        } else {
            Ok(())
        }
    };
    match op {
        Op::Compare => full(CompareResponse::parse(body)?.coverage.is_some()),
        Op::Gi => full(GiResponse::parse(body)?.coverage.is_some()),
        Op::Drill => {
            let drill = DrillResponse::parse(body)?;
            if drill.levels.is_empty() {
                return Err("drill answered no level".to_owned());
            }
            full(drill.levels.iter().any(|l| l.result.coverage.is_some()))
        }
        Op::Explore => {
            if ExploreResponse::parse(body)?.truncated {
                return Err("explore answer is truncated".to_owned());
            }
            Ok(())
        }
        Op::Batch => {
            for (i, item) in BatchResponse::parse(body)?.items.iter().enumerate() {
                match item {
                    BatchItemResult::Error(e) => {
                        return Err(format!(
                            "batch item {} is an error: {}: {}",
                            i + 1,
                            e.code.as_str(),
                            e.message
                        ))
                    }
                    BatchItemResult::Compare(c) => full(c.coverage.is_some())?,
                    BatchItemResult::Drill(d) => {
                        full(d.levels.iter().any(|l| l.result.coverage.is_some()))?;
                    }
                }
            }
            Ok(())
        }
        Op::Slice => SliceResponse::parse(body).map(|_| ()),
        Op::Ingest => IngestResponse::parse(body).map(|_| ()),
    }
}

/// The paper's claim on the tall data: comparing ph1 with ph2 on
/// `dropped` ranks `TimeOfCall` first and reports
/// `PhoneHardwareVersion` as a property attribute.
pub fn planted_cause(body: &str) -> Result<(), String> {
    let r = CompareResponse::parse(body)?;
    match r.ranked.first() {
        Some(top) if top.name == "TimeOfCall" => {}
        other => {
            return Err(format!(
                "planted cause not recovered: top-ranked attribute is {:?}, not TimeOfCall",
                other.map(|a| a.name.as_str())
            ))
        }
    }
    if !r
        .property_attributes
        .iter()
        .any(|a| a.name == "PhoneHardwareVersion")
    {
        return Err("PhoneHardwareVersion is not reported as a property attribute".to_owned());
    }
    Ok(())
}

/// `total` of a one-dimensional `/v1/cube/slice` answer: the records
/// the served store holds.
pub fn slice_total(body: &str) -> Result<u64, String> {
    match SliceResponse::parse(body)? {
        SliceResponse::OneDim { total, .. } => Ok(total),
        SliceResponse::Pair { .. } => Err("expected a one-dimensional slice".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_api::{AttrScoreWire, ErrorCode, ErrorEnvelope};

    fn score(name: &str) -> AttrScoreWire {
        AttrScoreWire {
            attr: 1,
            name: name.to_owned(),
            score: 2.0,
            normalized: 0.5,
            property_p: 0,
            property_t: 4,
            property_ratio: 0.0,
            values: Vec::new(),
        }
    }

    fn compare(top: &str, property: &str) -> CompareResponse {
        CompareResponse {
            attribute: "PhoneModel".into(),
            value_1: "ph1".into(),
            value_2: "ph2".into(),
            swapped: false,
            class: "dropped".into(),
            cf1: 0.02,
            cf2: 0.06,
            n1: 1000,
            n2: 1000,
            ranked: vec![score(top), score("NetworkLoad")],
            property_attributes: vec![score(property)],
            coverage: None,
        }
    }

    #[test]
    fn a_clean_answer_passes_and_a_non_200_fails() {
        let body = compare("TimeOfCall", "PhoneHardwareVersion").encode();
        assert_eq!(verify(Op::Compare, 200, &body), Ok(()));
        assert!(verify(Op::Compare, 503, &body).is_err());
        assert_eq!(planted_cause(&body), Ok(()));
    }

    #[test]
    fn a_tampered_body_fails() {
        let body = compare("TimeOfCall", "PhoneHardwareVersion").encode();
        // Torn in half: no longer the kind's response type.
        assert!(verify(Op::Compare, 200, &body[..body.len() / 2]).is_err());
        // Another kind's body under this kind's endpoint.
        assert!(verify(Op::Slice, 200, &body).is_err());
        // A coverage envelope spliced into an otherwise full answer.
        let partial = body.replacen(
            '{',
            r#"{"coverage":{"partitions_total":2,"partitions_answered":1,"rows_covered_pct":50,"missing_partitions":[1],"missing_shards":["127.0.0.1:9"]},"#,
            1,
        );
        let err = verify(Op::Compare, 200, &partial).unwrap_err();
        assert!(err.contains("coverage"), "{err}");
    }

    #[test]
    fn an_error_item_inside_a_200_batch_fails() {
        let ok = BatchResponse {
            items: vec![BatchItemResult::Compare(compare("TimeOfCall", "X"))],
        };
        assert_eq!(verify(Op::Batch, 200, &ok.encode()), Ok(()));
        // What a batch drill item with `depth` set comes back as.
        let bad = BatchResponse {
            items: vec![
                BatchItemResult::Compare(compare("TimeOfCall", "X")),
                BatchItemResult::Error(ErrorEnvelope::new(
                    ErrorCode::Invalid,
                    "depth not accepted",
                )),
            ],
        };
        let err = verify(Op::Batch, 200, &bad.encode()).unwrap_err();
        assert!(err.contains("item 2") && err.contains("invalid"), "{err}");
    }

    #[test]
    fn a_truncated_explore_fails() {
        let full = r#"{"universe":10,"covered":5,"steps":1,"truncated":false,"classes":["a"],"summaries":[]}"#;
        assert_eq!(verify(Op::Explore, 200, full), Ok(()));
        let cut = full.replace("\"truncated\":false", "\"truncated\":true");
        assert!(verify(Op::Explore, 200, &cut)
            .unwrap_err()
            .contains("truncated"));
    }

    #[test]
    fn the_planted_cause_check_reads_rank_and_property_list() {
        let wrong_top = compare("NetworkLoad", "PhoneHardwareVersion").encode();
        assert!(planted_cause(&wrong_top)
            .unwrap_err()
            .contains("TimeOfCall"));
        let no_property = compare("TimeOfCall", "Extra01").encode();
        assert!(planted_cause(&no_property)
            .unwrap_err()
            .contains("PhoneHardwareVersion"));
    }

    #[test]
    fn slice_total_reads_the_record_count() {
        let body = r#"{"attr":"A","total":1234,"classes":["x"],"values":[]}"#;
        assert_eq!(slice_total(body), Ok(1234));
    }
}
