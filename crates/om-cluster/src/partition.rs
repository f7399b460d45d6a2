//! Partitioning a dataset across shards by the stable row hash.
//!
//! A cluster is provisioned by splitting one centrally-prepared
//! (discretized, all-categorical) dataset into per-shard partitions.
//! The split hashes each row's *verbatim field labels* — the same
//! strings live ingestion routes on — so a row ingested later lands on
//! the same shard that would have owned it at provisioning time.

use om_data::{DataError, Dataset};

use crate::router::route_fields;

/// The row indices each shard owns, in original row order.
///
/// # Errors
/// The dataset must be all-categorical (partition after
/// discretization, not before).
pub fn partition_rows(ds: &Dataset, n_shards: usize) -> Result<Vec<Vec<usize>>, DataError> {
    assert!(n_shards > 0, "cluster must have at least one shard");
    let schema = ds.schema();
    let mut columns = Vec::with_capacity(schema.n_attributes());
    for a in 0..schema.n_attributes() {
        columns.push((ds.categorical(a)?, schema.attribute(a).domain()));
    }
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
    let mut fields: Vec<&str> = Vec::with_capacity(columns.len());
    for r in 0..ds.n_rows() {
        fields.clear();
        fields.extend(columns.iter().map(|(ids, domain)| {
            ids.get(r)
                .and_then(|&id| domain.label(id))
                .unwrap_or_default()
        }));
        if let Some(part) = parts.get_mut(route_fields(&fields, n_shards)) {
            part.push(r);
        }
    }
    Ok(parts)
}

/// Split a dataset into `n_shards` hash-routed partitions (same schema,
/// disjoint rows, union equal to the input).
///
/// # Errors
/// See [`partition_rows`].
pub fn partition_dataset(ds: &Dataset, n_shards: usize) -> Result<Vec<Dataset>, DataError> {
    partition_rows(ds, n_shards)?
        .iter()
        .map(|rows| ds.take_rows(rows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_engine::{EngineConfig, OpportunityMap};
    use om_synth::{generate_call_log, CallLogConfig, Effect};

    fn sample() -> Dataset {
        let ds = generate_call_log(&CallLogConfig {
            n_records: 4000,
            seed: 11,
            effects: vec![Effect::interaction(
                "PhoneModel",
                "ph2",
                "TimeOfCall",
                "morning",
                "dropped",
                1.3,
            )],
            ..CallLogConfig::default()
        });
        // Partitioning operates on the engine's prepared dataset.
        let om = OpportunityMap::build(ds, EngineConfig::default()).unwrap();
        om.dataset().clone()
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let ds = sample();
        let parts = partition_rows(&ds, 4).unwrap();
        let mut seen = vec![false; ds.n_rows()];
        for part in &parts {
            for &r in part {
                assert!(!seen[r], "row {r} assigned twice");
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some row unassigned");
    }

    #[test]
    fn partitions_are_balanced_within_2x() {
        let ds = sample();
        let n = 4;
        let parts = partition_rows(&ds, n).unwrap();
        let cap = 2 * ds.n_rows() / n;
        for (i, part) in parts.iter().enumerate() {
            assert!(
                part.len() <= cap,
                "shard {i} owns {} of {} rows (2x-uniform cap {cap})",
                part.len(),
                ds.n_rows()
            );
        }
    }

    #[test]
    fn partition_is_stable_across_recomputation() {
        let ds = sample();
        assert_eq!(
            partition_rows(&ds, 3).unwrap(),
            partition_rows(&ds, 3).unwrap()
        );
    }
}
