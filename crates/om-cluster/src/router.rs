//! Stable shard routing: which shard owns a row.
//!
//! Every row is assigned to exactly one shard by hashing its verbatim
//! field strings with FNV-1a 64 and reducing modulo the shard count.
//! The hash is defined here, byte for byte, rather than borrowed from
//! the standard library precisely because routing must agree across
//! *processes*: the partitioning tool, the coordinator's live-ingest
//! router and any future re-partitioner all have to send the same row
//! to the same shard, on any platform, on any build. (`std`'s hasher
//! is explicitly unstable across releases and processes.)
//!
//! Fields are separated by a `0x1f` (ASCII unit separator) byte so the
//! encoding is injective: `["ab", "c"]` and `["a", "bc"]` hash
//! differently even though their concatenations agree.

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The stable FNV-1a 64 hash of a row's verbatim fields.
#[must_use]
pub fn row_hash(fields: &[impl AsRef<str>]) -> u64 {
    let mut h = FNV_OFFSET;
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            h ^= 0x1f;
            h = h.wrapping_mul(FNV_PRIME);
        }
        for &b in field.as_ref().as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// The shard that owns a row, in `0..n_shards`.
///
/// # Panics
/// `n_shards` must be non-zero.
#[must_use]
pub fn route_fields(fields: &[impl AsRef<str>], n_shards: usize) -> usize {
    assert!(n_shards > 0, "cluster must have at least one shard");
    (row_hash(fields) % n_shards as u64) as usize
}

/// The ordered replica set serving one partition: `replicas` distinct
/// global shard indices drawn from the partition's contiguous block of
/// the flat shard-address list (`[p·R, (p+1)·R)` for partition `p` at
/// replication factor `R`).
///
/// The *order* is the coordinator's preference order for reads: the
/// first entry is contacted first, the rest are failover / hedge
/// targets. The preferred slot rotates with the partition index so a
/// healthy cluster spreads read load across replica slots instead of
/// hammering slot 0 of every partition.
///
/// Like [`route_fields`], this is a pure function of its arguments —
/// every process (provisioning tool, coordinator, re-partitioner)
/// derives the same topology from the same flat address list.
///
/// # Panics
/// `replicas` must be non-zero and `partition` must be in
/// `0..n_partitions`.
#[must_use]
pub fn replica_set(partition: usize, n_partitions: usize, replicas: usize) -> Vec<usize> {
    assert!(replicas > 0, "replication factor must be at least 1");
    assert!(
        partition < n_partitions,
        "partition {partition} out of range for {n_partitions} partition(s)"
    );
    (0..replicas)
        .map(|k| partition * replicas + (partition + k) % replicas)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors_are_stable() {
        // Pinned values: a routing change is a data-resharding event
        // and must never happen silently.
        assert_eq!(row_hash(&[""]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(row_hash(&["a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            row_hash(&["morning", "highway", "ph2"]),
            row_hash(&["morning", "highway", "ph2"])
        );
    }

    #[test]
    fn separator_keeps_field_boundaries() {
        assert_ne!(row_hash(&["ab", "c"]), row_hash(&["a", "bc"]));
        assert_ne!(row_hash(&["ab"]), row_hash(&["a", "b"]));
    }

    /// Render numeric raw material as row fields (the vendored
    /// proptest has no string strategies).
    fn as_fields(raw: &[u64]) -> Vec<String> {
        raw.iter().map(|v| format!("v{v:x}")).collect()
    }

    proptest! {
        /// Routing is a pure function of the fields: recomputing (as a
        /// restarted process would) gives the same shard.
        #[test]
        fn routing_is_deterministic(
            raw in proptest::collection::vec(0u64..1_000_000, 1..8),
            n in 1usize..16,
        ) {
            let fields = as_fields(&raw);
            let copy = as_fields(&raw);
            prop_assert_eq!(route_fields(&fields, n), route_fields(&copy, n));
        }

        /// Every row lands on a valid shard.
        #[test]
        fn routing_is_in_range(
            raw in proptest::collection::vec(0u64..1_000_000, 1..8),
            n in 1usize..16,
        ) {
            prop_assert!(route_fields(&as_fields(&raw), n) < n);
        }

        /// Replica sets are a pure function of the topology: a second
        /// process (a restarted coordinator) derives the same ordered
        /// set for every partition.
        #[test]
        fn replica_sets_are_deterministic(p in 0usize..32, extra in 0usize..32, r in 1usize..5) {
            let n = p + extra + 1;
            prop_assert_eq!(replica_set(p, n, r), replica_set(p, n, r));
        }

        /// A replica set holds exactly `R` *distinct* shards, all drawn
        /// from the partition's own contiguous block.
        #[test]
        fn replica_sets_hold_r_distinct_shards(p in 0usize..32, extra in 0usize..32, r in 1usize..5) {
            let n = p + extra + 1;
            let set = replica_set(p, n, r);
            prop_assert_eq!(set.len(), r);
            let mut sorted = set.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), r, "replica set {:?} repeats a shard", set);
            for &g in &set {
                prop_assert!(g >= p * r && g < (p + 1) * r,
                    "replica {} escapes partition {}'s block at R={}", g, p, r);
            }
        }

        /// Killing any single replica leaves full coverage at `R >= 2`:
        /// no partition is left with zero live replicas, because one
        /// global shard index belongs to exactly one partition's set.
        #[test]
        fn single_replica_loss_keeps_full_coverage(n in 1usize..16, r in 2usize..5, kill_seed in 0usize..1024) {
            let killed = kill_seed % (n * r);
            for p in 0..n {
                let live: Vec<usize> = replica_set(p, n, r)
                    .into_iter()
                    .filter(|&g| g != killed)
                    .collect();
                prop_assert!(
                    !live.is_empty(),
                    "killing shard {} left partition {} of {} uncovered at R={}",
                    killed, p, n, r
                );
            }
        }

        /// Distinct rows spread within 2x of uniform: over `k` random
        /// distinct rows, no shard owns more than `2 * k / n + slack`
        /// (slack absorbs small-sample noise — the bound the partition
        /// balance relies on is the 2x factor at scale).
        #[test]
        fn routing_is_balanced(seed in 0u64..1000, n in 2usize..9) {
            let k = 4000usize;
            let mut counts = vec![0usize; n];
            for i in 0..k {
                // Distinct synthetic rows; seed varies the population.
                let fields = [format!("r{seed}"), format!("f{i}"), format!("v{}", i % 7)];
                counts[route_fields(&fields, n)] += 1;
            }
            let cap = 2 * k / n;
            for (shard, &c) in counts.iter().enumerate() {
                prop_assert!(
                    c <= cap,
                    "shard {} owns {} of {} rows (cap {} for {} shards)",
                    shard, c, k, cap, n
                );
            }
        }
    }
}
