//! Hand-rolled compressed bitmap for the counting kernel.
//!
//! Vendored-only world: no `roaring` crate, so this is a small
//! roaring-style bitmap — row positions are split into 2^16-row chunks,
//! and each chunk stores its low 16 bits either as a sorted `u16` array
//! (sparse) or as a 1024-word bit set (dense). A chunk upgrades to dense
//! when it crosses [`ARRAY_MAX`] members and an intersection result
//! downgrades back to an array when it fits, exactly the containers-and-
//! thresholds scheme of Chambi et al.'s Roaring bitmaps.
//!
//! The kernel ([`crate::kernel`]) keeps one `Bitmap` per
//! `(attribute, value)` pair, so conditioning a sub-population is a
//! bitmap AND and its record count is a popcount — no record walk.

// Request-path module: the counting kernel serves every conditioned
// request (drill levels, batch prefixes, /internal/*), so a panic here
// is a 500 or a dead worker. Every panicking construct is denied
// outside unit tests. A site that cannot fire says why in
// `#[expect(clippy::indexing_slicing, reason = ...)]`; om-lint's
// tier-1 clippy test enforces both (docs/lint.md).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::string_slice
    )
)]

use om_data::ValueId;

/// A sparse container holding more than this many positions converts to
/// dense (4096 × 2 bytes = the 8 KiB a dense container always costs).
pub const ARRAY_MAX: usize = 4096;

const CHUNK_BITS: u32 = 16;
const WORDS_PER_CHUNK: usize = 1024; // 2^16 bits / 64

#[derive(Clone, Debug, PartialEq, Eq)]
enum Container {
    /// Sorted low-16-bit positions; at most [`ARRAY_MAX`] of them.
    Array(Vec<u16>),
    /// One bit per position in the chunk; `len` caches the popcount.
    Dense { words: Box<[u64]>, len: u32 },
}

impl Container {
    fn len(&self) -> u64 {
        match self {
            Container::Array(v) => v.len() as u64,
            Container::Dense { len, .. } => u64::from(*len),
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&low).is_ok(),
            Container::Dense { words, .. } => {
                let w = usize::from(low) >> 6;
                words
                    .get(w)
                    .is_some_and(|word| word & (1u64 << (low & 63)) != 0)
            }
        }
    }

    /// Number of members strictly below `low`.
    fn rank_below(&self, low: u16) -> u64 {
        match self {
            Container::Array(v) => v.partition_point(|&p| p < low) as u64,
            Container::Dense { words, .. } => {
                let w = usize::from(low) >> 6;
                let mut n: u64 = words
                    .iter()
                    .take(w)
                    .map(|word| u64::from(word.count_ones()))
                    .sum();
                if let Some(word) = words.get(w) {
                    let below = (1u64 << (low & 63)) - 1;
                    n += u64::from((word & below).count_ones());
                }
                n
            }
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Chunk {
    /// High 16 bits of every position in this chunk.
    key: u16,
    data: Container,
}

/// Compressed set of `u32` row positions (see module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitmap {
    /// Chunks sorted by `key`; empty chunks are never stored.
    chunks: Vec<Chunk>,
    len: u64,
}

impl Bitmap {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of positions in the set (the popcount).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a position. Positions must arrive in strictly ascending
    /// order (the kernel builds bitmaps from a single forward scan).
    ///
    /// # Panics
    /// In debug builds, panics on out-of-order pushes.
    pub fn push(&mut self, pos: u32) {
        let key = (pos >> CHUNK_BITS) as u16;
        let low = (pos & 0xFFFF) as u16;
        match self.chunks.last_mut() {
            Some(chunk) if chunk.key == key => match &mut chunk.data {
                Container::Array(v) => {
                    debug_assert!(v.last().is_none_or(|&p| p < low), "push out of order");
                    if v.len() == ARRAY_MAX {
                        let mut dense = array_to_dense(v);
                        set_bit(&mut dense, low);
                        chunk.data = Container::Dense {
                            words: dense,
                            len: (ARRAY_MAX + 1) as u32,
                        };
                    } else {
                        v.push(low);
                    }
                }
                Container::Dense { words, len } => {
                    set_bit(words, low);
                    *len += 1;
                }
            },
            _ => {
                debug_assert!(
                    self.chunks.last().is_none_or(|c| c.key < key),
                    "push out of order"
                );
                self.chunks.push(Chunk {
                    key,
                    data: Container::Array(vec![low]),
                });
            }
        }
        self.len += 1;
    }

    /// Whether `pos` is in the set.
    pub fn contains(&self, pos: u32) -> bool {
        let key = (pos >> CHUNK_BITS) as u16;
        let low = (pos & 0xFFFF) as u16;
        match self.chunks.binary_search_by_key(&key, |c| c.key) {
            Ok(i) => self.chunks.get(i).is_some_and(|c| c.data.contains(low)),
            Err(_) => false,
        }
    }

    /// Number of set positions strictly below `pos`.
    pub fn rank(&self, pos: u32) -> u64 {
        let key = (pos >> CHUNK_BITS) as u16;
        let low = (pos & 0xFFFF) as u16;
        let mut n = 0u64;
        for c in &self.chunks {
            if c.key < key {
                n += c.data.len();
            } else if c.key == key {
                n += c.data.rank_below(low);
            } else {
                break;
            }
        }
        n
    }

    /// The intersection `self ∧ other`. Dense∧dense results that fit in
    /// an array downgrade, so narrow sub-populations stay compact.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        let mut a_iter = self.chunks.iter().peekable();
        let mut b_iter = other.chunks.iter().peekable();
        while let (Some(a), Some(b)) = (a_iter.peek(), b_iter.peek()) {
            match a.key.cmp(&b.key) {
                std::cmp::Ordering::Less => {
                    a_iter.next();
                }
                std::cmp::Ordering::Greater => {
                    b_iter.next();
                }
                std::cmp::Ordering::Equal => {
                    if let Some(data) = and_containers(&a.data, &b.data) {
                        out.len += data.len();
                        out.chunks.push(Chunk { key: a.key, data });
                    }
                    a_iter.next();
                    b_iter.next();
                }
            }
        }
        out
    }

    /// Visit every position in ascending order.
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        for c in &self.chunks {
            let base = u32::from(c.key) << CHUNK_BITS;
            match &c.data {
                Container::Array(v) => {
                    for &low in v {
                        f(base | u32::from(low));
                    }
                }
                Container::Dense { words, .. } => {
                    for (w, &word) in words.iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let b = bits.trailing_zeros();
                            f(base | ((w as u32) << 6) | b);
                            bits &= bits - 1;
                        }
                    }
                }
            }
        }
    }

    /// The positions as a vector, ascending (test/debug helper).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len as usize);
        self.for_each(|p| out.push(p));
        out
    }
}

/// Build bitmaps for one `ValueId` column: one bitmap per value id in
/// `0..cardinality`, each holding the rows where the column takes it.
/// One forward pass, so every push is in ascending order.
pub fn column_bitmaps(column: &[ValueId], cardinality: usize) -> Vec<Bitmap> {
    let mut maps = vec![Bitmap::new(); cardinality];
    for (row, &v) in column.iter().enumerate() {
        if let Some(bm) = maps.get_mut(v as usize) {
            bm.push(row as u32);
        }
    }
    maps
}

fn new_words() -> Box<[u64]> {
    vec![0u64; WORDS_PER_CHUNK].into_boxed_slice()
}

fn set_bit(words: &mut [u64], low: u16) {
    if let Some(word) = words.get_mut(usize::from(low) >> 6) {
        *word |= 1u64 << (low & 63);
    }
}

fn array_to_dense(v: &[u16]) -> Box<[u64]> {
    let mut words = new_words();
    for &low in v {
        set_bit(&mut words, low);
    }
    words
}

fn and_containers(a: &Container, b: &Container) -> Option<Container> {
    let out = match (a, b) {
        (Container::Array(x), Container::Array(y)) => {
            // Two-pointer merge over the sorted arrays.
            let mut out = Vec::new();
            let mut yi = y.iter().peekable();
            for &p in x {
                while yi.peek().is_some_and(|&&q| q < p) {
                    yi.next();
                }
                if yi.peek().is_some_and(|&&q| q == p) {
                    out.push(p);
                }
            }
            Container::Array(out)
        }
        (Container::Array(x), dense @ Container::Dense { .. })
        | (dense @ Container::Dense { .. }, Container::Array(x)) => {
            Container::Array(x.iter().copied().filter(|&p| dense.contains(p)).collect())
        }
        (Container::Dense { words: wa, .. }, Container::Dense { words: wb, .. }) => {
            let mut words = new_words();
            let mut len = 0u32;
            for (dst, (&x, &y)) in words.iter_mut().zip(wa.iter().zip(wb.iter())) {
                *dst = x & y;
                len += dst.count_ones();
            }
            if len as usize <= ARRAY_MAX {
                // Downgrade: harvest the surviving bits into a sorted array.
                let mut out = Vec::with_capacity(len as usize);
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        out.push(((w as u16) << 6) | b as u16);
                        bits &= bits - 1;
                    }
                }
                Container::Array(out)
            } else {
                Container::Dense { words, len }
            }
        }
    };
    (out.len() > 0).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_positions(positions: &[u32]) -> Bitmap {
        let mut bm = Bitmap::new();
        for &p in positions {
            bm.push(p);
        }
        bm
    }

    #[test]
    fn empty_bitmap() {
        let bm = Bitmap::new();
        assert_eq!(bm.len(), 0);
        assert!(bm.is_empty());
        assert!(!bm.contains(0));
        assert_eq!(bm.rank(u32::MAX), 0);
        assert!(bm.to_vec().is_empty());
        assert_eq!(bm.and(&bm).len(), 0);
    }

    #[test]
    fn full_column_goes_dense_and_round_trips() {
        // Every row of a 200k-record "column": crosses 3 chunk
        // boundaries and forces dense containers.
        let n = 200_000u32;
        let bm = from_positions(&(0..n).collect::<Vec<_>>());
        assert_eq!(bm.len(), u64::from(n));
        assert!(bm.contains(0) && bm.contains(n - 1) && !bm.contains(n));
        assert_eq!(bm.rank(n), u64::from(n));
        assert_eq!(bm.rank(12_345), 12_345);
        assert_eq!(bm.to_vec(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn array_upgrades_to_dense_at_threshold() {
        let sparse = from_positions(&(0..ARRAY_MAX as u32).map(|i| i * 2).collect::<Vec<_>>());
        assert!(matches!(
            sparse.chunks.first().map(|c| &c.data),
            Some(Container::Array(_))
        ));
        let mut upgraded = sparse.clone();
        upgraded.push(ARRAY_MAX as u32 * 2);
        assert!(matches!(
            upgraded.chunks.first().map(|c| &c.data),
            Some(Container::Dense { .. })
        ));
        assert_eq!(upgraded.len(), ARRAY_MAX as u64 + 1);
        assert_eq!(
            upgraded.to_vec(),
            (0..=ARRAY_MAX as u32).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn and_matches_naive_intersection() {
        // Mixed densities: `a` is dense in chunk 0 and sparse in chunk 2,
        // `b` is sparse everywhere; positions picked by stride so the
        // intersection is easy to state.
        let a: Vec<u32> = (0..70_000).filter(|p| p % 2 == 0).collect();
        let b: Vec<u32> = (0..140_000).filter(|p| p % 3 == 0).collect();
        let bm = from_positions(&a).and(&from_positions(&b));
        let expect: Vec<u32> = (0..70_000).filter(|p| p % 6 == 0).collect();
        assert_eq!(bm.to_vec(), expect);
        assert_eq!(bm.len(), expect.len() as u64);
    }

    #[test]
    fn and_of_disjoint_sets_is_empty() {
        let a = from_positions(&[1, 3, 5, 100_000]);
        let b = from_positions(&[0, 2, 4, 100_001]);
        let bm = a.and(&b);
        assert!(bm.is_empty());
        assert!(bm.chunks.is_empty(), "empty chunks must not be stored");
    }

    #[test]
    fn dense_and_downgrades_to_array() {
        // Two dense chunks whose intersection is tiny.
        let a: Vec<u32> = (0..60_000).filter(|p| p % 2 == 0).collect();
        let b: Vec<u32> = (0..60_000).filter(|p| p % 10_000 == 0).collect();
        let bm = from_positions(&a).and(&from_positions(&b));
        assert_eq!(bm.to_vec(), vec![0, 10_000, 20_000, 30_000, 40_000, 50_000]);
        assert!(bm
            .chunks
            .iter()
            .all(|c| matches!(c.data, Container::Array(_))));
    }

    #[test]
    fn rank_edge_cases() {
        let bm = from_positions(&[0, 65_535, 65_536, 200_000]);
        assert_eq!(bm.rank(0), 0, "rank is exclusive of the position itself");
        assert_eq!(bm.rank(1), 1);
        assert_eq!(bm.rank(65_535), 1);
        assert_eq!(bm.rank(65_536), 2, "chunk boundary");
        assert_eq!(bm.rank(65_537), 3);
        assert_eq!(bm.rank(200_000), 3);
        assert_eq!(bm.rank(u32::MAX), 4);
    }

    #[test]
    fn rank_agrees_with_scan_on_dense() {
        let positions: Vec<u32> = (0..100_000).filter(|p| p % 7 == 0).collect();
        let bm = from_positions(&positions);
        for probe in [0u32, 1, 6_999, 7_000, 65_536, 99_999, 100_000] {
            let naive = positions.iter().filter(|&&p| p < probe).count() as u64;
            assert_eq!(bm.rank(probe), naive, "rank({probe})");
        }
    }

    #[test]
    fn column_bitmaps_partition_the_rows() {
        let column: Vec<ValueId> = (0..10_000).map(|r| (r % 5) as ValueId).collect();
        let maps = column_bitmaps(&column, 5);
        assert_eq!(maps.len(), 5);
        assert_eq!(maps.iter().map(Bitmap::len).sum::<u64>(), 10_000);
        for (v, bm) in maps.iter().enumerate() {
            bm.for_each(|row| assert_eq!(column.get(row as usize), Some(&(v as ValueId))));
        }
        // Two different values never intersect.
        assert!(maps
            .first()
            .zip(maps.last())
            .is_some_and(|(a, b)| a.and(b).is_empty()));
    }
}
