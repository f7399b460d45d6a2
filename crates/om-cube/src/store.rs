//! The cube store: all 2-D and 3-D rule cubes of a dataset.
//!
//! "In our current implementation, we store all 3-dimensional rule cubes.
//! For each cube, one of the dimensions is always the class attribute"
//! (Section III-B). The store therefore keeps, for `n` analysis attributes:
//!
//! * `n` one-attribute cubes (`A_i × C`) — the 2-D cubes behind the
//!   overall visualization of Fig. 5, and
//! * `n·(n−1)/2` two-attribute cubes (`A_i × A_j × C`) — the 3-D cubes the
//!   comparator and detailed views read.
//!
//! Cube generation is the offline, expensive step the paper measures in
//! Figs. 10–11 ("the generation is done off-line, e.g., in the evening");
//! [`CubeStore::build`] counts every cube in one pass over row blocks
//! ([`crate::build::count_blocks`]), with each thread owning the cubes of
//! a disjoint set of attributes.
//!
//! A store is a plain value: it holds exactly the cubes it was built,
//! merged, folded or decoded with, and computes nothing on read. A
//! kernel-built level store
//! ([`PopulationSelector::build_store_anchored`](crate::PopulationSelector::build_store_anchored))
//! holds every 1-D cube and the anchor's pairs, the same value a
//! coordinator decodes from a shard's anchored level reply.

use std::collections::HashMap;
use std::sync::Arc;

use om_data::{Dataset, Schema};

use crate::build::{count_blocks, HiCubes};
use crate::cube::{CubeError, RuleCube, SchemaDims};
use crate::kernel::ColumnIndex;

/// Options for building a [`CubeStore`].
#[derive(Debug, Clone)]
pub struct StoreBuildOptions {
    /// Schema indices of the attributes to include; `None` = every
    /// categorical non-class attribute. (The paper's domain experts
    /// selected "more than 200" of the 600+ attributes; this is that hook.)
    pub attrs: Option<Vec<usize>>,
    /// Number of threads for the eager build, each counting the cubes of
    /// its own attributes over every row block; `0` = use available
    /// parallelism.
    pub n_threads: usize,
    /// Keep a [`ColumnIndex`] over the dataset's columns alongside the
    /// cubes, so conditioned queries go through the counting kernel
    /// instead of record walks. It copies nothing, but it keeps the
    /// columns alive as long as the store. On by default; turn off for
    /// throwaway stores nothing conditions on.
    pub index: bool,
}

impl Default for StoreBuildOptions {
    fn default() -> Self {
        Self {
            attrs: None,
            n_threads: 0,
            index: true,
        }
    }
}

/// A store's held cubes, mutably: the 1-D cubes by attribute, then the
/// pair cubes by key ([`CubeStore::cubes_mut`]).
pub(crate) type HeldCubesMut<'a> = (
    Vec<(usize, &'a mut Arc<RuleCube>)>,
    Vec<((usize, usize), &'a mut Arc<RuleCube>)>,
);

/// All 2-D and 3-D rule cubes over the analysis attributes of a dataset.
///
/// `Clone` is shallow: the flat count tensors stay shared behind their
/// `Arc`s, so cloning a store of hundreds of cubes is a map copy, not a
/// data copy. This is what makes snapshot publication cheap — see
/// [`crate::snapshot::SharedStore`].
///
/// The labels are shared too: the builders and the codec give every cube
/// over an attribute that attribute's one [`CubeDim`](crate::CubeDim)
/// `Arc`s, and every cube and the store itself one class-label `Arc`.
#[derive(Clone)]
pub struct CubeStore {
    attrs: Vec<usize>,
    class_labels: Arc<[String]>,
    class_counts: Vec<u64>,
    total_records: u64,
    one_d: HashMap<usize, Arc<RuleCube>>,
    /// The pair cubes held, keyed `(lo, hi)` in schema order: every pair
    /// for a full store, the anchor's pairs for a level store.
    pairs: HashMap<(usize, usize), Arc<RuleCube>>,
    /// The counting-kernel index over the generation this store was built
    /// from, when one was built ([`StoreBuildOptions::index`]). `None`
    /// for merged, decoded, or folded-into stores — their cube counts no
    /// longer describe any single indexed row set.
    index: Option<Arc<ColumnIndex>>,
}

impl CubeStore {
    /// Validate and resolve the attribute list (schema-only, so the
    /// kernel validates identically without holding records).
    pub(crate) fn resolve_attrs(
        schema: &Schema,
        opts: &StoreBuildOptions,
    ) -> Result<Vec<usize>, CubeError> {
        let attrs: Vec<usize> = match &opts.attrs {
            Some(list) => {
                for &a in list {
                    if a >= schema.n_attributes() {
                        return Err(CubeError::NoSuchDim(format!("attribute index {a}")));
                    }
                    if a == schema.class_index() {
                        return Err(CubeError::Invalid(
                            "class attribute cannot be an analysis attribute".into(),
                        ));
                    }
                    if !schema.attribute(a).is_categorical() {
                        return Err(CubeError::Invalid(format!(
                            "attribute {:?} is continuous; discretize before building cubes",
                            schema.attribute(a).name()
                        )));
                    }
                }
                list.clone()
            }
            None => schema
                .non_class_indices()
                .into_iter()
                .filter(|&a| schema.attribute(a).is_categorical())
                .collect(),
        };
        if attrs.is_empty() {
            return Err(CubeError::Invalid(
                "no categorical analysis attributes available".into(),
            ));
        }
        // The first attribute listed again later names the error, as the
        // first failing pair cube of the list once did.
        if let Some((_, &a)) = attrs
            .iter()
            .enumerate()
            .find(|&(i, a)| attrs[i + 1..].contains(a))
        {
            return Err(CubeError::Invalid(format!(
                "duplicate attribute {:?} in cube dimensions",
                schema.attribute(a).name()
            )));
        }
        Ok(attrs)
    }

    /// Eagerly build every 2-D and 3-D cube (the paper's offline step).
    ///
    /// # Errors
    /// Fails on invalid attribute selections or non-categorical attributes.
    pub fn build(ds: &Dataset, opts: &StoreBuildOptions) -> Result<Self, CubeError> {
        let schema = ds.schema();
        let attrs = Self::resolve_attrs(schema, opts)?;
        // A pair cube is keyed and laid out `(lo, hi)` in schema order, so
        // the cubes group by their later attribute: the `hi` at position
        // `k` of `sorted` owns its 1-D cube and the pairs with the `k`
        // attributes before it.
        let mut sorted = attrs.clone();
        sorted.sort_unstable();
        let shared = SchemaDims::new(schema, &attrs);
        let classes = ds.class_values();
        let column = |a: usize| {
            ds.column(a)
                .as_categorical()
                .expect("resolve_attrs admits categorical attributes only")
        };
        let new_cube = |over: &[usize]| {
            shared
                .cube(over)
                .expect("the shared dimensions cover every resolved attribute")
        };
        // One `hi`'s 1-D cube and its pair cubes, in `sorted` order of `lo`.
        type HiGroup = (Arc<RuleCube>, Vec<Arc<RuleCube>>);
        // Allocate and count the cubes of the `hi` at positions `ks`.
        let count_share = |ks: &[usize]| -> Vec<HiGroup> {
            let mut cubes: Vec<HiGroup> = ks
                .iter()
                .map(|&k| {
                    let hi = sorted[k];
                    let pairs = sorted[..k].iter().map(|&lo| Arc::new(new_cube(&[lo, hi])));
                    (Arc::new(new_cube(&[hi])), pairs.collect())
                })
                .collect();
            let mut demands: Vec<HiCubes<'_>> = ks
                .iter()
                .zip(&mut cubes)
                .map(|(&k, (one_d, pairs))| HiCubes {
                    hi: column(sorted[k]),
                    one_d,
                    pairs: sorted.iter().map(|&lo| column(lo)).zip(pairs).collect(),
                })
                .collect();
            count_blocks(classes, &mut demands);
            cubes
        };

        let n_threads = if opts.n_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            opts.n_threads
        }
        .clamp(1, sorted.len());
        // Each thread owns a disjoint set of `hi`, dealt largest first to
        // the least-loaded thread: no partial cubes, nothing to merge.
        let mut shares: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new()); n_threads];
        for k in (0..sorted.len()).rev() {
            let (load, ks) = shares
                .iter_mut()
                .min_by_key(|(load, _)| *load)
                .expect("at least one thread");
            *load += k + 1;
            ks.push(k);
        }
        let counted: Vec<Vec<HiGroup>> = match shares.as_slice() {
            [(_, ks)] => vec![count_share(ks)],
            _ => std::thread::scope(|scope| {
                let threads: Vec<_> = shares
                    .iter()
                    .map(|(_, ks)| scope.spawn(|| count_share(ks)))
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("a counting thread panicked"))
                    .collect()
            }),
        };

        let mut one_d = HashMap::with_capacity(sorted.len());
        let mut pairs = HashMap::with_capacity(sorted.len() * (sorted.len() - 1) / 2);
        for ((_, ks), cubes) in shares.iter().zip(counted) {
            for (&k, (cube, pair_cubes)) in ks.iter().zip(cubes) {
                let hi = sorted[k];
                one_d.insert(hi, cube);
                for (&lo, cube) in sorted.iter().zip(pair_cubes) {
                    pairs.insert((lo, hi), cube);
                }
            }
        }
        Ok(Self {
            attrs,
            class_labels: Arc::clone(shared.class_labels()),
            class_counts: ds.class_counts(),
            total_records: ds.n_rows() as u64,
            one_d,
            pairs,
            index: Self::maybe_index(ds, opts)?,
        })
    }

    fn maybe_index(
        ds: &Dataset,
        opts: &StoreBuildOptions,
    ) -> Result<Option<Arc<ColumnIndex>>, CubeError> {
        opts.index
            .then(|| ColumnIndex::build(ds).map(Arc::new))
            .transpose()
    }

    /// Assemble a store from prebuilt parts: the counting kernel's one
    /// scan, [`CubeStore::merge`] and the codec all end here. Each passes
    /// the class-label `Arc` its cubes share.
    pub(crate) fn assemble(
        attrs: Vec<usize>,
        class_labels: Arc<[String]>,
        class_counts: Vec<u64>,
        total_records: u64,
        one_d: HashMap<usize, Arc<RuleCube>>,
        pairs: HashMap<(usize, usize), Arc<RuleCube>>,
    ) -> Self {
        Self {
            attrs,
            class_labels,
            class_counts,
            total_records,
            one_d,
            pairs,
            index: None,
        }
    }

    /// Schema indices of the analysis attributes.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    /// The counting-kernel index over this store's generation, when one
    /// was built ([`StoreBuildOptions::index`]). `None` for merged,
    /// decoded, or folded-into stores.
    pub fn index(&self) -> Option<&Arc<ColumnIndex>> {
        self.index.as_ref()
    }

    /// Class labels, in id order.
    pub fn class_labels(&self) -> &[String] {
        &self.class_labels
    }

    /// The class labels' `Arc`, for a store derived from this one to share.
    pub(crate) fn shared_class_labels(&self) -> &Arc<[String]> {
        &self.class_labels
    }

    /// Per-class record counts.
    pub fn class_counts(&self) -> &[u64] {
        &self.class_counts
    }

    /// Total records behind the cubes.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// The 2-D cube `A × C` for schema attribute `attr`.
    pub fn one_dim(&self, attr: usize) -> Result<Arc<RuleCube>, CubeError> {
        self.one_d
            .get(&attr)
            .cloned()
            .ok_or_else(|| CubeError::NoSuchDim(format!("attribute index {attr}")))
    }

    /// The 3-D cube `A_a × A_b × C`. Order-insensitive: the returned cube's
    /// dimensions are in ascending schema order; use
    /// [`RuleCube::dims`]`[k].attr_index` to orient.
    ///
    /// # Errors
    /// Fails if either attribute is not in the store.
    pub fn pair(&self, a: usize, b: usize) -> Result<Arc<RuleCube>, CubeError> {
        if a == b {
            return Err(CubeError::Invalid(
                "pair cube requires two distinct attributes".into(),
            ));
        }
        let key = (a.min(b), a.max(b));
        if !self.attrs.contains(&key.0) || !self.attrs.contains(&key.1) {
            return Err(CubeError::NoSuchDim(format!(
                "attribute pair ({}, {})",
                key.0, key.1
            )));
        }
        self.pairs
            .get(&key)
            .cloned()
            .ok_or_else(|| CubeError::NoSuchDim(format!("pair cube {key:?}")))
    }

    /// The pair cubes this store holds, in ascending key order. A
    /// partial store (a level anchored on one attribute) is a value of
    /// its own: the codec writes exactly these cubes and
    /// [`CubeStore::merge`] adds exactly these.
    pub fn held_pairs(&self) -> Vec<((usize, usize), Arc<RuleCube>)> {
        let mut held: Vec<_> = self
            .pairs
            .iter()
            .map(|(k, c)| (*k, Arc::clone(c)))
            .collect();
        held.sort_unstable_by_key(|(k, _)| *k);
        held
    }

    /// Number of pair cubes held.
    pub fn n_pair_cubes(&self) -> usize {
        self.pairs.len()
    }

    /// Heap bytes of the held cubes' count tensors: `8 × cells`, summed.
    /// Nothing else is counted. The labels are shared per schema (one
    /// copy of each attribute's, and of the class labels, for the whole
    /// store), and the strides and maps are small beside the tensors.
    pub fn memory_bytes(&self) -> usize {
        self.one_d
            .values()
            .chain(self.pairs.values())
            .map(|c| c.n_cells() * std::mem::size_of::<u64>())
            .sum()
    }

    /// Pair cubes built on first read: always 0, since a store computes
    /// nothing on read. Kept because the benchmark still reports it.
    pub fn lazy_builds(&self) -> u64 {
        0
    }

    /// Every held cube's `Arc`, mutably: the 1-D cubes by attribute and
    /// the pair cubes by key. The one mutation path of
    /// [`CubeStore::fold`] and [`CubeStore::merge_from`]; both validate
    /// before they call it, and both write copy-on-write through
    /// `Arc::make_mut`: a cube a published snapshot still pins is copied
    /// once — its counts, since the labels are shared — and a uniquely
    /// owned one is updated in place.
    pub(crate) fn cubes_mut(&mut self) -> HeldCubesMut<'_> {
        let one_d = self.one_d.iter_mut().map(|(&a, cube)| (a, cube));
        let pairs = self.pairs.iter_mut().map(|(&key, cube)| (key, cube));
        (one_d.collect(), pairs.collect())
    }

    pub(crate) fn add_totals(&mut self, class_counts: &[u64], total_records: u64) {
        for (dst, src) in self.class_counts.iter_mut().zip(class_counts) {
            *dst += src;
        }
        self.total_records += total_records;
        // Folding other counts in means the cubes no longer describe the
        // indexed row set; a stale index answering conditioned queries
        // would silently drop the folded records.
        self.index = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_synth::{generate_scaleup, ScaleUpConfig};

    fn small_store(n_threads: usize) -> (Dataset, CubeStore) {
        let ds = generate_scaleup(&ScaleUpConfig {
            n_attrs: 6,
            n_records: 2_000,
            seed: 3,
            ..ScaleUpConfig::default()
        });
        let store = CubeStore::build(
            &ds,
            &StoreBuildOptions {
                n_threads,
                ..Default::default()
            },
        )
        .unwrap();
        (ds, store)
    }

    #[test]
    fn builds_all_pairs() {
        let (_, store) = small_store(0);
        assert_eq!(store.attrs().len(), 6);
        assert_eq!(store.n_pair_cubes(), 6 * 5 / 2);
        assert!(store.memory_bytes() > 0);
    }

    #[test]
    fn parallel_equals_serial() {
        let (_, serial) = small_store(1);
        let (_, parallel) = small_store(4);
        for i in 0..6 {
            for j in (i + 1)..6 {
                assert_eq!(
                    *serial.pair(i, j).unwrap(),
                    *parallel.pair(i, j).unwrap(),
                    "pair ({i},{j}) differs between serial and parallel builds"
                );
            }
        }
    }

    #[test]
    fn pair_is_order_insensitive() {
        let (_, store) = small_store(0);
        assert_eq!(*store.pair(1, 4).unwrap(), *store.pair(4, 1).unwrap());
        assert!(store.pair(2, 2).is_err());
        assert!(store.pair(0, 99).is_err());
    }

    #[test]
    fn one_dim_matches_rollup_of_pair() {
        let (_, store) = small_store(0);
        let pair = store.pair(0, 1).unwrap();
        let rolled = crate::olap::rollup(&pair, 1).unwrap();
        assert_eq!(*store.one_dim(0).unwrap(), rolled);
    }

    #[test]
    fn class_totals_consistent() {
        let (ds, store) = small_store(0);
        assert_eq!(store.total_records(), ds.n_rows() as u64);
        assert_eq!(store.class_counts(), ds.class_counts().as_slice());
        let margin = store.one_dim(3).unwrap().class_margin();
        assert_eq!(margin, ds.class_counts());
    }

    #[test]
    fn shallow_clone_shares_cube_tensors() {
        let (_, store) = small_store(1);
        let copy = store.clone();
        assert!(Arc::ptr_eq(
            &store.one_dim(0).unwrap(),
            &copy.one_dim(0).unwrap()
        ));
        assert!(Arc::ptr_eq(
            &store.pair(0, 1).unwrap(),
            &copy.pair(0, 1).unwrap()
        ));
        assert_eq!(copy.total_records(), store.total_records());
        assert_eq!(copy.held_pairs().len(), store.held_pairs().len());
    }

    #[test]
    fn attr_subset_selection() {
        let ds = generate_scaleup(&ScaleUpConfig {
            n_attrs: 6,
            n_records: 500,
            seed: 1,
            ..ScaleUpConfig::default()
        });
        let store = CubeStore::build(
            &ds,
            &StoreBuildOptions {
                attrs: Some(vec![1, 3, 5]),
                n_threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(store.attrs(), &[1, 3, 5]);
        assert_eq!(store.n_pair_cubes(), 3);
        assert!(store.one_dim(0).is_err());
        assert!(store.pair(0, 1).is_err());
    }

    #[test]
    fn rejects_class_in_selection() {
        let ds = generate_scaleup(&ScaleUpConfig {
            n_attrs: 3,
            n_records: 100,
            seed: 1,
            ..ScaleUpConfig::default()
        });
        let class_idx = ds.schema().class_index();
        let r = CubeStore::build(
            &ds,
            &StoreBuildOptions {
                attrs: Some(vec![0, class_idx]),
                n_threads: 1,
                ..Default::default()
            },
        );
        assert!(r.is_err());
    }
}
