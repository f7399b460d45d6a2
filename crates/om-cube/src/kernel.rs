//! The columnar shared-aggregate counting kernel (COMPARE-style).
//!
//! The reproduction's conditioned paths — drill-down levels, batch
//! drills, cluster shard `level` fetches — used to answer every request
//! by materializing a sub-population (`Dataset::sub_population` copies
//! every column) and rebuilding cubes from the copy. Following COMPARE
//! (arxiv 2107.11967), this module replaces that record walk with a
//! columnar kernel built once per store generation:
//!
//! * [`ColumnIndex`] shares the dataset's categorical `ValueId` columns
//!   (no copy) and adds one compressed [`Bitmap`](crate::bitmap::Bitmap)
//!   per `(attribute, value)` pair, so
//! * a sub-population is a bitmap AND ([`PopulationSelector::narrow`]),
//! * a cell count is a popcount ([`PopulationSelector::count`]), and
//! * one shared masked column scan fills *every* cube a drill level or
//!   batch item needs ([`PopulationSelector::build_store_anchored`],
//!   [`PopulationSelector::build_store_eager`]), instead of one pass per
//!   cube.
//!
//! Counts are exact — the kernel reads the same rows the record walk
//! did, in the same order — so results are byte-identical end to end;
//! the om-exec determinism proptests and the cluster `--verify` harness
//! enforce that.

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

use std::collections::HashMap;
use std::sync::Arc;

use om_data::{Column, DataError, Dataset, Schema, ValueId};

use crate::bitmap::{column_bitmaps, Bitmap};
use crate::cube::{CubeDim, CubeError, RuleCube};
use crate::store::CubeStore;

/// Per-column bitmap index over one dataset generation: the dataset's
/// own categorical columns (for masked scans — shared, not copied) plus
/// one compressed bitmap per `(attribute, value)` (for conditioning).
/// Built once, shared via [`Arc`] by every [`PopulationSelector`] cut
/// from it.
pub struct ColumnIndex {
    /// The dataset the index was built over. Its columns are immutable
    /// and shared, so this clone is one pointer per attribute and the
    /// slices the masked scans read are the dataset's own.
    dataset: Dataset,
    /// `bitmaps[attr]` holds one bitmap per value of a categorical
    /// attribute (class included), and is empty for a continuous one —
    /// `narrow` ANDs these.
    bitmaps: Vec<Vec<Bitmap>>,
}

impl ColumnIndex {
    /// Index every categorical column of `ds` (continuous attributes are
    /// skipped; conditioning on them fails exactly like the record walk
    /// did). One forward pass per column.
    ///
    /// # Errors
    /// Fails if the dataset has more rows than a `u32` position can
    /// address.
    pub fn build(ds: &Dataset) -> Result<Self, CubeError> {
        let n_rows = ds.n_rows();
        if u32::try_from(n_rows).is_err() {
            return Err(CubeError::Invalid(format!(
                "dataset has {n_rows} rows; the bitmap kernel addresses at most 2^32"
            )));
        }
        let bitmaps = ds
            .columns()
            .zip(ds.schema().attributes())
            .map(|(col, attr)| match col.as_categorical() {
                Some(ids) => column_bitmaps(ids, attr.cardinality()),
                None => Vec::new(),
            })
            .collect();
        Ok(Self {
            dataset: ds.clone(),
            bitmaps,
        })
    }

    /// The dataset schema the index was built over.
    pub fn schema(&self) -> &Schema {
        self.dataset.schema()
    }

    /// Rows in the indexed generation.
    pub fn n_rows(&self) -> usize {
        self.dataset.n_rows()
    }

    /// The unconditioned selector over the whole population.
    pub fn selector(self: &Arc<Self>) -> PopulationSelector {
        PopulationSelector {
            index: Arc::clone(self),
            conditions: Vec::new(),
            mask: None,
        }
    }

    /// Heap bytes of the columns the masked scans read. They are shared
    /// with the dataset the index was built over, not a second copy; the
    /// index's own allocation is the bitmap containers, roughly
    /// `n_rows / 8` bytes per attribute.
    pub fn memory_bytes(&self) -> usize {
        self.dataset
            .columns()
            .filter_map(Column::as_categorical)
            .map(std::mem::size_of_val)
            .sum()
    }

    fn column(&self, attr: usize) -> Result<&[ValueId], CubeError> {
        self.dataset.column(attr).as_categorical().ok_or_else(|| {
            CubeError::Invalid(format!(
                "attribute {:?} is continuous; discretize before cube construction",
                self.schema().attribute(attr).name()
            ))
        })
    }
}

impl std::fmt::Debug for ColumnIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnIndex")
            .field("n_rows", &self.n_rows())
            .field(
                "indexed_attrs",
                &self.bitmaps.iter().filter(|b| !b.is_empty()).count(),
            )
            .finish()
    }
}

/// Which pair cubes a kernel-built store fills during its one shared
/// scan. The store holds those pairs and no others.
enum PairPlan {
    /// The pairs involving one anchor attribute — exactly the set a
    /// ranked comparison against that attribute reads.
    Anchored(usize),
    /// Every pair (for a level every anchor shares).
    All,
}

/// A (possibly conditioned) sub-population over a [`ColumnIndex`]: the
/// one public way to condition a population. Conditioning never copies
/// records — [`narrow`](Self::narrow) ANDs bitmaps, and cube builds scan
/// only the rows in the mask.
#[derive(Clone, Debug)]
pub struct PopulationSelector {
    index: Arc<ColumnIndex>,
    conditions: Vec<(usize, ValueId)>,
    /// `None` = the whole population (no AND has happened yet).
    mask: Option<Bitmap>,
}

impl PopulationSelector {
    /// The schema (identical at every conditioning depth).
    pub fn schema(&self) -> &Schema {
        self.index.schema()
    }

    /// The shared index this selector cuts from.
    pub fn index(&self) -> &Arc<ColumnIndex> {
        &self.index
    }

    /// The `(attribute, value)` conditions applied so far, in order.
    pub fn conditions(&self) -> &[(usize, ValueId)] {
        &self.conditions
    }

    /// Records in the sub-population — a popcount, not a scan.
    pub fn count(&self) -> u64 {
        match &self.mask {
            None => self.index.n_rows() as u64,
            Some(m) => m.len(),
        }
    }

    /// Add one `attr = value` condition: a single bitmap AND.
    ///
    /// # Errors
    /// The same errors [`Dataset::sub_population`] raised on the record
    /// walk (out-of-domain value, continuous attribute), so callers that
    /// render them keep byte-identical messages.
    pub fn narrow(&self, attr: usize, value: ValueId) -> Result<PopulationSelector, DataError> {
        self.index.schema().check_condition(attr, value)?;
        // A continuous attribute: the record walk's own error.
        self.index.dataset.categorical(attr)?;
        let value_rows = self
            .index
            .bitmaps
            .get(attr)
            .and_then(|maps| maps.get(value as usize))
            .cloned()
            .unwrap_or_default();
        let mask = match &self.mask {
            None => value_rows,
            Some(m) => m.and(&value_rows),
        };
        let mut conditions = self.conditions.clone();
        conditions.push((attr, value));
        Ok(PopulationSelector {
            index: Arc::clone(&self.index),
            conditions,
            mask: Some(mask),
        })
    }

    /// Build the cube store a drill level or comparison ranked against
    /// `anchor` reads, in one shared masked scan: all 1-D cubes plus the
    /// pair cubes involving `anchor` — exactly the cubes that ranking
    /// reads. The store holds no other pair: asking it for one is
    /// [`CubeError::NoSuchDim`], as on a decoded level store.
    /// `attrs: None` = every categorical non-class attribute
    /// (same contract as
    /// [`StoreBuildOptions::attrs`](crate::StoreBuildOptions)).
    ///
    /// # Errors
    /// The same validation errors as [`CubeStore::build`].
    pub fn build_store_anchored(
        &self,
        attrs: Option<Vec<usize>>,
        anchor: usize,
    ) -> Result<CubeStore, CubeError> {
        self.build_store_with(attrs, PairPlan::Anchored(anchor))
    }

    /// [`build_store_anchored`](Self::build_store_anchored) with *every*
    /// pair cube filled by the one shared scan — the demand of a level no
    /// single anchor owns (a cluster's unconditioned root level, which a
    /// shard ships whole and the coordinator serves to every anchor).
    ///
    /// # Errors
    /// The same validation errors as [`CubeStore::build`].
    pub fn build_store_eager(&self, attrs: Option<Vec<usize>>) -> Result<CubeStore, CubeError> {
        self.build_store_with(attrs, PairPlan::All)
    }

    fn build_store_with(
        &self,
        attrs: Option<Vec<usize>>,
        plan: PairPlan,
    ) -> Result<CubeStore, CubeError> {
        let schema = self.index.schema();
        let attrs = CubeStore::resolve_attrs(
            schema,
            &crate::store::StoreBuildOptions {
                attrs,
                ..Default::default()
            },
        )?;

        let mut units: Vec<ScanUnit<'_>> = Vec::with_capacity(attrs.len());
        for &a in &attrs {
            units.push(self.scan_unit(&[a])?);
        }
        let n_one_d = units.len();
        match plan {
            PairPlan::Anchored(anchor) => {
                if attrs.contains(&anchor) {
                    for &b in &attrs {
                        if b != anchor {
                            units.push(self.scan_unit(&[anchor.min(b), anchor.max(b)])?);
                        }
                    }
                }
            }
            PairPlan::All => {
                for (i, &a) in attrs.iter().enumerate() {
                    for &b in attrs.iter().skip(i + 1) {
                        units.push(self.scan_unit(&[a.min(b), a.max(b)])?);
                    }
                }
            }
        }

        let class_counts = self.scan(&mut units)?;

        let mut one_d = HashMap::with_capacity(n_one_d);
        let mut pairs = HashMap::new();
        for unit in units {
            match *unit.attrs.as_slice() {
                [a] => {
                    one_d.insert(a, Arc::new(unit.cube));
                }
                [a, b] => {
                    pairs.insert((a, b), Arc::new(unit.cube));
                }
                _ => {}
            }
        }

        Ok(CubeStore::assemble(
            attrs,
            schema.class().domain().labels().to_vec(),
            class_counts,
            self.count(),
            one_d,
            pairs,
        ))
    }

    /// An empty cube over `attrs` plus the column/stride plan to fill it.
    fn scan_unit(&self, attrs: &[usize]) -> Result<ScanUnit<'_>, CubeError> {
        let schema = self.index.schema();
        let dims: Vec<CubeDim> = attrs
            .iter()
            .map(|&a| CubeDim::from_schema(schema, a))
            .collect();
        let cube = RuleCube::new(dims, schema.class().domain().labels().to_vec());
        let strides = cube.strides().to_vec();
        let mut cols = Vec::with_capacity(attrs.len());
        for (&a, &s) in attrs.iter().zip(&strides) {
            cols.push((self.index.column(a)?, s));
        }
        Ok(ScanUnit {
            attrs: attrs.to_vec(),
            cube,
            cols,
        })
    }

    /// The one shared scan: every masked row feeds every unit's cube (and
    /// the class tally) in a single pass over the columns.
    fn scan(&self, units: &mut [ScanUnit<'_>]) -> Result<Vec<u64>, CubeError> {
        let schema = self.index.schema();
        let classes = self.index.column(schema.class_index())?;
        let mut class_counts = vec![0u64; schema.n_classes()];
        // The kernel's hot loop keeps its indexing. This expectation is
        // met by the class tally; the two reads carry their own.
        #[expect(
            clippy::indexing_slicing,
            reason = "c < n_classes: class ids come from the schema's own domain"
        )]
        let mut visit = |r: usize| {
            #[expect(
                clippy::indexing_slicing,
                reason = "r < n_rows by ColumnIndex construction"
            )]
            let c = classes[r] as usize;
            class_counts[c] += 1;
            for unit in units.iter_mut() {
                let mut off = c;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "r < n_rows; each ValueId < its cardinality (ColumnIndex construction)"
                )]
                for &(col, stride) in &unit.cols {
                    off += col[r] as usize * stride;
                }
                unit.cube.add_flat(off, 1);
            }
        };
        match &self.mask {
            None => (0..self.index.n_rows()).for_each(&mut visit),
            Some(m) => m.for_each(|r| visit(r as usize)),
        }
        Ok(class_counts)
    }
}

struct ScanUnit<'a> {
    attrs: Vec<usize>,
    cube: RuleCube,
    cols: Vec<(&'a [ValueId], usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cube;
    use crate::store::StoreBuildOptions;
    use om_synth::{generate_scaleup, ScaleUpConfig};

    fn dataset() -> Dataset {
        generate_scaleup(&ScaleUpConfig {
            n_attrs: 6,
            n_records: 4_000,
            seed: 21,
            ..ScaleUpConfig::default()
        })
    }

    fn kernel(ds: &Dataset) -> Arc<ColumnIndex> {
        Arc::new(ColumnIndex::build(ds).unwrap())
    }

    #[test]
    fn index_shares_the_datasets_columns() {
        let ds = dataset();
        let index = kernel(&ds);
        for a in 0..ds.schema().n_attributes() {
            let scanned = index.column(a).unwrap();
            let owned = ds.categorical(a).unwrap();
            assert_eq!(scanned.as_ptr(), owned.as_ptr(), "attribute {a} was copied");
            assert_eq!(scanned.len(), owned.len());
        }
        assert_eq!(
            index.memory_bytes(),
            ds.n_rows() * ds.schema().n_attributes() * std::mem::size_of::<ValueId>()
        );
    }

    #[test]
    fn root_store_matches_record_walk() {
        let ds = dataset();
        let sel = kernel(&ds).selector();
        let kernel_store = sel.build_store_eager(None).unwrap();
        let walk_store = CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap();
        assert_eq!(kernel_store.attrs(), walk_store.attrs());
        assert_eq!(kernel_store.class_counts(), walk_store.class_counts());
        assert_eq!(kernel_store.total_records(), walk_store.total_records());
        for &a in walk_store.attrs() {
            assert_eq!(
                *kernel_store.one_dim(a).unwrap(),
                *walk_store.one_dim(a).unwrap()
            );
            for &b in walk_store.attrs() {
                if a < b {
                    assert_eq!(
                        *kernel_store.pair(a, b).unwrap(),
                        *walk_store.pair(a, b).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn narrowed_store_matches_sub_population_walk() {
        let ds = dataset();
        let sel = kernel(&ds).selector().narrow(2, 1).unwrap();
        let sub = ds.sub_population(2, 1).unwrap();
        assert_eq!(sel.count(), sub.n_rows() as u64);

        let attrs: Vec<usize> = vec![0, 1, 3, 4, 5];
        let kernel_store = sel.build_store_anchored(Some(attrs.clone()), 1).unwrap();
        let walk_store = CubeStore::build(
            &sub,
            &StoreBuildOptions {
                attrs: Some(attrs.clone()),
                n_threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(kernel_store.class_counts(), walk_store.class_counts());
        for &a in &attrs {
            assert_eq!(
                *kernel_store.one_dim(a).unwrap(),
                *walk_store.one_dim(a).unwrap()
            );
        }
        // The anchor's pairs match the record walk exactly; a non-anchor
        // pair is not held and is refused, not built.
        assert_eq!(kernel_store.n_pair_cubes(), 4);
        for b in [0usize, 3, 4, 5] {
            assert_eq!(
                *kernel_store.pair(1, b).unwrap(),
                *walk_store.pair(1, b).unwrap()
            );
        }
        assert_eq!(
            kernel_store.pair(0, 3).unwrap_err().to_string(),
            CubeError::NoSuchDim("pair cube (0, 3)".into()).to_string()
        );
    }

    #[test]
    fn anchored_store_prebuilds_exactly_the_anchor_pairs() {
        let ds = dataset();
        let sel = kernel(&ds).selector().narrow(5, 0).unwrap();
        let store = sel.build_store_anchored(None, 1).unwrap();
        assert_eq!(store.n_pair_cubes(), 5, "one pair per non-anchor attribute");
        let sub = ds.sub_population(5, 0).unwrap();
        for b in [0usize, 2, 3, 4] {
            assert_eq!(
                *store.pair(1, b).unwrap(),
                build_cube(&sub, &[1.min(b), 1.max(b)]).unwrap()
            );
        }
        // A non-anchor pair is refused, and asking builds nothing.
        assert!(matches!(store.pair(2, 3), Err(CubeError::NoSuchDim(_))));
        assert_eq!(store.n_pair_cubes(), 5);
    }

    #[test]
    fn chained_narrow_matches_chained_sub_population() {
        let ds = dataset();
        let sel = kernel(&ds)
            .selector()
            .narrow(0, 1)
            .unwrap()
            .narrow(4, 2)
            .unwrap();
        let sub = ds
            .sub_population(0, 1)
            .unwrap()
            .sub_population(4, 2)
            .unwrap();
        assert_eq!(sel.count(), sub.n_rows() as u64);
        assert_eq!(sel.conditions(), &[(0, 1), (4, 2)]);
        let store = sel.build_store_anchored(None, 3).unwrap();
        assert_eq!(*store.one_dim(3).unwrap(), build_cube(&sub, &[3]).unwrap());
    }

    #[test]
    fn narrow_errors_match_sub_population_errors() {
        let ds = dataset();
        let sel = kernel(&ds).selector();
        let kernel_err = sel.narrow(2, 99).unwrap_err().to_string();
        let walk_err = ds.sub_population(2, 99).unwrap_err().to_string();
        assert_eq!(kernel_err, walk_err);
    }

    #[test]
    fn conflicting_conditions_select_nothing() {
        let ds = dataset();
        let sel = kernel(&ds)
            .selector()
            .narrow(1, 0)
            .unwrap()
            .narrow(1, 1)
            .unwrap();
        assert_eq!(sel.count(), 0);
        let store = sel.build_store_anchored(None, 0).unwrap();
        assert_eq!(store.total_records(), 0);
        assert_eq!(store.one_dim(0).unwrap().total(), 0);
    }

    #[test]
    fn build_store_validates_like_the_record_walk() {
        let ds = dataset();
        let sel = kernel(&ds).selector();
        let class_idx = ds.schema().class_index();
        for bad in [vec![99usize], vec![class_idx]] {
            let kernel_err = match sel.build_store_anchored(Some(bad.clone()), 0) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("kernel build accepted invalid attrs {bad:?}"),
            };
            let walk_err = match CubeStore::build(
                &ds,
                &StoreBuildOptions {
                    attrs: Some(bad.clone()),
                    n_threads: 1,
                    ..Default::default()
                },
            ) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("record-walk build accepted invalid attrs {bad:?}"),
            };
            assert_eq!(kernel_err, walk_err);
        }
    }
}
