//! Cube algebra: merging rule cubes built from disjoint record batches.
//!
//! The paper's data arrives monthly ("more than 200 GB of data every
//! month") and cube generation runs offline. Counts are additive, so
//! cubes built per batch can be merged instead of recounting history:
//! `cube(A ∪ B) = cube(A) + cube(B)` for disjoint record sets. This gives
//! an incremental pipeline: build tonight's cubes from tonight's records,
//! merge into the running store — or, building nothing, count tonight's
//! records straight into the running store's cubes ([`CubeStore::fold`]).

use std::collections::HashMap;
use std::sync::Arc;

use om_data::{Dataset, ValueId};

use crate::build::{count_blocks, HiCubes};
use crate::cube::{CubeError, RuleCube};
use crate::store::CubeStore;

impl RuleCube {
    /// Add `other`'s counts into `self` in place — the compaction fast
    /// path: one slice-wise pass over the flat count tensors, no clone.
    /// Both cubes must have identical dimensions (attribute indices,
    /// names, labels) and class labels, which makes their flat layouts
    /// identical cell for cell.
    ///
    /// # Errors
    /// Fails on any structural mismatch; `self` is untouched on error.
    pub fn merge_into(&mut self, other: &RuleCube) -> Result<(), CubeError> {
        if self.dims() != other.dims() {
            return Err(CubeError::Invalid(
                "cannot merge cubes with different dimensions".into(),
            ));
        }
        if self.class_labels() != other.class_labels() {
            return Err(CubeError::Invalid(
                "cannot merge cubes with different class labels".into(),
            ));
        }
        let total = self.total() + other.total();
        for (dst, src) in self.counts_mut().iter_mut().zip(other.counts()) {
            *dst += src;
        }
        self.set_total(total);
        Ok(())
    }
}

/// Add `other`'s counts into `cube`, returning a new cube. Both cubes
/// must have identical dimensions (attribute indices, names, labels) and
/// class labels. Pure counterpart of [`RuleCube::merge_into`].
///
/// # Errors
/// Fails on any structural mismatch.
pub fn merge_cubes(cube: &RuleCube, other: &RuleCube) -> Result<RuleCube, CubeError> {
    let mut out = cube.clone();
    out.merge_into(other)?;
    Ok(out)
}

impl CubeStore {
    /// Merge another store's counts into a new store. Both stores must
    /// cover the same attributes (same schema positions and domains) and
    /// classes — i.e. two batches of the *same* data feed — and hold the
    /// same pair cubes ([`CubeStore::held_pairs`]): two full stores, or
    /// two partial stores anchored alike. The result holds the same pair
    /// cubes as either side.
    ///
    /// # Errors
    /// Fails on attribute/class mismatches, and on two sides that hold
    /// different pair sets (the sum would be right for some pairs and
    /// one side's alone for the rest).
    pub fn merge(&self, other: &CubeStore) -> Result<CubeStore, CubeError> {
        if self.attrs() != other.attrs() {
            return Err(CubeError::Invalid(
                "cannot merge stores over different attribute sets".into(),
            ));
        }
        if self.class_labels() != other.class_labels() {
            return Err(CubeError::Invalid(
                "cannot merge stores with different class labels".into(),
            ));
        }
        let (mine, theirs) = (self.held_pairs(), other.held_pairs());
        if !mine
            .iter()
            .map(|(k, _)| k)
            .eq(theirs.iter().map(|(k, _)| k))
        {
            return Err(CubeError::Invalid(format!(
                "cannot merge stores that hold different pair cubes ({} and {} of them; \
                 both sides must be full, or anchored on the same attribute)",
                mine.len(),
                theirs.len()
            )));
        }
        let mut one_d = HashMap::with_capacity(self.attrs().len());
        for &a in self.attrs() {
            let merged = merge_cubes(self.one_dim(a)?.as_ref(), other.one_dim(a)?.as_ref())?;
            one_d.insert(a, Arc::new(merged));
        }
        let mut pairs = HashMap::with_capacity(mine.len());
        for ((key, a), (_, b)) in mine.iter().zip(&theirs) {
            pairs.insert(*key, Arc::new(merge_cubes(a, b)?));
        }
        let class_counts = self
            .class_counts()
            .iter()
            .zip(other.class_counts())
            .map(|(x, y)| x + y)
            .collect();
        Ok(CubeStore::assemble(
            self.attrs().to_vec(),
            self.class_labels().to_vec(),
            class_counts,
            self.total_records() + other.total_records(),
            one_d,
            pairs,
        ))
    }

    /// Merge another store's counts into `self` in place. Cubes shared
    /// with a published snapshot (their `Arc` has other owners) are
    /// copied once via `Arc::make_mut`; uniquely-owned cubes are updated
    /// with zero allocation. Both stores must hold every pair cube: each
    /// cube `self` holds is added to `other`'s cube over the same
    /// attributes. Live ingest does not merge stores: it folds each
    /// sealed segment's rows straight in with [`CubeStore::fold`].
    ///
    /// # Errors
    /// Fails on attribute/class/domain mismatches, or when either side
    /// lacks a pair cube. All structure is validated before any count is
    /// touched, so `self` is unchanged on error.
    pub fn merge_from(&mut self, other: &CubeStore) -> Result<(), CubeError> {
        if self.attrs() != other.attrs() {
            return Err(CubeError::Invalid(
                "cannot merge stores over different attribute sets".into(),
            ));
        }
        if self.class_labels() != other.class_labels() {
            return Err(CubeError::Invalid(
                "cannot merge stores with different class labels".into(),
            ));
        }
        let attrs = self.attrs().to_vec();
        // Validate every cube pair structurally before mutating anything,
        // so a mid-merge mismatch cannot leave the store half-merged.
        let check = |mine: &RuleCube, theirs: &RuleCube| -> Result<(), CubeError> {
            if mine.dims() != theirs.dims() || mine.class_labels() != theirs.class_labels() {
                return Err(CubeError::Invalid(
                    "cannot merge cubes with different dimensions".into(),
                ));
            }
            Ok(())
        };
        for &a in &attrs {
            check(&*self.one_dim(a)?, &*other.one_dim(a)?)?;
        }
        for (i, &a) in attrs.iter().enumerate() {
            for &b in &attrs[i + 1..] {
                check(&*self.pair(a, b)?, &*other.pair(a, b)?)?;
            }
        }
        let (one_d, pairs) = self.cubes_mut();
        for (a, cube) in one_d {
            Arc::make_mut(cube).merge_into(&*other.one_dim(a)?)?;
        }
        for ((a, b), cube) in pairs {
            Arc::make_mut(cube).merge_into(&*other.pair(a, b)?)?;
        }
        self.add_totals(other.class_counts(), other.total_records());
        Ok(())
    }

    /// Count a batch of new records into `self` in place: what a live
    /// ingest compaction does with each sealed segment. The result equals
    /// `merge_from(&CubeStore::build(batch, ..))` over the same
    /// attributes, but no store is built for the batch. One pass over the
    /// batch's row blocks counts its rows straight into every held cube's
    /// tensor, with the same copy-on-write as [`CubeStore::merge_from`].
    /// A partial store counts the batch into the cubes it holds.
    ///
    /// # Errors
    /// Fails on a batch whose schema disagrees with the store: different
    /// class labels, or an analysis attribute that is missing,
    /// continuous, the class, or named or labelled otherwise. Everything
    /// is checked before the first count moves, so `self` is unchanged
    /// on error.
    pub fn fold(&mut self, batch: &Dataset) -> Result<(), CubeError> {
        let schema = batch.schema();
        if schema.class().domain().labels() != self.class_labels() {
            return Err(CubeError::Invalid(
                "cannot fold a batch with different class labels".into(),
            ));
        }
        let mut cols: Vec<&[ValueId]> = vec![&[]; schema.n_attributes()];
        for &a in self.attrs() {
            let differs = || {
                CubeError::Invalid(format!(
                    "cannot fold a batch whose attribute {a} differs from the store's"
                ))
            };
            let held = self.one_dim(a)?;
            let (Some(attr), [dim]) = (schema.attributes().get(a), held.dims()) else {
                return Err(differs());
            };
            if a == schema.class_index()
                || attr.name() != dim.name
                || attr.domain().labels() != dim.labels.as_slice()
            {
                return Err(differs());
            }
            cols[a] = batch.categorical(a).map_err(|_| differs())?;
        }
        // Every cube is addressed with these columns and class ids, so
        // every tensor must have their shape. Built stores always do; a
        // decoded store's cubes carry their own labels.
        let n_classes = self.class_labels().len();
        let fits = |cube: &RuleCube| {
            cube.n_classes() == n_classes
                && cube.dims().iter().all(|d| {
                    schema
                        .attributes()
                        .get(d.attr_index)
                        .is_some_and(|attr| attr.cardinality() == d.cardinality())
                })
        };
        let one_d = self.attrs().iter().map(|&a| self.one_dim(a));
        let pairs = self.held_pairs().into_iter().map(|(_, cube)| Ok(cube));
        for cube in one_d.chain(pairs) {
            if !fits(&*cube?) {
                return Err(CubeError::Invalid(
                    "cannot fold into a store whose cubes disagree on shape".into(),
                ));
            }
        }

        // One kernel pass over the segment fills every held cube: each
        // 1-D cube with the pairs it is the later attribute of.
        let (one_d, pairs) = self.cubes_mut();
        let mut demands: HashMap<usize, HiCubes<'_>> = one_d
            .into_iter()
            .map(|(a, one_d)| {
                let demand = HiCubes {
                    hi: cols[a],
                    one_d,
                    pairs: Vec::new(),
                };
                (a, demand)
            })
            .collect();
        for ((a, b), cube) in pairs {
            let demand = demands
                .get_mut(&b)
                .ok_or_else(|| CubeError::NoSuchDim(format!("pair cube ({a}, {b})")))?;
            demand.pairs.push((cols[a], cube));
        }
        let mut demands: Vec<HiCubes<'_>> = demands.into_values().collect();
        count_blocks(batch.class_values(), &mut demands);
        self.add_totals(&batch.class_counts(), batch.n_rows() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cube;
    use crate::store::StoreBuildOptions;
    use om_data::sample::duplicate;
    use om_synth::{generate_scaleup, ScaleUpConfig};

    fn halves() -> (om_data::Dataset, om_data::Dataset, om_data::Dataset) {
        let a = generate_scaleup(&ScaleUpConfig {
            n_attrs: 5,
            n_records: 3_000,
            seed: 41,
            ..ScaleUpConfig::default()
        });
        let b = generate_scaleup(&ScaleUpConfig {
            n_attrs: 5,
            n_records: 2_000,
            seed: 42,
            ..ScaleUpConfig::default()
        });
        let mut all = a.clone();
        all.append(&b).unwrap();
        (a, b, all)
    }

    #[test]
    fn merged_cube_equals_cube_of_union() {
        let (a, b, all) = halves();
        let ca = build_cube(&a, &[0, 2]).unwrap();
        let cb = build_cube(&b, &[0, 2]).unwrap();
        let merged = merge_cubes(&ca, &cb).unwrap();
        let direct = build_cube(&all, &[0, 2]).unwrap();
        assert_eq!(merged, direct);
        assert_eq!(merged.total(), 5_000);
    }

    #[test]
    fn merged_store_equals_store_of_union() {
        let (a, b, all) = halves();
        let opts = StoreBuildOptions::default();
        let sa = CubeStore::build(&a, &opts).unwrap();
        let sb = CubeStore::build(&b, &opts).unwrap();
        let merged = sa.merge(&sb).unwrap();
        let direct = CubeStore::build(&all, &opts).unwrap();
        assert_eq!(merged.total_records(), direct.total_records());
        assert_eq!(merged.class_counts(), direct.class_counts());
        for &i in direct.attrs() {
            assert_eq!(*merged.one_dim(i).unwrap(), *direct.one_dim(i).unwrap());
        }
        for (i, &x) in direct.attrs().iter().enumerate() {
            for &y in &direct.attrs()[i + 1..] {
                assert_eq!(*merged.pair(x, y).unwrap(), *direct.pair(x, y).unwrap());
            }
        }
    }

    #[test]
    fn merge_is_commutative() {
        let (a, b, _) = halves();
        let opts = StoreBuildOptions::default();
        let sa = CubeStore::build(&a, &opts).unwrap();
        let sb = CubeStore::build(&b, &opts).unwrap();
        let ab = sa.merge(&sb).unwrap();
        let ba = sb.merge(&sa).unwrap();
        for &i in ab.attrs() {
            assert_eq!(*ab.one_dim(i).unwrap(), *ba.one_dim(i).unwrap());
        }
    }

    #[test]
    fn merging_with_duplicate_doubles_counts() {
        let (a, _, _) = halves();
        let doubled_ds = duplicate(&a, 2).unwrap();
        let opts = StoreBuildOptions::default();
        let sa = CubeStore::build(&a, &opts).unwrap();
        let merged = sa.merge(&sa).unwrap();
        let direct = CubeStore::build(&doubled_ds, &opts).unwrap();
        assert_eq!(merged.class_counts(), direct.class_counts());
        assert_eq!(*merged.pair(0, 1).unwrap(), *direct.pair(0, 1).unwrap());
    }

    #[test]
    fn merge_from_equals_pure_merge() {
        let (a, b, all) = halves();
        let opts = StoreBuildOptions::default();
        let mut sa = CubeStore::build(&a, &opts).unwrap();
        let sb = CubeStore::build(&b, &opts).unwrap();
        sa.merge_from(&sb).unwrap();
        let direct = CubeStore::build(&all, &opts).unwrap();
        assert_eq!(sa.total_records(), direct.total_records());
        assert_eq!(sa.class_counts(), direct.class_counts());
        for &i in direct.attrs() {
            assert_eq!(*sa.one_dim(i).unwrap(), *direct.one_dim(i).unwrap());
        }
        for (i, &x) in direct.attrs().iter().enumerate() {
            for &y in &direct.attrs()[i + 1..] {
                assert_eq!(*sa.pair(x, y).unwrap(), *direct.pair(x, y).unwrap());
            }
        }
    }

    #[test]
    fn merge_from_copies_on_write_only_pinned_cubes() {
        // A shallow clone stands in for a published snapshot: merging
        // must not mutate the cubes it pins, and the pinned clone must
        // keep serving the pre-merge counts.
        let (a, b, _) = halves();
        let opts = StoreBuildOptions::default();
        let mut sa = CubeStore::build(&a, &opts).unwrap();
        let sb = CubeStore::build(&b, &opts).unwrap();
        let pinned = sa.clone();
        let before = pinned.pair(0, 1).unwrap();
        sa.merge_from(&sb).unwrap();
        assert!(Arc::ptr_eq(&pinned.pair(0, 1).unwrap(), &before));
        assert_eq!(pinned.total_records(), 3_000);
        assert_eq!(sa.total_records(), 5_000);
        assert_ne!(*sa.pair(0, 1).unwrap(), *before);
        // With the pin gone, a second merge updates cubes in place.
        drop((pinned, before));
        let addr = Arc::as_ptr(&sa.pair(0, 1).unwrap());
        sa.merge_from(&sb).unwrap();
        assert_eq!(Arc::as_ptr(&sa.pair(0, 1).unwrap()), addr);
        assert_eq!(sa.total_records(), 7_000);
    }

    #[test]
    fn fold_copies_on_write_only_pinned_cubes() {
        // The twin of the test above for what a compaction does with a
        // sealed segment: the pinned clone keeps its cubes and counts, and
        // the live store's copy of a pinned cube copies the counts only.
        let (a, b, _) = halves();
        let mut sa = CubeStore::build(&a, &StoreBuildOptions::default()).unwrap();
        let pinned = sa.clone();
        let before = pinned.pair(0, 1).unwrap();
        sa.fold(&b).unwrap();
        assert!(Arc::ptr_eq(&pinned.pair(0, 1).unwrap(), &before));
        assert_eq!(pinned.total_records(), 3_000);
        assert_eq!(sa.total_records(), 5_000);
        let after = sa.pair(0, 1).unwrap();
        assert_ne!(after.counts(), before.counts());
        assert!(std::ptr::eq(after.dims().as_ptr(), before.dims().as_ptr()));
        assert!(std::ptr::eq(
            after.class_labels().as_ptr(),
            before.class_labels().as_ptr()
        ));
        // With the pin gone, a second fold updates cubes in place.
        drop((pinned, before, after));
        let addr = Arc::as_ptr(&sa.pair(0, 1).unwrap());
        sa.fold(&b).unwrap();
        assert_eq!(Arc::as_ptr(&sa.pair(0, 1).unwrap()), addr);
        assert_eq!(sa.total_records(), 7_000);
    }

    /// A 30-row batch over `(name, labels)` attributes, the last one the
    /// class: a batch that can disagree with a store in one place.
    fn batch_of(attrs: &[(&str, &[&str])]) -> Dataset {
        use om_data::{Attribute, Column, Domain, Schema};
        let schema = Schema::new(
            attrs
                .iter()
                .map(|&(name, labels)| {
                    Attribute::categorical(name, Domain::from_labels(labels.iter().copied()))
                })
                .collect(),
            attrs.len() - 1,
        )
        .unwrap();
        let columns = attrs
            .iter()
            .map(|&(_, labels)| {
                Column::Categorical((0..30).map(|r| (r % labels.len()) as ValueId).collect())
            })
            .collect();
        Dataset::from_columns(schema, columns).unwrap()
    }

    #[test]
    fn fold_validates_before_touching_a_count() {
        let (a, b, c): (&[&str], &[&str], &[&str]) =
            (&["a0", "a1", "a2"], &["b0", "b1"], &["yes", "no"]);
        let good = batch_of(&[("A", a), ("B", b), ("C", c)]);
        let mut store = CubeStore::build(&good, &StoreBuildOptions::default()).unwrap();
        let pinned = store.clone();
        let bad = [
            batch_of(&[("A", &["a0", "a1", "a2", "a3"]), ("B", b), ("C", c)]),
            batch_of(&[("A", &["a0", "a2", "a1"]), ("B", b), ("C", c)]),
            batch_of(&[("A", a), ("B2", b), ("C", c)]),
            batch_of(&[("A", a), ("B", b), ("C", &["yes", "no", "maybe"])]),
            batch_of(&[("A", a), ("B", b), ("C", &["no", "yes"])]),
            batch_of(&[("A", a), ("C", c)]),
            batch_of(&[("X", b), ("A", a), ("B", b), ("C", c)]),
        ];
        for batch in &bad {
            assert!(store.fold(batch).is_err());
            // The pinned clone makes any copy-on-write visible: every
            // cube must still be the pinned one.
            for &x in pinned.attrs() {
                assert!(Arc::ptr_eq(
                    &store.one_dim(x).unwrap(),
                    &pinned.one_dim(x).unwrap()
                ));
            }
            for ((key, mine), (_, theirs)) in store.held_pairs().iter().zip(pinned.held_pairs()) {
                assert!(Arc::ptr_eq(mine, &theirs), "pair {key:?} was copied");
            }
            assert_eq!(store.total_records(), 30);
            assert_eq!(store.class_counts(), pinned.class_counts());
        }
        store.fold(&good).unwrap();
        assert_eq!(store.total_records(), 60);
    }

    #[test]
    fn fold_refuses_a_store_whose_cubes_disagree_on_shape() {
        // A decoded store's cubes carry their own labels. A pair cube
        // narrower than its 1-D cubes must refuse the fold, not be
        // indexed past its end.
        let (b, c): (&[&str], &[&str]) = (&["b0", "b1"], &["yes", "no"]);
        let wide = batch_of(&[("A", &["a0", "a1", "a2", "a3"]), ("B", b), ("C", c)]);
        let narrow = batch_of(&[("A", &["a0", "a1", "a2"]), ("B", b), ("C", c)]);
        let store = CubeStore::build(&wide, &StoreBuildOptions::default()).unwrap();
        let mut mixed = CubeStore::assemble(
            store.attrs().to_vec(),
            store.class_labels().to_vec(),
            store.class_counts().to_vec(),
            store.total_records(),
            store
                .attrs()
                .iter()
                .map(|&x| (x, store.one_dim(x).unwrap()))
                .collect(),
            [((0, 1), Arc::new(build_cube(&narrow, &[0, 1]).unwrap()))].into(),
        );
        assert!(mixed.fold(&wide).is_err());
        assert_eq!(mixed.total_records(), 30);
    }

    #[test]
    fn merge_from_rejects_a_partial_destination() {
        let (a, b, _) = halves();
        let mut partial = Arc::new(crate::ColumnIndex::build(&a).unwrap())
            .selector()
            .build_store_anchored(None, 0)
            .unwrap();
        let sb = CubeStore::build(&b, &StoreBuildOptions::default()).unwrap();
        let refused = partial.merge_from(&sb).unwrap_err();
        assert!(matches!(refused, CubeError::NoSuchDim(_)), "{refused}");
        assert_eq!(partial.total_records(), a.n_rows() as u64);
        // A fold counts the batch into the cubes the store holds.
        let held = partial.n_pair_cubes();
        partial.fold(&b).unwrap();
        assert_eq!(partial.n_pair_cubes(), held);
        assert_eq!(partial.total_records(), (a.n_rows() + b.n_rows()) as u64);
    }

    #[test]
    fn structural_mismatches_rejected() {
        let (a, _, _) = halves();
        let other = generate_scaleup(&ScaleUpConfig {
            n_attrs: 4, // different width
            n_records: 1_000,
            seed: 43,
            ..ScaleUpConfig::default()
        });
        let sa = CubeStore::build(&a, &StoreBuildOptions::default()).unwrap();
        let so = CubeStore::build(&other, &StoreBuildOptions::default()).unwrap();
        assert!(sa.merge(&so).is_err());

        let ca = build_cube(&a, &[0]).unwrap();
        let cb = build_cube(&a, &[1]).unwrap();
        assert!(merge_cubes(&ca, &cb).is_err());

        // Same rows, same attributes, different held pairs: anchored on 0
        // against anchored on 1, and either against the full store.
        let selector = Arc::new(crate::ColumnIndex::build(&a).unwrap()).selector();
        let on_0 = selector.build_store_anchored(None, 0).unwrap();
        let on_1 = selector.build_store_anchored(None, 1).unwrap();
        for (x, y) in [(&on_0, &on_1), (&on_0, &sa), (&sa, &on_1)] {
            let refused = x.merge(y).err().expect("pair sets differ").to_string();
            assert!(refused.contains("hold different pair cubes"), "{refused}");
        }
    }
}
