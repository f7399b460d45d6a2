//! Building rule cubes from datasets: [`build_cube`], one cube in one
//! pass, and [`count_blocks`], the row-block kernel that fills every cube
//! of a store in one pass over the rows.

use std::sync::Arc;

use om_data::{Dataset, ValueId};

use crate::cube::{CubeDim, CubeError, RuleCube};

/// Rows per block of [`count_blocks`]. One block's `base` offsets (8 KB)
/// and its slice of each column (4 KB) stay in cache while every cube
/// demanded of the block counts from them.
pub const BLOCK: usize = 1024;

/// The cubes [`count_blocks`] fills for one attribute `hi`: its 1-D cube
/// and each demanded pair cube `(lo, hi)` with `lo`'s column. `hi` is the
/// last attribute dimension of every one of them, so a row lands at
/// `base = v_hi · n_classes + class` in the 1-D cube and at
/// `base + v_lo · stride_lo` in a pair cube.
pub(crate) struct HiCubes<'a> {
    pub(crate) hi: &'a [ValueId],
    pub(crate) one_d: &'a mut Arc<RuleCube>,
    pub(crate) pairs: Vec<(&'a [ValueId], &'a mut Arc<RuleCube>)>,
}

/// Count every row of `classes` into every cube of `demands`, straight
/// into the cubes' own count slices: the one kernel behind
/// [`CubeStore::build`](crate::CubeStore::build) (every pair) and
/// [`CubeStore::fold`](crate::CubeStore::fold) (the held cubes over one
/// segment). Rows go in blocks of [`BLOCK`]; each block computes `base`
/// once per `hi` and reads each column once for all the cubes it feeds,
/// where one pass per cube would stream every column once per pair.
///
/// Cubes are written copy-on-write through `Arc::make_mut`, once per
/// block: a cube a published snapshot still pins is copied when its
/// first block is counted, so the copy is still in cache for it.
///
/// Every column must be as long as `classes`, and every cube must be laid
/// out over its columns' domains and `classes`' labels.
pub(crate) fn count_blocks(classes: &[ValueId], demands: &mut [HiCubes<'_>]) {
    let mut base = vec![0usize; BLOCK.min(classes.len())];
    for start in (0..classes.len()).step_by(BLOCK) {
        let block = &classes[start..classes.len().min(start + BLOCK)];
        let rows = start..start + block.len();
        let base = &mut base[..block.len()];
        for demand in demands.iter_mut() {
            let one_d = Arc::make_mut(demand.one_d);
            let n_classes = one_d.n_classes();
            for ((b, &v), &c) in base.iter_mut().zip(&demand.hi[rows.clone()]).zip(block) {
                *b = v as usize * n_classes + c as usize;
            }
            let counts = one_d.counts_mut();
            for &b in base.iter() {
                counts[b] += 1;
            }
            // Pair cubes count two at a time: two independent increment
            // chains per row, where one chain stalls on every row that
            // lands in the cell the row before it did.
            let mut rest = &mut demand.pairs[..];
            while let [(lo0, c0), (lo1, c1), tail @ ..] = rest {
                let (c0, c1) = (Arc::make_mut(c0), Arc::make_mut(c1));
                let (s0, s1) = (c0.strides()[0], c1.strides()[0]);
                let (k0, k1) = (c0.counts_mut(), c1.counts_mut());
                let (l0, l1) = (&lo0[rows.clone()], &lo1[rows.clone()]);
                for ((&b, &v0), &v1) in base.iter().zip(l0).zip(l1) {
                    k0[b + v0 as usize * s0] += 1;
                    k1[b + v1 as usize * s1] += 1;
                }
                rest = tail;
            }
            if let [(lo, cube)] = rest {
                let cube = Arc::make_mut(cube);
                let stride = cube.strides()[0];
                let counts = cube.counts_mut();
                for (&b, &v) in base.iter().zip(&lo[rows.clone()]) {
                    counts[b + v as usize * stride] += 1;
                }
            }
        }
    }
    let n = classes.len() as u64;
    for demand in demands {
        let pairs = demand.pairs.iter_mut().map(|(_, cube)| &mut **cube);
        for cube in std::iter::once(&mut *demand.one_d).chain(pairs) {
            let cube = Arc::make_mut(cube);
            cube.set_total(cube.total() + n);
        }
    }
}

/// Build the rule cube over the given non-class attributes (the class
/// dimension is always appended, per the paper).
///
/// One pass over the data, one row at a time; min-sup and min-conf are
/// implicitly zero, so every cell of the cross product is materialized.
/// This is the reference the store's row-block kernel is tested against.
///
/// ```
/// use om_data::{Cell, DatasetBuilder};
///
/// let mut b = DatasetBuilder::new().categorical("Time").class("Outcome");
/// for (t, o) in [("am", "drop"), ("am", "ok"), ("pm", "ok"), ("pm", "ok")] {
///     b.push_row(&[Cell::Str(t), Cell::Str(o)]).unwrap();
/// }
/// let ds = b.finish().unwrap();
///
/// let cube = om_cube::build_cube(&ds, &[0]).unwrap();
/// // Rule "Time=am -> Outcome=drop" has confidence 1/2.
/// assert_eq!(cube.confidence(&[0], 0).unwrap(), Some(0.5));
/// assert_eq!(cube.n_rules(), 2 * 2);
/// ```
///
/// # Errors
/// Fails if `attrs` contains the class attribute, a duplicate, or a
/// continuous attribute.
pub fn build_cube(ds: &Dataset, attrs: &[usize]) -> Result<RuleCube, CubeError> {
    let schema = ds.schema();
    let class_idx = schema.class_index();
    let mut seen = vec![false; schema.n_attributes()];
    for &a in attrs {
        if a >= schema.n_attributes() {
            return Err(CubeError::NoSuchDim(format!("attribute index {a}")));
        }
        if a == class_idx {
            return Err(CubeError::Invalid(
                "the class attribute is always the last cube dimension; do not list it".into(),
            ));
        }
        if seen[a] {
            return Err(CubeError::Invalid(format!(
                "duplicate attribute {:?} in cube dimensions",
                schema.attribute(a).name()
            )));
        }
        if !schema.attribute(a).is_categorical() {
            return Err(CubeError::Invalid(format!(
                "attribute {:?} is continuous; discretize before cube construction",
                schema.attribute(a).name()
            )));
        }
        seen[a] = true;
    }

    let dims: Vec<CubeDim> = attrs
        .iter()
        .map(|&a| CubeDim::from_schema(schema, a))
        .collect();
    let class_labels = schema.class().domain().labels().to_vec();
    let mut cube = RuleCube::new(dims, class_labels);

    let cols: Vec<&[ValueId]> = attrs
        .iter()
        .map(|&a| {
            ds.column(a)
                .as_categorical()
                .expect("validated categorical")
        })
        .collect();
    let strides = cube.strides().to_vec();
    let counts = cube.counts_mut();
    let classes = ds.class_values();
    for (r, &c) in classes.iter().enumerate() {
        let cell = cols.iter().zip(&strides);
        counts[cell.fold(c as usize, |off, (col, &s)| off + col[r] as usize * s)] += 1;
    }
    cube.set_total(classes.len() as u64);
    Ok(cube)
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_data::{Cell, DatasetBuilder};

    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new()
            .categorical("Phone")
            .categorical("Time")
            .class("Outcome");
        for (p, t, o) in [
            ("ph1", "am", "ok"),
            ("ph1", "am", "ok"),
            ("ph1", "pm", "drop"),
            ("ph2", "am", "drop"),
            ("ph2", "am", "drop"),
            ("ph2", "pm", "ok"),
            ("ph2", "pm", "ok"),
        ] {
            b.push_row(&[Cell::Str(p), Cell::Str(t), Cell::Str(o)])
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn counts_match_manual_tally() {
        let ds = toy();
        let cube = build_cube(&ds, &[0, 1]).unwrap();
        assert_eq!(cube.total(), 7);
        // (ph1, am, ok) appears twice.
        assert_eq!(cube.count(&[0, 0], 0).unwrap(), 2);
        // (ph2, am, drop) appears twice.
        assert_eq!(cube.count(&[1, 0], 1).unwrap(), 2);
        // (ph1, pm, ok) never appears.
        assert_eq!(cube.count(&[0, 1], 0).unwrap(), 0);
        // Confidence of ph2, pm -> ok is 1.0.
        assert_eq!(cube.confidence(&[1, 1], 0).unwrap(), Some(1.0));
    }

    #[test]
    fn one_dim_cube_matches_value_counts() {
        let ds = toy();
        let cube = build_cube(&ds, &[0]).unwrap();
        assert_eq!(cube.cell_total(&[0]).unwrap(), 3); // ph1 rows
        assert_eq!(cube.cell_total(&[1]).unwrap(), 4); // ph2 rows
                                                       // Drop rate of ph1 is 1/3.
        let cf = cube.confidence(&[0], 1).unwrap().unwrap();
        assert!((cf - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_dim_cube_is_class_distribution() {
        let ds = toy();
        let cube = build_cube(&ds, &[]).unwrap();
        assert_eq!(cube.class_margin(), ds.class_counts());
    }

    #[test]
    fn rollup_consistency_between_cube_sizes() {
        // Rolling up the 2-attr cube over one dim must equal the 1-attr cube.
        let ds = toy();
        let big = build_cube(&ds, &[0, 1]).unwrap();
        let small = build_cube(&ds, &[0]).unwrap();
        let rolled = crate::olap::rollup(&big, 1).unwrap();
        assert_eq!(rolled, small);
    }

    #[test]
    fn rejects_class_and_duplicates() {
        let ds = toy();
        assert!(build_cube(&ds, &[2]).is_err());
        assert!(build_cube(&ds, &[0, 0]).is_err());
        assert!(build_cube(&ds, &[9]).is_err());
    }

    #[test]
    fn rejects_continuous_attribute() {
        let mut b = DatasetBuilder::new().continuous("X").class("C");
        b.push_row(&[Cell::Num(1.0), Cell::Str("y")]).unwrap();
        let ds = b.finish().unwrap();
        assert!(build_cube(&ds, &[0]).is_err());
    }

    #[test]
    fn three_dim_cube_generic_path() {
        let mut b = DatasetBuilder::new()
            .categorical("A")
            .categorical("B")
            .categorical("D")
            .class("C");
        for i in 0..20 {
            let a = if i % 2 == 0 { "a0" } else { "a1" };
            let d = if i % 3 == 0 { "d0" } else { "d1" };
            let bb = if i % 5 == 0 { "b0" } else { "b1" };
            let c = if i % 4 == 0 { "y" } else { "n" };
            b.push_row(&[Cell::Str(a), Cell::Str(bb), Cell::Str(d), Cell::Str(c)])
                .unwrap();
        }
        let ds = b.finish().unwrap();
        let cube = build_cube(&ds, &[0, 1, 2]).unwrap();
        assert_eq!(cube.total(), 20);
        assert_eq!(cube.n_attr_dims(), 3);
        // Cross-check one cell by manual counting.
        let a_col = ds.column(0).as_categorical().unwrap();
        let b_col = ds.column(1).as_categorical().unwrap();
        let d_col = ds.column(2).as_categorical().unwrap();
        let c_col = ds.class_values();
        let manual = (0..20)
            .filter(|&r| a_col[r] == 0 && b_col[r] == 1 && d_col[r] == 1 && c_col[r] == 1)
            .count() as u64;
        assert_eq!(cube.count(&[0, 1, 1], 1).unwrap(), manual);
    }
}
