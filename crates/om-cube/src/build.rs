//! Building rule cubes from datasets in a single pass.

use om_data::{Dataset, ValueId};

use crate::cube::{CubeDim, CubeError, RuleCube};

/// Build the rule cube over the given non-class attributes (the class
/// dimension is always appended, per the paper).
///
/// One pass over the data; min-sup and min-conf are implicitly zero, so
/// every cell of the cross product is materialized.
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
        .map(|&a| ds.column(a).as_categorical().expect("validated categorical"))
        .collect();
    cube.count_rows(&cols, ds.class_values());
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
            b.push_row(&[Cell::Str(p), Cell::Str(t), Cell::Str(o)]).unwrap();
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
