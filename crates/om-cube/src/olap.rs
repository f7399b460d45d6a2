//! OLAP operations on rule cubes: slice, dice, roll-up.
//!
//! These are "basically the same as those in OLAP, but without multiple
//! levels of aggregations" (Section III-B): all attributes live at one
//! level, so roll-up simply marginalizes a dimension out and drill-down is
//! answered by fetching a higher-dimensional cube from the
//! [`crate::store::CubeStore`].

use std::sync::Arc;

use om_data::ValueId;

use crate::cube::{CubeError, RuleCube};

/// Slice: fix attribute dimension `dim` to `value`, producing a cube with
/// one fewer attribute dimension.
///
/// This is the operation behind the paper's comparison workflow: "the user
/// needs to do a slice operation by selecting two values, i.e., ph1 and
/// ph2" (Section III-C).
pub fn slice(cube: &RuleCube, dim: usize, value: ValueId) -> Result<RuleCube, CubeError> {
    check_dim(cube, dim)?;
    let card = cube.dims()[dim].cardinality();
    if value as usize >= card {
        return Err(CubeError::OutOfRange {
            dim: cube.dims()[dim].name.to_string(),
            value,
            card,
        });
    }
    let mut new_dims = cube.dims().to_vec();
    new_dims.remove(dim);
    let mut out = RuleCube::new(new_dims, Arc::clone(cube.shared_class_labels()));
    // Row-major: every value of the dimensions before `dim` holds one run
    // of `stride` counts per value of `dim`; the slice keeps run `value`.
    let stride = cube.strides()[dim];
    let skip = value as usize * stride;
    let mut total = 0;
    for (dst, src) in out
        .counts_mut()
        .chunks_exact_mut(stride)
        .zip(cube.counts().chunks_exact(stride * card))
    {
        let run = &src[skip..skip + stride];
        dst.copy_from_slice(run);
        total += run.iter().sum::<u64>();
    }
    out.set_total(total);
    Ok(out)
}

/// Dice: restrict attribute dimension `dim` to a subset of its values.
///
/// The kept values are re-labeled compactly in the order given; duplicates
/// are rejected.
pub fn dice(cube: &RuleCube, dim: usize, values: &[ValueId]) -> Result<RuleCube, CubeError> {
    check_dim(cube, dim)?;
    let card = cube.dims()[dim].cardinality();
    if values.is_empty() {
        return Err(CubeError::Invalid(
            "dice requires at least one value".into(),
        ));
    }
    let mut remap = vec![None::<ValueId>; card];
    let mut new_labels = Vec::with_capacity(values.len());
    for (new_id, &v) in values.iter().enumerate() {
        if v as usize >= card {
            return Err(CubeError::OutOfRange {
                dim: cube.dims()[dim].name.to_string(),
                value: v,
                card,
            });
        }
        if remap[v as usize].is_some() {
            return Err(CubeError::Invalid(format!(
                "duplicate value {v} in dice selection"
            )));
        }
        remap[v as usize] = Some(new_id as ValueId);
        new_labels.push(cube.dims()[dim].labels[v as usize].clone());
    }
    let mut new_dims = cube.dims().to_vec();
    new_dims[dim].labels = new_labels.into();
    let mut out = RuleCube::new(new_dims, Arc::clone(cube.shared_class_labels()));
    for (coords, class, count) in cube.iter_cells() {
        if count == 0 {
            continue;
        }
        if let Some(nv) = remap[coords[dim] as usize] {
            let mut nc = coords.clone();
            nc[dim] = nv;
            out.add(&nc, class, count)?;
        }
    }
    Ok(out)
}

/// Roll-up: marginalize attribute dimension `dim` out (sum over its values).
pub fn rollup(cube: &RuleCube, dim: usize) -> Result<RuleCube, CubeError> {
    check_dim(cube, dim)?;
    let mut new_dims = cube.dims().to_vec();
    new_dims.remove(dim);
    let mut out = RuleCube::new(new_dims, Arc::clone(cube.shared_class_labels()));
    for (coords, class, count) in cube.iter_cells() {
        if count == 0 {
            continue;
        }
        let mut nc = coords.clone();
        nc.remove(dim);
        out.add(&nc, class, count)?;
    }
    Ok(out)
}

fn check_dim(cube: &RuleCube, dim: usize) -> Result<(), CubeError> {
    if dim >= cube.n_attr_dims() {
        return Err(CubeError::NoSuchDim(format!(
            "dimension index {dim} (cube has {})",
            cube.n_attr_dims()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeDim;

    fn sample() -> RuleCube {
        let dims = vec![
            CubeDim {
                attr_index: 0,
                name: "Phone".into(),
                labels: vec!["ph1".into(), "ph2".into()].into(),
            },
            CubeDim {
                attr_index: 1,
                name: "Time".into(),
                labels: vec!["am".into(), "pm".into(), "eve".into()].into(),
            },
        ];
        let mut c = RuleCube::new(dims, vec!["ok".into(), "drop".into()]);
        // counts[phone][time][class]
        let data = [
            ((0, 0), (100, 2)),
            ((0, 1), (120, 3)),
            ((0, 2), (80, 1)),
            ((1, 0), (90, 12)),
            ((1, 1), (110, 4)),
            ((1, 2), (70, 2)),
        ];
        for ((p, t), (ok, drop)) in data {
            c.add(&[p, t], 0, ok).unwrap();
            c.add(&[p, t], 1, drop).unwrap();
        }
        c
    }

    #[test]
    fn slice_fixes_one_dimension() {
        let c = sample();
        let ph2 = slice(&c, 0, 1).unwrap();
        assert_eq!(ph2.n_attr_dims(), 1);
        assert_eq!(&*ph2.dims()[0].name, "Time");
        assert_eq!(ph2.count(&[0], 1).unwrap(), 12);
        assert_eq!(ph2.total(), 90 + 12 + 110 + 4 + 70 + 2);
        // Slicing on the other dim.
        let am = slice(&c, 1, 0).unwrap();
        assert_eq!(&*am.dims()[0].name, "Phone");
        assert_eq!(am.count(&[1], 1).unwrap(), 12);
    }

    #[test]
    fn dice_restricts_and_relabels() {
        let c = sample();
        let d = dice(&c, 1, &[2, 0]).unwrap();
        assert_eq!(
            *d.dims()[1].labels,
            vec!["eve".to_string(), "am".to_string()]
        );
        // eve is now id 0.
        assert_eq!(d.count(&[1, 0], 0).unwrap(), 70);
        // am is now id 1.
        assert_eq!(d.count(&[1, 1], 1).unwrap(), 12);
    }

    #[test]
    fn dice_rejects_bad_selections() {
        let c = sample();
        assert!(dice(&c, 1, &[]).is_err());
        assert!(dice(&c, 1, &[0, 0]).is_err());
        assert!(dice(&c, 1, &[9]).is_err());
        assert!(dice(&c, 5, &[0]).is_err());
    }

    #[test]
    fn rollup_marginalizes() {
        let c = sample();
        let by_phone = rollup(&c, 1).unwrap();
        assert_eq!(
            by_phone.cell_total(&[0]).unwrap(),
            100 + 2 + 120 + 3 + 80 + 1
        );
        assert_eq!(by_phone.count(&[1], 1).unwrap(), 12 + 4 + 2);
        assert_eq!(by_phone.total(), c.total());
        // Rolling up everything leaves the class histogram.
        let hist = rollup(&by_phone, 0).unwrap();
        assert_eq!(hist.n_attr_dims(), 0);
        assert_eq!(hist.class_margin(), c.class_margin());
    }

    #[test]
    fn slice_then_rollup_commutes() {
        let c = sample();
        let a = rollup(&slice(&c, 0, 0).unwrap(), 0).unwrap();
        let b = slice(&rollup(&c, 1).unwrap(), 0, 0).unwrap();
        assert_eq!(a.class_margin(), b.class_margin());
    }

    #[test]
    fn derived_cubes_share_the_labels_they_keep() {
        let c = sample();
        let time = &c.dims()[1];
        for out in [
            slice(&c, 0, 1).unwrap(),
            rollup(&c, 0).unwrap(),
            dice(&c, 0, &[1]).unwrap(),
        ] {
            assert!(Arc::ptr_eq(
                out.shared_class_labels(),
                c.shared_class_labels()
            ));
            let kept = out.dims().last().unwrap();
            assert!(Arc::ptr_eq(&kept.name, &time.name) && Arc::ptr_eq(&kept.labels, &time.labels));
        }
    }

    #[test]
    fn slice_out_of_range() {
        let c = sample();
        assert!(slice(&c, 0, 9).is_err());
        assert!(slice(&c, 7, 0).is_err());
    }
}
