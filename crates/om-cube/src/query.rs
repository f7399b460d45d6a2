//! Rule queries over cubes: enumerate or rank the rules a cube stores.
//!
//! Rule cubes *are* rule sets ("a rule cube … represents 24 rules",
//! Fig. 1); this module provides the read-side API the related-work
//! section calls *rule querying* — but over cubes, so the answers carry
//! their full context and cost nothing to recompute.

use om_data::ValueId;
use om_fault::{Budget, Pacer};

use crate::cube::{CubeError, RuleCube};
use crate::store::CubeStore;

/// The 1-D cube over `attr` restricted to rows where `cond_attr =
/// cond_value` — the conditioned-population read behind `om-explore`'s
/// sliced scans: the `(cond_attr, attr)` pair cube, sliced at the
/// conditioning value.
///
/// # Errors
/// Fails if either attribute is outside the store or `cond_value` is out
/// of the conditioning attribute's domain.
pub fn conditioned_one_dim(
    store: &CubeStore,
    cond_attr: usize,
    cond_value: ValueId,
    attr: usize,
) -> Result<RuleCube, CubeError> {
    let pair = store.pair(cond_attr, attr)?;
    let sel_dim = pair
        .dims()
        .iter()
        .position(|d| d.attr_index == cond_attr)
        .ok_or_else(|| {
            CubeError::NoSuchDim(format!(
                "pair cube ({cond_attr}, {attr}) lacks the conditioning dimension"
            ))
        })?;
    crate::olap::slice(&pair, sel_dim, cond_value)
}

/// How many cells a query loop walks between budget checks.
const CELL_STRIDE: u64 = 1024;

/// One rule materialized out of a cube cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeRule {
    /// Coordinates in the cube's dimension order.
    pub coords: Vec<ValueId>,
    /// Class id.
    pub class: ValueId,
    /// Support count (`sup(X, y)` as a count).
    pub count: u64,
    /// Condition-set count (`sup(X)` as a count).
    pub cell_total: u64,
    /// Support as a fraction of the cube's records.
    pub support: f64,
    /// Confidence per Eq. (1).
    pub confidence: f64,
}

impl CubeRule {
    /// Render using the cube's labels: `A=a, B=b -> class [sup, conf]`.
    pub fn display(&self, cube: &RuleCube) -> String {
        let conds: Vec<String> = self
            .coords
            .iter()
            .zip(cube.dims())
            .map(|(&v, d)| format!("{}={}", d.name, d.labels[v as usize]))
            .collect();
        format!(
            "{} -> {} [sup={:.4}, conf={:.4}]",
            if conds.is_empty() {
                "(true)".to_owned()
            } else {
                conds.join(", ")
            },
            cube.class_labels()[self.class as usize],
            self.support,
            self.confidence
        )
    }
}

/// The `k` highest-confidence rules for `class` with at least
/// `min_count` condition-set records. Ties broken by higher support then
/// coordinate order, so results are deterministic.
///
/// # Errors
/// Fails if `class` is out of range.
pub fn top_k_by_confidence(
    cube: &RuleCube,
    class: ValueId,
    k: usize,
    min_count: u64,
) -> Result<Vec<CubeRule>, CubeError> {
    top_k_by_confidence_budgeted(cube, class, k, min_count, &Budget::unlimited())
}

/// [`top_k_by_confidence`] under a cooperative [`Budget`]: the cell walk
/// checks the deadline every [`CELL_STRIDE`] cells.
///
/// # Errors
/// Fails if `class` is out of range, or with [`CubeError::Fault`] when
/// the budget expires or the request is cancelled.
pub fn top_k_by_confidence_budgeted(
    cube: &RuleCube,
    class: ValueId,
    k: usize,
    min_count: u64,
    budget: &Budget,
) -> Result<Vec<CubeRule>, CubeError> {
    if class as usize >= cube.n_classes() {
        return Err(CubeError::OutOfRange {
            dim: "class".into(),
            value: class,
            card: cube.n_classes(),
        });
    }
    budget.check()?;
    let total = cube.total();
    let mut pacer = Pacer::new(budget, CELL_STRIDE);
    let mut rules: Vec<CubeRule> = Vec::new();
    for (coords, cell_class, count) in cube.iter_cells() {
        pacer.tick()?;
        if cell_class != class {
            continue;
        }
        let cell_total = cube.cell_total(&coords)?;
        if cell_total < min_count.max(1) {
            continue;
        }
        rules.push(CubeRule {
            coords,
            class,
            count,
            cell_total,
            support: if total > 0 {
                count as f64 / total as f64
            } else {
                0.0
            },
            confidence: count as f64 / cell_total as f64,
        });
    }
    rules.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.count.cmp(&a.count))
            .then(a.coords.cmp(&b.coords))
    });
    rules.truncate(k);
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeDim;

    fn cube() -> RuleCube {
        let dims = vec![CubeDim {
            attr_index: 0,
            name: "Time".into(),
            labels: vec!["am".into(), "pm".into(), "eve".into()].into(),
        }];
        let mut c = RuleCube::new(dims, vec!["ok".into(), "drop".into()]);
        c.add(&[0], 0, 80).unwrap();
        c.add(&[0], 1, 20).unwrap(); // am: 20% drop
        c.add(&[1], 0, 195).unwrap();
        c.add(&[1], 1, 5).unwrap(); // pm: 2.5% drop
        c.add(&[2], 1, 3).unwrap(); // eve: 100% drop but tiny
        c
    }

    #[test]
    fn top_k_orders_by_confidence() {
        let c = cube();
        let top = top_k_by_confidence(&c, 1, 2, 1).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].coords, vec![2]); // eve at 100%
        assert_eq!(top[0].confidence, 1.0);
        assert_eq!(top[1].coords, vec![0]); // am at 20%
    }

    #[test]
    fn min_count_filters_tiny_cells() {
        let c = cube();
        let top = top_k_by_confidence(&c, 1, 5, 50).unwrap();
        assert_eq!(top.len(), 2, "eve (n=3) filtered out");
        assert_eq!(top[0].coords, vec![0]);
        assert!((top[0].confidence - 0.2).abs() < 1e-12);
    }

    #[test]
    fn display_renders_labels() {
        let c = cube();
        let top = top_k_by_confidence(&c, 1, 1, 1).unwrap();
        let s = top[0].display(&c);
        assert!(s.contains("Time=eve"), "{s}");
        assert!(s.contains("drop"), "{s}");
    }

    #[test]
    fn bad_class_rejected() {
        let c = cube();
        assert!(top_k_by_confidence(&c, 9, 1, 1).is_err());
    }

    #[test]
    fn expired_budget_surfaces_as_fault() {
        use std::time::Duration;
        let c = cube();
        let spent = Budget::with_timeout(Duration::ZERO);
        let e = top_k_by_confidence_budgeted(&c, 1, 5, 1, &spent).unwrap_err();
        assert!(matches!(e, CubeError::Fault(_)), "{e}");
    }

    #[test]
    fn empty_cube_yields_nothing() {
        let dims = vec![CubeDim {
            attr_index: 0,
            name: "X".into(),
            labels: vec!["a".into()].into(),
        }];
        let c = RuleCube::new(dims, vec!["y".into()]);
        assert!(top_k_by_confidence(&c, 0, 5, 1).unwrap().is_empty());
    }
}
