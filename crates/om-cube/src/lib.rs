//! Rule cubes and OLAP operations (Section III-B of the paper).
//!
//! A **rule cube** is "like a data cube but stores rules": for a set of
//! attributes `{A_i1, …, A_ip}` plus the class attribute `C`, the cube has
//! `p + 1` dimensions and each cell holds the support count of the class
//! association rule `A_i1 = v_1, …, A_ip = v_p → C = c_k`. Crucially, both
//! minimum support and minimum confidence are **zero** — every cell is
//! materialized, removing the "holes in the knowledge space" the paper
//! blames on the classic rule-mining paradigm.
//!
//! Per Section III-B, the deployed system stores **all 3-dimensional rule
//! cubes** (two attributes × class; i.e. all two-condition rules) plus the
//! 2-dimensional cubes (one attribute × class); longer rules are produced
//! on demand by restricted mining (`om-car`). [`store::CubeStore`]
//! implements exactly that layout, with a parallel eager build (the paper
//! generates cubes "off-line, e.g., in the evening"); a drill level's
//! store holds the 1-D cubes and one anchor's pairs, and nothing else.
//!
//! OLAP operations — slice, dice, roll-up — are in [`olap`], implemented
//! without multiple aggregation levels ("our cubes have no hierarchy",
//! Section II).

pub mod build;
pub mod cube;
pub mod kernel;
pub mod merge;
pub mod olap;
pub mod persist;
pub mod query;
pub mod scaling;
pub mod snapshot;
pub mod store;
pub mod view;

pub use build::build_cube;
pub use cube::{CubeDim, CubeError, RuleCube};
pub use kernel::{ColumnIndex, PopulationSelector};
pub use merge::merge_cubes;
pub use query::conditioned_one_dim;
pub use query::{top_k_by_confidence, top_k_by_confidence_budgeted, CubeRule};
pub use snapshot::{SharedStore, StoreSnapshot};
pub use store::{CubeStore, StoreBuildOptions};
pub use view::CubeView;
