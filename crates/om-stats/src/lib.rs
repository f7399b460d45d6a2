//! Statistics substrate for the Opportunity Map reproduction.
//!
//! The paper ("Finding Actionable Knowledge via Automated Comparison",
//! ICDE 2009) relies on a handful of classical statistics:
//!
//! * **Section IV-B** computes Wald confidence intervals for rule
//!   confidences (population proportions) at a given statistical confidence
//!   level, using the z values of Table I. [`normal`] implements the normal
//!   distribution from scratch (erf, CDF, quantile) so that the z values of
//!   Table I are *derived*, not hard-coded, and [`proportion`] implements the
//!   interval itself.
//! * The **general impressions miner** (Section III-B, prior work \[20\])
//!   needs trend detection ([`regression`]), exception detection
//!   ([`ztest`]) and influential-attribute ranking ([`chi2`], [`mod@entropy`]).
//! * The **entropy-MDL discretizer** (Section III-A mentions discretization
//!   of continuous attributes) needs class entropy ([`mod@entropy`]).
//!
//! Everything here is implemented from first principles on `f64`; no
//! external numerical crates are used.

pub mod chi2;
pub mod descriptive;
pub mod entropy;
pub mod fdr;
pub mod gamma;
pub mod mann_kendall;
pub mod normal;
pub mod proportion;
pub mod regression;
pub mod ztest;

pub use chi2::{chi2_independence, chi2_p_value, Chi2Result};
pub use descriptive::{mean, population_variance, sample_variance, std_dev};
pub use entropy::{entropy, info_gain, split_entropy};
pub use fdr::{bh_adjust, bh_reject};
pub use mann_kendall::{mann_kendall, MannKendallTest};
pub use normal::{erf, inverse_normal_cdf, normal_cdf, normal_pdf, z_for_confidence};
pub use proportion::{proportion_margin, wald_interval, wilson_interval, ProportionInterval};
pub use regression::{linear_regression, LinearFit};
pub use ztest::{two_proportion_z, TwoProportionTest};
