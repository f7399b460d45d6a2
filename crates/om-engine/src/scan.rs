//! Opportunity scan: find the comparisons worth running, automatically.
//!
//! In the deployed workflow the user first *notices* that two values
//! differ (Fig. 6) and then invokes the comparator. This module automates
//! the noticing: for every analysis attribute it finds the pair of
//! sufficiently-supported values with the most significant difference in
//! the target-class confidence (two-proportion z-test), ranks those
//! pairs, and runs the full Section IV comparison on the top ones — a
//! one-call "where should I look?" for a fresh dataset.

use om_compare::{Comparator, CompareError, ComparisonResult, ComparisonSpec};
use om_cube::CubeView;
use om_data::ValueId;
use om_stats::two_proportion_z;

use crate::engine::{EngineError, OpportunityMap};

/// Scan parameters.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Run the full comparison for at most this many top pairs.
    pub max_results: usize,
    /// Minimum records per value for a pair to be considered.
    pub min_sub_population: u64,
    /// Minimum |z| of the pair's confidence difference.
    pub min_z: f64,
}

impl Default for ScanConfig {
    fn default() -> Self {
        Self {
            max_results: 5,
            min_sub_population: 100,
            min_z: 4.0,
        }
    }
}

/// One scan finding: the significant pair plus its full comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanFinding {
    pub attr: usize,
    pub attr_name: String,
    pub value_1: ValueId,
    pub value_1_label: String,
    pub value_2: ValueId,
    pub value_2_label: String,
    /// Target-class confidences of the two values.
    pub cf1: f64,
    pub cf2: f64,
    /// z statistic of the difference (always >= 0; orientation is
    /// `cf1 <= cf2`).
    pub z: f64,
    /// The full comparison for this pair.
    pub result: ComparisonResult,
}

impl OpportunityMap {
    /// Scan every attribute for its most significant value pair on
    /// `class`, then run the comparator on the top pairs.
    ///
    /// # Errors
    /// Fails on an unknown class label.
    pub fn scan_opportunities(
        &self,
        class: &str,
        config: &ScanConfig,
    ) -> Result<Vec<ScanFinding>, EngineError> {
        let class_id = self.class_id(class)?;
        // One snapshot for both phases: candidates found in phase 1 are
        // compared in phase 2 against the same store generation.
        let snapshot = self.store();
        // Phase 1: per attribute, the most significant value pair.
        struct Candidate {
            attr: usize,
            v1: ValueId,
            v2: ValueId,
            z: f64,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        for &attr in snapshot.attrs() {
            let cube = snapshot.one_dim(attr)?;
            let view = CubeView::from_cube(&cube)?;
            let mut best: Option<Candidate> = None;
            let n_values = view.n_values() as u32;
            for a in 0..n_values {
                let na = view.value_total(a);
                if na < config.min_sub_population {
                    continue;
                }
                for b in (a + 1)..n_values {
                    let nb = view.value_total(b);
                    if nb < config.min_sub_population {
                        continue;
                    }
                    let xa = view.count(a, class_id);
                    let xb = view.count(b, class_id);
                    let t = two_proportion_z(xa, na, xb, nb);
                    let z = t.z.abs();
                    if z >= config.min_z && best.as_ref().is_none_or(|c| z > c.z) {
                        // Orient so value_1 has the lower confidence.
                        let (v1, v2) = if t.z <= 0.0 { (a, b) } else { (b, a) };
                        best = Some(Candidate { attr, v1, v2, z });
                    }
                }
            }
            if let Some(c) = best {
                candidates.push(c);
            }
        }
        candidates.sort_by(|a, b| b.z.partial_cmp(&a.z).unwrap_or(std::cmp::Ordering::Equal));
        candidates.truncate(config.max_results);

        // Phase 2: run the full comparison on each surviving pair.
        let comparator = Comparator::with_config(&snapshot, self.config().compare.clone());
        let mut findings = Vec::with_capacity(candidates.len());
        for c in candidates {
            let spec = ComparisonSpec {
                attr: c.attr,
                value_1: c.v1,
                value_2: c.v2,
                class: class_id,
            };
            let result = match comparator.compare(&spec) {
                Ok(r) => r,
                // A pair can fail the comparator's own gates (e.g. zero
                // baseline confidence); skip it rather than abort the scan.
                Err(
                    CompareError::ZeroBaselineConfidence | CompareError::InsufficientSupport { .. },
                ) => continue,
                Err(e) => return Err(e.into()),
            };
            findings.push(ScanFinding {
                attr: c.attr,
                attr_name: result.attr_name.clone(),
                value_1: result.value_1,
                value_1_label: result.value_1_label.clone(),
                value_2: result.value_2,
                value_2_label: result.value_2_label.clone(),
                cf1: result.cf1,
                cf2: result.cf2,
                z: c.z,
                result,
            });
        }
        Ok(findings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use om_synth::paper_scenario;

    fn engine() -> OpportunityMap {
        let (ds, _) = paper_scenario(60_000, 33);
        OpportunityMap::build(ds, EngineConfig::default()).unwrap()
    }

    #[test]
    fn scan_surfaces_the_phone_difference() {
        let om = engine();
        let findings = om
            .scan_opportunities("dropped", &ScanConfig::default())
            .unwrap();
        assert!(!findings.is_empty());
        // Results sorted by z.
        for w in findings.windows(2) {
            assert!(w[0].z >= w[1].z);
        }
        // The phone-model pair (ph1 vs ph2) must be among the findings,
        // with the full comparison attached and TimeOfCall on top.
        let phone = findings
            .iter()
            .find(|f| f.attr_name == "PhoneModel")
            .expect("phone pair found");
        assert_eq!(phone.value_2_label, "ph2", "{phone:?}");
        assert!(phone.cf1 <= phone.cf2);
        assert_eq!(
            phone.result.top().unwrap().attr_name,
            "TimeOfCall",
            "the attached comparison isolates the cause"
        );
    }

    #[test]
    fn scan_respects_max_results() {
        let om = engine();
        let findings = om
            .scan_opportunities(
                "dropped",
                &ScanConfig {
                    max_results: 2,
                    ..ScanConfig::default()
                },
            )
            .unwrap();
        assert!(findings.len() <= 2);
    }

    #[test]
    fn high_z_floor_silences_the_scan() {
        let om = engine();
        let findings = om
            .scan_opportunities(
                "dropped",
                &ScanConfig {
                    min_z: 1e9,
                    ..ScanConfig::default()
                },
            )
            .unwrap();
        assert!(findings.is_empty());
    }

    #[test]
    fn unknown_class_rejected() {
        let om = engine();
        assert!(om
            .scan_opportunities("bogus", &ScanConfig::default())
            .is_err());
    }
}
