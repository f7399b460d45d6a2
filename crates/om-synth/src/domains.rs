//! Additional engineering domains.
//!
//! The paper stresses that Opportunity Map "is general and is not specific
//! to a particular application" (Section I). These generators provide two
//! further diagnostic-mining domains used by the examples:
//!
//! * **network diagnostics** — compare time periods instead of products
//!   (the paper's Section III-C closing example: "calls in the morning tend
//!   to drop much more frequently than in the afternoon … it may be
//!   discovered that the network equipment is not stable in the morning due
//!   to high call volumes");
//! * **manufacturing quality** — compare production lines on defect rates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use om_data::{Attribute, Column, Dataset, Domain, Schema, ValueId};

use crate::effects::{logit, sigmoid};
use crate::ground_truth::GroundTruth;

/// Network-diagnostics scenario: the class of interest is `congested`;
/// mornings are much worse than afternoons, and the *cause* is planted as
/// a `morning × CallVolume = high` interaction — the paper's story that
/// "the network equipment is not stable in the morning due to high call
/// volumes". A mild volume effect common to all periods (the Fig. 2(A)
/// situation) is also present and must not dominate.
///
/// Comparing `TimeOfDay = morning` vs `afternoon` on class `congested`
/// should rank `CallVolume` first with top value `high`.
///
/// Note a deliberately *excluded* design: if morning congestion were
/// driven purely by a different volume *mix* (same conditional rates),
/// the measure of Section IV would correctly score every attribute 0 —
/// it detects conditional-rate excesses, not compositional shifts.
pub fn network_diagnostics(n_records: usize, seed: u64) -> (Dataset, GroundTruth) {
    let mut rng = StdRng::seed_from_u64(seed);
    let times = ["morning", "afternoon", "evening"];
    let vendors = ["vendorA", "vendorB", "vendorC"];
    let backhauls = ["fiber", "microwave", "copper"];
    let volumes = ["low", "medium", "high"];
    let regions = ["north", "south", "east", "west"];

    let n = n_records;
    let mut time_c: Vec<ValueId> = Vec::with_capacity(n);
    let mut vendor_c: Vec<ValueId> = Vec::with_capacity(n);
    let mut backhaul_c: Vec<ValueId> = Vec::with_capacity(n);
    let mut volume_c: Vec<ValueId> = Vec::with_capacity(n);
    let mut region_c: Vec<ValueId> = Vec::with_capacity(n);
    let mut class_c: Vec<ValueId> = Vec::with_capacity(n);

    let base = logit(0.03);
    for _ in 0..n {
        let time = rng.gen_range(0..times.len()) as ValueId;
        // Volume is slightly morning-skewed but present everywhere.
        let volume = if time == 0 {
            match rng.gen::<f64>() {
                u if u < 0.35 => 2,
                u if u < 0.70 => 1,
                _ => 0,
            }
        } else {
            match rng.gen::<f64>() {
                u if u < 0.20 => 2,
                u if u < 0.55 => 1,
                _ => 0,
            }
        } as ValueId;
        let vendor = rng.gen_range(0..vendors.len()) as ValueId;
        let backhaul = rng.gen_range(0..backhauls.len()) as ValueId;
        let region = rng.gen_range(0..regions.len()) as ValueId;

        // A mild volume effect common to every period, a small vendor
        // effect, and the planted cause: mornings fall over under high
        // volume (interaction).
        let mut lo = base;
        if volume == 2 {
            lo += 0.5;
        } else if volume == 1 {
            lo += 0.2;
        }
        if vendor == 1 {
            lo += 0.3;
        }
        if time == 0 && volume == 2 {
            lo += 2.2;
        }
        let p = sigmoid(lo);
        let class = if rng.gen::<f64>() < p { 1 } else { 0 } as ValueId;

        time_c.push(time);
        vendor_c.push(vendor);
        backhaul_c.push(backhaul);
        volume_c.push(volume);
        region_c.push(region);
        class_c.push(class);
    }

    let attributes = vec![
        Attribute::categorical("TimeOfDay", Domain::from_labels(times)),
        Attribute::categorical("Vendor", Domain::from_labels(vendors)),
        Attribute::categorical("Backhaul", Domain::from_labels(backhauls)),
        Attribute::categorical("CallVolume", Domain::from_labels(volumes)),
        Attribute::categorical("Region", Domain::from_labels(regions)),
        Attribute::categorical("Status", Domain::from_labels(["normal", "congested"])),
    ];
    let schema = Schema::new(attributes, 5).expect("valid schema");
    let ds = Dataset::from_columns(
        schema,
        vec![
            Column::Categorical(time_c),
            Column::Categorical(vendor_c),
            Column::Categorical(backhaul_c),
            Column::Categorical(volume_c),
            Column::Categorical(region_c),
            Column::Categorical(class_c),
        ],
    )
    .expect("valid columns");

    let truth = GroundTruth {
        compare_attr: "TimeOfDay".into(),
        baseline_value: "afternoon".into(),
        target_value: "morning".into(),
        target_class: "congested".into(),
        expected_top_attr: "CallVolume".into(),
        expected_top_value: "high".into(),
        uninformative_attrs: vec!["Vendor".into(), "Backhaul".into(), "Region".into()],
        property_attrs: vec![],
    };
    (ds, truth)
}

/// Manufacturing-quality scenario: `line2` has a higher defect rate than
/// `line1`, and the excess is concentrated on `Supplier = supplierX`
/// (line 2 sources a bad component batch). Comparing `line1` vs `line2`
/// on class `defect` should rank `Supplier` first. `Shift` affects both
/// lines equally (uninformative).
pub fn manufacturing_quality(n_records: usize, seed: u64) -> (Dataset, GroundTruth) {
    let mut rng = StdRng::seed_from_u64(seed);
    let lines = ["line1", "line2", "line3"];
    let shifts = ["day", "swing", "night"];
    let suppliers = ["supplierX", "supplierY", "supplierZ"];
    let machines = ["m1", "m2", "m3", "m4"];
    let operators = ["op1", "op2", "op3", "op4", "op5"];

    let n = n_records;
    let mut cols: Vec<Vec<ValueId>> = (0..5).map(|_| Vec::with_capacity(n)).collect();
    let mut class_c: Vec<ValueId> = Vec::with_capacity(n);
    let base = logit(0.02);
    for _ in 0..n {
        let line = rng.gen_range(0..lines.len()) as ValueId;
        let shift = rng.gen_range(0..shifts.len()) as ValueId;
        // Line 2 uses supplierX far more often.
        let supplier = if line == 1 {
            if rng.gen::<f64>() < 0.6 {
                0
            } else {
                rng.gen_range(1..3)
            }
        } else if rng.gen::<f64>() < 0.15 {
            0
        } else {
            rng.gen_range(1..3)
        } as ValueId;
        let machine = rng.gen_range(0..machines.len()) as ValueId;
        let operator = rng.gen_range(0..operators.len()) as ValueId;

        let mut lo = base;
        // The planted cause: supplierX parts fail, but only on line2's
        // calibration (interaction), plus a night-shift effect common to
        // all lines (uninformative for the line1-vs-line2 comparison).
        if supplier == 0 && line == 1 {
            lo += 2.5;
        }
        if shift == 2 {
            lo += 0.7;
        }
        let p = sigmoid(lo);
        let class = if rng.gen::<f64>() < p { 1 } else { 0 } as ValueId;

        cols[0].push(line);
        cols[1].push(shift);
        cols[2].push(supplier);
        cols[3].push(machine);
        cols[4].push(operator);
        class_c.push(class);
    }

    let attributes = vec![
        Attribute::categorical("Line", Domain::from_labels(lines)),
        Attribute::categorical("Shift", Domain::from_labels(shifts)),
        Attribute::categorical("Supplier", Domain::from_labels(suppliers)),
        Attribute::categorical("Machine", Domain::from_labels(machines)),
        Attribute::categorical("Operator", Domain::from_labels(operators)),
        Attribute::categorical("Outcome", Domain::from_labels(["pass", "defect"])),
    ];
    let schema = Schema::new(attributes, 5).expect("valid schema");
    let mut columns: Vec<Column> = cols.into_iter().map(Column::Categorical).collect();
    columns.push(Column::Categorical(class_c));
    let ds = Dataset::from_columns(schema, columns).expect("valid columns");

    let truth = GroundTruth {
        compare_attr: "Line".into(),
        baseline_value: "line1".into(),
        target_value: "line2".into(),
        target_class: "defect".into(),
        expected_top_attr: "Supplier".into(),
        expected_top_value: "supplierX".into(),
        uninformative_attrs: vec!["Shift".into()],
        property_attrs: vec![],
    };
    (ds, truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_shape_and_skew() {
        let (ds, truth) = network_diagnostics(20_000, 3);
        assert_eq!(ds.n_rows(), 20_000);
        assert_eq!(ds.schema().class().name(), "Status");
        let counts = ds.class_counts();
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > 0);
        assert_eq!(truth.expected_top_attr, "CallVolume");
    }

    #[test]
    fn network_morning_is_worse() {
        let (ds, _) = network_diagnostics(50_000, 5);
        let s = ds.schema();
        let time = s.attr_index("TimeOfDay").unwrap();
        let times = ds.column(time).as_categorical().unwrap();
        let classes = ds.class_values();
        let rate = |tv: ValueId| {
            let mut n = 0u64;
            let mut c = 0u64;
            for i in 0..ds.n_rows() {
                if times[i] == tv {
                    n += 1;
                    c += (classes[i] == 1) as u64;
                }
            }
            c as f64 / n.max(1) as f64
        };
        assert!(
            rate(0) > 1.5 * rate(1),
            "morning {} afternoon {}",
            rate(0),
            rate(1)
        );
    }

    #[test]
    fn manufacturing_line2_is_worse() {
        let (ds, _) = manufacturing_quality(50_000, 11);
        let s = ds.schema();
        let line = s.attr_index("Line").unwrap();
        let lines = ds.column(line).as_categorical().unwrap();
        let classes = ds.class_values();
        let rate = |lv: ValueId| {
            let mut n = 0u64;
            let mut c = 0u64;
            for i in 0..ds.n_rows() {
                if lines[i] == lv {
                    n += 1;
                    c += (classes[i] == 1) as u64;
                }
            }
            c as f64 / n.max(1) as f64
        };
        assert!(
            rate(1) > 2.0 * rate(0),
            "line2 {} line1 {}",
            rate(1),
            rate(0)
        );
    }

    #[test]
    fn generators_deterministic() {
        assert_eq!(
            network_diagnostics(1000, 9).0,
            network_diagnostics(1000, 9).0
        );
        assert_eq!(
            manufacturing_quality(1000, 9).0,
            manufacturing_quality(1000, 9).0
        );
    }
}
