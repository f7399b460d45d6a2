//! Cellular call-log generation with planted effects.
//!
//! Mirrors the structure of the paper's main application: one record per
//! call, a `CallDisposition` class with heavily skewed outcomes
//! (`ended-ok` dominates; `dropped` and `setup-failed` are the rare,
//! interesting classes), a phone-model attribute, a time-of-call attribute,
//! and both categorical and continuous context attributes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use om_data::{Attribute, Column, Dataset, Domain, Schema, ValueId};

use crate::effects::{logit, sigmoid, Effect, EffectTarget};
use crate::ground_truth::GroundTruth;

/// Class labels, in domain order.
pub const CLASS_LABELS: [&str; 3] = ["ended-ok", "dropped", "setup-failed"];

/// Configuration for [`generate_call_log`].
#[derive(Debug, Clone)]
pub struct CallLogConfig {
    /// Number of call records.
    pub n_records: usize,
    /// Number of phone models (`ph1`, `ph2`, …).
    pub n_phone_models: usize,
    /// Number of additional uninformative categorical attributes
    /// (`Extra01`, …) with 3–7 values each.
    pub n_extra_attrs: usize,
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
    /// Baseline probability of `dropped`.
    pub base_drop: f64,
    /// Baseline probability of `setup-failed`.
    pub base_setup_fail: f64,
    /// Log-odds added to `dropped` per 10 dBm of signal below −75 dBm
    /// (gives the discretizer a real continuous effect to find).
    pub signal_effect: f64,
    /// Planted categorical effects.
    pub effects: Vec<Effect>,
    /// Include the `PhoneHardwareVersion` attribute, which is a pure
    /// function of the phone model — the paper's example of a *property
    /// attribute* (Section IV-C).
    pub include_hardware_version: bool,
}

impl Default for CallLogConfig {
    fn default() -> Self {
        Self {
            n_records: 20_000,
            n_phone_models: 6,
            n_extra_attrs: 4,
            seed: DEFAULT_SEED,
            base_drop: 0.02,
            base_setup_fail: 0.01,
            signal_effect: 0.25,
            effects: Vec::new(),
            include_hardware_version: true,
        }
    }
}

/// Arbitrary but fixed default seed.
pub const DEFAULT_SEED: u64 = 0x0fac_ade5;

/// Compiled form of an effect: attribute column indices + value ids.
enum CompiledEffect {
    Value {
        col: usize,
        value: ValueId,
        class: usize,
        log_odds: f64,
    },
    Interaction {
        col_a: usize,
        value_a: ValueId,
        col_b: usize,
        value_b: ValueId,
        class: usize,
        log_odds: f64,
    },
    Conjunction {
        conditions: Vec<(usize, ValueId)>,
        class: usize,
        log_odds: f64,
    },
}

struct CatSpec {
    name: &'static str,
    labels: Vec<String>,
    /// Sampling weights (uniform if empty).
    weights: Vec<f64>,
}

/// Generate a call-log dataset from `config`.
///
/// # Panics
/// Panics if an effect references an unknown attribute/value/class, or if
/// base rates are not in `(0, 1)`.
pub fn generate_call_log(config: &CallLogConfig) -> Dataset {
    assert!(config.n_phone_models >= 1, "need at least one phone model");
    assert!(
        config.base_drop > 0.0 && config.base_drop < 1.0,
        "base_drop must be in (0,1)"
    );
    assert!(
        config.base_setup_fail > 0.0 && config.base_setup_fail < 1.0,
        "base_setup_fail must be in (0,1)"
    );

    let mut rng = StdRng::seed_from_u64(config.seed);

    // ---- categorical attribute specs -------------------------------------
    let mut specs: Vec<CatSpec> = vec![
        CatSpec {
            name: "PhoneModel",
            labels: (1..=config.n_phone_models)
                .map(|i| format!("ph{i}"))
                .collect(),
            weights: vec![],
        },
        CatSpec {
            name: "TimeOfCall",
            labels: ["morning", "afternoon", "evening", "night"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            weights: vec![0.30, 0.35, 0.25, 0.10],
        },
        CatSpec {
            name: "LocationType",
            labels: ["urban", "suburban", "rural", "highway"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            weights: vec![0.40, 0.30, 0.20, 0.10],
        },
        CatSpec {
            name: "NetworkLoad",
            labels: ["low", "medium", "high"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            weights: vec![0.3, 0.5, 0.2],
        },
        CatSpec {
            name: "MovementSpeed",
            labels: ["stationary", "walking", "driving"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            weights: vec![0.5, 0.3, 0.2],
        },
    ];
    // Extra noise attributes keep names stable across configs.
    let extra_names: Vec<String> = (1..=config.n_extra_attrs)
        .map(|i| format!("Extra{i:02}"))
        .collect();
    for (i, _name) in extra_names.iter().enumerate() {
        let n_vals = 3 + (i % 5);
        specs.push(CatSpec {
            name: Box::leak(extra_names[i].clone().into_boxed_str()),
            labels: (0..n_vals).map(|v| format!("v{v}")).collect(),
            weights: vec![],
        });
    }

    // ---- sample categorical columns ---------------------------------------
    let n = config.n_records;
    let mut cat_cols: Vec<Vec<ValueId>> = Vec::with_capacity(specs.len());
    for spec in &specs {
        let k = spec.labels.len();
        let mut col = Vec::with_capacity(n);
        if spec.weights.is_empty() {
            for _ in 0..n {
                col.push(rng.gen_range(0..k) as ValueId);
            }
        } else {
            debug_assert_eq!(spec.weights.len(), k);
            let total: f64 = spec.weights.iter().sum();
            for _ in 0..n {
                let mut u = rng.gen::<f64>() * total;
                let mut picked = k - 1;
                for (j, &w) in spec.weights.iter().enumerate() {
                    if u < w {
                        picked = j;
                        break;
                    }
                    u -= w;
                }
                col.push(picked as ValueId);
            }
        }
        cat_cols.push(col);
    }

    // Hardware version is a pure function of the phone model: odd-numbered
    // models use hw-v1, even-numbered hw-v2 (so ph1 vs ph2 is exactly the
    // paper's property-attribute situation).
    let hw_col: Option<Vec<ValueId>> = config
        .include_hardware_version
        .then(|| cat_cols[0].iter().map(|&m| (m % 2) as ValueId).collect());

    // ---- continuous columns ------------------------------------------------
    let mut signal = Vec::with_capacity(n);
    let mut battery = Vec::with_capacity(n);
    for _ in 0..n {
        // Approximate normal via sum of uniforms (Irwin–Hall, 12 terms).
        let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
        signal.push((-75.0 + 12.0 * z).clamp(-110.0, -45.0));
        battery.push(rng.gen_range(1.0..100.0));
    }

    // ---- compile effects ----------------------------------------------------
    let attr_col = |name: &str| -> usize {
        specs
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("effect references unknown attribute {name:?}"))
    };
    let value_id = |col: usize, label: &str| -> ValueId {
        specs[col]
            .labels
            .iter()
            .position(|l| l == label)
            .unwrap_or_else(|| {
                panic!(
                    "effect references unknown value {label:?} of {:?}",
                    specs[col].name
                )
            }) as ValueId
    };
    let class_id = |label: &str| -> usize {
        CLASS_LABELS
            .iter()
            .position(|l| *l == label)
            .unwrap_or_else(|| panic!("effect references unknown class {label:?}"))
    };
    let compiled: Vec<CompiledEffect> = config
        .effects
        .iter()
        .map(|e| match &e.target {
            EffectTarget::Value { attr, value } => {
                let col = attr_col(attr);
                CompiledEffect::Value {
                    col,
                    value: value_id(col, value),
                    class: class_id(&e.class),
                    log_odds: e.log_odds,
                }
            }
            EffectTarget::Interaction {
                attr_a,
                value_a,
                attr_b,
                value_b,
            } => {
                let col_a = attr_col(attr_a);
                let col_b = attr_col(attr_b);
                CompiledEffect::Interaction {
                    col_a,
                    value_a: value_id(col_a, value_a),
                    col_b,
                    value_b: value_id(col_b, value_b),
                    class: class_id(&e.class),
                    log_odds: e.log_odds,
                }
            }
            EffectTarget::Conjunction(conds) => {
                let conditions = conds
                    .iter()
                    .map(|(a, v)| {
                        let col = attr_col(a);
                        (col, value_id(col, v))
                    })
                    .collect();
                CompiledEffect::Conjunction {
                    conditions,
                    class: class_id(&e.class),
                    log_odds: e.log_odds,
                }
            }
        })
        .collect();

    // ---- sample classes ------------------------------------------------------
    let base_logit = [logit(config.base_drop), logit(config.base_setup_fail)];
    let mut class_col: Vec<ValueId> = Vec::with_capacity(n);
    for r in 0..n {
        // log-odds for dropped (index 0) and setup-failed (index 1).
        let mut lo = base_logit;
        lo[0] += config.signal_effect * ((-75.0 - signal[r]) / 10.0);
        for ce in &compiled {
            match *ce {
                CompiledEffect::Value {
                    col,
                    value,
                    class,
                    log_odds,
                } => {
                    if cat_cols[col][r] == value && class >= 1 {
                        lo[class - 1] += log_odds;
                    }
                }
                CompiledEffect::Interaction {
                    col_a,
                    value_a,
                    col_b,
                    value_b,
                    class,
                    log_odds,
                } => {
                    if cat_cols[col_a][r] == value_a && cat_cols[col_b][r] == value_b && class >= 1
                    {
                        lo[class - 1] += log_odds;
                    }
                }
                CompiledEffect::Conjunction {
                    ref conditions,
                    class,
                    log_odds,
                } => {
                    if class >= 1 && conditions.iter().all(|&(col, v)| cat_cols[col][r] == v) {
                        lo[class - 1] += log_odds;
                    }
                }
            }
        }
        let mut p_drop = sigmoid(lo[0]);
        let mut p_setup = sigmoid(lo[1]);
        // Keep a healthy share of successful calls even under huge effects.
        let sum = p_drop + p_setup;
        if sum > 0.95 {
            p_drop *= 0.95 / sum;
            p_setup *= 0.95 / sum;
        }
        let u: f64 = rng.gen();
        let class = if u < p_drop {
            1 // dropped
        } else if u < p_drop + p_setup {
            2 // setup-failed
        } else {
            0 // ended-ok
        };
        class_col.push(class as ValueId);
    }

    // ---- assemble the dataset -------------------------------------------------
    let mut attributes: Vec<Attribute> = Vec::new();
    let mut columns: Vec<Column> = Vec::new();
    for (spec, col) in specs.iter().zip(cat_cols) {
        attributes.push(Attribute::categorical(
            spec.name,
            Domain::from_labels(spec.labels.iter().cloned()),
        ));
        columns.push(Column::Categorical(col));
    }
    if let Some(hw) = hw_col {
        attributes.push(Attribute::categorical(
            "PhoneHardwareVersion",
            Domain::from_labels(["hw-v1", "hw-v2"]),
        ));
        columns.push(Column::Categorical(hw));
    }
    attributes.push(Attribute::continuous("SignalStrength"));
    columns.push(Column::Continuous(signal));
    attributes.push(Attribute::continuous("BatteryLevel"));
    columns.push(Column::Continuous(battery));

    let class_idx = attributes.len();
    attributes.push(Attribute::categorical(
        "CallDisposition",
        Domain::from_labels(CLASS_LABELS),
    ));
    columns.push(Column::Categorical(class_col));

    let schema = Schema::new(attributes, class_idx).expect("generated schema is valid");
    Dataset::from_columns(schema, columns).expect("generated columns match schema")
}

/// The paper's running scenario, ready for the comparator:
///
/// * `ph2` is *overall* somewhat worse than `ph1` (main effect), and
/// * `ph2` is *dramatically* worse **in the morning** (interaction) — the
///   situation of Fig. 2(B), so `TimeOfCall` is the attribute the
///   comparator must surface;
/// * `NetworkLoad = high` raises drops *for every phone equally* — the
///   situation of Fig. 2(A), so `NetworkLoad` must **not** be surfaced;
/// * `PhoneHardwareVersion` is a pure function of the phone model — the
///   property attribute of Fig. 8 / Section IV-C.
///
/// Returns the dataset together with the [`GroundTruth`] describing what a
/// correct analysis should find.
pub fn paper_scenario(n_records: usize, seed: u64) -> (Dataset, GroundTruth) {
    let config = CallLogConfig {
        n_records,
        seed,
        effects: vec![
            Effect::value("PhoneModel", "ph2", "dropped", 0.35),
            Effect::interaction("PhoneModel", "ph2", "TimeOfCall", "morning", "dropped", 2.2),
            Effect::value("NetworkLoad", "high", "dropped", 0.8),
        ],
        ..CallLogConfig::default()
    };
    let ds = generate_call_log(&config);
    let truth = GroundTruth {
        compare_attr: "PhoneModel".into(),
        baseline_value: "ph1".into(),
        target_value: "ph2".into(),
        target_class: "dropped".into(),
        expected_top_attr: "TimeOfCall".into(),
        expected_top_value: "morning".into(),
        uninformative_attrs: vec!["NetworkLoad".into()],
        property_attrs: vec!["PhoneHardwareVersion".into()],
    };
    (ds, truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let config = CallLogConfig {
            n_records: 5_000,
            n_extra_attrs: 3,
            ..CallLogConfig::default()
        };
        let ds = generate_call_log(&config);
        assert_eq!(ds.n_rows(), 5_000);
        let s = ds.schema();
        // 5 core + 3 extra + hardware + 2 continuous + class
        assert_eq!(s.n_attributes(), 5 + 3 + 1 + 2 + 1);
        assert_eq!(s.class().name(), "CallDisposition");
        assert_eq!(s.n_classes(), 3);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let config = CallLogConfig {
            n_records: 2_000,
            ..CallLogConfig::default()
        };
        let a = generate_call_log(&config);
        let b = generate_call_log(&config);
        assert_eq!(a, b);
        let c = generate_call_log(&CallLogConfig {
            seed: config.seed + 1,
            ..config
        });
        assert_ne!(a, c);
    }

    #[test]
    fn classes_are_skewed_toward_success() {
        let ds = generate_call_log(&CallLogConfig {
            n_records: 30_000,
            ..CallLogConfig::default()
        });
        let counts = ds.class_counts();
        let total: u64 = counts.iter().sum();
        // ended-ok must dominate, but failures must exist.
        assert!(counts[0] as f64 / total as f64 > 0.85);
        assert!(counts[1] > 0 && counts[2] > 0);
    }

    #[test]
    fn planted_interaction_shows_in_raw_rates() {
        let (ds, _truth) = paper_scenario(120_000, 42);
        let s = ds.schema();
        let phone = s.attr_index("PhoneModel").unwrap();
        let time = s.attr_index("TimeOfCall").unwrap();
        let ph1 = s.attribute(phone).domain().get("ph1").unwrap();
        let ph2 = s.attribute(phone).domain().get("ph2").unwrap();
        let morning = s.attribute(time).domain().get("morning").unwrap();
        let evening = s.attribute(time).domain().get("evening").unwrap();
        let dropped = s.class().domain().get("dropped").unwrap();

        let rate = |pv, tv| {
            let phones = ds.column(phone).as_categorical().unwrap();
            let times = ds.column(time).as_categorical().unwrap();
            let classes = ds.class_values();
            let mut n = 0u64;
            let mut d = 0u64;
            for i in 0..ds.n_rows() {
                if phones[i] == pv && times[i] == tv {
                    n += 1;
                    if classes[i] == dropped {
                        d += 1;
                    }
                }
            }
            d as f64 / n.max(1) as f64
        };
        let ph2_morning = rate(ph2, morning);
        let ph1_morning = rate(ph1, morning);
        let ph2_evening = rate(ph2, evening);
        // The interaction must be visible: ph2 mornings far worse than both
        // ph1 mornings and ph2 evenings.
        assert!(
            ph2_morning > 2.5 * ph1_morning,
            "ph2 morning {ph2_morning} vs ph1 morning {ph1_morning}"
        );
        assert!(
            ph2_morning > 2.5 * ph2_evening,
            "ph2 morning {ph2_morning} vs ph2 evening {ph2_evening}"
        );
    }

    #[test]
    fn hardware_version_tracks_phone_model() {
        let ds = generate_call_log(&CallLogConfig {
            n_records: 1_000,
            ..CallLogConfig::default()
        });
        let s = ds.schema();
        let phone = ds
            .column(s.attr_index("PhoneModel").unwrap())
            .as_categorical()
            .unwrap();
        let hw = ds
            .column(s.attr_index("PhoneHardwareVersion").unwrap())
            .as_categorical()
            .unwrap();
        for (p, h) in phone.iter().zip(hw) {
            assert_eq!(p % 2, *h);
        }
    }

    #[test]
    fn hardware_version_optional() {
        let ds = generate_call_log(&CallLogConfig {
            n_records: 100,
            include_hardware_version: false,
            ..CallLogConfig::default()
        });
        assert!(ds.schema().attr_index("PhoneHardwareVersion").is_none());
    }

    #[test]
    #[should_panic(expected = "unknown attribute")]
    fn unknown_effect_attribute_panics() {
        let config = CallLogConfig {
            n_records: 10,
            effects: vec![Effect::value("Bogus", "x", "dropped", 1.0)],
            ..CallLogConfig::default()
        };
        generate_call_log(&config);
    }

    #[test]
    #[should_panic(expected = "unknown class")]
    fn unknown_effect_class_panics() {
        let config = CallLogConfig {
            n_records: 10,
            effects: vec![Effect::value("PhoneModel", "ph1", "exploded", 1.0)],
            ..CallLogConfig::default()
        };
        generate_call_log(&config);
    }
}
