//! Planted causal effects for synthetic data.
//!
//! An [`Effect`] shifts the log-odds of one class for records matching a
//! single attribute value or a conjunction of two values. The paper's
//! running example — "in the morning … phone 1 performs much worse than
//! phone 2" (Section I) — is an [`EffectTarget::Interaction`] between
//! `PhoneModel` and `TimeOfCall`.

/// What subset of records an effect applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EffectTarget {
    /// Records where `attr == value`.
    Value { attr: String, value: String },
    /// Records where both conditions hold (a two-way interaction).
    Interaction {
        attr_a: String,
        value_a: String,
        attr_b: String,
        value_b: String,
    },
    /// Records where every condition holds (arbitrary-order interaction;
    /// used to plant nested causes for drill-down experiments).
    Conjunction(Vec<(String, String)>),
}

/// A planted shift of `log_odds` for `class` on matching records.
#[derive(Debug, Clone, PartialEq)]
pub struct Effect {
    pub target: EffectTarget,
    /// Class label whose log-odds is shifted.
    pub class: String,
    /// Additive log-odds shift (positive makes the class more likely).
    pub log_odds: f64,
}

impl Effect {
    /// Main effect: `attr == value` shifts `class` by `log_odds`.
    pub fn value(
        attr: impl Into<String>,
        value: impl Into<String>,
        class: impl Into<String>,
        log_odds: f64,
    ) -> Self {
        Self {
            target: EffectTarget::Value {
                attr: attr.into(),
                value: value.into(),
            },
            class: class.into(),
            log_odds,
        }
    }

    /// Interaction effect: both conditions must hold.
    pub fn interaction(
        attr_a: impl Into<String>,
        value_a: impl Into<String>,
        attr_b: impl Into<String>,
        value_b: impl Into<String>,
        class: impl Into<String>,
        log_odds: f64,
    ) -> Self {
        Self {
            target: EffectTarget::Interaction {
                attr_a: attr_a.into(),
                value_a: value_a.into(),
                attr_b: attr_b.into(),
                value_b: value_b.into(),
            },
            class: class.into(),
            log_odds,
        }
    }

    /// Conjunction effect over any number of conditions.
    pub fn conjunction<I, S>(conditions: I, class: impl Into<String>, log_odds: f64) -> Self
    where
        I: IntoIterator<Item = (S, S)>,
        S: Into<String>,
    {
        Self {
            target: EffectTarget::Conjunction(
                conditions
                    .into_iter()
                    .map(|(a, v)| (a.into(), v.into()))
                    .collect(),
            ),
            class: class.into(),
            log_odds,
        }
    }

    /// Whether the effect applies to a record described by
    /// `(attr name, value label)` lookups.
    pub fn matches(&self, lookup: &dyn Fn(&str) -> Option<String>) -> bool {
        match &self.target {
            EffectTarget::Value { attr, value } => lookup(attr).as_deref() == Some(value.as_str()),
            EffectTarget::Interaction {
                attr_a,
                value_a,
                attr_b,
                value_b,
            } => {
                lookup(attr_a).as_deref() == Some(value_a.as_str())
                    && lookup(attr_b).as_deref() == Some(value_b.as_str())
            }
            EffectTarget::Conjunction(conds) => conds
                .iter()
                .all(|(a, v)| lookup(a).as_deref() == Some(v.as_str())),
        }
    }
}

/// Convert a probability to log-odds.
pub fn logit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "logit requires p in (0,1), got {p}");
    (p / (1.0 - p)).ln()
}

/// Convert log-odds back to a probability.
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logit_sigmoid_round_trip() {
        for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
            assert!((sigmoid(logit(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn value_effect_matches() {
        let e = Effect::value("Phone", "ph2", "drop", 1.0);
        let lookup = |a: &str| -> Option<String> { (a == "Phone").then(|| "ph2".to_string()) };
        assert!(e.matches(&lookup));
        let lookup = |a: &str| -> Option<String> { (a == "Phone").then(|| "ph1".to_string()) };
        assert!(!e.matches(&lookup));
    }

    #[test]
    fn interaction_requires_both() {
        let e = Effect::interaction("Phone", "ph2", "Time", "morning", "drop", 2.0);
        let both = |a: &str| -> Option<String> {
            match a {
                "Phone" => Some("ph2".into()),
                "Time" => Some("morning".into()),
                _ => None,
            }
        };
        let only_one = |a: &str| -> Option<String> {
            match a {
                "Phone" => Some("ph2".into()),
                "Time" => Some("evening".into()),
                _ => None,
            }
        };
        assert!(e.matches(&both));
        assert!(!e.matches(&only_one));
    }

    #[test]
    #[should_panic(expected = "logit requires")]
    fn logit_rejects_boundary() {
        logit(1.0);
    }
}
