//! Dataset summaries: the first thing an analyst asks of a new extract.

use std::fmt;

use crate::dataset::Dataset;
use crate::schema::AttrKind;

/// Summary of one attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeSummary {
    pub name: String,
    pub kind: AttrKind,
    /// Distinct values (categorical only).
    pub cardinality: Option<usize>,
    /// Up to three most frequent values with counts (categorical only).
    pub top_values: Vec<(String, u64)>,
    /// Range and mean of finite values (continuous only).
    pub min: Option<f64>,
    pub max: Option<f64>,
    pub mean: Option<f64>,
    /// NaN count (continuous only).
    pub n_missing: u64,
}

/// Summary of a whole dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    pub n_rows: usize,
    pub n_attributes: usize,
    pub class_name: String,
    /// `(label, count, share)` per class, in id order.
    pub class_distribution: Vec<(String, u64, f64)>,
    pub attributes: Vec<AttributeSummary>,
}

/// Compute the summary.
pub fn summarize(ds: &Dataset) -> DatasetSummary {
    let schema = ds.schema();
    let total = ds.n_rows() as f64;
    let class_counts = ds.class_counts();
    let class_distribution = schema
        .class()
        .domain()
        .labels()
        .iter()
        .zip(&class_counts)
        .map(|(l, &c)| {
            (
                l.clone(),
                c,
                if total > 0.0 { c as f64 / total } else { 0.0 },
            )
        })
        .collect();

    let attributes = (0..schema.n_attributes())
        .filter(|&i| i != schema.class_index())
        .map(|i| {
            let attr = schema.attribute(i);
            match attr.kind() {
                AttrKind::Categorical => {
                    let counts = ds.value_counts(i).expect("categorical attribute");
                    let mut pairs: Vec<(String, u64)> =
                        attr.domain().labels().iter().cloned().zip(counts).collect();
                    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    AttributeSummary {
                        name: attr.name().to_owned(),
                        kind: AttrKind::Categorical,
                        cardinality: Some(attr.cardinality()),
                        top_values: pairs.into_iter().take(3).collect(),
                        min: None,
                        max: None,
                        mean: None,
                        n_missing: 0,
                    }
                }
                AttrKind::Continuous => {
                    let values = ds.column(i).as_continuous().expect("continuous attribute");
                    let finite: Vec<f64> =
                        values.iter().copied().filter(|v| v.is_finite()).collect();
                    let n_missing = values.iter().filter(|v| v.is_nan()).count() as u64;
                    let (min, max, mean) = if finite.is_empty() {
                        (None, None, None)
                    } else {
                        (
                            finite.iter().copied().reduce(f64::min),
                            finite.iter().copied().reduce(f64::max),
                            Some(finite.iter().sum::<f64>() / finite.len() as f64),
                        )
                    };
                    AttributeSummary {
                        name: attr.name().to_owned(),
                        kind: AttrKind::Continuous,
                        cardinality: None,
                        top_values: Vec::new(),
                        min,
                        max,
                        mean,
                        n_missing,
                    }
                }
            }
        })
        .collect();

    DatasetSummary {
        n_rows: ds.n_rows(),
        n_attributes: schema.n_attributes(),
        class_name: schema.class().name().to_owned(),
        class_distribution,
        attributes,
    }
}

impl fmt::Display for DatasetSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} records, {} attributes (class: {})",
            self.n_rows, self.n_attributes, self.class_name
        )?;
        writeln!(f, "class distribution:")?;
        for (label, count, share) in &self.class_distribution {
            writeln!(f, "  {label:<24} {count:>10}  ({:.2}%)", share * 100.0)?;
        }
        writeln!(f, "attributes:")?;
        for a in &self.attributes {
            match a.kind {
                AttrKind::Categorical => {
                    let tops: Vec<String> = a
                        .top_values
                        .iter()
                        .map(|(l, c)| format!("{l} ({c})"))
                        .collect();
                    writeln!(
                        f,
                        "  {:<24} categorical, {} values; top: {}",
                        a.name,
                        a.cardinality.unwrap_or(0),
                        tops.join(", ")
                    )?;
                }
                AttrKind::Continuous => {
                    writeln!(
                        f,
                        "  {:<24} continuous, range [{:.3}, {:.3}], mean {:.3}{}",
                        a.name,
                        a.min.unwrap_or(f64::NAN),
                        a.max.unwrap_or(f64::NAN),
                        a.mean.unwrap_or(f64::NAN),
                        if a.n_missing > 0 {
                            format!(", {} missing", a.n_missing)
                        } else {
                            String::new()
                        }
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Cell, DatasetBuilder};

    fn ds() -> Dataset {
        let mut b = DatasetBuilder::new()
            .categorical("Phone")
            .continuous("Signal")
            .class("Outcome");
        for (p, s, o) in [
            ("ph1", -70.0, "ok"),
            ("ph1", -60.0, "ok"),
            ("ph2", f64::NAN, "drop"),
            ("ph2", -90.0, "ok"),
        ] {
            b.push_row(&[Cell::Str(p), Cell::Num(s), Cell::Str(o)])
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn summary_contents() {
        let s = summarize(&ds());
        assert_eq!(s.n_rows, 4);
        assert_eq!(s.class_name, "Outcome");
        assert_eq!(s.class_distribution[0], ("ok".into(), 3, 0.75));
        let phone = &s.attributes[0];
        assert_eq!(phone.cardinality, Some(2));
        assert_eq!(phone.top_values[0].1, 2);
        let signal = &s.attributes[1];
        assert_eq!(signal.min, Some(-90.0));
        assert_eq!(signal.max, Some(-60.0));
        assert_eq!(signal.n_missing, 1);
        let mean = signal.mean.unwrap();
        assert!((mean - (-220.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn display_renders_everything() {
        let text = summarize(&ds()).to_string();
        assert!(text.contains("4 records"));
        assert!(text.contains("Phone"));
        assert!(text.contains("categorical, 2 values"));
        assert!(text.contains("continuous, range"));
        assert!(text.contains("1 missing"));
        assert!(text.contains("(75.00%)"));
    }

    #[test]
    fn empty_dataset_summary() {
        let ds = DatasetBuilder::new()
            .continuous("X")
            .class("C")
            .finish()
            .unwrap();
        let s = summarize(&ds);
        assert_eq!(s.n_rows, 0);
        assert!(s.attributes[0].min.is_none());
        let _ = s.to_string(); // must not panic
    }
}
