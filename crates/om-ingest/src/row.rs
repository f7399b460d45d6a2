//! Validating live rows against the serving schema.
//!
//! The cube store is built over the *discretized* dataset, so a live row
//! must arrive in (or be converted to) that categorical encoding. Each
//! CSV field is matched against its attribute's domain first — which
//! accepts categorical labels and pre-binned interval labels alike — and,
//! for attributes that were discretized at build time, a numeric field is
//! binned through the same cut points the offline build used, so a live
//! `duration=3.7` lands in exactly the bin a batch rebuild would put it
//! in. Unknown labels are typed errors, never new domain values: growing
//! a domain would change cube dimensions and break merge algebra.

use std::collections::HashMap;

use om_data::{Schema, ValueId};
use om_discretize::apply::MISSING_LABEL;
use om_discretize::CutPoints;

use crate::error::IngestError;

struct NumericBinning {
    cuts: CutPoints,
    /// Domain id of each bin label, in bin order; `None` if the offline
    /// build collapsed that bin out of the domain.
    bin_ids: Vec<Option<ValueId>>,
    missing: Option<ValueId>,
}

/// Parses delimited text rows into schema-ordered `ValueId` vectors.
pub struct RowParser {
    schema: Schema,
    numeric: HashMap<usize, NumericBinning>,
}

impl RowParser {
    /// Build a parser for `schema`, with `cuts` mapping the schema index
    /// of each originally-continuous attribute to its cut points.
    ///
    /// # Errors
    /// [`IngestError::Schema`] if any schema attribute is still
    /// continuous — live rows can only extend categorical cubes.
    pub fn new(schema: Schema, cuts: &[(usize, CutPoints)]) -> Result<Self, IngestError> {
        for i in 0..schema.n_attributes() {
            if !schema.attribute(i).is_categorical() {
                return Err(IngestError::Schema(format!(
                    "attribute {:?} is continuous; build the engine with discretization \
                     before ingesting",
                    schema.attribute(i).name()
                )));
            }
        }
        let mut numeric = HashMap::new();
        for (attr, cut_points) in cuts {
            let domain = schema.attribute(*attr).domain();
            let bin_ids = cut_points.labels(3).iter().map(|l| domain.get(l)).collect();
            numeric.insert(
                *attr,
                NumericBinning {
                    cuts: cut_points.clone(),
                    bin_ids,
                    missing: domain.get(MISSING_LABEL),
                },
            );
        }
        Ok(Self { schema, numeric })
    }

    /// The schema rows are validated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Validate one already-split row: every schema attribute's value
    /// (class included) in schema order, as the JSON ingest path sends
    /// it. Fields are taken verbatim — no trimming or quote handling.
    /// `row` is the 1-based position used in error messages. A field is
    /// any string form (`String`, `&str`, a label borrowed from a
    /// request body).
    ///
    /// # Errors
    /// [`IngestError::BadRow`] on wrong arity, unknown labels, or
    /// unbinnable numerics.
    pub fn parse_fields<S: AsRef<str>>(
        &self,
        fields: &[S],
        row: usize,
    ) -> Result<Vec<ValueId>, IngestError> {
        let mut ids = Vec::with_capacity(fields.len());
        self.resolve_fields(fields, row, |id| ids.push(id))?;
        Ok(ids)
    }

    /// Check one already-split row exactly as
    /// [`parse_fields`](Self::parse_fields) does — the same verdict and,
    /// on a bad row, the same error — but keep no ids, so a good row
    /// costs no allocation. For a caller that only vets rows another
    /// process will parse.
    ///
    /// # Errors
    /// [`IngestError::BadRow`] on wrong arity, unknown labels, or
    /// unbinnable numerics.
    pub fn validate_fields<S: AsRef<str>>(
        &self,
        fields: &[S],
        row: usize,
    ) -> Result<(), IngestError> {
        self.resolve_fields(fields, row, |_| {})
    }

    /// Resolve a row's fields in schema order, handing each id to `each`.
    fn resolve_fields<S: AsRef<str>>(
        &self,
        fields: &[S],
        row: usize,
        mut each: impl FnMut(ValueId),
    ) -> Result<(), IngestError> {
        if fields.len() != self.schema.n_attributes() {
            return Err(IngestError::BadRow {
                row,
                reason: format!(
                    "expected {} fields, got {}",
                    self.schema.n_attributes(),
                    fields.len()
                ),
            });
        }
        for (attr, field) in fields.iter().enumerate() {
            each(self.resolve(attr, field.as_ref(), row)?);
        }
        Ok(())
    }

    fn resolve(&self, attr: usize, field: &str, row: usize) -> Result<ValueId, IngestError> {
        let attribute = self.schema.attribute(attr);
        // Exact domain labels win — covers categorical values and rows
        // replayed in already-binned interval form.
        if let Some(id) = attribute.domain().get(field) {
            return Ok(id);
        }
        if let Some(binning) = self.numeric.get(&attr) {
            let missing = field.is_empty() || field.eq_ignore_ascii_case("nan");
            let parsed = if missing {
                f64::NAN
            } else {
                field.parse::<f64>().map_err(|_| IngestError::BadRow {
                    row,
                    reason: format!(
                        "attribute {:?}: {field:?} is neither a known label nor a number",
                        attribute.name()
                    ),
                })?
            };
            if parsed.is_nan() {
                return binning.missing.ok_or_else(|| IngestError::BadRow {
                    row,
                    reason: format!(
                        "attribute {:?}: missing value but the build saw none",
                        attribute.name()
                    ),
                });
            }
            return binning
                .bin_ids
                .get(binning.cuts.bin_of(parsed))
                .copied()
                .flatten()
                .ok_or_else(|| IngestError::BadRow {
                    row,
                    reason: format!(
                        "attribute {:?}: value {parsed} falls in a bin absent from the \
                         serving domain",
                        attribute.name()
                    ),
                });
        }
        Err(IngestError::BadRow {
            row,
            reason: format!("attribute {:?}: unknown label {field:?}", attribute.name()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_data::{Attribute, Column, Dataset, Domain};
    use om_discretize::{discretize_all, Method};

    /// Tiny mixed schema: one categorical, one continuous, class.
    fn live_schema() -> (Schema, Vec<(usize, CutPoints)>) {
        let schema = Schema::new(
            vec![
                Attribute::categorical("color", Domain::from_labels(["red", "blue"])),
                Attribute::continuous("size"),
                Attribute::categorical("ok", Domain::from_labels(["yes", "no"])),
            ],
            2,
        )
        .unwrap();
        let columns = vec![
            Column::Categorical(vec![0, 1, 0, 1, 0, 1, 0, 1]),
            Column::Continuous(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, f64::NAN]),
            Column::Categorical(vec![0, 0, 0, 0, 1, 1, 1, 1]),
        ];
        let mut ds = Dataset::from_columns(schema, columns).unwrap();
        let cuts = discretize_all(&mut ds, &Method::EqualFrequency(2)).unwrap();
        (ds.schema().clone(), cuts)
    }

    fn fields<const N: usize>(row: [&str; N]) -> Vec<String> {
        row.map(str::to_owned).into()
    }

    #[test]
    fn parses_labels_and_numbers_identically() {
        let (schema, cuts) = live_schema();
        let parser = RowParser::new(schema.clone(), &cuts).unwrap();
        let by_number = parser
            .parse_fields(&fields(["red", "1.5", "yes"]), 1)
            .unwrap();
        let bin_label = schema.attribute(1).domain().label(by_number[1]).unwrap();
        let by_label = parser
            .parse_fields(&fields(["red", bin_label, "yes"]), 2)
            .unwrap();
        assert_eq!(by_number, by_label);
    }

    #[test]
    fn missing_numeric_maps_to_missing_bin() {
        let (schema, cuts) = live_schema();
        let parser = RowParser::new(schema.clone(), &cuts).unwrap();
        let row = parser.parse_fields(&fields(["blue", "", "no"]), 1).unwrap();
        let label = schema.attribute(1).domain().label(row[1]).unwrap();
        assert_eq!(label, MISSING_LABEL);
        assert_eq!(
            row,
            parser
                .parse_fields(&fields(["blue", "NaN", "no"]), 1)
                .unwrap()
        );
    }

    #[test]
    fn bad_rows_are_typed_errors() {
        let (schema, cuts) = live_schema();
        let parser = RowParser::new(schema, &cuts).unwrap();
        assert!(matches!(
            parser.parse_fields(&fields(["red", "1.5"]), 3),
            Err(IngestError::BadRow { row: 3, .. })
        ));
        assert!(parser
            .parse_fields(&fields(["chartreuse", "1.5", "yes"]), 1)
            .is_err());
        assert!(parser
            .parse_fields(&fields(["red", "uphill", "yes"]), 1)
            .is_err());
    }

    #[test]
    fn validating_gives_the_verdict_and_message_of_parsing() {
        let (schema, cuts) = live_schema();
        let parser = RowParser::new(schema, &cuts).unwrap();
        let rows = [
            // Good: labels, a number to bin, a missing number.
            fields(["red", "1.5", "yes"]),
            fields(["blue", "", "no"]),
            fields(["blue", "NaN", "yes"]),
            // Bad: arity, an unknown label, a non-numeric field.
            fields(["red", "1.5"]),
            fields(["red", "1.5", "yes", "extra"]),
            fields(["chartreuse", "1.5", "yes"]),
            fields(["red", "1.5", "maybe"]),
            fields(["red", "uphill", "yes"]),
        ];
        for (i, row) in rows.iter().enumerate() {
            let parsed = parser.parse_fields(row, i + 1).map(|_| ());
            let validated = parser.validate_fields(row, i + 1);
            assert_eq!(validated.is_ok(), i < 3, "row {row:?}");
            assert_eq!(
                validated.map_err(|e| e.to_string()),
                parsed.map_err(|e| e.to_string()),
            );
        }
    }

    #[test]
    fn rejects_continuous_schema() {
        let schema = Schema::new(
            vec![
                Attribute::continuous("raw"),
                Attribute::categorical("ok", Domain::from_labels(["yes", "no"])),
            ],
            1,
        )
        .unwrap();
        assert!(RowParser::new(schema, &[]).is_err());
    }
}
