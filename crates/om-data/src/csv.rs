//! Minimal CSV reading and writing with type inference.
//!
//! The paper's call logs arrive as flat classification tables; this module
//! lets the examples and tools load such files without external crates.
//! The dialect is deliberately simple: configurable delimiter, optional
//! double-quote quoting with `""` escapes, one header row.

use std::io::{BufRead, Write};

use crate::builder::{Cell, DatasetBuilder};
use crate::dataset::Dataset;
use crate::error::{DataError, Result};
use crate::schema::AttrKind;

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Name of the class column (must exist in the header).
    pub class_column: String,
    /// Columns forced to be categorical even if they parse as numbers.
    pub force_categorical: Vec<String>,
}

impl CsvOptions {
    /// Options for a class column named `class_column`.
    pub fn new(class_column: impl Into<String>) -> Self {
        Self {
            delimiter: ',',
            class_column: class_column.into(),
            force_categorical: Vec::new(),
        }
    }
}

/// Split one CSV record honoring double-quote quoting. Public because
/// live ingestion (`om-ingest`) must split uploaded rows with the exact
/// semantics of this reader — bin labels like `"[1.000, 4.000)"` contain
/// the delimiter and arrive quoted.
pub fn split_record(line: &str, delim: char) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else if c == '"' {
            in_quotes = true;
        } else if c == delim {
            fields.push(std::mem::take(&mut field));
        } else {
            field.push(c);
        }
    }
    fields.push(field);
    fields
}

/// Read a CSV file into a [`Dataset`].
///
/// Column types are inferred: a column is continuous when *every* value
/// parses as `f64` (and it is not listed in
/// [`CsvOptions::force_categorical`]); otherwise categorical. The class
/// column is always categorical.
///
/// # Errors
/// Fails on I/O errors, a missing class column, or ragged rows.
pub fn read_csv<R: BufRead>(reader: R, options: &CsvOptions) -> Result<Dataset> {
    let mut lines = reader.lines();
    let header = match lines.next() {
        Some(h) => h?,
        None => {
            return Err(DataError::Csv {
                line: 0,
                message: "empty input: no header row".into(),
            })
        }
    };
    let names = split_record(&header, options.delimiter);
    let class_pos = names
        .iter()
        .position(|n| *n == options.class_column)
        .ok_or_else(|| DataError::UnknownAttribute(options.class_column.clone()))?;

    // First pass: buffer rows and decide column kinds.
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let fields = split_record(&line, options.delimiter);
        if fields.len() != names.len() {
            return Err(DataError::Csv {
                line: i + 2,
                message: format!("expected {} fields, found {}", names.len(), fields.len()),
            });
        }
        rows.push(fields);
    }

    let kinds: Vec<AttrKind> = names
        .iter()
        .enumerate()
        .map(|(j, name)| {
            if j == class_pos
                || options.force_categorical.iter().any(|f| f == name)
                || rows.is_empty()
            {
                return AttrKind::Categorical;
            }
            let all_numeric = rows.iter().all(|r| r[j].parse::<f64>().is_ok());
            if all_numeric {
                AttrKind::Continuous
            } else {
                AttrKind::Categorical
            }
        })
        .collect();

    let mut builder = DatasetBuilder::new();
    for (j, name) in names.iter().enumerate() {
        builder = if j == class_pos {
            builder.class(name)
        } else if kinds[j] == AttrKind::Continuous {
            builder.continuous(name)
        } else {
            builder.categorical(name)
        };
    }
    for (i, row) in rows.iter().enumerate() {
        let cells: Vec<Cell<'_>> = row
            .iter()
            .enumerate()
            .map(|(j, v)| match kinds[j] {
                AttrKind::Continuous => Cell::Num(v.parse::<f64>().unwrap_or(f64::NAN)),
                AttrKind::Categorical => Cell::Str(v),
            })
            .collect();
        builder.push_row(&cells).map_err(|e| DataError::Csv {
            line: i + 2,
            message: e.to_string(),
        })?;
    }
    builder.finish()
}

/// Quote a field if it contains the delimiter, quotes, or newlines.
fn quote(field: &str, delim: char) -> String {
    if field.contains(delim) || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Write a dataset as CSV (header + one row per record).
///
/// Continuous values are written with full precision; categorical values by
/// label.
///
/// # Errors
/// Fails on I/O errors.
pub fn write_csv<W: Write>(ds: &Dataset, writer: &mut W, delimiter: char) -> Result<()> {
    let names: Vec<String> = ds
        .schema()
        .attributes()
        .iter()
        .map(|a| quote(a.name(), delimiter))
        .collect();
    writeln!(writer, "{}", names.join(&delimiter.to_string()))?;
    for r in 0..ds.n_rows() {
        let mut fields = Vec::with_capacity(names.len());
        for (j, col) in ds.columns().enumerate() {
            match col {
                crate::column::Column::Categorical(ids) => {
                    let label = ds
                        .schema()
                        .attribute(j)
                        .domain()
                        .label(ids[r])
                        .unwrap_or("");
                    fields.push(quote(label, delimiter));
                }
                crate::column::Column::Continuous(vals) => {
                    fields.push(format!("{}", vals[r]));
                }
            }
        }
        writeln!(writer, "{}", fields.join(&delimiter.to_string()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    const SAMPLE: &str = "\
Phone,Signal,Time,Outcome
ph1,-70,morning,ok
ph2,-85.5,evening,drop
ph1,-60,morning,ok
";

    #[test]
    fn reads_with_inference() {
        let ds = read_csv(
            BufReader::new(SAMPLE.as_bytes()),
            &CsvOptions::new("Outcome"),
        )
        .unwrap();
        assert_eq!(ds.n_rows(), 3);
        let s = ds.schema();
        assert_eq!(s.class().name(), "Outcome");
        assert!(s.attribute(0).is_categorical());
        assert!(!s.attribute(1).is_categorical()); // Signal inferred continuous
        assert!(s.attribute(2).is_categorical());
        assert_eq!(ds.class_counts(), vec![2, 1]);
    }

    #[test]
    fn force_categorical_overrides_inference() {
        let mut opts = CsvOptions::new("Outcome");
        opts.force_categorical.push("Signal".into());
        let ds = read_csv(BufReader::new(SAMPLE.as_bytes()), &opts).unwrap();
        assert!(ds.schema().attribute(1).is_categorical());
        assert_eq!(ds.schema().attribute(1).cardinality(), 3);
    }

    #[test]
    fn quoted_fields_round_trip() {
        let src = "A,C\n\"hello, world\",\"say \"\"hi\"\"\"\nplain,x\n";
        let ds = read_csv(BufReader::new(src.as_bytes()), &CsvOptions::new("C")).unwrap();
        assert_eq!(
            ds.schema().attribute(0).domain().label(0),
            Some("hello, world")
        );
        assert_eq!(ds.schema().class().domain().label(0), Some("say \"hi\""));

        let mut out = Vec::new();
        write_csv(&ds, &mut out, ',').unwrap();
        let ds2 = read_csv(BufReader::new(out.as_slice()), &CsvOptions::new("C")).unwrap();
        assert_eq!(ds2.n_rows(), ds.n_rows());
        assert_eq!(
            ds2.schema().attribute(0).domain().label(0),
            Some("hello, world")
        );
    }

    #[test]
    fn full_round_trip_preserves_counts() {
        let ds = read_csv(
            BufReader::new(SAMPLE.as_bytes()),
            &CsvOptions::new("Outcome"),
        )
        .unwrap();
        let mut out = Vec::new();
        write_csv(&ds, &mut out, ',').unwrap();
        let ds2 = read_csv(BufReader::new(out.as_slice()), &CsvOptions::new("Outcome")).unwrap();
        assert_eq!(ds2.n_rows(), 3);
        assert_eq!(ds2.class_counts(), ds.class_counts());
        assert_eq!(
            ds2.column(1).as_continuous().unwrap(),
            ds.column(1).as_continuous().unwrap()
        );
    }

    #[test]
    fn missing_class_column_fails() {
        let r = read_csv(BufReader::new(SAMPLE.as_bytes()), &CsvOptions::new("Nope"));
        assert!(r.is_err());
    }

    #[test]
    fn ragged_row_fails_with_line_number() {
        let src = "A,C\nx,y\nonly-one\n";
        let err = read_csv(BufReader::new(src.as_bytes()), &CsvOptions::new("C")).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn empty_input_fails() {
        let r = read_csv(BufReader::new("".as_bytes()), &CsvOptions::new("C"));
        assert!(r.is_err());
    }

    #[test]
    fn blank_lines_skipped() {
        let src = "A,C\nx,y\n\nz,w\n";
        let ds = read_csv(BufReader::new(src.as_bytes()), &CsvOptions::new("C")).unwrap();
        assert_eq!(ds.n_rows(), 2);
    }
}
