//! The `/v1/ingest` body as one flat table of labels.
//!
//! [`LabelRows::decode`] reads `{"rows":[[label, ...], ...]}` in one
//! pass with the JSON parser's own string and array grammar, into one
//! `Vec` of fields plus the index where each row ends. A label with no
//! escape is borrowed from the body; only an escaped one is copied. A
//! 2 048-row batch is then a few allocations, not one heap string per
//! field, and every layer after it (validation, routing, re-encoding,
//! value-id parsing) reads the same table.
//!
//! The table accepts exactly the bodies [`IngestRequest`]'s tree decode
//! accepts (`Json::parse` then [`IngestRequest::from_json`]), and the
//! tree decode words every refusal, so a rejected body answers the same
//! 400 either way. [`encode_rows`] is the one writer of an ingest body.

use std::borrow::Cow;

use crate::json::{write_str, JsonError, Parser};
use crate::request::IngestRequest;

/// A decoded ingest batch: rows of labels, each in schema order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LabelRows<'a> {
    /// Every row's fields, row after row.
    fields: Vec<Cow<'a, str>>,
    /// `ends[i]` is one past row `i`'s last field in `fields`.
    ends: Vec<usize>,
}

impl<'a> LabelRows<'a> {
    /// Decode an ingest body, borrowing every label written without an
    /// escape.
    ///
    /// # Errors
    /// The message [`IngestRequest::parse`] has always given for the
    /// body: the JSON parser's, or the shape check's.
    pub fn decode(body: &'a str) -> Result<Self, String> {
        let mut p = Parser::new(body);
        match p.label_table() {
            Ok(rows) => Ok(rows),
            // The tree decode is the grammar's reference: it words the
            // refusal, and it would own the rows of any body it accepts
            // that the table's pass did not.
            Err(_) => crate::wire::parse::<IngestRequest>(body).map(|req| Self::owning(req.rows)),
        }
    }

    /// A table over rows already in memory, borrowing every label.
    #[must_use]
    pub fn borrowing(rows: &'a [Vec<String>]) -> Self {
        let mut table = Self::with_capacity(rows.iter().map(Vec::len).sum(), rows.len());
        for row in rows {
            table
                .fields
                .extend(row.iter().map(|f| Cow::Borrowed(f.as_str())));
            table.ends.push(table.fields.len());
        }
        table
    }

    fn owning(rows: Vec<Vec<String>>) -> Self {
        let mut table = Self::with_capacity(rows.iter().map(Vec::len).sum(), rows.len());
        for row in rows {
            table.fields.extend(row.into_iter().map(Cow::Owned));
            table.ends.push(table.fields.len());
        }
        table
    }

    fn with_capacity(fields: usize, rows: usize) -> Self {
        Self {
            fields: Vec::with_capacity(fields),
            ends: Vec::with_capacity(rows),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the batch has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Row `i`'s fields (0-based), or `None` past the end.
    #[must_use]
    pub fn row(&self, i: usize) -> Option<&[Cow<'a, str>]> {
        let start = match i.checked_sub(1) {
            None => 0,
            Some(prev) => *self.ends.get(prev)?,
        };
        self.fields.get(start..*self.ends.get(i)?)
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &[Cow<'a, str>]> + Clone + '_ {
        (0..self.len()).filter_map(|i| self.row(i))
    }

    /// An owned copy of every row.
    #[must_use]
    pub fn to_rows(&self) -> Vec<Vec<String>> {
        self.iter()
            .map(|row| row.iter().map(|f| f.as_ref().to_owned()).collect())
            .collect()
    }
}

/// Write the ingest body `{"rows":[...]}` for `rows`, each a row of
/// labels: the bytes [`IngestRequest::encode`] writes for the same rows.
pub fn encode_rows<'r, S, I>(rows: I) -> String
where
    S: AsRef<str> + 'r,
    I: IntoIterator<Item = &'r [S]>,
    I::IntoIter: Clone,
{
    let rows = rows.into_iter();
    // Size the body once: a label plus its quotes and comma, a row
    // plus its brackets and comma; escapes may still grow it.
    let size = rows
        .clone()
        .map(|row| 3 + row.iter().map(|f| f.as_ref().len() + 3).sum::<usize>())
        .sum::<usize>();
    let mut out = String::with_capacity(size + 12);
    out.push_str("{\"rows\":[");
    for (i, row) in rows.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, field) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_str(&mut out, field.as_ref());
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

impl<'a> Parser<'a> {
    /// The whole body as a label table: an object whose one key is
    /// `rows`, holding an array of arrays of strings, and nothing after
    /// it but whitespace. Any other body is an error; its wording is
    /// left to the tree decode.
    fn label_table(&mut self) -> Result<LabelRows<'a>, JsonError> {
        self.skip_ws();
        self.expect_byte(b'{')?;
        self.skip_ws();
        // The key may be written with escapes; only its value counts.
        if self.string()? != "rows" {
            return Err(self.err("expected the key \"rows\""));
        }
        self.skip_ws();
        self.expect_byte(b':')?;
        self.skip_ws();
        let mut table = LabelRows::default();
        self.list(|p| {
            p.list(|p| {
                table.fields.push(p.string()?);
                Ok(())
            })?;
            table.ends.push(table.fields.len());
            Ok(())
        })?;
        // A second key is a duplicate `rows` or an unknown one: both
        // refused, so the object must close here.
        self.skip_ws();
        self.expect_byte(b'}')?;
        self.skip_ws();
        if !self.at_end() {
            return Err(self.err("trailing content after the JSON value"));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(rows: &[&[&str]]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|r| r.iter().map(|&f| f.to_owned()).collect())
            .collect()
    }

    #[test]
    fn plain_labels_are_borrowed_and_escaped_ones_owned() {
        let body = "{\"rows\":[[\"a\",\"b\\\"c\"],[],[\"d\"]]}";
        let table = LabelRows::decode(body).unwrap();
        assert_eq!(table.len(), 3);
        assert_eq!(table.to_rows(), rows(&[&["a", "b\"c"], &[], &["d"]]));
        let first = table.row(0).unwrap();
        assert!(matches!(first[0], Cow::Borrowed("a")));
        assert!(matches!(first[1], Cow::Owned(_)));
        assert!(table.row(3).is_none());
    }

    #[test]
    fn refusals_keep_the_tree_decodes_wording() {
        for body in [
            "",
            "{}",
            "[]",
            "{\"rows\":[[1]]}",
            "{\"rows\":[\"flat\"]}",
            "{\"rows\":null}",
            "{\"rows\":[],\"x\":1}",
            "{\"rows\":[],\"rows\":[]}",
            "{\"rows\":[[\"a\",]]}",
            "{\"rows\":[]} x",
        ] {
            let tree = crate::wire::parse::<IngestRequest>(body).unwrap_err();
            assert_eq!(LabelRows::decode(body).unwrap_err(), tree, "{body}");
        }
    }

    #[test]
    fn writer_matches_the_request_encoder() {
        let rows = rows(&[&["x", "tab\there", "é"], &[], &["\"\\"]]);
        let table = LabelRows::borrowing(&rows);
        assert_eq!(
            encode_rows(table.iter()),
            IngestRequest { rows: rows.clone() }.encode()
        );
        assert_eq!(
            encode_rows(std::iter::empty::<&[String]>()),
            "{\"rows\":[]}"
        );
    }
}
