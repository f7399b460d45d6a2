//! The `/metrics` families and the docs agree: every family a body can
//! carry is documented, and every series the docs name is rendered.

use std::collections::BTreeSet;
use std::path::Path;

use om_cluster::ClusterMetrics;
use om_ingest::IngestStats;
use om_server::metrics::{families, write_ingest, Exposition, Metrics};

/// `om_*` series names in markdown: at least two underscores (which
/// leaves out crate names like `om_compare`), not followed by `::`
/// (which leaves out Rust paths).
fn series_names(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .filter(|word| word.starts_with("om_") && !word.contains("::"))
        .map(|word| word.trim_end_matches(':'))
        .filter(|name| name.matches('_').count() >= 2)
}

/// The families any `/metrics` body can carry (a server's, a live
/// ingestor's, a coordinator's) are exactly the series named in
/// `docs/*.md` and `README.md`: none undocumented, none phantom.
#[test]
fn rendered_families_are_the_documented_series() {
    let mut out = Exposition::default();
    Metrics::default().write(&mut out);
    let stats = IngestStats {
        rows_total: 0,
        segments_sealed_total: 0,
        compactions_total: 0,
        merge_failures_total: 0,
        store_generation: 0,
        wal_bytes: 0,
    };
    write_ingest(&mut out, &stats);
    ClusterMetrics::default().write(&mut out);
    let body = out.finish();
    let rendered: BTreeSet<&str> = families(&body).unwrap().into_iter().collect();

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let texts: Vec<String> = std::fs::read_dir(root.join("docs"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|x| x == "md"))
        .chain([root.join("README.md")])
        .map(|path| std::fs::read_to_string(path).unwrap())
        .collect();
    let docs: Vec<&str> = texts.iter().map(String::as_str).collect();

    let (undocumented, phantom) = disagreement(&rendered, &docs);
    assert!(
        undocumented.is_empty() && phantom.is_empty(),
        "rendered but not documented: {undocumented:?}; documented but never rendered: {phantom:?}"
    );
}

/// Rendered families no doc names, and series the docs name that no
/// family renders.
fn disagreement<'a>(
    rendered: &BTreeSet<&'a str>,
    docs: &[&'a str],
) -> (Vec<&'a str>, Vec<&'a str>) {
    let documented: BTreeSet<&str> = docs.iter().flat_map(|t| series_names(t)).collect();
    (
        rendered.difference(&documented).copied().collect(),
        documented.difference(rendered).copied().collect(),
    )
}

#[test]
fn metric_name_extraction() {
    let names: Vec<&str> = series_names(
        "om_requests_total{endpoint=\"x\"} plus om_compare::drill and om_queue_depth, om_ingest",
    )
    .collect();
    assert_eq!(names, vec!["om_requests_total", "om_queue_depth"]);
}

#[test]
fn agreement_is_clean() {
    let body = "# TYPE om_shed_total counter\nom_shed_total 0\n";
    let rendered = families(body).unwrap().into_iter().collect();
    let (undocumented, phantom) = disagreement(&rendered, &["`om_shed_total` counts sheds"]);
    assert!(undocumented.is_empty() && phantom.is_empty());
}

#[test]
fn phantom_reference_is_flagged() {
    let body = "# TYPE om_shed_total counter\nom_shed_total 0\n";
    let rendered = families(body).unwrap().into_iter().collect();
    let (undocumented, phantom) =
        disagreement(&rendered, &["`om_shed_total` and `om_shedd_total`"]);
    assert!(undocumented.is_empty());
    assert_eq!(phantom, vec!["om_shedd_total"]);
}

#[test]
fn undocumented_render_is_flagged() {
    let body = "# TYPE om_secret_total counter\nom_secret_total 0\n";
    let rendered = families(body).unwrap().into_iter().collect();
    let (undocumented, phantom) = disagreement(&rendered, &["nothing here"]);
    assert_eq!(undocumented, vec!["om_secret_total"]);
    assert!(phantom.is_empty());
}
