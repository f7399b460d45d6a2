//! In-memory spans, written out as JSONL when the run ends.
//!
//! Spans are recorded from perfbench's own files, around the calls into
//! each crate's public functions; nothing inside the crates is
//! instrumented. A span is (name, start, end, parent, request id); a
//! layer's self time is its span minus the part its children cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// All spans of one request share this id.
    pub req: usize,
    /// Static, so that recording a span allocates nothing: a span of a
    /// few microseconds must not be dwarfed by its own bookkeeping.
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: usize,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_us,
            end_us,
        });
        id
    }

    /// Open a span that starts now; [`Tracer::close`] ends it. Children
    /// recorded in between lie inside it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: usize) -> usize {
        let now = self.now_us();
        self.record(name, parent, req, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Record the step that just finished inside the open span `parent`:
    /// from the end of the parent's previous step (its own start, for
    /// the first) to now. Steps leave no gap between them.
    pub fn step(&mut self, name: &'static str, parent: usize) -> usize {
        let now = self.now_us();
        let p = &self.spans[parent];
        let (req, start) = (p.req, self.last_child_end(parent));
        self.record(name, Some(parent), req, start, now)
    }

    /// Where the latest direct child of `parent` ends; `parent`'s start
    /// when it has none.
    fn last_child_end(&self, parent: usize) -> f64 {
        self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_us)
            .fold(self.spans[parent].start_us, f64::max)
    }

    /// Record a call that was *replayed* after its parent finished: the
    /// parent's interval is already closed, so the child is laid inside
    /// it, after the parent's earlier children, clipped to what is left
    /// (two timings of the same work never agree to the microsecond).
    pub fn nest_replayed(&mut self, name: &'static str, parent: usize, dur_us: f64) -> usize {
        let p = &self.spans[parent];
        let (req, p_end) = (p.req, p.end_us);
        let cursor = self.last_child_end(parent);
        let end = (cursor + dur_us).min(p_end);
        self.record(name, Some(parent), req, cursor.min(p_end), end)
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.req, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `[start, end)` intervals, clipped to `within`.
fn covered(mut intervals: Vec<(f64, f64)>, within: (f64, f64)) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = within.0;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(within.1);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// The part of span `id`'s interval its direct children cover.
pub fn child_cover_us(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let kids = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us, s.end_us))
        .collect();
    covered(kids, (me.start_us, me.end_us))
}

/// Self time: the span's duration minus what its children cover.
pub fn self_time_us(spans: &[Span], id: usize) -> f64 {
    spans[id].dur_us() - child_cover_us(spans, id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: "s",
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 40.0),
            // Overlaps span 1 by 10us: the union covers 10..60.
            span(2, Some(0), 30.0, 60.0),
            // A grandchild never counts against the root.
            span(3, Some(1), 12.0, 20.0),
            // A child leaking past the parent's end is clipped.
            span(4, Some(0), 90.0, 130.0),
        ];
        assert_eq!(child_cover_us(&spans, 0), 60.0);
        assert_eq!(self_time_us(&spans, 0), 40.0);
        assert_eq!(self_time_us(&spans, 1), 22.0);
        assert_eq!(self_time_us(&spans, 3), 8.0);
    }

    #[test]
    fn steps_tile_their_open_parent() {
        let mut t = Tracer::default();
        let root = t.open("root", None, 3);
        let a = t.step("a", root);
        let b = t.step("b", root);
        t.close(root);
        assert_eq!(t.spans[a].start_us, t.spans[root].start_us);
        assert_eq!(t.spans[b].start_us, t.spans[a].end_us);
        assert!(t.spans[b].end_us <= t.spans[root].end_us);
        assert_eq!((t.spans[a].req, t.spans[b].parent), (3, Some(root)));
        let gap = t.spans[root].end_us - t.spans[b].end_us;
        assert_eq!(self_time_us(&t.spans, root), gap);
    }

    #[test]
    fn replayed_children_are_laid_end_to_end_and_clipped() {
        let mut t = Tracer::default();
        let root = t.record("root", None, 7, 100.0, 200.0);
        let a = t.nest_replayed("a", root, 30.0);
        let b = t.nest_replayed("b", root, 90.0);
        assert_eq!((t.spans[a].start_us, t.spans[a].end_us), (100.0, 130.0));
        assert_eq!((t.spans[b].start_us, t.spans[b].end_us), (130.0, 200.0));
        assert_eq!(t.spans[b].req, 7);
        assert_eq!(self_time_us(&t.spans, root), 0.0);
        assert_eq!(t.durations("a"), vec![30.0]);
    }
}
