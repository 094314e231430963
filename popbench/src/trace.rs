//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was made), the span open around it when it began, and the request it
//! belongs to. Spans stay in memory until the run ends and are then
//! written out as JSON lines. A span's *self time* is its duration minus
//! the part of that interval its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `placement.delta.solve`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch (`u64::MAX` while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Records nested spans; `begin` opens a child of the innermost open span.
/// A disabled tracer records nothing and only runs the wrapped calls.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing (the untraced runs).
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span for request `req` inside the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: u64::MAX,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans, all closed.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "a span is still open");
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Sum of durations (ns) of the spans called `name`, per request.
    pub fn per_request(&self, name: &str) -> std::collections::BTreeMap<u64, u64> {
        let mut out = std::collections::BTreeMap::new();
        for s in self.spans().iter().filter(|s| s.name == name) {
            *out.entry(s.req).or_insert(0) += s.dur();
        }
        out
    }

    /// The spans as JSON lines, each with its self time.
    pub fn to_jsonl(&self) -> Result<String, TraceError> {
        let selfs = self_times(self.spans())?;
        let mut out = String::new();
        for (s, own) in self.spans().iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"self_ns":{own},"parent":{parent},"req":{}}}"#,
                s.name, s.start, s.end, s.req
            );
        }
        Ok(out)
    }
}

/// A span tree that cannot be right.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Span `child` starts before or ends after its parent.
    ChildOutlivesParent {
        /// The child's index.
        child: usize,
        /// The parent's index.
        parent: usize,
    },
    /// A span ends before it starts, or names a parent that does not
    /// precede it.
    Malformed(usize),
}

/// Self time of every span (ns): its duration minus the union of its
/// children's intervals. Siblings may overlap (their union is counted
/// once); a child reaching outside its parent is an error.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, TraceError> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(TraceError::Malformed(i));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or(TraceError::Malformed(i))?;
            if s.start < parent.start || s.end > parent.end {
                return Err(TraceError::ChildOutlivesParent {
                    child: i,
                    parent: p,
                });
            }
            children[p].push((s.start, s.end));
        }
    }
    Ok(spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root [0,100) > a [10,50) > b [20,30); root > c [60,70).
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(20, 30, Some(1)),
            span(60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), Ok(vec![50, 30, 10, 10]));
    }

    #[test]
    fn overlapping_siblings_are_counted_once() {
        // Children [10,40) and [30,60) cover [10,60); [55,58) adds nothing.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(55, 58, Some(0)),
        ];
        assert_eq!(self_times(&spans).unwrap()[0], 50);
    }

    #[test]
    fn a_child_outliving_its_parent_is_rejected() {
        let spans = [span(0, 100, None), span(90, 110, Some(0))];
        assert_eq!(
            self_times(&spans),
            Err(TraceError::ChildOutlivesParent {
                child: 1,
                parent: 0
            })
        );
        let early = [span(10, 100, None), span(5, 20, Some(0))];
        assert!(self_times(&early).is_err());
    }

    #[test]
    fn malformed_spans_are_rejected() {
        assert_eq!(
            self_times(&[span(5, 4, None)]),
            Err(TraceError::Malformed(0))
        );
        assert_eq!(
            self_times(&[span(0, 1, Some(0))]),
            Err(TraceError::Malformed(0))
        );
    }

    #[test]
    fn the_tracer_records_a_well_formed_tree() {
        let mut t = Tracer::default();
        let root = t.begin("root", 1);
        let x = t.span("child", 1, || 7);
        t.end(root);
        assert_eq!(x, 7);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let selfs = self_times(spans).unwrap();
        assert_eq!(selfs[0] + spans[1].dur(), spans[0].dur());
        assert!(t.to_jsonl().unwrap().lines().count() == 2);
    }
}
