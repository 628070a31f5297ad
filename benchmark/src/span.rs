//! Spans recorded by the harness around calls into each layer.
//!
//! Spans stay in memory and are written out when the replay ends. A span's
//! self time is its duration minus the part its children cover.

use safetx_metrics::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `parent` is the index of the enclosing span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub txn: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans against one clock origin. Disabled recorders time
/// nothing, so the same replay code runs with spans off and on.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Currently open spans, innermost last.
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<R>(&mut self, name: &'static str, txn: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            txn,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in nanoseconds, index-aligned with `spans`:
/// duration minus the union of its direct children's intervals, clipped to
/// the span (children may touch or, defensively, overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.clamp(cursor, span.end_ns);
                let end = end.clamp(cursor, span.end_ns);
                covered += end - start;
                cursor = end;
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *totals.entry(span.name).or_insert(0) += own;
    }
    totals
}

/// The trace file: one object per span.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::object()
                    .with("name", s.name)
                    .with("txn", s.txn)
                    .with(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    )
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            txn: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30: the grandchild is charged to
        // `a`, not to the root a second time.
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_with_adjacent_children() {
        // Children that touch end-to-start leave only the gaps around them.
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 40, 70),
            span("c", Some(0), 90, 100),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 30);
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| ());
            rec.span("inner", 7, |_| ());
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", 1, |_| 5), 5);
        assert!(off.into_spans().is_empty());
    }
}
