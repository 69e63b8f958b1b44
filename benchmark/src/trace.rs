//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start and an end in nanoseconds since the tracer
//! was made, the span that caused it, and the workload it belongs to.
//! Spans stay in memory until the process writes `out/trace.json`. A
//! layer's self time is its span minus the part of it its children
//! cover; children may overlap each other (two client threads under one
//! window), so the covered part is the union of their intervals.

use crate::stats::now;
use speakup_exp::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same tracer.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    pub workload: &'static str,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            t0: now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was made.
    pub fn clock(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let at = self.clock();
        self.spans.push(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.clock();
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// The span called `name` directly under `parent`.
    pub fn find_under(&self, name: &str, parent: usize) -> &Span {
        let found = self
            .spans
            .iter()
            .find(|s| s.name == name && s.parent == Some(parent));
        found.unwrap_or_else(|| panic!("no span {name} under {}", self.spans[parent].name))
    }

    /// Share of span `of` that its child spans account for: 1 minus its
    /// self time over its duration. `of` is the benchmark's own glue
    /// around the layer calls, so this is how much of the traced wall
    /// the trace can attribute to a layer.
    pub fn coverage(&self, of: usize) -> f64 {
        let s = &self.spans[of];
        1.0 - self_times(&self.spans)[of] as f64 / (s.end_ns - s.start_ns) as f64
    }

    /// One object per span, self time included.
    pub fn to_json(&self) -> Vec<Json> {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                Json::obj()
                    .field("name", s.name)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
                    .field("self_ns", self_ns)
                    .field(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    )
                    .field("workload", self.workload)
            })
            .collect()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two client threads 10..50 and 30..80 under one window, plus a
        // child contained in another (40..45) and a disjoint one.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 80, Some(0)),
            span(40, 45, Some(0)),
            span(90, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 5);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that outlives its parent only covers the shared part.
        let spans = [
            span(10, 20, None),
            span(15, 40, Some(0)),
            span(0, 5, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![5, 25, 5]);
    }

    #[test]
    fn coverage_is_the_share_of_the_root_under_layer_spans() {
        let mut t = Tracer::new("w");
        t.spans = vec![
            span(0, 100, None),
            span(0, 40, Some(0)),
            span(40, 95, Some(0)),
        ];
        assert!((t.coverage(0) - 0.95).abs() < 1e-12);
        assert_eq!(t.find_under("s", 0), &t.spans[1]);
        let doc = Json::Arr(t.to_json()).pretty();
        assert!(doc.contains("\"self_ns\": 5") && doc.contains("\"workload\": \"w\""));
    }
}
