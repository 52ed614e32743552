//! In-memory spans around the benchmark's calls into each layer.
//!
//! The traced run (`--trace 1`) records one span per call the benchmark
//! makes into the product — never inside it — and writes them out when
//! the run ends. A span's *self time* is its duration minus the part of
//! that interval its child spans cover, so a parent such as `run` shows
//! only what its cells do not explain.

use std::time::Instant;

/// One recorded span. `parent` indexes into the same span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `live.spawn`.
    pub name: String,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Disabled (the untraced run) it records nothing and
/// costs one branch per scope.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose time origin is `origin` (process start, so spans and
    /// `setup_s` share a clock).
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of whichever span is
    /// open.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span, so an overlapping or
/// overrunning child cannot drive self time negative).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        let spans = [
            span("run", 0, 100, None),
            span("cell", 10, 30, Some(0)),
            span("cell", 40, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn nested_children_count_against_their_own_parent_only() {
        let spans = [
            span("setup", 0, 100, None),
            span("live.spawn", 10, 60, Some(0)),
            span("bind", 20, 50, Some(1)),
        ];
        // setup loses only live.spawn's 50; live.spawn loses bind's 30.
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_and_overrunning_children_are_clipped() {
        let spans = [
            span("p", 10, 50, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 45, 70, Some(0)),
        ];
        // Union of [10,30) ∪ [20,40) ∪ [45,50) = 35 of p's 40.
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn scopes_nest_and_disabled_tracers_record_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let v = t.scope("outer", |t| t.scope("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.scope("x", |t| t.scope("y", |_| 1)), 1);
        assert!(off.spans().is_empty());
    }
}
