//! In-memory span recording for the traced run.
//!
//! The benchmark wraps every call it makes into a layer in a span
//! (name, start, end, parent, op id). Spans stay in memory until the
//! run ends. A layer's busy time is its *self* time: each span's
//! duration minus the part of it that child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`system.run`, `bench.cache.load`, ...).
    pub name: String,
    /// Start, ns.
    pub start: u64,
    /// End, ns (`>= start`).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to (a unique run, a cut, ...).
    pub op: u64,
}

/// Records nested spans on one thread.
///
/// A disabled tracer ([`Tracer::off`]) runs the same code paths and
/// records nothing, so untraced passes share the traced ones' code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::default()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for operation `op`; spans
    /// opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Host cost of recording one span, ns, measured on empty spans.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 10_000;
    let mut t = Tracer::default();
    let start = Instant::now();
    for op in 0..N {
        t.span("calibration", op, |_| ());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// The tracing overhead: the calibrated cost of every recorded span as
/// a share of the time the outermost spans cover; `None` without spans.
pub fn overhead_frac(spans: &[Span]) -> Option<f64> {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum();
    (covered > 0).then(|| spans.len() as f64 * span_cost_ns() / covered as f64)
}

/// Total span time per name, ns.
pub fn total_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_insert(0) += s.end - s.start;
    }
    out
}

/// Self time per name, ns: each span's duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut cursor = s.start;
        for &(start, end) in kids.iter() {
            let (start, end) = (start.clamp(cursor, s.end), end.clamp(cursor, s.end));
            covered += end - start;
            cursor = cursor.max(end);
        }
        *out.entry(s.name.clone()).or_insert(0) += (s.end - s.start) - covered;
    }
    out
}

/// Writes `spans` as tab-separated lines (`name start end parent op`).
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("name\tstart_ns\tend_ns\tparent\top\n");
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            s.name, s.start, s.end, parent, s.op
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // outer [0,100] holds a [10,40] (which holds b [20,30]) and an
        // overlapping c [35,50]; d [60,70] is a grandchild via e.
        let spans = vec![
            span("outer", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 35, 50, Some(0)),
            span("e", 55, 80, Some(0)),
            span("d", 60, 70, Some(4)),
        ];
        let own = self_times(&spans);
        // Children of outer cover [10,50] and [55,80]: 65 ns.
        assert_eq!(own["outer"], 35);
        assert_eq!(own["a"], 20);
        assert_eq!(own["b"], 10);
        assert_eq!(own["c"], 15);
        assert_eq!(own["e"], 15);
        assert_eq!(own["d"], 10);
        assert_eq!(total_times(&spans)["outer"], 100);
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let spans = vec![span("p", 10, 20, None), span("k", 5, 25, Some(0))];
        assert_eq!(self_times(&spans)["p"], 0);
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut t = Tracer::default();
        let v = t.span("outer", 1, |t| {
            t.span("inner", 1, |_| 7) + t.span("inner", 2, |_| 1)
        });
        assert_eq!(v, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].op, 2);
        let own = self_times(spans);
        let total = total_times(spans);
        assert_eq!(own["outer"] + own["inner"], total["outer"]);

        let mut off = Tracer::off();
        assert_eq!(off.span("x", 0, |t| t.span("y", 0, |_| 3)), 3);
        assert!(off.spans().is_empty());
    }
}
