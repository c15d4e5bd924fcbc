//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing is written until the run ends; a layer's self time is
//! its span minus the part of it that its child spans cover.

use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call the span wraps (`"loss"`, `"backward"`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Epoch or request the span belongs to.
    pub run: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread of work.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, run: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(run, self time in ms)` of every span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<(u64, f64)> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.run, self_time_ns(&self.spans, i) as f64 / 1e6))
            .collect()
    }
}

/// Self time of span `id` in `spans`: its duration minus the union of its
/// direct children's intervals, clipped to the parent.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let p = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    p.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("loss", 10, 40, Some(0)),
            span("backward", 30, 70, Some(0)), // overlaps loss by 10
            span("inner", 35, 45, Some(2)),    // grandchild: not subtracted from epoch
            span("step", 90, 120, Some(0)),    // clipped to the parent's end
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - (70 - 10) - (100 - 90));
        assert_eq!(self_time_ns(&spans, 2), 40 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::default();
        let v = t.span("epoch", 7, |t| t.span("loss", 7, |_| 42));
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].run, 7);
        assert_eq!(t.self_ms("loss").len(), 1);
        // The epoch's self time excludes the nested loss span.
        let epoch_self = t.self_ms("epoch")[0].1;
        assert!(epoch_self <= (s[0].dur_ns() - s[1].dur_ns()) as f64 / 1e6 + 1e-9);
    }
}
