//! In-memory spans recorded around calls into each layer, and the
//! self-time arithmetic over them.

use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span in the same
/// [`Tracer`]; spans of one request share `req`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub req: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled tracer runs the wrapped calls and records
/// nothing, so one code path serves the checked and the traced walk.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    req: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            req: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Attribute the following spans to request `req`.
    pub fn request(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `layer`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            req: self.req,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Spans as tab-separated lines: index, request, layer, start, end,
    /// parent (`-` for a root).
    pub fn to_tsv(&self) -> String {
        let mut s = String::from("span\treq\tlayer\tstart_ns\tend_ns\tparent\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("-".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{i}\t{}\t{}\t{}\t{}\t{parent}\n",
                sp.req, sp.layer, sp.start_ns, sp.end_ns
            ));
        }
        s
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and a
/// child sticking out of its parent only counts inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            req: 0,
            layer,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // exec [0,100) with children resolve [0,10), sched [10,60) and
        // sim [70,90); sched has children cyclic [15,25) and static
        // [20,40) (overlapping: union [15,40) = 25).
        let spans = vec![
            span("exec", 0, 100, None),
            span("resolve", 0, 10, Some(0)),
            span("sched", 10, 60, Some(0)),
            span("cyclic", 15, 25, Some(2)),
            span("static", 20, 40, Some(2)),
            span("sim", 70, 90, Some(0)),
            // A child reaching past its parent counts only inside it.
            span("render", 95, 120, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st,
            vec![100 - 10 - 50 - 20 - 5, 10, 50 - 25, 10, 20, 20, 25]
        );
        // Self times of a tree whose children neither overlap nor leave
        // their parents sum to the root's duration.
        let tree = vec![
            span("exec", 0, 100, None),
            span("sched", 10, 60, Some(0)),
            span("cyclic", 15, 25, Some(1)),
            span("sim", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.request(4);
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans.iter().all(|s| s.req == 4 && s.end_ns >= s.start_ns));
        assert!(t.to_tsv().lines().count() == 3);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 1), 1);
        assert!(off.spans.is_empty());
    }
}
