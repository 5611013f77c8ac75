//! In-memory spans recorded around calls into the library's public
//! functions. A disabled tracer records nothing and only runs the closure,
//! so the untraced runs measure the program without tracing cost.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start and end (ns since the tracer's epoch), the
/// enclosing span, and the operation (request) it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the request id stamped on the spans that follow.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    pub fn request(&self) -> u64 {
        self.request
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Records an already measured interval as a root span (for work timed
    /// on the caller's side of a queue).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at(start),
                end_ns: at(end),
                parent: None,
                request: self.request,
            });
        }
    }

    /// Per span name: call count, total self time and every duration (ns).
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            let entry = out.entry(s.name).or_default();
            entry.calls += 1;
            entry.self_ns += self_time_ns((s.start_ns, s.end_ns), kids);
            entry.durations_ns.push(s.end_ns - s.start_ns);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `index name start_ns end_ns parent request`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    pub calls: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl SpanStats {
    /// Mean self time per call in µs (0 when the layer was never called).
    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// A span's self time: its duration minus the part of it covered by the
/// union of its children, each child clipped to the parent's interval
/// (children may overlap one another or run past the parent's ends).
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time_ns((10, 50), &[]), 40);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time_ns((0, 100), &[(10, 20), (30, 50)]), 70);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // [10, 40) ∪ [30, 60) ∪ [35, 45) = [10, 60): 50 ns covered.
        assert_eq!(self_time_ns((0, 100), &[(30, 60), (10, 40), (35, 45)]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // Starts before and ends after the parent: covers [0, 20) and
        // [90, 100) only.
        assert_eq!(self_time_ns((0, 100), &[(0, 20), (90, 130)]), 70);
        assert_eq!(self_time_ns((50, 60), &[(0, 100)]), 0);
        // Entirely outside: no effect.
        assert_eq!(self_time_ns((50, 60), &[(0, 10), (70, 80)]), 10);
    }

    #[test]
    fn nested_spans_report_parent_self_time() {
        let mut tr = Tracer::new(true);
        tr.set_request(7);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let s = tr.summary();
        assert_eq!(s["outer"].calls, 1);
        assert_eq!(s["inner"].calls, 1);
        let inner = s["inner"].durations_ns[0];
        let outer = s["outer"].durations_ns[0];
        assert_eq!(s["outer"].self_ns, outer - inner);
        assert!(tr.spans.iter().all(|sp| sp.request == 7));
        assert_eq!(tr.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 3), 3);
        tr.record("y", Instant::now(), Instant::now());
        assert!(tr.summary().is_empty());
    }
}
