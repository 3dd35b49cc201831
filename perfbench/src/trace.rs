//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer was created), the
//! span that was open when it started, and the iteration it belongs to.
//! Spans stay in memory until [`Tracer::write_json`] writes them out at the
//! end of the run. A disabled tracer records nothing and costs one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: Option<u64>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`. The span belongs to `iteration`,
    /// or to its parent's iteration when `iteration` is `None`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        iteration: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied();
        let iteration = iteration.or_else(|| parent.and_then(|p| self.spans[p].iteration));
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iteration,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every recorded span that `keep` accepts, in seconds,
    /// grouped by span name: the span's duration minus the time its direct
    /// children cover.
    pub fn self_times(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            if !keep(s) {
                continue;
            }
            let own = s.duration_ns().saturating_sub(children);
            out.entry(s.name).or_default().push(own as f64 * 1e-9);
        }
        out
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |x: Option<u64>| x.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                f,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"iteration\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.iteration),
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(f, "]")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_iterations_and_self_times() {
        let mut t = Tracer::new(true);
        t.span("outer", Some(7), |t| {
            t.span("inner", None, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].iteration, Some(7));
        let selfs = t.self_times(|_| true);
        let outer = selfs["outer"][0];
        let inner = selfs["inner"][0];
        assert!(inner >= 0.002);
        assert!(
            outer < inner,
            "the child's time is not the parent's self time"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", Some(1), |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
