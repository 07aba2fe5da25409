//! Spans recorded from the benchmark's own files around calls into each
//! layer: name, start, end, the span that caused it, and the request the
//! work belongs to.  Kept in memory; written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation index the span belongs to; probes run after a request
    /// carry that request's id.
    pub request: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id given to spans opened from now on.
    pub fn set_request(&mut self, request: usize) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = work(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Durations in ms of every span with this name, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Self time in ms of every span with this name: its duration minus the
    /// part its direct children cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.ms();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .filter(|(span, _)| span.name == name)
            .map(|(span, covered)| span.ms() - covered)
            .collect()
    }

    /// Writes the spans as tab-separated lines
    /// (`index parent request name start_ns end_ns`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{index}\t{parent}\t{}\t{}\t{}\t{}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_spans_name_their_parent_and_reduce_self_time() {
        let mut tracer = Tracer::new();
        tracer.set_request(7);
        tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(tracer.spans.len(), 2);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[0].parent, None);
        assert_eq!(tracer.spans[1].request, 7);
        assert!(tracer.total_ms("inner") >= 2.0);
        assert!(tracer.self_ms("outer")[0] <= tracer.total_ms("outer") - 2.0);
    }
}
