//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (nothing inside the program is instrumented). Each span
//! keeps its name, start, end, parent, and the job id for server jobs; the
//! workload and run id are stamped once per file. Spans are written out
//! when the run ends, together with each name's summed self time (duration
//! minus the part covered by child spans).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub job: Option<u64>,
}

/// Records spans when enabled; when disabled, [`Recorder::span`] only runs
/// its closure, so the untraced run executes the same code.
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Runs `f` inside a span named `name` (child of the innermost open
    /// span).
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start = Instant::now();
        let idx = self.push(name, start, start, None);
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.secs(Instant::now());
        self.spans[idx].end = end;
        out
    }

    /// Records an externally timed span under the innermost open span (or
    /// under `parent` when given) and returns its index.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.push(name, start, end, parent);
        self.spans[idx].job = job;
        Some(idx)
    }

    fn push(&mut self, name: &str, start: Instant, end: Instant, parent: Option<usize>) -> usize {
        let parent = parent.or_else(|| self.stack.last().copied());
        let span = Span {
            name: name.to_string(),
            start: self.secs(start),
            end: self.secs(end),
            parent,
            job: None,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, summed: each span's duration minus the
    /// union of its children's intervals (clipped to the span).
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            *out.entry(s.name.clone()).or_insert(0.0) += (s.end - s.start - covered).max(0.0);
        }
        out
    }

    /// Tab-separated dump: a `#` header with the run stamp, then one line
    /// per span (`id parent name start end job`), then the self times.
    pub fn to_tsv(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {header}");
        let _ = writeln!(out, "id\tparent\tname\tstart_s\tend_s\tjob");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let job = s.job.map_or("-".to_string(), |j| j.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{:.6}\t{:.6}\t{job}",
                s.name, s.start, s.end
            );
        }
        let _ = writeln!(out, "# self time per span name (s)");
        for (name, t) in self.self_times() {
            let _ = writeln!(out, "# self\t{name}\t{t:.6}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        r.span("outer", |r| {
            std::thread::sleep(Duration::from_millis(5));
            r.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let st = r.self_times();
        assert!(st["inner"] >= 0.019);
        assert!(st["outer"] < st["inner"]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let v = r.span("x", |_| 7);
        assert_eq!(v, 7);
        assert_eq!(r.len(), 0);
    }
}
