//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from outside the program, around the benchmark's
//! own calls into each layer's public functions; they stay in memory and
//! are written to `out/trace-<workload>.json` when the run ends.

use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one op share its number.
    pub op_id: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds of `t` on this recorder's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span whose bounds the caller measured.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    /// Opens a span; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op_id: u32) -> usize {
        let now = self.now_ns();
        self.push(name, parent, op_id, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `f` as a leaf span.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op_id);
        let out = f();
        self.close(id);
        out
    }

    /// Moves another recorder's spans in (one recorder per client
    /// thread), putting both on the earlier of the two clocks and
    /// re-basing the parent indexes.
    pub fn absorb(&mut self, other: Tracer) {
        if other.epoch < self.epoch {
            let shift = (self.epoch - other.epoch).as_nanos() as u64;
            for s in &mut self.spans {
                s.start_ns += shift;
                s.end_ns += shift;
            }
            self.epoch = other.epoch;
        }
        let base = self.spans.len();
        let shift = (other.epoch - self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Total duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Durations of the spans called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self time summed by span name, largest first.
    pub fn self_ns_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut by_name: Vec<(&'static str, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => by_name.push((s.name, own)),
            }
        }
        by_name.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        by_name
    }

    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        let own = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, own[i], s.op_id
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
