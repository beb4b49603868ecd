//! In-memory span recorder for the traced run. Spans are recorded only in
//! the benchmark's own code, around each call into a layer, and written
//! out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// One closed span: `[start_ns, end_ns)` relative to the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation this span belongs to (spans of one operation share it).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans; [`Spans::time`] is the only way to open one.
/// A recorder built with [`Spans::off`] times its closures the same way
/// but keeps nothing, so untraced and traced runs execute the same code.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Spans {
    /// A recorder that keeps no spans.
    pub fn off() -> Spans {
        Spans {
            enabled: false,
            ..Spans::default()
        }
    }

    /// A recorder for a worker thread: same epoch, operation and mode,
    /// no spans yet. Its spans come back through [`Spans::absorb`].
    pub fn fork(&self) -> Spans {
        Spans {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: self.op,
        }
    }

    /// Appends a forked recorder's spans; its top-level spans become
    /// children of the span open here, if any.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Starts a new operation: later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f(self);
            return (out, t0.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        (out, self.spans[idx].secs())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time of span `idx`: its duration minus what its children cover.
    pub fn self_secs(&self, idx: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let s = &self.spans[idx];
        (s.end_ns - s.start_ns).saturating_sub(children) as f64 * 1e-9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                (self.self_secs(i) * 1e9).round() as u64
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::default();
        sp.next_op();
        let (_, outer) = sp.time("outer", |sp| {
            sp.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let inner = sp.spans[1].secs();
        assert_eq!(sp.spans[1].parent, Some(0));
        assert!(outer >= inner);
        assert!((sp.self_secs(0) - (outer - inner)).abs() < 1e-6);
        assert!(inner >= 0.02);
        let mut buf = Vec::new();
        sp.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 2);
        let mut off = Spans::off();
        let (v, dt) = off.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(dt >= 0.0);
        assert!(off.spans.is_empty());
        let mut fork = sp.fork();
        fork.time("forked", |_| ());
        sp.absorb(fork);
        assert_eq!(sp.spans[2].name, "forked");
        assert_eq!(sp.spans[2].parent, None);
    }
}
