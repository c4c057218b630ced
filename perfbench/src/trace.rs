//! In-memory span recorder for the traced replay.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! id of the request it belongs to. Spans stay in memory until the run
//! ends and are then written out as JSON lines. The recorder is driven
//! from one replay thread: the parent of a span is the innermost span
//! still open when it starts.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records spans when enabled; a disabled tracer only runs the closure.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span recorder lock poisoned by a panicking replay")
    }

    /// Run `f` inside a span named `name` for request `req`.
    pub fn span<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut st = self.lock();
            let parent = st.open.last().copied();
            let idx = st.spans.len();
            let start_ns = self.now_ns();
            st.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
            });
            st.open.push(idx);
            idx
        };
        let out = f();
        let end = self.now_ns();
        let mut st = self.lock();
        st.spans[idx].end_ns = end;
        st.open.pop();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let st = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in st.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` after clipping each to `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it covered
/// by its direct children, with children clipped to the parent's
/// interval and overlaps between children counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Per-name totals of a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStats {
    /// Mean duration per span in microseconds (0 when none ran).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
}

/// Share of the named parents' time that their children account for:
/// `1 - self / duration`, summed over every span with that name.
pub fn coverage(spans: &[Span], parents: &[&str]) -> Option<f64> {
    let selfs = self_times(spans);
    let (mut dur, mut own) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if parents.contains(&s.name) {
            dur += s.dur_ns();
            own += self_ns;
        }
    }
    (dur > 0).then(|| 1.0 - own as f64 / dur as f64)
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
            req: 0,
        }
    }

    #[test]
    fn self_time_clips_overlapping_children() {
        let spans = vec![
            span("parent", 100, 200, None),
            // Overlapping children: [90, 130) clipped to [100, 130) and
            // [120, 150) overlapping it: union 100..150 = 50 ns.
            span("a", 90, 130, Some(0)),
            span("b", 120, 150, Some(0)),
            // A child running past the parent's end counts to 200 only.
            span("c", 180, 260, Some(0)),
            // A grandchild does not reduce the parent's self time twice.
            span("d", 185, 190, Some(3)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 50 - 20);
        assert_eq!(selfs[1], 40);
        assert_eq!(selfs[3], 80 - 5);
        assert_eq!(selfs[4], 5);
        let cov = coverage(&spans, &["parent"]).unwrap();
        assert!((cov - 0.7).abs() < 1e-12);
        assert_eq!(coverage(&spans, &["absent"]), None);
    }

    #[test]
    fn recorder_nests_by_open_span() {
        let t = Tracer::new(true);
        let v = t.span("outer", 7, || t.span("inner", 7, || 41) + 1);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(self_times(&spans)[0], spans[0].dur_ns() - spans[1].dur_ns());

        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, || 3), 3);
        assert!(off.spans().is_empty());
    }
}
