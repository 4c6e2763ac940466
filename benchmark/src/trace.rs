//! The benchmark's own span recorder.
//!
//! A traced run wraps every call into a layer of the system under test in
//! a span — name, start, end, the span that caused it, and the id of the
//! op it belongs to. Spans stay in memory and are written once, at exit,
//! as Chrome trace-event JSON. No span lives inside `crates/`: the layers
//! are timed from outside, at their public functions.

use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Shared by every span of one request.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one run (the replay is single-threaded). A disabled
/// recorder reads no clock and stores nothing, so the same op code serves
/// the traced and the untraced pass.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn recording() -> Self {
        Self::new(true)
    }

    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Runs `f` inside a span named `name`, child of whatever span is open.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Records a child of the open span from a duration the callee
    /// *returned* (a layer's own stats), ending where the clock is now.
    pub fn returned(&mut self, name: &'static str, op: u64, start_ns: u64, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: self.open.last().copied(),
            op,
        });
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every duration of the spans named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let named = self.spans.iter().filter(|s| s.name == name);
        named.map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Median duration of the spans named `name`, in units of which
    /// `per_ms` make a millisecond (`1.0` = ms, `1e3` = µs, `1e6` = ns,
    /// `1e-3` = s); 0 when there is none.
    pub fn median(&self, name: &str, per_ms: f64) -> f64 {
        let ms = self.durations_ms(name);
        if ms.is_empty() {
            0.0
        } else {
            crate::stats::median(&ms) * per_ms
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total and self nanoseconds and the count per span name, in first-seen
/// order.
pub fn by_name(t: &Tracer) -> Vec<(&'static str, u64, u64, usize)> {
    let mut rows: Vec<(&'static str, u64, u64, usize)> = Vec::new();
    for (s, own) in t.spans.iter().zip(self_times(&t.spans)) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += s.duration_ns();
                r.2 += own;
                r.3 += 1;
            }
            None => rows.push((s.name, s.duration_ns(), own, 1)),
        }
    }
    rows
}

/// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// complete events, microsecond timestamps, parent and op id under
/// `args`.
pub fn write_chrome(path: &Path, t: &Tracer) -> std::io::Result<()> {
    let events: Vec<String> = t
        .spans
        .iter()
        .zip(self_times(&t.spans))
        .enumerate()
        .map(|(i, (s, own))| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.op,
                own as f64 / 1e3,
            )
        })
        .collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            // Overlaps the previous child: 20..50 adds only 30..50.
            span(20, 50, Some(0)),
            span(60, 70, Some(0)),
            // A grandchild shortens its parent, not the root.
            span(62, 66, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30, 6, 4]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        // A span synthesized from returned stats may overhang its parent.
        let spans = [span(10, 20, None), span(5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn nesting_follows_the_call_structure_and_disabled_records_nothing() {
        let mut t = Tracer::recording();
        let got = t.span("op", 7, |t| {
            t.span("a", 7, |_| ());
            t.span("b", 7, |t| t.span("c", 7, |_| 41) + 1)
        });
        assert_eq!(got, 42);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("op", None), ("a", Some(0)), ("b", Some(0)), ("c", Some(2))]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.op == 7 && s.end_ns >= s.start_ns));

        let mut off = Tracer::disabled();
        assert_eq!(off.span("op", 1, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
