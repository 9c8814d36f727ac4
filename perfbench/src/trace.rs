//! In-memory span recorder for the traced runs.
//!
//! One span per timed call: name, start, end and the span that was open
//! when it began. Spans stay in memory (pre-reserved, so recording does
//! not allocate on the hot path) and are written out once, when the run
//! ends. A layer's number is its *self time*: its span minus the time its
//! child spans cover.

use mas_bench::json::Json;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer metric name the span feeds (e.g. `mhd.visc`).
    pub name: &'static str,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// End, seconds since the recorder's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder for one thread (one rank).
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin` (share it across ranks
    /// so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(1 << 14),
            open: Vec::with_capacity(16),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Time `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time, seconds, of every span in recording order: its duration
    /// minus the duration of its direct children (children of one span
    /// never overlap — a recorder belongs to one thread).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| (s.end - s.start) - c)
            .collect()
    }

    /// Self time, seconds, of every span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_secs())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Chrome trace-event rendering (`chrome://tracing`, Perfetto) with
    /// one track per rank; `args.parent` keeps the causal link.
    pub fn to_chrome_events(&self, rank: usize) -> Vec<Json> {
        self.spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start * 1e6)),
                    ("dur".into(), Json::Num((s.end - s.start) * 1e6)),
                    ("pid".into(), Json::Num(0.0)),
                    ("tid".into(), Json::Num(rank as f64)),
                    (
                        "args".into(),
                        Json::Obj(vec![(
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        )]),
                    ),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: std::time::Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let ms = std::time::Duration::from_millis(1);
        let mut rec = Recorder::new(Instant::now());
        rec.span("outer", |r| {
            spin(2 * ms);
            r.span("inner", |r| {
                r.span("leaf", |_| spin(3 * ms));
                spin(ms);
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let outer = rec.self_times("outer")[0];
        let inner = rec.self_times("inner")[0];
        let leaf = rec.self_times("leaf")[0];
        let total = spans[0].end - spans[0].start;
        assert!(
            (outer + inner + leaf - total).abs() < 1e-9,
            "self times partition the root"
        );
        assert!(leaf >= 0.003 && inner >= 0.001 && outer >= 0.002);
        assert!(inner < 0.003, "inner excludes its leaf: {inner}");
    }

    #[test]
    fn chrome_events_carry_parent_links() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("a", |r| r.span("b", |_| ()));
        let ev = rec.to_chrome_events(1);
        assert_eq!(
            ev[1].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Num(0.0))
        );
        assert_eq!(ev[0].get("tid"), Some(&Json::Num(1.0)));
    }
}
