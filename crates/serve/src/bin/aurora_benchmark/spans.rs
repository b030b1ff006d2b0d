//! The traced run's span recorder: one span around each call the
//! benchmark makes into a layer, kept in memory and written out as
//! NDJSON when the run ends. Spans nest by call order on the recording
//! thread; a layer's self time is its span minus the time its child
//! spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use aurora_serve::json::{obj, Json};

/// One span. Ids start at 1; `parent` is 0 for a root span, and spans of
/// one request (a query, or a kernel's capture) share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A single-threaded recorder. A disabled one records nothing and costs
/// one branch per call, so untraced runs share the traced code path.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open on this recorder.
    pub fn time<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let parent = open.last().map_or(0, |&i| spans[i].id);
            let id = spans.len() as u64 + 1;
            spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        let closed = self.open.borrow_mut().pop();
        debug_assert_eq!(closed, Some(idx), "spans closed out of order");
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Time spent under one span name.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerTime {
    pub calls: usize,
    pub total_s: f64,
    /// Total minus the time covered by direct child spans.
    pub self_s: f64,
    /// Median duration of one call, in microseconds.
    pub median_us: f64,
}

/// Per-name call counts, total and self times.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_s += dur as f64 * 1e-9;
        t.self_s += own as f64 * 1e-9;
        durations.entry(s.name).or_default().push(dur as f64 * 1e-3);
    }
    for (name, t) in &mut out {
        t.median_us = crate::stats::median(&durations[name]).unwrap_or(0.0);
    }
    out
}

/// The spans as NDJSON, one object per line.
pub fn to_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = obj([
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("request", Json::Num(s.request as f64)),
            ("name", Json::Str(s.name.to_owned())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let spans = [
            Span {
                id: 1,
                parent: 0,
                request: 0,
                name: "outer",
                start_ns: 0,
                end_ns: 10_000,
            },
            Span {
                id: 2,
                parent: 1,
                request: 0,
                name: "inner",
                start_ns: 1_000,
                end_ns: 4_000,
            },
            Span {
                id: 3,
                parent: 1,
                request: 1,
                name: "inner",
                start_ns: 5_000,
                end_ns: 6_000,
            },
        ];
        let t = layer_times(&spans);
        assert_eq!(t["outer"].calls, 1);
        assert!((t["outer"].self_s - 6e-6).abs() < 1e-15);
        assert_eq!(t["inner"].calls, 2);
        assert!((t["inner"].total_s - 4e-6).abs() < 1e-15);
        assert!((t["inner"].median_us - 2.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let off = Spans::new(false);
        assert_eq!(off.time("a", 0, || 3), 3);
        assert!(off.into_spans().is_empty());
        let rec = Spans::new(true);
        rec.time("a", 0, || {
            rec.time("b", 7, || ());
            rec.time("c", 7, || rec.time("d", 7, || ()));
        });
        rec.time("e", 1, || ());
        let spans = rec.into_spans();
        let parents: Vec<(&str, u64, u64)> =
            spans.iter().map(|s| (s.name, s.id, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("a", 1, 0),
                ("b", 2, 1),
                ("c", 3, 1),
                ("d", 4, 3),
                ("e", 5, 0)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(to_ndjson(&spans).lines().count(), 5);
    }
}
