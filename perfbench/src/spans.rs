//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Each worker thread owns a [`SpanLog`]; spans nest through a stack, so a
//! span's parent is whatever was open on the same thread when it began.
//! Logs stay in memory until the run ends, then merge into one list that is
//! rolled up into per-layer self times and written out as JSON lines.
//! The program under test carries no instrumentation of its own.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `detect.assess_at_thresholds_masked_with`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The link or round the span worked on.
    pub id: u64,
    /// The thread that recorded it.
    pub lane: u32,
}

impl Span {
    /// The layer prefix of the name (text before the first dot).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder.
pub struct SpanLog {
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, lane: u32) -> SpanLog {
        SpanLog {
            epoch,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for item `id`; close it with
    /// [`SpanLog::exit`]. Spans opened meanwhile become its children.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            id,
            lane: self.lane,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end = self.now();
    }

    /// Run `f` inside a span named `name` for item `id`.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        let idx = self.enter(name, id);
        let out = f(self);
        self.exit(idx);
        out
    }

    /// Record an interval measured elsewhere (e.g. a sampled read).
    pub fn push(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let parent = self.open.last().copied();
        let span = Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            id,
            lane: self.lane,
        };
        self.spans.push(span);
    }

    /// Time spent inside top-level spans of this log (the thread's busy time).
    pub fn busy_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur)
            .sum()
    }
}

/// Concatenate per-thread logs into one list, re-basing parent indices.
pub fn merge(logs: Vec<SpanLog>) -> Vec<Span> {
    let mut out = Vec::new();
    for log in logs {
        let base = out.len();
        out.extend(log.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once, and a child
/// reaching outside its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut run: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                match run {
                    Some((ra, rb)) if a <= rb => run = Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        run = Some((a, b));
                    }
                    None => run = Some((a, b)),
                }
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: (self ns, span count).
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Per-layer self time in seconds.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_default() += own as f64 / 1e9;
    }
    out
}

/// Write spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`, `id`,
/// `lane`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{},\"lane\":{}}}",
            s.name, s.start, s.end, parent, s.id, s.lane
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
            lane: 0,
        }
    }

    /// A hand-built tree:
    ///
    /// ```text
    /// 0 study.link        [0, 100)
    /// ├─ 1 campaign.measure [10, 40)
    /// ├─ 2 detect.assess    [40, 90)
    /// │  └─ 3 health.x      [50, 60)
    /// │  └─ 4 health.y      [55, 70)   overlaps 3
    /// └─ 5 study.rr         [95, 120)  runs past its parent
    /// 6 monitor.round       [200, 250) a second root
    /// ```
    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("study.link", 0, 100, None),
            span("campaign.measure", 10, 40, Some(0)),
            span("detect.assess", 40, 90, Some(0)),
            span("health.x", 50, 60, Some(2)),
            span("health.y", 55, 70, Some(2)),
            span("study.rr", 95, 120, Some(0)),
            span("monitor.round", 200, 250, None),
        ];
        let own = self_times(&spans);
        // Root: 100 minus children [10,90) and [95,100) = 100 - 85.
        assert_eq!(own[0], 15);
        assert_eq!(own[1], 30);
        // assess: 50 minus the union [50,70) = 30.
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 15);
        assert_eq!(own[5], 25);
        assert_eq!(own[6], 50);
        // Self times of a tree whose children stay inside their parents
        // add up to the roots' durations.
        let layers = self_by_layer(&spans);
        assert!((layers["health"] - 25e-9).abs() < 1e-15);
        assert!((layers["study"] - 40e-9).abs() < 1e-15);
        let names = self_by_name(&spans);
        assert_eq!(names["detect.assess"], (30, 1));
    }

    #[test]
    fn logs_nest_and_merge_with_rebased_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, 0);
        a.span("study.link", 1, |log| {
            log.span("campaign.measure", 1, |_| ());
            log.span("detect.assess", 1, |_| ());
        });
        let mut b = SpanLog::new(epoch, 1);
        b.span("study.link", 2, |log| {
            log.span("health.classify", 2, |_| ())
        });
        let busy = a.busy_ns();
        let all = merge(vec![a, b]);
        assert_eq!(busy, all[0].dur());
        assert!(busy >= all[1].dur() + all[2].dur());
        assert_eq!(all.len(), 5);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(0));
        assert_eq!(all[3].parent, None);
        assert_eq!(all[4].parent, Some(3));
        assert_eq!(all[4].lane, 1);
        for s in &all {
            if let Some(p) = s.parent {
                assert!(all[p].start <= s.start && s.end <= all[p].end);
            }
        }
    }
}
