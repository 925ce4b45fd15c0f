//! Benchmark-side spans: recorded around the calls this crate makes into
//! the repo's public functions, held in memory, written out once at the
//! end of the traced repetition.
//!
//! A span is `(name, start, end, parent, unit)`; spans of one round /
//! request / publish share a `unit` id. A name's **self time** is its
//! spans' duration minus the part of each interval that its child spans
//! cover (children on parallel threads may overlap, so the cover is the
//! union of their intervals, clipped to the parent).

use crate::json::quote;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Ring bound: enough for every span of a full-length traced repetition;
/// anything beyond is counted in `obs.spans_dropped`, never silently lost.
const CAPACITY: usize = 1 << 20;

#[derive(Debug, Clone)]
struct SpanRec {
    id: u32,
    parent: u32,
    unit: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name aggregate over all recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The in-memory span sink of one traced repetition.
pub struct Spans {
    epoch: Instant,
    next_id: AtomicU32,
    dropped: AtomicU64,
    recs: Mutex<Vec<SpanRec>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            dropped: AtomicU64::new(0),
            recs: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent's end is known.
    pub fn alloc(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span under a reserved `id`. `parent` 0 is a root.
    pub fn record_as(
        &self,
        id: u32,
        name: &'static str,
        parent: u32,
        unit: u64,
        start: Instant,
        end: Instant,
    ) {
        let rec =
            SpanRec { id, parent, unit, name, start_ns: self.ns(start), end_ns: self.ns(end) };
        let mut recs = self.recs.lock().expect("span sink lock");
        if recs.len() < CAPACITY {
            recs.push(rec);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u32,
        unit: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.alloc();
        self.record_as(id, name, parent, unit, start, end);
        id
    }

    /// Spans that did not fit the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let recs = self.recs.lock().expect("span sink lock");
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for r in recs.iter().filter(|r| r.parent != 0) {
            children.entry(r.parent).or_default().push((r.start_ns, r.end_ns));
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for r in recs.iter() {
            let dur = r.end_ns - r.start_ns;
            let covered =
                children.get_mut(&r.id).map_or(0, |iv| union_within(iv, r.start_ns, r.end_ns));
            let t = out.entry(r.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered;
        }
        out
    }

    /// Writes every span plus the per-name totals as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let totals = self.totals();
        let recs = self.recs.lock().expect("span sink lock");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"workload\": {}, \"dropped\": {},", quote(workload), self.dropped())?;
        writeln!(w, " \"totals\": {{")?;
        for (i, (name, t)) in totals.iter().enumerate() {
            let sep = if i + 1 == totals.len() { "" } else { "," };
            writeln!(
                w,
                "  {}: {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{sep}",
                quote(name),
                t.count,
                t.total_ns,
                t.self_ns
            )?;
        }
        writeln!(w, " }},")?;
        writeln!(w, " \"spans\": [")?;
        for (i, r) in recs.iter().enumerate() {
            let sep = if i + 1 == recs.len() { "" } else { "," };
            writeln!(
                w,
                "  {{\"id\": {}, \"parent\": {}, \"unit\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                r.id,
                r.parent,
                r.unit,
                quote(r.name),
                r.start_ns,
                r.end_ns
            )?;
        }
        writeln!(w, " ]}}")?;
        w.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Runs `f` and, when tracing, records it as a span. The untraced path
/// pays one branch.
pub fn timed<T>(
    spans: Option<&Spans>,
    name: &'static str,
    parent: u32,
    unit: u64,
    f: impl FnOnce(u32) -> T,
) -> T {
    match spans {
        None => f(0),
        Some(s) => {
            let id = s.alloc();
            let start = Instant::now();
            let out = f(id);
            s.record_as(id, name, parent, unit, start, Instant::now());
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let s = Spans::new();
        let t0 = s.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let parent = s.record("parent", 0, 1, at(0), at(100));
        // Two overlapping children cover [10, 60]; one spills past the end.
        s.record("child", parent, 1, at(10), at(40));
        s.record("child", parent, 1, at(30), at(60));
        s.record("child", parent, 1, at(90), at(120));
        let totals = s.totals();
        assert_eq!(totals["parent"].total_ns, 100_000_000);
        assert_eq!(totals["parent"].self_ns, 40_000_000);
        assert_eq!(totals["child"].count, 3);
        assert_eq!(totals["child"].self_ns, totals["child"].total_ns);
    }

    #[test]
    fn timed_is_a_no_op_without_a_sink() {
        assert_eq!(timed(None, "x", 0, 0, |id| id + 41), 41);
        let s = Spans::new();
        let inner =
            timed(Some(&s), "outer", 0, 7, |outer| timed(Some(&s), "inner", outer, 7, |_| 5));
        assert_eq!(inner, 5);
        let totals = s.totals();
        assert_eq!(totals["outer"].count, 1);
        assert!(totals["outer"].self_ns <= totals["outer"].total_ns);
    }
}
