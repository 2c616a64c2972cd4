//! Bench-side spans: recorded around calls into the program's public API,
//! kept in memory, written out when the run ends, and reduced to per-layer
//! self time and wall-time attribution.
//!
//! A span is `(id, parent, name, thread, start, end, run)`. Calls too hot
//! for one record each (a stream pull, a path lookup, one engine visit)
//! are folded into [`Leaf`] totals carried by the enclosing span: a leaf
//! is a child that runs on the span's own thread, inside the span.
//!
//! * **Self time** of a span is its duration minus the part of its
//!   interval covered by child spans (the union, so overlapping children
//!   on other threads count once) minus its leaf totals.
//! * **Wall attribution** splits every instant of the run among the spans
//!   running *exclusively* at that instant (inside the span, outside all
//!   of its children): with two worker spans busy at once each gets half.
//!   A span's share is then split between itself and its leaves in
//!   proportion to their times. Summed over layers this accounts for the
//!   whole root interval; the root's own share is the remainder no layer
//!   claims.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A hot call folded into its enclosing span: how often it ran and for
/// how long in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leaf {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub thread: u32,
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub leaves: Vec<Leaf>,
}

impl SpanRec {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(u32::MAX) };
}
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn thread_index() -> u32 {
    THREAD.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// In-memory span store shared by every thread of one traced run.
pub struct Recorder {
    epoch: Instant,
    run: u32,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

impl Recorder {
    pub fn new(run: u32) -> Self {
        Recorder { epoch: Instant::now(), run, next_id: AtomicU32::new(0), spans: Mutex::default() }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&self, name: &'static str, parent: Option<u32>) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, parent, name, start_ns: self.now_ns() }
    }

    pub fn end(&self, open: Open) -> u64 {
        self.end_with(open, Vec::new())
    }

    /// Close `open` carrying `leaves`; returns the span's duration in ns.
    pub fn end_with(&self, open: Open, leaves: Vec<Leaf>) -> u64 {
        let end_ns = self.now_ns();
        let rec = SpanRec {
            id: open.id,
            parent: open.parent,
            name: open.name,
            thread: thread_index(),
            run: self.run,
            start_ns: open.start_ns,
            end_ns,
            leaves,
        };
        let dur = rec.dur();
        self.spans.lock().expect("span store poisoned by a panicking worker").push(rec);
        dur
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<R>(&self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> R) -> R {
        let open = self.start(name, parent);
        let r = f();
        self.end(open);
        r
    }

    pub fn take(&self) -> Vec<SpanRec> {
        let mut spans = std::mem::take(
            &mut *self.spans.lock().expect("span store poisoned by a panicking worker"),
        );
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Per-layer totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Self time summed over every span of the layer (thread-ns).
    pub self_ns: u64,
    /// Share of the root interval attributed to the layer (wall-ns).
    pub wall_ns: f64,
}

/// Length of the union of `ivs`, each clipped to `[lo, hi]`.
pub fn covered_ns(ivs: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        ivs.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// `[lo, hi]` minus the union of `ivs`, as sorted disjoint pieces.
fn exclusive_pieces(ivs: &[(u64, u64)], lo: u64, hi: u64) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> =
        ivs.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    v.sort_unstable();
    let mut out = Vec::new();
    let mut at = lo;
    for (a, b) in v {
        if a > at {
            out.push((at, a));
        }
        at = at.max(b);
    }
    if at < hi {
        out.push((at, hi));
    }
    out
}

fn children_of(spans: &[SpanRec]) -> BTreeMap<u32, Vec<(u64, u64)>> {
    let mut kids: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    kids
}

/// Self time of every span, by id: duration minus the union of its child
/// spans' intervals (clipped to the span) minus its leaf totals.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<u32, u64> {
    let kids = children_of(spans);
    spans
        .iter()
        .map(|s| {
            let covered = kids.get(&s.id).map_or(0, |k| covered_ns(k, s.start_ns, s.end_ns));
            let leaves: u64 = s.leaves.iter().map(|l| l.total_ns).sum();
            (s.id, s.dur().saturating_sub(covered).saturating_sub(leaves))
        })
        .collect()
}

/// Reduce `spans` to per-layer totals (see the module docs). Leaves are
/// layers of their own, keyed by their name.
pub fn layers(spans: &[SpanRec]) -> BTreeMap<&'static str, LayerTotals> {
    let kids = children_of(spans);
    let selfs = self_times(spans);

    // Sweep the exclusive pieces of every span; each elementary interval
    // is shared equally among the spans exclusively running in it.
    let mut events: Vec<(u64, i8, usize)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let k = kids.get(&s.id).map_or(&[][..], Vec::as_slice);
        for (a, b) in exclusive_pieces(k, s.start_ns, s.end_ns) {
            events.push((a, 1, i));
            events.push((b, -1, i));
        }
    }
    events.sort_unstable_by_key(|&(t, d, i)| (t, d, i));
    let mut wall = vec![0.0f64; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut last = 0u64;
    for (t, d, i) in events {
        if !active.is_empty() && t > last {
            let share = (t - last) as f64 / active.len() as f64;
            for &a in &active {
                wall[a] += share;
            }
        }
        last = t;
        if d > 0 {
            active.push(i);
        } else if let Some(pos) = active.iter().position(|&a| a == i) {
            active.swap_remove(pos);
        }
    }

    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = selfs[&s.id];
        let leaf_ns: u64 = s.leaves.iter().map(|l| l.total_ns).sum();
        let exclusive = own + leaf_ns;
        let scale = if exclusive == 0 { 0.0 } else { wall[i] / exclusive as f64 };
        let e = out.entry(s.name).or_default();
        e.self_ns += own;
        e.wall_ns += own as f64 * scale;
        for l in &s.leaves {
            let e = out.entry(l.name).or_default();
            e.self_ns += l.total_ns;
            e.wall_ns += l.total_ns as f64 * scale;
        }
    }
    out
}

/// Write `spans` as JSON lines (one span per line, leaves inline).
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let leaves: Vec<String> = s
            .leaves
            .iter()
            .map(|l| {
                format!("{{\"name\":\"{}\",\"count\":{},\"ns\":{}}}", l.name, l.count, l.total_ns)
            })
            .collect();
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"thread\":{},\"run\":{},\"start_ns\":{},\"end_ns\":{},\"leaves\":[{}]}}",
            s.id,
            s.name,
            s.thread,
            s.run,
            s.start_ns,
            s.end_ns,
            leaves.join(",")
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, a: u64, b: u64) -> SpanRec {
        SpanRec { id, parent, name, thread: 0, run: 0, start_ns: a, end_ns: b, leaves: Vec::new() }
    }

    #[test]
    fn union_of_intervals_counts_overlap_once_and_clips() {
        assert_eq!(covered_ns(&[], 0, 10), 0);
        assert_eq!(covered_ns(&[(2, 5), (4, 8)], 0, 10), 6);
        assert_eq!(covered_ns(&[(2, 5), (6, 8)], 0, 10), 5);
        assert_eq!(covered_ns(&[(0, 20)], 5, 10), 5);
        assert_eq!(covered_ns(&[(3, 4), (1, 9), (2, 3)], 0, 10), 8);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; two children overlapping on 30..50 (parallel
        // workers) cover 20..70 = 50 ns; a grandchild does not touch the
        // parent's self time.
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "w", 20, 50),
            span(2, Some(0), "w", 30, 70),
            span(3, Some(1), "leafy", 25, 45),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&0], 50);
        assert_eq!(s[&1], 10);
        assert_eq!(s[&2], 40);
        assert_eq!(s[&3], 20);
    }

    #[test]
    fn leaves_come_out_of_their_span_self_time() {
        let mut w = span(1, Some(0), "w", 0, 100);
        w.leaves = vec![
            Leaf { name: "next", count: 10, total_ns: 30 },
            Leaf { name: "visit", count: 4, total_ns: 50 },
        ];
        let spans = vec![span(0, None, "root", 0, 100), w];
        assert_eq!(self_times(&spans)[&1], 20);
        let l = layers(&spans);
        assert_eq!((l["next"].self_ns, l["visit"].self_ns), (30, 50));
        assert_eq!(l["root"].self_ns, 0);
    }

    #[test]
    fn wall_attribution_splits_parallel_time_and_sums_to_the_root() {
        // Root 0..100 with two parallel workers 10..60 and 10..90.
        let mut a = span(1, Some(0), "a", 10, 60);
        a.leaves = vec![Leaf { name: "a.leaf", count: 1, total_ns: 25 }];
        let spans = vec![span(0, None, "root", 0, 100), a, span(2, Some(0), "b", 10, 90)];
        let l = layers(&spans);
        // 10..60 is shared by a and b (25 each); 60..90 is b's alone.
        assert!((l["a"].wall_ns + l["a.leaf"].wall_ns - 25.0).abs() < 1e-9);
        assert!((l["a.leaf"].wall_ns - 12.5).abs() < 1e-9);
        assert!((l["b"].wall_ns - 55.0).abs() < 1e-9);
        // The root keeps 0..10 and 90..100: the remainder.
        assert!((l["root"].wall_ns - 20.0).abs() < 1e-9);
        let total: f64 = l.values().map(|t| t.wall_ns).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_links_parents_and_orders_by_id() {
        let rec = Recorder::new(7);
        let root = rec.start("root", None);
        let rid = root.id();
        rec.time("child", Some(rid), || std::hint::black_box(1 + 1));
        rec.end(root);
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].run), ("root", None, 7));
        assert_eq!((spans[1].name, spans[1].parent), ("child", Some(rid)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
