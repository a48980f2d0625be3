//! Harness-side tracing: spans around the calls into each layer, kept in
//! memory and written out when the run ends.
//!
//! One recorder per thread; only the harness's main thread (the client
//! side of every workload) records. A span is
//! `(name, start_ns, end_ns, parent, op_id)`; a layer's **self time** is its
//! span minus the part its direct children cover. Spans inside the crates
//! are a later issue (ROADMAP item 5) — everything here wraps public calls.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one op share its index in the workload's op list.
    pub op_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Recorder {
    enabled: bool,
    origin: Option<Instant>,
    op_id: u32,
    spans: Vec<Span>,
    /// Indices of the spans still open, innermost last.
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() =
            Recorder { enabled: true, origin: Some(Instant::now()), ..Recorder::default() };
    });
}

/// Stops recording and hands back every span, in the order they opened.
pub fn stop() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "span {:?} still open at stop", r.open.last());
        r.enabled = false;
        std::mem::take(&mut r.spans)
    })
}

/// Sets the op the following spans belong to.
pub fn set_op(op_id: u32) {
    RECORDER.with(|r| r.borrow_mut().op_id = op_id);
}

/// Closes its span when dropped. Inert while recording is off, so workload
/// code is the same in traced and untraced passes.
#[must_use = "the span closes when the guard drops"]
pub struct Guard {
    index: u32,
}

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Guard { index: NO_PARENT };
        }
        let index = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let op_id = r.op_id;
        let start_ns =
            r.origin.expect("enabled recorders have an origin").elapsed().as_nanos() as u64;
        r.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op_id });
        r.open.push(index);
        Guard { index }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.index == NO_PARENT {
            return;
        }
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.origin.map_or(0, |o| o.elapsed().as_nanos() as u64);
            // Guards drop innermost-first; anything else is a harness bug,
            // but a panic while unwinding would abort, so only debug-check.
            debug_assert_eq!(r.open.last(), Some(&self.index), "spans must nest");
            r.open.pop();
            if let Some(span) = r.spans.get_mut(self.index as usize) {
                span.end_ns = end_ns;
            }
        });
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// One row of the per-layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerRow {
    pub name: &'static str,
    pub count: u64,
    /// Summed duration of the spans of this name.
    pub total_ns: u64,
    /// Summed self time: the rows' self times add up to the root spans'
    /// total duration exactly.
    pub self_ns: u64,
}

/// The name of the root span above each span (its own name for a root).
fn root_names(spans: &[Span]) -> Vec<&'static str> {
    let mut roots: Vec<&'static str> = Vec::with_capacity(spans.len());
    for span in spans {
        // A parent always precedes its children in the recorder.
        roots.push(if span.parent == NO_PARENT { span.name } else { roots[span.parent as usize] });
    }
    roots
}

/// Aggregates by name, ordered by name, the spans of the trees rooted at an
/// `op` span (`ops == true`) or of all the other trees — the probes a
/// traced pass runs alongside its ops (`ops == false`).
pub fn ledger(spans: &[Span], ops: bool) -> Vec<LedgerRow> {
    let own = self_times_ns(spans);
    let roots = root_names(spans);
    let mut rows: BTreeMap<&'static str, LedgerRow> = BTreeMap::new();
    for ((span, own), root) in spans.iter().zip(own).zip(roots) {
        if (root == "op") != ops {
            continue;
        }
        let row = rows.entry(span.name).or_insert(LedgerRow {
            name: span.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += span.duration_ns();
        row.self_ns += own;
    }
    rows.into_values().collect()
}

/// Summed self time of the spans named `name`, in seconds.
pub fn self_seconds(rows: &[LedgerRow], name: &str) -> f64 {
    rows.iter().find(|r| r.name == name).map_or(0.0, |r| r.self_ns as f64 * 1e-9)
}

/// Summed duration of the spans named `name`, in seconds.
pub fn total_seconds(rows: &[LedgerRow], name: &str) -> f64 {
    rows.iter().find(|r| r.name == name).map_or(0.0, |r| r.total_ns as f64 * 1e-9)
}

/// Mean duration of the spans named `name`, in seconds (0 if none).
pub fn mean_seconds(rows: &[LedgerRow], name: &str) -> f64 {
    total_seconds(rows, name) / count(rows, name).max(1) as f64
}

pub fn count(rows: &[LedgerRow], name: &str) -> u64 {
    rows.iter().find(|r| r.name == name).map_or(0, |r| r.count)
}

/// The trace file: one JSON object with the workload, the seed and the
/// spans as `[name, start_ns, end_ns, parent, op_id]` rows (`parent` is an
/// index into the same array, -1 for a root).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 48);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\
         \"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op_id\"],\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        let sep = if i == 0 { "" } else { "," };
        let _ =
            write!(out, "{sep}\n[\"{}\",{},{},{parent},{}]", s.name, s.start_ns, s.end_ns, s.op_id);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // op [0,100) holds query [10,90), which holds two adjacent
        // estimates [20,40) and [40,70), the second with a nested [45,50).
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("core.query", 10, 90, 0),
            span("estimate", 20, 40, 1),
            span("estimate", 40, 70, 1),
            span("edge_probs", 45, 50, 3),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 20, 25, 5]);
        let rows = ledger(&spans, true);
        let total_self: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total_self, 100, "self times add up to the root's duration");
        let estimate = rows.iter().find(|r| r.name == "estimate").expect("an estimate row");
        assert_eq!((estimate.count, estimate.total_ns, estimate.self_ns), (2, 50, 45));
        assert_eq!(mean_seconds(&rows, "estimate"), total_seconds(&rows, "estimate") / 2.0);
        assert_eq!(self_seconds(&rows, "absent"), 0.0);
    }

    #[test]
    fn probe_trees_stay_out_of_the_op_ledger() {
        // An op with a round trip, then a probe that also makes one.
        let spans = vec![
            span("op", 0, 10, NO_PARENT),
            span("rtt", 1, 9, 0),
            span("probe.echo", 10, 14, NO_PARENT),
            span("rtt", 11, 13, 2),
        ];
        let ops = ledger(&spans, true);
        let names =
            |rows: &[LedgerRow]| rows.iter().map(|r| (r.name, r.total_ns)).collect::<Vec<_>>();
        assert_eq!(names(&ops), vec![("op", 10), ("rtt", 8)]);
        let probes = ledger(&spans, false);
        assert_eq!(names(&probes), vec![("probe.echo", 4), ("rtt", 2)]);
        assert_eq!(probes[0].self_ns, 2);
    }

    #[test]
    fn guards_nest_and_carry_the_op_id() {
        start();
        set_op(7);
        {
            let _op = enter("op");
            {
                let _a = enter("a");
            }
            let _b = enter("b");
        }
        set_op(8);
        drop(enter("op"));
        let spans = stop();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op_id)).collect();
        assert_eq!(
            names,
            vec![("op", NO_PARENT, 7), ("a", 0, 7), ("b", 0, 7), ("op", NO_PARENT, 8)]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[1].end_ns <= spans[2].start_ns, "a closed before b opened");
        assert!(spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _ = stop();
        drop(enter("ignored"));
        assert!(stop().is_empty());
    }

    #[test]
    fn json_rows_use_minus_one_for_roots() {
        let text = to_json("w", 3, &[span("op", 1, 5, NO_PARENT), span("x", 2, 3, 0)]);
        assert!(text.contains("\"workload\":\"w\",\"seed\":3"));
        assert!(text.contains("[\"op\",1,5,-1,0]"));
        assert!(text.contains("[\"x\",2,3,0,0]"));
    }
}
