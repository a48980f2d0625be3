//! The measurement protocol every workload runs under: repeated set-ups,
//! repeated passes over one fixed op list, reference-speed timing, answer
//! checking, and — on a traced run — the extra pass that feeds the ledger.

use crate::cal::{self, PassClock, Scaled};
use crate::fixtures::Sizes;
use crate::stats::{self, Sorted};
use crate::sys::ProcCounters;
use crate::{alloc, trace};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What one op returned. Two answers are equal only bit for bit.
#[derive(Clone, Debug)]
pub struct Answer {
    pub tags: Vec<u32>,
    pub spread: f64,
}

impl Answer {
    pub fn new(tags: &[u32], spread: f64) -> Self {
        Self { tags: tags.to_vec(), spread }
    }
}

impl PartialEq for Answer {
    fn eq(&self, other: &Self) -> bool {
        self.tags == other.tags && self.spread.to_bits() == other.spread.to_bits()
    }
}

/// Raw seconds of the named phases of one set-up, in the order they ran.
#[derive(Default)]
pub struct Phases(Vec<(&'static str, f64)>);

impl Phases {
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.0.push((name, start.elapsed().as_secs_f64()));
        value
    }

    /// Raw seconds spent in `name` (0 if the set-up has no such phase).
    pub fn seconds(&self, name: &str) -> f64 {
        self.0.iter().filter(|(n, _)| *n == name).map(|(_, s)| s).sum()
    }
}

/// One workload: how to make its input, set it up, and run one pass.
pub trait Workload {
    const NAME: &'static str;
    /// Made once per run and not timed (what a deployment is handed).
    type Input;
    /// Everything before the first op, rebuilt from scratch by each set-up.
    type State;

    fn input(sizes: &Sizes) -> Self::Input;

    /// The timed set-up. `seed` picks the op list (users, update edges).
    fn setup(input: &Self::Input, sizes: &Sizes, seed: u64, phases: &mut Phases) -> Self::State;

    /// Runs the op list once through `run.op(..)`, in op-list order, on a
    /// fresh engine or the warm server.
    fn run_pass(state: &mut Self::State, run: &mut PassRun<'_>);

    /// The workload's own `--check` beyond pass-to-pass identity.
    fn check(state: &mut Self::State) -> Result<(), String>;

    /// The workload-specific ledger rows of a traced pass, as
    /// `(per-layer metric, value)`: `rows` aggregates the spans under the
    /// `ops` ops, `probes` those of the probes run alongside them.
    /// `per_op_us` is the reference-speed op time of the untraced passes,
    /// so shares turn into microseconds.
    fn ledger(
        state: &Self::State,
        rows: &[trace::LedgerRow],
        probes: &[trace::LedgerRow],
        ops: usize,
        per_op_us: f64,
    ) -> Vec<(&'static str, f64)>;
}

/// Drives one pass: times each op, rescales it, and checks its answer.
pub struct PassRun<'a> {
    clock: PassClock,
    traced: bool,
    reference: Option<&'a [Answer]>,
    answers: Vec<Answer>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl<'a> PassRun<'a> {
    fn begin(traced: bool, reference: Option<&'a [Answer]>) -> Self {
        Self {
            clock: PassClock::begin(),
            traced,
            reference,
            answers: Vec::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    /// Whether this pass records spans (workloads install their
    /// instrumented estimator only then).
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Times one op. An `Err`, or an answer that differs from pass 1's for
    /// the same op, is a failed op.
    pub fn op(&mut self, f: impl FnOnce() -> Result<Answer, String>) {
        let index = self.attempted as usize;
        trace::set_op(index as u32);
        let start = Instant::now();
        let result = {
            let _op = trace::enter("op");
            f()
        };
        self.clock.record(start.elapsed().as_secs_f64());
        self.attempted += 1;
        let failure = match (&result, self.reference) {
            (Err(e), _) => Some(format!("op {index}: {e}")),
            (Ok(answer), Some(reference)) if reference.get(index) != Some(answer) => Some(format!(
                "op {index}: answer {answer:?} differs from pass 1's {:?}",
                reference.get(index)
            )),
            _ => None,
        };
        if let Some(message) = failure {
            self.failed += 1;
            self.first_failure.get_or_insert(message);
        }
        if self.reference.is_none() {
            // Pass 1: its answers become the reference. A failed op keeps
            // its slot so later passes still line up by index.
            self.answers.push(result.unwrap_or(Answer { tags: Vec::new(), spread: f64::NAN }));
        }
    }

    fn finish(self) -> PassOutcome {
        let (ops, cal_s) = self.clock.finish();
        PassOutcome {
            ops,
            cal_s,
            answers: self.answers,
            attempted: self.attempted,
            failed: self.failed,
            first_failure: self.first_failure,
        }
    }
}

struct PassOutcome {
    ops: Vec<Scaled>,
    /// Seconds the pass spent inside `cal()`.
    cal_s: f64,
    answers: Vec<Answer>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn absorb(&mut self, outcome: &PassOutcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&outcome.first_failure);
        }
    }
}

/// How a run is shaped by the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunShape {
    pub seed: u64,
    /// Untraced passes.
    pub passes: usize,
    /// Whether to add the traced pass and the layer probes.
    pub trace: bool,
    /// `--check`: verify only, skip the repeated passes.
    pub check_only: bool,
}

/// Everything one run measured.
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Samples behind `op_p50_us` / `op_p95_us`: one per op of the list.
    pub samples: usize,
    /// The percentile actually reported under `op_p95_us` (95 whenever the
    /// op list has the 200 ops the frozen sizes guarantee).
    pub tail_percentile: u32,
    /// Harness-level per-layer rows (`proc.*`, `raw.*`, `cal.*`, and on a
    /// traced run `trace.*`, `ledger.*` and the workload's own rows).
    pub per_layer: Vec<(&'static str, f64)>,
    pub spans: Vec<trace::Span>,
}

fn deltas(before: (ProcCounters, (u64, u64)), after: (ProcCounters, (u64, u64))) -> [f64; 6] {
    let (pb, (cb, bb)) = before;
    let (pa, (ca, ba)) = after;
    [
        (pa.cpu.saturating_sub(pb.cpu)).as_secs_f64(),
        (pa.ctx_switches - pb.ctx_switches) as f64,
        (ca - cb) as f64,
        (ba - bb) as f64,
        (pa.read_syscalls - pb.read_syscalls) as f64,
        (pa.write_syscalls - pb.write_syscalls) as f64,
    ]
}

/// For each of the first `n` ops, the fastest of its executions in
/// `passes`, on the given clock.
fn fastest(passes: &[&[Scaled]], n: usize, clock: fn(&Scaled) -> f64) -> Vec<f64> {
    (0..n).map(|i| passes.iter().map(|ops| clock(&ops[i])).fold(f64::INFINITY, f64::min)).collect()
}

/// One traced pass over `state`'s op list, answers unchecked: the spans it
/// recorded and its ops in both clocks. The layer probes use this for
/// their mini-passes; `run` for the traced pass of a traced run.
pub fn traced_pass<W: Workload>(state: &mut W::State) -> (Vec<trace::Span>, Vec<Scaled>) {
    let (spans, outcome) = traced_pass_checked::<W>(state, None);
    (spans, outcome.ops)
}

fn traced_pass_checked<W: Workload>(
    state: &mut W::State,
    reference: Option<&[Answer]>,
) -> (Vec<trace::Span>, PassOutcome) {
    trace::start();
    let mut run = PassRun::begin(true, reference);
    W::run_pass(state, &mut run);
    let outcome = run.finish();
    (trace::stop(), outcome)
}

/// Runs workload `W` under `shape` and returns what it measured.
pub fn run<W: Workload>(sizes: &Sizes, shape: RunShape) -> RunReport {
    let input = W::input(sizes);

    // Set-up, from scratch each time; the last state is the one the passes
    // use. The previous state is dropped first so peak RSS is one state's.
    let setups = if shape.trace || shape.check_only { 1 } else { SETUPS };
    let mut setup_runs: Vec<Scaled> = Vec::with_capacity(setups);
    let mut state = None;
    let mut phases = Phases::default();
    for _ in 0..setups {
        drop(state.take());
        phases = Phases::default();
        let (fresh, scaled) =
            cal::time_bracketed(|| W::setup(&input, sizes, shape.seed, &mut phases));
        setup_runs.push(scaled);
        state = Some(fresh);
    }
    drop(input);
    let mut state = state.expect("at least one set-up ran");

    let mut tally = Tally::default();
    if let Err(message) = W::check(&mut state) {
        tally.failed += 1;
        tally.first_failure = Some(format!("check: {message}"));
    }

    // Pass 1 gives the reference answers; every later pass must repeat them.
    let passes = if shape.check_only { 2 } else { shape.passes };
    let mut outcomes: Vec<PassOutcome> = Vec::with_capacity(passes);
    let mut per_pass_deltas: Vec<[f64; 6]> = Vec::with_capacity(passes);
    let mut reference: Vec<Answer> = Vec::new();
    for pass in 0..passes {
        let before = (ProcCounters::now(), alloc::totals());
        let mut run = PassRun::begin(false, (pass > 0).then_some(&reference[..]));
        W::run_pass(&mut state, &mut run);
        let mut outcome = run.finish();
        let mut d = deltas(before, (ProcCounters::now(), alloc::totals()));
        d[0] = (d[0] - outcome.cal_s).max(0.0);
        per_pass_deltas.push(d);
        if pass == 0 {
            reference = std::mem::take(&mut outcome.answers);
        }
        tally.absorb(&outcome);
        outcomes.push(outcome);
    }
    let n = reference.len().max(1);
    for (pass, outcome) in outcomes.iter().enumerate() {
        let raw: f64 = outcome.ops.iter().map(|s| s.raw).sum();
        let reference: f64 = outcome.ops.iter().map(|s| s.reference).sum();
        println!("# pass {} op time {raw:.4} s raw, {reference:.4} s at reference speed", pass + 1);
    }
    for (i, s) in setup_runs.iter().enumerate() {
        println!("# set-up {} {:.4} s raw, {:.4} s at reference speed", i + 1, s.raw, s.reference);
    }
    for (name, seconds) in &phases.0 {
        println!("# last set-up: {name} {seconds:.4} s raw");
    }

    // End to end, from the untraced passes only. Every op is charged the
    // fastest of its executions: on a shared host the interference is
    // one-sided (an op is never faster than the code allows) and comes in
    // bursts that put 5–50 % of a pass's round trips into a cluster 2 or
    // 8 µs slower, so a pooled p95 sits on a cluster edge (7–13 µs from run
    // to run on `serve_hit`) while the per-op fastest times repeat. Over
    // ten runs of one seed their sum spread 1.3 % where the median of the
    // pass sums spread 3.5 % (NOISE.md). What this cannot see — a stall
    // that hits an op in some executions only — stays visible, with the
    // host's, in `raw.pooled_p95_us`.
    let untraced: Vec<&[Scaled]> = outcomes.iter().map(|o| &o.ops[..]).collect();
    let latencies = Sorted::new(fastest(&untraced, n, |s| s.reference * 1e6));
    let raw_per_op_s = fastest(&untraced, n, |s| s.raw);
    let pooled_raw =
        Sorted::new(outcomes.iter().flat_map(|o| o.ops.iter().map(|s| s.raw * 1e6)).collect());
    let factors = Sorted::new(
        outcomes
            .iter()
            .flat_map(|o| o.ops.iter().map(|s| s.factor))
            .chain(setup_runs.iter().map(|s| s.factor))
            .collect(),
    );
    let tail_percentile =
        if n >= 20 * stats::MIN_BEYOND { 95 } else { stats::highest_percentile(n).unwrap_or(50) };
    let finite: Vec<f64> = reference.iter().map(|a| a.spread).filter(|s| s.is_finite()).collect();
    let per_op_us = latencies.mean();
    let end_to_end = vec![
        ("setup_s", stats::median(&setup_runs.iter().map(|s| s.reference).collect::<Vec<_>>())),
        ("ops_per_s", 1e6 / per_op_us),
        ("op_p50_us", latencies.median()),
        ("op_p95_us", latencies.percentile(tail_percentile).unwrap_or(f64::NAN)),
        ("peak_rss_mb", crate::sys::peak_rss_mb()),
        ("answer_spread", stats::mean(&finite)),
    ];

    let per_op = |column: usize| {
        stats::median(&per_pass_deltas.iter().map(|d| d[column] / n as f64).collect::<Vec<_>>())
    };
    let mut per_layer = vec![
        ("proc.cpu_us_per_op", per_op(0) * 1e6),
        ("proc.ctx_switches_per_op", per_op(1)),
        ("proc.alloc_count_per_op", per_op(2)),
        ("proc.alloc_bytes_per_op", per_op(3)),
        ("proc.read_syscalls_per_op", per_op(4)),
        ("proc.write_syscalls_per_op", per_op(5)),
        ("raw.setup_s", stats::median(&setup_runs.iter().map(|s| s.raw).collect::<Vec<_>>())),
        ("raw.ops_per_s", n as f64 / raw_per_op_s.iter().sum::<f64>()),
        ("raw.op_p50_us", stats::median(&raw_per_op_s) * 1e6),
        ("raw.pooled_p95_us", pooled_raw.quantile(0.95)),
        ("cal.factor_p50", factors.median()),
        ("cal.factor_iqr", factors.quantile(0.75) - factors.quantile(0.25)),
    ];

    // The traced passes: same ops, spans on, never part of the end-to-end
    // numbers. What tracing costs on top is `trace.overhead_share`; both
    // sides of that comparison are two passes with each op charged the
    // faster one, or the host's noise (±5 % per pass) would drown it.
    let mut spans = Vec::new();
    if shape.trace {
        let (recorded, first) = traced_pass_checked::<W>(&mut state, Some(&reference[..]));
        let (_, second) = traced_pass_checked::<W>(&mut state, Some(&reference[..]));
        spans = recorded;
        tally.absorb(&first);
        tally.absorb(&second);
        // A traced pass may run a prefix of the op list (the served
        // workloads do); the untraced baseline is the same prefix.
        let traced_n = first.ops.len();
        let sum = |passes: &[&[Scaled]]| -> f64 {
            fastest(passes, traced_n, |s| s.reference).iter().sum()
        };
        let (traced, untraced) = (sum(&[&first.ops, &second.ops]), sum(&untraced));
        let rows = trace::ledger(&spans, true);
        let probes = trace::ledger(&spans, false);
        let op_total = trace::total_seconds(&rows, "op");
        per_layer.push(("trace.overhead_share", (traced - untraced) / untraced));
        per_layer.push(("ledger.residual_share", trace::self_seconds(&rows, "op") / op_total));
        per_layer.extend(W::ledger(&state, &rows, &probes, traced_n, per_op_us));
    }

    RunReport {
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        end_to_end,
        samples: n,
        tail_percentile,
        per_layer,
        spans,
    }
}
