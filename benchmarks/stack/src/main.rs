//! `stackbench` — one pinned, speed-normalised benchmark of the PITEX
//! stack: five workloads, six end-to-end metrics, a per-layer ledger.
//! README.md in this directory says why each rule and workload exists.

mod alloc;
mod cal;
mod fixtures;
mod harness;
mod instrument;
mod names;
mod probes;
mod stats;
mod sys;
mod trace;
mod workloads;

use fixtures::Sizes;
use harness::{RunReport, RunShape, Workload};
use names::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// `--seconds` when the caller gives none, and `run_seconds` of
/// `BENCHMARK.json`: five passes sized to about two seconds each.
const DEFAULT_SECONDS: u64 = 10;
/// Reference-speed seconds one pass of the frozen op lists is sized to.
const PASS_SECONDS: u64 = 2;
/// Untraced passes of a traced run: enough for the overhead baseline.
const TRACED_RUN_PASSES: usize = 2;

const USAGE: &str = "usage: stackbench --workload <name> [--seed <u64>] [--seconds <n>] \
[--trace [0|1]] [--quick] [--check]
       stackbench --all [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--quick] [--check]
       stackbench --calibrate
workloads: online_lazy index_plus live_repair serve_hit routed_miss";

struct Args {
    workload: Option<String>,
    all: bool,
    calibrate: bool,
    quick: bool,
    check: bool,
    trace: bool,
    seed: u64,
    seconds: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        calibrate: false,
        quick: false,
        check: false,
        trace: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                args.seed = v.parse().map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                args.seconds = v.parse().map_err(|_| format!("--seconds {v:?} is not a number"))?;
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--calibrate" => args.calibrate = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if args.all as u8 + args.workload.is_some() as u8 + args.calibrate as u8 != 1 {
        return Err("give exactly one of --workload, --all, --calibrate".to_string());
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("stackbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    sys::clear_pitex_env();
    // Unpinned, a loopback round trip is bimodal between runs (README,
    // rule 1): say so in the output instead of refusing to measure.
    let cpu = match sys::pin_to_last_cpu() {
        Ok(cpu) => cpu.to_string(),
        Err(e) => {
            eprintln!("stackbench: not pinned to a CPU ({e}); served timings will be bimodal");
            "unpinned".to_string()
        }
    };
    if args.calibrate {
        let best = (0..1_000).map(|_| cal::cal()).fold(f64::INFINITY, f64::min);
        println!(
            "cal() minimum over 1000 calls on cpu {cpu}: {best:.6} s (CAL_REF_S is {})",
            cal::CAL_REF_S
        );
        return ExitCode::SUCCESS;
    }
    if args.all {
        return run_all(&argv);
    }
    let workload = args.workload.as_deref().expect("checked by parse_args");
    let sizes = if args.quick { Sizes::QUICK } else { Sizes::FULL };
    // `--check` verifies and measures nothing, so it traces nothing either.
    let trace = args.trace && !args.check;
    let passes = if trace {
        TRACED_RUN_PASSES
    } else if args.quick {
        3
    } else {
        ((args.seconds / PASS_SECONDS) as usize).clamp(3, 10)
    };
    let shape = RunShape { seed: args.seed, passes, trace, check_only: args.check };
    println!(
        "# stackbench {workload} seed={} passes={passes} trace={} quick={} cpu={cpu} \
         CAL_REF_S={}",
        args.seed,
        trace as u8,
        args.quick as u8,
        cal::CAL_REF_S
    );
    let mut report = run_named(workload, &sizes, shape);
    if trace {
        print_ledger(&report);
        if let Err(e) = write_trace(workload, args.seed, &report) {
            eprintln!("stackbench: cannot write the trace: {e}");
            return ExitCode::from(2);
        }
        // Ledger rows of the layers this workload leaves idle are 0: no
        // work was done there. Rows the workload did fill come first, so
        // they win over a probe's row of the same name.
        for name in names::WORKLOAD_ROWS {
            if !report.per_layer.iter().any(|(n, _)| *n == name) {
                report.per_layer.push((name, 0.0));
            }
        }
        report.per_layer.extend(probes::run_all(&sizes));
    }
    finish(&report, trace, args.check)
}

fn run_named(workload: &str, sizes: &Sizes, shape: RunShape) -> RunReport {
    use workloads::index_plus::IndexPlus;
    use workloads::live_repair::LiveRepair;
    use workloads::online_lazy::OnlineLazy;
    use workloads::routed_miss::RoutedMiss;
    use workloads::serve_hit::ServeHit;
    match workload {
        OnlineLazy::NAME => harness::run::<OnlineLazy>(sizes, shape),
        IndexPlus::NAME => harness::run::<IndexPlus>(sizes, shape),
        LiveRepair::NAME => harness::run::<LiveRepair>(sizes, shape),
        ServeHit::NAME => harness::run::<ServeHit>(sizes, shape),
        RoutedMiss::NAME => harness::run::<RoutedMiss>(sizes, shape),
        _ => unreachable!("parse_args checked the name"),
    }
}

/// Runs the five workloads as child processes, one after the other, each
/// in a fresh process so `peak_rss_mb` is its own.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("stackbench: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let passthrough: Vec<&String> = argv.iter().filter(|a| *a != "--all").collect();
    let mut failed = false;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(&passthrough)
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("stackbench: {workload} exited with {status}");
                failed = true;
            }
            Err(e) => {
                eprintln!("stackbench: cannot run {workload}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The per-layer table of the traced pass: rows by span name, self times
/// summing to the op time; then the probes that ran alongside the ops.
fn print_ledger(report: &RunReport) {
    let rows = trace::ledger(&report.spans, true);
    let op_ns = rows.iter().find(|r| r.name == "op").map_or(1, |r| r.total_ns).max(1);
    println!("# ledger of the traced pass: self times sum to the op time, `op` is the residual");
    println!("# {:<16} {:>9} {:>14} {:>14} {:>8}", "span", "count", "total_us", "self_us", "share");
    for row in &rows {
        println!(
            "# {:<16} {:>9} {:>14.1} {:>14.1} {:>8.4}",
            row.name,
            row.count,
            row.total_ns as f64 / 1e3,
            row.self_ns as f64 / 1e3,
            row.self_ns as f64 / op_ns as f64
        );
    }
    for row in trace::ledger(&report.spans, false).iter().filter(|r| r.name.starts_with("probe.")) {
        println!(
            "# alongside: {:<16} {:>9} x {:>10.3} us",
            row.name,
            row.count,
            row.total_ns as f64 / 1e3 / row.count.max(1) as f64
        );
    }
}

fn write_trace(workload: &str, seed: u64, report: &RunReport) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, trace::to_json(workload, seed, &report.spans))?;
    println!("# {} spans written to {}", report.spans.len(), path.display());
    Ok(())
}

/// Prints every metric of the run's mode as `name value unit`, then the
/// one JSON object the driver reads off the last line.
fn finish(report: &RunReport, traced: bool, check_only: bool) -> ExitCode {
    let (specs, values): (&[MetricSpec], &[(&str, f64)]) = if check_only {
        (&[], &[])
    } else if traced {
        (PER_LAYER, &report.per_layer)
    } else {
        (&END_TO_END, &report.end_to_end)
    };
    println!(
        "# ops_attempted {} ops_ok {} ops_failed {} latency_samples {} tail_percentile p{}",
        report.attempted,
        report.attempted - report.failed.min(report.attempted),
        report.failed,
        report.samples,
        report.tail_percentile
    );
    if !traced && !check_only {
        for (name, value) in &report.per_layer {
            if name.starts_with("raw.") || name.starts_with("cal.") {
                println!("# {name} {value}");
            }
        }
    }
    if let Some(failure) = &report.first_failure {
        println!("# first failure: {failure}");
    }
    let mut correct = report.failed == 0;
    let mut json = String::new();
    for spec in specs {
        // A metric of the mode the run did not produce is a harness bug on
        // a traced run; workload rows of idle layers are filled in as 0.
        let value = values.iter().find(|(n, _)| *n == spec.name).map_or(f64::NAN, |(_, v)| *v);
        if !value.is_finite() {
            println!("# {} has no finite value", spec.name);
            correct = false;
            continue;
        }
        println!("{} {} {}", spec.name, value, spec.unit);
        let sep = if json.is_empty() { "" } else { "," };
        let _ =
            write!(json, "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}", spec.name, spec.unit);
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        report.attempted.max(1),
        report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
