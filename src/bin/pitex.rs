//! `pitex` — command-line interface for the PITEX library.
//!
//! ```text
//! pitex gen     --profile lastfm [--scale 0.5] --out model.bin
//! pitex stats   --model model.bin
//! pitex index   --model model.bin --out index.bin [--per-vertex 8] [--delay]
//! pitex query   --model model.bin --user 42 --k 3 [--backend lazy|mc|rr|tim|exact]
//!               [--index index.bin] [--top 5] [--epsilon 0.7] [--delta 1000]
//! pitex serve   --model model.bin [--port 7411] [--threads 4] [--backend lazy]
//! pitex update  --model model.bin --out new.bin (--ops FILE | --op "SET_EDGE 0 1 0:0.9")
//! pitex client  --addr 127.0.0.1:7411 --user 42 --k 3 | --stats [--json] | --shutdown
//!               | --bench | --update "OP…" | --admin epoch|reload
//!               | --trace --user 42 --k 3 | --metrics | --flight
//! pitex shardmap --out cluster.map --replicas "h:1,h:2;h:3,h:4" [--seed 42]
//! pitex router  --map cluster.map [--port 7400]
//! pitex top     --addr 127.0.0.1:7411 [--interval-ms 1000] [--count N] [--json]
//! pitex doctor  --addr 127.0.0.1:7400 [--map cluster.map] [--user N] [--k N]
//! pitex record  --addr 127.0.0.1:7411 (--on | --off | --rotate)
//! pitex replay  --addr 127.0.0.1:7411 (--log capture.pwrk [--verify] | --rate 500) [--json]
//! pitex repro   [--only fig7,table3] [--scale 0.1] [--queries 2]
//! ```
//!
//! The CLI covers the offline/online lifecycle end-to-end: generate (or
//! later: load) a model, build and persist an index, answer queries, run /
//! exercise the query server, mutate a model offline (`update`) or a
//! running server (`client --update` / `--admin reload`), and scale out:
//! `shardmap` writes the cluster's user-partitioning artifact and `router`
//! serves the same line protocol over many shard servers (`client` pointed
//! at a router works unchanged). `record`/`replay` close the loop on
//! production traffic: capture the arrival stream into a PWRK workload
//! log, replay it open-loop at recorded (or scaled, or synthetic Poisson)
//! pace, verify answers bit-identically, and attribute tail latency to
//! the serving phases. `repro` reproduces the paper's §7 tables and
//! figures.

use pitex::index::serial;
use pitex::live::{ops_from_file_bytes, repair_rr_index};
use pitex::prelude::*;
use pitex::serve::{
    schedule_from_log, CaptureAction, LoadGen, Replay, Response, ServeClient, ServeOptions, Server,
    SyntheticSchedule,
};
use pitex::support::obs::slo::{HealthVerdict, SloStatus};
use pitex::support::obs::timeseries::SeriesRes;
use pitex::support::obs::{format_trace_id, read_log};
use pitex::support::stats::{human_bytes, human_duration};
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A command failure: either a message for stderr, or a broken stdout pipe
/// (`pitex query | head -1`), which is a *success* — the consumer simply
/// stopped reading.
enum CliError {
    Msg(String),
    Pipe,
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Msg(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Msg(msg.to_string())
    }
}

/// `println!` that degrades a broken pipe into [`CliError::Pipe`] instead of
/// panicking (Rust's default `println!` aborts on SIGPIPE-turned-EPIPE).
fn write_stdout(args: std::fmt::Arguments) -> Result<(), CliError> {
    let mut out = std::io::stdout().lock();
    match out.write_fmt(args).and_then(|()| out.write_all(b"\n")) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Err(CliError::Pipe),
        Err(e) => Err(CliError::Msg(format!("writing to stdout: {e}"))),
    }
}

macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))?
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let run: fn(&Opts) -> Result<(), CliError> = match command.as_str() {
        "gen" => cmd_gen,
        "stats" => cmd_stats,
        "index" => cmd_index,
        "query" => cmd_query,
        "serve" => cmd_serve,
        "update" => cmd_update,
        "client" => cmd_client,
        "shardmap" => cmd_shardmap,
        "router" => cmd_router,
        "top" => cmd_top,
        "doctor" => cmd_doctor,
        "record" => cmd_record,
        "replay" => cmd_replay,
        "repro" => cmd_repro,
        "help" | "--help" | "-h" => |_: &Opts| write_stdout(format_args!("{USAGE}")),
        other => {
            eprintln!("error: unknown command {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let result = match parse_opts(command, rest) {
        Ok(opts) => run(&opts),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        // A closed pipe downstream is not an error; exit quietly.
        Ok(()) | Err(CliError::Pipe) => ExitCode::SUCCESS,
        Err(CliError::Msg(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "pitex — personalized social influential tags exploration (SIGMOD'17)

USAGE:
  pitex gen    --profile <lastfm|diggs|dblp|twitter> [--scale F] [--tags N] --out FILE
  pitex stats  --model FILE
  pitex index  --model FILE --out FILE [--per-vertex F] [--index-seed N] [--delay]
  pitex query  --model FILE --user N --k N [--backend NAME] [--index FILE]
               [--explain] [--timeout-us N] [--top N] [--epsilon F] [--delta F] [--seed N]
  pitex serve  --model FILE [--backend NAME] [--index FILE] [--port N] [--threads N]
               [--cache N] [--queue N] [--deadline-ms N] [--epsilon F] [--delta F] [--seed N]
               [--dirty-threshold F] [--no-admin] [--wal DIR]
  pitex update --model FILE --out FILE (--ops FILE | --op \"SET_EDGE 0 1 0:0.9\")
               [--index FILE --index-out FILE [--dirty-threshold F]]
  pitex client --addr HOST:PORT [--binary] (--user N --k N [--timeout-us N] [--repeat N]
               [--backend NAME] [--explain] [--trace]
               | --stats [--json] | --metrics | --flight | --ping | --shutdown
               | --update \"OP...\" | --admin epoch|reload
               | --bench [--clients N] [--requests N] [--user N] [--k N]
                 [--backend NAME] [--pipeline N])
  pitex shardmap (--out FILE --replicas \"A:P,A:P;A:P,A:P\" [--seed N] [--binary]
               | --map FILE [--user N])
  pitex router --map FILE [--port N] [--max-in-flight N] [--idle-conns N]
               [--probe-ms N] [--no-admin]
  pitex top    --addr HOST:PORT [--interval-ms N] [--count N] [--json]
  pitex doctor --addr HOST:PORT [--map FILE] [--user N] [--k N]
  pitex record --addr HOST:PORT (--on | --off | --rotate)
  pitex replay --addr HOST:PORT (--log FILE [--speed F] [--verify]
               | --rate F [--requests N] [--users N] [--zipf F] [--burst N]
                 [--update-every N] [--k N] [--seed N])
               [--conns N] [--trace-every N] [--backend NAME] [--timeout-us N]
               [--binary] [--json]
  pitex repro  [--only NAME,...] [--scale F] [--queries N]

OBSERVABILITY: `client --trace` runs one traced query and prints its span
          timeline (through a router: `shard.*` spans show the hop);
          `client --metrics` scrapes Prometheus text exposition;
          `client --flight` dumps the flight recorder (admin-gated);
          `top` is a live terminal dashboard over STATS + FLIGHT, with
          rolling sparklines from the SERIES time-series rings
          (`top --json` prints one machine-readable snapshot and exits);
          `replay --json` prints the replay report the same way.
          The ring keeps the last 256 requests; PITEX_OBS_SLOW_US sets
          the slow-query threshold (0 = off).

HEALTH:   every server and router keeps rolling time-series of its stats
          fields (PITEX_OBS_TS_TICK_MS per tick; SERIES <field>
          fast|mid dumps a ring) and evaluates SLO burn rates over
          them (99.9% of requests ok and under 100 ms; the windows are
          PITEX_SLO_FAST_WINDOWS / PITEX_SLO_SLOW_WINDOWS; HEALTH
          answers ok|warn|page with the tripping window + burn). The
          same listener answers HTTP: GET /metrics, /health (503 on page), /series?field=NAME.
          `doctor` probes every hop (--map adds each shard replica),
          ranks the burning objectives, and traces the worst hop to name
          the slow phase. PITEX_OBS_STALL_US=N injects an N-us execute
          stall (fault drill).

CAPTURE:  PITEX_OBS_CAPTURE=FILE makes a server (or router) record
          admitted requests into a PWRK workload log;
          PITEX_OBS_CAPTURE_RATE=N keeps 1-in-N (default: every one).
          `record` toggles or rotates the log at runtime (admin-gated).
          `replay --log` re-issues a recording OPEN-LOOP — latency measured from each
          request's scheduled arrival, so stalls show up in the tail
          instead of being coordinated-omitted away — with `--verify`
          asserting bit-identical answers; `replay --rate` synthesizes
          Poisson arrivals with Zipf user skew. Both print a per-phase
          (queue/plan/cache/execute/net) latency attribution from a
          traced sample (every `--trace-every`-th request).

INDEX:    `index` writes a `PRRI` v3 artifact (header + one dump per
          512-draw segment; `--delay` writes `PDLY` v2). Artifacts of an
          earlier format are refused with \"unsupported version\" —
          rebuild them with `pitex index`.

BACKENDS (--backend): lazy (default), mc, rr, tim, exact,
         indexest / indexest+ / delaymat (require --index),
         auto — the cost-based planner picks per query (an --index widens
         its options); --explain prints the decision it made.

SHARDMAP: --replicas lists shards separated by ';', each shard its replica
          addresses separated by ','. A router is a drop-in single server:
          point `pitex client` at it unchanged.

WIRE:     `client --binary` / `replay --binary` speak the pipelined
          PFRM binary frame protocol; servers and routers auto-detect
          text, binary and HTTP per connection on one port. The router->shard hop is always binary. `client --bench
          --binary --pipeline N` keeps N queries in flight per connection.

WAL:      `serve --wal DIR` persists every acknowledged UPDATE to an
          epoch-stamped log (fsynced before the ack); a restart replays it
          and resumes at the pre-crash epoch. Past 64 MiB or 65 536 ops
          the log compacts into DIR's base snapshot.

REPRO:    runs each §7 experiment once and prints the tables and figures
          it feeds (fig6..fig14, table2..table4, ablation-cut-policy,
          ablation-lazy-sparsity, ablation-stopping-rule); --scale
          multiplies the dataset sizes (default 1), --queries sets the
          query users per cell (default 3).

UPDATE OPS: ADD_EDGE s d z:p[,z:p..] | REMOVE_EDGE s d | SET_EDGE s d z:p[,..]
            | ATTACH_TAG w z:p[,..] | DETACH_TAG w | ADD_USER  ('-' = empty row)";

type Opts = HashMap<String, String>;

/// Flags that take no value.
const BOOL_FLAGS: [&str; 16] = [
    "delay", "stats", "ping", "shutdown", "bench", "json", "no-admin", "binary", "explain",
    "trace", "metrics", "flight", "verify", "on", "off", "rotate",
];

/// The flags `pitex <command>` documents: every `--flag` of its `USAGE`
/// entry, the line naming the command and the indented lines under it.
fn usage_flags(command: &str) -> Vec<&'static str> {
    let head = format!("  pitex {command} ");
    let mut entry = USAGE.lines().skip_while(|line| !line.starts_with(&head));
    entry
        .next()
        .into_iter()
        .chain(entry.take_while(|line| line.starts_with("    ")))
        .flat_map(|line| line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
        .filter_map(|word| word.strip_prefix("--"))
        .filter(|flag| !flag.is_empty())
        .collect()
}

/// Parses `pitex <command>`'s arguments, refusing any flag its `USAGE`
/// entry does not document (a misspelled flag must not be ignored).
fn parse_opts(command: &str, args: &[String]) -> Result<Opts, String> {
    let documented = usage_flags(command);
    let mut opts = Opts::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, found {flag:?}"));
        };
        if !documented.contains(&key) {
            return Err(format!("unknown flag --{key} for `pitex {command}`"));
        }
        if BOOL_FLAGS.contains(&key) {
            opts.insert(key.to_string(), "true".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    Ok(opts)
}

fn want<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key).map(|s| s.as_str()).ok_or_else(|| format!("missing --{key}"))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {what} from {s:?}"))
}

/// `--flag VALUE` parsed, `None` when the flag is absent.
fn opt<T: std::str::FromStr>(opts: &Opts, flag: &str) -> Result<Option<T>, String> {
    opts.get(flag).map(|s| parse(s, &format!("--{flag}"))).transpose()
}

/// `--flag N` for a flag where zero would break the hop (shed every query,
/// spin the prober, refuse every deadline-less query): `None` when absent.
fn positive(opts: &Opts, flag: &str) -> Result<Option<u64>, String> {
    match opt(opts, flag)? {
        Some(0) => Err(format!("--{flag} must be at least 1")),
        n => Ok(n),
    }
}

fn load_model(opts: &Opts) -> Result<TicModel, String> {
    let path = want(opts, "model")?;
    pitex::model::serial::load(path).map_err(|e| format!("loading {path}: {e}"))
}

fn cmd_gen(opts: &Opts) -> Result<(), CliError> {
    let profile_name = want(opts, "profile")?;
    let mut profile = match profile_name {
        "lastfm" => DatasetProfile::lastfm_like(),
        "diggs" => DatasetProfile::diggs_like(),
        "dblp" => DatasetProfile::dblp_like(),
        "twitter" => DatasetProfile::twitter_like(),
        other => return Err(format!("unknown profile {other:?}").into()),
    };
    if let Some(scale) = opt(opts, "scale")? {
        profile = profile.scaled(scale);
    }
    if let Some(tags) = opt(opts, "tags")? {
        profile = profile.with_tags(tags);
    }
    let out = want(opts, "out")?;
    let t = Instant::now();
    let model = profile.generate();
    pitex::model::serial::save(&model, out).map_err(|e| e.to_string())?;
    outln!(
        "generated {}: {} users, {} edges, {} tags, {} topics -> {out} in {}",
        profile.name,
        model.graph().num_nodes(),
        model.graph().num_edges(),
        model.num_tags(),
        model.num_topics(),
        human_duration(t.elapsed())
    );
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), CliError> {
    let model = load_model(opts)?;
    let stats = pitex::datasets::DatasetStats::compute(want(opts, "model")?, &model);
    outln!("{}", pitex::datasets::DatasetStats::header());
    outln!("{stats}");
    outln!("model heap footprint: {}", human_bytes(model.heap_bytes()));
    Ok(())
}

fn cmd_index(opts: &Opts) -> Result<(), CliError> {
    let model = load_model(opts)?;
    let out = want(opts, "out")?;
    let per_vertex: f64 = opt(opts, "per-vertex")?.unwrap_or(8.0);
    // The index sampling seed. `serve`/`update` repair the index under the
    // same `--index-seed` flag and default, so repairs stay bit-identical
    // to rebuilds without the user threading a value through.
    let index_seed: u64 = opt(opts, "index-seed")?.unwrap_or(42);
    let budget = IndexBudget::PerVertex(per_vertex);
    let t = Instant::now();
    let bytes = if opts.contains_key("delay") {
        let index = DelayMatIndex::build(&model, budget, index_seed);
        serial::delay_index_to_bytes(&index)
    } else {
        let index = RrIndex::build(&model, budget, index_seed);
        serial::rr_index_to_bytes(&index)
    };
    std::fs::write(out, &bytes).map_err(|e| e.to_string())?;
    outln!(
        "built {} index: {} -> {out} in {}",
        if opts.contains_key("delay") { "delay-materialized" } else { "RR-Graph" },
        human_bytes(bytes.len() as u64),
        human_duration(t.elapsed())
    );
    Ok(())
}

fn cmd_query(opts: &Opts) -> Result<(), CliError> {
    let user: u32 = parse(want(opts, "user")?, "--user")?;
    let k: usize = parse(want(opts, "k")?, "--k")?;
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    let top: usize = opt(opts, "top")?.unwrap_or(1);
    let explain = opts.contains_key("explain");
    let timeout_us: Option<u64> = opt(opts, "timeout-us")?;
    let budget = timeout_us.map(Duration::from_micros);
    let handle = build_handle(opts)?;
    let nodes = handle.model().graph().num_nodes();
    if (user as usize) >= nodes {
        return Err(format!("user {user} out of range (|V| = {nodes})").into());
    }

    let t = Instant::now();
    if top <= 1 {
        let (result, decision) = if handle.backend() == EngineBackend::Auto {
            let (result, decision) = handle.query_auto(user, k, budget);
            (result, Some(decision))
        } else {
            (handle.engine().query(user, k), None)
        };
        let backend = decision.as_ref().map(|d| d.chosen).unwrap_or_else(|| handle.backend());
        outln!(
            "W* = {} with spread {:.4} [{} backend, {}]",
            result.tags,
            result.spread,
            backend.label(),
            human_duration(t.elapsed())
        );
        print_work(&result.stats)?;
        if explain {
            print_plan(&handle, user, k, decision, result.stats.elapsed)?;
        }
    } else {
        // A ranking resolves the backend once (per-candidate replanning
        // would let the ranking mix estimators mid-list).
        let decision =
            (handle.backend() == EngineBackend::Auto).then(|| handle.plan(user, k, budget));
        let backend = decision.as_ref().map(|d| d.chosen).unwrap_or_else(|| handle.backend());
        let mut engine = handle.engine_for(backend).map_err(|e| CliError::Msg(e.to_string()))?;
        let (ranking, stats) = engine.query_top_n(user, k, top);
        outln!(
            "top-{top} tag sets [{} backend, {}]:",
            backend.label(),
            human_duration(t.elapsed())
        );
        for (rank, (tags, spread)) in ranking.iter().enumerate() {
            outln!("  {:>2}. {tags}  spread {spread:.4}", rank + 1);
        }
        print_work(&stats)?;
        if explain {
            print_plan(&handle, user, k, decision, t.elapsed())?;
        }
    }
    Ok(())
}

/// The work line both `query` paths print under the answer.
fn print_work(stats: &QueryStats) -> Result<(), CliError> {
    outln!(
        "evaluated {} sets, {} infeasible, {} subtrees pruned, {} samples, {} edge probes",
        stats.tag_sets_evaluated,
        stats.tag_sets_infeasible,
        stats.partials_pruned,
        stats.samples_used,
        stats.edges_visited
    );
    Ok(())
}

/// `--explain`: print the planner's decision next to the answer. A forced
/// backend gets a trivial decision (what the planner would have predicted
/// for it); `auto` shows the real one, rejected alternatives included.
fn print_plan(
    handle: &EngineHandle,
    user: u32,
    k: usize,
    decision: Option<pitex::core::PlanDecision>,
    actual: Duration,
) -> Result<(), CliError> {
    let decision = decision.unwrap_or_else(|| pitex::core::PlanDecision {
        chosen: handle.backend(),
        predicted_us: handle.predicted_us(handle.backend(), user, k),
        degraded: false,
        rejected: Vec::new(),
    });
    outln!(
        "plan: {} (predicted {}us, actual {}us{})",
        decision.chosen.label(),
        decision.predicted_us,
        actual.as_micros(),
        if decision.degraded { ", DEGRADED to fit the deadline" } else { "" }
    );
    for rejected in &decision.rejected {
        let predicted = rejected
            .predicted_us
            .map(|us| format!("predicted {us}us"))
            .unwrap_or_else(|| "not costable".to_string());
        outln!(
            "  rejected {}: {} ({})",
            rejected.backend.label(),
            predicted,
            rejected.reason.as_str()
        );
    }
    Ok(())
}

/// Shared by `query` and `serve`: accuracy/seed flags → engine config.
fn config_from_opts(opts: &Opts) -> Result<PitexConfig, String> {
    Ok(PitexConfig {
        epsilon: opt(opts, "epsilon")?.unwrap_or(0.7),
        delta: opt(opts, "delta")?.unwrap_or(1000.0),
        seed: opt(opts, "seed")?.unwrap_or(42),
        strategy: ExplorationStrategy::BestEffort,
    })
}

/// Shared by `query`, `client` and `serve`: resolves the `--backend` name;
/// an unknown name lists every valid method from the backend registry.
fn backend_from_opts(opts: &Opts) -> Result<EngineBackend, String> {
    let method = opts.get("backend").map(|s| s.as_str()).unwrap_or("lazy");
    EngineBackend::parse(method).ok_or_else(|| {
        format!("unknown method {method:?} (valid: {})", pitex::core::registry::method_names())
    })
}

/// Shared by `query` and `serve`: loads `--model` and (only when the
/// backend can use it) `--index` into an owned engine handle. A fixed
/// index backend *requires* `--index`; `auto` *accepts* one of either kind
/// (sniffed by magic) to widen the planner's options.
fn build_handle(opts: &Opts) -> Result<EngineHandle, CliError> {
    let backend = backend_from_opts(opts)?;
    let config = config_from_opts(opts)?;
    let model = Arc::new(load_model(opts)?);

    let mut rr_index = None;
    let mut delay_index = None;
    if backend.needs_rr_index() || backend.needs_delay_index() {
        let path = opts
            .get("index")
            .ok_or_else(|| format!("{} needs --index FILE", backend.cli_name()))?;
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        if backend.needs_delay_index() {
            delay_index =
                Some(Arc::new(serial::delay_index_from_bytes(&bytes).map_err(|e| e.to_string())?));
        } else {
            rr_index =
                Some(Arc::new(serial::rr_index_from_bytes(&bytes).map_err(|e| e.to_string())?));
        }
    } else if backend == EngineBackend::Auto {
        if let Some(path) = opts.get("index") {
            let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
            match serial::index_kind(&bytes) {
                Some(serial::IndexKind::Rr) => {
                    rr_index = Some(Arc::new(
                        serial::rr_index_from_bytes(&bytes).map_err(|e| e.to_string())?,
                    ));
                }
                Some(serial::IndexKind::Delay) => {
                    delay_index = Some(Arc::new(
                        serial::delay_index_from_bytes(&bytes).map_err(|e| e.to_string())?,
                    ));
                }
                None => return Err(format!("{path} is not a pitex index artifact").into()),
            }
        }
    }
    EngineHandle::with_indexes(model, backend, rr_index, delay_index, config)
        .map_err(|e| CliError::Msg(e.to_string()))
}

/// Shared by `serve` and `update`: index-repair tuning. The sample budget
/// and seed are *not* flags here — they travel inside the index artifact
/// (written by `pitex index`), so repair always reproduces the exact
/// streams the index was built from.
fn repair_from_opts(opts: &Opts) -> Result<RepairOptions, String> {
    let mut repair = RepairOptions::default();
    if let Some(t) = opts.get("dirty-threshold") {
        repair.dirty_threshold = parse(t, "--dirty-threshold")?;
        if !RepairOptions::is_valid_threshold(repair.dirty_threshold) {
            return Err(format!("--dirty-threshold must be a fraction in [0, 1], got {t:?}"));
        }
    }
    Ok(repair)
}

fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    let handle = build_handle(opts)?;
    let backend = handle.backend();
    let port: u16 = opt(opts, "port")?.unwrap_or(0);
    let options = ServeOptions {
        workers: opt(opts, "threads")?.unwrap_or(4),
        queue_depth: opt(opts, "queue")?.unwrap_or(64),
        default_deadline: Duration::from_millis(positive(opts, "deadline-ms")?.unwrap_or(5_000)),
        cache_capacity: opt(opts, "cache")?.unwrap_or(1024),
        admin: !opts.contains_key("no-admin"),
        repair: repair_from_opts(opts)?,
        wal: opts.get("wal").map(std::path::PathBuf::from),
        capture: None,    // read PITEX_OBS_CAPTURE from the environment
        event_loop: None, // the platform default: epoll where there is a poller
    };
    let server = Server::spawn(handle, ("127.0.0.1", port), options.clone())
        .map_err(|e| format!("starting on 127.0.0.1:{port}: {e}"))?;
    // One parseable line for scripts (stdout is line-buffered: flushed now),
    // then block until a client sends SHUTDOWN.
    outln!(
        "pitex_serve listening on {} [{} backend, {} workers, queue {}, cache {}, deadline {}{}]",
        server.addr(),
        backend.label(),
        options.workers.max(1),
        options.queue_depth,
        options.cache_capacity,
        human_duration(options.default_deadline),
        match &options.wal {
            Some(dir) => format!(", wal {}", dir.display()),
            None => String::new(),
        }
    );
    server.join().map_err(|_| "a server thread panicked".to_string())?;
    outln!("pitex_serve stopped");
    Ok(())
}

/// `pitex update`: apply an ops file (binary `PLOG` or text, see `--help`)
/// or a single inline op to a model offline, writing the compacted model —
/// and, when `--index`/`--index-out` are given, incrementally repairing
/// the RR-Graph index to match.
fn cmd_update(opts: &Opts) -> Result<(), CliError> {
    // Flag validation up front, before anything is written to disk.
    if opts.contains_key("index-out") && !opts.contains_key("index") {
        return Err("--index-out needs --index FILE to repair from".into());
    }
    if opts.contains_key("index") && !opts.contains_key("index-out") {
        return Err("--index needs --index-out FILE for the repaired index".into());
    }
    let model = Arc::new(load_model(opts)?);
    let out = want(opts, "out")?;
    let ops = match (opts.get("ops"), opts.get("op")) {
        (Some(path), None) => {
            let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
            ops_from_file_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?
        }
        (None, Some(text)) => vec![UpdateOp::parse_text(text)?],
        _ => return Err("update needs exactly one of --ops FILE or --op \"TEXT\"".into()),
    };

    // Load and decode the old index *before* writing anything: a bad
    // --index file must not leave a mutated model beside a stale index.
    let old_index = match opts.get("index") {
        Some(index_path) => {
            let bytes =
                std::fs::read(index_path).map_err(|e| format!("reading {index_path}: {e}"))?;
            Some(serial::rr_index_from_bytes(&bytes).map_err(|e| format!("{index_path}: {e}"))?)
        }
        None => None,
    };

    let mut overlay = ModelOverlay::new(model.clone());
    let count = ops.len();
    overlay.apply_all(ops).map_err(|(i, e)| format!("op {} of {count} rejected: {e}", i + 1))?;
    let t = Instant::now();
    let new_model = overlay.compact();
    pitex::model::serial::save(&new_model, out).map_err(|e| e.to_string())?;
    outln!(
        "applied {count} ops: {} users, {} edges, {} tags -> {out} in {}",
        new_model.graph().num_nodes(),
        new_model.graph().num_edges(),
        new_model.num_tags(),
        human_duration(t.elapsed())
    );

    if let Some(old_index) = old_index {
        let index_out = want(opts, "index-out")?;
        let repair = repair_from_opts(opts)?;
        let t = Instant::now();
        let (repaired, report) = repair_rr_index(&old_index, &model, &new_model, &repair);
        let bytes = serial::rr_index_to_bytes(&repaired);
        std::fs::write(index_out, &bytes).map_err(|e| e.to_string())?;
        if report.full_rebuild {
            outln!(
                "index rebuilt in full ({}): {} graphs, {} -> {index_out} in {}",
                report.reason.as_deref().unwrap_or("unknown"),
                report.theta,
                human_bytes(bytes.len() as u64),
                human_duration(t.elapsed())
            );
        } else {
            outln!(
                "index repaired: {} of {} graphs resampled ({} reused) -> {index_out} in {}",
                report.resampled,
                report.theta,
                report.reused,
                human_duration(t.elapsed())
            );
        }
    }
    Ok(())
}

/// `pitex shardmap`: write the cluster's user-partitioning artifact from a
/// `--replicas` spec, or inspect an existing map (optionally answering
/// which shard owns `--user`).
fn cmd_shardmap(opts: &Opts) -> Result<(), CliError> {
    if let Some(path) = opts.get("map") {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let map = ShardMap::from_file_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
        if let Some(user) = opt::<u32>(opts, "user")? {
            let shard = map.shard_of(user);
            outln!("user {user} -> shard {shard} [{}]", map.replicas(shard).join(" "));
        } else {
            outln!("{}", map.to_text().trim_end());
        }
        return Ok(());
    }
    let spec = want(opts, "replicas")?;
    let shards: Vec<Vec<String>> = spec
        .split(';')
        .map(|shard| {
            shard
                .split(',')
                .map(|addr| addr.trim().to_string())
                .filter(|addr| !addr.is_empty())
                .collect()
        })
        .collect();
    let seed: u64 = opt(opts, "seed")?.unwrap_or(42);
    let map = ShardMap::with_seed(shards, seed)?;
    let out = want(opts, "out")?;
    let bytes =
        if opts.contains_key("binary") { map.to_bytes() } else { map.to_text().into_bytes() };
    std::fs::write(out, &bytes).map_err(|e| e.to_string())?;
    outln!(
        "wrote shard map: {} shards, {} replicas, seed {} -> {out}",
        map.num_shards(),
        map.num_replicas(),
        map.seed()
    );
    Ok(())
}

/// `pitex router`: serve the `pitex serve` line protocol over the shards
/// of a map file — scatter-gather front-end, health-gated failover, and
/// the cluster-wide reload barrier.
fn cmd_router(opts: &Opts) -> Result<(), CliError> {
    let path = want(opts, "map")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let map = ShardMap::from_file_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let port: u16 = opt(opts, "port")?.unwrap_or(0);
    let mut options = RouterOptions::default();
    if let Some(n) = positive(opts, "max-in-flight")? {
        options.pool.max_in_flight = n as usize;
    }
    if let Some(n) = opt(opts, "idle-conns")? {
        options.pool.idle_per_replica = n;
    }
    if let Some(n) = positive(opts, "probe-ms")? {
        options.probe_interval = Duration::from_millis(n);
    }
    options.admin = !opts.contains_key("no-admin");
    let shards = map.num_shards();
    let replicas = map.num_replicas();
    let router = Router::spawn(map, ("127.0.0.1", port), options)
        .map_err(|e| format!("starting on 127.0.0.1:{port}: {e}"))?;
    // One parseable line for scripts, then block until SHUTDOWN.
    outln!("pitex_router listening on {} [{shards} shards, {replicas} replicas]", router.addr());
    router.join().map_err(|_| "a router thread panicked".to_string())?;
    outln!("pitex_router stopped");
    Ok(())
}

/// `pitex top` — a `watch`-style terminal dashboard over `STATS` and
/// `FLIGHT`. Works identically against a single server and a router (where
/// the stats are the cluster-wide merge). `--count N` renders N frames and
/// exits (N=0, the default, runs until interrupted); frames after the
/// first start with an ANSI clear so the view updates in place. `--json`
/// prints a single machine-readable snapshot (one JSON object, numbers
/// unquoted — `pitex top --json | jq .qps`) and exits.
fn cmd_top(opts: &Opts) -> Result<(), CliError> {
    let addr = want(opts, "addr")?;
    let interval_ms: u64 = opt(opts, "interval-ms")?.unwrap_or(1000);
    let count: u64 = opt(opts, "count")?.unwrap_or(0);
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    if opts.contains_key("json") {
        let stats = client.stats().map_err(|e| format!("STATS failed: {e}"))?;
        outln!("{}", stats_json(&stats));
        return Ok(());
    }
    let mut frame = 0u64;
    loop {
        let stats = client.stats().map_err(|e| format!("STATS failed: {e}"))?;
        // FLIGHT is admin-gated; a denial just leaves the panel out.
        let flight = client.flight().ok();
        if frame > 0 {
            outln!("\x1b[2J\x1b[H");
        }
        let get = |key: &str| stats.get(key).unwrap_or("-").to_string();
        outln!("pitex top — {addr}  epoch {}  backend {}", get("epoch"), get("backend"));
        if stats.get("shards").is_some() {
            outln!(
                "cluster: {} shards, {}/{} replicas up, {} failovers, {} probes ({} failed)",
                get("shards"),
                get("replicas_up"),
                get("replicas"),
                get("router_failovers"),
                get("router_probes"),
                get("router_probe_failures")
            );
        }
        outln!(
            "requests {}  ok {}  busy {}  deadline {}  errors {}  qps {}",
            get("requests"),
            get("ok"),
            get("busy"),
            get("deadline"),
            get("errors"),
            get("qps")
        );
        outln!(
            "latency p50 {}us  p90 {}us  p99 {}us  mean {}us",
            get("lat_p50_us"),
            get("lat_p90_us"),
            get("lat_p99_us"),
            get("lat_mean_us")
        );
        // Rolling sparklines from the SERIES rings. A router answers with
        // its own fields (router_*); a shard with the serving set. Absent
        // rings (server younger than one tick) just omit the panel.
        let cluster = stats.get("shards").is_some();
        let (req_field, p99_field) = if cluster {
            ("router_requests", "router_lat_p99_us")
        } else {
            ("requests", "lat_p99_us")
        };
        for (label, field) in [("req/tick", req_field), ("p99 us  ", p99_field)] {
            let points = client
                .series(field, Some(SeriesRes::Fast))
                .ok()
                .and_then(|reply| reply.scalar_points());
            if let Some(points) = points.filter(|p| !p.is_empty()) {
                let tail = &points[points.len().saturating_sub(30)..];
                outln!("{label}  {}  now {}", sparkline(tail), tail.last().unwrap());
            }
        }
        outln!(
            "cache: {} entries, {} hits / {} misses (rate {})",
            get("cache_len"),
            get("cache_hits"),
            get("cache_misses"),
            get("cache_hit_rate")
        );
        if let Some(reply) = &flight {
            outln!(
                "flight: {} recorded, {} slow — most recent first:",
                reply.recorded,
                reply.slow_count
            );
            for e in reply.entries.iter().rev().take(15) {
                outln!(
                    "  {} {:<7} user {:>6} k {} [{}] {} in {}us",
                    format_trace_id(e.trace_id),
                    e.verb,
                    e.user,
                    e.k,
                    e.backend,
                    e.outcome,
                    e.us
                );
            }
        }
        frame += 1;
        if count != 0 && frame >= count {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms.max(50)));
    }
}

/// Renders values as a one-line unicode sparkline, scaled to the max.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|v| {
            if max <= 0.0 || !v.is_finite() {
                BARS[0]
            } else {
                BARS[(((v / max) * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// One probed hop of a `doctor` run: the front door, or (with `--map`) a
/// shard replica probed directly.
struct DoctorHop {
    label: String,
    addr: String,
    verdict: Result<HealthVerdict, String>,
}

/// `pitex doctor` — one-shot triage across every hop of a deployment.
/// Pulls `HEALTH` from the front door (against a router that is already
/// the merged cluster verdict) and, with `--map`, from every shard replica
/// directly; prints each hop's verdict, ranks the burning objectives
/// worst-first, and runs one traced query against the worst hop so the
/// diagnosis ends with *which phase* is slow there — a stalled shard shows
/// `execute` at the top. `--user`/`--k` pick the traced query (choose a
/// cold key: a cache hit skips the execute phase being diagnosed).
fn cmd_doctor(opts: &Opts) -> Result<(), CliError> {
    let addr = want(opts, "addr")?;
    let user: u32 = opt(opts, "user")?.unwrap_or(0);
    let k: usize = opt(opts, "k")?.unwrap_or(2);

    let mut targets: Vec<(String, String)> = vec![("front".to_string(), addr.to_string())];
    if let Some(path) = opts.get("map") {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let map = ShardMap::from_file_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
        for shard in 0..map.num_shards() {
            for replica in map.replicas(shard) {
                targets.push((format!("shard{shard}"), replica.clone()));
            }
        }
    }

    let hops: Vec<DoctorHop> = targets
        .into_iter()
        .map(|(label, addr)| {
            let verdict = ServeClient::connect(&addr)
                .and_then(|mut client| client.health())
                .map_err(|e| e.to_string());
            DoctorHop { label, addr, verdict }
        })
        .collect();

    outln!("doctor — {} hop(s) probed", hops.len());
    for hop in &hops {
        match &hop.verdict {
            Ok(v) if v.status == SloStatus::Ok => {
                outln!("  {:<8} {:<21} ok", hop.label, hop.addr);
            }
            Ok(v) => {
                outln!(
                    "  {:<8} {:<21} {}  worst={}",
                    hop.label,
                    hop.addr,
                    v.status.name(),
                    v.worst
                );
            }
            Err(e) => outln!("  {:<8} {:<21} UNREACHABLE ({e})", hop.label, hop.addr),
        }
    }

    // Rank every objective across every hop, worst burn first. The front
    // door's merged verdict already carries per-origin evidence (shardN /
    // router), so even without --map the diagnosis names the component.
    let mut burning: Vec<(String, &pitex::support::obs::slo::SloVerdict)> = Vec::new();
    for hop in &hops {
        if let Ok(verdict) = &hop.verdict {
            for slo in &verdict.slos {
                if slo.status != SloStatus::Ok {
                    let whom = if slo.origin == "self" {
                        hop.label.clone()
                    } else {
                        format!("{}/{}", hop.label, slo.origin)
                    };
                    burning.push((whom, slo));
                }
            }
        }
    }
    burning.sort_by(|a, b| {
        b.1.status
            .cmp(&a.1.status)
            .then(b.1.burn.partial_cmp(&a.1.burn).unwrap_or(std::cmp::Ordering::Equal))
    });
    if burning.is_empty() && hops.iter().all(|h| h.verdict.is_ok()) {
        outln!("diagnosis: no objective is burning — all hops ok");
        return Ok(());
    }
    outln!("diagnosis:");
    for (rank, (whom, slo)) in burning.iter().enumerate() {
        outln!(
            "  {}. {whom} {}: {} ({} window, burn {:.2}, field {})",
            rank + 1,
            slo.name,
            slo.status.name(),
            slo.window,
            slo.burn,
            slo.field
        );
    }
    for hop in hops.iter().filter(|h| h.verdict.is_err()) {
        outln!("  ({} at {} is unreachable — start there)", hop.label, hop.addr);
    }

    // Phase attribution: trace one query against the worst reachable hop
    // (prefer a directly-probed shard over the front door — its spans name
    // the shard's own phases without the hop overhead in the way).
    let worst = hops
        .iter()
        .filter_map(|h| h.verdict.as_ref().ok().map(|v| (h, v)))
        .filter(|(_, v)| v.status != SloStatus::Ok)
        .max_by(|a, b| {
            a.1.status
                .cmp(&b.1.status)
                .then_with(|| (a.0.label != "front").cmp(&(b.0.label != "front")))
        });
    if let Some((hop, _)) = worst {
        let traced = ServeClient::connect(&hop.addr)
            .and_then(|mut client| client.trace(user, k, None, None, None));
        match traced {
            Ok(reply) => {
                let mut spans = reply.spans.clone();
                spans.sort_by_key(|span| std::cmp::Reverse(span.dur_us));
                outln!("slowest phases at {} ({}), one traced query:", hop.label, hop.addr);
                for span in spans.iter().take(6) {
                    outln!("  {:>9}us  {}", span.dur_us, span.name);
                }
            }
            Err(e) => outln!("(could not trace {} at {}: {e})", hop.label, hop.addr),
        }
    }
    Ok(())
}

/// `pitex repro`: the §7 experiments, each run once for every artifact
/// `--only` asks for (all of them by default).
fn cmd_repro(opts: &Opts) -> Result<(), CliError> {
    let mut env = pitex::bench::BenchEnv::default();
    if let Some(scale) = opt(opts, "scale")? {
        env.scale = scale;
    }
    if !(env.scale.is_finite() && env.scale > 0.0) {
        return Err("--scale must be finite and greater than 0".into());
    }
    if let Some(n) = positive(opts, "queries")? {
        env.queries = n as usize;
    }
    let only: Vec<&str> = opts.get("only").map_or(Vec::new(), |v| v.split(',').collect());
    Ok(pitex::bench::repro::run(&env, &only)?)
}

/// `pitex record`: control a server's (or router's) PWRK workload
/// recorder over the admin `CAPTURE` verb. The target process must have
/// been started with `PITEX_OBS_CAPTURE=FILE`; `--rotate` renames the
/// live log aside (`FILE.1`, `FILE.2`, …) and starts a fresh one — the
/// rotated file is what `pitex replay --log` wants.
fn cmd_record(opts: &Opts) -> Result<(), CliError> {
    let addr = want(opts, "addr")?;
    let action =
        match (opts.contains_key("on"), opts.contains_key("off"), opts.contains_key("rotate")) {
            (true, false, false) => CaptureAction::On,
            (false, true, false) => CaptureAction::Off,
            (false, false, true) => CaptureAction::Rotate,
            _ => return Err("record needs exactly one of --on | --off | --rotate".into()),
        };
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let (enabled, recorded, dropped) =
        client.capture(action).map_err(|e| format!("capture failed: {e}"))?;
    outln!(
        "capture {}: {recorded} recorded, {dropped} dropped",
        if enabled { "on" } else { "off" }
    );
    Ok(())
}

/// `pitex replay`: drive a server (or router) open-loop from a PWRK
/// recording (`--log`, recorded pace scaled by `--speed`) or a synthetic
/// Poisson/Zipf schedule (`--rate`), print the latency-attribution
/// report, and — under `--log --verify` — exit nonzero unless every
/// compared answer is bit-identical to the recording.
fn cmd_replay(opts: &Opts) -> Result<(), CliError> {
    let addr = want(opts, "addr")?;
    let backend_override: Option<EngineBackend> = match opts.get("backend") {
        Some(_) => Some(backend_from_opts(opts)?),
        None => None,
    };
    let verify = opts.contains_key("verify");
    let items = if let Some(path) = opts.get("log") {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let log = read_log(&bytes).map_err(|e| format!("{path}: {e}"))?;
        if log.truncated_bytes > 0 {
            eprintln!(
                "note: {path} ends in a torn record ({} trailing bytes ignored)",
                log.truncated_bytes
            );
        }
        let speed: f64 = opt(opts, "speed")?.unwrap_or(1.0);
        schedule_from_log(&log, speed)
    } else if let Some(rate) = opts.get("rate") {
        if verify {
            return Err("--verify needs --log FILE (a recording to compare against)".into());
        }
        let defaults = SyntheticSchedule::default();
        SyntheticSchedule {
            rate: parse(rate, "--rate")?,
            requests: opt(opts, "requests")?.unwrap_or(defaults.requests),
            users: opt(opts, "users")?.unwrap_or(64),
            zipf: opt(opts, "zipf")?.unwrap_or(1.0),
            k: opt(opts, "k")?.unwrap_or(2),
            burst: opt(opts, "burst")?.unwrap_or(0),
            update_every: opt(opts, "update-every")?.unwrap_or(0),
            backend: backend_override,
            timeout_us: opt(opts, "timeout-us")?,
            seed: opt(opts, "seed")?.unwrap_or(defaults.seed),
        }
        .build()
    } else {
        return Err("replay needs --log FILE or --rate F".into());
    };
    if items.is_empty() {
        return Err("nothing to replay (the schedule is empty)".into());
    }
    let replay = Replay {
        conns: opt(opts, "conns")?.unwrap_or(4),
        verify,
        trace_every: opt(opts, "trace-every")?.unwrap_or(16),
        binary: opts.contains_key("binary"),
    };
    let report = replay.run(addr, &items).map_err(|e| format!("replay failed: {e}"))?;
    if opts.contains_key("json") {
        outln!("{}", replay_json(&report));
    } else {
        outln!("{}", report.render().trim_end());
    }
    if report.mismatches > 0 {
        return Err(format!(
            "{} of {} verified replies diverged from the recording",
            report.mismatches, report.verified
        )
        .into());
    }
    Ok(())
}

/// Renders a [`ReplayReport`] as one JSON object — the machine-readable
/// twin of [`ReplayReport::render`], mirroring `top --json`: headline
/// counters unquoted, open-loop latency percentiles, the verify verdict,
/// and per-phase p50/p99 from the traced sample
/// (`pitex replay ... --json | jq '.phases.execute.p99_us'`).
fn replay_json(report: &pitex::serve::ReplayReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"scheduled\":{},\"sent\":{},\"ok\":{},\"cached\":{},\"busy\":{},\"errors\":{},\
         \"elapsed_ms\":{},\"qps\":{:.1},",
        report.scheduled,
        report.sent,
        report.ok,
        report.cached,
        report.busy,
        report.errors,
        report.elapsed.as_millis(),
        report.qps(),
    ));
    out.push_str(&format!(
        "\"latency\":{{\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}},",
        report.latency.quantile(0.50),
        report.latency.quantile(0.90),
        report.latency.quantile(0.99),
        report.latency.quantile(1.0),
    ));
    out.push_str(&format!(
        "\"verified\":{},\"mismatches\":{},\"mismatch_examples\":[{}],",
        report.verified,
        report.mismatches,
        report
            .mismatch_examples
            .iter()
            .map(|e| format!("\"{}\"", json_escape(e)))
            .collect::<Vec<_>>()
            .join(","),
    ));
    out.push_str("\"phases\":{");
    let phases: Vec<String> = report
        .phases
        .iter()
        .map(|(name, hist)| {
            format!(
                "\"{}\":{{\"p50_us\":{},\"p99_us\":{}}}",
                json_escape(name),
                hist.quantile(0.50),
                hist.quantile(0.99)
            )
        })
        .collect();
    out.push_str(&phases.join(","));
    out.push_str("}}");
    out
}

/// Renders a `STATS` reply as one JSON object. Numeric values stay
/// unquoted so `jq '.qps'` and friends work directly; shared by
/// `client --stats --json` and `top --json`.
fn stats_json(stats: &pitex::serve::StatsReply) -> String {
    let fields: Vec<String> = stats
        .iter()
        .map(|(key, value)| {
            let is_number = value.parse::<f64>().is_ok_and(f64::is_finite);
            if is_number {
                format!("\"{}\":{}", json_escape(key), value)
            } else {
                format!("\"{}\":\"{}\"", json_escape(key), json_escape(value))
            }
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Minimal JSON string escaping for `--stats --json` values.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn cmd_client(opts: &Opts) -> Result<(), CliError> {
    let addr = want(opts, "addr")?;
    let binary = opts.contains_key("binary");
    let connect = || {
        ServeClient::connect_with(addr, None, binary)
            .map_err(|e| format!("connecting to {addr}: {e}"))
    };

    if opts.contains_key("ping") {
        connect()?.ping().map_err(|e| e.to_string())?;
        outln!("PONG");
        return Ok(());
    }
    if opts.contains_key("stats") {
        let stats = connect()?.stats().map_err(|e| e.to_string())?;
        if opts.contains_key("json") {
            outln!("{}", stats_json(&stats));
        } else {
            for (key, value) in stats.iter() {
                outln!("{key}={value}");
            }
        }
        return Ok(());
    }
    if opts.contains_key("metrics") {
        let text = connect()?.metrics().map_err(|e| e.to_string())?;
        outln!("{}", text.trim_end());
        return Ok(());
    }
    if opts.contains_key("flight") {
        let reply = connect()?.flight().map_err(|e| format!("flight dump failed: {e}"))?;
        outln!("flight: {} recorded, {} slow", reply.recorded, reply.slow_count);
        let print_entries = |entries: &[pitex::serve::FlightWireEntry]| -> Result<(), CliError> {
            for e in entries {
                outln!(
                    "  {} {:<7} user {:>6} k {} [{}] {} in {}us",
                    format_trace_id(e.trace_id),
                    e.verb,
                    e.user,
                    e.k,
                    e.backend,
                    e.outcome,
                    e.us
                );
            }
            Ok(())
        };
        print_entries(&reply.entries)?;
        if !reply.slow.is_empty() {
            outln!("slow queries (over PITEX_OBS_SLOW_US):");
            print_entries(&reply.slow)?;
        }
        return Ok(());
    }
    if let Some(text) = opts.get("update") {
        let op = UpdateOp::parse_text(text)?;
        let (epoch, pending) =
            connect()?.update(op).map_err(|e| format!("update rejected: {e}"))?;
        outln!("staged (epoch {epoch}, {pending} pending; RELOAD to apply)");
        return Ok(());
    }
    if let Some(verb) = opts.get("admin") {
        match verb.as_str() {
            "epoch" => {
                let epoch = connect()?.epoch().map_err(|e| e.to_string())?;
                outln!("epoch {epoch}");
            }
            "reload" => {
                let r = connect()?.reload().map_err(|e| format!("reload failed: {e}"))?;
                if r.folded == 0 {
                    outln!("nothing pending (epoch {})", r.epoch);
                } else if r.full {
                    outln!(
                        "reloaded to epoch {}: {} ops folded, index rebuilt in full ({} graphs)",
                        r.epoch,
                        r.folded,
                        r.resampled
                    );
                } else {
                    outln!(
                        "reloaded to epoch {}: {} ops folded, {} graphs resampled, {} reused",
                        r.epoch,
                        r.folded,
                        r.resampled,
                        r.reused
                    );
                }
            }
            other => return Err(format!("unknown --admin verb {other:?} (epoch|reload)").into()),
        }
        return Ok(());
    }
    if opts.contains_key("shutdown") {
        connect()?.shutdown_server().map_err(|e| e.to_string())?;
        outln!("server shutting down");
        return Ok(());
    }
    // An explicit per-request backend override (absent = server's default;
    // `auto` asks the server-side planner).
    let backend_override: Option<EngineBackend> = match opts.get("backend") {
        Some(_) => Some(backend_from_opts(opts)?),
        None => None,
    };
    if opts.contains_key("bench") {
        let gen = LoadGen {
            clients: opt(opts, "clients")?.unwrap_or(4),
            requests_per_client: opt(opts, "requests")?.unwrap_or(64),
            user: opt(opts, "user")?.unwrap_or(0),
            k: opt(opts, "k")?.unwrap_or(2),
            timeout_us: opt(opts, "timeout-us")?,
            backend: backend_override,
            binary,
            pipeline: opt(opts, "pipeline")?.unwrap_or(1),
        };
        let report = gen.run(addr).map_err(|e| format!("load generation: {e}"))?;
        outln!(
            "closed loop: {} clients x {} requests in {}",
            gen.clients.max(1),
            gen.requests_per_client,
            human_duration(report.elapsed)
        );
        outln!(
            "  ok {} (cached {}), busy {}, errors {} -> {:.1} queries/s",
            report.ok,
            report.cached,
            report.busy,
            report.errors,
            report.qps()
        );
        outln!(
            "  client-side latency: mean {:.1}us, min {:.1}us, max {:.1}us, p50 {}us, p99 {}us",
            report.latency_us.mean(),
            report.latency_us.min(),
            report.latency_us.max(),
            report.latency_hist.quantile(0.50),
            report.latency_hist.quantile(0.99)
        );
        outln!(
            "  note: closed-loop percentiles understate tails under stalls \
             (coordinated omission); for open-loop tails use `pitex replay --rate`"
        );
        return Ok(());
    }

    // Plain query mode.
    let user: u32 = parse(want(opts, "user")?, "--user")?;
    let k: usize = parse(want(opts, "k")?, "--k")?;
    let repeat: usize = opt(opts, "repeat")?.unwrap_or(1);
    let timeout_us: Option<u64> = opt(opts, "timeout-us")?;
    let mut client = connect()?;
    if opts.contains_key("trace") {
        let reply = client
            .trace(user, k, timeout_us, backend_override, None)
            .map_err(|e| format!("trace failed: {e}"))?;
        let tags = TagSet::new(reply.tags.clone());
        outln!(
            "trace {} — W* = {tags} with spread {:.4} [user {}, k {}, {} in {}us]",
            format_trace_id(reply.trace_id),
            reply.spread,
            reply.user,
            reply.k,
            if reply.cached { "cache hit" } else { "computed" },
            reply.us
        );
        for span in &reply.spans {
            outln!("  {:>9}us  {:>9}us  {}", span.start_us, span.dur_us, span.name);
        }
        return Ok(());
    }
    if opts.contains_key("explain") {
        let reply = client
            .explain(user, k, timeout_us, backend_override)
            .map_err(|e| format!("explain failed: {e}"))?;
        let tags = TagSet::new(reply.tags.clone());
        outln!(
            "W* = {tags} with spread {:.4} [user {}, k {}, {} backend in {}us]",
            reply.spread,
            reply.user,
            reply.k,
            reply.backend.label(),
            reply.us
        );
        outln!(
            "plan: {} (predicted {}us, actual {}us{})",
            reply.backend.label(),
            reply.predicted_us,
            reply.actual_us,
            if reply.degraded { ", DEGRADED to fit the deadline" } else { "" }
        );
        for rejected in &reply.rejected {
            let predicted = rejected
                .predicted_us
                .map(|us| format!("predicted {us}us"))
                .unwrap_or_else(|| "not costable".to_string());
            outln!(
                "  rejected {}: {} ({})",
                rejected.backend.label(),
                predicted,
                rejected.reason.as_str()
            );
        }
        return Ok(());
    }
    for _ in 0..repeat.max(1) {
        let response = match (timeout_us, backend_override) {
            (_, Some(backend)) => client.query_with_backend(user, k, timeout_us, backend),
            (Some(t), None) => client.query_with_timeout(user, k, t),
            (None, None) => client.query(user, k),
        }
        .map_err(|e| e.to_string())?;
        match response {
            Response::Ok(reply) => {
                let tags = TagSet::new(reply.tags.clone());
                outln!(
                    "W* = {tags} with spread {:.4} [user {}, k {}, {} in {}us]",
                    reply.spread,
                    reply.user,
                    reply.k,
                    if reply.cached { "cache hit" } else { "computed" },
                    reply.us
                );
            }
            Response::Busy => return Err("server is busy (queue full)".into()),
            Response::Err { code, message } => {
                return Err(format!("server error {}: {message}", code.as_str()).into())
            }
            other => return Err(format!("unexpected reply: {other:?}").into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The flags a function of this file reads: the string literal after
    /// `opts.<method>(` or `(opts, `, and what every function it hands
    /// `opts` to reads.
    fn flags_read<'a>(name: &str, bodies: &HashMap<&'a str, &'a str>, out: &mut BTreeSet<&'a str>) {
        let body = bodies[name];
        for (i, _) in body.match_indices("opts") {
            let after = &body[i + 4..];
            let literal = if let Some(rest) = after.strip_prefix(", \"") {
                rest
            } else if let Some(rest) = after.strip_prefix('.') {
                let Some(open) = rest.find("(\"") else { continue };
                if !rest[..open].chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    continue;
                }
                &rest[open + 2..]
            } else {
                continue;
            };
            out.insert(&literal[..literal.find('"').expect("a closed literal")]);
        }
        for (callee, _) in bodies.iter().filter(|(callee, _)| **callee != name) {
            if body.contains(&format!("{callee}(opts")) {
                flags_read(callee, bodies, out);
            }
        }
    }

    #[test]
    fn every_flag_a_subcommand_reads_is_in_its_usage_entry() {
        let source = include_str!("pitex.rs");
        let source = &source[..source.find("#[cfg(test)]").unwrap()];
        let bodies: HashMap<&str, &str> = source
            .split("\nfn ")
            .skip(1)
            .map(|chunk| (&chunk[..chunk.find(['(', '<']).unwrap()], chunk))
            .collect();
        let commands: Vec<&str> = USAGE
            .lines()
            .filter_map(|line| line.strip_prefix("  pitex "))
            .map(|rest| rest.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(commands.len(), 14, "{commands:?}");
        for command in commands {
            let mut read = BTreeSet::new();
            flags_read(&format!("cmd_{command}"), &bodies, &mut read);
            let documented: BTreeSet<&str> = usage_flags(command).into_iter().collect();
            assert!(!read.is_empty(), "pitex {command} reads no flag");
            let undocumented: Vec<_> = read.difference(&documented).collect();
            assert!(undocumented.is_empty(), "pitex {command} reads {undocumented:?}");
            let unread: Vec<_> = documented.difference(&read).collect();
            assert!(unread.is_empty(), "pitex {command} documents {unread:?}");
        }
    }

    #[test]
    fn a_flag_outside_the_usage_entry_is_refused_by_name() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let err = parse_opts("query", &args(&["--user", "1", "--backnd", "exact"])).unwrap_err();
        assert!(err.contains("--backnd"), "{err}");
        let err = parse_opts("repro", &args(&["--sclae", "0.1"])).unwrap_err();
        assert!(err.contains("--sclae"), "{err}");
        let err = parse_opts("query", &args(&["--method", "lazy"])).unwrap_err();
        assert!(err.contains("--method"), "{err}");
        let opts = parse_opts("query", &args(&["--backend", "exact", "--explain"])).unwrap();
        assert_eq!(opts.get("backend").map(String::as_str), Some("exact"));
    }

    #[test]
    fn a_dirty_threshold_outside_zero_one_is_refused() {
        let with = |t: &str| repair_from_opts(&Opts::from([("dirty-threshold".into(), t.into())]));
        for bad in ["nan", "NaN", "-0.1", "1.5", "inf"] {
            let err = with(bad).expect_err(bad);
            assert!(err.contains("[0, 1]"), "{bad}: {err}");
        }
        for good in ["0", "0.25", "1"] {
            assert_eq!(with(good).unwrap().dirty_threshold, good.parse::<f64>().unwrap());
        }
    }
}
