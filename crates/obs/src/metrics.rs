//! The typed metrics registry: one static [`SCHEMA`] table declares every
//! field the serving stack exports — its exposition kind *and* its
//! cluster merge rule — so the shard `STATS` reply, the router's
//! scatter-gather aggregation and the `METRICS` Prometheus exposition are
//! three views over a single registration table.
//!
//! The PR 4 `cache_len=0` bug (a shard field the router's hand-maintained
//! sum table forgot) is the motivating failure: with the schema, a field
//! without a merge rule fails *loudly* at merge time
//! ([`MergedFields::absorb`] returns an error naming the field), and a
//! registration under an undeclared name panics in debug builds.

use crate::hist::LatencyHistogram;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a field renders in the Prometheus exposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone count; exposed as `# TYPE … counter`.
    Counter,
    /// Point-in-time level; exposed as `# TYPE … gauge`.
    Gauge,
    /// A [`LatencyHistogram`] wire string; exposed as a full Prometheus
    /// histogram (cumulative `_bucket{le=…}`, `_sum`, `_count`).
    Histogram,
    /// A non-numeric identity (e.g. `backend=lazy`); exposed as an info
    /// gauge with the value as a label.
    Label,
}

/// How a field aggregates across shard replies in the router's
/// scatter-gather merge. Declared next to the kind at registration — the
/// router reads the rule off the table instead of maintaining its own
/// field list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MergeRule {
    /// Integer values add (counters, additive gauges like `cache_len`).
    Sum,
    /// Float values add, reported with two decimals (`qps`).
    SumF64,
    /// The numerically largest reply wins, its string kept verbatim
    /// (`prepared`, uptimes).
    Max,
    /// The numerically smallest reply wins (`wal`: 1 only when *every*
    /// replica is durable).
    Min,
    /// Every reply must report the same value; divergence is a merge
    /// error, not a silent pick (`epoch` — mixed epochs mean a broken
    /// barrier and must surface).
    MustAgree,
    /// First non-empty value wins (identity labels like `backend`).
    Label,
    /// Decision-weighted mean: `Σ value·weight / Σ weight`, with the
    /// weight read from the field named by substituting this pattern's
    /// `*` capture into `weight` (e.g. `ewma_*_us` weighted by `plan_*`).
    /// Replies with a non-positive value are skipped — their placeholder
    /// would dilute the estimate. One decimal.
    WeightedMean { weight: &'static str },
    /// [`LatencyHistogram`] wire strings merge bucket-wise.
    HistMerge,
    /// Recomputed after the merge as quantile `q` of the (merged)
    /// histogram field named by substituting the `*` capture into `hist`;
    /// per-shard values are ignored (percentiles do not add).
    Quantile { hist: &'static str, q: f64 },
    /// Recomputed after the merge as `num / (den[0] + den[1])`, four
    /// decimals (`cache_hit_rate`); per-shard values are ignored.
    Ratio { num: &'static str, den: [&'static str; 2] },
}

/// One registered field: a literal name or a single-`*` pattern, its
/// exposition kind, merge rule, and help text.
#[derive(Debug)]
pub struct FieldSpec {
    /// Literal field name, or a pattern with exactly one `*` wildcard
    /// (matching a non-empty infix). Literals beat patterns.
    pub pattern: &'static str,
    pub kind: MetricKind,
    pub merge: MergeRule,
    pub help: &'static str,
}

/// The registration table: every field any PITEX server or router exports
/// through `STATS`/`METRICS`. Shard STATS, the router merge and the
/// Prometheus exposition all derive from this list — adding a field
/// *anywhere* without a row here fails the merge loudly and the
/// completeness tests.
pub static SCHEMA: &[FieldSpec] = &[
    // --- identity / topology ---------------------------------------------
    FieldSpec {
        pattern: "backend",
        kind: MetricKind::Label,
        merge: MergeRule::Label,
        help: "configured engine backend",
    },
    FieldSpec {
        pattern: "epoch",
        kind: MetricKind::Gauge,
        merge: MergeRule::MustAgree,
        help: "snapshot epoch being served",
    },
    FieldSpec {
        pattern: "prepared",
        kind: MetricKind::Gauge,
        merge: MergeRule::Max,
        help: "whether a prepared (staged, unswapped) reload is pending",
    },
    FieldSpec {
        pattern: "workers",
        kind: MetricKind::Gauge,
        merge: MergeRule::Sum,
        help: "query worker threads",
    },
    FieldSpec {
        pattern: "uptime_us",
        kind: MetricKind::Counter,
        merge: MergeRule::Max,
        help: "microseconds since boot",
    },
    FieldSpec {
        pattern: "uptime_s",
        kind: MetricKind::Gauge,
        merge: MergeRule::Max,
        help: "seconds since boot",
    },
    FieldSpec {
        pattern: "shards",
        kind: MetricKind::Gauge,
        merge: MergeRule::MustAgree,
        help: "shards in the cluster map",
    },
    FieldSpec {
        pattern: "replicas",
        kind: MetricKind::Gauge,
        merge: MergeRule::Sum,
        help: "replicas in the cluster map",
    },
    FieldSpec {
        pattern: "replicas_up",
        kind: MetricKind::Gauge,
        merge: MergeRule::Sum,
        help: "replicas passing the health gate",
    },
    FieldSpec {
        pattern: "replies",
        kind: MetricKind::Gauge,
        merge: MergeRule::Sum,
        help: "shard replies folded into this aggregate",
    },
    // --- request counters -------------------------------------------------
    FieldSpec {
        pattern: "requests",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "request lines handled",
    },
    FieldSpec {
        pattern: "ok",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "successful query replies",
    },
    FieldSpec {
        pattern: "busy",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "requests shed because the queue was full",
    },
    FieldSpec {
        pattern: "deadline",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "requests that ran out of deadline",
    },
    FieldSpec {
        pattern: "errors",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "error replies",
    },
    FieldSpec {
        pattern: "worker_panics",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "worker threads that panicked mid-query",
    },
    FieldSpec {
        pattern: "queries_inline",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "cache misses run on the event loop's own thread",
    },
    FieldSpec {
        pattern: "conn_aborted",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "pipelined replies dropped because the connection died first",
    },
    // --- update / reload / WAL --------------------------------------------
    FieldSpec {
        pattern: "updates_applied",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "UPDATE ops accepted into the overlay",
    },
    FieldSpec {
        pattern: "updates_pending",
        kind: MetricKind::Gauge,
        merge: MergeRule::Sum,
        help: "ops staged but not yet folded",
    },
    FieldSpec {
        pattern: "reloads",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "snapshot swaps performed",
    },
    FieldSpec {
        pattern: "wal",
        kind: MetricKind::Gauge,
        merge: MergeRule::Min,
        help: "1 when updates are WAL-durable (cluster: on every replica)",
    },
    FieldSpec {
        pattern: "wal_replayed_records",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "committed batches replayed from the WAL at boot",
    },
    FieldSpec {
        pattern: "wal_replayed_ops",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "ops replayed from the WAL at boot",
    },
    FieldSpec {
        pattern: "wal_truncated_bytes",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "torn-tail bytes truncated from the WAL at boot",
    },
    FieldSpec {
        pattern: "wal_compactions",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "WAL compactions since boot",
    },
    FieldSpec {
        pattern: "sync_served",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "SYNC requests answered with a bundle",
    },
    // --- cache -------------------------------------------------------------
    FieldSpec {
        pattern: "cache_hits",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "result-cache hits",
    },
    FieldSpec {
        pattern: "cache_misses",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "result-cache misses",
    },
    FieldSpec {
        pattern: "cache_insertions",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "result-cache insertions",
    },
    FieldSpec {
        pattern: "cache_evictions",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "result-cache evictions",
    },
    FieldSpec {
        pattern: "cache_len",
        kind: MetricKind::Gauge,
        merge: MergeRule::Sum,
        help: "entries currently cached",
    },
    FieldSpec {
        pattern: "cache_hit_rate",
        kind: MetricKind::Gauge,
        merge: MergeRule::Ratio { num: "cache_hits", den: ["cache_hits", "cache_misses"] },
        help: "hits / (hits + misses)",
    },
    // --- throughput / latency ----------------------------------------------
    FieldSpec {
        pattern: "qps",
        kind: MetricKind::Gauge,
        merge: MergeRule::SumF64,
        help: "successful queries per second since boot",
    },
    FieldSpec {
        pattern: "lat_mean_us",
        kind: MetricKind::Gauge,
        merge: MergeRule::WeightedMean { weight: "ok" },
        help: "mean OK service time",
    },
    // Any histogram field merges bucket-wise, and any *_pNN_us field is
    // recomputed from its histogram after the merge — one row each covers
    // query latency, router-hop latency and the WAL timing families.
    FieldSpec {
        pattern: "*_hist",
        kind: MetricKind::Histogram,
        merge: MergeRule::HistMerge,
        help: "log2-bucketed distribution (bucket:count pairs)",
    },
    FieldSpec {
        pattern: "*_p50_us",
        kind: MetricKind::Gauge,
        merge: MergeRule::Quantile { hist: "*_hist", q: 0.50 },
        help: "p50 of the matching distribution",
    },
    FieldSpec {
        pattern: "*_p90_us",
        kind: MetricKind::Gauge,
        merge: MergeRule::Quantile { hist: "*_hist", q: 0.90 },
        help: "p90 of the matching distribution",
    },
    FieldSpec {
        pattern: "*_p99_us",
        kind: MetricKind::Gauge,
        merge: MergeRule::Quantile { hist: "*_hist", q: 0.99 },
        help: "p99 of the matching distribution",
    },
    // --- planner -----------------------------------------------------------
    FieldSpec {
        pattern: "plan_*",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "plans that chose this backend (plan_degraded: deadline degradations)",
    },
    FieldSpec {
        pattern: "ewma_*_us",
        kind: MetricKind::Gauge,
        merge: MergeRule::WeightedMean { weight: "plan_*" },
        help: "per-backend latency EWMA, decision-weighted across shards",
    },
    // --- observability's own bookkeeping -----------------------------------
    FieldSpec {
        pattern: "flight_recorded",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "request summaries recorded by the flight recorder",
    },
    FieldSpec {
        pattern: "slow_queries",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "requests over the PITEX_OBS_SLOW_US threshold",
    },
    FieldSpec {
        pattern: "capture_records",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "requests sampled into the PWRK workload log",
    },
    FieldSpec {
        pattern: "capture_dropped",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "sampled workload records lost to capture I/O errors",
    },
    // --- router-side fields (prefixed; a router-of-routers would sum) ------
    FieldSpec {
        pattern: "router_requests",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "request lines handled by the router",
    },
    FieldSpec {
        pattern: "router_ok",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "queries the router answered OK",
    },
    FieldSpec {
        pattern: "router_busy",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "queries shed at or behind the router",
    },
    FieldSpec {
        pattern: "router_errors",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "error replies issued by the router",
    },
    FieldSpec {
        pattern: "router_failovers",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "replica failovers inside a call",
    },
    FieldSpec {
        pattern: "router_scatters",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "scatter-gather fan-outs",
    },
    FieldSpec {
        pattern: "router_updates",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "UPDATE broadcasts routed",
    },
    FieldSpec {
        pattern: "router_reloads",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "cluster-wide reload barriers run",
    },
    FieldSpec {
        pattern: "router_uptime_s",
        kind: MetricKind::Gauge,
        merge: MergeRule::Max,
        help: "seconds since router boot",
    },
    FieldSpec {
        pattern: "router_capture_records",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "requests sampled into the router's PWRK workload log",
    },
    FieldSpec {
        pattern: "router_capture_dropped",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "sampled router workload records lost to capture I/O errors",
    },
    FieldSpec {
        pattern: "router_catchup_replicas",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "stale replicas healed in place by the prober",
    },
    FieldSpec {
        pattern: "router_catchup_epochs",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "epoch barriers replayed onto healing replicas",
    },
    FieldSpec {
        pattern: "router_catchup_ops",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "ops replayed onto healing replicas",
    },
    FieldSpec {
        pattern: "router_probes",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "prober sweeps completed",
    },
    FieldSpec {
        pattern: "router_probe_failures",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "replica probes that failed (marked the replica down)",
    },
    FieldSpec {
        pattern: "router_flight_recorded",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "request summaries recorded by the router's flight recorder",
    },
    FieldSpec {
        pattern: "router_slow_queries",
        kind: MetricKind::Counter,
        merge: MergeRule::Sum,
        help: "router-observed requests over the slow threshold",
    },
];

/// Matches `name` against a literal-or-single-`*` pattern; returns the
/// `*` capture (empty string for a literal match).
fn pattern_match<'a>(pattern: &str, name: &'a str) -> Option<&'a str> {
    match pattern.split_once('*') {
        None => (pattern == name).then_some(""),
        Some((prefix, suffix)) => {
            let rest = name.strip_prefix(prefix)?;
            let capture = rest.strip_suffix(suffix)?;
            (!capture.is_empty()).then_some(capture)
        }
    }
}

/// Substitutes `capture` for the `*` in `pattern` (identity for literals).
pub(crate) fn pattern_subst(pattern: &str, capture: &str) -> String {
    pattern.replacen('*', capture, 1)
}

/// Looks a field name up in [`SCHEMA`]: exact (literal) rows win over
/// pattern rows. `None` means the field is not registered — exporting it
/// anywhere is a bug the merge and the completeness tests surface.
///
/// The scatter-gather merge calls this once per field per shard reply, so
/// the literal rows (the vast majority) are indexed into a hash map on
/// first use; only the handful of `*` rows are scanned, in SCHEMA order.
pub fn spec_for(name: &str) -> Option<&'static FieldSpec> {
    use std::collections::HashMap;
    use std::sync::OnceLock;
    static LITERALS: OnceLock<HashMap<&'static str, &'static FieldSpec>> = OnceLock::new();
    static PATTERNS: OnceLock<Vec<&'static FieldSpec>> = OnceLock::new();
    let literals = LITERALS.get_or_init(|| {
        SCHEMA.iter().filter(|s| !s.pattern.contains('*')).map(|s| (s.pattern, s)).collect()
    });
    if let Some(spec) = literals.get(name) {
        return Some(spec);
    }
    PATTERNS
        .get_or_init(|| SCHEMA.iter().filter(|s| s.pattern.contains('*')).collect())
        .iter()
        .copied()
        .find(|s| pattern_match(s.pattern, name).is_some())
}

/// The `*` capture of the pattern row that matched `name` (empty for a
/// literal row).
pub(crate) fn capture_for(spec: &FieldSpec, name: &str) -> String {
    pattern_match(spec.pattern, name).unwrap_or("").to_string()
}

// ---------------------------------------------------------------------------
// Typed handles
// ---------------------------------------------------------------------------

/// A monotone counter handle. Cloning shares the underlying cell, so a
/// subsystem (e.g. a connection pool) can own the handle while the
/// registry exports it.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time level handle (set, not only incremented).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic latency EWMA: the typed metric behind the planner's
/// per-backend cost estimates. Racy read-modify-write by design — a lost
/// update costs one smoothing step, never correctness — so observation is
/// lock-free.
#[derive(Debug)]
pub struct Ewma {
    bits: AtomicU64,
    count: AtomicU64,
}

impl Default for Ewma {
    fn default() -> Self {
        Self::new()
    }
}

impl Ewma {
    pub fn new() -> Self {
        Self { bits: AtomicU64::new(0f64.to_bits()), count: AtomicU64::new(0) }
    }

    /// Feeds one sample: the first observation seeds the estimate, later
    /// ones smooth with factor `alpha`.
    pub fn observe(&self, sample: f64, alpha: f64) {
        let prior = self.count.fetch_add(1, Ordering::Relaxed);
        let old = f64::from_bits(self.bits.load(Ordering::Relaxed));
        let new = if prior == 0 { sample } else { alpha * sample + (1.0 - alpha) * old };
        self.bits.store(new.to_bits(), Ordering::Relaxed);
    }

    /// The current estimate (`None` before the first observation).
    pub fn value(&self) -> Option<f64> {
        if self.count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        Some(f64::from_bits(self.bits.load(Ordering::Relaxed)))
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies another EWMA's state (snapshot swaps inherit learned costs).
    pub fn inherit(&self, other: &Ewma) {
        self.bits.store(other.bits.load(Ordering::Relaxed), Ordering::Relaxed);
        self.count.store(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<crate::hist::AtomicHistogram>),
}

/// A runtime registry of typed metric handles, each registered under a
/// [`SCHEMA`]-declared name. [`export`](Self::export) yields the current
/// values as `STATS`-ready fields; registration under a name the schema
/// does not know (or twice) panics — that is the "typed" part: the
/// registration table is checked, not advisory.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<(&'static str, Metric)>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &'static str, metric: Metric, kinds: &[MetricKind]) {
        let spec = spec_for(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in the obs SCHEMA"));
        assert!(
            kinds.contains(&spec.kind),
            "metric {name:?} registered as {kinds:?} but declared as {:?}",
            spec.kind
        );
        let mut entries = self.entries.lock().unwrap();
        assert!(entries.iter().all(|(n, _)| *n != name), "metric {name:?} registered twice");
        entries.push((name, metric));
    }

    /// Registers and returns a counter under `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        let c = Counter::new();
        self.register(name, Metric::Counter(c.clone()), &[MetricKind::Counter]);
        c
    }

    /// Registers and returns a gauge under `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let g = Gauge::new();
        self.register(name, Metric::Gauge(g.clone()), &[MetricKind::Gauge]);
        g
    }

    /// Registers and returns a lock-free histogram under `name` (which
    /// must be a `*_hist` field).
    pub fn histogram(&self, name: &'static str) -> Arc<crate::hist::AtomicHistogram> {
        let h = Arc::new(crate::hist::AtomicHistogram::new());
        self.register(name, Metric::Histogram(h.clone()), &[MetricKind::Histogram]);
        h
    }

    /// Adopts an externally owned counter (e.g. a connection pool's) so it
    /// exports under `name` alongside the registry's own.
    pub fn adopt_counter(&self, name: &'static str, counter: &Counter) {
        // A counter whose schema row says Gauge is fine: monotone storage,
        // level semantics (`updates_pending` is stored, not added).
        self.register(
            name,
            Metric::Counter(counter.clone()),
            &[MetricKind::Counter, MetricKind::Gauge],
        );
    }

    /// Current values of every registered metric, as `STATS` fields
    /// (histograms as their wire encoding).
    pub fn export(&self) -> Vec<(String, String)> {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => c.get().to_string(),
                    Metric::Gauge(g) => g.get().to_string(),
                    Metric::Histogram(h) => h.snapshot().to_wire(),
                };
                (name.to_string(), value)
            })
            .collect()
    }
}

/// A `STATS` field list under schema enforcement: every `push` asserts (in
/// debug builds — CI runs the tests there) that the name resolves in
/// [`SCHEMA`], so a new field cannot ship without a merge rule.
#[derive(Debug, Default)]
pub struct FieldSet {
    fields: Vec<(String, String)>,
}

impl FieldSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, name: impl Into<String>, value: impl ToString) {
        let name = name.into();
        debug_assert!(
            spec_for(&name).is_some(),
            "STATS field {name:?} is not declared in the obs SCHEMA"
        );
        self.fields.push((name, value.to_string()));
    }

    pub fn extend_from_registry(&mut self, registry: &Registry) {
        self.fields.extend(registry.export());
    }

    pub fn into_fields(self) -> Vec<(String, String)> {
        self.fields
    }
}

// ---------------------------------------------------------------------------
// Scatter-gather merge
// ---------------------------------------------------------------------------

/// Accumulates shard `STATS` replies field-by-field under the merge rules
/// declared in [`SCHEMA`] — the router's aggregation, derived from the
/// registration table instead of a hand-maintained field list.
#[derive(Debug, Default)]
pub struct MergedFields {
    replies: u64,
    sums: BTreeMap<String, u64>,
    sums_f64: BTreeMap<String, f64>,
    /// Max/Min keep the winning reply's string verbatim next to its value,
    /// so float formatting survives the merge.
    max: BTreeMap<String, (f64, String)>,
    min: BTreeMap<String, (f64, String)>,
    agree: BTreeMap<String, BTreeSet<String>>,
    labels: BTreeMap<String, String>,
    weighted: BTreeMap<String, (f64, u64)>,
    hists: BTreeMap<String, LatencyHistogram>,
    /// Quantile/Ratio fields seen in replies, recomputed in
    /// [`finish`](Self::finish).
    derived: BTreeSet<String>,
}

impl MergedFields {
    pub fn new() -> Self {
        Self::default()
    }

    /// Replies absorbed so far.
    pub fn replies(&self) -> u64 {
        self.replies
    }

    /// Folds one shard reply in. An unregistered field is an error — the
    /// loud version of the silent drop the hand-maintained table allowed.
    pub fn absorb<'a>(
        &mut self,
        fields: impl Iterator<Item = (&'a str, &'a str)> + Clone,
    ) -> Result<(), String> {
        let lookup = fields.clone();
        let weight_of = |weight_pattern: &'static str, capture: &str| -> u64 {
            let weight_field = pattern_subst(weight_pattern, capture);
            lookup
                .clone()
                .find(|(k, _)| *k == weight_field)
                .and_then(|(_, v)| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        self.replies += 1;
        for (name, value) in fields {
            let spec = spec_for(name)
                .ok_or_else(|| format!("no merge rule registered for STATS field {name:?}"))?;
            match spec.merge {
                MergeRule::Sum => {
                    *self.sums.entry(name.to_string()).or_insert(0) +=
                        value.parse::<u64>().unwrap_or(0);
                }
                MergeRule::SumF64 => {
                    *self.sums_f64.entry(name.to_string()).or_insert(0.0) +=
                        value.parse::<f64>().unwrap_or(0.0);
                }
                MergeRule::Max => {
                    let v = value.parse::<f64>().unwrap_or(f64::NEG_INFINITY);
                    let entry = self
                        .max
                        .entry(name.to_string())
                        .or_insert((f64::NEG_INFINITY, String::new()));
                    if v > entry.0 || entry.1.is_empty() {
                        *entry = (v, value.to_string());
                    }
                }
                MergeRule::Min => {
                    let v = value.parse::<f64>().unwrap_or(f64::INFINITY);
                    let entry =
                        self.min.entry(name.to_string()).or_insert((f64::INFINITY, String::new()));
                    if v < entry.0 || entry.1.is_empty() {
                        *entry = (v, value.to_string());
                    }
                }
                MergeRule::MustAgree => {
                    self.agree.entry(name.to_string()).or_default().insert(value.to_string());
                }
                MergeRule::Label => {
                    if !value.is_empty() {
                        self.labels.entry(name.to_string()).or_insert_with(|| value.to_string());
                    }
                }
                MergeRule::WeightedMean { weight } => {
                    let v = value.parse::<f64>().unwrap_or(0.0);
                    if v > 0.0 {
                        let w = weight_of(weight, &capture_for(spec, name)).max(1);
                        let entry = self.weighted.entry(name.to_string()).or_insert((0.0, 0));
                        entry.0 += v * w as f64;
                        entry.1 += w;
                    }
                }
                MergeRule::HistMerge => {
                    let hist = LatencyHistogram::from_wire(value)
                        .map_err(|e| format!("bad histogram in field {name:?}: {e}"))?;
                    self.hists.entry(name.to_string()).or_default().merge(&hist);
                }
                MergeRule::Quantile { .. } | MergeRule::Ratio { .. } => {
                    self.derived.insert(name.to_string());
                }
            }
        }
        Ok(())
    }

    /// Finalizes the aggregate: recomputes derived fields (quantiles off
    /// the merged histograms, ratios off the merged sums) and surfaces
    /// must-agree divergence as an error.
    pub fn finish(self) -> Result<Vec<(String, String)>, String> {
        let mut out: Vec<(String, String)> = Vec::new();
        for (name, values) in &self.agree {
            if values.len() > 1 {
                return Err(format!("mixed {name} across shard replies: {values:?}"));
            }
            if let Some(v) = values.iter().next() {
                out.push((name.clone(), v.clone()));
            }
        }
        for (name, sum) in &self.sums {
            out.push((name.clone(), sum.to_string()));
        }
        for (name, sum) in &self.sums_f64 {
            out.push((name.clone(), format!("{sum:.2}")));
        }
        for (name, (_, raw)) in &self.max {
            out.push((name.clone(), raw.clone()));
        }
        for (name, (_, raw)) in &self.min {
            out.push((name.clone(), raw.clone()));
        }
        for (name, value) in &self.labels {
            out.push((name.clone(), value.clone()));
        }
        for (name, (weighted_sum, weight)) in &self.weighted {
            out.push((name.clone(), format!("{:.1}", weighted_sum / (*weight).max(1) as f64)));
        }
        for (name, hist) in &self.hists {
            out.push((name.clone(), hist.to_wire()));
        }
        for name in &self.derived {
            let spec = spec_for(name).expect("derived fields were schema-checked in absorb");
            match spec.merge {
                MergeRule::Quantile { hist, q } => {
                    let hist_field = pattern_subst(hist, &capture_for(spec, name));
                    let value = self.hists.get(&hist_field).map(|h| h.quantile(q)).unwrap_or(0);
                    out.push((name.clone(), value.to_string()));
                }
                MergeRule::Ratio { num, den } => {
                    let get = |k: &str| self.sums.get(k).copied().unwrap_or(0);
                    let denom = get(den[0]) + get(den[1]);
                    let value = if denom == 0 { 0.0 } else { get(num) as f64 / denom as f64 };
                    out.push((name.clone(), format!("{value:.4}")));
                }
                _ => unreachable!("only Quantile/Ratio land in derived"),
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

/// Renders `STATS`-shaped fields as Prometheus text exposition, with
/// `# TYPE` lines read off [`SCHEMA`] and histogram fields expanded into
/// cumulative `_bucket{le=…}` / `_sum` / `_count` series. Every metric is
/// prefixed `pitex_`; the text ends with `# EOF` (which the line-based
/// protocol also uses as the response terminator).
pub fn render_prometheus(fields: impl Iterator<Item = (String, String)>) -> String {
    let mut out = String::new();
    let mut sorted: Vec<(String, String)> = fields.collect();
    sorted.sort();
    for (name, value) in sorted {
        let Some(spec) = spec_for(&name) else { continue };
        let metric = format!("pitex_{name}");
        out.push_str(&format!("# HELP {metric} {}\n", spec.help));
        match spec.kind {
            MetricKind::Counter => {
                out.push_str(&format!("# TYPE {metric} counter\n"));
                out.push_str(&format!("{metric} {}\n", numeric(&value)));
            }
            MetricKind::Gauge => {
                out.push_str(&format!("# TYPE {metric} gauge\n"));
                out.push_str(&format!("{metric} {}\n", numeric(&value)));
            }
            MetricKind::Label => {
                out.push_str(&format!("# TYPE {metric} gauge\n"));
                out.push_str(&format!("{metric}{{value=\"{value}\"}} 1\n"));
            }
            MetricKind::Histogram => {
                let hist = LatencyHistogram::from_wire(&value).unwrap_or_default();
                // Prometheus names the series after the distribution, not
                // the transport field: strip the `_hist` suffix.
                let metric = metric.strip_suffix("_hist").unwrap_or(&metric).to_string();
                out.push_str(&format!("# TYPE {metric} histogram\n"));
                let mut cumulative = 0u64;
                for (b, &n) in hist.buckets().iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    cumulative += n;
                    let le = crate::hist::bucket_upper_bound(b);
                    out.push_str(&format!("{metric}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
                out.push_str(&format!(
                    "{metric}_bucket{{le=\"+Inf\"}} {}\n{metric}_sum {}\n{metric}_count {}\n",
                    hist.count(),
                    hist.approx_sum(),
                    hist.count()
                ));
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

/// A value token that Prometheus will parse as a number (non-numeric
/// strings would corrupt the exposition; they should be `Label` kinds).
fn numeric(value: &str) -> String {
    if value.parse::<f64>().is_ok() {
        value.to_string()
    } else {
        "0".to_string()
    }
}

/// One parsed exposition sample: metric name, optional single label
/// (`key="value"`), value.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    pub name: String,
    pub label: Option<(String, String)>,
    pub value: f64,
}

/// Parses [`render_prometheus`] output back into samples — what the
/// round-trip tests and the CI smoke use to assert the exposition is
/// well-formed. Comment lines (`# …`) are validated to be HELP/TYPE/EOF;
/// anything else must be `name[{k="v"}] value`.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    let mut saw_eof = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if comment == "EOF" {
                saw_eof = true;
            } else if !comment.starts_with("HELP ") && !comment.starts_with("TYPE ") {
                return Err(format!("bad exposition comment {line:?}"));
            }
            continue;
        }
        let (series, value) =
            line.rsplit_once(' ').ok_or_else(|| format!("bad exposition line {line:?}"))?;
        let value: f64 = value.parse().map_err(|_| format!("bad exposition value in {line:?}"))?;
        let (name, label) = match series.split_once('{') {
            None => (series.to_string(), None),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').ok_or_else(|| format!("bad labels {line:?}"))?;
                let (k, v) =
                    body.split_once('=').ok_or_else(|| format!("bad label pair {line:?}"))?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("unquoted label value {line:?}"))?;
                (name.to_string(), Some((k.to_string(), v.to_string())))
            }
        };
        samples.push(PromSample { name, label, value });
    }
    if !saw_eof {
        return Err("exposition missing # EOF terminator".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_patterns_resolve_expected_fields() {
        for (name, rule) in [
            ("requests", MergeRule::Sum),
            ("epoch", MergeRule::MustAgree),
            ("wal", MergeRule::Min),
            ("qps", MergeRule::SumF64),
            ("plan_lazy", MergeRule::Sum),
            ("plan_degraded", MergeRule::Sum),
            ("lat_hist", MergeRule::HistMerge),
            ("wal_fsync_hist", MergeRule::HistMerge),
            ("router_lat_hist", MergeRule::HistMerge),
        ] {
            assert_eq!(spec_for(name).unwrap().merge, rule, "{name}");
        }
        assert!(matches!(
            spec_for("ewma_lazy_us").unwrap().merge,
            MergeRule::WeightedMean { weight: "plan_*" }
        ));
        assert!(matches!(
            spec_for("lat_p99_us").unwrap().merge,
            MergeRule::Quantile { hist: "*_hist", q } if (q - 0.99).abs() < 1e-9
        ));
        assert!(matches!(spec_for("wal_fsync_p99_us").unwrap().merge, MergeRule::Quantile { .. }));
        assert!(spec_for("made_up_field").is_none());
        // Literals beat patterns: lat_mean_us is not swallowed by any glob.
        assert!(matches!(
            spec_for("lat_mean_us").unwrap().merge,
            MergeRule::WeightedMean { weight: "ok" }
        ));
    }

    #[test]
    fn schema_patterns_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for spec in SCHEMA {
            assert!(seen.insert(spec.pattern), "duplicate schema row {:?}", spec.pattern);
            assert!(
                spec.pattern.matches('*').count() <= 1,
                "pattern {:?} has more than one wildcard",
                spec.pattern
            );
        }
    }

    #[test]
    fn registry_exports_registered_values() {
        let registry = Registry::new();
        let requests = registry.counter("requests");
        let cache_len = registry.gauge("cache_len");
        let hist = registry.histogram("lat_hist");
        requests.inc();
        requests.add(2);
        cache_len.set(7);
        hist.record(100);
        let fields: BTreeMap<String, String> = registry.export().into_iter().collect();
        assert_eq!(fields["requests"], "3");
        assert_eq!(fields["cache_len"], "7");
        assert_eq!(fields["lat_hist"], "7:1");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn registry_rejects_undeclared_names() {
        Registry::new().counter("made_up_field");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn registry_rejects_duplicates() {
        let registry = Registry::new();
        let _a = registry.counter("requests");
        let _b = registry.counter("requests");
    }

    fn reply(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    fn absorb_all(merged: &mut MergedFields, pairs: &[(&str, &str)]) {
        let owned = reply(pairs);
        merged.absorb(owned.iter().map(|(k, v)| (k.as_str(), v.as_str()))).unwrap();
    }

    #[test]
    fn merge_follows_declared_rules() {
        let mut merged = MergedFields::new();
        absorb_all(
            &mut merged,
            &[
                ("requests", "10"),
                ("epoch", "3"),
                ("qps", "1.50"),
                ("backend", "lazy"),
                ("prepared", "0"),
                ("wal", "1"),
                ("plan_lazy", "4"),
                ("ewma_lazy_us", "100.0"),
                ("lat_hist", "3:4"),
                ("lat_p50_us", "7"),
                ("cache_hits", "3"),
                ("cache_misses", "1"),
                ("cache_hit_rate", "0.7500"),
            ],
        );
        absorb_all(
            &mut merged,
            &[
                ("requests", "5"),
                ("epoch", "3"),
                ("qps", "0.25"),
                ("backend", "lazy"),
                ("prepared", "1"),
                ("wal", "0"),
                ("plan_lazy", "1"),
                ("ewma_lazy_us", "200.0"),
                ("lat_hist", "5:1"),
                ("lat_p50_us", "31"),
                ("cache_hits", "1"),
                ("cache_misses", "3"),
                ("cache_hit_rate", "0.2500"),
            ],
        );
        let out: BTreeMap<String, String> = merged.finish().unwrap().into_iter().collect();
        assert_eq!(out["requests"], "15");
        assert_eq!(out["epoch"], "3");
        assert_eq!(out["qps"], "1.75");
        assert_eq!(out["backend"], "lazy");
        assert_eq!(out["prepared"], "1");
        assert_eq!(out["wal"], "0", "cluster is durable only if every replica is");
        assert_eq!(out["plan_lazy"], "5");
        // Decision-weighted: (100*4 + 200*1) / 5 = 120.
        assert_eq!(out["ewma_lazy_us"], "120.0");
        // Histogram merged bucket-wise; p50 recomputed from the merge
        // (5 samples, rank 3 of 4 in bucket 3 = [4,7], interpolated to
        // 4 + 3/4*3 = 6), not averaged.
        assert_eq!(out["lat_hist"], "3:4,5:1");
        assert_eq!(out["lat_p50_us"], "6");
        // Hit rate recomputed from merged counts: 4 / 8.
        assert_eq!(out["cache_hit_rate"], "0.5000");
    }

    #[test]
    fn merge_rejects_unregistered_fields() {
        let mut merged = MergedFields::new();
        let owned = reply(&[("no_such_field", "1")]);
        let err = merged.absorb(owned.iter().map(|(k, v)| (k.as_str(), v.as_str()))).unwrap_err();
        assert!(err.contains("no_such_field"), "{err}");
    }

    #[test]
    fn merge_surfaces_epoch_divergence() {
        let mut merged = MergedFields::new();
        absorb_all(&mut merged, &[("epoch", "3")]);
        absorb_all(&mut merged, &[("epoch", "4")]);
        let err = merged.finish().unwrap_err();
        assert!(err.contains("mixed epoch"), "{err}");
    }

    #[test]
    fn ewma_smooths_and_inherits() {
        let e = Ewma::new();
        assert_eq!(e.value(), None);
        e.observe(100.0, 0.2);
        assert_eq!(e.value(), Some(100.0), "first observation seeds");
        e.observe(200.0, 0.2);
        assert!((e.value().unwrap() - 120.0).abs() < 1e-9);
        let f = Ewma::new();
        f.inherit(&e);
        assert_eq!(f.value(), e.value());
        assert_eq!(f.count(), 2);
    }

    #[test]
    fn prometheus_round_trips() {
        let registry = Registry::new();
        let requests = registry.counter("requests");
        requests.add(42);
        let hist = registry.histogram("lat_hist");
        hist.record(3);
        hist.record(100);
        let mut fields = FieldSet::new();
        fields.extend_from_registry(&registry);
        fields.push("backend", "lazy");
        fields.push("qps", "1.25");
        let text = render_prometheus(fields.into_fields().into_iter());
        let samples = parse_prometheus(&text).unwrap();
        let get = |name: &str| samples.iter().find(|s| s.name == name).unwrap();
        assert_eq!(get("pitex_requests").value, 42.0);
        assert_eq!(get("pitex_qps").value, 1.25);
        assert_eq!(get("pitex_backend").label, Some(("value".to_string(), "lazy".to_string())));
        assert_eq!(get("pitex_lat_count").value, 2.0);
        let buckets: Vec<&PromSample> =
            samples.iter().filter(|s| s.name == "pitex_lat_bucket").collect();
        assert_eq!(buckets.last().unwrap().label.as_ref().unwrap().1, "+Inf");
        // Cumulative counts are monotone.
        let values: Vec<f64> = buckets.iter().map(|s| s.value).collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1]), "{values:?}");
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn parse_prometheus_rejects_garbage() {
        assert!(parse_prometheus("pitex_x 1\n").is_err(), "missing EOF");
        assert!(parse_prometheus("pitex_x notanumber\n# EOF\n").is_err());
        assert!(parse_prometheus("# BOGUS comment\n# EOF\n").is_err());
        assert!(parse_prometheus("pitex_x{a=b} 1\n# EOF\n").is_err(), "unquoted label");
    }
}
