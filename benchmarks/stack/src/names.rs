//! The normative names: workloads, end-to-end metrics and per-layer
//! metrics, with units and directions. `BENCHMARK.json` at the repository
//! root lists the same names (a unit test compares the two), and later
//! issues name their claims as `<metric>` on `<workload>`.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that holds this table equal to `BENCHMARK.json`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher }
}

pub const WORKLOADS: [&str; 5] =
    ["online_lazy", "index_plus", "live_repair", "serve_hit", "routed_miss"];

/// The six end-to-end metrics, the same set on every workload. Timings are
/// in reference-speed units (see `cal`).
pub const END_TO_END: [MetricSpec; 6] = [
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("op_p50_us", "us"),
    lower("op_p95_us", "us"),
    lower("peak_rss_mb", "MB"),
    higher("answer_spread", "users"),
];

/// The per-layer ledger. Layers are the crates; `proc`, `raw`, `cal`,
/// `trace` and `ledger` describe the process and the harness itself.
pub const PER_LAYER: &[MetricSpec] = &[
    // datasets / graph
    lower("datasets.generate_ms", "ms"),
    higher("graph.nodes", "count"),
    higher("graph.edges", "count"),
    // model
    lower("model.learn_s", "s"),
    lower("model.posterior_ns", "ns"),
    lower("model.bound_posterior_ns", "ns"),
    lower("model.edge_prob_ns", "ns"),
    lower("model.edge_prob_lookups_per_op", "count"),
    lower("model.edge_prob_distinct_share", "share"),
    lower("model.decode_ms", "ms"),
    lower("model.encode_ms", "ms"),
    lower("model.heap_mb", "MB"),
    // sampling
    lower("sampling.lazy_us_per_estimate", "us"),
    lower("sampling.rr_us_per_estimate", "us"),
    lower("sampling.mc_us_per_estimate", "us"),
    lower("sampling.samples_per_op", "count"),
    lower("sampling.edges_per_op", "count"),
    lower("sampling.estimates_per_op", "count"),
    lower("sampling.busy_share", "share"),
    // index
    lower("index.build_s", "s"),
    higher("index.build_graphs_per_s", "1/s"),
    lower("index.heap_mb", "MB"),
    lower("index.bytes_per_graph", "B"),
    lower("index.artifact_mb", "MB"),
    lower("index.encode_ms", "ms"),
    lower("index.decode_ms", "ms"),
    lower("index.est_us_per_estimate", "us"),
    lower("index.est_plus_us_per_estimate", "us"),
    lower("index.delay_build_s", "s"),
    lower("index.delay_us_per_estimate", "us"),
    lower("index.edges_per_op", "count"),
    lower("index.estimates_per_op", "count"),
    lower("index.busy_share", "share"),
    // core
    lower("core.explore_self_us_per_op", "us"),
    lower("core.self_share", "share"),
    lower("core.tag_sets_evaluated_per_op", "count"),
    lower("core.tag_sets_infeasible_per_op", "count"),
    lower("core.bounds_per_op", "count"),
    higher("core.partials_pruned_per_op", "count"),
    higher("core.prune_share", "share"),
    lower("core.plan_ns", "ns"),
    lower("core.engine_build_us", "us"),
    // live
    lower("live.overlay_apply_ns", "ns"),
    lower("live.compact_ms", "ms"),
    lower("live.repair_ms", "ms"),
    lower("live.rebuild_ms", "ms"),
    lower("live.repair_resampled_per_op", "count"),
    higher("live.repair_reused_share", "share"),
    lower("live.full_rebuild_share", "share"),
    lower("live.first_query_ms", "ms"),
    lower("live.swap_us", "us"),
    lower("live.wal_append_us", "us"),
    // serve
    lower("serve.floor_echo_us", "us"),
    lower("serve.ping_binary_us", "us"),
    lower("serve.ping_text_us", "us"),
    lower("serve.hit_binary_us", "us"),
    lower("serve.hit_text_us", "us"),
    lower("serve.miss_binary_us", "us"),
    lower("serve.burst16_us_per_query", "us"),
    lower("serve.ping_over_echo_us", "us"),
    lower("serve.hit_over_ping_us", "us"),
    lower("serve.miss_over_hit_us", "us"),
    lower("serve.frame_encode_ns", "ns"),
    lower("serve.frame_decode_ns", "ns"),
    lower("serve.text_parse_ns", "ns"),
    lower("serve.text_format_ns", "ns"),
    lower("serve.stats_us", "us"),
    lower("serve.http_metrics_us", "us"),
    lower("serve.boot_ms", "ms"),
    higher("serve.cache_hit_share", "share"),
    lower("serve.busy_share", "share"),
    lower("serve.conn_aborted", "count"),
    // cluster
    lower("cluster.ping_router_us", "us"),
    lower("cluster.hit_routed_us", "us"),
    lower("cluster.miss_routed_us", "us"),
    lower("cluster.hop_us", "us"),
    lower("cluster.scatter_stats_us", "us"),
    lower("cluster.reload_barrier_ms", "ms"),
    lower("cluster.shard_lookup_ns", "ns"),
    lower("cluster.failover_retries", "count"),
    // obs
    lower("obs.request_touch_ns", "ns"),
    lower("obs.hist_record_ns", "ns"),
    lower("obs.prometheus_render_us", "us"),
    lower("obs.timeseries_tick_us", "us"),
    lower("obs.trace_over_query_us", "us"),
    // support
    lower("support.lru_get_ns", "ns"),
    lower("support.lru_insert_ns", "ns"),
    // process / harness
    lower("proc.cpu_us_per_op", "us"),
    lower("proc.ctx_switches_per_op", "count"),
    lower("proc.alloc_count_per_op", "count"),
    lower("proc.alloc_bytes_per_op", "B"),
    lower("proc.read_syscalls_per_op", "count"),
    lower("proc.write_syscalls_per_op", "count"),
    lower("raw.setup_s", "s"),
    higher("raw.ops_per_s", "1/s"),
    lower("raw.op_p50_us", "us"),
    lower("raw.pooled_p95_us", "us"),
    higher("cal.factor_p50", "ratio"),
    lower("cal.factor_iqr", "ratio"),
    lower("trace.overhead_share", "share"),
    lower("ledger.residual_share", "share"),
];

/// The per-layer rows a workload's own traced pass fills (everything else
/// in [`PER_LAYER`] comes from the layer probes or the harness). A workload
/// that leaves a layer idle reports that layer's rows as 0 — except
/// `core.explore_self_us_per_op`, a time, which a workload that runs no
/// exploration in the harness's process takes from the `core` probe.
pub const WORKLOAD_ROWS: [&str; 16] = [
    "model.edge_prob_lookups_per_op",
    "model.edge_prob_distinct_share",
    "sampling.samples_per_op",
    "sampling.edges_per_op",
    "sampling.estimates_per_op",
    "sampling.busy_share",
    "index.edges_per_op",
    "index.estimates_per_op",
    "index.busy_share",
    "core.self_share",
    "core.tag_sets_evaluated_per_op",
    "core.tag_sets_infeasible_per_op",
    "core.bounds_per_op",
    "core.partials_pruned_per_op",
    "core.prune_share",
    "serve.busy_share",
];

/// Whether `name` may appear in `BENCHMARK.json`: starts with a letter or
/// digit, then at most 63 more of `[A-Za-z0-9_.-]`.
#[cfg(test)]
fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &all {
            assert!(is_valid_name(name), "{name:?}");
        }
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "a name is used once");
        assert!(!is_valid_name(".x") && !is_valid_name("") && !is_valid_name("a b"));
        assert!(PER_LAYER.len() <= 128);
    }

    /// The string values of `"key"` inside the top-level array `"section"`.
    fn json_strings(doc: &str, section: &str, key: &str) -> Vec<String> {
        let at = doc.find(&format!("\"{section}\"")).unwrap_or_else(|| panic!("no {section}"));
        let open = at + doc[at..].find('[').expect("section is an array");
        let close = open + doc[open..].find(']').expect("array closes");
        let needle = format!("\"{key}\"");
        let mut values = Vec::new();
        let mut rest = &doc[open..close];
        while let Some(pos) = rest.find(&needle) {
            rest = &rest[pos + needle.len()..];
            let start = rest.find('"').expect("value opens") + 1;
            let len = rest[start..].find('"').expect("value closes");
            values.push(rest[start..start + len].to_string());
            rest = &rest[start + len..];
        }
        values
    }

    #[test]
    fn benchmark_json_lists_the_same_names_units_and_directions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(json_strings(&doc, "workloads", "name"), WORKLOADS);
        for (section, specs) in [("end_to_end", &END_TO_END[..]), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = specs.iter().map(|m| m.name).collect();
            let units: Vec<&str> = specs.iter().map(|m| m.unit).collect();
            let better: Vec<&str> = specs.iter().map(|m| m.better.as_str()).collect();
            assert_eq!(json_strings(&doc, section, "name"), names, "{section} names");
            assert_eq!(json_strings(&doc, section, "unit"), units, "{section} units");
            assert_eq!(json_strings(&doc, section, "better"), better, "{section} directions");
        }
    }
}
