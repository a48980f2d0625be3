//! `routed_miss` — the router hop and the worker hand-off `serve_hit`
//! never touches.
//!
//! One op is one binary `QUERY u 1` through an in-process `Router` to one
//! of two shards (sharing the decoded `D1` snapshots, one worker each, no
//! cache), `u` among the light-tier users with the fewest `edges_visited`
//! at `k = 1`. `cluster` (front door, pool checkout, shard hop) and the
//! *deferred* path of `serve` (queue → worker → completion → `notify`)
//! work, plus a few µs of `index`/`core`. An event-loop change that helps
//! inline hits but hurts completions shows here.

use super::engine::QueryTotals;
use super::serve_hit::{PROBE_EVERY, TRACED_DIVISOR};
use super::served::{self, Artifacts, Decoded, Echo, Front, RawClient, Shard};
use crate::fixtures::{self, Sizes};
use crate::harness::{Answer, PassRun, Phases, Workload};
use crate::trace::{self, LedgerRow};
use pitex_cluster::ShardMap;
use pitex_core::{PitexEngine, QueryStats};
use pitex_serve::ServeClient;
use rand::seq::SliceRandom;

pub struct RoutedMiss;

/// Tags per query: one, so the engine's part of a miss stays a few µs.
pub const K_MISS: usize = 1;
/// Light-tier candidates per kept user, `(panel, seeded)`: the cheapest
/// `miss_users` of them are kept.
const CANDIDATES_PER_USER: (usize, usize) = (7, 1);

pub struct State {
    // Field order is drop order: clients, then the router, then its shards.
    client: ServeClient,
    raw: RawClient,
    direct: Vec<RawClient>,
    echo: Echo,
    _front: Front,
    _shards: Vec<Shard>,
    decoded: Decoded,
    map: ShardMap,
    users: Vec<u32>,
    ops: Vec<u32>,
    /// The engine's own counters for the op list, from the in-process
    /// answers (the served engine cannot be wrapped from outside).
    queries: QueryTotals,
}

impl Workload for RoutedMiss {
    const NAME: &'static str = "routed_miss";
    type Input = Artifacts;
    type State = State;

    fn input(sizes: &Sizes) -> Artifacts {
        served::artifacts(sizes)
    }

    fn setup(input: &Artifacts, sizes: &Sizes, seed: u64, phases: &mut Phases) -> State {
        let decoded = served::decode(input, phases);
        let (shards, front) = phases.time("serve.boot", || {
            let shards = vec![Shard::boot(&decoded, 0), Shard::boot(&decoded, 0)];
            let front = Front::boot(&[&shards[0], &shards[1]]);
            (shards, front)
        });
        let map = ShardMap::new(shards.iter().map(|s| vec![s.addr().to_string()]).collect())
            .expect("two shards");
        let client = ServeClient::connect_binary(front.addr()).expect("loopback connect");
        let raw = RawClient::connect(front.addr()).expect("loopback connect");
        let direct = shards
            .iter()
            .map(|s| RawClient::connect(s.addr()).expect("loopback connect"))
            .collect();
        let echo = Echo::start().expect("loopback echo");

        // The cheapest users among a cost-stratified candidate set, an
        // eighth of it seeded: fewest edge visits at k = 1, ties by id.
        let ranked = fixtures::users_by_cost(&decoded.model, &decoded.index);
        let (_, _, light) = fixtures::tiers(&ranked);
        let mut rng = fixtures::workload_rng(seed, 5);
        let (fixed, seeded) = CANDIDATES_PER_USER;
        let candidates = fixtures::panel_and_picks(
            light,
            (sizes.miss_users * fixed, sizes.miss_users * seeded),
            &mut rng,
        );
        // One engine answers every candidate; each kept user's counters
        // are what the shard's engine will do for it, op after op.
        let mut costed: Vec<(u64, u32, QueryStats)> = phases.time("choose_users", || {
            let mut engine =
                PitexEngine::with_index_plus(&decoded.model, &decoded.index, fixtures::config());
            candidates
                .iter()
                .map(|&u| {
                    let stats = engine.query(u, K_MISS).stats;
                    (stats.edges_visited, u, stats)
                })
                .collect()
        });
        costed.sort_unstable_by_key(|&(edges, user, _)| (edges, user));
        costed.dedup_by_key(|&mut (_, user, _)| user);
        costed.truncate(sizes.miss_users);
        let users: Vec<u32> = costed.iter().map(|&(_, user, _)| user).collect();
        let mut ops: Vec<usize> = (0..sizes.miss_ops).map(|i| i % users.len()).collect();
        ops.shuffle(&mut rng);
        let mut queries = QueryTotals::default();
        for &slot in &ops {
            queries.add(&costed[slot].2);
        }
        let ops = ops.into_iter().map(|slot| users[slot]).collect();
        State {
            client,
            raw,
            direct,
            echo,
            _front: front,
            _shards: shards,
            decoded,
            map,
            users,
            ops,
            queries,
        }
    }

    fn run_pass(state: &mut State, run: &mut PassRun<'_>) {
        if !run.traced() {
            for &user in &state.ops {
                run.op(|| {
                    let response = state.client.query(user, K_MISS).map_err(|e| e.to_string())?;
                    served::expect_reply(response, false)
                });
            }
            return;
        }
        let traced_ops = &state.ops[..state.ops.len() / TRACED_DIVISOR];
        for (i, &user) in traced_ops.iter().enumerate() {
            run.op(|| served::expect_reply(state.raw.query(user, K_MISS)?, false));
            if i % PROBE_EVERY == 0 {
                {
                    let _span = trace::enter("probe.echo");
                    state.echo.roundtrip().expect("echo round trip");
                }
                // The same request straight to the owning shard: routed
                // minus direct is the hop.
                let _span = trace::enter("probe.direct");
                let shard = state.map.shard_of(user);
                state.direct[shard].query(user, K_MISS).expect("direct round trip");
            }
        }
    }

    /// Every user's routed answer equals the in-process engine's.
    fn check(state: &mut State) -> Result<(), String> {
        for &user in &state.users {
            let served = state.client.query(user, K_MISS).map_err(|e| e.to_string())?;
            let served = served::expect_reply(served, false)?;
            let local = state.decoded.query(user, K_MISS);
            if served != Answer::new(local.tags.tags(), local.spread) {
                return Err(format!("user {user}: routed {served:?}, in-process {local:?}"));
            }
        }
        Ok(())
    }

    fn ledger(
        state: &State,
        rows: &[LedgerRow],
        probes: &[LedgerRow],
        ops: usize,
        _per_op_us: f64,
    ) -> Vec<(&'static str, f64)> {
        let n = ops as f64;
        let q = &state.queries;
        let probe = |name: &str| trace::mean_seconds(probes, name);
        let shard_part = probe("probe.direct") - probe("probe.echo");
        vec![
            // The shard's part of a routed miss, above the kernel floor.
            ("serve.busy_share", (shard_part / trace::mean_seconds(rows, "op")).max(0.0)),
            ("index.edges_per_op", q.edges as f64 / n),
            ("index.estimates_per_op", (q.evaluated + q.bounds) as f64 / n),
            ("core.tag_sets_evaluated_per_op", q.evaluated as f64 / n),
            ("core.tag_sets_infeasible_per_op", q.infeasible as f64 / n),
            ("core.bounds_per_op", q.bounds as f64 / n),
            ("core.partials_pruned_per_op", q.pruned as f64 / n),
        ]
    }
}
