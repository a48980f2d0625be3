//! `serve_hit` — the latency a hot user sees.
//!
//! One op is one binary `PFRM` `QUERY u 3` round trip to an in-process
//! `Server` (one worker, a 4096-entry cache, the event loop on) over
//! loopback, for one of a few hundred hot light-tier users — every op a
//! cache hit. The `serve` inline path (frame decode, admit, cache, encode,
//! `writev`, event loop) and the `obs` touch work; the engine is bypassed,
//! so the prediction for any engine PR is *no change*.

use super::served::{self, Artifacts, Decoded, Echo, RawClient, Shard};
use crate::fixtures::{self, Sizes, K};
use crate::harness::{PassRun, Phases, Workload};
use crate::trace::{self, LedgerRow};
use pitex_serve::ServeClient;
use rand::seq::SliceRandom;

pub struct ServeHit;

/// Entries of the result cache: room for every hot key many times over.
pub const CACHE_CAPACITY: usize = 4096;
/// A traced pass runs this share of the op list (its spans are kept in
/// memory, four per op) and probes the floor after every this-many ops.
pub const TRACED_DIVISOR: usize = 10;
pub const PROBE_EVERY: usize = 8;

pub struct State {
    // Field order is drop order: clients hang up before the server stops.
    client: ServeClient,
    raw: RawClient,
    echo: Echo,
    _shard: Shard,
    decoded: Decoded,
    users: Vec<u32>,
    ops: Vec<u32>,
}

impl Workload for ServeHit {
    const NAME: &'static str = "serve_hit";
    type Input = Artifacts;
    type State = State;

    fn input(sizes: &Sizes) -> Artifacts {
        served::artifacts(sizes)
    }

    fn setup(input: &Artifacts, sizes: &Sizes, seed: u64, phases: &mut Phases) -> State {
        let decoded = served::decode(input, phases);
        let shard = phases.time("serve.boot", || Shard::boot(&decoded, CACHE_CAPACITY));
        let mut client = ServeClient::connect_binary(shard.addr()).expect("loopback connect");
        let raw = RawClient::connect(shard.addr()).expect("loopback connect");
        let echo = Echo::start().expect("loopback echo");
        let ranked = fixtures::users_by_cost(&decoded.model, &decoded.index);
        let (_, _, light) = fixtures::tiers(&ranked);
        let mut rng = fixtures::workload_rng(seed, 4);
        let users = fixtures::pick_users(light, sizes.hit_users, &mut rng);
        phases.time("warm", || {
            for &user in &users {
                client.query(user, K).expect("warming query");
            }
        });
        // Every hot user equally often, in a seeded order.
        let mut ops: Vec<u32> = (0..sizes.hit_ops).map(|i| users[i % users.len()]).collect();
        ops.shuffle(&mut rng);
        State { client, raw, echo, _shard: shard, decoded, users, ops }
    }

    fn run_pass(state: &mut State, run: &mut PassRun<'_>) {
        if !run.traced() {
            for &user in &state.ops {
                run.op(|| {
                    let response = state.client.query(user, K).map_err(|e| e.to_string())?;
                    served::expect_reply(response, true)
                });
            }
            return;
        }
        let traced_ops = &state.ops[..state.ops.len() / TRACED_DIVISOR];
        for (i, &user) in traced_ops.iter().enumerate() {
            run.op(|| served::expect_reply(state.raw.query(user, K)?, true));
            if i % PROBE_EVERY == 0 {
                // Back to back with the op, under the same machine state:
                // the kernel floor and the protocol floor on the same server.
                {
                    let _span = trace::enter("probe.echo");
                    state.echo.roundtrip().expect("echo round trip");
                }
                let _span = trace::enter("probe.ping");
                state.raw.request(&pitex_serve::Request::Ping).expect("ping round trip");
            }
        }
    }

    /// Every hot user's served answer equals the in-process engine's.
    fn check(state: &mut State) -> Result<(), String> {
        for &user in &state.users {
            let served = state.client.query(user, K).map_err(|e| e.to_string())?;
            let served = served::expect_reply(served, true)?;
            let local = state.decoded.query(user, K);
            if served != crate::harness::Answer::new(local.tags.tags(), local.spread) {
                return Err(format!("user {user}: served {served:?}, in-process {local:?}"));
            }
        }
        Ok(())
    }

    fn ledger(
        _state: &State,
        rows: &[LedgerRow],
        probes: &[LedgerRow],
        _ops: usize,
        _per_op_us: f64,
    ) -> Vec<(&'static str, f64)> {
        // What a faster `serve` could save: the op minus the kernel floor
        // the echo probe measured alongside it.
        let floor = trace::mean_seconds(probes, "probe.echo");
        vec![("serve.busy_share", (1.0 - floor / trace::mean_seconds(rows, "op")).max(0.0))]
    }
}
