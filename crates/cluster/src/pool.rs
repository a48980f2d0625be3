//! Per-shard connection pools with health gating and replica failover.
//!
//! The router keeps, for every shard, a pool of pooled [`ServeClient`]
//! connections per replica. A shard call checks a connection out (idle
//! first, fresh dial otherwise), runs the request, and checks it back in on
//! success. Failures drive the health state: a replica that refuses a dial
//! or breaks mid-request is marked *down* for a cooldown window and the
//! call **fails over** to the shard's next replica — one dead replica costs
//! the cluster a retried round-trip, not an error. Down replicas rejoin two
//! ways: lazily (the cooldown expires and the next call re-tries them) and
//! actively (the router's prober thread — [`ShardPools::probe`] — which
//! checks not just liveness but *epoch agreement* with a healthy peer, and
//! re-quarantines a live replica that missed a reload while it was down).
//!
//! Back-pressure is per shard: at most `max_in_flight` calls may be
//! outstanding against one shard; beyond that the pool reports
//! [`CallError::Saturated`] and the router sheds the request with `BUSY`,
//! mirroring what a single `pitex_serve` does when its queue fills.

use crate::shardmap::ShardMap;
use pitex_live::SyncBundle;
use pitex_serve::{Request, Response, ServeClient};
use pitex_support::obs::Counter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning for [`ShardPools`].
#[derive(Clone, Copy, Debug)]
pub struct PoolOptions {
    /// Idle connections kept per replica (checked-out connections are not
    /// capped by this; it only bounds what lingers).
    pub idle_per_replica: usize,
    /// Concurrent calls allowed per shard before the pool sheds
    /// ([`CallError::Saturated`] → `BUSY`).
    pub max_in_flight: usize,
    /// How long a failed replica stays down before calls re-try it
    /// (default 500 ms).
    pub probe_cooldown: Duration,
    /// TCP dial timeout for pool connections (kept across a client's
    /// reconnect; default 1 s).
    pub connect_timeout: Duration,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self {
            idle_per_replica: 2,
            max_in_flight: 64,
            probe_cooldown: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(1),
        }
    }
}

/// Why a shard call failed without an answer.
#[derive(Debug)]
pub enum CallError {
    /// The shard's in-flight cap is reached: shed the request.
    Saturated,
    /// Every replica of the shard failed; the message names the last error.
    Unavailable(String),
}

/// One replica's pooled connections plus its health gate.
struct Replica {
    addr: String,
    idle: Mutex<Vec<ServeClient>>,
    /// `Some(t)`: considered down until `t` (calls skip it, the prober
    /// pings it). `None`: healthy.
    down_until: Mutex<Option<Instant>>,
}

impl Replica {
    fn new(addr: String) -> Self {
        Self { addr, idle: Mutex::new(Vec::new()), down_until: Mutex::new(None) }
    }

    /// Whether calls should try this replica right now (healthy, or the
    /// cooldown has expired and it deserves another chance).
    fn is_up(&self, now: Instant) -> bool {
        match *self.down_until.lock().unwrap() {
            Some(until) => now >= until,
            None => true,
        }
    }

    /// Whether the replica is currently marked down at all (regardless of
    /// cooldown expiry) — what the prober and `replicas_up` report.
    fn is_marked_down(&self) -> bool {
        self.down_until.lock().unwrap().is_some()
    }

    fn mark_down(&self, cooldown: Duration) {
        *self.down_until.lock().unwrap() = Some(Instant::now() + cooldown);
        // Pooled connections to a dead peer are worthless; drop them so a
        // revived replica starts from fresh dials.
        self.idle.lock().unwrap().clear();
    }

    fn mark_up(&self) {
        *self.down_until.lock().unwrap() = None;
    }

    fn take_idle(&self) -> Option<ServeClient> {
        self.idle.lock().unwrap().pop()
    }

    fn put_idle(&self, client: ServeClient, cap: usize) {
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < cap {
            idle.push(client);
        }
    }
}

struct ShardPool {
    replicas: Vec<Replica>,
    /// Round-robin cursor so consecutive calls spread over replicas.
    next: AtomicUsize,
    in_flight: AtomicUsize,
}

/// Decrements the shard's in-flight count on every exit path.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// All shards' pools — see the module docs.
pub struct ShardPools {
    shards: Vec<ShardPool>,
    options: PoolOptions,
    failovers: Counter,
    /// Probe attempts against down-marked replicas.
    probes: Counter,
    /// Probe attempts that left the replica quarantined (dead, refused, or
    /// failed catch-up).
    probe_failures: Counter,
    /// Replicas healed by prober-driven catch-up (SYNC replay).
    catchup_replicas: Counter,
    /// Epoch transitions replayed across all catch-ups.
    catchup_epochs: Counter,
    /// Ops replayed (committed + re-staged) across all catch-ups.
    catchup_ops: Counter,
}

/// Per-replica outcome of a [`ShardPools::broadcast`].
pub struct BroadcastOutcome<T> {
    /// Replica index within the shard.
    pub replica: usize,
    /// The replica's address (for error messages).
    pub addr: String,
    /// `Ok` with the call's value, or the I/O error that felled it.
    pub outcome: std::io::Result<T>,
}

impl ShardPools {
    /// One pool per shard of `map`, all replicas initially healthy.
    pub fn new(map: &ShardMap, options: PoolOptions) -> Self {
        let shards = (0..map.num_shards())
            .map(|s| ShardPool {
                replicas: map.replicas(s).iter().cloned().map(Replica::new).collect(),
                next: AtomicUsize::new(0),
                in_flight: AtomicUsize::new(0),
            })
            .collect();
        Self {
            shards,
            options,
            failovers: Counter::new(),
            probes: Counter::new(),
            probe_failures: Counter::new(),
            catchup_replicas: Counter::new(),
            catchup_epochs: Counter::new(),
            catchup_ops: Counter::new(),
        }
    }

    /// Cross-replica failovers performed since construction.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// The pool's event counters as shared [`Counter`] handles, keyed by
    /// the router's `STATS`/`METRICS` field names — what the router adopts
    /// into its registry so pool events export without a polling bridge.
    pub fn counters(&self) -> [(&'static str, Counter); 6] {
        [
            ("router_failovers", self.failovers.clone()),
            ("router_probes", self.probes.clone()),
            ("router_probe_failures", self.probe_failures.clone()),
            ("router_catchup_replicas", self.catchup_replicas.clone()),
            ("router_catchup_epochs", self.catchup_epochs.clone()),
            ("router_catchup_ops", self.catchup_ops.clone()),
        ]
    }

    /// `(replicas, epochs, ops)` healed/replayed by prober catch-up since
    /// construction — the router surfaces these in its merged `STATS`.
    pub fn catchup_counters(&self) -> (u64, u64, u64) {
        (self.catchup_replicas.get(), self.catchup_epochs.get(), self.catchup_ops.get())
    }

    /// `(up, total)` replica counts across all shards, as health probing
    /// currently sees them.
    pub fn replica_health(&self) -> (usize, usize) {
        let mut up = 0;
        let mut total = 0;
        for shard in &self.shards {
            for replica in &shard.replicas {
                total += 1;
                if !replica.is_marked_down() {
                    up += 1;
                }
            }
        }
        (up, total)
    }

    /// Dials a replica. The shard hop always speaks `PFRM` frames.
    fn connect(&self, replica: &Replica) -> std::io::Result<ServeClient> {
        ServeClient::connect_with(replica.addr.as_str(), Some(self.options.connect_timeout), true)
    }

    /// One of the replica's idle connections, or a fresh one.
    fn checkout(&self, replica: &Replica) -> std::io::Result<ServeClient> {
        replica.take_idle().map(Ok).unwrap_or_else(|| self.connect(replica))
    }

    /// Runs `f` against one replica of `shard`, failing over to the next
    /// replica on any I/O error (healthy replicas first, then down-marked
    /// ones as a last resort — a transiently mis-marked replica must not
    /// black a shard out). `f` may run more than once and must be
    /// idempotent against distinct replicas.
    pub fn call<T>(
        &self,
        shard: usize,
        f: impl FnMut(&mut ServeClient) -> std::io::Result<T>,
    ) -> Result<T, CallError> {
        let start = self.shards[shard].next.fetch_add(1, Ordering::Relaxed);
        self.call_from(shard, start, f)
    }

    /// [`call`](Self::call) with **cache affinity**: the starting replica
    /// is `key % healthy_count` instead of the round-robin cursor, so
    /// identical keys keep landing on the same healthy replica and warm
    /// *one* result cache rather than every replica's independently.
    /// Failover is unchanged — a dead favorite costs one hop to the next
    /// replica in order, and when the replica set heals the key snaps back
    /// to its stable favorite.
    pub fn call_keyed<T>(
        &self,
        shard: usize,
        key: u64,
        f: impl FnMut(&mut ServeClient) -> std::io::Result<T>,
    ) -> Result<T, CallError> {
        let pool = &self.shards[shard];
        let now = Instant::now();
        let up = pool.replicas.iter().filter(|r| r.is_up(now)).count();
        // With every replica down the rotation is over the full list; the
        // modulus only decides the *starting point*, never membership.
        let start = (key % pool.replicas.len().max(1) as u64) as usize;
        let keyed = if up > 0 {
            // Rotate over healthy slots: the i-th healthy replica (in index
            // order) starting from `key % up`, so the favorite is a pure
            // function of (key, healthy set).
            let healthy: Vec<usize> =
                (0..pool.replicas.len()).filter(|&r| pool.replicas[r].is_up(now)).collect();
            healthy[(key % up as u64) as usize]
        } else {
            start
        };
        self.call_from(shard, keyed, f)
    }

    /// The shared failover body: tries replicas in rotation order from
    /// `start`, healthy ones first.
    fn call_from<T>(
        &self,
        shard: usize,
        start: usize,
        mut f: impl FnMut(&mut ServeClient) -> std::io::Result<T>,
    ) -> Result<T, CallError> {
        let pool = &self.shards[shard];
        if pool.in_flight.fetch_add(1, Ordering::Relaxed) >= self.options.max_in_flight {
            pool.in_flight.fetch_sub(1, Ordering::Relaxed);
            return Err(CallError::Saturated);
        }
        let _guard = InFlightGuard(&pool.in_flight);

        let n = pool.replicas.len();
        let now = Instant::now();
        // Rotation order from `start`, healthy replicas before down-marked
        // ones.
        let order: Vec<usize> = (0..n)
            .map(|i| (start + i) % n)
            .filter(|&r| pool.replicas[r].is_up(now))
            .chain((0..n).map(|i| (start + i) % n).filter(|&r| !pool.replicas[r].is_up(now)))
            .collect();
        let mut last_err = None;
        let mut attempts = 0;
        for r in order {
            let replica = &pool.replicas[r];
            attempts += 1;
            let mut client = match self.checkout(replica) {
                Ok(client) => client,
                Err(e) => {
                    replica.mark_down(self.options.probe_cooldown);
                    last_err = Some(e);
                    continue;
                }
            };
            match f(&mut client) {
                Ok(value) => {
                    replica.mark_up();
                    replica.put_idle(client, self.options.idle_per_replica);
                    if attempts > 1 {
                        self.failovers.inc();
                    }
                    return Ok(value);
                }
                Err(e) => {
                    // The connection is in an unknown protocol state; drop
                    // it and treat the replica as suspect.
                    replica.mark_down(self.options.probe_cooldown);
                    last_err = Some(e);
                }
            }
        }
        let detail = last_err.map(|e| e.to_string()).unwrap_or_else(|| "no replicas".to_string());
        Err(CallError::Unavailable(format!("shard {shard}: {detail}")))
    }

    /// Runs `f` once against every replica of `shard`, returning
    /// per-replica outcomes for the caller's policy; failures mark the
    /// replica down as usual.
    ///
    /// `include_down` decides what "every" means. Admin fan-outs
    /// (`UPDATE`, the reload barrier) pass `true`: skipping a live replica
    /// there would silently diverge it, so even down-marked replicas get a
    /// dial. Read scatters (`STATS`) pass `false`: a down replica is
    /// already absent from the aggregate, and re-dialing a blackholed peer
    /// would stall every scatter by the connect timeout.
    pub fn broadcast<T>(
        &self,
        shard: usize,
        include_down: bool,
        mut f: impl FnMut(&mut ServeClient) -> std::io::Result<T>,
    ) -> Vec<BroadcastOutcome<T>> {
        let pool = &self.shards[shard];
        let now = Instant::now();
        pool.replicas
            .iter()
            .enumerate()
            .filter(|(_, replica)| include_down || replica.is_up(now))
            .map(|(r, replica)| {
                let outcome = self.checkout(replica).and_then(|mut client| {
                    let value = f(&mut client)?;
                    replica.mark_up();
                    replica.put_idle(client, self.options.idle_per_replica);
                    Ok(value)
                });
                if outcome.is_err() {
                    replica.mark_down(self.options.probe_cooldown);
                }
                BroadcastOutcome { replica: r, addr: replica.addr.clone(), outcome }
            })
            .collect()
    }

    /// Number of shards (mirrors the map).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Actively probes down-marked replicas, reviving those that are both
    /// alive (`PING`) **and** epoch-consistent with a healthy peer of the
    /// same shard (`EPOCH`). A replica that is alive but *behind* is no
    /// longer merely re-quarantined: the prober heals it in place — it
    /// fetches the committed-history suffix from a healthy donor
    /// (`SYNC <stale_epoch>`) and drives the stale replica through it
    /// (`DISCARD`, then per epoch `UPDATE…` + `PREPARE` + `COMMIT`, then
    /// re-staging the donor's pending ops) until its epoch matches, and
    /// only then readmits it. Folding and index repair are deterministic,
    /// so the healed replica answers bit-identically to the donor.
    /// Catch-up fails closed: any error (donor history compacted, replay
    /// rejected, epoch skew) leaves the replica quarantined for the
    /// operator. When epochs are unknowable — admin verbs disabled
    /// shard-side, or no healthy peer to compare against — revival falls
    /// back to liveness alone. Called periodically by the router's prober
    /// thread; returns how many replicas were revived.
    pub fn probe(&self) -> usize {
        let mut revived = 0;
        for shard in &self.shards {
            // Computed lazily, once per shard, only when a down replica
            // actually answers a PING.
            let mut reference: Option<Option<u64>> = None;
            for replica in &shard.replicas {
                if !replica.is_marked_down() {
                    continue;
                }
                self.probes.inc();
                let Ok(mut client) = self.connect(replica) else {
                    self.probe_failures.inc();
                    continue;
                };
                if client.ping().is_err() {
                    self.probe_failures.inc();
                    continue;
                }
                let reference = *reference.get_or_insert_with(|| self.reference_epoch(shard));
                let agrees = match (reference, epoch_of(&mut client)) {
                    (Some(want), Ok(Some(have))) => {
                        want == have
                            || (have < want && self.catch_up(shard, &mut client, have).is_ok())
                    }
                    (_, Err(_)) => false,
                    // Epochs unknowable on one side or the other.
                    _ => true,
                };
                if agrees {
                    replica.mark_up();
                    replica.put_idle(client, self.options.idle_per_replica);
                    revived += 1;
                } else {
                    // Ahead of the reference, refused a verb, or catch-up
                    // failed: re-quarantine so the lazy cooldown expiry
                    // cannot readmit it before it is consistent. (For this
                    // to hold, the prober must run more often than the
                    // cooldown — the defaults are 200 ms vs. 500 ms.)
                    self.probe_failures.inc();
                    replica.mark_down(self.options.probe_cooldown);
                }
            }
        }
        revived
    }

    /// Replays a healthy donor's committed history onto a live-but-stale
    /// replica until its epoch matches the donor's. The replica first
    /// `DISCARD`s its local staged state (e.g. pending ops restored from
    /// its own WAL) — the donor's bundle carries the authoritative pending
    /// set, and replaying on top of a non-empty overlay would double-apply.
    fn catch_up(
        &self,
        shard: &ShardPool,
        stale: &mut ServeClient,
        have: u64,
    ) -> std::io::Result<()> {
        let bundle = self.sync_from_donor(shard, have)?;
        stale.discard()?;
        let mut epochs = 0u64;
        let mut ops = 0u64;
        for batch in &bundle.records {
            if batch.epoch <= have {
                continue;
            }
            for op in &batch.ops {
                stale.update(op.clone())?;
                ops += 1;
            }
            // One barrier per batch, empty batches included: the replica
            // must walk the same epoch sequence the donor did, or its
            // epoch number would diverge from its content history.
            stale.prepare()?;
            let committed = stale.commit()?;
            if committed.epoch != batch.epoch {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "catch-up skew: replica committed epoch {} where the donor history \
                         says {}",
                        committed.epoch, batch.epoch
                    ),
                ));
            }
            epochs += 1;
        }
        for op in &bundle.pending {
            stale.update(op.clone())?;
            ops += 1;
        }
        let now = stale.epoch()?;
        if now != bundle.epoch {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("catch-up ended at epoch {now}, donor bundle claims {}", bundle.epoch),
            ));
        }
        self.catchup_replicas.inc();
        self.catchup_epochs.add(epochs);
        self.catchup_ops.add(ops);
        Ok(())
    }

    /// Fetches the catch-up bundle from the first healthy replica of
    /// `shard` that serves `SYNC from_epoch`. A donor whose history no
    /// longer reaches back to `from_epoch` (compacted) answers an error;
    /// the next donor is tried, and with none left the catch-up fails
    /// closed (the replica stays quarantined for an operator resync).
    fn sync_from_donor(&self, shard: &ShardPool, from_epoch: u64) -> std::io::Result<SyncBundle> {
        let mut last_err = None;
        for replica in &shard.replicas {
            if replica.is_marked_down() {
                continue;
            }
            let mut client = match self.checkout(replica) {
                Ok(client) => client,
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            };
            match client.sync(from_epoch) {
                Ok(bundle) => {
                    replica.put_idle(client, self.options.idle_per_replica);
                    return Ok(bundle);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no healthy donor for SYNC")
        }))
    }

    /// The serving epoch of the first healthy replica of `shard` that
    /// reports one (`None`: no healthy replica, or admin verbs disabled).
    fn reference_epoch(&self, shard: &ShardPool) -> Option<u64> {
        for replica in &shard.replicas {
            if replica.is_marked_down() {
                continue;
            }
            let Ok(mut client) = self.checkout(replica) else { continue };
            if let Ok(Some(epoch)) = epoch_of(&mut client) {
                replica.put_idle(client, self.options.idle_per_replica);
                return Some(epoch);
            }
        }
        None
    }
}

/// The replica's serving epoch: `Ok(Some(e))` when it answers `EPOCH`,
/// `Ok(None)` when it answers but refuses (admin verbs disabled — the
/// epoch is unknowable, not wrong), `Err` on a transport failure.
fn epoch_of(client: &mut ServeClient) -> std::io::Result<Option<u64>> {
    match client.request(&Request::Epoch)? {
        Response::Epoch(epoch) => Ok(Some(epoch)),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitex_core::{EngineBackend, EngineHandle, PitexConfig};
    use pitex_model::TicModel;
    use pitex_serve::{Response, ServeOptions, Server, ServerHandle};
    use std::sync::Arc;

    fn boot() -> ServerHandle {
        let handle = EngineHandle::new(
            Arc::new(TicModel::paper_example()),
            EngineBackend::Exact,
            PitexConfig::default(),
        )
        .unwrap();
        Server::spawn(handle, ("127.0.0.1", 0), ServeOptions::default()).unwrap()
    }

    fn map_of(addrs: Vec<Vec<String>>) -> ShardMap {
        ShardMap::new(addrs).unwrap()
    }

    #[test]
    fn call_reuses_pooled_connections() {
        let server = boot();
        let map = map_of(vec![vec![server.addr().to_string()]]);
        let pools = ShardPools::new(&map, PoolOptions::default());
        for _ in 0..5 {
            let response = pools.call(0, |client| client.query(0, 2)).unwrap();
            let Response::Ok(reply) = response else { panic!("expected OK") };
            assert_eq!(reply.tags, vec![2, 3]);
        }
        // One connection served all five calls (pooled between them).
        let stats = pools.call(0, |client| client.stats()).unwrap();
        assert_eq!(stats.get_u64("ok"), Some(5));
        assert_eq!(pools.failovers(), 0);
        server.stop().unwrap();
    }

    #[test]
    fn dead_replica_fails_over_and_revives_via_probe() {
        let a = boot();
        let b = boot();
        let b_addr = b.addr();
        let map = map_of(vec![vec![a.addr().to_string(), b.addr().to_string()]]);
        let options =
            PoolOptions { probe_cooldown: Duration::from_secs(3600), ..PoolOptions::default() };
        let pools = ShardPools::new(&map, options);

        // Both replicas answer; then kill one.
        for _ in 0..4 {
            pools.call(0, |client| client.ping()).unwrap();
        }
        b.stop().unwrap();
        for _ in 0..8 {
            pools.call(0, |client| client.ping()).expect("failover must hide the dead replica");
        }
        assert_eq!(pools.replica_health(), (1, 2), "the dead replica is marked down");

        // Restart on the same address: the long cooldown keeps calls away,
        // but an active probe revives it.
        let handle = EngineHandle::new(
            Arc::new(TicModel::paper_example()),
            EngineBackend::Exact,
            PitexConfig::default(),
        )
        .unwrap();
        let b2 = Server::spawn(handle, b_addr, ServeOptions::default()).unwrap();
        assert_eq!(pools.probe(), 1, "probe revives the restarted replica");
        assert_eq!(pools.replica_health(), (2, 2));
        a.stop().unwrap();
        b2.stop().unwrap();
    }

    #[test]
    fn all_replicas_dead_reports_unavailable() {
        let server = boot();
        let addr = server.addr().to_string();
        server.stop().unwrap();
        let map = map_of(vec![vec![addr]]);
        let pools = ShardPools::new(&map, PoolOptions::default());
        match pools.call(0, |client| client.ping()) {
            Err(CallError::Unavailable(msg)) => assert!(msg.contains("shard 0"), "{msg}"),
            other => panic!("expected Unavailable, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn saturation_sheds_instead_of_queueing() {
        let server = boot();
        let map = map_of(vec![vec![server.addr().to_string()]]);
        let options = PoolOptions { max_in_flight: 1, ..PoolOptions::default() };
        let pools = Arc::new(ShardPools::new(&map, options));
        // Hold the only slot by parking inside the call, then saturate.
        let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
        let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let pools2 = pools.clone();
            scope.spawn(move || {
                pools2
                    .call(0, |client| {
                        held_tx.send(()).unwrap();
                        hold_rx.recv().unwrap();
                        client.ping()
                    })
                    .unwrap();
            });
            held_rx.recv().unwrap();
            match pools.call(0, |client| client.ping()) {
                Err(CallError::Saturated) => {}
                other => panic!("expected Saturated, got {:?}", other.map(|_| ())),
            }
            hold_tx.send(()).unwrap();
        });
        // The slot is free again.
        pools.call(0, |client| client.ping()).unwrap();
        server.stop().unwrap();
    }

    #[test]
    fn keyed_calls_stick_to_one_replica_and_fail_over() {
        let a = boot();
        let b = boot();
        let map = map_of(vec![vec![a.addr().to_string(), b.addr().to_string()]]);
        let pools = ShardPools::new(&map, PoolOptions::default());

        // The same key lands on the same replica every time: exactly one
        // server observes all the pings.
        for _ in 0..6 {
            pools.call_keyed(0, 0x5EED, |client| client.ping()).unwrap();
        }
        let count_of = |server: &ServerHandle| {
            let mut probe = ServeClient::connect(server.addr()).unwrap();
            probe.stats().unwrap().get_u64("requests").unwrap()
        };
        let (on_a, on_b) = (count_of(&a), count_of(&b));
        // One replica served 6 pings (+1 for the probe), the other only
        // its own probe.
        assert_eq!(on_a.min(on_b), 1, "the unfavored replica saw no keyed call");
        assert_eq!(on_a.max(on_b), 7, "all keyed calls stuck to one replica");

        // Kill the favorite: the key fails over and keeps answering.
        let (favorite, other) = if on_a > on_b { (a, b) } else { (b, a) };
        favorite.stop().unwrap();
        for _ in 0..4 {
            pools.call_keyed(0, 0x5EED, |client| client.ping()).unwrap();
        }
        other.stop().unwrap();
    }

    #[test]
    fn broadcast_reaches_every_replica() {
        let a = boot();
        let b = boot();
        let map = map_of(vec![vec![a.addr().to_string(), b.addr().to_string()]]);
        let pools = ShardPools::new(&map, PoolOptions::default());
        let outcomes = pools.broadcast(0, true, |client| client.ping());
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.outcome.is_ok()));
        a.stop().unwrap();
        // A dead replica surfaces as its own failed outcome under the
        // admin policy (include_down = true)...
        let outcomes = pools.broadcast(0, true, |client| client.ping());
        let failed = outcomes.iter().filter(|o| o.outcome.is_err()).count();
        assert_eq!(failed, 1, "exactly the killed replica fails");
        // ...and, once marked down, is skipped entirely by the scatter
        // policy (include_down = false) instead of re-dialed per request.
        let outcomes = pools.broadcast(0, false, |client| client.ping());
        assert_eq!(outcomes.len(), 1, "scatters skip the down-marked replica");
        assert!(outcomes[0].outcome.is_ok());
        b.stop().unwrap();
    }

    /// A query answer reduced to its engine-determined parts: `cached` and
    /// `us` legitimately differ between replicas, the rest must not.
    fn answer_of(addr: std::net::SocketAddr, user: u32, k: usize) -> (Vec<u32>, f64) {
        let mut client = ServeClient::connect(addr).unwrap();
        let Response::Ok(reply) = client.query(user, k).unwrap() else { panic!("expected OK") };
        (reply.tags, reply.spread)
    }

    #[test]
    fn probe_heals_a_stale_epoch_replica_via_catch_up() {
        let a = boot();
        let b = boot();
        let b_addr = b.addr();
        let map = map_of(vec![vec![a.addr().to_string(), b.addr().to_string()]]);
        let options =
            PoolOptions { probe_cooldown: Duration::from_secs(3600), ..PoolOptions::default() };
        let pools = ShardPools::new(&map, options);
        for _ in 0..4 {
            pools.call(0, |client| client.ping()).unwrap();
        }
        b.stop().unwrap();
        for _ in 0..8 {
            pools.call(0, |client| client.ping()).unwrap();
        }
        assert_eq!(pools.replica_health(), (1, 2), "the dead replica is marked down");

        // The surviving replica mutates and reloads while b is gone:
        // epochs diverge and so do the answers.
        let mut admin = ServeClient::connect(a.addr()).unwrap();
        admin.update(pitex_live::UpdateOp::DetachTag { tag: 2 }).unwrap();
        admin.update(pitex_live::UpdateOp::DetachTag { tag: 3 }).unwrap();
        assert_eq!(admin.reload().unwrap().epoch, 2);

        // Restart b at epoch 1: alive, but one epoch behind with different
        // content. The probe must not readmit it as-is — it heals it: SYNC
        // from a, replay the missed batch, and only then revive.
        let handle = EngineHandle::new(
            Arc::new(TicModel::paper_example()),
            EngineBackend::Exact,
            PitexConfig::default(),
        )
        .unwrap();
        let b2 = Server::spawn(handle, b_addr, ServeOptions::default()).unwrap();
        assert_eq!(pools.probe(), 1, "a stale replica is caught up and rejoins");
        assert_eq!(pools.replica_health(), (2, 2));
        let (healed, epochs, ops) = pools.catchup_counters();
        assert_eq!((healed, epochs, ops), (1, 1, 2), "one replica, one epoch, two ops");

        // The healed replica answers bit-identically to its donor — the
        // detached tags are gone on both — and every query through the
        // pool (now striping across both replicas) succeeds.
        assert_eq!(answer_of(b_addr, 0, 2), answer_of(a.addr(), 0, 2));
        assert_eq!(answer_of(b_addr, 0, 2).0, vec![0, 1], "detached tags are gone");
        for _ in 0..8 {
            let response = pools.call(0, |client| client.query(0, 2)).unwrap();
            let Response::Ok(reply) = response else { panic!("expected OK") };
            assert_eq!(reply.tags, vec![0, 1]);
        }
        a.stop().unwrap();
        b2.stop().unwrap();
    }

    #[test]
    fn probe_heals_a_replica_that_missed_updates_and_pending_ops() {
        let a = boot();
        let b = boot();
        let b_addr = b.addr();
        let map = map_of(vec![vec![a.addr().to_string(), b.addr().to_string()]]);
        let options =
            PoolOptions { probe_cooldown: Duration::from_secs(3600), ..PoolOptions::default() };
        let pools = ShardPools::new(&map, options);
        for _ in 0..4 {
            pools.call(0, |client| client.ping()).unwrap();
        }
        b.stop().unwrap();
        for _ in 0..8 {
            pools.call(0, |client| client.ping()).unwrap();
        }
        assert_eq!(pools.replica_health(), (1, 2));

        // While b is gone, a commits two epochs' worth of updates *and*
        // keeps an uncommitted op staged on top — catch-up must replay the
        // committed history epoch by epoch and re-stage the pending tail.
        let mut admin = ServeClient::connect(a.addr()).unwrap();
        admin.update(pitex_live::UpdateOp::DetachTag { tag: 2 }).unwrap();
        assert_eq!(admin.reload().unwrap().epoch, 2);
        admin.update(pitex_live::UpdateOp::AddUser).unwrap();
        assert_eq!(admin.reload().unwrap().epoch, 3);
        admin.update(pitex_live::UpdateOp::DetachTag { tag: 3 }).unwrap();

        let handle = EngineHandle::new(
            Arc::new(TicModel::paper_example()),
            EngineBackend::Exact,
            PitexConfig::default(),
        )
        .unwrap();
        let b2 = Server::spawn(handle, b_addr, ServeOptions::default()).unwrap();
        assert_eq!(pools.probe(), 1, "catch-up replays both missed epochs");
        assert_eq!(pools.replica_health(), (2, 2));
        let (healed, epochs, ops) = pools.catchup_counters();
        assert_eq!((healed, epochs, ops), (1, 2, 3), "2 committed epochs + 1 pending op");

        // Same epoch, same committed content, and the pending op is staged
        // on the rejoiner too — the next cluster RELOAD folds it everywhere.
        let mut b_admin = ServeClient::connect(b_addr).unwrap();
        assert_eq!(b_admin.epoch().unwrap(), 3);
        let stats = b_admin.stats().unwrap();
        assert_eq!(stats.get_u64("updates_pending"), Some(1), "pending tail re-staged");
        assert_eq!(answer_of(b_addr, 0, 4), answer_of(a.addr(), 0, 4));
        assert_eq!(b_admin.reload().unwrap().epoch, 4);
        assert_eq!(answer_of(b_addr, 0, 2).0, vec![0, 1], "pending detach folded in");
        a.stop().unwrap();
        b2.stop().unwrap();
    }
}
