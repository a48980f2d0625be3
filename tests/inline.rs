//! Small misses on the event loop: an INDEXEST+ shard runs a miss whose
//! certified work bound fits `INLINE_WORK` on the loop's own thread
//! instead of handing it to a worker. Nothing a client can see may change
//! but the `queries_inline` count: the same answers and the same books as
//! the blocking driver (which never inlines), a reload that the loop's own
//! engine follows, the same `TRACE` spans, and a per-wake budget that
//! sends a burst's overflow to the workers.

use pitex::core::registry::INLINE_WORK;
use pitex::prelude::*;
use pitex::serve::{QueryRequest, Request, Response, ServeClient, ServeOptions, Server};
use std::sync::Arc;

const INDEX_SEED: u64 = 11;
const BUDGET: IndexBudget = IndexBudget::PerVertex(8.0);

struct Fixture {
    model: Arc<TicModel>,
    index: Arc<RrIndex>,
}

impl Fixture {
    fn new() -> Fixture {
        let model = Arc::new(DatasetProfile::lastfm_like().scaled(0.1).generate());
        let index = Arc::new(RrIndex::build_with_threads(&model, BUDGET, INDEX_SEED, 2));
        Fixture { model, index }
    }

    fn handle(&self) -> EngineHandle {
        EngineHandle::with_indexes(
            self.model.clone(),
            EngineBackend::IndexEstPlus,
            Some(self.index.clone()),
            None,
            PitexConfig::default(),
        )
        .unwrap()
    }

    fn boot(&self, event_loop: Option<bool>) -> pitex::serve::ServerHandle {
        let options = ServeOptions { workers: 2, event_loop, ..ServeOptions::default() };
        Server::spawn(self.handle(), ("127.0.0.1", 0), options).unwrap()
    }

    /// `(user, k)`'s certified work, when it is small enough to run inline.
    fn bound(&self, user: u32, k: usize) -> Option<u64> {
        self.handle().work_bound(EngineBackend::IndexEstPlus, user, k)
    }

    fn users(&self) -> impl Iterator<Item = u32> {
        0..self.model.graph().num_nodes() as u32
    }

    /// Every user of a small panel at k = 1..3, with eligible and
    /// ineligible queries both in it.
    fn panel(&self) -> Vec<(u32, usize)> {
        let step = (self.model.graph().num_nodes() / 12).max(1);
        let panel: Vec<(u32, usize)> =
            self.users().step_by(step).flat_map(|user| (1..=3).map(move |k| (user, k))).collect();
        let eligible = panel.iter().filter(|&&(u, k)| self.bound(u, k).is_some()).count();
        assert!(eligible > 0 && eligible < panel.len(), "{eligible} of {} eligible", panel.len());
        panel
    }
}

fn answer(response: Response) -> (Vec<u32>, u64) {
    match response {
        Response::Ok(reply) => (reply.tags, reply.spread.to_bits()),
        other => panic!("expected OK, got {other:?}"),
    }
}

fn local(model: &TicModel, index: &RrIndex, user: u32, k: usize) -> (Vec<u32>, u64) {
    let result = PitexEngine::with_index_plus(model, index, PitexConfig::default()).query(user, k);
    (result.tags.tags().to_vec(), result.spread.to_bits())
}

fn stat(client: &mut ServeClient, key: &str) -> u64 {
    client.stats().unwrap().get_u64(key).unwrap_or_else(|| panic!("STATS lacks {key}"))
}

/// The `STATS` counters a request moves, `queries_inline` aside.
const BOOKS: &[&str] = &[
    "requests",
    "ok",
    "busy",
    "deadline",
    "errors",
    "worker_panics",
    "conn_aborted",
    "cache_hits",
    "cache_misses",
    "cache_insertions",
    "cache_len",
];

fn books(client: &mut ServeClient) -> Vec<u64> {
    let stats = client.stats().unwrap();
    BOOKS.iter().map(|key| stats.get_u64(key).unwrap_or_else(|| panic!("no {key}"))).collect()
}

#[test]
fn inline_and_deferred_misses_answer_and_book_alike() {
    let fixture = Fixture::new();
    let panel = fixture.panel();
    let eligible = panel.iter().filter(|&&(u, k)| fixture.bound(u, k).is_some()).count() as u64;
    let mut seen = Vec::new();
    for event_loop in [None, Some(false)] {
        let server = fixture.boot(event_loop);
        let mut client = ServeClient::connect_binary(server.addr()).unwrap();
        let before = books(&mut client);
        let inline_before = stat(&mut client, "queries_inline");
        let answers: Vec<(Vec<u32>, u64)> =
            panel.iter().map(|&(user, k)| answer(client.query(user, k).unwrap())).collect();
        let after = books(&mut client);
        let inline = stat(&mut client, "queries_inline") - inline_before;
        let deltas: Vec<u64> = before.iter().zip(&after).map(|(b, a)| a - b).collect();
        // One request at a time: every eligible miss has a wake's whole
        // budget to itself, so it runs inline exactly when it is eligible.
        let want = if event_loop == Some(false) { 0 } else { eligible };
        assert_eq!(inline, want, "event_loop {event_loop:?}");
        seen.push((answers, deltas));
        server.stop().unwrap();
    }
    assert_eq!(seen[0].0, seen[1].0, "the same answers on either driver");
    assert_eq!(seen[0].1, seen[1].1, "the same books on either driver: {BOOKS:?}");
    for (&(user, k), got) in panel.iter().zip(&seen[0].0) {
        let want = local(&fixture.model, &fixture.index, user, k);
        assert_eq!(got, &want, "user {user} k {k} against the in-process engine");
    }
}

#[test]
fn the_loops_engine_follows_a_reload() {
    let fixture = Fixture::new();
    let eligible: Vec<u32> = fixture.users().filter(|&u| fixture.bound(u, 1).is_some()).collect();
    let panel = &eligible[..eligible.len().min(8)];
    assert!(panel.len() >= 2);
    let server = fixture.boot(None);
    let mut client = ServeClient::connect_binary(server.addr()).unwrap();
    let old: Vec<(Vec<u32>, u64)> =
        panel.iter().map(|&user| answer(client.query(user, 1).unwrap())).collect();
    assert_eq!(stat(&mut client, "queries_inline"), panel.len() as u64);

    // Detaching the first user's best tag must change that user's answer.
    let op = UpdateOp::parse_text(&format!("DETACH_TAG {}", old[0].0[0])).unwrap();
    let mut overlay = ModelOverlay::new(fixture.model.clone());
    overlay.apply(op.clone()).unwrap();
    let new_model = overlay.compact();
    // Repair is bit-identical to a rebuild under the same budget and seed.
    let new_index = RrIndex::build_with_threads(&new_model, BUDGET, INDEX_SEED, 2);
    client.update(op).unwrap();
    client.reload().unwrap();
    assert_eq!(client.epoch().unwrap(), 2);

    let inline_before = stat(&mut client, "queries_inline");
    let new: Vec<(Vec<u32>, u64)> =
        panel.iter().map(|&user| answer(client.query(user, 1).unwrap())).collect();
    let inline = stat(&mut client, "queries_inline") - inline_before;
    assert_ne!(new[0], old[0], "the detach changed user {}'s answer", panel[0]);
    for (&user, got) in panel.iter().zip(&new) {
        assert_eq!(got, &local(&new_model, &new_index, user, 1), "user {user} after the reload");
    }
    // The first wake after the swap may still hold the old epoch's frame,
    // so its miss rides a worker; the loop rebuilds its engine after it.
    assert!(inline >= panel.len() as u64 - 1, "{inline} of {} inline", panel.len());
    server.stop().unwrap();
}

#[test]
fn an_inline_trace_has_the_deferred_spans() {
    let fixture = Fixture::new();
    let small = fixture.users().find(|&u| fixture.bound(u, 1).is_some()).unwrap();
    let (big, big_k) = fixture
        .users()
        .flat_map(|u| (1..=3).map(move |k| (u, k)))
        .find(|&(u, k)| fixture.bound(u, k).is_none())
        .unwrap();
    let server = fixture.boot(None);
    let mut client = ServeClient::connect_binary(server.addr()).unwrap();
    let inline = client.trace(small, 1, None, None, None).unwrap();
    assert_eq!(stat(&mut client, "queries_inline"), 1);
    let deferred = client.trace(big, big_k, None, None, None).unwrap();
    assert_eq!(stat(&mut client, "queries_inline"), 1, "the big miss rode a worker");
    let names = |spans: &[pitex::support::obs::Span]| -> Vec<String> {
        spans.iter().map(|s| s.name.to_string()).collect()
    };
    assert_eq!(names(&inline.spans), names(&deferred.spans));
    let queue = inline.spans.iter().find(|s| s.name == "queue").expect("a queue span");
    assert_eq!(queue.dur_us, 0, "an inline miss never waits in the queue");
    assert!(inline.spans.iter().any(|s| s.name == "execute"));
    assert!(!inline.cached && !deferred.cached);
    server.stop().unwrap();
}

#[test]
fn a_burst_past_the_wake_budget_spills_to_the_workers() {
    let fixture = Fixture::new();
    let mut eligible: Vec<(u64, u32, usize)> = fixture
        .users()
        .flat_map(|u| (1..=3).map(move |k| (u, k)))
        .filter_map(|(u, k)| fixture.bound(u, k).map(|w| (w, u, k)))
        .collect();
    eligible.sort_unstable_by(|a, b| b.cmp(a));
    // Heaviest first, until the burst certifies four wakes' worth of work.
    let mut work = 0;
    let burst: Vec<(u32, usize)> = eligible
        .iter()
        .take_while(|&&(w, _, _)| {
            work += w;
            work - w <= 4 * INLINE_WORK
        })
        .map(|&(_, u, k)| (u, k))
        .collect();
    assert!(work > 4 * INLINE_WORK, "the fixture certifies {work} units in all");
    let server = fixture.boot(None);
    let mut client = ServeClient::connect_binary(server.addr()).unwrap();
    let requests: Vec<Request> =
        burst.iter().map(|&(u, k)| Request::Query(QueryRequest::new(u, k))).collect();
    // `pipeline` fails on a duplicate or missing id, so each id is
    // answered exactly once.
    let replies = client.pipeline(&requests).unwrap();
    for (&(user, k), reply) in burst.iter().zip(replies) {
        assert_eq!(answer(reply), local(&fixture.model, &fixture.index, user, k), "user {user}");
    }
    let inline = stat(&mut client, "queries_inline");
    assert!(inline >= 1 && inline < burst.len() as u64, "{inline} of {} inline", burst.len());
    server.stop().unwrap();
}
