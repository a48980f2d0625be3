//! The PITEX query engine: enumeration (§4) and best-effort exploration
//! (§5.2, Algo. 5).
//!
//! Both strategies run in one loop, `PitexEngine::explore`: §4 offers every
//! size-`k` set in `KSubsets` order; Algo. 5 pops the `Frontier` and
//! offers the size-`k` sets it reaches, bounding each partial set with
//! Lemma 8 and pruning it (or, at the top of the frontier, everything left)
//! once the bound cannot beat the incumbent. The incumbent is the only
//! difference between [`PitexEngine::query`] and
//! [`PitexEngine::query_top_n`], and each keeps its tie rule — exact ties
//! are ordinary, as the index estimators' spreads are ratios of integer hit
//! counts:
//!
//! * `query` keeps the first strictly larger spread, in `KSubsets` order or
//!   in pop order;
//! * `query_top_n` keeps the `n` best in a min-heap, and on a tie in spread
//!   the smaller set stays.

use crate::backends::EngineBackend;
use crate::frontier::Frontier;
use crate::plan::{PlanDecision, PlanInput, Planner};
use crate::query::{PitexResult, QueryStats};
use crate::registry::{self, EngineParts};
use crate::OrdF64;
use pitex_graph::NodeId;
use pitex_index::{DelayMatIndex, RrIndex};
use pitex_model::bound::{BoundedPosterior, UpperBoundEdgeProbs};
use pitex_model::combi::KSubsets;
use pitex_model::{
    BoundOracle, EdgeProbCache, PosteriorEdgeProbs, TagId, TagSet, TicModel, TopicPosterior,
};
use pitex_sampling::{SamplingParams, SpreadEstimator};
use pitex_support::Timer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Duration;

pub use crate::registry::MissingIndexError;

/// How the space of tag sets is searched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExplorationStrategy {
    /// Algo. 5: heap-ordered partial sets with Lemma-8 upper-bound pruning.
    /// The paper's default for every reported method (§7.3).
    #[default]
    BestEffort,
    /// The §4 baseline: estimate every feasible size-`k` set.
    Enumerate,
}

/// Engine configuration (paper defaults: ε = 0.7, δ = 1000).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PitexConfig {
    /// Relative error target ε of the sampling guarantee.
    pub epsilon: f64,
    /// Confidence parameter δ (results hold with probability 1 − δ⁻¹).
    pub delta: f64,
    /// RNG seed for all sampling backends.
    pub seed: u64,
    /// Search strategy.
    pub strategy: ExplorationStrategy,
}

impl Default for PitexConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.7,
            delta: 1000.0,
            seed: 0x517c_c1b7,
            strategy: ExplorationStrategy::BestEffort,
        }
    }
}

/// The PITEX query engine, generic over its spread-estimation backend.
pub struct PitexEngine<'a> {
    model: &'a TicModel,
    estimator: Box<dyn SpreadEstimator + 'a>,
    oracle: BoundOracle,
    cache: EdgeProbCache,
    /// The posterior / bound weights of the tag set being estimated; one
    /// allocation each for the hundreds of tag sets of a query.
    posterior: TopicPosterior,
    bounded: BoundedPosterior,
    /// Best-effort exploration's queue, reused from query to query.
    frontier: Frontier,
    config: PitexConfig,
}

impl<'a> PitexEngine<'a> {
    /// Builds an engine around an arbitrary backend.
    pub fn new(
        model: &'a TicModel,
        estimator: Box<dyn SpreadEstimator + 'a>,
        config: PitexConfig,
    ) -> Self {
        let oracle = BoundOracle::new(model.tag_topic());
        let cache = model.new_prob_cache();
        Self {
            model,
            estimator,
            oracle,
            cache,
            posterior: TopicPosterior::default(),
            bounded: BoundedPosterior::default(),
            frontier: Frontier::default(),
            config,
        }
    }

    /// Builds an engine for any concrete backend through the
    /// [`crate::registry`] — the one construction path every convenience
    /// constructor below routes through.
    ///
    /// # Panics
    /// If `backend` is [`EngineBackend::Auto`] (resolve it through an
    /// [`EngineHandle`] first — planning needs the shared snapshot set).
    pub fn with_backend(
        model: &'a TicModel,
        backend: EngineBackend,
        rr_index: Option<&'a RrIndex>,
        delay_index: Option<&'a DelayMatIndex>,
        config: PitexConfig,
    ) -> Result<Self, MissingIndexError> {
        let spec = registry::spec(backend).expect("auto resolves through an EngineHandle");
        let parts = EngineParts { model, rr_index, delay_index, config };
        Ok(Self::new(model, spec.build(&parts)?, config))
    }

    fn with_online(model: &'a TicModel, backend: EngineBackend, config: PitexConfig) -> Self {
        Self::with_backend(model, backend, None, None, config)
            .expect("online backends need no artifact")
    }

    /// Engine with the exact possible-world evaluator (tiny graphs only).
    pub fn with_exact(model: &'a TicModel, config: PitexConfig) -> Self {
        Self::with_online(model, EngineBackend::Exact, config)
    }

    /// Engine with Monte-Carlo sampling (the paper's MC).
    pub fn with_mc(model: &'a TicModel, config: PitexConfig) -> Self {
        Self::with_online(model, EngineBackend::Mc, config)
    }

    /// Engine with reverse-reachable sampling (the paper's RR).
    pub fn with_rr(model: &'a TicModel, config: PitexConfig) -> Self {
        Self::with_online(model, EngineBackend::Rr, config)
    }

    /// Engine with lazy propagation sampling (the paper's LAZY).
    pub fn with_lazy(model: &'a TicModel, config: PitexConfig) -> Self {
        Self::with_online(model, EngineBackend::Lazy, config)
    }

    /// Engine with the tree-based TIM baseline.
    pub fn with_tim(model: &'a TicModel, config: PitexConfig) -> Self {
        Self::with_online(model, EngineBackend::Tim, config)
    }

    /// Engine with the plain RR-Graph index (INDEXEST).
    pub fn with_index(model: &'a TicModel, index: &'a RrIndex, config: PitexConfig) -> Self {
        Self::with_backend(model, EngineBackend::IndexEst, Some(index), None, config)
            .expect("the index is provided")
    }

    /// Engine with the edge-cut-filtered index (INDEXEST+).
    pub fn with_index_plus(model: &'a TicModel, index: &'a RrIndex, config: PitexConfig) -> Self {
        Self::with_backend(model, EngineBackend::IndexEstPlus, Some(index), None, config)
            .expect("the index is provided")
    }

    /// Engine with the delay-materialized index (DELAYMAT).
    pub fn with_delay(model: &'a TicModel, index: &'a DelayMatIndex, config: PitexConfig) -> Self {
        Self::with_backend(model, EngineBackend::DelayMat, None, Some(index), config)
            .expect("the index is provided")
    }

    /// The backend's display name (matches the paper's method labels).
    pub fn backend_name(&self) -> &'static str {
        self.estimator.name()
    }

    pub fn config(&self) -> &PitexConfig {
        &self.config
    }

    pub fn model(&self) -> &'a TicModel {
        self.model
    }

    /// Sampling parameters for a query of size `k` under the configured
    /// strategy (the union bound covers the candidate space actually
    /// searched — `C(|Ω|,k)` for enumeration, `φ_k` for best-effort).
    pub fn sampling_params(&self, k: usize) -> SamplingParams {
        let base = match self.config.strategy {
            ExplorationStrategy::Enumerate => SamplingParams::enumeration(
                self.config.epsilon,
                self.config.delta,
                self.model.num_tags(),
                k,
            ),
            ExplorationStrategy::BestEffort => SamplingParams::best_effort(
                self.config.epsilon,
                self.config.delta,
                self.model.num_tags(),
                k,
            ),
        };
        base.with_seed(self.config.seed)
    }

    /// Answers the PITEX query `(user, k)` (Def. 1).
    ///
    /// # Panics
    /// If `k` is 0 or `user` is out of range.
    pub fn query(&mut self, user: NodeId, k: usize) -> PitexResult {
        let timer = Timer::start();
        let mut best = Best::default();
        let (k, mut stats) = self.explore(user, k, &mut best);
        stats.elapsed = timer.elapsed();
        let (tags, spread) = best.answer();
        PitexResult { user, k, tags, spread, stats }
    }

    /// Estimates the spread of one concrete tag set under the engine's
    /// backend and accuracy parameters (public building block; the query
    /// loop uses the same path).
    pub fn estimate_tag_set(&mut self, user: NodeId, tags: &TagSet) -> f64 {
        let params = self.sampling_params(tags.len().max(1));
        let mut stats = QueryStats::default();
        self.estimate_full(user, tags, &params, &mut stats)
    }

    /// Exploration variant of the PITEX query: the `n` best size-`k` tag
    /// sets ranked by estimated spread, descending, and the work it took.
    /// Supports the paper's "explore how she influences the network" use
    /// case beyond a single argmax — a user inspecting their selling points
    /// wants a ranking.
    ///
    /// Best-effort pruning remains sound: a partial set is pruned only when
    /// its upper bound cannot beat the *n-th best* incumbent.
    ///
    /// # Panics
    /// If `k` or `n` is 0 or `user` is out of range.
    pub fn query_top_n(
        &mut self,
        user: NodeId,
        k: usize,
        n: usize,
    ) -> (Vec<(TagSet, f64)>, QueryStats) {
        assert!(n >= 1, "a ranking holds at least one tag set");
        let timer = Timer::start();
        let mut top = TopN { n, heap: BinaryHeap::new() };
        let (_, mut stats) = self.explore(user, k, &mut top);
        stats.elapsed = timer.elapsed();
        (top.ranking(), stats)
    }

    /// The one exploration loop: §4 or Algo. 5, by the configured strategy,
    /// offering every size-`k` set it estimates to `incumbent`. Returns `k`
    /// clamped to `|Ω|` and the work counts (`elapsed` left to the caller).
    fn explore(
        &mut self,
        user: NodeId,
        k: usize,
        incumbent: &mut impl Incumbent,
    ) -> (usize, QueryStats) {
        assert!(k >= 1, "PITEX queries select at least one tag");
        assert!((user as usize) < self.model.graph().num_nodes(), "user {user} out of range");
        let k = k.min(self.model.num_tags());
        let params = self.sampling_params(k);
        let mut stats = QueryStats::default();
        match self.config.strategy {
            ExplorationStrategy::Enumerate => {
                for subset in KSubsets::new(self.model.num_tags() as u32, k) {
                    let tags = TagSet::new(subset);
                    let spread = self.estimate_full(user, &tags, &params, &mut stats);
                    incumbent.offer(&tags, spread);
                }
            }
            ExplorationStrategy::BestEffort => {
                let mut frontier = std::mem::take(&mut self.frontier);
                frontier.reset(self.model.num_tags() as TagId);
                let mut tags = TagSet::empty();
                while let Some(inherited) = frontier.pop(&mut tags) {
                    // The frontier is bound-ordered: once the incumbent beats
                    // the top, every remaining entry is prunable at once.
                    if inherited <= incumbent.bar() {
                        stats.partials_pruned += 1 + frontier.remaining();
                        break;
                    }
                    if tags.len() == k {
                        let spread = self.estimate_full(user, &tags, &params, &mut stats);
                        incumbent.offer(&tags, spread);
                        continue;
                    }
                    // Partial set: refresh its own (tighter) bound before
                    // expanding.
                    let bound = self.estimate_bound(user, &tags, k, &params, &mut stats);
                    if bound <= incumbent.bar() {
                        stats.partials_pruned += 1;
                        continue;
                    }
                    // Canonical expansion (Appx. C): extend only with tags
                    // smaller than every current member, so each subset is
                    // generated once.
                    frontier.expand(&tags, bound.min(inherited));
                }
                self.frontier = frontier;
            }
        }
        (k, stats)
    }

    /// Estimates a full-size candidate; infeasible sets cost nothing and
    /// spread exactly 1 (only the user herself is active).
    fn estimate_full(
        &mut self,
        user: NodeId,
        tags: &TagSet,
        params: &SamplingParams,
        stats: &mut QueryStats,
    ) -> f64 {
        self.posterior.recompute(self.model.tag_topic(), tags);
        if self.posterior.is_empty() {
            stats.tag_sets_infeasible += 1;
            return 1.0;
        }
        stats.tag_sets_evaluated += 1;
        let mut probs =
            PosteriorEdgeProbs::new(self.model.edge_topics(), &self.posterior, &mut self.cache);
        let est = self.estimator.estimate(self.model.graph(), user, &mut probs, params);
        stats.absorb(&est);
        est.spread
    }

    /// Lemma-8 upper bound on the spread of any size-`k` completion of the
    /// partial set `tags`, evaluated through the same backend.
    fn estimate_bound(
        &mut self,
        user: NodeId,
        tags: &TagSet,
        k: usize,
        params: &SamplingParams,
        stats: &mut QueryStats,
    ) -> f64 {
        self.oracle.bounded_posterior_into(tags, k, &mut self.bounded);
        if self.bounded.entries().iter().all(|&(_, w)| w == 0.0) {
            // No topic can carry any completion: every edge bound is 0.
            return 1.0;
        }
        stats.bounds_computed += 1;
        let mut probs =
            UpperBoundEdgeProbs::new(self.model.edge_topics(), &self.bounded, &mut self.cache);
        let est = self.estimator.estimate(self.model.graph(), user, &mut probs, params);
        stats.absorb(&est);
        est.spread
    }
}

/// What [`PitexEngine::explore`] offers each estimated size-`k` set to.
trait Incumbent {
    /// The spread a set or a bound must beat to matter: `−∞` until the
    /// incumbent is full.
    fn bar(&self) -> f64;
    fn offer(&mut self, tags: &TagSet, spread: f64);
}

/// `query`'s incumbent: the first strictly larger spread wins.
#[derive(Default)]
struct Best(Option<(TagSet, f64)>);

impl Best {
    /// The winner; `(∅, 1)` when nothing was offered.
    fn answer(self) -> (TagSet, f64) {
        self.0.unwrap_or((TagSet::empty(), 1.0))
    }
}

impl Incumbent for Best {
    fn bar(&self) -> f64 {
        self.0.as_ref().map_or(f64::NEG_INFINITY, |&(_, s)| s)
    }

    fn offer(&mut self, tags: &TagSet, spread: f64) {
        if self.0.as_ref().map_or(true, |&(_, s)| spread > s) {
            self.0 = Some((tags.clone(), spread));
        }
    }
}

/// `query_top_n`'s incumbent: a min-heap of the `n` best by spread, where
/// on a tie the larger set is evicted and the smaller set stays.
struct TopN {
    n: usize,
    heap: BinaryHeap<Reverse<(OrdF64, Reverse<TagSet>)>>,
}

impl TopN {
    /// The kept sets by spread, descending, ties ascending by set.
    fn ranking(self) -> Vec<(TagSet, f64)> {
        let mut out: Vec<(TagSet, f64)> =
            self.heap.into_iter().map(|Reverse((OrdF64(s), Reverse(tags)))| (tags, s)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

impl Incumbent for TopN {
    fn bar(&self) -> f64 {
        match self.heap.peek() {
            Some(Reverse((OrdF64(s), _))) if self.heap.len() >= self.n => *s,
            _ => f64::NEG_INFINITY,
        }
    }

    fn offer(&mut self, tags: &TagSet, spread: f64) {
        self.heap.push(Reverse((OrdF64(spread), Reverse(tags.clone()))));
        if self.heap.len() > self.n {
            self.heap.pop();
        }
    }
}

/// Owned, shareable engine state: the immutable model / index snapshots
/// behind `Arc`s plus a backend choice and configuration.
///
/// [`PitexEngine`] deliberately borrows its model and memoises edge
/// probabilities behind `&mut self`, which makes a single engine useless for
/// concurrent serving. An `EngineHandle` is the owned complement: clone it
/// into as many worker threads as you like (clones share the underlying
/// snapshots) and let each worker build its private engine with
/// [`engine`](Self::engine). This is what `pitex_serve`'s worker pool and
/// [`crate::batch::query_batch_shared`] are built on.
///
/// ```
/// use pitex_core::{EngineBackend, EngineHandle, PitexConfig};
/// use pitex_model::TicModel;
/// use std::sync::Arc;
///
/// let model = Arc::new(TicModel::paper_example());
/// let handle = EngineHandle::new(model, EngineBackend::Lazy, PitexConfig::default()).unwrap();
/// let worker = handle.clone(); // e.g. moved into a thread
/// assert_eq!(worker.engine().query(0, 2).tags.tags(), &[2, 3]);
/// ```
#[derive(Clone)]
pub struct EngineHandle {
    model: Arc<TicModel>,
    rr_index: Option<Arc<RrIndex>>,
    delay_index: Option<Arc<DelayMatIndex>>,
    backend: EngineBackend,
    config: PitexConfig,
    /// Shared by every clone: the cost-based planner `backend=auto`
    /// resolves through, and the latency-EWMA sink every measured query
    /// feeds ([`Planner::observe`]).
    planner: Arc<Planner>,
}

impl std::fmt::Debug for EngineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The snapshots themselves are multi-megabyte; print their shape.
        f.debug_struct("EngineHandle")
            .field("backend", &self.backend)
            .field("config", &self.config)
            .field("nodes", &self.model.graph().num_nodes())
            .field("rr_index", &self.rr_index.is_some())
            .field("delay_index", &self.delay_index.is_some())
            .finish()
    }
}

impl EngineHandle {
    /// A handle for an index-free backend. Fails if `backend` needs an
    /// index artifact — pass it through [`with_indexes`](Self::with_indexes).
    pub fn new(
        model: Arc<TicModel>,
        backend: EngineBackend,
        config: PitexConfig,
    ) -> Result<Self, MissingIndexError> {
        Self::with_indexes(model, backend, None, None, config)
    }

    /// A handle over the full snapshot set. The indexes may be omitted when
    /// `backend` does not need them ([`EngineBackend::Auto`] needs nothing:
    /// its planner only ever selects among the artifacts actually present).
    pub fn with_indexes(
        model: Arc<TicModel>,
        backend: EngineBackend,
        rr_index: Option<Arc<RrIndex>>,
        delay_index: Option<Arc<DelayMatIndex>>,
        config: PitexConfig,
    ) -> Result<Self, MissingIndexError> {
        // A fixed backend missing its artifact fails here, at handle
        // construction, not on the first query.
        registry::require_artifacts(backend, rr_index.is_some(), delay_index.is_some())?;
        let planner =
            Arc::new(Planner::new(&model, rr_index.is_some(), delay_index.is_some(), &config));
        Ok(Self { model, rr_index, delay_index, backend, config, planner })
    }

    /// Builds a fresh engine borrowing this handle's shared snapshots.
    /// Cheap enough to call once per worker thread (or even per batch);
    /// each engine gets its own memoisation cache and sampler state.
    ///
    /// An `Auto` handle resolves through the planner with a typical query
    /// shape (average degree, `k = 2`, no deadline); per-query planning
    /// wants [`plan`](Self::plan) + [`engine_for`](Self::engine_for) or
    /// [`query_auto`](Self::query_auto) instead.
    pub fn engine(&self) -> PitexEngine<'_> {
        let backend = self.resolve_default();
        self.engine_for(backend).expect("resolved backends are constructible")
    }

    /// Builds an engine for one concrete backend over this handle's
    /// snapshots, regardless of the handle's own backend choice (`Auto`
    /// resolves through the planner first). This is what serve workers use
    /// to execute a planned or per-request-overridden backend.
    pub fn engine_for(&self, backend: EngineBackend) -> Result<PitexEngine<'_>, MissingIndexError> {
        let backend = if backend == EngineBackend::Auto { self.resolve_default() } else { backend };
        PitexEngine::with_backend(
            &self.model,
            backend,
            self.rr_index.as_deref(),
            self.delay_index.as_deref(),
            self.config,
        )
    }

    fn resolve_default(&self) -> EngineBackend {
        match self.backend {
            EngineBackend::Auto => {
                let degree = self.model.graph().num_edges() / self.model.graph().num_nodes().max(1);
                // `preview`, not `plan`: building an engine is not a query,
                // so it must not move the decision counters.
                self.planner
                    .preview(PlanInput { degree: degree.max(1), k: 2, budget_us: None })
                    .chosen
            }
            backend => backend,
        }
    }

    /// Plans one query: which backend to run, at what predicted cost, with
    /// the rejected alternatives. `budget` is the remaining deadline, if
    /// any. Increments the planner's decision counters.
    pub fn plan(&self, user: NodeId, k: usize, budget: Option<Duration>) -> PlanDecision {
        self.planner.plan(self.plan_input(user, k, budget))
    }

    /// Predicted service time of one backend for this query shape (what
    /// `EXPLAIN` reports for a forced backend).
    pub fn predicted_us(&self, backend: EngineBackend, user: NodeId, k: usize) -> u64 {
        self.planner.predicted_us(backend, &self.plan_input(user, k, None))
    }

    /// The certified worst-case work of `(user, k)` on `backend` over this
    /// handle's snapshots ([`registry::BackendSpec::work_bound`]): `Some`
    /// only for a backend that certifies one, and only within
    /// [`registry::INLINE_WORK`].
    pub fn work_bound(&self, backend: EngineBackend, user: NodeId, k: usize) -> Option<u64> {
        let parts = EngineParts {
            model: &self.model,
            rr_index: self.rr_index.as_deref(),
            delay_index: self.delay_index.as_deref(),
            config: self.config,
        };
        let k = k.clamp(1, self.model.num_tags());
        registry::spec(backend)?.work_bound(&parts, user, k)
    }

    fn plan_input(&self, user: NodeId, k: usize, budget: Option<Duration>) -> PlanInput {
        let graph = self.model.graph();
        let degree = if (user as usize) < graph.num_nodes() { graph.out_degree(user) } else { 0 };
        let k = k.clamp(1, self.model.num_tags());
        PlanInput { degree, k, budget_us: budget.map(|d| d.as_micros() as u64) }
    }

    /// Plans, executes and observes one query in a single call — the
    /// library-level `backend=auto` path. The answer is bit-identical to
    /// running the decision's backend directly (it *is* that engine).
    ///
    /// ```
    /// use pitex_core::{EngineBackend, EngineHandle, PitexConfig};
    /// use pitex_model::TicModel;
    /// use std::sync::Arc;
    ///
    /// let model = Arc::new(TicModel::paper_example());
    /// let handle = EngineHandle::new(model, EngineBackend::Auto, PitexConfig::default()).unwrap();
    /// let (result, decision) = handle.query_auto(0, 2, None);
    /// assert_eq!(result.tags.tags(), &[2, 3]); // W* = {w3, w4} either way
    /// assert_ne!(decision.chosen, EngineBackend::Auto, "resolved to a concrete backend");
    /// ```
    pub fn query_auto(
        &self,
        user: NodeId,
        k: usize,
        budget: Option<Duration>,
    ) -> (PitexResult, PlanDecision) {
        let decision = self.plan(user, k, budget);
        let mut engine =
            self.engine_for(decision.chosen).expect("the planner only picks available backends");
        let result = engine.query(user, k);
        self.planner.observe(decision.chosen, result.stats.elapsed.as_micros() as u64);
        (result, decision)
    }

    /// The shared planner (decision counters, latency EWMAs).
    pub fn planner(&self) -> &Arc<Planner> {
        &self.planner
    }

    /// The shared model snapshot.
    pub fn model(&self) -> &Arc<TicModel> {
        &self.model
    }

    /// The shared RR-Graph index snapshot, when the handle carries one.
    /// The live-update layer reads this to repair the index incrementally
    /// before swapping in a successor handle.
    pub fn rr_index(&self) -> Option<&Arc<RrIndex>> {
        self.rr_index.as_ref()
    }

    /// The shared delay-materialized index snapshot, when present.
    pub fn delay_index(&self) -> Option<&Arc<DelayMatIndex>> {
        self.delay_index.as_ref()
    }

    /// The backend every engine built from this handle uses.
    pub fn backend(&self) -> EngineBackend {
        self.backend
    }

    pub fn config(&self) -> &PitexConfig {
        &self.config
    }
}

/// The exploration loops over a heap of every queued tag set, one `TagSet`
/// per child: the reference the sibling-run frontier is tested against.
#[cfg(test)]
mod eager {
    use super::*;

    /// Algo. 5 with every child pushed at expansion.
    pub(super) fn best_effort(
        engine: &mut PitexEngine,
        user: NodeId,
        k: usize,
        params: &SamplingParams,
    ) -> (TagSet, f64, QueryStats) {
        let mut stats = QueryStats::default();
        let num_tags = engine.model.num_tags() as TagId;
        let mut heap: BinaryHeap<(OrdF64, Reverse<TagSet>)> = BinaryHeap::new();
        heap.push((OrdF64(f64::INFINITY), Reverse(TagSet::empty())));
        let mut best: Option<(TagSet, f64)> = None;
        let mut i_star = f64::NEG_INFINITY;

        while let Some((OrdF64(inherited), Reverse(tags))) = heap.pop() {
            if best.is_some() && inherited <= i_star {
                stats.partials_pruned += 1 + heap.len() as u64;
                break;
            }
            if tags.len() == k {
                let spread = engine.estimate_full(user, &tags, params, &mut stats);
                if best.is_none() || spread > i_star {
                    i_star = spread;
                    best = Some((tags, spread));
                }
                continue;
            }
            let bound = engine.estimate_bound(user, &tags, k, params, &mut stats);
            if best.is_some() && bound <= i_star {
                stats.partials_pruned += 1;
                continue;
            }
            let limit = tags.min_tag().unwrap_or(num_tags);
            for w in 0..limit {
                heap.push((OrdF64(bound.min(inherited)), Reverse(tags.with(w))));
            }
        }
        let (tags, spread) = best.unwrap_or((TagSet::empty(), 1.0));
        (tags, spread, stats)
    }

    /// [`PitexEngine::query_top_n`] under best-effort exploration.
    pub(super) fn top_n(
        engine: &mut PitexEngine,
        user: NodeId,
        k: usize,
        n: usize,
    ) -> Vec<(TagSet, f64)> {
        let k = k.min(engine.model.num_tags());
        let params = engine.sampling_params(k);
        let mut stats = QueryStats::default();
        let mut top: BinaryHeap<Reverse<(OrdF64, Reverse<TagSet>)>> = BinaryHeap::new();
        let nth_best = |top: &BinaryHeap<Reverse<(OrdF64, Reverse<TagSet>)>>| -> f64 {
            if top.len() < n {
                f64::NEG_INFINITY
            } else {
                top.peek().map(|Reverse((OrdF64(s), _))| *s).unwrap_or(f64::NEG_INFINITY)
            }
        };
        let num_tags = engine.model.num_tags() as TagId;
        let mut heap: BinaryHeap<(OrdF64, Reverse<TagSet>)> = BinaryHeap::new();
        heap.push((OrdF64(f64::INFINITY), Reverse(TagSet::empty())));
        while let Some((OrdF64(inherited), Reverse(tags))) = heap.pop() {
            if inherited <= nth_best(&top) {
                break;
            }
            if tags.len() == k {
                let spread = engine.estimate_full(user, &tags, &params, &mut stats);
                top.push(Reverse((OrdF64(spread), Reverse(tags))));
                if top.len() > n {
                    top.pop();
                }
                continue;
            }
            let bound = engine.estimate_bound(user, &tags, k, &params, &mut stats);
            if bound <= nth_best(&top) {
                continue;
            }
            let limit = tags.min_tag().unwrap_or(num_tags);
            for w in 0..limit {
                heap.push((OrdF64(bound.min(inherited)), Reverse(tags.with(w))));
            }
        }
        let mut out: Vec<(TagSet, f64)> =
            top.into_iter().map(|Reverse((OrdF64(s), Reverse(tags)))| (tags, s)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitex_model::genmodel::{random_model, EdgeProbKind, ModelGenConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The sibling-run frontier pops what the heap of every child pops:
        /// same answer, same spread bits, same `QueryStats`, and the same
        /// top-n rankings, under an exact, a sampling and an index backend.
        #[test]
        fn the_lazy_frontier_explores_like_the_eager_heap(
            seed in 0u64..u64::MAX,
            which in 0usize..3,
            k in 1usize..=4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let backend = [EngineBackend::Exact, EngineBackend::Lazy, EngineBackend::IndexEstPlus][which];
            let (n, m) = if backend == EngineBackend::Exact { (8, 9) } else { (40, 140) };
            let graph = pitex_graph::gen::erdos_renyi(n, m, &mut rng);
            let num_topics = rng.gen_range(2..7);
            let cfg = ModelGenConfig {
                num_topics,
                num_tags: rng.gen_range(4..10),
                density: rng.gen_range(0.2..0.7),
                topics_per_edge: (1, num_topics.min(3)),
                edge_prob: if rng.gen_bool(0.5) {
                    EdgeProbKind::Uniform { lo: 0.05, hi: 0.9 }
                } else {
                    EdgeProbKind::WeightedCascade
                },
            };
            let model = random_model(graph, &cfg, &mut rng);
            let index = (backend == EngineBackend::IndexEstPlus).then(|| {
                RrIndex::build_with_threads(&model, pitex_index::IndexBudget::PerVertex(8.0), seed, 1)
            });
            let config = PitexConfig { seed, ..PitexConfig::default() };
            let make = || PitexEngine::with_backend(&model, backend, index.as_ref(), None, config);
            let (mut lazy, mut heap) = (make().unwrap(), make().unwrap());
            let k = k.min(model.num_tags());
            let params = lazy.sampling_params(k);
            for user in (0..n as NodeId).step_by(n / 4) {
                let mut best = Best::default();
                let (_, stats) = lazy.explore(user, k, &mut best);
                let (tags, spread) = best.answer();
                let want = eager::best_effort(&mut heap, user, k, &params);
                prop_assert_eq!(&tags, &want.0, "user {} k {}", user, k);
                prop_assert_eq!(spread.to_bits(), want.1.to_bits());
                prop_assert_eq!(stats, want.2);
                for top in [1, 2, 5] {
                    let got = lazy.query_top_n(user, k, top).0;
                    let want = eager::top_n(&mut heap, user, k, top);
                    let bits = |ranked: &[(TagSet, f64)]| -> Vec<(TagSet, u64)> {
                        ranked.iter().map(|(t, s)| (t.clone(), s.to_bits())).collect()
                    };
                    prop_assert_eq!(bits(&got), bits(&want), "user {} k {} n {}", user, k, top);
                }
            }
        }
    }

    fn exact_engine(strategy: ExplorationStrategy) -> (TicModel, PitexConfig) {
        let model = TicModel::paper_example();
        let config = PitexConfig { strategy, ..PitexConfig::default() };
        (model, config)
    }

    #[test]
    fn paper_example_optimum_exact_backend() {
        // The paper's Example 1: W* = {w3, w4} for (u1, k = 2).
        let (model, config) = exact_engine(ExplorationStrategy::BestEffort);
        let mut engine = PitexEngine::with_exact(&model, config);
        let result = engine.query(0, 2);
        assert_eq!(result.tags, TagSet::from([2, 3]));
        // E[I(u1|{w3,w4})]: u3 w.p. .5, u6 via u3->u6, u7 via u6->u7.
        let p13 = model.edge_prob(model.graph().find_edge(0, 2).unwrap(), &result.tags);
        assert!(result.spread > 1.5 && result.spread < 2.5, "spread {}", result.spread);
        assert!(p13 > 0.49);
    }

    #[test]
    fn best_effort_equals_enumeration_with_exact_backend() {
        let model = TicModel::paper_example();
        for user in 0..model.graph().num_nodes() as u32 {
            for k in 1..=3usize {
                let mut enumerate = PitexEngine::with_exact(
                    &model,
                    PitexConfig { strategy: ExplorationStrategy::Enumerate, ..Default::default() },
                );
                let mut besteff = PitexEngine::with_exact(
                    &model,
                    PitexConfig { strategy: ExplorationStrategy::BestEffort, ..Default::default() },
                );
                let a = enumerate.query(user, k);
                let b = besteff.query(user, k);
                assert!(
                    (a.spread - b.spread).abs() < 1e-9,
                    "user {user} k {k}: enum {} vs best-effort {}",
                    a.spread,
                    b.spread
                );
            }
        }
    }

    #[test]
    fn best_effort_prunes_on_the_paper_example() {
        let (model, config) = exact_engine(ExplorationStrategy::BestEffort);
        let mut engine = PitexEngine::with_exact(&model, config);
        let result = engine.query(0, 2);
        let enumerated = {
            let (model2, config2) = exact_engine(ExplorationStrategy::Enumerate);
            let mut e = PitexEngine::with_exact(&model2, config2);
            let r = e.query(0, 2);
            r.stats.tag_sets_evaluated + r.stats.tag_sets_infeasible
        };
        let touched = result.stats.tag_sets_evaluated + result.stats.tag_sets_infeasible;
        assert!(
            touched <= enumerated,
            "best-effort touched {touched} ≥ enumeration's {enumerated}"
        );
    }

    #[test]
    fn lazy_backend_finds_the_paper_optimum() {
        let (model, config) = exact_engine(ExplorationStrategy::BestEffort);
        let mut engine = PitexEngine::with_lazy(&model, config);
        let result = engine.query(0, 2);
        assert_eq!(result.tags, TagSet::from([2, 3]), "spread {}", result.spread);
        assert!(result.stats.samples_used > 0);
    }

    #[test]
    fn mc_and_rr_backends_find_the_paper_optimum() {
        let (model, config) = exact_engine(ExplorationStrategy::BestEffort);
        let mut mc = PitexEngine::with_mc(&model, config);
        assert_eq!(mc.query(0, 2).tags, TagSet::from([2, 3]));
        let mut rr = PitexEngine::with_rr(&model, config);
        assert_eq!(rr.query(0, 2).tags, TagSet::from([2, 3]));
    }

    #[test]
    fn tim_backend_runs_and_reports_name() {
        let (model, config) = exact_engine(ExplorationStrategy::BestEffort);
        let mut engine = PitexEngine::with_tim(&model, config);
        assert_eq!(engine.backend_name(), "TIM");
        let result = engine.query(0, 2);
        assert_eq!(result.k, 2);
        assert!(result.spread >= 1.0);
    }

    #[test]
    fn k_one_selects_the_single_best_tag() {
        let (model, config) = exact_engine(ExplorationStrategy::Enumerate);
        let mut engine = PitexEngine::with_exact(&model, config);
        let result = engine.query(0, 1);
        assert_eq!(result.tags.len(), 1);
        // w3 or w4 (symmetric) dominate: they activate the z3-heavy subtree.
        assert!(result.tags.contains(2) || result.tags.contains(3));
    }

    #[test]
    fn k_clamps_to_tag_count() {
        let (model, config) = exact_engine(ExplorationStrategy::Enumerate);
        let mut engine = PitexEngine::with_exact(&model, config);
        let result = engine.query(0, 99);
        assert_eq!(result.k, 4);
        assert_eq!(result.tags.len(), 4, "the only size-|Ω| set");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let (model, config) = exact_engine(ExplorationStrategy::BestEffort);
        let mut a = PitexEngine::with_lazy(&model, config);
        let mut b = PitexEngine::with_lazy(&model, config);
        let ra = a.query(0, 2);
        let rb = b.query(0, 2);
        assert_eq!(ra.tags, rb.tags);
        assert_eq!(ra.spread, rb.spread);
    }

    #[test]
    fn isolated_user_gets_unit_spread() {
        // u5 (id 4) has no out-edges: any tag set gives spread 1.
        let (model, config) = exact_engine(ExplorationStrategy::BestEffort);
        let mut engine = PitexEngine::with_exact(&model, config);
        let result = engine.query(4, 2);
        assert_eq!(result.spread, 1.0);
        assert_eq!(result.tags.len(), 2);
    }

    #[test]
    fn estimate_tag_set_matches_query_winner() {
        let (model, config) = exact_engine(ExplorationStrategy::BestEffort);
        let mut engine = PitexEngine::with_exact(&model, config);
        let result = engine.query(0, 2);
        let direct = engine.estimate_tag_set(0, &result.tags);
        assert!((direct - result.spread).abs() < 1e-9);
    }

    #[test]
    fn top_n_ranks_all_pairs_exactly() {
        let (model, config) = exact_engine(ExplorationStrategy::Enumerate);
        let mut engine = PitexEngine::with_exact(&model, config);
        let all = engine.query_top_n(0, 2, 6).0;
        assert_eq!(all.len(), 6, "C(4,2) candidates");
        assert_eq!(all[0].0, TagSet::from([2, 3]), "W* ranks first");
        for pair in all.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "descending order");
        }
        // Top-1 agrees with the plain query.
        let top1 = engine.query_top_n(0, 2, 1).0;
        assert_eq!(top1[0].0, engine.query(0, 2).tags);
    }

    /// Seeded models small enough for EXACT: the paper example, Fig. 3(a)'s
    /// low-impact stars and sparse Erdős–Rényi graphs.
    fn exact_sized_models() -> Vec<TicModel> {
        let mut models = vec![TicModel::paper_example()];
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = match seed {
                0 => pitex_graph::gen::star_low_impact(12),
                1 => pitex_graph::gen::star_low_impact(5),
                _ => pitex_graph::gen::erdos_renyi(8, 13, &mut rng),
            };
            let num_topics = rng.gen_range(2..5);
            let cfg = ModelGenConfig {
                num_topics,
                num_tags: rng.gen_range(4..7),
                density: rng.gen_range(0.3..0.7),
                topics_per_edge: (1, num_topics.min(3)),
                edge_prob: EdgeProbKind::Uniform { lo: 0.05, hi: 0.9 },
            };
            models.push(random_model(graph, &cfg, &mut rng));
        }
        models
    }

    /// Lemma 8 at spread level: under EXACT, the bound the engine prunes a
    /// partial set `W` with is at least the spread of every size-`k`
    /// completion of `W`.
    #[test]
    fn lemma8_bound_dominates_every_completion_under_exact() {
        for (m, model) in exact_sized_models().iter().enumerate() {
            let mut engine = PitexEngine::with_exact(model, PitexConfig::default());
            let num_tags = model.num_tags() as u32;
            for user in 0..model.graph().num_nodes() as NodeId {
                for k in 1..=3 {
                    let params = engine.sampling_params(k);
                    let mut stats = QueryStats::default();
                    let full: Vec<(TagSet, f64)> = KSubsets::new(num_tags, k)
                        .map(TagSet::new)
                        .map(|tags| {
                            let spread = engine.estimate_full(user, &tags, &params, &mut stats);
                            (tags, spread)
                        })
                        .collect();
                    let partials = (1..k).flat_map(|size| KSubsets::new(num_tags, size));
                    for partial in std::iter::once(TagSet::empty()).chain(partials.map(TagSet::new))
                    {
                        let bound = engine.estimate_bound(user, &partial, k, &params, &mut stats);
                        for (tags, spread) in full.iter().filter(|(t, _)| partial.is_subset_of(t)) {
                            assert!(
                                bound >= spread - 1e-9,
                                "model {m} user {user} k {k}: bound {bound} of {partial} \
                                 < spread {spread} of {tags}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// With EXACT, pruning loses nothing: best-effort answers with
    /// enumeration's spread bit for bit, and ranks the same spreads.
    #[test]
    fn top_n_best_effort_matches_enumeration() {
        for (m, model) in exact_sized_models().iter().enumerate() {
            let engine = |strategy| {
                PitexEngine::with_exact(model, PitexConfig { strategy, ..Default::default() })
            };
            let mut enumerate = engine(ExplorationStrategy::Enumerate);
            let mut besteff = engine(ExplorationStrategy::BestEffort);
            for user in 0..model.graph().num_nodes() as NodeId {
                for k in 1..=3 {
                    let a = enumerate.query(user, k);
                    let b = besteff.query(user, k);
                    assert_eq!(
                        a.spread.to_bits(),
                        b.spread.to_bits(),
                        "model {m} user {user} k {k}"
                    );
                    for n in [1usize, 2, 5] {
                        let spreads = |ranked: Vec<(TagSet, f64)>| -> Vec<u64> {
                            ranked.iter().map(|(_, s)| s.to_bits()).collect()
                        };
                        assert_eq!(
                            spreads(enumerate.query_top_n(user, k, n).0),
                            spreads(besteff.query_top_n(user, k, n).0),
                            "model {m} user {user} k {k} n {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn handle_builds_every_index_free_backend() {
        let model = Arc::new(TicModel::paper_example());
        for backend in [
            EngineBackend::Lazy,
            EngineBackend::Mc,
            EngineBackend::Rr,
            EngineBackend::Tim,
            EngineBackend::Exact,
        ] {
            let handle = EngineHandle::new(model.clone(), backend, PitexConfig::default()).unwrap();
            let mut engine = handle.engine();
            assert_eq!(engine.backend_name(), backend.label());
            assert_eq!(engine.query(0, 2).tags, TagSet::from([2, 3]), "{}", backend.label());
        }
    }

    #[test]
    fn handle_rejects_index_backends_without_artifacts() {
        let model = Arc::new(TicModel::paper_example());
        for backend in
            [EngineBackend::IndexEst, EngineBackend::IndexEstPlus, EngineBackend::DelayMat]
        {
            let err = EngineHandle::new(model.clone(), backend, PitexConfig::default())
                .expect_err("must demand an index");
            assert_eq!(err.backend(), backend);
            assert!(err.to_string().contains(backend.label()));
        }
    }

    #[test]
    fn handle_serves_index_backends_from_shared_snapshots() {
        let model = Arc::new(TicModel::paper_example());
        let rr = Arc::new(RrIndex::build(&model, pitex_index::IndexBudget::Fixed(3_000), 3));
        let delay =
            Arc::new(DelayMatIndex::build(&model, pitex_index::IndexBudget::Fixed(3_000), 3));
        for backend in
            [EngineBackend::IndexEst, EngineBackend::IndexEstPlus, EngineBackend::DelayMat]
        {
            let handle = EngineHandle::with_indexes(
                model.clone(),
                backend,
                Some(rr.clone()),
                Some(delay.clone()),
                PitexConfig::default(),
            )
            .unwrap();
            let result = handle.engine().query(0, 2);
            assert_eq!(result.k, 2, "{}", backend.label());
            assert!(result.spread >= 1.0);
        }
    }

    #[test]
    fn handle_clones_share_the_model() {
        let model = Arc::new(TicModel::paper_example());
        let handle =
            EngineHandle::new(model.clone(), EngineBackend::Exact, PitexConfig::default()).unwrap();
        let clone = handle.clone();
        assert!(Arc::ptr_eq(handle.model(), clone.model()));
        assert_eq!(clone.backend(), EngineBackend::Exact);
        // Two engines from the same handle answer independently and equally.
        let a = handle.engine().query(0, 2);
        let b = clone.engine().query(0, 2);
        assert_eq!(a.tags, b.tags);
        assert_eq!(a.spread, b.spread);
    }

    #[test]
    #[should_panic(expected = "at least one tag")]
    fn rejects_k_zero() {
        let (model, config) = exact_engine(ExplorationStrategy::BestEffort);
        PitexEngine::with_exact(&model, config).query(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_user() {
        let (model, config) = exact_engine(ExplorationStrategy::BestEffort);
        PitexEngine::with_exact(&model, config).query(99, 1);
    }
}
