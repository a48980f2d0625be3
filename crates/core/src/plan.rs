//! `core::plan` — the cost-based adaptive query planner behind
//! [`EngineBackend::Auto`].
//!
//! The paper's evaluation (§7, Figs. 7–13) is a map of *regimes*: LAZY wins
//! online, INDEXEST/INDEXEST+/DELAYMAT win once an index exists, EXACT only
//! on tiny graphs, TIM is the no-guarantee baseline. Instead of making the
//! caller memorize that map, `backend=auto` hands each query to a
//! [`Planner`] that predicts every eligible backend's cost and picks:
//!
//! 1. **Preferred** — the cheapest *accurate* backend (one that carries the
//!    `(1−ε)/(1+ε)` guarantee) whose artifact is present.
//! 2. **Degraded** — when the caller's remaining `timeout_us` budget cannot
//!    fit the preferred backend, the cheapest backend (including the TIM
//!    fallback tier) predicted to fit; if nothing fits, the absolute
//!    cheapest — answering late-ish beats burning the whole deadline to
//!    answer `ERR DEADLINE`.
//!
//! Cost prediction has two sources, blended per backend:
//!
//! * a **static seed** from graph/model statistics — `n`, `m`, the query
//!   user's out-degree, `k`, the best-effort candidate count φ_k and the
//!   Lemma-2 sampling threshold Λ — scaled by a per-edge-probe cost
//!   ([`EDGE_NS`]). The coefficients encode the paper's measured regime
//!   ordering, not absolute truth;
//! * an **online EWMA** (smoothing [`ALPHA`]) of measured per-query
//!   service times, fed back by every executed query
//!   ([`Planner::observe`]). After [`WARMUP`] observations the EWMA
//!   replaces the seed entirely, so the planner converges on what *this*
//!   machine and model actually cost.
//!
//! Every decision is observable: [`PlanDecision`] records the prediction
//! and the rejected alternatives (serve's `EXPLAIN` verb prints it), and
//! the per-backend decision counters / EWMAs surface in `STATS`.

use crate::backends::EngineBackend;
use crate::engine::PitexConfig;
use crate::registry::{self, Plannability};
use pitex_model::{combi, TicModel};
use pitex_sampling::SamplingParams;
use pitex_support::obs::Ewma;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of concrete backends the planner ranks.
pub const NUM_BACKENDS: usize = EngineBackend::ALL.len();

/// The per-query facts a plan is computed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanInput {
    /// Out-degree of the query user (locality proxy for `|R_W(u)|`).
    pub degree: usize,
    /// Requested tag-set size (already clamped to the vocabulary).
    pub k: usize,
    /// Remaining deadline budget, if the caller has one.
    pub budget_us: Option<u64>,
}

/// Why a backend was not chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The required index artifact is not loaded.
    MissingArtifact,
    /// Accurate but predicted to cost more than the chosen backend.
    Costlier,
    /// Would not finish inside the remaining deadline budget.
    OverBudget,
    /// The TIM fallback tier: cheap, but carries no accuracy guarantee —
    /// only eligible when the deadline forces a degradation.
    NoGuarantee,
}

impl RejectReason {
    /// Stable kebab-case wire name (the `EXPLAIN` reply uses it).
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::MissingArtifact => "missing-index",
            RejectReason::Costlier => "costlier",
            RejectReason::OverBudget => "over-budget",
            RejectReason::NoGuarantee => "no-guarantee",
        }
    }

    /// Parses [`as_str`](Self::as_str)'s output.
    pub fn parse(s: &str) -> Option<RejectReason> {
        Some(match s {
            "missing-index" => RejectReason::MissingArtifact,
            "costlier" => RejectReason::Costlier,
            "over-budget" => RejectReason::OverBudget,
            "no-guarantee" => RejectReason::NoGuarantee,
            _ => return None,
        })
    }
}

/// One alternative the planner considered and rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RejectedPlan {
    pub backend: EngineBackend,
    /// Predicted cost (`None` when the backend was not even costable, e.g.
    /// its artifact is absent).
    pub predicted_us: Option<u64>,
    pub reason: RejectReason,
}

/// The planner's verdict for one query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanDecision {
    /// The concrete backend to run (never [`EngineBackend::Auto`], never a
    /// backend whose artifact is absent).
    pub chosen: EngineBackend,
    /// Predicted service time of `chosen`, in microseconds.
    pub predicted_us: u64,
    /// Whether the deadline budget forced a cheaper backend than the
    /// preferred (cheapest accurate) one.
    pub degraded: bool,
    /// Everything else that was considered, with reasons.
    pub rejected: Vec<RejectedPlan>,
}

/// EWMA smoothing factor α of the per-backend latency estimates.
pub const ALPHA: f64 = 0.2;

/// Observations of a backend before its EWMA replaces the static seed.
pub const WARMUP: u64 = 3;

/// Static-seed cost of one edge probe, in nanoseconds.
pub const EDGE_NS: f64 = 5.0;

/// Graph/model shape the static cost seeds are computed from.
#[derive(Clone, Copy, Debug)]
pub struct ModelStats {
    pub nodes: usize,
    pub edges: usize,
    pub num_tags: usize,
}

/// The cost-based adaptive planner. One per [`crate::EngineHandle`]
/// snapshot set, shared (via `Arc`) by every worker built from it; all
/// state is atomic, so planning and feedback never take a lock.
pub struct Planner {
    stats: ModelStats,
    avg_degree: f64,
    rr_available: bool,
    delay_available: bool,
    epsilon: f64,
    delta: f64,
    /// Per-backend latency EWMA (the shared lock-free
    /// [`pitex_support::obs::Ewma`] — the same handle type `STATS` exports).
    ewma: [Ewma; NUM_BACKENDS],
    decisions: [AtomicU64; NUM_BACKENDS],
    degraded: AtomicU64,
}

impl std::fmt::Debug for Planner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Planner")
            .field("stats", &self.stats)
            .field("rr_available", &self.rr_available)
            .field("delay_available", &self.delay_available)
            .finish()
    }
}

impl Planner {
    /// A planner over `model`'s shape and the given artifact availability.
    pub fn new(
        model: &TicModel,
        rr_available: bool,
        delay_available: bool,
        config: &PitexConfig,
    ) -> Self {
        Self::from_stats(
            ModelStats {
                nodes: model.graph().num_nodes(),
                edges: model.graph().num_edges(),
                num_tags: model.num_tags(),
            },
            rr_available,
            delay_available,
            config.epsilon,
            config.delta,
        )
    }

    /// [`new`](Self::new) from raw statistics (what the property tests
    /// drive without materializing a model).
    pub fn from_stats(
        stats: ModelStats,
        rr_available: bool,
        delay_available: bool,
        epsilon: f64,
        delta: f64,
    ) -> Self {
        let avg_degree = stats.edges as f64 / stats.nodes.max(1) as f64;
        Self {
            stats,
            avg_degree,
            rr_available,
            delay_available,
            epsilon,
            delta,
            ewma: std::array::from_fn(|_| Ewma::new()),
            decisions: std::array::from_fn(|_| AtomicU64::new(0)),
            degraded: AtomicU64::new(0),
        }
    }

    fn index(backend: EngineBackend) -> usize {
        debug_assert!(backend != EngineBackend::Auto, "auto is not a costable backend");
        backend as usize
    }

    /// Whether `backend`'s required artifact is loaded.
    pub fn available(&self, backend: EngineBackend) -> bool {
        registry::available(backend, self.rr_available, self.delay_available)
    }

    /// Predicted service time for one query: the latency EWMA once warmed,
    /// the static seed before that.
    pub fn predicted_us(&self, backend: EngineBackend, input: &PlanInput) -> u64 {
        let i = Self::index(backend);
        let ewma = &self.ewma[i];
        if ewma.count() >= WARMUP {
            return ewma.value().unwrap_or(0.0).max(1.0) as u64;
        }
        (self.seed_cost_us(backend, input).max(1.0)).min(u64::MAX as f64 / 2.0) as u64
    }

    /// The static cost seed, in microseconds. Relative ordering is what
    /// matters: it encodes the paper's regimes (EXACT explodes with the
    /// reachable subgraph, LAZY is the cheapest online sampler, index
    /// methods are cheap once their artifact exists, TIM is a single tree
    /// pass) until measurements take over.
    fn seed_cost_us(&self, backend: EngineBackend, input: &PlanInput) -> f64 {
        let n = self.stats.nodes.max(1) as f64;
        let degree = input.degree as f64;
        // Two-hop reachability proxy for |R_W(u)|, capped at n.
        let reach = (1.0 + degree + degree * self.avg_degree).min(n);
        let edges_per_pass = (reach * self.avg_degree).max(1.0);
        // Candidate tag sets touched by best-effort search (φ_k), capped —
        // pruning makes the true number far smaller, uniformly per backend.
        let candidates =
            combi::ln_phi(self.stats.num_tags as u64, input.k as u64).exp().clamp(1.0, 1e6);
        let lambda = SamplingParams::best_effort(
            self.epsilon,
            self.delta,
            self.stats.num_tags,
            input.k.max(1),
        )
        .lambda();
        let mc = candidates * lambda * edges_per_pass;
        let units = match backend {
            // One probe per live subset of the reachable subgraph.
            EngineBackend::Exact => candidates * 2f64.powf(edges_per_pass.min(44.0)),
            EngineBackend::Mc => mc,
            EngineBackend::Rr => 1.3 * mc,
            EngineBackend::Lazy => 0.35 * mc,
            // A single deterministic tree pass, no sampling.
            EngineBackend::Tim => candidates * edges_per_pass,
            // Membership scans over prebuilt RR-Graphs.
            EngineBackend::IndexEst => candidates * reach * 5.0,
            EngineBackend::IndexEstPlus => candidates * reach * 4.0,
            // Counter lookups only.
            EngineBackend::DelayMat => candidates * (input.k as f64 + 1.0) * 8.0,
            EngineBackend::Auto => unreachable!("auto is resolved before costing"),
        };
        units * EDGE_NS / 1_000.0
    }

    /// Plans one query: see the module docs for the policy. Increments the
    /// decision counters — use [`preview`](Self::preview) for a
    /// side-effect-free answer.
    pub fn plan(&self, input: PlanInput) -> PlanDecision {
        let decision = self.preview(input);
        self.decisions[Self::index(decision.chosen)].fetch_add(1, Ordering::Relaxed);
        if decision.degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        decision
    }

    /// [`plan`](Self::plan) without recording the decision — what
    /// resolution paths that do not correspond to a query (e.g. building a
    /// default engine from an `auto` handle) use, so the `plan_*` counters
    /// stay one-to-one with planned queries.
    pub fn preview(&self, input: PlanInput) -> PlanDecision {
        let mut rejected = Vec::new();
        let mut accurate: Vec<(EngineBackend, u64)> = Vec::new();
        let mut fallback: Vec<(EngineBackend, u64)> = Vec::new();
        for backend in EngineBackend::ALL {
            let spec = registry::spec(backend).expect("ALL is concrete");
            if !self.available(backend) {
                rejected.push(RejectedPlan {
                    backend,
                    predicted_us: None,
                    reason: RejectReason::MissingArtifact,
                });
                continue;
            }
            let predicted = self.predicted_us(backend, &input);
            match spec.plannability() {
                Plannability::Accurate => accurate.push((backend, predicted)),
                Plannability::Fallback => fallback.push((backend, predicted)),
            }
        }

        // The preferred backend: cheapest accurate (ties break toward the
        // earlier ALL entry — min_by_key keeps the first minimum).
        let preferred = *accurate
            .iter()
            .min_by_key(|&&(_, us)| us)
            .expect("the online samplers are always available");
        let mut chosen = preferred;
        let mut over_budget = false;
        if let Some(budget) = input.budget_us {
            if preferred.1 > budget {
                over_budget = true;
                let cheapest_fitting = |pool: &[(EngineBackend, u64)]| {
                    pool.iter().filter(|&&(_, us)| us <= budget).min_by_key(|&&(_, us)| us).copied()
                };
                // Degradation keeps the tiers ordered: a cheaper *accurate*
                // backend that fits beats the no-guarantee fallback, which
                // is only reached when no accurate backend can make the
                // deadline. Nothing fits at all: run the absolute cheapest
                // anyway — a late answer beats burning the deadline for an
                // ERR.
                chosen = cheapest_fitting(&accurate)
                    .or_else(|| cheapest_fitting(&fallback))
                    .or_else(|| {
                        accurate.iter().chain(fallback.iter()).min_by_key(|&&(_, us)| us).copied()
                    })
                    .expect("candidate pool is non-empty");
            }
        }
        let degraded = chosen.0 != preferred.0;

        for &(backend, us) in accurate.iter().chain(fallback.iter()) {
            if backend == chosen.0 {
                continue;
            }
            let fallback_tier =
                registry::spec(backend).is_some_and(|s| s.plannability() == Plannability::Fallback);
            let reason = if over_budget && input.budget_us.is_some_and(|b| us > b) {
                RejectReason::OverBudget
            } else if fallback_tier {
                RejectReason::NoGuarantee
            } else {
                RejectReason::Costlier
            };
            rejected.push(RejectedPlan { backend, predicted_us: Some(us), reason });
        }

        PlanDecision { chosen: chosen.0, predicted_us: chosen.1, degraded, rejected }
    }

    /// Feeds one measured service time back into the backend's EWMA.
    pub fn observe(&self, backend: EngineBackend, actual_us: u64) {
        self.ewma[Self::index(backend)].observe(actual_us as f64, ALPHA);
    }

    /// The backend's current latency EWMA in microseconds (`None` before
    /// the first observation).
    pub fn ewma_us(&self, backend: EngineBackend) -> Option<f64> {
        self.ewma[Self::index(backend)].value()
    }

    /// How many plans chose `backend`.
    pub fn decisions(&self, backend: EngineBackend) -> u64 {
        self.decisions[Self::index(backend)].load(Ordering::Relaxed)
    }

    /// How many plans degraded below the preferred backend to fit a
    /// deadline.
    pub fn degraded_count(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Copies another planner's learned EWMA state *and* decision counters
    /// (snapshot swaps carry both across, so a reload neither resets the
    /// warmup nor makes the monotone `plan_*` counters jump backwards in
    /// `STATS`).
    pub fn inherit(&self, other: &Planner) {
        for i in 0..NUM_BACKENDS {
            self.ewma[i].inherit(&other.ewma[i]);
            self.decisions[i].store(other.decisions[i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.degraded.store(other.degraded.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ModelStats {
        // Fig. 2's shape.
        ModelStats { nodes: 7, edges: 8, num_tags: 4 }
    }

    fn big() -> ModelStats {
        ModelStats { nodes: 500_000, edges: 6_000_000, num_tags: 276 }
    }

    fn input(degree: usize, k: usize, budget_us: Option<u64>) -> PlanInput {
        PlanInput { degree, k, budget_us }
    }

    #[test]
    fn online_regime_prefers_lazy() {
        // No index artifacts on a big graph: the paper's "LAZY wins online".
        let planner = Planner::from_stats(big(), false, false, 0.7, 1000.0);
        let decision = planner.plan(input(12, 3, None));
        assert_eq!(decision.chosen, EngineBackend::Lazy);
        assert!(!decision.degraded);
        assert_eq!(planner.decisions(EngineBackend::Lazy), 1);
    }

    #[test]
    fn index_regime_prefers_an_index_backend() {
        let planner = Planner::from_stats(big(), true, true, 0.7, 1000.0);
        let decision = planner.plan(input(12, 3, None));
        assert!(
            matches!(
                decision.chosen,
                EngineBackend::IndexEst | EngineBackend::IndexEstPlus | EngineBackend::DelayMat
            ),
            "with artifacts present an index method must win, got {}",
            decision.chosen
        );
    }

    #[test]
    fn exact_never_wins_on_a_big_graph() {
        let planner = Planner::from_stats(big(), false, false, 0.7, 1000.0);
        for degree in [1usize, 8, 64, 512] {
            let decision = planner.plan(input(degree, 3, None));
            assert_ne!(decision.chosen, EngineBackend::Exact, "degree {degree}");
        }
    }

    #[test]
    fn missing_artifacts_are_rejected_not_chosen() {
        let planner = Planner::from_stats(tiny(), false, false, 0.7, 1000.0);
        let decision = planner.plan(input(2, 2, None));
        for backend in
            [EngineBackend::IndexEst, EngineBackend::IndexEstPlus, EngineBackend::DelayMat]
        {
            assert_ne!(decision.chosen, backend);
            let reject = decision
                .rejected
                .iter()
                .find(|r| r.backend == backend)
                .expect("missing-artifact backends appear in the rejected list");
            assert_eq!(reject.reason, RejectReason::MissingArtifact);
            assert_eq!(reject.predicted_us, None);
        }
    }

    #[test]
    fn tight_budget_degrades_to_a_cheaper_backend() {
        let planner = Planner::from_stats(tiny(), false, false, 0.7, 1000.0);
        // Teach the planner that every accurate backend is slow and TIM is
        // fast, then hand it a budget only TIM fits.
        for backend in [EngineBackend::Lazy, EngineBackend::Mc, EngineBackend::Rr] {
            for _ in 0..5 {
                planner.observe(backend, 800_000);
            }
        }
        for _ in 0..5 {
            planner.observe(EngineBackend::Exact, 500_000);
            planner.observe(EngineBackend::Tim, 40);
        }
        let decision = planner.plan(input(2, 2, Some(10_000)));
        assert_eq!(decision.chosen, EngineBackend::Tim);
        assert!(decision.degraded);
        assert_eq!(decision.predicted_us, 40);
        assert_eq!(planner.degraded_count(), 1);
        // The preferred (cheapest accurate) backend shows up as over-budget.
        let exact = decision.rejected.iter().find(|r| r.backend == EngineBackend::Exact).unwrap();
        assert_eq!(exact.reason, RejectReason::OverBudget);

        // The same query with a roomy budget is not degraded.
        let relaxed = planner.plan(input(2, 2, Some(10_000_000)));
        assert_eq!(relaxed.chosen, EngineBackend::Exact);
        assert!(!relaxed.degraded);
    }

    #[test]
    fn fallback_never_wins_while_an_accurate_backend_fits_the_budget() {
        let planner = Planner::from_stats(tiny(), false, false, 0.7, 1000.0);
        // MC (accurate) fits the 10ms budget at 8ms; TIM (fallback) is 200×
        // cheaper — but a guarantee-carrying backend that makes the
        // deadline must always win over the no-guarantee tier.
        for _ in 0..5 {
            planner.observe(EngineBackend::Exact, 50_000);
            planner.observe(EngineBackend::Mc, 8_000);
            planner.observe(EngineBackend::Lazy, 800_000);
            planner.observe(EngineBackend::Rr, 800_000);
            planner.observe(EngineBackend::Tim, 40);
        }
        let decision = planner.plan(input(2, 2, Some(10_000)));
        assert_eq!(
            decision.chosen,
            EngineBackend::Mc,
            "an accurate backend that fits must beat the no-guarantee fallback"
        );
        assert!(!decision.degraded, "the preferred (cheapest accurate) backend fits");
        let tim = decision.rejected.iter().find(|r| r.backend == EngineBackend::Tim).unwrap();
        assert_eq!(tim.reason, RejectReason::NoGuarantee);
    }

    #[test]
    fn preview_does_not_move_the_decision_counters() {
        let planner = Planner::from_stats(tiny(), false, false, 0.7, 1000.0);
        let previewed = planner.preview(input(2, 2, None));
        assert_eq!(planner.decisions(previewed.chosen), 0, "preview records nothing");
        let planned = planner.plan(input(2, 2, None));
        assert_eq!(planned.chosen, previewed.chosen, "same inputs, same verdict");
        assert_eq!(planner.decisions(planned.chosen), 1);
    }

    #[test]
    fn impossible_budget_still_answers_with_the_cheapest() {
        let planner = Planner::from_stats(tiny(), false, false, 0.7, 1000.0);
        for backend in
            [EngineBackend::Lazy, EngineBackend::Mc, EngineBackend::Rr, EngineBackend::Exact]
        {
            for _ in 0..5 {
                planner.observe(backend, 900);
            }
        }
        for _ in 0..5 {
            planner.observe(EngineBackend::Tim, 500);
        }
        // Budget below everything: the cheapest candidate is still chosen
        // (answering late beats a guaranteed deadline error).
        let decision = planner.plan(input(2, 2, Some(1)));
        assert_eq!(decision.chosen, EngineBackend::Tim);
        assert!(decision.degraded);
    }

    #[test]
    fn ewma_converges_and_replaces_the_seed() {
        let planner = Planner::from_stats(tiny(), false, false, 0.7, 1000.0);
        assert_eq!(planner.ewma_us(EngineBackend::Lazy), None);
        for _ in 0..10 {
            planner.observe(EngineBackend::Lazy, 100);
        }
        let ewma = planner.ewma_us(EngineBackend::Lazy).unwrap();
        assert!((ewma - 100.0).abs() < 1e-9, "constant observations converge exactly: {ewma}");
        assert_eq!(planner.predicted_us(EngineBackend::Lazy, &input(2, 2, None)), 100);
    }

    #[test]
    fn inherit_carries_the_ewma_across_snapshots() {
        let old = Planner::from_stats(tiny(), false, false, 0.7, 1000.0);
        for _ in 0..4 {
            old.observe(EngineBackend::Lazy, 250);
        }
        let new = Planner::from_stats(tiny(), false, false, 0.7, 1000.0);
        new.inherit(&old);
        assert_eq!(new.ewma_us(EngineBackend::Lazy), old.ewma_us(EngineBackend::Lazy));
        assert_eq!(new.predicted_us(EngineBackend::Lazy, &input(2, 2, None)), 250);
    }

    #[test]
    fn reject_reasons_round_trip() {
        for reason in [
            RejectReason::MissingArtifact,
            RejectReason::Costlier,
            RejectReason::OverBudget,
            RejectReason::NoGuarantee,
        ] {
            assert_eq!(RejectReason::parse(reason.as_str()), Some(reason));
        }
        assert_eq!(RejectReason::parse("nope"), None);
    }
}
