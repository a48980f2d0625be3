//! The backend registry — the **single** place that knows how to construct
//! every spread estimator, what artifacts each needs, and how each behaves
//! under cache invalidation and planning.
//!
//! Before this module existed, the same per-backend dispatch lived in
//! three places (the CLI, [`crate::EngineHandle`], and the serve layer's
//! cache-invalidation policy), each free to drift from the others. The
//! registry collapses them: one [`BackendSpec`] per estimator describes its
//! wire name, artifact requirement ([`ArtifactNeed`]), cache-invalidation
//! scope ([`CacheScope`]), planner tier ([`Plannability`]) and construction
//! — and every layer reads the same table. The planner
//! ([`crate::plan::Planner`]) chooses *among* these specs; nothing outside
//! this module and `core::plan` should ever match over the full backend
//! list again.
//!
//! A spec may also certify a query's worst-case work before it runs
//! ([`BackendSpec::work_bound`]): serve's event loop answers a miss on its
//! own thread only when that bound fits [`INLINE_WORK`].

use crate::backends::EngineBackend;
use crate::engine::PitexConfig;
use crate::tim::TimEstimator;
use pitex_graph::NodeId;
use pitex_index::{DelayMatEstimator, DelayMatIndex, IndexEstimator, IndexPlusEstimator, RrIndex};
use pitex_model::TicModel;
use pitex_sampling::{ExactEstimator, LazySampler, McSampler, RrSampler, SpreadEstimator};

/// Which prebuilt artifact a backend needs before it can be constructed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactNeed {
    /// Model only — constructible anywhere.
    None,
    /// A prebuilt [`RrIndex`].
    RrIndex,
    /// A prebuilt [`DelayMatIndex`].
    DelayIndex,
}

/// How a snapshot swap must treat cached answers computed by this backend.
///
/// Per-user invalidation is applied only where staleness is provable from
/// locality: EXACT answers change only for affected users; the forward
/// samplers (MC, LAZY) are seeded per `(params, user)` and only ever probe
/// out-edges of vertices forward-reachable from the user, so an unaffected
/// user replays bit-identically; the RR-index estimators additionally drift
/// for members of resampled graphs (their RNG streams diverge after the
/// first mutated probe). RR/TIM sampling draws global targets per query —
/// estimates anywhere can move. Those clear outright, as does DELAYMAT (its
/// counters are rebuilt wholesale).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheScope {
    /// Only users whose true answer can change (reverse-reachability set).
    AffectedUsers,
    /// Affected users ∪ members of resampled RR-Graphs.
    AffectedPlusDirty,
    /// Every cached answer of this backend.
    Everything,
}

/// Whether `backend=auto` may select this estimator, and in which tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plannability {
    /// Carries the paper's `(1−ε)/(1+ε)` guarantee — the planner's normal
    /// candidate pool.
    Accurate,
    /// No accuracy guarantee (the TIM baseline): only chosen when the
    /// deadline cannot fit any accurate backend.
    Fallback,
}

/// The shared immutable state an estimator is built over.
pub struct EngineParts<'a> {
    pub model: &'a TicModel,
    pub rr_index: Option<&'a RrIndex>,
    pub delay_index: Option<&'a DelayMatIndex>,
    pub config: PitexConfig,
}

/// Error returned when a backend is asked for without the index artifact it
/// needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissingIndexError {
    backend: EngineBackend,
}

impl MissingIndexError {
    /// The backend that could not be constructed.
    pub fn backend(&self) -> EngineBackend {
        self.backend
    }
}

impl std::fmt::Display for MissingIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "backend {} needs a prebuilt {} index",
            self.backend.label(),
            if self.backend.needs_delay_index() { "delay-materialized" } else { "RR-Graph" }
        )
    }
}

impl std::error::Error for MissingIndexError {}

/// Everything one backend knows about itself. Object-safe: the registry is
/// a table of `&'static dyn BackendSpec`.
pub trait BackendSpec: Send + Sync {
    /// The enum tag this spec describes.
    fn backend(&self) -> EngineBackend;

    /// CLI / wire-protocol method name.
    fn cli_name(&self) -> &'static str;

    /// Display label matching the paper's plots.
    fn label(&self) -> &'static str;

    /// The prebuilt artifact this backend requires.
    fn artifact(&self) -> ArtifactNeed {
        ArtifactNeed::None
    }

    /// Cache-invalidation scope after a snapshot swap.
    fn cache_scope(&self) -> CacheScope;

    /// Planner tier for `backend=auto`.
    fn plannability(&self) -> Plannability {
        Plannability::Accurate
    }

    /// Model-free construction for a graph of `n` vertices (edge
    /// probabilities arrive later through [`pitex_model::EdgeProbs`]).
    /// `None` for backends that need a model or an index at build time.
    fn build_for_nodes(&self, _n: usize) -> Option<Box<dyn SpreadEstimator + 'static>> {
        None
    }

    /// Full construction over shared snapshots.
    fn build<'a>(
        &self,
        parts: &EngineParts<'a>,
    ) -> Result<Box<dyn SpreadEstimator + 'a>, MissingIndexError>;

    /// The certified worst-case work of the query `(user, k)` (`k` already
    /// clamped to the vocabulary), in units of one estimate or one index
    /// entry touched — `Some` only when it is at most [`INLINE_WORK`].
    /// `None` for a backend with no such bound; it never runs where one is
    /// required.
    fn work_bound(&self, _parts: &EngineParts<'_>, _user: NodeId, _k: usize) -> Option<u64> {
        None
    }
}

/// The most certified work ([`BackendSpec::work_bound`]) that may run on a
/// thread that must not stall — serve's event loop, per wake. 2¹⁴ units:
/// an eligible INDEXEST+ query on stackbench's `D1` costs about 1 ns per
/// unit at reference speed (3.3 ns at p99 when its view is compiled
/// afresh), so a wake holds the loop for tens of µs at most
/// (EXPERIMENTS.md, "Small misses inline").
pub const INLINE_WORK: u64 = 1 << 14;

/// The RR-Graph estimators' bound, `W(u, k) = sets(k) · (1 + view(u))`:
/// `sets(k) = Σ_{i=0..k} C(|Ω|, i)` counts every tag set best-effort
/// exploration can bound or estimate, and `view(u) = Σ_{g ∋ u} (|V_g| +
/// |E_g|)` bounds the compiled view and any one estimate's fill, list scan
/// and DFS; the 1 is the estimate itself, so a user in no RR-Graph is not
/// certified at zero work. Each member graph counts at least 1, so the
/// O(1) pre-check `sets(k) · θ(u) < INLINE_WORK` comes first, and the sum
/// stops once it passes the budget: it never reads more than
/// `INLINE_WORK / sets(k)` graph headers.
fn rr_work_bound(parts: &EngineParts<'_>, user: NodeId, k: usize) -> Option<u64> {
    let index = parts.rr_index.filter(|index| (user as usize) < index.num_nodes())?;
    let sets = tag_sets_up_to(parts.model.num_tags() as u64, k as u64);
    let members = index.graphs_containing(user);
    let max_view = (INLINE_WORK / sets).checked_sub(1)?;
    if members.len() as u64 > max_view {
        return None;
    }
    let view = members.iter().try_fold(0u64, |view, &g| {
        let graph = index.graph(g as usize);
        Some(view + (graph.num_nodes() + graph.num_edges()) as u64).filter(|&v| v <= max_view)
    })?;
    Some(sets * (1 + view))
}

/// `Σ_{i=0..k} C(n, i)`, saturating at `u64::MAX`.
fn tag_sets_up_to(n: u64, k: u64) -> u64 {
    let (mut choose, mut total) = (1u128, 1u128);
    for i in 1..=k.min(n) {
        choose = choose * u128::from(n - i + 1) / u128::from(i);
        total += choose;
        if total > u128::from(u64::MAX) {
            return u64::MAX;
        }
    }
    total as u64
}

macro_rules! online_spec {
    ($spec:ident, $backend:ident, $cli:literal, $label:literal, $scope:ident, $plan:ident,
     |$n:ident| $make:expr) => {
        struct $spec;
        impl BackendSpec for $spec {
            fn backend(&self) -> EngineBackend {
                EngineBackend::$backend
            }
            fn cli_name(&self) -> &'static str {
                $cli
            }
            fn label(&self) -> &'static str {
                $label
            }
            fn cache_scope(&self) -> CacheScope {
                CacheScope::$scope
            }
            fn plannability(&self) -> Plannability {
                Plannability::$plan
            }
            fn build_for_nodes(&self, $n: usize) -> Option<Box<dyn SpreadEstimator + 'static>> {
                Some(Box::new($make))
            }
            fn build<'a>(
                &self,
                parts: &EngineParts<'a>,
            ) -> Result<Box<dyn SpreadEstimator + 'a>, MissingIndexError> {
                let $n = parts.model.graph().num_nodes();
                Ok(Box::new($make))
            }
        }
    };
}

online_spec!(LazySpec, Lazy, "lazy", "LAZY", AffectedUsers, Accurate, |n| LazySampler::new(n));
online_spec!(McSpec, Mc, "mc", "MC", AffectedUsers, Accurate, |n| McSampler::new(n));
online_spec!(RrSpec, Rr, "rr", "RR", Everything, Accurate, |n| RrSampler::new(n));
online_spec!(TimSpec, Tim, "tim", "TIM", Everything, Fallback, |n| TimEstimator::new(n));
online_spec!(ExactSpec, Exact, "exact", "EXACT", AffectedUsers, Accurate, |_n| {
    ExactEstimator::new()
});

struct IndexEstSpec;
impl BackendSpec for IndexEstSpec {
    fn backend(&self) -> EngineBackend {
        EngineBackend::IndexEst
    }
    fn cli_name(&self) -> &'static str {
        "indexest"
    }
    fn label(&self) -> &'static str {
        "INDEXEST"
    }
    fn artifact(&self) -> ArtifactNeed {
        ArtifactNeed::RrIndex
    }
    fn cache_scope(&self) -> CacheScope {
        CacheScope::AffectedPlusDirty
    }
    fn build<'a>(
        &self,
        parts: &EngineParts<'a>,
    ) -> Result<Box<dyn SpreadEstimator + 'a>, MissingIndexError> {
        let index = parts.rr_index.ok_or(MissingIndexError { backend: self.backend() })?;
        Ok(Box::new(IndexEstimator::new(index)))
    }
    fn work_bound(&self, parts: &EngineParts<'_>, user: NodeId, k: usize) -> Option<u64> {
        rr_work_bound(parts, user, k)
    }
}

struct IndexEstPlusSpec;
impl BackendSpec for IndexEstPlusSpec {
    fn backend(&self) -> EngineBackend {
        EngineBackend::IndexEstPlus
    }
    fn cli_name(&self) -> &'static str {
        "indexest+"
    }
    fn label(&self) -> &'static str {
        "INDEXEST+"
    }
    fn artifact(&self) -> ArtifactNeed {
        ArtifactNeed::RrIndex
    }
    fn cache_scope(&self) -> CacheScope {
        CacheScope::AffectedPlusDirty
    }
    fn build<'a>(
        &self,
        parts: &EngineParts<'a>,
    ) -> Result<Box<dyn SpreadEstimator + 'a>, MissingIndexError> {
        let index = parts.rr_index.ok_or(MissingIndexError { backend: self.backend() })?;
        Ok(Box::new(IndexPlusEstimator::new(index, parts.model.edge_topics())))
    }
    fn work_bound(&self, parts: &EngineParts<'_>, user: NodeId, k: usize) -> Option<u64> {
        rr_work_bound(parts, user, k)
    }
}

struct DelayMatSpec;
impl BackendSpec for DelayMatSpec {
    fn backend(&self) -> EngineBackend {
        EngineBackend::DelayMat
    }
    fn cli_name(&self) -> &'static str {
        "delaymat"
    }
    fn label(&self) -> &'static str {
        "DELAYMAT"
    }
    fn artifact(&self) -> ArtifactNeed {
        ArtifactNeed::DelayIndex
    }
    fn cache_scope(&self) -> CacheScope {
        CacheScope::Everything
    }
    fn build<'a>(
        &self,
        parts: &EngineParts<'a>,
    ) -> Result<Box<dyn SpreadEstimator + 'a>, MissingIndexError> {
        let index = parts.delay_index.ok_or(MissingIndexError { backend: self.backend() })?;
        Ok(Box::new(DelayMatEstimator::new(index, parts.model.edge_topics(), parts.config.seed)))
    }
}

/// The registry table, indexed by `EngineBackend as usize` (declaration
/// order, i.e. [`EngineBackend::ALL`] order).
static REGISTRY: [&dyn BackendSpec; EngineBackend::ALL.len()] = [
    &LazySpec,
    &McSpec,
    &RrSpec,
    &TimSpec,
    &ExactSpec,
    &IndexEstSpec,
    &IndexEstPlusSpec,
    &DelayMatSpec,
];

/// The spec of a concrete backend (`None` for [`EngineBackend::Auto`],
/// which is a planner directive, not a construction).
pub fn spec(backend: EngineBackend) -> Option<&'static dyn BackendSpec> {
    REGISTRY.get(backend as usize).copied()
}

/// All concrete specs, in [`EngineBackend::ALL`] order.
pub fn all_specs() -> &'static [&'static dyn BackendSpec; EngineBackend::ALL.len()] {
    &REGISTRY
}

/// Whether `backend` is constructible from the given artifact availability
/// (`Auto` always is — the planner works with whatever exists).
pub fn available(backend: EngineBackend, rr_index: bool, delay_index: bool) -> bool {
    match spec(backend) {
        None => true,
        Some(spec) => match spec.artifact() {
            ArtifactNeed::None => true,
            ArtifactNeed::RrIndex => rr_index,
            ArtifactNeed::DelayIndex => delay_index,
        },
    }
}

/// [`available`] as a `Result`: `Err` names the backend that is missing
/// its artifact — the allocation-free validity check handle construction
/// uses.
pub fn require_artifacts(
    backend: EngineBackend,
    rr_index: bool,
    delay_index: bool,
) -> Result<(), MissingIndexError> {
    if available(backend, rr_index, delay_index) {
        Ok(())
    } else {
        Err(MissingIndexError { backend })
    }
}

/// Every method name a caller may pass (`--backend`, the `QUERY`/`EXPLAIN`
/// backend operand), comma-separated — the one listing error messages must
/// quote so they can never drift from the registry.
pub fn method_names() -> String {
    let mut names: Vec<&'static str> = REGISTRY.iter().map(|s| s.cli_name()).collect();
    names.push("auto");
    names.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn registry_order_matches_the_enum() {
        for (i, backend) in EngineBackend::ALL.into_iter().enumerate() {
            let spec = spec(backend).expect("every concrete backend has a spec");
            assert_eq!(spec.backend(), backend);
            assert_eq!(backend as usize, i, "table index must equal the discriminant");
        }
        assert!(spec(EngineBackend::Auto).is_none(), "auto is a directive, not a construction");
    }

    #[test]
    fn method_names_cover_every_backend_and_auto() {
        let names = method_names();
        for backend in EngineBackend::ALL {
            assert!(names.contains(backend.cli_name()), "{names} misses {}", backend.cli_name());
        }
        assert!(names.contains("auto"));
    }

    #[test]
    fn build_errors_name_the_missing_artifact() {
        let model = TicModel::paper_example();
        let parts = EngineParts {
            model: &model,
            rr_index: None,
            delay_index: None,
            config: PitexConfig::default(),
        };
        for backend in
            [EngineBackend::IndexEst, EngineBackend::IndexEstPlus, EngineBackend::DelayMat]
        {
            let err = match spec(backend).unwrap().build(&parts) {
                Ok(_) => panic!("{} must demand the index", backend.label()),
                Err(err) => err,
            };
            assert_eq!(err.backend(), backend);
            assert!(err.to_string().contains(backend.label()));
        }
    }

    #[test]
    fn every_backend_builds_with_full_artifacts() {
        let model = Arc::new(TicModel::paper_example());
        let rr = RrIndex::build(&model, pitex_index::IndexBudget::Fixed(1_000), 2);
        let delay = DelayMatIndex::build(&model, pitex_index::IndexBudget::Fixed(1_000), 2);
        let parts = EngineParts {
            model: &model,
            rr_index: Some(&rr),
            delay_index: Some(&delay),
            config: PitexConfig::default(),
        };
        for spec in all_specs() {
            let est = spec.build(&parts).expect("all artifacts present");
            assert_eq!(est.name(), spec.label(), "estimator name matches the registry label");
        }
    }

    #[test]
    fn model_free_builders_exist_exactly_for_online_backends() {
        for spec in all_specs() {
            let model_free = spec.build_for_nodes(7).is_some();
            assert_eq!(model_free, spec.artifact() == ArtifactNeed::None, "{}", spec.cli_name());
        }
    }

    #[test]
    fn tag_sets_up_to_sums_the_binomials() {
        assert_eq!(tag_sets_up_to(4, 0), 1);
        assert_eq!(tag_sets_up_to(4, 2), 1 + 4 + 6);
        assert_eq!(tag_sets_up_to(4, 9), 16, "k past |Ω| counts every subset once");
        assert_eq!(tag_sets_up_to(50, 3), 1 + 50 + 1_225 + 19_600);
        assert_eq!(tag_sets_up_to(10_000, 40), u64::MAX, "saturates");
    }

    fn rr_parts<'a>(model: &'a TicModel, rr: &'a RrIndex) -> EngineParts<'a> {
        EngineParts { model, rr_index: Some(rr), delay_index: None, config: PitexConfig::default() }
    }

    #[test]
    fn only_the_rr_graph_estimators_certify_work() {
        let model = TicModel::paper_example();
        let rr = RrIndex::build(&model, pitex_index::IndexBudget::Fixed(200), 3);
        let parts = rr_parts(&model, &rr);
        for spec in all_specs() {
            let bounded = (0..7).any(|u| spec.work_bound(&parts, u, 1).is_some());
            let want = spec.artifact() == ArtifactNeed::RrIndex;
            assert_eq!(bounded, want, "{}", spec.cli_name());
        }
    }

    #[test]
    fn the_rr_bound_is_sets_times_the_member_graphs_size() {
        let model = TicModel::paper_example();
        let rr = RrIndex::build(&model, pitex_index::IndexBudget::Fixed(2_000), 3);
        let parts = rr_parts(&model, &rr);
        let spec = spec(EngineBackend::IndexEstPlus).unwrap();
        // [over the budget, within it]
        let mut outcomes = [0; 2];
        for user in 0..7u32 {
            let view: u64 = rr
                .graphs()
                .filter(|g| g.contains(user))
                .map(|g| (g.num_nodes() + g.num_edges()) as u64)
                .sum();
            for k in 1..=4usize {
                let want = tag_sets_up_to(4, k as u64) * (1 + view);
                let got = spec.work_bound(&parts, user, k);
                assert_eq!(got, (want <= INLINE_WORK).then_some(want), "user {user} k {k}");
                outcomes[got.is_some() as usize] += 1;
            }
        }
        assert!(outcomes[0] > 0 && outcomes[1] > 0, "within and over the budget: {outcomes:?}");
        let none = EngineParts { rr_index: None, ..parts };
        assert_eq!(spec.work_bound(&none, 0, 1), None, "no index, no bound");
    }

    #[test]
    fn availability_follows_artifacts() {
        assert!(available(EngineBackend::Lazy, false, false));
        assert!(!available(EngineBackend::IndexEst, false, true));
        assert!(available(EngineBackend::IndexEst, true, false));
        assert!(!available(EngineBackend::DelayMat, true, false));
        assert!(available(EngineBackend::Auto, false, false));
    }
}
