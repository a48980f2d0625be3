//! Backend naming and selection types.
//!
//! The attribute and construction knowledge for each backend lives in the
//! [`crate::registry`] table; the enums here are the *names* every layer
//! passes around. [`EngineBackend::Auto`] is the planner directive — it
//! resolves to one of the eight concrete constructions per query through
//! [`crate::plan::Planner`].

use crate::registry;
use pitex_model::TicModel;
use pitex_sampling::SpreadEstimator;

/// Every spread-estimation method the paper's evaluation compares (§7.1),
/// plus the exact evaluator for tiny graphs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Monte-Carlo forward sampling.
    Mc,
    /// Reverse-reachable set sampling.
    Rr,
    /// Lazy propagation sampling (§5.1).
    Lazy,
    /// Tree-based baseline (no guarantee).
    Tim,
    /// Possible-world enumeration (tiny graphs only).
    Exact,
}

impl BackendKind {
    /// The online (index-free) methods of Fig. 7/13.
    pub const ONLINE: [BackendKind; 3] = [BackendKind::Rr, BackendKind::Mc, BackendKind::Lazy];

    /// The full-engine backend this kind names.
    pub fn engine_backend(self) -> EngineBackend {
        match self {
            BackendKind::Mc => EngineBackend::Mc,
            BackendKind::Rr => EngineBackend::Rr,
            BackendKind::Lazy => EngineBackend::Lazy,
            BackendKind::Tim => EngineBackend::Tim,
            BackendKind::Exact => EngineBackend::Exact,
        }
    }

    /// Builds the estimator through the registry. Index-based backends
    /// additionally need an index artifact and are constructed through
    /// [`crate::EngineHandle`] instead.
    pub fn make<'a>(self, model: &'a TicModel) -> Box<dyn SpreadEstimator + 'a> {
        self.make_for_nodes(model.graph().num_nodes())
    }

    /// Builds the estimator for a graph of `n` vertices (the samplers are
    /// model-agnostic: edge probabilities arrive through [`pitex_model::EdgeProbs`]).
    pub fn make_for_nodes(self, n: usize) -> Box<dyn SpreadEstimator + 'static> {
        registry::spec(self.engine_backend())
            .expect("every BackendKind is concrete")
            .build_for_nodes(n)
            .expect("every BackendKind is model-free")
    }

    /// Display label matching the paper's plots.
    pub fn label(self) -> &'static str {
        self.engine_backend().label()
    }
}

/// Every engine construction the CLI and the serving layer can name —
/// the online samplers of [`BackendKind`] and the three index-based
/// estimators (which additionally need an index artifact; see
/// [`crate::EngineHandle`]) — plus [`Auto`](EngineBackend::Auto), which
/// defers the choice to the cost-based planner per query.
///
/// The discriminants of the eight concrete variants index the
/// [`crate::registry`] table; keep declaration order and
/// [`ALL`](Self::ALL) in sync.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineBackend {
    /// Lazy propagation sampling (§5.1) — the paper's default.
    Lazy,
    /// Monte-Carlo forward sampling.
    Mc,
    /// Reverse-reachable set sampling.
    Rr,
    /// Tree-based baseline.
    Tim,
    /// Possible-world enumeration (tiny graphs only).
    Exact,
    /// INDEXEST over a prebuilt RR-Graph index.
    IndexEst,
    /// INDEXEST+ (edge-cut filtered) over a prebuilt RR-Graph index.
    IndexEstPlus,
    /// DELAYMAT over a prebuilt delay-materialized index.
    DelayMat,
    /// Let the cost-based planner ([`crate::plan::Planner`]) pick the
    /// cheapest suitable backend per query, degrading under tight
    /// deadlines. Not a construction — it resolves to one of the above.
    Auto,
}

impl EngineBackend {
    /// All eight concrete constructions, in CLI listing order (`Auto` is a
    /// directive, not a construction, and is deliberately absent).
    pub const ALL: [EngineBackend; 8] = [
        EngineBackend::Lazy,
        EngineBackend::Mc,
        EngineBackend::Rr,
        EngineBackend::Tim,
        EngineBackend::Exact,
        EngineBackend::IndexEst,
        EngineBackend::IndexEstPlus,
        EngineBackend::DelayMat,
    ];

    /// Parses the CLI / wire-protocol method name (`lazy`, `mc`, `rr`,
    /// `tim`, `exact`, `indexest`, `indexest+`, `delaymat`, `auto`).
    pub fn parse(name: &str) -> Option<EngineBackend> {
        if name == "auto" {
            return Some(EngineBackend::Auto);
        }
        EngineBackend::ALL.into_iter().find(|b| b.cli_name() == name)
    }

    /// The CLI / wire-protocol method name ([`parse`](Self::parse)'s inverse).
    pub fn cli_name(self) -> &'static str {
        match registry::spec(self) {
            Some(spec) => spec.cli_name(),
            None => "auto",
        }
    }

    /// Display label matching the paper's method names.
    pub fn label(self) -> &'static str {
        match registry::spec(self) {
            Some(spec) => spec.label(),
            None => "AUTO",
        }
    }

    /// Whether this construction needs a prebuilt [`pitex_index::RrIndex`].
    /// `Auto` needs nothing — it plans with whatever artifacts exist.
    pub fn needs_rr_index(self) -> bool {
        registry::spec(self).is_some_and(|s| s.artifact() == registry::ArtifactNeed::RrIndex)
    }

    /// Whether this construction needs a prebuilt
    /// [`pitex_index::DelayMatIndex`].
    pub fn needs_delay_index(self) -> bool {
        registry::spec(self).is_some_and(|s| s.artifact() == registry::ArtifactNeed::DelayIndex)
    }
}

impl std::fmt::Display for EngineBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitex_model::{FixedEdgeProbs, TicModel};
    use pitex_sampling::SamplingParams;

    #[test]
    fn labels_match_estimator_names() {
        let model = TicModel::paper_example();
        for kind in [
            BackendKind::Mc,
            BackendKind::Rr,
            BackendKind::Lazy,
            BackendKind::Tim,
            BackendKind::Exact,
        ] {
            let est = kind.make(&model);
            assert_eq!(est.name(), kind.label());
        }
    }

    #[test]
    fn engine_backend_names_round_trip() {
        for backend in EngineBackend::ALL {
            assert_eq!(EngineBackend::parse(backend.cli_name()), Some(backend));
            assert_eq!(backend.to_string(), backend.label());
        }
        assert_eq!(EngineBackend::parse("auto"), Some(EngineBackend::Auto));
        assert_eq!(EngineBackend::Auto.cli_name(), "auto");
        assert_eq!(EngineBackend::Auto.to_string(), "AUTO");
        assert_eq!(EngineBackend::parse("frob"), None);
        assert!(EngineBackend::IndexEstPlus.needs_rr_index());
        assert!(!EngineBackend::IndexEstPlus.needs_delay_index());
        assert!(EngineBackend::DelayMat.needs_delay_index());
        assert!(!EngineBackend::Lazy.needs_rr_index());
        assert!(!EngineBackend::Auto.needs_rr_index(), "auto plans around missing artifacts");
        assert!(!EngineBackend::Auto.needs_delay_index());
    }

    #[test]
    fn all_online_backends_estimate_a_certain_path() {
        let model = TicModel::paper_example();
        let params = SamplingParams::enumeration(0.5, 100.0, 4, 2).with_fixed_budget(500);
        for kind in BackendKind::ONLINE {
            let mut est = kind.make(&model);
            let mut probs = FixedEdgeProbs::uniform(model.graph().num_edges(), 1.0);
            let e = est.estimate(model.graph(), 2, &mut probs, &params);
            // From u3 everything downstream (u4, u6, u7) is reachable.
            assert_eq!(e.spread, 4.0, "{}", kind.label());
        }
    }
}
