//! The traced engine: a [`SpreadEstimator`] wrapper that records one
//! `estimate` span per call and counts the edge-probability lookups the
//! wrapped estimator makes through the `&mut dyn EdgeProbs` it is handed.
//!
//! Built through `core::registry::spec(..).build` and handed to
//! `PitexEngine::new`, so the traced engine runs exactly the estimator the
//! untraced one does; only the wrapper is the harness's.

use crate::trace;
use pitex_core::registry::{self, EngineParts};
use pitex_core::{EngineBackend, PitexConfig, PitexEngine};
use pitex_graph::{DiGraph, EdgeId, NodeId};
use pitex_index::RrIndex;
use pitex_model::{EdgeProbs, TicModel};
use pitex_sampling::{Estimate, SamplingParams, SpreadEstimator};
use std::cell::RefCell;
use std::rc::Rc;

/// Lookups are counted on every this-many-th estimate only: counting all
/// of them (two more indirect calls and a table write per lookup, 10⁵
/// lookups per op) cost 10 % of an `index_plus` pass, counting a quarter
/// costs 3 %, and which estimates are counted is fixed by the op list.
const COUNT_EVERY: u64 = 4;

/// What the wrapper saw over a traced pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct EstimatorCounts {
    pub estimates: u64,
    pub samples: u64,
    pub edges_visited: u64,
    /// Estimates whose lookups were counted (one in [`COUNT_EVERY`]).
    pub counted_estimates: u64,
    /// Calls of `EdgeProbs::prob` / `positive` by the counted estimates.
    pub lookups: u64,
    /// Distinct edges they looked up, summed per estimate: the lookups a
    /// perfect per-estimate memo would still have to make.
    pub distinct: u64,
}

impl EstimatorCounts {
    /// Lookups of all estimates, scaled up from the counted ones.
    pub fn lookups_scaled(&self) -> f64 {
        self.lookups as f64 * self.estimates as f64 / (self.counted_estimates as f64).max(1.0)
    }
}

/// Counts lookups, and distinct edges per estimate with an epoch-stamped
/// table (`stamps[e] == epoch` ⇔ edge `e` was seen in this estimate).
struct CountingProbs<'a> {
    inner: &'a mut dyn EdgeProbs,
    stamps: &'a mut [u32],
    epoch: u32,
    lookups: u64,
    distinct: u64,
}

impl CountingProbs<'_> {
    #[inline]
    fn touch(&mut self, e: EdgeId) {
        self.lookups += 1;
        let stamp = &mut self.stamps[e as usize];
        if *stamp != self.epoch {
            *stamp = self.epoch;
            self.distinct += 1;
        }
    }
}

impl EdgeProbs for CountingProbs<'_> {
    #[inline]
    fn prob(&mut self, e: EdgeId) -> f64 {
        self.touch(e);
        self.inner.prob(e)
    }

    #[inline]
    fn positive(&mut self, e: EdgeId) -> bool {
        self.touch(e);
        self.inner.positive(e)
    }
}

struct Traced<'a> {
    inner: Box<dyn SpreadEstimator + 'a>,
    counts: Rc<RefCell<EstimatorCounts>>,
    stamps: Vec<u32>,
    epoch: u32,
    calls: u64,
}

impl SpreadEstimator for Traced<'_> {
    fn estimate(
        &mut self,
        graph: &DiGraph,
        user: NodeId,
        probs: &mut dyn EdgeProbs,
        params: &SamplingParams,
    ) -> Estimate {
        let _span = trace::enter("estimate");
        let counted = self.calls % COUNT_EVERY == 0;
        self.calls += 1;
        let (estimate, lookups, distinct) = if counted {
            self.epoch = self.epoch.wrapping_add(1);
            if self.epoch == 0 {
                self.stamps.fill(0);
                self.epoch = 1;
            }
            let mut counting = CountingProbs {
                inner: probs,
                stamps: &mut self.stamps,
                epoch: self.epoch,
                lookups: 0,
                distinct: 0,
            };
            let estimate = self.inner.estimate(graph, user, &mut counting, params);
            (estimate, counting.lookups, counting.distinct)
        } else {
            (self.inner.estimate(graph, user, probs, params), 0, 0)
        };
        let mut counts = self.counts.borrow_mut();
        counts.estimates += 1;
        counts.samples += estimate.samples_used;
        counts.edges_visited += estimate.edges_visited;
        counts.counted_estimates += u64::from(counted);
        counts.lookups += lookups;
        counts.distinct += distinct;
        estimate
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An engine over `backend` whose estimator is wrapped; `counts` grows as
/// it answers queries.
pub fn traced_engine<'a>(
    model: &'a TicModel,
    backend: EngineBackend,
    rr_index: Option<&'a RrIndex>,
    config: PitexConfig,
    counts: Rc<RefCell<EstimatorCounts>>,
) -> PitexEngine<'a> {
    let spec = registry::spec(backend).expect("a concrete backend");
    let parts = EngineParts { model, rr_index, delay_index: None, config };
    let inner = spec.build(&parts).expect("the workload provides the artifacts its backend needs");
    let stamps = vec![0; model.graph().num_edges()];
    PitexEngine::new(model, Box::new(Traced { inner, counts, stamps, epoch: 0, calls: 0 }), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::config;

    #[test]
    fn the_traced_engine_answers_like_the_plain_one_and_counts() {
        let model = TicModel::paper_example();
        let counts = Rc::new(RefCell::new(EstimatorCounts::default()));
        let mut traced =
            traced_engine(&model, EngineBackend::Lazy, None, config(), Rc::clone(&counts));
        let mut plain = PitexEngine::with_lazy(&model, config());
        let (a, b) = (traced.query(0, 2), plain.query(0, 2));
        assert_eq!(a.tags, b.tags);
        assert_eq!(a.spread.to_bits(), b.spread.to_bits());
        let c = *counts.borrow();
        assert_eq!(c.estimates, b.stats.tag_sets_evaluated + b.stats.bounds_computed);
        assert_eq!(c.samples, b.stats.samples_used);
        assert_eq!(c.edges_visited, b.stats.edges_visited);
        assert_eq!(c.counted_estimates, c.estimates.div_ceil(COUNT_EVERY));
        assert!(c.lookups >= c.distinct && c.distinct > 0);
        // Fig. 2 has seven edges: no estimate can see more distinct ones.
        assert!(c.distinct <= 7 * c.counted_estimates);
        assert!(c.lookups_scaled() >= c.lookups as f64);
    }
}
