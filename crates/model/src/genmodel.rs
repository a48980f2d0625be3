//! Random TIC-model generators.
//!
//! The evaluation datasets pair a social graph with learned model parameters
//! whose *shape* is what matters to PITEX performance: tag–topic density
//! (drives best-effort pruning, §7.3–7.4), topics-per-edge sparsity (drives
//! lazy sampling wins, §5.1) and edge-probability scale (drives spread).
//! These generators expose exactly those knobs.

use crate::edge_topics::EdgeTopics;
use crate::ids::TopicId;
use crate::tag_topic::TagTopicMatrix;
use crate::tic::TicModel;
use pitex_graph::DiGraph;
use rand::seq::SliceRandom;
use rand::Rng;

/// How per-edge, per-topic influence probabilities are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeProbKind {
    /// Weighted-cascade style: `p(e|z) = u / in_deg(target)`, `u ~ U[0.5, 1]`.
    /// The standard assignment in the IM literature (and the shape Appx. B.7
    /// assumes: probability inversely proportional to the target's
    /// in-degree); keeps expected spreads sub-linear.
    WeightedCascade,
    /// Uniform in `[lo, hi]`.
    Uniform { lo: f32, hi: f32 },
    /// Trivalency: uniformly one of {0.1, 0.01, 0.001}.
    Trivalency,
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct ModelGenConfig {
    /// `|Z|` — number of latent topics.
    pub num_topics: usize,
    /// `|Ω|` — number of tags.
    pub num_tags: usize,
    /// Target tag–topic density (fraction of non-zero `p(w|z)` entries);
    /// each tag row gets `max(1, round(density·|Z|))` topics.
    pub density: f64,
    /// Inclusive range of topics per edge.
    pub topics_per_edge: (usize, usize),
    /// Edge probability distribution.
    pub edge_prob: EdgeProbKind,
}

impl Default for ModelGenConfig {
    fn default() -> Self {
        Self {
            num_topics: 20,
            num_tags: 50,
            density: 0.16, // lastfm's density (§7.3)
            topics_per_edge: (1, 3),
            edge_prob: EdgeProbKind::WeightedCascade,
        }
    }
}

/// Draws a sparse tag–topic matrix with a uniform prior.
///
/// Per tag: `max(1, round(density·|Z|))` distinct topics with Dirichlet-ish
/// weights normalized to 1 (matching the row-stochastic table of Fig. 2b).
pub fn random_tag_topic<R: Rng>(cfg: &ModelGenConfig, rng: &mut R) -> TagTopicMatrix {
    assert!(cfg.num_topics > 0 && cfg.num_tags > 0);
    assert!((0.0..=1.0).contains(&cfg.density));
    let per_row = ((cfg.density * cfg.num_topics as f64).round() as usize).clamp(1, cfg.num_topics);
    let mut topic_ids: Vec<TopicId> = (0..cfg.num_topics as TopicId).collect();
    let mut rows = Vec::with_capacity(cfg.num_tags);
    for _ in 0..cfg.num_tags {
        topic_ids.shuffle(rng);
        let chosen = &topic_ids[..per_row];
        let mut weights: Vec<f32> = chosen.iter().map(|_| rng.gen_range(0.05f32..1.0)).collect();
        let total: f32 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        rows.push(chosen.iter().copied().zip(weights).collect());
    }
    TagTopicMatrix::with_uniform_prior(rows, cfg.num_topics)
}

/// Draws per-edge sparse topic probabilities.
pub fn random_edge_topics<R: Rng>(
    graph: &DiGraph,
    cfg: &ModelGenConfig,
    rng: &mut R,
) -> EdgeTopics {
    let (lo, hi) = cfg.topics_per_edge;
    assert!(lo >= 1 && lo <= hi && hi <= cfg.num_topics);
    let mut topic_ids: Vec<TopicId> = (0..cfg.num_topics as TopicId).collect();
    let mut rows = Vec::with_capacity(graph.num_edges());
    for (_, _, target) in graph.edges() {
        let count = rng.gen_range(lo..=hi);
        topic_ids.shuffle(rng);
        let row = topic_ids[..count]
            .iter()
            .map(|&z| {
                let p = match cfg.edge_prob {
                    EdgeProbKind::WeightedCascade => {
                        let deg = graph.in_degree(target).max(1) as f32;
                        (rng.gen_range(0.5f32..1.0) / deg).clamp(1e-6, 1.0)
                    }
                    EdgeProbKind::Uniform { lo, hi } => rng.gen_range(lo..=hi).clamp(1e-6, 1.0),
                    EdgeProbKind::Trivalency => *[0.1f32, 0.01, 0.001].choose(rng).unwrap(),
                };
                (z, p)
            })
            .collect();
        rows.push(row);
    }
    EdgeTopics::new(rows, cfg.num_topics)
}

/// Draws a complete model over the given graph.
pub fn random_model<R: Rng>(graph: DiGraph, cfg: &ModelGenConfig, rng: &mut R) -> TicModel {
    let tag_topic = random_tag_topic(cfg, rng);
    let edge_topics = random_edge_topics(&graph, cfg, rng);
    TicModel::new(graph, tag_topic, edge_topics)
}

/// One draw from the adversarial probability mix the bit-identity tests
/// share, in equal parts: exactly 0, exactly 1, a subnormal, a uniform
/// value rounded to `f32`, and `1 − 2⁻²⁴` (the largest `f32` below 1).
/// Every draw is an `f32` value, so a model table stores it unchanged.
pub fn mixed_prob<R: Rng>(rng: &mut R) -> f64 {
    match rng.gen_range(0..5u32) {
        0 => 0.0,
        1 => 1.0,
        2 => f32::from_bits(rng.gen_range(1..1u32 << 23)) as f64,
        3 => rng.gen_range(0.0..1.0f32) as f64,
        _ => 1.0 - (-24f64).exp2(),
    }
}

/// A sparse row over `num_topics` topics: each topic is listed with
/// probability `density`, with a [`mixed_prob`] value (zeros left out).
#[cfg(test)]
pub(crate) fn mixed_row<R: Rng>(
    num_topics: usize,
    density: f64,
    rng: &mut R,
) -> Vec<(TopicId, f32)> {
    let mut row = Vec::new();
    for z in 0..num_topics as TopicId {
        let p = if rng.gen_bool(density) { mixed_prob(rng) as f32 } else { 0.0 };
        if p > 0.0 {
            row.push((z, p));
        }
    }
    row
}

/// A small tag–topic matrix of [`mixed_row`]s — empty rows and tags with
/// disjoint supports included — over a prior with zero, subnormal and
/// plain topics, so that `p(z)·p(w|z)` products also underflow.
#[cfg(test)]
pub(crate) fn mixed_matrix<R: Rng>(rng: &mut R) -> TagTopicMatrix {
    let num_topics = rng.gen_range(1..8usize);
    let density = rng.gen_range(0.1..0.9);
    let rows = (0..rng.gen_range(1..9usize)).map(|_| mixed_row(num_topics, density, rng)).collect();
    let mut prior: Vec<f64> = (0..num_topics)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
            _ => rng.gen_range(0.01..1.0),
        })
        .collect();
    if prior.iter().sum::<f64>() < 1e-3 {
        prior[rng.gen_range(0..num_topics)] = 1.0;
    }
    let total: f64 = prior.iter().sum();
    prior.iter_mut().for_each(|p| *p /= total);
    TagTopicMatrix::new(rows, prior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitex_graph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_graph() -> DiGraph {
        let mut rng = StdRng::seed_from_u64(5);
        gen::erdos_renyi(60, 240, &mut rng)
    }

    #[test]
    fn tag_topic_density_is_close_to_target() {
        let cfg =
            ModelGenConfig { num_topics: 20, num_tags: 100, density: 0.2, ..Default::default() };
        let m = random_tag_topic(&cfg, &mut StdRng::seed_from_u64(1));
        assert_eq!(m.num_tags(), 100);
        assert_eq!(m.num_topics(), 20);
        // per_row = round(0.2·20) = 4 exactly, so density is exactly 0.2.
        assert!((m.density() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn tag_rows_are_normalized() {
        let cfg = ModelGenConfig::default();
        let m = random_tag_topic(&cfg, &mut StdRng::seed_from_u64(2));
        for w in 0..m.num_tags() as u32 {
            let sum: f32 = m.row(w).map(|(_, p)| p).sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {w} sums to {sum}");
        }
    }

    #[test]
    fn minimum_one_topic_per_tag() {
        let cfg = ModelGenConfig { num_topics: 50, density: 0.001, ..Default::default() };
        let m = random_tag_topic(&cfg, &mut StdRng::seed_from_u64(3));
        for w in 0..m.num_tags() as u32 {
            assert!(m.row_len(w) >= 1);
        }
    }

    #[test]
    fn edge_rows_respect_topic_count_range() {
        let g = small_graph();
        let cfg = ModelGenConfig { topics_per_edge: (2, 4), ..Default::default() };
        let et = random_edge_topics(&g, &cfg, &mut StdRng::seed_from_u64(4));
        assert_eq!(et.num_edges(), g.num_edges());
        for e in 0..g.num_edges() as u32 {
            let n = et.row(e).count();
            assert!((2..=4).contains(&n), "edge {e} has {n} topics");
        }
    }

    #[test]
    fn weighted_cascade_scales_with_in_degree() {
        let g = gen::star_low_impact(100); // every leaf has in-degree 1
        let cfg = ModelGenConfig {
            edge_prob: EdgeProbKind::WeightedCascade,
            topics_per_edge: (1, 1),
            ..Default::default()
        };
        let et = random_edge_topics(&g, &cfg, &mut StdRng::seed_from_u64(6));
        for e in 0..g.num_edges() as u32 {
            let (_, p) = et.row(e).next().unwrap();
            assert!((0.5..=1.0).contains(&p), "in-degree 1 target ⇒ p ∈ [.5, 1], got {p}");
        }
    }

    #[test]
    fn trivalency_uses_exactly_three_levels() {
        let g = small_graph();
        let cfg = ModelGenConfig { edge_prob: EdgeProbKind::Trivalency, ..Default::default() };
        let et = random_edge_topics(&g, &cfg, &mut StdRng::seed_from_u64(7));
        for e in 0..g.num_edges() as u32 {
            for (_, p) in et.row(e) {
                assert!([0.1f32, 0.01, 0.001].contains(&p), "unexpected trivalency level {p}");
            }
        }
    }

    #[test]
    fn full_model_is_consistent_and_deterministic() {
        let cfg = ModelGenConfig::default();
        let m1 = random_model(small_graph(), &cfg, &mut StdRng::seed_from_u64(9));
        let m2 = random_model(small_graph(), &cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(m1.tag_topic(), m2.tag_topic());
        assert_eq!(m1.edge_topics(), m2.edge_topics());
        assert_eq!(m1.num_tags(), cfg.num_tags);
    }
}
