//! The four named dataset profiles of Table 2, with scaling.

use pitex_graph::{gen, DiGraph};
use pitex_model::genmodel::{random_model, EdgeProbKind, ModelGenConfig};
use pitex_model::TicModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which graph generator shapes the profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphKind {
    /// Preferential attachment with `m` out-edges per arriving vertex and
    /// back-edge probability — power-law degrees (social/co-author nets).
    PreferentialAttachment { m: usize, back_prob: f64 },
    /// Sparse uniform random graph (the twitter retweet graph's
    /// `|E|/|V| = 1.2` regime).
    ErdosRenyi,
}

/// A synthetic stand-in for one of the paper's datasets.
///
/// `num_nodes`/`num_edges` are the *paper's* sizes; [`Self::scaled`] shrinks
/// them proportionally (`pitex repro` runs dblp and twitter at 0.2% by
/// default; its `--scale` flag multiplies that toward paper scale).
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetProfile {
    pub name: &'static str,
    pub num_nodes: usize,
    pub num_edges: usize,
    pub num_topics: usize,
    pub num_tags: usize,
    /// Tag–topic density (§7.3 footnote: 0.16 / 0.08 / 0.32 / 0.17).
    pub density: f64,
    pub graph_kind: GraphKind,
    pub seed: u64,
}

impl DatasetProfile {
    /// lastfm: 1.3K users, 12K edges, 20 topics, 50 tags, density 0.16.
    pub fn lastfm_like() -> Self {
        Self {
            name: "lastfm",
            num_nodes: 1_300,
            num_edges: 12_000,
            num_topics: 20,
            num_tags: 50,
            density: 0.16,
            graph_kind: GraphKind::PreferentialAttachment { m: 9, back_prob: 0.3 },
            seed: 0x1a5f,
        }
    }

    /// diggs: 15K users, 0.2M edges, 20 topics, 50 tags, density 0.08.
    pub fn diggs_like() -> Self {
        Self {
            name: "diggs",
            num_nodes: 15_000,
            num_edges: 200_000,
            num_topics: 20,
            num_tags: 50,
            density: 0.08,
            graph_kind: GraphKind::PreferentialAttachment { m: 13, back_prob: 0.3 },
            seed: 0xd199,
        }
    }

    /// dblp: 0.5M authors, 6M edges, 9 topics, 276 tags, density 0.32.
    pub fn dblp_like() -> Self {
        Self {
            name: "dblp",
            num_nodes: 500_000,
            num_edges: 6_000_000,
            num_topics: 9,
            num_tags: 276,
            density: 0.32,
            graph_kind: GraphKind::PreferentialAttachment { m: 12, back_prob: 0.4 },
            seed: 0xdb19,
        }
    }

    /// twitter: 10M users, 12M edges, 50 topics, 250 tags, density 0.17.
    pub fn twitter_like() -> Self {
        Self {
            name: "twitter",
            num_nodes: 10_000_000,
            num_edges: 12_000_000,
            num_topics: 50,
            num_tags: 250,
            density: 0.17,
            graph_kind: GraphKind::PreferentialAttachment { m: 1, back_prob: 0.2 },
            seed: 0x7717,
        }
    }

    /// All four profiles in the paper's order.
    pub fn all() -> Vec<DatasetProfile> {
        vec![Self::lastfm_like(), Self::diggs_like(), Self::dblp_like(), Self::twitter_like()]
    }

    /// Proportionally shrinks vertices and edges (vocabularies unchanged);
    /// a minimum of 100 vertices is kept.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0);
        self.num_nodes = ((self.num_nodes as f64 * factor) as usize).max(100);
        self.num_edges = ((self.num_edges as f64 * factor) as usize).max(120);
        self
    }

    /// Overrides the tag vocabulary size (used by the scalability sweep and
    /// to keep C(|Ω|, k) tractable on the scaled dblp/twitter stand-ins).
    pub fn with_tags(mut self, num_tags: usize) -> Self {
        self.num_tags = num_tags;
        self
    }

    /// Overrides the topic count (scalability sweep, Fig. 12b).
    pub fn with_topics(mut self, num_topics: usize) -> Self {
        self.num_topics = num_topics;
        self
    }

    /// Generates the social graph.
    ///
    /// Preferential attachment produces heavy-tailed *in*-degrees (popular
    /// accounts gain followers); influence propagates from the followed to
    /// the follower, so the influence graph is the transpose — celebrities
    /// end up with heavy-tailed *out*-degrees, which is what the paper's
    /// high/mid/low query groups are bucketed on.
    pub fn generate_graph(&self) -> DiGraph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        match self.graph_kind {
            GraphKind::PreferentialAttachment { m, back_prob } => {
                gen::preferential_attachment(self.num_nodes, m, back_prob, &mut rng).transpose()
            }
            GraphKind::ErdosRenyi => gen::erdos_renyi(self.num_nodes, self.num_edges, &mut rng),
        }
    }

    /// Generates the complete TIC model (graph + parameters).
    pub fn generate(&self) -> TicModel {
        let graph = self.generate_graph();
        let cfg = ModelGenConfig {
            num_topics: self.num_topics,
            num_tags: self.num_tags,
            density: self.density,
            topics_per_edge: (1, 3),
            edge_prob: EdgeProbKind::WeightedCascade,
        };
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
        random_model(graph, &cfg, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_are_faithful() {
        let p = DatasetProfile::all();
        assert_eq!(p[0].num_nodes, 1_300);
        assert_eq!(p[1].num_edges, 200_000);
        assert_eq!(p[2].num_tags, 276);
        assert_eq!(p[3].num_topics, 50);
        let names: Vec<_> = p.iter().map(|d| d.name).collect();
        assert_eq!(names, vec!["lastfm", "diggs", "dblp", "twitter"]);
    }

    #[test]
    fn scaling_shrinks_proportionally() {
        let p = DatasetProfile::dblp_like().scaled(0.01);
        assert_eq!(p.num_nodes, 5_000);
        assert_eq!(p.num_edges, 60_000);
        assert_eq!(p.num_tags, 276, "vocabulary unchanged by scaling");
    }

    #[test]
    fn scaling_respects_minimums() {
        let p = DatasetProfile::lastfm_like().scaled(0.000001);
        assert!(p.num_nodes >= 100);
    }

    #[test]
    fn lastfm_generation_matches_shape() {
        let profile = DatasetProfile::lastfm_like();
        let model = profile.generate();
        assert_eq!(model.graph().num_nodes(), 1_300);
        let ratio = model.graph().num_edges() as f64 / model.graph().num_nodes() as f64;
        assert!(
            (ratio - 12_000.0 / 1_300.0).abs() < 2.0,
            "|E|/|V| = {ratio} far from the paper's 9.2"
        );
        assert_eq!(model.num_topics(), 20);
        assert_eq!(model.num_tags(), 50);
        assert!((model.tag_topic().density() - 0.16).abs() < 0.03);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = DatasetProfile::lastfm_like().scaled(0.2);
        let a = p.generate();
        let b = p.generate();
        assert_eq!(a.graph(), b.graph());
        assert_eq!(a.edge_topics(), b.edge_topics());
    }

    #[test]
    fn overrides_apply() {
        let p = DatasetProfile::twitter_like().scaled(0.001).with_tags(80).with_topics(10);
        let model = p.generate();
        assert_eq!(model.num_tags(), 80);
        assert_eq!(model.num_topics(), 10);
    }
}
