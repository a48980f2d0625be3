//! # `pitex_live` — online updates for a serving PITEX deployment
//!
//! The paper treats the RR-Graph index as a purely offline artifact, but a
//! production tag service mutates constantly: users follow and unfollow,
//! tag vocabularies drift, influence probabilities get re-learned. This
//! crate is the online half the offline pipeline was missing. Three pieces
//! compose into zero-downtime updates:
//!
//! * **Update log + overlay** ([`log`], [`overlay`]) — a typed
//!   [`UpdateOp`] (edges, tag rows, vertices) with text and binary codecs,
//!   validated and staged in a [`ModelOverlay`] over the immutable
//!   snapshot; [`ModelOverlay::compact`] folds base + ops into a fresh
//!   [`TicModel`](pitex_model::TicModel), deterministically and at the cost
//!   of what was staged: a component no op touched is shared with the base
//!   (`Arc`), a touched topic table is one merge of staged rows into
//!   slice-copied runs of the base's.
//! * **Incremental index repair** ([`repair`]) — instead of rebuilding all
//!   θ RR-Graphs, [`repair_rr_index`] marks dirty exactly the graphs whose
//!   node set contains the head of a mutated edge (via the index's
//!   membership inverted lists) and resamples only those on their own
//!   per-draw RNG streams. The repaired index is bit-identical to a
//!   from-scratch rebuild; past a dirty-fraction threshold it falls back
//!   to one.
//! * **Durable log + catch-up bundles** ([`wal`]) — the update log made
//!   crash-safe and shippable: acked ops are fsynced to an append-only
//!   [`Wal`] before the `UPDATE` ack, torn tails truncate on open (loud
//!   error on mid-record corruption), the log compacts into an
//!   epoch-stamped base snapshot past the [`WalOptions`] bounds, and a
//!   [`SyncBundle`] ships the history suffix a stale replica replays to
//!   rejoin its cluster bit-identically.
//! * **Epoch-versioned snapshots** ([`epoch`]) — a [`SnapshotStore`] that
//!   publishes `EngineHandle`s under a monotone epoch; query workers pin a
//!   snapshot, poll the epoch atomically between requests, and rebuild
//!   their private engines lazily after a swap. Queries never block on an
//!   update.
//!
//! `pitex_serve` wires these into the wire protocol (`UPDATE`, `RELOAD`,
//! `EPOCH`) and scopes its result-cache invalidation to
//! [`ModelOverlay::affected_users`] plus the repair's dirty membership.
//!
//! ```
//! use pitex_live::{ModelOverlay, RepairOptions, UpdateOp, repair_rr_index};
//! use pitex_index::{IndexBudget, RrIndex};
//! use pitex_model::TicModel;
//! use std::sync::Arc;
//!
//! let base = Arc::new(TicModel::paper_example());
//! let budget = IndexBudget::Fixed(200);
//! let index = RrIndex::build_with_threads(&base, budget, 7, 2);
//!
//! // Stage an update, fold it, repair the index incrementally. The
//! // budget and seed travel inside the index itself.
//! let mut overlay = ModelOverlay::new(base.clone());
//! overlay.apply(UpdateOp::parse_text("SET_EDGE 0 1 0:0.9").unwrap()).unwrap();
//! let new_model = overlay.compact();
//! let (repaired, report) =
//!     repair_rr_index(&index, &base, &new_model, &RepairOptions::default());
//! assert!(report.resampled < report.theta, "only dirty graphs resampled");
//! assert_eq!(repaired.theta(), index.theta());
//! ```

pub mod epoch;
pub mod log;
pub mod overlay;
pub mod repair;
pub mod wal;

pub use epoch::{Snapshot, SnapshotStore};
pub use log::{
    ops_from_bytes, ops_from_file_bytes, ops_from_text, ops_to_bytes, TopicRow, UpdateOp,
};
pub use overlay::{ModelOverlay, UpdateError};
pub use repair::{repair_rr_index, RepairOptions, RepairReport};
pub use wal::{
    replay, CommittedBatch, SyncBundle, Wal, WalError, WalOptions, WalRecovery, WalTimings,
};
