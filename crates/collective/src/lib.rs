//! # ets-collective
//!
//! Communication substrate for the EfficientNet-at-scale reproduction:
//!
//! - [`topology`] — TPU-v3 pod slices as 2-D chip tori (§2).
//! - [`group`] — BN replica grouping: contiguous and 2-D tiled (§3.4).
//! - [`backend`] — the [`Collective`] trait every consumer programs
//!   against, and the [`Backend`] label (tree / ring / torus2d / auto)
//!   that names how a run is priced and reported.
//! - [`comm`] — the one shared-memory transport every label executes:
//!   an in-place sharded all-reduce in the canonical grid-blocked fold,
//!   plus gather, broadcast, and barrier rounds.
//! - [`cost`] — α–β cost models for tree, ring, and 2-D torus/grid
//!   all-reduce, and the auto choice among them.
//! - [`fault`] — deterministic fault plans, typed collective errors, and
//!   the fault-injecting decorator.

pub mod backend;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod group;
pub mod topology;

pub use backend::{create_collective, Backend, Collective, CollectiveStats};
pub use comm::{shard_bounds, CommHandle};
pub use cost::{
    auto_backend_choice, bn_sync_time, gradient_bytes, grid_all_reduce_time, ring_all_reduce_time,
    torus_all_reduce_time, tree_all_reduce_time, tree_ring_crossover_bytes, LinkSpec, TPU_V3_LINK,
};
pub use fault::{
    retry_collective, CollectiveError, FaultEvent, FaultKind, FaultPlan, FaultSchedule,
    FaultyCollective, RetryOutcome, RetryPolicy,
};
pub use group::{bn_batch_size, bn_partition, GroupSpec};
pub use topology::{canonical_grid, SliceShape, CORES_PER_CHIP};
