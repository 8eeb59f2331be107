//! The [`Collective`] trait, its one transport, and the [`Backend`]
//! label.
//!
//! Consumers (the trainer, BN sync, distributed eval, checkpoint
//! broadcast) talk to a `dyn Collective` and never to a concrete
//! communicator. In process, exactly one transport executes: the
//! shared-memory [`CommHandle`] of [`crate::comm`], whose all-reduce folds
//! in the canonical grid-blocked order of [`crate::topology::canonical_grid`].
//!
//! [`Backend`] names the pod all-reduce algorithm a run is *priced* and
//! *reported* under — tree, ring, the 2-D torus exchange, or the α–β
//! choice among them ([`crate::cost::auto_backend_choice`]). The pod
//! simulator and the cost models in [`crate::cost`] read it;
//! [`create_collective`] accepts it and runs the same transport for every
//! label, so a label can never perturb a training trajectory.

use crate::comm::CommHandle;
use crate::fault::CollectiveError;
use serde::{Deserialize, Serialize};

/// The pod all-reduce algorithm a run is priced and reported under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// Logarithmic tree (the default label).
    #[default]
    Tree,
    /// Bandwidth-optimal ring reduce-scatter + all-gather.
    Ring,
    /// Hierarchical 2-D torus: row reduce-scatter, column all-reduce,
    /// row all-gather over the canonical grid of the world size.
    Torus2d,
    /// Per-payload tree/ring/torus choice via the α–β cost models.
    Auto,
}

impl Backend {
    /// Stable lowercase name (used in configs and reports).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Tree => "tree",
            Backend::Ring => "ring",
            Backend::Torus2d => "torus2d",
            Backend::Auto => "auto",
        }
    }

    /// Every label, for pricing sweeps.
    pub const ALL: [Backend; 4] = [
        Backend::Tree,
        Backend::Ring,
        Backend::Torus2d,
        Backend::Auto,
    ];
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "tree" => Ok(Backend::Tree),
            "ring" => Ok(Backend::Ring),
            "torus2d" => Ok(Backend::Torus2d),
            "auto" => Ok(Backend::Auto),
            other => Err(format!(
                "unknown collective backend {other:?} (tree|ring|torus2d|auto)"
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Byte/call counters, snapshotted per rank via [`Collective::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectiveStats {
    /// Completed `all_reduce_sum`/`all_reduce_mean` calls.
    pub all_reduce_calls: u64,
    /// Completed `all_gather` calls.
    pub all_gather_calls: u64,
    /// Completed `broadcast` calls.
    pub broadcast_calls: u64,
    /// Completed `barrier` calls.
    pub barrier_calls: u64,
    /// Total payload bytes handed to collectives (f32 count × 4), summed
    /// over all ops. This is the logical payload, not wire traffic.
    pub payload_bytes: u64,
}

impl CollectiveStats {
    /// Element-wise sum, e.g. of a rank's world and BN-group counters.
    pub fn merged(self, other: CollectiveStats) -> CollectiveStats {
        CollectiveStats {
            all_reduce_calls: self.all_reduce_calls + other.all_reduce_calls,
            all_gather_calls: self.all_gather_calls + other.all_gather_calls,
            broadcast_calls: self.broadcast_calls + other.broadcast_calls,
            barrier_calls: self.barrier_calls + other.barrier_calls,
            payload_bytes: self.payload_bytes + other.payload_bytes,
        }
    }

    /// Total collective calls of any kind.
    pub fn total_calls(&self) -> u64 {
        self.all_reduce_calls + self.all_gather_calls + self.broadcast_calls + self.barrier_calls
    }
}

/// MPI-style collectives over a fixed group of `size` members.
///
/// One object per member; each is owned by exactly one replica thread but
/// must be `Send + Sync` so it can sit inside `Arc<dyn StatSync>` handed
/// to BN layers. All operations are **SPMD**: every member of the group
/// must call the same op in the same order with equal-length payloads.
///
/// Determinism contract: for a fixed world size and inputs, every
/// operation produces bitwise-identical output on every rank, on every run,
/// regardless of thread scheduling.
pub trait Collective: Send + Sync {
    /// This member's rank within the group.
    fn rank(&self) -> usize;
    /// Number of members.
    fn size(&self) -> usize;

    /// In-place sum across all members, deterministic reduction order.
    fn all_reduce_sum(&self, buf: &mut [f32]);

    /// In-place mean across all members.
    fn all_reduce_mean(&self, buf: &mut [f32]) {
        self.all_reduce_sum(buf);
        let inv = 1.0 / self.size() as f32;
        for v in buf.iter_mut() {
            *v *= inv;
        }
    }

    /// Gathers every member's `local` into `out`, concatenated in rank
    /// order. `out` is cleared and refilled; reusing the same `out` keeps
    /// the steady state allocation-free.
    fn all_gather(&self, local: &[f32], out: &mut Vec<f32>);

    /// Broadcast from `root`: on return every member's `buf` holds root's.
    fn broadcast(&self, buf: &mut [f32], root: usize);

    /// Returns once every member has arrived.
    fn barrier(&self);

    /// Fallible all-reduce: validates the payload and returns a typed
    /// error instead of panicking on degenerate input. Decorators (e.g.
    /// [`crate::fault::FaultyCollective`]) override this to inject
    /// transient failures **before** the payload touches the transport,
    /// so a failed attempt never partially mutates `buf` and every rank
    /// observes the same outcome (the SPMD contract holds).
    fn try_all_reduce_sum(&self, buf: &mut [f32]) -> Result<(), CollectiveError> {
        if buf.is_empty() {
            return Err(CollectiveError::EmptyPayload {
                op: "all_reduce_sum",
            });
        }
        self.all_reduce_sum(buf);
        Ok(())
    }

    /// Fallible broadcast: typed errors for out-of-range roots and empty
    /// payloads instead of panics.
    fn try_broadcast(&self, buf: &mut [f32], root: usize) -> Result<(), CollectiveError> {
        if root >= self.size() {
            return Err(CollectiveError::InvalidRoot {
                root,
                size: self.size(),
            });
        }
        if buf.is_empty() {
            return Err(CollectiveError::EmptyPayload { op: "broadcast" });
        }
        self.broadcast(buf, root);
        Ok(())
    }

    /// Fallible all-gather: typed error on an empty local block.
    fn try_all_gather(&self, local: &[f32], out: &mut Vec<f32>) -> Result<(), CollectiveError> {
        if local.is_empty() {
            return Err(CollectiveError::EmptyPayload { op: "all_gather" });
        }
        self.all_gather(local, out);
        Ok(())
    }

    /// This member's byte/call counters.
    fn stats(&self) -> CollectiveStats;

    /// Scratch-buffer capacity growths since creation. Flat after warmup
    /// ⇒ the steady state allocates nothing.
    fn scratch_reallocs(&self) -> u64;
}

/// Creates one [`Collective`] per member for a world of `size` ranks
/// (index = rank). Every [`Backend`] label runs the same shared-memory
/// transport; the label only selects how the run is priced and reported.
pub fn create_collective(_backend: Backend, size: usize) -> Vec<Box<dyn Collective>> {
    CommHandle::create(size)
        .into_iter()
        .map(|h| Box::new(h) as Box<dyn Collective>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_round_trips_through_str() {
        for backend in Backend::ALL {
            let name = backend.name();
            assert_eq!(name.parse::<Backend>().unwrap(), backend);
        }
        assert!("mesh".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Tree);
    }
}
