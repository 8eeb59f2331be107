//! Wiring `ets-collective` into `ets-nn`'s batch norm: the
//! distributed batch normalization of §3.4, executed for real.
//!
//! Each replica gets a [`GroupStatSync`] bound to its BN group's
//! [`Collective`]; every `BatchNorm2d` in the replica's model reduces its
//! (sum, sum-sq) pair — and in backward its (Σg, Σg·x̂) pair — across the
//! group. Because all replicas run the same model layer-for-layer (SPMD),
//! the group members' reduce calls pair up deterministically.
//!
//! The fused (a ‖ b) payload is staged in a persistent scratch buffer —
//! BN sync fires once per BN layer per step, thousands of times per run,
//! and must not allocate in the steady state.

use ets_collective::{Collective, CollectiveStats, CommHandle};
use ets_nn::StatSync;
use parking_lot::Mutex;

/// Cross-replica BN statistics reducer for one replica.
pub struct GroupStatSync {
    comm: Box<dyn Collective>,
    /// Persistent fused-payload buffer (StatSync is `&self`; BN layers
    /// within one replica call sequentially, so the lock is uncontended).
    scratch: Mutex<Vec<f32>>,
}

impl GroupStatSync {
    /// Wraps this replica's collective for its BN group.
    pub fn new(comm: Box<dyn Collective>) -> Self {
        GroupStatSync {
            comm,
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Convenience: wraps a raw communicator handle.
    pub fn from_handle(handle: CommHandle) -> Self {
        Self::new(Box::new(handle))
    }

    /// Byte/call counters of the underlying collective.
    pub fn stats(&self) -> CollectiveStats {
        self.comm.stats()
    }
}

impl StatSync for GroupStatSync {
    fn reduce_pair(&self, a: &mut [f32], b: &mut [f32], local_count: f32) -> f32 {
        if self.comm.size() == 1 {
            return local_count;
        }
        // One fused all-reduce for both vectors halves the rendezvous
        // count; the persistent scratch keeps the steady state alloc-free.
        let mut buf = self.scratch.lock();
        buf.clear();
        buf.extend_from_slice(a);
        buf.extend_from_slice(b);
        self.comm.all_reduce_sum(&mut buf);
        a.copy_from_slice(&buf[..a.len()]);
        b.copy_from_slice(&buf[a.len()..]);
        local_count * self.comm.size() as f32
    }

    fn group_size(&self) -> usize {
        self.comm.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_collective::{create_collective, Backend};
    use std::thread;

    #[test]
    fn reduces_across_group() {
        let world = create_collective(Backend::Tree, 4);
        let joins: Vec<_> = world
            .into_iter()
            .map(|c| {
                thread::spawn(move || {
                    let rank = c.rank() as f32;
                    let sync = GroupStatSync::new(c);
                    let mut a = vec![rank, 1.0];
                    let mut b = vec![rank * rank];
                    let count = sync.reduce_pair(&mut a, &mut b, 10.0);
                    (a, b, count)
                })
            })
            .collect();
        for j in joins {
            let (a, b, count) = j.join().unwrap();
            assert_eq!(a, vec![6.0, 4.0]);
            assert_eq!(b, vec![14.0]);
            assert_eq!(count, 40.0);
        }
    }

    #[test]
    fn singleton_group_is_local() {
        let mut hs = CommHandle::create(1);
        let sync = GroupStatSync::from_handle(hs.pop().unwrap());
        let mut a = vec![5.0];
        let mut b = vec![7.0];
        assert_eq!(sync.reduce_pair(&mut a, &mut b, 3.0), 3.0);
        assert_eq!(a, vec![5.0]);
        assert_eq!(sync.group_size(), 1);
    }

    #[test]
    fn stats_observe_bn_traffic() {
        let world = create_collective(Backend::Tree, 2);
        let joins: Vec<_> = world
            .into_iter()
            .map(|c| {
                thread::spawn(move || {
                    let sync = GroupStatSync::new(c);
                    let mut a = vec![1.0; 4];
                    let mut b = vec![2.0; 4];
                    for _ in 0..3 {
                        sync.reduce_pair(&mut a, &mut b, 1.0);
                    }
                    sync.stats()
                })
            })
            .collect();
        for j in joins {
            let s = j.join().unwrap();
            assert_eq!(s.all_reduce_calls, 3);
            assert_eq!(s.payload_bytes, 3 * 8 * 4);
        }
    }
}
