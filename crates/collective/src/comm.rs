//! The shared-memory communicator behind every [`Collective`].
//!
//! The distributed trainer runs each replica on its own thread of one
//! address space, so the all-reduce needs no message passing. Every rank
//! publishes its buffer's pointer and length, and all ranks meet at a
//! barrier. Each rank then reads every rank's buffer in place and folds
//! its own [`shard_bounds`] shard into a result shard it owns. After a
//! second barrier, every rank copies all result shards out. Work is O(n)
//! per rank.
//!
//! The fold is the **canonical grid-blocked order** of
//! [`canonical_grid`]: ranks form a row-major `rows × cols` grid, each
//! row's `cols` terms are folded in ascending rank order, and the row sums
//! are then folded in ascending row order (the flat ascending fold when
//! the grid has one row). The order is a pure function of the world size,
//! so results are bitwise identical on every rank, on every run, and under
//! every thread schedule. It is also what a two-phase 2-D torus exchange
//! computes, which is how the TPU pod runs it and how `crate::cost` prices
//! it.
//!
//! `all_gather` and `broadcast` run rendezvous rounds over a **persistent
//! round scratch**: per-rank slot buffers and a shared result buffer owned
//! by the communicator are reused round after round. Together with the
//! all-reduce's persistent result shards, the steady state performs **no
//! heap allocation** (a BN layer syncs once per conv layer per step).
//! Capacity growth is counted in [`Collective::scratch_reallocs`], which a
//! test pins flat after warmup.

use crate::backend::{Collective, CollectiveStats};
use crate::topology::canonical_grid;
use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Elements folded per pass: one block partial of this many f32 lives on
/// the stack and stays in L1 while every rank's terms stream past it.
const FOLD_CHUNK: usize = 1024;

/// Polls of the barrier generation before a waiter parks on the condvar.
const YIELD_POLLS: u32 = 20;

/// Byte range `[start, end)` of part `i` when `n` elements are split into
/// `parts` near-equal shards, remainder spread over the leading parts.
pub fn shard_bounds(n: usize, parts: usize, i: usize) -> (usize, usize) {
    assert!(i < parts, "shard index out of range");
    let base = n / parts;
    let rem = n % parts;
    let start = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    (start, start + len)
}

/// `acc[i] += x[i]`, element by element.
fn add(acc: &mut [f32], x: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v;
    }
}

/// Persistent zero-alloc state for the gather and broadcast rounds.
struct RoundScratch {
    /// Per-rank contribution buffers, reused every round.
    slots: Vec<Vec<f32>>,
    /// Double-deposit guards, reset when a round publishes.
    deposited: Vec<bool>,
    /// Gathered / broadcast payload of the completed round.
    result: Vec<f32>,
    arrived: usize,
    readers_left: usize,
    generation: u64,
}

/// Central generation barrier for the all-reduce: waiters poll briefly,
/// then park. Each arrival's `AcqRel` increment of `arrived` and the last
/// arrival's `Release` bump of `generation`, read with `Acquire`, order
/// every member's writes before the call with every member's reads after
/// its return.
#[derive(Default)]
struct Gate {
    arrived: AtomicUsize,
    generation: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Gate {
    /// Returns once all `size` members have called `wait` for this
    /// generation. Everything a member wrote before its call is visible
    /// to every member after theirs returns.
    fn wait(&self, size: usize) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == size {
            self.arrived.store(0, Ordering::Relaxed);
            // Bump under the lock so a waiter between its check and its
            // park cannot miss the notification.
            let _held = self.lock.lock();
            self.generation.store(generation + 1, Ordering::Release);
            self.cv.notify_all();
            return;
        }
        // Yielding while polling hands the core to a peer that has yet to
        // arrive when ranks outnumber cores.
        for _ in 0..YIELD_POLLS {
            if self.generation.load(Ordering::Acquire) != generation {
                return;
            }
            std::thread::yield_now();
        }
        let mut held = self.lock.lock();
        while self.generation.load(Ordering::Acquire) == generation {
            self.cv.wait(&mut held);
        }
    }
}

/// A rank's all-reduce input, published for its peers to read in place.
/// `Relaxed` suffices: the [`Gate`] orders the stores before the loads.
#[derive(Default)]
struct Published {
    ptr: AtomicPtr<f32>,
    len: AtomicUsize,
}

struct CommInner {
    size: usize,
    /// Canonical fold shape for this world (flat fold when rows == 1).
    fold: (usize, usize),
    /// All-reduce inputs, one per rank.
    inputs: Vec<Published>,
    /// All-reduce result shards, one per rank: written only by their
    /// owner between the two barriers, read by everyone after the second.
    shards: Vec<RwLock<Vec<f32>>>,
    gate: Gate,
    round: Mutex<RoundScratch>,
    cv: Condvar,
    /// Scratch-buffer capacity growths since creation. Constant once
    /// buffer sizes stabilize — the zero-alloc steady-state counter.
    reallocs: AtomicU64,
}

#[derive(Default)]
struct StatsCell {
    all_reduce_calls: AtomicU64,
    all_gather_calls: AtomicU64,
    broadcast_calls: AtomicU64,
    barrier_calls: AtomicU64,
    payload_bytes: AtomicU64,
}

impl StatsCell {
    fn record(&self, counter: &AtomicU64, elems: usize) {
        counter.fetch_add(1, Ordering::Relaxed);
        self.payload_bytes
            .fetch_add(elems as u64 * 4, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CollectiveStats {
        CollectiveStats {
            all_reduce_calls: self.all_reduce_calls.load(Ordering::Relaxed),
            all_gather_calls: self.all_gather_calls.load(Ordering::Relaxed),
            broadcast_calls: self.broadcast_calls.load(Ordering::Relaxed),
            barrier_calls: self.barrier_calls.load(Ordering::Relaxed),
            payload_bytes: self.payload_bytes.load(Ordering::Relaxed),
        }
    }
}

/// One participant's handle to a communicator of `size` members.
///
/// Each handle is `Send + Sync` and used by exactly one thread.
pub struct CommHandle {
    rank: usize,
    inner: Arc<CommInner>,
    stats: StatsCell,
    /// Set while this handle is inside `all_reduce_sum`. Peers read the
    /// published buffer of every rank, so two overlapping calls on one
    /// handle must fail before either reaches the [`Gate`].
    in_all_reduce: AtomicBool,
}

impl CommHandle {
    /// Creates a communicator with `size` members, returning one handle per
    /// member (index = member rank within this communicator).
    pub fn create(size: usize) -> Vec<CommHandle> {
        assert!(size >= 1, "communicator needs at least one member");
        let inner = Arc::new(CommInner {
            size,
            fold: canonical_grid(size),
            inputs: (0..size).map(|_| Published::default()).collect(),
            shards: (0..size).map(|_| RwLock::new(Vec::new())).collect(),
            gate: Gate::default(),
            round: Mutex::new(RoundScratch {
                slots: (0..size).map(|_| Vec::new()).collect(),
                deposited: vec![false; size],
                result: Vec::new(),
                arrived: 0,
                readers_left: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
            reallocs: AtomicU64::new(0),
        });
        (0..size)
            .map(|rank| CommHandle {
                rank,
                inner: Arc::clone(&inner),
                stats: StatsCell::default(),
                in_all_reduce: AtomicBool::new(false),
            })
            .collect()
    }

    /// One zero-alloc rendezvous round over the persistent scratch.
    ///
    /// `deposit` runs under the lock as this rank arrives; `publish` runs
    /// exactly once (on the last arrival) after all deposits; `read` runs
    /// under the lock after publication.
    fn round<C: ?Sized, R>(
        &self,
        ctx: &mut C,
        deposit: impl FnOnce(&mut C, &mut RoundScratch, usize),
        publish: impl FnOnce(&mut RoundScratch),
        read: impl FnOnce(&mut C, &RoundScratch, usize) -> R,
    ) -> R {
        let inner = &*self.inner;
        let mut st = inner.round.lock();
        while st.readers_left > 0 {
            inner.cv.wait(&mut st);
        }
        let my_gen = st.generation;
        assert!(
            !st.deposited[self.rank],
            "double deposit by rank {} (one handle per thread, one deposit per round)",
            self.rank
        );
        st.deposited[self.rank] = true;
        deposit(ctx, &mut st, self.rank);
        st.arrived += 1;
        if st.arrived == inner.size {
            publish(&mut st);
            st.arrived = 0;
            st.deposited.iter_mut().for_each(|d| *d = false);
            st.readers_left = inner.size;
            st.generation += 1;
            inner.cv.notify_all();
        } else {
            while st.generation == my_gen {
                inner.cv.wait(&mut st);
            }
        }
        let out = read(ctx, &st, self.rank);
        st.readers_left -= 1;
        if st.readers_left == 0 {
            inner.cv.notify_all();
        }
        out
    }

    /// Copies `src` into the persistent slot buffer `dst`, counting growth.
    fn fill(&self, dst: &mut Vec<f32>, src: &[f32]) {
        if dst.capacity() < src.len() {
            self.inner.reallocs.fetch_add(1, Ordering::Relaxed);
        }
        dst.clear();
        dst.extend_from_slice(src);
    }
}

impl Collective for CommHandle {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.inner.size
    }

    /// In-place sum with the canonical grid-blocked fold (module docs).
    /// Panics with `mismatched all-reduce lengths` on every rank, before
    /// any peer buffer is read, if the ranks' lengths differ.
    fn all_reduce_sum(&self, buf: &mut [f32]) {
        self.stats.record(&self.stats.all_reduce_calls, buf.len());
        let inner = &*self.inner;
        let p = inner.size;
        if p == 1 {
            return;
        }
        assert!(
            !self.in_all_reduce.swap(true, Ordering::Relaxed),
            "overlapping all_reduce_sum calls on rank {} (one handle per thread)",
            self.rank
        );
        let n = buf.len();
        let mine = &inner.inputs[self.rank];
        mine.ptr.store(buf.as_mut_ptr(), Ordering::Relaxed);
        mine.len.store(n, Ordering::Relaxed);
        inner.gate.wait(p);

        // Every rank sees the same published lengths, so either all ranks
        // panic here or none does.
        if inner
            .inputs
            .iter()
            .any(|x| x.len.load(Ordering::Relaxed) != n)
        {
            panic!("mismatched all-reduce lengths");
        }
        let (a, b) = shard_bounds(n, p, self.rank);
        let input = |q: usize, lo: usize, hi: usize| -> &[f32] {
            let ptr = inner.inputs[q].ptr.load(Ordering::Relaxed);
            // SAFETY: only this function waits on the gate, one call at a
            // time per handle (`in_all_reduce`), so every rank's first wait
            // of this call closed the same generation. Rank `q` therefore
            // published `ptr` from its `&mut [f32]` of `n` elements (checked
            // equal above) in this call, and does not touch that buffer
            // again until every rank has reached the second wait, after
            // which no rank reads it. So the buffer is alive and unmodified
            // while this read happens, and `a + hi <= b <= n` keeps the
            // range in bounds.
            unsafe { std::slice::from_raw_parts(ptr.add(a + lo), hi - lo) }
        };
        let (rows, cols) = inner.fold;
        let mut out = inner.shards[self.rank].write();
        if out.capacity() < b - a {
            inner.reallocs.fetch_add(1, Ordering::Relaxed);
        }
        out.clear();
        let mut partial = [0.0f32; FOLD_CHUNK];
        for lo in (0..b - a).step_by(FOLD_CHUNK) {
            let hi = (lo + FOLD_CHUNK).min(b - a);
            out.extend_from_slice(input(0, lo, hi));
            let acc = &mut out[lo..hi];
            for q in 1..cols {
                add(acc, input(q, lo, hi));
            }
            for row in 1..rows {
                let part = &mut partial[..hi - lo];
                part.copy_from_slice(input(row * cols, lo, hi));
                for q in row * cols + 1..(row + 1) * cols {
                    add(part, input(q, lo, hi));
                }
                add(acc, part);
            }
        }
        drop(out);
        inner.gate.wait(p);

        for (q, shard) in inner.shards.iter().enumerate() {
            let (a, b) = shard_bounds(n, p, q);
            buf[a..b].copy_from_slice(&shard.read());
        }
        self.in_all_reduce.store(false, Ordering::Relaxed);
    }

    fn all_gather(&self, local: &[f32], out: &mut Vec<f32>) {
        self.stats.record(&self.stats.all_gather_calls, local.len());
        if self.inner.size == 1 {
            out.clear();
            out.extend_from_slice(local);
            return;
        }
        self.round(
            out,
            |_out, round, rank| self.fill(&mut round.slots[rank], local),
            |round| {
                let RoundScratch { slots, result, .. } = round;
                let total: usize = slots.iter().map(|s| s.len()).sum();
                if result.capacity() < total {
                    self.inner.reallocs.fetch_add(1, Ordering::Relaxed);
                }
                result.clear();
                for slot in slots.iter() {
                    result.extend_from_slice(slot);
                }
            },
            |out, round, _| {
                out.clear();
                out.extend_from_slice(&round.result);
            },
        );
    }

    fn broadcast(&self, buf: &mut [f32], root: usize) {
        assert!(root < self.inner.size, "broadcast root out of range");
        self.stats.record(&self.stats.broadcast_calls, buf.len());
        if self.inner.size == 1 {
            return;
        }
        self.round(
            buf,
            |buf, round, rank| {
                // Only the root deposits payload — straight into the result
                // buffer (previous round fully drained, so this is safe).
                if rank == root {
                    self.fill(&mut round.result, buf);
                }
            },
            |_round| {},
            |buf, round, rank| {
                if rank != root {
                    buf.copy_from_slice(&round.result);
                }
            },
        );
    }

    fn barrier(&self) {
        self.stats.record(&self.stats.barrier_calls, 0);
        if self.inner.size > 1 {
            self.round(&mut (), |_, _, _| {}, |_| {}, |_, _, _| {});
        }
    }

    fn stats(&self) -> CollectiveStats {
        self.stats.snapshot()
    }

    fn scratch_reallocs(&self) -> u64 {
        self.inner.reallocs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_world<F, R>(p: usize, f: F) -> Vec<R>
    where
        F: Fn(CommHandle) -> R + Send + Sync + Clone + 'static,
        R: Send + 'static,
    {
        let joins: Vec<_> = CommHandle::create(p)
            .into_iter()
            .map(|h| {
                let f = f.clone();
                thread::spawn(move || f(h))
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    }

    #[test]
    fn all_reduce_sum_and_mean_across_ranks() {
        let results = run_world(4, |h| {
            let mut sum = vec![h.rank() as f32, 1.0];
            h.all_reduce_sum(&mut sum);
            let mut mean = vec![(h.rank() * 2) as f32];
            h.all_reduce_mean(&mut mean);
            (sum, mean)
        });
        for (sum, mean) in results {
            assert_eq!(sum, vec![6.0, 4.0]);
            assert_eq!(mean, vec![3.0]);
        }
    }

    #[test]
    fn repeated_rounds_do_not_cross_talk() {
        let results = run_world(3, |h| {
            (0..200)
                .map(|round| {
                    let mut buf = vec![(h.rank() + round) as f32; 5];
                    h.all_reduce_sum(&mut buf);
                    buf[4]
                })
                .collect::<Vec<_>>()
        });
        for r in &results {
            for (round, &v) in r.iter().enumerate() {
                assert_eq!(v, (3 * round + 3) as f32, "round {round}");
            }
        }
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let results = run_world(3, |h| {
            let r = h.rank() as f32;
            let mut out = Vec::new();
            h.all_gather(&[r * 10.0, r * 10.0 + 1.0], &mut out);
            out
        });
        for r in results {
            assert_eq!(r, vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        }
    }

    #[test]
    fn broadcast_copies_root() {
        let results = run_world(4, |h| {
            let mut buf = if h.rank() == 2 {
                vec![3.5, -1.25, 8.0]
            } else {
                vec![0.0; 3]
            };
            h.broadcast(&mut buf, 2);
            buf
        });
        for r in results {
            assert_eq!(r, vec![3.5, -1.25, 8.0]);
        }
    }

    #[test]
    fn barrier_and_sequenced_ops_interleave_safely() {
        let results = run_world(3, |h| {
            let mut buf = vec![h.rank() as f32 + 1.0];
            h.barrier();
            h.all_reduce_sum(&mut buf);
            h.barrier();
            let mut out = Vec::new();
            h.all_gather(&buf, &mut out);
            out
        });
        for r in results {
            assert_eq!(r, vec![6.0, 6.0, 6.0]);
        }
    }

    #[test]
    fn barrier_synchronizes() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        run_world(4, move |h| {
            c.fetch_add(1, Ordering::SeqCst);
            h.barrier();
            // After the barrier, all increments must be visible.
            assert_eq!(c.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn singleton_communicator_is_identity() {
        let h = CommHandle::create(1).pop().unwrap();
        let mut buf = vec![2.0, 4.0];
        h.all_reduce_sum(&mut buf);
        h.all_reduce_mean(&mut buf);
        assert_eq!(buf, vec![2.0, 4.0]);
        let mut out = Vec::new();
        h.all_gather(&buf, &mut out);
        assert_eq!(out, vec![2.0, 4.0]);
        h.broadcast(&mut buf, 0);
        h.barrier();
    }

    #[test]
    fn stats_count_calls_and_bytes() {
        for s in run_world(2, |h| {
            let mut buf = vec![1.0; 10];
            h.all_reduce_sum(&mut buf);
            h.all_reduce_mean(&mut buf);
            let mut out = Vec::new();
            h.all_gather(&buf[..5], &mut out);
            h.broadcast(&mut buf, 0);
            h.barrier();
            h.stats()
        }) {
            assert_eq!(s.all_reduce_calls, 2);
            assert_eq!(s.all_gather_calls, 1);
            assert_eq!(s.broadcast_calls, 1);
            assert_eq!(s.barrier_calls, 1);
            // 10 + 10 + 5 + 10 elements × 4 bytes.
            assert_eq!(s.payload_bytes, 35 * 4);
        }
    }

    #[test]
    fn shard_bounds_partition_exactly() {
        for n in [0usize, 1, 5, 16, 97] {
            for parts in 1..=8usize {
                let mut covered = 0;
                for i in 0..parts {
                    let (a, b) = shard_bounds(n, parts, i);
                    assert_eq!(a, covered, "shards must be contiguous");
                    assert!(b >= a);
                    covered = b;
                }
                assert_eq!(covered, n, "shards must cover [0, n)");
            }
        }
    }

    #[test]
    fn steady_state_does_not_reallocate() {
        // Warm up with the largest payloads, then hammer every op: the
        // result shards and round scratch must not grow again.
        for (warm, steady) in run_world(4, |h| {
            let mut big = vec![h.rank() as f32; 4099];
            let mut out = Vec::new();
            let round = |big: &mut Vec<f32>, out: &mut Vec<f32>| {
                h.all_reduce_sum(big);
                h.all_reduce_sum(&mut big[..16]);
                h.all_gather(&big[..64], out);
                h.broadcast(big, 1);
                h.barrier();
            };
            round(&mut big, &mut out);
            // Every rank's warmup growth lands before anyone reads.
            h.barrier();
            let warm = h.scratch_reallocs();
            for _ in 0..100 {
                round(&mut big, &mut out);
            }
            (warm, h.scratch_reallocs())
        }) {
            assert_eq!(warm, steady, "steady-state rounds must not allocate");
        }
    }
}
