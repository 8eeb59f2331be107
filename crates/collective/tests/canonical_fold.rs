//! The all-reduce against a serial reference of its canonical fold.
//!
//! Every rank of every world must hold exactly — bitwise — what a serial
//! grid-blocked fold over [`canonical_grid`] computes: each row's `cols`
//! terms folded in ascending rank order, then the row sums folded in
//! ascending row order. The reference itself is checked against the
//! two-phase torus exchange (row reduce-scatter, column all-reduce, row
//! all-gather), which is what a TPU pod runs and what the cost models
//! price.

use ets_collective::{canonical_grid, shard_bounds, Collective, CommHandle};
use std::thread;

/// Deterministic per-(seed, rank) payload mixing magnitudes, so any
/// change of association order changes the rounded sums.
fn payload(seed: u64, rank: usize, n: usize) -> Vec<f32> {
    let mut state = seed ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0;
            unit * [1e-3f32, 1.0, 1e4, 1e8][(state >> 8) as usize % 4]
        })
        .collect()
}

/// `acc += x`, element by element.
fn add(acc: &mut [f32], x: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v;
    }
}

/// Serial canonical grid-blocked fold of `inputs` (one per rank).
fn canonical_fold(inputs: &[Vec<f32>]) -> Vec<f32> {
    let (rows, cols) = canonical_grid(inputs.len());
    let row_sum = |row: usize| {
        let mut acc = inputs[row * cols].clone();
        for x in &inputs[row * cols + 1..(row + 1) * cols] {
            add(&mut acc, x);
        }
        acc
    };
    let mut total = row_sum(0);
    for row in 1..rows {
        add(&mut total, &row_sum(row));
    }
    total
}

/// Every rank's result of one all-reduce over a fresh world.
fn all_reduce(inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let joins: Vec<_> = CommHandle::create(inputs.len())
        .into_iter()
        .zip(inputs.to_vec())
        .map(|(h, mut buf)| {
            thread::spawn(move || {
                h.all_reduce_sum(&mut buf);
                buf
            })
        })
        .collect();
    joins.into_iter().map(|j| j.join().unwrap()).collect()
}

#[test]
fn every_rank_matches_the_serial_canonical_fold_bitwise() {
    for p in 1..=16usize {
        // n = p − 1 and n = 1 leave empty shards; 4099 spans several
        // fold chunks with a ragged tail.
        for n in [1, p - 1, 7, 64, 1000, 4099] {
            for seed in [3u64, 11, 42] {
                let inputs: Vec<Vec<f32>> = (0..p).map(|r| payload(seed, r, n)).collect();
                let expect = canonical_fold(&inputs);
                for (rank, got) in all_reduce(&inputs).iter().enumerate() {
                    let same = got
                        .iter()
                        .zip(&expect)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(
                        same && got.len() == n,
                        "p={p} n={n} seed={seed} rank={rank}"
                    );
                }
            }
        }
    }
}

#[test]
fn grid_fold_matches_two_phase_torus_composition_bitwise() {
    for p in [4usize, 6, 8, 12, 16] {
        let (rows, cols) = canonical_grid(p);
        assert!(rows > 1, "p={p} must have a 2-D canonical grid");
        for n in [1usize, 7, 64, 97] {
            let inputs: Vec<Vec<f32>> = (0..p).map(|r| payload(5, r, n)).collect();
            // Phase 1: each row reduce-scatters, ascending over its ranks;
            // member `c` of a row owns shard `c` of the row sum.
            // Phase 2: each column all-reduces its members' shards,
            // ascending over rows. Phase 3: rows all-gather the shards.
            let mut torus = vec![0.0f32; n];
            for c in 0..cols {
                let (a, b) = shard_bounds(n, cols, c);
                let row_shard = |row: usize| {
                    let mut acc = inputs[row * cols][a..b].to_vec();
                    for x in &inputs[row * cols + 1..(row + 1) * cols] {
                        add(&mut acc, &x[a..b]);
                    }
                    acc
                };
                let mut col = row_shard(0);
                for row in 1..rows {
                    add(&mut col, &row_shard(row));
                }
                torus[a..b].copy_from_slice(&col);
            }
            let fold = canonical_fold(&inputs);
            for (x, y) in torus.iter().zip(&fold) {
                assert_eq!(x.to_bits(), y.to_bits(), "p={p} ({rows}x{cols}) n={n}");
            }
        }
    }
}
