//! Concurrency stress tests of the collectives: many rounds, subgroup
//! interleaving, and randomized BN-group tilings.
//!
//! The offline proptest stub swallows `proptest!` bodies, so imports and
//! helpers used only inside them look unused to clippy under the stub;
//! with the real proptest they are all exercised.
#![allow(unused_imports, dead_code)]

use ets_collective::{Collective, CommHandle, GroupSpec, SliceShape};
use proptest::prelude::*;
use std::thread;

#[test]
fn thousand_rounds_no_cross_talk() {
    let p = 4;
    let handles = CommHandle::create(p);
    let results: Vec<Vec<f32>> = handles
        .into_iter()
        .map(|h| {
            thread::spawn(move || {
                let mut out = Vec::new();
                for round in 0..1000u32 {
                    let mut buf = vec![(h.rank() as u32 * 7 + round) as f32];
                    h.all_reduce_sum(&mut buf);
                    out.push(buf[0]);
                }
                out
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|j| j.join().unwrap())
        .collect();
    for r in &results {
        for (round, &v) in r.iter().enumerate() {
            let expected: f32 = (0..4).map(|rank| (rank * 7 + round) as f32).sum();
            assert_eq!(v, expected, "round {round}");
        }
    }
}

#[test]
fn disjoint_subgroups_run_concurrently() {
    // Two groups of two, plus a world of four, all interleaving — the same
    // shape as BN groups + gradient all-reduce inside one training step.
    let world = CommHandle::create(4);
    let g0 = CommHandle::create(2);
    let g1 = CommHandle::create(2);
    let mut groups: Vec<Option<CommHandle>> = g0
        .into_iter()
        .map(Some)
        .chain(g1.into_iter().map(Some))
        .collect();
    let joins: Vec<_> = world
        .into_iter()
        .enumerate()
        .map(|(r, w)| {
            let g = groups[r].take().unwrap();
            thread::spawn(move || {
                let mut results = Vec::new();
                for step in 0..50 {
                    // BN-group reduce first (like a forward pass)…
                    let mut bn = vec![(r + step) as f32];
                    g.all_reduce_sum(&mut bn);
                    // …then the world gradient reduce.
                    let mut grad = vec![bn[0]];
                    w.all_reduce_sum(&mut grad);
                    results.push((bn[0], grad[0]));
                }
                results
            })
        })
        .collect();
    let outs: Vec<Vec<(f32, f32)>> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    for step in 0..50 {
        // group 0 = ranks {0,1}, group 1 = ranks {2,3}.
        let bn0 = step as f32 + (1 + step) as f32;
        let bn1 = (2 + step) as f32 + (3 + step) as f32;
        let world_sum = 2.0 * bn0 + 2.0 * bn1;
        assert_eq!(outs[0][step].0, bn0);
        assert_eq!(outs[3][step].0, bn1);
        for (r, out) in outs.iter().enumerate() {
            assert_eq!(out[step].1, world_sum, "rank {r} step {step}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tiled_groups_always_partition(
        rows_pow in 0u32..3,
        cols_pow in 0u32..3,
        cores_pow in 2u32..7,
    ) {
        let cores = 2usize.pow(cores_pow);
        let slice = SliceShape::for_cores(cores);
        let tr = 2usize.pow(rows_pow);
        let tc = 2usize.pow(cols_pow);
        prop_assume!(slice.rows % tr == 0 && slice.cols % tc == 0);
        let spec = GroupSpec::Tiled2d { rows: tr, cols: tc };
        spec.validate(slice);
        let mut seen = vec![0usize; cores];
        for g in 0..spec.num_groups(slice) {
            for m in spec.members(g, slice) {
                seen[m] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }
}
