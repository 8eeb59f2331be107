//! End-to-end pins of the gradient all-reduce through the full trainer.
//!
//! The proxy experiment's final weight checksum and the bits of every
//! epoch's train loss are pinned at worlds 2 and 3 (flat folds) and 4, 6
//! and 8 (the 2×2, 2×3 and 2×4 canonical grids). The literals are the
//! trajectories of the earlier per-label transports — tree, ring,
//! torus2d and auto all produced them — so they pin that the one
//! shared-memory transport folds in exactly the same order. Training
//! dynamics are chaotic: any other reduction order would leave these
//! bits within an epoch. Matching a literal on every run also pins
//! run-to-run reproducibility.

use ets_train::{train, Experiment};

fn base() -> Experiment {
    let mut e = Experiment::proxy_default();
    e.replicas = 4;
    e.per_replica_batch = 4;
    e.epochs = 3;
    e.train_samples = 128;
    e.eval_samples = 32;
    e
}

/// `(world, weight checksum, per-epoch train-loss bits)`.
const PINS: [(usize, u64, [u32; 3]); 5] = [
    (
        2,
        0x5f92_1d81_94d4_3363,
        [0x4007_e168, 0x400a_812c, 0x4010_b1f3],
    ),
    (
        3,
        0x0ef9_2a1f_ab89_1dd7,
        [0x400a_ae87, 0x4007_b7a3, 0x400d_3b28],
    ),
    (
        4,
        0xb60d_6415_a5d8_98fe,
        [0x4008_197c, 0x4008_e9e4, 0x400e_204b],
    ),
    (
        6,
        0x2c61_d8c5_df89_8b02,
        [0x4008_c84c, 0x400a_4e89, 0x400d_f41d],
    ),
    (
        8,
        0x3f50_985d_ecd9_653e,
        [0x4009_8ced, 0x4009_3f1b, 0x400d_37cd],
    ),
];

#[test]
fn trajectories_match_the_pinned_bits() {
    for (world, checksum, losses) in PINS {
        let mut e = base();
        e.replicas = world;
        let r = train(&e);
        let got: Vec<u32> = r.history.iter().map(|h| h.train_loss.to_bits()).collect();
        assert_eq!(got, losses, "world {world}: train-loss bits");
        assert_eq!(r.weight_checksum, checksum, "world {world}: weights");
        // The per-bucket profile covers the whole flat gradient + loss.
        let prof = &r.all_reduce_buckets;
        assert!(prof.num_buckets() > 0 && prof.rounds > 0, "world {world}");
        assert!(prof.bucket_elems.iter().sum::<usize>() > 0);
        assert!(prof.total_seconds().is_finite() && prof.total_seconds() >= 0.0);
    }
}
