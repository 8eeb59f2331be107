//! The semantic correctness test for §3.4: batch normalization with
//! cross-replica statistic sync over N shards must produce *the same
//! numbers* as ordinary batch norm over the concatenated batch — in the
//! forward pass, the backward pass, and the parameter gradients.

use ets_collective::{create_collective, Backend, CommHandle};
use ets_nn::{BatchNorm2d, Layer, Mode};
use ets_tensor::{Rng, Tensor};
use ets_train::GroupStatSync;
use std::sync::Arc;
use std::thread;

const C: usize = 3;
const PER_SHARD: usize = 4;
const HW: usize = 5;

fn full_batch(seed: u64, shards: usize) -> Tensor {
    let mut t = Tensor::zeros([shards * PER_SHARD, C, HW, HW]);
    Rng::new(seed).fill_normal(t.data_mut(), 1.5, 2.0);
    t
}

fn shard(full: &Tensor, r: usize) -> Tensor {
    let img = C * HW * HW;
    let start = r * PER_SHARD * img;
    Tensor::from_vec(
        [PER_SHARD, C, HW, HW],
        full.data()[start..start + PER_SHARD * img].to_vec(),
    )
}

#[test]
fn grouped_bn_equals_full_batch_bn() {
    // Both labels run the one shared-memory transport; each must satisfy
    // the semantic equivalence within the test's tolerances.
    for backend in [Backend::Tree, Backend::Ring] {
        for shards in [2usize, 4] {
            let x = full_batch(7, shards);
            let g = {
                let mut t = Tensor::zeros(x.shape().dims());
                Rng::new(8).fill_normal(t.data_mut(), 0.0, 1.0);
                t
            };

            // Reference: one BN over the whole batch.
            let mut reference = BatchNorm2d::new("ref", C);
            let mut rng = Rng::new(0);
            let y_ref = reference.forward(&x, Mode::Train, &mut rng);
            let dx_ref = reference.backward(&g);

            // Distributed: each shard on its own thread with a group sync.
            let comms = create_collective(backend, shards);
            let results: Vec<(Tensor, Tensor, Vec<f32>, Vec<f32>)> = comms
                .into_iter()
                .enumerate()
                .map(|(r, c)| {
                    let xs = shard(&x, r);
                    let gs = shard(&g, r);
                    thread::spawn(move || {
                        let mut bn =
                            BatchNorm2d::with_sync("d", C, Arc::new(GroupStatSync::new(c)));
                        let mut rng = Rng::new(0);
                        let y = bn.forward(&xs, Mode::Train, &mut rng);
                        let dx = bn.backward(&gs);
                        // Parameter grads are per-shard contributions; sum them
                        // outside (the gradient all-reduce's job).
                        let mut dgamma = vec![0.0f32; C];
                        let mut dbeta = vec![0.0f32; C];
                        bn.visit_params(&mut |p| {
                            if p.name.ends_with("gamma") {
                                dgamma.copy_from_slice(p.grad.data());
                            } else {
                                dbeta.copy_from_slice(p.grad.data());
                            }
                        });
                        (y, dx, dgamma, dbeta)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect();

            // Forward & input-gradient equality, shard by shard.
            let img = C * HW * HW;
            for (r, (y, dx, _, _)) in results.iter().enumerate() {
                let start = r * PER_SHARD * img;
                for i in 0..PER_SHARD * img {
                    let want_y = y_ref.data()[start + i];
                    let got_y = y.data()[i];
                    assert!(
                        (want_y - got_y).abs() < 1e-4,
                        "shards={shards} r={r}: forward mismatch {want_y} vs {got_y}"
                    );
                    let want_dx = dx_ref.data()[start + i];
                    let got_dx = dx.data()[i];
                    assert!(
                        (want_dx - got_dx).abs() < 1e-4,
                        "shards={shards} r={r}: dx mismatch {want_dx} vs {got_dx}"
                    );
                }
            }

            // Summed parameter gradients equal the reference's.
            let mut dgamma_sum = [0.0f32; C];
            let mut dbeta_sum = [0.0f32; C];
            for (_, _, dg, db) in &results {
                for ch in 0..C {
                    dgamma_sum[ch] += dg[ch];
                    dbeta_sum[ch] += db[ch];
                }
            }
            let mut ref_dgamma = [0.0f32; C];
            let mut ref_dbeta = [0.0f32; C];
            reference.visit_params(&mut |p| {
                if p.name.ends_with("gamma") {
                    ref_dgamma.copy_from_slice(p.grad.data());
                } else {
                    ref_dbeta.copy_from_slice(p.grad.data());
                }
            });
            for ch in 0..C {
                assert!(
                    (dgamma_sum[ch] - ref_dgamma[ch]).abs() < 1e-3,
                    "dgamma[{ch}]: {} vs {}",
                    dgamma_sum[ch],
                    ref_dgamma[ch]
                );
                assert!(
                    (dbeta_sum[ch] - ref_dbeta[ch]).abs() < 1e-3,
                    "dbeta[{ch}]: {} vs {}",
                    dbeta_sum[ch],
                    ref_dbeta[ch]
                );
            }
        }
    }
}

#[test]
fn grouped_bn_running_stats_match_full_batch() {
    let shards = 2;
    let x = full_batch(11, shards);
    let mut reference = BatchNorm2d::new("ref", C);
    reference.set_momentum(0.5);
    let mut rng = Rng::new(0);
    let _ = reference.forward(&x, Mode::Train, &mut rng);

    let handles = CommHandle::create(shards);
    let stats: Vec<(Vec<f32>, Vec<f32>)> = handles
        .into_iter()
        .enumerate()
        .map(|(r, h)| {
            let xs = shard(&x, r);
            thread::spawn(move || {
                let mut bn =
                    BatchNorm2d::with_sync("d", C, Arc::new(GroupStatSync::from_handle(h)));
                bn.set_momentum(0.5);
                let mut rng = Rng::new(0);
                let _ = bn.forward(&xs, Mode::Train, &mut rng);
                (bn.running_mean.clone(), bn.running_var.clone())
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|j| j.join().unwrap())
        .collect();

    for (means, vars) in &stats {
        for ch in 0..C {
            assert!(
                (means[ch] - reference.running_mean[ch]).abs() < 1e-4,
                "running mean ch{ch}"
            );
            assert!(
                (vars[ch] - reference.running_var[ch]).abs() < 1e-3,
                "running var ch{ch}"
            );
        }
    }
}
