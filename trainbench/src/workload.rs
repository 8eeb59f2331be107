//! The three fixed training configurations the benchmark runs.
//!
//! Each workload stresses a different layer of the trainer (see the `why`
//! lines in `BENCHMARK.json`). The seed only changes the data, the
//! weight initialization and the shuffle, never the shapes, so kernel
//! dispatch is the same on every seed.

use ets_collective::GroupSpec;
use ets_efficientnet::{ModelConfig, Variant};
use ets_nn::Precision;
use ets_train::{DecayChoice, Experiment, OptimizerChoice, PROXY_LARS_LR, PROXY_LARS_TRUST};

pub const NAMES: [&str; 3] = ["proxy16", "b0-64-solo", "b0-lars-bf16"];

/// Epochs of `proxy16`'s untimed warm-up call, which must learn the task;
/// its timed calls stay at one epoch so a run holds many of them.
pub const PROXY16_WARMUP_EPOCHS: u64 = 4;

/// Lowest peak eval top-1 the `proxy16` warm-up call may reach. Over seeds
/// 1–110 the peak after 4 epochs ranged 0.242–0.813 (8 classes, so chance
/// is 0.125); the floor sits below that range and well above chance.
pub const PROXY16_TOP1_FLOOR: f64 = 0.2;

pub struct Workload {
    pub name: &'static str,
    /// The config of one timed `train()` call.
    pub exp: Experiment,
}

/// Builds workload `name` for `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let mut exp = Experiment::proxy_default();
    exp.seed = seed;
    // Everything runs on at most two compute threads: two replicas with
    // one GEMM worker each, or one replica with two.
    exp.overlap_all_reduce = false;
    let name = match name {
        // The config the quality experiments run: tiny B0 at 16 px. A timed
        // call is one epoch with its eval pass (32 steps).
        "proxy16" => {
            exp.replicas = 2;
            exp.per_replica_batch = 8;
            exp.gemm_workers = 1;
            exp.epochs = 1;
            exp.eval_every = 1;
            "proxy16"
        }
        // Width-1.0 B0 at 64 px on one replica: compute-bound, uses the
        // GEMM worker pool, no collective. A call is 2 steps.
        "b0-64-solo" => {
            exp.replicas = 1;
            exp.per_replica_batch = 8;
            exp.gemm_workers = 2;
            exp.resolution = 64;
            exp.num_classes = 8;
            exp.model = ModelConfig {
                resolution: 64,
                num_classes: 8,
                ..ModelConfig::variant(Variant::B0)
            };
            exp.epochs = 1;
            exp.train_samples = 16;
            exp.eval_samples = 8;
            "b0-64-solo"
        }
        // The paper recipe where per-core batch is small and the exchange
        // is large: full 1000-class B0, LARS + polynomial decay, bf16
        // convolutions, distributed BN over both replicas.
        "b0-lars-bf16" => {
            exp.replicas = 2;
            exp.per_replica_batch = 1;
            exp.gemm_workers = 1;
            exp.resolution = 32;
            exp.num_classes = 1000;
            exp.model = ModelConfig {
                resolution: 32,
                ..ModelConfig::variant(Variant::B0)
            };
            exp.precision = Precision::MixedBf16;
            exp.optimizer = OptimizerChoice::Lars {
                trust_coeff: PROXY_LARS_TRUST,
            };
            exp.lr_per_256 = PROXY_LARS_LR;
            exp.decay = DecayChoice::Polynomial { power: 2.0 };
            exp.bn_group = GroupSpec::Contiguous(2);
            exp.epochs = 1;
            exp.train_samples = 32;
            exp.eval_samples = 16;
            "b0-lars-bf16"
        }
        _ => return None,
    };
    exp.validate();
    Some(Workload { name, exp })
}
