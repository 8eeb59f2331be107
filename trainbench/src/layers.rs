//! Per-layer metrics (`--trace 1`), one group per crate:
//!
//! - ets-train: the wall spans of `train_traced`, next to untraced calls;
//! - ets-efficientnet and ets-nn: see `replay.rs`;
//! - ets-tensor: the process-global kernel counters, per training step;
//! - ets-collective, ets-optim, ets-data: their public calls timed at the
//!   workload's real sizes from at most `replicas` benchmark threads.

use crate::stats::{mean, median, quantile, Metrics};
use crate::workload::Workload;
use crate::{run_train, Checker, TrainRun};
use ets_collective::{
    bn_partition, create_collective, Collective, CollectiveStats, GroupSpec, RetryPolicy,
};
use ets_data::{load_batch, AugmentConfig};
use ets_efficientnet::EfficientNet;
use ets_nn::{cross_entropy, zero_grads, Layer, Mode};
use ets_obs::{phase, EventKind, Lane, Recorder};
use ets_optim::{Adam, Lamb, Lars, Optimizer, RmsProp, Sgd, Sm3};
use ets_tensor::Rng;
use ets_train::{Experiment, GradBucket, GroupStatSync, OptimizerChoice, RecoveryCounters};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Phase spans the trainer records per step, in step order.
const PHASES: [&str; 5] = [
    phase::DATA,
    phase::FORWARD,
    phase::BACKWARD,
    phase::ALL_REDUCE,
    phase::OPTIMIZER,
];

/// A step's phase spans must cover at least this share of the wall time
/// from its start to the next step's start (steps followed by an eval pass
/// excepted); the rest is bookkeeping between the phases.
const STEP_COVERAGE_MIN: f64 = 0.90;

pub fn measure(wl: &Workload, budget: Duration, checker: &mut Checker) -> Metrics {
    let exp = &wl.exp;
    let mut m = Metrics::default();
    let warm = crate::warm_up(wl, checker);
    let bucket_elems = warm.report.all_reduce_buckets.bucket_elems.clone();

    // Untraced and traced calls alternate, so host noise hits both alike.
    let t0 = Instant::now();
    let mut plain = Vec::new();
    let mut traced_wall = Vec::new();
    let mut steps = Vec::new();
    let mut evals = Vec::new();
    while plain.is_empty() || t0.elapsed() < budget.mul_f64(0.45) {
        let run = run_train(exp, false);
        checker.check(exp, &run, false);
        plain.push(run);
        let run = run_train(exp, true);
        checker.check(exp, &run, true);
        traced_wall.push(run.wall_s);
        let (s, e) = step_spans(&run.recorders[0]);
        steps.extend(s);
        evals.extend(e);
    }
    traced_metrics(&mut m, &plain, &traced_wall, &steps, &evals, checker);

    let trace_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}-replay.json", wl.name, exp.seed));
    crate::replay::measure(&mut m, exp, budget.mul_f64(0.3), &trace_path, checker);
    tensor_metrics(&mut m, &plain);
    exchange_metrics(&mut m, exp, &bucket_elems, budget.mul_f64(0.1));
    m.push(
        "optim.step_ms",
        optimizer_step_s(exp, budget.mul_f64(0.05)) * 1e3,
        "ms",
    );
    m.push("data.batch_ms", batch_load_s(exp) * 1e3, "ms");
    m
}

/// One step's wall spans on rank 0.
struct StepSpans {
    start_s: f64,
    phases: [f64; 5],
    buckets: f64,
    /// Seconds from this step's start to the next step's, when no eval pass
    /// ran in between.
    interval: Option<f64>,
}

impl StepSpans {
    fn total(&self) -> f64 {
        self.phases.iter().sum()
    }
}

/// Rank 0's steps and eval-pass durations from a traced call.
fn step_spans(rec: &Recorder) -> (Vec<StepSpans>, Vec<f64>) {
    let mut by_step: BTreeMap<u64, StepSpans> = BTreeMap::new();
    let mut evals = Vec::new();
    for ev in rec.events_snapshot() {
        if ev.kind != EventKind::Span {
            continue;
        }
        let step = by_step.entry(ev.step).or_insert(StepSpans {
            start_s: f64::INFINITY,
            phases: [0.0; 5],
            buckets: 0.0,
            interval: None,
        });
        match ev.lane {
            Lane::WallPhase => {
                if let Some(i) = PHASES.iter().position(|&p| p == ev.name) {
                    step.phases[i] += ev.dur_s;
                    step.start_s = step.start_s.min(ev.ts_s);
                }
            }
            Lane::WallBucket => step.buckets += ev.dur_s,
            Lane::WallEval => evals.push((ev.ts_s, ev.dur_s)),
            _ => {}
        }
    }
    let mut steps: Vec<StepSpans> = by_step
        .into_values()
        .filter(|s| s.start_s.is_finite())
        .collect();
    for i in 1..steps.len() {
        let (a, b) = (steps[i - 1].start_s, steps[i].start_s);
        if !evals.iter().any(|&(t, _)| a <= t && t < b) {
            steps[i - 1].interval = Some(b - a);
        }
    }
    (steps, evals.into_iter().map(|(_, d)| d).collect())
}

fn traced_metrics(
    m: &mut Metrics,
    plain: &[TrainRun],
    traced_wall: &[f64],
    steps: &[StepSpans],
    evals: &[f64],
    checker: &mut Checker,
) {
    let totals: Vec<f64> = steps.iter().map(StepSpans::total).collect();
    m.push("train.step_ms.p50", median(&totals) * 1e3, "ms");
    m.push("train.step_ms.p90", quantile(&totals, 0.9) * 1e3, "ms");
    for (i, name) in PHASES.iter().enumerate() {
        let per_step: Vec<f64> = steps.iter().map(|s| s.phases[i]).collect();
        m.push(format!("train.{name}_ms"), mean(&per_step) * 1e3, "ms");
    }
    let buckets: Vec<f64> = steps.iter().map(|s| s.buckets).collect();
    m.push("train.all_reduce_bucket_ms", mean(&buckets) * 1e3, "ms");
    m.push("train.eval_ms", mean(evals) * 1e3, "ms");
    let plain_wall: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let overhead = median(traced_wall) / median(&plain_wall) - 1.0;
    m.push("train.trace_overhead_pct", overhead * 100.0, "%");

    let coverage: Vec<f64> = steps
        .iter()
        .filter_map(|s| s.interval.map(|iv| s.total() / iv))
        .collect();
    let worst = coverage.iter().copied().fold(f64::INFINITY, f64::min);
    m.push("train.step_span_coverage_min", worst, "ratio");
    let mut errors = Vec::new();
    if coverage.is_empty() || worst < STEP_COVERAGE_MIN {
        errors.push(format!(
            "phase spans cover {worst:.3} of a step (minimum {STEP_COVERAGE_MIN}) over {} steps",
            coverage.len()
        ));
    }
    checker.record(&errors);
    eprintln!(
        "traced steps: {} ({} with a step-to-step interval), eval passes: {}, call pairs: {}",
        steps.len(),
        coverage.len(),
        evals.len(),
        plain.len()
    );
}

/// Kernel counters per training step of the untraced calls (eval passes
/// included in the call's count).
fn tensor_metrics(m: &mut Metrics, plain: &[TrainRun]) {
    let per_step = |f: &dyn Fn(&TrainRun) -> f64| {
        median(
            &plain
                .iter()
                .map(|r| f(r) / r.report.steps as f64)
                .collect::<Vec<_>>(),
        )
    };
    for (i, name) in ["blocked_f32", "naive_f32", "blocked_bf16", "naive_bf16"]
        .iter()
        .enumerate()
    {
        m.push(
            format!("tensor.gemm_{name}"),
            per_step(&|r| r.dispatch[i] as f64),
            "calls/step",
        );
    }
    m.push(
        "tensor.scratch_reallocs",
        per_step(&|r| r.scratch_reallocs as f64),
        "count/step",
    );
    let busy: Vec<f64> = plain
        .iter()
        .map(|r| r.pool_busy_s / (r.pool_workers as f64 * r.wall_s))
        .collect();
    m.push("tensor.pool_busy_share", median(&busy), "ratio");
}

/// Bytes and calls rank 0 hands to collectives in one training step (a
/// forward and backward through the model, with distributed BN if
/// configured, then the bucketed gradient exchange, each rank on its own
/// thread), and the mean BN-stat payload: a BN layer's (sum, sum of
/// squares) pair, fused as `GroupStatSync` sends it.
fn step_traffic(exp: &Experiment) -> (CollectiveStats, usize) {
    let (train_set, plan) = crate::train_data(exp);
    // The trainer's collectives: the world's, and each rank's BN group's.
    let world = exp.replicas;
    let mut bn_comms: Vec<Option<Box<dyn Collective>>> = (0..world).map(|_| None).collect();
    if bn_synced(exp) {
        for members in bn_partition(exp.bn_group, world) {
            let comms = create_collective(exp.collective_backend, members.len());
            for (c, &r) in comms.into_iter().zip(&members) {
                bn_comms[r] = Some(c);
            }
        }
    }
    let world_comms = create_collective(exp.collective_backend, world);
    let per_rank: Vec<(CollectiveStats, usize)> = std::thread::scope(|s| {
        let joins: Vec<_> = world_comms
            .into_iter()
            .zip(bn_comms)
            .enumerate()
            .map(|(r, (world, bn))| {
                let (train_set, plan) = (&train_set, &plan);
                s.spawn(move || {
                    let mut rng = Rng::new(exp.seed).split(1);
                    let mut model = EfficientNet::new(exp.model.clone(), exp.precision, &mut rng);
                    let (mut bn_elems, mut bn_layers) = (0, 0);
                    model.visit_bns(&mut |bn| {
                        bn_elems += 2 * bn.running_mean.len();
                        bn_layers += 1;
                    });
                    let sync = bn.map(|c| Arc::new(GroupStatSync::new(c)));
                    if let Some(sync) = &sync {
                        model.set_bn_sync(sync.clone());
                    }
                    let mut bucket = match exp.grad_bucket_elems {
                        Some(n) => GradBucket::with_bucket_elems(&mut model, n),
                        None => GradBucket::new(&mut model),
                    };
                    let idx = plan.batch_at(0, r, exp.replicas, exp.per_replica_batch);
                    let mut data_rng = Rng::new(exp.seed).split(1000 + r as u64);
                    let (x, labels) =
                        load_batch(train_set, &idx, AugmentConfig::train(), &mut data_rng);
                    zero_grads(&mut model);
                    let mut layer_rng = Rng::new(exp.seed).split(2000 + r as u64);
                    let logits = model.forward(&x, Mode::Train, &mut layer_rng);
                    let out = cross_entropy(&logits, &labels, exp.label_smoothing);
                    model.backward(&out.dlogits);
                    bucket
                        .all_reduce_with_retry(
                            &mut model,
                            world.as_ref(),
                            out.loss,
                            &RetryPolicy::default(),
                            &mut RecoveryCounters::default(),
                        )
                        .expect("fault-free gradient exchange");
                    let bn_stats = sync.map(|s| s.stats()).unwrap_or_default();
                    (world.stats().merged(bn_stats), bn_elems / bn_layers)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("replica thread"))
            .collect()
    });
    per_rank[0]
}

/// Whether the workload's BN layers all-reduce their batch statistics.
fn bn_synced(exp: &Experiment) -> bool {
    exp.replicas > 1 && !matches!(exp.bn_group, GroupSpec::Local)
}

/// Median seconds of one gradient exchange round (every bucket in turn) and
/// of one all-reduce of `bn_len` elements (0 when `None`), timed on rank 0 of
/// the workload's world.
fn time_all_reduce(
    exp: &Experiment,
    bucket_elems: &[usize],
    bn_len: Option<usize>,
    budget: Duration,
) -> (f64, f64) {
    const BN_BATCHES: usize = 20;
    const BN_CALLS: usize = 32;
    let rounds = AtomicUsize::new(0);
    let per_rank: Vec<(f64, f64)> = std::thread::scope(|s| {
        let joins: Vec<_> = create_collective(exp.collective_backend, exp.replicas)
            .into_iter()
            .map(|comm| {
                let rounds = &rounds;
                s.spawn(move || {
                    let mut flat = vec![0.0f32; bucket_elems.iter().sum()];
                    let round = |flat: &mut [f32]| {
                        let t = Instant::now();
                        let mut off = 0;
                        for &n in bucket_elems {
                            comm.all_reduce_sum(&mut flat[off..off + n]);
                            off += n;
                        }
                        t.elapsed().as_secs_f64()
                    };
                    // Rank 0 sizes the run from a first round; the barrier
                    // publishes the count to every rank.
                    let first = round(&mut flat);
                    if comm.rank() == 0 {
                        let n = (budget.as_secs_f64() / 2.0 / first) as usize;
                        rounds.store(n.clamp(5, 500), Ordering::SeqCst);
                    }
                    comm.barrier();
                    let grad: Vec<f64> = (0..rounds.load(Ordering::SeqCst))
                        .map(|_| round(&mut flat))
                        .collect();
                    let Some(bn_len) = bn_len else {
                        return (median(&grad), 0.0);
                    };
                    let mut stat = vec![0.0f32; bn_len];
                    let bn: Vec<f64> = (0..BN_BATCHES)
                        .map(|_| {
                            let t = Instant::now();
                            for _ in 0..BN_CALLS {
                                comm.all_reduce_sum(&mut stat);
                            }
                            t.elapsed().as_secs_f64() / BN_CALLS as f64
                        })
                        .collect();
                    (median(&grad), median(&bn))
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("collective thread"))
            .collect()
    });
    per_rank[0]
}

fn exchange_metrics(m: &mut Metrics, exp: &Experiment, bucket_elems: &[usize], budget: Duration) {
    let (traffic, bn_len) = step_traffic(exp);
    // A workload without BN sync sends no BN-stat all-reduce: 0 us.
    let bn_len = bn_synced(exp).then_some(bn_len);
    let (grad_s, bn_s) = time_all_reduce(exp, bucket_elems, bn_len, budget);
    let grad_bytes = 4.0 * bucket_elems.iter().sum::<usize>() as f64;
    m.push("collective.grad_all_reduce_ms", grad_s * 1e3, "ms");
    m.push("collective.grad_gbps", grad_bytes / grad_s / 1e9, "GB/s");
    m.push("collective.bn_all_reduce_us", bn_s * 1e6, "us");
    let t = traffic;
    let calls = t.all_reduce_calls + t.all_gather_calls + t.broadcast_calls + t.barrier_calls;
    m.push(
        "collective.bytes_per_step",
        t.payload_bytes as f64,
        "B/step",
    );
    m.push("collective.calls_per_step", calls as f64, "calls/step");
}

/// The trainer's optimizer for `choice` (same constructors and constants).
fn build_optimizer(choice: OptimizerChoice) -> Box<dyn Optimizer> {
    match choice {
        OptimizerChoice::Sgd {
            momentum,
            weight_decay,
        } => Box::new(Sgd::new(momentum, weight_decay)),
        OptimizerChoice::RmsProp => Box::new(RmsProp::efficientnet_default()),
        OptimizerChoice::Lars { trust_coeff } => Box::new(Lars::new(0.9, 1e-5, trust_coeff)),
        OptimizerChoice::Sm3 { momentum } => Box::new(Sm3::new(momentum, 1e-5)),
        OptimizerChoice::Lamb => Box::new(Lamb::paper_default(1e-5)),
        OptimizerChoice::Adam => Box::new(Adam::default_config(1e-5)),
    }
}

/// Median seconds of one `Optimizer::step` over a model of the workload's
/// config with small random gradients, after one step that creates the
/// optimizer state.
fn optimizer_step_s(exp: &Experiment, budget: Duration) -> f64 {
    let mut rng = Rng::new(exp.seed).split(1);
    let mut model = EfficientNet::new(exp.model.clone(), exp.precision, &mut rng);
    model.visit_params(&mut |p| rng.fill_normal(p.grad.data_mut(), 0.0, 1e-3));
    let mut opt = build_optimizer(exp.optimizer);
    let lr = exp.peak_lr();
    opt.step(&mut model, lr);
    let t0 = Instant::now();
    let mut xs = Vec::new();
    while xs.len() < 5 || t0.elapsed() < budget {
        let t = Instant::now();
        opt.step(&mut model, lr);
        xs.push(t.elapsed().as_secs_f64());
    }
    median(&xs)
}

/// Median seconds of `load_batch` for one replica batch, over the first
/// epoch's batches of rank 0.
fn batch_load_s(exp: &Experiment) -> f64 {
    let (train_set, plan) = crate::train_data(exp);
    let mut rng = Rng::new(exp.seed).split(1000);
    let gb = exp.global_batch();
    let xs: Vec<f64> = (0..exp.steps_per_epoch().max(20))
        .map(|i| {
            let idx = plan.batch_at(
                (i % exp.steps_per_epoch()) * gb,
                0,
                exp.replicas,
                exp.per_replica_batch,
            );
            let t = Instant::now();
            std::hint::black_box(load_batch(
                &train_set,
                &idx,
                AugmentConfig::train(),
                &mut rng,
            ));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&xs)
}
