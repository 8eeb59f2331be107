//! Training benchmark: runs one named workload through the public
//! `ets_train::train` and reports end-to-end metrics (`--trace 0`) or
//! per-layer metrics (`--trace 1`), after checking the outputs.
//!
//! ```text
//! cargo run --release --offline --manifest-path trainbench/Cargo.toml -- \
//!     --workload proxy16 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Everything is timed from outside the trainer, around calls into each
//! crate's public functions; the only in-program timings read are the wall
//! spans `train_traced` records. The last line of standard output is the
//! result object `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod replay;
mod stats;
mod workload;

use ets_collective::create_collective;
use ets_data::{EpochPlan, SynthNet};
use ets_efficientnet::EfficientNet;
use ets_obs::Recorder;
use ets_tensor::ops::dispatch::{dispatch_calls, reset_dispatch_counters, GemmPrecision};
use ets_tensor::Rng;
use ets_train::{train, train_traced, Experiment, TrainReport};
use stats::{median, quantile, Metrics};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Workload, PROXY16_TOP1_FLOOR, PROXY16_WARMUP_EPOCHS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: trainbench --workload <proxy16|b0-64-solo|b0-lars-bf16> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=3600).contains(&seconds) {
        return Err(format!("--seconds {seconds}: expected 1..=3600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One `train()` call, timed from outside, with the process-global kernel
/// counters it moved.
pub struct TrainRun {
    pub wall_s: f64,
    pub report: TrainReport,
    /// GEMM dispatches `[blocked f32, naive f32, blocked bf16, naive bf16]`.
    pub dispatch: [u64; 4],
    pub scratch_reallocs: u64,
    /// Busy seconds summed over the GEMM pool's worker slots.
    pub pool_busy_s: f64,
    pub pool_workers: usize,
    pub recorders: Vec<Arc<Recorder>>,
}

impl TrainRun {
    pub fn images(&self, exp: &Experiment) -> f64 {
        (self.report.steps as usize * exp.global_batch()) as f64
    }
}

pub fn run_train(exp: &Experiment, traced: bool) -> TrainRun {
    reset_dispatch_counters();
    ets_tensor::reset_scratch_counters();
    ets_tensor::reset_worker_stats();
    let t0 = Instant::now();
    let (report, recorders) = if traced {
        train_traced(exp)
    } else {
        (train(exp), Vec::new())
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let (bf, nf) = dispatch_calls(GemmPrecision::F32);
    let (bb, nb) = dispatch_calls(GemmPrecision::Bf16);
    let workers = ets_tensor::worker_stats();
    TrainRun {
        wall_s,
        report,
        dispatch: [bf, nf, bb, nb],
        scratch_reallocs: ets_tensor::scratch_reallocs(),
        pool_busy_s: workers.iter().map(|w| w.busy_s).sum(),
        pool_workers: workers.len(),
        recorders,
    }
}

/// The correctness checks every `train()` call must pass. A failing call
/// still counts as attempted and stays in the measurement.
#[derive(Default)]
pub struct Checker {
    /// Epoch count, weight checksum and dispatch counts of the first
    /// untraced call of each length; every later call of that length must
    /// reproduce them exactly.
    references: Vec<(u64, u64, [u64; 4])>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Checks one call; `traced` calls are compared against the untraced
    /// reference (`train_traced` promises a bit-identical report).
    pub fn check(&mut self, exp: &Experiment, run: &TrainRun, traced: bool) -> bool {
        let errors = self.errors(exp, run, traced);
        self.record(&errors)
    }

    /// What is wrong with one call, without recording it.
    fn errors(&mut self, exp: &Experiment, run: &TrainRun, traced: bool) -> Vec<String> {
        let r = &run.report;
        let mut errors = Vec::new();
        let want_steps = exp.epochs * exp.steps_per_epoch() as u64;
        if r.steps != want_steps || r.history.len() as u64 != exp.epochs {
            errors.push(format!(
                "ran {} steps / {} epochs, expected {want_steps} / {}",
                r.steps,
                r.history.len(),
                exp.epochs
            ));
        }
        if let Some(e) = r.history.iter().find(|e| !e.train_loss.is_finite()) {
            errors.push(format!("epoch {} loss {}", e.epoch, e.train_loss));
        }
        match self.references.iter().find(|(e, _, _)| *e == exp.epochs) {
            None if !traced => self
                .references
                .push((exp.epochs, r.weight_checksum, run.dispatch)),
            None => errors.push("traced call before any untraced reference".into()),
            Some(&(_, checksum, dispatch)) => {
                if r.weight_checksum != checksum {
                    errors.push(format!(
                        "weight checksum {:#x} != reference {checksum:#x}",
                        r.weight_checksum
                    ));
                }
                // Tracing adds no GEMMs, so traced calls must match too.
                if run.dispatch != dispatch {
                    errors.push(format!(
                        "GEMM dispatch counts {:?} != reference {dispatch:?}",
                        run.dispatch
                    ));
                }
            }
        }
        errors
    }

    /// Records one checked unit (a `train()` call, or a measurement made
    /// outside one) with the errors found in it; true when it passed.
    pub fn record(&mut self, errors: &[String]) -> bool {
        self.attempted += 1;
        for e in errors {
            eprintln!("CHECK FAILED: {e}");
        }
        if !errors.is_empty() {
            self.failed += 1;
        }
        errors.is_empty()
    }
}

/// The workload's training set and the shuffle of its first epoch.
pub fn train_data(exp: &Experiment) -> (SynthNet, EpochPlan) {
    let set = SynthNet::new(
        exp.seed,
        exp.num_classes,
        exp.train_samples,
        exp.resolution,
        exp.data_noise,
    );
    let plan = EpochPlan::new(exp.seed, 1, exp.train_samples);
    (set, plan)
}

/// Wall seconds of the set-up calls `train()` makes before step 0: the
/// dataset pair, one model per replica, and the world collective.
fn setup_once(exp: &Experiment) -> f64 {
    let t0 = Instant::now();
    let data = SynthNet::train_eval_pair(
        exp.seed,
        exp.num_classes,
        exp.train_samples,
        exp.eval_samples,
        exp.resolution,
        exp.data_noise,
    );
    let models: Vec<EfficientNet> = (0..exp.replicas)
        .map(|_| {
            // The trainer's shared init stream (`broadcast_init` off).
            let mut rng = Rng::new(exp.seed).split(1);
            EfficientNet::new(exp.model.clone(), exp.precision, &mut rng)
        })
        .collect();
    let comms = create_collective(exp.collective_backend, exp.replicas);
    let s = t0.elapsed().as_secs_f64();
    black_box((data, models, comms));
    s
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untimed `train()` call that opens every run. On `proxy16` it trains
/// `PROXY16_WARMUP_EPOCHS` and must reach `PROXY16_TOP1_FLOOR`.
pub fn warm_up(wl: &Workload, checker: &mut Checker) -> TrainRun {
    let mut exp = wl.exp.clone();
    let proxy16 = wl.name == "proxy16";
    if proxy16 {
        exp.epochs = PROXY16_WARMUP_EPOCHS;
    }
    let run = run_train(&exp, false);
    let mut errors = checker.errors(&exp, &run, false);
    if proxy16 && run.report.peak_top1 < PROXY16_TOP1_FLOOR {
        errors.push(format!(
            "peak eval top-1 {:.4} below floor {PROXY16_TOP1_FLOOR}",
            run.report.peak_top1
        ));
    }
    checker.record(&errors);
    run
}

/// Set-up samples a run takes at the least; with fewer timed calls than
/// this, the rest are taken after the last call.
const SETUP_SAMPLES_MIN: usize = 5;

/// End-to-end metrics, tracing off. After one warm-up call, short `train()`
/// calls run back to back for the run's budget, each followed by one timed
/// set-up, and the metrics are medians over them. The traced-call check
/// runs in `--trace 1` runs, which make traced calls anyway.
fn end_to_end(wl: &Workload, budget: Duration, checker: &mut Checker) -> Metrics {
    warm_up(wl, checker);
    let exp = &wl.exp;
    // Timed calls run while the next one, taking as long as the last, would
    // still end within the budget; at least three always run.
    let t0 = Instant::now();
    let mut img_per_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut last = Duration::ZERO;
    while img_per_s.len() < 3 || t0.elapsed() + last <= budget {
        let t = Instant::now();
        let run = run_train(exp, false);
        checker.check(exp, &run, false);
        img_per_s.push(run.images(exp) / run.wall_s);
        setup_s.push(setup_once(exp));
        last = t.elapsed();
    }
    while setup_s.len() < SETUP_SAMPLES_MIN {
        setup_s.push(setup_once(exp));
    }
    eprintln!(
        "timed calls: {}, img/s min {:.4} p25 {:.4} p50 {:.4} p75 {:.4} max {:.4}; set-ups: {}",
        img_per_s.len(),
        quantile(&img_per_s, 0.0),
        quantile(&img_per_s, 0.25),
        quantile(&img_per_s, 0.5),
        quantile(&img_per_s, 0.75),
        quantile(&img_per_s, 1.0),
        setup_s.len()
    );
    let mut m = Metrics::default();
    m.push("train_img_per_s", median(&img_per_s), "img/s");
    m.push("setup_s", median(&setup_s), "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload::build(&args.workload, args.seed) else {
        eprintln!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let budget = Duration::from_secs(args.seconds);
    let mut checker = Checker::default();
    let metrics = if args.trace {
        layers::measure(&wl, budget, &mut checker)
    } else {
        end_to_end(&wl, budget, &mut checker)
    };
    let bad = metrics.non_finite();
    let finite = checker.record(
        &bad.iter()
            .map(|n| format!("metric {n} is not a finite number"))
            .collect::<Vec<_>>(),
    );
    // `train()` leaves its GEMM pool width set; shrinking it back joins the
    // pool's helper threads before the process exits.
    ets_tensor::set_gemm_workers(1);
    println!(
        "context: workload={} seed={} trace={} nproc={} simd_lane={} gemm_workers={} replicas={} per_replica_batch={} seconds={}",
        wl.name,
        args.seed,
        u8::from(args.trace),
        ets_tensor::host_parallelism(),
        ets_tensor::ops::simd::lane_path().name(),
        wl.exp.gemm_workers,
        wl.exp.replicas,
        wl.exp.per_replica_batch,
        args.seconds,
    );
    print!("{}", metrics.table());
    let correct = finite && checker.failed == 0;
    println!(
        "{}",
        metrics.result_json(correct, checker.attempted, checker.failed)
    );
    ExitCode::SUCCESS
}
