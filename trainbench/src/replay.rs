//! Whole-model timing and the op-class replay for ets-nn.
//!
//! The replay walks the workload's `ModelConfig` the way
//! `EfficientNet::new` does and builds every public layer at the exact
//! shape the model runs it, then times each `forward` and `backward` of one
//! replica batch on this thread. Dropout, drop-path and residual adds are
//! not replayed, so `nn.replay_coverage` (replayed time over whole-model
//! time) says how much of the model the op classes account for. Batch norm
//! replays with local statistics: the cross-replica part of distributed BN
//! is timed as `collective.bn_all_reduce_us`.

use crate::stats::{median, Metrics};
use crate::Checker;
use ets_data::{load_batch, AugmentConfig};
use ets_efficientnet::{model_stats, EfficientNet};
use ets_nn::{
    cross_entropy, zero_grads, BatchNorm2d, Conv2d, DepthwiseConv2d, GlobalAvgPool, Layer, Linear,
    Mode, SqueezeExcite, Swish,
};
use ets_obs::JsonWriter;
use ets_tensor::{same_pad, Rng, Tensor};
use ets_train::Experiment;
use std::time::{Duration, Instant};

/// Op classes: metric name, and whether a GFLOP/s figure is reported.
const CLASSES: [(&str, bool); 8] = [
    ("stem", true),
    ("conv1x1", true),
    ("depthwise", true),
    ("bn", false),
    ("swish", false),
    ("se", true),
    ("pool", false),
    ("fc", true),
];
const STEM: usize = 0;
const CONV1X1: usize = 1;
const DEPTHWISE: usize = 2;
const BN: usize = 3;
const SWISH: usize = 4;
const SE: usize = 5;
const POOL: usize = 6;
const FC: usize = 7;

struct Op {
    class: usize,
    label: String,
    /// MBConv block index; `None` for the stem and head.
    block: Option<usize>,
    layer: Box<dyn Layer>,
    /// Forward MACs per output element (convolutions) ...
    macs_per_out: u64,
    /// ... plus per image (SE and FC, which act on pooled features).
    macs_per_image: u64,
}

/// The model's layers in forward order.
struct Ops(Vec<Op>);

impl Ops {
    fn push(
        &mut self,
        class: usize,
        label: String,
        block: Option<usize>,
        layer: impl Layer + 'static,
        macs: (u64, u64),
    ) {
        self.0.push(Op {
            class,
            label,
            block,
            layer: Box::new(layer),
            macs_per_out: macs.0,
            macs_per_image: macs.1,
        });
    }

    /// A convolution of `macs_per_out` MACs per output element with its BN
    /// over `c` channels and, when `act`, its swish.
    #[allow(clippy::too_many_arguments)]
    fn conv(
        &mut self,
        class: usize,
        label: String,
        block: Option<usize>,
        layer: impl Layer + 'static,
        macs_per_out: u64,
        c: usize,
        act: bool,
    ) {
        self.push(class, label.clone(), block, layer, (macs_per_out, 0));
        self.push(
            BN,
            format!("{label}_bn"),
            block,
            BatchNorm2d::new("bn", c),
            (0, 0),
        );
        if act {
            self.push(SWISH, format!("{label}_act"), block, Swish::new(), (0, 0));
        }
    }
}

/// Builds the layers the way `EfficientNet::new` does.
fn build_ops(exp: &Experiment, rng: &mut Rng) -> Vec<Op> {
    let cfg = &exp.model;
    let p = exp.precision;
    let conv1x1 = |cin, cout, rng: &mut Rng| Conv2d::new("1x1", cin, cout, 1, 1, 0, p, rng);
    let mut ops = Ops(Vec::new());
    let stem_f = cfg.stem_filters();
    let stem = Conv2d::new("stem", 3, stem_f, 3, 2, same_pad(3), p, rng);
    ops.conv(STEM, "stem.conv".into(), None, stem, 27, stem_f, true);
    let mut block = 0;
    for (stage, args) in cfg.blocks.iter().enumerate() {
        let in_f = cfg.round_filters(args.in_filters);
        let out_f = cfg.round_filters(args.out_filters);
        for rep in 0..cfg.round_repeats(args.repeats) {
            let (bin, stride) = if rep == 0 {
                (in_f, args.stride)
            } else {
                (out_f, 1)
            };
            let (b, l) = (Some(block), format!("blocks.{stage}.{rep}"));
            let expanded = bin * args.expand_ratio;
            if args.expand_ratio != 1 {
                let expand = conv1x1(bin, expanded, rng);
                ops.conv(
                    CONV1X1,
                    format!("{l}.expand"),
                    b,
                    expand,
                    bin as u64,
                    expanded,
                    true,
                );
            }
            let k = args.kernel;
            let dw = DepthwiseConv2d::new("dw", expanded, k, stride, same_pad(k), p, rng);
            ops.conv(
                DEPTHWISE,
                format!("{l}.dw"),
                b,
                dw,
                (k * k) as u64,
                expanded,
                true,
            );
            let se_dim = ((bin as f32 * args.se_ratio) as usize).max(1);
            let se = SqueezeExcite::new("se", expanded, se_dim, p.policy(), rng);
            ops.push(
                SE,
                format!("{l}.se"),
                b,
                se,
                (0, 2 * (expanded * se_dim) as u64),
            );
            let project = conv1x1(expanded, out_f, rng);
            ops.conv(
                CONV1X1,
                format!("{l}.project"),
                b,
                project,
                expanded as u64,
                out_f,
                false,
            );
            block += 1;
        }
    }
    let last_f = cfg.round_filters(cfg.blocks.last().expect("model has blocks").out_filters);
    let head_f = cfg.head_filters();
    let head = conv1x1(last_f, head_f, rng);
    ops.conv(
        CONV1X1,
        "head.conv".into(),
        None,
        head,
        last_f as u64,
        head_f,
        true,
    );
    ops.push(POOL, "head.pool".into(), None, GlobalAvgPool::new(), (0, 0));
    let fc = Linear::with_precision("fc", head_f, cfg.num_classes, true, p.policy(), rng);
    ops.push(
        FC,
        "head.fc".into(),
        None,
        fc,
        (0, (head_f * cfg.num_classes) as u64),
    );
    ops.0
}

/// A replay span: `parent` is the enclosing block span, else the step span.
struct Span {
    name: String,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// Records the replay's span tree: step → block → op.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: String, parent: Option<usize>) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            start_s: t,
            end_s: t,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, i: usize) {
        self.spans[i].end_s = self.now();
    }

    /// Chrome trace-event JSON; each event's `args` names its parent span.
    fn chrome_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("traceEvents").begin_array();
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_object()
                .field_str("name", &s.name)
                .field_str("ph", "X")
                .field_f64("ts", s.start_s * 1e6)
                .field_f64("dur", (s.end_s - s.start_s) * 1e6)
                .field_u64("pid", 0)
                .field_u64("tid", 0)
                .key("args")
                .begin_object()
                .field_u64("id", i as u64);
            if let Some(p) = s.parent {
                w.field_u64("parent", p as u64);
            }
            w.end_object().end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

/// Seconds per class of one replayed step, forward and backward.
#[derive(Default)]
struct StepTimes {
    fwd: [f64; 8],
    bwd: [f64; 8],
}

/// Runs every op forward, then backward in reverse, as one step span.
fn replay_step(
    ops: &mut [Op],
    x: &Tensor,
    labels: &[usize],
    smoothing: f32,
    rng: &mut Rng,
    spans: &mut Spans,
) -> StepTimes {
    let mut times = StepTimes::default();
    let step = spans.open("step".into(), None);
    let order: Vec<usize> = (0..ops.len()).collect();
    let mut cur = x.clone();
    walk(ops, &order, "forward", step, spans, &mut times.fwd, |op| {
        cur = op.layer.forward(&cur, Mode::Train, rng);
    });
    let mut g = cross_entropy(&cur, labels, smoothing).dlogits;
    let rev: Vec<usize> = order.into_iter().rev().collect();
    walk(ops, &rev, "backward", step, spans, &mut times.bwd, |op| {
        g = op.layer.backward(&g);
    });
    spans.close(step);
    times
}

/// Times `call` on each op in `order`, opening a block span around each
/// run of ops that share an MBConv block.
fn walk(
    ops: &mut [Op],
    order: &[usize],
    dir: &str,
    step: usize,
    spans: &mut Spans,
    per_class: &mut [f64; 8],
    mut call: impl FnMut(&mut Op),
) {
    let mut open_block: Option<(usize, usize)> = None;
    for &i in order {
        let op = &mut ops[i];
        if open_block.map(|(b, _)| b) != op.block {
            if let Some((_, s)) = open_block.take() {
                spans.close(s);
            }
            if let Some(b) = op.block {
                open_block = Some((b, spans.open(format!("block{b}.{dir}"), Some(step))));
            }
        }
        let parent = open_block.map_or(step, |(_, s)| s);
        let s = spans.open(format!("{}.{dir}", op.label), Some(parent));
        call(op);
        spans.close(s);
        let sp = &spans.spans[s];
        per_class[op.class] += sp.end_s - sp.start_s;
    }
    if let Some((_, s)) = open_block {
        spans.close(s);
    }
}

/// One replica batch as the trainer loads it at step 0.
fn first_batch(exp: &Experiment) -> (Tensor, Vec<usize>) {
    let (train_set, plan) = crate::train_data(exp);
    let idx = plan.batch_at(0, 0, exp.replicas, exp.per_replica_batch);
    let mut rng = Rng::new(exp.seed).split(1000);
    load_batch(&train_set, &idx, AugmentConfig::train(), &mut rng)
}

/// Repeats `f` once untimed, then at least `min` times and until `budget`
/// has passed.
fn repeat<T>(budget: Duration, min: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    f();
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed() < budget {
        out.push(f());
    }
    out
}

/// `model.*` and `nn.*` metrics; writes the replay spans to `trace_path`.
/// The replay must account for exactly the MACs `model_stats` counts.
pub fn measure(
    m: &mut Metrics,
    exp: &Experiment,
    budget: Duration,
    trace_path: &std::path::Path,
    checker: &mut Checker,
) {
    let (x, labels) = first_batch(exp);
    let n = x.shape().dims()[0] as f64;
    let mut rng = Rng::new(exp.seed).split(1);
    let mut layer_rng = Rng::new(exp.seed).split(2000);

    let mut model = EfficientNet::new(exp.model.clone(), exp.precision, &mut rng);
    let mut ops = build_ops(exp, &mut rng);
    let mut spans = Spans {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    // Whole-model and replayed steps alternate, so host noise hits both
    // alike and their ratio (the coverage) stays meaningful.
    let reps = repeat(budget, 3, || {
        zero_grads(&mut model);
        let t0 = Instant::now();
        let logits = model.forward(&x, Mode::Train, &mut layer_rng);
        let t1 = Instant::now();
        model.backward(&cross_entropy(&logits, &labels, exp.label_smoothing).dlogits);
        let t2 = Instant::now();
        model.forward(&x, Mode::Eval, &mut layer_rng);
        let t3 = Instant::now();
        for op in ops.iter_mut() {
            zero_grads(op.layer.as_mut());
        }
        let step = replay_step(
            &mut ops,
            &x,
            &labels,
            exp.label_smoothing,
            &mut layer_rng,
            &mut spans,
        );
        ([t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_secs_f64()), step)
    });
    let col = |j: usize| median(&reps.iter().map(|r| r.0[j]).collect::<Vec<_>>());
    let (fwd, bwd, eval) = (col(0), col(1), col(2));
    m.push("model.fwd_ms", fwd * 1e3, "ms");
    m.push("model.bwd_ms", bwd * 1e3, "ms");
    m.push("model.eval_fwd_ms", eval * 1e3, "ms");
    let train_flops = model_stats(&exp.model).flops_train() * n;
    m.push("model.gflops", train_flops / (fwd + bwd) / 1e9, "GFLOP/s");

    // MACs per image from the output shapes each op produces.
    let mut macs = [0u64; 8];
    let mut cur = x.clone();
    for op in ops.iter_mut() {
        cur = op.layer.forward(&cur, Mode::Eval, &mut layer_rng);
        let per_image = cur.numel() as u64 / n as u64;
        macs[op.class] += op.macs_per_out * per_image + op.macs_per_image;
    }
    let model_macs = model_stats(&exp.model).macs;
    let replay_macs: u64 = macs.iter().sum();
    checker.record(&if replay_macs == model_macs {
        vec![]
    } else {
        vec![format!(
            "replay runs {replay_macs} MACs per image, the model {model_macs}"
        )]
    });
    for (c, &(name, gflops)) in CLASSES.iter().enumerate() {
        let f = median(&reps.iter().map(|(_, s)| s.fwd[c]).collect::<Vec<_>>());
        let b = median(&reps.iter().map(|(_, s)| s.bwd[c]).collect::<Vec<_>>());
        m.push(format!("nn.{name}.fwd_ms"), f * 1e3, "ms");
        m.push(format!("nn.{name}.bwd_ms"), b * 1e3, "ms");
        if gflops {
            // Backward costs twice the forward MACs (input and weight grads).
            m.push(
                format!("nn.{name}.gflops"),
                6.0 * macs[c] as f64 * n / (f + b) / 1e9,
                "GFLOP/s",
            );
        }
    }
    let coverage: Vec<f64> = reps
        .iter()
        .map(|(t, s)| (s.fwd.iter().sum::<f64>() + s.bwd.iter().sum::<f64>()) / (t[0] + t[1]))
        .collect();
    m.push("nn.replay_coverage", median(&coverage), "ratio");
    if let Err(e) = std::fs::create_dir_all(trace_path.parent().expect("trace path has a parent"))
        .and_then(|_| std::fs::write(trace_path, spans.chrome_json()))
    {
        eprintln!("could not write {}: {e}", trace_path.display());
    }
}
