//! Bit-for-bit table for the pointwise (1×1 / stride 1 / pad 0) conv path.
//!
//! `conv2d_forward_p` and `conv2d_backward_p` fold the images of a
//! pointwise conv into grouped GEMMs, read the image slices in place of an
//! im2col copy, and turn naive GEMMs with fewer than `NR` columns around
//! (`Cᵀ = BᵀAᵀ`). None of that may change a bit. The reference here is
//! the per-image im2col path built from public functions only: `im2col`,
//! then `gemm_auto_p` for `y`, `gemm_auto_at_b_p` + `col2im` for `dx`,
//! and `gemm_auto_a_bt_acc_p` into one zeroed slot per image folded by a
//! stride-doubling pairwise tree for `dw`.
//!
//! The table crosses batch sizes {1, 2, 3, 8, 9} (plus 129 images of 1×2,
//! whose last group is a single image with fewer than `NR` columns) with
//! `H·W` ∈ {1, 2, 4, 16, 64, 256, 1024} and three channel pairs that put
//! the forward reduction depth (`C_in`) and the input-gradient depth
//! (`C_out`) below 24, between 24 and `KC`, and above `KC`; the weight
//! gradient's depth is `H·W`, which the pixel list spreads the same way.
//! Every case runs in f32 and bf16. The reference is computed once on the
//! scalar lane with one GEMM worker; the pointwise path must reproduce it
//! on every available lane with 1 and 2 workers.

use ets_tensor::ops::conv::{
    col2im, conv2d_backward_p, conv2d_forward_p, im2col, pointwise_group, Conv2dGeom,
};
use ets_tensor::ops::dispatch::{
    blocked_profitable, gemm_auto_a_bt_acc_p, gemm_auto_at_b_p, gemm_auto_p, GemmPrecision,
};
use ets_tensor::ops::gemm_blocked::{KC, NR};
use ets_tensor::ops::simd::{ForcedLaneGuard, LanePath};
use ets_tensor::{set_gemm_workers, Rng, Tensor};

const BATCHES: [usize; 5] = [1, 2, 3, 8, 9];
const PIXELS: [(usize, usize); 7] = [(1, 1), (1, 2), (2, 2), (4, 4), (8, 8), (16, 16), (32, 32)];
/// `(C_in, C_out)`.
const CHANNELS: [(usize, usize); 3] = [(8, 136), (40, 32), (136, 8)];

fn rand_tensor(seed: u64, shape: [usize; 4]) -> Tensor {
    let mut t = Tensor::zeros(shape);
    Rng::new(seed).fill_uniform(t.data_mut(), -1.0, 1.0);
    t
}

struct Grads {
    y: Vec<f32>,
    dx: Vec<f32>,
    dw: Vec<f32>,
}

/// The per-image im2col path, from public functions only.
fn reference(x: &Tensor, w: &Tensor, dy: &Tensor, prec: GemmPrecision) -> Grads {
    let g = Conv2dGeom::infer(x.shape(), w.shape(), 1, 0);
    let (k, p, wlen) = (g.k(), g.p(), w.numel());
    let (img, out) = (g.c_in * g.h * g.w, g.c_out * p);
    let mut y = vec![0.0; g.n * out];
    let mut dx = vec![0.0; x.numel()];
    let mut partials = vec![0.0; g.n * wlen];
    let mut patches = vec![0.0; k * p];
    let mut dpatches = vec![0.0; k * p];
    for i in 0..g.n {
        let dyi = &dy.data()[i * out..(i + 1) * out];
        im2col(&g, &x.data()[i * img..(i + 1) * img], &mut patches);
        gemm_auto_p(
            prec,
            g.c_out,
            k,
            p,
            w.data(),
            &patches,
            &mut y[i * out..(i + 1) * out],
        );
        gemm_auto_at_b_p(prec, k, g.c_out, p, w.data(), dyi, &mut dpatches);
        col2im(&g, &dpatches, &mut dx[i * img..(i + 1) * img]);
        let slot = &mut partials[i * wlen..(i + 1) * wlen];
        gemm_auto_a_bt_acc_p(prec, g.c_out, p, k, dyi, &patches, slot);
    }
    let mut stride = 1;
    while stride < g.n {
        for i in (0..g.n).step_by(2 * stride) {
            if i + stride < g.n {
                for j in 0..wlen {
                    partials[i * wlen + j] += partials[(i + stride) * wlen + j];
                }
            }
        }
        stride *= 2;
    }
    partials.truncate(wlen);
    Grads {
        y,
        dx,
        dw: partials,
    }
}

fn assert_bits(got: &[f32], want: &[f32], what: &str, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{what} length, {ctx}");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!(
            "{what}[{i}] = {:e} ({:#010x}), per-image im2col path gives {:e} ({:#010x}); {ctx}",
            got[i],
            got[i].to_bits(),
            want[i],
            want[i].to_bits()
        );
    }
}

#[test]
fn pointwise_path_matches_per_image_im2col_bitwise() {
    let lanes: Vec<LanePath> = LanePath::ALL
        .into_iter()
        .filter(|l| l.available())
        .collect();
    let mut cases: Vec<(usize, usize, usize)> = BATCHES
        .iter()
        .flat_map(|&n| PIXELS.iter().map(move |&(h, w)| (n, h, w)))
        .collect();
    cases.push((129, 1, 2));

    // Which branches the table reaches, so a shape edit cannot quietly
    // drop one: [naive, blocked] for y, dx and dw, and the grouped,
    // in-place and turned-around forms.
    let mut fwd = [false; 2];
    let mut bwd_x = [false; 2];
    let mut bwd_w = [false; 2];
    let (mut grouped, mut single, mut turned) = (false, false, false);
    let (mut k_low, mut k_mid, mut k_high) = (false, false, false);

    let mut seed = 0u64;
    for &(ci, co) in &CHANNELS {
        for &(n, h, w) in &cases {
            let hw = h * w;
            let grp = pointwise_group(n, hw);
            let naive_fwd = !blocked_profitable(co, ci, hw);
            fwd[usize::from(!naive_fwd)] = true;
            bwd_x[usize::from(blocked_profitable(ci, co, hw))] = true;
            bwd_w[usize::from(blocked_profitable(co, hw, ci))] = true;
            grouped |= grp > 1;
            single |= grp == 1;
            let last_group = n - (n - 1) / grp * grp;
            turned |= naive_fwd && last_group * hw < NR;
            for k in [ci, co, hw] {
                k_low |= k < 24;
                k_mid |= (24..=KC).contains(&k);
                k_high |= k > KC;
            }
            for prec in [GemmPrecision::F32, GemmPrecision::Bf16] {
                seed += 3;
                let x = rand_tensor(seed, [n, ci, h, w]);
                let wt = rand_tensor(seed + 1, [co, ci, 1, 1]);
                let dy = rand_tensor(seed + 2, [n, co, h, w]);
                let want = {
                    let _lane = ForcedLaneGuard::new(LanePath::Scalar);
                    set_gemm_workers(1);
                    reference(&x, &wt, &dy, prec)
                };
                for workers in [1, 2] {
                    set_gemm_workers(workers);
                    for &lane in &lanes {
                        let _lane = ForcedLaneGuard::new(lane);
                        let ctx = format!(
                            "N={n} H×W={h}×{w} C_in={ci} C_out={co} {} workers={workers} lane={}",
                            prec.name(),
                            lane.name()
                        );
                        let y = conv2d_forward_p(&x, &wt, 1, 0, prec);
                        let (dx, dw) = conv2d_backward_p(&x, &wt, &dy, 1, 0, prec);
                        assert_bits(y.data(), &want.y, "y", &ctx);
                        assert_bits(dx.data(), &want.dx, "dx", &ctx);
                        assert_bits(dw.data(), &want.dw, "dw", &ctx);
                    }
                }
            }
        }
    }
    set_gemm_workers(1);

    assert_eq!(fwd, [true; 2], "forward must reach both kernels");
    assert_eq!(bwd_x, [true; 2], "input gradient must reach both kernels");
    assert_eq!(bwd_w, [true; 2], "weight gradient must reach both kernels");
    assert!(grouped && single, "need both grouped and one-image GEMMs");
    assert!(turned, "need a naive group with fewer than NR columns");
    assert!(
        k_low && k_mid && k_high,
        "reduction depths must straddle 24 and KC"
    );
}

#[test]
fn group_size_is_a_pure_function_of_shape() {
    // One GEMM spans about NC = 256 columns, never more images than the
    // batch holds, and never zero images.
    assert_eq!(pointwise_group(8, 1), 8);
    assert_eq!(pointwise_group(300, 1), 256);
    assert_eq!(pointwise_group(8, 16), 8);
    assert_eq!(pointwise_group(8, 64), 4);
    assert_eq!(pointwise_group(8, 100), 3);
    assert_eq!(pointwise_group(8, 256), 1);
    assert_eq!(pointwise_group(8, 4096), 1);
    assert_eq!(pointwise_group(1, 1), 1);
    assert_eq!(pointwise_group(0, 16), 1);
}
