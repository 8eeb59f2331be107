//! Shape-only GEMM dispatch: naive streaming kernels vs the blocked
//! packed family, at either pack-time precision (f32 or bf16).
//!
//! Every hot-path GEMM in the workspace routes through `gemm_auto*`. The
//! dispatcher picks the kernel as a **pure function of (m, k, n)** —
//! never timing, never feature detection — so every SPMD replica running
//! the same layer shape takes the same code path and the cross-rank /
//! cross-backend bitwise fingerprint invariants keep holding. (The two
//! kernels differ bitwise from each other — different summation order —
//! which is exactly why dispatch must be deterministic: a replica that
//! flipped kernels mid-run would fork the fingerprint.)
//!
//! # Predicate
//!
//! Blocked wins when there is enough arithmetic to amortize packing:
//! roughly one extra pass over A and B each. The crossover on
//! cache-resident sizes is low, so the predicate is a conservative MAC
//! threshold plus degenerate-shape guards (a 2×2 micro-GEMM gains
//! nothing from MR×NR tiling):
//!
//! - `m * k * n >= BLOCKED_MIN_MACS` (32 Ki multiply-adds)
//! - `m >= MR`, `n >= NR`, `k >= BLOCKED_MIN_K` (= 24)
//!
//! The `k` floor is the small-k guard: at `k` this shallow the packing
//! pass is a full extra sweep over both operands for almost no reuse —
//! `b0_mb_expand_1x1_56px` (m=96, k=16, n=3136) measured blocked at
//! 0.84× naive before the guard. The 1×1-conv shapes with `k < 24`
//! (expand convs out of narrow trunks) now stream through the naive
//! kernel; 3×3 stem shapes (k=27) and everything deeper keep the packed
//! path.
//!
//! The threshold is deliberately low enough that the proxy-scale trainer
//! configs used in tests (e.g. a width-0.25 model at resolution 32)
//! exercise the blocked path; the dispatch counters below let tests
//! assert that coverage.
//!
//! # Precision policy
//!
//! [`GemmPrecision`] selection is the same kind of decision and obeys
//! the same law: [`GemmPolicy::precision`] is a pure function of shape +
//! experiment config (the `Experiment.precision` knob), never timing.
//! With mixed precision enabled, a GEMM runs bf16×bf16→f32 (§3.5's MXU
//! contract) when its MAC volume clears [`MIXED_MIN_MACS`]; tiny
//! products — squeeze-excite FCs, proxy-scale heads — stay f32, where
//! conversion overhead would dominate and the paper keeps full precision
//! anyway. Precision and kernel choice compose orthogonally: a bf16 GEMM
//! below the blocked threshold quantizes its operands into arena scratch
//! and streams through the naive kernel, so requested numerics are
//! always honored and only the *kernel* switches by shape.
//!
//! # Counters
//!
//! [`dispatch_blocked_calls`] / [`dispatch_naive_calls`] tally which
//! path ran, process-wide, with per-precision splits
//! ([`dispatch_calls`]). The trainer exports all four splits through the
//! obs registry; trainer-level tests assert `blocked > 0` so a silent
//! threshold regression cannot quietly route everything to the naive
//! kernel, and the bf16 splits let the mixed-precision proxy runs prove
//! they actually exercised the narrow kernels.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::bf16::round_f32;
use crate::scratch::scratch_f32;

use super::gemm_blocked::{self, MR, NR};
use super::matmul;

/// Minimum multiply-accumulate count before packing pays for itself.
pub const BLOCKED_MIN_MACS: usize = 1 << 15;

/// Minimum reduction depth before packing pays for itself (the small-k
/// guard): below this, packing B is an extra full pass over the operand
/// for ~one reuse. Sits between the narrow 1×1 expand convs (k = c_in ≤
/// 16 at B0's first stage) and the 3×3 stem (k = 27).
pub const BLOCKED_MIN_K: usize = 24;

/// Minimum MAC volume before mixed precision converts a GEMM's panels to
/// bf16. Same scale as [`BLOCKED_MIN_MACS`]: tiny products pay
/// conversion for no reuse and carry outsized relative rounding impact
/// (squeeze-excite gates), so they stay f32 — which is also §3.5's
/// recipe (convolutions in bf16, the small tails in f32).
pub const MIXED_MIN_MACS: usize = 1 << 15;

static BLOCKED_F32_CALLS: AtomicU64 = AtomicU64::new(0);
static NAIVE_F32_CALLS: AtomicU64 = AtomicU64::new(0);
static BLOCKED_BF16_CALLS: AtomicU64 = AtomicU64::new(0);
static NAIVE_BF16_CALLS: AtomicU64 = AtomicU64::new(0);

/// Element precision a GEMM's packed panels are stored in. Accumulation
/// is always f32; `Bf16` rounds each operand element once at pack time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GemmPrecision {
    F32,
    Bf16,
}

impl GemmPrecision {
    /// Human-readable tag ("f32" / "bf16") for benches, logs, metrics.
    pub fn name(self) -> &'static str {
        match self {
            GemmPrecision::F32 => "f32",
            GemmPrecision::Bf16 => "bf16",
        }
    }
}

/// The experiment-level precision policy: decides, per GEMM shape,
/// whether panels are packed as bf16. Constructed from the serializable
/// `Experiment.precision` knob and threaded through the model layers —
/// a **pure function of shape + config**, so SPMD replicas running the
/// same layer sequence make identical choices and cannot fork kernels
/// mid-run (the determinism suite asserts this).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct GemmPolicy {
    /// Mixed precision enabled (the §3.5 recipe)?
    pub mixed: bool,
    /// GEMM worker-count policy: `0` leaves the global pool as
    /// configured (env / previous caller), `n ≥ 1` pins it to `n`
    /// workers when [`GemmPolicy::apply_workers`] runs. Worker count
    /// never affects numerics — the macro-kernel's tile grid is a pure
    /// function of shape — so this knob is pure throughput policy,
    /// safe to vary across ranks or mid-run.
    pub workers: usize,
}

impl GemmPolicy {
    /// Everything stays f32.
    pub const F32_ONLY: GemmPolicy = GemmPolicy {
        mixed: false,
        workers: 0,
    };
    /// Large GEMMs run bf16×bf16→f32.
    pub const MIXED_BF16: GemmPolicy = GemmPolicy {
        mixed: true,
        workers: 0,
    };

    /// Same policy with the worker-count knob set.
    pub fn with_workers(self, workers: usize) -> GemmPolicy {
        GemmPolicy { workers, ..self }
    }

    /// Push the worker-count policy into the global pool
    /// ([`crate::par::set_gemm_workers`]); `workers == 0` is a no-op.
    /// The trainer calls this once at startup.
    pub fn apply_workers(&self) {
        if self.workers > 0 {
            crate::par::set_gemm_workers(self.workers);
        }
    }

    /// Precision for an `m × k × n` product: bf16 iff mixed precision is
    /// on and the MAC volume clears [`MIXED_MIN_MACS`]. Pure in (self,
    /// m, k, n) — no timing, no global state.
    #[inline]
    pub fn precision(&self, m: usize, k: usize, n: usize) -> GemmPrecision {
        if self.mixed && m.saturating_mul(k).saturating_mul(n) >= MIXED_MIN_MACS {
            GemmPrecision::Bf16
        } else {
            GemmPrecision::F32
        }
    }
}

/// Number of `gemm_auto*` calls routed to the blocked packed kernels
/// (both precisions).
pub fn dispatch_blocked_calls() -> u64 {
    BLOCKED_F32_CALLS.load(Ordering::Relaxed) + BLOCKED_BF16_CALLS.load(Ordering::Relaxed)
}

/// Number of `gemm_auto*` calls routed to the naive streaming kernels
/// (both precisions).
pub fn dispatch_naive_calls() -> u64 {
    NAIVE_F32_CALLS.load(Ordering::Relaxed) + NAIVE_BF16_CALLS.load(Ordering::Relaxed)
}

/// Per-precision dispatch split: `(blocked, naive)` call counts for one
/// precision.
pub fn dispatch_calls(precision: GemmPrecision) -> (u64, u64) {
    match precision {
        GemmPrecision::F32 => (
            BLOCKED_F32_CALLS.load(Ordering::Relaxed),
            NAIVE_F32_CALLS.load(Ordering::Relaxed),
        ),
        GemmPrecision::Bf16 => (
            BLOCKED_BF16_CALLS.load(Ordering::Relaxed),
            NAIVE_BF16_CALLS.load(Ordering::Relaxed),
        ),
    }
}

/// Reset all dispatch counters (tests; benches between phases).
pub fn reset_dispatch_counters() {
    BLOCKED_F32_CALLS.store(0, Ordering::Relaxed);
    NAIVE_F32_CALLS.store(0, Ordering::Relaxed);
    BLOCKED_BF16_CALLS.store(0, Ordering::Relaxed);
    NAIVE_BF16_CALLS.store(0, Ordering::Relaxed);
}

/// Pure shape predicate: should an `m × k × n` product take the blocked
/// packed kernel? Deterministic — depends on nothing but the arguments.
#[inline]
pub fn blocked_profitable(m: usize, k: usize, n: usize) -> bool {
    if m < MR || n < NR || k < BLOCKED_MIN_K {
        return false;
    }
    // Saturating: shapes big enough to overflow are certainly profitable.
    m.saturating_mul(k).saturating_mul(n) >= BLOCKED_MIN_MACS
}

/// Record a dispatch decision made *outside* the `gemm_auto*` wrappers —
/// the fused-conv path calls
/// [`super::gemm_blocked::gemm_prepacked_as`] directly (its B operand is
/// a virtual patch panel, not a slice) but still participates in the
/// same counters.
#[inline]
pub fn record_dispatch(precision: GemmPrecision, blocked: bool) {
    tally(precision, blocked);
}

#[inline]
fn tally(precision: GemmPrecision, blocked: bool) {
    let counter = match (precision, blocked) {
        (GemmPrecision::F32, true) => &BLOCKED_F32_CALLS,
        (GemmPrecision::F32, false) => &NAIVE_F32_CALLS,
        (GemmPrecision::Bf16, true) => &BLOCKED_BF16_CALLS,
        (GemmPrecision::Bf16, false) => &NAIVE_BF16_CALLS,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Quantizes a slice through bf16 into arena scratch (for the
/// naive-kernel side of a bf16 GEMM: requested numerics are honored even
/// when the shape doesn't justify packing). Zero steady-state allocs.
fn quantized_scratch(src: &[f32]) -> crate::scratch::ScratchVec<f32> {
    let mut q = scratch_f32(src.len());
    for (d, &s) in q.iter_mut().zip(src.iter()) {
        *d = round_f32(s);
    }
    q
}

macro_rules! auto_entry {
    (
        $(#[$doc:meta])*
        $name:ident, $name_p:ident, $blocked_f32:ident, $blocked_bf16:ident, $naive:ident
    ) => {
        $(#[$doc])*
        pub fn $name(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
            $name_p(GemmPrecision::F32, m, k, n, a, b, c);
        }

        /// Precision-aware variant: `precision` selects the pack-time
        /// element type, the shape selects the kernel. bf16 below the
        /// blocked threshold quantizes operands into scratch and runs
        /// the naive kernel, so the requested numerics always hold.
        pub fn $name_p(
            precision: GemmPrecision,
            m: usize,
            k: usize,
            n: usize,
            a: &[f32],
            b: &[f32],
            c: &mut [f32],
        ) {
            let blocked = blocked_profitable(m, k, n);
            tally(precision, blocked);
            match (precision, blocked) {
                (GemmPrecision::F32, true) => gemm_blocked::$blocked_f32(m, k, n, a, b, c),
                (GemmPrecision::F32, false) => matmul::$naive(m, k, n, a, b, c),
                (GemmPrecision::Bf16, true) => gemm_blocked::$blocked_bf16(m, k, n, a, b, c),
                (GemmPrecision::Bf16, false) => {
                    let aq = quantized_scratch(a);
                    let bq = quantized_scratch(b);
                    matmul::$naive(m, k, n, &aq, &bq, c);
                }
            }
        }
    };
}

auto_entry!(
    /// `C = A·B` with A `m×k`, B `k×n`, C `m×n`.
    gemm_auto,
    gemm_auto_p,
    gemm_blocked,
    gemm_blocked_bf16,
    gemm_slice
);

auto_entry!(
    /// `C += A·B`.
    gemm_auto_acc,
    gemm_auto_acc_p,
    gemm_blocked_acc,
    gemm_blocked_bf16_acc,
    gemm_slice_acc
);

auto_entry!(
    /// `C = Aᵀ·B` with A stored `k×m`, B `k×n`, C `m×n`.
    gemm_auto_at_b,
    gemm_auto_at_b_p,
    gemm_blocked_at_b,
    gemm_blocked_at_b_bf16,
    gemm_at_b_slice
);

auto_entry!(
    /// `C += Aᵀ·B` with A stored `k×m`.
    gemm_auto_at_b_acc,
    gemm_auto_at_b_acc_p,
    gemm_blocked_at_b_acc,
    gemm_blocked_at_b_bf16_acc,
    gemm_at_b_slice_acc
);

auto_entry!(
    /// `C = A·Bᵀ` with A `m×k`, B stored `n×k`, C `m×n`.
    gemm_auto_a_bt,
    gemm_auto_a_bt_p,
    gemm_blocked_a_bt,
    gemm_blocked_a_bt_bf16,
    gemm_a_bt_slice
);

auto_entry!(
    /// `C += A·Bᵀ` with B stored `n×k`.
    gemm_auto_a_bt_acc,
    gemm_auto_a_bt_acc_p,
    gemm_blocked_a_bt_acc,
    gemm_blocked_a_bt_bf16_acc,
    gemm_a_bt_slice_acc
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_is_pure_and_monotone_in_volume() {
        // Same shape always answers the same.
        for _ in 0..4 {
            assert!(blocked_profitable(64, 64, 64));
            assert!(!blocked_profitable(2, 2, 2));
        }
        // Degenerate dims never go blocked regardless of volume.
        assert!(!blocked_profitable(1, 1 << 20, 1 << 10));
        assert!(!blocked_profitable(1 << 10, 1 << 20, 1));
        assert!(!blocked_profitable(1 << 10, 2, 1 << 10));
    }

    #[test]
    fn calibration_shape_goes_blocked() {
        // The ISSUE calibration conv shape must take the fast path.
        assert!(blocked_profitable(256, 1152, 3136));
    }

    #[test]
    fn small_k_guard_routes_shallow_gemms_naive() {
        // b0_mb_expand_1x1_56px: m=96, k=16, n=3136 — measured 0.84×
        // naive on the packed kernel before the guard; must stream.
        assert!(!blocked_profitable(96, 16, 3136));
        // The 3×3 stem (k = 27) sits just above the floor and must keep
        // the packed path (measured 1.5× naive).
        assert!(blocked_profitable(32, 27, 3136));
        assert_eq!(BLOCKED_MIN_K, 24);
    }

    #[test]
    fn proxy_scale_shapes_go_blocked() {
        // Width-0.25 model at resolution 32: head linear and the larger
        // pointwise convs must still clear the threshold so trainer-level
        // dispatch-coverage tests are meaningful.
        // e.g. pointwise conv: m=C_out=16, k=C_in=96, n=H*W of one image
        // (a 16×16 map). The conv decides the kernel per image even when
        // it folds several images into one GEMM.
        assert!(blocked_profitable(16, 96, 16 * 16));
    }

    #[test]
    fn precision_policy_is_pure_and_config_gated() {
        let f32_only = GemmPolicy::F32_ONLY;
        let mixed = GemmPolicy::MIXED_BF16;
        // Purity: repeated evaluation agrees (nothing but the arguments).
        for _ in 0..4 {
            assert_eq!(f32_only.precision(256, 1152, 3136), GemmPrecision::F32);
            assert_eq!(mixed.precision(256, 1152, 3136), GemmPrecision::Bf16);
        }
        // Shape gate: tiny products stay f32 even under mixed (SE FCs).
        assert_eq!(mixed.precision(4, 16, 4), GemmPrecision::F32);
        // Boundary: exactly MIXED_MIN_MACS goes bf16.
        assert_eq!(mixed.precision(32, 32, 32), GemmPrecision::Bf16);
        assert_eq!(32 * 32 * 32, MIXED_MIN_MACS);
    }

    #[test]
    fn counters_tally_each_path_per_precision() {
        reset_dispatch_counters();
        let a = vec![1.0f32; 64 * 64];
        let b = vec![1.0f32; 64 * 64];
        let mut c = vec![0.0f32; 64 * 64];
        gemm_auto(64, 64, 64, &a, &b, &mut c);
        gemm_auto_p(GemmPrecision::Bf16, 64, 64, 64, &a, &b, &mut c);
        let small_a = [1.0f32; 4];
        let small_b = [1.0f32; 4];
        let mut small_c = [0.0f32; 4];
        gemm_auto(2, 2, 2, &small_a, &small_b, &mut small_c);
        gemm_auto_p(
            GemmPrecision::Bf16,
            2,
            2,
            2,
            &small_a,
            &small_b,
            &mut small_c,
        );
        let (bf32, nf32) = dispatch_calls(GemmPrecision::F32);
        let (bb16, nb16) = dispatch_calls(GemmPrecision::Bf16);
        assert!(bf32 >= 1 && nf32 >= 1);
        assert!(bb16 >= 1 && nb16 >= 1);
        assert_eq!(dispatch_blocked_calls(), bf32 + bb16);
        assert_eq!(dispatch_naive_calls(), nf32 + nb16);
        assert_eq!(c[0], 64.0);
        assert_eq!(small_c[0], 2.0);
    }

    #[test]
    fn bf16_naive_path_matches_quantized_naive_bitwise() {
        // Below the blocked threshold, a bf16 GEMM must equal
        // quantize-both-operands-then-naive exactly.
        let (m, k, n) = (5, 9, 7);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32).cos()).collect();
        assert!(!blocked_profitable(m, k, n));
        let mut got = vec![0.0f32; m * n];
        gemm_auto_p(GemmPrecision::Bf16, m, k, n, &a, &b, &mut got);
        let aq: Vec<f32> = a.iter().map(|&v| round_f32(v)).collect();
        let bq: Vec<f32> = b.iter().map(|&v| round_f32(v)).collect();
        let mut want = vec![0.0f32; m * n];
        matmul::gemm_slice(m, k, n, &aq, &bq, &mut want);
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn auto_matches_reference_on_both_sides_of_threshold() {
        // One shape per side of the dispatch boundary, all six entry
        // points, vs an f64 reference.
        let shapes = [(3, 5, 9), (48, 40, 64)];
        for &(m, k, n) in &shapes {
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 7 % 13) as f32) - 6.0).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 5 % 11) as f32) - 5.0).collect();
            let mut reference = vec![0.0f64; m * n];
            for i in 0..m {
                for p in 0..k {
                    let av = a[i * k + p] as f64;
                    for j in 0..n {
                        reference[i * n + j] += av * b[p * n + j] as f64;
                    }
                }
            }
            // A·B
            let mut c = vec![0.0f32; m * n];
            gemm_auto(m, k, n, &a, &b, &mut c);
            for (x, r) in c.iter().zip(reference.iter()) {
                assert!((*x as f64 - r).abs() < 1e-2, "gemm_auto mismatch");
            }
            // Aᵀ·B: store A as k×m.
            let mut at = vec![0.0f32; m * k];
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                }
            }
            let mut c2 = vec![0.0f32; m * n];
            gemm_auto_at_b(m, k, n, &at, &b, &mut c2);
            for (x, r) in c2.iter().zip(reference.iter()) {
                assert!((*x as f64 - r).abs() < 1e-2, "gemm_auto_at_b mismatch");
            }
            // A·Bᵀ: store B as n×k.
            let mut bt = vec![0.0f32; k * n];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let mut c3 = vec![0.0f32; m * n];
            gemm_auto_a_bt(m, k, n, &a, &bt, &mut c3);
            for (x, r) in c3.iter().zip(reference.iter()) {
                assert!((*x as f64 - r).abs() < 1e-2, "gemm_auto_a_bt mismatch");
            }
            // Accumulating variants add exactly one more product.
            let mut c4 = c.clone();
            gemm_auto_acc(m, k, n, &a, &b, &mut c4);
            for (x, r) in c4.iter().zip(reference.iter()) {
                assert!((*x as f64 - 2.0 * r).abs() < 2e-2, "gemm_auto_acc mismatch");
            }
            let mut c5 = c2.clone();
            gemm_auto_at_b_acc(m, k, n, &at, &b, &mut c5);
            for (x, r) in c5.iter().zip(reference.iter()) {
                assert!(
                    (*x as f64 - 2.0 * r).abs() < 2e-2,
                    "gemm_auto_at_b_acc mismatch"
                );
            }
            let mut c6 = c3.clone();
            gemm_auto_a_bt_acc(m, k, n, &a, &bt, &mut c6);
            for (x, r) in c6.iter().zip(reference.iter()) {
                assert!(
                    (*x as f64 - 2.0 * r).abs() < 2e-2,
                    "gemm_auto_a_bt_acc mismatch"
                );
            }
        }
    }

    #[test]
    fn bf16_auto_matches_f32_auto_within_rounding() {
        // The bf16 instantiations agree with f32 to operand-rounding
        // accuracy on both sides of the kernel threshold.
        for &(m, k, n) in &[(5, 9, 7), (48, 40, 64)] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 3 % 17) as f32) / 17.0 - 0.5)
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 5 % 19) as f32) / 19.0 - 0.5)
                .collect();
            let mut c32 = vec![0.0f32; m * n];
            gemm_auto(m, k, n, &a, &b, &mut c32);
            let mut c16 = vec![0.0f32; m * n];
            gemm_auto_p(GemmPrecision::Bf16, m, k, n, &a, &b, &mut c16);
            let max_err = c32
                .iter()
                .zip(&c16)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(
                max_err < 0.1 * k as f32 / 16.0 + 1e-3,
                "({m},{k},{n}): {max_err}"
            );
        }
    }
}
