//! Cache-blocked, autovectorizer-friendly `f32` matrix kernels.
//!
//! Every kernel here preserves the **accumulation-order contract** the rest
//! of the crate depends on: each output element is the sum of its products
//! taken in ascending inner-dimension order, one add per product, starting
//! from whatever the caller pre-filled (zero or a bias). Blocking changes
//! *which* elements are in flight, never the per-element order, so the
//! blocked kernels are bit-identical to the scalar triple loop they replace
//! (the old kernel's `a == 0.0` skip is dropped; skipping only ever avoided
//! adding `±0.0`, which cannot change a finite sum).
//!
//! Layout: the classic GEBP shape. For each `KC × NR` panel of B, the
//! panel is packed into a contiguous stack buffer once and then reused by
//! every `MR`-row block of A; the micro-kernel holds an `MR × NR`
//! accumulator tile in registers across the whole k-block, so each output
//! element costs one load and one store per k-block instead of one per
//! k-step. The inner loop is a fixed-width `acc[r][c] += s * bv[c]` sweep —
//! exactly the shape LLVM's autovectorizer turns into full-width packed
//! multiply/add code (no FMA contraction: Rust keeps IEEE semantics, which
//! is what makes the bit-identity contract hold).
//!
//! **Unsafe audit (none needed).** The hot loops use fixed-size array tiles
//! and slice iteration the bounds-check eliminator sees through; no
//! `get_unchecked`, raw pointers, or intrinsics — the crate-level
//! `forbid(unsafe_code)` makes that a compile-time guarantee rather than a
//! review convention.

/// Rows of A processed per micro-kernel invocation (register blocking).
const MR: usize = 4;
/// k-dimension tile: B panel rows packed per block.
const KC: usize = 128;
/// j-dimension tile: columns per packed panel (`KC × NR × 4` B = 16 KiB,
/// half of a typical L1D).
const NR: usize = 32;

/// `out[m,n] += a[m,k] · b[k,n]`, all row-major.
///
/// The caller pre-initializes `out` (zeros for a plain product, a broadcast
/// bias for a fused affine layer); the kernel only accumulates.
///
/// # Panics
///
/// Panics (via slice indexing) if any buffer is shorter than its
/// `m·k / k·n / m·n` extent.
pub(crate) fn gemm_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n, "out extent");
    debug_assert!(a.len() >= m * k, "a extent");
    debug_assert!(b.len() >= k * n, "b extent");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if n < NR {
        // Narrower than one panel: the packed path would only zero-fill a
        // panel it never uses.
        axpy_columns(out, a, b, m, k, n, 0);
        return;
    }
    gebp(out, a, m, k, n, |panel, ps, j| {
        for (dst, p) in panel.chunks_exact_mut(NR).zip(ps) {
            dst.copy_from_slice(&b[p * n + j..p * n + j + NR]);
        }
    });
    let j = n - n % NR;
    if j < n {
        // Column remainder (n % NR): plain axpy sweep straight from B.
        axpy_columns(out, a, b, m, k, n, j);
    }
}

/// The packed GEBP sweep of `out[m,n] += a[m,k] · B[k,n]` over the columns
/// that fill whole `NR`-wide panels (`0..n - n % NR`); the caller covers
/// the rest. `pack(panel, ps, j)` writes `B[ps, j..j+NR]` into `panel`
/// row-major, `NR` values per row, which lets the same micro-kernel read B
/// either as stored or transposed.
fn gebp(
    out: &mut [f32],
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    pack: impl Fn(&mut [f32], std::ops::Range<usize>, usize),
) {
    // Packed B panel for one (KC, NR) tile: 16 KiB on the stack.
    let mut panel = [0.0f32; KC * NR];
    for kb in (0..k).step_by(KC) {
        let ke = (kb + KC).min(k);
        let kl = ke - kb;
        let mut j = 0;
        while j + NR <= n {
            // Pack B[kb..ke, j..j+NR] contiguously so the micro-kernel
            // streams it linearly from L1 for every row block.
            pack(&mut panel[..kl * NR], kb..ke, j);
            let mut i = 0;
            while i + MR <= m {
                // MR × NR accumulator tile, held in registers across the
                // whole k-block. Loading from `out` and storing back per
                // block performs exactly the same per-element addition
                // sequence as the scalar loop — ascending p, one rounding
                // per product — so blocking never changes a single bit.
                let mut acc = [[0.0f32; NR]; MR];
                for (r, accr) in acc.iter_mut().enumerate() {
                    accr.copy_from_slice(&out[(i + r) * n + j..(i + r) * n + j + NR]);
                }
                for pp in 0..kl {
                    let bv: &[f32; NR] = panel[pp * NR..(pp + 1) * NR]
                        .try_into()
                        .expect("panel stride");
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let s = a[(i + r) * k + kb + pp];
                        for (d, &bvc) in accr.iter_mut().zip(bv) {
                            *d += s * bvc;
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(accr);
                }
                i += MR;
            }
            // Remainder rows against the packed panel: single-row register
            // tile, same accumulation order.
            while i < m {
                let mut acc = [0.0f32; NR];
                acc.copy_from_slice(&out[i * n + j..i * n + j + NR]);
                for pp in 0..kl {
                    let s = a[i * k + kb + pp];
                    let bv = &panel[pp * NR..(pp + 1) * NR];
                    for (d, &bvc) in acc.iter_mut().zip(bv) {
                        *d += s * bvc;
                    }
                }
                out[i * n + j..i * n + j + NR].copy_from_slice(&acc);
                i += 1;
            }
            j += NR;
        }
    }
}

/// The unpacked GEMM sweep over output columns `j..n`:
/// `out[i, j..] += a[i,p] · b[p, j..]` straight from B, ascending `p` per
/// output element. Re-slicing the output row per `p` gives the inner loop
/// two slices of the same length; the equivalent row-iterator form
/// measured about 20% slower on a 4-column output (2-CPU x86-64 Xeon,
/// `target-cpu=native`).
fn axpy_columns(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize, j: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for (p, &s) in arow.iter().enumerate() {
            let brow = &b[p * n + j..(p + 1) * n];
            let dst = &mut out[i * n + j..(i + 1) * n];
            for (d, &bv) in dst.iter_mut().zip(brow) {
                *d += s * bv;
            }
        }
    }
}

/// `out[m,n] += a[m,k] · bᵀ` for `b [n,k]` — the input gradient
/// `dx = dy·Wᵀ` read straight from the weight layout, with no transposed
/// copy of W.
///
/// Each output element is summed in ascending inner index from the
/// pre-filled value, one add per product and no zero skipping: the same
/// sequence as materializing `bᵀ` and calling [`gemm_acc`]. Whole
/// `NR`-wide column panels run the packed micro-kernel, packing `bᵀ` panel
/// by panel from `b`'s rows; the remaining columns dot each row of `a`
/// against the rows of `b`.
pub(crate) fn gemm_nt_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n, "out extent");
    debug_assert!(a.len() >= m * k, "a extent");
    debug_assert!(b.len() >= n * k, "b extent");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Whole `NR`-wide column panels run the packed micro-kernel; the
    // remaining columns are dot products.
    let mut j = 0;
    if n >= NR {
        gebp(out, a, m, k, n, |panel, ps, j| {
            // Element (p, c) of the [k, n] operand bᵀ is b[c·k + p].
            for (c, brow) in b[j * k..(j + NR) * k].chunks_exact(k).enumerate() {
                for (pp, &v) in brow[ps.clone()].iter().enumerate() {
                    panel[pp * NR + c] = v;
                }
            }
        });
        j = n - n % NR;
    }
    for (orow, arow) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        for (o, brow) in orow[j..].iter_mut().zip(b[j * k..].chunks_exact(k)) {
            *o = dot_acc(*o, arow, brow);
        }
    }
}

/// `init + Σ x[p]·y[p]`, ascending `p`, one add per product.
fn dot_acc(init: f32, x: &[f32], y: &[f32]) -> f32 {
    x.iter().zip(y).fold(init, |acc, (&s, &w)| acc + s * w)
}

/// `out[k,n] += aᵀ · g` for `a [m,k]`, `g [m,n]` without materializing
/// the transpose — the input gradient `dcol = Wᵀ·dy` of a convolution.
///
/// Per output element the sum runs over ascending `i` from the pre-filled
/// value, one add per product and no zero skipping: the same sequence as
/// transposing `a` and calling [`gemm_acc`].
pub(crate) fn gemm_tn_acc(out: &mut [f32], a: &[f32], g: &[f32], m: usize, k: usize, n: usize) {
    tn_acc(out, a, g, m, k, n, false);
}

/// [`gemm_tn_acc`] skipping the rows of `a`'s zero entries — the weight
/// gradient `dW = xᵀ·dy`. Activation inputs are often sparse after ReLU,
/// and skipping a whole axpy row is the one place the sparsity test pays.
pub(crate) fn gemm_tn_acc_sparse(
    out: &mut [f32],
    a: &[f32],
    g: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    tn_acc(out, a, g, m, k, n, true);
}

fn tn_acc(out: &mut [f32], a: &[f32], g: &[f32], m: usize, k: usize, n: usize, skip_zero: bool) {
    debug_assert_eq!(out.len(), k * n, "out extent");
    debug_assert!(a.len() >= m * k, "a extent");
    debug_assert!(g.len() >= m * n, "g extent");
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let grow = &g[i * n..(i + 1) * n];
        for (p, &s) in arow.iter().enumerate() {
            if skip_zero && s == 0.0 {
                continue;
            }
            let dst = &mut out[p * n..(p + 1) * n];
            for (d, &gv) in dst.iter_mut().zip(grow) {
                *d += s * gv;
            }
        }
    }
}

/// Reference kernel: the scalar triple loop the blocked kernels replaced,
/// one add per product in ascending inner index. Kept only as a test
/// oracle.
#[cfg(test)]
pub(crate) fn gemm_naive(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            let s = a[i * k + p];
            let brow = &b[p * n..(p + 1) * n];
            let dst = &mut out[i * n..(i + 1) * n];
            for (d, &bv) in dst.iter_mut().zip(brow) {
                *d += s * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed);
                ((h % 2000) as f32) / 100.0 - 10.0
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                t[j * rows + i] = a[i * cols + j];
            }
        }
        t
    }

    /// Checks every kernel on one `(m, k, n)` shape against the naive
    /// oracle, bit for bit: `gemm_acc` directly, `gemm_nt_acc` and
    /// `gemm_tn_acc` against an explicit transpose.
    fn assert_kernels_bit_identical(m: usize, k: usize, n: usize, seed: u64) {
        let a = pseudo(m * k, seed);
        let b = pseudo(k * n, seed.wrapping_add(1));
        let mut want = vec![0.0f32; m * n];
        gemm_naive(&mut want, &a, &b, m, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_acc(&mut got, &a, &b, m, k, n);
        assert_eq!(bits(&got), bits(&want), "gemm_acc ({m},{k},{n})");
        // a · (bᵀ)ᵀ with bᵀ stored row-major as [n, k].
        let bt = transpose(&b, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_nt_acc(&mut got, &a, &bt, m, k, n);
        assert_eq!(bits(&got), bits(&want), "gemm_nt_acc ({m},{k},{n})");
        // (aᵀ)ᵀ · b with aᵀ stored row-major as [k, m].
        let at = transpose(&a, m, k);
        let mut got = vec![0.0f32; m * n];
        gemm_tn_acc(&mut got, &at, &b, k, m, n);
        assert_eq!(bits(&got), bits(&want), "gemm_tn_acc ({m},{k},{n})");
    }

    #[test]
    fn blocked_matches_naive_on_tile_straddling_shapes() {
        // Shapes straddling MR/KC/NR boundaries (n < NR, n = NR, n > NR,
        // k > KC, m = 1), plus degenerate ones.
        let shapes = [
            (1, 1, 1),
            (1, 300, 5),
            (1, 7, NR),
            (3, 7, 2),
            (4, KC, NR),
            (4, 128, 256),
            (5, 129, 257),
            (6, KC + 3, NR - 1),
            (8, 200, 300),
            (9, 37, 21),
            (17, 131, 63),
        ];
        for (m, k, n) in shapes {
            assert_kernels_bit_identical(m, k, n, 1);
        }
    }

    #[test]
    fn accumulates_on_top_of_prefilled_output() {
        // A pre-filled output (e.g. a broadcast bias) is accumulated into,
        // not overwritten — the fused-bias contract the layers rely on.
        let mut out = vec![10.0f32; 1];
        gemm_acc(&mut out, &[1.0, 2.0], &[3.0, 4.0], 1, 2, 1);
        assert_eq!(out[0], 10.0 + 1.0 * 3.0 + 2.0 * 4.0);
    }

    /// The input-gradient kernels never skip a zero product: an infinite
    /// output gradient against a zero weight must poison the sum with NaN,
    /// exactly as the transpose-then-multiply path did (a skip would leave
    /// the finite 2.0). NaN payload bits are not compared: constant folding
    /// and the FPU disagree on the sign of `0·∞`.
    #[test]
    fn input_gradient_kernels_do_not_skip_zero_weights() {
        let dy = [f32::INFINITY, 1.0];
        let w = [0.0f32, 2.0];
        // Dense: dx [1,1] = dy [1,2] · Wᵀ for W [1,2].
        let mut dx = [0.0f32];
        gemm_nt_acc(&mut dx, &dy, &w, 1, 2, 1);
        let mut want = [0.0f32];
        gemm_naive(&mut want, &dy, &transpose(&w, 1, 2), 1, 2, 1);
        assert!(dx[0].is_nan() && want[0].is_nan(), "dense dx {dx:?}");
        // Conv: dcol [1,1] = Wᵀ · dy for W [2,1], dy [2,1].
        let mut dcol = [0.0f32];
        gemm_tn_acc(&mut dcol, &w, &dy, 2, 1, 1);
        let mut want = [0.0f32];
        gemm_naive(&mut want, &transpose(&w, 2, 1), &dy, 1, 2, 1);
        assert!(dcol[0].is_nan() && want[0].is_nan(), "conv dcol {dcol:?}");
    }

    #[test]
    fn sparse_transposed_accumulate_skips_only_zero_rows() {
        let (m, k, n) = (6, 5, 4);
        let mut a = pseudo(m * k, 3);
        for v in a.iter_mut().step_by(3) {
            *v = 0.0;
        }
        let g = pseudo(m * n, 4);
        let mut dense = vec![0.0f32; k * n];
        gemm_tn_acc(&mut dense, &a, &g, m, k, n);
        let mut sparse = vec![0.0f32; k * n];
        gemm_tn_acc_sparse(&mut sparse, &a, &g, m, k, n);
        assert_eq!(bits(&sparse), bits(&dense));
    }

    proptest! {
        /// Every kernel matches the naive oracle bit for bit on random
        /// shapes: non-multiples of every tile dimension, n on both sides
        /// of NR, k past KC, and m = 1.
        #[test]
        fn blocked_matches_naive_randomized(m in 1usize..10, k in 1usize..140,
                                            n in 1usize..40, seed in 0u64..500) {
            assert_kernels_bit_identical(m, k, n, seed);
        }
    }
}
