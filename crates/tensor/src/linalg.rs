//! Matrix multiplication kernels.
//!
//! Three variants cover everything layer-wise backprop needs without ever
//! materialising a transposed copy:
//!
//! * [`matmul`]:   `C = A · B`      with `A: [m,k]`, `B: [k,n]`
//! * [`matmul_tn`]: `C = Aᵀ · B`    with `A: [k,m]`, `B: [k,n]`
//! * [`matmul_nt`]: `C = A · Bᵀ`    with `A: [m,k]`, `B: [n,k]`
//!
//! Each is a thin wrapper over a slice-level kernel ([`gemm`], [`gemm_tn`],
//! [`gemm_nt`]). Hot paths that already own a
//! [`crate::workspace::Workspace`] call the `_ws` variants ([`gemm_ws`],
//! [`gemm_tn_ws`]) so the pack panels below come from the pool; the plain
//! entry points fall back to a thread-local pool with identical numerics.
//!
//! # Kernel design
//!
//! The register tile is **6 × 32**: six output rows by two 16-float lane
//! arrays ([`Lane`]), giving twelve live accumulator vectors — enough to
//! hide FMA latency on one 512-bit pipe without spilling. Every
//! multiply-add goes through [`fmadd`], which lowers to a fused `mul_add`
//! when the target has FMA and to `a * b + c` otherwise, and every lane
//! update is a fixed-width array zip that LLVM auto-vectorises to a
//! single vector FMA. No SIMD intrinsics and no `unsafe`: the crate-level
//! `forbid(unsafe_code)` holds, and the same source compiles to scalar
//! code on targets without vector units.
//!
//! Two code paths feed that tile:
//!
//! * **Packed path** (any shape): the classic three-loop blocking. B is
//!   copied into `KC × NR` column panels (zero-padded at the right edge)
//!   and A into `KC × MR` row panels so the microkernel streams both
//!   operands contiguously; the panel loop advances the reduction in
//!   [`KC`]-deep slabs that stay in L2, and output columns in [`NC`]-wide
//!   slabs so the live C rows stay in L1. The packed microkernel unrolls
//!   two reduction steps per iteration.
//! * **Direct path** (cache-resident single-panel shapes, `k ≤ KC` and
//!   the touched A/B footprint under [`DIRECT_FOOTPRINT_BYTES`]): packing
//!   a matrix that already fits in cache is pure overhead, so the
//!   microkernel reads A and B in place — A broadcast-loaded at row
//!   stride `k`, B streamed at row stride `n`. Column tails (`n % 32`)
//!   are packed into one zero-padded `k × 32` strip so the tail still
//!   runs the full-width kernel. The full-height (`MR`-row) and
//!   partial-height kernels are deliberately separate functions: folding
//!   the row count into one runtime loop bound costs LLVM the unrolled
//!   register tile and roughly a third of the throughput.
//!
//! # Determinism
//!
//! Every output element is produced by a single fmadd chain over the
//! reduction index `p` in ascending order within each `KC` panel, plus a
//! partial-sum add at each panel boundary — and panel boundaries are
//! multiples of [`KC`], a function of `k` alone. Loop unrolling changes
//! instruction scheduling but not the per-accumulator dependency chain;
//! zero-padded pack lanes touch only rows/columns that are never written
//! back. The result is bit-identical across the packed and direct paths,
//! any output-column partitioning (the [`NC`] loop), and any tile shape —
//! the property tests assert this exactly.
//!
//! # Pruned-zero policy
//!
//! The dense kernels perform **no per-element zero tests**: branches
//! defeat vectorisation, and pruned-weight sparsity is exploited
//! *structurally* by the mask-derived compressed-row kernels in
//! [`crate::sparse`], which are built once per round rather than
//! re-checked per element. The [`naive_matmul`] family below keeps the
//! plain triple-loop semantics as the oracle every optimised kernel is
//! property-tested against.

use crate::workspace::Workspace;
use crate::Tensor;
use std::cell::RefCell;

/// Vector width of one lane array: 16 `f32`s = one AVX-512 register (or
/// two NEON/AVX2 registers — LLVM splits the array transparently).
pub const LANES: usize = 16;

/// One register lane: a fixed-width array the compiler keeps in vector
/// registers through the accumulation loop.
pub type Lane = [f32; LANES];

/// Microkernel tile height: output rows per register tile.
pub const MR: usize = 6;

/// Lane arrays per tile row.
const NL: usize = 2;

/// Microkernel tile width: output columns per register tile.
pub const NR: usize = NL * LANES;

/// Reduction panel depth: one packed A panel (`KC × MR`) plus the B
/// panel strip a tile consumes stay cache-resident.
pub const KC: usize = 256;

/// Output-column panel width of the packed path: the packed B panel
/// (`KC × NC` floats) stays within L2.
pub const NC: usize = 512;

/// Ceiling on the touched A + B footprint (bytes) for the pack-free
/// direct path; above it, packing pays for itself.
pub const DIRECT_FOOTPRINT_BYTES: usize = 1 << 20;

thread_local! {
    /// Pack-panel pool for the plain (non-`_ws`) entry points, so repeat
    /// callers without a workspace still amortise panel allocation.
    static LOCAL_POOL: RefCell<Workspace> = RefCell::new(Workspace::new());
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.ndim(), 2, "{what} must be 2-D, got shape {:?}", t.shape());
    (t.shape()[0], t.shape()[1])
}

/// Fused multiply-add contraction point: every kernel in this crate
/// funnels its multiply-adds through here so rounding behaviour is
/// uniform. One fused operation (single rounding) on FMA targets.
/// Public so downstream elementwise hot loops (e.g. the BatchNorm eval
/// affine) share the exact same contraction.
#[inline(always)]
pub fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// `c[e] = fmadd(a, b[e], c[e])` across one lane: the body LLVM turns
/// into a single broadcast + vector FMA.
#[inline(always)]
pub(crate) fn lane_fmadd(a: f32, b: &Lane, c: &mut Lane) {
    for (x, &v) in c.iter_mut().zip(b) {
        *x = fmadd(a, v, *x);
    }
}

/// Loads one lane from the head of a slice.
#[inline(always)]
pub(crate) fn load_lane(s: &[f32]) -> Lane {
    let mut l = [0.0f32; LANES];
    l.copy_from_slice(&s[..LANES]);
    l
}

/// Packed microkernel: `MR × NR` register tile over packed panels
/// (`pa`: `kb × MR` column-major strips, `pb`: `kb × NR` row strips),
/// two reduction steps per iteration. The per-accumulator fmadd chain
/// is still strictly `p`-ascending — unrolling reorders independent
/// lanes, never one element's chain.
#[inline(always)]
fn mk_packed(pa: &[f32], pb: &[f32]) -> [[Lane; NL]; MR] {
    let mut acc = [[[0.0f32; LANES]; NL]; MR];
    let kb = pa.len() / MR;
    let pairs = kb / 2;
    for (am, bn) in pa.chunks_exact(2 * MR).zip(pb.chunks_exact(2 * NR)).take(pairs) {
        let b0 = load_lane(&bn[0..]);
        let b1 = load_lane(&bn[LANES..]);
        for (r, row) in acc.iter_mut().enumerate() {
            lane_fmadd(am[r], &b0, &mut row[0]);
            lane_fmadd(am[r], &b1, &mut row[1]);
        }
        let c0 = load_lane(&bn[NR..]);
        let c1 = load_lane(&bn[NR + LANES..]);
        for (r, row) in acc.iter_mut().enumerate() {
            lane_fmadd(am[MR + r], &c0, &mut row[0]);
            lane_fmadd(am[MR + r], &c1, &mut row[1]);
        }
    }
    if kb % 2 == 1 {
        let am = &pa[(kb - 1) * MR..];
        let bn = &pb[(kb - 1) * NR..];
        let b0 = load_lane(&bn[0..]);
        let b1 = load_lane(&bn[LANES..]);
        for (r, row) in acc.iter_mut().enumerate() {
            lane_fmadd(am[r], &b0, &mut row[0]);
            lane_fmadd(am[r], &b1, &mut row[1]);
        }
    }
    acc
}

/// Direct microkernel, full tile height: A read in place at row stride
/// `lda`, B at row stride `ldb`. The row loop bound is the constant
/// [`MR`] on purpose — see the module header on why the partial-height
/// variant is a separate function.
#[inline(always)]
fn mk_direct(kb: usize, a: &[f32], lda: usize, b: &[f32], ldb: usize) -> [[Lane; NL]; MR] {
    let mut acc = [[[0.0f32; LANES]; NL]; MR];
    for p in 0..kb {
        let brow = &b[p * ldb..p * ldb + NR];
        let b0 = load_lane(&brow[0..]);
        let b1 = load_lane(&brow[LANES..]);
        for (r, row) in acc.iter_mut().enumerate() {
            let av = a[r * lda + p];
            lane_fmadd(av, &b0, &mut row[0]);
            lane_fmadd(av, &b1, &mut row[1]);
        }
    }
    acc
}

/// Direct microkernel, partial tile height (`mb < MR` rows).
#[inline(always)]
fn mk_direct_partial(
    kb: usize,
    mb: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
) -> [[Lane; NL]; MR] {
    let mut acc = [[[0.0f32; LANES]; NL]; MR];
    for p in 0..kb {
        let brow = &b[p * ldb..p * ldb + NR];
        let b0 = load_lane(&brow[0..]);
        let b1 = load_lane(&brow[LANES..]);
        for (r, row) in acc.iter_mut().take(mb).enumerate() {
            let av = a[r * lda + p];
            lane_fmadd(av, &b0, &mut row[0]);
            lane_fmadd(av, &b1, &mut row[1]);
        }
    }
    acc
}

/// Writes (or accumulates) a full-width register tile into `rows` rows
/// of C at leading dimension `ldc`.
#[inline(always)]
fn mk_write(acc: &[[Lane; NL]; MR], rows: usize, c: &mut [f32], ldc: usize, add: bool) {
    for (r, row) in acc.iter().take(rows).enumerate() {
        let crow = &mut c[r * ldc..r * ldc + NR];
        for (l, lane) in row.iter().enumerate() {
            let seg = &mut crow[l * LANES..(l + 1) * LANES];
            if add {
                for (v, &x) in seg.iter_mut().zip(lane) {
                    *v += x;
                }
            } else {
                seg.copy_from_slice(lane);
            }
        }
    }
}

/// Writes a register tile whose rightmost `NR - w` columns are padding:
/// spills the tile to a scratch strip, then copies the `w` real columns
/// out. Keeps the tail on the vector kernel instead of a scalar loop.
#[inline(always)]
fn mk_write_tail(
    acc: &[[Lane; NL]; MR],
    rows: usize,
    w: usize,
    c: &mut [f32],
    ldc: usize,
    add: bool,
    tile: &mut [f32],
) {
    mk_write(acc, rows, tile, NR, false);
    for r in 0..rows {
        let seg = &mut c[r * ldc..r * ldc + w];
        if add {
            for (v, &x) in seg.iter_mut().zip(&tile[r * NR..]) {
                *v += x;
            }
        } else {
            seg.copy_from_slice(&tile[r * NR..r * NR + w]);
        }
    }
}

/// Packed-path kernel: computes `C = A · B` (or `Aᵀ · B` when `TA`) into
/// the row-major `[m, n]` `out`. Works for any shape; see the module
/// header.
fn packed_span<const TA: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    ws: &mut Workspace,
) {
    // Scratch contract: every pack region is fully written before the
    // microkernel reads it, so the stale-content `take_scratch` is safe.
    let mut pb = ws.take_scratch(KC * NC);
    let mut pa = ws.take_scratch(KC * MR);
    let mut tile = ws.take_scratch(MR * NR);
    let mut jp = 0;
    while jp < n {
        let jn = NC.min(n - jp);
        let jt_count = jn.div_ceil(NR);
        let mut p0 = 0;
        while p0 < k {
            let kb = KC.min(k - p0);
            let add = p0 > 0;
            for jt in 0..jt_count {
                let jj = jp + jt * NR;
                let w = NR.min(jp + jn - jj);
                let dst = &mut pb[jt * kb * NR..(jt + 1) * kb * NR];
                for (p, d) in dst.chunks_exact_mut(NR).enumerate() {
                    d[..w].copy_from_slice(&b[(p0 + p) * n + jj..][..w]);
                    d[w..].fill(0.0);
                }
            }
            let mut i0 = 0;
            while i0 < m {
                let mb = MR.min(m - i0);
                for (p, chunk) in pa[..kb * MR].chunks_exact_mut(MR).enumerate() {
                    for (r, v) in chunk.iter_mut().enumerate() {
                        *v = if r < mb {
                            if TA {
                                a[(p0 + p) * m + i0 + r]
                            } else {
                                a[(i0 + r) * k + p0 + p]
                            }
                        } else {
                            0.0
                        };
                    }
                }
                for jt in 0..jt_count {
                    let jc = jp + jt * NR;
                    let w = NR.min(n - jc);
                    let acc = mk_packed(&pa[..kb * MR], &pb[jt * kb * NR..(jt + 1) * kb * NR]);
                    let dst = &mut out[i0 * n + jc..];
                    if w == NR {
                        mk_write(&acc, mb, dst, n, add);
                    } else {
                        mk_write_tail(&acc, mb, w, dst, n, add, &mut tile);
                    }
                }
                i0 += MR;
            }
            p0 += kb;
        }
        jp += jn;
    }
    ws.put(tile);
    ws.put(pa);
    ws.put(pb);
}

/// Direct-path kernel: single reduction panel (`k ≤ KC`), A and B read
/// in place, column tail packed into one zero-padded strip.
fn direct_span(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    ws: &mut Workspace,
) {
    let jt_full = n / NR;
    let wtail = n - jt_full * NR;
    let mut pbt = ws.take_scratch(k * NR);
    let mut tile = ws.take_scratch(MR * NR);
    if wtail > 0 {
        let jj = jt_full * NR;
        for (p, d) in pbt.chunks_exact_mut(NR).enumerate() {
            d[..wtail].copy_from_slice(&b[p * n + jj..][..wtail]);
            d[wtail..].fill(0.0);
        }
    }
    let mut i0 = 0;
    while i0 < m {
        let mb = MR.min(m - i0);
        let ab = &a[i0 * k..];
        for jt in 0..jt_full {
            let jj = jt * NR;
            let acc = if mb == MR {
                mk_direct(k, ab, k, &b[jj..], n)
            } else {
                mk_direct_partial(k, mb, ab, k, &b[jj..], n)
            };
            mk_write(&acc, mb, &mut out[i0 * n + jt * NR..], n, false);
        }
        if wtail > 0 {
            let acc = if mb == MR {
                mk_direct(k, ab, k, &pbt, NR)
            } else {
                mk_direct_partial(k, mb, ab, k, &pbt, NR)
            };
            mk_write_tail(&acc, mb, wtail, &mut out[i0 * n + jt_full * NR..], n, false, &mut tile);
        }
        i0 += MR;
    }
    ws.put(tile);
    ws.put(pbt);
}

/// Path dispatcher shared by the dense entry points: computes
/// `C = A · B` (or `Aᵀ · B` when `TA`) into the row-major `[m, n]` `out`.
fn gemm_span<const TA: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    ws: &mut Workspace,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    // Path choice never affects bits (module header): with k ≤ KC both
    // paths run the identical single-panel fmadd chain per element.
    let direct = !TA && k <= KC && (m * k + k * n) * 4 <= DIRECT_FOOTPRINT_BYTES;
    if direct {
        direct_span(m, k, n, a, b, out, ws);
    } else {
        packed_span::<TA>(m, k, n, a, b, out, ws);
    }
}

/// Sixteen-lane dot product: independent partial sums break the serial
/// accumulation chain so the loop vectorises.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let ca = a.chunks_exact(LANES);
    let cb = b.chunks_exact(LANES);
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    for (xa, xb) in ca.zip(cb) {
        for (lane, (&x, &y)) in lanes.iter_mut().zip(xa.iter().zip(xb)) {
            *lane = fmadd(x, y, *lane);
        }
    }
    tail + lanes.iter().sum::<f32>()
}

/// Slice-level `C = A · B` with `A: [m,k]`, `B: [k,n]`; `out` is
/// overwritten. Register-tiled and cache-blocked as described in the
/// module header; pack panels come from a thread-local pool (use
/// [`gemm_ws`] to supply your own).
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm: lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm: out length mismatch");
    LOCAL_POOL.with(|pool| {
        gemm_span::<false>(m, k, n, a, b, out, &mut pool.borrow_mut());
    });
}

/// [`gemm`] with caller-supplied pack-panel scratch. Numerically
/// identical to [`gemm`] — the pool only changes where panels live.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_ws(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    ws: &mut Workspace,
) {
    assert_eq!(a.len(), m * k, "gemm: lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm: out length mismatch");
    gemm_span::<false>(m, k, n, a, b, out, ws);
}

/// Slice-level `C = Aᵀ · B` with `A: [k,m]`, `B: [k,n]`; `out` is
/// overwritten. Always takes the packed path — packing A is what
/// performs the transpose gather.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_tn(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_tn: lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_tn: out length mismatch");
    LOCAL_POOL.with(|pool| {
        gemm_span::<true>(m, k, n, a, b, out, &mut pool.borrow_mut());
    });
}

/// [`gemm_tn`] with caller-supplied pack-panel scratch.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_tn_ws(
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    ws: &mut Workspace,
) {
    assert_eq!(a.len(), k * m, "gemm_tn: lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_tn: out length mismatch");
    gemm_span::<true>(m, k, n, a, b, out, ws);
}

/// Slice-level `C = A · Bᵀ` with `A: [m,k]`, `B: [n,k]`; `out` is
/// overwritten. Both operands are row-contiguous along `k`, so each
/// output element is one sixteen-lane [`dot`].
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt: lhs length mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_nt: out length mismatch");
    for (i, orow) in out.chunks_exact_mut(n.max(1)).take(m).enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        for (j, o) in orow.iter_mut().enumerate() {
            *o = dot(arow, &b[j * k..(j + 1) * k]);
        }
    }
}

/// Transposes a `rows × cols` row-major slice into `dst` (`cols × rows`).
///
/// # Panics
///
/// Panics if either slice length disagrees with the dimensions.
pub fn transpose_into(rows: usize, cols: usize, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose_into: src length mismatch");
    assert_eq!(dst.len(), rows * cols, "transpose_into: dst length mismatch");
    for (r, row) in src.chunks_exact(cols.max(1)).take(rows).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// `C = A · B` for `A: [m, k]` and `B: [k, n]`.
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul: inner dims {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm(m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_parts(vec![m, n], out)
}

/// `C = Aᵀ · B` for `A: [k, m]` and `B: [k, n]` (no transposed copy).
///
/// # Panics
///
/// Panics if either input is not 2-D or the leading dimensions disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_tn lhs");
    let (k2, n) = dims2(b, "matmul_tn rhs");
    assert_eq!(k, k2, "matmul_tn: leading dims {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm_tn(k, m, n, a.data(), b.data(), &mut out);
    Tensor::from_parts(vec![m, n], out)
}

/// `C = A · Bᵀ` for `A: [m, k]` and `B: [n, k]` (no transposed copy).
///
/// # Panics
///
/// Panics if either input is not 2-D or the trailing dimensions disagree.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_nt lhs");
    let (n, k2) = dims2(b, "matmul_nt rhs");
    assert_eq!(k, k2, "matmul_nt: trailing dims {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm_nt(m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_parts(vec![m, n], out)
}

/// Transposes a 2-D tensor.
///
/// # Panics
///
/// Panics if the input is not 2-D.
pub fn transpose(a: &Tensor) -> Tensor {
    let (m, n) = dims2(a, "transpose");
    let mut out = vec![0.0f32; m * n];
    transpose_into(m, n, a.data(), &mut out);
    Tensor::from_parts(vec![n, m], out)
}

/// Reference `C = A · B`: the plain i-j-p triple loop, unblocked, untiled,
/// and without any zero test. This is the oracle the optimised kernels are
/// property-tested against; it is intentionally slow and obviously correct.
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
pub fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "naive_matmul lhs");
    let (k2, n) = dims2(b, "naive_matmul rhs");
    assert_eq!(k, k2, "naive_matmul: inner dims {k} vs {k2}");
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[i * k + p] * bd[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_parts(vec![m, n], out)
}

/// Reference `C = Aᵀ · B` (see [`naive_matmul`] for the oracle contract).
///
/// # Panics
///
/// Panics if either input is not 2-D or the leading dimensions disagree.
pub fn naive_matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "naive_matmul_tn lhs");
    let (k2, n) = dims2(b, "naive_matmul_tn rhs");
    assert_eq!(k, k2, "naive_matmul_tn: leading dims {k} vs {k2}");
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[p * m + i] * bd[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_parts(vec![m, n], out)
}

/// Reference `C = A · Bᵀ` (see [`naive_matmul`] for the oracle contract).
///
/// # Panics
///
/// Panics if either input is not 2-D or the trailing dimensions disagree.
pub fn naive_matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "naive_matmul_nt lhs");
    let (n, k2) = dims2(b, "naive_matmul_nt rhs");
    assert_eq!(k, k2, "naive_matmul_nt: trailing dims {k} vs {k2}");
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[i * k + p] * bd[j * k + p];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_parts(vec![m, n], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_slice_close;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), data.to_vec()).unwrap()
    }

    #[test]
    fn matmul_small_known() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[3, 2], &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let id = t(&[2, 2], &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &id).data(), a.data());
        assert_eq!(matmul(&id, &a).data(), a.data());
    }

    #[test]
    fn matmul_matches_naive_oracle_random() {
        let mut rng = crate::init::SeededRng::new(7);
        // Shapes chosen to hit every blocking edge: odd m (row remainder),
        // column tails (n % NR != 0), k crossing the KC panel, and both
        // the direct and packed dispatch arms.
        for &(m, k, n) in
            &[(1, 1, 1), (3, 4, 5), (8, 8, 8), (5, 17, 3), (7, 513, 2), (2, 3, 300), (6, 75, 784)]
        {
            let a = crate::init::uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = crate::init::uniform(&[k, n], -1.0, 1.0, &mut rng);
            let c = matmul(&a, &b);
            assert_slice_close(c.data(), naive_matmul(&a, &b).data(), 1e-4, 1e-4);
        }
    }

    #[test]
    fn gemm_ws_bit_identical_to_gemm() {
        let mut rng = crate::init::SeededRng::new(29);
        let mut ws = crate::workspace::Workspace::new();
        for &(m, k, n) in &[(5, 17, 33), (13, 300, 70), (6, 75, 784)] {
            let a = crate::init::uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = crate::init::uniform(&[k, n], -1.0, 1.0, &mut rng);
            let mut plain = vec![0.0f32; m * n];
            let mut pooled = vec![0.0f32; m * n];
            gemm(m, k, n, a.data(), b.data(), &mut plain);
            gemm_ws(m, k, n, a.data(), b.data(), &mut pooled, &mut ws);
            assert_eq!(plain, pooled);
        }
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = crate::init::SeededRng::new(11);
        for &(k, m, n) in &[(4, 3, 5), (9, 7, 11), (300, 5, 6)] {
            let a = crate::init::uniform(&[k, m], -1.0, 1.0, &mut rng);
            let b = crate::init::uniform(&[k, n], -1.0, 1.0, &mut rng);
            let via_tn = matmul_tn(&a, &b);
            let via_t = matmul(&transpose(&a), &b);
            assert_eq!(via_tn.shape(), &[m, n]);
            assert_slice_close(via_tn.data(), via_t.data(), 1e-4, 1e-4);
            assert_slice_close(via_tn.data(), naive_matmul_tn(&a, &b).data(), 1e-4, 1e-4);
        }
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = crate::init::SeededRng::new(13);
        for &(m, k, n) in &[(4, 3, 5), (6, 19, 2), (3, 70, 9)] {
            let a = crate::init::uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = crate::init::uniform(&[n, k], -1.0, 1.0, &mut rng);
            let via_nt = matmul_nt(&a, &b);
            let via_t = matmul(&a, &transpose(&b));
            assert_eq!(via_nt.shape(), &[m, n]);
            assert_slice_close(via_nt.data(), via_t.data(), 1e-4, 1e-4);
            assert_slice_close(via_nt.data(), naive_matmul_nt(&a, &b).data(), 1e-4, 1e-4);
        }
    }

    #[test]
    fn dense_kernels_do_not_special_case_zeros() {
        // Half-zeroed lhs: blocked and naive agree exactly on which
        // positions are zero (no branchy skip path to diverge on).
        let mut rng = crate::init::SeededRng::new(17);
        let mut a = crate::init::uniform(&[5, 12], -1.0, 1.0, &mut rng);
        for v in a.data_mut().iter_mut().step_by(2) {
            *v = 0.0;
        }
        let b = crate::init::uniform(&[12, 7], -1.0, 1.0, &mut rng);
        assert_slice_close(matmul(&a, &b).data(), naive_matmul(&a, &b).data(), 1e-5, 1e-5);
    }

    #[test]
    fn gemm_degenerate_dims_are_zero_filled() {
        let mut out = vec![1.0f32; 0];
        gemm(0, 3, 0, &[], &[0.0; 0], &mut out);
        let a = Tensor::zeros(&[2, 0]);
        let b = Tensor::zeros(&[0, 3]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 3]);
        assert!(c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dot_matches_scalar_sum() {
        let mut rng = crate::init::SeededRng::new(19);
        for &len in &[0usize, 1, 7, 8, 9, 15, 16, 17, 64, 100] {
            let a = crate::init::uniform(&[len.max(1)], -1.0, 1.0, &mut rng);
            let b = crate::init::uniform(&[len.max(1)], -1.0, 1.0, &mut rng);
            let (ad, bd) = (&a.data()[..len], &b.data()[..len]);
            let expect: f32 = ad.iter().zip(bd).map(|(x, y)| x * y).sum();
            assert!((dot(ad, bd) - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tt = transpose(&transpose(&a));
        assert_eq!(tt, a);
    }

    #[test]
    fn transpose_into_matches_transpose() {
        let mut rng = crate::init::SeededRng::new(23);
        let a = crate::init::uniform(&[5, 9], -1.0, 1.0, &mut rng);
        let mut dst = vec![0.0; 45];
        transpose_into(5, 9, a.data(), &mut dst);
        assert_eq!(dst, transpose(&a).into_vec());
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = matmul(&a, &b);
    }

    #[test]
    #[should_panic(expected = "must be 2-D")]
    fn matmul_rejects_non_2d() {
        let a = Tensor::zeros(&[2, 3, 4]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = matmul(&a, &b);
    }
}
