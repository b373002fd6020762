//! Explicit SIMD kernel layer ("fab-simd") with runtime backend dispatch.
//!
//! The compute kernels of this workspace compile against the baseline target
//! (SSE2 on `x86_64`), so the compiler's autovectorizer never emits AVX2 or
//! FMA instructions. This module provides a portable `f32x16`/`f32x8`/`f32x1`
//! vector abstraction with two backends — `x86_64` AVX2+FMA intrinsics
//! (AVX-512 where present) and a pure-scalar fallback, which every other
//! target runs — selected **once at startup** via runtime CPU-feature
//! detection, and a set of slice-level kernels built on it that the tensor,
//! butterfly, and serving hot paths dispatch into.
//!
//! # Backend selection
//!
//! [`backend()`] returns the active [`Backend`]. On first use it is computed
//! from the `FAB_SIMD` environment variable:
//!
//! | `FAB_SIMD`        | effect                                             |
//! |-------------------|----------------------------------------------------|
//! | unset, `native`   | best backend the CPU supports (AVX2+FMA, else      |
//! |                   | scalar)                                            |
//! | `off`, `scalar`   | the scalar backend                                 |
//! | `avx2`            | force the AVX2 backend (panics when the CPU or     |
//! |                   | architecture does not support it)                  |
//!
//! Tests and benches can additionally override the selection in-process via
//! `force_backend`.
//!
//! # Numerical contract
//!
//! * The **scalar** backend runs every kernel whose lanes never meet as the
//!   one-lane instantiation (`F32x1`) of the generic body the vector arms
//!   run: operation for operation the per-element scalar expression
//!   ([`crate::fastmath::exp_fast`], `d + a·x`, `w1·a + w2·b`, …), a NaN
//!   kept the way `f32::clamp` keeps it. Only the oracle kernels keep a
//!   scalar body of their own, because that value is what the vector arms
//!   are measured against: the row kernels (libm softmax and log-softmax,
//!   iterator-sum layer norm), [`matmul_band`]'s multiply-then-add loop,
//!   the attention tile's row composition and the int8 loops.
//! * The element-wise transcendental kernels (`exp_slice`, `tanh_slice`,
//!   `gelu_slice`, [`gelu_grad_acc`]) and the butterfly pair kernels
//!   evaluate the *same operations in the same order* per lane as their
//!   scalar counterparts (multiplies and adds only, no FMA contraction), so
//!   their SIMD results are bit-identical to the scalar backend for finite
//!   inputs.
//! * The GEMM band ([`matmul_band`]) uses FMA register tiles: per output
//!   element, from `dst`, ascending `p`, ±0.0 lhs terms skipped, one FMA per
//!   term on the first `n − n % 16` columns and a multiply then add on the
//!   rest. That value is fixed by the arithmetic, not the tiling: every
//!   arm gives the same bits, and the test module's differential table
//!   holds each arm to a scalar `f32::mul_add` oracle of exactly that
//!   contract.
//! * The GEMM band and the row-wise softmax / layer-norm kernels (which use
//!   lane-parallel `exp_slice`-style exponentials and reordered
//!   reductions) legitimately differ from the scalar backend by rounding,
//!   bounded at ≤ 1e-5 relative to the row/output magnitude
//!   (property-tested).
//! * Where `avx512f` is present the AVX2 backend runs every kernel whose
//!   lanes never meet 16 lanes wide: the GEMM band, the element-wise and
//!   transcendental slices, the butterfly stages and the lane-per-row engine
//!   (a kernel that takes a tile `width` when `width` is a multiple of 16).
//!   Each lane runs the same operations at either width, and a slice's
//!   scalar tail is the same elements at both, so the 8- and 16-lane
//!   instantiations give the same bits. The row reductions (softmax,
//!   log-softmax, layer norm, fused residual + layer norm) stay 8 lanes
//!   wide: their reduction tree is part of their value, and the reduction
//!   trait they are bound on has no 16-lane implementation, so a 16-wide
//!   row reduction does not compile. [`Backend::lanes`] reports the width
//!   of the lane-wise kernels.
//! * The attention tile (`attention_tile`) gives the bits of the row
//!   composition on the same backend — [`matmul_band`] with Kᵀ,
//!   `scale_slice`, [`softmax_row`], [`matmul_band`] with V — which is
//!   what the scalar backend runs. The AVX2 backend keeps one query row per
//!   lane, at 8 or 16 lanes like the kernels above, and each lane replays
//!   the 8-lane softmax's reduction tree and the GEMM band's per-element
//!   chain; the differential table holds both widths to the composition.
//! * The int8 GEMM ([`q8_gemm_prepared`]) accumulates exactly in i32, so
//!   every arm gives the scalar loop's bits. Where `avx512vnni` and
//!   `avx512bw` are present the AVX2 backend runs it as `vpdpbusd` tiles
//!   over the packed copy a [`Q8Rhs`] keeps on such a CPU.
//!
//! # Alignment
//!
//! Tensor storage is plain `Vec<f32>` (4-byte alignment). Every vector
//! load/store in this module is an *unaligned* access (`loadu`/`storeu`),
//! so kernels accept slices at arbitrary offsets — including deliberately
//! misaligned sub-slices — at no correctness cost and, on every AVX2-era
//! core, no measurable throughput cost for sequential access. The
//! differential table runs every arm at offsets 0–3.
//!
//! # Where `unsafe` lives
//!
//! The generic kernel bodies take slices, slice once per row or chunk,
//! and the vector types' loads and stores take slices too, so an access is
//! bounds-checked or in bounds by construction. `unsafe` is left in three
//! places, each block under a `SAFETY:` comment: the vector types' methods
//! (one intrinsic each), the int8 intrinsic kernels, and the one dispatch
//! site per backend. All three rest on one condition: a vector type is
//! only ever used inside a `#[target_feature]` entry point of this module,
//! and those are reached only after runtime detection found the features
//! they enable.
//!
//! A few hot loops also index unchecked, each under bounds asserted once
//! outside it, because a check per access cost them a measured share:
//! the butterfly lane engine's pair operations (per stage), the
//! lane-layout stores of `rows_to_lanes` (multi-tile, per column block)
//! and `lanes_to_rows` (per call), the GEMM tile's depth loop (per tile)
//! and the attention tile's gather, scores and mix (per tile). The x86
//! transposes check a block's last row once.

use std::sync::atomic::{AtomicU8, Ordering};

/// The vector instruction set driving the dispatched kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Pure-scalar fallback: the generic bodies one lane wide, and the
    /// oracle kernels' own scalar loops.
    Scalar,
    /// 8-lane AVX2 + FMA (x86_64, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Backend {
    /// Short lower-case name (`scalar` / `avx2`), as recorded in the
    /// bench JSON files.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => "avx2",
        }
    }

    /// `true` when the backend uses vector instructions.
    pub fn is_simd(self) -> bool {
        !matches!(self, Backend::Scalar)
    }

    /// Number of `f32` lanes per vector of the lane-wise kernels (1 for the
    /// scalar backend): the tile width at which the lane-per-row engine runs
    /// one vector per row. On the AVX2 backend that is 16 where the CPU has
    /// `avx512f` and 8 otherwise; the row reductions stay 8 lanes wide
    /// either way, their reduction tree being part of their value.
    pub fn lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if x86::wide() => 16,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => 8,
        }
    }
}

const BACKEND_UNINIT: u8 = 0;
const BACKEND_SCALAR: u8 = 1;
#[cfg(target_arch = "x86_64")]
const BACKEND_AVX2: u8 = 2;

static BACKEND: AtomicU8 = AtomicU8::new(BACKEND_UNINIT);

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => BACKEND_SCALAR,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => BACKEND_AVX2,
    }
}

fn decode(v: u8) -> Backend {
    match v {
        BACKEND_SCALAR => Backend::Scalar,
        #[cfg(target_arch = "x86_64")]
        BACKEND_AVX2 => Backend::Avx2,
        _ => unreachable!("invalid backend code {v}"),
    }
}

/// The backend runtime detection alone would pick (ignoring any
/// `force_backend` override but honouring `FAB_SIMD`).
///
/// # Panics
///
/// Panics when `FAB_SIMD` holds an unsupported value for this machine.
pub fn default_backend() -> Backend {
    match std::env::var("FAB_SIMD").ok().as_deref() {
        None | Some("") | Some("native") => detect(),
        Some("off") | Some("scalar") => Backend::Scalar,
        #[cfg(target_arch = "x86_64")]
        Some("avx2") => {
            assert!(
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma"),
                "FAB_SIMD=avx2 but this CPU does not support AVX2+FMA"
            );
            Backend::Avx2
        }
        Some(other) => panic!("invalid FAB_SIMD value `{other}` (expected off|scalar|native|avx2)"),
    }
}

fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// The active backend, selected once at startup (see the module docs for the
/// `FAB_SIMD` override).
pub fn backend() -> Backend {
    let v = BACKEND.load(Ordering::Relaxed);
    if v == BACKEND_UNINIT {
        // Not a plain store: a `force_backend` that lands between the load
        // above and here must not be overwritten by the default.
        let b = encode(default_backend());
        return match BACKEND.compare_exchange(v, b, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => decode(b),
            Err(forced) => decode(forced),
        };
    }
    decode(v)
}

/// Overrides the active backend in-process. Intended for tests and benches
/// that compare SIMD output against the scalar oracle; production code should
/// rely on startup selection (`FAB_SIMD`) instead. Callers that toggle the
/// backend concurrently with other threads must serialise themselves.
///
/// # Panics
///
/// Panics when a SIMD backend is forced on a CPU that does not support it.
pub(crate) fn force_backend(b: Backend) {
    #[cfg(target_arch = "x86_64")]
    if b == Backend::Avx2 {
        assert!(
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"),
            "cannot force the AVX2 backend: CPU lacks AVX2+FMA"
        );
    }
    BACKEND.store(encode(b), Ordering::Relaxed);
}

/// Runs `f` on backend `b` (see `force_backend`), then puts the previous
/// backend back — also when `f` panics, so a failed test leaves no backend
/// forced for the next one.
pub fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> R {
    struct Restore(Backend);
    impl Drop for Restore {
        fn drop(&mut self) {
            force_backend(self.0);
        }
    }
    let _restore = Restore(backend());
    force_backend(b);
    f()
}

/// Space-separated list of the SIMD-relevant CPU features detected at
/// runtime, recorded in the bench JSON files so cross-host numbers stay
/// interpretable.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats: Vec<&str> = Vec::new();
        if std::arch::is_x86_feature_detected!("sse2") {
            feats.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("sse4.1") {
            feats.push("sse4.1");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            feats.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        // The int8 GEMM's VNNI arm needs it beside `avx512vnni` (`x86::vnni`).
        if std::arch::is_x86_feature_detected!("avx512bw") {
            feats.push("avx512bw");
        }
        // The `vpdpbusd` int8 dot product, 512- and 256-bit encodings.
        if std::arch::is_x86_feature_detected!("avx512vnni") {
            feats.push("avx512vnni");
        }
        if std::arch::is_x86_feature_detected!("avxvnni") {
            feats.push("avxvnni");
        }
        feats.join(" ")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::new()
    }
}

// ---------------------------------------------------------------------------
// Portable vector abstraction.
// ---------------------------------------------------------------------------

/// The lane operations of the GEMM band kernel ([`kernels::matmul_band`]),
/// and all a vector type must implement to run it. [`Vf32`] extends it with
/// what the other lane-wise kernels need, [`RowReduce`] with the
/// horizontal reductions of the row kernels and [`LaneSelect`] with the
/// selects of the attention tile. Every vector type implements the first
/// two; only `F32x8` implements [`RowReduce`] — the AVX-512 `F32x16` runs
/// every kernel whose lanes never meet, none that sums across them — and
/// only the two x86 types implement [`LaneSelect`].
///
/// All methods are `#[inline(always)]` wrappers over single instructions so
/// that, once a generic kernel is monomorphised inside a
/// `#[target_feature]`-annotated entry point, the whole kernel compiles with
/// that feature set enabled. Memory is passed as slices: a load or store
/// touches the first `LANES` values and panics on a shorter slice, so a
/// kernel that slices once per row or chunk gets every access in bounds by
/// construction.
trait FmaLanes: Copy {
    /// Lanes per vector.
    const LANES: usize;
    /// Output rows of a full GEMM register tile, two vectors wide: the
    /// `2 · TILE_ROWS` accumulators, two rhs vectors and a broadcast must
    /// fit the register file.
    const TILE_ROWS: usize = 4;
    /// Unaligned load of `s[..LANES]`.
    fn load(s: &[f32]) -> Self;
    /// Unaligned store to `d[..LANES]`.
    fn store(self, d: &mut [f32]);
    fn splat(x: f32) -> Self;
    /// Fused multiply-add `self * m + a` (single rounding).
    fn fma(self, m: Self, a: Self) -> Self;
    /// Nonzero iff some lane compares equal to `0.0` (either sign; NaN
    /// never does).
    fn zero_mask(self) -> u32;
}

/// Lane-parallel `f32` vector operations implemented by each SIMD backend:
/// apart from [`Vf32::transpose`], lane `i` of a result depends on lane `i`
/// of the operands only, so a kernel built on them can give the same bits at
/// any width.
trait Vf32: FmaLanes {
    /// The vector an element-wise sweep continues on once fewer than
    /// `LANES` positions remain, before it turns scalar: `F32x8` under
    /// `F32x16`, the type itself elsewhere. It keeps the scalar tail the
    /// same positions at either x86 width — the vector clamp and the scalar
    /// clamp map NaN differently, so that tail is part of the value.
    type Narrow: Vf32;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    /// Correctly rounded square root, the value of `f32::sqrt`.
    fn sqrt(self) -> Self;
    fn max(self, o: Self) -> Self;
    fn min(self, o: Self) -> Self;
    /// `2^k` per lane via exponent-bit construction; lanes must hold exact
    /// integers in `[-127, 127]` (the clamped range of [`exp_slice`]).
    fn pow2i(self) -> Self;
    /// Lanes `0..n` of `self` and the rest of `other` (`n` may exceed
    /// `LANES`: then all of `self`).
    fn first_lanes(self, other: Self, n: usize) -> Self;
    /// `LANES` vectors, indexable by position.
    type Block: IntoIterator<Item = Self>;
    /// Transposes the `LANES × LANES` block whose row `r` is
    /// `src[r * stride..][..LANES]`: vector `c` of the result holds element
    /// `c` of every row, row `r` in lane `r`. Panics when `src` ends before
    /// the last row.
    fn transpose(src: &[f32], stride: usize) -> Self::Block;
    /// Folds each of the `LANES` rows of 16 values of `src` (row `r` is
    /// `src[16 · r..][..16]`) by halves — `p[k] + p[k + 8]`, then
    /// `+ [k + 4]`, `+ [k + 2]`, `+ [k + 1]`, the lower lane always the left
    /// operand — into lane `r`. This default transposes the rows and adds
    /// whole vectors in that order; a type may run the same sums on a
    /// shuffle network instead. `LANES` divides 16.
    #[inline(always)]
    fn fold16(src: &[f32]) -> Self {
        let mut p = [Self::splat(0.0); 16];
        for j in (0..16).step_by(Self::LANES) {
            // Rows `0..LANES` at stride 16 hold columns `j..j + LANES`.
            for (k, v) in Self::transpose(&src[j..], 16).into_iter().enumerate() {
                p[j + k] = v;
            }
        }
        let mut half = 8;
        while half > 0 {
            for k in 0..half {
                p[k] = p[k].add(p[k + half]);
            }
            half /= 2;
        }
        p[0]
    }
}

/// The horizontal reductions of the row kernels (softmax, log-softmax,
/// layer norm). Their reduction tree is part of the value those kernels
/// return, so only the width the row kernels are defined on implements it:
/// `F32x8`, the AVX2 backend's (the scalar backend runs their scalar
/// oracles). `F32x16` does not: a 16-wide row reduction is a compile error,
/// not a changed bit.
trait RowReduce: Vf32 {
    /// Horizontal sum of all lanes.
    fn reduce_add(self) -> f32;
    /// Horizontal max of all lanes.
    fn reduce_max(self) -> f32;
}

/// The lane selects of [`kernels::attention_tile`], which keeps one query
/// row per lane and replays, lane by lane, what the row kernels do to one
/// row: the steps where a scalar loop branches (a skipped zero term, a NaN
/// the scalar clamp keeps, `f32::max`) become selects. Only the x86 vector
/// types implement it: the tile replays the 8-lane row kernels, which only
/// the AVX2 backend runs; the scalar backend runs the row composition
/// itself.
trait LaneSelect: Vf32 {
    /// Lane-wise `if self == ±0.0 { yes } else { no }`.
    fn where_zero(self, yes: Self, no: Self) -> Self;
    /// Lane-wise `if self.is_nan() { yes } else { no }`.
    fn where_nan(self, yes: Self, no: Self) -> Self;
}

/// One-lane "vector": the scalar backend of the lane kernels, which run
/// the same generic bodies as the SIMD backends with `LANES = 1`. `max` and
/// `min` keep a NaN operand like `f32::clamp` does, so [`kernels::gelu_v`]
/// on this type is [`crate::fastmath::gelu_fast`] operation for operation.
#[derive(Clone, Copy)]
struct F32x1(f32);

impl FmaLanes for F32x1 {
    const LANES: usize = 1;

    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        F32x1(s[0])
    }

    #[inline(always)]
    fn store(self, d: &mut [f32]) {
        d[0] = self.0;
    }

    #[inline(always)]
    fn splat(x: f32) -> Self {
        F32x1(x)
    }

    #[inline(always)]
    fn fma(self, m: Self, a: Self) -> Self {
        F32x1(self.0.mul_add(m.0, a.0))
    }

    #[inline(always)]
    fn zero_mask(self) -> u32 {
        (self.0 == 0.0) as u32
    }
}

impl Vf32 for F32x1 {
    type Narrow = Self;
    type Block = [Self; 1];

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        F32x1(self.0 + o.0)
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        F32x1(self.0 - o.0)
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        F32x1(self.0 * o.0)
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        F32x1(self.0 / o.0)
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        F32x1(self.0.sqrt())
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        if self.0 < o.0 {
            o
        } else {
            self
        }
    }

    #[inline(always)]
    fn min(self, o: Self) -> Self {
        if self.0 > o.0 {
            o
        } else {
            self
        }
    }

    #[inline(always)]
    fn pow2i(self) -> Self {
        F32x1(f32::from_bits(((self.0 as i32 + 127) << 23) as u32))
    }

    #[inline(always)]
    fn first_lanes(self, other: Self, n: usize) -> Self {
        if n > 0 {
            self
        } else {
            other
        }
    }

    #[inline(always)]
    fn transpose(src: &[f32], _stride: usize) -> [Self; 1] {
        [F32x1(src[0])]
    }
}

// ---------------------------------------------------------------------------
// Generic kernels (monomorphised per backend inside #[target_feature] entry
// points; scalar tails use the fastmath scalar kernels, which are
// bit-identical to the vector lanes). The bodies slice once per row or
// chunk, and the lane types' loads and stores take slices; the hot loops
// the module docs list index unchecked under bounds asserted outside.
// ---------------------------------------------------------------------------

mod kernels {
    use super::{F32x1, FmaLanes, LaneSelect, RowReduce, Vf32};
    use crate::fastmath::{exp_fast, gelu_fast, tanh_fast};
    use crate::tensor::gelu_grad_scalar;

    /// Vector [`exp_fast`]: identical operation order per lane, so lanes are
    /// bit-identical to the scalar kernel.
    #[inline(always)]
    fn exp_v<V: Vf32>(x: V) -> V {
        const LOG2E: f32 = std::f32::consts::LOG2_E;
        #[allow(clippy::excessive_precision)]
        const LN2_HI: f32 = 0.693_359_375;
        const LN2_LO: f32 = -2.121_944_4e-4;
        const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
        let x = x.max(V::splat(-87.0)).min(V::splat(88.0));
        let k = x.mul(V::splat(LOG2E)).add(V::splat(MAGIC)).sub(V::splat(MAGIC));
        let r = x.sub(k.mul(V::splat(LN2_HI))).sub(k.mul(V::splat(LN2_LO)));
        // Horner evaluation with explicit mul-then-add (no FMA) to mirror the
        // scalar polynomial bit for bit.
        let mut p = r.mul(V::splat(1.0 / 5040.0));
        p = V::splat(1.0 / 720.0).add(p);
        p = r.mul(p);
        p = V::splat(1.0 / 120.0).add(p);
        p = r.mul(p);
        p = V::splat(1.0 / 24.0).add(p);
        p = r.mul(p);
        p = V::splat(1.0 / 6.0).add(p);
        p = r.mul(p);
        p = V::splat(0.5).add(p);
        p = r.mul(p);
        p = V::splat(1.0).add(p);
        p = r.mul(p);
        p = V::splat(1.0).add(p);
        k.pow2i().mul(p)
    }

    #[inline(always)]
    fn tanh_v<V: Vf32>(x: V) -> V {
        let clamped = x.max(V::splat(-9.0)).min(V::splat(9.0));
        let e = exp_v(V::splat(2.0).mul(clamped));
        e.sub(V::splat(1.0)).div(e.add(V::splat(1.0)))
    }

    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    const GELU_C: f32 = 0.044_715;

    #[inline(always)]
    fn gelu_inner_v<V: Vf32>(x: V) -> V {
        // SQRT_2_OVER_PI * (x + GELU_C * x * x * x), matching the scalar
        // association ((c*x)*x)*x.
        let x3 = V::splat(GELU_C).mul(x).mul(x).mul(x);
        V::splat(SQRT_2_OVER_PI).mul(x.add(x3))
    }

    #[inline(always)]
    pub(super) fn gelu_v<V: Vf32>(x: V) -> V {
        let t = tanh_v(gelu_inner_v(x));
        V::splat(0.5).mul(x).mul(V::splat(1.0).add(t))
    }

    #[inline(always)]
    fn gelu_grad_v<V: Vf32>(x: V) -> V {
        // Mirrors `gelu_grad_scalar`: 3.0 * GELU_C folds to the same f32
        // constant the scalar expression produces.
        const C3: f32 = 3.0 * GELU_C;
        let t = tanh_v(gelu_inner_v(x));
        let dinner = V::splat(SQRT_2_OVER_PI).mul(V::splat(1.0).add(V::splat(C3).mul(x).mul(x)));
        let term1 = V::splat(0.5).mul(V::splat(1.0).add(t));
        let term2 = V::splat(0.5).mul(x).mul(V::splat(1.0).sub(t.mul(t))).mul(dinner);
        term1.add(term2)
    }

    // -- element-wise kernels -------------------------------------------------

    /// An element-wise kernel over positions `0..n`: output position `i`
    /// reads input position `i` only, and the vector and scalar forms run
    /// the same operations in the same order. Every slice behind `self`
    /// holds `n` values.
    trait Elementwise {
        /// Positions `i .. i + V::LANES`.
        fn lanes<V: Vf32>(&mut self, i: usize);
        /// Position `i`, on the scalar kernel.
        fn one(&mut self, i: usize);
    }

    /// Runs `op` over positions `0..n`: whole `V` vectors, then whole
    /// [`Vf32::Narrow`] vectors, then the scalar kernel on what is left.
    #[inline(always)]
    fn sweep<V: Vf32>(op: &mut impl Elementwise, n: usize) {
        let mut i = 0;
        while i + V::LANES <= n {
            op.lanes::<V>(i);
            i += V::LANES;
        }
        while i + V::Narrow::LANES <= n {
            op.lanes::<V::Narrow>(i);
            i += V::Narrow::LANES;
        }
        while i < n {
            op.one(i);
            i += 1;
        }
    }

    /// Positions `i .. i + U::LANES`. Its end is the bound [`sweep`] tests
    /// before it hands `i` to an op, so indexing a slice of the swept length
    /// with it needs no other check.
    #[inline(always)]
    fn at<U: FmaLanes>(i: usize) -> core::ops::Range<usize> {
        i..i + U::LANES
    }

    /// The fastmath function a [`Map`] applies.
    #[derive(Clone, Copy)]
    enum Fast {
        Exp,
        Tanh,
        Gelu,
    }

    /// `dst = f(src)`.
    struct Map<'a> {
        f: Fast,
        src: &'a [f32],
        dst: &'a mut [f32],
    }

    impl Elementwise for Map<'_> {
        #[inline(always)]
        fn lanes<V: Vf32>(&mut self, i: usize) {
            let x = V::load(&self.src[at::<V>(i)]);
            let y = match self.f {
                Fast::Exp => exp_v(x),
                Fast::Tanh => tanh_v(x),
                Fast::Gelu => gelu_v(x),
            };
            y.store(&mut self.dst[at::<V>(i)]);
        }

        #[inline(always)]
        fn one(&mut self, i: usize) {
            let x = self.src[i];
            self.dst[i] = match self.f {
                Fast::Exp => exp_fast(x),
                Fast::Tanh => tanh_fast(x),
                Fast::Gelu => gelu_fast(x),
            };
        }
    }

    #[inline(always)]
    fn map<V: Vf32>(f: Fast, src: &[f32], dst: &mut [f32]) {
        let n = dst.len();
        sweep::<V>(&mut Map { f, src: &src[..n], dst }, n);
    }

    #[inline(always)]
    pub(super) fn exp_slice<V: Vf32>(src: &[f32], dst: &mut [f32]) {
        map::<V>(Fast::Exp, src, dst)
    }

    #[inline(always)]
    pub(super) fn tanh_slice<V: Vf32>(src: &[f32], dst: &mut [f32]) {
        map::<V>(Fast::Tanh, src, dst)
    }

    #[inline(always)]
    pub(super) fn gelu_slice<V: Vf32>(src: &[f32], dst: &mut [f32]) {
        map::<V>(Fast::Gelu, src, dst)
    }

    /// `dst += g · gelu'(x)`, the product formed before the add.
    struct GeluGradAcc<'a> {
        dst: &'a mut [f32],
        g: &'a [f32],
        x: &'a [f32],
    }

    impl Elementwise for GeluGradAcc<'_> {
        #[inline(always)]
        fn lanes<V: Vf32>(&mut self, i: usize) {
            let t = V::load(&self.g[at::<V>(i)]).mul(gelu_grad_v(V::load(&self.x[at::<V>(i)])));
            let d = &mut self.dst[at::<V>(i)];
            V::load(d).add(t).store(d);
        }

        #[inline(always)]
        fn one(&mut self, i: usize) {
            self.dst[i] += self.g[i] * gelu_grad_scalar(self.x[i]);
        }
    }

    /// `dst += g * gelu'(x)`, with the product formed as mul-then-add so the
    /// result is bit-identical to the scalar backward loop.
    #[inline(always)]
    pub(super) fn gelu_grad_acc<V: Vf32>(dst: &mut [f32], g: &[f32], x: &[f32]) {
        let n = dst.len();
        sweep::<V>(&mut GeluGradAcc { dst, g: &g[..n], x: &x[..n] }, n);
    }

    /// `dst = a (op) b`.
    struct Binary<'a> {
        op: super::BinOp,
        a: &'a [f32],
        b: &'a [f32],
        dst: &'a mut [f32],
    }

    /// `(op)` on one pair of vectors.
    #[inline(always)]
    fn binary<V: Vf32>(op: super::BinOp, x: V, y: V) -> V {
        match op {
            super::BinOp::Add => x.add(y),
            super::BinOp::Sub => x.sub(y),
            super::BinOp::Mul => x.mul(y),
        }
    }

    impl Elementwise for Binary<'_> {
        #[inline(always)]
        fn lanes<V: Vf32>(&mut self, i: usize) {
            let r = binary(self.op, V::load(&self.a[at::<V>(i)]), V::load(&self.b[at::<V>(i)]));
            r.store(&mut self.dst[at::<V>(i)]);
        }

        #[inline(always)]
        fn one(&mut self, i: usize) {
            self.dst[i] = binary(self.op, F32x1(self.a[i]), F32x1(self.b[i])).0;
        }
    }

    /// `dst += src`.
    struct AddAcc<'a> {
        dst: &'a mut [f32],
        src: &'a [f32],
    }

    impl Elementwise for AddAcc<'_> {
        #[inline(always)]
        fn lanes<V: Vf32>(&mut self, i: usize) {
            let d = &mut self.dst[at::<V>(i)];
            V::load(d).add(V::load(&self.src[at::<V>(i)])).store(d);
        }

        #[inline(always)]
        fn one(&mut self, i: usize) {
            self.dst[i] += self.src[i];
        }
    }

    /// `dst += src` (exact, order-preserving).
    #[inline(always)]
    pub(super) fn add_acc<V: Vf32>(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        sweep::<V>(&mut AddAcc { dst, src: &src[..n] }, n);
    }

    /// `dst += a · x`, `a` broadcast.
    struct Axpy<'a> {
        dst: &'a mut [f32],
        a: f32,
        x: &'a [f32],
    }

    impl Elementwise for Axpy<'_> {
        #[inline(always)]
        fn lanes<V: Vf32>(&mut self, i: usize) {
            let t = V::splat(self.a).mul(V::load(&self.x[at::<V>(i)]));
            let d = &mut self.dst[at::<V>(i)];
            V::load(d).add(t).store(d);
        }

        #[inline(always)]
        fn one(&mut self, i: usize) {
            self.dst[i] += self.a * self.x[i];
        }
    }

    /// `dst += a * x` with mul-then-add per lane (bit-identical to the scalar
    /// loop).
    #[inline(always)]
    pub(super) fn axpy_acc<V: Vf32>(dst: &mut [f32], a: f32, x: &[f32]) {
        let n = dst.len();
        sweep::<V>(&mut Axpy { dst, a, x: &x[..n] }, n);
    }

    /// `dst += a · b`.
    struct MulAcc<'a> {
        dst: &'a mut [f32],
        a: &'a [f32],
        b: &'a [f32],
    }

    impl Elementwise for MulAcc<'_> {
        #[inline(always)]
        fn lanes<V: Vf32>(&mut self, i: usize) {
            let t = V::load(&self.a[at::<V>(i)]).mul(V::load(&self.b[at::<V>(i)]));
            let d = &mut self.dst[at::<V>(i)];
            V::load(d).add(t).store(d);
        }

        #[inline(always)]
        fn one(&mut self, i: usize) {
            self.dst[i] += self.a[i] * self.b[i];
        }
    }

    /// `dst += a * b` element-wise, mul-then-add per lane.
    #[inline(always)]
    pub(super) fn mul_acc<V: Vf32>(dst: &mut [f32], a: &[f32], b: &[f32]) {
        let n = dst.len();
        sweep::<V>(&mut MulAcc { dst, a: &a[..n], b: &b[..n] }, n);
    }

    #[inline(always)]
    pub(super) fn binary_slice<V: Vf32>(op: super::BinOp, a: &[f32], b: &[f32], dst: &mut [f32]) {
        let n = dst.len();
        sweep::<V>(&mut Binary { op, a: &a[..n], b: &b[..n], dst }, n);
    }

    /// `dst = src · c`.
    struct Scale<'a> {
        src: &'a [f32],
        c: f32,
        dst: &'a mut [f32],
    }

    impl Elementwise for Scale<'_> {
        #[inline(always)]
        fn lanes<V: Vf32>(&mut self, i: usize) {
            V::load(&self.src[at::<V>(i)]).mul(V::splat(self.c)).store(&mut self.dst[at::<V>(i)]);
        }

        #[inline(always)]
        fn one(&mut self, i: usize) {
            self.dst[i] = self.src[i] * self.c;
        }
    }

    #[inline(always)]
    pub(super) fn scale_slice<V: Vf32>(src: &[f32], c: f32, dst: &mut [f32]) {
        let n = dst.len();
        sweep::<V>(&mut Scale { src: &src[..n], c, dst }, n);
    }

    // -- row kernels: one reduction tree per row -----------------------------

    #[inline(always)]
    fn row_max<V: RowReduce>(row: &[f32]) -> f32 {
        let mut chunks = row.chunks_exact(V::LANES);
        let mut m = f32::NEG_INFINITY;
        if let Some(first) = chunks.next() {
            m = chunks.by_ref().fold(V::load(first), |vm, c| vm.max(V::load(c))).reduce_max();
        }
        chunks.remainder().iter().fold(m, |m, &x| m.max(x))
    }

    /// Row-wise softmax with lane-parallel fast exponentials; within ≤ 1e-6
    /// of the scalar (libm) oracle.
    #[inline(always)]
    pub(super) fn softmax_row<V: RowReduce>(row: &[f32], out: &mut [f32]) {
        let main = row.len() - row.len() % V::LANES;
        let m = row_max::<V>(row);
        let mv = V::splat(m);
        let (src, src_tail) = row.split_at(main);
        let (dst, dst_tail) = out[..row.len()].split_at_mut(main);
        let mut vsum = V::splat(0.0);
        for (s, d) in src.chunks_exact(V::LANES).zip(dst.chunks_exact_mut(V::LANES)) {
            let e = exp_v(V::load(s).sub(mv));
            e.store(d);
            vsum = vsum.add(e);
        }
        let mut sum = vsum.reduce_add();
        for (&x, d) in src_tail.iter().zip(dst_tail.iter_mut()) {
            let e = exp_fast(x - m);
            *d = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        let iv = V::splat(inv);
        for d in dst.chunks_exact_mut(V::LANES) {
            V::load(d).mul(iv).store(d);
        }
        for d in dst_tail {
            *d *= inv;
        }
    }

    /// Row-wise log-softmax (`x - max - ln Σ exp(x - max)`).
    #[inline(always)]
    pub(super) fn log_softmax_row<V: RowReduce>(row: &[f32], out: &mut [f32]) {
        let main = row.len() - row.len() % V::LANES;
        let m = row_max::<V>(row);
        let mv = V::splat(m);
        let (src, src_tail) = row.split_at(main);
        let (dst, dst_tail) = out[..row.len()].split_at_mut(main);
        let mut vsum = V::splat(0.0);
        for s in src.chunks_exact(V::LANES) {
            vsum = vsum.add(exp_v(V::load(s).sub(mv)));
        }
        let mut sum = vsum.reduce_add();
        for &x in src_tail {
            sum += exp_fast(x - m);
        }
        let log_sum = sum.ln();
        let lv = V::splat(log_sum);
        for (s, d) in src.chunks_exact(V::LANES).zip(dst.chunks_exact_mut(V::LANES)) {
            V::load(s).sub(mv).sub(lv).store(d);
        }
        for (&x, d) in src_tail.iter().zip(dst_tail) {
            *d = x - m - log_sum;
        }
    }

    #[inline(always)]
    fn row_sum<V: RowReduce>(row: &[f32]) -> f32 {
        let chunks = row.chunks_exact(V::LANES);
        let tail = chunks.remainder();
        let s = chunks.fold(V::splat(0.0), |vs, c| vs.add(V::load(c))).reduce_add();
        tail.iter().fold(s, |s, &x| s + x)
    }

    #[inline(always)]
    fn row_var_sum<V: RowReduce>(row: &[f32], mean: f32) -> f32 {
        let mv = V::splat(mean);
        let chunks = row.chunks_exact(V::LANES);
        let tail = chunks.remainder();
        let vs = chunks.fold(V::splat(0.0), |vs, c| {
            let t = V::load(c).sub(mv);
            vs.add(t.mul(t))
        });
        tail.iter().fold(vs.reduce_add(), |s, &x| {
            let t = x - mean;
            s + t * t
        })
    }

    /// `out = gamma · (x − mean) · inv + beta`, `x` read from `row` when
    /// it is given and from `out` itself otherwise.
    struct Normalize<'a> {
        row: Option<&'a [f32]>,
        gamma: &'a [f32],
        beta: &'a [f32],
        mean: f32,
        inv: f32,
        out: &'a mut [f32],
    }

    impl Elementwise for Normalize<'_> {
        #[inline(always)]
        fn lanes<V: Vf32>(&mut self, i: usize) {
            let x = V::load(match self.row {
                Some(row) => &row[at::<V>(i)],
                None => &self.out[at::<V>(i)],
            });
            let (g, b) = (V::load(&self.gamma[at::<V>(i)]), V::load(&self.beta[at::<V>(i)]));
            let (mean, inv) = (V::splat(self.mean), V::splat(self.inv));
            g.mul(x.sub(mean)).mul(inv).add(b).store(&mut self.out[at::<V>(i)]);
        }

        #[inline(always)]
        fn one(&mut self, i: usize) {
            self.lanes::<F32x1>(i);
        }
    }

    /// Row-wise layer norm; mean/variance reductions are lane-reordered
    /// (≤ 1e-6 of the scalar oracle).
    #[inline(always)]
    pub(super) fn layer_norm_row<V: RowReduce>(
        row: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        out: &mut [f32],
    ) {
        let n = row.len();
        let mean = row_sum::<V>(row) / n as f32;
        let var = row_var_sum::<V>(row, mean) / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        let (gamma, beta, out) = (&gamma[..n], &beta[..n], &mut out[..n]);
        sweep::<V>(&mut Normalize { row: Some(row), gamma, beta, mean, inv, out }, n);
    }

    /// Fused `(a + b)` + row-wise layer norm, writing the normalised sum.
    #[inline(always)]
    pub(super) fn add_layer_norm_row<V: RowReduce>(
        a: &[f32],
        b: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        out: &mut [f32],
    ) {
        binary_slice::<V>(super::BinOp::Add, a, b, out);
        let n = out.len();
        let mean = row_sum::<V>(out) / n as f32;
        let var = row_var_sum::<V>(out, mean) / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        let (gamma, beta) = (&gamma[..n], &beta[..n]);
        sweep::<V>(&mut Normalize { row: None, gamma, beta, mean, inv, out }, n);
    }

    // -- matmul microkernel -------------------------------------------------

    /// Depth (`k`) block swept per panel pass; matches the blocked scalar
    /// kernel in `tensor.rs` so both walk identical cache panels.
    const KC: usize = 128;
    /// Column block per panel pass (rhs panel stays L2-resident).
    const NC: usize = 512;
    /// Granularity of the FMA columns: the first `jb − jb % FMA_COLS`
    /// columns of a `jb`-wide panel take one FMA per term, the rest a scalar
    /// multiply then add. Fixed on every backend rather than taken from the
    /// vector width: the two round differently, so the boundary is part of
    /// the product's value. A multiple of every backend's `LANES`.
    pub(super) const FMA_COLS: usize = 16;
    // Every panel but the last is all FMA columns, so the mul-add tail is
    // the last `n % FMA_COLS` columns of the row, whatever `NC` is.
    const _: () = assert!(NC.is_multiple_of(FMA_COLS));

    /// FMA register-tile matmul over one output row band:
    /// `dst[i][j] += Σ_p lhs[i0+i][p] · rhs[p][j]`, with `dst` holding whole
    /// `n`-wide rows and `lhs` terms with a zero coefficient (±0.0) skipped —
    /// the same sparsity/NaN semantics as the scalar blocked kernel, so
    /// `0.0 · inf` never injects NaN. Per output element the `p` sweep is
    /// ascending with one FMA per term on the first `n − n % FMA_COLS`
    /// columns and a scalar mul-add on the rest. That value depends on
    /// neither the row grouping nor `V`: it keeps `Tensor::matmul_tn_acc`'s
    /// staged transpose product bit-identical to the reference
    /// `transpose().matmul()`, and the 8- and 16-lane x86 arms bit-identical
    /// to each other.
    ///
    /// Register tiles are `V::TILE_ROWS` rows × 2 vectors, then 4-, 2- and
    /// 1-row tiles of the same body for the remaining rows. The zero test
    /// runs once per row group and depth block, vectorised: a block without
    /// a zero takes a branch-free FMA loop (the per-term test would skip
    /// nothing there), a block with one keeps the per-term test.
    ///
    /// `lhs` is `[rows_total, k]` with `i0 + dst.len()/n <= rows_total` and
    /// `rhs` is `[k, n]`; a shorter slice panics.
    #[inline(always)]
    pub(super) fn matmul_band<V: FmaLanes>(
        lhs: &[f32],
        k: usize,
        rhs: &[f32],
        n: usize,
        i0: usize,
        dst: &mut [f32],
    ) {
        debug_assert_eq!(FMA_COLS % V::LANES, 0);
        let rows = dst.len() / n;
        let lhs = &lhs[i0 * k..][..rows * k];
        for kk in (0..k).step_by(KC) {
            let kb = KC.min(k - kk);
            for jj in (0..n).step_by(NC) {
                let jb = NC.min(n - jj);
                let jv = jb - jb % FMA_COLS;
                let rhs = &rhs[kk * n..][..kb * n];
                let panel = Panel { lhs: &lhs[kk..], k, rhs, n, jj, kb, jv };
                let dst = &mut dst[jj..];
                let mut r = 0;
                if V::TILE_ROWS >= 8 {
                    r = panel.row_tiles::<V, 8>(r, rows, dst);
                }
                r = panel.row_tiles::<V, 4>(r, rows, dst);
                r = panel.row_tiles::<V, 2>(r, rows, dst);
                panel.row_tiles::<V, 1>(r, rows, dst);
                // Column tail of the panel: scalar mul-add, ascending p.
                for r in 0..rows {
                    let a = panel.lhs_row(r);
                    for (j, d) in dst[r * n..][jv..jb].iter_mut().enumerate() {
                        let b = rhs[jj + jv + j..].iter().step_by(n);
                        let terms = a.iter().zip(b).filter(|&(&a, _)| a != 0.0);
                        *d = terms.fold(*d, |d, (&a, &b)| d + a * b);
                    }
                }
            }
        }
    }

    /// One `kb`-deep, `NC`-wide panel pass of [`matmul_band`]: `lhs` starts
    /// at the band's first row at the panel's depth (rows `k` apart), `rhs`
    /// holds the panel's `kb` whole depth rows (`n` wide), the panel starts
    /// at column `jj` and the `dst` its methods take there (rows `n`
    /// apart), and the FMA tiles cover the first `jv` columns.
    #[derive(Clone, Copy)]
    struct Panel<'a> {
        lhs: &'a [f32],
        k: usize,
        rhs: &'a [f32],
        n: usize,
        jj: usize,
        kb: usize,
        jv: usize,
    }

    impl Panel<'_> {
        /// The panel's `kb` terms of band row `r`.
        #[inline(always)]
        fn lhs_row(&self, r: usize) -> &[f32] {
            &self.lhs[r * self.k..][..self.kb]
        }

        /// Runs `R`-row tiles from row `r` while `R` rows remain; returns the
        /// first row left over.
        #[inline(always)]
        fn row_tiles<V: FmaLanes, const R: usize>(
            &self,
            mut r: usize,
            rows: usize,
            dst: &mut [f32],
        ) -> usize {
            while r + R <= rows {
                let mut a: [&[f32]; R] = [&[]; R];
                for (ri, a) in a.iter_mut().enumerate() {
                    *a = self.lhs_row(r + ri);
                }
                let d = &mut dst[r * self.n..];
                if any_zero::<V>(&a) {
                    self.col_tiles::<V, R, true>(&a, d);
                } else {
                    self.col_tiles::<V, R, false>(&a, d);
                }
                r += R;
            }
            r
        }

        /// The FMA columns of one row group: 2-vector tiles, then (16-lane
        /// vectors only) a one-vector tile for a 16-column remainder.
        #[inline(always)]
        fn col_tiles<V: FmaLanes, const R: usize, const SKIP: bool>(
            &self,
            a: &[&[f32]; R],
            d: &mut [f32],
        ) {
            let mut j = 0;
            while j + 2 * V::LANES <= self.jv {
                tile::<V, R, 2, SKIP>(a, self.rhs, self.jj + j, self.n, &mut d[j..]);
                j += 2 * V::LANES;
            }
            while j < self.jv {
                tile::<V, R, 1, SKIP>(a, self.rhs, self.jj + j, self.n, &mut d[j..]);
                j += V::LANES;
            }
        }
    }

    /// Whether any of the lhs row segments `a` holds a ±0.0.
    #[inline(always)]
    fn any_zero<V: FmaLanes>(a: &[&[f32]]) -> bool {
        let mut mask = 0;
        for row in a {
            let chunks = row.chunks_exact(V::LANES);
            let tail = chunks.remainder();
            for c in chunks {
                mask |= V::load(c).zero_mask();
            }
            for &x in tail {
                mask |= (x == 0.0) as u32;
            }
        }
        mask != 0
    }

    /// One `R`-row × `NV`-vector register tile over the `a[ri].len()` depth
    /// terms: `d[ri][..] += Σ_p a[ri][p] · b[p][c..]` (`b` whole `n`-wide
    /// rows, rows of `d` `n` apart), one FMA per term in ascending `p`; with
    /// `SKIP`, terms whose `a` is ±0.0 are left out. The `a` rows are
    /// equally long.
    #[inline(always)]
    fn tile<V: FmaLanes, const R: usize, const NV: usize, const SKIP: bool>(
        a: &[&[f32]; R],
        b: &[f32],
        c: usize,
        n: usize,
        d: &mut [f32],
    ) {
        let w = NV * V::LANES;
        // The depth loop indexes unchecked: a check per term cost the band
        // 2–5 %. These bounds hold for every term.
        let kb = a[0].len();
        let mut rows: [&[f32]; R] = [&[]; R];
        for (row, a) in rows.iter_mut().zip(a) {
            *row = &a[..kb];
        }
        assert!(w <= n && c <= n - w && b.len() / n >= kb, "tile rhs");
        let mut acc = [[V::splat(0.0); NV]; R];
        for (ri, row) in acc.iter_mut().enumerate() {
            let d = &d[ri * n..][..w];
            for (v, x) in row.iter_mut().enumerate() {
                *x = V::load(&d[v * V::LANES..]);
            }
        }
        for p in 0..kb {
            // SAFETY: every row holds `kb` terms, and the rhs vectors end at
            // `p · n + c + w <= (kb − 1) · n + n <= b.len()`.
            unsafe {
                let mut bv = [V::splat(0.0); NV];
                for (v, x) in bv.iter_mut().enumerate() {
                    *x = load_at(b, p * n + c + v * V::LANES);
                }
                for (row, a) in acc.iter_mut().zip(&rows) {
                    let x = *a.get_unchecked(p);
                    if SKIP && x == 0.0 {
                        continue;
                    }
                    let av = V::splat(x);
                    for (x, &bv) in row.iter_mut().zip(&bv) {
                        *x = av.fma(bv, *x);
                    }
                }
            }
        }
        for (ri, row) in acc.iter().enumerate() {
            let d = &mut d[ri * n..][..w];
            for (v, x) in row.iter().enumerate() {
                x.store(&mut d[v * V::LANES..]);
            }
        }
    }

    // -- the attention tile: query rows in lanes ------------------------------

    /// One head of `softmax(c · Q·Kᵀ) · V` for a run of query rows, with the
    /// rows in the lanes of `NV` vectors (`NV · LANES` rows a tile: 2
    /// vectors, and one for a last run of at most `LANES` rows). `q` and
    /// `out` hold the rows, `k` and `v` the `len` keys, all `dim` wide; the
    /// head is columns `col .. col + head_dim`, and `scale` multiplies the
    /// scores when it is given. Per tile:
    ///
    /// 1. `Qᵀ[p][row]`, gathered into `scratch` (a short last tile repeats
    ///    its last row, so the padding lanes hold no value the rows do not);
    /// 2. `Sᵀ[key][row] = Σ_p q[row][p] · k[key][p]` from broadcasts of K's
    ///    rows, read in place, and the 8 partial maxima on the way;
    /// 3. the softmax down the keys, `exp` in place, then `P = e · (1/Σ)`;
    /// 4. `Oᵀ[c][row] = Σ_key P[key][row] · v[key][c]` from broadcasts of V's
    ///    rows, into the `Qᵀ` slot; then scattered into `out`.
    ///
    /// Each lane replays exactly the operations the row composition
    /// (`matmul_band`, `scale_slice`, `softmax_row` at 8 lanes,
    /// `matmul_band`) applies to its row, so the tile has its bits:
    ///
    /// * both products follow the GEMM band's contract per element — from
    ///   +0, ascending depth, ±0.0 `q` / `P` terms skipped (a lane select),
    ///   one FMA `(q, k, acc)` / `(p, v, acc)` per term, and a multiply then
    ///   add on the last `len % FMA_COLS` keys / `head_dim % FMA_COLS` head
    ///   columns. `P` is in fact never ±0 for a finite row of scores, but a
    ///   row with NaN can drop a larger score from its max and overflow the
    ///   sum to `inf`, so the skip stays;
    /// * the max and the sum take 8 partials, partial `l` over keys
    ///   `≡ l (mod 8)` below `len − len % 8` with the running value first,
    ///   combined by the tree of `F32x8::reduce_max` / `reduce_add`; the
    ///   keys past them follow in order, the max with `f32::max` (NaN
    ///   ignored) and `exp` with the scalar clamp, which keeps a NaN where
    ///   the vector one makes it −87.
    ///
    /// `q` and `out` hold whole rows, `k` and `v` `len ≥ 1` rows, of
    /// `dim ≥ col + head_dim` values, and `scratch` holds
    /// `2 · LANES · (len + head_dim)` values; a shorter slice panics.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn attention_tile<V: LaneSelect>(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        dim: usize,
        col: usize,
        head_dim: usize,
        scale: Option<f32>,
        scratch: &mut [f32],
        out: &mut [f32],
    ) {
        let len = k.len() / dim;
        let rows = q.len() / dim;
        assert!(head_dim <= dim && col <= dim - head_dim, "attention_tile head");
        assert_eq!(v.len(), k.len(), "attention_tile keys");
        let mut r = 0;
        while r < rows {
            let n = (rows - r).min(2 * V::LANES);
            let nv = if n > V::LANES { 2 } else { 1 };
            let (qt, s) = scratch.split_at_mut(nv * V::LANES * head_dim);
            let mut tile =
                Tile { k: &k[col..], v: &v[col..], dim, len, head_dim, scale, qt, s: &mut s[..] };
            let (q, out) = (&q[r * dim + col..], &mut out[r * dim + col..]);
            if nv == 2 {
                tile.run::<V, 2>(q, n, out);
            } else {
                tile.run::<V, 1>(q, n, out);
            }
            r += n;
        }
    }

    /// The probabilities [`attention_tile`] mixes V with: `p[row][key] =
    /// softmax(c · q·kᵀ)[row][key]` for the `rows` query rows of `q` (`p`
    /// is `[rows, len]`), from the same tiles, so with the same bits.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn attention_probs<V: LaneSelect>(
        q: &[f32],
        k: &[f32],
        dim: usize,
        col: usize,
        head_dim: usize,
        scale: Option<f32>,
        scratch: &mut [f32],
        p: &mut [f32],
    ) {
        let len = k.len() / dim;
        let rows = q.len() / dim;
        assert!(head_dim <= dim && col <= dim - head_dim, "attention_probs head");
        assert_eq!(p.len(), len * rows, "attention_probs output");
        let mut r = 0;
        while r < rows {
            let n = (rows - r).min(2 * V::LANES);
            let nv = if n > V::LANES { 2 } else { 1 };
            let w = nv * V::LANES;
            let (qt, s) = scratch.split_at_mut(w * head_dim);
            let mut tile =
                Tile { k: &k[col..], v: &[], dim, len, head_dim, scale, qt, s: &mut s[..] };
            let q = &q[r * dim + col..];
            if nv == 2 {
                tile.probs::<V, 2>(q, n);
            } else {
                tile.probs::<V, 1>(q, n);
            }
            // `Pᵀ` is in the `s` slot: key by key, one lane per row.
            let p = &mut p[r * len..][..n * len];
            for (key, src) in s[..len * w].chunks_exact(w).enumerate() {
                for (row, &x) in p.chunks_exact_mut(len).zip(src) {
                    row[key] = x;
                }
            }
            r += n;
        }
    }

    /// One tile of [`attention_tile`]: `k` and `v` start at the head's first
    /// column of key row 0 (rows `dim` apart), `qt` is the `Qᵀ` / `Oᵀ` slot
    /// (`head_dim` rows of `NV` vectors) and `s` the `Sᵀ` / `P` slot (`len`
    /// rows of `NV` vectors, and possibly more).
    struct Tile<'a> {
        k: &'a [f32],
        v: &'a [f32],
        dim: usize,
        len: usize,
        head_dim: usize,
        scale: Option<f32>,
        qt: &'a mut [f32],
        s: &'a mut [f32],
    }

    /// `((p0 ∘ p4) ∘ (p2 ∘ p6)) ∘ ((p1 ∘ p5) ∘ (p3 ∘ p7))`: the tree in which
    /// `F32x8::reduce_add` / `reduce_max` combine their lanes.
    #[inline(always)]
    fn tree<V: Copy>(p: [V; 8], f: impl Fn(V, V) -> V) -> V {
        f(f(f(p[0], p[4]), f(p[2], p[6])), f(f(p[1], p[5]), f(p[3], p[7])))
    }

    /// Vector `j` of each of eight partials.
    #[inline(always)]
    fn column<V: Copy, const NV: usize>(p: &[[V; NV]; 8], j: usize) -> [V; 8] {
        [p[0][j], p[1][j], p[2][j], p[3][j], p[4][j], p[5][j], p[6][j], p[7][j]]
    }

    /// The `NV` vectors of a `NV · LANES`-wide row.
    #[inline(always)]
    fn load_row<V: FmaLanes, const NV: usize>(row: &[f32]) -> [V; NV] {
        let row = &row[..NV * V::LANES];
        let mut v = [V::splat(0.0); NV];
        for (j, x) in v.iter_mut().enumerate() {
            *x = V::load(&row[j * V::LANES..]);
        }
        v
    }

    impl Tile<'_> {
        /// Mixes `n ≤ NV · LANES` query rows of `q` into `out` (rows `dim`
        /// apart, both from the head's first column).
        #[inline(always)]
        fn run<V: LaneSelect, const NV: usize>(&mut self, q: &[f32], n: usize, out: &mut [f32]) {
            let w = NV * V::LANES;
            if self.probs::<V, NV>(q, n) {
                self.mix::<V, NV, true>();
            } else {
                self.mix::<V, NV, false>();
            }
            // `n <= w`; the clamp tells the compiler `qt[r]` is in bounds.
            for r in 0..n.min(w) {
                let row = &mut out[r * self.dim..][..self.head_dim];
                for (o, qt) in row.iter_mut().zip(self.qt.chunks_exact(w)) {
                    *o = qt[r];
                }
            }
        }

        /// `Pᵀ` of `n ≤ NV · LANES` query rows of `q` into the `s` slot:
        /// `Qᵀ` gathered, then [`Tile::scores`] and [`Tile::softmax`];
        /// returns whether some `P` is ±0.0.
        #[inline(always)]
        fn probs<V: LaneSelect, const NV: usize>(&mut self, q: &[f32], n: usize) -> bool {
            let w = NV * V::LANES;
            let qt = &mut self.qt[..self.head_dim * w];
            // The gather indexes unchecked: a check per element cost the
            // tile 3–5 % at 128 keys.
            let q = &q[..(n - 1) * self.dim + self.head_dim];
            let mut q_zero = 0;
            for (p, qt) in qt.chunks_exact_mut(w).enumerate() {
                for (l, x) in qt.iter_mut().enumerate() {
                    // SAFETY: `p < head_dim`, so the index is below
                    // `(n − 1) · dim + head_dim`, the length of `q`.
                    *x = unsafe { *q.get_unchecked(l.min(n - 1) * self.dim + p) };
                }
                for x in load_row::<V, NV>(qt) {
                    q_zero |= x.zero_mask();
                }
            }
            let maxima = if q_zero != 0 {
                self.scores::<V, NV, true>()
            } else {
                self.scores::<V, NV, false>()
            };
            self.softmax::<V, NV>(maxima)
        }

        /// `Sᵀ`, scaled, into the `s` slot; returns the 8 partial maxima
        /// (`NEG_INFINITY` where no key reached one). `Qᵀ` is gathered.
        #[inline(always)]
        fn scores<V: LaneSelect, const NV: usize, const SKIP: bool>(&mut self) -> [[V; NV]; 8] {
            let mut maxima = [[V::splat(f32::NEG_INFINITY); NV]; 8];
            let fma_end = self.len - self.len % FMA_COLS;
            let mut key = 0;
            if V::TILE_ROWS >= 8 {
                key = self.score_keys::<V, NV, 8, true, SKIP>(key, fma_end, &mut maxima);
            }
            // `fma_end` is a multiple of 16: the FMA keys are whole blocks.
            key = self.score_keys::<V, NV, 4, true, SKIP>(key, fma_end, &mut maxima);
            key = self.score_keys::<V, NV, 4, false, SKIP>(key, self.len, &mut maxima);
            self.score_keys::<V, NV, 1, false, SKIP>(key, self.len, &mut maxima);
            maxima
        }

        /// Runs `K`-key blocks of [`Tile::scores`] from `key` while `K` keys
        /// remain below `end`, with one FMA per term (`FMA`) or a multiply
        /// then add; returns the first key left over. Keys below
        /// `len − len % 8` fold into their partial max.
        #[inline(always)]
        fn score_keys<
            V: LaneSelect,
            const NV: usize,
            const K: usize,
            const FMA: bool,
            const SKIP: bool,
        >(
            &mut self,
            mut key: usize,
            end: usize,
            maxima: &mut [[V; NV]; 8],
        ) -> usize {
            let w = NV * V::LANES;
            let main = self.len - self.len % 8;
            let end = end.min(self.len);
            while key + K <= end {
                let mut acc = [[V::splat(0.0); NV]; K];
                for (p, qt) in (0..self.head_dim).zip(self.qt.chunks_exact(w)) {
                    let qv = load_row::<V, NV>(qt);
                    for (i, acc) in acc.iter_mut().enumerate() {
                        // SAFETY: key `key + i < len` and `p < head_dim`, so
                        // the index is below `(len − 1) · dim + head_dim`,
                        // which `k` holds (asserted in `attention_tile`).
                        let x = unsafe { *self.k.get_unchecked((key + i) * self.dim + p) };
                        let kv = V::splat(x);
                        for (a, &qv) in acc.iter_mut().zip(&qv) {
                            let t = if FMA { qv.fma(kv, *a) } else { a.add(qv.mul(kv)) };
                            *a = if SKIP { qv.where_zero(*a, t) } else { t };
                        }
                    }
                }
                let rows = self.s[key * w..][..K * w].chunks_exact_mut(w);
                for (i, (acc, row)) in acc.iter().zip(rows).enumerate() {
                    for (j, &a) in acc.iter().enumerate() {
                        let s = match self.scale {
                            Some(c) => a.mul(V::splat(c)),
                            None => a,
                        };
                        s.store(&mut row[j * V::LANES..]);
                        if key + i < main {
                            let m = &mut maxima[(key + i) % 8][j];
                            *m = if key + i < 8 { s } else { m.max(s) };
                        }
                    }
                }
                key += K;
            }
            key
        }

        /// The softmax down the keys of the `s` slot, in place, from the
        /// partial maxima; returns whether some `P` is ±0.0. `Sᵀ` is
        /// computed.
        #[inline(always)]
        fn softmax<V: LaneSelect, const NV: usize>(&mut self, maxima: [[V; NV]; 8]) -> bool {
            let w = NV * V::LANES;
            let main = self.len - self.len % 8;
            let s = &mut self.s[..self.len * w];
            let (body, tail) = s.split_at_mut(main * w);
            let mut m = [V::splat(f32::NEG_INFINITY); NV];
            let mut sum = [V::splat(0.0); NV];
            for j in 0..NV {
                if main > 0 {
                    m[j] = tree(column(&maxima, j), V::max);
                }
                for row in tail.chunks_exact(w) {
                    let x = V::load(&row[j * V::LANES..]);
                    m[j] = m[j].where_nan(x, x.max(m[j]));
                }
            }
            let mut partial = [[V::splat(0.0); NV]; 8];
            for block in body.chunks_exact_mut(8 * w) {
                for (row, partial) in block.chunks_exact_mut(w).zip(&mut partial) {
                    for (j, sum) in partial.iter_mut().enumerate() {
                        let x = &mut row[j * V::LANES..];
                        let e = exp_v(V::load(x).sub(m[j]));
                        e.store(x);
                        *sum = sum.add(e);
                    }
                }
            }
            for (j, sum) in sum.iter_mut().enumerate() {
                *sum = tree(column(&partial, j), V::add);
                for row in tail.chunks_exact_mut(w) {
                    let x = &mut row[j * V::LANES..];
                    let d = V::load(x).sub(m[j]);
                    let e = d.where_nan(d, exp_v(d));
                    e.store(x);
                    *sum = sum.add(e);
                }
            }
            let mut inv = [V::splat(1.0); NV];
            for (inv, &sum) in inv.iter_mut().zip(&sum) {
                *inv = inv.div(sum);
            }
            let mut zero = 0;
            for row in s.chunks_exact_mut(w) {
                for (j, &inv) in inv.iter().enumerate() {
                    let x = &mut row[j * V::LANES..];
                    let p = V::load(x).mul(inv);
                    p.store(x);
                    zero |= p.zero_mask();
                }
            }
            zero != 0
        }

        /// `Oᵀ = Pᵀ·V` into the `Qᵀ` slot, head column by head column. `P`
        /// is computed.
        #[inline(always)]
        fn mix<V: LaneSelect, const NV: usize, const SKIP: bool>(&mut self) {
            let fma_end = self.head_dim - self.head_dim % FMA_COLS;
            let mut c = 0;
            if V::TILE_ROWS >= 8 {
                c = self.mix_cols::<V, NV, 8, true, SKIP>(c, fma_end);
            }
            c = self.mix_cols::<V, NV, 4, true, SKIP>(c, fma_end);
            c = self.mix_cols::<V, NV, 4, false, SKIP>(c, self.head_dim);
            self.mix_cols::<V, NV, 1, false, SKIP>(c, self.head_dim);
        }

        /// Runs `C`-column blocks of [`Tile::mix`] from head column `c` while
        /// `C` columns remain below `end`; returns the first column left
        /// over.
        #[inline(always)]
        fn mix_cols<
            V: LaneSelect,
            const NV: usize,
            const C: usize,
            const FMA: bool,
            const SKIP: bool,
        >(
            &mut self,
            mut c: usize,
            end: usize,
        ) -> usize {
            let (w, end) = (NV * V::LANES, end.min(self.head_dim));
            while c + C <= end {
                let mut acc = [[V::splat(0.0); NV]; C];
                for (key, srow) in self.s[..self.len * w].chunks_exact(w).enumerate() {
                    let pv = load_row::<V, NV>(srow);
                    let vr = key * self.dim + c;
                    for (i, acc) in acc.iter_mut().enumerate() {
                        // SAFETY: `key < len` and `c + C <= head_dim`, and `v`
                        // holds `(len − 1) · dim + head_dim` values (asserted
                        // in `attention_tile`).
                        let vv = V::splat(unsafe { *self.v.get_unchecked(vr + i) });
                        for (a, &pv) in acc.iter_mut().zip(&pv) {
                            let t = if FMA { pv.fma(vv, *a) } else { a.add(pv.mul(vv)) };
                            *a = if SKIP { pv.where_zero(*a, t) } else { t };
                        }
                    }
                }
                for (i, acc) in acc.iter().enumerate() {
                    let row = &mut self.qt[(c + i) * w..][..w];
                    for (j, a) in acc.iter().enumerate() {
                        a.store(&mut row[j * V::LANES..]);
                    }
                }
                c += C;
            }
            c
        }
    }

    // -- butterfly pair kernels --------------------------------------------

    /// One block of a butterfly stage on one vector: position `i` couples
    /// `lo[i]` with `hi[i]` through weight `i` of each of `w1..w4`,
    /// mul-then-add.
    struct Pairs<'a> {
        w: [&'a [f32]; 4],
        lo: &'a mut [f32],
        hi: &'a mut [f32],
    }

    impl Pairs<'_> {
        /// The pair at positions `i .. i + U::LANES`.
        #[inline(always)]
        fn apply<U: Vf32>(&mut self, i: usize) {
            let [w1, w2, w3, w4] = self.w;
            let (a, b) = (U::load(&self.lo[at::<U>(i)]), U::load(&self.hi[at::<U>(i)]));
            let (w1, w2) = (U::load(&w1[at::<U>(i)]), U::load(&w2[at::<U>(i)]));
            w1.mul(a).add(w2.mul(b)).store(&mut self.lo[at::<U>(i)]);
            let (w3, w4) = (U::load(&w3[at::<U>(i)]), U::load(&w4[at::<U>(i)]));
            w3.mul(a).add(w4.mul(b)).store(&mut self.hi[at::<U>(i)]);
        }
    }

    impl Elementwise for Pairs<'_> {
        #[inline(always)]
        fn lanes<V: Vf32>(&mut self, i: usize) {
            self.apply::<V>(i);
        }

        #[inline(always)]
        fn one(&mut self, i: usize) {
            self.apply::<F32x1>(i);
        }
    }

    /// One whole butterfly stage on one vector, in place: the block loop
    /// runs inside the vector context so a stage costs a single dispatch.
    /// `w1..w4` hold `pairs` weights, `x` holds `2·pairs` elements, and
    /// `half` is the stage's half-block size (pair `i` of block `b` couples
    /// `x[2bh + i]` with `x[2bh + h + i]`). Mul-then-add per lane with a
    /// scalar tail for `half` below the vector width — bit-identical to the
    /// scalar stage loop.
    #[inline(always)]
    pub(super) fn butterfly_stage_in_place<V: Vf32>(
        half: usize,
        w1: &[f32],
        w2: &[f32],
        w3: &[f32],
        w4: &[f32],
        x: &mut [f32],
    ) {
        let (w1, w2) = (w1.chunks_exact(half), w2.chunks_exact(half));
        let w = w1.zip(w2).zip(w3.chunks_exact(half)).zip(w4.chunks_exact(half));
        for (block, (((w1, w2), w3), w4)) in x.chunks_exact_mut(2 * half).zip(w) {
            let (lo, hi) = block.split_at_mut(half);
            sweep::<V>(&mut Pairs { w: [w1, w2, w3, w4], lo, hi }, half);
        }
    }

    // -- lane-per-row butterfly engine --------------------------------------
    //
    // The kernels below work on `[n][width]` buffers: logical element `i` of
    // `width` independent transforms sits in the contiguous row `i`, so a
    // butterfly pair is two rows, its weights are scalars broadcast across
    // the row, and every stage — `half` 1, 2 and 4 included — is the same
    // vertical vector operation. `rows_to_lanes` / `lanes_to_rows` move a
    // tile of ordinary row-major rows into and out of that layout.
    //
    // The pair operations index unchecked. At the benchmark's hidden 128 a
    // tile's stage is a few hundred vector operations, and slicing per block
    // and per access cost 1.2–1.5× per stage. Instead each op's constructor
    // asserts its buffers against its [`Stage`] once, and [`stage_lanes`]
    // visits only that stage's pairs.

    /// `U::load(&s[i..])`, unchecked.
    ///
    /// # Safety
    ///
    /// `i + U::LANES <= s.len()`.
    #[inline(always)]
    unsafe fn load_at<U: FmaLanes>(s: &[f32], i: usize) -> U {
        // SAFETY: the caller's bound.
        U::load(unsafe { s.get_unchecked(i..i + U::LANES) })
    }

    /// `v.store(&mut d[i..])`, unchecked.
    ///
    /// # Safety
    ///
    /// `i + U::LANES <= d.len()`.
    #[inline(always)]
    unsafe fn store_at<U: FmaLanes>(v: U, d: &mut [f32], i: usize) {
        // SAFETY: the caller's bound.
        v.store(unsafe { d.get_unchecked_mut(i..i + U::LANES) })
    }

    /// Weight `p` of each of four weight slices, broadcast.
    ///
    /// # Safety
    ///
    /// `p` is below the length of every slice.
    #[inline(always)]
    unsafe fn splat4<U: Vf32>([w1, w2, w3, w4]: [&[f32]; 4], p: usize) -> [U; 4] {
        // SAFETY: the caller's bound.
        let [w1, w2, w3, w4] = unsafe {
            [*w1.get_unchecked(p), *w2.get_unchecked(p), *w3.get_unchecked(p), *w4.get_unchecked(p)]
        };
        [U::splat(w1), U::splat(w2), U::splat(w3), U::splat(w4)]
    }

    /// The blocks and pairs of one stage over `[n][width]` buffers: blocks
    /// of `2 · half` rows, pair `i` of the block from row `base` coupling
    /// rows `base + i` and `base + half + i` through weight `i` plus
    /// `block_step` per preceding block (`half` for butterfly weights, which
    /// differ per block; 0 for FFT twiddles, which repeat).
    #[derive(Clone, Copy)]
    struct Stage {
        n: usize,
        half: usize,
        width: usize,
        block_step: usize,
    }

    impl Stage {
        /// Panics unless `half` and `width` are nonzero and, for a nonzero
        /// `n`, `half <= n / 2`. A stage of no rows has no block whatever
        /// its `half`; a last block that `n` cuts short is not a block (the
        /// public entry points assert that `2 · half` divides `n`).
        #[inline(always)]
        fn new(n: usize, half: usize, width: usize, block_step: usize) -> Self {
            assert!(half > 0 && width > 0 && (n == 0 || half <= n / 2), "stage shape");
            let half = if n == 0 { 1 } else { half };
            Stage { n, half, width, block_step }
        }

        /// The values of one `[n][width]` buffer, unless that overflows.
        #[inline(always)]
        fn values(self) -> Option<usize> {
            self.n.checked_mul(self.width)
        }
    }

    /// A butterfly stage's pair operation: the difference between a
    /// butterfly-linear stage, its backward and an FFT stage. Whoever
    /// builds one asserts that its buffers hold the rows `0..n` of its
    /// [`Stage`] and its weights every weight a pair of the stage takes.
    trait PairOp {
        fn stage(&self) -> Stage;
        /// Pair `p` on the `U::LANES` columns from `col` of its rows, which
        /// start at offsets `lo` and `hi`.
        ///
        /// # Safety
        ///
        /// `lo` and `hi` are `width` times the rows of a pair of
        /// [`PairOp::stage`], `p` is its weight, and `col + U::LANES <=
        /// width`.
        unsafe fn apply<U: Vf32>(&mut self, p: usize, lo: usize, hi: usize, col: usize);
    }

    /// Runs every pair of `op`'s stage, each swept across the width in
    /// vectors with an element-wise tail.
    #[inline(always)]
    fn stage_lanes<V: Vf32>(op: &mut impl PairOp) {
        let Stage { n, half, width, block_step } = op.stage();
        let main = width - width % V::LANES;
        let (mut p0, mut base) = (0, 0);
        while base + 2 * half <= n {
            let (mut lo, mut hi) = (base * width, (base + half) * width);
            // SAFETY: pair `p0 + i` of the block from row `base` couples
            // rows `lo / width` and `hi / width`, and every vector ends at
            // `main <= width`.
            unsafe {
                if width == V::LANES {
                    // One vector per row (a tile of rows on the backend's
                    // own width): nothing but the pair operation in the loop.
                    for i in 0..half {
                        op.apply::<V>(p0 + i, lo, hi, 0);
                        lo += V::LANES;
                        hi += V::LANES;
                    }
                } else {
                    for i in 0..half {
                        let mut col = 0;
                        while col < main {
                            op.apply::<V>(p0 + i, lo, hi, col);
                            col += V::LANES;
                        }
                        for col in main..width {
                            op.apply::<F32x1>(p0 + i, lo, hi, col);
                        }
                        lo += width;
                        hi += width;
                    }
                }
            }
            p0 += block_step;
            base += 2 * half;
        }
    }

    /// Butterfly-linear stage: `lo' = w1·lo + w2·hi`, `hi' = w3·lo + w4·hi`,
    /// mul-then-add, written to `dst` and read from `src` (`INTO`) or from
    /// `dst` itself (a stage in place).
    struct Real2x2<'a, const INTO: bool> {
        stage: Stage,
        w: [&'a [f32]; 4],
        src: &'a [f32],
        dst: &'a mut [f32],
    }

    impl<'a, const INTO: bool> Real2x2<'a, INTO> {
        /// The stage with half-block `half` on `[2 · pairs][width]` buffers,
        /// `pairs` weights each; `src` is not read in place.
        #[inline(always)]
        fn new(
            half: usize,
            w: [&'a [f32]; 4],
            src: &'a [f32],
            dst: &'a mut [f32],
            width: usize,
        ) -> Self {
            let pairs = w[0].len();
            let stage = Stage::new(2 * pairs, half, width, half);
            assert!(w.iter().all(|w| w.len() == pairs), "stage weights");
            assert!(stage.values() == Some(dst.len()), "stage rows");
            assert!(!INTO || src.len() == dst.len(), "stage rows");
            Real2x2 { stage, w, src, dst }
        }
    }

    impl<const INTO: bool> PairOp for Real2x2<'_, INTO> {
        #[inline(always)]
        fn stage(&self) -> Stage {
            self.stage
        }

        #[inline(always)]
        unsafe fn apply<U: Vf32>(&mut self, p: usize, lo: usize, hi: usize, col: usize) {
            let (lo, hi) = (lo + col, hi + col);
            // SAFETY: weight `p` is below `n / 2`, the weights' length, and
            // both rows lie below `n`, so both vectors lie inside the `n ·
            // width` values of `src` and `dst`.
            unsafe {
                let [w1, w2, w3, w4] = splat4::<U>(self.w, p);
                let src = if INTO { self.src } else { &*self.dst };
                let (a, b) = (load_at::<U>(src, lo), load_at::<U>(src, hi));
                store_at(w1.mul(a).add(w2.mul(b)), self.dst, lo);
                store_at(w3.mul(a).add(w4.mul(b)), self.dst, hi);
            }
        }
    }

    /// Radix-2 decimation-in-time FFT stage on split planes: `t = w·hi`,
    /// `lo' = lo + t`, `hi' = lo − t`, the complex product spelled as
    /// `re·re − im·im` / `re·im + im·re` with no FMA.
    struct Twiddle<'a> {
        stage: Stage,
        w: [&'a [f32]; 2],
        re: &'a mut [f32],
        im: &'a mut [f32],
    }

    impl PairOp for Twiddle<'_> {
        #[inline(always)]
        fn stage(&self) -> Stage {
            self.stage
        }

        #[inline(always)]
        unsafe fn apply<U: Vf32>(&mut self, p: usize, lo: usize, hi: usize, col: usize) {
            let ([wr, wi], lo, hi) = (self.w, lo + col, hi + col);
            let (re, im) = (&mut *self.re, &mut *self.im);
            // SAFETY: twiddle `p` is below `half`, the twiddles' length, and
            // both rows lie below `n`, so both vectors lie inside the `n ·
            // width` values of each plane.
            unsafe {
                let (wr, wi) = (U::splat(*wr.get_unchecked(p)), U::splat(*wi.get_unchecked(p)));
                let (ar, ai) = (load_at::<U>(re, lo), load_at::<U>(im, lo));
                let (br, bi) = (load_at::<U>(re, hi), load_at::<U>(im, hi));
                let tr = br.mul(wr).sub(bi.mul(wi));
                let ti = br.mul(wi).add(bi.mul(wr));
                store_at(ar.add(tr), re, lo);
                store_at(ai.add(ti), im, lo);
                store_at(ar.sub(tr), re, hi);
                store_at(ai.sub(ti), im, hi);
            }
        }
    }

    /// One butterfly-linear stage over an `[n][width]` buffer, `n = 2 ·
    /// w1.len()`. The four weight slices have equal length `pairs`, `half`
    /// divides `pairs`, and `x.len() == 2 * pairs * width`.
    #[inline(always)]
    pub(super) fn butterfly_stage_lanes<V: Vf32>(
        half: usize,
        w1: &[f32],
        w2: &[f32],
        w3: &[f32],
        w4: &[f32],
        x: &mut [f32],
        width: usize,
    ) {
        stage_lanes::<V>(&mut Real2x2::<false>::new(half, [w1, w2, w3, w4], &[], x, width));
    }

    /// [`butterfly_stage_lanes`] out of place: reads `src`, writes `dst`,
    /// both `2 * pairs * width` long.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn butterfly_stage_lanes_into<V: Vf32>(
        half: usize,
        w1: &[f32],
        w2: &[f32],
        w3: &[f32],
        w4: &[f32],
        src: &[f32],
        dst: &mut [f32],
        width: usize,
    ) {
        stage_lanes::<V>(&mut Real2x2::<true>::new(half, [w1, w2, w3, w4], src, dst, width));
    }

    /// Folds each 16-value row of `src` into one element of `dst` by halves
    /// ([`Vf32::fold16`]), `LANES` rows per step and the rows after the last
    /// full step one lane wide. `src.len() == 16 * dst.len()`.
    #[inline(always)]
    pub(super) fn fold_lanes16<V: Vf32>(src: &[f32], dst: &mut [f32]) {
        let src = &src[..16 * dst.len()];
        let mut d = dst.chunks_exact_mut(V::LANES);
        let mut s = src.chunks_exact(16 * V::LANES);
        for (d, s) in (&mut d).zip(&mut s) {
            V::fold16(s).store(d);
        }
        for (d, s) in d.into_remainder().iter_mut().zip(s.remainder().chunks_exact(16)) {
            *d = F32x1::fold16(s).0;
        }
    }

    /// The reverse of [`Real2x2`] for the butterfly-linear gradients. With
    /// `a`, `b` the pair's forward inputs and `g1`, `g2` the gradients of its
    /// outputs: the four products `g1·a`, `g1·b`, `g2·a`, `g2·b` are added to
    /// the pair's accumulator rows, then `g1' = w1·g1 + w3·g2` and
    /// `g2' = w2·g1 + w4·g2` replace the gradients — mul-then-add.
    ///
    /// `input` and `grad` rows hold `tiles` tiles of `width` lanes side by
    /// side (the stage sees one tile; the op maps its offsets to the row's
    /// first tile and walks the others in order, the accumulators loaded
    /// and stored once). Lanes from `live` on, counted along the row, add
    /// nothing; input rows from `shared` on are read from their first tile.
    struct Real2x2Backward<'a> {
        stage: Stage,
        w: [&'a [f32]; 4],
        input: &'a [f32],
        grad: &'a mut [f32],
        /// `[4][pairs][width]`.
        acc: &'a mut [f32],
        tiles: usize,
        live: usize,
        /// The tiles whose every lane is live.
        full: usize,
        /// `shared · width`: the offset of the first shared row in a tile.
        shared: usize,
    }

    impl PairOp for Real2x2Backward<'_> {
        #[inline(always)]
        fn stage(&self) -> Stage {
            self.stage
        }

        #[inline(always)]
        unsafe fn apply<U: Vf32>(&mut self, p: usize, lo: usize, hi: usize, col: usize) {
            let (width, tiles) = (self.stage.width, self.tiles);
            // Pair `p`'s accumulators at `col`: row `p` of each quarter.
            let (a, k) = (p * width + col, self.acc.len() / 4);
            // How far each input row moves per tile: a shared row's tiles
            // all read its first.
            let step = |x: usize| if x < self.shared { width } else { 0 };
            let (step_lo, step_hi) = (step(lo), step(hi));
            let (lo, hi) = (lo * tiles + col, hi * tiles + col);
            let (input, grad, acc) = (self.input, &mut *self.grad, &mut *self.acc);
            // SAFETY: weight `p` is below `pairs`, the weights' length, and
            // its row of each quarter lies inside the `4 · pairs · width`
            // values of `acc`; both rows lie below `n`, so every tile
            // `< tiles` of them lies inside the `n · tiles · width` values
            // of `input` and `grad`.
            unsafe {
                let [w1, w2, w3, w4] = splat4::<U>(self.w, p);
                let (mut s1, mut s2) = (load_at::<U>(acc, a), load_at::<U>(acc, a + k));
                let (mut s3, mut s4) = (load_at::<U>(acc, a + 2 * k), load_at::<U>(acc, a + 3 * k));
                // The next tile's input and gradient offsets.
                let (mut ilo, mut ihi, mut glo, mut ghi) = (lo, hi, lo, hi);
                // One tile, adding to lanes `..$keep` of the accumulators
                // (to all of them with `None`).
                macro_rules! tile {
                    ($keep:expr) => {{
                        let (a, b) = (load_at::<U>(input, ilo), load_at::<U>(input, ihi));
                        let (g1, g2) = (load_at::<U>(grad, glo), load_at::<U>(grad, ghi));
                        s1 = add_lanes(s1, g1.mul(a), $keep);
                        s2 = add_lanes(s2, g1.mul(b), $keep);
                        s3 = add_lanes(s3, g2.mul(a), $keep);
                        s4 = add_lanes(s4, g2.mul(b), $keep);
                        store_at(w1.mul(g1).add(w3.mul(g2)), grad, glo);
                        store_at(w2.mul(g1).add(w4.mul(g2)), grad, ghi);
                        (ilo, ihi) = (ilo + step_lo, ihi + step_hi);
                        (glo, ghi) = (glo + width, ghi + width);
                    }};
                }
                // The tiles whose every lane is live, then the rest lane by
                // lane.
                for _ in 0..self.full {
                    tile!(None);
                }
                for t in self.full..tiles {
                    tile!(Some(self.live.saturating_sub(t * width + col)));
                }
                store_at(s1, acc, a);
                store_at(s2, acc, a + k);
                store_at(s3, acc, a + 2 * k);
                store_at(s4, acc, a + 3 * k);
            }
        }
    }

    /// `s + p` on lanes `..keep` (all with `None`), `s` on the rest.
    #[inline(always)]
    fn add_lanes<U: Vf32>(s: U, p: U, keep: Option<usize>) -> U {
        match keep {
            None => s.add(p),
            Some(keep) => s.add(p).first_lanes(s, keep),
        }
    }

    /// One butterfly-linear stage backward, `n = 2 · w1.len()`: `input`
    /// holds what the stage saw going forward and `grad` the gradient of its
    /// output on entry and of its input on return, both `[n][tiles ·
    /// width]`; `acc` holds the `[4][pairs][width]` weight-gradient
    /// accumulators, which take the tiles' products in tile order. Lanes
    /// from `live` on add nothing, and input rows `shared..n` are read from
    /// the first tile. The four weight slices have equal length `pairs`,
    /// `half` divides `pairs`, `input.len() == grad.len()` is a nonzero
    /// multiple of `2 * pairs * width`, `shared <= 2 * pairs` and
    /// `acc.len() == 4 * pairs * width`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn butterfly_stage_backward_lanes<V: Vf32>(
        half: usize,
        w1: &[f32],
        w2: &[f32],
        w3: &[f32],
        w4: &[f32],
        input: &[f32],
        grad: &mut [f32],
        acc: &mut [f32],
        width: usize,
        live: usize,
        shared: usize,
    ) {
        let (w, pairs) = ([w1, w2, w3, w4], w1.len());
        let stage = Stage::new(2 * pairs, half, width, half);
        let tile = stage.values().filter(|&tile| tile > 0).expect("stage rows");
        assert!(w.iter().all(|w| w.len() == pairs), "stage weights");
        let tiles = input.len() / tile;
        assert!(tiles * tile == input.len() && grad.len() == input.len(), "stage rows");
        assert!(acc.len() == 2 * tile && shared <= stage.n, "stage accumulators");
        let (full, shared) = ((live / width).min(tiles), shared * width);
        let op = &mut Real2x2Backward { stage, w, input, grad, acc, tiles, live, full, shared };
        stage_lanes::<V>(op);
    }

    /// Every stage (`half` = 1, 2, … `n/2`) of an `n`-point FFT over split
    /// `[n][width]` planes whose rows are already in bit-reversed order.
    /// `tw_re` / `tw_im` are stage-major: the stage with half-size `h` reads
    /// entries `h − 1 .. 2h − 1`. `re.len() == im.len() == n * width` for a
    /// power of two `n`, and both twiddle slices hold at least `n − 1`
    /// entries.
    #[inline(always)]
    pub(super) fn fft_stages_lanes<V: Vf32>(
        tw_re: &[f32],
        tw_im: &[f32],
        re: &mut [f32],
        im: &mut [f32],
        width: usize,
    ) {
        let n = re.len() / width;
        assert!(re.len() == n * width && im.len() == re.len(), "fft planes");
        let mut half = 1;
        while half < n {
            let stage = Stage::new(n, half, width, 0);
            let w = [&tw_re[half - 1..][..half], &tw_im[half - 1..][..half]];
            stage_lanes::<V>(&mut Twiddle { stage, w, re: &mut *re, im: &mut *im });
            half *= 2;
        }
    }

    /// Bin pair `k` of [`fft_real_split_lanes`] on the `U::LANES` columns
    /// from offset `lo` of row `k`: reads `Z[k]` there and `Z[m − k]` at
    /// `src`, writes `X[k]` back and `X[m − k]` to `dst` (first: where the
    /// three are one row, it keeps `X[k]`).
    ///
    /// # Safety
    ///
    /// `lo`, `src` and `dst` plus `U::LANES` are at most `re.len() ==
    /// im.len()`.
    #[inline(always)]
    unsafe fn split_bin<U: Vf32>(
        [re, im]: [&mut [f32]; 2],
        [c, s]: [f32; 2],
        lo: usize,
        src: usize,
        dst: usize,
    ) {
        let (half, c, s) = (U::splat(0.5), U::splat(c), U::splat(s));
        // SAFETY: the caller's bounds.
        unsafe {
            let (zr, zi) = (load_at::<U>(re, lo), load_at::<U>(im, lo));
            let (yr, yi) = (load_at::<U>(re, src), load_at::<U>(im, src));
            let (ar, ai) = (half.mul(zr.add(yr)), half.mul(zi.sub(yi)));
            let (br, bi) = (half.mul(zi.add(yi)), half.mul(yr.sub(zr)));
            let tr = c.mul(br).sub(s.mul(bi));
            let ti = c.mul(bi).add(s.mul(br));
            store_at(ar.sub(tr), re, dst);
            store_at(ti.sub(ai), im, dst);
            store_at(ar.add(tr), re, lo);
            store_at(ai.add(ti), im, lo);
        }
    }

    /// The real-input split: `re`/`im` hold rows `0..m` of `Z = FFT_m(z)`
    /// with `z[j] = x[2j] + i·x[2j+1]`; on return rows `0..=m` hold
    /// `X = FFT_2m(x)` for bins `0..=m` (the other bins are the conjugate
    /// mirror). With `A = (Z[k] + conj Z[m−k]) / 2` and
    /// `B = (Z[k] − conj Z[m−k]) / 2i`, `X[k] = A + w^k·B` and
    /// `X[m−k] = conj(A − w^k·B)`; `tw_re`/`tw_im` hold `w^k = e^{−iπk/m}`.
    /// `re.len() == im.len() == (m + 1) * width` for a power of two `m`, and
    /// both twiddle slices hold at least `m / 2 + 1` entries.
    #[inline(always)]
    pub(super) fn fft_real_split_lanes<V: Vf32>(
        tw_re: &[f32],
        tw_im: &[f32],
        re: &mut [f32],
        im: &mut [f32],
        width: usize,
    ) {
        let rows = re.len() / width;
        assert!(rows >= 2 && re.len() == rows * width && im.len() == re.len(), "split planes");
        let (m, main) = (rows - 1, width - width % V::LANES);
        for k in 0..=m / 2 {
            // Bin 0 pairs with itself and its partner lands in the extra row.
            let (src, dst) = (if k == 0 { 0 } else { (m - k) * width }, (m - k) * width);
            let (lo, tw) = (k * width, [tw_re[k], tw_im[k]]);
            // SAFETY: rows `k`, `m − k` and `m` lie below `m + 1`, and every
            // vector ends at `main <= width`.
            unsafe {
                let mut v = 0;
                while v < main {
                    split_bin::<V>([&mut *re, &mut *im], tw, lo + v, src + v, dst + v);
                    v += V::LANES;
                }
                for v in main..width {
                    split_bin::<F32x1>([&mut *re, &mut *im], tw, lo + v, src + v, dst + v);
                }
            }
        }
    }

    /// Gathers a tile of up to `width` rows into lane layout:
    /// `dst[at(c)·width + r] = src[r·stride + c]` for `r < rows`, `c < cols`,
    /// with `at(c) = perm[c]` (or `c` when `perm` is empty) and zeros in the
    /// lanes `rows..width`. Full tiles on the backend's own width go through
    /// the register transpose. `rows <= width`, `src` holds `rows` rows of
    /// `cols` values at `stride`, `perm` is empty or `cols` long, and every
    /// `at(c) · width + width <= dst.len()`.
    #[inline(always)]
    pub(super) fn rows_to_lanes<V: Vf32>(
        src: &[f32],
        stride: usize,
        rows: usize,
        cols: usize,
        perm: &[usize],
        dst: &mut [f32],
        width: usize,
    ) {
        let at = |c: usize| if perm.is_empty() { c } else { perm[c] };
        let mut c = 0;
        if width == V::LANES && rows == V::LANES {
            while c + V::LANES <= cols {
                let block = V::transpose(&src[c..], stride);
                if perm.is_empty() {
                    let d = &mut dst[c * V::LANES..][..V::LANES * V::LANES];
                    for (v, d) in block.into_iter().zip(d.chunks_exact_mut(V::LANES)) {
                        v.store(d);
                    }
                } else {
                    for (k, v) in block.into_iter().enumerate() {
                        v.store(&mut dst[perm[c + k] * width..]);
                    }
                }
                c += V::LANES;
            }
        } else if width.is_multiple_of(V::LANES) && V::LANES <= rows && rows <= width {
            // Several tiles side by side: the register transpose per group
            // of `LANES` rows, then the rest of those columns' lanes. Each
            // destination row is checked once per column block: a check per
            // store cost the gather 1.5×.
            let (full, dst_rows) = (rows - rows % V::LANES, dst.len() / width);
            while c + V::LANES <= cols {
                let mut at_c = [0; 16];
                for (k, at_c) in at_c.iter_mut().enumerate().take(V::LANES) {
                    assert!(at(c + k) < dst_rows, "rows_to_lanes dst too short");
                    *at_c = at(c + k) * width;
                }
                for g in (0..full).step_by(V::LANES) {
                    let block = V::transpose(&src[g * stride + c..], stride);
                    for (v, &row) in block.into_iter().zip(&at_c) {
                        // SAFETY: `row + width <= dst.len()` (asserted above)
                        // and `g + LANES <= full <= width`.
                        unsafe { store_at(v, dst, row + g) };
                    }
                }
                c += V::LANES;
            }
            for col in 0..c {
                let d = &mut dst[at(col) * width..][..width];
                for (r, d) in d.iter_mut().enumerate().skip(full) {
                    *d = if r < rows { src[r * stride + col] } else { 0.0 };
                }
            }
        }
        for c in c..cols {
            let d = &mut dst[at(c) * width..][..width];
            for (r, d) in d.iter_mut().enumerate() {
                *d = if r < rows { src[r * stride + c] } else { 0.0 };
            }
        }
    }

    /// Scatters a lane-layout tile back to row-major rows with the bias
    /// added on the way: `dst[r·stride + c] = src[c·width + r] + bias[c]`
    /// for `r < rows`, `c < cols`; an empty `bias` adds nothing. `rows <= width`,
    /// `cols * width <= src.len()`, `bias` is empty or `cols` long, and
    /// `dst` holds `rows` rows of `cols` values at `stride`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn lanes_to_rows<V: Vf32>(
        src: &[f32],
        width: usize,
        rows: usize,
        cols: usize,
        bias: &[f32],
        dst: &mut [f32],
        stride: usize,
    ) {
        /// The bias on columns `c .. c + LANES` of one row.
        #[inline(always)]
        fn epilogue<V: Vf32>(v: V, bias: &[f32], c: usize) -> V {
            if bias.is_empty() {
                v
            } else {
                v.add(V::load(&bias[c..]))
            }
        }
        // The register paths store unchecked (a check per store cost the
        // 16-row tile 10–30 %): row `r < rows`, columns `c .. c + LANES <=
        // cols` end at `(rows − 1) · stride + cols <= dst.len()`.
        let end = rows.checked_sub(1).map(|last| last.checked_mul(stride)?.checked_add(cols));
        let fits = end.is_none_or(|end| end.is_some_and(|end| end <= dst.len()));
        assert!(cols <= stride && fits, "lanes_to_rows dst too short");
        let mut c = 0;
        if width == V::LANES {
            while c + V::LANES <= cols {
                let block = V::transpose(&src[c * width..], width);
                for (r, v) in block.into_iter().enumerate().take(rows) {
                    let v = epilogue(v, bias, c);
                    // SAFETY: `r < rows` and `c + LANES <= cols` (above).
                    unsafe { store_at(v, dst, r * stride + c) };
                }
                c += V::LANES;
            }
        } else if width.is_multiple_of(V::LANES) {
            // Several tiles side by side: the register transpose per group
            // of `LANES` rows, a last partial group storing its live rows.
            while c + V::LANES <= cols {
                for g in (0..rows).step_by(V::LANES) {
                    let block = V::transpose(&src[c * width + g..], width);
                    for (k, v) in block.into_iter().enumerate().take(rows - g) {
                        let v = epilogue(v, bias, c);
                        // SAFETY: `g + k < rows` and `c + LANES <= cols`.
                        unsafe { store_at(v, dst, (g + k) * stride + c) };
                    }
                }
                c += V::LANES;
            }
        }
        for c in c..cols {
            for r in 0..rows {
                let y = src[c * width + r];
                dst[r * stride + c] = if bias.is_empty() { y } else { y + bias[c] };
            }
        }
    }

    // -- lane-layout epilogues ----------------------------------------------
    //
    // What a butterfly FFN block does between and after its stages, on the
    // `[n][width]` tile the stages leave: a bias (and GELU) per feature row,
    // and the residual layer norm per lane, so a tile goes back to rows once.

    /// `x = act(x + bias)` on one feature row of a lane tile.
    struct BiasAct<'a> {
        row: &'a mut [f32],
        bias: f32,
        gelu: bool,
    }

    impl Elementwise for BiasAct<'_> {
        #[inline(always)]
        fn lanes<V: Vf32>(&mut self, i: usize) {
            let d = &mut self.row[at::<V>(i)];
            let y = V::load(d).add(V::splat(self.bias));
            (if self.gelu { gelu_v(y) } else { y }).store(d);
        }

        #[inline(always)]
        fn one(&mut self, i: usize) {
            self.lanes::<F32x1>(i);
        }
    }

    /// `x[c][r] = act(x[c][r] + bias[c])` over an `[n][width]` buffer,
    /// `n = bias.len()`, `act` GELU or the identity.
    #[inline(always)]
    pub(super) fn bias_gelu_lanes<V: Vf32>(x: &mut [f32], bias: &[f32], gelu: bool, width: usize) {
        for (row, &bias) in x.chunks_exact_mut(width).zip(bias) {
            sweep::<V>(&mut BiasAct { row, bias, gelu }, width);
        }
    }

    /// `b = layer_norm(a + b)` in every lane of two `[n][width]` buffers,
    /// `n = gamma.len()`: lane `r` holds one row, and gets the bits the
    /// AVX2 backend's [`add_layer_norm_row`] gives it. The sum and the
    /// squared deviations each run as eight partial sums over the whole
    /// groups of eight features, combined in `F32x8::reduce_add`'s
    /// [`tree`], with the `n % 8` features after them folded in one by one.
    #[inline(always)]
    pub(super) fn add_layer_norm_lanes<V: Vf32>(
        a: &[f32],
        b: &mut [f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        width: usize,
    ) {
        let main = width - width % V::LANES;
        let mut col = 0;
        while col < main {
            norm_lanes::<V>(a, b, gamma, beta, eps, width, col);
            col += V::LANES;
        }
        for col in main..width {
            norm_lanes::<F32x1>(a, b, gamma, beta, eps, width, col);
        }
    }

    /// [`add_layer_norm_lanes`] on the `U::LANES` lanes from `col`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn norm_lanes<U: Vf32>(
        a: &[f32],
        b: &mut [f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        width: usize,
        col: usize,
    ) {
        let n = gamma.len();
        let groups = n - n % 8;
        let at = |c: usize| c * width + col;
        let mut p = [U::splat(0.0); 8];
        for g in (0..groups).step_by(8) {
            for (j, p) in p.iter_mut().enumerate() {
                let d = &mut b[at(g + j)..];
                let x = U::load(&a[at(g + j)..]).add(U::load(d));
                x.store(d);
                *p = p.add(x);
            }
        }
        let mut sum = tree(p, U::add);
        for c in groups..n {
            let d = &mut b[at(c)..];
            let x = U::load(&a[at(c)..]).add(U::load(d));
            x.store(d);
            sum = sum.add(x);
        }
        let count = U::splat(n as f32);
        let mean = sum.div(count);
        let deviation = |c: usize| U::load(&b[at(c)..]).sub(mean);
        let mut p = [U::splat(0.0); 8];
        for g in (0..groups).step_by(8) {
            for (j, p) in p.iter_mut().enumerate() {
                let t = deviation(g + j);
                *p = p.add(t.mul(t));
            }
        }
        let mut var = tree(p, U::add);
        for c in groups..n {
            let t = deviation(c);
            var = var.add(t.mul(t));
        }
        let inv = U::splat(1.0).div(var.div(count).add(U::splat(eps)).sqrt());
        for (c, (&g, &beta)) in gamma.iter().zip(beta).enumerate() {
            let d = &mut b[at(c)..];
            let y = U::splat(g).mul(U::load(d).sub(mean)).mul(inv).add(U::splat(beta));
            y.store(d);
        }
    }
}

// ---------------------------------------------------------------------------
// x86_64 AVX2+FMA backend.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{kernels, BinOp, FmaLanes, LaneSelect, RowReduce, Vf32, VnniPack};
    use core::arch::x86_64::*;

    // "AVX is enabled" in the lane impls' `SAFETY:` comments is the module
    // docs' condition: a lane type is only used inside a `#[target_feature]`
    // entry point reached after runtime detection.

    /// Eight `f32` lanes in one AVX register.
    #[derive(Clone, Copy)]
    pub(super) struct F32x8(__m256);

    impl FmaLanes for F32x8 {
        const LANES: usize = 8;

        #[inline(always)]
        fn load(s: &[f32]) -> Self {
            let s = &s[..8];
            // SAFETY: `s` holds 8 values; AVX is enabled (see above).
            F32x8(unsafe { _mm256_loadu_ps(s.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, d: &mut [f32]) {
            let d = &mut d[..8];
            // SAFETY: `d` holds 8 values; AVX is enabled.
            unsafe { _mm256_storeu_ps(d.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn splat(x: f32) -> Self {
            // SAFETY: AVX is enabled.
            F32x8(unsafe { _mm256_set1_ps(x) })
        }

        #[inline(always)]
        fn fma(self, m: Self, a: Self) -> Self {
            // SAFETY: FMA is enabled.
            F32x8(unsafe { _mm256_fmadd_ps(self.0, m.0, a.0) })
        }

        #[inline(always)]
        fn zero_mask(self) -> u32 {
            // SAFETY: AVX is enabled.
            unsafe {
                let eq = _mm256_cmp_ps::<_CMP_EQ_OQ>(self.0, _mm256_setzero_ps());
                _mm256_movemask_ps(eq) as u32
            }
        }
    }

    impl Vf32 for F32x8 {
        type Narrow = Self;

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX is enabled.
            F32x8(unsafe { _mm256_add_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: AVX is enabled.
            F32x8(unsafe { _mm256_sub_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: AVX is enabled.
            F32x8(unsafe { _mm256_mul_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: AVX is enabled.
            F32x8(unsafe { _mm256_div_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn sqrt(self) -> Self {
            // SAFETY: AVX is enabled.
            F32x8(unsafe { _mm256_sqrt_ps(self.0) })
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: AVX is enabled.
            F32x8(unsafe { _mm256_max_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn min(self, o: Self) -> Self {
            // SAFETY: AVX is enabled.
            F32x8(unsafe { _mm256_min_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn pow2i(self) -> Self {
            // SAFETY: AVX2 is enabled.
            unsafe {
                let k = _mm256_cvtps_epi32(self.0);
                let bits = _mm256_slli_epi32(_mm256_add_epi32(k, _mm256_set1_epi32(127)), 23);
                F32x8(_mm256_castsi256_ps(bits))
            }
        }

        #[inline(always)]
        fn first_lanes(self, other: Self, n: usize) -> Self {
            // SAFETY: AVX2 is enabled.
            unsafe {
                let n = _mm256_set1_epi32(n.min(8) as i32);
                let keep = _mm256_cmpgt_epi32(n, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
                F32x8(_mm256_blendv_ps(other.0, self.0, _mm256_castsi256_ps(keep)))
            }
        }

        type Block = [Self; 8];

        /// Rows `r` and `r + 4` share one register (128-bit halves), so the
        /// unpack/shuffle pairs below finish the transpose inside the
        /// 128-bit lanes: 16 shuffles per block, no cross-lane permute.
        #[inline(always)]
        fn transpose(src: &[f32], stride: usize) -> [Self; 8] {
            let rows = row_slices::<8>(src, stride);
            let [c0, c1, c2, c3] = transpose_8x4(&rows, 0);
            let [c4, c5, c6, c7] = transpose_8x4(&rows, 4);
            [c0, c1, c2, c3, c4, c5, c6, c7]
        }
    }

    impl RowReduce for F32x8 {
        #[inline(always)]
        fn reduce_add(self) -> f32 {
            // SAFETY: AVX is enabled.
            unsafe {
                let hi = _mm256_extractf128_ps(self.0, 1);
                let lo = _mm256_castps256_ps128(self.0);
                let s = _mm_add_ps(lo, hi);
                let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
                let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
                _mm_cvtss_f32(s)
            }
        }

        #[inline(always)]
        fn reduce_max(self) -> f32 {
            // SAFETY: AVX is enabled.
            unsafe {
                let hi = _mm256_extractf128_ps(self.0, 1);
                let lo = _mm256_castps256_ps128(self.0);
                let s = _mm_max_ps(lo, hi);
                let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
                let s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
                _mm_cvtss_f32(s)
            }
        }
    }

    impl LaneSelect for F32x8 {
        #[inline(always)]
        fn where_zero(self, yes: Self, no: Self) -> Self {
            // SAFETY: AVX is enabled.
            unsafe {
                let zero = _mm256_cmp_ps::<_CMP_EQ_OQ>(self.0, _mm256_setzero_ps());
                F32x8(_mm256_blendv_ps(no.0, yes.0, zero))
            }
        }

        #[inline(always)]
        fn where_nan(self, yes: Self, no: Self) -> Self {
            // SAFETY: AVX is enabled.
            unsafe {
                let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(self.0, self.0);
                F32x8(_mm256_blendv_ps(no.0, yes.0, nan))
            }
        }
    }

    /// The `N` rows `src[r * stride..][..N]` of a block to transpose;
    /// panics when `src` ends before the last row. One bound for the block:
    /// a check per row cost the 16-row tile transposes 1.4–1.7×.
    #[inline(always)]
    fn row_slices<const N: usize>(src: &[f32], stride: usize) -> [&[f32]; N] {
        // `stride <= src.len()` keeps `(N − 1) · stride` from overflowing:
        // an `f32` slice holds fewer than `usize::MAX / 64` values.
        let fits = stride <= src.len() && (N - 1) * stride + N <= src.len();
        assert!(fits, "transpose block out of range");
        let mut rows: [&[f32]; N] = [&[]; N];
        for (r, row) in rows.iter_mut().enumerate() {
            // SAFETY: `r * stride + N <= (N - 1) * stride + N <= src.len()`.
            *row = unsafe { src.get_unchecked(r * stride..r * stride + N) };
        }
        rows
    }

    /// Columns `c..c + 4` of the eight `rows`, one column per vector.
    #[inline(always)]
    fn transpose_8x4(rows: &[&[f32]; 8], c: usize) -> [F32x8; 4] {
        let (r0, r1) = (
            load_rows_r_r4(&rows[0][c..], &rows[4][c..]),
            load_rows_r_r4(&rows[1][c..], &rows[5][c..]),
        );
        let (r2, r3) = (
            load_rows_r_r4(&rows[2][c..], &rows[6][c..]),
            load_rows_r_r4(&rows[3][c..], &rows[7][c..]),
        );
        // SAFETY: AVX is enabled.
        unsafe {
            let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
            let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
            [
                F32x8(_mm256_shuffle_ps::<0x44>(t0, t2)),
                F32x8(_mm256_shuffle_ps::<0xEE>(t0, t2)),
                F32x8(_mm256_shuffle_ps::<0x44>(t1, t3)),
                F32x8(_mm256_shuffle_ps::<0xEE>(t1, t3)),
            ]
        }
    }

    /// Four values of `lo` in the low half, of `hi` in the high half.
    #[inline(always)]
    fn load_rows_r_r4(lo: &[f32], hi: &[f32]) -> __m256 {
        let (lo, hi) = (&lo[..4], &hi[..4]);
        // SAFETY: `lo` and `hi` hold 4 values each; AVX is enabled.
        unsafe {
            let (lo, hi) = (_mm_loadu_ps(lo.as_ptr()), _mm_loadu_ps(hi.as_ptr()));
            _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi)
        }
    }

    /// Whether the lane-wise kernels run 16 lanes wide: the CPU has
    /// `avx512f` (std caches the probe).
    #[inline]
    pub(super) fn wide() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    macro_rules! avx2_entry {
        ($(fn $name:ident($($arg:ident: $ty:ty),* $(,)?);)*) => {
            $(
                /// AVX2+FMA instantiation of the generic kernel.
                #[target_feature(enable = "avx2,fma")]
                #[allow(clippy::too_many_arguments)]
                pub(crate) fn $name($($arg: $ty),*) {
                    kernels::$name::<F32x8>($($arg),*)
                }
            )*
        };
    }

    // The row reductions: 8 lanes on every x86 CPU, their reduction tree is
    // part of their value.
    avx2_entry! {
        fn softmax_row(row: &[f32], out: &mut [f32]);
        fn log_softmax_row(row: &[f32], out: &mut [f32]);
        fn layer_norm_row(row: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]);
        fn add_layer_norm_row(
            a: &[f32],
            b: &[f32],
            gamma: &[f32],
            beta: &[f32],
            eps: f32,
            out: &mut [f32],
        );
    }

    /// The one dispatch rule of the kernels whose lanes never meet:
    /// `f32x8::$name` and `f32x16::$name` instantiate the generic kernel at
    /// each width, and `$name` takes the 16-lane one where [`wide`] holds
    /// and so does the kernel's `if` condition — a kernel that takes a tile
    /// `width` runs 16 lanes only on a multiple of 16. Both instantiations
    /// give the same bits.
    macro_rules! lane_entry {
        ($(fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(if $cond:expr)?;)*) => {
            $(
                /// The AVX2 backend's instantiation of the generic kernel:
                /// 16 lanes wide where the CPU has `avx512f`, else 8.
                #[target_feature(enable = "avx2,fma")]
                #[allow(clippy::too_many_arguments)]
                pub(crate) fn $name($($arg: $ty),*) {
                    if wide() $(&& $cond)? {
                        // SAFETY: `wide()` detected avx512f.
                        unsafe { f32x16::$name($($arg),*) }
                    } else {
                        f32x8::$name($($arg),*)
                    }
                }
            )*

            /// The 8-lane instantiations.
            pub(super) mod f32x8 {
                use super::{kernels, BinOp, F32x8};
                $(
                    /// 8-lane instantiation of the generic kernel.
                    #[target_feature(enable = "avx2,fma")]
                    #[allow(clippy::too_many_arguments)]
                    pub(crate) fn $name($($arg: $ty),*) {
                        kernels::$name::<F32x8>($($arg),*)
                    }
                )*
            }

            /// The 16-lane instantiations.
            pub(super) mod f32x16 {
                use super::{kernels, BinOp, F32x16};
                $(
                    /// 16-lane instantiation of the generic kernel.
                    #[target_feature(enable = "avx512f,avx2,fma")]
                    #[allow(clippy::too_many_arguments)]
                    pub(crate) fn $name($($arg: $ty),*) {
                        kernels::$name::<F32x16>($($arg),*)
                    }
                )*
            }
        };
    }

    lane_entry! {
        fn exp_slice(src: &[f32], dst: &mut [f32]);
        fn tanh_slice(src: &[f32], dst: &mut [f32]);
        fn gelu_slice(src: &[f32], dst: &mut [f32]);
        fn gelu_grad_acc(dst: &mut [f32], g: &[f32], x: &[f32]);
        fn add_acc(dst: &mut [f32], src: &[f32]);
        fn axpy_acc(dst: &mut [f32], a: f32, x: &[f32]);
        fn mul_acc(dst: &mut [f32], a: &[f32], b: &[f32]);
        fn binary_slice(op: BinOp, a: &[f32], b: &[f32], dst: &mut [f32]);
        fn scale_slice(src: &[f32], c: f32, dst: &mut [f32]);
        fn matmul_band(lhs: &[f32], k: usize, rhs: &[f32], n: usize, i0: usize, dst: &mut [f32]);
        fn butterfly_stage_in_place(
            half: usize,
            w1: &[f32],
            w2: &[f32],
            w3: &[f32],
            w4: &[f32],
            x: &mut [f32],
        );
        fn butterfly_stage_lanes(
            half: usize,
            w1: &[f32],
            w2: &[f32],
            w3: &[f32],
            w4: &[f32],
            x: &mut [f32],
            width: usize,
        ) if width.is_multiple_of(16);
        fn butterfly_stage_lanes_into(
            half: usize,
            w1: &[f32],
            w2: &[f32],
            w3: &[f32],
            w4: &[f32],
            src: &[f32],
            dst: &mut [f32],
            width: usize,
        ) if width.is_multiple_of(16);
        fn fold_lanes16(src: &[f32], dst: &mut [f32]);
        fn butterfly_stage_backward_lanes(
            half: usize,
            w1: &[f32],
            w2: &[f32],
            w3: &[f32],
            w4: &[f32],
            input: &[f32],
            grad: &mut [f32],
            acc: &mut [f32],
            width: usize,
            live: usize,
            shared: usize,
        ) if width.is_multiple_of(16);
        fn fft_stages_lanes(
            tw_re: &[f32],
            tw_im: &[f32],
            re: &mut [f32],
            im: &mut [f32],
            width: usize,
        ) if width.is_multiple_of(16);
        fn fft_real_split_lanes(
            tw_re: &[f32],
            tw_im: &[f32],
            re: &mut [f32],
            im: &mut [f32],
            width: usize,
        ) if width.is_multiple_of(16);
        fn rows_to_lanes(
            src: &[f32],
            stride: usize,
            rows: usize,
            cols: usize,
            perm: &[usize],
            dst: &mut [f32],
            width: usize,
        ) if width.is_multiple_of(16);
        fn lanes_to_rows(
            src: &[f32],
            width: usize,
            rows: usize,
            cols: usize,
            bias: &[f32],
            dst: &mut [f32],
            stride: usize,
        ) if width.is_multiple_of(16);
        fn bias_gelu_lanes(x: &mut [f32], bias: &[f32], gelu: bool, width: usize)
            if width.is_multiple_of(16);
        fn add_layer_norm_lanes(
            a: &[f32],
            b: &mut [f32],
            gamma: &[f32],
            beta: &[f32],
            eps: f32,
            width: usize,
        ) if width.is_multiple_of(16);
        fn attention_tile(
            q: &[f32],
            k: &[f32],
            v: &[f32],
            dim: usize,
            col: usize,
            head_dim: usize,
            scale: Option<f32>,
            scratch: &mut [f32],
            out: &mut [f32],
        );
        fn attention_probs(
            q: &[f32],
            k: &[f32],
            dim: usize,
            col: usize,
            head_dim: usize,
            scale: Option<f32>,
            scratch: &mut [f32],
            p: &mut [f32],
        );
    }

    /// Sixteen `f32` lanes in one AVX-512 register, the width of every
    /// kernel whose lanes never meet where the CPU has `avx512f`. The GEMM
    /// runs 8-row × 2-vector tiles on it (16 of the 32 zmm registers
    /// accumulating). It implements no [`RowReduce`]: a
    /// wider reduction tree would change the row kernels' bits.
    #[derive(Clone, Copy)]
    pub(super) struct F32x16(__m512);

    impl FmaLanes for F32x16 {
        const LANES: usize = 16;
        const TILE_ROWS: usize = 8;

        #[inline(always)]
        fn load(s: &[f32]) -> Self {
            let s = &s[..16];
            // SAFETY: `s` holds 16 values; AVX-512F is enabled.
            F32x16(unsafe { _mm512_loadu_ps(s.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, d: &mut [f32]) {
            let d = &mut d[..16];
            // SAFETY: `d` holds 16 values; AVX-512F is enabled.
            unsafe { _mm512_storeu_ps(d.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn splat(x: f32) -> Self {
            // SAFETY: AVX-512F is enabled.
            F32x16(unsafe { _mm512_set1_ps(x) })
        }

        #[inline(always)]
        fn fma(self, m: Self, a: Self) -> Self {
            // SAFETY: AVX-512F is enabled.
            F32x16(unsafe { _mm512_fmadd_ps(self.0, m.0, a.0) })
        }

        #[inline(always)]
        fn zero_mask(self) -> u32 {
            // SAFETY: AVX-512F is enabled.
            unsafe { _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(self.0, _mm512_setzero_ps()) as u32 }
        }
    }

    impl Vf32 for F32x16 {
        type Narrow = F32x8;

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX-512F is enabled.
            F32x16(unsafe { _mm512_add_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: AVX-512F is enabled.
            F32x16(unsafe { _mm512_sub_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: AVX-512F is enabled.
            F32x16(unsafe { _mm512_mul_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: AVX-512F is enabled.
            F32x16(unsafe { _mm512_div_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn sqrt(self) -> Self {
            // SAFETY: AVX-512F is enabled.
            F32x16(unsafe { _mm512_sqrt_ps(self.0) })
        }

        /// `vmaxps`: a NaN in either operand yields `o`, as on [`F32x8`].
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: AVX-512F is enabled.
            F32x16(unsafe { _mm512_max_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn min(self, o: Self) -> Self {
            // SAFETY: AVX-512F is enabled.
            F32x16(unsafe { _mm512_min_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn pow2i(self) -> Self {
            // SAFETY: AVX-512F is enabled.
            unsafe {
                let k = _mm512_cvtps_epi32(self.0);
                let bits = _mm512_slli_epi32::<23>(_mm512_add_epi32(k, _mm512_set1_epi32(127)));
                F32x16(_mm512_castsi512_ps(bits))
            }
        }

        #[inline(always)]
        fn first_lanes(self, other: Self, n: usize) -> Self {
            let keep = if n >= 16 { u16::MAX } else { (1u16 << n) - 1 };
            // SAFETY: AVX-512F is enabled.
            F32x16(unsafe { _mm512_mask_blend_ps(keep, other.0, self.0) })
        }

        type Block = [Self; 16];

        /// Four 16×4 blocks, each built like [`transpose_8x4`]'s 8×4 one.
        #[inline(always)]
        fn transpose(src: &[f32], stride: usize) -> [Self; 16] {
            let rows = row_slices::<16>(src, stride);
            let [c0, c1, c2, c3] = transpose_16x4(&rows, 0);
            let [c4, c5, c6, c7] = transpose_16x4(&rows, 4);
            let [c8, c9, c10, c11] = transpose_16x4(&rows, 8);
            let [c12, c13, c14, c15] = transpose_16x4(&rows, 12);
            [c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15]
        }

        /// The halving fold on a shuffle network: each level pairs two
        /// registers, gathers the lower halves of their live sums into one
        /// and the upper halves into another, and adds the two — 30
        /// shuffles for sixteen rows where the transpose takes 80. The
        /// last permute puts row `r` in lane `r`.
        #[inline(always)]
        fn fold16(src: &[f32]) -> Self {
            let src = &src[..256];
            let mut v = [Self::splat(0.0); 16];
            for (v, row) in v.iter_mut().zip(src.chunks_exact(16)) {
                *v = Self::load(row);
            }
            // SAFETY: AVX-512F is enabled.
            unsafe {
                let zero = _mm512_setzero_ps();
                // Quarters of 128 bits: rows 2i, 2i + 1, sums `p[k] + p[k + 8]`.
                let mut w = [zero; 8];
                for (i, w) in w.iter_mut().enumerate() {
                    let (a, b) = (v[2 * i].0, v[2 * i + 1].0);
                    let lo = _mm512_shuffle_f32x4::<0x44>(a, b);
                    let hi = _mm512_shuffle_f32x4::<0xEE>(a, b);
                    *w = _mm512_add_ps(lo, hi);
                }
                // Quarter m: row 4j + m, sums `q[k] + q[k + 4]`.
                let mut x = [zero; 4];
                for (j, x) in x.iter_mut().enumerate() {
                    let (a, b) = (w[2 * j], w[2 * j + 1]);
                    let lo = _mm512_shuffle_f32x4::<0x88>(a, b);
                    let hi = _mm512_shuffle_f32x4::<0xDD>(a, b);
                    *x = _mm512_add_ps(lo, hi);
                }
                // Quarter m: rows m and 4 + m (8 + m and 12 + m), `r[k] + r[k + 2]`.
                let mut y = [zero; 2];
                for (j, y) in y.iter_mut().enumerate() {
                    let (a, b) = (x[2 * j], x[2 * j + 1]);
                    let lo = _mm512_shuffle_ps::<0x44>(a, b);
                    let hi = _mm512_shuffle_ps::<0xEE>(a, b);
                    *y = _mm512_add_ps(lo, hi);
                }
                // Lane 4m + t: row 4t + m, `s[0] + s[1]`.
                let lo = _mm512_shuffle_ps::<0x88>(y[0], y[1]);
                let hi = _mm512_shuffle_ps::<0xDD>(y[0], y[1]);
                let z = _mm512_add_ps(lo, hi);
                let order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
                F32x16(_mm512_permutexvar_ps(order, z))
            }
        }
    }

    impl LaneSelect for F32x16 {
        #[inline(always)]
        fn where_zero(self, yes: Self, no: Self) -> Self {
            // SAFETY: AVX-512F is enabled.
            unsafe {
                let zero = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(self.0, _mm512_setzero_ps());
                F32x16(_mm512_mask_blend_ps(zero, no.0, yes.0))
            }
        }

        #[inline(always)]
        fn where_nan(self, yes: Self, no: Self) -> Self {
            // SAFETY: AVX-512F is enabled.
            unsafe {
                let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(self.0, self.0);
                F32x16(_mm512_mask_blend_ps(nan, no.0, yes.0))
            }
        }
    }

    /// Columns `c..c + 4` of the sixteen `rows`, one column per vector.
    /// Rows `r`, `r + 4`, `r + 8` and `r + 12` share one register (one per
    /// 128-bit quarter), so the unpack/shuffle pairs finish the transpose
    /// inside the quarters, with no cross-lane permute.
    #[inline(always)]
    fn transpose_16x4(rows: &[&[f32]; 16], c: usize) -> [F32x16; 4] {
        let q =
            |r: usize| [&rows[r][c..], &rows[r + 4][c..], &rows[r + 8][c..], &rows[r + 12][c..]];
        let (r0, r1) = (load_rows_quarters(q(0)), load_rows_quarters(q(1)));
        let (r2, r3) = (load_rows_quarters(q(2)), load_rows_quarters(q(3)));
        // SAFETY: AVX-512F is enabled.
        unsafe {
            let (t0, t1) = (_mm512_unpacklo_ps(r0, r1), _mm512_unpackhi_ps(r0, r1));
            let (t2, t3) = (_mm512_unpacklo_ps(r2, r3), _mm512_unpackhi_ps(r2, r3));
            [
                F32x16(_mm512_shuffle_ps::<0x44>(t0, t2)),
                F32x16(_mm512_shuffle_ps::<0xEE>(t0, t2)),
                F32x16(_mm512_shuffle_ps::<0x44>(t1, t3)),
                F32x16(_mm512_shuffle_ps::<0xEE>(t1, t3)),
            ]
        }
    }

    /// Four values of each of `q` in the four 128-bit quarters, in order.
    #[inline(always)]
    fn load_rows_quarters(q: [&[f32]; 4]) -> __m512 {
        let [q0, q1, q2, q3] = q;
        let (q0, q1, q2, q3) = (&q0[..4], &q1[..4], &q2[..4], &q3[..4]);
        // SAFETY: each quarter slice holds 4 values; AVX-512F is enabled.
        unsafe {
            let v = _mm512_castps128_ps512(_mm_loadu_ps(q0.as_ptr()));
            let v = _mm512_insertf32x4::<1>(v, _mm_loadu_ps(q1.as_ptr()));
            let v = _mm512_insertf32x4::<2>(v, _mm_loadu_ps(q2.as_ptr()));
            _mm512_insertf32x4::<3>(v, _mm_loadu_ps(q3.as_ptr()))
        }
    }

    // -- int8 quantized kernels (PR 5) ----------------------------------

    /// Horizontal sum of the eight `i32` lanes (exact: integer adds).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum_epi32(v: __m256i) -> i32 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        _mm_cvtsi128_si32(s)
    }

    /// The first 32 bytes of `s`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_i8x32(s: &[i8]) -> __m256i {
        let s = &s[..32];
        // SAFETY: `s` holds 32 bytes.
        unsafe { _mm256_loadu_si256(s.as_ptr().cast()) }
    }

    /// AVX2 [`super::abs_histogram_run`]: eight values a step, the run's
    /// end found with one compare per vector, the bins with the scalar
    /// expression's division, product and truncation (`cvttps` makes a NaN
    /// `i32::MIN`, which the clamp takes to bin 0 as `as usize` does). The
    /// step holding the first value over `range` and the last `len % 8`
    /// values go through the scalar loop.
    #[target_feature(enable = "avx2")]
    pub(super) fn abs_histogram_run(src: &[f32], range: f32, counts: &mut [u64]) -> (usize, f32) {
        let last = counts.len() as i32 - 1;
        let (r, bins) = (_mm256_set1_ps(range), _mm256_set1_ps(counts.len() as f32));
        let magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MAX));
        let (zero, top) = (_mm256_setzero_si256(), _mm256_set1_epi32(last));
        let mut max = _mm256_setzero_ps();
        let mut binned = 0;
        let mut at = [0i32; 8];
        for chunk in src.chunks_exact(8) {
            let a = _mm256_and_ps(F32x8::load(chunk).0, magnitude);
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(a, r)) != 0 {
                break;
            }
            // `vmaxps` keeps the second operand where `a` is NaN.
            max = _mm256_max_ps(a, max);
            let bin = _mm256_cvttps_epi32(_mm256_mul_ps(_mm256_div_ps(a, r), bins));
            let bin = _mm256_min_epi32(_mm256_max_epi32(bin, zero), top);
            // SAFETY: `at` holds the 32 bytes the store writes.
            unsafe { _mm256_storeu_si256(at.as_mut_ptr().cast(), bin) };
            for &b in &at {
                counts[b as usize] += 1;
            }
            binned += 8;
        }
        let mut lanes = [0.0f32; 8];
        F32x8(max).store(&mut lanes);
        let max = lanes.iter().fold(0.0f32, |m, &a| if a > m { a } else { m });
        let (tail, tail_max) = super::abs_histogram_run_scalar(&src[binned..], range, counts);
        (binned + tail, if tail_max > max { tail_max } else { max })
    }

    /// AVX2 int8 quantization: `dst = clamp(round_ties_even(src · inv), ±127)`
    /// via `cvtps` (MXCSR default = round-to-nearest-even), matching the
    /// scalar magic-number rounding bit for bit on finite inputs.
    #[target_feature(enable = "avx2")]
    pub(super) fn q8_quantize_slice(src: &[f32], inv_scale: f32, dst: &mut [i8]) {
        let inv = _mm256_set1_ps(inv_scale);
        let lo = _mm256_set1_ps(-127.0);
        let hi = _mm256_set1_ps(127.0);
        let mut s = src.chunks_exact(8);
        let mut d = dst[..src.len()].chunks_exact_mut(8);
        for (s, d) in (&mut s).zip(&mut d) {
            let v = _mm256_mul_ps(F32x8::load(s).0, inv);
            let v = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
            let q = _mm256_cvtps_epi32(v);
            let l = _mm256_castsi256_si128(q);
            let h = _mm256_extracti128_si256(q, 1);
            let w = _mm_packs_epi32(l, h);
            let b = _mm_packs_epi16(w, w);
            // SAFETY: `d` holds the 8 bytes the store writes.
            unsafe { _mm_storel_epi64(d.as_mut_ptr().cast(), b) };
        }
        for (d, &x) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *d = super::q8_quantize_one(x, inv_scale);
        }
    }

    /// AVX2 int8×int8→i32 GEMM over a pre-transposed rhs (`maddubs`+`madd`
    /// pair kernel). The sign trick (`|a| ⊗ (b·sign a)`) keeps every i16
    /// pair sum at ≤ 2·127² = 32258, below saturation, so the i32
    /// accumulation is exact and bit-identical to the scalar kernel in any
    /// summation order. All inputs must lie in `[-127, 127]` (checked by the
    /// public wrapper); a slice too short for the shapes panics.
    #[target_feature(enable = "avx2")]
    pub(super) fn q8_gemm_i32(a: &[i8], bt: &[i8], k: usize, n: usize, out: &mut [i32]) {
        let col = |j: usize| &bt[j * k..][..k];
        for (i, orow) in out.chunks_exact_mut(n).enumerate() {
            let arow = &a[i * k..][..k];
            // 1-row × 4-column tiles: |a| is computed once per chunk and
            // reused across the four rhs columns.
            let mut j = 0;
            while j + 4 <= n {
                let b = [col(j), col(j + 1), col(j + 2), col(j + 3)];
                dots::<4>(arow, b, &mut orow[j..j + 4]);
                j += 4;
            }
            for j in j..n {
                dots::<1>(arow, [col(j)], &mut orow[j..j + 1]);
            }
        }
    }

    /// `out[c] = Σ_p arow[p] · b[c][p]` for the `C` columns `b` of
    /// [`q8_gemm_i32`], each as long as `arow`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn dots<const C: usize>(arow: &[i8], b: [&[i8]; C], out: &mut [i32]) {
        let kv = arow.len() - arow.len() % 32;
        let ones = _mm256_set1_epi16(1);
        let mut acc = [_mm256_setzero_si256(); C];
        for p in (0..kv).step_by(32) {
            let va = load_i8x32(&arow[p..]);
            let abs_a = _mm256_sign_epi8(va, va);
            for (acc, b) in acc.iter_mut().zip(&b) {
                let sb = _mm256_sign_epi8(load_i8x32(&b[p..]), va);
                let d16 = _mm256_maddubs_epi16(abs_a, sb);
                *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(d16, ones));
            }
        }
        for ((o, &acc), b) in out.iter_mut().zip(&acc).zip(&b) {
            let tail = arow[kv..].iter().zip(&b[kv..]);
            *o = tail.fold(hsum_epi32(acc), |s, (&x, &y)| s + x as i32 * y as i32);
        }
    }

    /// Whether the int8 GEMM has its VNNI arm: the CPU has `avx512vnni`
    /// and `avx512bw` (std caches the probes).
    #[inline]
    pub(super) fn vnni() -> bool {
        std::arch::is_x86_feature_detected!("avx512vnni")
            && std::arch::is_x86_feature_detected!("avx512bw")
    }

    /// AVX-512 VNNI int8×int8→i32 GEMM over a [`VnniPack`]:
    /// `out[i][j] = Σ_p a[i·k + p] · bt[j·k + p]`, the value of
    /// [`q8_gemm_i32`]. Register tiles are 8 rows × 32 columns (two zmm of
    /// i32 lanes per row), then 4-, 2- and 1-row tiles; the columns end in
    /// a 16-wide and a masked tile. Each `vpdpbusd` adds, per column lane,
    /// four `u8 · s8` products of one depth group: the row's activation
    /// bytes offset to `a + 128` (`a ^ 0x80`, broadcast to every lane) times
    /// the column's weight bytes. The pack's correction `128 · Σ_p w[j][p]`
    /// comes off at the end. The non-saturating `vpdpbusd` keeps the sum
    /// exact mod 2³², and the true result fits in i32, so the output is
    /// exact.
    ///
    /// A row tile's offset activations are staged on the stack
    /// [`VNNI_CHUNK`] depth groups at a time, so each broadcast reads
    /// memory; the tiles of a later chunk add to `out`.
    ///
    /// # Panics
    ///
    /// Panics when `a` holds fewer rows than `out`, or `pack` was built for
    /// a smaller shape than `k` and `n`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) fn q8_gemm_vnni(a: &[i8], pack: &VnniPack, k: usize, n: usize, out: &mut [i32]) {
        let m = out.len() / n;
        assert!(
            a.len() >= m * k && pack.packed.len() >= k.div_ceil(4) * n * 4 && pack.corr.len() >= n,
            "q8_gemm_vnni shapes"
        );
        let tiles = VnniTiles {
            a: a.as_ptr(),
            k,
            b: pack.packed.as_ptr(),
            corr: pack.corr.as_ptr(),
            out: out.as_mut_ptr(),
            n,
        };
        // SAFETY: the assert above and `m` whole `n`-wide rows of `out` are
        // the `VnniTiles` condition for rows `0..m`; the CPU features are
        // this function's own.
        unsafe {
            let r = tiles.row_tiles::<8>(0, m);
            let r = tiles.row_tiles::<4>(r, m);
            let r = tiles.row_tiles::<2>(r, m);
            tiles.row_tiles::<1>(r, m);
        }
    }

    /// Depth groups of four bytes per staged chunk of [`q8_gemm_vnni`]: 512
    /// bytes of each tile row, so a depth up to 512 runs in one chunk.
    const VNNI_CHUNK: usize = 128;

    /// The operands of one [`q8_gemm_vnni`] call: `a` is `[m, k]`, `b` the
    /// `[⌈k/4⌉][n][4]` packed weights, `corr` and every `out` row `n` wide.
    /// Its methods share one safety condition: the pointers are valid for
    /// those shapes and the CPU supports AVX-512F, BW and VNNI.
    #[derive(Clone, Copy)]
    struct VnniTiles {
        a: *const i8,
        k: usize,
        b: *const i8,
        corr: *const i32,
        out: *mut i32,
        n: usize,
    }

    impl VnniTiles {
        /// Runs `R`-row tiles from row `r` while `R` rows remain; returns
        /// the first row left over.
        ///
        /// # Safety
        ///
        /// See [`VnniTiles`].
        #[inline(always)]
        unsafe fn row_tiles<const R: usize>(self, mut r: usize, rows: usize) -> usize {
            let (all, groups) = (!0, self.k.div_ceil(4));
            let mut staged = [[0u32; VNNI_CHUNK]; R];
            while r + R <= rows {
                let mut q0 = 0;
                // Once even at k = 0, so that every output is written.
                loop {
                    let len = VNNI_CHUNK.min(groups - q0);
                    for (ri, s) in staged.iter_mut().enumerate() {
                        // SAFETY: row `r + ri < rows`, and `q0 < groups`
                        // unless `len` is 0.
                        unsafe { self.stage(r + ri, q0, len, s) };
                    }
                    let last = q0 + len == groups;
                    let c = Chunk { staged: &staged, q0, len, first: q0 == 0, last };
                    let mut j = 0;
                    // SAFETY: rows `r..r + R` exist; each tile covers
                    // columns below `n`, the masked one exactly `n - j`.
                    unsafe {
                        while j + 32 <= self.n {
                            self.tile::<R, 2, false>(&c, r, j, all);
                            j += 32;
                        }
                        if j + 16 <= self.n {
                            self.tile::<R, 1, false>(&c, r, j, all);
                            j += 16;
                        }
                        if j < self.n {
                            self.tile::<R, 1, true>(&c, r, j, (1 << (self.n - j)) - 1);
                        }
                    }
                    q0 += len;
                    if last {
                        break;
                    }
                }
                r += R;
            }
            r
        }

        /// Stages depth groups `q0..q0 + len` of row `r` into `dst`, offset
        /// to `a + 128`. Only the row's own bytes are read: the `k % 4` tail
        /// group is zero-filled (offset to 128), which meets the pack's zero
        /// padding.
        ///
        /// # Safety
        ///
        /// See [`VnniTiles`]; `q0 < ⌈k/4⌉` unless `len` is 0.
        #[inline(always)]
        unsafe fn stage(self, r: usize, q0: usize, len: usize, dst: &mut [u32; VNNI_CHUNK]) {
            // SAFETY: `4·q0 < k` bytes precede `src` in the row, and each
            // load reads only the `avail ≥ 1` bytes left in it (`4·len`
            // reaches at most 3 bytes past the row); each store stays in
            // `dst`, whose 512 bytes are a multiple of 64 and hold `4·len`.
            unsafe {
                let src = self.a.add(r * self.k + 4 * q0);
                let left = self.k - 4 * q0;
                let d = dst.as_mut_ptr() as *mut __m512i;
                for b in 0..(4 * len).div_ceil(64) {
                    let avail = left - 64 * b;
                    let mask = if avail >= 64 { !0 } else { (1u64 << avail) - 1 };
                    let v = _mm512_maskz_loadu_epi8(mask, src.add(64 * b));
                    _mm512_storeu_si512(d.add(b), _mm512_xor_si512(v, _mm512_set1_epi8(-128)));
                }
            }
        }

        /// One `R`-row × `NV`-zmm tile at output row `r`, column `j` over
        /// one staged chunk: from zero on the first chunk, from `out` on
        /// later ones, the correction subtracted after the last one, stored
        /// to `out`. With `MASKED` the last zmm loads and stores only the
        /// columns in `mask`.
        ///
        /// # Safety
        ///
        /// See [`VnniTiles`]; columns `j..` hold `16 · NV` columns, the last
        /// 16 of them only as far as `mask` reaches when `MASKED`.
        #[inline(always)]
        unsafe fn tile<const R: usize, const NV: usize, const MASKED: bool>(
            self,
            c: &Chunk<R>,
            r: usize,
            j: usize,
            mask: __mmask16,
        ) {
            // SAFETY: (whole body) the caller's bounds; masked lanes are
            // neither read nor written.
            unsafe {
                let last = |v: usize| MASKED && v == NV - 1;
                let mut acc = [[_mm512_setzero_si512(); NV]; R];
                if !c.first {
                    for (ri, row) in acc.iter_mut().enumerate() {
                        let o = self.out.add((r + ri) * self.n + j);
                        for (v, x) in row.iter_mut().enumerate() {
                            *x = load_lanes(o.add(16 * v), last(v), mask);
                        }
                    }
                }
                for q in 0..c.len {
                    let bq = self.b.add(((c.q0 + q) * self.n + j) * 4) as *const i32;
                    let mut bv = [_mm512_setzero_si512(); NV];
                    for (v, b) in bv.iter_mut().enumerate() {
                        *b = load_lanes(bq.add(16 * v), last(v), mask);
                    }
                    for (row, s) in acc.iter_mut().zip(c.staged) {
                        let u = _mm512_set1_epi32(s[q] as i32);
                        for (x, &b) in row.iter_mut().zip(&bv) {
                            *x = _mm512_dpbusd_epi32(*x, u, b);
                        }
                    }
                }
                for (ri, row) in acc.iter().enumerate() {
                    let o = self.out.add((r + ri) * self.n + j);
                    for (v, &x) in row.iter().enumerate() {
                        let corr = self.corr.add(j + 16 * v);
                        let x = if c.last {
                            _mm512_sub_epi32(x, load_lanes(corr, last(v), mask))
                        } else {
                            x
                        };
                        if last(v) {
                            _mm512_mask_storeu_epi32(o.add(16 * v), mask, x);
                        } else {
                            _mm512_storeu_si512(o.add(16 * v) as *mut __m512i, x);
                        }
                    }
                }
            }
        }
    }

    /// The staged activations of one row tile: depth groups
    /// `q0..q0 + len`, the first and the last chunk of the depth when
    /// `first` and `last`.
    struct Chunk<'a, const R: usize> {
        staged: &'a [[u32; VNNI_CHUNK]; R],
        q0: usize,
        len: usize,
        first: bool,
        last: bool,
    }

    /// Sixteen i32 lanes at `p`; with `masked`, only the lanes in `mask`
    /// are read and the rest are zero.
    ///
    /// # Safety
    ///
    /// The lanes read are valid; the CPU supports AVX-512F.
    #[inline(always)]
    unsafe fn load_lanes(p: *const i32, masked: bool, mask: __mmask16) -> __m512i {
        // SAFETY: this function's contract.
        unsafe {
            if masked {
                _mm512_maskz_loadu_epi32(mask, p)
            } else {
                _mm512_loadu_si512(p as *const __m512i)
            }
        }
    }

    /// AVX2 fused dequantize + bias (+ optional GELU) epilogue over whole
    /// rows: `out = acc·scale + bias` with mul-then-add lanes and the
    /// [`kernels::gelu_v`] lane kernel, bit-identical to the scalar loop.
    #[target_feature(enable = "avx2")]
    pub(super) fn q8_dequant_rows(
        acc: &[i32],
        scale: &[f32],
        bias: &[f32],
        gelu: bool,
        out: &mut [f32],
    ) {
        let n = scale.len();
        let (main, bias) = (n - n % 8, &bias[..n]);
        for (arow, orow) in acc.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
            let coefs = scale.chunks_exact(8).zip(bias.chunks_exact(8));
            for ((a, o), (s, b)) in arow.chunks_exact(8).zip(orow.chunks_exact_mut(8)).zip(coefs) {
                let a = &a[..8];
                // SAFETY: `a` holds 8 `i32`s.
                let v = F32x8(_mm256_cvtepi32_ps(unsafe { _mm256_loadu_si256(a.as_ptr().cast()) }));
                let v = v.mul(F32x8::load(s)).add(F32x8::load(b));
                (if gelu { kernels::gelu_v(v) } else { v }).store(o);
            }
            for j in main..n {
                let y = arow[j] as f32 * scale[j] + bias[j];
                orow[j] = if gelu { crate::fastmath::gelu_fast(y) } else { y };
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatched public kernels. The scalar backend runs each kernel's generic
// body one lane wide (`F32x1`), except the oracle kernels — the row
// reductions, `matmul_band`, `attention_tile` and the int8 loops — whose
// scalar loop is the value the vector arms are measured against.
// ---------------------------------------------------------------------------

/// Element-wise binary operation selector for [`binary_slice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
}

/// Runs kernel `$name` on the active backend (or on the backend given
/// before a `;`): `x86::$name` on the AVX2 backend, and on the scalar
/// backend the generic body one lane wide (`kernels::$name::<F32x1>`) or,
/// for an oracle kernel, the block after `else`. The caller's asserts are
/// the kernel's contract; a caller naming the backend asserts the CPU has
/// it.
macro_rules! dispatch {
    ($name:ident($($arg:expr),*)) => {
        dispatch!($name($($arg),*) else { kernels::$name::<F32x1>($($arg),*) })
    };
    ($name:ident($($arg:expr),*) else $scalar:block) => {
        dispatch!(backend(); $name($($arg),*) else $scalar)
    };
    ($backend:expr; $name:ident($($arg:expr),*) else $scalar:block) => {
        match $backend {
            // SAFETY: the AVX2 backend is only ever selected, or named by a
            // caller that asserted it, on a CPU with AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { x86::$name($($arg),*) },
            Backend::Scalar => $scalar,
        }
    };
}

/// Lane-parallel [`crate::fastmath::exp_fast`] over a slice. SIMD lanes are
/// bit-identical to the scalar kernel.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub(crate) fn exp_slice(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "exp_slice length mismatch");
    dispatch!(exp_slice(src, dst))
}

/// Lane-parallel [`crate::fastmath::tanh_fast`] over a slice. SIMD lanes are
/// bit-identical to the scalar kernel.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub(crate) fn tanh_slice(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "tanh_slice length mismatch");
    dispatch!(tanh_slice(src, dst))
}

/// Lane-parallel [`crate::fastmath::gelu_fast`] (the canonical GELU scalar)
/// over a slice. SIMD lanes are bit-identical to the scalar kernel.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub(crate) fn gelu_slice(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "gelu_slice length mismatch");
    dispatch!(gelu_slice(src, dst))
}

/// `dst += g · gelu'(x)` — the GELU backward slice. SIMD lanes are
/// bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn gelu_grad_acc(dst: &mut [f32], g: &[f32], x: &[f32]) {
    assert_eq!(dst.len(), g.len(), "gelu_grad_acc length mismatch");
    assert_eq!(dst.len(), x.len(), "gelu_grad_acc length mismatch");
    dispatch!(gelu_grad_acc(dst, g, x))
}

/// `dst += src`, element-wise (exact in every backend).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn add_acc(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_acc length mismatch");
    dispatch!(add_acc(dst, src))
}

/// `dst += a · x` (mul-then-add; bit-identical to the scalar loop).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub(crate) fn axpy_acc(dst: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(dst.len(), x.len(), "axpy_acc length mismatch");
    dispatch!(axpy_acc(dst, a, x))
}

/// `dst += a · b` element-wise (mul-then-add; bit-identical to the scalar
/// loop).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub(crate) fn mul_acc(dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), a.len(), "mul_acc length mismatch");
    assert_eq!(dst.len(), b.len(), "mul_acc length mismatch");
    dispatch!(mul_acc(dst, a, b))
}

/// Element-wise `dst = a (op) b` (exact in every backend).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub(crate) fn binary_slice(op: BinOp, a: &[f32], b: &[f32], dst: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "binary_slice length mismatch");
    assert_eq!(a.len(), dst.len(), "binary_slice length mismatch");
    dispatch!(binary_slice(op, a, b, dst))
}

/// `dst = src · c` (exact in every backend).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub(crate) fn scale_slice(src: &[f32], c: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "scale_slice length mismatch");
    dispatch!(scale_slice(src, c, dst))
}

/// Numerically-stable softmax of one row. The scalar backend runs the
/// historical libm loop bit for bit; SIMD backends use lane-parallel
/// `exp_slice`-style exponentials and reordered sums (≤ 1e-6 of the scalar
/// oracle).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn softmax_row(row: &[f32], out: &mut [f32]) {
    assert_eq!(row.len(), out.len(), "softmax_row length mismatch");
    dispatch!(softmax_row(row, out) else {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (d, &x) in out.iter_mut().zip(row.iter()) {
            let e = (x - max).exp();
            *d = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        for d in out.iter_mut() {
            *d *= inv;
        }
    })
}

/// Log-softmax of one row (same backend contract as [`softmax_row`]).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub(crate) fn log_softmax_row(row: &[f32], out: &mut [f32]) {
    assert_eq!(row.len(), out.len(), "log_softmax_row length mismatch");
    dispatch!(log_softmax_row(row, out) else {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
        for (d, &x) in out.iter_mut().zip(row.iter()) {
            *d = x - max - log_sum;
        }
    })
}

/// Layer normalisation of one row with learned `gamma`/`beta` (same backend
/// contract as [`softmax_row`]).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub(crate) fn layer_norm_row(row: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
    let n = row.len();
    assert_eq!(out.len(), n, "layer_norm_row length mismatch");
    assert_eq!(gamma.len(), n, "layer_norm_row gamma length mismatch");
    assert_eq!(beta.len(), n, "layer_norm_row beta length mismatch");
    dispatch!(layer_norm_row(row, gamma, beta, eps, out) else {
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for (j, (d, &x)) in out.iter_mut().zip(row.iter()).enumerate() {
            *d = gamma[j] * (x - mean) * inv + beta[j];
        }
    })
}

/// Fused `(a + b)` + layer normalisation of one row, writing the normalised
/// sum into `out` (same backend contract as [`softmax_row`]).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub(crate) fn add_layer_norm_row(
    a: &[f32],
    b: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
) {
    let n = a.len();
    assert_eq!(b.len(), n, "add_layer_norm_row length mismatch");
    assert_eq!(out.len(), n, "add_layer_norm_row length mismatch");
    assert_eq!(gamma.len(), n, "add_layer_norm_row gamma length mismatch");
    assert_eq!(beta.len(), n, "add_layer_norm_row beta length mismatch");
    dispatch!(add_layer_norm_row(a, b, gamma, beta, eps, out) else {
        for ((d, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
            *d = x + y;
        }
        let mean = out.iter().sum::<f32>() / n as f32;
        let var = out.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for (j, d) in out.iter_mut().enumerate() {
            *d = gamma[j] * (*d - mean) * inv + beta[j];
        }
    })
}

/// FMA register-tile matmul over one output row band (`dst[i][j] += Σ_p
/// lhs[i0+i][p] · rhs[p][j]`, `dst` holding whole `n`-wide rows). Zero lhs
/// terms are skipped, matching the blocked scalar kernel's non-finite-rhs
/// semantics. The SIMD arms sum each element in ascending `p` with one FMA
/// per term on the first `n − n % 16` columns and a multiply then add on
/// the rest, so the 8-lane and (where `avx512f` is present) 16-lane AVX2
/// arms give the same bits. The scalar arm is a plain reference-order loop
/// with the bits of the tensor kernels' own blocked scalar path (ascending
/// `p`, one multiply and one add per term); `fab_nn::frozen`'s attention
/// core calls this entry point under every backend.
///
/// # Panics
///
/// Panics when the slice dimensions are inconsistent.
pub fn matmul_band(lhs: &[f32], k: usize, rhs: &[f32], n: usize, i0: usize, dst: &mut [f32]) {
    assert!(n > 0 && dst.len().is_multiple_of(n), "matmul_band output not whole rows");
    let rows = dst.len() / n;
    assert!((i0 + rows) * k <= lhs.len(), "matmul_band lhs too short");
    assert!(k * n <= rhs.len(), "matmul_band rhs too short");
    dispatch!(matmul_band(lhs, k, rhs, n, i0, dst) else {
        for (i, drow) in dst.chunks_mut(n).enumerate() {
            for p in 0..k {
                let a = lhs[(i0 + i) * k + p];
                if a == 0.0 {
                    continue;
                }
                let brow = &rhs[p * n..(p + 1) * n];
                for (d, &bv) in drow.iter_mut().zip(brow.iter()) {
                    *d += a * bv;
                }
            }
        }
    })
}

/// Floats of `scratch` one `attention_tile` call on `backend` over
/// `rows` query rows, `len` keys and a `head_dim`-wide head needs.
pub fn attention_tile_scratch(backend: Backend, rows: usize, len: usize, head_dim: usize) -> usize {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => 2 * Backend::Avx2.lanes() * (len + head_dim),
        _ => rows * (head_dim + len) + head_dim * len + len,
    }
}

/// One head of the attention core for a few query rows: `out`'s head
/// columns become `softmax(c · q_h·k_hᵀ) · v_h`. `q` and `out` hold the
/// rows and `k` / `v` the keys, all `dim` wide; the head is columns
/// `col .. col + head_dim`, and `scale` (`c`) multiplies the scores when it
/// is given. K and V are read in place; the work happens in `scratch`
/// ([`attention_tile_scratch`] floats, contents ignored), and no other
/// column of `out` is written.
///
/// The value is the row composition's on the same backend — gather,
/// [`matmul_band`] with Kᵀ, [`scale_slice`], [`softmax_row`] per row,
/// [`matmul_band`] with V, scatter — bit for bit. The scalar backend runs
/// that composition. The AVX2 backend keeps one query row per
/// lane (16 lanes where `avx512f` is present) and replays in every lane the
/// 8-lane row kernels' reduction tree (`kernels::attention_tile`).
///
/// The tile runs on `backend`, not on the active one: a caller that sized
/// its scratch for one backend (usually [`backend`], read once) keeps to
/// it even if the active backend is switched while its tiles run.
///
/// # Panics
///
/// Panics when the CPU lacks `backend`, the head is not within `dim`, the
/// slices do not hold whole rows, there is no key, or `scratch` is too
/// short.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attention_tile(
    backend: Backend,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    dim: usize,
    col: usize,
    head_dim: usize,
    scale: Option<f32>,
    scratch: &mut [f32],
    out: &mut [f32],
) {
    assert!(
        backend == Backend::Scalar || backend == detect(),
        "attention_tile backend unsupported"
    );
    assert!(head_dim > 0 && col + head_dim <= dim, "attention_tile head out of range");
    assert!(q.len().is_multiple_of(dim) && k.len().is_multiple_of(dim), "attention_tile rows");
    assert!(!k.is_empty() && k.len() == v.len(), "attention_tile keys");
    assert_eq!(q.len(), out.len(), "attention_tile output length mismatch");
    let (rows, len) = (q.len() / dim, k.len() / dim);
    assert!(
        scratch.len() >= attention_tile_scratch(backend, rows, len, head_dim),
        "attention_tile scratch too short"
    );
    dispatch!(backend; attention_tile(q, k, v, dim, col, head_dim, scale, scratch, out) else {
        attention_tile_rows(q, k, v, dim, col, head_dim, scale, scratch, out)
    })
}

/// The probabilities [`attention_tile`] mixes V with: `p` (`[rows,
/// len]`) gets `softmax(c · q_h·k_hᵀ)` of the `rows` query rows of `q`,
/// with the tile's own bits on `backend` (the same gather, scores and
/// softmax). `scratch` holds
/// [`attention_tile_scratch`]`(backend, rows, len, head_dim)` floats.
///
/// # Panics
///
/// As [`attention_tile`], or when `p` does not hold `rows · len` values.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attention_probs(
    backend: Backend,
    q: &[f32],
    k: &[f32],
    dim: usize,
    col: usize,
    head_dim: usize,
    scale: Option<f32>,
    scratch: &mut [f32],
    p: &mut [f32],
) {
    assert!(
        backend == Backend::Scalar || backend == detect(),
        "attention_probs backend unsupported"
    );
    assert!(head_dim > 0 && col + head_dim <= dim, "attention_probs head out of range");
    assert!(q.len().is_multiple_of(dim) && k.len().is_multiple_of(dim), "attention_probs rows");
    assert!(!k.is_empty(), "attention_probs keys");
    let (rows, len) = (q.len() / dim, k.len() / dim);
    assert_eq!(p.len(), rows * len, "attention_probs output length mismatch");
    assert!(
        scratch.len() >= attention_tile_scratch(backend, rows, len, head_dim),
        "attention_probs scratch too short"
    );
    dispatch!(backend; attention_probs(q, k, dim, col, head_dim, scale, scratch, p) else {
        attention_probs_composed(q, k, dim, col, head_dim, scale, scratch, p)
    })
}

/// [`attention_probs`] as the row kernels compute it: the value of every
/// backend's probabilities, and the scalar backend's own.
#[allow(clippy::too_many_arguments)]
fn attention_probs_composed(
    q: &[f32],
    k: &[f32],
    dim: usize,
    col: usize,
    head_dim: usize,
    scale: Option<f32>,
    scratch: &mut [f32],
    p: &mut [f32],
) {
    let [_, _, scores] = attention_probs_rows(q, k, dim, col, head_dim, scale, scratch);
    p.copy_from_slice(scores);
}

/// The first half of [`attention_tile_rows`]: the tile's `P` (`[rows,
/// len]`), one query row of scores at a time. Returns `scratch` cut into
/// the gathered q (`[rows, head_dim]`), the head's Kᵀ (`[head_dim, len]`)
/// and `P`.
fn attention_probs_rows<'s>(
    q: &[f32],
    k: &[f32],
    dim: usize,
    col: usize,
    head_dim: usize,
    scale: Option<f32>,
    scratch: &'s mut [f32],
) -> [&'s mut [f32]; 3] {
    let (rows, len) = (q.len() / dim, k.len() / dim);
    let (q_tile, rest) = scratch.split_at_mut(rows * head_dim);
    let (kt, rest) = rest.split_at_mut(head_dim * len);
    let (scores, rest) = rest.split_at_mut(rows * len);
    let tmp = &mut rest[..len];
    let cols = |r: usize| r * dim + col..r * dim + col + head_dim;
    for (r, dst) in q_tile.chunks_mut(head_dim).enumerate() {
        dst.copy_from_slice(&q[cols(r)]);
    }
    for key in 0..len {
        for (p, &x) in k[cols(key)].iter().enumerate() {
            kt[p * len + key] = x;
        }
    }
    scores.fill(0.0);
    matmul_band(q_tile, head_dim, kt, len, 0, scores);
    for row in scores.chunks_mut(len) {
        match scale {
            Some(c) => scale_slice(row, c, tmp),
            None => tmp.copy_from_slice(row),
        }
        softmax_row(tmp, row);
    }
    [q_tile, kt, scores]
}

/// [`attention_tile`] as the row kernels compute it, one query row of
/// scores at a time: the value of every backend's tile, and the scalar
/// backend's tile itself.
#[allow(clippy::too_many_arguments)]
fn attention_tile_rows(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    dim: usize,
    col: usize,
    head_dim: usize,
    scale: Option<f32>,
    scratch: &mut [f32],
    out: &mut [f32],
) {
    let cols = |r: usize| r * dim + col..r * dim + col + head_dim;
    let [mixed, kv, scores] = attention_probs_rows(q, k, dim, col, head_dim, scale, scratch);
    // `kv` held the head's Kᵀ, `[head_dim, len]`; now its V, `[len, head_dim]`.
    for (key, dst) in kv.chunks_mut(head_dim).enumerate() {
        dst.copy_from_slice(&v[cols(key)]);
    }
    mixed.fill(0.0);
    matmul_band(scores, k.len() / dim, kv, head_dim, 0, mixed);
    for (r, src) in mixed.chunks(head_dim).enumerate() {
        out[cols(r)].copy_from_slice(src);
    }
}

/// The backward of one head of [`attention_tile`] for a few query rows,
/// from the tile's probabilities rather than a stored copy (FlashAttention's
/// backward, Dao et al. 2022): [`attention_probs`] recomputes them. All
/// operands are head-local and contiguous. `p` is that `P` (`[rows,
/// len]`); `dout` (the gradient of the tile's output) holds the tile's
/// `[rows, head_dim]` rows, and `dout_t` and `q_t` are doutᵀ and the tile's
/// qᵀ (`[head_dim, rows]`); `delta[r]` is `−c · Σ dout[r] ∘ o[r]` with `o`
/// the tile's output and `c` the scores' scale; `k` holds the head's
/// `[len, head_dim]` keys and `cvt` its values transposed times `c`. With
/// `dS = P ∘ (dout·cvt + delta)` — the scaled scores' gradient,
/// `c · P ∘ (dout·vᵀ − Σ dout ∘ o)`, formed in `p`, the product taken from
/// +0 and `delta` added after — it accumulates
///
/// * `dq += dS · k`, `[rows, head_dim]`;
/// * `dkt += q_t · dS` and `dvt += dout_t · P`, both `[head_dim, len]`
///   (dK and dV transposed).
///
/// Every product is a [`matmul_band`] sweep, which adds to its output in
/// ascending depth: calling this for a head's tiles in ascending order sums
/// `dkt` and `dvt` over the query rows in one fixed order, whatever thread
/// runs the calls; and each sum is the one the whole-tensor products
/// (`matmul` of the head's `[len, len]` matrices) take, so an untiled
/// computation gives the same bits. `scratch` holds `rows · len` floats
/// (contents ignored).
///
/// # Panics
///
/// Panics when a slice does not hold whole rows of the shapes above, there
/// is no key, or `scratch` is too short.
pub(crate) fn attention_tile_backward(
    p: &mut [f32],
    [dout, dout_t, q_t, delta]: [&[f32]; 4],
    [k, cvt]: [&[f32]; 2],
    scratch: &mut [f32],
    [dq, dkt, dvt]: [&mut [f32]; 3],
) {
    let rows = delta.len();
    assert!(rows > 0 && dout.len().is_multiple_of(rows), "attention backward rows");
    let head_dim = dout.len() / rows;
    assert!(head_dim > 0 && p.len().is_multiple_of(rows), "attention backward head");
    let len = p.len() / rows;
    assert!(
        len > 0 && k.len() == len * head_dim && cvt.len() == k.len(),
        "attention backward keys"
    );
    assert!(dout_t.len() == dout.len() && q_t.len() == dout.len(), "attention backward rows");
    assert!(dq.len() == dout.len(), "attention backward dq");
    assert!(dkt.len() == k.len() && dvt.len() == k.len(), "attention backward dk / dv");
    matmul_band(dout_t, rows, p, len, 0, dvt);
    let dp = &mut scratch[..rows * len];
    dp.fill(0.0);
    matmul_band(dout, head_dim, cvt, len, 0, dp);
    for ((p, dp), &delta) in p.chunks_exact_mut(len).zip(dp.chunks_exact(len)).zip(delta) {
        for (p, &dp) in p.iter_mut().zip(dp) {
            *p *= dp + delta;
        }
    }
    let ds = &*p;
    matmul_band(ds, len, k, head_dim, 0, dq);
    matmul_band(q_t, rows, ds, len, 0, dkt);
}

/// Applies one whole butterfly stage to one transform vector in place:
/// `w1..w4` hold the stage's `pairs` weights, `half` its half-block size, and
/// `x` the `2·pairs` elements. The block loop runs inside the vector context,
/// so a stage costs one dispatch. Bit-identical across backends (mul-then-add
/// lanes, scalar tail below the vector width).
///
/// # Panics
///
/// Panics when slice lengths disagree or `half` does not divide the pair
/// count.
pub fn butterfly_stage_in_place(
    half: usize,
    w1: &[f32],
    w2: &[f32],
    w3: &[f32],
    w4: &[f32],
    x: &mut [f32],
) {
    let pairs = w1.len();
    assert!(
        half > 0 && pairs.is_multiple_of(half),
        "butterfly_stage_in_place half {half} does not divide {pairs} pairs"
    );
    assert!(
        w2.len() == pairs && w3.len() == pairs && w4.len() == pairs && x.len() == 2 * pairs,
        "butterfly_stage_in_place length mismatch"
    );
    dispatch!(butterfly_stage_in_place(half, w1, w2, w3, w4, x))
}

// ---------------------------------------------------------------------------
// Lane-per-row butterfly engine: `[n][width]` buffers in which element `i` of
// `width` independent transforms is the contiguous row `i`, so that every
// butterfly stage is a vertical vector operation with broadcast weights. The
// butterfly-linear forward and backward and the 2-D FFT of `fab-butterfly`
// all run on these eight entry points; none of them uses FMA, and all are
// bit-identical across backends (the scalar backend runs the same generic
// bodies one lane wide) and across the AVX2 backend's 8- and 16-lane
// instantiations (16 where `avx512f` is present and `width` is a multiple
// of 16).
// ---------------------------------------------------------------------------

/// One butterfly-linear stage, in place, over `width` transforms at once:
/// `x` is `[n][width]` with `n = 2·pairs`, and for every pair `p` of the
/// stage (rows `i1`, `i2 = i1 + half` as in [`butterfly_stage_in_place`])
/// each of the `width` columns gets `x[i1] = w1[p]·a + w2[p]·b`,
/// `x[i2] = w3[p]·a + w4[p]·b`. A prefix of the rows is itself a valid
/// buffer: passing `x[..m·width]` with the first `m/2` weights applies the
/// stage to the blocks inside the first `m` rows only.
///
/// # Panics
///
/// Panics when slice lengths disagree, `width` is zero, or `half` does not
/// divide the pair count.
pub fn butterfly_stage_lanes(
    half: usize,
    w1: &[f32],
    w2: &[f32],
    w3: &[f32],
    w4: &[f32],
    x: &mut [f32],
    width: usize,
) {
    let pairs = w1.len();
    assert!(
        half > 0 && pairs.is_multiple_of(half),
        "butterfly_stage_lanes half {half} does not divide {pairs} pairs"
    );
    assert!(
        width > 0
            && w2.len() == pairs
            && w3.len() == pairs
            && w4.len() == pairs
            && x.len() == 2 * pairs * width,
        "butterfly_stage_lanes length mismatch"
    );
    dispatch!(butterfly_stage_lanes(half, w1, w2, w3, w4, x, width))
}

/// [`butterfly_stage_lanes`] out of place: `dst` receives the stage applied
/// to `src`, bit for bit what the in-place stage leaves in a copy of `src`.
/// Like the in-place stage, it applies to a prefix of the rows when given
/// the prefix's weights.
///
/// # Panics
///
/// Panics when slice lengths disagree, `width` is zero, or `half` does not
/// divide the pair count.
#[allow(clippy::too_many_arguments)]
pub fn butterfly_stage_lanes_into(
    half: usize,
    w1: &[f32],
    w2: &[f32],
    w3: &[f32],
    w4: &[f32],
    src: &[f32],
    dst: &mut [f32],
    width: usize,
) {
    let pairs = w1.len();
    assert!(
        half > 0 && pairs.is_multiple_of(half),
        "butterfly_stage_lanes_into half {half} does not divide {pairs} pairs"
    );
    assert!(
        width > 0
            && w2.len() == pairs
            && w3.len() == pairs
            && w4.len() == pairs
            && src.len() == 2 * pairs * width
            && dst.len() == src.len(),
        "butterfly_stage_lanes_into length mismatch"
    );
    dispatch!(butterfly_stage_lanes_into(half, w1, w2, w3, w4, src, dst, width))
}

/// Folds 16-wide lane rows: `dst[c]` is the sixteen values `p =
/// src[16c..16c + 16]` summed by halves — `q[k] = p[k] + p[k + 8]` for
/// `k < 8`, then `r[k] = q[k] + q[k + 4]`, `s[k] = r[k] + r[k + 2]` and
/// `dst[c] = s[0] + s[1]` — the fixed order in which the per-lane partial
/// sums of a 16-row weight-gradient tile
/// ([`butterfly_stage_backward_lanes`]) are combined. Every backend gives
/// the bits of that scalar tree.
///
/// # Panics
///
/// Panics when `src.len() != 16 · dst.len()`.
pub fn fold_lanes16(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), 16 * dst.len(), "fold_lanes16 length mismatch");
    dispatch!(fold_lanes16(src, dst))
}

/// The backward of [`butterfly_stage_lanes`], over `width` transforms at once.
/// `input` is the `[n][width]` buffer the stage saw going forward and `grad`
/// the gradient of its output; for every pair `p` (rows `i1`, `i2`) and every
/// column, with `a = input[i1]`, `b = input[i2]`, `g1 = grad[i1]`,
/// `g2 = grad[i2]`:
///
/// ```text
/// acc[0][p] += g1·a    acc[1][p] += g1·b    acc[2][p] += g2·a    acc[3][p] += g2·b
/// grad[i1] = w1[p]·g1 + w3[p]·g2            grad[i2] = w2[p]·g1 + w4[p]·g2
/// ```
///
/// so `grad` holds the gradient of the stage's input on return and `acc`
/// (`[4][pairs][width]`, the weight tensor's `[w1 | w2 | w3 | w4]` order)
/// carries one running weight-gradient sum per column: column `c` only ever
/// adds column `c`'s products, in call order, and the caller decides how the
/// columns are folded.
///
/// The rows may hold several tiles of `width` columns side by side
/// (`input` and `grad` are then `[n][tiles · width]`): each tile goes
/// through the stage in turn, its column `c` adding to accumulator column
/// `c` after the tile before — the bits of one call per tile, with the
/// accumulators loaded and stored once per pair instead of once per tile.
/// Columns from `live` on (counted along the whole row) add nothing: they
/// are a partial last tile's unused lanes. Input rows `shared..n` are the
/// same in every tile and read from the first (pass `n` where no row is
/// shared); the other tiles' copies of them are never read. One tile with
/// `live = width` and `shared = n` is the plain stage.
///
/// # Panics
///
/// Panics when slice lengths disagree, `width` is zero, `live` exceeds the
/// row, `shared` exceeds `n`, or `half` does not divide the pair count.
#[allow(clippy::too_many_arguments)]
pub fn butterfly_stage_backward_lanes(
    half: usize,
    w1: &[f32],
    w2: &[f32],
    w3: &[f32],
    w4: &[f32],
    input: &[f32],
    grad: &mut [f32],
    acc: &mut [f32],
    width: usize,
    live: usize,
    shared: usize,
) {
    let pairs = w1.len();
    assert!(
        half > 0 && pairs.is_multiple_of(half),
        "butterfly_stage_backward_lanes half {half} does not divide {pairs} pairs"
    );
    let tile = 2 * pairs * width;
    assert!(
        width > 0
            && w2.len() == pairs
            && w3.len() == pairs
            && w4.len() == pairs
            && !input.is_empty()
            && input.len().is_multiple_of(tile)
            && grad.len() == input.len()
            && acc.len() == 2 * tile
            && live <= input.len() / (2 * pairs)
            && shared <= 2 * pairs,
        "butterfly_stage_backward_lanes length mismatch"
    );
    dispatch!(butterfly_stage_backward_lanes(
        half, w1, w2, w3, w4, input, grad, acc, width, live, shared
    ))
}

/// All `log2 n` radix-2 decimation-in-time stages of `width` independent
/// `n`-point FFTs, in place on split `[n][width]` planes whose rows are
/// already in bit-reversed order (`n = re.len() / width`, a power of two;
/// `n = 1` is a no-op). The twiddle tables are stage-major: the stage with
/// half-size `h` reads `tw[h − 1 + k] = e^{−iπk/h}` for `k < h`, so the table
/// of a larger transform serves every smaller one.
///
/// # Panics
///
/// Panics when the plane lengths differ or are not a power-of-two multiple
/// of `width`, or a twiddle table holds fewer than `n − 1` entries.
pub fn fft_stages_lanes(
    tw_re: &[f32],
    tw_im: &[f32],
    re: &mut [f32],
    im: &mut [f32],
    width: usize,
) {
    assert!(width > 0 && re.len() == im.len(), "fft_stages_lanes plane mismatch");
    let n = re.len() / width;
    assert!(n.is_power_of_two() && re.len() == n * width, "fft_stages_lanes size {n}");
    assert!(tw_re.len() >= n - 1 && tw_im.len() >= n - 1, "fft_stages_lanes twiddles too short");
    dispatch!(fft_stages_lanes(tw_re, tw_im, re, im, width))
}

/// The split step of a real-input FFT, for `width` transforms at once. On
/// entry rows `0..m` of the `[m + 1][width]` planes hold `FFT_m(z)` of the
/// packed sequence `z[j] = x[2j] + i·x[2j + 1]`; on return rows `0..=m` hold
/// bins `0..=m` of `FFT_2m(x)` (the remaining bins are their conjugate
/// mirror). `tw[k] = e^{−iπk/m}` for `k <= m/2` — the last stage of the
/// `2m`-point table of [`fft_stages_lanes`].
///
/// # Panics
///
/// Panics when the plane lengths differ or are not `(m + 1)·width` for a
/// power of two `m`, or a twiddle table holds fewer than `m/2 + 1` entries.
pub fn fft_real_split_lanes(
    tw_re: &[f32],
    tw_im: &[f32],
    re: &mut [f32],
    im: &mut [f32],
    width: usize,
) {
    assert!(width > 0 && re.len() == im.len(), "fft_real_split_lanes plane mismatch");
    let rows = re.len() / width;
    assert!(
        rows >= 2 && (rows - 1).is_power_of_two() && re.len() == rows * width,
        "fft_real_split_lanes needs 2^k + 1 rows, got {rows}"
    );
    let m = rows - 1;
    assert!(tw_re.len() > m / 2 && tw_im.len() > m / 2, "fft_real_split_lanes twiddles too short");
    dispatch!(fft_real_split_lanes(tw_re, tw_im, re, im, width))
}

/// Gathers a tile of `rows <= width` row-major rows into lane layout:
/// `dst[at(c)·width + r] = src[r·stride + c]` for `c < cols`, where `at(c)`
/// is `perm[c]` (`c` itself when `perm` is empty) and the lanes `rows..width`
/// are zero-filled. Rows of `dst` that no column maps to are left untouched.
/// A full tile (`rows == width`) at the active backend's lane count
/// ([`Backend::lanes`]: 16 on an AVX2 backend whose CPU has `avx512f`, where
/// a 16 × 16 block is four 16 × 4 register transposes) goes through the
/// register transpose, and so do the whole groups of that many rows of a
/// wider tile whose width is a multiple of it (several tiles side by side);
/// every other shape takes the element-wise path with the same result.
/// Callers that tile at [`Backend::lanes`] get the register path on every
/// full tile.
///
/// # Panics
///
/// Panics when `rows > width`, `cols > stride`, `src` is too short for
/// `rows` rows, `perm` is neither empty nor `cols` long, or a destination
/// row lies outside `dst`.
pub fn rows_to_lanes(
    src: &[f32],
    stride: usize,
    rows: usize,
    cols: usize,
    perm: &[usize],
    dst: &mut [f32],
    width: usize,
) {
    assert!(width > 0 && rows <= width && cols <= stride, "rows_to_lanes tile shape");
    assert!(rows == 0 || (rows - 1) * stride + cols <= src.len(), "rows_to_lanes src too short");
    let dst_rows = dst.len() / width;
    if perm.is_empty() {
        assert!(cols <= dst_rows, "rows_to_lanes dst too short");
    } else {
        assert!(
            perm.len() == cols && perm.iter().all(|&p| p < dst_rows),
            "rows_to_lanes permutation out of range"
        );
    }
    dispatch!(rows_to_lanes(src, stride, rows, cols, perm, dst, width))
}

/// Scatters a lane-layout tile back to `rows <= width` row-major rows,
/// adding the linear layer's bias while the tile is in cache:
/// `dst[r·stride + c] = src[c·width + r] + bias[c]` for `c < cols`. An
/// empty `bias` adds nothing (not even `+0.0`). Taking `cols` smaller than
/// the tile truncates the output for free.
///
/// # Panics
///
/// Panics when `rows > width`, `cols > stride`, `src` holds fewer than
/// `cols` lane rows, `bias` is neither empty nor `cols` long, or `dst` is too
/// short for `rows` rows.
#[allow(clippy::too_many_arguments)]
pub fn lanes_to_rows(
    src: &[f32],
    width: usize,
    rows: usize,
    cols: usize,
    bias: &[f32],
    dst: &mut [f32],
    stride: usize,
) {
    assert!(width > 0 && rows <= width && cols <= stride, "lanes_to_rows tile shape");
    assert!(cols * width <= src.len(), "lanes_to_rows src too short");
    assert!(bias.is_empty() || bias.len() == cols, "lanes_to_rows bias length mismatch");
    assert!(rows == 0 || (rows - 1) * stride + cols <= dst.len(), "lanes_to_rows dst too short");
    dispatch!(lanes_to_rows(src, width, rows, cols, bias, dst, stride))
}

/// `x[c][r] = act(x[c][r] + bias[c])` over an `[n][width]` lane-layout
/// buffer (`n = bias.len()`), `act` [`crate::fastmath::gelu_fast`] when
/// `gelu` is set and the identity otherwise: a linear layer's epilogue on
/// a tile that stays in lane layout, with the bits of
/// `Tensor::add_row_broadcast` and `Tensor::gelu` on its rows.
///
/// # Panics
///
/// Panics when `width` is zero or `x` does not hold `bias.len() · width`
/// values.
pub fn bias_gelu_lanes(x: &mut [f32], bias: &[f32], gelu: bool, width: usize) {
    assert!(width > 0 && Some(x.len()) == bias.len().checked_mul(width), "bias_gelu_lanes shape");
    dispatch!(bias_gelu_lanes(x, bias, gelu, width))
}

/// Fused `(a + b)` + layer normalisation of every lane of two `[n][width]`
/// lane-layout buffers (`n = gamma.len()`), written into `b`: lane `r`
/// gets the bits `add_layer_norm_row` gives the row `a[..][r] +
/// b[..][r]` on the same backend. The AVX2 backend replays the row
/// kernel's 8-lane reduction tree in each lane (at 8 or 16 lanes, like
/// the other lane-wise kernels); the scalar backend runs the row oracle's
/// sequential sums lane by lane.
///
/// # Panics
///
/// Panics when `width` is zero, `gamma` and `beta` differ in length, or
/// `a` or `b` do not hold `gamma.len() · width` values.
pub fn add_layer_norm_lanes(
    a: &[f32],
    b: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    width: usize,
) {
    let values = gamma.len().checked_mul(width);
    assert!(width > 0 && beta.len() == gamma.len(), "add_layer_norm_lanes shape");
    assert!(Some(a.len()) == values && Some(b.len()) == values, "add_layer_norm_lanes shape");
    dispatch!(add_layer_norm_lanes(a, b, gamma, beta, eps, width) else {
        add_layer_norm_lanes_scalar(a, b, gamma, beta, eps, width)
    })
}

/// The scalar backend's [`add_layer_norm_lanes`]: [`add_layer_norm_row`]'s
/// oracle on each lane.
fn add_layer_norm_lanes_scalar(
    a: &[f32],
    b: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    width: usize,
) {
    let n = gamma.len();
    for r in 0..width {
        let at = |c: usize| c * width + r;
        for c in 0..n {
            b[at(c)] = a[at(c)] + b[at(c)];
        }
        let mean = (0..n).map(|c| b[at(c)]).sum::<f32>() / n as f32;
        let var = (0..n).map(|c| (b[at(c)] - mean) * (b[at(c)] - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for (c, (&g, &beta)) in gamma.iter().zip(beta).enumerate() {
            b[at(c)] = g * (b[at(c)] - mean) * inv + beta;
        }
    }
}

// ---------------------------------------------------------------------------
// int8 quantized kernels (PR 5): symmetric per-tensor quantization, an
// int8×int8→i32 GEMM against a pre-transposed rhs (prepared once as a
// `Q8Rhs`), and fused dequantize+bias(+GELU) epilogues. The i32
// accumulation is exact, which makes every arm bit-identical to the scalar
// reference — the acceptance contract of the fab-quant subsystem. AVX2
// cannot saturate: inputs are clamped to [-127, 127], so every `maddubs`
// i16 pair sum stays ≤ 2·127², and integer adds are associative. VNNI
// offsets the activation to a + 128 for `vpdpbusd`'s u8 operand and takes
// 128 · Σ w off each column; the non-saturating sum is exact mod 2³² and
// the true result fits in i32.
// ---------------------------------------------------------------------------

/// Scalar quantize: `clamp(x · inv_scale, ±127)` rounded to the nearest
/// integer, ties to even (the magic-number trick, matching `cvtps` on the
/// AVX2 backend bit for bit).
#[inline]
fn q8_quantize_one(x: f32, inv_scale: f32) -> i8 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let v = (x * inv_scale).clamp(-127.0, 127.0);
    ((v + MAGIC) - MAGIC) as i8
}

fn q8_quantize_scalar(src: &[f32], inv_scale: f32, dst: &mut [i8]) {
    for (d, &x) in dst.iter_mut().zip(src.iter()) {
        *d = q8_quantize_one(x, inv_scale);
    }
}

fn q8_gemm_scalar(a: &[i8], bt: &[i8], k: usize, n: usize, out: &mut [i32]) {
    for (i, orow) in out.chunks_mut(n).enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &bt[j * k..(j + 1) * k];
            let mut acc = 0i32;
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                acc += av as i32 * bv as i32;
            }
            *o = acc;
        }
    }
}

fn q8_dequant_scalar(acc: &[i32], scale: &[f32], bias: &[f32], gelu: bool, out: &mut [f32]) {
    let n = scale.len();
    for (orow, arow) in out.chunks_mut(n).zip(acc.chunks(n)) {
        for (j, (o, &a)) in orow.iter_mut().zip(arow.iter()).enumerate() {
            let y = a as f32 * scale[j] + bias[j];
            *o = if gelu { crate::fastmath::gelu_fast(y) } else { y };
        }
    }
}

/// Symmetric int8 quantization of a slice: `dst[i] =
/// clamp(round_ties_even(src[i] · inv_scale), -127, 127)`.
///
/// The output range is `[-127, 127]` — `-128` is never produced, which is
/// the precondition of [`q8_gemm_i32`]'s saturation-free SIMD kernels. All
/// backends are bit-identical for finite inputs (the SIMD `cvt` rounding and
/// the scalar magic-number rounding are both round-to-nearest-even);
/// non-finite inputs are unspecified (NaN maps to 0 on the scalar backend
/// and to a clamped value on SIMD backends).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn q8_quantize_slice(src: &[f32], inv_scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "q8_quantize_slice length mismatch");
    dispatch!(q8_quantize_slice(src, inv_scale, dst) else { q8_quantize_scalar(src, inv_scale, dst) })
}

/// Bins the magnitudes of `src` into an absolute-value histogram of
/// `counts.len()` equal bins over `[0, range]`, up to the first value whose
/// magnitude exceeds `range`: value `x` adds one to bin `min((|x| / range ·
/// bins) as usize, bins − 1)` (a NaN to bin 0). Returns how many values it
/// binned and the largest magnitude among them, NaN ignored (`0.0` for
/// none). Every backend gives the per-value loop's counts; a calibration
/// observer grows its range at the value this stops on and calls again.
///
/// # Panics
///
/// Panics when `counts` is empty or longer than 2²⁰.
pub fn abs_histogram_run(src: &[f32], range: f32, counts: &mut [u64]) -> (usize, f32) {
    assert!((1..=1 << 20).contains(&counts.len()), "abs_histogram_run bin count");
    dispatch!(abs_histogram_run(src, range, counts) else {
        abs_histogram_run_scalar(src, range, counts)
    })
}

/// The per-value loop of [`abs_histogram_run`].
fn abs_histogram_run_scalar(src: &[f32], range: f32, counts: &mut [u64]) -> (usize, f32) {
    let bins = counts.len();
    let mut max = 0.0f32;
    for (i, &x) in src.iter().enumerate() {
        let a = x.abs();
        if a > range {
            return (i, max);
        }
        if a > max {
            max = a;
        }
        counts[((a / range * bins as f32) as usize).min(bins - 1)] += 1;
    }
    (src.len(), max)
}

/// The rhs of [`q8_gemm_prepared`], prepared once for many products: the
/// `[n, k]` int8 rows every backend reads (the rhs stored row-major by
/// *output* column), plus, on a CPU with the VNNI arm, their packed copy.
///
/// The packed copy lays the weights out as `[⌈k/4⌉][n][4]` — the four
/// depth bytes of one group and one column fill one i32 lane, zero-padded
/// past `k` — and holds each column's correction `128 · Σ_p w[j][p]`. It
/// costs `n · 4⌈k/4⌉` bytes plus `4n`, beside the `n · k` rows.
#[derive(Debug, Clone)]
pub struct Q8Rhs {
    rows: Vec<i8>,
    k: usize,
    n: usize,
    #[cfg(target_arch = "x86_64")]
    vnni: Option<VnniPack>,
}

/// The deepest int8 GEMM: 130_000 · 127² < 2^31, so the i32 accumulator
/// cannot overflow.
const Q8_MAX_DEPTH: usize = 130_000;

impl Q8Rhs {
    /// Prepares the `[n, k]` rows `bt`, whose values must lie in
    /// `[-127, 127]` (debug-asserted). Any shape prepares, so a decoder can
    /// hold a layer before it checks the model's shapes; the product checks
    /// that `n > 0` and `k ≤ 130 000`.
    ///
    /// # Panics
    ///
    /// Panics when `bt` is not `n · k` long.
    pub fn new(bt: Vec<i8>, k: usize, n: usize) -> Self {
        assert_eq!(bt.len(), n * k, "q8 rhs dimension mismatch");
        debug_assert!(bt.iter().all(|&v| v != i8::MIN), "q8 rhs holds -128");
        Self {
            #[cfg(target_arch = "x86_64")]
            vnni: (k <= Q8_MAX_DEPTH && x86::vnni()).then(|| VnniPack::new(&bt, k, n)),
            rows: bt,
            k,
            n,
        }
    }

    /// The `[n, k]` int8 rows.
    pub fn rows(&self) -> &[i8] {
        &self.rows
    }
}

/// The VNNI arm's copy of a [`Q8Rhs`]: `[⌈k/4⌉][n][4]` weight bytes and
/// `128 · Σ_p w[j][p]` per column.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone)]
struct VnniPack {
    packed: Vec<i8>,
    corr: Vec<i32>,
}

#[cfg(target_arch = "x86_64")]
impl VnniPack {
    /// Packs the `[n, k]` rows `bt` for `k ≤ Q8_MAX_DEPTH`.
    fn new(bt: &[i8], k: usize, n: usize) -> Self {
        let mut packed = vec![0i8; k.div_ceil(4) * n * 4];
        for (j, row) in (0..n).map(|j| (j, &bt[j * k..(j + 1) * k])) {
            for (p, &w) in row.iter().enumerate() {
                packed[(p / 4 * n + j) * 4 + p % 4] = w;
            }
        }
        // |Σ_p w| ≤ 127 · 130_000, so 128 times it fits in i32.
        let corr =
            (0..n).map(|j| 128 * bt[j * k..(j + 1) * k].iter().map(|&w| w as i32).sum::<i32>());
        Self { packed, corr: corr.collect() }
    }
}

/// int8×int8→i32 GEMM against a prepared rhs: `out[i][j] = Σ_p
/// a[i·k + p] · rows[j·k + p]` (`a` is `[m, k]`, `rhs` is `[n, k]`).
///
/// The accumulation is exact in `i32` on every arm, so every arm gives the
/// same bits — the scalar loop, AVX2 `maddubs`, and the AVX-512 VNNI arm
/// the AVX2 backend takes where the rhs carries its packed copy. Inputs must
/// lie in `[-127, 127]` (upheld by [`q8_quantize_slice`]; debug-asserted
/// here). Two arguments make the SIMD arms exact:
///
/// * AVX2 `maddubs` multiplies `|a|` by `b · sign(a)`, so every i16 pair
///   sum stays ≤ 2·127² = 32 258, below saturation. Integer addition is
///   associative, so the summation order does not matter.
/// * VNNI `vpdpbusd` multiplies u8 by s8, so the activation is offset to
///   `a + 128` (`a ^ 0x80`) and each column subtracts the precomputed
///   `128 · Σ_p w[j][p]` at the end. The non-saturating form may wrap i32
///   on the way (`Σ (a + 128) · w` reaches 255·127·k), but it is exact mod
///   2³², and the true result `|Σ a·w| ≤ 127² · k` fits in i32 for
///   `k ≤ 130 000`, so the wrapped difference is the exact value.
///
/// # Panics
///
/// Panics when `a` and `out` are not whole `k`- and `n`-wide rows of the
/// same row count, when the rhs has no columns, or when `k` is large enough
/// for the i32 accumulator to overflow (`k > 130_000`).
pub fn q8_gemm_prepared(a: &[i8], rhs: &Q8Rhs, out: &mut [i32]) {
    let (k, n) = (rhs.k, rhs.n);
    assert!(n > 0 && out.len().is_multiple_of(n), "q8 gemm output not whole rows");
    assert_eq!(a.len(), out.len() / n * k, "q8 gemm lhs dimension mismatch");
    assert!(k <= Q8_MAX_DEPTH, "q8 gemm depth {k} risks i32 overflow");
    debug_assert!(a.iter().all(|&v| v != i8::MIN), "q8 gemm lhs holds -128");
    #[cfg(target_arch = "x86_64")]
    if let (Backend::Avx2, Some(pack)) = (backend(), &rhs.vnni) {
        if x86::vnni() {
            // SAFETY: the AVX2 backend runs on a CPU with AVX2 and FMA,
            // and the probe above found AVX-512F, BW and VNNI.
            return unsafe { x86::q8_gemm_vnni(a, pack, k, n, out) };
        }
    }
    let bt = &rhs.rows[..];
    dispatch!(q8_gemm_i32(a, bt, k, n, out) else { q8_gemm_scalar(a, bt, k, n, out) })
}

/// [`q8_gemm_prepared`] with an unprepared rhs: `bt` is `[n, k]`, stored
/// row-major by *output* column, so every output element is a dot product
/// of two contiguous `k`-vectors. Same value on every backend.
///
/// It prepares `bt` on every call — a copy, and on a VNNI host the packed
/// copy too — so a rhs used more than once belongs in a [`Q8Rhs`].
///
/// # Panics
///
/// Panics when the slice dimensions are inconsistent or `k` is large enough
/// for the i32 accumulator to overflow (`k > 130_000`).
pub fn q8_gemm_i32(a: &[i8], bt: &[i8], k: usize, n: usize, out: &mut [i32]) {
    q8_gemm_prepared(a, &Q8Rhs::new(bt.to_vec(), k, n), out)
}

/// Fused dequantize + bias epilogue over whole rows: `out[r][j] =
/// acc[r][j] · scale[j] + bias[j]` (mul-then-add per lane, bit-identical
/// across backends). `scale` conventionally holds the combined
/// `input_scale · weight_scale[j]` per output column.
///
/// # Panics
///
/// Panics when the slice dimensions are inconsistent.
pub fn q8_dequant_bias_rows(acc: &[i32], scale: &[f32], bias: &[f32], out: &mut [f32]) {
    q8_dequant_dispatch(acc, scale, bias, false, out);
}

/// [`q8_dequant_bias_rows`] with a fused [`crate::fastmath::gelu_fast`]
/// activation (the GELU lanes run the identical operation sequence on every
/// backend, so results stay bit-identical across backends).
///
/// # Panics
///
/// Panics when the slice dimensions are inconsistent.
pub fn q8_dequant_bias_gelu_rows(acc: &[i32], scale: &[f32], bias: &[f32], out: &mut [f32]) {
    q8_dequant_dispatch(acc, scale, bias, true, out);
}

fn q8_dequant_dispatch(acc: &[i32], scale: &[f32], bias: &[f32], gelu: bool, out: &mut [f32]) {
    let n = scale.len();
    assert_eq!(bias.len(), n, "q8 dequant bias length mismatch");
    assert_eq!(acc.len(), out.len(), "q8 dequant acc/out length mismatch");
    assert!(n > 0 && out.len().is_multiple_of(n), "q8 dequant output not whole rows");
    dispatch!(q8_dequant_rows(acc, scale, bias, gelu, out) else {
        q8_dequant_scalar(acc, scale, bias, gelu, out)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    //! One differential table over the dispatched entry points. Each entry
    //! names its class — what its arms are held to — and one harness,
    //! [`sweep`], runs every arm this CPU has (`F32x1`, `f32x8`, `f32x16`,
    //! `maddubs`, VNNI) on adversarial shapes and values, printing the arms
    //! it has to skip. The tests after the table each sweep one [`View`] of
    //! it, one kernel family per test.

    use super::*;
    use crate::fastmath::{exp_fast, gelu_fast, tanh_fast};
    use crate::tensor::gelu_grad_scalar;
    use std::sync::{Mutex, MutexGuard};

    /// Serialises the tests of this crate that toggle the process-global
    /// backend, or whose result depends on it.
    static LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn guard() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    // -- the harness ----------------------------------------------------------

    /// One way to run an entry point. [`ARMS`] lists them in the order the
    /// harness picks a case's reference from: the first arm that runs it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Arm {
        /// The kernel's own scalar statement, where its entry states one:
        /// a scalar oracle loop, the GEMM band's value contract, an index
        /// definition, or the row composition.
        Oracle,
        /// The generic body one lane wide: the scalar backend's arm.
        F32x1,
        /// The generic body 8 lanes wide, or an AVX2 kernel of its own.
        F32x8,
        /// The generic body 16 lanes wide (AVX-512F).
        F32x16,
        /// The AVX2 `maddubs` int8 GEMM.
        Maddubs,
        /// The AVX-512 VNNI int8 GEMM.
        Vnni,
    }

    const ARMS: [Arm; 6] =
        [Arm::Oracle, Arm::F32x1, Arm::F32x8, Arm::F32x16, Arm::Maddubs, Arm::Vnni];

    impl Arm {
        /// Whether this CPU runs the arm.
        fn runs(self) -> bool {
            #[cfg(target_arch = "x86_64")]
            let avx2 = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            match self {
                Arm::Oracle | Arm::F32x1 => true,
                #[cfg(target_arch = "x86_64")]
                Arm::F32x8 | Arm::Maddubs => avx2,
                #[cfg(target_arch = "x86_64")]
                Arm::F32x16 => avx2 && x86::wide(),
                #[cfg(target_arch = "x86_64")]
                Arm::Vnni => avx2 && x86::vnni(),
                #[cfg(not(target_arch = "x86_64"))]
                _ => false,
            }
        }
    }

    /// What one arm of a case produced.
    enum Out {
        F32(Vec<f32>),
        Int(Vec<i64>),
    }

    /// What an entry point's arms are held to. Floats compare bit for bit,
    /// any NaN equal to any other (which operand's payload an add keeps is
    /// the compiler's choice), except in [`Class::Oracle`]; integers
    /// compare exactly.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Class {
        /// The bits of the generic body one lane wide, or of the kernel's
        /// definition where its entry states one (which the one-lane body
        /// is then held to as well).
        OneLane,
        /// [`Class::OneLane`] on NaN-free inputs. A NaN input meets the
        /// fastmath clamp, which the one-lane body keeps like `f32::clamp`
        /// and the vector arms map to the lower bound (`maxps`), so on such
        /// a case the vector arms are held to each other.
        OneLaneFinite,
        /// Exactly the scalar loop's integers or bits: the int8 kernels.
        Exact,
        /// Within 1e-5 of the scalar oracle, relative to the largest
        /// finite output (at least 1): the row reductions, swept on finite
        /// moderate values because a non-finite row has no tolerance.
        Oracle,
        /// The bits of the row kernels' composition on one backend:
        /// [`attention_tile`] (the AVX2 backend's) and
        /// [`add_layer_norm_lanes`] (each backend's).
        RowComposition,
    }

    /// The test that sweeps an entry: one kernel family each.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum View {
        Transcendental,
        Accumulate,
        LaneEngine,
        Gemm,
        Rows,
        Attention,
        Q8Quantize,
        Q8Gemm,
        Q8Dequant,
        Histogram,
    }

    /// `run(arm)` runs one case on `arm` and returns its output, `None`
    /// where the entry point has no such arm.
    type Run<'a> = &'a dyn Fn(Arm) -> Option<Out>;
    /// Receives each case of an entry: its description, whether an input
    /// holds NaN, and its runner.
    type Case<'a> = &'a mut dyn FnMut(&str, bool, Run);

    struct Entry {
        name: &'static str,
        class: Class,
        view: View,
        cases: fn(Case),
    }

    /// Runs every entry of `view` on every arm this CPU has and holds each
    /// case's arms to its reference: the first arm of [`ARMS`] that runs
    /// the case — with NaN in a [`Class::OneLaneFinite`] case, the first
    /// vector arm.
    fn sweep(view: View) {
        let _g = guard();
        for arm in ARMS.into_iter().filter(|a| !a.runs()) {
            eprintln!("this CPU has no {arm:?} arm: it is skipped");
        }
        for entry in TABLE.iter().filter(|e| e.view == view) {
            let (mut cases, mut compared) = (0, [0usize; ARMS.len()]);
            (entry.cases)(&mut |what, nan, run| {
                cases += 1;
                let vector_only = nan && entry.class == Class::OneLaneFinite;
                let mut arms = ARMS
                    .into_iter()
                    .filter(|a| a.runs() && (!vector_only || matches!(a, Arm::F32x8 | Arm::F32x16)))
                    .filter_map(|a| run(a).map(|out| (a, out)));
                let Some((reference, want)) = arms.next() else { return };
                for (arm, got) in arms {
                    let what = format!("{} {what}: {arm:?} vs {reference:?}", entry.name);
                    entry.class.compare(&what, &got, &want);
                    compared[arm as usize] += 1;
                }
            });
            let compared: Vec<String> = ARMS
                .into_iter()
                .zip(compared)
                .filter(|&(_, n)| n > 0)
                .map(|(arm, n)| format!("{arm:?} ×{n}"))
                .collect();
            eprintln!(
                "{}: {cases} cases, arms held to the reference: {}",
                entry.name,
                compared.join(", ")
            );
        }
    }

    impl Class {
        fn compare(self, what: &str, got: &Out, want: &Out) {
            match (got, want) {
                (Out::Int(g), Out::Int(w)) => {
                    assert_eq!(g.len(), w.len(), "{what}: lengths differ");
                    if let Some(e) = g.iter().zip(w).position(|(g, w)| g != w) {
                        panic!("{what}: element {e} differs: {} vs {}", g[e], w[e]);
                    }
                }
                (Out::F32(g), Out::F32(w)) => {
                    assert_eq!(g.len(), w.len(), "{what}: lengths differ");
                    let scale =
                        w.iter().filter(|x| x.is_finite()).fold(1.0f32, |m, x| m.max(x.abs()));
                    let near =
                        |g: f32, w: f32| self == Class::Oracle && (g - w).abs() <= 1e-5 * scale;
                    let same = |g: f32, w: f32| {
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()) || near(g, w)
                    };
                    if let Some(e) = g.iter().zip(w).position(|(&g, &w)| !same(g, w)) {
                        panic!("{what}: element {e} differs: {:e} vs {:e}", g[e], w[e]);
                    }
                }
                _ => panic!("{what}: the arms return different kinds of output"),
            }
        }
    }

    /// `true` once `kernels::$name` has run on `$arm`'s width — `F32x1`, or
    /// the `f32x8` / `f32x16` instantiation — and `false` for any other arm.
    macro_rules! lanes {
        ($arm:expr, $name:ident($($arg:expr),* $(,)?)) => {
            match $arm {
                Arm::F32x1 => {
                    kernels::$name::<F32x1>($($arg),*);
                    true
                }
                #[cfg(target_arch = "x86_64")]
                Arm::F32x8 => {
                    // SAFETY: the harness runs only arms this CPU has.
                    unsafe { x86::f32x8::$name($($arg),*) };
                    true
                }
                #[cfg(target_arch = "x86_64")]
                Arm::F32x16 => {
                    // SAFETY: the harness runs only arms this CPU has.
                    unsafe { x86::f32x16::$name($($arg),*) };
                    true
                }
                _ => false,
            }
        };
    }

    /// `true` once `$name` has run on `$arm` — on [`Arm::Oracle`] the
    /// public entry point on the scalar backend, on [`Arm::F32x8`] the AVX2
    /// kernel `x86::$name` — and `false` for any other arm.
    macro_rules! scalar_or_avx2 {
        ($arm:expr, $name:ident($($arg:expr),* $(,)?)) => {
            match $arm {
                Arm::Oracle => {
                    with_backend(Backend::Scalar, || $name($($arg),*));
                    true
                }
                #[cfg(target_arch = "x86_64")]
                Arm::F32x8 => {
                    // SAFETY: the harness runs the arm only where AVX2 and
                    // FMA are detected.
                    unsafe { x86::$name($($arg),*) };
                    true
                }
                _ => false,
            }
        };
    }

    // -- adversarial values and shapes ----------------------------------------

    /// Values every arm must treat alike: signed zeros, subnormals, the
    /// clamp edges of the fastmath kernels (±87/88 for `exp`, ±9 for
    /// `tanh`), then the extremes and infinities, then NaN payloads (quiet
    /// of either sign, x86's default, a signalling pattern).
    const SPECIALS: [f32; 18] = [
        0.0,
        -0.0,
        1.0e-41,
        -3.0e-39,
        87.0,
        -87.0,
        88.0,
        -88.0,
        9.0,
        -9.0,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0xFFC0_0000),
        f32::from_bits(0x7FA0_0001),
        f32::from_bits(0xFFFF_FFFF),
    ];
    /// The finite moderate [`SPECIALS`], and those without NaN.
    const MODERATE: &[f32] = SPECIALS.split_at(10).0;
    const NO_NAN: &[f32] = SPECIALS.split_at(14).0;

    /// [`SPECIALS`] with NaN or [`NO_NAN`].
    fn specials(nan: bool) -> &'static [f32] {
        if nan {
            &SPECIALS
        } else {
            NO_NAN
        }
    }

    /// `n` values from an LCG in `[-4, 4)`, every `every`-th one replaced by
    /// one of `specials`.
    fn values(n: usize, salt: u64, every: usize, specials: &[f32]) -> Vec<f32> {
        let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|i| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if i % every == every - 1 {
                    specials[(i / every + salt as usize) % specials.len()]
                } else {
                    ((s >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0
                }
            })
            .collect()
    }

    /// Slice lengths on both sides of every vector width and past 512.
    fn lengths() -> impl Iterator<Item = usize> {
        (1..=40).chain(511..=513)
    }

    /// An element-wise kernel on one arm: `variant`, the inputs `a` and `b`
    /// and the output (or accumulator) `d`, all one length.
    type SliceKernel = fn(Arm, usize, &[f32], &[f32], &mut [f32]) -> bool;

    /// Every length at offsets 0–3, on mixed values and on nothing but
    /// special values, each with and without NaN, for each of `variants`.
    /// The output is the whole destination buffer, so a write past the
    /// slice shows.
    fn slice_cases(case: Case, variants: usize, kernel: SliceKernel) {
        for n in lengths() {
            for off in 0..4 {
                for (every, nan) in [(3, false), (1, false), (3, true), (1, true)] {
                    let salt = (n * 8 + off * 2 + every) as u64;
                    let a = values(off + n, salt, every, specials(nan));
                    let b = values(off + n, salt + 1, every + 1, specials(nan));
                    let d0 = values(off + n + 3, salt + 2, 5, specials(nan));
                    for variant in 0..variants {
                        let what = format!("n={n} off={off} every={every} variant={variant}");
                        case(&what, nan, &|arm| {
                            let mut d = d0.clone();
                            let d_n = &mut d[off..off + n];
                            kernel(arm, variant, &a[off..], &b[off..], d_n).then_some(Out::F32(d))
                        });
                    }
                }
            }
        }
    }

    /// The scalars of `axpy_acc` and `scale_slice`, by variant.
    const BROADCASTS: [f32; 4] = [0.73, -1.37, -0.0, f32::INFINITY];

    /// The butterfly stage on one vector: stages of 64 pairs at every power
    /// of two half, whole-vector stages around the vector widths, and
    /// single-block stages of every half up to 40, at offsets 0–3.
    fn stage_cases(case: Case) {
        let shapes = [(64usize, 1usize), (64, 2), (64, 4), (64, 8), (64, 16), (64, 32), (64, 64)]
            .into_iter()
            .chain((1..=40).map(|h| (h, h)));
        for (pairs, half) in shapes {
            for off in 0..4 {
                for nan in [false, true] {
                    let salt = (pairs * 64 + half * 4 + off) as u64;
                    let w: Vec<Vec<f32>> =
                        (0..4).map(|s| values(pairs, salt + s, 29, specials(nan))).collect();
                    let x0 = values(off + 2 * pairs, salt + 4, 7, specials(nan));
                    let what = format!("pairs={pairs} half={half} off={off}");
                    case(&what, nan, &|arm| {
                        let mut x = x0.clone();
                        let [w1, w2, w3, w4] = [&w[0], &w[1], &w[2], &w[3]];
                        lanes!(arm, butterfly_stage_in_place(half, w1, w2, w3, w4, &mut x[off..]))
                            .then_some(Out::F32(x))
                    });
                }
            }
        }
    }

    /// Tile widths of the lane engine: one lane, below and between the
    /// vector widths, and the 16-lane arm's multiples of 16.
    const WIDTHS: [usize; 7] = [1, 3, 8, 16, 24, 32, 48];
    /// Butterfly stages `(pairs, half)` of the lane engine.
    const ENGINE_STAGES: [(usize, usize); 6] = [(1, 1), (4, 1), (4, 2), (4, 4), (16, 4), (64, 16)];

    /// Calls `f(width, off, data)` for every engine width, offsets 0 and 3,
    /// with and without NaN; `data(rows, salt)` is an `[rows][width]`
    /// buffer at offset `off` with a special value every 61 elements, so
    /// most columns stay finite through every stage.
    fn engine_shapes(mut f: impl FnMut(usize, usize, bool, &dyn Fn(usize, u64) -> Vec<f32>)) {
        for width in WIDTHS {
            for off in [0, 3] {
                for nan in [false, true] {
                    let data = |rows, salt| values(off + rows * width, salt, 61, specials(nan));
                    f(width, off, nan, &data);
                }
            }
        }
    }

    /// A butterfly stage of the lane engine: in place, out of place
    /// (`Stage::Into`, which must leave its source alone), or its gradient
    /// (`Stage::Backward`: output the gradient and then the accumulators),
    /// the gradient on one tile and on rows of three tiles side by side,
    /// with the last tile partial and half the input rows shared.
    fn engine_stage_cases(case: Case, stage: Stage) {
        engine_shapes(|width, off, nan, data| {
            for (pairs, half) in ENGINE_STAGES {
                let n = 2 * pairs;
                let salt = (width * 100 + pairs * 10 + half) as u64;
                let w: Vec<Vec<f32>> =
                    (0..4).map(|s| values(pairs, salt + s, 13, specials(nan))).collect();
                let [w1, w2, w3, w4] = [&w[0], &w[1], &w[2], &w[3]];
                let tilings: &[(usize, usize, usize)] = match stage {
                    Stage::Backward => {
                        &[(1, width, n), (3, 3 * width, n / 2), (3, 2 * width + 1, 0)]
                    }
                    _ => &[(1, width, n)],
                };
                for &(tiles, live, shared) in tilings {
                    let rows = n * tiles;
                    let (x0, grad0, acc0) =
                        (data(rows, salt + 4), data(rows, salt + 5), data(2 * n, salt + 6));
                    let what = format!(
                        "width={width} pairs={pairs} half={half} off={off} tiles={tiles} \
                         live={live} shared={shared}"
                    );
                    case(&what, nan, &|arm| {
                        let (mut x, mut acc) = (x0.clone(), acc0.clone());
                        let ran = match stage {
                            Stage::InPlace => lanes!(
                                arm,
                                butterfly_stage_lanes(half, w1, w2, w3, w4, &mut x[off..], width)
                            ),
                            Stage::Into => {
                                let mut y = grad0.clone();
                                let (src, dst) = (&x[off..], &mut y[off..]);
                                let ran = lanes!(
                                    arm,
                                    butterfly_stage_lanes_into(
                                        half, w1, w2, w3, w4, src, dst, width
                                    )
                                );
                                x.extend(y);
                                ran
                            }
                            Stage::Backward => {
                                let mut grad = grad0.clone();
                                let (input, g, a) = (&x[off..], &mut grad[off..], &mut acc[off..]);
                                let ran = lanes!(
                                    arm,
                                    butterfly_stage_backward_lanes(
                                        half, w1, w2, w3, w4, input, g, a, width, live, shared
                                    )
                                );
                                x = grad;
                                x.extend(acc);
                                ran
                            }
                        };
                        ran.then_some(Out::F32(x))
                    });
                }
            }
        });
    }

    /// The three stage kernels of [`engine_stage_cases`].
    #[derive(Clone, Copy)]
    enum Stage {
        InPlace,
        Into,
        Backward,
    }

    /// `fold_lanes16` against the halving tree spelled out on scalars.
    fn fold_cases(case: Case) {
        for rows in [1usize, 7, 8, 15, 16, 17, 33, 64] {
            for off in [0, 3] {
                for nan in [false, true] {
                    let src = values(off + 16 * rows, (rows * 10 + off) as u64, 5, specials(nan));
                    let src = &src[off..];
                    case(&format!("rows={rows} off={off}"), nan, &|arm| {
                        let mut dst = vec![SENTINEL; rows];
                        if arm == Arm::Oracle {
                            for (d, p) in dst.iter_mut().zip(src.chunks(16)) {
                                let q: Vec<f32> = (0..8).map(|k| p[k] + p[k + 8]).collect();
                                let r: Vec<f32> = (0..4).map(|k| q[k] + q[k + 4]).collect();
                                *d = (r[0] + r[2]) + (r[1] + r[3]);
                            }
                            return Some(Out::F32(dst));
                        }
                        lanes!(arm, fold_lanes16(src, &mut dst)).then_some(Out::F32(dst))
                    });
                }
            }
        }
    }

    /// Stage-major twiddles of a `2m`-point transform: the stage with
    /// half-size `h` at `h − 1 ..`; the last stage is the real split's.
    fn twiddles(m: usize) -> (Vec<f32>, Vec<f32>) {
        let (mut re, mut im) = (Vec::new(), Vec::new());
        for h in (0..).map(|s| 1usize << s).take_while(|&h| h < 2 * m) {
            for j in 0..h {
                let theta = -std::f32::consts::PI * j as f32 / h as f32;
                re.push(theta.cos());
                im.push(theta.sin());
            }
        }
        (re, im)
    }

    /// The FFT kernels on `m + 1` rows: `split` runs the real split over
    /// all of them, else the stages over the first `m`.
    fn fft_cases(case: Case, split: bool) {
        engine_shapes(|width, off, nan, data| {
            for m in [1usize, 2, 4, 16, 64] {
                let (tw_re, tw_im) = twiddles(m);
                let salt = (width * 100 + m) as u64;
                let (re0, im0) = (data(m + 1, salt), data(m + 1, salt + 1));
                let what = format!("width={width} m={m} off={off}");
                case(&what, nan, &|arm| {
                    let (mut re, mut im) = (re0.clone(), im0.clone());
                    let (r, i) = (&mut re[off..], &mut im[off..]);
                    let ran = if split {
                        let (tr, ti) = (&tw_re[m - 1..], &tw_im[m - 1..]);
                        lanes!(arm, fft_real_split_lanes(tr, ti, r, i, width))
                    } else {
                        let (r, i) = (&mut r[..m * width], &mut i[..m * width]);
                        lanes!(arm, fft_stages_lanes(&tw_re, &tw_im, r, i, width))
                    };
                    re.extend(im);
                    ran.then_some(Out::F32(re))
                });
            }
        });
    }

    /// What the transposes leave in an element they do not write.
    const SENTINEL: f32 = 7.0;

    /// Calls `f(width, rows, cols, off, nan)` for the transpose shapes:
    /// empty, single-row, half, one-short and full tiles; column counts
    /// around the vector widths and 512.
    fn transpose_shapes(mut f: impl FnMut(usize, usize, usize, usize, bool)) {
        for width in [1usize, 3, 8, 16, 32, 48] {
            let mut rows_set = vec![0, 1, width / 2, width - 1, width];
            rows_set.dedup();
            for rows in rows_set {
                for cols in [4usize, 8, 15, 16, 17, 33, 512] {
                    for off in [0, 3] {
                        for nan in [false, true] {
                            f(width, rows, cols, off, nan);
                        }
                    }
                }
            }
        }
    }

    /// `rows_to_lanes` against its index definition, with and without a
    /// bit-reversal permutation.
    fn rows_to_lanes_cases(case: Case) {
        transpose_shapes(|width, rows, cols, off, nan| {
            let stride = cols + 3;
            let salt = (width * 10_000 + rows * 1000 + cols) as u64;
            let src = values(off + rows * stride, salt, 3, specials(nan));
            let src = &src[off..];
            let span = cols.next_power_of_two();
            let bitrev: Vec<usize> = (0..span)
                .map(|i| i.reverse_bits() >> (usize::BITS - span.trailing_zeros()))
                .collect();
            for perm in [&[][..], &bitrev[..cols]] {
                let what = format!(
                    "width={width} rows={rows} cols={cols} off={off} perm={}",
                    !perm.is_empty()
                );
                case(&what, nan, &|arm| {
                    let mut tile = vec![SENTINEL; span * width];
                    if arm == Arm::Oracle {
                        for c in 0..cols {
                            let at = if perm.is_empty() { c } else { perm[c] };
                            for r in 0..width {
                                tile[at * width + r] =
                                    if r < rows { src[r * stride + c] } else { 0.0 };
                            }
                        }
                        return Some(Out::F32(tile));
                    }
                    lanes!(arm, rows_to_lanes(src, stride, rows, cols, perm, &mut tile, width))
                        .then_some(Out::F32(tile))
                });
            }
        });
    }

    /// `lanes_to_rows` against its definition, with and without a bias.
    fn lanes_to_rows_cases(case: Case) {
        transpose_shapes(|width, rows, cols, off, nan| {
            let stride = cols + 3;
            let salt = (width * 10_000 + rows * 1000 + cols) as u64;
            let tile = values(off + cols * width, salt, 3, specials(nan));
            let tile = &tile[off..];
            let bias = values(cols, salt + 1, 4, specials(nan));
            for bias in [&[][..], &bias[..]] {
                let what = format!(
                    "width={width} rows={rows} cols={cols} off={off} bias={}",
                    !bias.is_empty()
                );
                case(&what, nan, &|arm| {
                    let mut out = vec![SENTINEL; rows * stride];
                    if arm == Arm::Oracle {
                        for r in 0..rows {
                            for c in 0..cols {
                                let y = tile[c * width + r];
                                out[r * stride + c] = if bias.is_empty() { y } else { y + bias[c] };
                            }
                        }
                        return Some(Out::F32(out));
                    }
                    lanes!(arm, lanes_to_rows(tile, width, rows, cols, bias, &mut out, stride))
                        .then_some(Out::F32(out))
                });
            }
        });
    }

    /// `bias_gelu_lanes` against its definition, with and without GELU, on
    /// every engine width and 1, 7 and 64 feature rows.
    fn bias_gelu_lanes_cases(case: Case) {
        engine_shapes(|width, off, nan, data| {
            for n in [1usize, 7, 64] {
                let salt = (width * 100 + n) as u64;
                let (x0, bias) = (data(n, salt), values(n, salt + 1, 4, specials(nan)));
                for gelu in [false, true] {
                    let what = format!("width={width} n={n} off={off} gelu={gelu}");
                    case(&what, nan, &|arm| {
                        let mut x = x0.clone();
                        if arm == Arm::Oracle {
                            for (c, row) in x[off..].chunks_exact_mut(width).enumerate() {
                                for v in row {
                                    let y = *v + bias[c];
                                    *v = if gelu { gelu_fast(y) } else { y };
                                }
                            }
                            return Some(Out::F32(x));
                        }
                        lanes!(arm, bias_gelu_lanes(&mut x[off..], &bias, gelu, width))
                            .then_some(Out::F32(x))
                    });
                }
            }
        });
    }

    /// `add_layer_norm_lanes` against [`add_layer_norm_row`] run on each
    /// lane's row. On the AVX2 backend's rows the generic body is held to
    /// them at 1, 8 and 16 lanes; on the scalar backend's rows, the scalar
    /// backend's own lane loop (as [`Arm::F32x1`]). Every engine width,
    /// 1–40 and 128 features (whole groups of eight and every tail), offsets
    /// 0 and 3, on moderate values and on values spread 30 times wider.
    fn add_layer_norm_lanes_cases(case: Case) {
        let mut backends = vec![Backend::Scalar];
        #[cfg(target_arch = "x86_64")]
        if Arm::F32x8.runs() {
            backends.push(Backend::Avx2);
        }
        for backend in backends {
            for width in WIDTHS {
                for n in (1..=40).chain([128]) {
                    for (off, spread) in [(0, 1.0f32), (3, 30.0)] {
                        let salt = (width * 1000 + n * 4 + off) as u64;
                        let [a, b0, gamma, beta] = [0, 1, 2, 3].map(|s| {
                            let v = values(off + n * width, salt + s, 7, MODERATE);
                            v.iter().map(|x| x * spread).collect::<Vec<f32>>()
                        });
                        let (gamma, beta) = (&gamma[..n], &beta[..n]);
                        let what = format!("{backend:?} width={width} n={n} off={off}");
                        case(&what, false, &|arm| {
                            let mut b = b0.clone();
                            let ran = match (arm, backend) {
                                (Arm::Oracle, _) => {
                                    let (mut ra, mut rb, mut out) =
                                        (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                                    for r in 0..width {
                                        for c in 0..n {
                                            ra[c] = a[off + c * width + r];
                                            rb[c] = b[off + c * width + r];
                                        }
                                        with_backend(backend, || {
                                            add_layer_norm_row(
                                                &ra, &rb, gamma, beta, 1e-5, &mut out,
                                            )
                                        });
                                        for c in 0..n {
                                            b[off + c * width + r] = out[c];
                                        }
                                    }
                                    true
                                }
                                (Arm::F32x1, Backend::Scalar) => {
                                    let (a, b) = (&a[off..], &mut b[off..]);
                                    add_layer_norm_lanes_scalar(a, b, gamma, beta, 1e-5, width);
                                    true
                                }
                                (_, Backend::Scalar) => false,
                                #[cfg(target_arch = "x86_64")]
                                (_, Backend::Avx2) => lanes!(
                                    arm,
                                    add_layer_norm_lanes(
                                        &a[off..],
                                        &mut b[off..],
                                        gamma,
                                        beta,
                                        1e-5,
                                        width
                                    )
                                ),
                            };
                            ran.then_some(Out::F32(b))
                        });
                    }
                }
            }
        }
    }

    /// `abs_histogram_run` against its per-value loop: every length, ranges
    /// of 1, 0.5 and infinity, 2048, 3 and 1 bins, on values that are NaN,
    /// ±0, equal to the range, or above it at one position of a vector step
    /// or of the tail. The output is the counts, then the binned count and
    /// the magnitude's bits.
    fn abs_histogram_run_cases(case: Case) {
        for n in lengths() {
            for (range, bins) in [(1.0f32, 2048usize), (0.5, 3), (f32::INFINITY, 2048), (1.0, 1)] {
                for over in [None, Some(0), Some(n / 2), Some(n - 1)] {
                    let salt = (n * 16 + bins) as u64;
                    let mut src: Vec<f32> = values(n, salt, 3, &SPECIALS)
                        .iter()
                        .map(|x| if x.abs() > range { x / 8.0 } else { *x })
                        .collect();
                    src.iter_mut().skip(1).step_by(5).for_each(|x| *x = -range);
                    src.iter_mut().skip(2).step_by(11).for_each(|x| *x = f32::NAN);
                    if let Some(at) = over {
                        src[at] = if range.is_finite() { range * 1.5 } else { f32::NAN };
                    }
                    let what = format!("n={n} range={range} bins={bins} over={over:?}");
                    case(&what, true, &|arm| {
                        let mut counts = vec![0u64; bins];
                        let (binned, max) = match arm {
                            Arm::Oracle => abs_histogram_run_scalar(&src, range, &mut counts),
                            // SAFETY: the harness runs only arms this CPU has.
                            #[cfg(target_arch = "x86_64")]
                            Arm::F32x8 => unsafe {
                                x86::abs_histogram_run(&src, range, &mut counts)
                            },
                            _ => return None,
                        };
                        let mut out: Vec<i64> = counts.iter().map(|&c| c as i64).collect();
                        out.extend([binned as i64, max.to_bits() as i64]);
                        Some(Out::Int(out))
                    });
                }
            }
        }
    }

    /// The GEMM band's value, element by element: from `dst`, ascending
    /// `p`, ±0.0 lhs terms skipped, one `f32::mul_add` per term on the
    /// first `n − n % 16` columns, `+= a · b` on the rest.
    fn matmul_band_contract(
        lhs: &[f32],
        k: usize,
        rhs: &[f32],
        n: usize,
        i0: usize,
        dst: &mut [f32],
    ) {
        let fma_cols = n - n % 16;
        for (r, row) in dst.chunks_mut(n).enumerate() {
            for (j, d) in row.iter_mut().enumerate() {
                for p in 0..k {
                    let a = lhs[(i0 + r) * k + p];
                    if a == 0.0 {
                        continue;
                    }
                    let b = rhs[p * n + j];
                    *d = if j < fma_cols { a.mul_add(b, *d) } else { *d + a * b };
                }
            }
        }
    }

    /// Operands of one band case: `(lhs, rhs, dst, i0)`. `case % 4` picks
    /// the lhs zeros — none, one (in any row), one per row, all (±0.0
    /// alternating) — and odd cases add a NaN lhs term and a ±inf rhs row at
    /// the depth of the first zero, which only a skip keeps out of the sum.
    /// `dst` starts nonzero, with a −0.0 every seventh element.
    fn band_case(
        rows: usize,
        k: usize,
        n: usize,
        case: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, usize) {
        let mut s = (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        };
        let i0 = 1 + case % 3;
        let mut lhs: Vec<f32> = (0..(i0 + rows + 1) * k).map(|_| next()).collect();
        let mut rhs: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let mut dst: Vec<f32> = (0..rows * n).map(|_| next()).collect();
        dst.iter_mut().step_by(7).for_each(|d| *d = -0.0);
        let at = |r: usize, p: usize| (i0 + r) * k + p;
        let signed_zero = |i: usize| if i.is_multiple_of(2) { 0.0 } else { -0.0 };
        let p0 = case % k;
        match case % 4 {
            0 => {}
            1 => lhs[at(case / 4 % rows, p0)] = -0.0,
            2 => (0..rows).for_each(|r| lhs[at(r, (p0 + 31 * r) % k)] = signed_zero(r)),
            _ => (0..rows * k).for_each(|i| lhs[at(0, 0) + i] = signed_zero(i)),
        }
        if case % 2 == 1 {
            if case % 4 != 3 {
                lhs[at(rows - 1, k / 2)] = f32::NAN;
            }
            for j in (0..n).step_by(5) {
                rhs[p0 * n + j] =
                    if j.is_multiple_of(2) { f32::INFINITY } else { f32::NEG_INFINITY };
            }
        }
        (lhs, rhs, dst, i0)
    }

    /// Row counts around the 8-, 4-, 2- and 1-row tiles, depths around the
    /// 128-deep blocks, widths 1…40 and 48, and 511–1100 on a thinned grid.
    fn matmul_band_cases(case: Case) {
        let widths: Vec<usize> = (1..=40).chain([48, 511, 512, 513, 1024, 1100]).collect();
        let mut id = 0;
        for rows in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 64] {
            for k in [1usize, 31, 127, 128, 129, 300] {
                for &n in &widths {
                    // Wide rows on a thinned grid: the panel edges are what
                    // they add, not more row groups.
                    if n > 48 && (rows * k > 17 * 129 || rows == 2 || k == 127) {
                        continue;
                    }
                    id += 1;
                    let (lhs, rhs, dst0, i0) = band_case(rows, k, n, id);
                    let what = format!("{rows}x{k}x{n} (case {id})");
                    case(&what, id % 2 == 1, &|arm| {
                        let mut dst = dst0.clone();
                        if arm == Arm::Oracle {
                            matmul_band_contract(&lhs, k, &rhs, n, i0, &mut dst);
                            return Some(Out::F32(dst));
                        }
                        lanes!(arm, matmul_band(&lhs, k, &rhs, n, i0, &mut dst))
                            .then_some(Out::F32(dst))
                    });
                }
            }
        }
    }

    /// A row kernel on one arm: `row`, a second row `b` (the residual of
    /// the fused layer norm), `gamma`, `beta` and the output.
    type RowKernel = fn(Arm, &[f32], &[f32], &[f32], &[f32], &mut [f32]) -> bool;

    /// Every length at offsets 0–3, on moderate values and on values spread
    /// far past the `exp` clamp.
    fn row_cases(case: Case, kernel: RowKernel) {
        for n in lengths() {
            for off in 0..4 {
                for spread in [1.0f32, 30.0] {
                    let salt = (n * 4 + off) as u64;
                    let rows: Vec<Vec<f32>> = (0..4)
                        .map(|s| {
                            values(off + n, salt + s, 7, MODERATE)
                                .iter()
                                .map(|x| x * spread)
                                .collect()
                        })
                        .collect();
                    let what = format!("n={n} off={off} spread={spread}");
                    case(&what, false, &|arm| {
                        let mut out = vec![SENTINEL; off + n + 3];
                        let [a, b, g, beta] =
                            [&rows[0], &rows[1], &rows[2], &rows[3]].map(|r| &r[off..]);
                        let ran = kernel(arm, a, b, g, beta, &mut out[off..off + n]);
                        ran.then_some(Out::F32(out))
                    });
                }
            }
        }
    }

    /// Operands of one attention tile case, `(q, k, v)`: `rows` query and
    /// `len` key rows `head_dim + 3` wide, the head at column 2. Values are
    /// an LCG's in `[-4, 4)`; query row `r` is scaled by
    /// `[0.05, 0.5, 2, 8][r % 4]`, so some rows' scores spread far past the
    /// −87 clamp of `exp` and others not. The query is ±0.0 in the head's
    /// first column in two rows of three and in its last column in one row
    /// of five. K holds a NaN at keys `len / 4` (x86's default) and
    /// `len − 1` (a positive quiet one), `−inf` at `len / 3` and `+inf` at
    /// `len / 2`, each in a column some rows skip and others meet.
    fn tile_case(rows: usize, len: usize, head_dim: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let dim = head_dim + 3;
        let mut s = (rows * 1_000_003 + len * 1009 + head_dim) as u64 | 1;
        let mut next = move || {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0
        };
        let mut q: Vec<f32> = (0..rows * dim).map(|_| next()).collect();
        let mut k: Vec<f32> = (0..len * dim).map(|_| next()).collect();
        let v: Vec<f32> = (0..len * dim).map(|_| next()).collect();
        for (r, row) in q.chunks_mut(dim).enumerate() {
            row.iter_mut().for_each(|x| *x *= [0.05, 0.5, 2.0, 8.0][r % 4]);
            let signed_zero = if r % 2 == 0 { 0.0 } else { -0.0 };
            if r % 3 != 1 {
                row[2] = signed_zero;
            }
            if r % 5 == 0 {
                row[2 + head_dim - 1] = -signed_zero;
            }
        }
        for (key, p, x) in [
            (len / 4, 1 % head_dim, f32::from_bits(0xFFC0_0000)),
            (len / 3, head_dim / 2, f32::NEG_INFINITY),
            (len / 2, head_dim - 1, f32::INFINITY),
            (len - 1, 0, f32::NAN),
        ] {
            k[key * dim + 2 + p] = x;
        }
        (q, k, v)
    }

    /// Lengths around the 8-partial and 16-key edges, head widths around
    /// the 16-column FMA blocks, 1–32 rows (one- and two-vector tiles),
    /// prescaled or not; the scratch full of NaN and the output's other
    /// columns at a sentinel.
    fn attention_tile_cases(case: Case) {
        type TileKernel = unsafe fn(
            &[f32],
            &[f32],
            &[f32],
            usize,
            usize,
            usize,
            Option<f32>,
            &mut [f32],
            &mut [f32],
        );
        type ProbsKernel =
            unsafe fn(&[f32], &[f32], usize, usize, usize, Option<f32>, &mut [f32], &mut [f32]);
        for len in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 127, 128, 129, 1000] {
            for head_dim in [1usize, 7, 8, 15, 16, 17, 32, 33] {
                for rows in [1usize, 15, 16, 17, 31, 32] {
                    let dim = head_dim + 3;
                    let (q, k, v) = tile_case(rows, len, head_dim);
                    let need =
                        (32 * (len + head_dim)).max(rows * (head_dim + len) + head_dim * len + len);
                    for scale in [None, Some(1.0 / (head_dim as f32).sqrt())] {
                        let what =
                            format!("len={len} head_dim={head_dim} rows={rows} scale={scale:?}");
                        case(&what, true, &|arm| {
                            let tile: TileKernel = match arm {
                                #[cfg(target_arch = "x86_64")]
                                Arm::Oracle if Arm::F32x8.runs() => attention_tile_rows,
                                #[cfg(target_arch = "x86_64")]
                                Arm::F32x8 => x86::f32x8::attention_tile,
                                #[cfg(target_arch = "x86_64")]
                                Arm::F32x16 => x86::f32x16::attention_tile,
                                _ => return None,
                            };
                            let mut scratch = vec![f32::NAN; need];
                            let mut out = vec![SENTINEL; rows * dim];
                            let (s, o) = (&mut scratch, &mut out);
                            // SAFETY: the harness runs only arms this CPU
                            // has; the scratch holds 32 lanes' worth. The
                            // row composition runs on the AVX2 backend,
                            // whose row kernels the tile replays.
                            with_backend_avx2(|| unsafe {
                                tile(&q, &k, &v, dim, 2, head_dim, scale, s, o)
                            });
                            Some(Out::F32(out))
                        });
                        // The same tiles' probabilities, as the backward
                        // recomputes them.
                        case(&format!("probs {what}"), true, &|arm| {
                            let probs: ProbsKernel = match arm {
                                #[cfg(target_arch = "x86_64")]
                                Arm::Oracle if Arm::F32x8.runs() => attention_probs_composed,
                                #[cfg(target_arch = "x86_64")]
                                Arm::F32x8 => x86::f32x8::attention_probs,
                                #[cfg(target_arch = "x86_64")]
                                Arm::F32x16 => x86::f32x16::attention_probs,
                                _ => return None,
                            };
                            let mut scratch = vec![f32::NAN; need];
                            let mut p = vec![SENTINEL; rows * len];
                            let (s, p_out) = (&mut scratch, &mut p);
                            // SAFETY: as for the tile above.
                            with_backend_avx2(|| unsafe {
                                probs(&q, &k, dim, 2, head_dim, scale, s, p_out)
                            });
                            Some(Out::F32(p))
                        });
                    }
                }
            }
        }
    }

    /// Runs `f` on the AVX2 backend where there is one.
    fn with_backend_avx2<R>(f: impl FnOnce() -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        if Arm::F32x8.runs() {
            return with_backend(Backend::Avx2, f);
        }
        f()
    }

    /// Quantize inputs: round-to-even ties, the ±127 clamp edges and
    /// beyond, and the non-NaN specials (NaN is unspecified there).
    fn q8_quantize_cases(case: Case) {
        const TIES: [f32; 12] =
            [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -126.5, 127.5, -127.5, 128.0, -128.0];
        for n in lengths() {
            for off in 0..4 {
                for inv_scale in [1.0f32, 37.5, 101.0] {
                    let salt = (n * 4 + off) as u64;
                    let mut src = values(off + n, salt, 3, NO_NAN);
                    for (i, x) in src.iter_mut().enumerate().skip(off).step_by(4) {
                        *x = TIES[i % TIES.len()] / inv_scale;
                    }
                    let what = format!("n={n} off={off} inv_scale={inv_scale}");
                    case(&what, false, &|arm| {
                        let mut dst = vec![99i8; off + n + 3];
                        let (s, d) = (&src[off..], &mut dst[off..off + n]);
                        scalar_or_avx2!(arm, q8_quantize_slice(s, inv_scale, d))
                            .then(|| Out::Int(dst.iter().map(|&q| q as i64).collect()))
                    });
                }
            }
        }
    }

    /// `len` int8 values in `[-127, 127]` from an LCG, every third one a
    /// ±127 corner.
    fn q8_corner_data(len: usize, salt: u64) -> Vec<i8> {
        let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|i| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                match i % 6 {
                    2 => 127,
                    5 => -127,
                    _ => (((s >> 33) % 255) as i32 - 127) as i8,
                }
            })
            .collect()
    }

    /// m 1–17/64/65 × k around the 4-byte groups, the 32-byte `maddubs`
    /// chunks and the VNNI arm's 512-byte staged chunk × n around its 16-
    /// and 32-column tiles, at offsets 0–3; constant ±127 corners; and the
    /// wrap edge at `k = 130 000`, where `Σ (a + 128) · w` leaves i32 and
    /// only the non-saturating `vpdpbusd` stays exact. The output is a
    /// sentinel buffer around `out`, so a write outside it shows.
    fn q8_gemm_cases(case: Case) {
        let gemm = |case: Case, what: &str, a: &[i8], bt: &[i8], k: usize, n: usize, off: usize| {
            let m = a.len() / k;
            #[cfg(target_arch = "x86_64")]
            let pack = Arm::Vnni.runs().then(|| VnniPack::new(bt, k, n));
            case(what, false, &|arm| {
                let mut buf = vec![0x5EED_5EEDi32; off + m * n + 17];
                let out = &mut buf[off..off + m * n];
                match arm {
                    Arm::Oracle => q8_gemm_scalar(a, bt, k, n, out),
                    // SAFETY: the harness runs only arms this CPU has.
                    #[cfg(target_arch = "x86_64")]
                    Arm::Maddubs => unsafe { x86::q8_gemm_i32(a, bt, k, n, out) },
                    // SAFETY: the harness runs only arms this CPU has.
                    #[cfg(target_arch = "x86_64")]
                    Arm::Vnni => unsafe { x86::q8_gemm_vnni(a, pack.as_ref()?, k, n, out) },
                    _ => return None,
                }
                Some(Out::Int(buf.iter().map(|&x| x as i64).collect()))
            });
        };
        let ms: Vec<usize> = (1..=17).chain([64, 65]).collect();
        let ks = [1usize, 2, 3, 4, 5, 31, 63, 64, 65, 128, 512, 515];
        let ns = [1usize, 2, 3, 15, 16, 17, 31, 32, 33, 128, 512];
        let mut id = 0u64;
        for &m in &ms {
            for &k in &ks {
                for &n in &ns {
                    id += 1;
                    let off = id as usize % 4;
                    let a = q8_corner_data(off + m * k, 2 * id);
                    let bt = q8_corner_data(off + n * k, 2 * id + 1);
                    gemm(
                        case,
                        &format!("mixed m={m} k={k} n={n} off={off}"),
                        &a[off..],
                        &bt[off..],
                        k,
                        n,
                        off,
                    );
                }
            }
        }
        for (k, ms, ns) in [(65usize, &ms[..], &ns[..]), (130_000, &[1, 9][..], &[33][..])] {
            for &m in ms {
                for &n in ns {
                    for (av, wv) in [(127i8, 127i8), (127, -127), (-127, 127), (-127, -127)] {
                        let (a, bt) = (vec![av; m * k], vec![wv; n * k]);
                        gemm(case, &format!("a={av} w={wv} m={m} k={k} n={n}"), &a, &bt, k, n, 0);
                    }
                }
            }
        }
    }

    /// Accumulators across the i32 range (the f32 conversion rounds past
    /// 2²⁴), scales and biases with every special value.
    fn q8_dequant_cases(case: Case, gelu: bool) {
        for n in lengths() {
            for rows in [1usize, 3] {
                for nan in [false, true] {
                    let salt = (n * 4 + rows) as u64;
                    let acc: Vec<i32> = (0..rows * n)
                        .map(|i| match i % 5 {
                            0 => i32::MAX - i as i32,
                            1 => i32::MIN + i as i32,
                            _ => (i as i32).wrapping_mul(7919) % 40_000 - 20_000,
                        })
                        .collect();
                    let scale = values(n, salt, 3, specials(nan));
                    let bias = values(n, salt + 1, 4, specials(nan));
                    let what = format!("n={n} rows={rows}");
                    case(&what, nan, &|arm| {
                        let mut out = vec![SENTINEL; rows * n + 3];
                        let o = &mut out[..rows * n];
                        let ran = match arm {
                            Arm::Oracle => {
                                q8_dequant_scalar(&acc, &scale, &bias, gelu, o);
                                true
                            }
                            #[cfg(target_arch = "x86_64")]
                            Arm::F32x8 => {
                                // SAFETY: the harness runs the arm only where
                                // AVX2 is detected; `acc` and `o` are whole rows.
                                unsafe { x86::q8_dequant_rows(&acc, &scale, &bias, gelu, o) };
                                true
                            }
                            _ => false,
                        };
                        ran.then_some(Out::F32(out))
                    });
                }
            }
        }
    }

    // -- the table --------------------------------------------------------------

    /// `name: class, view, cases;` per dispatched entry point.
    macro_rules! table {
        ($($name:ident: $class:ident, $view:ident, $cases:expr;)*) => {
            /// Every dispatched entry point, its class and its view.
            const TABLE: &[Entry] = &[$(Entry {
                name: stringify!($name),
                class: Class::$class,
                view: View::$view,
                cases: $cases,
            }),*];
        };
    }

    table! {
        exp_slice: OneLaneFinite, Transcendental,
            |c| slice_cases(c, 1, |arm, _, a, _, d| lanes!(arm, exp_slice(a, d)));
        tanh_slice: OneLaneFinite, Transcendental,
            |c| slice_cases(c, 1, |arm, _, a, _, d| lanes!(arm, tanh_slice(a, d)));
        gelu_slice: OneLane, Transcendental,
            |c| slice_cases(c, 1, |arm, _, a, _, d| lanes!(arm, gelu_slice(a, d)));
        gelu_grad_acc: OneLane, Transcendental,
            |c| slice_cases(c, 1, |arm, _, g, x, d| lanes!(arm, gelu_grad_acc(d, g, x)));
        add_acc: OneLane, Accumulate,
            |c| slice_cases(c, 1, |arm, _, a, _, d| lanes!(arm, add_acc(d, a)));
        axpy_acc: OneLane, Accumulate, |c| slice_cases(c, BROADCASTS.len(), |arm, i, x, _, d| {
            lanes!(arm, axpy_acc(d, BROADCASTS[i], x))
        });
        mul_acc: OneLane, Accumulate,
            |c| slice_cases(c, 1, |arm, _, a, b, d| lanes!(arm, mul_acc(d, a, b)));
        binary_slice: OneLane, Accumulate, |c| slice_cases(c, 3, |arm, i, a, b, d| {
            lanes!(arm, binary_slice([BinOp::Add, BinOp::Sub, BinOp::Mul][i], a, b, d))
        });
        scale_slice: OneLane, Accumulate, |c| slice_cases(c, BROADCASTS.len(), |arm, i, x, _, d| {
            lanes!(arm, scale_slice(x, BROADCASTS[i], d))
        });
        butterfly_stage_in_place: OneLane, LaneEngine, stage_cases;
        butterfly_stage_lanes: OneLane, LaneEngine, |c| engine_stage_cases(c, Stage::InPlace);
        butterfly_stage_lanes_into: OneLane, LaneEngine, |c| engine_stage_cases(c, Stage::Into);
        butterfly_stage_backward_lanes: OneLane, LaneEngine,
            |c| engine_stage_cases(c, Stage::Backward);
        fold_lanes16: OneLane, LaneEngine, fold_cases;
        fft_stages_lanes: OneLane, LaneEngine, |c| fft_cases(c, false);
        fft_real_split_lanes: OneLane, LaneEngine, |c| fft_cases(c, true);
        rows_to_lanes: OneLane, LaneEngine, rows_to_lanes_cases;
        lanes_to_rows: OneLane, LaneEngine, lanes_to_rows_cases;
        matmul_band: OneLane, Gemm, matmul_band_cases;
        softmax_row: Oracle, Rows,
            |c| row_cases(c, |arm, a, _, _, _, o| scalar_or_avx2!(arm, softmax_row(a, o)));
        log_softmax_row: Oracle, Rows,
            |c| row_cases(c, |arm, a, _, _, _, o| scalar_or_avx2!(arm, log_softmax_row(a, o)));
        layer_norm_row: Oracle, Rows, |c| row_cases(c, |arm, a, _, g, b, o| {
            scalar_or_avx2!(arm, layer_norm_row(a, g, b, 1e-5, o))
        });
        add_layer_norm_row: Oracle, Rows, |c| row_cases(c, |arm, a, r, g, b, o| {
            scalar_or_avx2!(arm, add_layer_norm_row(a, r, g, b, 1e-5, o))
        });
        attention_tile: RowComposition, Attention, attention_tile_cases;
        q8_quantize_slice: Exact, Q8Quantize, q8_quantize_cases;
        q8_gemm_prepared: Exact, Q8Gemm, q8_gemm_cases;
        q8_dequant_bias_rows: Exact, Q8Dequant, |c| q8_dequant_cases(c, false);
        q8_dequant_bias_gelu_rows: Exact, Q8Dequant, |c| q8_dequant_cases(c, true);
        bias_gelu_lanes: OneLane, LaneEngine, bias_gelu_lanes_cases;
        add_layer_norm_lanes: RowComposition, Rows, add_layer_norm_lanes_cases;
        abs_histogram_run: Exact, Histogram, abs_histogram_run_cases;
    }

    // -- the table's views ------------------------------------------------------

    /// `exp`, `tanh`, GELU and the GELU backward slice.
    #[test]
    fn transcendental_slices_are_bit_identical_across_backends() {
        sweep(View::Transcendental);
    }

    /// The accumulators, `binary_slice` and `scale_slice`.
    #[test]
    fn accumulate_kernels_match_scalar_bitwise() {
        sweep(View::Accumulate);
    }

    /// The butterfly stage on one vector and the lane-per-row engine: its
    /// stages, the FFT kernels and the two transposes, held to their index
    /// definitions. On an AVX-512 host production runs the 16-lane arm and
    /// `FAB_SIMD` has no value that forces the 8-lane one, so there this is
    /// the 8-lane engine's only check.
    #[test]
    fn lane_wise_kernels_give_the_same_bits_at_8_and_16_lanes() {
        sweep(View::LaneEngine);
    }

    /// The GEMM band's arms against a scalar `f32::mul_add` oracle of its
    /// value contract.
    #[test]
    fn matmul_band_arms_match_the_contract_bitwise() {
        assert_eq!(kernels::FMA_COLS, 16, "the FMA/mul-add boundary is part of the value");
        sweep(View::Gemm);
    }

    /// Softmax, log-softmax, layer norm and the fused residual + layer
    /// norm against their libm / iterator-sum oracles, and the lane form of
    /// the fused one against the row kernel on each backend, bit for bit.
    #[test]
    fn row_kernels_stay_within_1e5_of_their_scalar_oracle() {
        sweep(View::Rows);
    }

    /// Both widths of the attention tile against the row composition.
    #[test]
    fn attention_tile_arms_give_the_row_composition_bits() {
        sweep(View::Attention);
    }

    #[test]
    fn q8_quantize_matches_scalar_bitwise() {
        sweep(View::Q8Quantize);
    }

    /// VNNI, `maddubs` and the scalar loop. On a VNNI host production runs
    /// the VNNI arm and `FAB_SIMD` has no value that forces `maddubs`, so
    /// there this is the `maddubs` arm's only check.
    #[test]
    fn q8_gemm_arms_give_the_same_i32_outputs() {
        sweep(View::Q8Gemm);
    }

    #[test]
    fn q8_dequant_epilogues_match_scalar_bitwise() {
        sweep(View::Q8Dequant);
    }

    /// The calibration histogram's run kernel against its per-value loop.
    #[test]
    fn abs_histogram_run_matches_the_per_value_loop() {
        sweep(View::Histogram);
    }

    // -- what the harness rests on ------------------------------------------------

    #[test]
    fn backend_name_and_lanes_are_consistent() {
        let b = backend();
        assert_eq!(b.is_simd(), b.lanes() > 1);
        assert!(!b.name().is_empty());
        assert!(!cpu_features().is_empty() || b == Backend::Scalar);
    }

    /// The scalar backend's slice kernels are the per-element scalar
    /// expressions bit for bit, on every special value: the one-lane body
    /// is the value every other arm of these kernels is held to, and its
    /// `max` / `min` keep a NaN the way `f32::clamp` does. A NaN matches
    /// any NaN — which of two NaN operands' payloads an add keeps is the
    /// compiler's choice — but never a number.
    #[test]
    fn scalar_backend_slices_are_the_per_element_scalar_expressions() {
        let _g = guard();
        let same = |what: &str, got: &[f32], want: &[f32]| {
            let differs =
                |(g, w): (&f32, &f32)| g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan());
            if let Some(e) = got.iter().zip(want).position(differs) {
                panic!("{what}: element {e} differs: {:e} vs {:e}", got[e], want[e]);
            }
        };
        for (n, every) in [(SPECIALS.len(), 1), (97, 3)] {
            let (x, a, b, d0) = (
                values(n, 1, every, &SPECIALS),
                values(n, 2, every, &SPECIALS),
                values(n, 3, every, &SPECIALS),
                values(n, 4, 5, &SPECIALS),
            );
            let map = |f: fn(f32) -> f32, v: &[f32]| v.iter().map(|&v| f(v)).collect::<Vec<f32>>();
            let zip = |f: &dyn Fn(f32, f32, f32) -> f32| -> Vec<f32> {
                (0..n).map(|i| f(d0[i], a[i], x[i])).collect()
            };
            with_backend(Backend::Scalar, || {
                let mut y = vec![0.0f32; n];
                exp_slice(&x, &mut y);
                same("exp_slice", &y, &map(exp_fast, &x));
                tanh_slice(&x, &mut y);
                same("tanh_slice", &y, &map(tanh_fast, &x));
                gelu_slice(&x, &mut y);
                same("gelu_slice", &y, &map(gelu_fast, &x));
                let mut d = d0.clone();
                gelu_grad_acc(&mut d, &a, &x);
                same("gelu_grad_acc", &d, &zip(&|d, g, x| d + g * gelu_grad_scalar(x)));
                let mut d = d0.clone();
                add_acc(&mut d, &a);
                same("add_acc", &d, &zip(&|d, a, _| d + a));
                for c in BROADCASTS {
                    let mut d = d0.clone();
                    axpy_acc(&mut d, c, &x);
                    same("axpy_acc", &d, &zip(&|d, _, x| d + c * x));
                    scale_slice(&x, c, &mut y);
                    same("scale_slice", &y, &zip(&|_, _, x| x * c));
                }
                let mut d = d0.clone();
                mul_acc(&mut d, &a, &x);
                same("mul_acc", &d, &zip(&|d, a, x| d + a * x));
                for (op, f) in [
                    (BinOp::Add, (|a, b| a + b) as fn(f32, f32) -> f32),
                    (BinOp::Sub, |a, b| a - b),
                    (BinOp::Mul, |a, b| a * b),
                ] {
                    binary_slice(op, &a, &x, &mut y);
                    same("binary_slice", &y, &zip(&|_, a, x| f(a, x)));
                }
                // One block of `n / 2` pairs: lo = d0[..h], hi = d0[h..2h].
                let h = n / 2;
                let mut v = d0[..2 * h].to_vec();
                butterfly_stage_in_place(h, &a[..h], &b[..h], &x[..h], &a[h..2 * h], &mut v);
                let (lo, hi) = d0[..2 * h].split_at(h);
                let want_lo: Vec<f32> = (0..h).map(|i| a[i] * lo[i] + b[i] * hi[i]).collect();
                let want_hi: Vec<f32> = (0..h).map(|i| x[i] * lo[i] + a[h + i] * hi[i]).collect();
                same("butterfly_stage_in_place lo", &v[..h], &want_lo);
                same("butterfly_stage_in_place hi", &v[h..], &want_hi);
            });
        }
    }

    /// A panic inside `with_backend` still puts the previous backend back:
    /// otherwise every later "SIMD vs scalar" test of the binary would
    /// compare the scalar backend with itself.
    #[test]
    fn a_panic_inside_with_backend_restores_the_backend() {
        let _g = guard();
        let before = backend();
        let caught = std::panic::catch_unwind(|| {
            with_backend(Backend::Scalar, || panic!("a failing backend test"));
        });
        assert!(caught.is_err());
        assert_eq!(backend(), before);
    }
}
