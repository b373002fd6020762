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
//! [`force_backend`].
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
//! * The element-wise transcendental kernels ([`exp_slice`], [`tanh_slice`],
//!   [`gelu_slice`], [`gelu_grad_acc`]) and the butterfly pair kernels
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
//!   lane-parallel [`exp_slice`]-style exponentials and reordered
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
//! * The attention tile ([`attention_tile`]) gives the bits of the row
//!   composition on the same backend — [`matmul_band`] with Kᵀ,
//!   [`scale_slice`], [`softmax_row`], [`matmul_band`] with V — which is
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
/// [`force_backend`] override but honouring `FAB_SIMD`).
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
pub fn force_backend(b: Backend) {
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

/// Runs `f` on backend `b` (see [`force_backend`]), then puts the previous
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
/// that feature set enabled.
trait FmaLanes: Copy {
    /// Lanes per vector.
    const LANES: usize;
    /// Output rows of a full GEMM register tile, two vectors wide: the
    /// `2 · TILE_ROWS` accumulators, two rhs vectors and a broadcast must
    /// fit the register file.
    const TILE_ROWS: usize = 4;
    /// Unaligned load of `LANES` consecutive values.
    ///
    /// # Safety
    ///
    /// `p` must be valid for reading `LANES` `f32`s.
    unsafe fn load(p: *const f32) -> Self;
    /// Unaligned store of `LANES` consecutive values.
    ///
    /// # Safety
    ///
    /// `p` must be valid for writing `LANES` `f32`s.
    unsafe fn store(self, p: *mut f32);
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
    fn max(self, o: Self) -> Self;
    fn min(self, o: Self) -> Self;
    /// `2^k` per lane via exponent-bit construction; lanes must hold exact
    /// integers in `[-127, 127]` (the clamped range of [`exp_slice`]).
    fn pow2i(self) -> Self;
    /// Lanes `0..n` of `self` and the rest of `other` (`n` may exceed
    /// `LANES`: then all of `self`).
    fn first_lanes(self, other: Self, n: usize) -> Self;
    /// Loads one value and broadcasts it to every lane.
    ///
    /// # Safety
    ///
    /// `p` must be valid for reading one `f32`.
    #[inline(always)]
    unsafe fn splat_ptr(p: *const f32) -> Self {
        Self::splat(unsafe { *p })
    }
    /// `LANES` vectors, indexable by position.
    type Block: IntoIterator<Item = Self>;
    /// Transposes the `LANES × LANES` block whose row `r` starts at
    /// `src + r * stride`: vector `c` of the result holds element `c` of
    /// every row, row `r` in lane `r`.
    ///
    /// # Safety
    ///
    /// Every row must be valid for reading `LANES` `f32`s.
    unsafe fn transpose(src: *const f32, stride: usize) -> Self::Block;
    /// Folds each of the `LANES` rows of 16 values at `src + 16 · r` by
    /// halves — `p[k] + p[k + 8]`, then `+ [k + 4]`, `+ [k + 2]`, `+ [k +
    /// 1]`, the lower lane always the left operand — into lane `r`. This
    /// default transposes the rows and adds whole vectors in that order;
    /// a type may run the same sums on a shuffle network instead.
    ///
    /// # Safety
    ///
    /// `16 · LANES` values from `src` must be valid for reading, and
    /// `LANES` must divide 16.
    #[inline(always)]
    unsafe fn fold16(src: *const f32) -> Self {
        let mut p = [Self::splat(0.0); 16];
        let mut j = 0;
        while j < 16 {
            // SAFETY: rows `0..LANES` at stride 16 hold columns `j..j + LANES`.
            let block = unsafe { Self::transpose(src.add(j), 16) };
            for (k, v) in block.into_iter().enumerate() {
                p[j + k] = v;
            }
            j += Self::LANES;
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
    unsafe fn load(p: *const f32) -> Self {
        F32x1(unsafe { *p })
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        unsafe { *p = self.0 }
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
    unsafe fn transpose(src: *const f32, _stride: usize) -> [Self; 1] {
        [F32x1(unsafe { *src })]
    }
}

// ---------------------------------------------------------------------------
// Generic kernels (monomorphised per backend inside #[target_feature] entry
// points; scalar tails use the fastmath scalar kernels, which are
// bit-identical to the vector lanes).
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
    pub fn gelu_v<V: Vf32>(x: V) -> V {
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
    /// the same operations in the same order.
    trait Elementwise {
        /// Positions `i .. i + V::LANES`.
        ///
        /// # Safety
        ///
        /// Those positions are in bounds of every buffer behind `self`, and
        /// `V`'s target features are available.
        unsafe fn lanes<V: Vf32>(&self, i: usize);
        /// Position `i`, on the scalar kernel.
        ///
        /// # Safety
        ///
        /// Position `i` is in bounds of every buffer behind `self`.
        unsafe fn one(&self, i: usize);
    }

    /// Runs `op` over positions `0..n`: whole `V` vectors, then whole
    /// [`Vf32::Narrow`] vectors, then the scalar kernel on what is left.
    ///
    /// # Safety
    ///
    /// Positions `0..n` are in bounds of every buffer behind `op`, and `V`'s
    /// target features are available.
    #[inline(always)]
    unsafe fn sweep<V: Vf32>(op: &impl Elementwise, n: usize) {
        let mut i = 0;
        // SAFETY (all three loops): every position visited is below `n`.
        while i + V::LANES <= n {
            unsafe { op.lanes::<V>(i) };
            i += V::LANES;
        }
        while i + V::Narrow::LANES <= n {
            unsafe { op.lanes::<V::Narrow>(i) };
            i += V::Narrow::LANES;
        }
        while i < n {
            unsafe { op.one(i) };
            i += 1;
        }
    }

    /// The fastmath function a [`Map`] applies.
    #[derive(Clone, Copy)]
    enum Fast {
        Exp,
        Tanh,
        Gelu,
    }

    /// `dst = f(src)`.
    struct Map {
        f: Fast,
        src: *const f32,
        dst: *mut f32,
    }

    impl Elementwise for Map {
        #[inline(always)]
        unsafe fn lanes<V: Vf32>(&self, i: usize) {
            let x = unsafe { V::load(self.src.add(i)) };
            let y = match self.f {
                Fast::Exp => exp_v(x),
                Fast::Tanh => tanh_v(x),
                Fast::Gelu => gelu_v(x),
            };
            unsafe { y.store(self.dst.add(i)) };
        }

        #[inline(always)]
        unsafe fn one(&self, i: usize) {
            let x = unsafe { *self.src.add(i) };
            let y = match self.f {
                Fast::Exp => exp_fast(x),
                Fast::Tanh => tanh_fast(x),
                Fast::Gelu => gelu_fast(x),
            };
            unsafe { *self.dst.add(i) = y };
        }
    }

    /// # Safety
    ///
    /// Caller guarantees `V`'s target features are available.
    #[inline(always)]
    unsafe fn map<V: Vf32>(f: Fast, src: &[f32], dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        let op = Map { f, src: src.as_ptr(), dst: dst.as_mut_ptr() };
        // SAFETY: both slices hold `dst.len()` values.
        unsafe { sweep::<V>(&op, dst.len()) }
    }

    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn exp_slice<V: Vf32>(src: &[f32], dst: &mut [f32]) {
        unsafe { map::<V>(Fast::Exp, src, dst) }
    }

    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn tanh_slice<V: Vf32>(src: &[f32], dst: &mut [f32]) {
        unsafe { map::<V>(Fast::Tanh, src, dst) }
    }

    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn gelu_slice<V: Vf32>(src: &[f32], dst: &mut [f32]) {
        unsafe { map::<V>(Fast::Gelu, src, dst) }
    }

    /// `dst += g · gelu'(x)`, the product formed before the add.
    struct GeluGradAcc {
        dst: *mut f32,
        g: *const f32,
        x: *const f32,
    }

    impl Elementwise for GeluGradAcc {
        #[inline(always)]
        unsafe fn lanes<V: Vf32>(&self, i: usize) {
            unsafe {
                let t = V::load(self.g.add(i)).mul(gelu_grad_v(V::load(self.x.add(i))));
                V::load(self.dst.add(i)).add(t).store(self.dst.add(i));
            }
        }

        #[inline(always)]
        unsafe fn one(&self, i: usize) {
            unsafe { *self.dst.add(i) += *self.g.add(i) * gelu_grad_scalar(*self.x.add(i)) };
        }
    }

    /// `dst += g * gelu'(x)`, with the product formed as mul-then-add so the
    /// result is bit-identical to the scalar backward loop.
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn gelu_grad_acc<V: Vf32>(dst: &mut [f32], g: &[f32], x: &[f32]) {
        debug_assert_eq!(dst.len(), g.len());
        debug_assert_eq!(dst.len(), x.len());
        let op = GeluGradAcc { dst: dst.as_mut_ptr(), g: g.as_ptr(), x: x.as_ptr() };
        // SAFETY: all three slices hold `dst.len()` values.
        unsafe { sweep::<V>(&op, dst.len()) }
    }

    /// `dst = a (op) b`; `a` may be `dst` itself.
    struct Binary {
        op: super::BinOp,
        a: *const f32,
        b: *const f32,
        dst: *mut f32,
    }

    impl Elementwise for Binary {
        #[inline(always)]
        unsafe fn lanes<V: Vf32>(&self, i: usize) {
            let (x, y) = unsafe { (V::load(self.a.add(i)), V::load(self.b.add(i))) };
            let r = match self.op {
                super::BinOp::Add => x.add(y),
                super::BinOp::Sub => x.sub(y),
                super::BinOp::Mul => x.mul(y),
            };
            unsafe { r.store(self.dst.add(i)) };
        }

        #[inline(always)]
        unsafe fn one(&self, i: usize) {
            let (x, y) = unsafe { (*self.a.add(i), *self.b.add(i)) };
            let r = match self.op {
                super::BinOp::Add => x + y,
                super::BinOp::Sub => x - y,
                super::BinOp::Mul => x * y,
            };
            unsafe { *self.dst.add(i) = r };
        }
    }

    /// `dst += src` (exact, order-preserving).
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn add_acc<V: Vf32>(dst: &mut [f32], src: &[f32]) {
        debug_assert_eq!(dst.len(), src.len());
        let dp = dst.as_mut_ptr();
        let op = Binary { op: super::BinOp::Add, a: dp, b: src.as_ptr(), dst: dp };
        // SAFETY: both slices hold `dst.len()` values.
        unsafe { sweep::<V>(&op, dst.len()) }
    }

    /// `dst += a · x`, `a` broadcast.
    struct Axpy {
        dst: *mut f32,
        a: f32,
        x: *const f32,
    }

    impl Elementwise for Axpy {
        #[inline(always)]
        unsafe fn lanes<V: Vf32>(&self, i: usize) {
            unsafe {
                let t = V::splat(self.a).mul(V::load(self.x.add(i)));
                V::load(self.dst.add(i)).add(t).store(self.dst.add(i));
            }
        }

        #[inline(always)]
        unsafe fn one(&self, i: usize) {
            unsafe { *self.dst.add(i) += self.a * *self.x.add(i) };
        }
    }

    /// `dst += a * x` with mul-then-add per lane (bit-identical to the scalar
    /// loop).
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn axpy_acc<V: Vf32>(dst: &mut [f32], a: f32, x: &[f32]) {
        debug_assert_eq!(dst.len(), x.len());
        let op = Axpy { dst: dst.as_mut_ptr(), a, x: x.as_ptr() };
        // SAFETY: both slices hold `dst.len()` values.
        unsafe { sweep::<V>(&op, dst.len()) }
    }

    /// `dst += a · b`.
    struct MulAcc {
        dst: *mut f32,
        a: *const f32,
        b: *const f32,
    }

    impl Elementwise for MulAcc {
        #[inline(always)]
        unsafe fn lanes<V: Vf32>(&self, i: usize) {
            unsafe {
                let t = V::load(self.a.add(i)).mul(V::load(self.b.add(i)));
                V::load(self.dst.add(i)).add(t).store(self.dst.add(i));
            }
        }

        #[inline(always)]
        unsafe fn one(&self, i: usize) {
            unsafe { *self.dst.add(i) += *self.a.add(i) * *self.b.add(i) };
        }
    }

    /// `dst += a * b` element-wise, mul-then-add per lane.
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn mul_acc<V: Vf32>(dst: &mut [f32], a: &[f32], b: &[f32]) {
        debug_assert_eq!(dst.len(), a.len());
        debug_assert_eq!(dst.len(), b.len());
        let op = MulAcc { dst: dst.as_mut_ptr(), a: a.as_ptr(), b: b.as_ptr() };
        // SAFETY: all three slices hold `dst.len()` values.
        unsafe { sweep::<V>(&op, dst.len()) }
    }

    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn binary_slice<V: Vf32>(op: super::BinOp, a: &[f32], b: &[f32], dst: &mut [f32]) {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), dst.len());
        let op = Binary { op, a: a.as_ptr(), b: b.as_ptr(), dst: dst.as_mut_ptr() };
        // SAFETY: all three slices hold `dst.len()` values.
        unsafe { sweep::<V>(&op, dst.len()) }
    }

    /// `dst = src · c`.
    struct Scale {
        src: *const f32,
        c: f32,
        dst: *mut f32,
    }

    impl Elementwise for Scale {
        #[inline(always)]
        unsafe fn lanes<V: Vf32>(&self, i: usize) {
            unsafe { V::load(self.src.add(i)).mul(V::splat(self.c)).store(self.dst.add(i)) };
        }

        #[inline(always)]
        unsafe fn one(&self, i: usize) {
            unsafe { *self.dst.add(i) = *self.src.add(i) * self.c };
        }
    }

    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn scale_slice<V: Vf32>(src: &[f32], c: f32, dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        let op = Scale { src: src.as_ptr(), c, dst: dst.as_mut_ptr() };
        // SAFETY: both slices hold `dst.len()` values.
        unsafe { sweep::<V>(&op, dst.len()) }
    }

    // -- row kernels: one reduction tree per row -----------------------------

    #[inline(always)]
    unsafe fn row_max<V: RowReduce>(row: &[f32]) -> f32 {
        let n = row.len();
        let main = n - n % V::LANES;
        let p = row.as_ptr();
        let mut m = f32::NEG_INFINITY;
        if main > 0 {
            let mut vm = unsafe { V::load(p) };
            let mut i = V::LANES;
            while i < main {
                vm = vm.max(unsafe { V::load(p.add(i)) });
                i += V::LANES;
            }
            m = vm.reduce_max();
        }
        for j in main..n {
            m = m.max(unsafe { *p.add(j) });
        }
        m
    }

    /// Row-wise softmax with lane-parallel fast exponentials; within ≤ 1e-6
    /// of the scalar (libm) oracle.
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn softmax_row<V: RowReduce>(row: &[f32], out: &mut [f32]) {
        debug_assert_eq!(row.len(), out.len());
        let n = row.len();
        let main = n - n % V::LANES;
        let m = unsafe { row_max::<V>(row) };
        let mv = V::splat(m);
        let (sp, dp) = (row.as_ptr(), out.as_mut_ptr());
        let mut vsum = V::splat(0.0);
        let mut i = 0;
        while i < main {
            unsafe {
                let e = exp_v(V::load(sp.add(i)).sub(mv));
                e.store(dp.add(i));
                vsum = vsum.add(e);
            }
            i += V::LANES;
        }
        let mut sum = vsum.reduce_add();
        for j in main..n {
            unsafe {
                let e = exp_fast(*sp.add(j) - m);
                *dp.add(j) = e;
                sum += e;
            }
        }
        let inv = 1.0 / sum;
        let iv = V::splat(inv);
        let mut i = 0;
        while i < main {
            unsafe { V::load(dp.add(i)).mul(iv).store(dp.add(i)) };
            i += V::LANES;
        }
        for j in main..n {
            unsafe { *dp.add(j) *= inv };
        }
    }

    /// Row-wise log-softmax (`x - max - ln Σ exp(x - max)`).
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn log_softmax_row<V: RowReduce>(row: &[f32], out: &mut [f32]) {
        debug_assert_eq!(row.len(), out.len());
        let n = row.len();
        let main = n - n % V::LANES;
        let m = unsafe { row_max::<V>(row) };
        let mv = V::splat(m);
        let (sp, dp) = (row.as_ptr(), out.as_mut_ptr());
        let mut vsum = V::splat(0.0);
        let mut i = 0;
        while i < main {
            unsafe { vsum = vsum.add(exp_v(V::load(sp.add(i)).sub(mv))) };
            i += V::LANES;
        }
        let mut sum = vsum.reduce_add();
        for j in main..n {
            unsafe { sum += exp_fast(*sp.add(j) - m) };
        }
        let log_sum = sum.ln();
        let lv = V::splat(log_sum);
        let mut i = 0;
        while i < main {
            unsafe { V::load(sp.add(i)).sub(mv).sub(lv).store(dp.add(i)) };
            i += V::LANES;
        }
        for j in main..n {
            unsafe { *dp.add(j) = *sp.add(j) - m - log_sum };
        }
    }

    #[inline(always)]
    unsafe fn row_sum<V: RowReduce>(row: &[f32]) -> f32 {
        let n = row.len();
        let main = n - n % V::LANES;
        let p = row.as_ptr();
        let mut vs = V::splat(0.0);
        let mut i = 0;
        while i < main {
            vs = vs.add(unsafe { V::load(p.add(i)) });
            i += V::LANES;
        }
        let mut s = vs.reduce_add();
        for j in main..n {
            s += unsafe { *p.add(j) };
        }
        s
    }

    #[inline(always)]
    unsafe fn row_var_sum<V: RowReduce>(row: &[f32], mean: f32) -> f32 {
        let n = row.len();
        let main = n - n % V::LANES;
        let p = row.as_ptr();
        let mv = V::splat(mean);
        let mut vs = V::splat(0.0);
        let mut i = 0;
        while i < main {
            let t = unsafe { V::load(p.add(i)) }.sub(mv);
            vs = vs.add(t.mul(t));
            i += V::LANES;
        }
        let mut s = vs.reduce_add();
        for j in main..n {
            let t = unsafe { *p.add(j) } - mean;
            s += t * t;
        }
        s
    }

    #[inline(always)]
    unsafe fn normalize_row<V: Vf32>(
        row: &[f32],
        gamma: &[f32],
        beta: &[f32],
        mean: f32,
        inv: f32,
        out: &mut [f32],
    ) {
        let n = row.len();
        let main = n - n % V::LANES;
        let (sp, gp, bp, dp) = (row.as_ptr(), gamma.as_ptr(), beta.as_ptr(), out.as_mut_ptr());
        let (mv, iv) = (V::splat(mean), V::splat(inv));
        let mut i = 0;
        while i < main {
            unsafe {
                let x = V::load(sp.add(i));
                let g = V::load(gp.add(i));
                let b = V::load(bp.add(i));
                g.mul(x.sub(mv)).mul(iv).add(b).store(dp.add(i));
            }
            i += V::LANES;
        }
        for j in main..n {
            unsafe { *dp.add(j) = *gp.add(j) * (*sp.add(j) - mean) * inv + *bp.add(j) };
        }
    }

    /// Row-wise layer norm; mean/variance reductions are lane-reordered
    /// (≤ 1e-6 of the scalar oracle).
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn layer_norm_row<V: RowReduce>(
        row: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        out: &mut [f32],
    ) {
        let n = row.len();
        let mean = unsafe { row_sum::<V>(row) } / n as f32;
        let var = unsafe { row_var_sum::<V>(row, mean) } / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        unsafe { normalize_row::<V>(row, gamma, beta, mean, inv, out) };
    }

    /// Fused `(a + b)` + row-wise layer norm, writing the normalised sum.
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available.
    #[inline(always)]
    pub unsafe fn add_layer_norm_row<V: RowReduce>(
        a: &[f32],
        b: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        out: &mut [f32],
    ) {
        unsafe { binary_slice::<V>(super::BinOp::Add, a, b, out) };
        let n = out.len();
        let mean = unsafe { row_sum::<V>(out) } / n as f32;
        let var = unsafe { row_var_sum::<V>(out, mean) } / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        let (gp, bp, dp) = (gamma.as_ptr(), beta.as_ptr(), out.as_mut_ptr());
        let main = n - n % V::LANES;
        let (mv, iv) = (V::splat(mean), V::splat(inv));
        let mut i = 0;
        while i < main {
            unsafe {
                let x = V::load(dp.add(i));
                let g = V::load(gp.add(i));
                let bb = V::load(bp.add(i));
                g.mul(x.sub(mv)).mul(iv).add(bb).store(dp.add(i));
            }
            i += V::LANES;
        }
        for j in main..n {
            unsafe { *dp.add(j) = *gp.add(j) * (*dp.add(j) - mean) * inv + *bp.add(j) };
        }
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
    pub const FMA_COLS: usize = 16;
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
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available and the
    /// slice dimensions are consistent (`lhs` is `[rows_total, k]` with
    /// `i0 + dst.len()/n <= rows_total`, `rhs` is `[k, n]`).
    #[inline(always)]
    pub unsafe fn matmul_band<V: FmaLanes>(
        lhs: &[f32],
        k: usize,
        rhs: &[f32],
        n: usize,
        i0: usize,
        dst: &mut [f32],
    ) {
        debug_assert_eq!(FMA_COLS % V::LANES, 0);
        let rows = dst.len() / n;
        let lp = lhs.as_ptr();
        let rp = rhs.as_ptr();
        let dp = dst.as_mut_ptr();
        for kk in (0..k).step_by(KC) {
            let kb = KC.min(k - kk);
            for jj in (0..n).step_by(NC) {
                let jb = NC.min(n - jj);
                let jv = jb - jb % FMA_COLS;
                let panel = unsafe {
                    Panel {
                        lhs: lp.add(i0 * k + kk),
                        k,
                        rhs: rp.add(kk * n + jj),
                        dst: dp.add(jj),
                        n,
                        kb,
                        jv,
                    }
                };
                let mut r = 0;
                unsafe {
                    if V::TILE_ROWS >= 8 {
                        r = panel.row_tiles::<V, 8>(r, rows);
                    }
                    r = panel.row_tiles::<V, 4>(r, rows);
                    r = panel.row_tiles::<V, 2>(r, rows);
                    panel.row_tiles::<V, 1>(r, rows);
                }
                // Column tail of the panel: scalar mul-add, ascending p.
                if jv < jb {
                    for r in 0..rows {
                        for p in 0..kb {
                            let a = unsafe { *lp.add((i0 + r) * k + kk + p) };
                            if a == 0.0 {
                                continue;
                            }
                            for j in (jj + jv)..(jj + jb) {
                                unsafe {
                                    *dp.add(r * n + j) += a * *rp.add((kk + p) * n + j);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// One `kb`-deep, `NC`-wide panel pass of [`matmul_band`]: `lhs` points
    /// at the band's first row at the panel's depth (rows `k` apart), `rhs`
    /// and `dst` at the panel's first column (rows `n` apart), and the FMA
    /// tiles cover the first `jv` columns. Its methods share one safety
    /// condition: the pointers are valid for `kb` lhs terms and `jv` columns
    /// of every row they are asked to run, and the backend's target features
    /// are available.
    #[derive(Clone, Copy)]
    struct Panel {
        lhs: *const f32,
        k: usize,
        rhs: *const f32,
        dst: *mut f32,
        n: usize,
        kb: usize,
        jv: usize,
    }

    impl Panel {
        /// Runs `R`-row tiles from row `r` while `R` rows remain; returns the
        /// first row left over.
        ///
        /// # Safety
        ///
        /// The panel's condition (see [`Panel`]) for rows `r..rows`.
        #[inline(always)]
        unsafe fn row_tiles<V: FmaLanes, const R: usize>(self, mut r: usize, rows: usize) -> usize {
            while r + R <= rows {
                let mut a = [self.lhs; R];
                for (ri, a) in a.iter_mut().enumerate() {
                    *a = unsafe { self.lhs.add((r + ri) * self.k) };
                }
                let d = unsafe { self.dst.add(r * self.n) };
                if unsafe { any_zero::<V, R>(&a, self.kb) } {
                    unsafe { self.col_tiles::<V, R, true>(&a, d) };
                } else {
                    unsafe { self.col_tiles::<V, R, false>(&a, d) };
                }
                r += R;
            }
            r
        }

        /// The FMA columns of one row group: 2-vector tiles, then (16-lane
        /// vectors only) a one-vector tile for a 16-column remainder.
        ///
        /// # Safety
        ///
        /// The panel's condition for the `R` rows at `a` and `d`.
        #[inline(always)]
        unsafe fn col_tiles<V: FmaLanes, const R: usize, const SKIP: bool>(
            self,
            a: &[*const f32; R],
            d: *mut f32,
        ) {
            let mut j = 0;
            while j + 2 * V::LANES <= self.jv {
                unsafe { tile::<V, R, 2, SKIP>(a, self.rhs.add(j), self.n, self.kb, d.add(j)) };
                j += 2 * V::LANES;
            }
            while j < self.jv {
                unsafe { tile::<V, R, 1, SKIP>(a, self.rhs.add(j), self.n, self.kb, d.add(j)) };
                j += V::LANES;
            }
        }
    }

    /// Whether any of the `R` lhs row segments `a[ri][..kb]` holds a ±0.0.
    ///
    /// # Safety
    ///
    /// Every `a[ri]` is valid for reading `kb` `f32`s.
    #[inline(always)]
    unsafe fn any_zero<V: FmaLanes, const R: usize>(a: &[*const f32; R], kb: usize) -> bool {
        let main = kb - kb % V::LANES;
        let mut mask = 0;
        for &row in a {
            let mut p = 0;
            while p < main {
                mask |= unsafe { V::load(row.add(p)) }.zero_mask();
                p += V::LANES;
            }
            for p in main..kb {
                mask |= (unsafe { *row.add(p) } == 0.0) as u32;
            }
        }
        mask != 0
    }

    /// One `R`-row × `NV`-vector register tile over `kb` depth terms:
    /// `d[ri][..] += Σ_p a[ri][p] · b[p][..]`, one FMA per term in
    /// ascending `p`; with `SKIP`, terms whose `a` is ±0.0 are left out.
    ///
    /// # Safety
    ///
    /// Every `a[ri]` is valid for `kb` reads; `b` and `d` for `NV` vectors
    /// at each of their `kb` and `R` rows, `n` apart.
    #[inline(always)]
    unsafe fn tile<V: FmaLanes, const R: usize, const NV: usize, const SKIP: bool>(
        a: &[*const f32; R],
        b: *const f32,
        n: usize,
        kb: usize,
        d: *mut f32,
    ) {
        unsafe {
            let mut acc = [[V::splat(0.0); NV]; R];
            for (ri, row) in acc.iter_mut().enumerate() {
                for (v, x) in row.iter_mut().enumerate() {
                    *x = V::load(d.add(ri * n + v * V::LANES));
                }
            }
            for p in 0..kb {
                let mut bv = [V::splat(0.0); NV];
                for (v, x) in bv.iter_mut().enumerate() {
                    *x = V::load(b.add(p * n + v * V::LANES));
                }
                for (row, &ap) in acc.iter_mut().zip(a) {
                    let x = *ap.add(p);
                    if SKIP && x == 0.0 {
                        continue;
                    }
                    let av = V::splat(x);
                    for (x, &bv) in row.iter_mut().zip(&bv) {
                        *x = av.fma(bv, *x);
                    }
                }
            }
            for (ri, row) in acc.iter().enumerate() {
                for (v, x) in row.iter().enumerate() {
                    x.store(d.add(ri * n + v * V::LANES));
                }
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
    /// # Safety
    ///
    /// `V`'s target features are available; `q` and `out` hold whole rows,
    /// `k` and `v` `len ≥ 1` rows, of `dim ≥ col + head_dim` values; `scratch`
    /// holds `2 · LANES · (len + head_dim)` values.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn attention_tile<V: LaneSelect>(
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
        debug_assert!(scratch.len() >= 2 * V::LANES * (len + head_dim));
        let rows = q.len() / dim;
        let mut r = 0;
        while r < rows {
            let n = (rows - r).min(2 * V::LANES);
            let nv = if n > V::LANES { 2 } else { 1 };
            let (qt, s) = scratch.split_at_mut(nv * V::LANES * head_dim);
            // SAFETY: rows `r .. r + n` are rows of `q` and `out`; the two
            // scratch slots hold `head_dim` and `len` rows of `nv` vectors.
            unsafe {
                let tile = Tile {
                    k: k.as_ptr().add(col),
                    v: v.as_ptr().add(col),
                    dim,
                    len,
                    head_dim,
                    scale,
                    qt: qt.as_mut_ptr(),
                    s: s.as_mut_ptr(),
                };
                let (q, out) = (q.as_ptr().add(r * dim + col), out.as_mut_ptr().add(r * dim + col));
                if nv == 2 {
                    tile.run::<V, 2>(q, n, out);
                } else {
                    tile.run::<V, 1>(q, n, out);
                }
            }
            r += n;
        }
    }

    /// One tile of [`attention_tile`]: `k` and `v` point at the head's first
    /// column of key row 0 (rows `dim` apart), `qt` at the `Qᵀ` / `Oᵀ` slot
    /// (`head_dim` rows of `NV` vectors) and `s` at the `Sᵀ` / `P` slot
    /// (`len` rows of `NV` vectors). Its methods share one safety
    /// condition: those pointers are valid for that, and `V`'s target
    /// features are available.
    #[derive(Clone, Copy)]
    struct Tile {
        k: *const f32,
        v: *const f32,
        dim: usize,
        len: usize,
        head_dim: usize,
        scale: Option<f32>,
        qt: *mut f32,
        s: *mut f32,
    }

    /// `((p0 ∘ p4) ∘ (p2 ∘ p6)) ∘ ((p1 ∘ p5) ∘ (p3 ∘ p7))`: the tree in which
    /// `F32x8::reduce_add` / `reduce_max` combine their lanes.
    #[inline(always)]
    fn tree<V: Copy>(p: [V; 8], f: impl Fn(V, V) -> V) -> V {
        f(f(f(p[0], p[4]), f(p[2], p[6])), f(f(p[1], p[5]), f(p[3], p[7])))
    }

    impl Tile {
        /// Mixes `n ≤ NV · LANES` query rows, the first at `q`, into `out`
        /// (rows `dim` apart, both at the head's first column).
        ///
        /// # Safety
        ///
        /// The tile's condition (see [`Tile`]), and `q` / `out` valid for
        /// `n` rows.
        #[inline(always)]
        unsafe fn run<V: LaneSelect, const NV: usize>(
            self,
            q: *const f32,
            n: usize,
            out: *mut f32,
        ) {
            let w = NV * V::LANES;
            let mut q_zero = 0;
            for p in 0..self.head_dim {
                for l in 0..w {
                    unsafe { *self.qt.add(p * w + l) = *q.add(l.min(n - 1) * self.dim + p) };
                }
                for j in 0..NV {
                    q_zero |= unsafe { V::load(self.qt.add(p * w + j * V::LANES)) }.zero_mask();
                }
            }
            let maxima = unsafe {
                if q_zero != 0 {
                    self.scores::<V, NV, true>()
                } else {
                    self.scores::<V, NV, false>()
                }
            };
            unsafe {
                if self.softmax::<V, NV>(maxima) {
                    self.mix::<V, NV, true>();
                } else {
                    self.mix::<V, NV, false>();
                }
                for r in 0..n {
                    for c in 0..self.head_dim {
                        *out.add(r * self.dim + c) = *self.qt.add(c * w + r);
                    }
                }
            }
        }

        /// `Sᵀ`, scaled, into the `s` slot; returns the 8 partial maxima
        /// (`NEG_INFINITY` where no key reached one).
        ///
        /// # Safety
        ///
        /// The tile's condition, with `Qᵀ` gathered.
        #[inline(always)]
        unsafe fn scores<V: LaneSelect, const NV: usize, const SKIP: bool>(self) -> [[V; NV]; 8] {
            let mut maxima = [[V::splat(f32::NEG_INFINITY); NV]; 8];
            let fma_end = self.len - self.len % FMA_COLS;
            let mut key = 0;
            unsafe {
                if V::TILE_ROWS >= 8 {
                    key = self.score_keys::<V, NV, 8, true, SKIP>(key, fma_end, &mut maxima);
                }
                // `fma_end` is a multiple of 16: the FMA keys are whole blocks.
                key = self.score_keys::<V, NV, 4, true, SKIP>(key, fma_end, &mut maxima);
                key = self.score_keys::<V, NV, 4, false, SKIP>(key, self.len, &mut maxima);
                self.score_keys::<V, NV, 1, false, SKIP>(key, self.len, &mut maxima);
            }
            maxima
        }

        /// Runs `K`-key blocks of [`Tile::scores`] from `key` while `K` keys
        /// remain below `end`, with one FMA per term (`FMA`) or a multiply
        /// then add; returns the first key left over. Keys below
        /// `len − len % 8` fold into their partial max.
        ///
        /// # Safety
        ///
        /// The tile's condition, with `Qᵀ` gathered.
        #[inline(always)]
        unsafe fn score_keys<
            V: LaneSelect,
            const NV: usize,
            const K: usize,
            const FMA: bool,
            const SKIP: bool,
        >(
            self,
            mut key: usize,
            end: usize,
            maxima: &mut [[V; NV]; 8],
        ) -> usize {
            let w = NV * V::LANES;
            let main = self.len - self.len % 8;
            while key + K <= end {
                let mut acc = [[V::splat(0.0); NV]; K];
                let mut kr = [self.k; K];
                for (i, kr) in kr.iter_mut().enumerate() {
                    *kr = unsafe { self.k.add((key + i) * self.dim) };
                }
                for p in 0..self.head_dim {
                    let mut qv = [V::splat(0.0); NV];
                    for (j, x) in qv.iter_mut().enumerate() {
                        *x = unsafe { V::load(self.qt.add(p * w + j * V::LANES)) };
                    }
                    for (acc, &kr) in acc.iter_mut().zip(&kr) {
                        let kv = unsafe { V::splat_ptr(kr.add(p)) };
                        for (a, &qv) in acc.iter_mut().zip(&qv) {
                            let t = if FMA { qv.fma(kv, *a) } else { a.add(qv.mul(kv)) };
                            *a = if SKIP { qv.where_zero(*a, t) } else { t };
                        }
                    }
                }
                for (i, acc) in acc.iter().enumerate() {
                    for (j, &a) in acc.iter().enumerate() {
                        let s = match self.scale {
                            Some(c) => a.mul(V::splat(c)),
                            None => a,
                        };
                        unsafe { s.store(self.s.add((key + i) * w + j * V::LANES)) };
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
        /// partial maxima; returns whether some `P` is ±0.0.
        ///
        /// # Safety
        ///
        /// The tile's condition, with `Sᵀ` computed.
        #[inline(always)]
        unsafe fn softmax<V: LaneSelect, const NV: usize>(self, maxima: [[V; NV]; 8]) -> bool {
            let w = NV * V::LANES;
            let main = self.len - self.len % 8;
            let at = |key: usize, j: usize| unsafe { self.s.add(key * w + j * V::LANES) };
            let mut m = [V::splat(f32::NEG_INFINITY); NV];
            let mut sum = [V::splat(0.0); NV];
            for j in 0..NV {
                if main > 0 {
                    m[j] = tree(maxima.map(|p| p[j]), V::max);
                }
                for key in main..self.len {
                    let x = unsafe { V::load(at(key, j)) };
                    m[j] = m[j].where_nan(x, x.max(m[j]));
                }
            }
            let mut partial = [[V::splat(0.0); NV]; 8];
            for key in (0..main).step_by(8) {
                for (l, partial) in partial.iter_mut().enumerate() {
                    for (j, sum) in partial.iter_mut().enumerate() {
                        let e = exp_v(unsafe { V::load(at(key + l, j)) }.sub(m[j]));
                        unsafe { e.store(at(key + l, j)) };
                        *sum = sum.add(e);
                    }
                }
            }
            for (j, sum) in sum.iter_mut().enumerate() {
                *sum = tree(partial.map(|p| p[j]), V::add);
                for key in main..self.len {
                    let x = unsafe { V::load(at(key, j)) }.sub(m[j]);
                    let e = x.where_nan(x, exp_v(x));
                    unsafe { e.store(at(key, j)) };
                    *sum = sum.add(e);
                }
            }
            let inv = sum.map(|s| V::splat(1.0).div(s));
            let mut zero = 0;
            for key in 0..self.len {
                for (j, &inv) in inv.iter().enumerate() {
                    let p = unsafe { V::load(at(key, j)) }.mul(inv);
                    unsafe { p.store(at(key, j)) };
                    zero |= p.zero_mask();
                }
            }
            zero != 0
        }

        /// `Oᵀ = Pᵀ·V` into the `Qᵀ` slot, head column by head column.
        ///
        /// # Safety
        ///
        /// The tile's condition, with `P` computed.
        #[inline(always)]
        unsafe fn mix<V: LaneSelect, const NV: usize, const SKIP: bool>(self) {
            let fma_end = self.head_dim - self.head_dim % FMA_COLS;
            let mut c = 0;
            unsafe {
                if V::TILE_ROWS >= 8 {
                    c = self.mix_cols::<V, NV, 8, true, SKIP>(c, fma_end);
                }
                c = self.mix_cols::<V, NV, 4, true, SKIP>(c, fma_end);
                c = self.mix_cols::<V, NV, 4, false, SKIP>(c, self.head_dim);
                self.mix_cols::<V, NV, 1, false, SKIP>(c, self.head_dim);
            }
        }

        /// Runs `C`-column blocks of [`Tile::mix`] from head column `c` while
        /// `C` columns remain below `end`; returns the first column left
        /// over.
        ///
        /// # Safety
        ///
        /// The tile's condition, with `P` computed.
        #[inline(always)]
        unsafe fn mix_cols<
            V: LaneSelect,
            const NV: usize,
            const C: usize,
            const FMA: bool,
            const SKIP: bool,
        >(
            self,
            mut c: usize,
            end: usize,
        ) -> usize {
            let w = NV * V::LANES;
            while c + C <= end {
                let mut acc = [[V::splat(0.0); NV]; C];
                for key in 0..self.len {
                    let mut pv = [V::splat(0.0); NV];
                    for (j, x) in pv.iter_mut().enumerate() {
                        *x = unsafe { V::load(self.s.add(key * w + j * V::LANES)) };
                    }
                    let vr = unsafe { self.v.add(key * self.dim + c) };
                    for (i, acc) in acc.iter_mut().enumerate() {
                        let vv = unsafe { V::splat_ptr(vr.add(i)) };
                        for (a, &pv) in acc.iter_mut().zip(&pv) {
                            let t = if FMA { pv.fma(vv, *a) } else { a.add(pv.mul(vv)) };
                            *a = if SKIP { pv.where_zero(*a, t) } else { t };
                        }
                    }
                }
                for (i, acc) in acc.iter().enumerate() {
                    for (j, a) in acc.iter().enumerate() {
                        unsafe { a.store(self.qt.add((c + i) * w + j * V::LANES)) };
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
    struct Pairs {
        w: [*const f32; 4],
        lo: *mut f32,
        hi: *mut f32,
    }

    impl Elementwise for Pairs {
        #[inline(always)]
        unsafe fn lanes<V: Vf32>(&self, i: usize) {
            let [w1, w2, w3, w4] = self.w;
            unsafe {
                let (a, b) = (V::load(self.lo.add(i)), V::load(self.hi.add(i)));
                V::load(w1.add(i)).mul(a).add(V::load(w2.add(i)).mul(b)).store(self.lo.add(i));
                V::load(w3.add(i)).mul(a).add(V::load(w4.add(i)).mul(b)).store(self.hi.add(i));
            }
        }

        #[inline(always)]
        unsafe fn one(&self, i: usize) {
            let [w1, w2, w3, w4] = self.w;
            unsafe {
                let (a, b) = (*self.lo.add(i), *self.hi.add(i));
                *self.lo.add(i) = *w1.add(i) * a + *w2.add(i) * b;
                *self.hi.add(i) = *w3.add(i) * a + *w4.add(i) * b;
            }
        }
    }

    /// One whole butterfly stage on one vector, in place: the block loop
    /// runs inside the vector context so a stage costs a single dispatch.
    /// `w1..w4` hold `pairs` weights, `x` holds `2·pairs` elements, and
    /// `half` is the stage's half-block size (pair `i` of block `b` couples
    /// `x[2bh + i]` with `x[2bh + h + i]`). Mul-then-add per lane with a
    /// scalar tail for `half` below the vector width — bit-identical to the
    /// scalar stage loop.
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available and
    /// that `half` divides `w1.len()`.
    #[inline(always)]
    pub unsafe fn butterfly_stage_in_place<V: Vf32>(
        half: usize,
        w1: &[f32],
        w2: &[f32],
        w3: &[f32],
        w4: &[f32],
        x: &mut [f32],
    ) {
        let xp = x.as_mut_ptr();
        let mut p = 0;
        while p < w1.len() {
            // SAFETY: block `p / half` is weights `p..p + half` and elements
            // `2p..2p + 2·half`, inside the slices since `half` divides the
            // pair count and `x` holds two elements per pair.
            unsafe {
                let op = Pairs {
                    w: [
                        w1.as_ptr().add(p),
                        w2.as_ptr().add(p),
                        w3.as_ptr().add(p),
                        w4.as_ptr().add(p),
                    ],
                    lo: xp.add(2 * p),
                    hi: xp.add(2 * p + half),
                };
                sweep::<V>(&op, half);
            }
            p += half;
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

    /// The operation one butterfly pair applies to its two rows; the
    /// difference between a butterfly-linear stage and an FFT stage.
    trait PairOp<V: Vf32> {
        /// The pair's weights, broadcast.
        type W: Copy;
        /// Loads and broadcasts the weights of pair `p`.
        unsafe fn weights(&self, p: usize) -> Self::W;
        /// Applies the pair to the `LANES` elements at offsets `lo` / `hi`,
        /// which lie `col` elements into their rows.
        unsafe fn apply(&self, w: Self::W, lo: usize, hi: usize, col: usize);
        /// [`PairOp::apply`] on the single element at `lo` / `hi`.
        unsafe fn apply_one(&self, p: usize, lo: usize, hi: usize, col: usize);
    }

    /// The stage driver shared by every pair operation: blocks of `2·half`
    /// rows, `half` pairs per block, each pair swept across `width` in
    /// vectors with an element-wise tail. Pair `i` of a block takes weight
    /// `i` plus `block_step` per preceding block (`half` for butterfly
    /// weights, which differ per block; 0 for FFT twiddles, which repeat).
    ///
    /// # Safety
    ///
    /// The rows `0..n` of width `width` and the weights `op` indexes must be
    /// in bounds of the buffers behind `op`.
    #[inline(always)]
    unsafe fn stage_lanes<V: Vf32, Op: PairOp<V>>(
        op: &Op,
        n: usize,
        half: usize,
        width: usize,
        block_step: usize,
    ) {
        let main = width - width % V::LANES;
        let mut wbase = 0;
        let mut base = 0;
        while base < n {
            let (mut lo, mut hi) = (base * width, (base + half) * width);
            if width == V::LANES {
                // One vector per row (a tile of rows on the backend's own
                // width): nothing but the pair operation in the loop.
                for i in 0..half {
                    unsafe { op.apply(op.weights(wbase + i), lo, hi, 0) };
                    lo += V::LANES;
                    hi += V::LANES;
                }
            } else {
                for i in 0..half {
                    let w = unsafe { op.weights(wbase + i) };
                    let mut v = 0;
                    while v < main {
                        unsafe { op.apply(w, lo + v, hi + v, v) };
                        v += V::LANES;
                    }
                    while v < width {
                        unsafe { op.apply_one(wbase + i, lo + v, hi + v, v) };
                        v += 1;
                    }
                    lo += width;
                    hi += width;
                }
            }
            wbase += block_step;
            base += 2 * half;
        }
    }

    /// The four weights of butterfly-linear pair `p`, each broadcast.
    ///
    /// # Safety
    ///
    /// Every pointer of `w` must be valid for reading element `p`.
    #[inline(always)]
    unsafe fn splat4<V: Vf32>(w: [*const f32; 4], p: usize) -> [V; 4] {
        let [w1, w2, w3, w4] = w;
        // SAFETY: the caller guarantees element `p` of all four slices.
        unsafe {
            [
                V::splat_ptr(w1.add(p)),
                V::splat_ptr(w2.add(p)),
                V::splat_ptr(w3.add(p)),
                V::splat_ptr(w4.add(p)),
            ]
        }
    }

    /// Butterfly-linear pair: `lo' = w1·lo + w2·hi`, `hi' = w3·lo + w4·hi`,
    /// mul-then-add, reading `src` and writing `dst` (the same buffer for
    /// a stage in place).
    struct Real2x2 {
        w: [*const f32; 4],
        src: *const f32,
        dst: *mut f32,
    }

    impl<V: Vf32> PairOp<V> for Real2x2 {
        type W = [V; 4];

        #[inline(always)]
        unsafe fn weights(&self, p: usize) -> [V; 4] {
            unsafe { splat4(self.w, p) }
        }

        #[inline(always)]
        unsafe fn apply(&self, [w1, w2, w3, w4]: [V; 4], lo: usize, hi: usize, _col: usize) {
            unsafe {
                let (a, b) = (V::load(self.src.add(lo)), V::load(self.src.add(hi)));
                w1.mul(a).add(w2.mul(b)).store(self.dst.add(lo));
                w3.mul(a).add(w4.mul(b)).store(self.dst.add(hi));
            }
        }

        #[inline(always)]
        unsafe fn apply_one(&self, p: usize, lo: usize, hi: usize, _col: usize) {
            unsafe {
                let [w1, w2, w3, w4] = self.w;
                let (w1, w2, w3, w4) = (*w1.add(p), *w2.add(p), *w3.add(p), *w4.add(p));
                let (a, b) = (*self.src.add(lo), *self.src.add(hi));
                *self.dst.add(lo) = w1 * a + w2 * b;
                *self.dst.add(hi) = w3 * a + w4 * b;
            }
        }
    }

    /// Radix-2 decimation-in-time FFT pair on split planes: `t = w·hi`,
    /// `lo' = lo + t`, `hi' = lo − t`, the complex product spelled as
    /// `re·re − im·im` / `re·im + im·re` with no FMA.
    struct Twiddle {
        w: [*const f32; 2],
        re: *mut f32,
        im: *mut f32,
    }

    impl<V: Vf32> PairOp<V> for Twiddle {
        type W = [V; 2];

        #[inline(always)]
        unsafe fn weights(&self, p: usize) -> [V; 2] {
            let [wr, wi] = self.w;
            unsafe { [V::splat_ptr(wr.add(p)), V::splat_ptr(wi.add(p))] }
        }

        #[inline(always)]
        unsafe fn apply(&self, [wr, wi]: [V; 2], lo: usize, hi: usize, _col: usize) {
            unsafe {
                let (ar, ai) = (V::load(self.re.add(lo)), V::load(self.im.add(lo)));
                let (br, bi) = (V::load(self.re.add(hi)), V::load(self.im.add(hi)));
                let tr = br.mul(wr).sub(bi.mul(wi));
                let ti = br.mul(wi).add(bi.mul(wr));
                ar.add(tr).store(self.re.add(lo));
                ai.add(ti).store(self.im.add(lo));
                ar.sub(tr).store(self.re.add(hi));
                ai.sub(ti).store(self.im.add(hi));
            }
        }

        #[inline(always)]
        unsafe fn apply_one(&self, p: usize, lo: usize, hi: usize, _col: usize) {
            unsafe {
                let (wr, wi) = (*self.w[0].add(p), *self.w[1].add(p));
                let (ar, ai) = (*self.re.add(lo), *self.im.add(lo));
                let (br, bi) = (*self.re.add(hi), *self.im.add(hi));
                let tr = br * wr - bi * wi;
                let ti = br * wi + bi * wr;
                *self.re.add(lo) = ar + tr;
                *self.im.add(lo) = ai + ti;
                *self.re.add(hi) = ar - tr;
                *self.im.add(hi) = ai - ti;
            }
        }
    }

    /// One butterfly-linear stage over an `[n][width]` buffer, `n = 2 ·
    /// w1.len()`.
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available, that
    /// the four weight slices have equal length `pairs`, that `half` divides
    /// `pairs`, and that `x.len() == 2 * pairs * width`.
    #[inline(always)]
    pub unsafe fn butterfly_stage_lanes<V: Vf32>(
        half: usize,
        w1: &[f32],
        w2: &[f32],
        w3: &[f32],
        w4: &[f32],
        x: &mut [f32],
        width: usize,
    ) {
        let n = 2 * w1.len();
        debug_assert!(half > 0 && w1.len().is_multiple_of(half));
        debug_assert!(w2.len() == w1.len() && w3.len() == w1.len() && w4.len() == w1.len());
        debug_assert_eq!(x.len(), n * width);
        let dst = x.as_mut_ptr();
        let op = Real2x2 { w: [w1.as_ptr(), w2.as_ptr(), w3.as_ptr(), w4.as_ptr()], src: dst, dst };
        unsafe { stage_lanes::<V, _>(&op, n, half, width, half) };
    }

    /// [`butterfly_stage_lanes`] out of place: reads `src`, writes `dst`.
    ///
    /// # Safety
    ///
    /// As [`butterfly_stage_lanes`], with `src.len() == dst.len() == 2 *
    /// pairs * width`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub unsafe fn butterfly_stage_lanes_into<V: Vf32>(
        half: usize,
        w1: &[f32],
        w2: &[f32],
        w3: &[f32],
        w4: &[f32],
        src: &[f32],
        dst: &mut [f32],
        width: usize,
    ) {
        let n = 2 * w1.len();
        debug_assert!(half > 0 && w1.len().is_multiple_of(half));
        debug_assert!(w2.len() == w1.len() && w3.len() == w1.len() && w4.len() == w1.len());
        debug_assert!(src.len() == n * width && dst.len() == n * width);
        let op = Real2x2 {
            w: [w1.as_ptr(), w2.as_ptr(), w3.as_ptr(), w4.as_ptr()],
            src: src.as_ptr(),
            dst: dst.as_mut_ptr(),
        };
        unsafe { stage_lanes::<V, _>(&op, n, half, width, half) };
    }

    /// Folds each 16-value row of `src` into one element of `dst` by halves
    /// ([`Vf32::fold16`]), `LANES` rows per step and the rows after the last
    /// full step one lane wide.
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available and
    /// that `src.len() == 16 * dst.len()`.
    #[inline(always)]
    pub unsafe fn fold_lanes16<V: Vf32>(src: &[f32], dst: &mut [f32]) {
        debug_assert_eq!(src.len(), 16 * dst.len());
        let (sp, dp, rows) = (src.as_ptr(), dst.as_mut_ptr(), dst.len());
        let mut c = 0;
        while c + V::LANES <= rows {
            // SAFETY: rows `c..c + LANES` of `src` are in bounds.
            unsafe { V::fold16(sp.add(16 * c)).store(dp.add(c)) };
            c += V::LANES;
        }
        while c < rows {
            // SAFETY: row `c` is inside `src`, element `c` inside `dst`.
            unsafe { *dp.add(c) = F32x1::fold16(sp.add(16 * c)).0 };
            c += 1;
        }
    }

    /// The reverse of [`Real2x2`] for the butterfly-linear gradients. With
    /// `a`, `b` the pair's forward inputs and `g1`, `g2` the gradients of its
    /// outputs: the four products `g1·a`, `g1·b`, `g2·a`, `g2·b` are added to
    /// the pair's accumulator rows, then `g1' = w1·g1 + w3·g2` and
    /// `g2' = w2·g1 + w4·g2` replace the gradients — mul-then-add.
    ///
    /// The buffers hold `tiles` tiles of `width` lanes side by side in each
    /// row (the driver sees one tile: its offsets are mapped to the row's
    /// first tile, and the op walks the others in order, the accumulators
    /// loaded and stored once). Lanes from `live` on, counted along the row,
    /// add nothing; input rows from offset `shared` (in the driver's
    /// one-tile offsets) on are read from the first tile.
    struct Real2x2Backward {
        w: [*const f32; 4],
        input: *const f32,
        grad: *mut f32,
        /// `[4][pairs][width]`.
        acc: *mut f32,
        width: usize,
        pairs: usize,
        tiles: usize,
        live: usize,
        shared: usize,
    }

    impl Real2x2Backward {
        /// The memory offsets of the driver's one-tile offsets `lo`, `hi` in
        /// column `col`, and how far each moves from one tile's input to
        /// the next.
        #[inline(always)]
        fn tile_offsets(&self, lo: usize, hi: usize, col: usize) -> [usize; 4] {
            let at = |x: usize| (x - col) * self.tiles + col;
            let step = |x: usize| if x < self.shared { self.width } else { 0 };
            [at(lo), at(hi), step(lo), step(hi)]
        }
    }

    impl<V: Vf32> PairOp<V> for Real2x2Backward {
        /// The broadcast weights and the pair's first accumulator row.
        type W = ([V; 4], *mut f32);

        #[inline(always)]
        unsafe fn weights(&self, p: usize) -> Self::W {
            unsafe { (splat4(self.w, p), self.acc.add(p * self.width)) }
        }

        #[inline(always)]
        unsafe fn apply(&self, ([w1, w2, w3, w4], acc): Self::W, lo: usize, hi: usize, col: usize) {
            unsafe {
                let k = self.pairs * self.width;
                let (d1, d2, d3, d4) =
                    (acc.add(col), acc.add(k + col), acc.add(2 * k + col), acc.add(3 * k + col));
                let (mut s1, mut s2, mut s3, mut s4) =
                    (V::load(d1), V::load(d2), V::load(d3), V::load(d4));
                let [lo, hi, step_lo, step_hi] = self.tile_offsets(lo, hi, col);
                let (mut ilo, mut ihi, mut glo, mut ghi) = (lo, hi, lo, hi);
                // One tile: `$add` adds a product to an accumulator.
                macro_rules! tile {
                    ($add:expr) => {{
                        let (a, b) = (V::load(self.input.add(ilo)), V::load(self.input.add(ihi)));
                        let (g1, g2) = (V::load(self.grad.add(glo)), V::load(self.grad.add(ghi)));
                        s1 = $add(s1, g1.mul(a));
                        s2 = $add(s2, g1.mul(b));
                        s3 = $add(s3, g2.mul(a));
                        s4 = $add(s4, g2.mul(b));
                        w1.mul(g1).add(w3.mul(g2)).store(self.grad.add(glo));
                        w2.mul(g1).add(w4.mul(g2)).store(self.grad.add(ghi));
                        (ilo, ihi, glo, ghi) =
                            (ilo + step_lo, ihi + step_hi, glo + self.width, ghi + self.width);
                    }};
                }
                // The tiles whose every lane is live, then the rest lane by
                // lane.
                let full = (self.live / self.width).min(self.tiles);
                for _ in 0..full {
                    tile!(V::add);
                }
                for t in full..self.tiles {
                    let keep = self.live.saturating_sub(t * self.width + col);
                    tile!(|s: V, p: V| s.add(p).first_lanes(s, keep));
                }
                s1.store(d1);
                s2.store(d2);
                s3.store(d3);
                s4.store(d4);
            }
        }

        #[inline(always)]
        unsafe fn apply_one(&self, p: usize, lo: usize, hi: usize, col: usize) {
            unsafe {
                let [w1, w2, w3, w4] = self.w;
                let (w1, w2, w3, w4) = (*w1.add(p), *w2.add(p), *w3.add(p), *w4.add(p));
                let k = self.pairs * self.width;
                let acc = self.acc.add(p * self.width + col);
                let [lo, hi, step_lo, step_hi] = self.tile_offsets(lo, hi, col);
                let (mut ilo, mut ihi, mut glo, mut ghi) = (lo, hi, lo, hi);
                for t in 0..self.tiles {
                    let (a, b) = (*self.input.add(ilo), *self.input.add(ihi));
                    let (g1, g2) = (*self.grad.add(glo), *self.grad.add(ghi));
                    if t * self.width + col < self.live {
                        *acc += g1 * a;
                        *acc.add(k) += g1 * b;
                        *acc.add(2 * k) += g2 * a;
                        *acc.add(3 * k) += g2 * b;
                    }
                    *self.grad.add(glo) = w1 * g1 + w3 * g2;
                    *self.grad.add(ghi) = w2 * g1 + w4 * g2;
                    (ilo, ihi, glo, ghi) =
                        (ilo + step_lo, ihi + step_hi, glo + self.width, ghi + self.width);
                }
            }
        }
    }

    /// One butterfly-linear stage backward, `n = 2 · w1.len()`: `input`
    /// holds what the stage saw going forward and `grad` the gradient of its
    /// output on entry and of its input on return, both `[n][tiles ·
    /// width]`; `acc` holds the `[4][pairs][width]` weight-gradient
    /// accumulators, which take the tiles' products in tile order. Lanes
    /// from `live` on add nothing, and input rows `shared..n` are read from
    /// the first tile.
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available, that
    /// the four weight slices have equal length `pairs`, that `half` divides
    /// `pairs`, that `input.len() == grad.len()` is a nonzero multiple of
    /// `2 * pairs * width`, that `shared <= 2 * pairs` and that
    /// `acc.len() == 4 * pairs * width`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub unsafe fn butterfly_stage_backward_lanes<V: Vf32>(
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
        let n = 2 * w1.len();
        let tile = n * width;
        debug_assert!(half > 0 && w1.len().is_multiple_of(half));
        debug_assert!(w2.len() == w1.len() && w3.len() == w1.len() && w4.len() == w1.len());
        debug_assert!(input.len().is_multiple_of(tile) && grad.len() == input.len());
        debug_assert!(shared <= n && acc.len() == 2 * tile);
        let op = Real2x2Backward {
            w: [w1.as_ptr(), w2.as_ptr(), w3.as_ptr(), w4.as_ptr()],
            input: input.as_ptr(),
            grad: grad.as_mut_ptr(),
            acc: acc.as_mut_ptr(),
            width,
            pairs: w1.len(),
            tiles: input.len() / tile,
            live,
            shared: shared * width,
        };
        // SAFETY: the driver visits rows `0..n`, lanes `0..width`, and the
        // op the same lanes of every tile of those rows (of the first tile,
        // for shared input rows), and pairs `0..n/2` of the weights and of
        // each quarter of `acc`, all inside the lengths asserted above.
        unsafe { stage_lanes::<V, _>(&op, n, half, width, half) };
    }

    /// Every stage (`half` = 1, 2, … `n/2`) of an `n`-point FFT over split
    /// `[n][width]` planes whose rows are already in bit-reversed order.
    /// `tw_re` / `tw_im` are stage-major: the stage with half-size `h` reads
    /// entries `h − 1 .. 2h − 1`.
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available, that
    /// `re.len() == im.len() == n * width` for a power of two `n`, and that
    /// both twiddle slices hold at least `n − 1` entries.
    #[inline(always)]
    pub unsafe fn fft_stages_lanes<V: Vf32>(
        tw_re: &[f32],
        tw_im: &[f32],
        re: &mut [f32],
        im: &mut [f32],
        width: usize,
    ) {
        let n = re.len() / width;
        debug_assert!(n.is_power_of_two() && re.len() == n * width && im.len() == re.len());
        debug_assert!(tw_re.len() >= n - 1 && tw_im.len() >= n - 1);
        let mut half = 1;
        while half < n {
            let op = Twiddle {
                w: unsafe { [tw_re.as_ptr().add(half - 1), tw_im.as_ptr().add(half - 1)] },
                re: re.as_mut_ptr(),
                im: im.as_mut_ptr(),
            };
            unsafe { stage_lanes::<V, _>(&op, n, half, width, 0) };
            half *= 2;
        }
    }

    /// The real-input split: `re`/`im` hold rows `0..m` of `Z = FFT_m(z)`
    /// with `z[j] = x[2j] + i·x[2j+1]`; on return rows `0..=m` hold
    /// `X = FFT_2m(x)` for bins `0..=m` (the other bins are the conjugate
    /// mirror). With `A = (Z[k] + conj Z[m−k]) / 2` and
    /// `B = (Z[k] − conj Z[m−k]) / 2i`, `X[k] = A + w^k·B` and
    /// `X[m−k] = conj(A − w^k·B)`; `tw_re`/`tw_im` hold `w^k = e^{−iπk/m}`.
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available, that
    /// `re.len() == im.len() == (m + 1) * width` for a power of two `m`, and
    /// that both twiddle slices hold at least `m / 2 + 1` entries.
    #[inline(always)]
    pub unsafe fn fft_real_split_lanes<V: Vf32>(
        tw_re: &[f32],
        tw_im: &[f32],
        re: &mut [f32],
        im: &mut [f32],
        width: usize,
    ) {
        let m = re.len() / width - 1;
        debug_assert!(m.is_power_of_two() && re.len() == (m + 1) * width && im.len() == re.len());
        debug_assert!(tw_re.len() > m / 2 && tw_im.len() > m / 2);
        let main = width - width % V::LANES;
        let (rp, ip) = (re.as_mut_ptr(), im.as_mut_ptr());
        let half = V::splat(0.5);
        for k in 0..=m / 2 {
            // Bin 0 pairs with itself and its partner lands in the extra row.
            let (src, dst) = (if k == 0 { 0 } else { (m - k) * width }, (m - k) * width);
            let lo = k * width;
            let (c, s) = unsafe { (*tw_re.as_ptr().add(k), *tw_im.as_ptr().add(k)) };
            let (cv, sv) = (V::splat(c), V::splat(s));
            let mut v = 0;
            while v < main {
                unsafe {
                    let (zr, zi) = (V::load(rp.add(lo + v)), V::load(ip.add(lo + v)));
                    let (yr, yi) = (V::load(rp.add(src + v)), V::load(ip.add(src + v)));
                    let (ar, ai) = (half.mul(zr.add(yr)), half.mul(zi.sub(yi)));
                    let (br, bi) = (half.mul(zi.add(yi)), half.mul(yr.sub(zr)));
                    let tr = cv.mul(br).sub(sv.mul(bi));
                    let ti = cv.mul(bi).add(sv.mul(br));
                    ar.sub(tr).store(rp.add(dst + v));
                    ti.sub(ai).store(ip.add(dst + v));
                    ar.add(tr).store(rp.add(lo + v));
                    ai.add(ti).store(ip.add(lo + v));
                }
                v += V::LANES;
            }
            while v < width {
                unsafe {
                    let (zr, zi) = (*rp.add(lo + v), *ip.add(lo + v));
                    let (yr, yi) = (*rp.add(src + v), *ip.add(src + v));
                    let (ar, ai) = (0.5 * (zr + yr), 0.5 * (zi - yi));
                    let (br, bi) = (0.5 * (zi + yi), 0.5 * (yr - zr));
                    let tr = c * br - s * bi;
                    let ti = c * bi + s * br;
                    *rp.add(dst + v) = ar - tr;
                    *ip.add(dst + v) = ti - ai;
                    *rp.add(lo + v) = ar + tr;
                    *ip.add(lo + v) = ai + ti;
                }
                v += 1;
            }
        }
    }

    /// Gathers a tile of up to `width` rows into lane layout:
    /// `dst[at(c)·width + r] = src[r·stride + c]` for `r < rows`, `c < cols`,
    /// with `at(c) = perm[c]` (or `c` when `perm` is empty) and zeros in the
    /// lanes `rows..width`. Full tiles on the backend's own width go through
    /// the register transpose.
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available, that
    /// `rows <= width`, that `src` holds `rows` rows of `cols` values at
    /// `stride`, that `perm` is empty or `cols` long, and that every
    /// `at(c) · width + width <= dst.len()`.
    #[inline(always)]
    pub unsafe fn rows_to_lanes<V: Vf32>(
        src: &[f32],
        stride: usize,
        rows: usize,
        cols: usize,
        perm: &[usize],
        dst: &mut [f32],
        width: usize,
    ) {
        debug_assert!(rows <= width && (perm.is_empty() || perm.len() == cols));
        debug_assert!(rows == 0 || (rows - 1) * stride + cols <= src.len());
        let at = |c: usize| if perm.is_empty() { c } else { perm[c] };
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut c = 0;
        if width == V::LANES && rows == V::LANES {
            while c + V::LANES <= cols {
                let block = unsafe { V::transpose(sp.add(c), stride) };
                for (k, v) in block.into_iter().enumerate() {
                    debug_assert!((at(c + k) + 1) * width <= dst.len());
                    unsafe { v.store(dp.add(at(c + k) * width)) };
                }
                c += V::LANES;
            }
        } else if width.is_multiple_of(V::LANES) && rows >= V::LANES {
            // Several tiles side by side: the register transpose per group
            // of `LANES` rows, then the rest of those columns' lanes.
            let full = rows - rows % V::LANES;
            while c + V::LANES <= cols {
                for g in (0..full).step_by(V::LANES) {
                    let block = unsafe { V::transpose(sp.add(g * stride + c), stride) };
                    for (k, v) in block.into_iter().enumerate() {
                        debug_assert!((at(c + k) + 1) * width <= dst.len());
                        unsafe { v.store(dp.add(at(c + k) * width + g)) };
                    }
                }
                c += V::LANES;
            }
            for col in 0..c {
                for r in full..width {
                    unsafe {
                        *dp.add(at(col) * width + r) =
                            if r < rows { *sp.add(r * stride + col) } else { 0.0 };
                    }
                }
            }
        }
        while c < cols {
            debug_assert!((at(c) + 1) * width <= dst.len());
            for r in 0..width {
                unsafe {
                    *dp.add(at(c) * width + r) =
                        if r < rows { *sp.add(r * stride + c) } else { 0.0 };
                }
            }
            c += 1;
        }
    }

    /// Scatters a lane-layout tile back to row-major rows with the
    /// epilogue applied on the way: `dst[r·stride + c] = act(src[c·width +
    /// r] + bias[c])` for `r < rows`, `c < cols`; an empty `bias` adds
    /// nothing and `act` is GELU or the identity.
    ///
    /// # Safety
    ///
    /// Caller guarantees the backend's target features are available, that
    /// `rows <= width`, `cols * width <= src.len()`, `bias` is empty or
    /// `cols` long, and `dst` holds `rows` rows of `cols` values at `stride`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub unsafe fn lanes_to_rows<V: Vf32>(
        src: &[f32],
        width: usize,
        rows: usize,
        cols: usize,
        bias: &[f32],
        gelu: bool,
        dst: &mut [f32],
        stride: usize,
    ) {
        debug_assert!(rows <= width && cols * width <= src.len());
        debug_assert!(bias.is_empty() || bias.len() == cols);
        debug_assert!(rows == 0 || (rows - 1) * stride + cols <= dst.len());
        let (sp, bp, dp) = (src.as_ptr(), bias.as_ptr(), dst.as_mut_ptr());
        let mut c = 0;
        if width == V::LANES {
            while c + V::LANES <= cols {
                let block = unsafe { V::transpose(sp.add(c * width), width) };
                for (r, v) in block.into_iter().enumerate().take(rows) {
                    unsafe {
                        let v = if bias.is_empty() { v } else { v.add(V::load(bp.add(c))) };
                        let v = if gelu { gelu_v(v) } else { v };
                        v.store(dp.add(r * stride + c));
                    }
                }
                c += V::LANES;
            }
        } else if width.is_multiple_of(V::LANES) {
            // Several tiles side by side: the register transpose per group
            // of `LANES` rows, a last partial group storing its live rows.
            while c + V::LANES <= cols {
                for g in (0..rows).step_by(V::LANES) {
                    let block = unsafe { V::transpose(sp.add(c * width + g), width) };
                    for (k, v) in block.into_iter().enumerate().take(rows - g) {
                        unsafe {
                            let v = if bias.is_empty() { v } else { v.add(V::load(bp.add(c))) };
                            let v = if gelu { gelu_v(v) } else { v };
                            v.store(dp.add((g + k) * stride + c));
                        }
                    }
                }
                c += V::LANES;
            }
        }
        while c < cols {
            for r in 0..rows {
                unsafe {
                    let y = *sp.add(c * width + r);
                    let y = if bias.is_empty() { y } else { y + *bp.add(c) };
                    *dp.add(r * stride + c) = if gelu { gelu_fast(y) } else { y };
                }
            }
            c += 1;
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

    /// Eight `f32` lanes in one AVX register.
    #[derive(Clone, Copy)]
    pub struct F32x8(__m256);

    impl FmaLanes for F32x8 {
        const LANES: usize = 8;

        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            F32x8(unsafe { _mm256_loadu_ps(p) })
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            unsafe { _mm256_storeu_ps(p, self.0) }
        }

        #[inline(always)]
        fn splat(x: f32) -> Self {
            F32x8(unsafe { _mm256_set1_ps(x) })
        }

        #[inline(always)]
        fn fma(self, m: Self, a: Self) -> Self {
            F32x8(unsafe { _mm256_fmadd_ps(self.0, m.0, a.0) })
        }

        #[inline(always)]
        fn zero_mask(self) -> u32 {
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
            F32x8(unsafe { _mm256_add_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            F32x8(unsafe { _mm256_sub_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            F32x8(unsafe { _mm256_mul_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            F32x8(unsafe { _mm256_div_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            F32x8(unsafe { _mm256_max_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn min(self, o: Self) -> Self {
            F32x8(unsafe { _mm256_min_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn pow2i(self) -> Self {
            unsafe {
                let k = _mm256_cvtps_epi32(self.0);
                let bits = _mm256_slli_epi32(_mm256_add_epi32(k, _mm256_set1_epi32(127)), 23);
                F32x8(_mm256_castsi256_ps(bits))
            }
        }

        #[inline(always)]
        fn first_lanes(self, other: Self, n: usize) -> Self {
            unsafe {
                let n = _mm256_set1_epi32(n.min(8) as i32);
                let keep = _mm256_cmpgt_epi32(n, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
                F32x8(_mm256_blendv_ps(other.0, self.0, _mm256_castsi256_ps(keep)))
            }
        }

        #[inline(always)]
        unsafe fn splat_ptr(p: *const f32) -> Self {
            F32x8(unsafe { _mm256_broadcast_ss(&*p) })
        }

        type Block = [Self; 8];

        /// Rows `r` and `r + 4` share one register (128-bit halves), so the
        /// unpack/shuffle pairs below finish the transpose inside the
        /// 128-bit lanes: 16 shuffles per block, no cross-lane permute.
        #[inline(always)]
        unsafe fn transpose(src: *const f32, stride: usize) -> [Self; 8] {
            unsafe {
                let [c0, c1, c2, c3] = transpose_8x4(src, stride);
                let [c4, c5, c6, c7] = transpose_8x4(src.add(4), stride);
                [c0, c1, c2, c3, c4, c5, c6, c7]
            }
        }
    }

    impl RowReduce for F32x8 {
        #[inline(always)]
        fn reduce_add(self) -> f32 {
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
            unsafe {
                let zero = _mm256_cmp_ps::<_CMP_EQ_OQ>(self.0, _mm256_setzero_ps());
                F32x8(_mm256_blendv_ps(no.0, yes.0, zero))
            }
        }

        #[inline(always)]
        fn where_nan(self, yes: Self, no: Self) -> Self {
            unsafe {
                let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(self.0, self.0);
                F32x8(_mm256_blendv_ps(no.0, yes.0, nan))
            }
        }
    }

    /// Columns `0..4` of the eight rows at `src + r * stride`, one column
    /// per vector.
    #[inline(always)]
    unsafe fn transpose_8x4(src: *const f32, stride: usize) -> [F32x8; 4] {
        unsafe {
            let (r0, r1) = (load_rows_r_r4(src, stride), load_rows_r_r4(src.add(stride), stride));
            let (r2, r3) = (
                load_rows_r_r4(src.add(2 * stride), stride),
                load_rows_r_r4(src.add(3 * stride), stride),
            );
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

    /// Four values of the row at `p` in the low half, of the row four
    /// strides further on in the high half.
    #[inline(always)]
    unsafe fn load_rows_r_r4(p: *const f32, stride: usize) -> __m256 {
        unsafe {
            let (lo, hi) = (_mm_loadu_ps(p), _mm_loadu_ps(p.add(4 * stride)));
            _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi)
        }
    }

    /// Whether the lane-wise kernels run 16 lanes wide: the CPU has
    /// `avx512f` (std caches the probe).
    #[inline]
    pub fn wide() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    macro_rules! avx2_entry {
        ($(fn $name:ident($($arg:ident: $ty:ty),* $(,)?);)*) => {
            $(
                /// AVX2+FMA instantiation of the generic kernel.
                ///
                /// # Safety
                ///
                /// The CPU must support AVX2 and FMA (guaranteed by the
                /// runtime dispatch in the public wrappers).
                #[target_feature(enable = "avx2,fma")]
                #[allow(clippy::too_many_arguments)]
                pub unsafe fn $name($($arg: $ty),*) {
                    unsafe { kernels::$name::<F32x8>($($arg),*) }
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
                ///
                /// # Safety
                ///
                /// The CPU must support AVX2 and FMA (guaranteed by the
                /// runtime dispatch in the public wrappers), and the
                /// arguments must meet the generic kernel's contract.
                #[allow(clippy::too_many_arguments)]
                pub unsafe fn $name($($arg: $ty),*) {
                    // SAFETY: the 16-lane arm runs only where avx512f is
                    // detected; the rest is this function's own contract.
                    if wide() $(&& $cond)? {
                        unsafe { f32x16::$name($($arg),*) }
                    } else {
                        unsafe { f32x8::$name($($arg),*) }
                    }
                }
            )*

            /// The 8-lane instantiations.
            pub mod f32x8 {
                use super::{kernels, BinOp, F32x8};
                $(
                    /// 8-lane instantiation of the generic kernel.
                    ///
                    /// # Safety
                    ///
                    /// The CPU must support AVX2 and FMA, and the arguments
                    /// must meet the generic kernel's contract.
                    #[target_feature(enable = "avx2,fma")]
                    #[allow(clippy::too_many_arguments)]
                    pub unsafe fn $name($($arg: $ty),*) {
                        unsafe { kernels::$name::<F32x8>($($arg),*) }
                    }
                )*
            }

            /// The 16-lane instantiations.
            pub mod f32x16 {
                use super::{kernels, BinOp, F32x16};
                $(
                    /// 16-lane instantiation of the generic kernel.
                    ///
                    /// # Safety
                    ///
                    /// The CPU must support AVX-512F, and the arguments must
                    /// meet the generic kernel's contract.
                    #[target_feature(enable = "avx512f,avx2,fma")]
                    #[allow(clippy::too_many_arguments)]
                    pub unsafe fn $name($($arg: $ty),*) {
                        unsafe { kernels::$name::<F32x16>($($arg),*) }
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
            gelu: bool,
            dst: &mut [f32],
            stride: usize,
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
    }

    /// Sixteen `f32` lanes in one AVX-512 register, the width of every
    /// kernel whose lanes never meet where the CPU has `avx512f`. The GEMM
    /// runs 8-row × 2-vector tiles on it (16 of the 32 zmm registers
    /// accumulating). It implements no [`RowReduce`](super::RowReduce): a
    /// wider reduction tree would change the row kernels' bits.
    #[derive(Clone, Copy)]
    pub struct F32x16(__m512);

    impl FmaLanes for F32x16 {
        const LANES: usize = 16;
        const TILE_ROWS: usize = 8;

        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            F32x16(unsafe { _mm512_loadu_ps(p) })
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            unsafe { _mm512_storeu_ps(p, self.0) }
        }

        #[inline(always)]
        fn splat(x: f32) -> Self {
            F32x16(unsafe { _mm512_set1_ps(x) })
        }

        #[inline(always)]
        fn fma(self, m: Self, a: Self) -> Self {
            F32x16(unsafe { _mm512_fmadd_ps(self.0, m.0, a.0) })
        }

        #[inline(always)]
        fn zero_mask(self) -> u32 {
            unsafe { _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(self.0, _mm512_setzero_ps()) as u32 }
        }
    }

    impl Vf32 for F32x16 {
        type Narrow = F32x8;

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            F32x16(unsafe { _mm512_add_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            F32x16(unsafe { _mm512_sub_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            F32x16(unsafe { _mm512_mul_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            F32x16(unsafe { _mm512_div_ps(self.0, o.0) })
        }

        /// `vmaxps`: a NaN in either operand yields `o`, as on [`F32x8`].
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            F32x16(unsafe { _mm512_max_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn min(self, o: Self) -> Self {
            F32x16(unsafe { _mm512_min_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn pow2i(self) -> Self {
            unsafe {
                let k = _mm512_cvtps_epi32(self.0);
                let bits = _mm512_slli_epi32::<23>(_mm512_add_epi32(k, _mm512_set1_epi32(127)));
                F32x16(_mm512_castsi512_ps(bits))
            }
        }

        #[inline(always)]
        fn first_lanes(self, other: Self, n: usize) -> Self {
            let keep = if n >= 16 { u16::MAX } else { (1u16 << n) - 1 };
            F32x16(unsafe { _mm512_mask_blend_ps(keep, other.0, self.0) })
        }

        type Block = [Self; 16];

        /// Four 16×4 blocks, each built like [`transpose_8x4`]'s 8×4 one.
        #[inline(always)]
        unsafe fn transpose(src: *const f32, stride: usize) -> [Self; 16] {
            unsafe {
                let [c0, c1, c2, c3] = transpose_16x4(src, stride);
                let [c4, c5, c6, c7] = transpose_16x4(src.add(4), stride);
                let [c8, c9, c10, c11] = transpose_16x4(src.add(8), stride);
                let [c12, c13, c14, c15] = transpose_16x4(src.add(12), stride);
                [c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15]
            }
        }

        /// The halving fold on a shuffle network: each level pairs two
        /// registers, gathers the lower halves of their live sums into one
        /// and the upper halves into another, and adds the two — 30
        /// shuffles for sixteen rows where the transpose takes 80. The
        /// last permute puts row `r` in lane `r`.
        #[inline(always)]
        unsafe fn fold16(src: *const f32) -> Self {
            unsafe {
                let v: [__m512; 16] = core::array::from_fn(|r| _mm512_loadu_ps(src.add(16 * r)));
                // Quarters of 128 bits: rows 2i, 2i + 1, sums `p[k] + p[k + 8]`.
                let w: [__m512; 8] = core::array::from_fn(|i| {
                    let (a, b) = (v[2 * i], v[2 * i + 1]);
                    let lo = _mm512_shuffle_f32x4::<0x44>(a, b);
                    let hi = _mm512_shuffle_f32x4::<0xEE>(a, b);
                    _mm512_add_ps(lo, hi)
                });
                // Quarter m: row 4j + m, sums `q[k] + q[k + 4]`.
                let x: [__m512; 4] = core::array::from_fn(|j| {
                    let (a, b) = (w[2 * j], w[2 * j + 1]);
                    let lo = _mm512_shuffle_f32x4::<0x88>(a, b);
                    let hi = _mm512_shuffle_f32x4::<0xDD>(a, b);
                    _mm512_add_ps(lo, hi)
                });
                // Quarter m: rows m and 4 + m (8 + m and 12 + m), `r[k] + r[k + 2]`.
                let y: [__m512; 2] = core::array::from_fn(|j| {
                    let (a, b) = (x[2 * j], x[2 * j + 1]);
                    let lo = _mm512_shuffle_ps::<0x44>(a, b);
                    let hi = _mm512_shuffle_ps::<0xEE>(a, b);
                    _mm512_add_ps(lo, hi)
                });
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
            unsafe {
                let zero = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(self.0, _mm512_setzero_ps());
                F32x16(_mm512_mask_blend_ps(zero, no.0, yes.0))
            }
        }

        #[inline(always)]
        fn where_nan(self, yes: Self, no: Self) -> Self {
            unsafe {
                let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(self.0, self.0);
                F32x16(_mm512_mask_blend_ps(nan, no.0, yes.0))
            }
        }
    }

    /// Columns `0..4` of the sixteen rows at `src + r * stride`, one column
    /// per vector. Rows `r`, `r + 4`, `r + 8` and `r + 12` share one
    /// register (one per 128-bit quarter), so the unpack/shuffle pairs
    /// finish the transpose inside the quarters, with no cross-lane permute.
    #[inline(always)]
    unsafe fn transpose_16x4(src: *const f32, stride: usize) -> [F32x16; 4] {
        unsafe {
            let (r0, r1) =
                (load_rows_quarters(src, stride), load_rows_quarters(src.add(stride), stride));
            let (r2, r3) = (
                load_rows_quarters(src.add(2 * stride), stride),
                load_rows_quarters(src.add(3 * stride), stride),
            );
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

    /// Four values of the row at `p` in quarter 0, and of the rows 4, 8 and
    /// 12 strides further on in quarters 1, 2 and 3.
    #[inline(always)]
    unsafe fn load_rows_quarters(p: *const f32, stride: usize) -> __m512 {
        unsafe {
            let v = _mm512_castps128_ps512(_mm_loadu_ps(p));
            let v = _mm512_insertf32x4::<1>(v, _mm_loadu_ps(p.add(4 * stride)));
            let v = _mm512_insertf32x4::<2>(v, _mm_loadu_ps(p.add(8 * stride)));
            _mm512_insertf32x4::<3>(v, _mm_loadu_ps(p.add(12 * stride)))
        }
    }

    // -- int8 quantized kernels (PR 5) ----------------------------------

    /// Horizontal sum of the eight `i32` lanes (exact: integer adds).
    #[inline(always)]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        unsafe {
            let lo = _mm256_castsi256_si128(v);
            let hi = _mm256_extracti128_si256(v, 1);
            let s = _mm_add_epi32(lo, hi);
            let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
            let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
            _mm_cvtsi128_si32(s)
        }
    }

    /// AVX2 int8 quantization: `dst = clamp(round_ties_even(src · inv), ±127)`
    /// via `cvtps` (MXCSR default = round-to-nearest-even), matching the
    /// scalar magic-number rounding bit for bit on finite inputs.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (guaranteed by the runtime dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn q8_quantize_slice(src: &[f32], inv_scale: f32, dst: &mut [i8]) {
        let n = src.len();
        let main = n - n % 8;
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        unsafe {
            let inv = _mm256_set1_ps(inv_scale);
            let lo = _mm256_set1_ps(-127.0);
            let hi = _mm256_set1_ps(127.0);
            let mut i = 0;
            while i < main {
                let v = _mm256_mul_ps(_mm256_loadu_ps(sp.add(i)), inv);
                let v = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
                let q = _mm256_cvtps_epi32(v);
                let l = _mm256_castsi256_si128(q);
                let h = _mm256_extracti128_si256(q, 1);
                let w = _mm_packs_epi32(l, h);
                let b = _mm_packs_epi16(w, w);
                _mm_storel_epi64(dp.add(i) as *mut __m128i, b);
                i += 8;
            }
            for j in main..n {
                *dp.add(j) = super::q8_quantize_one(*sp.add(j), inv_scale);
            }
        }
    }

    /// AVX2 int8×int8→i32 GEMM over a pre-transposed rhs (`maddubs`+`madd`
    /// pair kernel). The sign trick (`|a| ⊗ (b·sign a)`) keeps every i16
    /// pair sum at ≤ 2·127² = 32258, below saturation, so the i32
    /// accumulation is exact and bit-identical to the scalar kernel in any
    /// summation order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; all inputs must lie in `[-127, 127]` and
    /// the slice dimensions must be consistent (checked by the public
    /// wrapper).
    #[target_feature(enable = "avx2")]
    pub unsafe fn q8_gemm_i32(a: &[i8], bt: &[i8], k: usize, n: usize, out: &mut [i32]) {
        let m = out.len() / n;
        let kv = k - k % 32;
        let (ap0, bp0, op) = (a.as_ptr(), bt.as_ptr(), out.as_mut_ptr());
        unsafe {
            let ones = _mm256_set1_epi16(1);
            for i in 0..m {
                let ap = ap0.add(i * k);
                let mut j = 0;
                // 1-row × 4-column tiles: |a| is computed once per chunk and
                // reused across the four rhs columns.
                while j + 4 <= n {
                    let bps = [
                        bp0.add(j * k),
                        bp0.add((j + 1) * k),
                        bp0.add((j + 2) * k),
                        bp0.add((j + 3) * k),
                    ];
                    let mut acc = [_mm256_setzero_si256(); 4];
                    let mut p = 0;
                    while p < kv {
                        let va = _mm256_loadu_si256(ap.add(p) as *const __m256i);
                        let abs_a = _mm256_sign_epi8(va, va);
                        for (c, &bp) in bps.iter().enumerate() {
                            let vb = _mm256_loadu_si256(bp.add(p) as *const __m256i);
                            let sb = _mm256_sign_epi8(vb, va);
                            let d16 = _mm256_maddubs_epi16(abs_a, sb);
                            acc[c] = _mm256_add_epi32(acc[c], _mm256_madd_epi16(d16, ones));
                        }
                        p += 32;
                    }
                    for (c, &bp) in bps.iter().enumerate() {
                        let mut sum = hsum_epi32(acc[c]);
                        for p in kv..k {
                            sum += *ap.add(p) as i32 * *bp.add(p) as i32;
                        }
                        *op.add(i * n + j + c) = sum;
                    }
                    j += 4;
                }
                while j < n {
                    let bp = bp0.add(j * k);
                    let mut acc = _mm256_setzero_si256();
                    let mut p = 0;
                    while p < kv {
                        let va = _mm256_loadu_si256(ap.add(p) as *const __m256i);
                        let abs_a = _mm256_sign_epi8(va, va);
                        let vb = _mm256_loadu_si256(bp.add(p) as *const __m256i);
                        let sb = _mm256_sign_epi8(vb, va);
                        let d16 = _mm256_maddubs_epi16(abs_a, sb);
                        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d16, ones));
                        p += 32;
                    }
                    let mut sum = hsum_epi32(acc);
                    for p in kv..k {
                        sum += *ap.add(p) as i32 * *bp.add(p) as i32;
                    }
                    *op.add(i * n + j) = sum;
                    j += 1;
                }
            }
        }
    }

    /// Whether the int8 GEMM has its VNNI arm: the CPU has `avx512vnni`
    /// and `avx512bw` (std caches the probes).
    #[inline]
    pub fn vnni() -> bool {
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
    /// # Safety
    ///
    /// The CPU must support AVX-512F, BW and VNNI ([`vnni`]); `a` must hold
    /// whole `k`-wide rows, `out` as many `n`-wide ones, and `pack` must have
    /// been built for `k` and `n` (checked by the public wrapper).
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub unsafe fn q8_gemm_vnni(a: &[i8], pack: &VnniPack, k: usize, n: usize, out: &mut [i32]) {
        let tiles = VnniTiles {
            a: a.as_ptr(),
            k,
            b: pack.packed.as_ptr(),
            corr: pack.corr.as_ptr(),
            out: out.as_mut_ptr(),
            n,
        };
        let m = out.len() / n;
        // SAFETY: this function's contract is the `VnniTiles` condition for
        // rows `0..m`.
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
            // SAFETY (whole body): the caller's bounds; masked lanes are
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
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (guaranteed by the runtime dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn q8_dequant_rows(
        acc: &[i32],
        scale: &[f32],
        bias: &[f32],
        gelu: bool,
        out: &mut [f32],
    ) {
        let n = scale.len();
        let rows = out.len() / n;
        let main = n - n % 8;
        let (sp, bp) = (scale.as_ptr(), bias.as_ptr());
        unsafe {
            for r in 0..rows {
                let arow = acc.as_ptr().add(r * n);
                let orow = out.as_mut_ptr().add(r * n);
                let mut i = 0;
                while i < main {
                    let v = _mm256_cvtepi32_ps(_mm256_loadu_si256(arow.add(i) as *const __m256i));
                    let v = _mm256_add_ps(
                        _mm256_mul_ps(v, _mm256_loadu_ps(sp.add(i))),
                        _mm256_loadu_ps(bp.add(i)),
                    );
                    let v = if gelu { kernels::gelu_v(F32x8(v)).0 } else { v };
                    _mm256_storeu_ps(orow.add(i), v);
                    i += 8;
                }
                for j in main..n {
                    let y = *arow.add(j) as f32 * *sp.add(j) + *bp.add(j);
                    *orow.add(j) = if gelu { crate::fastmath::gelu_fast(y) } else { y };
                }
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
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
}

/// Runs kernel `$name` on the active backend: `x86::$name` on the AVX2
/// backend, and on the scalar backend the generic body one lane wide
/// (`kernels::$name::<F32x1>`) or, for an oracle kernel, the block after
/// `else`. The caller's asserts are the kernel's contract.
macro_rules! dispatch {
    ($name:ident($($arg:expr),*)) => {
        // SAFETY: one lane wide the body needs no target feature.
        dispatch!($name($($arg),*) else { unsafe { kernels::$name::<F32x1>($($arg),*) } })
    };
    ($name:ident($($arg:expr),*) else $scalar:block) => {
        match backend() {
            // SAFETY: the AVX2 backend is only ever selected on a CPU with
            // AVX2 and FMA.
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
pub fn exp_slice(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "exp_slice length mismatch");
    dispatch!(exp_slice(src, dst))
}

/// Lane-parallel [`crate::fastmath::tanh_fast`] over a slice. SIMD lanes are
/// bit-identical to the scalar kernel.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn tanh_slice(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "tanh_slice length mismatch");
    dispatch!(tanh_slice(src, dst))
}

/// Lane-parallel [`crate::fastmath::gelu_fast`] (the canonical GELU scalar)
/// over a slice. SIMD lanes are bit-identical to the scalar kernel.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn gelu_slice(src: &[f32], dst: &mut [f32]) {
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
pub fn axpy_acc(dst: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(dst.len(), x.len(), "axpy_acc length mismatch");
    dispatch!(axpy_acc(dst, a, x))
}

/// `dst += a · b` element-wise (mul-then-add; bit-identical to the scalar
/// loop).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn mul_acc(dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), a.len(), "mul_acc length mismatch");
    assert_eq!(dst.len(), b.len(), "mul_acc length mismatch");
    dispatch!(mul_acc(dst, a, b))
}

/// Element-wise `dst = a (op) b` (exact in every backend).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn binary_slice(op: BinOp, a: &[f32], b: &[f32], dst: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "binary_slice length mismatch");
    assert_eq!(a.len(), dst.len(), "binary_slice length mismatch");
    dispatch!(binary_slice(op, a, b, dst))
}

/// `dst = src · c` (exact in every backend).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn scale_slice(src: &[f32], c: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "scale_slice length mismatch");
    dispatch!(scale_slice(src, c, dst))
}

/// Numerically-stable softmax of one row. The scalar backend runs the
/// historical libm loop bit for bit; SIMD backends use lane-parallel
/// [`exp_slice`]-style exponentials and reordered sums (≤ 1e-6 of the scalar
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
pub fn log_softmax_row(row: &[f32], out: &mut [f32]) {
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
pub fn layer_norm_row(row: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
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
pub fn add_layer_norm_row(
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

/// Floats of `scratch` one [`attention_tile`] call over `rows` query rows,
/// `len` keys and a `head_dim`-wide head needs on the active backend.
pub fn attention_tile_scratch(rows: usize, len: usize, head_dim: usize) -> usize {
    match backend() {
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
/// # Panics
///
/// Panics when the head is not within `dim`, the slices do not hold whole
/// rows, there is no key, or `scratch` is too short.
#[allow(clippy::too_many_arguments)]
pub fn attention_tile(
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
    assert!(head_dim > 0 && col + head_dim <= dim, "attention_tile head out of range");
    assert!(q.len().is_multiple_of(dim) && k.len().is_multiple_of(dim), "attention_tile rows");
    assert!(!k.is_empty() && k.len() == v.len(), "attention_tile keys");
    assert_eq!(q.len(), out.len(), "attention_tile output length mismatch");
    let (rows, len) = (q.len() / dim, k.len() / dim);
    assert!(
        scratch.len() >= attention_tile_scratch(rows, len, head_dim),
        "attention_tile scratch too short"
    );
    dispatch!(attention_tile(q, k, v, dim, col, head_dim, scale, scratch, out) else {
        attention_tile_rows(q, k, v, dim, col, head_dim, scale, scratch, out)
    })
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
    let (rows, len) = (q.len() / dim, k.len() / dim);
    let (q_tile, rest) = scratch.split_at_mut(rows * head_dim);
    let (kv, rest) = rest.split_at_mut(head_dim * len);
    let (scores, rest) = rest.split_at_mut(rows * len);
    let tmp = &mut rest[..len];
    let cols = |r: usize| r * dim + col..r * dim + col + head_dim;
    for (r, dst) in q_tile.chunks_mut(head_dim).enumerate() {
        dst.copy_from_slice(&q[cols(r)]);
    }
    // `kv` holds the head's Kᵀ, `[head_dim, len]`, then its V, `[len, head_dim]`.
    for key in 0..len {
        for (p, &x) in k[cols(key)].iter().enumerate() {
            kv[p * len + key] = x;
        }
    }
    scores.fill(0.0);
    matmul_band(q_tile, head_dim, kv, len, 0, scores);
    for row in scores.chunks_mut(len) {
        match scale {
            Some(c) => scale_slice(row, c, tmp),
            None => tmp.copy_from_slice(row),
        }
        softmax_row(tmp, row);
    }
    for (key, dst) in kv.chunks_mut(head_dim).enumerate() {
        dst.copy_from_slice(&v[cols(key)]);
    }
    let mixed = q_tile;
    mixed.fill(0.0);
    matmul_band(scores, len, kv, head_dim, 0, mixed);
    for (r, src) in mixed.chunks(head_dim).enumerate() {
        out[cols(r)].copy_from_slice(src);
    }
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
/// applying the linear-layer epilogue while the tile is in cache:
/// `dst[r·stride + c] = act(src[c·width + r] + bias[c])` for `c < cols`.
/// An empty `bias` adds nothing (not even `+0.0`); `act` is
/// [`crate::fastmath::gelu_fast`] when `gelu` is set, else the identity.
/// Taking `cols` smaller than the tile truncates the output for free.
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
    gelu: bool,
    dst: &mut [f32],
    stride: usize,
) {
    assert!(width > 0 && rows <= width && cols <= stride, "lanes_to_rows tile shape");
    assert!(cols * width <= src.len(), "lanes_to_rows src too short");
    assert!(bias.is_empty() || bias.len() == cols, "lanes_to_rows bias length mismatch");
    assert!(rows == 0 || (rows - 1) * stride + cols <= dst.len(), "lanes_to_rows dst too short");
    dispatch!(lanes_to_rows(src, width, rows, cols, bias, gelu, dst, stride))
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
            // SAFETY: the probe above; the pack was built for `k` and `n`,
            // and the shapes are checked.
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
mod tests {
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

    /// Serialises tests that toggle the process-global backend.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
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
        /// The bits of the row composition on the AVX2 backend:
        /// [`attention_tile`].
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
            // SAFETY: the harness runs only arms whose target features this
            // CPU has, and every case passes its kernel's shapes.
            match $arm {
                Arm::F32x1 => {
                    unsafe { kernels::$name::<F32x1>($($arg),*) };
                    true
                }
                #[cfg(target_arch = "x86_64")]
                Arm::F32x8 => {
                    unsafe { x86::f32x8::$name($($arg),*) };
                    true
                }
                #[cfg(target_arch = "x86_64")]
                Arm::F32x16 => {
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
                // SAFETY: the harness runs the arm only where AVX2 and FMA
                // are detected, and every case passes its kernel's shapes.
                #[cfg(target_arch = "x86_64")]
                Arm::F32x8 => {
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

    /// `lanes_to_rows` against its definition, with no bias, a bias, and a
    /// bias and GELU.
    fn lanes_to_rows_cases(case: Case) {
        transpose_shapes(|width, rows, cols, off, nan| {
            let stride = cols + 3;
            let salt = (width * 10_000 + rows * 1000 + cols) as u64;
            let tile = values(off + cols * width, salt, 3, specials(nan));
            let tile = &tile[off..];
            let bias = values(cols, salt + 1, 4, specials(nan));
            for (bias, gelu) in [(&[][..], false), (&bias[..], false), (&bias[..], true)] {
                let what = format!(
                    "width={width} rows={rows} cols={cols} off={off} bias={} gelu={gelu}",
                    !bias.is_empty()
                );
                case(&what, nan, &|arm| {
                    let mut out = vec![SENTINEL; rows * stride];
                    if arm == Arm::Oracle {
                        for r in 0..rows {
                            for c in 0..cols {
                                let y = tile[c * width + r];
                                let y = if bias.is_empty() { y } else { y + bias[c] };
                                out[r * stride + c] = if gelu { gelu_fast(y) } else { y };
                            }
                        }
                        return Some(Out::F32(out));
                    }
                    lanes!(
                        arm,
                        lanes_to_rows(tile, width, rows, cols, bias, gelu, &mut out, stride)
                    )
                    .then_some(Out::F32(out))
                });
            }
        });
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
                // SAFETY: the harness runs only arms this CPU has; `a` is
                // `[m, k]`, `bt` `[n, k]`, and the pack was built from `bt`.
                match arm {
                    Arm::Oracle => q8_gemm_scalar(a, bt, k, n, out),
                    #[cfg(target_arch = "x86_64")]
                    Arm::Maddubs => unsafe { x86::q8_gemm_i32(a, bt, k, n, out) },
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
    /// norm against their libm / iterator-sum oracles.
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
