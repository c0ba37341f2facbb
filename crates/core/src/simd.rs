//! The `f64x4` lane-vector abstraction behind the sweep kernel: an
//! AVX2 `__m256d` backend and a plain-array scalar twin behind one
//! API, selected **once per sweep** at runtime.
//!
//! The fused Table-1 rule cores ([`crate::rules`]) operate on 4-wide
//! lane arrays `[Pa, Pā, P0, P1]`. Everything they need is expressible
//! as *lane-wise* multiplies/adds plus *shuffles* of whole vectors —
//! no horizontal reduction, no FMA — so the AVX2 backend performs
//! exactly the scalar instruction sequence per lane and the two
//! backends are bit-identical by construction (see the README's "SIMD
//! kernel" section for the argument; `tests/sweep_equivalence.rs`
//! enforces it with a forced-backend proptest).
//!
//! Backend policy:
//!
//! - [`KernelBackend::auto`] picks AVX2 when
//!   `is_x86_feature_detected!("avx2")` holds, scalar otherwise.
//! - The `SER_SIMD` env var overrides: `off` (or `scalar`) forces the
//!   scalar twin, `avx2` requests AVX2 (silently degraded to scalar on
//!   hosts without it, so the variable is safe to export globally).
//! - Non-x86 targets compile the scalar twin only; no compile-time
//!   `target-feature` flags are required anywhere.

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_blend_pd, _mm256_load_pd, _mm256_max_pd, _mm256_min_pd,
    _mm256_mul_pd, _mm256_permute4x64_pd, _mm256_set1_pd, _mm256_store_pd, _mm256_sub_pd,
};

/// One `(Pa, Pā, P0, P1)` tuple as a 32-byte-aligned lane array — the
/// memory shape of every sweep plane, so a plane slot is exactly one
/// aligned `vmovapd` for the AVX2 backend (and an ordinary `[f64; 4]`
/// for the scalar twin).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(C, align(32))]
pub(crate) struct Lane4(pub(crate) [f64; 4]);

/// Packs four 2-bit lane selectors into the `imm8` shuffle control the
/// backends share: result lane `k` takes source lane `ik`. Mirrors
/// `_mm256_permute4x64_pd`'s encoding so the scalar twin and the AVX2
/// intrinsic decode the same constant.
pub(crate) const fn imm4(i0: u32, i1: u32, i2: u32, i3: u32) -> i32 {
    (i0 | (i1 << 2) | (i2 << 4) | (i3 << 6)) as i32
}

/// The lane-vector operations the fused rule cores are generic over.
///
/// Every method is a *vertical* (lane-wise) operation or a whole-vector
/// shuffle: implementations must not reassociate across lanes, use FMA,
/// or otherwise change the per-lane rounding — the sweep's bit-identity
/// contract against the per-site reference rests on each lane seeing
/// exactly the scalar operation sequence.
pub(crate) trait LaneVec: Copy {
    /// Aligned 32-byte load of one plane slot.
    fn load(src: &Lane4) -> Self;
    /// Aligned 32-byte store back to the plane shape.
    fn store(self) -> Lane4;
    /// All four lanes set to `x`.
    fn splat(x: f64) -> Self;
    /// All four lanes zero.
    fn zero() -> Self;
    /// Lane-wise product (`vmulpd`).
    fn mul(self, rhs: Self) -> Self;
    /// Lane-wise sum (`vaddpd`).
    fn add(self, rhs: Self) -> Self;
    /// Lane-wise difference (`vsubpd`).
    fn sub(self, rhs: Self) -> Self;
    /// Full 4-lane shuffle: result lane `k` is source lane
    /// `(IMM8 >> 2k) & 3` (the `_mm256_permute4x64_pd` encoding; build
    /// `IMM8` with [`imm4`]).
    fn permute<const IMM8: i32>(self) -> Self;
    /// Lane blend: lane `k` comes from `other` when bit `k` of `MASK`
    /// is set, from `self` otherwise (the `_mm256_blend_pd` encoding).
    fn blend<const MASK: i32>(self, other: Self) -> Self;
    /// Lane-wise clamp into `[0, 1]` — the vector form of
    /// `FourValue::new_clamped`'s per-component clamp. Identical to the
    /// scalar clamp for every non-NaN input (NaN lanes cannot occur:
    /// tuples are finite by construction).
    fn clamp01(self) -> Self;
}

/// The plain-array twin: the same API over `[f64; 4]`, one scalar op
/// per lane. This is the only backend compiled on non-x86 targets and
/// the `SER_SIMD=off` fallback everywhere.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarVec([f64; 4]);

impl LaneVec for ScalarVec {
    #[inline(always)]
    fn load(src: &Lane4) -> Self {
        ScalarVec(src.0)
    }

    #[inline(always)]
    fn store(self) -> Lane4 {
        Lane4(self.0)
    }

    #[inline(always)]
    fn splat(x: f64) -> Self {
        ScalarVec([x; 4])
    }

    #[inline(always)]
    fn zero() -> Self {
        ScalarVec([0.0; 4])
    }

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let (a, b) = (self.0, rhs.0);
        ScalarVec([a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]])
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let (a, b) = (self.0, rhs.0);
        ScalarVec([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]])
    }

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let (a, b) = (self.0, rhs.0);
        ScalarVec([a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]])
    }

    #[inline(always)]
    fn permute<const IMM8: i32>(self) -> Self {
        let lane = |k: i32| self.0[((IMM8 >> (2 * k)) & 3) as usize];
        ScalarVec([lane(0), lane(1), lane(2), lane(3)])
    }

    #[inline(always)]
    fn blend<const MASK: i32>(self, other: Self) -> Self {
        let lane = |k: i32| {
            if (MASK >> k) & 1 == 1 {
                other.0[k as usize]
            } else {
                self.0[k as usize]
            }
        };
        ScalarVec([lane(0), lane(1), lane(2), lane(3)])
    }

    #[inline(always)]
    fn clamp01(self) -> Self {
        let a = self.0;
        ScalarVec([
            a[0].clamp(0.0, 1.0),
            a[1].clamp(0.0, 1.0),
            a[2].clamp(0.0, 1.0),
            a[3].clamp(0.0, 1.0),
        ])
    }
}

/// The AVX2 backend: one `__m256d` per tuple, one instruction per op.
///
/// Methods are *not* individually `#[target_feature]`-annotated: the
/// kernel's single `#[target_feature(enable = "avx2")]` entry point
/// (`plan_kernel_avx2` in `sweep.rs`) is the feature boundary, and
/// every helper between it and these intrinsics is `#[inline(always)]`
/// so the whole kernel collapses into that one function. Constructing
/// or using this type outside such an entry point is unsound — which
/// is why the type, like the whole trait, is crate-private and only
/// ever instantiated behind a runtime AVX2 check.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct AvxVec(__m256d);

#[cfg(target_arch = "x86_64")]
impl std::fmt::Debug for AvxVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AvxVec").field(&self.store().0).finish()
    }
}

#[cfg(target_arch = "x86_64")]
impl LaneVec for AvxVec {
    #[inline(always)]
    fn load(src: &Lane4) -> Self {
        // SAFETY: `Lane4` is `repr(C, align(32))`, so the pointer is
        // valid for a 32-byte aligned read of four f64s. The AVX2
        // requirement is met by the kernel's `target_feature` entry
        // point (see the type-level comment).
        AvxVec(unsafe { _mm256_load_pd(src.0.as_ptr()) })
    }

    #[inline(always)]
    fn store(self) -> Lane4 {
        let mut out = Lane4([0.0; 4]);
        // SAFETY: as in `load` — aligned, in-bounds, AVX2 guaranteed by
        // the kernel entry point.
        unsafe { _mm256_store_pd(out.0.as_mut_ptr(), self.0) };
        out
    }

    #[inline(always)]
    fn splat(x: f64) -> Self {
        // SAFETY: no memory access; AVX2 guaranteed by the entry point.
        AvxVec(unsafe { _mm256_set1_pd(x) })
    }

    #[inline(always)]
    fn zero() -> Self {
        Self::splat(0.0)
    }

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        // SAFETY: register-only `vmulpd`; AVX2 guaranteed by the entry
        // point.
        AvxVec(unsafe { _mm256_mul_pd(self.0, rhs.0) })
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: register-only `vaddpd`; AVX2 guaranteed by the entry
        // point.
        AvxVec(unsafe { _mm256_add_pd(self.0, rhs.0) })
    }

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        // SAFETY: register-only `vsubpd`; AVX2 guaranteed by the entry
        // point.
        AvxVec(unsafe { _mm256_sub_pd(self.0, rhs.0) })
    }

    #[inline(always)]
    fn permute<const IMM8: i32>(self) -> Self {
        // SAFETY: register-only `vpermpd`; AVX2 guaranteed by the entry
        // point.
        AvxVec(unsafe { _mm256_permute4x64_pd::<IMM8>(self.0) })
    }

    #[inline(always)]
    fn blend<const MASK: i32>(self, other: Self) -> Self {
        // SAFETY: register-only `vblendpd`; AVX2 guaranteed by the
        // entry point.
        AvxVec(unsafe { _mm256_blend_pd::<MASK>(self.0, other.0) })
    }

    #[inline(always)]
    fn clamp01(self) -> Self {
        // max-then-min equals the scalar `f64::clamp(0.0, 1.0)` for
        // every non-NaN input (only the sign of zero may differ, which
        // `==` cannot observe). NaNs cannot reach here.
        // SAFETY: register-only `vmaxpd`/`vminpd`; AVX2 guaranteed by
        // the entry point.
        AvxVec(unsafe {
            _mm256_min_pd(
                _mm256_max_pd(self.0, _mm256_set1_pd(0.0)),
                _mm256_set1_pd(1.0),
            )
        })
    }
}

/// Which rule-core backend a sweep runs. Selected once per sweep (see
/// [`KernelBackend::auto`]); every site of that sweep then runs
/// dispatch-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The plain-array twin — always available, and the only backend on
    /// non-x86 targets.
    Scalar,
    /// 256-bit `__m256d` rule cores, runtime-detected.
    Avx2,
}

impl KernelBackend {
    /// Whether this backend can run on the current host.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            KernelBackend::Avx2 => avx2_available(),
        }
    }

    /// The backend a sweep will use: AVX2 when the host supports it,
    /// unless the `SER_SIMD` env var overrides (`off`/`scalar` forces
    /// the twin; `avx2` asks for AVX2 and degrades to scalar when
    /// unavailable). Called once per sweep — the kernel never
    /// re-checks per gate.
    #[must_use]
    pub fn auto() -> KernelBackend {
        let requested = match std::env::var("SER_SIMD") {
            Ok(v) if v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("scalar") => {
                KernelBackend::Scalar
            }
            _ => KernelBackend::Avx2,
        };
        requested.sanitized()
    }

    /// Degrades to a backend the host can actually run (AVX2 → scalar
    /// on hosts without it) — what keeps forcing `Avx2` sound
    /// everywhere.
    #[must_use]
    pub fn sanitized(self) -> KernelBackend {
        if self.is_available() {
            self
        } else {
            KernelBackend::Scalar
        }
    }

    /// The provenance string benches record (`"avx2"` / `"scalar"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }
}

fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_backend_is_always_available() {
        assert!(KernelBackend::Scalar.is_available());
        assert_eq!(KernelBackend::Scalar.sanitized(), KernelBackend::Scalar);
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Avx2.name(), "avx2");
    }

    #[test]
    fn auto_only_picks_available_backends() {
        assert!(KernelBackend::auto().is_available());
        // Whatever `auto` returned, sanitizing is a no-op on it.
        assert_eq!(KernelBackend::auto().sanitized(), KernelBackend::auto());
    }

    #[test]
    fn sanitize_degrades_avx2_only_when_missing() {
        let s = KernelBackend::Avx2.sanitized();
        if KernelBackend::Avx2.is_available() {
            assert_eq!(s, KernelBackend::Avx2);
        } else {
            assert_eq!(s, KernelBackend::Scalar);
        }
    }

    #[test]
    fn imm4_matches_permute_encoding() {
        assert_eq!(imm4(0, 1, 2, 3), 0b11_10_01_00);
        assert_eq!(imm4(3, 3, 3, 3), 0b11_11_11_11);
        assert_eq!(imm4(1, 0, 3, 2), 0b10_11_00_01);
    }

    #[test]
    fn scalar_twin_shuffles_decode_the_imm() {
        let v = ScalarVec([10.0, 11.0, 12.0, 13.0]);
        assert_eq!(
            v.permute::<{ imm4(3, 2, 1, 0) }>().0,
            [13.0, 12.0, 11.0, 10.0]
        );
        assert_eq!(v.permute::<{ imm4(2, 2, 2, 2) }>().0, [12.0; 4]);
        let w = ScalarVec([20.0, 21.0, 22.0, 23.0]);
        assert_eq!(v.blend::<0b0110>(w).0, [10.0, 21.0, 22.0, 13.0]);
        assert_eq!(v.blend::<0b0000>(w).0, v.0);
        assert_eq!(v.blend::<0b1111>(w).0, w.0);
    }

    #[test]
    fn scalar_twin_clamps_like_new_clamped() {
        let v = ScalarVec([-1e-17, 1.0 + 1e-15, 0.5, f64::MIN_POSITIVE / 2.0]);
        let c = v.clamp01().0;
        assert_eq!(c[0], 0.0);
        assert_eq!(c[1], 1.0);
        assert_eq!(c[2], 0.5);
        // Denormals pass through untouched.
        assert_eq!(c[3], f64::MIN_POSITIVE / 2.0);
    }

    /// Lane-by-lane equivalence of the two backends over every trait
    /// op, including denormal and clamp-edge values — the op-level form
    /// of the sweep-level forced-backend proptest.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_ops_match_scalar_twin_bitwise() {
        if !KernelBackend::Avx2.is_available() {
            eprintln!("skipping: host has no AVX2");
            return;
        }
        // The feature boundary for the test body, mirroring the
        // kernel's entry-point structure.
        // SAFETY: callers must hold `KernelBackend::Avx2.is_available()`
        // — the one call site below checks it first.
        #[target_feature(enable = "avx2")]
        unsafe fn run(a: Lane4, b: Lane4) {
            let (sa, sb) = (ScalarVec::load(&a), ScalarVec::load(&b));
            let (va, vb) = (AvxVec::load(&a), AvxVec::load(&b));
            assert_eq!(va.store(), a);
            assert_eq!(va.mul(vb).store(), sa.mul(sb).store());
            assert_eq!(va.add(vb).store(), sa.add(sb).store());
            assert_eq!(va.clamp01().store(), sa.clamp01().store());
            assert_eq!(
                va.permute::<{ imm4(1, 0, 3, 2) }>().store(),
                sa.permute::<{ imm4(1, 0, 3, 2) }>().store()
            );
            assert_eq!(
                va.permute::<{ imm4(3, 3, 3, 3) }>().store(),
                sa.permute::<{ imm4(3, 3, 3, 3) }>().store()
            );
            assert_eq!(
                va.blend::<0b0110>(vb).store(),
                sa.blend::<0b0110>(sb).store()
            );
            assert_eq!(AvxVec::splat(0.25).store(), ScalarVec::splat(0.25).store());
            assert_eq!(AvxVec::zero().store(), ScalarVec::zero().store());
        }
        let denormal = f64::MIN_POSITIVE / 4.0;
        let cases = [
            (Lane4([0.1, 0.2, 0.3, 0.4]), Lane4([0.9, 0.8, 0.7, 0.6])),
            (
                Lane4([0.0, 1.0, denormal, -denormal]),
                Lane4([denormal, 1.0, 0.0, 1.0]),
            ),
            (
                Lane4([1.0 + 1e-15, -1e-17, 0.5, f64::MIN_POSITIVE]),
                Lane4([0.25, 0.5, 1.0, 0.125]),
            ),
        ];
        for (a, b) in cases {
            // SAFETY: guarded by the `is_available` check above.
            unsafe { run(a, b) };
        }
    }
}
