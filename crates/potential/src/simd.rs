//! Runtime-dispatched SIMD backend for batched spline evaluation.
//!
//! The batched entry points ([`crate::UniformSpline::eval_batch`] and the
//! batch methods on [`crate::traits::EamPotential`]) evaluate four lanes per
//! step with AVX2 `core::arch` intrinsics when the CPU supports them, and
//! fall back to a per-lane scalar loop otherwise. Both backends are required
//! to be **bit-exact** against the scalar [`crate::UniformSpline::eval`]:
//!
//! * The segment lookup (`locate`) stays scalar per lane, so the release
//!   clamp-to-boundary-segment semantics and the `NaN → segment 0` saturating
//!   cast behave identically — a vector `min`/`max` clamp would route NaN
//!   arguments to the *last* segment instead.
//! * The Horner chains issue the same IEEE-754 multiplies and adds in the
//!   same operand order as the scalar code (no FMA contraction), so every
//!   lane's value and derivative carry identical bits.
//!
//! Dispatch is decided once per process: AVX2 is probed at first use and the
//! `MD_SIMD_SCALAR` environment variable (any non-empty value) forces the
//! scalar backend, which is how CI exercises the fallback leg on machines
//! that do have the instructions. The same answer picks the lane leg of
//! md-sim's EAM row kernels (their pair geometry: gathers, minimum image,
//! `r` and the force terms), so `MD_SIMD_SCALAR=1` also selects the scalar
//! geometry lanes.

use std::sync::OnceLock;

/// `true` when the batched entry points will use the AVX2 backend: the CPU
/// supports AVX2 (checked at runtime, x86-64 only) and the `MD_SIMD_SCALAR`
/// environment override is not set. The probe runs once and is cached for
/// the life of the process.
pub fn simd_active() -> bool {
    static ACTIVE: OnceLock<bool> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if std::env::var_os("MD_SIMD_SCALAR").is_some_and(|v| !v.is_empty()) {
            return false;
        }
        detected()
    })
}

#[cfg(target_arch = "x86_64")]
fn detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn detected() -> bool {
    false
}

/// The AVX2 kernels. Everything here is `unsafe fn` + `#[target_feature]`:
/// callers must have verified AVX2 support (via [`simd_active`] or a direct
/// feature probe) before entering.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use core::arch::x86_64::*;

    /// Transposes four row vectors `[a0 a1 a2 a3] … [d0 d1 d2 d3]` into the
    /// four column vectors `[a0 b0 c0 d0] … [a3 b3 c3 d3]`.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the caller's feature probe).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose4(
        r0: __m256d,
        r1: __m256d,
        r2: __m256d,
        r3: __m256d,
    ) -> (__m256d, __m256d, __m256d, __m256d) {
        let t0 = _mm256_unpacklo_pd(r0, r1);
        let t1 = _mm256_unpackhi_pd(r0, r1);
        let t2 = _mm256_unpacklo_pd(r2, r3);
        let t3 = _mm256_unpackhi_pd(r2, r3);
        (
            _mm256_permute2f128_pd(t0, t2, 0x20),
            _mm256_permute2f128_pd(t1, t3, 0x20),
            _mm256_permute2f128_pd(t0, t2, 0x31),
            _mm256_permute2f128_pd(t1, t3, 0x31),
        )
    }

    /// Four-lane Horner chains, replicating the scalar
    /// `UniformSpline::eval` expression tree *operation for operation*
    /// (same multiplies, same adds, same operand order, no FMA):
    ///
    /// ```text
    /// value = c0 + u·(c1 + u·(c2 + u·c3))
    /// deriv = (c1 + u·(2·c2 + u·(3·c3))) · inv_h
    /// ```
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the caller's feature probe).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horner4(
        u: __m256d,
        c0: __m256d,
        c1: __m256d,
        c2: __m256d,
        c3: __m256d,
        inv_h: __m256d,
    ) -> (__m256d, __m256d) {
        let e1 = _mm256_mul_pd(u, c3);
        let e2 = _mm256_add_pd(c2, e1);
        let e3 = _mm256_mul_pd(u, e2);
        let e4 = _mm256_add_pd(c1, e3);
        let e5 = _mm256_mul_pd(u, e4);
        let value = _mm256_add_pd(c0, e5);

        let d1 = _mm256_mul_pd(_mm256_set1_pd(3.0), c3);
        let d2 = _mm256_mul_pd(u, d1);
        let d3 = _mm256_mul_pd(_mm256_set1_pd(2.0), c2);
        let d4 = _mm256_add_pd(d3, d2);
        let d5 = _mm256_mul_pd(u, d4);
        let d6 = _mm256_add_pd(c1, d5);
        let deriv = _mm256_mul_pd(d6, inv_h);
        (value, deriv)
    }

    /// Evaluates four spline lanes: lane `k` reads Horner coefficients
    /// `rows[k]` at local coordinate `us[k]`. Returns `(values, derivs)`.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the caller's feature probe).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn spline_block4(
        rows: [&[f64; 4]; 4],
        us: &[f64; 4],
        inv_h: f64,
    ) -> ([f64; 4], [f64; 4]) {
        let r0 = _mm256_loadu_pd(rows[0].as_ptr());
        let r1 = _mm256_loadu_pd(rows[1].as_ptr());
        let r2 = _mm256_loadu_pd(rows[2].as_ptr());
        let r3 = _mm256_loadu_pd(rows[3].as_ptr());
        let (c0, c1, c2, c3) = transpose4(r0, r1, r2, r3);
        let u = _mm256_loadu_pd(us.as_ptr());
        let (v, d) = horner4(u, c0, c1, c2, c3, _mm256_set1_pd(inv_h));
        let mut values = [0.0; 4];
        let mut derivs = [0.0; 4];
        _mm256_storeu_pd(values.as_mut_ptr(), v);
        _mm256_storeu_pd(derivs.as_mut_ptr(), d);
        (values, derivs)
    }

    /// Evaluates four lanes of an interleaved φ/f radial row
    /// (`[p0..p3, f0..f3]`, one 64-byte row per lane): lane `k` produces
    /// `out[k] = [φ, dφ/dr, f, df/dr]`.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the caller's feature probe); `out` must
    /// hold at least four rows.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn radial_block4(
        rows: [&[f64; 8]; 4],
        us: &[f64; 4],
        inv_h: f64,
        out: &mut [[f64; 4]],
    ) {
        let inv = _mm256_set1_pd(inv_h);
        let u = _mm256_loadu_pd(us.as_ptr());

        let (p0, p1, p2, p3) = transpose4(
            _mm256_loadu_pd(rows[0].as_ptr()),
            _mm256_loadu_pd(rows[1].as_ptr()),
            _mm256_loadu_pd(rows[2].as_ptr()),
            _mm256_loadu_pd(rows[3].as_ptr()),
        );
        let (phi, dphi) = horner4(u, p0, p1, p2, p3, inv);

        let (f0, f1, f2, f3) = transpose4(
            _mm256_loadu_pd(rows[0].as_ptr().add(4)),
            _mm256_loadu_pd(rows[1].as_ptr().add(4)),
            _mm256_loadu_pd(rows[2].as_ptr().add(4)),
            _mm256_loadu_pd(rows[3].as_ptr().add(4)),
        );
        let (f, df) = horner4(u, f0, f1, f2, f3, inv);

        // Back to row-major: lane k's [φ, dφ, f, df] row.
        let (o0, o1, o2, o3) = transpose4(phi, dphi, f, df);
        _mm256_storeu_pd(out[0].as_mut_ptr(), o0);
        _mm256_storeu_pd(out[1].as_mut_ptr(), o1);
        _mm256_storeu_pd(out[2].as_mut_ptr(), o2);
        _mm256_storeu_pd(out[3].as_mut_ptr(), o3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_env_is_read_once_and_cached() {
        // Whatever the ambient environment says, repeated queries agree —
        // the probe must be stable for the life of the process, because the
        // force engine assumes one backend per run.
        assert_eq!(simd_active(), simd_active());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn transpose_round_trips_through_blocks() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // spline_block4 on the identity-ish rows: lane k evaluates row k.
        let rows: [[f64; 4]; 4] = [
            [1.0, 2.0, 3.0, 4.0],
            [5.0, 6.0, 7.0, 8.0],
            [9.0, 10.0, 11.0, 12.0],
            [13.0, 14.0, 15.0, 16.0],
        ];
        let us = [0.0, 0.0, 0.0, 0.0];
        // u = 0 ⇒ value = c0, deriv = c1·inv_h.
        let (v, d) = unsafe {
            avx2::spline_block4([&rows[0], &rows[1], &rows[2], &rows[3]], &us, 2.0)
        };
        assert_eq!(v, [1.0, 5.0, 9.0, 13.0]);
        assert_eq!(d, [4.0, 12.0, 20.0, 28.0]);
    }
}
