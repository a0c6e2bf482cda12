//! Spline-tabulated EAM.
//!
//! Production EAM potentials (DYNAMO *funcfl*/*setfl* files, as consumed by
//! XMD — the serial code the paper starts from — and LAMMPS) are tables of
//! `φ`, `f` and `F` evaluated by spline interpolation. [`TabulatedEam`]
//! reproduces that pipeline: it samples any [`EamPotential`] onto uniform
//! grids and evaluates through [`UniformSpline`].
//!
//! Besides fidelity to the original system, the tabulated path exercises a
//! different performance profile (table lookups instead of `exp` calls); it
//! is the potential of the benchmark's workloads (`perfbench/`), and
//! md-sim's ignored `phase_speed_probe` times the EAM phases on it.

use crate::spline::UniformSpline;
use crate::traits::EamPotential;

/// Interleaved per-segment φ/f Horner coefficients: segment `i` holds
/// `[φc0, φc1, φc2, φc3, fc0, fc1, fc2, fc3]`, so the fused force kernels
/// pay **one** segment-index computation per pair and read both radial
/// functions' value + slope from the same cache lines (paper §II.D
/// interpolation optimization; both splines share the same uniform grid).
///
/// The coefficients are copied verbatim from the two [`UniformSpline`]s and
/// evaluated with the identical index computation and Horner chains, so
/// [`TabulatedEam::pair_density`] is bitwise identical to separate
/// [`TabulatedEam::pair`] + [`TabulatedEam::density`] calls.
#[derive(Debug, Clone)]
struct InterleavedRadial {
    a: f64,
    h: f64,
    inv_h: f64,
    coeff: Vec<[f64; 8]>,
}

impl InterleavedRadial {
    /// Zips two splines into one interleaved table. Returns `None` when the
    /// grids differ (e.g. *setfl* files whose density table starts at `r = 0`
    /// while the pair table starts at `dr`); the fused evaluation then falls
    /// back to two separate spline lookups.
    fn build(pair: &UniformSpline, density: &UniformSpline) -> Option<InterleavedRadial> {
        if pair.a() != density.a()
            || pair.knots() != density.knots()
            || pair.spacing() != density.spacing()
        {
            return None;
        }
        let coeff = pair
            .segments()
            .iter()
            .zip(density.segments())
            .map(|(p, d)| [p[0], p[1], p[2], p[3], d[0], d[1], d[2], d[3]])
            .collect();
        Some(InterleavedRadial {
            a: pair.a(),
            h: pair.spacing(),
            inv_h: 1.0 / pair.spacing(),
            coeff,
        })
    }

    /// Segment index and local coordinate, with exactly the
    /// [`UniformSpline`] lookup semantics: out-of-domain arguments clamp to
    /// the boundary segments, NaN saturates to segment 0 in release, and
    /// debug builds reject non-finite arguments loudly. The batched path
    /// calls this per lane so the clamp behavior cannot diverge from scalar.
    #[inline]
    fn locate(&self, r: f64) -> (usize, f64) {
        debug_assert!(r.is_finite(), "non-finite spline argument {r}");
        let t = (r - self.a) * self.inv_h;
        let i = (t.floor() as isize).clamp(0, self.coeff.len() as isize - 1) as usize;
        let xl = self.a + self.h * i as f64;
        (i, (r - xl) * self.inv_h)
    }

    /// Fused `(φ, dφ/dr, f, df/dr)` — one index computation, two Horner
    /// chains over one 64-byte coefficient row.
    #[inline]
    fn eval(&self, r: f64) -> (f64, f64, f64, f64) {
        let (i, u) = self.locate(r);
        let [p0, p1, p2, p3, f0, f1, f2, f3] = self.coeff[i];
        let phi = p0 + u * (p1 + u * (p2 + u * p3));
        let dphi = (p1 + u * (2.0 * p2 + u * (3.0 * p3))) * self.inv_h;
        let f = f0 + u * (f1 + u * (f2 + u * f3));
        let df = (f1 + u * (2.0 * f2 + u * (3.0 * f3))) * self.inv_h;
        (phi, dphi, f, df)
    }

    /// Batched [`InterleavedRadial::eval`] with the `r ≥ rc → zeros` guard
    /// of [`TabulatedEam::pair_density`] applied per lane **before** any
    /// table lookup. Bitwise identical to the scalar call per lane: full
    /// in-cutoff blocks of four lanes run vector Horner chains in scalar
    /// operation order; blocks containing a beyond-cutoff lane and the
    /// remainder lanes evaluate scalar.
    fn eval_batch(&self, rs: &[f64], out: &mut [[f64; 4]], rc: f64) {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::simd_active() {
            // SAFETY: simd_active() implies the AVX2 probe succeeded.
            unsafe { self.eval_batch_avx2(rs, out, rc) };
            return;
        }
        for (o, &r) in out.iter_mut().zip(rs) {
            *o = self.eval_guarded(r, rc);
        }
    }

    /// One scalar lane of [`InterleavedRadial::eval_batch`].
    #[inline]
    fn eval_guarded(&self, r: f64, rc: f64) -> [f64; 4] {
        if r >= rc {
            return [0.0; 4];
        }
        let (phi, dphi, f, df) = self.eval(r);
        [phi, dphi, f, df]
    }

    /// AVX2 leg of [`InterleavedRadial::eval_batch`].
    ///
    /// # Safety
    /// The caller must have verified AVX2 support.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn eval_batch_avx2(&self, rs: &[f64], out: &mut [[f64; 4]], rc: f64) {
        use core::arch::x86_64::*;
        let a_v = _mm256_set1_pd(self.a);
        let h_v = _mm256_set1_pd(self.h);
        let inv_v = _mm256_set1_pd(self.inv_h);
        let last = _mm_set1_epi32(self.coeff.len() as i32 - 1);
        let mut k = 0;
        while k + 4 <= rs.len() {
            let block = &rs[k..k + 4];
            let r_v = _mm256_loadu_pd(block.as_ptr());
            // A beyond-cutoff lane must short-circuit to zeros *before* the
            // segment lookup, exactly like the scalar guard; evaluate mixed
            // blocks lane by lane. Ordered-quiet `≥` matches the scalar
            // comparison on NaN lanes (false — they stay on the vector
            // path and poison their own outputs through the Horner chains).
            let over = _mm256_cmp_pd::<_CMP_GE_OQ>(r_v, _mm256_set1_pd(rc));
            if _mm256_movemask_pd(over) != 0 {
                for (l, &r) in block.iter().enumerate() {
                    out[k + l] = self.eval_guarded(r, rc);
                }
            } else {
                // Vectorized `locate`, lane-exact against the scalar one:
                // every lane here is `< rc ≤ b`, so `t` cannot overflow the
                // i32 convert, and a NaN lane's truncation yields the
                // "integer indefinite" `i32::MIN`, which the clamp sends to
                // segment 0 — the same segment the scalar saturating
                // `as isize` cast picks. (Scalar `locate` would also
                // `debug_assert` on a non-finite lane; keep that.)
                debug_assert!(
                    block.iter().all(|r| r.is_finite()),
                    "non-finite spline argument in {block:?}"
                );
                let t = _mm256_mul_pd(_mm256_sub_pd(r_v, a_v), inv_v);
                let idx = _mm256_cvttpd_epi32(_mm256_floor_pd(t));
                let idx = _mm_min_epi32(_mm_max_epi32(idx, _mm_setzero_si128()), last);
                // xl = a + h·i, u = (r − xl)·inv_h — scalar operation order.
                let xl = _mm256_add_pd(a_v, _mm256_mul_pd(h_v, _mm256_cvtepi32_pd(idx)));
                let u_v = _mm256_mul_pd(_mm256_sub_pd(r_v, xl), inv_v);
                let mut us = [0.0; 4];
                _mm256_storeu_pd(us.as_mut_ptr(), u_v);
                let mut is = [0i32; 4];
                _mm_storeu_si128(is.as_mut_ptr() as *mut __m128i, idx);
                let rows = [
                    &self.coeff[is[0] as usize],
                    &self.coeff[is[1] as usize],
                    &self.coeff[is[2] as usize],
                    &self.coeff[is[3] as usize],
                ];
                crate::simd::avx2::radial_block4(rows, &us, self.inv_h, &mut out[k..k + 4]);
            }
            k += 4;
        }
        for l in k..rs.len() {
            out[l] = self.eval_guarded(rs[l], rc);
        }
    }
}

/// An EAM potential backed by cubic-spline tables.
#[derive(Debug, Clone)]
pub struct TabulatedEam {
    pair: UniformSpline,
    density: UniformSpline,
    embedding: UniformSpline,
    radial: Option<InterleavedRadial>,
    r_min: f64,
    rc: f64,
    rho_max: f64,
}

impl TabulatedEam {
    /// Tabulates `source` with `n_r` radial knots on `[r_min, cutoff]` and
    /// `n_rho` embedding knots on `[0, rho_max]`.
    ///
    /// `r_min` bounds the table from below; separations smaller than any
    /// physically reachable distance (deep core) are evaluated by clamped
    /// extrapolation of the first segment, as tabulated MD codes do.
    ///
    /// # Panics
    /// Panics if the grids are degenerate (`n < 3` knots) or bounds invalid.
    pub fn from_potential(
        source: &dyn EamPotential,
        r_min: f64,
        n_r: usize,
        rho_max: f64,
        n_rho: usize,
    ) -> TabulatedEam {
        let rc = source.cutoff();
        assert!(r_min > 0.0 && r_min < rc, "need 0 < r_min < cutoff");
        assert!(rho_max > 0.0, "rho_max must be positive");
        let pair = UniformSpline::from_fn(r_min, rc, n_r, |r| source.pair(r).0);
        let density = UniformSpline::from_fn(r_min, rc, n_r, |r| source.density(r).0);
        let embedding = UniformSpline::from_fn(0.0, rho_max, n_rho, |rho| source.embedding(rho).0);
        TabulatedEam {
            radial: InterleavedRadial::build(&pair, &density),
            pair,
            density,
            embedding,
            r_min,
            rc,
            rho_max,
        }
    }

    /// Assembles a tabulated potential directly from splines (used by the
    /// setfl file reader). The pair spline's lower bound becomes `r_min`;
    /// the embedding spline's upper bound becomes `rho_max`.
    pub fn from_splines(
        pair: UniformSpline,
        density: UniformSpline,
        embedding: UniformSpline,
        cutoff: f64,
    ) -> TabulatedEam {
        assert!(cutoff > 0.0, "cutoff must be positive");
        TabulatedEam {
            r_min: pair.a(),
            rho_max: embedding.b(),
            radial: InterleavedRadial::build(&pair, &density),
            pair,
            density,
            embedding,
            rc: cutoff,
        }
    }

    /// Default-resolution tabulation (2000 radial knots, 2000 embedding
    /// knots, embedding domain `[0, 3ρ_estimate]`).
    pub fn standard(source: &dyn EamPotential, rho_estimate: f64) -> TabulatedEam {
        TabulatedEam::from_potential(source, 0.5, 2000, 3.0 * rho_estimate, 2000)
    }

    /// Upper edge of the embedding table.
    #[inline]
    pub fn rho_max(&self) -> f64 {
        self.rho_max
    }

    /// Lower edge of the radial tables.
    #[inline]
    pub fn r_min(&self) -> f64 {
        self.r_min
    }
}

impl EamPotential for TabulatedEam {
    fn cutoff(&self) -> f64 {
        self.rc
    }

    #[inline]
    fn pair(&self, r: f64) -> (f64, f64) {
        if r >= self.rc {
            return (0.0, 0.0);
        }
        self.pair.eval(r)
    }

    #[inline]
    fn density(&self, r: f64) -> (f64, f64) {
        if r >= self.rc {
            return (0.0, 0.0);
        }
        self.density.eval(r)
    }

    /// Embedding energy and derivative.
    ///
    /// Host densities beyond the table edge `rho_max` return `(NaN, NaN)`
    /// **in every build profile** — never a silent linear extrapolation of
    /// the end segment. A density that far out means the simulation is
    /// blowing up (overlapping atoms), exactly when extrapolated garbage
    /// forces would mask the failure; the poisoned value propagates to the
    /// watchdog, which reports a structured `DensityOutOfRange` fault with
    /// the culprit atom. (Drivers detect the condition *before* evaluation
    /// via [`EamPotential::max_density`].)
    #[inline]
    fn embedding(&self, rho: f64) -> (f64, f64) {
        // Negated on purpose: `rho > rho_max` *and* `rho == NaN` must both
        // take the poisoned branch, which `rho > self.rho_max` alone or a
        // `partial_cmp` rewrite would not express as directly.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(rho <= self.rho_max) {
            return (f64::NAN, f64::NAN);
        }
        self.embedding.eval(rho)
    }

    #[inline]
    fn pair_density(&self, r: f64) -> (f64, f64, f64, f64) {
        if r >= self.rc {
            return (0.0, 0.0, 0.0, 0.0);
        }
        match &self.radial {
            Some(t) => t.eval(r),
            None => {
                let (phi, dphi) = self.pair.eval(r);
                let (f, df) = self.density.eval(r);
                (phi, dphi, f, df)
            }
        }
    }

    fn pair_density_batch(&self, r: &[f64], out: &mut [[f64; 4]]) {
        assert_eq!(r.len(), out.len(), "pair_density_batch length mismatch");
        match &self.radial {
            Some(t) => t.eval_batch(r, out, self.rc),
            // Mismatched grids: no interleaved table to vectorize over;
            // fall back to the scalar two-spline lookup per lane.
            None => {
                for (o, &ri) in out.iter_mut().zip(r) {
                    let (phi, dphi, f, df) = self.pair_density(ri);
                    *o = [phi, dphi, f, df];
                }
            }
        }
    }

    fn embedding_deriv_batch(&self, rho: &[f64], fp: &mut [f64]) {
        assert_eq!(rho.len(), fp.len(), "embedding_deriv_batch length mismatch");
        // Fixed-size chunks keep the value scratch on the stack. A chunk
        // containing an out-of-domain density takes the scalar lane loop so
        // the NaN poisoning of `embedding` applies bit-for-bit.
        const B: usize = 64;
        let mut values = [0.0; B];
        for (rc, fc) in rho.chunks(B).zip(fp.chunks_mut(B)) {
            if rc.iter().all(|&x| x <= self.rho_max) {
                self.embedding.eval_batch(rc, &mut values[..rc.len()], fc);
            } else {
                for (o, &x) in fc.iter_mut().zip(rc) {
                    *o = self.embedding(x).1;
                }
            }
        }
    }

    fn max_density(&self) -> Option<f64> {
        Some(self.rho_max)
    }

    fn as_tabulated(&self) -> Option<&TabulatedEam> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eam::analytic::AnalyticEam;
    use crate::traits::check_derivative;

    fn tables() -> (AnalyticEam, TabulatedEam) {
        let src = AnalyticEam::fe();
        let tab = TabulatedEam::standard(&src, src.rho_e());
        (src, tab)
    }

    #[test]
    fn tabulated_matches_analytic_values() {
        let (src, tab) = tables();
        for k in 0..200 {
            let r = 1.0 + (5.6 - 1.0) * k as f64 / 199.0;
            assert!(
                (src.pair(r).0 - tab.pair(r).0).abs() < 1e-6,
                "pair mismatch at r = {r}"
            );
            assert!(
                (src.density(r).0 - tab.density(r).0).abs() < 1e-6,
                "density mismatch at r = {r}"
            );
        }
        for k in 0..200 {
            let rho = 3.0 * src.rho_e() * k as f64 / 199.0;
            assert!(
                (src.embedding(rho).0 - tab.embedding(rho).0).abs() < 1e-6,
                "embedding mismatch at rho = {rho}"
            );
        }
    }

    #[test]
    fn tabulated_matches_analytic_derivatives() {
        let (src, tab) = tables();
        for r in [1.5, 2.48, 3.7, 5.0, 5.5] {
            let (_, d_src) = src.pair(r);
            let (_, d_tab) = tab.pair(r);
            assert!((d_src - d_tab).abs() < 1e-4, "pair slope at r = {r}");
            let (_, f_src) = src.density(r);
            let (_, f_tab) = tab.density(r);
            assert!((f_src - f_tab).abs() < 1e-4, "density slope at r = {r}");
        }
    }

    #[test]
    fn tabulated_derivatives_internally_consistent() {
        let (_, tab) = tables();
        for r in [1.2, 2.0, 3.3, 4.8] {
            check_derivative(|x| tab.pair(x), r, 1e-6, 1e-5);
            check_derivative(|x| tab.density(x), r, 1e-6, 1e-5);
        }
        let near_edge = 0.9 * tab.rho_max();
        for rho in [1.0, 10.0, near_edge] {
            check_derivative(|x| tab.embedding(x), rho, 1e-6, 1e-5);
        }
    }

    #[test]
    fn fused_pair_density_is_bitwise_identical_to_separate_calls() {
        let (_, tab) = tables();
        for k in 0..4000 {
            // Sweep across the table including the sub-r_min extrapolation
            // region and beyond-cutoff zeros.
            let r = 0.3 + (6.0 - 0.3) * k as f64 / 3999.0;
            let (phi, dphi) = tab.pair(r);
            let (f, df) = tab.density(r);
            let fused = tab.pair_density(r);
            assert_eq!(fused, (phi, dphi, f, df), "divergence at r = {r}");
        }
    }

    #[test]
    fn out_of_range_embedding_is_poisoned_in_all_builds() {
        let (_, tab) = tables();
        let (f, df) = tab.embedding(tab.rho_max() * 1.01);
        assert!(f.is_nan() && df.is_nan(), "beyond-edge density must poison");
        // NaN densities are also out of domain, never routed into the table.
        let (f, df) = tab.embedding(f64::NAN);
        assert!(f.is_nan() && df.is_nan());
        // The edge itself is still inside the domain.
        let (f, _) = tab.embedding(tab.rho_max());
        assert!(f.is_finite());
    }

    #[test]
    fn concrete_dispatch_hooks_and_density_ceiling() {
        let (src, tab) = tables();
        assert!(tab.as_tabulated().is_some());
        assert!(tab.as_analytic().is_none());
        assert_eq!(tab.max_density(), Some(tab.rho_max()));
        assert!(src.as_analytic().is_some());
        assert!(src.as_tabulated().is_none());
        assert_eq!(src.max_density(), None);
        // The hooks survive dyn erasure — that is their whole point.
        let erased: &dyn EamPotential = &tab;
        assert!(erased.as_tabulated().is_some());
    }

    #[test]
    fn batched_pair_density_is_bitwise_identical_to_scalar() {
        let (_, tab) = tables();
        // Sweep includes sub-r_min extrapolation, the whole table, and
        // beyond-cutoff lanes that must hit the zero guard before lookup.
        let rs: Vec<f64> = (0..37).map(|k| 0.3 + 0.165 * k as f64).collect();
        for len in 0..=rs.len() {
            let mut out = vec![[0.0; 4]; len];
            tab.pair_density_batch(&rs[..len], &mut out);
            for (k, &r) in rs[..len].iter().enumerate() {
                let (phi, dphi, f, df) = tab.pair_density(r);
                let got = out[k];
                assert_eq!(
                    [phi.to_bits(), dphi.to_bits(), f.to_bits(), df.to_bits()],
                    [got[0].to_bits(), got[1].to_bits(), got[2].to_bits(), got[3].to_bits()],
                    "lane {k} of {len} at r = {r}"
                );
            }
        }
    }

    #[test]
    fn batched_embedding_deriv_is_bitwise_identical_including_poison() {
        let (_, tab) = tables();
        let edge = tab.rho_max();
        // In-domain lanes, the exact table edge, beyond-edge lanes and a NaN
        // lane: the batch must reproduce the scalar result bit for bit,
        // poisoned NaNs included.
        let rhos: Vec<f64> = (0..29)
            .map(|k| match k % 7 {
                6 => edge * 1.25,
                5 => edge,
                4 if k == 25 => f64::NAN,
                _ => edge * (k as f64 + 0.5) / 30.0,
            })
            .collect();
        for len in 0..=rhos.len() {
            let mut fp = vec![0.0; len];
            tab.embedding_deriv_batch(&rhos[..len], &mut fp);
            for (k, &rho) in rhos[..len].iter().enumerate() {
                let want = tab.embedding(rho).1;
                assert_eq!(
                    want.to_bits(),
                    fp[k].to_bits(),
                    "lane {k} of {len} at rho = {rho}"
                );
            }
        }
    }

    #[test]
    fn default_batch_methods_match_scalar_on_analytic() {
        // AnalyticEam takes the trait defaults (a scalar lane loop): the
        // fused engine's batched precompute must agree with per-pair calls
        // there too.
        let (src, _) = tables();
        let rs = [1.1, 2.3, 3.7, 4.9, 5.8, 6.2, 0.9];
        let mut out = [[0.0; 4]; 7];
        src.pair_density_batch(&rs, &mut out);
        for (k, &r) in rs.iter().enumerate() {
            let (phi, dphi, f, df) = src.pair_density(r);
            assert_eq!([phi, dphi, f, df], out[k]);
        }
        let rhos = [0.5, 11.0, 29.0, 44.0];
        let mut fp = [0.0; 4];
        src.embedding_deriv_batch(&rhos, &mut fp);
        for (k, &rho) in rhos.iter().enumerate() {
            assert_eq!(src.embedding(rho).1, fp[k]);
        }
    }

    #[test]
    fn zero_beyond_cutoff() {
        let (_, tab) = tables();
        assert_eq!(tab.pair(5.67), (0.0, 0.0));
        assert_eq!(tab.density(9.0), (0.0, 0.0));
    }

    #[test]
    fn accessors() {
        let (src, tab) = tables();
        assert_eq!(tab.cutoff(), src.cutoff());
        assert_eq!(tab.r_min(), 0.5);
        assert!((tab.rho_max() - 3.0 * src.rho_e()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "r_min < cutoff")]
    fn bad_radial_domain_rejected() {
        let src = AnalyticEam::fe();
        let _ = TabulatedEam::from_potential(&src, 6.0, 100, 30.0, 100);
    }
}
