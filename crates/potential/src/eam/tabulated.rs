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
    /// debug builds reject non-finite arguments loudly. The scalar batch
    /// legs call this per lane; the AVX2 legs' `locate4` reproduces it lane
    /// for lane.
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
    /// of [`TabulatedEam::pair_density`]. Bitwise identical to the scalar
    /// call per lane: blocks of four lanes run vector Horner chains in
    /// scalar operation order and AND a beyond-cutoff lane's outputs to the
    /// guard's `+0.0`; the remainder lanes evaluate scalar, guard first.
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

    /// The `f` of [`InterleavedRadial::eval_batch`] alone: `f[k]` at
    /// `rs[k]`, same guard, same bits, on the same two legs.
    fn density_batch(&self, rs: &[f64], f: &mut [f64], rc: f64) {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::simd_active() {
            // SAFETY: simd_active() implies the AVX2 probe succeeded.
            unsafe { self.density_batch_avx2(rs, f, rc) };
            return;
        }
        self.density_batch_scalar(rs, f, rc);
    }

    /// The `dφ/dr` and `df/dr` of [`InterleavedRadial::eval_batch`] alone,
    /// same guard, same bits, on the same two legs.
    fn deriv_batch(&self, rs: &[f64], dphi: &mut [f64], df: &mut [f64], rc: f64) {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::simd_active() {
            // SAFETY: simd_active() implies the AVX2 probe succeeded.
            unsafe { self.deriv_batch_avx2(rs, dphi, df, rc) };
            return;
        }
        self.deriv_batch_scalar(rs, dphi, df, rc);
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

    /// Scalar leg of [`InterleavedRadial::density_batch`].
    fn density_batch_scalar(&self, rs: &[f64], f: &mut [f64], rc: f64) {
        for (o, &r) in f.iter_mut().zip(rs) {
            *o = self.eval_guarded(r, rc)[2];
        }
    }

    /// Scalar leg of [`InterleavedRadial::deriv_batch`].
    fn deriv_batch_scalar(&self, rs: &[f64], dphi: &mut [f64], df: &mut [f64], rc: f64) {
        for ((p, d), &r) in dphi.iter_mut().zip(df.iter_mut()).zip(rs) {
            let [_, dp, _, dd] = self.eval_guarded(r, rc);
            *p = dp;
            *d = dd;
        }
    }

    /// The vector `locate` of one four-lane block, lane-exact against the
    /// scalar one: the lanes' coefficient rows, their local coordinates `u`
    /// and the mask of the lanes below `rc`. A lane at or past `rc` is one
    /// the scalar guard sends to zeros before any lookup; here it is located
    /// like the others (its clamped index stays in the table) and the
    /// caller ANDs its outputs with the mask, which gives the guard's exact
    /// `+0.0` whatever the chains computed. The mask is the negated
    /// ordered-quiet `≥`, as in the scalar comparison: a NaN lane is kept
    /// and poisons its own outputs through the chains.
    ///
    /// A NaN lane's truncation, like that of a lane too far out for `i32`,
    /// yields the "integer indefinite" `i32::MIN`, which the clamp sends to
    /// segment 0 — the segment the scalar saturating `as isize` cast picks
    /// for NaN. The indices are read straight out of the register, two per
    /// move.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support; `block` holds four lanes.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn locate4(
        &self,
        block: &[f64],
        rc: f64,
    ) -> (
        [&[f64; 8]; 4],
        core::arch::x86_64::__m256d,
        core::arch::x86_64::__m256d,
    ) {
        use core::arch::x86_64::*;
        // Scalar `locate` would `debug_assert` on a non-finite lane that
        // passes the guard; keep that.
        debug_assert!(
            block.iter().all(|&r| r >= rc || r.is_finite()),
            "non-finite spline argument in {block:?}"
        );
        let r_v = _mm256_loadu_pd(block[..4].as_ptr());
        let live = _mm256_cmp_pd::<_CMP_NGE_UQ>(r_v, _mm256_set1_pd(rc));
        let (a_v, inv_v) = (_mm256_set1_pd(self.a), _mm256_set1_pd(self.inv_h));
        let t = _mm256_mul_pd(_mm256_sub_pd(r_v, a_v), inv_v);
        let idx = _mm256_cvttpd_epi32(_mm256_floor_pd(t));
        let last = _mm_set1_epi32(self.coeff.len() as i32 - 1);
        let idx = _mm_min_epi32(_mm_max_epi32(idx, _mm_setzero_si128()), last);
        // xl = a + h·i, u = (r − xl)·inv_h — scalar operation order.
        let xl = _mm256_add_pd(
            a_v,
            _mm256_mul_pd(_mm256_set1_pd(self.h), _mm256_cvtepi32_pd(idx)),
        );
        let u = _mm256_mul_pd(_mm256_sub_pd(r_v, xl), inv_v);
        // Two lanes per 64-bit move; the clamp keeps every index in the
        // table.
        let (lo, hi) = (
            _mm_cvtsi128_si64(idx) as u64,
            _mm_extract_epi64::<1>(idx) as u64,
        );
        let row = |i: u64| {
            // SAFETY: `i` is a lane of `idx`, clamped to `0..coeff.len()`.
            unsafe { self.coeff.get_unchecked(i as u32 as usize) }
        };
        ([row(lo), row(lo >> 32), row(hi), row(hi >> 32)], u, live)
    }

    /// AVX2 leg of [`InterleavedRadial::eval_batch`].
    ///
    /// # Safety
    /// The caller must have verified AVX2 support.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn eval_batch_avx2(&self, rs: &[f64], out: &mut [[f64; 4]], rc: f64) {
        let mut blocks = rs.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        for (block, o) in (&mut blocks).zip(&mut outs) {
            let (rows, u, live) = self.locate4(block, rc);
            crate::simd::avx2::radial_block4(rows, u, live, self.inv_h, o);
        }
        for (o, &r) in outs.into_remainder().iter_mut().zip(blocks.remainder()) {
            *o = self.eval_guarded(r, rc);
        }
    }

    /// AVX2 leg of [`InterleavedRadial::density_batch`]: the `f` half-row
    /// and value chain only.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn density_batch_avx2(&self, rs: &[f64], f: &mut [f64], rc: f64) {
        use core::arch::x86_64::{_mm256_and_pd, _mm256_storeu_pd};
        let mut blocks = rs.chunks_exact(4);
        let mut outs = f.chunks_exact_mut(4);
        for (block, o) in (&mut blocks).zip(&mut outs) {
            let (rows, u, live) = self.locate4(block, rc);
            let f = crate::simd::avx2::density_block4(rows, u);
            _mm256_storeu_pd(o.as_mut_ptr(), _mm256_and_pd(f, live));
        }
        self.density_batch_scalar(blocks.remainder(), outs.into_remainder(), rc);
    }

    /// AVX2 leg of [`InterleavedRadial::deriv_batch`]: the two derivative
    /// chains only.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn deriv_batch_avx2(&self, rs: &[f64], dphi: &mut [f64], df: &mut [f64], rc: f64) {
        use core::arch::x86_64::{_mm256_and_pd, _mm256_storeu_pd};
        let mut blocks = rs.chunks_exact(4);
        let mut dps = dphi.chunks_exact_mut(4);
        let mut dfs = df.chunks_exact_mut(4);
        for ((block, dp), dd) in (&mut blocks).zip(&mut dps).zip(&mut dfs) {
            let (rows, u, live) = self.locate4(block, rc);
            let (p, d) = crate::simd::avx2::deriv_block4(rows, u, self.inv_h);
            _mm256_storeu_pd(dp.as_mut_ptr(), _mm256_and_pd(p, live));
            _mm256_storeu_pd(dd.as_mut_ptr(), _mm256_and_pd(d, live));
        }
        let rest = blocks.remainder();
        self.deriv_batch_scalar(rest, dps.into_remainder(), dfs.into_remainder(), rc);
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

    fn density_batch(&self, r: &[f64], f: &mut [f64]) {
        assert_eq!(r.len(), f.len(), "density_batch length mismatch");
        match &self.radial {
            Some(t) => t.density_batch(r, f, self.rc),
            None => {
                for (o, &ri) in f.iter_mut().zip(r) {
                    *o = self.density(ri).0;
                }
            }
        }
    }

    fn radial_deriv_batch(&self, r: &[f64], dphi: &mut [f64], df: &mut [f64]) {
        assert_eq!(r.len(), dphi.len(), "radial_deriv_batch length mismatch");
        assert_eq!(r.len(), df.len(), "radial_deriv_batch length mismatch");
        match &self.radial {
            Some(t) => t.deriv_batch(r, dphi, df, self.rc),
            None => {
                for ((p, d), &ri) in dphi.iter_mut().zip(df.iter_mut()).zip(r) {
                    *p = self.pair(ri).1;
                    *d = self.density(ri).1;
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

    /// Both radial batches on both legs, called directly so one process
    /// covers the leg it would not pick, and on a table whose φ and f grids
    /// differ (no interleaved rows: the per-lane fallback).
    #[test]
    fn radial_batches_match_pair_density_on_both_legs() {
        use crate::traits::batch_check::{assert_matches, separations};
        let (src, tab) = tables();
        let rs = separations(tab.cutoff(), tab.r_min());
        let rc = tab.cutoff();
        assert_matches(
            &tab,
            &rs,
            |r, f| tab.density_batch(r, f),
            |r, dphi, df| tab.radial_deriv_batch(r, dphi, df),
            "TabulatedEam",
        );
        let t = tab.radial.as_ref().expect("one shared grid");
        assert_matches(
            &tab,
            &rs,
            |r, f| t.density_batch_scalar(r, f, rc),
            |r, dphi, df| t.deriv_batch_scalar(r, dphi, df, rc),
            "scalar leg",
        );
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_matches(
                &tab,
                &rs,
                // SAFETY: AVX2 was detected.
                |r, f| unsafe { t.density_batch_avx2(r, f, rc) },
                |r, dphi, df| unsafe { t.deriv_batch_avx2(r, dphi, df, rc) },
                "AVX2 leg",
            );
        } else {
            eprintln!(
                "radial_batches_match_pair_density_on_both_legs: AVX2 leg SKIPPED, \
                 this host has no AVX2"
            );
        }

        let pair = UniformSpline::from_fn(tab.r_min(), rc, 1500, |r| src.pair(r).0);
        let density = UniformSpline::from_fn(0.0, rc, 1801, |r| src.density(r).0);
        let embedding = UniformSpline::from_fn(0.0, tab.rho_max(), 500, |x| src.embedding(x).0);
        let split = TabulatedEam::from_splines(pair, density, embedding, rc);
        assert!(split.radial.is_none(), "different grids");
        assert_matches(
            &split,
            &rs,
            |r, f| split.density_batch(r, f),
            |r, dphi, df| split.radial_deriv_batch(r, dphi, df),
            "separate grids",
        );
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
