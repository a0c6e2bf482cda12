//! Closed-form single-species EAM.
//!
//! The functional forms are the classic analytic-EAM building blocks
//! (Johnson-style nearest-neighbor analytic models for BCC metals):
//!
//! * pair term — Morse, `φ(r) = D[(1 − e^(−α(r−r₀)))² − 1]`;
//! * density — exponential, `f(r) = f_e · e^(−β(r−r_e))`;
//! * embedding — convex quadratic normalized so an isolated atom embeds no
//!   energy and the perfect crystal sits at the embedding minimum:
//!   `F(ρ) = E₀[(ρ/ρ_e − 1)² − 1]`, giving `F(0) = 0`, `F(ρ_e) = −E₀`,
//!   `F'(ρ_e) = 0`, `F'' > 0`.
//!
//! Both radial parts are C²-smoothed to zero at the cutoff, so forces are
//! continuously differentiable everywhere — a prerequisite for the NVE
//! energy-conservation tests in `md-sim`.

use crate::cutoff::SmoothCutoff;
use crate::traits::EamPotential;

/// A closed-form EAM potential (see module docs for the functional forms).
///
/// ```
/// use md_potential::{AnalyticEam, EamPotential};
///
/// let fe = AnalyticEam::fe();
/// // An isolated atom embeds no energy; the perfect crystal sits at the
/// // embedding minimum.
/// assert_eq!(fe.embedding(0.0).0, 0.0);
/// assert!(fe.embedding(fe.rho_e()).1.abs() < 1e-12);
/// // Radial functions vanish smoothly at the cutoff.
/// assert_eq!(fe.pair(fe.cutoff()), (0.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AnalyticEam {
    // Morse pair term.
    pair_d: f64,
    pair_alpha: f64,
    pair_r0: f64,
    // Exponential density.
    f_e: f64,
    beta: f64,
    r_e: f64,
    // Quadratic embedding.
    e0: f64,
    rho_e: f64,
    cutoff: SmoothCutoff,
}

/// Parameters for [`AnalyticEam::new`].
#[derive(Debug, Clone, Copy)]
pub struct AnalyticEamParams {
    /// Morse well depth D (eV).
    pub pair_d: f64,
    /// Morse stiffness α (1/Å).
    pub pair_alpha: f64,
    /// Morse equilibrium separation r₀ (Å).
    pub pair_r0: f64,
    /// Density prefactor f_e (arbitrary density units).
    pub f_e: f64,
    /// Density decay β (1/Å).
    pub beta: f64,
    /// Density reference radius r_e (Å).
    pub r_e: f64,
    /// Embedding depth E₀ (eV).
    pub e0: f64,
    /// Equilibrium host density ρ_e (density units).
    pub rho_e: f64,
    /// Cutoff r_c (Å).
    pub rc: f64,
    /// Smoothing taper width (Å).
    pub taper: f64,
}

impl AnalyticEam {
    /// Builds the potential from explicit parameters.
    ///
    /// # Panics
    /// Panics if any parameter is non-positive or `rc ≤ r_e`.
    pub fn new(p: AnalyticEamParams) -> AnalyticEam {
        assert!(p.pair_d > 0.0, "pair_d must be positive");
        assert!(p.pair_alpha > 0.0, "pair_alpha must be positive");
        assert!(p.pair_r0 > 0.0, "pair_r0 must be positive");
        assert!(p.f_e > 0.0, "f_e must be positive");
        assert!(p.beta > 0.0, "beta must be positive");
        assert!(p.r_e > 0.0, "r_e must be positive");
        assert!(p.e0 > 0.0, "e0 must be positive");
        assert!(p.rho_e > 0.0, "rho_e must be positive");
        assert!(p.rc > p.r_e, "cutoff {} must exceed r_e {}", p.rc, p.r_e);
        AnalyticEam {
            pair_d: p.pair_d,
            pair_alpha: p.pair_alpha,
            pair_r0: p.pair_r0,
            f_e: p.f_e,
            beta: p.beta,
            r_e: p.r_e,
            e0: p.e0,
            rho_e: p.rho_e,
            cutoff: SmoothCutoff::new(p.rc, p.taper),
        }
    }

    /// Iron-like parameterization on the BCC lattice the paper simulates
    /// (`a = 2.8665 Å`, cutoff `5.67 Å ≈ 1.98 a` — between the 5th and 6th
    /// neighbor shells, giving the 58-neighbor coordination typical of EAM
    /// Fe simulations).
    ///
    /// `ρ_e` is computed exactly as the host density of an atom in the
    /// perfect BCC crystal, so the crystal sits at the embedding minimum
    /// `F'(ρ_e) = 0`.
    pub fn fe() -> AnalyticEam {
        let a = md_lattice_constant_fe();
        let r_e = a * 3f64.sqrt() / 2.0; // nearest-neighbor distance
        let rc = 5.67;
        let taper = 0.5;
        let f_e = 1.0;
        let beta = 1.8;
        // Host density of a perfect BCC crystal: sum the smoothed density
        // over the five neighbor shells inside the cutoff.
        let cut = SmoothCutoff::new(rc, taper);
        let density = |r: f64| {
            let raw = f_e * (-beta * (r - r_e)).exp();
            let draw = -beta * raw;
            cut.apply(r, raw, draw).0
        };
        let rho_e: f64 = bcc_shells(a)
            .iter()
            .map(|&(r, count)| count as f64 * density(r))
            .sum();
        AnalyticEam::new(AnalyticEamParams {
            pair_d: 0.40,
            pair_alpha: 1.60,
            pair_r0: r_e,
            f_e,
            beta,
            r_e,
            e0: 1.50,
            rho_e,
            rc,
            taper,
        })
    }

    /// Copper-like parameterization on the FCC lattice (`a = 3.615 Å`,
    /// cutoff `4.95 Å` — between the 3rd and 4th FCC shells). Demonstrates
    /// that the analytic form, like the SDC machinery it feeds, is not tied
    /// to iron (the paper's conclusion claims generality over materials and
    /// potentials).
    pub fn cu() -> AnalyticEam {
        let a = 3.615;
        let r_e = a / 2f64.sqrt(); // FCC nearest-neighbor distance, 2.556 Å
        let rc = 4.95;
        let taper = 0.45;
        let f_e = 1.0;
        let beta = 2.0;
        let cut = SmoothCutoff::new(rc, taper);
        let density = |r: f64| {
            let raw = f_e * (-beta * (r - r_e)).exp();
            cut.apply(r, raw, -beta * raw).0
        };
        // FCC shells within the cutoff: r1 = a/√2 (12), r2 = a (6),
        // r3 = a·√(3/2) (24).
        let rho_e: f64 = [(r_e, 12.0), (a, 6.0), (a * 1.5f64.sqrt(), 24.0)]
            .iter()
            .map(|&(r, n)| n * density(r))
            .sum();
        AnalyticEam::new(AnalyticEamParams {
            pair_d: 0.35,
            pair_alpha: 1.65,
            pair_r0: r_e,
            f_e,
            beta,
            r_e,
            e0: 1.20,
            rho_e,
            rc,
            taper,
        })
    }

    /// Equilibrium host density ρ_e.
    #[inline]
    pub fn rho_e(&self) -> f64 {
        self.rho_e
    }

    /// Embedding depth E₀.
    #[inline]
    pub fn e0(&self) -> f64 {
        self.e0
    }
}

/// BCC Fe lattice constant (Å), re-exported for parameterization.
fn md_lattice_constant_fe() -> f64 {
    2.8665
}

/// The neighbor shells of BCC within `2a`: `(radius, count)` for lattice
/// constant `a`.
fn bcc_shells(a: f64) -> [(f64, usize); 5] {
    [
        (a * 3f64.sqrt() / 2.0, 8),
        (a, 6),
        (a * 2f64.sqrt(), 12),
        (a * 11f64.sqrt() / 2.0, 24),
        (a * 3f64.sqrt(), 8),
    ]
}

impl EamPotential for AnalyticEam {
    fn cutoff(&self) -> f64 {
        self.cutoff.end()
    }

    #[inline]
    fn pair(&self, r: f64) -> (f64, f64) {
        if r >= self.cutoff.end() {
            return (0.0, 0.0);
        }
        let e = (-self.pair_alpha * (r - self.pair_r0)).exp();
        let one_minus = 1.0 - e;
        let v = self.pair_d * (one_minus * one_minus - 1.0);
        let dv = 2.0 * self.pair_d * self.pair_alpha * one_minus * e;
        self.cutoff.apply(r, v, dv)
    }

    #[inline]
    fn density(&self, r: f64) -> (f64, f64) {
        if r >= self.cutoff.end() {
            return (0.0, 0.0);
        }
        let raw = self.f_e * (-self.beta * (r - self.r_e)).exp();
        let draw = -self.beta * raw;
        self.cutoff.apply(r, raw, draw)
    }

    #[inline]
    fn embedding(&self, rho: f64) -> (f64, f64) {
        debug_assert!(rho >= 0.0, "negative host density {rho}");
        let x = rho / self.rho_e - 1.0;
        let f = self.e0 * (x * x - 1.0);
        let df = 2.0 * self.e0 * x / self.rho_e;
        (f, df)
    }

    /// One `exp` per lane: the density alone.
    fn density_batch(&self, r: &[f64], f: &mut [f64]) {
        assert_eq!(r.len(), f.len(), "density_batch length mismatch");
        for (o, &ri) in f.iter_mut().zip(r) {
            *o = self.density(ri).0;
        }
    }

    /// Two `exp`s per lane, one per radial function.
    fn radial_deriv_batch(&self, r: &[f64], dphi: &mut [f64], df: &mut [f64]) {
        assert_eq!(r.len(), dphi.len(), "radial_deriv_batch length mismatch");
        assert_eq!(r.len(), df.len(), "radial_deriv_batch length mismatch");
        for ((p, d), &ri) in dphi.iter_mut().zip(df.iter_mut()).zip(r) {
            *p = self.pair(ri).1;
            *d = self.density(ri).1;
        }
    }

    fn as_analytic(&self) -> Option<&AnalyticEam> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::check_derivative;

    #[test]
    fn fe_parameters_are_sane() {
        let p = AnalyticEam::fe();
        assert_eq!(p.cutoff(), 5.67);
        assert!(p.rho_e() > 0.0);
        // The five BCC shells all contribute: ρ_e exceeds the single-shell
        // value 8·f(r1) = 8·1.0.
        assert!(p.rho_e() > 8.0, "rho_e = {}", p.rho_e());
    }

    #[test]
    fn embedding_boundary_conditions() {
        let p = AnalyticEam::fe();
        let (f0, _) = p.embedding(0.0);
        assert_eq!(f0, 0.0, "isolated atom embeds no energy");
        let (fe_, dfe) = p.embedding(p.rho_e());
        assert!((fe_ - (-p.e0())).abs() < 1e-12, "F(rho_e) = -E0");
        assert!(dfe.abs() < 1e-12, "crystal sits at the embedding minimum");
    }

    #[test]
    fn embedding_is_convex() {
        let p = AnalyticEam::fe();
        let rho_e = p.rho_e();
        let mut prev_slope = f64::NEG_INFINITY;
        for k in 0..50 {
            let rho = rho_e * 2.0 * k as f64 / 49.0;
            let (_, df) = p.embedding(rho);
            assert!(df >= prev_slope, "F' not monotone at rho = {rho}");
            prev_slope = df;
        }
    }

    #[test]
    fn radial_functions_vanish_at_cutoff() {
        let p = AnalyticEam::fe();
        assert_eq!(p.pair(5.67), (0.0, 0.0));
        assert_eq!(p.density(5.67), (0.0, 0.0));
        assert_eq!(p.pair(100.0), (0.0, 0.0));
        let (v, d) = p.pair(5.67 - 1e-7);
        assert!(v.abs() < 1e-5 && d.abs() < 1e-4);
        let (v, d) = p.density(5.67 - 1e-7);
        assert!(v.abs() < 1e-5 && d.abs() < 1e-4);
    }

    #[test]
    fn pair_has_a_well_at_r0() {
        let p = AnalyticEam::fe();
        let r0 = 2.8665 * 3f64.sqrt() / 2.0;
        let (v, d) = p.pair(r0);
        assert!((v - (-0.40)).abs() < 1e-9);
        assert!(d.abs() < 1e-9);
    }

    #[test]
    fn density_is_positive_and_decreasing_inside_plateau() {
        let p = AnalyticEam::fe();
        let mut prev = f64::INFINITY;
        for k in 0..40 {
            let r = 1.5 + (5.0 - 1.5) * k as f64 / 39.0;
            let (f, df) = p.density(r);
            assert!(f > 0.0);
            assert!(f < prev);
            assert!(df < 0.0, "df = {df} at r = {r}");
            prev = f;
        }
    }

    #[test]
    fn all_derivatives_numerically_consistent() {
        let p = AnalyticEam::fe();
        for r in [1.8, 2.48, 3.0, 4.0, 5.0, 5.3, 5.6] {
            check_derivative(|x| p.pair(x), r, 1e-7, 1e-6);
            check_derivative(|x| p.density(x), r, 1e-7, 1e-6);
        }
        for rho in [0.5, 5.0, 10.0, 20.0, 40.0] {
            check_derivative(|x| p.embedding(x), rho, 1e-7, 1e-8);
        }
    }

    #[test]
    fn cohesive_energy_is_negative_and_iron_scale() {
        // Perfect-crystal energy per atom: F(ρ_e) + ½ Σ_shells n·φ(r).
        let p = AnalyticEam::fe();
        let a = 2.8665;
        let pair_sum: f64 = super::bcc_shells(a)
            .iter()
            .map(|&(r, n)| n as f64 * p.pair(r).0)
            .sum();
        let e_coh = p.embedding(p.rho_e()).0 + 0.5 * pair_sum;
        assert!(e_coh < -1.0, "cohesive energy {e_coh} too shallow");
        assert!(e_coh > -10.0, "cohesive energy {e_coh} unphysically deep");
    }

    #[test]
    fn radial_batches_match_pair_density_bit_for_bit() {
        for p in [AnalyticEam::fe(), AnalyticEam::cu()] {
            let rs = crate::traits::batch_check::separations(p.cutoff(), 0.5);
            crate::traits::batch_check::assert_matches(
                &p,
                &rs,
                |r, f| p.density_batch(r, f),
                |r, dphi, df| p.radial_deriv_batch(r, dphi, df),
                "AnalyticEam",
            );
        }
    }

    #[test]
    fn cu_parameters_are_sane() {
        let p = AnalyticEam::cu();
        assert_eq!(p.cutoff(), 4.95);
        // FCC first shell alone contributes 12·f(r_e) = 12; ρ_e exceeds it.
        assert!(p.rho_e() > 12.0, "rho_e = {}", p.rho_e());
        // Embedding minimum at the crystal density.
        let (_, dfe) = p.embedding(p.rho_e());
        assert!(dfe.abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must exceed r_e")]
    fn cutoff_below_re_rejected() {
        let mut params = AnalyticEamParams {
            pair_d: 1.0,
            pair_alpha: 1.0,
            pair_r0: 2.0,
            f_e: 1.0,
            beta: 1.0,
            r_e: 3.0,
            e0: 1.0,
            rho_e: 10.0,
            rc: 2.5,
            taper: 0.5,
        };
        params.rc = 2.5;
        let _ = AnalyticEam::new(params);
    }
}
