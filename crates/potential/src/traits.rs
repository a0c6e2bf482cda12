//! Potential interfaces.
//!
//! Every radial function is exposed as a fused `(value, derivative)`
//! evaluation: the force kernels always need both, the shared
//! sub-expressions (exponentials, switching polynomials) are evaluated once,
//! and tabulated backends read value and slope from the same cache line.

/// A radial pair potential `V(r)`.
///
/// Implementations must return `(0, 0)` at and beyond [`PairPotential::cutoff`],
/// and should be at least C¹ there so that forces are continuous (the MD
/// integrator's energy conservation depends on it).
pub trait PairPotential: Send + Sync {
    /// Interaction cutoff `r_c` in Å.
    fn cutoff(&self) -> f64;

    /// Returns `(V(r), dV/dr)` at separation `r > 0`.
    fn energy_deriv(&self, r: f64) -> (f64, f64);

    /// Energy only.
    fn energy(&self, r: f64) -> f64 {
        self.energy_deriv(r).0
    }
}

/// An Embedded-Atom Method potential for a single species: pair term `φ`,
/// density contribution `f` and embedding function `F`.
///
/// Radial parts must vanish smoothly at [`EamPotential::cutoff`]; the
/// embedding function must be finite for all `ρ ≥ 0` and satisfy `F(0) = 0`
/// (an isolated atom embeds no energy).
pub trait EamPotential: Send + Sync {
    /// Interaction cutoff `r_c` in Å (applies to both `φ` and `f`).
    fn cutoff(&self) -> f64;

    /// Returns `(φ(r), dφ/dr)` — the pair interaction.
    fn pair(&self, r: f64) -> (f64, f64);

    /// Returns `(f(r), df/dr)` — the electron-density contribution one atom
    /// donates to a neighbor at distance `r` (Eq. 1 of the paper).
    fn density(&self, r: f64) -> (f64, f64);

    /// Returns `(F(ρ), dF/dρ)` — the embedding energy of an atom sitting in
    /// host electron density `ρ`.
    fn embedding(&self, rho: f64) -> (f64, f64);

    /// Fused radial evaluation `(φ, dφ/dr, f, df/dr)` at one separation —
    /// the paper's §II.D interpolation optimization. The default simply
    /// calls [`EamPotential::pair`] and [`EamPotential::density`];
    /// tabulated backends override it with a single segment-index
    /// computation into an interleaved coefficient table so both functions
    /// read from the same cache lines. Implementations must be bitwise
    /// identical to the two separate calls.
    #[inline]
    fn pair_density(&self, r: f64) -> (f64, f64, f64, f64) {
        let (phi, dphi) = self.pair(r);
        let (f, df) = self.density(r);
        (phi, dphi, f, df)
    }

    /// Batched [`EamPotential::pair_density`]: writes
    /// `[φ, dφ/dr, f, df/dr]` for each separation `r[k]` into `out[k]`.
    ///
    /// The default loops the scalar evaluation per lane; tabulated backends
    /// override it with SIMD Horner chains over their interleaved
    /// coefficient rows. Overrides must stay **bitwise identical** to the
    /// per-lane scalar calls for every lane count — the force engine's
    /// determinism contract (its row kernels ≡ per-pair scalar calls)
    /// rests on it.
    ///
    /// # Panics
    /// Panics if `r` and `out` differ in length.
    fn pair_density_batch(&self, r: &[f64], out: &mut [[f64; 4]]) {
        assert_eq!(r.len(), out.len(), "pair_density_batch length mismatch");
        for (o, &ri) in out.iter_mut().zip(r) {
            let (phi, dphi, f, df) = self.pair_density(ri);
            *o = [phi, dphi, f, df];
        }
    }

    /// Batched density values, the force engine's density sweep: writes
    /// `f(r[k])` into `f[k]`. Same contract as
    /// [`EamPotential::pair_density_batch`]: overrides must be bitwise
    /// identical, lane for lane, to the `f` of per-lane
    /// [`EamPotential::pair_density`], which is what the default loops.
    ///
    /// # Panics
    /// Panics if `r` and `f` differ in length.
    fn density_batch(&self, r: &[f64], f: &mut [f64]) {
        assert_eq!(r.len(), f.len(), "density_batch length mismatch");
        for (o, &ri) in f.iter_mut().zip(r) {
            *o = self.pair_density(ri).2;
        }
    }

    /// Batched radial derivatives, the force engine's force sweep: writes
    /// `dφ/dr` at `r[k]` into `dphi[k]` and `df/dr` into `df[k]`. Same
    /// contract as [`EamPotential::density_batch`]: bitwise identical, lane
    /// for lane, to the matching fields of per-lane
    /// [`EamPotential::pair_density`], which is what the default loops.
    ///
    /// # Panics
    /// Panics if the three slices differ in length.
    fn radial_deriv_batch(&self, r: &[f64], dphi: &mut [f64], df: &mut [f64]) {
        assert_eq!(r.len(), dphi.len(), "radial_deriv_batch length mismatch");
        assert_eq!(r.len(), df.len(), "radial_deriv_batch length mismatch");
        for ((p, d), &ri) in dphi.iter_mut().zip(df.iter_mut()).zip(r) {
            let (_, dp, _, dd) = self.pair_density(ri);
            *p = dp;
            *d = dd;
        }
    }

    /// Batched embedding derivative: writes `dF/dρ` at each host density
    /// `rho[k]` into `fp[k]`. Same contract as
    /// [`EamPotential::pair_density_batch`]: overrides must be bitwise
    /// identical to per-lane [`EamPotential::embedding`] — including the
    /// out-of-domain NaN poisoning of tabulated backends.
    ///
    /// # Panics
    /// Panics if `rho` and `fp` differ in length.
    fn embedding_deriv_batch(&self, rho: &[f64], fp: &mut [f64]) {
        assert_eq!(rho.len(), fp.len(), "embedding_deriv_batch length mismatch");
        for (o, &x) in fp.iter_mut().zip(rho) {
            *o = self.embedding(x).1;
        }
    }

    /// Largest host density the embedding function is defined for, or
    /// `None` when the domain is unbounded (closed-form potentials).
    /// Tabulated backends report their table edge so drivers can surface
    /// out-of-range densities as a structured fault instead of silently
    /// extrapolating.
    fn max_density(&self) -> Option<f64> {
        None
    }

    /// Concrete-type hook for monomorphized dispatch: the force engine
    /// matches on these once per time-step to instantiate its inner loops
    /// statically instead of paying two virtual calls per pair.
    fn as_analytic(&self) -> Option<&crate::AnalyticEam> {
        None
    }

    /// See [`EamPotential::as_analytic`].
    fn as_tabulated(&self) -> Option<&crate::TabulatedEam> {
        None
    }
}

/// Blanket implementations for references, so engines can take `&P` or
/// boxed potentials interchangeably.
impl<P: PairPotential + ?Sized> PairPotential for &P {
    fn cutoff(&self) -> f64 {
        (**self).cutoff()
    }
    fn energy_deriv(&self, r: f64) -> (f64, f64) {
        (**self).energy_deriv(r)
    }
}

impl<P: EamPotential + ?Sized> EamPotential for &P {
    fn cutoff(&self) -> f64 {
        (**self).cutoff()
    }
    fn pair(&self, r: f64) -> (f64, f64) {
        (**self).pair(r)
    }
    fn density(&self, r: f64) -> (f64, f64) {
        (**self).density(r)
    }
    fn embedding(&self, rho: f64) -> (f64, f64) {
        (**self).embedding(rho)
    }
    fn pair_density(&self, r: f64) -> (f64, f64, f64, f64) {
        (**self).pair_density(r)
    }
    fn pair_density_batch(&self, r: &[f64], out: &mut [[f64; 4]]) {
        (**self).pair_density_batch(r, out)
    }
    fn density_batch(&self, r: &[f64], f: &mut [f64]) {
        (**self).density_batch(r, f)
    }
    fn radial_deriv_batch(&self, r: &[f64], dphi: &mut [f64], df: &mut [f64]) {
        (**self).radial_deriv_batch(r, dphi, df)
    }
    fn embedding_deriv_batch(&self, rho: &[f64], fp: &mut [f64]) {
        (**self).embedding_deriv_batch(rho, fp)
    }
    fn max_density(&self) -> Option<f64> {
        (**self).max_density()
    }
    fn as_analytic(&self) -> Option<&crate::AnalyticEam> {
        (**self).as_analytic()
    }
    fn as_tabulated(&self) -> Option<&crate::TabulatedEam> {
        (**self).as_tabulated()
    }
}

/// Central-difference check that a fused `(value, derivative)` function's
/// derivative matches its value: shared by the test suites of every
/// potential in this crate.
pub fn check_derivative(f: impl Fn(f64) -> (f64, f64), x: f64, h: f64, tol: f64) {
    let (_, d) = f(x);
    let (fp, _) = f(x + h);
    let (fm, _) = f(x - h);
    let numeric = (fp - fm) / (2.0 * h);
    let scale = d.abs().max(numeric.abs()).max(1.0);
    assert!(
        (d - numeric).abs() <= tol * scale,
        "derivative mismatch at x = {x}: analytic {d}, numeric {numeric}"
    );
}

/// Shared by the test suites of the EAM potentials: holds a potential's
/// radial batch methods to per-lane [`EamPotential::pair_density`].
#[cfg(test)]
pub(crate) mod batch_check {
    use super::EamPotential;

    /// Separations the radial batches must get right for a potential with
    /// cutoff `rc` whose tables start at `r_min`: the row kernels' skin
    /// sentinel `+∞`, a negative separation `−1`, `rc` and one ulp either
    /// side of it, the first and last table segments, below and beyond the
    /// table, and ordinary separations between them, so windows of every
    /// length start at every phase of a four-lane block and mix in-cutoff
    /// lanes with beyond-cutoff ones.
    pub(crate) fn separations(rc: f64, r_min: f64) -> Vec<f64> {
        vec![
            -1.0,
            2.1,
            rc.next_down(),
            rc,
            3.3,
            rc.next_up(),
            r_min,
            r_min.next_up(),
            0.5 * r_min,
            2.6,
            rc - 1e-3,
            4.4,
            rc + 1.0,
            1.7,
            f64::INFINITY,
            3.9,
            2.48,
            rc.next_down(),
            5.0,
            2.9,
        ]
    }

    /// Runs `density` (`f` per lane) and `deriv` (`dφ/dr`, `df/dr` per
    /// lane) on every window of `rs` of every length 0–9, and asserts each
    /// lane's bits equal `pot.pair_density`'s.
    pub(crate) fn assert_matches(
        pot: &dyn EamPotential,
        rs: &[f64],
        density: impl Fn(&[f64], &mut [f64]),
        deriv: impl Fn(&[f64], &mut [f64], &mut [f64]),
        what: &str,
    ) {
        for len in 0..=9 {
            for start in 0..=rs.len() - len {
                let rs = &rs[start..start + len];
                let (mut f, mut dphi, mut df) = (vec![7.0; len], vec![7.0; len], vec![7.0; len]);
                density(rs, &mut f);
                deriv(rs, &mut dphi, &mut df);
                for (k, &r) in rs.iter().enumerate() {
                    let (_, want_dphi, want_f, want_df) = pot.pair_density(r);
                    let got = [f[k], dphi[k], df[k]].map(f64::to_bits);
                    let want = [want_f, want_dphi, want_df].map(f64::to_bits);
                    assert_eq!(got, want, "{what}: [f, dφ, df] lane {k} of {rs:?}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalyticEam;

    struct Quadratic;
    impl PairPotential for Quadratic {
        fn cutoff(&self) -> f64 {
            10.0
        }
        fn energy_deriv(&self, r: f64) -> (f64, f64) {
            (r * r, 2.0 * r)
        }
    }

    #[test]
    fn energy_defaults_to_first_component() {
        assert_eq!(Quadratic.energy(3.0), 9.0);
    }

    #[test]
    fn reference_impl_forwards() {
        let q = Quadratic;
        let r: &dyn PairPotential = &q;
        assert_eq!(r.cutoff(), 10.0);
        #[allow(clippy::needless_borrow)]
        let ed = (&q).energy_deriv(2.0); // exercise the blanket &P impl
        assert_eq!(ed, (4.0, 4.0));
        assert_eq!(r.energy(2.0), 4.0);
    }

    /// An implementor that keeps every batch default: only the scalar
    /// methods forward.
    struct Forwarding(AnalyticEam);

    impl EamPotential for Forwarding {
        fn cutoff(&self) -> f64 {
            self.0.cutoff()
        }
        fn pair(&self, r: f64) -> (f64, f64) {
            self.0.pair(r)
        }
        fn density(&self, r: f64) -> (f64, f64) {
            self.0.density(r)
        }
        fn embedding(&self, rho: f64) -> (f64, f64) {
            self.0.embedding(rho)
        }
    }

    #[test]
    fn default_radial_batches_loop_pair_density() {
        let pot = Forwarding(AnalyticEam::fe());
        let rs = batch_check::separations(pot.cutoff(), 0.5);
        batch_check::assert_matches(
            &pot,
            &rs,
            |r, f| pot.density_batch(r, f),
            |r, dphi, df| pot.radial_deriv_batch(r, dphi, df),
            "defaults",
        );
        // Through `dyn` and the blanket `&P` impl, as the engine calls them.
        let erased: &dyn EamPotential = &pot;
        batch_check::assert_matches(
            &pot,
            &rs,
            |r, f| (&erased).density_batch(r, f),
            |r, dphi, df| (&erased).radial_deriv_batch(r, dphi, df),
            "defaults through &dyn",
        );
    }

    #[test]
    #[should_panic(expected = "radial_deriv_batch length mismatch")]
    fn radial_deriv_batch_rejects_mismatched_lengths() {
        let pot = Forwarding(AnalyticEam::fe());
        pot.radial_deriv_batch(&[2.0, 3.0], &mut [0.0; 2], &mut [0.0; 1]);
    }

    #[test]
    fn derivative_checker_accepts_consistent_pairs() {
        check_derivative(|x| (x * x * x, 3.0 * x * x), 1.7, 1e-5, 1e-8);
    }

    #[test]
    #[should_panic(expected = "derivative mismatch")]
    fn derivative_checker_rejects_wrong_slope() {
        check_derivative(|x| (x * x, 7.0), 1.0, 1e-5, 1e-8);
    }
}
