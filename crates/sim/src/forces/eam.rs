//! The three-phase EAM force computation (paper §II.C).
//!
//! Per time-step:
//!
//! 1. **Densities** (Fig. 7): `rho[i] += f(r); rho[j] += f(r)` over the half
//!    list — an irregular reduction, executed by the configured strategy.
//! 2. **Embedding** (§II.C phase 2): `fp[i] = F'(ρ_i)` — a plain data-
//!    parallel loop with no cross-iteration dependences (`parallel for`).
//! 3. **Forces** (Fig. 8): for each stored pair, the scalar
//!    `s = φ'(r) + (F'(ρ_i) + F'(ρ_j))·f'(r)` (the paper's Eq. 2), scattered
//!    as `force[i] −= s·r̂; force[j] += s·r̂` — the second irregular
//!    reduction.
//!
//! Phases 1 and 3 are the paper's timed quantity; phase 2 is cheap
//! (`O(N)` vs `O(N·neighbors)`).

use crate::forces::ForceEngine;
use crate::system::System;
use crate::timing::Phase;
use md_base::pool::{self, SharedSlice};
use md_geometry::{SimBox, Vec3};
use md_neighbor::{Csr, NeighborList};
use md_potential::EamPotential;
use sdc_core::{PairTerm, TaskRows};
use std::sync::atomic::{AtomicUsize, Ordering};

/// What the density sweep keeps of one stored half-list pair for the force
/// sweep, addressed by the pair's slot (its CSR storage index
/// `offsets[i] + k`): the radial derivatives φ′(r) and f′(r). Those are the
/// costly part of phase 3 — a spline lookup each — so phase 1 evaluates
/// them together with f(r) (the paper's §II.D interpolation
/// optimization); the displacement and separation are cheaper to recompute
/// from the positions than to store and reload. A skin pair's record is
/// unspecified: the force sweep skips the pair before reading it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PairRecord {
    dphi: f64,
    df: f64,
}

/// Lane-batch size of the density kernel: a task's stored pairs are
/// gathered into blocks of this many separations for one
/// [`EamPotential::pair_density_batch`] call (a multiple of the 4-wide AVX2
/// blocks, large enough to amortize the call).
const SIMD_BATCH: usize = 64;

/// Width of one AVX2 block, the unit [`ForceEngine::lane_occupancy`] counts.
const LANES: usize = 4;

/// Up to [`SIMD_BATCH`] stored pairs of one task, in sweep order, waiting
/// for their separations to go through the splines.
struct DensityBlock {
    n: usize,
    /// `r²` from the geometry walk, `r` after the flush's square root.
    r: [f64; SIMD_BATCH],
    /// The pair is inside the true cutoff (not a Verlet skin pair).
    live: [bool; SIMD_BATCH],
    row: [u32; SIMD_BATCH],
    col: [u32; SIMD_BATCH],
    slot: [u32; SIMD_BATCH],
    out: [[f64; 4]; SIMD_BATCH],
    /// AVX2 blocks evaluated so far.
    quads: usize,
}

impl DensityBlock {
    fn new() -> DensityBlock {
        DensityBlock {
            n: 0,
            r: [0.0; SIMD_BATCH],
            live: [false; SIMD_BATCH],
            row: [0; SIMD_BATCH],
            col: [0; SIMD_BATCH],
            slot: [0; SIMD_BATCH],
            out: [[0.0; 4]; SIMD_BATCH],
            quads: 0,
        }
    }

    /// Evaluates φ′, f and f′ for the gathered pairs through
    /// [`md_potential::simd::sqrt_batch`] and
    /// [`EamPotential::pair_density_batch`] (bit-exact against the scalar
    /// `sqrt` and per-pair calls), writes each pair's record, and adds `f`
    /// to `rho[i]` and `rho[j]` in sweep order — the order of the per-pair
    /// scatter, hence the same bits.
    ///
    /// # Safety
    /// As for [`density_rows`], for every row in the block.
    unsafe fn flush<P: EamPotential + ?Sized>(
        &mut self,
        pot: &P,
        rho: &SharedSlice<'_, f64>,
        records: &SharedSlice<'_, PairRecord>,
    ) {
        let n = self.n;
        md_potential::simd::sqrt_batch(&mut self.r[..n]);
        // Skin lanes take an in-domain sentinel before the spline batch: a
        // separation `r ≥ rc` would drop its whole 4-lane block to the
        // scalar guard path, and ~14% of stored pairs sit in the skin.
        // Lanes are independent, so live lanes keep their bits; NaN
        // separations are live (see `density_rows`) and stay NaN.
        for (r, &live) in self.r[..n].iter_mut().zip(&self.live[..n]) {
            if !live {
                *r = -1.0;
            }
        }
        pot.pair_density_batch(&self.r[..n], &mut self.out[..n]);
        self.quads += n.div_ceil(LANES);
        // `rho[i]` of the current row stays in a register: a half list
        // stores only `j > i`, so no pair of row `i` writes `rho[i]` through
        // its `j` side, and no other task touches it while this one owns
        // row `i`.
        let mut row = usize::MAX;
        let mut acc = 0.0;
        for k in 0..n {
            let [_, dphi, f, df] = self.out[k];
            // SAFETY (all three blocks): the slot, `rho[i]` and `rho[j]` of
            // a row in the block are this task's own (the caller's contract).
            unsafe { *records.get_mut(self.slot[k] as usize) = PairRecord { dphi, df } };
            if !self.live[k] {
                continue;
            }
            let (i, j) = (self.row[k] as usize, self.col[k] as usize);
            debug_assert!(j > i, "half-list pair ({i}, {j}) out of order");
            if i != row {
                if row != usize::MAX {
                    unsafe { *rho.get_mut(row) = acc };
                }
                row = i;
                acc = unsafe { *rho.get_mut(i) };
            }
            acc += f;
            unsafe { *rho.get_mut(j) += f };
        }
        if row != usize::MAX {
            unsafe { *rho.get_mut(row) = acc };
        }
        self.n = 0;
    }
}

/// Phase 1 for one task of a row-owning sweep
/// ([`sdc_core::ScatterExec::run_tasks`]): walks the task's rows, batches
/// their stored pairs across row boundaries into [`SIMD_BATCH`]-lane blocks
/// (min-image geometry, then the splines — see [`DensityBlock::flush`]),
/// writes one [`PairRecord`] per slot and accumulates `rho`. Returns the
/// number of AVX2 blocks the batched evaluator ran.
///
/// # Safety
/// While this runs, no other thread may access `records` at the slots of
/// `rows`, nor `rho` at `rows` or at their stored neighbors — what
/// `run_tasks` guarantees each task.
#[allow(clippy::too_many_arguments)]
unsafe fn density_rows<P: EamPotential + ?Sized>(
    rows: TaskRows<'_>,
    half: &Csr,
    sim_box: &SimBox,
    pos: &[Vec3],
    rc2: f64,
    pot: &P,
    rho: &SharedSlice<'_, f64>,
    records: &SharedSlice<'_, PairRecord>,
) -> usize {
    let offsets = half.offsets();
    let indices = half.indices();
    let mut block = DensityBlock::new();
    rows.for_each(|i| {
        let pi = pos[i];
        let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
        for (slot, &j) in (lo..hi).zip(&indices[lo..hi]) {
            let r2 = sim_box.min_image(pi, pos[j as usize]).norm_sq();
            let k = block.n;
            block.r[k] = r2;
            // The cutoff test is the *negated* per-pair guard `r2 >= rc2`:
            // squared, so the rounded sqrt cannot move a boundary pair
            // across, and negated, so a NaN separation counts as live and
            // the poison still flows — exactly like a per-pair kernel.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            {
                block.live[k] = !(r2 >= rc2);
            }
            block.row[k] = i as u32;
            block.col[k] = j;
            block.slot[k] = slot as u32;
            block.n += 1;
            if block.n == SIMD_BATCH {
                // SAFETY: the block holds rows of `rows` only.
                unsafe { block.flush(pot, rho, records) };
            }
        }
    });
    // SAFETY: as above.
    unsafe { block.flush(pot, rho, records) };
    block.quads
}

/// Phase 3 for one task of a row-owning sweep: recomputes each stored
/// pair's displacement, `r²` and `r` from the positions with the density
/// sweep's IEEE operations, skips `r² ≥ rc²` (NaN flows through), reads φ′
/// and f′ from the pair's record, and scatters
/// `s = φ′ + (F′(ρ_i) + F′(ρ_j))·f′` as `±s·d/r`. `forces[i]` stays in a
/// register for the whole row, as `rho[i]` does in [`DensityBlock::flush`].
///
/// # Safety
/// While this runs, no other thread may access `forces` at `rows` or at
/// their stored neighbors — what `run_tasks` guarantees each task.
#[allow(clippy::too_many_arguments)]
unsafe fn force_rows(
    rows: TaskRows<'_>,
    half: &Csr,
    sim_box: &SimBox,
    pos: &[Vec3],
    rc2: f64,
    fp: &[f64],
    records: &[PairRecord],
    forces: &SharedSlice<'_, Vec3>,
) {
    let offsets = half.offsets();
    let indices = half.indices();
    rows.for_each(|i| {
        let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
        if lo == hi {
            return;
        }
        let (pi, fpi) = (pos[i], fp[i]);
        // SAFETY (all three blocks): `forces` at `i` and at its neighbors
        // is this task's own (the caller's contract).
        let mut acc = unsafe { *forces.get_mut(i) };
        for (&j, rec) in indices[lo..hi].iter().zip(&records[lo..hi]) {
            let j = j as usize;
            let d = sim_box.min_image(pi, pos[j]);
            let r2 = d.norm_sq();
            if r2 >= rc2 {
                continue;
            }
            let r = r2.sqrt();
            let scalar = rec.dphi + (fpi + fp[j]) * rec.df;
            // F_i = −dE/dr · r̂, r̂ = (r_i − r_j)/r; Newton gives −F to j.
            let f = d * (-scalar / r);
            acc += f;
            unsafe { *forces.get_mut(j) += -f };
        }
        unsafe { *forces.get_mut(i) = acc };
    });
}

/// EAM phase 2 on the current pool: `fp[i] = F'(rho[i])` in contiguous
/// [`SIMD_BATCH`]-wide lane-batched blocks. Blocks are disjoint and the
/// batched evaluator is bit-exact against the scalar one, so neither the
/// split nor the thread count can be observed in `fp`.
fn embedding_phase<P: EamPotential + ?Sized>(pot: &P, rho: &[f64], fp: &mut [f64]) {
    pool::for_each_chunk_mut(fp, SIMD_BATCH, |b, fp| {
        pot.embedding_deriv_batch(&rho[b * SIMD_BATCH..][..fp.len()], fp);
    });
}

impl ForceEngine {
    /// EAM phases 1–2 (the paper's §II.D kernel): densities and embedding
    /// derivatives. Split from [`ForceEngine::eam_force_phase`] so a
    /// halo-exchange driver can ship ghost `F'(ρ)` values in between.
    ///
    /// [`ForceEngine::compute`] resolves the concrete potential once per
    /// step and monomorphizes this over it, so the pair loops pay no
    /// virtual calls; any other implementor runs the same code with
    /// `P = dyn EamPotential`. φ and f come from one
    /// [`EamPotential::pair_density`] lookup (one segment index into
    /// interleaved coefficients for tabulated potentials).
    ///
    /// Row-owning strategies ([`sdc_core::StrategyKind::owns_rows`]) run
    /// [`density_rows`] over whole task rows: lane blocks across row
    /// boundaries through the batched evaluators (AVX2 when the CPU has it,
    /// a per-lane loop otherwise — same bits either way), and one 16-byte
    /// [`PairRecord`] per stored pair for [`ForceEngine::eam_force_phase`].
    /// The baseline strategies keep a per-pair kernel and no records.
    pub(crate) fn eam_density_phase<P: EamPotential + ?Sized>(
        &mut self,
        system: &mut System,
        pot: &P,
    ) {
        let rc2 = pot.cutoff() * pot.cutoff();
        let strategy = self.strategy();
        // Re-checked every step: a mid-run downgrade can move the engine
        // onto a baseline strategy.
        let owns_rows = strategy.owns_rows();
        let entries = self.neighbor_list().csr().entries();
        // Timers and scratch are detached so `exec` (borrowing `self`) can
        // coexist with both.
        let mut timers = std::mem::take(self.timers_mut());
        let mut scratch = std::mem::take(self.scratch_mut());
        if owns_rows {
            scratch.resize(entries, PairRecord::default());
        } else {
            scratch = Vec::new();
        }
        let quads = AtomicUsize::new(0);
        {
            let exec = self.exec();
            let ctx = self.ctx();
            let half = self.neighbor_list().csr();
            let (sim_box, pos, rho, fp, _forces) = system.eam_split_mut();

            // Phase 1: densities, and the records for phase 3.
            timers.time(Phase::Density, || {
                rho.fill(0.0);
                if owns_rows {
                    let records = SharedSlice::new(&mut scratch);
                    // SAFETY: `run_tasks` gives each task its rows' slots and
                    // footprint to itself.
                    let task = |rows: TaskRows<'_>, rho: &SharedSlice<'_, f64>| unsafe {
                        let q = density_rows(rows, half, sim_box, pos, rc2, pot, rho, &records);
                        quads.fetch_add(q, Ordering::Relaxed);
                    };
                    exec.run_tasks(strategy, rho, &task);
                } else {
                    let kernel = |i: usize, j: usize| {
                        let r2 = sim_box.min_image(pos[i], pos[j]).norm_sq();
                        if r2 >= rc2 {
                            return None;
                        }
                        Some(PairTerm::symmetric(pot.pair_density(r2.sqrt()).2))
                    };
                    exec.run(strategy, rho, &kernel);
                }
            });

            // Phase 2: embedding derivatives (no dependences).
            timers.time(Phase::Embedding, || {
                ctx.install(|| embedding_phase(pot, rho, fp));
            });
        }
        *self.scratch_mut() = scratch;
        *self.timers_mut() = timers;
        // Each task's blocks are full but its last, so this is
        // entries / (4 · Σ_tasks ⌈pairs_t / 4⌉).
        *self.lane_occupancy_mut() = owns_rows.then(|| match quads.into_inner() {
            0 => 1.0,
            q => entries as f64 / (LANES * q) as f64,
        });
    }

    /// EAM phase 3: forces from the `fp` currently in the system (normally
    /// the output of [`ForceEngine::eam_density_phase`], possibly with ghost
    /// entries overwritten by a halo exchange). Row-owning strategies run
    /// [`force_rows`] over whole task rows, reading the φ′/f′ records the
    /// density phase wrote (it must run first on the same neighbor list and
    /// positions — [`ForceEngine::compute`] and the shard driver both
    /// guarantee that); the baseline strategies recompute every pair.
    pub(crate) fn eam_force_phase<P: EamPotential + ?Sized>(
        &mut self,
        system: &mut System,
        pot: &P,
    ) {
        let rc2 = pot.cutoff() * pot.cutoff();
        let strategy = self.strategy();
        let owns_rows = strategy.owns_rows();
        debug_assert!(
            !owns_rows || self.scratch_mut().len() == self.neighbor_list().csr().entries(),
            "force phase without a preceding density phase"
        );
        let mut timers = std::mem::take(self.timers_mut());
        let scratch = std::mem::take(self.scratch_mut());
        {
            let exec = self.exec();
            let half = self.neighbor_list().csr();
            let (sim_box, pos, _rho, fp, forces) = system.eam_split_mut();

            // Phase 3: forces.
            timers.time(Phase::Force, || {
                forces.fill(Vec3::ZERO);
                let fp: &[f64] = fp;
                if owns_rows {
                    let records: &[PairRecord] = &scratch;
                    // SAFETY: `run_tasks` gives each task its footprint to
                    // itself.
                    let task = |rows: TaskRows<'_>, forces: &SharedSlice<'_, Vec3>| unsafe {
                        force_rows(rows, half, sim_box, pos, rc2, fp, records, forces)
                    };
                    exec.run_tasks(strategy, forces, &task);
                } else {
                    let kernel = |i: usize, j: usize| {
                        let d = sim_box.min_image(pos[i], pos[j]);
                        let r2 = d.norm_sq();
                        if r2 >= rc2 {
                            return None;
                        }
                        let r = r2.sqrt();
                        let (_, dphi, _, df) = pot.pair_density(r);
                        let scalar = dphi + (fp[i] + fp[j]) * df;
                        // F_i = −dE/dr · r̂, r̂ = (r_i − r_j)/r; Newton gives −F to j.
                        Some(PairTerm::newton(d * (-scalar / r)))
                    };
                    exec.run(strategy, forces, &kernel);
                }
            });
        }
        *self.scratch_mut() = scratch;
        *self.timers_mut() = timers;
    }
}

/// Total EAM potential energy `Σ_i F(ρ_i) + Σ_pairs φ(r)`, using the
/// densities stored in the system by the last force computation.
pub fn eam_energy(half: &NeighborList, system: &System, pot: &dyn EamPotential) -> f64 {
    let embed: f64 = system.rho().iter().map(|&r| pot.embedding(r).0).sum();
    let rc2 = pot.cutoff() * pot.cutoff();
    let pos = system.positions();
    let sim_box = system.sim_box();
    let mut pair = 0.0;
    for (i, row) in half.csr().iter_rows() {
        for &j in row {
            let r2 = sim_box.distance_sq(pos[i], pos[j as usize]);
            if r2 < rc2 {
                pair += pot.pair(r2.sqrt()).0;
            }
        }
    }
    embed + pair
}

/// Configurational (virial) stress tensor `Σ_pairs d ⊗ f / V`, using the
/// stored embedding derivatives. Its trace/3 is the configurational part of
/// the pressure.
pub fn eam_stress(
    half: &NeighborList,
    system: &System,
    pot: &dyn EamPotential,
) -> crate::stress::StressTensor {
    let rc2 = pot.cutoff() * pot.cutoff();
    let pos = system.positions();
    let fp = system.fp();
    let sim_box = system.sim_box();
    let mut t = crate::stress::StressTensor::zero();
    for (i, row) in half.csr().iter_rows() {
        for &j in row {
            let j = j as usize;
            let d = sim_box.min_image(pos[i], pos[j]);
            let r2 = d.norm_sq();
            if r2 < rc2 {
                let r = r2.sqrt();
                let (_, dphi) = pot.pair(r);
                let (_, df) = pot.density(r);
                let scalar = dphi + (fp[i] + fp[j]) * df;
                // Force on i: f = −(scalar/r)·d; dyadic d ⊗ f.
                t.add_dyadic(d, d * (-scalar / r));
            }
        }
    }
    t.scaled(1.0 / sim_box.volume())
}

/// Pair virial `W = Σ_pairs r⃗·f⃗ = −Σ_pairs (dE/dr)·r`, using the stored
/// embedding derivatives.
///
/// Derived as `tr(σ_config)·V` from [`eam_stress`]: the trace of the dyadic
/// sum `Σ d ⊗ f` is exactly `Σ d·f`. This used to be a third hand-copy of
/// the pair kernel (which had already drifted to `distance_sq` where the
/// stress used `min_image`); sharing the tensor makes drift impossible.
pub fn eam_virial(half: &NeighborList, system: &System, pot: &dyn EamPotential) -> f64 {
    eam_stress(half, system, pot).trace() * system.sim_box().volume()
}

#[cfg(test)]
mod tests {
    use crate::forces::{ForceEngine, PotentialChoice};
    use crate::system::System;
    use crate::units::FE_MASS;
    use md_geometry::{LatticeSpec, Vec3};
    use md_potential::{AnalyticEam, EamPotential, TabulatedEam};
    use sdc_core::StrategyKind;
    use std::sync::Arc;

    fn fe_engine(n: usize, strategy: StrategyKind, threads: usize) -> (System, ForceEngine) {
        let system = System::from_lattice(LatticeSpec::bcc_fe(n), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let eng = ForceEngine::new(&system, pot, strategy, threads, 0.3).unwrap();
        (system, eng)
    }

    /// Perturb the perfect crystal deterministically so forces are non-zero.
    fn rattle(system: &mut System, amplitude: f64) {
        for (k, p) in system.positions_mut().iter_mut().enumerate() {
            let k = k as f64;
            p.x += amplitude * (0.917 * k).sin();
            p.y += amplitude * (1.311 * k).cos();
            p.z += amplitude * (2.113 * k).sin();
        }
        system.wrap();
    }

    /// Tuning probe (not part of the suite): per-phase wall time of the
    /// density and force phases on the benchmark crystal — 32³-cell bcc Fe
    /// (65,536 atoms), tabulated, after 10 velocity-Verlet steps — serial
    /// on 1 thread from 300 K and sdc3d on 2 threads from 3000 K. Prints
    /// the min and median of `PROBE_REPS` reps of each phase, in ns per
    /// atom. Much lower-noise than timing whole runs; run it alternately on
    /// two checkouts to compare kernels, and with `MD_SIMD_SCALAR=1` for the
    /// scalar spline backend:
    /// `cargo test -q -p md-sim --release phase_speed -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn phase_speed_probe() {
        use crate::integrate::velocity_verlet;
        use crate::velocity::init_velocities;
        use std::time::Instant;
        const PROBE_REPS: usize = 15;
        let stats = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            (v[0], v[v.len() / 2])
        };
        let src = AnalyticEam::fe();
        let tab = Arc::new(TabulatedEam::standard(&src, src.rho_e()));
        let simd = md_potential::simd_active();
        for (strategy, threads, kelvin) in [
            (StrategyKind::Serial, 1, 300.0),
            (StrategyKind::Sdc { dims: 3 }, 2, 3000.0),
        ] {
            let mut system = System::from_lattice(LatticeSpec::bcc_fe(32), FE_MASS);
            init_velocities(&mut system, kelvin, 1);
            let pot = PotentialChoice::Eam(tab.clone());
            let mut eng = ForceEngine::new(&system, pot, strategy, threads, 0.3).unwrap();
            eng.compute(&mut system);
            for _ in 0..10 {
                velocity_verlet(&mut system, &mut eng, 1e-3);
            }
            let per_atom = 1e9 / system.len() as f64;
            eng.compute(&mut system); // warm caches + scratch
            let (mut density, mut force) = (Vec::new(), Vec::new());
            for _ in 0..PROBE_REPS {
                let t = Instant::now();
                eng.eam_density_phase(&mut system, &*tab);
                density.push(t.elapsed().as_secs_f64() * per_atom);
                let t = Instant::now();
                eng.eam_force_phase(&mut system, &*tab);
                force.push(t.elapsed().as_secs_f64() * per_atom);
            }
            let both: Vec<f64> = density.iter().zip(&force).map(|(d, f)| d + f).collect();
            let ((dmin, dmed), (fmin, fmed), (bmin, bmed)) =
                (stats(density), stats(force), stats(both));
            eprintln!(
                "{strategy} t={threads} {kelvin} K simd={simd}: ns/atom min/median \
                 density {dmin:.0}/{dmed:.0}  force {fmin:.0}/{fmed:.0}  \
                 density+force {bmin:.0}/{bmed:.0}"
            );
        }
    }

    #[test]
    fn perfect_crystal_has_zero_forces_by_symmetry() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        eng.compute(&mut system);
        for (i, f) in system.forces().iter().enumerate() {
            assert!(f.norm() < 1e-10, "atom {i}: |F| = {}", f.norm());
        }
    }

    #[test]
    fn perfect_crystal_density_equals_shell_sum() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        eng.compute(&mut system);
        let pot = AnalyticEam::fe();
        for (i, &rho) in system.rho().iter().enumerate() {
            assert!(
                (rho - pot.rho_e()).abs() < 1e-9,
                "atom {i}: rho = {rho}, rho_e = {}",
                pot.rho_e()
            );
        }
    }

    #[test]
    fn newtons_third_law_net_force_is_zero() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        rattle(&mut system, 0.08);
        eng.rebuild(&system);
        eng.compute(&mut system);
        let net: Vec3 = system.forces().iter().sum();
        assert!(net.norm() < 1e-9, "net force {net}");
    }

    #[test]
    fn forces_are_minus_gradient_of_energy() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        rattle(&mut system, 0.05);
        eng.rebuild(&system);
        eng.compute(&mut system);
        let f0 = system.forces()[7];
        // Central difference on atom 7, each axis.
        let h = 1e-6;
        for axis in 0..3 {
            let mut plus = system.clone();
            plus.positions_mut()[7][axis] += h;
            plus.wrap();
            let mut eng_p = ForceEngine::new(
                &plus,
                PotentialChoice::Eam(Arc::new(AnalyticEam::fe())),
                StrategyKind::Serial,
                1,
                0.3,
            )
            .unwrap();
            eng_p.compute(&mut plus);
            let ep = eng_p.potential_energy(&plus);

            let mut minus = system.clone();
            minus.positions_mut()[7][axis] -= h;
            minus.wrap();
            let mut eng_m = ForceEngine::new(
                &minus,
                PotentialChoice::Eam(Arc::new(AnalyticEam::fe())),
                StrategyKind::Serial,
                1,
                0.3,
            )
            .unwrap();
            eng_m.compute(&mut minus);
            let em = eng_m.potential_energy(&minus);

            let numeric = -(ep - em) / (2.0 * h);
            assert!(
                (f0[axis] - numeric).abs() < 1e-5 * f0[axis].abs().max(1.0),
                "axis {axis}: analytic {}, numeric {numeric}",
                f0[axis]
            );
        }
    }

    #[test]
    fn all_strategies_compute_identical_physics() {
        let mut reference: Option<(Vec<f64>, Vec<Vec3>)> = None;
        for strategy in [
            StrategyKind::Serial,
            StrategyKind::Sdc { dims: 1 },
            StrategyKind::Sdc { dims: 2 },
            StrategyKind::Sdc { dims: 3 },
            StrategyKind::Critical,
            StrategyKind::Atomic,
            StrategyKind::Locks,
            StrategyKind::LocalWrite,
            StrategyKind::Privatized,
            StrategyKind::Redundant,
        ] {
            let (mut system, mut eng) = fe_engine(9, strategy, 3);
            rattle(&mut system, 0.05);
            eng.rebuild(&system);
            eng.compute(&mut system);
            let rho = system.rho().to_vec();
            let forces = system.forces().to_vec();
            match &reference {
                None => reference = Some((rho, forces)),
                Some((rho_ref, f_ref)) => {
                    for (k, (a, b)) in rho_ref.iter().zip(&rho).enumerate() {
                        assert!(
                            (a - b).abs() < 1e-10 * a.abs().max(1.0),
                            "{strategy}: rho[{k}] {a} vs {b}"
                        );
                    }
                    for (k, (a, b)) in f_ref.iter().zip(&forces).enumerate() {
                        assert!(
                            (*a - *b).norm() < 1e-9,
                            "{strategy}: force[{k}] {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tabulated_eam_matches_analytic_closely() {
        let src = AnalyticEam::fe();
        let tab = TabulatedEam::standard(&src, src.rho_e());
        let mut sys_a = System::from_lattice(LatticeSpec::bcc_fe(5), FE_MASS);
        rattle(&mut sys_a, 0.05);
        let mut sys_t = sys_a.clone();
        let mut eng_a = ForceEngine::new(
            &sys_a,
            PotentialChoice::Eam(Arc::new(src)),
            StrategyKind::Serial,
            1,
            0.3,
        )
        .unwrap();
        let mut eng_t = ForceEngine::new(
            &sys_t,
            PotentialChoice::Eam(Arc::new(tab)),
            StrategyKind::Serial,
            1,
            0.3,
        )
        .unwrap();
        eng_a.compute(&mut sys_a);
        eng_t.compute(&mut sys_t);
        for (a, t) in sys_a.forces().iter().zip(sys_t.forces()) {
            assert!((*a - *t).norm() < 1e-3, "forces diverge: {a} vs {t}");
        }
        let ea = eng_a.potential_energy(&sys_a);
        let et = eng_t.potential_energy(&sys_t);
        assert!((ea - et).abs() / ea.abs() < 1e-5, "energy {ea} vs {et}");
    }

    #[test]
    fn cohesive_energy_per_atom_is_negative() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        eng.compute(&mut system);
        let e = eng.potential_energy(&system) / system.len() as f64;
        assert!(e < -1.0, "cohesive energy {e} eV/atom");
    }

    #[test]
    fn compressed_crystal_has_positive_pressure() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        system.deform(Vec3::splat(0.97));
        eng.rebuild(&system);
        eng.compute(&mut system);
        let p = eng.pressure(&system);
        let (mut relaxed, mut eng2) = fe_engine(5, StrategyKind::Serial, 1);
        eng2.compute(&mut relaxed);
        let p0 = eng2.pressure(&relaxed);
        assert!(
            p > p0,
            "compression must raise pressure: {p} vs {p0} (eV/Å³)"
        );
    }

    #[test]
    fn pressure_tensor_trace_matches_scalar_pressure() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        rattle(&mut system, 0.05);
        eng.rebuild(&system);
        eng.compute(&mut system);
        let t = eng.pressure_tensor(&system);
        assert!(
            (t.pressure() - eng.pressure(&system)).abs() < 1e-10,
            "trace/3 = {}, pressure = {}",
            t.pressure(),
            eng.pressure(&system)
        );
    }

    #[test]
    fn unstrained_crystal_stress_is_isotropic() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        eng.compute(&mut system);
        let t = eng.pressure_tensor(&system);
        let [xx, yy, zz, xy, xz, yz] = t.components;
        assert!((xx - yy).abs() < 1e-9 && (yy - zz).abs() < 1e-9);
        assert!(xy.abs() < 1e-9 && xz.abs() < 1e-9 && yz.abs() < 1e-9);
        assert!(t.von_mises() < 1e-8);
    }

    #[test]
    fn uniaxial_strain_breaks_stress_isotropy() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        system.deform(Vec3::new(1.02, 1.0, 1.0));
        eng.rebuild(&system);
        eng.compute(&mut system);
        let t = eng.pressure_tensor(&system);
        let [xx, yy, zz, ..] = t.components;
        // Stretch along x: the x-diagonal must respond differently from y/z,
        // which stay equal by symmetry.
        assert!((yy - zz).abs() < 1e-9, "transverse symmetry");
        assert!((xx - yy).abs() > 1e-4, "xx = {xx}, yy = {yy}");
        assert!(t.von_mises() > 1e-4);
    }

    /// An implementor the engine cannot downcast: every method forwards to
    /// [`AnalyticEam`], but `as_analytic`/`as_tabulated` keep their `None`
    /// defaults.
    struct Opaque(AnalyticEam);

    impl EamPotential for Opaque {
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
        fn pair_density(&self, r: f64) -> (f64, f64, f64, f64) {
            self.0.pair_density(r)
        }
        fn pair_density_batch(&self, r: &[f64], out: &mut [[f64; 4]]) {
            self.0.pair_density_batch(r, out)
        }
        fn embedding_deriv_batch(&self, rho: &[f64], fp: &mut [f64]) {
            self.0.embedding_deriv_batch(rho, fp)
        }
        fn max_density(&self) -> Option<f64> {
            self.0.max_density()
        }
    }

    #[test]
    fn unknown_implementors_run_the_same_row_kernels() {
        for strategy in [StrategyKind::Serial, StrategyKind::Sdc { dims: 3 }] {
            let (mut sys_a, mut eng_a) = fe_engine(9, strategy, 2);
            rattle(&mut sys_a, 0.05);
            let mut sys_o = sys_a.clone();
            let opaque = PotentialChoice::Eam(Arc::new(Opaque(AnalyticEam::fe())));
            let mut eng_o = ForceEngine::new(&sys_o, opaque, strategy, 2, 0.3).unwrap();
            eng_a.rebuild(&sys_a);
            eng_o.rebuild(&sys_o);
            eng_a.compute(&mut sys_a);
            eng_o.compute(&mut sys_o);
            assert!(
                eng_o.lane_occupancy().is_some_and(|o| o > 0.5 && o <= 1.0),
                "{strategy}: the dyn-dispatched engine must run the row kernel"
            );
            assert_eq!(sys_o.rho(), sys_a.rho(), "{strategy}: rho");
            assert_eq!(sys_o.fp(), sys_a.fp(), "{strategy}: fp");
            assert_eq!(sys_o.forces(), sys_a.forces(), "{strategy}: forces");
        }
    }

    #[test]
    fn pair_records_are_16_bytes_one_per_stored_pair_on_row_owning_sweeps() {
        assert_eq!(std::mem::size_of::<super::PairRecord>(), 16);
        for strategy in StrategyKind::all() {
            let (mut system, mut eng) = fe_engine(9, strategy, 2);
            rattle(&mut system, 0.05);
            eng.rebuild(&system);
            eng.compute(&mut system);
            let records = eng.scratch_mut().len();
            if strategy.owns_rows() {
                let entries = eng.neighbor_list().csr().entries();
                assert_eq!(records, entries, "{strategy}: one record per stored pair");
                let occupancy = eng.lane_occupancy().expect("the row kernel ran");
                assert!(
                    occupancy > 0.5 && occupancy <= 1.0,
                    "{strategy}: {occupancy}"
                );
            } else {
                assert_eq!(
                    eng.scratch_mut().capacity(),
                    0,
                    "{strategy} keeps no records"
                );
                assert_eq!(eng.lane_occupancy(), None, "{strategy}");
            }
            // A rebuild on moved atoms changes the entry count; the scratch
            // follows it on the next density pass.
            rattle(&mut system, 0.2);
            eng.rebuild(&system);
            assert_eq!(
                eng.lane_occupancy(),
                None,
                "{strategy}: stale after a rebuild"
            );
            eng.compute(&mut system);
            if strategy.owns_rows() {
                assert_eq!(eng.scratch_mut().len(), eng.neighbor_list().csr().entries());
            }
        }
    }

    #[test]
    fn virial_equals_stress_trace_times_volume() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        rattle(&mut system, 0.05);
        eng.rebuild(&system);
        eng.compute(&mut system);
        let pot = AnalyticEam::fe();
        let w = super::eam_virial(eng.neighbor_list(), &system, &pot);
        // Independent oracle: the scalar sum −Σ (dE/dr)·r coded directly,
        // as eam_virial used to be implemented.
        let rc2 = pot.cutoff() * pot.cutoff();
        let (pos, fp, sim_box) = (system.positions(), system.fp(), system.sim_box());
        let mut expect = 0.0;
        for (i, row) in eng.neighbor_list().csr().iter_rows() {
            for &j in row {
                let j = j as usize;
                let r2 = sim_box.distance_sq(pos[i], pos[j]);
                if r2 < rc2 {
                    let r = r2.sqrt();
                    let (_, dphi) = pot.pair(r);
                    let (_, df) = pot.density(r);
                    expect -= (dphi + (fp[i] + fp[j]) * df) * r;
                }
            }
        }
        assert!(
            (w - expect).abs() <= 1e-12 * expect.abs().max(1.0),
            "tr(σ)·V = {w}, direct sum = {expect}"
        );
    }

    #[test]
    fn timers_charge_density_and_force_phases() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        eng.compute(&mut system);
        eng.compute(&mut system);
        use crate::timing::Phase;
        assert_eq!(eng.timers().count(Phase::Density), 2);
        assert_eq!(eng.timers().count(Phase::Embedding), 2);
        assert_eq!(eng.timers().count(Phase::Force), 2);
        assert!(eng.timers().paper_time() > std::time::Duration::ZERO);
    }
}
