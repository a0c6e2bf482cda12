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
use lanes::{masked, Geometry, PairLanes, Scalar, LANES};
use md_base::pool::{self, SharedSlice};
use md_geometry::Vec3;
use md_neighbor::{Csr, NeighborList};
use md_potential::EamPotential;
use sdc_core::{PairTerm, TaskRows};
use std::sync::atomic::{AtomicUsize, Ordering};

mod lanes;

/// What the density sweep keeps of one stored half-list pair for the force
/// sweep, addressed by the pair's slot (its CSR storage index
/// `half.window(i).start + k`, so the records follow the list's layout):
/// the radial derivatives φ′(r) and f′(r). Those are the costly part of
/// phase 3 — a spline lookup each — so phase 1 evaluates them together
/// with f(r) (the paper's §II.D interpolation optimization); the
/// displacement and separation are cheaper to recompute from the positions
/// than to store and reload. A skin pair's record is
/// unspecified: the force lanes mask the pair's terms to zero.
/// `repr(C)`: the AVX2 force lanes load records as `[φ′, f′]` pairs.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
pub(crate) struct PairRecord {
    dphi: f64,
    df: f64,
}

/// Chunk size of the batched evaluators: the density kernel hands a row's
/// separations to [`EamPotential::pair_density_batch`] in chunks of at most
/// this many (a longer row is split, its `rho[i]` carried across), and
/// phase 2 evaluates `F′` in blocks of this many. A multiple of [`LANES`],
/// large enough to amortize the call.
const CHUNK: usize = 64;

/// Phase 1 for one task of a row-owning sweep
/// ([`sdc_core::ScatterExec::run_tasks`]), on the lane leg
/// [`md_potential::simd_active`] picks: AVX2 or [`Scalar`], both through
/// [`density_rows_in`]. Returns the number of [`LANES`]-wide steps it ran.
///
/// # Safety
/// While this runs, no other thread may access `records` at the slots of
/// `rows`, nor `rho` at `rows` or at their stored neighbors — what
/// `run_tasks` guarantees each task.
unsafe fn density_rows<P: EamPotential + ?Sized>(
    rows: TaskRows<'_>,
    half: &Csr,
    geo: &Geometry<'_>,
    pot: &P,
    rho: &SharedSlice<'_, f64>,
    records: &SharedSlice<'_, PairRecord>,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if md_potential::simd_active() {
        // SAFETY: `simd_active` found AVX2; the rest is the caller's.
        return unsafe { density_rows_avx2(rows, half, geo, pot, rho, records) };
    }
    // SAFETY: the caller's contract.
    unsafe { density_rows_in(Scalar, rows, half, geo, pot, rho, records) }
}

/// [`density_rows_in`] compiled for AVX2, on the [`lanes::Avx2`] leg.
///
/// # Safety
/// As for [`density_rows`], on a CPU with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn density_rows_avx2<P: EamPotential + ?Sized>(
    rows: TaskRows<'_>,
    half: &Csr,
    geo: &Geometry<'_>,
    pot: &P,
    rho: &SharedSlice<'_, f64>,
    records: &SharedSlice<'_, PairRecord>,
) -> usize {
    // SAFETY: the caller's contract, AVX2 included.
    unsafe { density_rows_in(lanes::Avx2, rows, half, geo, pot, rho, records) }
}

/// The density row kernel: walks the task's rows and each row's stored
/// pairs in chunks of up to [`CHUNK`], [`LANES`] at a time through `lanes`
/// (the separation `r`, or the −1 sentinel on a skin lane, and the lane's
/// cutoff mask), hands each chunk's `r` to
/// [`EamPotential::pair_density_batch`], writes one [`PairRecord`] per
/// slot and adds `f` to `rho[i]` and `rho[j]` in pair order.
///
/// A skin lane adds its `f` ANDed with its zero mask: exactly `+0.0`,
/// whatever the splines gave at the sentinel, so the sum needs no branch.
/// Adding `+0.0` changes no bit of an accumulator that does not hold
/// `−0.0`, and none does: `rho` is zero-filled (`+0.0`) before the sweep,
/// and a round-to-nearest sum is `−0.0` only when both addends are. The
/// force kernel relies on the same argument.
///
/// # Safety
/// As for [`density_rows`]; an [`lanes::Avx2`] leg needs AVX2.
#[inline(always)]
unsafe fn density_rows_in<L: PairLanes, P: EamPotential + ?Sized>(
    lanes: L,
    rows: TaskRows<'_>,
    half: &Csr,
    geo: &Geometry<'_>,
    pot: &P,
    rho: &SharedSlice<'_, f64>,
    records: &SharedSlice<'_, PairRecord>,
) -> usize {
    let indices = half.indices();
    let pos = geo.pos();
    let mut r = [[0.0; LANES]; CHUNK / LANES];
    let mut live = [[0u64; LANES]; CHUNK / LANES];
    let mut out = [[0.0; 4]; CHUNK];
    let mut steps = 0;
    for i in rows {
        let slots = half.window(i);
        let (lo, hi) = (slots.start, slots.end);
        let pi = pos[i];
        // `rho[i]` stays in a register for the whole row: a half list
        // stores only `j > i`, so no pair of row `i` writes `rho[i]`
        // through its `j` side, and no other task touches it while this
        // one owns row `i`.
        // SAFETY (all four blocks): the row's slots, `rho[i]` and `rho[j]`
        // are this task's own (the caller's contract).
        let mut acc = unsafe { *rho.get_mut(i) };
        for (c, ids) in (lo..hi).step_by(CHUNK).zip(indices[lo..hi].chunks(CHUNK)) {
            let n = ids.len();
            for ((ids, r), live) in ids.chunks(LANES).zip(&mut r).zip(&mut live) {
                // SAFETY: one to LANES ids; AVX2 is the caller's.
                unsafe { lanes.separations(geo, pi, ids, r, live) };
            }
            steps += n.div_ceil(LANES);
            pot.pair_density_batch(&r.as_flattened()[..n], &mut out[..n]);
            let recs = unsafe { records.slice_mut(c, c + n) };
            let evaluated = out.iter().zip(live.as_flattened());
            for ((&j, rec), (&[_, dphi, f, df], &mask)) in ids.iter().zip(recs).zip(evaluated) {
                *rec = PairRecord { dphi, df };
                let f = masked(f, mask);
                acc += f;
                unsafe { *rho.get_mut(j as usize) += f };
            }
        }
        unsafe { *rho.get_mut(i) = acc };
    }
    steps
}

/// Phase 3 for one task of a row-owning sweep, on the lane leg
/// [`md_potential::simd_active`] picks, through [`force_rows_in`].
///
/// # Safety
/// While this runs, no other thread may access `forces` at `rows` or at
/// their stored neighbors — what `run_tasks` guarantees each task.
unsafe fn force_rows(
    rows: TaskRows<'_>,
    half: &Csr,
    geo: &Geometry<'_>,
    fp: &[f64],
    records: &[PairRecord],
    forces: &SharedSlice<'_, Vec3>,
) {
    #[cfg(target_arch = "x86_64")]
    if md_potential::simd_active() {
        // SAFETY: `simd_active` found AVX2; the rest is the caller's.
        return unsafe { force_rows_avx2(rows, half, geo, fp, records, forces) };
    }
    // SAFETY: the caller's contract.
    unsafe { force_rows_in(Scalar, rows, half, geo, fp, records, forces) }
}

/// [`force_rows_in`] compiled for AVX2, on the [`lanes::Avx2`] leg.
///
/// # Safety
/// As for [`force_rows`], on a CPU with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn force_rows_avx2(
    rows: TaskRows<'_>,
    half: &Csr,
    geo: &Geometry<'_>,
    fp: &[f64],
    records: &[PairRecord],
    forces: &SharedSlice<'_, Vec3>,
) {
    // SAFETY: the caller's contract, AVX2 included.
    unsafe { force_rows_in(lanes::Avx2, rows, half, geo, fp, records, forces) }
}

/// The force row kernel: walks the task's rows and each row's stored pairs
/// [`LANES`] at a time through `lanes`, which recompute `d`, `r²` and `r`
/// with the density lanes' operations (so both sweeps agree on every skip),
/// gather `F′(ρ_j)`, read φ′ and f′ from the pairs' records and form
/// `d·(−s/r)` with `s = φ′ + (F′(ρ_i) + F′(ρ_j))·f′`, exactly `+0.0` on a
/// skin lane. The terms are scattered as `forces[i] += t`,
/// `forces[j] += −t` in pair order, with `forces[i]` in a register for the
/// whole row as `rho[i]` is in [`density_rows_in`] — and, as there, a skin
/// lane's `+0.0` (and `−0.0` on the `j` side) changes no bit, since
/// `forces` is zero-filled before the sweep.
///
/// # Safety
/// As for [`force_rows`]; an [`lanes::Avx2`] leg needs AVX2.
#[inline(always)]
unsafe fn force_rows_in<L: PairLanes>(
    lanes: L,
    rows: TaskRows<'_>,
    half: &Csr,
    geo: &Geometry<'_>,
    fp: &[f64],
    records: &[PairRecord],
    forces: &SharedSlice<'_, Vec3>,
) {
    let indices = half.indices();
    let pos = geo.pos();
    assert_eq!(fp.len(), pos.len(), "one F′ per atom");
    let mut t = [[0.0; LANES]; 3];
    for i in rows {
        let slots = half.window(i);
        let (lo, hi) = (slots.start, slots.end);
        let (pi, fpi) = (pos[i], fp[i]);
        // SAFETY (all three blocks): `forces` at `i` and at its neighbors
        // is this task's own (the caller's contract).
        let mut acc = unsafe { *forces.get_mut(i) };
        for (ids, recs) in indices[lo..hi]
            .chunks(LANES)
            .zip(records[lo..hi].chunks(LANES))
        {
            // SAFETY: one to LANES ids, one record each, `fp` per atom
            // (asserted); AVX2 is the caller's.
            unsafe { lanes.forces(geo, pi, fpi, fp, ids, recs, &mut t) };
            for (l, &j) in ids.iter().enumerate() {
                let f = Vec3::new(t[0][l], t[1][l], t[2][l]);
                acc += f;
                unsafe { *forces.get_mut(j as usize) += -f };
            }
        }
        unsafe { *forces.get_mut(i) = acc };
    }
}

/// EAM phase 2 on the current pool: `fp[i] = F'(rho[i])` in contiguous
/// [`CHUNK`]-wide lane-batched blocks. Blocks are disjoint and the
/// batched evaluator is bit-exact against the scalar one, so neither the
/// split nor the thread count can be observed in `fp`.
fn embedding_phase<P: EamPotential + ?Sized>(pot: &P, rho: &[f64], fp: &mut [f64]) {
    pool::for_each_chunk_mut(fp, CHUNK, |b, fp| {
        pot.embedding_deriv_batch(&rho[b * CHUNK..][..fp.len()], fp);
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
    /// [`density_rows`] over whole task rows: pair geometry in lanes and
    /// each row chunk through the batched evaluators (AVX2 when the CPU has
    /// it, per-pair scalar code otherwise — same bits either way), and one
    /// 16-byte [`PairRecord`] per stored pair for
    /// [`ForceEngine::eam_force_phase`]. The baseline strategies keep a
    /// per-pair kernel and no records.
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
        let steps = AtomicUsize::new(0);
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
                    let geo = Geometry::new(sim_box, pos, rc2);
                    // SAFETY: `run_tasks` gives each task its rows' slots and
                    // footprint to itself.
                    let task = |rows: TaskRows<'_>, rho: &SharedSlice<'_, f64>| unsafe {
                        let n = density_rows(rows, half, &geo, pot, rho, &records);
                        steps.fetch_add(n, Ordering::Relaxed);
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
        // Each row chunk's lane steps are full but its last, so this is
        // entries / (4 · Σ_chunks ⌈pairs_c / 4⌉).
        *self.lane_occupancy_mut() = owns_rows.then(|| match steps.into_inner() {
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
                    let geo = Geometry::new(sim_box, pos, rc2);
                    // SAFETY: `run_tasks` gives each task its footprint to
                    // itself.
                    let task = |rows: TaskRows<'_>, forces: &SharedSlice<'_, Vec3>| unsafe {
                        force_rows(rows, half, &geo, fp, records, forces)
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

    /// The benchmark's two engine set-ups: serial on 1 thread from 300 K,
    /// sdc3d on 2 threads from 3000 K.
    const PROBE_CASES: [(StrategyKind, usize, f64); 2] = [
        (StrategyKind::Serial, 1, 300.0),
        (StrategyKind::Sdc { dims: 3 }, 2, 3000.0),
    ];

    /// Equal work: serial and sdc3d, each on one thread, on the 3000 K
    /// crystal, so the task sweep's per-thread cost shows next to serial's
    /// on the same atoms (the benchmark's pair differs in temperature and
    /// threads both).
    const EQUAL_WORK_CASES: [(StrategyKind, usize, f64); 2] = [
        (StrategyKind::Serial, 1, 3000.0),
        (StrategyKind::Sdc { dims: 3 }, 1, 3000.0),
    ];

    /// Min, first quartile and median of a probe's samples.
    fn min_p25_median(mut v: Vec<f64>) -> [f64; 3] {
        v.sort_by(f64::total_cmp);
        [v[0], v[v.len() / 4], v[v.len() / 2]]
    }

    /// The probes' crystal: `cells`³-cell bcc Fe, tabulated, velocities
    /// from `kelvin`, after 10 velocity-Verlet steps on the given engine.
    fn probe_crystal(
        cells: usize,
        strategy: StrategyKind,
        threads: usize,
        kelvin: f64,
    ) -> (System, ForceEngine, Arc<TabulatedEam>) {
        use crate::integrate::velocity_verlet;
        use crate::velocity::init_velocities;
        let src = AnalyticEam::fe();
        let tab = Arc::new(TabulatedEam::standard(&src, src.rho_e()));
        let mut system = System::from_lattice(LatticeSpec::bcc_fe(cells), FE_MASS);
        init_velocities(&mut system, kelvin, 1);
        let pot = PotentialChoice::Eam(tab.clone());
        let mut eng = ForceEngine::new(&system, pot, strategy, threads, 0.3).unwrap();
        eng.compute(&mut system);
        for _ in 0..10 {
            velocity_verlet(&mut system, &mut eng, 1e-3);
        }
        (system, eng, tab)
    }

    /// Tuning probe (not part of the suite): per-phase wall time of the
    /// density and force phases on the benchmark crystal (32³ cells, 65,536
    /// atoms) in the [`PROBE_CASES`] and the [`EQUAL_WORK_CASES`]. The
    /// cases take turns over `ROUNDS` rounds of `REPS` reps each, so host
    /// drift hits them alike; prints the min, first quartile and median of
    /// each phase, in ns per atom. Much lower-noise than timing whole runs;
    /// run it alternately on two checkouts to compare kernels, and with
    /// `MD_SIMD_SCALAR=1` for the scalar spline backend:
    /// `cargo test -q -p md-sim --release phase_speed -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn phase_speed_probe() {
        use std::time::Instant;
        const ROUNDS: usize = 8;
        const REPS: usize = 5;
        let simd = md_potential::simd_active();
        let mut cases: Vec<_> = PROBE_CASES
            .iter()
            .chain(&EQUAL_WORK_CASES)
            .map(|&(strategy, threads, kelvin)| {
                let (mut system, mut eng, tab) = probe_crystal(32, strategy, threads, kelvin);
                eng.compute(&mut system); // warm caches + scratch
                (system, eng, tab, Vec::new(), Vec::new())
            })
            .collect();
        for _ in 0..ROUNDS {
            for (system, eng, tab, density, force) in &mut cases {
                let per_atom = 1e9 / system.len() as f64;
                for _ in 0..REPS {
                    let t = Instant::now();
                    eng.eam_density_phase(system, &**tab);
                    density.push(t.elapsed().as_secs_f64() * per_atom);
                    let t = Instant::now();
                    eng.eam_force_phase(system, &**tab);
                    force.push(t.elapsed().as_secs_f64() * per_atom);
                }
            }
        }
        let cases = PROBE_CASES.iter().chain(&EQUAL_WORK_CASES).zip(cases);
        for (&(strategy, threads, kelvin), (.., density, force)) in cases {
            let both: Vec<f64> = density.iter().zip(&force).map(|(d, f)| d + f).collect();
            let [d, f, b] = [density, force, both].map(min_p25_median);
            eprintln!(
                "{strategy} t={threads} {kelvin} K simd={simd}: ns/atom min/p25/median \
                 density {:.0}/{:.0}/{:.0}  force {:.0}/{:.0}/{:.0}  \
                 density+force {:.0}/{:.0}/{:.0}",
                d[0], d[1], d[2], f[0], f[1], f[2], b[0], b[1], b[2]
            );
        }
    }

    /// Tuning probe (not part of the suite): wall time of a whole
    /// [`ForceEngine::rebuild`] on the benchmark crystal in both
    /// [`PROBE_CASES`], and of `NeighborList::build` alone on the 3000 K
    /// crystal at 12³, 18³ and 32³ cells on 1 and 2 threads. Prints the
    /// min, first quartile and median of `PROBE_REPS` reps, in ms:
    /// `cargo test -q -p md-sim --release rebuild_speed -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn rebuild_speed_probe() {
        use md_base::pool::Pool;
        use md_neighbor::NeighborList;
        use std::hint::black_box;
        use std::time::Instant;
        const PROBE_REPS: usize = 11;
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        for (strategy, threads, kelvin) in PROBE_CASES {
            let (system, mut eng, _) = probe_crystal(32, strategy, threads, kelvin);
            let reps = (0..PROBE_REPS)
                .map(|_| {
                    let t = Instant::now();
                    eng.rebuild(&system);
                    ms(t)
                })
                .collect();
            let [min, p25, med] = min_p25_median(reps);
            eprintln!("ForceEngine::rebuild {strategy} t={threads} {kelvin} K: ms min/p25/median {min:.1}/{p25:.1}/{med:.1}");
        }
        for cells in [12, 18, 32] {
            let (system, eng, _) = probe_crystal(cells, StrategyKind::Serial, 1, 3000.0);
            let verlet = eng.neighbor_list().config();
            for threads in [1, 2] {
                let pool = Pool::new(threads);
                let reps = (0..PROBE_REPS)
                    .map(|_| {
                        let t = Instant::now();
                        black_box(pool.install(|| {
                            NeighborList::build(system.sim_box(), system.positions(), verlet)
                        }));
                        ms(t)
                    })
                    .collect();
                let [min, p25, med] = min_p25_median(reps);
                eprintln!(
                    "NeighborList::build bcc_fe({cells}) = {} atoms t={threads}: ms min/p25/median {min:.1}/{p25:.1}/{med:.1}",
                    system.len()
                );
            }
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
