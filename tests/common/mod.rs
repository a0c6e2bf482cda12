//! Helpers shared by the EAM conformance batteries: the rattled crystal and
//! the bit-for-bit oracle of the engine's EAM kernels.

use sdc_md::core::PairTerm;
use sdc_md::prelude::*;

/// Perturb the perfect crystal deterministically so forces are non-zero.
pub fn rattle(system: &mut System, amplitude: f64) {
    for (k, p) in system.positions_mut().iter_mut().enumerate() {
        let k = k as f64;
        p.x += amplitude * (0.917 * k).sin();
        p.y += amplitude * (1.311 * k).cos();
        p.z += amplitude * (2.113 * k).sin();
    }
    system.wrap();
}

/// The oracle the engine's EAM kernels must match bit for bit: rho, F′(ρ)
/// and forces at `system`'s current positions, from per-pair kernels that
/// call the potential's separate `density`, `pair` and `embedding` through
/// `dyn` — no pair records, no lane blocks, no fused lookups.
///
/// The sweeps are [`ScatterExec::run`] under `engine`'s strategy, over its
/// own half list and plan. A row-owning strategy fixes the order in which
/// contributions reach each atom — rows in order for Serial, colour by
/// colour for SDC and the task graph alike — so this replays the engine's
/// summation order, and equality can be exact. A `TaskGraph { dims }`
/// engine is replayed by the barriered `Sdc { dims }` sweep of the same
/// plan, which holds the graph to barriered SDC's bits.
///
/// # Panics
/// Panics unless the engine's strategy owns rows (Serial, SDC, task
/// graph); the baseline strategies add in scheduling order.
pub fn reference_eam(
    system: &System,
    engine: &ForceEngine,
    pot: &dyn EamPotential,
) -> (Vec<f64>, Vec<f64>, Vec<Vec3>) {
    let strategy = match engine.strategy() {
        StrategyKind::TaskGraph { dims } => StrategyKind::Sdc { dims },
        other => other,
    };
    assert!(
        strategy.owns_rows(),
        "{strategy}: no fixed summation order to replay"
    );
    let ctx = ParallelContext::new(engine.threads());
    let exec = ScatterExec {
        ctx: &ctx,
        half: engine.neighbor_list().csr(),
        full: None,
        plan: engine.plan(),
        localwrite: None,
        metrics: None,
        sap: None,
        taskgraph: None,
    };
    let rc2 = pot.cutoff() * pot.cutoff();
    let (sim_box, pos) = (system.sim_box(), system.positions());

    let mut rho = vec![0.0; system.len()];
    exec.run(strategy, &mut rho, &|i, j| {
        let d = sim_box.min_image(pos[i], pos[j]);
        let r2 = d.norm_sq();
        if r2 >= rc2 {
            return None;
        }
        Some(PairTerm::symmetric(pot.density(r2.sqrt()).0))
    });
    let fp: Vec<f64> = rho.iter().map(|&r| pot.embedding(r).1).collect();
    let mut forces = vec![Vec3::ZERO; system.len()];
    exec.run(strategy, &mut forces, &|i, j| {
        let d = sim_box.min_image(pos[i], pos[j]);
        let r2 = d.norm_sq();
        if r2 >= rc2 {
            return None;
        }
        let r = r2.sqrt();
        let (_, dphi) = pot.pair(r);
        let (_, df) = pot.density(r);
        let scalar = dphi + (fp[i] + fp[j]) * df;
        // F_i = −dE/dr · r̂, r̂ = (r_i − r_j)/r; Newton gives −F to j.
        Some(PairTerm::newton(d * (-scalar / r)))
    });
    (rho, fp, forces)
}
