//! Numerical-gradient force consistency and conformance to the oracle.
//!
//! The net that catches sign/factor bugs in the EAM kernels: analytic
//! forces must equal the negative central-difference gradient of
//! `eam_energy`, per atom, for both potential backends, under Serial and
//! SDC. A second suite pins the engine to the per-pair oracle of
//! `common::reference_eam` on a rattled 8k-atom crystal — bitwise under
//! Serial, and every strategy agrees with it to 1e-10.

mod common;

use common::{rattle, reference_eam};
use sdc_md::prelude::*;
use sdc_md::sim::units::FE_MASS;
use std::sync::Arc;

fn analytic() -> PotentialChoice {
    PotentialChoice::Eam(Arc::new(AnalyticEam::fe()))
}

fn tabulated() -> PotentialChoice {
    let src = AnalyticEam::fe();
    PotentialChoice::Eam(Arc::new(TabulatedEam::standard(&src, src.rho_e())))
}

/// Central-difference check of `-dE/dx` against the analytic forces on a
/// deterministic subsample of atoms. `h = 1e-5` Å balances truncation
/// (O(h²) ≈ 1e-10) against f64 cancellation in the total energy
/// (|E|·ε/2h ≈ 4e-8 for the larger lattice), and stays far below the
/// half-skin rebuild threshold, so one engine and one neighbor list serve
/// every displacement.
fn check_force_consistency(
    label: &str,
    pot: PotentialChoice,
    strategy: StrategyKind,
    threads: usize,
    cells: usize,
) {
    let mut system = System::from_lattice(LatticeSpec::bcc_fe(cells), FE_MASS);
    rattle(&mut system, 0.05);
    let mut eng = ForceEngine::new(&system, pot, strategy, threads, 0.3).unwrap();
    eng.compute(&mut system);
    let forces: Vec<Vec3> = system.forces().to_vec();
    let h = 1e-5;
    let stride = (system.len() / 7).max(1);
    for atom in (0..system.len()).step_by(stride) {
        for axis in 0..3 {
            let orig = system.positions()[atom];
            system.positions_mut()[atom][axis] = orig[axis] + h;
            eng.compute(&mut system);
            let ep = eng.potential_energy(&system);
            system.positions_mut()[atom][axis] = orig[axis] - h;
            eng.compute(&mut system);
            let em = eng.potential_energy(&system);
            system.positions_mut()[atom] = orig;
            let numeric = -(ep - em) / (2.0 * h);
            let f = forces[atom][axis];
            assert!(
                (f - numeric).abs() <= 1e-6 * f.abs().max(1.0),
                "{label}: atom {atom} axis {axis}: analytic {f}, numeric {numeric}"
            );
        }
    }
}

#[test]
fn forces_match_numerical_gradient_serial() {
    for (pot_name, pot) in [("analytic", analytic()), ("tabulated", tabulated())] {
        check_force_consistency(
            &format!("{pot_name}/serial"),
            pot,
            StrategyKind::Serial,
            1,
            5,
        );
    }
}

#[test]
fn forces_match_numerical_gradient_sdc() {
    for (pot_name, pot) in [("analytic", analytic()), ("tabulated", tabulated())] {
        check_force_consistency(
            &format!("{pot_name}/sdc2d"),
            pot,
            StrategyKind::Sdc { dims: 2 },
            2,
            9,
        );
    }
}

#[test]
fn fused_path_matches_reference_on_8k_atom_crystal_under_every_strategy() {
    for (pot_name, pot) in [("analytic", analytic()), ("tabulated", tabulated())] {
        let PotentialChoice::Eam(eam) = &pot else {
            unreachable!()
        };
        // 2·16³ = 8192 atoms, rattled off the lattice.
        let mut base = System::from_lattice(LatticeSpec::bcc_fe(16), FE_MASS);
        rattle(&mut base, 0.05);
        // The oracle under Serial; its energy is `eam_energy` over the
        // oracle's densities.
        let eng_ref = ForceEngine::new(&base, pot.clone(), StrategyKind::Serial, 1, 0.3).unwrap();
        let (rho_ref, _, f_ref) = reference_eam(&base, &eng_ref, eam.as_ref());
        let mut sys_ref = base.clone();
        sys_ref.rho_mut().copy_from_slice(&rho_ref);
        let e_ref = eng_ref.potential_energy(&sys_ref);
        for strategy in StrategyKind::all() {
            let mut sys = base.clone();
            let mut eng = ForceEngine::new(&sys, pot.clone(), strategy, 3, 0.3).unwrap();
            eng.compute(&mut sys);
            for (k, (a, b)) in f_ref.iter().zip(sys.forces()).enumerate() {
                assert!(
                    (*a - *b).norm() < 1e-10,
                    "{pot_name}/{strategy}: force[{k}] {a} vs {b}"
                );
            }
            let e = eng.potential_energy(&sys);
            assert!(
                (e - e_ref).abs() <= 1e-12 * e_ref.abs(),
                "{pot_name}/{strategy}: energy {e} vs oracle {e_ref}"
            );
            if strategy == StrategyKind::Serial {
                assert_eq!(
                    sys.forces(),
                    &f_ref[..],
                    "{pot_name}: Serial forces bitwise"
                );
                assert_eq!(sys.rho(), &rho_ref[..], "{pot_name}: densities bitwise");
                assert_eq!(e, e_ref, "{pot_name}: energy bitwise");
            }
        }
    }
}

#[test]
fn out_of_table_density_is_reported_as_the_root_cause_and_recovers() {
    // A tabulated potential has a bounded embedding domain; past its edge
    // the evaluation is poisoned (NaN) in all builds instead of silently
    // extrapolating. Drive a blowup mid-run and assert the recovery loop
    // records DensityOutOfRange — the root cause — never the NaN-force
    // symptom, then rolls back and completes.
    let src = AnalyticEam::fe();
    let tab = TabulatedEam::standard(&src, src.rho_e());
    let mut sim = Simulation::builder(LatticeSpec::bcc_fe(7))
        .potential(tab)
        .strategy(StrategyKind::Serial)
        .temperature(300.0)
        .seed(11)
        .build()
        .expect("buildable");
    let cfg = RecoveryConfig {
        checkpoint_every: 10,
        ..RecoveryConfig::default()
    };
    let mut fired = false;
    let report = sim
        .run_with_recovery_observed(30, &cfg, |system, step| {
            if step == 15 && !fired {
                fired = true;
                // Shove atom 1 into atom 0's core: the host density there
                // exceeds ρ_max at the next force computation.
                let target = system.positions()[0] + Vec3::new(0.6, 0.0, 0.0);
                system.positions_mut()[1] = target;
            }
        })
        .expect("run completes despite the fault");
    assert!(fired);
    assert_eq!(report.steps_completed, 30);
    assert!(report.rollbacks >= 1, "the fault must trigger a rollback");
    assert!(
        report
            .faults
            .iter()
            .any(|f| matches!(f.fault, SimFault::DensityOutOfRange { .. })),
        "expected DensityOutOfRange, got {:?}",
        report.faults
    );
    assert!(
        !report
            .faults
            .iter()
            .any(|f| matches!(f.fault, SimFault::NonFiniteForce { .. })),
        "the root cause, not the NaN-force symptom, must be reported: {:?}",
        report.faults
    );
    assert!(sim.thermo().total.is_finite());
    assert!(sim.system().forces().iter().all(|f| f.is_finite()));
}
