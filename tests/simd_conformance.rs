//! Conformance battery for the fused EAM row kernels and their SIMD lane
//! blocks.
//!
//! The determinism contract under test: the row kernels of the row-owning
//! strategies (Serial, SDC, task graph) give rho, fp and forces **bit for
//! bit** equal to the reference (dyn-dispatched, per-pair) path, with the
//! lane-batched spline evaluation on or off, at every thread count, on both
//! potential backends, on uniform and carved-void crystals; SIMD and scalar
//! trajectories stay bitwise identical across checkpoint round-trips and
//! in both build profiles (tier-1's SIMD gate runs this file in release and
//! again with `MD_SIMD_SCALAR=1` so the runtime scalar fallback is
//! exercised on any host). Physics-level nets: central-difference force
//! consistency on the SIMD path, NaN positions poisoning the same atoms as
//! on the reference path, and the out-of-table density guard surfacing
//! through the watchdog as the structured root cause.

use sdc_md::prelude::*;
use sdc_md::sim::checkpoint::{load_checkpoint, save_checkpoint};
use std::path::PathBuf;

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

/// A seeded 9³-cell iron simulation with every knob pinned except the ones
/// under test.
fn sim_with(tabulated: bool, strategy: StrategyKind, threads: usize, simd: bool) -> Simulation {
    let builder = Simulation::builder(LatticeSpec::bcc_fe(9));
    let builder = if tabulated {
        let src = AnalyticEam::fe();
        builder.potential(TabulatedEam::standard(&src, src.rho_e()))
    } else {
        builder.potential(AnalyticEam::fe())
    };
    builder
        .strategy(strategy)
        .threads(threads)
        .temperature(320.0)
        .seed(7)
        .simd(simd)
        .build()
        .expect("buildable configuration")
}

fn assert_states_bitwise(a: &Simulation, b: &Simulation, what: &str) {
    assert_eq!(
        a.system().positions(),
        b.system().positions(),
        "{what}: positions must be bitwise equal"
    );
    assert_eq!(
        a.system().velocities(),
        b.system().velocities(),
        "{what}: velocities must be bitwise equal"
    );
    assert_eq!(
        a.system().forces(),
        b.system().forces(),
        "{what}: forces must be bitwise equal"
    );
    assert_eq!(
        a.system().rho(),
        b.system().rho(),
        "{what}: densities must be bitwise equal"
    );
}

/// Multi-step trajectories under the SIMD path are bitwise identical to the
/// scalar fused path for every row-owning strategy and the whole thread
/// matrix, on both potential backends.
#[test]
fn simd_trajectories_are_bitwise_identical_to_scalar_fused() {
    for tabulated in [false, true] {
        for strategy in [
            StrategyKind::Serial,
            StrategyKind::Sdc { dims: 3 },
            StrategyKind::TaskGraph { dims: 3 },
        ] {
            for threads in [1, 2, 4, 8] {
                let mut on = sim_with(tabulated, strategy, threads, true);
                let mut off = sim_with(tabulated, strategy, threads, false);
                assert!(on.engine().simd(), "SIMD must be the default");
                assert!(!off.engine().simd());
                for round in 0..3 {
                    on.run(4);
                    off.run(4);
                    assert_states_bitwise(
                        &on,
                        &off,
                        &format!("tab={tabulated} {strategy} t={threads} round {round}"),
                    );
                }
            }
        }
    }
}

/// The row-owning strategies: each has a row kernel.
const ROW_OWNING: [StrategyKind; 7] = [
    StrategyKind::Serial,
    StrategyKind::Sdc { dims: 1 },
    StrategyKind::Sdc { dims: 2 },
    StrategyKind::Sdc { dims: 3 },
    StrategyKind::TaskGraph { dims: 1 },
    StrategyKind::TaskGraph { dims: 2 },
    StrategyKind::TaskGraph { dims: 3 },
];

fn eam(tabulated: bool) -> PotentialChoice {
    let src = AnalyticEam::fe();
    if tabulated {
        PotentialChoice::Eam(std::sync::Arc::new(TabulatedEam::standard(
            &src,
            src.rho_e(),
        )))
    } else {
        PotentialChoice::Eam(std::sync::Arc::new(src))
    }
}

/// A bcc iron crystal with a spherical void carved out of one octant (the
/// load-balance suite's non-uniform workload).
fn void_system(cells: usize) -> System {
    let (bx, pos) = LatticeSpec::bcc_fe(cells).build();
    let l = bx.lengths();
    let center = Vec3::new(l.x * 0.25, l.y * 0.25, l.z * 0.25);
    let kept: Vec<Vec3> = pos
        .into_iter()
        .filter(|p| (*p - center).norm() > l.x * 0.2)
        .collect();
    System::new(bx, kept, sdc_md::sim::units::FE_MASS)
}

/// The rattled 9³ crystal and the carved-void 9³ crystal.
fn crystals() -> [(&'static str, System); 2] {
    let mut rattled = System::from_lattice(LatticeSpec::bcc_fe(9), sdc_md::sim::units::FE_MASS);
    rattle(&mut rattled, 0.05);
    [("rattled", rattled), ("void", void_system(9))]
}

/// `system` after two velocity-Verlet steps from 320 K.
fn two_steps(
    system: &System,
    pot: &PotentialChoice,
    strategy: StrategyKind,
    threads: usize,
    fused: bool,
    simd: bool,
) -> Simulation {
    let mut sim = Simulation::from_system(system.clone())
        .potential_choice(pot.clone())
        .strategy(strategy)
        .threads(threads)
        .temperature(320.0)
        .seed(7)
        .fused(fused)
        .simd(simd)
        .build()
        .expect("buildable configuration");
    sim.run(2);
    sim
}

/// The tentpole contract: the row kernels — batched across row boundaries
/// in lane blocks, 16-byte φ′/f′ records, `d` and `r` recomputed in the
/// force sweep — leave rho, fp and forces bit for bit equal to the
/// reference path, for every row-owning strategy, thread count, SIMD
/// setting and potential backend, on uniform and non-uniform crystals.
#[test]
fn row_kernels_match_the_reference_path_bit_for_bit() {
    for (crystal, system) in crystals() {
        for tabulated in [false, true] {
            let pot = eam(tabulated);
            for strategy in ROW_OWNING {
                for threads in [1, 2, 4] {
                    let reference = two_steps(&system, &pot, strategy, threads, false, false);
                    for simd in [true, false] {
                        let fused = two_steps(&system, &pot, strategy, threads, true, simd);
                        let what =
                            format!("{crystal} tab={tabulated} {strategy} t={threads} simd={simd}");
                        assert_eq!(fused.engine().strategy(), strategy, "{what}: strategy");
                        let (a, b) = (fused.system(), reference.system());
                        assert_eq!(a.rho(), b.rho(), "{what}: rho");
                        assert_eq!(a.fp(), b.fp(), "{what}: fp");
                        assert_eq!(a.forces(), b.forces(), "{what}: forces");
                        assert_eq!(a.positions(), b.positions(), "{what}: positions");
                    }
                }
            }
        }
    }
}

/// A NaN position must poison exactly the atoms it poisons on the
/// reference path: the row kernels' cutoff tests are the negated
/// `r² ≥ rc²`, so a NaN separation is never skipped as a skin pair. Runs in
/// release builds (tier-1's SIMD gate), where the potentials do not
/// debug-assert finite arguments.
#[test]
fn nan_positions_poison_the_same_atoms_as_the_reference_path() {
    if cfg!(debug_assertions) {
        return;
    }
    let nan_bits = |v: f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
    let mut system = System::from_lattice(LatticeSpec::bcc_fe(9), sdc_md::sim::units::FE_MASS);
    rattle(&mut system, 0.05);
    for strategy in [
        StrategyKind::Serial,
        StrategyKind::Sdc { dims: 3 },
        StrategyKind::TaskGraph { dims: 3 },
    ] {
        let run = |fused: bool, simd: bool| {
            let mut sys = system.clone();
            let mut eng = ForceEngine::new(&sys, eam(true), strategy, 2, 0.3).unwrap();
            eng.set_fused(fused);
            eng.set_simd(simd);
            sys.positions_mut()[5].x = f64::NAN;
            eng.compute(&mut sys);
            let rho: Vec<u64> = sys.rho().iter().map(|&v| nan_bits(v)).collect();
            let forces: Vec<u64> = sys
                .forces()
                .iter()
                .flat_map(|f| [f.x, f.y, f.z])
                .map(nan_bits)
                .collect();
            (rho, forces)
        };
        let reference = run(false, false);
        assert!(
            reference.0.contains(&u64::MAX),
            "{strategy}: the NaN must reach rho"
        );
        for simd in [true, false] {
            assert!(
                run(true, simd) == reference,
                "{strategy} simd={simd}: NaN pattern differs"
            );
        }
    }
}

/// Same configuration run twice must reproduce the trajectory bit for bit —
/// the run-to-run determinism half of the contract, on the SIMD default.
#[test]
fn simd_runs_are_deterministic_run_to_run() {
    for threads in [2, 4] {
        let mut a = sim_with(true, StrategyKind::Sdc { dims: 3 }, threads, true);
        let mut b = sim_with(true, StrategyKind::Sdc { dims: 3 }, threads, true);
        a.run(8);
        b.run(8);
        assert_states_bitwise(&a, &b, &format!("run-to-run t={threads}"));
    }
}

/// Central-difference force consistency on the SIMD path: analytic forces
/// must equal `-dE/dx` on both potential backends, under a row-owning
/// parallel strategy, with the batched kernels doing the evaluation.
#[test]
fn simd_forces_match_numerical_gradient() {
    for (label, pot) in [
        (
            "analytic",
            PotentialChoice::Eam(std::sync::Arc::new(AnalyticEam::fe())),
        ),
        ("tabulated", {
            let src = AnalyticEam::fe();
            PotentialChoice::Eam(std::sync::Arc::new(TabulatedEam::standard(&src, src.rho_e())))
        }),
    ] {
        let mut system = System::from_lattice(
            LatticeSpec::bcc_fe(9),
            sdc_md::sim::units::FE_MASS,
        );
        rattle(&mut system, 0.05);
        let mut eng =
            ForceEngine::new(&system, pot, StrategyKind::Sdc { dims: 3 }, 2, 0.3).unwrap();
        assert!(eng.simd(), "SIMD must be the default");
        eng.compute(&mut system);
        assert!(
            eng.lane_occupancy().is_some_and(|o| o > 0.5 && o <= 1.0),
            "{label}: the SIMD row kernel must report its lane occupancy"
        );
        let forces: Vec<Vec3> = system.forces().to_vec();
        let h = 1e-5;
        let stride = (system.len() / 5).max(1);
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
                assert!(
                    (forces[atom][axis] - numeric).abs()
                        < 1e-4 * forces[atom][axis].abs().max(1.0),
                    "{label}: atom {atom} axis {axis}: analytic {} vs numeric {numeric}",
                    forces[atom][axis]
                );
            }
        }
    }
}

/// Lane batching must not leak into observable state. The
/// checkpoint a SIMD run writes mid-run is byte-identical to the scalar
/// run's, and resuming that checkpoint with SIMD off continues bitwise
/// identically to resuming with SIMD on.
#[test]
fn checkpoint_roundtrip_is_bitwise_across_simd_settings() {
    let dir = std::env::temp_dir();
    let ckpt_on: PathBuf = dir.join(format!("simd-conf-on-{}.ckpt", std::process::id()));
    let ckpt_off: PathBuf = dir.join(format!("simd-conf-off-{}.ckpt", std::process::id()));

    let mut on = sim_with(true, StrategyKind::Sdc { dims: 2 }, 2, true);
    let mut off = sim_with(true, StrategyKind::Sdc { dims: 2 }, 2, false);
    on.run(6);
    off.run(6);
    save_checkpoint(&ckpt_on, on.system(), on.step_count()).expect("save simd-on checkpoint");
    save_checkpoint(&ckpt_off, off.system(), off.step_count()).expect("save simd-off checkpoint");
    let bytes_on = std::fs::read(&ckpt_on).expect("read simd-on checkpoint");
    let bytes_off = std::fs::read(&ckpt_off).expect("read simd-off checkpoint");
    assert_eq!(
        bytes_on, bytes_off,
        "a mid-run checkpoint must be byte-identical with SIMD on or off"
    );

    let resume = |simd: bool| -> Simulation {
        let (system, step) = load_checkpoint(&ckpt_on).expect("load checkpoint");
        let src = AnalyticEam::fe();
        let mut sim = Simulation::from_system(system)
            .potential(TabulatedEam::standard(&src, src.rho_e()))
            .strategy(StrategyKind::Sdc { dims: 2 })
            .threads(2)
            .simd(simd)
            .start_step(step)
            .build()
            .expect("resumable");
        sim.run(4);
        sim
    };
    let resumed_off = resume(false);
    let resumed_on = resume(true);
    assert_states_bitwise(
        &resumed_on,
        &resumed_off,
        "resume from a SIMD-on checkpoint under SIMD off",
    );
    assert_eq!(resumed_off.step_count(), 10);

    let _ = std::fs::remove_file(&ckpt_on);
    let _ = std::fs::remove_file(&ckpt_off);
}

/// The density fault, exercised through the batched path and meaningful in
/// release builds (where `UniformSpline::locate` clamps silently instead of
/// debug-asserting): driving an atom into another's core pushes the host
/// density past the tabulated embedding domain, and the watchdog must
/// surface the structured `DensityOutOfRange` root cause — not a NaN
/// symptom — with the SIMD kernels doing the evaluation.
#[test]
fn out_of_table_density_surfaces_through_the_simd_path() {
    let src = AnalyticEam::fe();
    let tab = TabulatedEam::standard(&src, src.rho_e());
    let mut sim = Simulation::builder(LatticeSpec::bcc_fe(9))
        .potential(tab)
        .strategy(StrategyKind::Sdc { dims: 2 })
        .threads(2)
        .temperature(300.0)
        .seed(11)
        .build()
        .expect("buildable");
    assert!(sim.engine().simd(), "the default path is under test");
    let cfg = RecoveryConfig {
        checkpoint_every: 10,
        ..RecoveryConfig::default()
    };
    let mut fired = false;
    let report = sim
        .run_with_recovery_observed(30, &cfg, |system, step| {
            if step == 15 && !fired {
                fired = true;
                let target = system.positions()[0] + Vec3::new(0.6, 0.0, 0.0);
                system.positions_mut()[1] = target;
            }
        })
        .expect("run completes despite the fault");
    assert!(fired);
    assert_eq!(report.steps_completed, 30);
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
}
