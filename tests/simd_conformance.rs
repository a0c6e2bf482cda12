//! Conformance battery for the EAM row kernels and their SIMD lanes.
//!
//! The determinism contract under test: the row kernels of the row-owning
//! strategies (Serial, SDC, task graph) give rho, fp and forces **bit for
//! bit** equal to the per-pair oracle of `common::reference_eam`, which
//! replays each strategy's summation order with the potential's separate
//! scalar calls. It holds at every step, at every thread count, on both
//! potential backends, on uniform, carved-void, open-axis and compressed
//! crystals, and in both build profiles; tier-1's SIMD gate runs this file
//! in release and again with `MD_SIMD_SCALAR=1`, so both backends — the
//! AVX2 geometry lanes and splines, and their scalar legs — are held to
//! the same oracle on any host. Physics-level nets: central-difference force
//! consistency, NaN positions poisoning the same atoms as in the oracle,
//! and the out-of-table density guard surfacing through the watchdog as
//! the structured root cause.

mod common;

use common::{rattle, reference_eam};
use sdc_md::prelude::*;

/// Asserts that `system`'s rho, fp and forces, as `engine` last computed
/// them, equal the oracle's bit for bit.
fn assert_matches_oracle(system: &System, engine: &ForceEngine, pot: &PotentialChoice, what: &str) {
    let PotentialChoice::Eam(pot) = pot else {
        panic!("{what}: the oracle evaluates EAM potentials");
    };
    let (rho, fp, forces) = reference_eam(system, engine, pot.as_ref());
    assert_eq!(system.rho(), &rho[..], "{what}: rho");
    assert_eq!(system.fp(), &fp[..], "{what}: fp");
    assert_eq!(system.forces(), &forces[..], "{what}: forces");
}

/// A seeded 9³-cell iron simulation with every knob pinned except the ones
/// under test.
fn sim_with(tabulated: bool, strategy: StrategyKind, threads: usize) -> Simulation {
    Simulation::builder(LatticeSpec::bcc_fe(9))
        .potential_choice(eam(tabulated))
        .strategy(strategy)
        .threads(threads)
        .temperature(320.0)
        .seed(7)
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

/// Multi-step trajectories equal the oracle at every step, the initial
/// forces included, for every row-owning strategy and the whole thread
/// matrix, on both potential backends: each step's forces are the
/// oracle's, so the trajectory is the one the per-pair reference
/// arithmetic integrates.
#[test]
fn trajectories_match_the_oracle_at_every_step() {
    for tabulated in [false, true] {
        let pot = eam(tabulated);
        for strategy in [
            StrategyKind::Serial,
            StrategyKind::Sdc { dims: 3 },
            StrategyKind::TaskGraph { dims: 3 },
        ] {
            for threads in [1, 2, 4, 8] {
                let mut sim = sim_with(tabulated, strategy, threads);
                for step in 0..=12 {
                    if step > 0 {
                        sim.run(1);
                    }
                    let what = format!("tab={tabulated} {strategy} t={threads} step {step}");
                    assert_matches_oracle(sim.system(), sim.engine(), &pot, &what);
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

/// Runs `system` under each of `strategies` the decomposition accepts (a
/// plan the box cannot hold downgrades the engine, and that run is
/// skipped), at 1, 2 and 4 threads and on both potential backends, and
/// asserts rho, fp and forces bit for bit equal to the oracle at the start
/// and after each of two velocity-Verlet steps from 320 K. Returns the
/// strategies that ran in every configuration.
fn assert_row_kernels_match_oracle(
    crystal: &str,
    system: &System,
    strategies: &[StrategyKind],
) -> Vec<StrategyKind> {
    let mut skipped = Vec::new();
    for tabulated in [false, true] {
        let pot = eam(tabulated);
        for &strategy in strategies {
            for threads in [1, 2, 4] {
                let mut sim = Simulation::from_system(system.clone())
                    .potential_choice(pot.clone())
                    .strategy(strategy)
                    .threads(threads)
                    .temperature(320.0)
                    .seed(7)
                    .build()
                    .expect("buildable configuration");
                if sim.engine().strategy() != strategy {
                    skipped.push(strategy);
                    continue;
                }
                for step in 0..=2 {
                    if step > 0 {
                        sim.run(1);
                    }
                    let what =
                        format!("{crystal} tab={tabulated} {strategy} t={threads} step {step}");
                    assert_matches_oracle(sim.system(), sim.engine(), &pot, &what);
                }
            }
        }
    }
    strategies
        .iter()
        .copied()
        .filter(|s| !skipped.contains(s))
        .collect()
}

/// The central contract: the row kernels — pair geometry in lanes, row
/// chunks through the batched splines, 16-byte φ′/f′ records, `d` and `r`
/// recomputed in the force lanes — leave rho, fp and forces bit for bit
/// equal to the oracle at the start and after each of two velocity-Verlet
/// steps from 320 K, for every row-owning strategy, thread count and
/// potential backend, on uniform and non-uniform crystals.
#[test]
fn row_kernels_match_the_reference_path_bit_for_bit() {
    for (crystal, system) in crystals() {
        let ran = assert_row_kernels_match_oracle(crystal, &system, &ROW_OWNING);
        assert_eq!(ran, ROW_OWNING, "{crystal}: every row-owning strategy runs");
    }
}

/// A slab: 10 × 10 × 3 bcc cells, periodic in x and y, open in z. The slab
/// is thinner than twice the cutoff, so pairs inside the cutoff straddle
/// `L/2` on the open axis, where the lane min-image must not fire, and every
/// atom sits within reach of both open faces. Held to the oracle under
/// Serial and every plan-backed strategy the decomposition accepts (a 3-D
/// plan cannot split the 3-cell open axis).
#[test]
fn slab_with_an_open_axis_matches_the_oracle() {
    let spec = LatticeSpec::new(Lattice::Bcc, LatticeSpec::bcc_fe(1).a, [10, 10, 3]);
    let (bx, pos) = spec.build();
    let bx = SimBox::with_periodicity(bx.lengths(), [true, true, false]);
    let rc = AnalyticEam::fe().cutoff();
    assert!(
        bx.lengths().z < 2.0 * rc,
        "live pairs straddle L/2 on the open axis"
    );
    let slab = System::new(bx, pos, sdc_md::sim::units::FE_MASS);
    let ran = assert_row_kernels_match_oracle("slab", &slab, &ROW_OWNING);
    assert!(
        ran.len() >= 5 && ran.iter().filter(|s| s.plan_dims().is_some()).count() >= 4,
        "Serial and the 1-D and 2-D plans run on the slab: {ran:?}"
    );
}

/// Lane chunk of the density kernel (`CHUNK` in md-sim's `forces::eam`):
/// a longer row is split into chunks, its `rho[i]` carried across.
const ROW_CHUNK: usize = 64;

/// A 10³-cell crystal compressed to 0.9 of its edge, so many half-list
/// rows are longer than the density kernel's chunk: the kernel splits them
/// inside the row, and their lengths cover every tail length mod 4.
/// Held to the oracle under every row-owning strategy.
#[test]
fn compressed_crystal_with_rows_longer_than_a_chunk_matches_the_oracle() {
    let mut system = System::from_lattice(LatticeSpec::bcc_fe(10), sdc_md::sim::units::FE_MASS);
    system.deform(Vec3::splat(0.9));
    rattle(&mut system, 0.03);
    let probe = ForceEngine::new(&system, eam(false), StrategyKind::Serial, 1, 0.3).unwrap();
    let csr = probe.neighbor_list().csr();
    let mut tails = [0usize; 4];
    for i in 0..csr.rows() {
        if csr.row_len(i) > ROW_CHUNK {
            tails[csr.row_len(i) % 4] += 1;
        }
    }
    assert!(
        tails.iter().all(|&t| t > 0),
        "rows split across chunks, with every tail length mod 4: {tails:?}"
    );
    let ran = assert_row_kernels_match_oracle("compressed", &system, &ROW_OWNING);
    assert_eq!(ran, ROW_OWNING, "every row-owning strategy runs");
}

/// A NaN position must poison exactly the atoms it poisons in the oracle:
/// the row kernels' cutoff tests are the negated `r² ≥ rc²`, so a NaN
/// separation is never skipped as a skin pair. Runs in release builds
/// (tier-1's SIMD gate), where the potentials do not debug-assert finite
/// arguments.
#[test]
fn nan_positions_poison_the_same_atoms_as_the_reference_path() {
    if cfg!(debug_assertions) {
        return;
    }
    let nan_bits = |v: &[f64]| -> Vec<u64> {
        v.iter()
            .map(|&v| if v.is_nan() { u64::MAX } else { v.to_bits() })
            .collect()
    };
    let flat = |f: &[Vec3]| -> Vec<f64> { f.iter().flat_map(|f| [f.x, f.y, f.z]).collect() };
    let PotentialChoice::Eam(pot) = eam(true) else {
        unreachable!()
    };
    let mut system = System::from_lattice(LatticeSpec::bcc_fe(9), sdc_md::sim::units::FE_MASS);
    rattle(&mut system, 0.05);
    for strategy in [
        StrategyKind::Serial,
        StrategyKind::Sdc { dims: 3 },
        StrategyKind::TaskGraph { dims: 3 },
    ] {
        let mut sys = system.clone();
        let mut eng = ForceEngine::new(&sys, eam(true), strategy, 2, 0.3).unwrap();
        sys.positions_mut()[5].x = f64::NAN;
        eng.compute(&mut sys);
        let (rho, fp, forces) = reference_eam(&sys, &eng, pot.as_ref());
        assert!(
            rho.iter().any(|v| v.is_nan()),
            "{strategy}: the NaN must reach rho"
        );
        assert!(
            nan_bits(sys.rho()) == nan_bits(&rho),
            "{strategy}: rho NaN pattern differs"
        );
        assert!(
            nan_bits(sys.fp()) == nan_bits(&fp),
            "{strategy}: fp NaN pattern differs"
        );
        assert!(
            nan_bits(&flat(sys.forces())) == nan_bits(&flat(&forces)),
            "{strategy}: force NaN pattern differs"
        );
    }
}

/// Same configuration run twice must reproduce the trajectory bit for bit —
/// the run-to-run determinism half of the contract, on the SIMD default.
#[test]
fn simd_runs_are_deterministic_run_to_run() {
    for threads in [2, 4] {
        let mut a = sim_with(true, StrategyKind::Sdc { dims: 3 }, threads);
        let mut b = sim_with(true, StrategyKind::Sdc { dims: 3 }, threads);
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
    assert!(
        sim.engine().lane_occupancy().is_some(),
        "the row kernel is under test"
    );
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
