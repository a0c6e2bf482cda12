//! End-to-end robustness: fault detection → rollback → completion, graceful
//! strategy degradation, and crash-safe checkpointing through the public API.

use md_base::rng::Rng;
use sdc_md::prelude::*;
use sdc_md::sim::checkpoint::{
    atomic_write, checkpoint_tmp_path, load_checkpoint, read_checkpoint, save_checkpoint,
    write_checkpoint,
};
use sdc_md::sim::health::corrupt_file_byte;

fn fe_sim(spec: LatticeSpec, strategy: StrategyKind) -> Simulation {
    Simulation::builder(spec)
        .potential(AnalyticEam::fe())
        .strategy(strategy)
        .threads(2)
        .temperature(300.0)
        .seed(11)
        .build()
        .expect("buildable")
}

#[test]
fn injected_nan_force_rolls_back_to_last_checkpoint_and_completes() {
    let mut sim = fe_sim(LatticeSpec::bcc_fe(7), StrategyKind::Privatized);
    let dt0 = sim.dt();
    let cfg = RecoveryConfig {
        checkpoint_every: 10,
        ..RecoveryConfig::default()
    };
    // NaN the forces at step 25 — between the checkpoints at 10 and 20.
    let mut injector = FaultInjector::new(25, InjectedFault::NanForce { atom: 3 });
    let report = sim
        .run_with_recovery_observed(40, &cfg, |system, step| {
            injector.poke(system, step);
        })
        .expect("run completes despite the fault");
    assert!(injector.fired());
    assert_eq!(report.steps_completed, 40);
    assert_eq!(sim.step_count(), 40);
    assert_eq!(report.rollbacks, 1);
    assert_eq!(report.faults.len(), 1);
    assert!(matches!(
        report.faults[0].fault,
        SimFault::NonFiniteForce { atom: 3, step: 25 }
    ));
    assert!(report.final_dt < dt0, "dt backoff applied");
    // The final state is fully healthy.
    let t = sim.thermo();
    assert!(t.total.is_finite());
    assert!(sim.system().positions().iter().all(|p| p.is_finite()));
}

#[test]
fn recovery_persists_checkpoints_a_new_process_can_resume_from() {
    let path = std::env::temp_dir().join("sdc_md_robustness_resume.ckpt");
    let _ = std::fs::remove_file(&path);
    let mut sim = fe_sim(LatticeSpec::bcc_fe(7), StrategyKind::Privatized);
    let cfg = RecoveryConfig {
        checkpoint_every: 15,
        checkpoint_path: Some(path.clone()),
        ..RecoveryConfig::default()
    };
    sim.run_with_recovery(30, &cfg).unwrap();
    // "Crash" here: a fresh simulation resumes from the persisted file.
    let (system, step) = load_checkpoint(&path).expect("persisted checkpoint is valid");
    assert_eq!(step, 15, "last mid-run snapshot");
    let mut resumed = Simulation::from_system(system)
        .potential(AnalyticEam::fe())
        .strategy(StrategyKind::Privatized)
        .threads(2)
        .build()
        .unwrap();
    resumed.run(5);
    assert!(resumed.thermo().total.is_finite());
    let _ = std::fs::remove_file(path);
}

#[test]
fn sdc3_degrades_to_the_only_feasible_dims_with_recorded_events() {
    // 25.8 × 17.2 × 17.2 Å: only the x axis can host two ≥ 2·range
    // subdomains, so of the SDC variants only dims = 1 is feasible.
    let spec = LatticeSpec::new(Lattice::Bcc, 2.8665, [9, 6, 6]);
    let sim = fe_sim(spec, StrategyKind::Sdc { dims: 3 });
    assert_eq!(sim.engine().strategy(), StrategyKind::Sdc { dims: 1 });
    let events = sim.downgrades();
    assert_eq!(events.len(), 2, "3 → 2 → 1");
    assert_eq!(events[0].from, StrategyKind::Sdc { dims: 3 });
    assert_eq!(events[0].to, StrategyKind::Sdc { dims: 2 });
    assert_eq!(events[1].from, StrategyKind::Sdc { dims: 2 });
    assert_eq!(events[1].to, StrategyKind::Sdc { dims: 1 });
    assert!(sim.engine().plan().is_some(), "dims = 1 really runs SDC");
    // And the degraded simulation does real physics.
    let mut sim = sim;
    let e0 = sim.thermo().total;
    sim.run(20);
    let e1 = sim.thermo().total;
    assert!(((e1 - e0) / e0).abs() < 1e-4, "NVE holds after degradation");
}

#[test]
fn fully_infeasible_sdc_lands_on_serial_and_matches_serial_physics() {
    // 17.2 Å on every axis: no SDC variant fits; chain ends at Serial.
    let sdc = fe_sim(LatticeSpec::bcc_fe(6), StrategyKind::Sdc { dims: 3 });
    assert_eq!(sdc.engine().strategy(), StrategyKind::Serial);
    assert_eq!(sdc.downgrades().len(), 3);
    assert!(sdc.engine().plan().is_none());
    let mut sdc = sdc;
    let mut serial = fe_sim(LatticeSpec::bcc_fe(6), StrategyKind::Serial);
    sdc.run(10);
    serial.run(10);
    let (a, b) = (sdc.thermo().total, serial.thermo().total);
    assert!((a - b).abs() < 1e-6 * b.abs(), "{a} vs {b}");
    // The chain's last link is serial itself: the same bits, not just the
    // same physics.
    assert_eq!(sdc.system().positions(), serial.system().positions());
}

#[test]
fn interrupted_checkpoint_write_never_corrupts_the_previous_one() {
    let path = std::env::temp_dir().join("sdc_md_robustness_atomic.ckpt");
    let _ = std::fs::remove_file(&path);
    let sim = fe_sim(LatticeSpec::bcc_fe(5), StrategyKind::Serial);
    save_checkpoint(&path, sim.system(), 100).unwrap();
    let before = std::fs::read(&path).unwrap();
    // Simulate a kill between the temp-file write and the rename: the
    // writer starts emitting bytes, then dies.
    let result = atomic_write(&path, |f| {
        use std::io::Write;
        f.write_all(b"sdc-md-checkpoint v2\nstep 999\nbox 1 1 ")?;
        Err(CheckpointError::Malformed("killed mid-write".into()))
    });
    assert!(result.is_err());
    // Target file is byte-identical to the pre-crash checkpoint, the temp
    // sibling is gone, and the file still loads.
    assert_eq!(std::fs::read(&path).unwrap(), before);
    assert!(!checkpoint_tmp_path(&path).exists());
    let (_, step) = load_checkpoint(&path).unwrap();
    assert_eq!(step, 100);
    let _ = std::fs::remove_file(path);
}

#[test]
fn corrupted_checkpoint_is_detected_not_loaded() {
    let path = std::env::temp_dir().join("sdc_md_robustness_corrupt.ckpt");
    let sim = fe_sim(LatticeSpec::bcc_fe(5), StrategyKind::Serial);
    save_checkpoint(&path, sim.system(), 7).unwrap();
    // Flip one byte in the middle of the atom table.
    let size = std::fs::metadata(&path).unwrap().len() as usize;
    corrupt_file_byte(&path, size / 2).unwrap();
    match load_checkpoint(&path) {
        Err(CheckpointError::ChecksumMismatch { stored, computed }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    // Truncation is also caught.
    save_checkpoint(&path, sim.system(), 7).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(load_checkpoint(&path).is_err());
    let _ = std::fs::remove_file(path);
}

/// An arbitrary dynamic state: random box (with random periodicity),
/// mass, and per-atom positions/velocities.
fn random_state(rng: &mut Rng) -> System {
    let [lx, ly, lz] = [(); 3].map(|_| rng.uniform(10.0, 40.0));
    let lengths = Vec3::new(lx, ly, lz);
    let periodic = [(); 3].map(|_| rng.below(2) == 1);
    let mass = rng.uniform(0.5, 250.0);
    let n = 1 + rng.below(39) as usize;
    let positions = (0..n)
        .map(|_| {
            let [fx, fy, fz] = [(); 3].map(|_| rng.f64());
            Vec3::new(fx * lengths.x, fy * lengths.y, fz * lengths.z)
        })
        .collect();
    let mut system = System::new(SimBox::with_periodicity(lengths, periodic), positions, mass);
    for v in system.velocities_mut() {
        let [vx, vy, vz] = [(); 3].map(|_| rng.uniform(-80.0, 80.0));
        *v = Vec3::new(vx, vy, vz);
    }
    system
}

fn bits(vs: &[Vec3]) -> Vec<[u64; 3]> {
    vs.iter()
        .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
        .collect()
}

/// Random cases per checkpoint property; case `k` draws its state from
/// `Rng::new(k)` and names `k` in every failure message.
const CASES: u64 = 48;

#[test]
fn checkpoint_v2_round_trips_arbitrary_states_bitwise() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let system = random_state(&mut rng);
        let step = rng.next_u64() as usize;
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, &system, step).unwrap();
        let (restored, restored_step) = read_checkpoint(&buf[..]).unwrap();
        assert_eq!(restored_step, step, "case {case}");
        assert_eq!(restored.mass().to_bits(), system.mass().to_bits(), "case {case}");
        assert_eq!(
            bits(&[restored.sim_box().lengths()]),
            bits(&[system.sim_box().lengths()]),
            "case {case}"
        );
        assert_eq!(
            restored.sim_box().periodicity(),
            system.sim_box().periodicity(),
            "case {case}"
        );
        assert_eq!(bits(restored.positions()), bits(system.positions()), "case {case}");
        assert_eq!(bits(restored.velocities()), bits(system.velocities()), "case {case}");
    }
}

#[test]
fn corrupted_footer_digit_is_always_rejected() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let system = random_state(&mut rng);
        let digit = rng.below(16) as usize;
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, &system, 1).unwrap();
        // The footer line is "checksum <16 hex digits>\n"; replace one
        // digit with a different hex digit.
        let hex_start = buf.len() - 17;
        let i = hex_start + digit;
        buf[i] = if buf[i] == b'0' { b'1' } else { b'0' };
        assert!(
            matches!(
                read_checkpoint(&buf[..]).unwrap_err(),
                CheckpointError::ChecksumMismatch { .. }
            ),
            "case {case}: digit {digit}"
        );
    }
}

#[test]
fn truncation_at_any_point_is_always_rejected() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let system = random_state(&mut rng);
        let frac = rng.f64();
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, &system, 2).unwrap();
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        buf.truncate(cut);
        assert!(read_checkpoint(&buf[..]).is_err(), "case {case}: cut at {cut}");
    }
}

#[test]
fn watchdog_catches_escape_from_an_open_box() {
    // A slab open along z: give one surface atom a huge outward velocity
    // and the watchdog must report the escape instead of running on.
    let spec = LatticeSpec::bcc_fe(7);
    let (bx, pos) = spec.build();
    let open = SimBox::with_periodicity(bx.lengths(), [true, true, false]);
    let system = System::new(open, pos, 55.845);
    let mut sim = Simulation::from_system(system)
        .potential(AnalyticEam::fe())
        .strategy(StrategyKind::Serial)
        .temperature(100.0)
        .seed(4)
        .build()
        .unwrap();
    let n = sim.system().len();
    sim.system_mut().velocities_mut()[n - 1] = Vec3::new(0.0, 0.0, 4000.0);
    let cfg = RecoveryConfig {
        checkpoint_every: 1000,
        max_retries: 0, // no retry: surface the fault
        ..RecoveryConfig::default()
    };
    let err = sim.run_with_recovery(200, &cfg).unwrap_err();
    match err {
        RecoveryError::RetriesExhausted { fault, .. } => {
            assert!(
                matches!(fault, SimFault::AtomEscaped { axis: 2, .. }),
                "expected escape along z, got {fault}"
            );
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

#[test]
fn retry_exhaustion_surfaces_the_root_cause_not_a_rollback_artifact() {
    // A persistent fault at step 25: the first hit NaNs a force, every
    // replay after a rollback NaNs a velocity instead. When the retry
    // budget runs out, the error must carry the FIRST fault of the streak
    // (the root cause), not whichever artifact tripped the watchdog last.
    let mut sim = fe_sim(LatticeSpec::bcc_fe(7), StrategyKind::Serial);
    let cfg = RecoveryConfig {
        checkpoint_every: 10,
        max_retries: 2,
        ..RecoveryConfig::default()
    };
    let mut hits = 0usize;
    let err = sim
        .run_with_recovery_observed(40, &cfg, |system, step| {
            if step == 25 {
                hits += 1;
                if hits == 1 {
                    system.forces_mut()[3].x = f64::NAN;
                } else {
                    system.velocities_mut()[3].x = f64::NAN;
                }
            }
        })
        .unwrap_err();
    assert!(hits > 1, "the fault must persist across rollbacks (hits = {hits})");
    match err {
        RecoveryError::RetriesExhausted { fault, retries } => {
            assert_eq!(retries, 2);
            assert!(
                matches!(fault, SimFault::NonFiniteForce { atom: 3, step: 25 }),
                "root cause must be the first fault of the streak, got {fault}"
            );
            assert_eq!(fault.kind(), "NonFiniteForce");
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

#[test]
fn dt_backoff_state_is_consistent_between_report_and_simulation() {
    // After a recovered fault the shrunken dt persists (the old dt is what
    // faulted) and the report and the simulation must agree on it, so a
    // caller chaining further runs keeps integrating at the safe step.
    let mut sim = fe_sim(LatticeSpec::bcc_fe(7), StrategyKind::Serial);
    let dt0 = sim.dt();
    let cfg = RecoveryConfig {
        checkpoint_every: 10,
        ..RecoveryConfig::default()
    };
    let mut injector = FaultInjector::new(25, InjectedFault::NanForce { atom: 1 });
    let report = sim
        .run_with_recovery_observed(40, &cfg, |system, step| {
            injector.poke(system, step);
        })
        .expect("one transient fault is recoverable");
    assert_eq!(report.rollbacks, 1);
    assert!(report.final_dt < dt0, "dt backoff applied");
    assert_eq!(
        sim.dt(),
        report.final_dt,
        "simulation and report disagree on the post-recovery dt"
    );
    // A follow-up run starts from the consistent state and stays clean.
    let follow_up = sim.run_with_recovery(20, &cfg).expect("clean follow-up");
    assert_eq!(follow_up.rollbacks, 0);
    assert_eq!(sim.dt(), follow_up.final_dt);
}
