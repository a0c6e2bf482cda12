//! Cross-crate integration: every parallelization strategy, driven through
//! the full public API (builder → integrator → observables), produces the
//! same physics.

use sdc_md::prelude::*;

fn fe_sim(strategy: StrategyKind, threads: usize, n: usize) -> Simulation {
    Simulation::builder(LatticeSpec::bcc_fe(n))
        .potential(AnalyticEam::fe())
        .strategy(strategy)
        .threads(threads)
        .temperature(300.0)
        .seed(1234)
        .build()
        .expect("buildable configuration")
}

#[test]
fn all_strategies_agree_after_a_short_run() {
    // 17³ cells: large enough that every color class holds several
    // subdomains, so SDC's parallelism is actually exercised.
    let mut reference: Option<f64> = None;
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
        let threads = if strategy == StrategyKind::Serial { 1 } else { 3 };
        let mut sim = fe_sim(strategy, threads, 17);
        sim.run(5);
        let e = sim.thermo().total;
        match reference {
            None => reference = Some(e),
            Some(e0) => assert!(
                (e - e0).abs() < 1e-6 * e0.abs(),
                "{strategy}: total energy {e} vs serial {e0}"
            ),
        }
    }
}

#[test]
fn deterministic_strategies_reproduce_trajectories_across_thread_counts() {
    for strategy in [
        StrategyKind::Sdc { dims: 2 },
        StrategyKind::Privatized,
        StrategyKind::Redundant,
    ] {
        // 1 thread builds the list inline, 4 threads spread it over four
        // workers — so this also pins that the parallel list build never
        // perturbs a trajectory.
        let mut one = fe_sim(strategy, 1, 17);
        let mut four = fe_sim(strategy, 4, 17);
        one.run(5);
        four.run(5);
        if strategy == StrategyKind::Privatized {
            // SAP's chunking depends on the thread count, so summation
            // order (and hence bits) differ — but physics must agree.
            let (a, b) = (one.thermo().total, four.thermo().total);
            assert!((a - b).abs() < 1e-8 * a.abs(), "{strategy}: {a} vs {b}");
        } else {
            // SDC's per-subdomain order and RC's per-atom order are
            // independent of the thread count: bitwise identical.
            assert_eq!(
                one.system().positions(),
                four.system().positions(),
                "{strategy} not thread-count invariant"
            );
        }
        // The active neighbor CSR — its windows (the layout) and its
        // indices — must be bitwise identical regardless of thread count
        // or list-build path.
        let (a, b) = (
            one.engine().neighbor_list().csr(),
            four.engine().neighbor_list().csr(),
        );
        assert_eq!(
            (a.starts(), a.ends()),
            (b.starts(), b.ends()),
            "{strategy}: neighbor windows diverged across thread counts"
        );
        assert_eq!(
            a.indices(),
            b.indices(),
            "{strategy}: neighbor indices diverged across thread counts"
        );
    }
}

#[test]
fn parallel_and_serial_list_builds_give_identical_trajectories() {
    // Same seed and strategy; 1 thread runs the list build, binning and
    // reorder gathers inline, 4 threads on four workers. A melt hot
    // enough to force several rebuilds (each with a reorder) must stay
    // bitwise identical.
    let build = |threads: usize| {
        Simulation::builder(LatticeSpec::bcc_fe(17))
            .potential(AnalyticEam::fe())
            .strategy(StrategyKind::Sdc { dims: 2 })
            .threads(threads)
            .temperature(1200.0)
            .seed(99)
            .reorder(true)
            .build()
            .expect("buildable configuration")
    };
    let mut serial_list = build(1);
    let mut parallel_list = build(4);
    serial_list.run(40);
    parallel_list.run(40);
    assert!(
        parallel_list.engine().rebuilds() > 0,
        "melt never rebuilt; the parallel path went unexercised"
    );
    assert_eq!(
        serial_list.engine().rebuilds(),
        parallel_list.engine().rebuilds(),
        "rebuild cadence must not depend on the build path"
    );
    assert_eq!(
        serial_list.system().positions(),
        parallel_list.system().positions(),
        "trajectories diverged between serial and parallel list builds"
    );
    let (a, b) = (
        serial_list.engine().neighbor_list().csr(),
        parallel_list.engine().neighbor_list().csr(),
    );
    assert_eq!((a.starts(), a.ends()), (b.starts(), b.ends()));
    assert_eq!(a.indices(), b.indices());
}

#[test]
fn sdc_engine_exposes_a_valid_plan() {
    let sim = fe_sim(StrategyKind::Sdc { dims: 3 }, 2, 17);
    let plan = sim.engine().plan().expect("plan exists");
    let d = plan.decomposition();
    assert_eq!(d.color_count(), 8);
    assert!(d.subdomains_per_color() >= 2);
    // The actual engine-facing invariant, checked through the public API.
    plan.validate_footprints(sim.engine().neighbor_list().csr())
        .expect("footprints disjoint");
    d.validate(sim.system().sim_box()).expect("coloring valid");
}

#[test]
fn strategies_work_with_tabulated_eam_too() {
    let analytic = AnalyticEam::fe();
    let tab = TabulatedEam::standard(&analytic, analytic.rho_e());
    let mut serial = Simulation::builder(LatticeSpec::bcc_fe(9))
        .potential(TabulatedEam::standard(&analytic, analytic.rho_e()))
        .strategy(StrategyKind::Serial)
        .temperature(200.0)
        .seed(5)
        .build()
        .unwrap();
    let mut sap = Simulation::builder(LatticeSpec::bcc_fe(9))
        .potential(tab)
        .strategy(StrategyKind::Privatized)
        .threads(2)
        .temperature(200.0)
        .seed(5)
        .build()
        .unwrap();
    serial.run(5);
    sap.run(5);
    let (a, b) = (serial.thermo().total, sap.thermo().total);
    assert!((a - b).abs() < 1e-8 * a.abs());
}

#[test]
fn undecomposable_boxes_fail_loudly_not_wrongly() {
    // A 6-cell box (17.2 Å) cannot host two 2·(5.67+0.3) subdomains. With
    // fallback disabled that is a hard, descriptive error…
    let err = Simulation::builder(LatticeSpec::bcc_fe(6))
        .potential(AnalyticEam::fe())
        .strategy(StrategyKind::Sdc { dims: 1 })
        .strategy_fallback(false)
        .build()
        .err()
        .expect("must refuse to build");
    assert!(err.to_string().contains("decomposition"));
    // …and with the default fallback it degrades to striped locks,
    // recording the downgrade instead of failing.
    let degraded = Simulation::builder(LatticeSpec::bcc_fe(6))
        .potential(AnalyticEam::fe())
        .strategy(StrategyKind::Sdc { dims: 1 })
        .build()
        .unwrap();
    assert_eq!(degraded.engine().strategy(), StrategyKind::Locks);
    assert_eq!(degraded.downgrades().len(), 1);
    // The same box runs fine with strategies that need no decomposition.
    let mut ok = Simulation::builder(LatticeSpec::bcc_fe(6))
        .potential(AnalyticEam::fe())
        .strategy(StrategyKind::Privatized)
        .threads(2)
        .temperature(100.0)
        .build()
        .unwrap();
    ok.run(3);
    assert!(ok.thermo().total.is_finite());
}

#[test]
fn sdc_stays_correct_while_atoms_drift_between_rebuilds() {
    // The footprint-disjointness argument is anchored to *build-time*
    // positions. Atoms then drift (up to skin/2) before the next rebuild —
    // this test pins that SDC forces remain identical to serial forces on
    // exactly such a drifted state.
    let mut hot = Simulation::builder(LatticeSpec::bcc_fe(17))
        .potential(AnalyticEam::fe())
        .strategy(StrategyKind::Sdc { dims: 3 })
        .threads(4)
        .temperature(900.0)
        .seed(31)
        .skin(0.6) // generous skin: long drift windows
        .build()
        .unwrap();
    // March until we are mid-window: at least one step after the last
    // rebuild, with real drift accumulated.
    hot.run(25);
    let rebuilds_before = hot.engine().rebuilds();
    hot.run(3);
    assert_eq!(
        hot.engine().rebuilds(),
        rebuilds_before,
        "want a drifted state strictly between rebuilds; lower the step count"
    );

    // Recompute forces on the *same* drifted state with a serial engine.
    let mut serial_system = hot.system().clone();
    let mut serial_engine = sdc_md::sim::ForceEngine::new(
        &serial_system,
        sdc_md::sim::PotentialChoice::Eam(std::sync::Arc::new(AnalyticEam::fe())),
        StrategyKind::Serial,
        1,
        0.6,
    )
    .unwrap();
    serial_engine.compute(&mut serial_system);

    // And once more with the SDC engine (fresh plan on the same state).
    let mut sdc_system = hot.system().clone();
    let mut sdc_engine = sdc_md::sim::ForceEngine::new(
        &sdc_system,
        sdc_md::sim::PotentialChoice::Eam(std::sync::Arc::new(AnalyticEam::fe())),
        StrategyKind::Sdc { dims: 3 },
        4,
        0.6,
    )
    .unwrap();
    sdc_engine.compute(&mut sdc_system);

    for (k, (a, b)) in serial_system
        .forces()
        .iter()
        .zip(sdc_system.forces())
        .enumerate()
    {
        assert!(
            (*a - *b).norm() < 1e-10,
            "drifted state: force[{k}] {a} vs {b}"
        );
    }
    // The running simulation's own forces (computed with the *old* plan on
    // the drifted positions) must match too: that is the actual invariant
    // in production.
    for (k, (a, b)) in hot.system().forces().iter().zip(sdc_system.forces()).enumerate() {
        assert!(
            (*a - *b).norm() < 1e-9,
            "old-plan force[{k}] {a} vs {b}"
        );
    }
}
