//! Conformance, determinism and soak battery for the task-graph scatter
//! engine (the barrier-free execution of the SDC plan).
//!
//! Three layers:
//!
//! 1. **DAG safety/liveness (random cases)**: on random atom clouds and
//!    decomposition dimensionalities, the dependency graph (a) has exactly
//!    the edges a brute-force periodic halo-overlap oracle predicts, each
//!    pointing up in color-major order, (b) never leaves two tasks with
//!    overlapping write footprints unordered, and (c) lets every task
//!    become runnable (Kahn's algorithm drains it) along chains no longer
//!    than the color count.
//! 2. **Determinism battery**: taskgraph trajectories are bitwise-identical
//!    across thread counts and repeated runs on the carved-void and
//!    impact-cluster workloads, and bitwise-identical to barriered SDC at
//!    the same dims (both add into every element color by color), and
//!    within 1e-10 of Serial.
//! 3. **Stress/soak**: a 500-step melt with mid-run rebuilds and a
//!    hair-trigger rebalance threshold loses no task completions and never
//!    leaves the graph regime.

use md_base::rng::Rng;
use md_geometry::{LatticeSpec, SimBox, Vec3};
use md_neighbor::{NeighborList, VerletConfig};
use md_potential::AnalyticEam;
use md_sim::{BalanceConfig, PotentialChoice, Simulation, StrategyKind, System};
use sdc_core::{DecompositionConfig, SdcPlan, TaskGraph};
use std::sync::Arc;

const FE_MASS: f64 = 55.845;

/// The carved-void workload of `tests/load_balance.rs`: a bcc iron crystal
/// with a sphere of radius 0.2·L removed from one octant.
fn void_system(cells: usize) -> System {
    let (bx, pos) = LatticeSpec::bcc_fe(cells).build();
    let l = bx.lengths();
    let center = Vec3::new(l.x * 0.25, l.y * 0.25, l.z * 0.25);
    let radius = l.x * 0.2;
    let kept: Vec<Vec3> = pos
        .into_iter()
        .filter(|p| (*p - center).norm() > radius)
        .collect();
    System::new(bx, kept, FE_MASS)
}

fn fe() -> PotentialChoice {
    PotentialChoice::Eam(Arc::new(AnalyticEam::fe()))
}

/// Case `k` draws its cloud from `Rng::new(k)` and names `k` in every
/// failure message.
#[test]
fn dag_matches_the_halo_overlap_oracle_and_is_safe_and_live() {
    for case in 0..32 {
        let mut rng = Rng::new(case);
        let n_atoms = 50 + rng.below(100) as usize;
        let l = rng.uniform(24.0, 40.0);
        let dims = 1 + rng.below(3) as usize;
        let b = SimBox::cubic(l);
        let pos: Vec<Vec3> = (0..n_atoms)
            .map(|_| Vec3::new(rng.f64() * l, rng.f64() * l, rng.f64() * l))
            .collect();
        let (cutoff, skin) = (3.0, 0.5);
        let range = cutoff + skin;
        let nl = NeighborList::build(&b, &pos, VerletConfig::half(cutoff, skin));
        let plan = SdcPlan::build(&b, &pos, DecompositionConfig::new(dims, range)).unwrap();
        let d = plan.decomposition();
        let graph = TaskGraph::build(d, &b);
        let n = d.subdomain_count();
        assert_eq!(graph.task_count(), n, "case {case}");

        // (a) Edge oracle: a conflict edge exists iff the two subdomains'
        // range-expanded AABBs intersect under periodic wrap — the same
        // predicate that defines SDC color safety — and it points from the
        // earlier task to the later one in (color, id) order.
        let rank = |s: usize| (d.color_of(s), s);
        let mut expected_edges = 0usize;
        for a in 0..n {
            for c in (a + 1)..n {
                let overlap = d
                    .aabb(a)
                    .expanded(range)
                    .intersects_periodic(&d.aabb(c).expanded(range), &b);
                let (lo, hi) = if rank(a) < rank(c) { (a, c) } else { (c, a) };
                assert_eq!(
                    graph.has_edge(lo, hi),
                    overlap,
                    "case {case}: tasks {lo} and {hi}: edge vs oracle mismatch"
                );
                assert!(
                    !graph.has_edge(hi, lo),
                    "case {case}: edge {hi}→{lo} points down the color-major order"
                );
                if overlap {
                    expected_edges += 1;
                }
            }
        }
        assert_eq!(graph.edge_count(), expected_edges, "case {case}");

        // (b) Safety: tasks left unordered by the DAG must have disjoint
        // write footprints on the *real* neighbor rows, so no interleaving
        // of runnable tasks can race on an output element.
        graph
            .validate_independence(&plan, nl.csr())
            .unwrap_or_else(|e| panic!("case {case}: {e}"));

        // (c) Liveness: Kahn's algorithm drains the whole graph — every
        // task becomes runnable exactly once, no deadlock or starvation —
        // and its levels show the parallelism: the longest chain is the
        // color count, not the task count.
        let mut indeg = graph.indegree().to_vec();
        let mut level = vec![1usize; n];
        let mut ready: Vec<usize> = (0..n).filter(|&t| indeg[t] == 0).collect();
        assert!(!ready.is_empty() || n == 0, "case {case}: nothing is initially runnable");
        let (mut done, mut depth) = (0usize, 0usize);
        while let Some(t) = ready.pop() {
            done += 1;
            depth = depth.max(level[t]);
            for &dep in graph.dependents_of(t) {
                let dep = dep as usize;
                level[dep] = level[dep].max(level[t] + 1);
                indeg[dep] -= 1;
                if indeg[dep] == 0 {
                    ready.push(dep);
                }
            }
        }
        assert_eq!(done, n, "case {case}: some task never became runnable");
        assert_eq!(depth, d.color_count(), "case {case}: longest chain of {n} tasks");
    }
}

fn trajectory(
    system: &System,
    strategy: StrategyKind,
    threads: usize,
    steps: usize,
) -> (Vec<Vec3>, Vec<Vec3>) {
    let mut sim = Simulation::from_system(system.clone())
        .potential_choice(fe())
        .strategy(strategy)
        .threads(threads)
        .temperature(300.0)
        .seed(23)
        .build()
        .expect("build");
    assert_eq!(sim.engine().strategy(), strategy, "{strategy} must not have downgraded");
    sim.run(steps);
    (
        sim.system().positions().to_vec(),
        sim.system().velocities().to_vec(),
    )
}

#[test]
fn taskgraph_trajectories_are_bitwise_identical_across_thread_counts() {
    // The accumulation order is fixed by the conflict DAG (color-major
    // between every overlapping pair), so the trajectory must not depend on
    // the worker count or on scheduling noise between repeated runs, and
    // it is barriered SDC's trajectory.
    let system = void_system(9);
    for dims in [2usize, 3] {
        let graph = StrategyKind::TaskGraph { dims };
        let reference = trajectory(&system, graph, 1, 3);
        let barriered = trajectory(&system, StrategyKind::Sdc { dims }, 2, 3);
        assert_eq!(reference, barriered, "graph differs from barriered SDC at d{dims}");
        for threads in [2usize, 4, 8] {
            let got = trajectory(&system, graph, threads, 3);
            assert_eq!(reference.0, got.0, "positions differ at t{threads} d{dims}");
            assert_eq!(reference.1, got.1, "velocities differ at t{threads} d{dims}");
        }
        // Repeated runs at the same thread count: scheduling noise between
        // runs must not leak into the physics either.
        let again = trajectory(&system, graph, 4, 3);
        assert_eq!(reference.0, again.0, "repeat run diverged at d{dims}");
    }
}

#[test]
fn taskgraph_conforms_to_the_barriered_reference_on_the_carved_void() {
    let system = void_system(9);
    let forces_of = |strategy: StrategyKind, threads: usize| -> Vec<Vec3> {
        let sim = Simulation::from_system(system.clone())
            .potential_choice(fe())
            .strategy(strategy)
            .threads(threads)
            .build()
            .expect("build");
        sim.system().forces().to_vec()
    };
    let serial = forces_of(StrategyKind::Serial, 1);
    for dims in [1usize, 2, 3] {
        for threads in [1usize, 2, 4, 8] {
            let sdc = forces_of(StrategyKind::Sdc { dims }, threads);
            let graph = forces_of(StrategyKind::TaskGraph { dims }, threads);
            assert_eq!(sdc, graph, "d{dims} t{threads}: graph differs from barriered SDC");
            for (i, (s, b)) in serial.iter().zip(&graph).enumerate() {
                for d in 0..3 {
                    assert!(
                        (s[d] - b[d]).abs() <= 1e-10,
                        "d{dims} t{threads} atom {i}.{d}: serial {} vs graph {}",
                        s[d],
                        b[d]
                    );
                }
            }
        }
    }
}

#[test]
fn taskgraph_tracks_serial_through_the_impact_heated_cluster() {
    // The impact workload of tests/load_balance.rs: quadruple the velocities
    // inside a cluster to provoke drift, rebuilds and re-planning.
    let build = |strategy: StrategyKind, threads: usize| {
        let mut sim = Simulation::from_system(void_system(9))
            .potential_choice(fe())
            .strategy(strategy)
            .threads(threads)
            .temperature(300.0)
            .seed(23)
            .build()
            .expect("build");
        let l = sim.system().sim_box().lengths();
        let center = Vec3::new(l.x * 0.75, l.y * 0.75, l.z * 0.75);
        let radius = l.x * 0.15;
        let positions = sim.system().positions().to_vec();
        for (i, p) in positions.iter().enumerate() {
            if (*p - center).norm() < radius {
                sim.system_mut().velocities_mut()[i] *= 4.0;
            }
        }
        sim.refresh_forces();
        sim.run(5);
        sim
    };
    let reference = build(StrategyKind::Serial, 1);
    let bitwise_ref = build(StrategyKind::TaskGraph { dims: 3 }, 1);
    for threads in [2usize, 4, 8] {
        let graph = build(StrategyKind::TaskGraph { dims: 3 }, threads);
        // Bitwise vs the single-threaded taskgraph run and vs barriered SDC
        // at the same dims and thread count…
        assert_eq!(
            bitwise_ref.system().positions(),
            graph.system().positions(),
            "taskgraph t{threads} not bitwise-deterministic on the impact workload"
        );
        let barriered = build(StrategyKind::Sdc { dims: 3 }, threads);
        assert_eq!(
            barriered.system().positions(),
            graph.system().positions(),
            "taskgraph t{threads} differs from barriered SDC on the impact workload"
        );
        assert_eq!(barriered.system().velocities(), graph.system().velocities());
        // …and ≤ 1e-10 vs the serial oracle.
        for (i, (a, b)) in reference
            .system()
            .positions()
            .iter()
            .zip(graph.system().positions())
            .enumerate()
        {
            assert!(
                (*a - *b).norm() <= 1e-10,
                "t{threads}: atom {i} diverged: {a} vs {b}"
            );
        }
    }
}

#[test]
fn five_hundred_step_melt_loses_no_task_completions() {
    // Hot enough to force many neighbor rebuilds; the hair-trigger replan
    // threshold makes the balancer re-search at essentially every rebuild.
    let mut sim = Simulation::from_system(void_system(9))
        .potential_choice(fe())
        .strategy(StrategyKind::TaskGraph { dims: 3 })
        .threads(4)
        .temperature(1800.0)
        .seed(11)
        .metrics(true)
        .balance_config(BalanceConfig {
            replan_threshold: 1.01,
            ..BalanceConfig::default()
        })
        .build()
        .expect("build");
    assert!(sim.engine().downgrades().is_empty(), "unexpected downgrade");

    // build() ran one initial force compute under the post-balance plan.
    // The balancer may change the dims, never the regime.
    let tasks_per_compute = |sim: &Simulation| -> u64 {
        let strategy = sim.engine().strategy();
        assert!(
            matches!(strategy, StrategyKind::TaskGraph { .. }),
            "the balancer left the graph regime for {strategy}"
        );
        let subdomains = sim
            .engine()
            .plan()
            .expect("taskgraph keeps a plan")
            .decomposition()
            .subdomain_count() as u64;
        2 * subdomains // density + force sweeps
    };
    let mut expected = tasks_per_compute(&sim);
    for _ in 0..500 {
        sim.step();
        // Reading the engine *after* the step sees exactly the plan the
        // step's compute ran under (rebuilds happen before the compute).
        expected += tasks_per_compute(&sim);
    }
    let m = sim.metrics().expect("metrics on");
    assert_eq!(
        m.scatter.tasks.get(),
        expected,
        "task completions lost or duplicated across {} rebuilds",
        sim.engine().rebuilds()
    );
    assert_eq!(
        m.scatter.ready_latency.count(),
        expected,
        "ready-latency histogram missed tasks"
    );
    assert_eq!(m.scatter.color_barriers.get(), 0, "no color barriers may run");
    assert!(
        sim.engine().rebuilds() >= 3,
        "melt produced too few rebuilds ({}) to stress the graph rebuild path",
        sim.engine().rebuilds()
    );
    // The balancer stayed live throughout, and every rebalance it adopted
    // moved from one task graph to another.
    assert!(sim.engine().plan_choice().is_some());
    for ev in sim.rebalances() {
        assert!(
            matches!(ev.from, StrategyKind::TaskGraph { .. })
                && matches!(ev.to, StrategyKind::TaskGraph { .. }),
            "rebalance left the graph regime: {ev:?}"
        );
    }
    // Physics stayed finite through the melt.
    assert!(sim
        .system()
        .forces()
        .iter()
        .all(|f| f.norm().is_finite()));
}
